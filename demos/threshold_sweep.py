"""A small reproducible threshold sweep.

One uniform per vertex pair per trial couples the whole probability grid:
each trial's graphs are nested, NotFound transfers down them and a Found
witness up them, so the per-trial found curve is monotone by construction,
with or without a search budget, and the aggregated found-fraction curve
is exactly nondecreasing, not merely on average.
Output is byte-identical regardless of the worker count.
"""

import tempfile
from fractions import Fraction
from pathlib import Path

from hampower.hamsearch import FOUND
from hampower.montecarlo import (
    BaseGraphSpec,
    ExperimentConfig,
    clique_stats,
    emit_csv,
    result_to_csv,
    run_sweep,
)

config = ExperimentConfig(
    n=14,
    m=2,
    base=BaseGraphSpec("patched_bipartite", eps=Fraction(1, 12)),
    p_grid=tuple(i / 10 for i in range(11)),
    trials=40,
    seed=20260810,
)

print(f"sweeping n={config.n}, m={config.m}, base=patched bipartite, "
      f"{config.trials} coupled trials")
result = run_sweep(config)
print(f"done in {result.wall_time:.1f}s\n")

print(f"{'p':>5} {'found':>6} {'not':>5} {'unk':>4} {'mean K_3 in G(n,p)':>20}")
for row in result.rows:
    print(f"{row.p:>5.2f} {row.found:>6} {row.not_found:>5} {row.unknown:>4} "
          f"{row.mean_cliques:>20.3f}")

fracs = [row.found / config.trials for row in result.rows]
print("\nfound-fraction curve:", " ".join(f"{f:.2f}" for f in fracs))
print("exactly nondecreasing:", all(a <= b for a, b in zip(fracs, fracs[1:])))

curves = [[v == FOUND for v in verdicts] for verdicts in result.verdicts]
print("every per-trial curve is a monotone step:",
      all(c == sorted(c) for c in curves))

again = run_sweep(config, workers=2)
print("rerun with two workers is byte-identical:",
      result_to_csv(again) == result_to_csv(result))

out = Path(tempfile.gettempdir()) / "hampower_sweep_demo.csv"
emit_csv(result, out)
print(f"\nwrote {out}")

print("\nclique statistics vs the analytic first moment:")
st = clique_stats(n=40, p=0.08, m=2, trials=100, seed=9)
print(f"  n=40, p=0.08: empirical mean {st.empirical_mean:.3f}, "
      f"first moment {st.first_moment:.3f}")
