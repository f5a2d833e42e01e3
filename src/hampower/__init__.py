"""Powers of Hamiltonian cycles in randomly augmented dense graphs, at desk scale.

Exact building blocks for the threshold phenomenon: braid graphs and their
1-densities, the optimal-clique-size calculus and its reference tables, the
partitioned-path normalization argument with exhaustive finite verification,
an exact containment decider, and reproducible coupled Monte Carlo sweeps.
"""

from .graphs import (
    Graph,
    complete_graph,
    count_cliques,
    cycle_power,
    gnp_process,
    induced_subgraph,
    load_edge_list,
    parse_edge_list,
    patched_bipartite,
    path_power,
    sample_gnp,
    save_edge_list,
    to_dot,
    to_edge_list,
    union,
)
from .braids import braid, braid_edge_count, bridge, s_braids
from .density import (
    DensityReport,
    braid_density,
    first_moment_profile,
    is_strictly_balanced,
    max_density_brute,
    max_density_opt,
    one_density,
    verify_truncation_margins,
)
from .thresholds import (
    ThresholdRecord,
    braid_density_limit,
    braid_regime_report,
    build_tables,
    optimal_ell,
    optimal_ell_sq,
    threshold_exponent,
)
from .partitioned_paths import (
    PartitionedPath,
    SegmentList,
    check_edge_floor_exhaustive,
    m6_structure_check,
    m9_structure_check,
    normalize,
    same_side_edge_floor,
    segments,
)
from .hamsearch import FOUND, NOT_FOUND, UNKNOWN, SearchOutcome, contains_ham_power, verify_witness
from .montecarlo import (
    BaseGraphSpec,
    ExperimentConfig,
    ExponentGrid,
    SweepResult,
    clique_stats,
    emit_csv,
    run_sweep,
)

__version__ = "0.1.0"
