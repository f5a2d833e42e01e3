"""CLI surface: subcommands, formats, exit codes."""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import hampower
from hampower import braids, graphs, partitioned_paths
from hampower.cli import EXIT_BUDGET, EXIT_COUNTEREXAMPLE, EXIT_OK, EXIT_USAGE, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_braid_subcommand(capsys):
    code, out = run_cli(capsys, "braid", "--ell", "5", "--r", "3", "--t", "4")
    assert code == EXIT_OK
    g = graphs.parse_edge_list(out)
    assert g == braids.braid(5, 3, 4)


def test_braid_copies_and_dot(capsys):
    code, out = run_cli(capsys, "braid", "--ell", "4", "--r", "2", "--t", "2", "--s", "2")
    assert graphs.parse_edge_list(out) == braids.s_braids(4, 2, 2, 2)
    code, out = run_cli(capsys, "braid", "--ell", "3", "--r", "1", "--t", "1", "--dot")
    assert out.startswith("graph G {")


def test_gen_subcommands(capsys):
    code, out = run_cli(capsys, "gen", "cycle-power", "--v", "9", "--m", "2")
    assert graphs.parse_edge_list(out) == graphs.cycle_power(9, 2)
    code, out = run_cli(capsys, "gen", "patched-bipartite", "--n", "12", "--eps", "1/12")
    assert graphs.parse_edge_list(out) == graphs.patched_bipartite(12, Fraction(1, 12))
    code, a = run_cli(capsys, "gen", "gnp", "--n", "15", "--p", "0.4", "--seed", "7")
    code, b = run_cli(capsys, "gen", "gnp", "--n", "15", "--p", "0.4", "--seed", "7")
    assert a == b


def test_density_max(tmp_path, capsys):
    f = tmp_path / "b.edges"
    graphs.save_edge_list(braids.braid(4, 3, 3), f)
    code, out = run_cli(capsys, "density", "--input", str(f), "--max")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["value"] == "30/11"
    assert payload["method"] == "brute"
    code, out = run_cli(capsys, "density", "--input", str(f), "--opt")
    assert code == EXIT_OK
    assert json.loads(out) == {"value": "30/11", "witness": list(range(12)), "method": "optimized"}


def test_density_opt_on_a_long_cycle(tmp_path, capsys):
    # an augmenting path can run around the whole cycle; a recursive push
    # raised RecursionError here from 498 vertices on
    f = tmp_path / "c600.edges"
    graphs.save_edge_list(graphs.cycle_power(600, 1), f)
    code, out = run_cli(capsys, "density", "--input", str(f), "--opt")
    assert code == EXIT_OK
    assert json.loads(out) == {"value": "600/599", "witness": list(range(600)), "method": "optimized"}


@pytest.mark.parametrize("text, token", [("1_1 1\n+0 1_0\n", "1_1"), ("\u0663 0\n", "\u0663"), ("3 1\n-0 2\n", "-0")],
                         ids=["underscores-and-sign", "non-ascii-digit", "signed-zero"])
def test_non_decimal_edge_list_is_usage_error(tmp_path, capsys, text, token):
    f = tmp_path / "bad.edges"
    f.write_text(text, encoding="utf-8")
    code = main(["density", "--input", str(f), "--opt"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE and captured.out == ""
    # the message names the token (a file read as ASCII named byte 0xd9)
    assert captured.err == f"error: edge-list entries must be plain decimal integers, got {token!r}\n"


def test_edge_list_that_is_not_utf8_is_usage_error(tmp_path, capsys):
    f = tmp_path / "latin1.edges"
    f.write_bytes(b"3 1\n0 2 # \xe9\n")
    code = main(["density", "--input", str(f), "--opt"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE and captured.out == ""
    assert captured.err.startswith("error: 'utf-8' codec can't decode byte 0xe9")


def test_density_balanced_exit_codes(tmp_path, capsys):
    f = tmp_path / "bal.edges"
    graphs.save_edge_list(braids.braid(4, 3, 3), f)
    code, out = run_cli(capsys, "density", "--input", str(f), "--balanced")
    assert code == EXIT_OK and json.loads(out)["balanced"]

    g = tmp_path / "unbal.edges"
    two_k4 = braids.s_braids(4, 1, 1, 2)
    graphs.save_edge_list(two_k4, g)
    code, out = run_cli(capsys, "density", "--input", str(g), "--balanced")
    assert code == EXIT_COUNTEREXAMPLE
    assert json.loads(out)["witness"] == [0, 1, 2, 3]


@pytest.mark.parametrize("flags", [
    ["--balanced", "--opt"], ["--max", "--opt"], ["--opt", "--phi", "100", "0.3"],
    ["--max", "--balanced"], ["--balanced", "--phi", "100", "0.3"],
])
def test_density_conflicting_flags_are_usage_errors(tmp_path, capsys, flags):
    f = tmp_path / "b.edges"
    graphs.save_edge_list(braids.braid(4, 3, 3), f)
    with pytest.raises(SystemExit) as exc:
        main(["density", "--input", str(f), *flags])
    assert exc.value.code == EXIT_USAGE
    assert "not allowed with argument" in capsys.readouterr().err


def test_density_phi(tmp_path, capsys):
    f = tmp_path / "e.edges"
    graphs.save_edge_list(graphs.Graph(2, [(0, 1)]), f)
    code, out = run_cli(capsys, "density", "--input", str(f), "--phi", "100", "0.3")
    payload = json.loads(out)
    assert payload["min_profile"] == [2, 1]


def test_threshold_table_formats(capsys):
    code, out = run_cli(capsys, "threshold-table", "--m-max", "12", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    rows = {r["m"]: r for r in payload["exponents"]}
    assert rows[7]["alpha"] == "13/5"
    assert rows[10]["alpha"] == "27/7"
    assert rows[10]["exponent_of_n"] == "-7/27"
    assert len(payload["discrepancies"]) == 2  # the flagged m=10 reference cells

    code, out = run_cli(capsys, "threshold-table", "--format", "csv")
    lines = out.strip().splitlines()
    assert lines[0].startswith("m,ell,")
    assert any(line.startswith("8,6,3,3,") for line in lines)

    code, out = run_cli(capsys, "threshold-table")
    assert "| m |" in out and "NOTE:" in out


def test_normalize_subcommand(capsys):
    code, out = run_cli(capsys, "normalize", "--m", "3", "--labels", "ABAAAA", "--transcript")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["sizes"] == [2, 3, 1]
    assert payload["first_side"] == "B"
    assert payload["transcript"][0]["op"] == "init-merge"
    assert payload["slack"] * 2 <= 4


def test_search_subcommand(tmp_path, capsys):
    f = tmp_path / "k7.edges"
    graphs.save_edge_list(graphs.complete_graph(7), f)
    code, out = run_cli(capsys, "search", "--input", str(f), "--m", "3",
                        "--witness-out", str(tmp_path / "w.txt"))
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["verdict"] == "found"
    witness = [int(x) for x in (tmp_path / "w.txt").read_text().split()]
    assert sorted(witness) == list(range(7))


def test_search_budget_exit(tmp_path, capsys):
    f = tmp_path / "hard.edges"
    g = graphs.union(
        graphs.patched_bipartite(14, Fraction(1, 14)),
        graphs.sample_gnp(14, 0.12, 8),
    )
    graphs.save_edge_list(g, f)
    code, out = run_cli(capsys, "search", "--input", str(f), "--m", "2", "--budget", "10")
    assert code == EXIT_BUDGET
    assert json.loads(out)["verdict"] == "unknown"


def test_search_budget_below_one_is_usage_error(tmp_path, capsys):
    f = tmp_path / "k7.edges"
    graphs.save_edge_list(graphs.complete_graph(7), f)
    for budget in ("0", "-4"):
        code = main(["search", "--input", str(f), "--m", "2", "--budget", budget])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: budget must be >= 1, got {budget}\n"


def test_verify_targets(capsys):
    code, out = run_cli(capsys, "verify", "regime", "--m-max", "60")
    assert code == EXIT_OK and "PASS" in out
    code, out = run_cli(capsys, "verify", "tables", "--format", "json")
    assert code == EXIT_OK and json.loads(out)["ok"]
    code, out = run_cli(capsys, "verify", "edge-floor", "--m", "2", "--lmax", "10")
    assert code == EXIT_OK
    code, out = run_cli(capsys, "verify", "tail-margins", "--ell-max", "8", "--t-max", "3")
    assert code == EXIT_OK


def test_verify_all_smoke(capsys):
    code, out = run_cli(
        capsys, "verify", "all", "--lmax", "9", "--m-max", "40",
        "--ell-max", "6", "--t-max", "2",
    )
    assert code == EXIT_OK
    assert "all checks passed" in out


@pytest.mark.parametrize("argv", ["edge-floor --lmax 0", "m6 --lmax 1", "m9 --lmax 1", "tail-margins --ell-max 2",
                                  "balanced --t-max 1", "all --t-max 1 --format json"])
def test_verify_empty_range_is_usage_error(capsys, argv):
    # a target that checks nothing must not report PASS; `all` stops at tail-margins
    code = main(["verify", *argv.split()])
    captured = capsys.readouterr()
    assert (code, captured.out) == (EXIT_USAGE, "")
    target = "tail-margins" if argv.startswith("all") else argv.split()[0]
    assert captured.err.startswith(f"error: verify {target}:")


def test_verify_structure_refuses_long_labelings_before_enumerating(capsys, monkeypatch):
    # L = 63 does not fit a label mask; the bound is refused before any
    # shorter length is enumerated, with the edge-floor message
    def enumerate_nothing(L, m):
        raise AssertionError(f"enumerated L={L}")

    code = main(["verify", "edge-floor", "--lmax", "63"])
    want = capsys.readouterr().err
    assert code == EXIT_USAGE and want.startswith("error: label masks hold 0..62 positions")
    monkeypatch.setattr(partitioned_paths, "iter_valid_label_masks", enumerate_nothing)
    for target in ("m6", "m9", "all"):
        code = main(["verify", target, "--lmax", "63"])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (EXIT_USAGE, "", want)


@pytest.mark.parametrize("argv", ["--m-max 1", "--m-max 0", "--m-max -5 --format json"])
def test_threshold_table_m_max_below_two_is_usage_error(capsys, argv):
    code = main(["threshold-table", *argv.split()])
    captured = capsys.readouterr()
    assert (code, captured.out) == (EXIT_USAGE, "")
    assert captured.err == f"error: m_max must be >= 2, got {argv.split()[1]}\n"


@pytest.mark.parametrize("eps", ["1/0", "2/0", "0.1e"])
def test_gen_malformed_eps_is_usage_error(capsys, eps):
    code = main(["gen", "patched-bipartite", "--n", "16", "--eps", eps])
    captured = capsys.readouterr()
    assert (code, captured.out) == (EXIT_USAGE, "")
    assert captured.err == f"error: eps must be a number, got {eps!r}\n"


def test_sweep_subcommand(tmp_path, capsys):
    cfg = {
        "n": 8,
        "m": 2,
        "base": {"kind": "empty"},
        "p_grid": [0.0, 1.0],
        "trials": 3,
        "seed": 4,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_path = tmp_path / "rows.csv"
    code, out = run_cli(capsys, "sweep", "--config", str(cfg_path), "--out", str(out_path))
    assert code == EXIT_OK
    lines = out_path.read_text().splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("0,0,1,0,")  # p=0: everything not_found


def test_sweep_workers_below_one_is_usage_error(tmp_path, capsys):
    cfg, out = tmp_path / "cfg.json", str(tmp_path / "o.csv")
    cfg.write_text('{"n": 8, "m": 2, "base": {"kind": "empty"}, "p_grid": [0.5], "trials": 1, "seed": 0}')
    for workers in ("0", "-3"):
        assert main(["sweep", "--config", str(cfg), "--out", out, "--workers", workers]) == EXIT_USAGE
        assert "workers must be >= 1" in capsys.readouterr().err


def test_verify_structure_counts(capsys):
    # clique-free valid labelings with L <= 12; short paths holding a
    # same-side K_5 (m=6) or K_7 (m=9) are not counted
    for target, count in (("m6", 1748), ("m9", 4828)):
        code, out = run_cli(capsys, "verify", target, "--verbose")
        assert code == EXIT_OK
        assert f"checked {count} clique-free valid labelings up to L=12" in out


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_file_base_mismatch_is_usage_error(tmp_path, capsys):
    f = tmp_path / "g.edges"
    graphs.save_edge_list(graphs.complete_graph(5), f)
    cfg = {
        "n": 8, "m": 2, "base": {"kind": "file", "path": str(f)},
        "p_grid": [0.5], "trials": 1, "seed": 0,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code = main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "o.csv")])
    assert code == 2


def test_malformed_sweep_config_is_usage_error(tmp_path, capsys):
    good = {"n": 8, "m": 2, "base": {"kind": "empty"}, "p_grid": [0.5], "trials": 1, "seed": 0}
    for name, cfg in (
        ("missing", {k: v for k, v in good.items() if k != "p_grid"}),
        ("fractional", dict(good, trials=2.7)),
    ):
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(cfg))
        code = main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "o.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and ("p_grid" in err if name == "missing" else "trials" in err)


@pytest.mark.parametrize("cfg,message", [
    (5, "config must be a JSON object"),
    ({"n": 8, "m": 2, "base": {"kind": "empty"}, "p_grid": 0.5, "trials": 1, "seed": 0}, "config p_grid"),
    ({"n": 8, "m": 2, "base": "empty", "p_grid": [0.5], "trials": 1, "seed": 0}, "base must be a JSON object"),
    ({"n": 8, "m": 2, "base": {"kind": "empty"}, "p_grid": [True], "trials": 1, "seed": 0},
     "config p_grid entry must be a number"),
    ({"n": 8, "m": 2, "base": {"kind": "complete", "eps": "1/8", "path": "x"}, "p_grid": [0.5],
      "trials": 1, "seed": 0}, "base eps is used only by kind 'patched_bipartite'"),
    ({"n": 8, "m": 0, "base": {"kind": "empty"}, "p_grid": [], "trials": 1, "seed": 0}, "m must be >= 1"),
], ids=["top-level-number", "scalar-p_grid", "string-base", "boolean-p_grid-entry", "unused-base-fields",
        "m-below-one"])
def test_wrong_shape_sweep_config_is_usage_error(tmp_path, capsys, cfg, message):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code = main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "o.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_duplicate_edge_line_is_usage_error(tmp_path, capsys):
    f = tmp_path / "dup.edges"
    f.write_text("3 1\n1 2\n1 2\n")
    code = main(["density", "--input", str(f)])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE and captured.out == ""
    assert captured.err == "error: duplicate edge line '1 2'\n"


def run_module(*argv):
    # a separate process, so a bound that no longer limits the work times
    # out instead of hanging the suite; it imports this checkout's package
    src = os.path.dirname(os.path.dirname(hampower.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-m", "hampower", *argv], capture_output=True, text=True,
                          env=env, timeout=60)


def test_verify_edge_floor_work_is_bounded_by_the_length():
    # m >= L: L shift rounds clear every L-bit mask, so a huge m costs no more
    proc = run_module("verify", "edge-floor", "--m", "1000000000", "--lmax", "2")
    assert proc.returncode == EXIT_OK and proc.stdout.startswith("[edge-floor] PASS")


def test_verify_balanced_work_is_bounded_by_the_cap(capsys):
    # braids with t * ell > BRUTE_CAP = 20 are never checked, so bounds past
    # ell = 10 and t = 10 print the same lines
    proc = run_module("verify", "balanced", "--ell-max", "1000000000", "--t-max", "1000000000",
                      "--verbose")
    code, out = run_cli(capsys, "verify", "balanced", "--ell-max", "10", "--t-max", "10", "--verbose")
    assert proc.returncode == code == EXIT_OK and proc.stdout == out


def test_module_entry_point():
    proc = run_module("threshold-table", "--m-max", "5", "--format", "csv")
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0].startswith("m,ell,")


# Golden transcripts: the sha256 of (exit code, stdout) of each call below,
# computed once and pinned, so any refactor of the CLI or of the layers it
# prints must keep every output byte.  "{name}" in an argument is replaced by
# the path of an edge-list file written from GOLDEN_CLI_INPUTS.
GOLDEN_CLI_INPUTS = {
    "braid": lambda: braids.braid(4, 3, 3),
    "two_k4": lambda: braids.s_braids(4, 1, 1, 2),
    "gnp": lambda: graphs.sample_gnp(12, 0.35, 2),
    "patched": lambda: graphs.patched_bipartite(12, "1/12"),
}

GOLDEN_CLI_CALLS = {
    "table-json-12": ["threshold-table", "--m-max", "12", "--format", "json"],
    "table-json-3": ["threshold-table", "--m-max", "3", "--format", "json"],
    "table-csv-14": ["threshold-table", "--m-max", "14", "--format", "csv"],
    "table-markdown": ["threshold-table"],
    "verify-tables-text": ["verify", "tables", "--verbose"],
    "verify-tables-json": ["verify", "tables", "--format", "json"],
    "verify-regime": ["verify", "regime", "--m-max", "60", "--verbose"],
    "verify-balanced": ["verify", "balanced", "--verbose"],
    "verify-balanced-small": ["verify", "balanced", "--ell-max", "5", "--t-max", "3", "--verbose"],
    "verify-tail-margins": ["verify", "tail-margins", "--verbose"],
    "verify-edge-floor": ["verify", "edge-floor", "--m", "3", "--lmax", "11", "--verbose"],
    "verify-m6": ["verify", "m6", "--verbose"],
    "verify-m9": ["verify", "m9", "--lmax", "11", "--verbose"],
    "verify-all": ["verify", "all", "--lmax", "9", "--m-max", "40", "--ell-max", "6",
                   "--t-max", "2", "--verbose"],
    "verify-all-json": ["verify", "all", "--lmax", "8", "--m-max", "30", "--ell-max", "5",
                        "--t-max", "2", "--format", "json"],
    "braid": ["braid", "--ell", "5", "--r", "3", "--t", "4"],
    "braid-s2": ["braid", "--ell", "4", "--r", "2", "--t", "3", "--s", "2"],
    "braid-dot": ["braid", "--ell", "3", "--r", "1", "--t", "2", "--dot"],
    "gen-complete": ["gen", "complete", "--n", "6"],
    "gen-path-power": ["gen", "path-power", "--v", "9", "--m", "3"],
    "gen-cycle-power": ["gen", "cycle-power", "--v", "9", "--m", "2", "--dot"],
    "gen-patched-bipartite": ["gen", "patched-bipartite", "--n", "12", "--eps", "1/12"],
    "gen-gnp": ["gen", "gnp", "--n", "15", "--p", "0.4", "--seed", "7"],
    "density-max": ["density", "--input", "{gnp}"],
    "density-opt": ["density", "--input", "{gnp}", "--opt"],
    "density-balanced": ["density", "--input", "{braid}", "--balanced"],
    "density-unbalanced": ["density", "--input", "{two_k4}", "--balanced"],
    "density-phi": ["density", "--input", "{gnp}", "--phi", "100", "0.3"],
    "normalize": ["normalize", "--m", "3", "--labels", "ABAAAA", "--transcript"],
    "search-found": ["search", "--input", "{gnp}", "--m", "1"],
    "search-not-found": ["search", "--input", "{patched}", "--m", "2"],
    "search-unknown": ["search", "--input", "{patched}", "--m", "2", "--budget", "20"],
}

GOLDEN_CLI_SHA256 = {
    "table-json-12": "5f98f948fd3eafcdb9f8d356516fdd04f2a3d477d2603af50049d35aadcc8473",
    "table-json-3": "5800a8b35c1307961f1ea45639b2d016e5ccb0143294d0557cdf3f9a3cb10c68",
    "table-csv-14": "dc0a1d77d7b07d40b607b151451b34c3d83cd1584e16f35eab3634f6f7f58f12",
    "table-markdown": "792a9c1af54a5590dad640b6ff5879f0481a80d92aa72b08e1da26e858c8e65f",
    "verify-tables-text": "8acbb76f2e2e4026d7a59f8374d9e73e73ad59d3657766072e5be680923823e9",
    "verify-tables-json": "6a0a9feefb43b76cc4b2ae0bc5de5e51c55beec349fc1f1b8d6857d6b22b8e64",
    "verify-regime": "44e15afd24f423892b7b839e3163530a1f19ac0c9808d4e4d6e31a32df0d065b",
    "verify-balanced": "0f9bdf19dfd862912f2936e863e4c5d028b01572b766ebf28c304f703f48728b",
    "verify-balanced-small": "bfd3631f1dd8114f480c1406bcb14f8e5c6ef2e3e4d0b34a007c8ccd77101664",
    "verify-tail-margins": "b7585f1d529c4a8273e8b7d10167a2107215debb08a7be294eaea1ffd87f52d5",
    "verify-edge-floor": "bab2f421670332313ca59471ba4caf752091ab4f79cc85525e8efd69e23a3401",
    "verify-m6": "970cdb6dffda1623e3ba6922ad7b4014531a4c7765b7dbbb19fbd561b19eecfb",
    "verify-m9": "854cda244da3778615bbe1c1559e233949f26bb3897450b695e41d4a713a5400",
    "verify-all": "460bed21f751628509467869b5c869b354d7150ee6eee58910c682a77df043eb",
    "verify-all-json": "91007ba4d33551785079ab39ee78f5ed7c865c2ab852d174a3c679671e5631a8",
    "braid": "5ff2c3baa8986da9a2a2ef15654b8a63c9e7add57245616bcf9d0d348b08aac5",
    "braid-s2": "047fed2033d8bd79cbcc10706be04fe2de4c9e94175e36bf176ecd4b02a347f2",
    "braid-dot": "d44b955803dac9a821191b806ed80c25ab0aa717fb0eb9a1c22bb7c84c0230f7",
    "gen-complete": "d5ab1dc8b84118ca33f4cb2f2a3ed73c2dbfe61589962aae6a5cedf13dc996fc",
    "gen-path-power": "8031a5d31088b740790fa302569d88926471d6c9469121b08ec9892087aea013",
    "gen-cycle-power": "149a860e0a465b5602128ab0c53028d2ccaec150ec6fe240cd700f3a9ad01396",
    "gen-patched-bipartite": "8fad76a6e930c75c5d5e2eafccddf5071da26f05eb73b52c5ed81f1e74a2b742",
    "gen-gnp": "5771c8444927cfa4118029c19c66ee9a4f8e8fffdf29ae9c78f9c260de1e8898",
    "density-max": "0eab0b3d56cdaa9f39e7bbef24d770b19dbb983dc6de97d9fb3b83793ed301c4",
    "density-opt": "00d052db3019425c3779a71b130497eb70f06e05a368af29d8d1f33b68797141",
    "density-balanced": "66d0e6d50c97413a3e02d21d3830a715442185a0956512f62c221cac3c6ebec7",
    "density-unbalanced": "8692a24698987d025611643657772100edb438277b720a0fe417b3916be4226a",
    "density-phi": "0d1ab16b294a8b35550169d1e36fb5ea3a820fb59f3092bed668aa9275ee0708",
    "normalize": "43f32f8625c6df348feca10d67d4302eac8b5a93ea3e116a6c3efa1270d42866",
    "search-found": "cc1a0a379e6a1fc92edf745763e2a073b418eafa0d4abe665bf6f6c7de4f7948",
    "search-not-found": "c317afe9ee80f41e623f5448e65f5c3f288db720db60d398c647e337053d511a",
    "search-unknown": "ce1d2aab2ac0f2a2a7f5ff4d79a17805fb2800578e28be0bc11b467eb9168e41",
}


def golden_cli_digests(tmp_path, capsys) -> dict[str, str]:
    paths = {}
    for name, make in GOLDEN_CLI_INPUTS.items():
        paths[name] = tmp_path / f"{name}.edges"
        graphs.save_edge_list(make(), paths[name])
    digests = {}
    for name, argv in GOLDEN_CLI_CALLS.items():
        argv = [str(paths[a[1:-1]]) if a.startswith("{") else a for a in argv]
        code, out = run_cli(capsys, *argv)
        digests[name] = hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()
    return digests


def test_golden_cli_transcripts(tmp_path, capsys):
    assert golden_cli_digests(tmp_path, capsys) == GOLDEN_CLI_SHA256
