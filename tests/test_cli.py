"""CLI surface: subcommands, formats, exit codes."""

import json
import subprocess
import sys
from fractions import Fraction

import pytest

from hampower import braids, graphs
from hampower.cli import EXIT_BUDGET, EXIT_COUNTEREXAMPLE, EXIT_OK, main


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
], ids=["top-level-number", "scalar-p_grid", "string-base", "boolean-p_grid-entry"])
def test_wrong_shape_sweep_config_is_usage_error(tmp_path, capsys, cfg, message):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code = main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "o.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "hampower", "threshold-table", "--m-max", "5", "--format", "csv"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0].startswith("m,ell,")
