"""Command-line round trips, exit codes, environment knobs."""

import json
import os
import subprocess
import sys

import pytest

import zvsearch
from zvsearch import solver
from zvsearch.cli import main
from zvsearch.graphs import cycle_graph, generate, parse_edge_list, path_graph
from zvsearch.gsp import tree_from_record
from zvsearch.solver import is_path_decomposition

GOLDEN_STEPS = """\
A I1 I2
A I2 I3
A I3 I4
A I4 D
A B C
B C D
D I3 I4
# the last window mops up what eroded while B and C were handled
"""


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_gen_round_trip(capsys):
    code, out, err = run(capsys, "gen", "cycle:5")
    assert code == 0 and err == ""
    g, terminals = parse_edge_list(out)
    assert g == cycle_graph(5) and terminals is None


def test_gen_bad_spec(capsys):
    code, _, err = run(capsys, "gen", "dodecahedron:12")
    assert code == 1 and err.startswith("error:")


def test_solve_cycle(capsys):
    doc = run_json(capsys, "solve", "cycle:5")
    assert doc["value"] == 3
    assert len(doc["witness"]) >= 1
    assert doc["method"]


def test_solve_k_max_gives_up(capsys):
    doc = run_json(capsys, "solve", "complete:5", "--k-max", "3")
    assert doc["value"] is None and doc["witness"] is None


def test_solve_reads_files(capsys, tmp_path):
    f = tmp_path / "p4.txt"
    code, out, _ = run(capsys, "gen", "path:4")
    assert code == 0
    f.write_text(out)
    doc = run_json(capsys, "solve", str(f))
    assert doc["value"] == 2


def test_solve_unknown_source(capsys):
    code, _, err = run(capsys, "solve", "nosuchfile.txt")
    assert code == 1 and "neither a file nor a generator spec" in err


def test_pathwidth_grid(capsys):
    doc = run_json(capsys, "pathwidth", "grid:3,3")
    assert doc["value"] == 3
    from zvsearch.graphs import grid_graph

    bags = [frozenset(b) for b in doc["bags"]]
    assert is_path_decomposition(grid_graph(3, 3), bags)


def test_mono_strict_gap(capsys):
    assert run_json(capsys, "mono", "k4sub")["value"] == 4
    assert run_json(capsys, "solve", "k4sub")["value"] == 3


def test_classify_yes(capsys):
    doc = run_json(capsys, "classify", "cycle:4")
    assert doc["verdict"] == "YES"
    assert "tree" in doc and "family" not in doc


def test_classify_no(capsys):
    doc = run_json(capsys, "classify", "complete:4")
    assert doc["verdict"] == "NO"
    assert doc["family"] == "F1"
    assert doc["witness"]["family"] == "F1"


@pytest.mark.parametrize("spec", ["cycle:1500", "path:600"])
def test_classify_long_chains(capsys, spec):
    """Trees of long chains nest far deeper than the recursion limit, in
    the classifier, in the record and in the printed JSON."""
    code, out, err = run(capsys, "classify", spec)
    assert code == 0, err[-2000:]
    # json's C decoder counts one call per nesting level against the
    # recursion limit, and this document nests thousands of levels deep
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(20_000)
    try:
        doc = json.loads(out)
    finally:
        sys.setrecursionlimit(limit)
    assert doc["verdict"] == "YES"
    tree = tree_from_record(doc["tree"])
    assert tree.graph == generate(spec) and tree.simple


def test_verify_search_file(capsys, tmp_path):
    f = tmp_path / "steps.txt"
    f.write_text(GOLDEN_STEPS)
    doc = run_json(capsys, "verify", "k4sub", "--search", str(f))
    assert doc == {"successful": True, "monotonic": False, "width": 3, "length": 7}


def test_verify_clean_start(capsys, tmp_path):
    f = tmp_path / "steps.txt"
    f.write_text("1 2\n")
    doc = run_json(capsys, "verify", "path:3", "--search", str(f), "--clean-start", "0,1")
    assert doc["successful"] is True


def test_verify_argument_conflicts(capsys, tmp_path):
    f = tmp_path / "b.json"
    f.write_text("{}")
    code, _, err = run(capsys, "verify", "cycle:4", "--bundle", str(f))
    assert code == 1 and "--bundle replaces" in err
    code, _, err = run(capsys, "verify", "cycle:4")
    assert code == 1 and "verify needs" in err


def test_synth_verify_round_trip(capsys, tmp_path):
    bundle = run_json(capsys, "synth", "cycle:4")
    f = tmp_path / "bundle.json"
    f.write_text(json.dumps(bundle))
    doc = run_json(capsys, "verify", "--bundle", str(f))
    assert doc["successful"] is True
    assert doc["aligned"] is True
    assert doc["width"] <= 3
    assert doc["length"] == bundle["stats"]["search_length"]


def test_synth_rejected_graph_reports_family(capsys):
    doc = run_json(capsys, "synth", "complete:4")
    assert doc["verdict"] == "NO" and doc["family"] == "F1"


def test_synth_floor_flag(capsys):
    bundle = run_json(capsys, "synth", "cycle:4", "--floor", "0", "1", "5")
    counts = {(u, v): c for u, v, c in bundle["counts"]}
    assert counts[("0", "1")] >= 5


def test_synth_floor_must_be_integer(capsys):
    code, _, err = run(capsys, "synth", "cycle:4", "--floor", "0", "1", "many")
    assert code == 1 and "integer" in err


def test_lowerbound_certificate(capsys):
    doc = run_json(capsys, "lowerbound", "cycle:6", "-k", "2")
    assert doc == {
        "k": 2,
        "profile": [0, 1, 6],
        "certificate": {"k": 2, "i": 3, "profile": [0, 1, 6]},
    }


def test_lowerbound_no_gap(capsys):
    doc = run_json(capsys, "lowerbound", "path:4", "-k", "2")
    assert doc["certificate"] is None
    assert doc["profile"] == [0, 1, 2, 3, 4]


def test_state_budget_env(capsys, monkeypatch):
    monkeypatch.setenv("ZVSEARCH_STATE_BUDGET", "2")
    code, _, err = run(capsys, "solve", "grid:3,3")
    assert code == 2 and err.startswith("resource limit:")

    monkeypatch.setenv("ZVSEARCH_STATE_BUDGET", "lots")
    code, _, err = run(capsys, "solve", "path:3")
    assert code == 1 and "must be an integer" in err


def test_subset_budget_env(capsys, monkeypatch):
    monkeypatch.setenv("ZVSEARCH_SUBSET_BUDGET", "3")
    code, _, err = run(capsys, "lowerbound", "cycle:6", "-k", "2")
    assert code == 2 and "subset tables" in err


def test_subset_budget_ends_with_its_call(capsys, monkeypatch):
    monkeypatch.setenv("ZVSEARCH_SUBSET_BUDGET", "3")
    code, _, _ = run(capsys, "lowerbound", "cycle:6", "-k", "2")
    assert code == 2
    monkeypatch.delenv("ZVSEARCH_SUBSET_BUDGET")
    doc = run_json(capsys, "lowerbound", "cycle:6", "-k", "2")
    assert doc["certificate"] == {"k": 2, "i": 3, "profile": [0, 1, 6]}


def test_subset_budget_past_numpy_limits(capsys, monkeypatch):
    """2^70 entries is past what numpy can index: it refuses before it
    allocates, and the run ends on a budget, not a traceback."""
    monkeypatch.setenv("ZVSEARCH_SUBSET_BUDGET", "100")
    code, out, err = run(capsys, "lowerbound", "path:70", "-k", "2")
    assert code == 2 and out == ""
    assert err.startswith("resource limit: subset tables for n = 70")


def test_solve_takes_a_greedy_cap_when_tables_do_not_fit(capsys, monkeypatch):
    """Subset tables numpy refuses leave the scan capped by a greedy
    layout, as for any n above the subset budget, while a blown state
    budget still ends it. 2^70 bytes is past what numpy can index, so it
    refuses on any host. grid:3,8 has 24 vertices: its greedy cap is 4,
    and the closure at k = 3 expands 19 states before it fails."""
    default = run(capsys, "solve", "path:70")
    monkeypatch.setenv("ZVSEARCH_SUBSET_BUDGET", "100")
    assert run(capsys, "solve", "path:70") == default
    doc = json.loads(default[1])
    assert default[0] == 0 and doc["value"] == 2
    assert "greedy layout" in doc["method"]
    monkeypatch.setenv("ZVSEARCH_STATE_BUDGET", "5")
    code, out, err = run(capsys, "solve", "grid:3,8")
    assert code == 2 and out == "" and "state budget" in err


@pytest.mark.parametrize(
    "spec, certified", [("cycle:6", True), ("path:4", False)]
)
def test_lowerbound_builds_tables_once(capsys, monkeypatch, spec, certified):
    builds = []
    real = solver._mask_tables

    def counted(g, mask_cap):
        builds.append(g.n)
        return real(g, mask_cap)

    monkeypatch.setattr(solver, "_mask_tables", counted)
    doc = run_json(capsys, "lowerbound", spec, "-k", "2")
    assert (doc["certificate"] is not None) == certified
    assert builds == [int(spec.split(":")[1])]


def test_flag_validation(capsys):
    code, _, err = run(capsys, "solve", "path:3", "--budget", "0")
    assert code == 1 and "--budget" in err
    code, _, err = run(capsys, "solve", "path:3", "--k-max", "0")
    assert code == 1 and "--k-max" in err
    code, _, err = run(capsys, "lowerbound", "path:3", "-k", "-1")
    assert code == 1 and "-k" in err


@pytest.mark.parametrize("argv", [("solve", "cycle:5"), ("classify", "k4sub")])
def test_output_is_deterministic(capsys, argv):
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_closed_stdout_pipe_ends_quietly():
    """A reader that stops after 100 bytes, as `| head -c 100` does. The
    document is far larger than a pipe buffer, so the writer is still
    writing when the pipe closes."""
    root = os.path.dirname(os.path.dirname(zvsearch.__file__))
    proc = subprocess.Popen(
        [sys.executable, "-m", "zvsearch.cli", "synth", "path:12"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=root),
    )
    head = proc.stdout.read(100)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert head.startswith(b"{")
    assert err == b""
