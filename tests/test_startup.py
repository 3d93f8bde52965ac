"""What a command-line process pays once: the argument parser, built at
import and shared by every main() call; numpy, loaded only by the solver
verbs that build tables or run the closure (a sparse `lowerbound` does
neither); and the benchmark's tracer, which wraps names that cli
imports."""

import argparse
import contextlib
import importlib.util
import io
import os
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import pytest

import zvsearch
from zvsearch import cli

SRC = Path(zvsearch.__file__).resolve().parents[1]
SPANS = SRC.parent / "bench" / "spans.py"


def in_process(argv):
    """(exit code, stdout, stderr) of one main() call in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as ex:
            code = ex.code
    return code, out.getvalue(), err.getvalue()


def fresh_process(argv):
    """(exit code, stdout, stderr) of `python -m zvsearch.cli argv`."""
    proc = subprocess.run(
        [sys.executable, "-m", "zvsearch.cli", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC), COLUMNS="80"),
        timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_main_builds_no_parser(monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    for argv in (["gen", "cycle:4"], ["classify", "cycle:5"], ["solve", "path:3"],
                 ["synth", "cycle:4", "--floor", "0", "1", "2"], ["nosuchverb"]):
        in_process(argv)
    assert built == []


@pytest.mark.parametrize(
    "calls",
    [
        (["synth", "cycle:5", "--floor", "0", "1", "10"], ["synth", "cycle:5"]),
        (["solve", "cycle:6", "--k-max", "1"], ["solve", "cycle:6"]),
        (["--help"], ["nosuchverb"], ["solve", "cycle:5", "--k-max", "x"]),
    ],
)
def test_back_to_back_calls_match_fresh_processes(monkeypatch, calls):
    """Calls in one process share the parser; none of them may see an
    option of the call before, so each prints what a fresh process does."""
    monkeypatch.setenv("COLUMNS", "80")
    for argv in calls:
        assert in_process(argv) == fresh_process(argv)


def test_help_and_unknown_verbs_exit_as_argparse_does(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = in_process(["--help"])
    assert code == 0 and out.startswith("usage: zvsearch") and err == ""
    code, out, err = in_process(["nosuchverb"])
    assert code == 2 and out == "" and err.startswith("usage: zvsearch")
    assert "invalid choice: 'nosuchverb'" in err


NUMPY_PROBE = textwrap.dedent(
    """
    import contextlib, io, sys
    from pathlib import Path
    import zvsearch.cli as cli

    work = Path(sys.argv[1])
    def run(*argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(list(argv)) == 0, argv
        return out.getvalue()

    (work / "bundle.json").write_text(run("synth", "cycle:5"))
    run("verify", "--bundle", str(work / "bundle.json"))
    run("classify", "k4sub")
    run("classify", "f1")
    run("gen", "grid:3,4")
    run("lowerbound", "cycle:30", "-k", "2")
    print("numpy" in sys.modules)
    run("solve", "cycle:5")
    print("numpy" in sys.modules)
    """
)


def test_numpy_loads_only_for_the_solver_verbs(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_PROBE, str(tmp_path)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]


def test_the_benchmark_tracer_wraps_every_name_cli_imports(capsys):
    """bench/spans.py wraps library functions by their names in
    zvsearch.cli and refuses a cli that lacks one; a refactor that drops
    a name fails here, not only in a traced benchmark run."""
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer(cli)
    tracer.install()
    try:
        assert cli.main(["classify", "cycle:5"]) == 0
        assert cli.main(["solve", "cycle:5"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert {s.name for s in tracer.spans} == {
        "graphs.generate",
        "gsp.classify_topological_3",
        "solver.inspection_number",
    }
    assert all(getattr(cli, name) is fn for name, fn in tracer.originals.items())


PUBLIC_NAMES = frozenset("""
    AlignedSearchBundle Bipath BoundaryGapCertificate Classification
    EquivalenceSpec ForbiddenWitness Graph GspTree InputError
    PathDecomposition ResourceLimitError SearchTrace SolveResult
    SubdividedGraph SynthTask TerminalGraph
    amalgamate_branch amalgamate_branch_prime amalgamate_parallel
    amalgamate_series ball boundary boundary_gap_certificate
    boundary_profile brute_force_forbidden build_simple_gsp
    check_aligned_search check_search classify_topological_3
    clear_ball_inward clear_ball_outward complexity compose edge_key
    embedded exists_monotonic_search exists_successful_search
    format_edge_list generate grid_search gsp_decompose
    inspection_number invariant_core invariant_hull invert is_aligned
    is_invariant is_monotonic is_simple is_successful leaf
    monotonic_inspection_number node parse_edge_list pathwidth
    pattern_check pattern_problems push_search quotient search_width
    simulate sp_decompose split_at_bridge subdivide
    subdivide_decomposition subdivision_label synthesize
    tree_from_record tree_to_record
""".split())


def test_the_public_surface_is_frozen():
    """The names the package exports, submodules aside. A change here is
    a change to the library's interface: a new name joins PUBLIC_NAMES,
    and a removed one breaks callers."""
    names = {
        name for name, value in vars(zvsearch).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert names == PUBLIC_NAMES
