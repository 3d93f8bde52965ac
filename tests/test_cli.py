"""Command-line round trips, exit codes, environment knobs."""

import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zvsearch
from zvsearch import cli, gsp, solver
from zvsearch.cli import main
from zvsearch.errors import ResourceLimitError
from zvsearch.forbidden import ForbiddenWitness, embedded, pattern_check
from zvsearch.game import is_aligned, is_successful, simulate
from zvsearch.graphs import (
    Graph,
    cycle_graph,
    SubdividedGraph,
    format_edge_list,
    generate,
    parse_edge_list,
    path_graph,
)
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


@pytest.mark.parametrize("spec", ["path:99999999999", "tree:60", "complete:1000000"])
def test_gen_over_the_size_cap_is_a_resource_limit(capsys, spec):
    code, out, err = run(capsys, "gen", spec)
    assert code == 2 and out == ""
    assert err.startswith(f"resource limit: {spec} would have at least ")


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


def test_classify_a_long_k4_grid(capsys, monkeypatch):
    """The K_4 minimisation drops runs of edges and so makes few
    reductions; one per edge made grid:3,1000 take over 20 s."""
    calls = []
    real = gsp._sp_reducible
    monkeypatch.setattr(gsp, "_sp_reducible", lambda adj: calls.append(adj) or real(adj))
    doc = run_json(capsys, "classify", "grid:3,1000")
    assert doc["verdict"] == "NO" and doc["family"] == "F1"
    w = ForbiddenWitness.from_record(doc["witness"])
    assert pattern_check(w) and embedded(w, generate("grid:3,1000"))
    assert len(calls) <= 150


def json_depth(doc):
    """How deep lists and dicts nest in a JSON document, without recursion."""
    depth, stack = 0, [(doc, 0)]
    while stack:
        x, d = stack.pop()
        if isinstance(x, (dict, list)):
            depth = max(depth, d + 1)
            stack.extend((y, d + 1) for y in (x.values() if isinstance(x, dict) else x))
    return depth


def check_yes_document(out, g):
    """A YES classify document nests 4 levels (the document, its tree,
    the rows, one row), loads at the default recursion limit and
    rebuilds g with a simple tree."""
    doc = json.loads(out)
    assert doc["verdict"] == "YES" and json_depth(doc) == 4
    tree = tree_from_record(doc["tree"])
    assert tree.graph == g and tree.simple


@pytest.mark.parametrize("spec", ["cycle:1500", "path:600"])
def test_classify_long_chains(capsys, spec):
    """The tree record is a flat list of rows, so a document nests to the
    same depth whatever the graph: it loads at the default recursion
    limit and rebuilds the input."""
    code, out, err = run(capsys, "classify", spec)
    assert code == 0, err[-2000:]
    check_yes_document(out, generate(spec))


def test_classify_a_long_ladder(capsys):
    """The 2x600 ladder nests its SP tree 600 levels deep; the engine
    reads the tree off one reduction without recursing, and its flat
    record loads with json.loads at the default recursion limit."""
    code, out, err = run(capsys, "classify", "grid:2,600")
    assert code == 0 and err == ""
    check_yes_document(out, generate("grid:2,600"))


def test_classify_a_wide_parallel_fold(capsys, tmp_path):
    """K_{2,600} folds 600 parallel parts, one level each, so its tree is
    about 600 levels deep; read from an edge-list file, as the benchmark
    does, its document loads with json.loads and rebuilds the input."""
    g = Graph.from_edges([(s, f"m{i}") for s in "ab" for i in range(600)])
    f = tmp_path / "k2_600.txt"
    f.write_text(format_edge_list(g))
    code, out, err = run(capsys, "classify", str(f))
    assert code == 0 and err == ""
    check_yes_document(out, g)


def wide_parallel_no(runs):
    """A NO graph on one P-node (s, t): runs two-edge runs s-b-t, and
    three runs s-z-t whose two edges are each doubled by two 2-paths.
    The three are not bridged, so the P-node is an F2 core."""
    edges = [(x, f"b{i}") for i in range(runs) for x in "st"]
    for k in range(3):
        for x, y in (("s", f"z{k}"), (f"z{k}", "t")):
            edges.append((x, y))
            for j in range(2):
                edges += [(x, f"{x}{y}{j}"), (f"{x}{y}{j}", y)]
    return Graph.from_edges(edges)


def test_classify_a_wide_parallel_no(capsys, tmp_path):
    """The P-node's 1,003 runs fold into a parallel chain about 1,000
    nodes deep, and the F2 bipaths are read off it without recursion."""
    g = wide_parallel_no(1000)
    f = tmp_path / "wide_no.txt"
    f.write_text(format_edge_list(g))
    code, out, err = run(capsys, "classify", str(f))
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["verdict"] == "NO" and doc["family"] == "F2"
    w = ForbiddenWitness.from_record(doc["witness"])
    assert pattern_check(w) and embedded(w, g)


def test_synth_a_wide_parallel_is_a_resource_limit(capsys, tmp_path):
    """K_{2,1000} plus the edge between its hubs: the classifier's tree
    is a parallel chain about 1,000 nodes deep, whose pieces the plan
    reads off without recursion before the cap refuses it."""
    hubs = ("a0", "a1")
    g = Graph.from_edges([(h, f"m{i}") for h in hubs for i in range(1000)] + [hubs])
    f = tmp_path / "k2_1000_hub.txt"
    f.write_text(format_edge_list(g))
    code, out, err = run(capsys, "synth", str(f))
    assert code == 2 and out == ""
    assert err.startswith("resource limit: the planned bundle passes the cap"), err[-2000:]


@pytest.mark.parametrize(
    "verb, spec", [("synth", "cycle:1500"), ("synth", "path:600"), ("classify", "path:1200")]
)
def test_long_inputs_end_cleanly(capsys, verb, spec):
    code, out, err = run(capsys, verb, spec)
    assert code == 0 and err == "", err[-2000:]
    doc = json.loads(out)
    if verb == "synth":
        assert Graph.from_edges(doc["base_edges"]) == generate(spec)
    else:
        assert doc["verdict"] == "YES"


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


# Runs `verify --bundle` on the record in argv[1] and reports the
# seconds main() took on stderr.
TIMED_VERIFY = """
import sys
import time

from zvsearch.cli import main

start = time.perf_counter()
code = main(["verify", "--bundle", sys.argv[1]])
print(time.perf_counter() - start, file=sys.stderr)
sys.exit(code)
"""


def timed_verify(path):
    """(exit code, stdout, stderr lines) of `verify --bundle path` in a
    child under a 2 GiB address-space limit, so that a host built by
    mistake ends in MemoryError instead of exhausting the machine. The
    last stderr line is the seconds main() took."""

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    root = os.path.dirname(os.path.dirname(zvsearch.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", TIMED_VERIFY, str(path)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=root),
        preexec_fn=limit,
        timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr.splitlines()


def test_verify_refuses_an_oversized_host_without_building_it(tmp_path):
    """A record that claims 10^12 interior vertices on one edge, searched
    by one step of two vertices. From the empty clean set no vertex
    outside the steps turns clean, so verify answers at once, from the
    labels alone; an alignment vertex the host lacks is still an error."""
    rec = {"base_edges": [["a", "b"]], "counts": [["a", "b", 10**12]],
           "search": [["a", "b"]], "alignment": ["a", "b"],
           "floors_satisfied": [], "stats": {}}
    f = tmp_path / "bundle.json"
    f.write_text(json.dumps(rec))
    code, out, err = timed_verify(f)
    assert code == 0, err
    assert float(err[-1]) < 1.0
    assert json.loads(out) == {
        "successful": False, "aligned": False, "width": 2, "length": 1,
        "host_vertices": 10**12 + 2, "alignment": ["a", "b"]}

    rec["alignment"] = ["(a,b)#1000000000000", "(a,b)#1000000000001"]
    f.write_text(json.dumps(rec))
    code, out, err = timed_verify(f)
    assert code == 1 and out == ""
    assert err[0] == "error: no vertex '(a,b)#1000000000001'"
    assert float(err[-1]) < 1.0


@pytest.mark.parametrize("count", [1.5, True])
def test_verify_refuses_a_count_that_is_not_an_integer(capsys, tmp_path, count):
    f = tmp_path / "bundle.json"
    f.write_text(json.dumps({
        "base_edges": [["a", "b"]], "counts": [["a", "b", count]],
        "search": [["a", "b"]], "alignment": ["a", "b"], "floors_satisfied": []}))
    code, out, err = run(capsys, "verify", "--bundle", str(f))
    assert code == 1 and out == ""
    assert err.startswith("error:") and "not an integer" in err


def counting_checks(monkeypatch):
    """Wrap the two streaming checks the CLI imported; returns the list of
    names called, in order."""
    calls = []
    for name in ("check_search", "check_aligned_search"):
        def counted(*args, _real=getattr(cli, name), _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(cli, name, counted)
    return calls


def forbid_derived(monkeypatch):
    """Make building a host's derived graph an internal error: synth and
    verify check a host on its own numbering."""

    def refuse(host):
        raise AssertionError("derived graph built")

    monkeypatch.setattr(SubdividedGraph, "derived", property(refuse))


def test_synth_and_verify_build_no_derived_graph(capsys, monkeypatch, tmp_path):
    forbid_derived(monkeypatch)
    bundle = run_json(capsys, "synth", "grid:2,5")
    f = tmp_path / "bundle.json"
    f.write_text(json.dumps(bundle))
    doc = run_json(capsys, "verify", "--bundle", str(f))
    assert doc["successful"] is True and doc["aligned"] is True
    assert doc["host_vertices"] == bundle["stats"]["host_vertices"]


def test_verify_bundle_checks_once(capsys, monkeypatch, tmp_path):
    """An aligned search is a successful one: a bundle that passes the
    aligned check needs no second walk."""
    bundle = run_json(capsys, "synth", "grid:2,4")
    f = tmp_path / "bundle.json"
    f.write_text(json.dumps(bundle))
    calls = counting_checks(monkeypatch)
    forbid_derived(monkeypatch)
    doc = run_json(capsys, "verify", "--bundle", str(f))
    assert doc["successful"] is True and doc["aligned"] is True
    assert calls == ["check_aligned_search"]


def test_verify_bundle_answers_match_simulate(capsys, monkeypatch, tmp_path):
    """Sabotaged records of one bundle: the answers are those of
    is_successful and is_aligned on the simulated trace (`aligned` holds
    only for a successful search), and a step naming a vertex the host
    lacks is an input error. verify answers without the derived graph
    that the simulations here run on."""
    bundle = run_json(capsys, "synth", "grid:2,4")
    derived = cli.AlignedSearchBundle.from_record(bundle).host.derived
    a, b = bundle["alignment"]
    f = tmp_path / "bundle.json"
    calls = counting_checks(monkeypatch)
    forbid_derived(monkeypatch)
    for search, want in [
        (bundle["search"][:-1], (False, False)),
        # b comes clean at the end of the search, one step before its end
        (bundle["search"] + [[a]], (True, False)),
    ]:
        trace = simulate(derived, search)
        ok = is_successful(trace)
        assert (ok, ok and is_aligned(trace, a, b)) == want
        f.write_text(json.dumps(dict(bundle, search=search)))
        calls.clear()
        doc = run_json(capsys, "verify", "--bundle", str(f))
        assert (doc["successful"], doc["aligned"]) == want
        assert calls == ["check_aligned_search", "check_search"]

    search = [list(step) for step in bundle["search"]]
    search[1].append("nowhere")
    f.write_text(json.dumps(dict(bundle, search=search)))
    code, out, err = run(capsys, "verify", "--bundle", str(f))
    assert code == 1 and out == ""
    assert err == "error: step 2: not vertices: ['nowhere']\n"


def collector(on):
    (gc.enable if on else gc.disable)()


@pytest.mark.parametrize("was_on", [True, False])
def test_main_leaves_the_collector_as_it_found_it(capsys, monkeypatch, tmp_path, was_on):
    """synth and verify pause the cyclic collector; after an answer, an
    input error or a blown budget it is on again only if it was on."""
    bad = tmp_path / "bad.json"
    bad.write_text("[")

    def blown(*args, **kwargs):
        raise ResourceLimitError("blown")

    cases = [
        (("synth", "cycle:4"), 0, "", None),
        (("verify", "--bundle", str(bad)), 1, "error:", None),
        (("synth", "cycle:4"), 2, "resource limit:", "synthesize"),
        (("classify", "cycle:4"), 0, "", None),
    ]
    prior = gc.isenabled()
    try:
        collector(was_on)
        for argv, code, prefix, patched in cases:
            with monkeypatch.context() as m:
                if patched:
                    m.setattr(cli, patched, blown)
                got, _, err = run(capsys, *argv)
            assert (got, err[:len(prefix)]) == (code, prefix), argv
            assert gc.isenabled() is was_on, argv
    finally:
        collector(prior)


def test_only_synth_and_verify_pause_the_collector(capsys, monkeypatch, tmp_path):
    seen = []
    for name in ("classify_topological_3", "synthesize", "check_aligned_search"):
        def spy(*args, _real=getattr(cli, name), _name=name, **kwargs):
            seen.append((_name, gc.isenabled()))
            return _real(*args, **kwargs)

        monkeypatch.setattr(cli, name, spy)
    bundle = run_json(capsys, "synth", "cycle:4")
    f = tmp_path / "bundle.json"
    f.write_text(json.dumps(bundle))
    run_json(capsys, "verify", "--bundle", str(f))
    run_json(capsys, "classify", "cycle:4")
    assert gc.isenabled()
    assert seen == [
        ("classify_topological_3", False),
        ("synthesize", False),
        ("check_aligned_search", False),
        ("classify_topological_3", True),
    ]


def test_synth_and_verify_leave_no_cycles(capsys, tmp_path):
    """With the collector paused, nothing synth or verify leaves behind
    needs it: reference counting frees all of it."""
    bundle = run_json(capsys, "synth", "grid:2,5")
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(json.dumps(bundle))
    search = [list(step) for step in bundle["search"]]
    search[1].append("nowhere")
    bad.write_text(json.dumps(dict(bundle, search=search)))
    argvs = [("synth", "grid:2,5"), ("verify", "--bundle", str(good)),
             ("verify", "--bundle", str(bad))]
    for argv in argvs:  # warm-up: first calls fill caches
        run(capsys, *argv)
    prior = gc.isenabled()
    gc.collect()
    try:
        gc.disable()
        for argv in argvs:
            run(capsys, *argv)
            assert gc.collect() == 0, argv
    finally:
        collector(prior)


json_scalars = (
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(st.characters(codec="utf-8"))
)
json_rows = st.lists(json_scalars, min_size=1, max_size=5)
json_docs = st.recursive(
    json_scalars | st.lists(st.text(st.characters(codec="utf-8"))) | json_rows
    | st.lists(json_rows, max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.text(max_size=4), json_docs, max_size=4) | json_docs)
def test_emit_matches_json_dumps(doc):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit(doc)
    assert out.getvalue() == json.dumps(doc, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("key", [1, None, 2.5, ("a",)])
def test_emit_refuses_keys_that_are_not_strings(capsys, key):
    # json.dumps would print 1 as "1"; _emit printed it bare, not JSON
    with pytest.raises(TypeError) as info:
        cli._emit({"outer": {key: 2, "z": 3}})
    assert str(info.value) == f"dict key {key!r} is not a str"


def test_emit_matches_json_dumps_on_escapes(capsys):
    row = ["s", 1, -3, True, False, None, 2.5, "é"]
    doc = {"steps": [["é", 'a"b', "c\\d", "\x00\t\n", "\u2028", "😀"]],
           "mixed": [1, 2.5, True, None, "s", [], {}], "ints": [0, -3],
           "empty": [], "nested": [[], [[]], {}], "no": {},
           "row": row, "rows": [row, [0], ["leaf", "a", "b"]],
           "nested_row": [row, [row]], "empty_row": [row, []],
           "tuples": [(1, "a"), ("b", -2)]}
    for d in (doc, [row, ["leaf", "a", "b"]]):
        cli._emit(d)
        out, _ = capsys.readouterr()
        assert out == json.dumps(d, indent=2, sort_keys=True) + "\n"


def test_verify_rejects_an_alignment_that_is_not_a_pair(capsys, tmp_path):
    records = [{
        "base_edges": [["a", "b"]], "counts": [], "search": [["a", "b"]],
        "alignment": ["a"], "floors_satisfied": []}]
    # labels that do not hash once ended in a traceback from the host's
    # membership test, and a string passed as its characters
    synthesized = run_json(capsys, "synth", "path:3")
    for alignment in ([["0"], "2"], [{"x": 1}, "2"], "02"):
        records.append({**synthesized, "alignment": alignment})
    f = tmp_path / "bundle.json"
    for rec in records:
        f.write_text(json.dumps(rec))
        code, out, err = run(capsys, "verify", "--bundle", str(f))
        assert code == 1 and out == ""
        assert err.startswith(f"error: {f}: not a bundle record")


def test_verify_rejects_a_search_that_is_not_lists_of_labels(capsys, tmp_path):
    edge = {"base_edges": [["a", "b"]], "counts": [], "search": [["a", "b"]],
            "alignment": ["a", "b"], "floors_satisfied": []}
    assert run_json(capsys, "verify", "--bundle", write_json(tmp_path, edge))["successful"]
    # a string was once read as the step of its characters, or as a
    # search of one-label steps, and a dict as the search of its keys
    for search in (["ab"], "abc", [["a", "b"], "b"], {"a": 1}):
        f = write_json(tmp_path, {**edge, "search": search})
        code, out, err = run(capsys, "verify", "--bundle", f)
        assert code == 1 and out == ""
        assert err.startswith(f"error: {f}: not a bundle record"), search


def write_json(tmp_path, doc):
    f = tmp_path / "bundle.json"
    f.write_text(json.dumps(doc))
    return str(f)


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


def k2_edges(m):
    return "".join(f"x{j} m{i}\n" for j in (0, 1) for i in range(m))


@pytest.mark.parametrize("text, floor", [
    # the best root of K_{2,7} plans 2,277,450 host vertices
    (k2_edges(7), ()),
    # a full plan of K_{2,600} would multiply integers of 179,454 bits
    (k2_edges(600), ()),
    # the star with 10 leaves would plan 714,737,220 host vertices
    ("".join(f"c l{i}\n" for i in range(10)), ()),
    (None, ("--floor", "0", "1", "100000000")),
], ids=["k2-7", "k2-600", "star-10", "cycle-4-floored"])
def test_synth_refuses_a_planned_host_past_the_cap(capsys, tmp_path, text, floor):
    """Refused from the plan, before anything is built: each of these
    ran out of memory when it was built."""
    graph = "cycle:4"
    if text is not None:
        graph = str(tmp_path / "g.txt")
        with open(graph, "w") as fh:
            fh.write(text)
    start = resource.getrusage(resource.RUSAGE_SELF)
    code, out, err = run(capsys, "synth", graph, *floor)
    end = resource.getrusage(resource.RUSAGE_SELF)
    assert code == 2 and out == ""
    assert err == ("resource limit: the planned bundle passes the cap of 500,000 "
                   "host vertices or search steps\n")
    assert end.ru_utime + end.ru_stime - start.ru_utime - start.ru_stime < 1


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
    """k4sub has value 3 below its cap of 4, and is certified at k = 2
    only: its closure at k = 3 expands 26 states, more than 2."""
    monkeypatch.setenv("ZVSEARCH_STATE_BUDGET", "2")
    code, _, err = run(capsys, "solve", "k4sub")
    assert code == 2 and err.startswith("resource limit:")

    monkeypatch.setenv("ZVSEARCH_STATE_BUDGET", "lots")
    code, _, err = run(capsys, "solve", "path:3")
    assert code == 1 and "must be an integer" in err


def test_subset_budget_env(capsys, monkeypatch):
    """cycle:6 with k = 2 is past tables of 2^3 entries, and its
    separators take one search of 6 vertices and 6 edges: 12 steps, more
    than 2^3."""
    monkeypatch.setenv("ZVSEARCH_SUBSET_BUDGET", "3")
    code, out, err = run(capsys, "lowerbound", "cycle:6", "-k", "2")
    assert code == 2 and out == ""
    assert err.startswith(
        "resource limit: boundary profile needs at least 12 separator search"
        " steps, more than 2^3")
    for raw, why in (("lots", "must be an integer"), ("0", "must be positive")):
        monkeypatch.setenv("ZVSEARCH_SUBSET_BUDGET", raw)
        code, out, err = run(capsys, "pathwidth", "cycle:5")
        assert code == 1 and out == "" and err.startswith("error:") and why in err
    # verbs that build no subset table never read it
    monkeypatch.setenv("ZVSEARCH_SUBSET_BUDGET", "lots")
    assert run_json(capsys, "classify", "cycle:5")["verdict"] == "YES"
    monkeypatch.setenv("ZVSEARCH_SUBSET_BUDGET", "0")
    assert run_json(capsys, "synth", "path:3")["alignment"]


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
    code, out, err = run(capsys, "pathwidth", "path:70")
    assert code == 2 and out == ""
    assert err.startswith("resource limit: subset tables for n = 70")


def test_solve_takes_a_greedy_cap_when_tables_do_not_fit(capsys, monkeypatch):
    """Subset tables numpy refuses leave the scan capped by a greedy
    layout, as for any n above the subset budget, while a blown state
    budget still ends it. 2^70 bytes is past what numpy can index, so it
    refuses on any host. tree:4 has 31 vertices: its greedy cap is 4,
    its value 3, and the separators certify k = 2, so the closure runs
    at k = 3 only, where it succeeds after 11,261 states."""
    default = run(capsys, "solve", "path:70")
    monkeypatch.setenv("ZVSEARCH_SUBSET_BUDGET", "100")
    assert run(capsys, "solve", "path:70") == default
    doc = json.loads(default[1])
    assert default[0] == 0 and doc["value"] == 2
    assert "greedy layout" in doc["method"]
    monkeypatch.delenv("ZVSEARCH_SUBSET_BUDGET")
    monkeypatch.setenv("ZVSEARCH_STATE_BUDGET", "5")
    code, out, err = run(capsys, "solve", "tree:4")
    assert code == 2 and out == "" and "state budget exhausted at k=3" in err


def test_subset_budget_does_not_lift_the_sweep_cap(capsys, monkeypatch):
    """A subset budget of 100 lets complete:40 take the subset masks at
    k = 39, but a sweep of 2^40 of them is past the 2^32 it takes: the
    run ends at once on a budget, not after hours of sweeping."""
    monkeypatch.setenv("ZVSEARCH_SUBSET_BUDGET", "100")
    code, out, err = run(capsys, "lowerbound", "complete:40", "-k", "39")
    assert code == 2 and out == ""
    assert err.startswith(
        "resource limit: a sweep of all 2^40 vertex sets is past the 2^32")


def test_solve_answers_grid_5_5_from_its_certificate(capsys):
    """grid:5,5 (25 vertices) has a greedy cap of 6, and the separators
    certify k = 5 with a gap at i = 15: solve answers 6 with the merged
    bag sweep it printed when every width below ran the closure (1,818
    states), and lowerbound reports the same gap."""
    doc = run_json(capsys, "solve", "grid:5,5")
    assert doc["value"] == 6 and doc["explored_states"] == 0
    assert doc["certificate"] == {"k": 5, "i": 15}
    assert "boundary-gap certificate" in doc["method"]
    witness = json.dumps(doc["witness"]).encode()
    assert hashlib.sha256(witness).hexdigest() == (
        "e57947f80848d8947a2adcd442a002e041829ae4c5be787727fc7fb568f8f4cb")
    bound = run_json(capsys, "lowerbound", "grid:5,5", "-k", "5")
    assert bound["certificate"]["i"] == 15


@pytest.mark.parametrize(
    "spec, certified, builds",
    [pytest.param("cycle:6", True, [6], id="cycle:6-True"),
     pytest.param("path:4", False, [4], id="path:4-False"),
     pytest.param("path:30", False, [], id="path:30-False")],
)
def test_lowerbound_builds_tables_once(capsys, monkeypatch, spec, certified,
                                       builds):
    """Small graphs sweep the subset masks, once for both the profile
    and the certificate; path:30 with k = 2 has 31 separators against
    2^30 masks, and takes no sweep."""
    built = []
    real = solver._least_boundaries

    def counted(g, mask_cap):
        built.append(g.n)
        return real(g, mask_cap)

    monkeypatch.setattr(solver, "_least_boundaries", counted)
    doc = run_json(capsys, "lowerbound", spec, "-k", "2")
    assert (doc["certificate"] is not None) == certified
    assert built == builds


def test_lowerbound_above_the_table_cap(capsys, monkeypatch):
    """f3 has 26 vertices: no subset table, and a k = 3 certificate from
    its 352 separators, searched from 27 sets. Neither this nor a long
    path builds the 2^n neighbour masks."""

    def refused(g):
        raise AssertionError(f"masks of {g.n} vertices")

    monkeypatch.setattr(Graph, "masks", refused)
    doc = run_json(capsys, "lowerbound", "f3", "-k", "3")
    assert doc["certificate"]["i"] == 7
    # one search of 20,000 vertices and 19,999 edges, each step shifting
    # a set of 20,001 bits: 5 steps a vertex or edge, under 2^22
    doc = run_json(capsys, "lowerbound", "path:20000", "-k", "2")
    assert doc["certificate"] is None
    assert doc["profile"] == list(range(20001))


def test_lowerbound_refuses_work_that_grows_with_n(capsys):
    """The budget counts search steps, not separators: path:100000 with
    k = 2 has 100,001 separators, under 2^22, but its one search costs
    199,999 steps of 25 each, more than 2^22. It is refused before the
    search, where the tables used to refuse it for n > 22."""
    code, out, err = run(capsys, "lowerbound", "path:100000", "-k", "2")
    assert code == 2 and out == ""
    assert err.startswith(
        "resource limit: boundary profile needs at least 4999975 separator"
        " search steps, more than 2^22")


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
        [sys.executable, "-m", "zvsearch.cli", "synth", "grid:2,8"],
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
