"""Synthesis of aligned searches on subdivisions."""

import os
import subprocess
import sys

import pytest

import zvsearch
import zvsearch.synth as synth_module
from zvsearch.errors import InputError
from zvsearch.game import check_aligned_search, is_aligned, is_successful, simulate
from zvsearch.graphs import (
    Graph,
    SubdividedGraph,
    ball,
    complete_graph,
    cycle_graph,
    edge_key,
    generate,
    grid_graph,
    path_graph,
    subdivision_label,
)
from zvsearch.gsp import (
    TerminalGraph,
    classify_topological_3,
    leaf,
    node,
)
from zvsearch.synth import (
    AlignedSearchBundle,
    SynthTask,
    amalgamate_parallel,
    amalgamate_series,
    clear_ball_inward,
    clear_ball_outward,
    grid_search,
    split_at_bridge,
    synthesize,
)


def lab(u, v, i):
    return subdivision_label(edge_key(u, v), i)


def edge_host(u, v, count):
    return SubdividedGraph(Graph.from_edges([(u, v)]), {edge_key(u, v): count})


def leaf_bundle(u, v, count=0):
    g = Graph.from_edges([(u, v)])
    return synthesize(TerminalGraph(g, u, v), leaf(u, v), {(u, v): count})


# ---------------------------------------------------------------------------
# ball sweeps


def test_outward_sweep_frozen():
    host = edge_host("v", "w", 3)
    steps = clear_ball_outward(host, "w", "v", 2)
    assert steps == (
        frozenset({"w", lab("v", "w", 3), lab("v", "w", 2)}),
        frozenset({"w", lab("v", "w", 2), lab("v", "w", 1)}),
    )
    trace = simulate(host.derived, steps)
    assert ball(host.derived, "w", 2) <= trace.clean[-1]
    assert is_aligned(trace, "w", "v")


def test_outward_sweep_length_formula():
    base = Graph.from_edges([("w", "u1"), ("w", "u2"), ("w", "u3"), ("u3", "z")])
    for r in (1, 2):
        need = (1 << 2) * r + 1
        host = SubdividedGraph(
            base, {edge_key("w", u): need for u in ("u1", "u2", "u3")}
        )
        steps = clear_ball_outward(host, "w", "z", r)
        assert len(steps) == ((1 << 3) - 1) * r
        trace = simulate(host.derived, steps)
        assert ball(host.derived, "w", r) <= trace.clean[-1]
        assert is_aligned(trace, "w", "z")


def test_outward_sweep_demands_room():
    host = edge_host("v", "w", 2)
    with pytest.raises(InputError, match="outward sweep"):
        clear_ball_outward(host, "w", "v", 2)
    with pytest.raises(InputError, match="distinct"):
        clear_ball_outward(host, "w", "w", 1)


def test_inward_sweep_finishes_the_ball():
    host = edge_host("v", "w", 4)
    steps = clear_ball_inward(host, "v", "w", 2)
    assert steps == (
        frozenset({"v", lab("v", "w", 2), lab("v", "w", 3)}),
        frozenset({"v", lab("v", "w", 1), lab("v", "w", 2)}),
    )
    g = host.derived
    start = set(g.vertices) - ball(g, "v", 2)
    trace = simulate(g, steps, clean_start=start)
    assert is_successful(trace)
    assert is_aligned(trace, "w", "v")


def test_inward_sweep_demands_room():
    host = edge_host("v", "w", 1)
    with pytest.raises(InputError, match="inward sweep"):
        clear_ball_inward(host, "v", "w", 2)


# ---------------------------------------------------------------------------
# amalgamation


def test_series_amalgamation_concatenates():
    b0 = leaf_bundle("a", "c", 1)
    b1 = leaf_bundle("c", "b", 2)
    out = amalgamate_series(b0, b1)
    assert out.alignment == ("a", "b")
    assert out.search == tuple(b0.search) + tuple(b1.search)
    assert out.stats["op"] == "series"
    assert out.floors_satisfied[edge_key("a", "c")] == 1
    assert_sound(out)


def test_series_amalgamation_needs_chained_alignment():
    with pytest.raises(InputError, match="chain"):
        amalgamate_series(leaf_bundle("a", "c"), leaf_bundle("d", "b"))


def test_series_amalgamation_rejects_overlap():
    with pytest.raises(InputError, match="overlapping exactly"):
        amalgamate_series(leaf_bundle("a", "c", 1), leaf_bundle("c", "a", 1))


def test_parallel_amalgamation_degenerate_pendant():
    # an unsubdivided second pendant leaves d as b's only neighbor, which
    # would clean b at the connector handover
    main = SynthTask(TerminalGraph(Graph.from_edges([("a", "b")]), "a", "b"), None)
    b1 = leaf_bundle("a", "c", 1)
    b2 = leaf_bundle("d", "b", 0)
    with pytest.raises(InputError, match="subdivide the pendant"):
        amalgamate_parallel(main, b1, b2)


def test_parallel_amalgamation_disjointness():
    main = SynthTask(TerminalGraph(Graph.from_edges([("a", "b")]), "a", "b"), None)
    with pytest.raises(InputError, match="share only a"):
        amalgamate_parallel(main, leaf_bundle("a", "b", 1), leaf_bundle("d", "b", 1))


# ---------------------------------------------------------------------------
# bridge splitting


def test_split_at_bridge_frozen():
    tree = node("series", leaf("a", "b"), leaf("b", "c"))
    left, mid, right = split_at_bridge(tree)
    assert mid == (lab("a", "b", 1), lab("a", "b", 2))
    assert left.terminals == ("a", lab("a", "b", 1))
    assert right.terminals == (lab("a", "b", 2), "c")
    joined = left.graph.union(Graph.from_edges([mid])).union(right.graph)
    want = SubdividedGraph(tree.graph, {("a", "b"): 2}).derived
    assert joined == want


def test_split_at_bridge_needs_a_bridge():
    square = node(
        "parallel",
        node("series", leaf("a", "x"), leaf("x", "b")),
        node("series", leaf("a", "y"), leaf("y", "b")),
    )
    with pytest.raises(InputError, match="no separating bridge"):
        split_at_bridge(square)


# ---------------------------------------------------------------------------
# the synthesizer


def synth_for(g, a, b, floors=None):
    c = classify_topological_3(g)
    assert c.verdict == "YES"
    tree = c.tree
    if tree.terminals != (a, b):
        tg = TerminalGraph(g, tree.a, tree.b)
        return synthesize(tg, tree, floors)
    return synthesize(TerminalGraph(g, a, b), tree, floors)


def assert_sound(bundle):
    ok, why = check_aligned_search(
        bundle.host.derived, bundle.search, *bundle.alignment, width=3
    )
    assert ok, why


def test_leaf_synthesis_frozen():
    b = leaf_bundle("a", "b", 2)
    assert b.search == (
        frozenset({"a", lab("a", "b", 1), lab("a", "b", 2)}),
        frozenset({"a", lab("a", "b", 2), "b"}),
    )
    b0 = leaf_bundle("a", "b", 0)
    assert b0.search == (frozenset({"a", "b"}),)


def test_synthesize_triangle():
    g = complete_graph(3)
    tree = node(
        "parallel", leaf("0", "1"), node("series", leaf("0", "2"), leaf("2", "1"))
    )
    bundle = synthesize(TerminalGraph(g, "0", "1"), tree)
    assert bundle.host.base == g
    assert bundle.alignment == ("0", "1")
    assert_sound(bundle)


def test_synthesize_meets_floors():
    g = complete_graph(3)
    tree = node(
        "parallel", leaf("0", "1"), node("series", leaf("0", "2"), leaf("2", "1"))
    )
    floors = {("0", "1"): 7, ("1", "2"): 5}
    bundle = synthesize(TerminalGraph(g, "0", "1"), tree, floors)
    for e, f in floors.items():
        assert bundle.host.count(e) >= f
        assert bundle.floors_satisfied[edge_key(*e)] == bundle.host.count(e)
    assert_sound(bundle)


def test_synthesize_rejects_bad_floors():
    tree = leaf("a", "b")
    tg = TerminalGraph(Graph.from_edges([("a", "b")]), "a", "b")
    with pytest.raises(InputError, match="non-edge"):
        synthesize(tg, tree, {("a", "z"): 1})
    with pytest.raises(InputError, match="negative"):
        synthesize(tg, tree, {("a", "b"): -2})


def test_synthesize_rejects_mismatched_tree():
    tree = node("series", leaf("a", "b"), leaf("b", "c"))
    other = TerminalGraph(path_graph(3), "0", "2")
    with pytest.raises(InputError, match="does not describe"):
        synthesize(other, tree)
    with pytest.raises(InputError, match="decomposition tree"):
        synthesize(other, "not a tree")


def test_synthesize_classified_graphs(rng):
    corpus = [
        cycle_graph(4),
        cycle_graph(5),
        path_graph(5),
        Graph.from_edges([(s, f"m{i}") for s in "ab" for i in range(3)]),
        Graph.from_edges(
            [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d"), ("d", "e"), ("e", "c")]
        ),
        Graph.from_edges([("c", f"l{i}") for i in range(4)]),
    ]
    for g in corpus:
        c = classify_topological_3(g)
        assert c.verdict == "YES", sorted(g.edges())
        bundle = synthesize(c.tree.terminal_graph(), c.tree)
        assert bundle.host.base == g
        assert_sound(bundle)


def test_synthesize_honors_floors_on_cycle():
    c = classify_topological_3(cycle_graph(4))
    e = sorted(cycle_graph(4).edges())[0]
    bundle = synthesize(c.tree.terminal_graph(), c.tree, {e: 9})
    assert bundle.host.count(e) >= 9
    assert_sound(bundle)


@pytest.mark.parametrize("spec", ["path:8", "cycle:5"])
def test_synthesize_checks_once(monkeypatch, spec):
    c = classify_topological_3(generate(spec))
    checked = []
    built = {}
    real_derived = SubdividedGraph.derived.fget

    def counting_check(g, *args, **kwargs):
        checked.append(g)
        return check_aligned_search(g, *args, **kwargs)

    def counting_derived(host):
        g = real_derived(host)
        built[id(g)] = g
        return g

    monkeypatch.setattr(synth_module, "check_aligned_search", counting_check)
    monkeypatch.setattr(SubdividedGraph, "derived", property(counting_derived))
    bundle = synthesize(c.tree.terminal_graph(), c.tree)
    assert len(checked) == 1 and len(built) == 1
    assert checked[0] is bundle.host.derived


# Run under python -O, where asserts are stripped: a broken amalgamation
# must still be caught by the final check. "drop" loses the last step of
# every inward ball sweep; "stray" adds a vertex the host does not have,
# which the checker rejects with an InputError that must surface as the
# internal error, not as a bad-input answer.
SABOTAGE = """
import sys

import zvsearch.synth as synth
from zvsearch.graphs import generate
from zvsearch.gsp import classify_topological_3

spec, how = sys.argv[1:]
real = synth.clear_ball_inward


def clear_ball_inward(*args):
    steps = real(*args)
    if how == "drop":
        return steps[:-1]
    return (steps[0] | {"stray"},) + steps[1:]


synth.clear_ball_inward = clear_ball_inward
c = classify_topological_3(generate(spec))
try:
    synth.synthesize(c.tree.terminal_graph(), c.tree)
except AssertionError as ex:
    print("refused:", ex)
else:
    print("accepted")
"""


@pytest.mark.parametrize("spec", ["path:6", "cycle:5"])
@pytest.mark.parametrize("how", ["drop", "stray"])
def test_sabotaged_synthesis_is_refused_under_O(spec, how):
    root = os.path.dirname(os.path.dirname(zvsearch.__file__))
    env = dict(os.environ, PYTHONPATH=root)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", SABOTAGE, spec, how],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("refused: bundle failed verification"), proc.stdout


def test_bundle_record_round_trip():
    bundle = synth_for(cycle_graph(5), None, None)
    back = AlignedSearchBundle.from_record(bundle.to_record())
    assert back.host.base == bundle.host.base
    assert back.host.counts == bundle.host.counts
    assert back.search == bundle.search
    assert back.alignment == bundle.alignment
    assert_sound(back)


# ---------------------------------------------------------------------------
# the grid sweep


def test_grid_search_frozen():
    steps = grid_search(3, 4)
    assert len(steps) == 3 * 3
    assert max(len(s) for s in steps) == 4
    # the window walks the short side: first column plus one overhang
    assert steps[0] == frozenset({"v0", "v4", "v8", "v1"})

    tall = grid_search(2, 5)
    assert len(tall) == 2 * 4
    assert max(len(s) for s in tall) == 3


def test_grid_search_transpose_agrees():
    a = grid_search(2, 3)
    b = grid_search(3, 2)
    assert len(a) == len(b) == 4
    trace = simulate(grid_graph(3, 2), b)
    assert is_successful(trace)


def test_grid_search_needs_two_rows():
    with pytest.raises(InputError, match="both sides"):
        grid_search(1, 6)


# Under python -O, grid_search must still refuse a sweep that does not
# clear the grid: here the replay loses the sweep's last step.
GRID_SABOTAGE = """
import zvsearch.synth as synth

real = synth.simulate
synth.simulate = lambda g, steps: real(g, steps[:-1])
try:
    synth.grid_search(3, 4)
except AssertionError as ex:
    print("refused:", ex)
else:
    print("accepted")
"""


def test_sabotaged_grid_sweep_is_refused_under_O():
    root = os.path.dirname(os.path.dirname(zvsearch.__file__))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", GRID_SABOTAGE],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=root),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("refused: grid sweep failed"), proc.stdout
