"""Synthesis of aligned searches on subdivisions."""

import hashlib
import os
import random
import subprocess
import sys

import pytest

import zvsearch
import zvsearch.cli as cli
import zvsearch.gsp as gsp_module
import zvsearch.synth as synth_module
from zvsearch.errors import InputError
from zvsearch.game import check_aligned_search, is_aligned, is_successful, simulate
from zvsearch.graphs import (
    Graph,
    SubdividedGraph,
    ball,
    block_cut_forest,
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
    invert,
    is_simple,
    leaf,
    node,
    subdivide_decomposition,
    tree_to_record,
)
from zvsearch.synth import (
    AlignedSearchBundle,
    SynthTask,
    amalgamate_branch,
    amalgamate_branch_prime,
    amalgamate_parallel,
    amalgamate_series,
    clear_ball_inward,
    clear_ball_outward,
    grid_search,
    split_at_bridge,
    synthesize,
)

from conftest import check_counts, relabeled, separating_bridges


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


def core_task(tree):
    """The task of a main side that synthesizes tree under the demands."""
    tg = tree.terminal_graph()
    return SynthTask(tg, lambda demand: synthesize(tg, tree, demand))


@pytest.mark.parametrize("core", ["leaf", "series"])
def test_parallel_amalgamation_succeeds(core):
    tree = leaf("a", "b") if core == "leaf" else node("series", leaf("a", "m"), leaf("m", "b"))
    sizes = {}
    for n1 in range(3):
        for n2 in (1, 2):
            out = amalgamate_parallel(
                core_task(tree), leaf_bundle("a", "c", n1), leaf_bundle("d", "b", n2)
            )
            assert out.alignment == ("a", "b") and out.stats["op"] == "parallel"
            ok, why = check_aligned_search(out.host, out.search, "a", "b", width=3)
            assert ok, why
            sizes[n1, n2] = (out.host.n, len(out.search))
    if core == "leaf":
        assert sizes[0, 1] == (17, 23)
    else:
        assert sizes[2, 2] == (25, 33)


def test_parallel_keeps_the_core_search_as_built(monkeypatch):
    """The connector sweeps are built on the split edge's final labels,
    so the core search S_0 enters the parallel bundle step for step, the
    same objects, and is never renamed."""
    done = []
    real = synth_module._Walk.node

    def spy(self, t, floors, flip):
        got = real(self, t, floors, flip)
        done.append((t.op, got))
        return got

    monkeypatch.setattr(synth_module._Walk, "node", spy)
    tree = classify_topological_3(generate("grid:2,4")).tree
    bundle = synthesize(tree.terminal_graph(), tree)
    assert bundle.stats["op"] == "parallel"
    assert sum(op == "parallel" for op, _ in done) > 1
    # the top level walks its pendants, then its core, then ends itself;
    # S_0 ends where the sweep toward d, |S_0| + 2 steps, and {d} begin
    core = done[-2][1]
    end = bundle.stats["checkpoint_step"] - 1 - (len(core) + 2)
    got = bundle.search[end - len(core) : end]
    assert len(got) == len(core) and all(x is y for x, y in zip(got, core))


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


def _holds_edge(tree, c, d):
    return tree.graph.has_edge(c, d)


def _reference_cut(t, c, d):
    """Cut subtree t at the edge (c, d), returning decompositions of the
    two components. A side is None while the cut hugs the boundary of the
    subtree holding it; series parents reattach the missing context."""
    if t.is_leaf:
        assert {t.a, t.b} == {c, d}
        return None, None
    t0, t1 = t.children
    if t.op == "series":
        if _holds_edge(t0, c, d):
            left, right = _reference_cut(t0, c, d)
            return left, (t1 if right is None else node("series", right, t1))
        left, right = _reference_cut(t1, c, d)
        return (t0 if left is None else node("series", t0, left)), right
    if t.op == "parallel":
        raise AssertionError("a separating bridge cannot sit inside a parallel node")
    # branch and branch_alt pendants never separate the outer terminals,
    # so the cut edge lives in child 0; both cut endpoints are fresh
    # subdivision labels, hence never equal to the spine's terminals and
    # neither side collapses away.
    assert _holds_edge(t0, c, d)
    left, right = _reference_cut(t0, c, d)
    if t.op == "branch":
        assert left is not None
        return node("branch", left, t1), right
    assert right is not None
    return left, node("branch_alt", right, t1)


def reference_split(tree):
    """The first form of the split, from the graph: the separating
    bridge nearest a by BFS (ties by edge label), subdivided twice in a
    rebuilt tree, which is then cut at the middle edge."""
    tg = tree.terminal_graph()
    found = separating_bridges(tg.graph, tg.a, tg.b)
    if not found:
        raise InputError(
            f"no separating bridge between the terminals {tg.a!r} and {tg.b!r}"
        )
    dist = tg.graph.distances(tg.a)
    origin = min(found, key=lambda e: (min(dist[e[0]], dist[e[1]]), e))
    t2 = subdivide_decomposition(tree, {origin: 2})
    m1 = subdivision_label(origin, 1)
    m2 = subdivision_label(origin, 2)
    d2 = t2.graph.distances(tg.a)
    c, d = (m1, m2) if d2[m1] < d2[m2] else (m2, m1)
    left, right = _reference_cut(t2, c, d)
    assert left.terminals == (tg.a, c) and right.terminals == (d, tg.b)
    assert is_simple(left) and is_simple(right)
    return left, (c, d), right, origin


def test_split_matches_reference(atlas_2_7_classified):
    """The split reads its bridge off the tree; the first form searched
    the graph. Both agree on every bridged simple subtree of the atlas's
    YES trees and of the short ladders."""
    trees = [cls.tree for _, cls in atlas_2_7_classified if cls.verdict == "YES"]
    trees += [classify_topological_3(generate(f"grid:2,{m}")).tree for m in range(3, 9)]
    checked = 0
    for tree in trees:
        for t in tree.walk():
            if not (t.bridged and t.simple):
                continue
            got = synth_module._split_impl(t)
            check_counts(got[0])
            check_counts(got[2])
            want = reference_split(t)
            assert (got[1], got[3]) == (want[1], want[3]), tree_to_record(t)
            for g, w in ((got[0], want[0]), (got[2], want[2])):
                assert tree_to_record(g) == tree_to_record(w), tree_to_record(t)
            checked += 1
    assert checked > 1000


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
    """One check, on the host itself: its own numbering stands in for
    the derived graph, which is never built."""
    c = classify_topological_3(generate(spec))
    checked = []
    built = []

    def counting_check(g, *args, **kwargs):
        checked.append(g)
        return check_aligned_search(g, *args, **kwargs)

    monkeypatch.setattr(synth_module, "check_aligned_search", counting_check)
    monkeypatch.setattr(SubdividedGraph, "derived", property(built.append))
    bundle = synthesize(c.tree.terminal_graph(), c.tree)
    assert len(checked) == 1 and checked[0] is bundle.host
    assert built == []


def assert_numbered_like_derived(host):
    """host.numbered() is the derived graph up to the choice of ids: a
    bijection onto its vertices, with the same neighbour sets."""
    index, nbrs = host.numbered()
    g = host.derived
    assert sorted(index) == list(g.vertices)
    assert sorted(index.values()) == list(range(g.n)) and len(nbrs) == g.n
    label = {i: v for v, i in index.items()}
    for v, i in index.items():
        assert len(nbrs[i]) == len(set(nbrs[i]))
        assert {label[j] for j in nbrs[i]} == g.neighbors(v)


def test_numbering_matches_derived_on_synthesized_hosts(synthesized_corpus):
    hosts = [bundle.host for _, _, bundle in synthesized_corpus if bundle is not None]
    for m in range(3, 7):
        c = classify_topological_3(generate(f"grid:2,{m}"))
        hosts.append(synthesize(c.tree.terminal_graph(), c.tree).host)
    for host in hosts:
        assert_numbered_like_derived(host)


def test_numbering_matches_derived_on_hand_built_hosts():
    g = Graph.from_edges([("a", "b"), ("b", "c"), ("c", "d"), ("x", "(a,b)#7")])
    commas = Graph.from_edges([("x,y", "z"), ("x", "y,z")])
    hosts = [
        # ("b", "c") and ("x", "(a,b)#7") keep count 0: u and v joined directly
        SubdividedGraph(g, {("a", "b"): 3, ("c", "d"): 1}),
        SubdividedGraph(g, {}),
        edge_host("d", "e", 2),
        edge_host("d", "e", 1),
        edge_host("d", "e", 0),
        SubdividedGraph(commas, {("x,y", "z"): 2}),
        SubdividedGraph(commas, {("x", "y,z"): 1}),
    ]
    for host in hosts:
        assert_numbered_like_derived(host)
    # the collision is refused before anything can be numbered
    with pytest.raises(InputError, match="label collision"):
        SubdividedGraph(commas, {("x,y", "z"): 1, ("x", "y,z"): 1})


def reference_graft(peeled, root):
    """The classifier's first assembly: every peeled block grafted back
    onto the last block's tree with a branch, in reverse peel order."""
    out = root
    for _, cut, tree in reversed(peeled):
        out = gsp_module._merge(out, [(cut, tree)])
    return out


def test_spines_never_grow_a_host(synthesized_corpus):
    totals = [0, 0]
    for g, cls, new in synthesized_corpus:
        bcf = block_cut_forest(g)
        peeled, root, _ = gsp_module._peel(g, bcf, gsp_module._reduce_blocks(g, bcf))
        spine = gsp_module._assemble(peeled, root)
        # the classifier's tree is the spine, synthesized once per session
        assert tree_to_record(spine) == tree_to_record(cls.tree), sorted(g.edges())
        graft = reference_graft(peeled, root)
        old = synthesize(graft.terminal_graph(), graft)
        assert new.host.n <= old.host.n, sorted(g.edges())
        assert len(new.search) <= len(old.search), sorted(g.edges())
        totals[0] += new.host.n
        totals[1] += old.host.n
    # the grafts nest exponentially, the spines do not
    assert 2 * totals[0] < totals[1]


def test_paths_synthesize_without_subdividing():
    for n in range(2, 61):
        c = classify_topological_3(path_graph(n))
        bundle = synthesize(c.tree.terminal_graph(), c.tree)
        assert bundle.host.n == n and len(bundle.search) == n - 1, n
    c = classify_topological_3(generate("tree:4"))
    assert synthesize(c.tree.terminal_graph(), c.tree).host.n <= 150


# ---------------------------------------------------------------------------
# the first form of the synthesizer


def reference_task(tree, floors):
    """The task of a main side: tree synthesized under floors and the
    demands the amalgamation passes in."""

    def run(extra):
        merged = dict(floors)
        for e, f in extra.items():
            merged[e] = max(merged.get(e, 0), f)
        return reference_synth(tree, merged)

    return SynthTask(tree.terminal_graph(), run)


def reference_padded(bundle, extra):
    """The bundle with extra singleton steps pinning its first terminal
    in front."""
    if extra <= 0:
        return bundle
    a = bundle.alignment[0]
    stats = dict(bundle.stats)
    stats["padded_steps"] = stats.get("padded_steps", 0) + extra
    return AlignedSearchBundle(
        bundle.host, (frozenset({a}),) * extra + bundle.search,
        bundle.alignment, bundle.floors_satisfied, stats,
    )


def reference_parallel(tree, floors):
    """A parallel node as first built: the bridged piece of the fewest
    vertices (least labels on a tie) split at its first bridge, the
    other pieces as the core, padded to the split edge's floor, joined
    by amalgamate_parallel; the connector path x .. c .. d .. y is then
    relabelled as the split edge's own chain."""
    pieces = synth_module._pieces(tree)
    chosen = min(
        (p for p in pieces if p.bridged),
        key=lambda p: (p.graph.n, sorted(map(str, p.graph.vertices))),
    )
    rest = [p for p in pieces if p is not chosen]
    core = rest[0] if len(rest) == 1 else gsp_module._fold("parallel", rest)
    left, (c, d), right, origin = synth_module._split_impl(chosen)
    b1 = reference_synth(left, floors)
    b = right.terminals[1]
    rf = floors
    if right.graph.degree(b) == 1 and right.graph.has_edge(d, b):
        e = edge_key(d, b)
        rf = {**floors, e: max(floors.get(e, 0), 1)}
    b2 = reference_synth(right, rf)
    inner = reference_task(core, floors)
    need = floors.get(origin, 0)

    def run(extra):
        got = inner.run(extra)
        return reference_padded(got, need - 4 - len(got.search))

    out = amalgamate_parallel(SynthTask(inner.base, run), b1, b2)
    x, y = origin if c == subdivision_label(origin, 1) else origin[::-1]
    path = out.host.chain_from((x, c), x)
    path += out.host.chain_from((c, d), c)[1:] + out.host.chain_from((d, y), d)[1:]
    counts = {e: n for e, n in out.host.counts.items() if tree.graph.has_edge(*e)}
    counts[origin] = len(path) - 2
    host = SubdividedGraph(tree.graph, counts)
    remap = dict(zip(path, host.chain_from(origin, x)))
    search = tuple(frozenset(remap.get(v, v) for v in step) for step in out.search)
    stats = {**out.stats, "split_edge": list(origin)}
    return AlignedSearchBundle(
        host, search, out.alignment, {e: host.count(e) for e in host.base.edges()}, stats
    )


def reference_synth(tree, floors):
    """The first form of synthesize's build, under floors, a checked
    floor map: a bundle for every node, composed from the public
    amalgamations, with a branch_alt pendant built from its inversion."""
    a, b = tree.terminals
    if tree.is_leaf:
        e = edge_key(a, b)
        count = floors.get(e, 0)
        host = SubdividedGraph(tree.graph, {e: count})
        if count == 0:
            search = (frozenset({a, b}),)
        else:
            q = host.chain_from(e, a)
            search = tuple(frozenset({a, q[t], q[t + 1]}) for t in range(1, count + 1))
        stats = {"op": "leaf", "host_vertices": host.n, "search_length": len(search)}
        return AlignedSearchBundle(host, search, (a, b), {e: count}, stats)
    t0, t1 = tree.children
    if tree.op == "series":
        return amalgamate_series(reference_synth(t0, floors), reference_synth(t1, floors))
    if tree.op == "branch":
        return amalgamate_branch(reference_task(t0, floors), reference_synth(t1, floors))
    if tree.op == "branch_alt":
        pendant = reference_synth(invert(t1), floors)
        return amalgamate_branch_prime(reference_task(t0, floors), pendant)
    return reference_parallel(tree, floors)


def assert_matches_first_form(tree, floors=None):
    """synthesize on tree against reference_synth, record for record;
    returns the bundle."""
    g = tree.graph
    bundle = synthesize(tree.terminal_graph(), tree, floors)
    want = reference_synth(tree, synth_module._check_floors(floors or {}, g))
    assert bundle.to_record() == want.to_record(), (tree_to_record(tree), floors)
    return bundle


def test_synthesize_matches_its_first_form_on_the_corpus(synthesized_corpus):
    """And building a tree read from its other end (flip) is building
    its inversion."""
    for g, cls, bundle in synthesized_corpus:
        want = reference_synth(cls.tree, {})
        assert bundle.to_record() == want.to_record(), sorted(g.edges())
        flipped = assert_matches_first_form(invert(cls.tree))
        got = synth_module._bundle(g, cls.tree, {}, True)
        assert got.to_record() == flipped.to_record(), sorted(g.edges())


@pytest.mark.parametrize("spec", [f"grid:2,{m}" for m in range(3, 7)]
                         + [f"k2:{m}" for m in range(3, 6)])
def test_synthesize_matches_its_first_form_on_every_root(spec):
    """Every candidate the root choice weighs, read from either end."""
    g = named(spec)
    peeled, _, last = classify_topological_3(g).peel
    for t in gsp_module._rootings(peeled, last):
        assert_matches_first_form(t)
        flipped = assert_matches_first_form(invert(t))
        got = synth_module._bundle(g, t, {}, True)
        assert got.to_record() == flipped.to_record(), tree_to_record(t)


@pytest.mark.parametrize("spec", ["cycle:4", "path:6"])
def test_synthesize_matches_its_first_form_under_floors(spec):
    g = generate(spec)
    tree = classify_topological_3(g).tree
    for floors in floor_maps(g):
        assert_matches_first_form(tree, floors)


# stdout of `synth` at the commit before the walker replaced the
# recursive builder: the full sha256 of each document
SYNTH_STDOUT = {
    "grid:2,3": "17d5a88791e97fcac59d2b65c1d011f687bf2738d8c52f523d09b6eb76c3eed1",
    "grid:2,5": "e51b68703a4ad612ace17079efd8620e627fb25c5814e01f40ad49e9c271f60c",
    "grid:2,8": "01be5180ad2fbcaf96541f289240e471f2f9d133fb279498421eb510de2dd2c6",
    "tree:3": "8a813ddc52f65e591686e6ea7c6337723fe7e648c524e0180bacb6c67f798db5",
    "tree:5": "6b1286dc5bd0c3a8f08095722c5920f040d227dbfcf53b8008a2261a213528ed",
    "cycle:3": "997a13304a3d4672038b01ab7ab780c631d34caf0130ad7659fddb5e99e6b826",
    "cycle:5": "a98548ab4c3087499a16a9592eed87d49d2248716ae77db5aa0c0f6b4d6e39e2",
    "path:12": "681dc80ff1b8b802ee5d89d4734cff0116cf503be69e5ef88e4bc585f85ab0ec",
    "cycle:4 --floor 0 1 40":
        "f742c2d284ff8aa277b1c17531cbcd9a812b4ef4d182c17c4cc4975c471f2373",
    "cycle:4 --floor 2 3 40":
        "c6c1c2bf834ce4fb38387e827bb9d8aef63bd604d9bf6dfce2bf30c3a5cf459c",
    "path:6 --floor 2 3 7":
        "b0ba2a4ecfffb95d1e78f81abbdb9c84d057afda3ca136f4d9fd67a130f763a7",
}


@pytest.mark.parametrize("args", sorted(SYNTH_STDOUT))
def test_synth_output_is_frozen(args, capsys):
    assert cli.main(["synth", *args.split()]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == SYNTH_STDOUT[args]


@pytest.mark.parametrize("spec, floors", [
    ("tree:5", {}), ("grid:2,6", {}), ("cycle:4", {("0", "1"): 40}),
])
def test_synthesize_makes_one_host(monkeypatch, spec, floors):
    """The walker derives no inner node's graph: one host, the final
    one, no recomposition and no inversion."""
    g = generate(spec)
    tree = synth_module._rooted(g, classify_topological_3(g), floors)
    tg = tree.terminal_graph()
    calls = []
    real_init = SubdividedGraph.__init__

    def init(self, *args):
        calls.append("host")
        real_init(self, *args)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(SubdividedGraph, "__init__", init)
    for module in (gsp_module, synth_module):
        for name in ("recompose", "invert", "_invert"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    synthesize(tg, tree, floors)
    assert calls == ["host"]


# ---------------------------------------------------------------------------
# the size model and the root choice


def planned(g, tree, floors=None, flip=False):
    """(host vertices, search length, nonzero counts) as _plan has them."""
    counts, length = synth_module._plan(tree, floors or {}, synth_module._HOST_CAP, flip=flip)
    return g.n + sum(counts.values()), length, {e: c for e, c in counts.items() if c}


def built(bundle):
    return bundle.host.n, len(bundle.search), bundle.host.counts


def k2(m):
    """K_{2,m} with its hubs labelled last."""
    return Graph.from_edges([(h, f"m{i}") for h in ("x", "y") for i in range(m)])


def named(spec):
    """A generator spec, or k2:m for k2(m)."""
    kind, m = spec.split(":")
    return k2(int(m)) if kind == "k2" else generate(spec)


def test_plan_equals_build_on_the_corpus(synthesized_corpus):
    checked = 0
    for g, cls, bundle in synthesized_corpus:
        if bundle is not None:
            assert planned(g, cls.tree) == built(bundle), sorted(g.edges())
            checked += 1
    assert checked > 100


@pytest.mark.parametrize("spec", [f"grid:2,{m}" for m in range(3, 7)]
                         + [f"k2:{m}" for m in range(3, 6)])
def test_plan_equals_build_on_every_root(spec):
    """Every candidate the root choice plans, read from either end."""
    g = named(spec)
    peeled, root, last = classify_topological_3(g).peel
    trees = list(gsp_module._rootings(peeled, last))
    assert len(trees) == root.graph.m
    for t in trees:
        for flip in (False, True):
            tree = invert(t) if flip else t
            bundle = synthesize(tree.terminal_graph(), tree)
            assert planned(g, t, flip=flip) == built(bundle), (tree_to_record(t), flip)


def floor_maps(g):
    """One floor of 1, 7 or 40 on each edge in turn, 3 on every edge, and
    odd floors on every edge."""
    edges = g.edges()
    maps = [{e: f} for e in edges for f in (1, 7, 40)]
    return maps + [{e: 3 for e in edges}, {e: 2 * i + 1 for i, e in enumerate(edges)}]


@pytest.mark.parametrize("spec", ["cycle:4", "path:6"])
def test_plan_equals_build_under_floors(spec):
    g = generate(spec)
    tree = classify_topological_3(g).tree
    for floors in floor_maps(g):
        bundle = synthesize(tree.terminal_graph(), tree, floors)
        assert planned(g, tree, floors) == built(bundle), floors


def test_a_plan_stops_at_the_cap():
    g = generate("cycle:4")
    tree = classify_topological_3(g).tree
    cap = synth_module._HOST_CAP
    assert synth_module._plan(tree, {("0", "1"): 10**8}, cap) is None
    assert synth_module._plan(tree, {}, cap, steps_cap=20) is None
    assert synth_module._plan(tree, {}, room=10) is None
    assert synth_module._plan(tree, {}, cap)[1] == 26


def chosen_size(g):
    """The planned (host vertices, search length) of the tree synth
    builds for g; nothing is built."""
    tree = synth_module._rooted(g, classify_topological_3(g), {})
    return planned(g, tree)[:2]


@pytest.mark.parametrize("spec, host, steps", [
    ("grid:2,5", 233, 428),
    ("grid:2,6", 351, 653),
    ("grid:2,7", 694, 1328),
    ("grid:2,8", 1037, 2003),
    ("k2:3", 69, 118),
    ("k2:4", 342, 662),
    ("k2:5", 2871, 5737),
    ("k2:6", 52607, 105392),
])
def test_the_root_choice_ignores_labels(spec, host, steps):
    g, rng = named(spec), random.Random(23)
    sizes = {chosen_size(relabeled(g, rng)) for _ in range(10)}
    assert sizes == {chosen_size(g)} == {(host, steps)}


@pytest.mark.parametrize("spec, lo, hi", [("grid:2,3", 63, 98), ("grid:2,4", 115, 216)])
def test_small_ladders_keep_their_ranges(spec, lo, hi):
    """The cost rule may leave these to the labels, within the range the
    labels gave before the choice."""
    g, rng = generate(spec), random.Random(23)
    for _ in range(10):
        assert lo <= chosen_size(relabeled(g, rng))[0] <= hi


# two K_4-free blocks of four vertices and a triangle, joined by bridges;
# the triangle is the block the peel leaves last, so no other root is weighed
MULTI_BLOCK = """
a b
b c
c d
d a
a c
d e
e f
f g
g h
h e
e g
h i
i j
j k
k i
"""


def test_synth_peels_once(monkeypatch, tmp_path):
    """synth re-roots from the classification's peel: one block-cut
    forest, one set of block reductions and one peel per run."""
    path = tmp_path / "multi.txt"
    path.write_text(MULTI_BLOCK)
    calls = dict.fromkeys(("block_cut_forest", "_reduce_blocks", "_peel"), 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(gsp_module, name, counted(name, getattr(gsp_module, name)))
    assert cli.main(["synth", str(path)]) == 0
    assert calls == dict.fromkeys(calls, 1)


# Run under python -O, where asserts are stripped: a broken schedule
# must still be caught by the final check. "drop" loses the last step of
# every inward ball sweep; "stray" adds a vertex the host does not have,
# which the checker rejects with an InputError that must surface as the
# internal error, not as a bad-input answer. "lose" hands the root choice
# a candidate that plans smaller but lacks one edge of the graph, which
# the choice must refuse before anything is built from it.
SABOTAGE = """
import sys

import zvsearch.synth as synth
from zvsearch.graphs import generate
from zvsearch.gsp import classify_topological_3

spec, how = sys.argv[1:]
real = synth._ball_in


def ball_in(*args):
    steps = real(*args)
    if how == "drop":
        return steps[:-1]
    return (steps[0] | {"stray"},) + steps[1:]


g = generate(spec)
if how == "lose":
    lost = classify_topological_3(g.without_edge(*g.edges()[0])).tree
    synth._rootings = lambda peeled, last: iter([lost])
else:
    synth._ball_in = ball_in
c = classify_topological_3(g)
try:
    tree = synth._rooted(g, c, {})
    synth.synthesize(tree.terminal_graph(), tree)
except AssertionError as ex:
    print("refused:", ex)
else:
    print("accepted")
"""


# tree:3 and cycle:5 each run inward sweeps (a path runs none); grid:2,5
# is rerooted, and the tree that lacks its edge v0-v1 plans smaller than
# the classifier's.
@pytest.mark.parametrize("how, spec", [
    (how, spec) for how in ("drop", "stray") for spec in ("tree:3", "cycle:5")
] + [("lose", "grid:2,5")])
def test_sabotaged_synthesis_is_refused_under_O(how, spec):
    why = "bundle failed verification"
    if how == "lose":
        why = "the rerooted tree is not a simple tree of the graph"
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
    assert proc.stdout.startswith("refused: " + why), proc.stdout


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
