"""Decomposition trees: composition, complexity, classification."""

import functools
import itertools
import json
from collections import deque
import os
import random
import subprocess
import sys
from unittest import mock

import networkx as nx
import pytest

import zvsearch
import zvsearch.gsp as gsp_module
from zvsearch.errors import InputError
from zvsearch.forbidden import (
    ForbiddenWitness,
    _witness_f2,
    _witness_f3,
    bipath_problems,
    embedded,
    pattern_check,
    pattern_problems,
)
from zvsearch.graphs import (
    Graph,
    SubdividedGraph,
    block_cut_forest,
    complete_graph,
    cycle_graph,
    edge_key,
    family_f2,
    family_f3,
    generate,
    k4_subdivision_example,
    path_graph,
)
from zvsearch.gsp import (
    Classification,
    GspTree,
    _extract,
    _flatten,
    _invert,
    _leaf_edges,
    _merge,
    _sp_reducible,
    classify_topological_3,
    complexity,
    compose,
    gsp_decompose,
    has_k4_subdivision,
    invert,
    is_simple,
    leaf,
    node,
    recompose,
    sp_decompose,
    subdivide_decomposition,
    tree_from_record,
    tree_to_record,
)

from conftest import (
    bench_corpus,
    bench_graph,
    check_counts,
    from_networkx,
    is_bridged,
    leaf_blocks,
    random_connected,
    relabeled,
    two_disjoint_paths,
)


def four_cycle(a, tag, b):
    """A 4-cycle from a to b as a parallel of two 2-paths."""
    return node(
        "parallel",
        node("series", leaf(a, tag + "p"), leaf(tag + "p", b)),
        node("series", leaf(a, tag + "q"), leaf(tag + "q", b)),
    )


def cycle_chain(a, mid, b, tags):
    """Two 4-cycles glued at mid: the smallest complexity-1 tree."""
    return node("series", four_cycle(a, tags[0], mid), four_cycle(mid, tags[1], b))


# ---------------------------------------------------------------------------
# composition


def test_series_glues_end_to_end():
    tg = compose("series", leaf("a", "b").terminal_graph(), leaf("b", "c").terminal_graph())
    assert tg.terminals == ("a", "c")
    assert sorted(tg.graph.edges()) == [("a", "b"), ("b", "c")]


def test_parallel_builds_a_cycle():
    p1 = node("series", leaf("a", "x"), leaf("x", "b")).terminal_graph()
    p2 = node("series", leaf("a", "y"), leaf("y", "b")).terminal_graph()
    tg = compose("parallel", p1, p2)
    assert tg.terminals == ("a", "b")
    assert tg.graph.n == 4 and tg.graph.m == 4


def test_branch_keeps_spine_terminals():
    spine = leaf("a", "b").terminal_graph()
    limb = leaf("a", "z").terminal_graph()
    tg = compose("branch", spine, limb)
    assert tg.terminals == ("a", "b") and "z" in tg.graph

    alt = compose("branch_alt", spine, leaf("b", "w").terminal_graph())
    assert alt.terminals == ("a", "b") and "w" in alt.graph


def test_compose_rejects_bad_glue():
    ab = leaf("a", "b").terminal_graph()
    cd = leaf("c", "d").terminal_graph()
    with pytest.raises(InputError, match="series"):
        compose("series", ab, cd)
    with pytest.raises(InputError, match="parallel"):
        compose("parallel", ab, leaf("b", "a").terminal_graph())
    with pytest.raises(InputError, match="branch"):
        compose("branch", ab, cd)
    with pytest.raises(InputError, match="unknown composition"):
        compose("twist", ab, ab)


def test_compose_rejects_stray_overlap():
    # the limb reuses b, which only the spine may hold
    spine = node("series", leaf("a", "b"), leaf("b", "c")).terminal_graph()
    limb = node("series", leaf("a", "b"), leaf("b", "z")).terminal_graph()
    with pytest.raises(InputError, match="overlap"):
        compose("branch", spine, limb)


def test_leaf_needs_two_vertices():
    with pytest.raises(InputError):
        leaf("a", "a")


def test_recompose_refuses_overlapping_children():
    # node() checks only terminals, so it accepts children that share a
    # vertex besides the glued one; deriving the graph refuses them
    t = cycle_chain("a", "m", "c", "12")
    assert recompose(t) == t.graph
    clash = node(
        "series",
        node("series", leaf("a", "b"), leaf("b", "c")),
        node("series", leaf("c", "b"), leaf("b", "z")),
    )
    assert clash.terminals == ("a", "z")
    with pytest.raises(InputError, match="overlap"):
        recompose(clash)
    with pytest.raises(InputError, match="overlap"):
        clash.graph
    with pytest.raises(InputError, match="overlap"):
        tree_from_record(tree_to_record(clash))


def test_recompose_refuses_a_repeated_edge():
    # each graph holds the edge a-b once while its tree names it twice;
    # the children overlap only at their terminals, so the overlap rule
    # passes, and the first tree calls the bridge a-b unbridged
    twice = node("parallel", leaf("a", "b"), leaf("a", "b"))
    assert not twice.bridged
    path = node("series", leaf("a", "x"), leaf("x", "b"))
    again = node("parallel", leaf("a", "b"), node("parallel", leaf("a", "b"), path))
    for t in (twice, again):
        with pytest.raises(InputError, match="name an edge twice"):
            recompose(t)
        with pytest.raises(InputError, match="name an edge twice"):
            tree_from_record(tree_to_record(t))


def reference_recompose(tree):
    """recompose as first written: the children's adjacency maps merged
    node by node, the larger absorbing the smaller."""

    def combine(t, parts):
        if t.is_leaf:
            return {t.a: {t.b}, t.b: {t.a}}
        _, glued = gsp_module._glue(t.op, *(c.terminals for c in t.children))
        small, big = sorted(parts, key=len)
        if {v for v in small if v in big} != glued:
            raise InputError(f"{t.op} composition allows overlap only at {sorted(glued)}")
        for v, ns in small.items():
            big.setdefault(v, set()).update(ns)
        return big

    adj = gsp_module._bottom_up(tree, lambda t: t.children, combine)
    return Graph({v: frozenset(ns) for v, ns in adj.items()})


def folded(fold, tree):
    """The graph fold(tree) returns, or the text of its InputError."""
    try:
        return fold(tree)
    except InputError as ex:
        return f"error: {ex}"


def test_recompose_matches_its_first_form(atlas_2_7_classified):
    trees = [cls.tree for _, cls in atlas_2_7_classified if cls.verdict == "YES"]
    trees.append(classify_topological_3(generate("grid:2,40")).tree)
    for tree in trees:
        assert recompose(tree) == reference_recompose(tree), tree_to_record(tree)
    # hand-built bad trees, past node(): two overlaps, an unknown op and a
    # series node whose second child does not start at the first's end
    ab, bc, cd = leaf("a", "b"), leaf("b", "c"), leaf("c", "d")
    bad = [
        node("series", node("series", ab, bc), node("series", leaf("c", "b"), leaf("b", "z"))),
        GspTree("twist", "a", "c", (ab, bc)),
        GspTree("series", "a", "d", (ab, cd)),
        node("parallel", node("series", ab, bc), node("series", ab, bc)),
    ]
    messages = [folded(reference_recompose, t) for t in bad]
    assert [folded(recompose, t) for t in bad] == messages
    clauses = ("overlap", "unknown composition", "series composition needs", "overlap")
    for message, clause in zip(messages, clauses):
        assert message.startswith("error: ") and clause in message, message


def test_tree_record_round_trip():
    t = node("branch", cycle_chain("a", "m", "c", "12"), leaf("a", "t"))
    back = tree_from_record(tree_to_record(t))
    assert back.graph == t.graph and back.terminals == t.terminals


def test_tree_record_is_flat_rows():
    t = node("series", leaf("a", "b"), leaf("b", "c"))
    assert tree_to_record(t) == {
        "nodes": [["leaf", "a", "b"], ["leaf", "b", "c"], ["series", "a", "c", 0, 1]]
    }


def ab_bc(root="series", i=0, j=1, terminals=("a", "c")):
    """A record of the path a-b-c with its root row edited."""
    return {"nodes": [["leaf", "a", "b"], ["leaf", "b", "c"], [root, *terminals, i, j]]}


MALFORMED_RECORDS = [
    ({"tree": []}, "malformed"),
    ({"nodes": [["leaf", "a"]]}, "a row is"),
    ({"nodes": [["series", "a", "b"]]}, "an operator two"),
    (ab_bc(terminals=("a", "b")), "disagree"),
    (ab_bc(j=7), "not an earlier row"),
    (ab_bc(j=-1), "not an earlier row"),
    ({"nodes": [["leaf", "a", "b"], ["series", "a", "c", 0, 2], ["leaf", "b", "c"]]},
     "not an earlier row"),
    (ab_bc(j=2), "not an earlier row"),
    (ab_bc(i=False), "not an earlier row"),
    (ab_bc(j=1.0), "not an earlier row"),
    (ab_bc(i=1), "already a child"),
    ({"nodes": [["leaf", "a", "b"], ["leaf", "b", "c"], ["leaf", "c", "d"],
                ["series", "a", "c", 0, 1]]}, "no row has it"),
    ({"nodes": [["leaf", "a", "b", 0, 0], ["leaf", "b", "c"]]}, "a leaf has no children"),
    ({"nodes": [["leaf", "a", "b"], ["leaf", "b", "c"], ["series", "a", "c", 0]]},
     "a row is"),
    (ab_bc(root="glue"), "unknown op"),
    ({"nodes": [["glue", "a", "b"]]}, "unknown op"),
    ({"nodes": [["leaf", "a", ["b"]]]}, "strings"),
    ({"nodes": []}, "non-empty"),
    ({"nodes": {}}, "non-empty"),
]


def test_tree_record_rejects_malformed():
    for record, message in MALFORMED_RECORDS:
        with pytest.raises(InputError, match=message):
            tree_from_record(record)


def test_verdict_is_topological(atlas_2_7_classified, rng):
    """The classification is topological: relabelling a graph and then
    subdividing one of its edges 1-3 times keeps the verdict."""
    for g, cls in atlas_2_7_classified:
        h = relabeled(g, rng)
        e = rng.choice(h.edges())
        h = SubdividedGraph(h, {e: rng.randint(1, 3)}).derived
        assert classify_topological_3(h).verdict == cls.verdict, sorted(g.edges())


def test_tree_records_of_the_atlas_round_trip(atlas_2_7_classified):
    """Records round trip, and every node of the atlas trees and of the
    trees rebuilt from their records counts its graph's vertices and
    edges."""
    yes = [cls.tree for _, cls in atlas_2_7_classified if cls.verdict == "YES"]
    assert len(yes) > 300
    for tree in yes:
        rec = tree_to_record(tree)
        back = tree_from_record(rec)
        assert tree_to_record(back) == rec
        assert check_counts(tree) == check_counts(back)


# ---------------------------------------------------------------------------
# complexity


def test_complexity_frozen_ladder():
    assert complexity(leaf("a", "b")).value == 0
    assert complexity(four_cycle("a", "0", "b")).value == 0

    chain = cycle_chain("a", "m", "c", "12")
    rep = complexity(chain)
    assert rep.value == 1 and rep.simple

    double = node("parallel", chain, cycle_chain("a", "n", "c", "34"))
    rep2 = complexity(double)
    assert rep2.value == 2 and not rep2.simple
    assert not is_simple(double)


def test_complexity_report_rows():
    rep = complexity(node("series", leaf("a", "b"), leaf("b", "c")))
    assert rep.nodes[0] == ((), "series", 0, True)
    assert {row[0] for row in rep.nodes} == {(), (0,), (1,)}


def reference_complexity(t):
    """Complexity read off the recomposed graphs: a leaf or series node
    counts 0 when a bridge separates its terminals and 1 otherwise, a
    parallel node adds up its children, a branch node copies its spine."""
    if t.op in ("leaf", "series"):
        return 0 if is_bridged(recompose(t), t.a, t.b) else 1
    if t.op == "parallel":
        return sum(reference_complexity(c) for c in t.children)
    return reference_complexity(t.children[0])


def check_structural(tree):
    """bridged, complexity, simple and the vertex and edge counts agree
    with the graph-based reference at every node; returns the number of
    nodes checked."""
    nodes = list(tree.walk())
    for t in reversed(nodes):  # children first, so a failure names the least subtree
        g = recompose(t)
        assert (t.n, t.m) == (g.n, g.m), (t.op, t.terminals)
        assert t.bridged == is_bridged(g, t.a, t.b), (t.op, t.terminals)
        assert t.complexity == reference_complexity(t), (t.op, t.terminals)
        want = all(reference_complexity(s) <= 1 for s in t.walk())
        assert t.simple == want and is_simple(t) == want
    return len(nodes)


def k4_free_block_trees(g):
    """The raw SP trees of g's K_4-free blocks, complex ones included,
    one per block edge as the terminal pair."""
    for blk in block_cut_forest(g).blocks:
        sub = g.induced(blk)
        if len(blk) < 2 or not _sp_reducible(sub):
            continue
        for a, b in sub.edges():
            yield sp_decompose(sub, a, b)


ORACLE_SPECS = ["cycle:7", "path:9", "tree:4", "grid:2,6", "f1", "f2", "f3"]


def test_structural_complexity_matches_graphs(monkeypatch, rng):
    # the trees the re-anchoring returns are checked too
    rebuilt = []
    rebuild = gsp_module._rebuild_block

    def spy(*args):
        out = rebuild(*args)
        if isinstance(out, GspTree):
            rebuilt.append(out)
        return out

    monkeypatch.setattr(gsp_module, "_rebuild_block", spy)
    graphs = [generate(s) for s in ORACLE_SPECS]
    graphs += [random_connected(rng.randint(4, 15), rng) for _ in range(40)]
    # a block the classifier must re-anchor, with pendants hanging off it
    twin = cycle_chain("a", "m", "c", "12").graph.union(
        cycle_chain("a", "n", "c", "34").graph
    )
    for hang in ("a", "m", "1p"):
        graphs.append(twin.union(four_cycle(hang, "5", "z").graph))
    # two bipaths from a to b, closed by the edge ab or by a path a-c-b,
    # with or without pendants: the tree from a is complex at a, and the
    # classifier re-anchors it there
    names = {"0": "a", "1": "b"}
    strands = [(names.get(u, f"x{u}"), names.get(v, f"x{v}")) for u, v in _bipaths(2)]
    for close in ([("a", "b")], [("a", "c"), ("c", "b")]):
        for hang in ([], [("Z", "a")], [("b", "y"), ("y", "z"), ("z", "b")]):
            graphs.append(Graph.from_edges(strands + close + hang))
    # branch nodes whose spine and pendant differ in complexity
    checked = check_structural(
        node("branch", cycle_chain("a", "m", "c", "12"), leaf("a", "t"))
    )
    checked += check_structural(
        node("branch_alt", four_cycle("a", "0", "c"), cycle_chain("c", "m", "z", "12"))
    )
    complex_trees = 0
    for g in graphs:
        c = classify_topological_3(g)
        if c.verdict == "YES":
            checked += check_structural(c.tree)
        for tree in k4_free_block_trees(g):
            checked += check_structural(tree)
            complex_trees += not tree.simple
    # graphs classified only for their re-anchored trees, which the
    # per-edge walk above would make slow
    for _ in range(150):
        classify_topological_3(reanchor_graph(rng))
    assert len(rebuilt) > 20, len(rebuilt)
    checked += sum(map(check_structural, rebuilt))
    # the corpus must reach both sides of the recurrence
    assert checked > 1000 and complex_trees > 0


def test_branch_complexity_follows_spine():
    spine = cycle_chain("a", "m", "c", "12")
    t = node("branch", spine, leaf("a", "t"))
    assert complexity(t).value == 1 and is_simple(t)


def test_invert_swaps_terminals():
    t = cycle_chain("a", "m", "c", "12")
    ti = invert(t)
    assert ti.terminals == ("c", "a")
    assert ti.graph == t.graph
    back = invert(ti)
    assert back.terminals == t.terminals and back.graph == t.graph
    bad = node("parallel", t, cycle_chain("a", "n", "c", "34"))
    with pytest.raises(InputError):
        invert(bad)


def extract_checked(tree):
    """The tree's extracted bipaths, each checked against the tree's
    graph and run between its terminals."""
    out = _extract(tree)
    for bp in out:
        assert bipath_problems(tree.graph, bp) == []
        assert set(bp.endpoints) == set(tree.terminals)
    return out


def test_extract_bipaths_matches_complexity():
    chain = cycle_chain("a", "m", "c", "12")
    bips = extract_checked(chain)
    assert len(bips) >= 1
    assert extract_checked(four_cycle("a", "0", "b")) == []


def test_subdivide_decomposition_tracks_graph():
    tri = node("parallel", leaf("a", "b"), node("series", leaf("a", "c"), leaf("c", "b")))
    sub = subdivide_decomposition(tri, {("a", "b"): 2})
    want = SubdividedGraph(tri.graph, {("a", "b"): 2}).derived
    assert sub.graph == want
    assert recompose(sub) == want
    with pytest.raises(InputError):
        subdivide_decomposition(tri, {("a", "z"): 1})
    with pytest.raises(InputError):
        subdivide_decomposition(tri, {("a", "b"): -1})


def test_merge_block_hangs_a_pendant():
    spine = node("series", leaf("a", "b"), leaf("b", "c"))
    pend = node(
        "parallel", leaf("c", "x"), node("series", leaf("c", "y"), leaf("y", "x"))
    )
    out = _merge(spine, [("c", pend)])
    assert out.terminals == ("a", "c")
    assert out.graph == spine.graph.union(pend.graph)
    assert is_simple(out)


def test_merge_block_rejects_overlap():
    # a pendant sharing more than its cut vertex breaks the overlap rule,
    # which the merged tree's graph derivation refuses
    spine = node("series", leaf("a", "b"), leaf("b", "c"))
    clash = node("series", leaf("c", "b"), leaf("b", "z"))
    with pytest.raises(InputError, match="overlap"):
        recompose(_merge(spine, [("c", clash)]))


# ---------------------------------------------------------------------------
# decomposition of concrete graphs


def test_sp_decompose_cycle():
    g = cycle_graph(5)
    t = sp_decompose(g, "0", "1")
    assert t.graph == g and t.terminals == ("0", "1")
    # non-adjacent terminals work exactly when they separate the graph
    t2 = sp_decompose(g, "0", "2")
    assert t2.graph == g


def test_sp_decompose_rejections():
    with pytest.raises(InputError, match="biconnected"):
        sp_decompose(path_graph(4), "0", "3")
    with pytest.raises(InputError, match="K_4"):
        sp_decompose(complete_graph(4), "0", "1")
    domino = Graph.from_edges(
        [("0", "1"), ("1", "2"), ("2", "3"), ("3", "4"), ("4", "5"), ("5", "0"), ("0", "3")]
    )
    with pytest.raises(InputError, match="adjacent or separate"):
        sp_decompose(domino, "1", "4")
    with pytest.raises(InputError, match="no vertex"):
        sp_decompose(cycle_graph(4), "0", "9")


def test_gsp_decompose_spans_blocks():
    g = Graph.from_edges(
        [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d"), ("d", "e"), ("e", "f"), ("f", "d")]
    )
    t = gsp_decompose(g, "a", "b")
    assert t.graph == g and t.terminals == ("a", "b")
    assert recompose(t) == g
    with pytest.raises(InputError, match="adjacent or separate"):
        gsp_decompose(g, "a", "e")


def test_gsp_decompose_tree_input():
    g = path_graph(4)
    t = gsp_decompose(g, "0", "1")
    assert t.graph == g and is_simple(t)
    with pytest.raises(InputError, match="connected"):
        gsp_decompose(Graph.from_edges([("a", "b")], vertices=["a", "b", "z"]), "a", "b")
    with pytest.raises(InputError, match="K_4"):
        gsp_decompose(k4_subdivision_example(), "A", "D")


def test_has_k4_subdivision_frozen():
    w = has_k4_subdivision(complete_graph(4))
    assert w is not None and w.family == "F1" and pattern_check(w)
    assert has_k4_subdivision(cycle_graph(6)) is None
    w2 = has_k4_subdivision(k4_subdivision_example())
    assert w2 is not None and embedded(w2, k4_subdivision_example())


# ---------------------------------------------------------------------------
# K_4 reduction and minimisation against their first forms


def reference_sp_reducible(g):
    """True when the first-form reduction leaves at most two vertices."""
    return g.n <= 2 or len(reference_residue(g)) <= 2


def reference_residue(g):
    """The vertices the series-parallel reduction as first written
    leaves: sweep every vertex in sorted order, merging parallel edges
    and reducing series vertices, until a sweep changes nothing."""
    mult = {v: {} for v in g.vertices}
    for u, v in g.edges():
        mult[u][v] = 1
        mult[v][u] = 1
    changed = True
    while changed:
        changed = False
        for v in sorted(mult):
            if v not in mult:
                continue
            nb = mult[v]
            for u in list(nb):
                if nb[u] > 1:
                    nb[u] = 1
                    mult[u][v] = 1
                    changed = True
            if len(nb) == 2 and sum(nb.values()) == 2:
                x, y = sorted(nb)
                del mult[v]
                del mult[x][v]
                del mult[y][v]
                mult[x][y] = mult[x].get(y, 0) + 1
                mult[y][x] = mult[y].get(x, 0) + 1
                changed = True
    return set(mult)


def reference_contains_k4(g):
    return any(
        len(blk) >= 4 and not reference_sp_reducible(g.induced(blk))
        for blk in block_cut_forest(g).blocks
    )


def reference_extract_k4(g):
    """The edge minimisation as first written, restarting from the first
    edge after every removal; the roles are then read off the minimal
    graph, where no edge can go, by the classifier's own code."""
    h = g
    shrinking = True
    while shrinking:
        shrinking = False
        for e in h.edges():
            cand = h.without_edge(*e)
            if reference_contains_k4(cand):
                h = cand
                shrinking = True
                break
    return gsp_module._extract_k4(h)


def reference_k4_witness(g):
    for blk in sorted(block_cut_forest(g).blocks, key=min):
        if len(blk) >= 4 and not reference_sp_reducible(g.induced(blk)):
            return reference_extract_k4(g.induced(blk))
    return None


def single_pass_k4_witness(g):
    """The classifier's witness as its minimisation once ran: one whole
    reduction per edge, in sorted order, each of a copied graph."""
    for blk in sorted(block_cut_forest(g).blocks, key=min):
        if len(blk) >= 4 and not _sp_reducible(g.induced(blk)):
            h = g.induced(blk)
            for e in h.edges():
                cand = h.without_edge(*e)
                if not _sp_reducible(cand):
                    h = cand
            return gsp_module._extract_k4(h)
    return None


def wheel(n):
    return Graph.from_edges(
        [("hub", f"r{i}") for i in range(n)]
        + [(f"r{i}", f"r{(i + 1) % n}") for i in range(n)]
    )


def random_biconnected(rng):
    """A cycle with random ears: each ear is a path, possibly a single
    edge, between two distinct vertices already placed."""
    n = rng.randint(3, 6)
    vertices = [f"c{i}" for i in range(n)]
    edges = {tuple(sorted((vertices[i], vertices[(i + 1) % n]))) for i in range(n)}
    for e in range(rng.randint(0, 6)):
        a, b = rng.sample(vertices, 2)
        inner = [f"e{e}.{i}" for i in range(rng.randint(0, 3))]
        route = [a] + inner + [b]
        edges |= {tuple(sorted(uv)) for uv in zip(route, route[1:])}
        vertices += inner
    return Graph.from_edges(sorted(edges))


def random_graph(rng):
    """A random graph, often disconnected or with cut vertices: a sparse
    G(n, p), two random ear-built blocks sharing a vertex, or two apart."""
    pick = rng.randrange(3)
    if pick == 0:
        ng = nx.gnp_random_graph(rng.randint(2, 12), rng.uniform(0.1, 0.6),
                                 seed=rng.randint(0, 2**31))
        return from_networkx(ng)
    first, second = random_biconnected(rng), random_biconnected(rng)
    glue = {v: f"x.{v}" for v in second.vertices}
    if pick == 1:
        glue[min(second.vertices)] = max(first.vertices)
    edges = list(first.edges()) + [(glue[u], glue[v]) for u, v in second.edges()]
    return Graph.from_edges(edges)


def test_sp_reduction_matches_its_first_form(atlas_2_7, rng):
    blocks = [
        g.induced(blk)
        for g in atlas_2_7
        for blk in block_cut_forest(g).blocks
        if len(blk) >= 4
    ]
    blocks += [generate(f"grid:3,{m}") for m in range(3, 13)]
    blocks += [wheel(n) for n in range(3, 12)]
    blocks.append(Graph.from_edges([(a, b) for a in "abc" for b in "xyz"]))
    blocks += [random_biconnected(rng) for _ in range(300)]
    verdicts = []
    for g in blocks:
        assert len(block_cut_forest(g).blocks) == 1
        verdicts.append(_sp_reducible(g))
        assert verdicts[-1] == reference_sp_reducible(g), sorted(g.edges())
    assert 100 < verdicts.count(True) and 100 < verdicts.count(False)
    # whole graphs, cut vertices and several components included: the
    # reduction also deletes vertices of degree at most one, so it
    # decides K_4-freeness without a block-cut forest
    whole = list(atlas_2_7) + [random_graph(rng) for _ in range(400)]
    verdicts = []
    for g in whole:
        verdicts.append(_sp_reducible(g))
        assert verdicts[-1] == (not reference_contains_k4(g)), sorted(g.edges())
    split = sum(len(block_cut_forest(g).blocks) > 1 for g in whole)
    assert 300 < verdicts.count(False) and 300 < verdicts.count(True) and split > 300


def twin_k4s(first, second):
    """Two K_4s sharing vertex p and joined by the path first1-0-second1,
    whose edges sort first: removing them leaves two blocks that each
    hold a K_4, so the minimisation cannot cut to a single block."""
    quads = [["p"] + [f"{x}{i}" for i in (1, 2, 3)] for x in (first, second)]
    edges = [(u, v) for q in quads for i, u in enumerate(q) for v in q[i + 1:]]
    return Graph.from_edges(edges + [("0", f"{first}1"), ("0", f"{second}1")])


def planted_k4(rng):
    """A K_4 subdivision with random labels and chains of 0-2 inner
    vertices, plus ears between its vertices and pendant paths."""
    labels = iter(rng.sample(range(1000), 200))

    def fresh():
        return f"v{next(labels)}"

    branch = [fresh() for _ in range(4)]
    vertices, edges = list(branch), set()

    def path(a, b, inner):
        route = [a] + [fresh() for _ in range(inner)] + [b]
        vertices.extend(route[1:-1])
        edges.update(tuple(sorted(uv)) for uv in zip(route, route[1:]))

    for i, a in enumerate(branch):
        for b in branch[i + 1:]:
            path(a, b, rng.randint(0, 2))
    for _ in range(rng.randint(0, 4)):
        a, b = rng.sample(vertices, 2)
        path(a, b, rng.randint(1, 3))
    for _ in range(rng.randint(0, 2)):
        path(rng.choice(vertices), fresh(), rng.randint(0, 2))
    return Graph.from_edges(sorted(edges))


# The K_4 on o, q, w, x with o-x subdivided by d, and the triangle h, s, t
# joined to it by d-s and h-q. The minimisation drops d-s, then h-q,
# which leaves the subdivision and the triangle apart: four vertices of
# degree 3, the rest of degree 2, yet not one subdivision.
SUBDIVISION_AND_CYCLE = Graph.from_edges(
    [("d", "o"), ("d", "s"), ("d", "x"), ("h", "q"), ("h", "s"), ("h", "t"),
     ("o", "q"), ("o", "w"), ("q", "w"), ("q", "x"), ("s", "t"), ("w", "x")]
)


def reference_k4_region(block, m):
    """The K_4 region as first written: the whole breadth-first order of
    the block from m, by sorted neighbours, then its prefixes of 4, 8,
    16, ... vertices, each tested block by block with the first-form
    reduction; on a block of more than 8 vertices where none holds a K_4
    subdivision, the same from the least vertex the first-form reduction
    of the block leaves. A
    block that holds a K_4 subdivision is the subdivision plus ears,
    each with one more edge than inner vertices, so it is a subdivision
    exactly when it has two more edges than vertices."""
    if block.m == block.n + 2:
        return block
    starts = [m] + ([min(reference_residue(block))] if block.n > 8 else [])
    for start in starts:
        order, queue = [start], deque([start])
        while queue:
            for w in block.sorted_neighbors(queue.popleft()):
                if w not in order:
                    order.append(w)
                    queue.append(w)
        size = 4
        while size < block.n:
            region = block.induced(order[:size])
            if reference_contains_k4(region):
                return region
            size *= 2
    return block


def test_k4_witness_matches_its_first_form(atlas_2_7, rng, monkeypatch):
    # Where the K_4 region is the whole block, the witness is the first
    # form's; elsewhere it is the first form's minimisation of the
    # region, and it sits in the graph
    graphs = list(atlas_2_7) + [generate(f"grid:3,{m}") for m in range(3, 41)]
    graphs += [generate(f"grid:4,{m}") for m in range(4, 9)]
    graphs += [generate(f"complete:{n}") for n in range(5, 9)]
    graphs += [wheel(n) for n in range(4, 12)]
    graphs += [twin_k4s("b", "c"), twin_k4s("c", "b"), SUBDIVISION_AND_CYCLE]
    graphs += [planted_k4(rng) for _ in range(200)]
    apart = []
    real = gsp_module._is_k4_subdivision

    def spy(adj):
        degrees = [len(adj[v]) for v in adj if adj[v]]
        got = real(adj)
        if degrees.count(3) == 4 and degrees.count(2) == len(degrees) - 4 and not got:
            apart.append(adj)
        return got

    regions = []
    real_region = gsp_module._k4_region

    def region_spy(block, m):
        regions.append((block, m, real_region(block, m)))
        return regions[-1][-1]

    monkeypatch.setattr(gsp_module, "_is_k4_subdivision", spy)
    monkeypatch.setattr(gsp_module, "_k4_region", region_spy)
    found = whole = 0
    for g in graphs:
        regions.clear()
        got = has_k4_subdivision(g)
        assert (got is None) == (not reference_contains_k4(g)), sorted(g.edges())
        if got is None:
            continue
        found += 1
        ((block, m, region),) = regions
        assert m == min(block.vertices) and embedded(got, g)
        assert region == reference_k4_region(block, m), sorted(g.edges())
        record = json.dumps(got.to_record())
        if region is block:
            whole += 1
            want = reference_k4_witness(g)
            assert record == json.dumps(want.to_record()), sorted(g.edges())
            assert record == json.dumps(single_pass_k4_witness(g).to_record())
        else:
            assert record == json.dumps(reference_extract_k4(region).to_record())
    assert found > 900 and whole > 500 and found - whole > 100, (found, whole)
    # the early stop saw the degrees of a subdivision on a split graph
    assert apart


def count_forests(monkeypatch):
    forests = []
    real = gsp_module.block_cut_forest
    monkeypatch.setattr(
        gsp_module, "block_cut_forest", lambda h: forests.append(h) or real(h)
    )
    return forests


def count_reductions(monkeypatch):
    calls = []
    real = gsp_module._reduce
    monkeypatch.setattr(
        gsp_module, "_reduce", lambda adj, keep=(): calls.append(adj) or real(adj, keep)
    )
    return calls


@pytest.mark.parametrize("spec", ["f1", "k4sub", "grid:3,20", "grid:3,60", "grid:3,120"])
def test_k4_minimisation_gallops(monkeypatch, spec):
    calls = count_reductions(monkeypatch)
    forests = count_forests(monkeypatch)
    assert has_k4_subdivision(generate(spec)) is not None
    if spec in ("f1", "k4sub"):
        # a subdivision already: the block test is the only reduction
        assert len(calls) == 1
    else:
        # runs of edges go at once; one reduction per edge made up to
        # 598 on grid:3,120
        assert 1 < len(calls) <= 100
    assert len(forests) == 1


# ---------------------------------------------------------------------------
# the SP engine and bipath extraction against their first forms


def reference_block_path(bcf, a, b):
    """The blocks and cut vertices on the block-cut tree's path from a
    to b, in order: a search of the tree, with a and b as its nodes."""
    tree = {}
    for i, blk in enumerate(bcf.blocks):
        for v in blk:
            if v in bcf.cut_vertices or v in (a, b):
                tree.setdefault(i, []).append(v)
                tree.setdefault(v, []).append(i)
    prev = {a: None}
    queue = [a]
    for x in queue:
        for y in tree[x]:
            if y not in prev:
                prev[y] = x
                queue.append(y)
    path = [b]
    while path[-1] != a:
        path.append(prev[path[-1]])
    return [bcf.blocks[i] for i in path[-2::-2]], path[-3:0:-2]


def reference_sp(g, a, b):
    """The SP engine as first written: the direct a-b edge as a leaf,
    then each component of g - {a, b} as a series chain along its block
    path, folded in parallel; a fresh forest and copy at every level."""
    if g.n == 2:
        return leaf(a, b) if g.has_edge(a, b) else None
    direct = g.has_edge(a, b)
    base = g.without_edge(a, b) if direct else g
    parts = [leaf(a, b)] if direct else []
    for comp in sorted(base.without_vertices({a, b}).components(), key=min):
        t = reference_sp_chain(base.induced(set(comp) | {a, b}), a, b)
        if t is None:
            return None
        parts.append(t)
    if len(parts) < 2:
        return None
    return gsp_module._fold("parallel", parts)


def reference_sp_chain(h, a, b):
    bcf = block_cut_forest(h)
    blocks, cuts = reference_block_path(bcf, a, b)
    if len(blocks) != len(bcf.blocks):
        return None
    stops = [a] + cuts + [b]
    parts = []
    for blk, u, v in zip(blocks, stops, stops[1:]):
        t = reference_sp(h.induced(blk), u, v)
        if t is None:
            return None
        parts.append(t)
    return gsp_module._series(parts)


def replay_sp(g, a, b):
    """gsp._sp as it was before the S/P tree: one series-parallel
    reduction keeping a and b, replayed straight into the tree rooted at
    (a, b), so every pair asked for costs a reduction and a replay. The
    a-b group is rendered as the direct edge first, then the runs by
    least interior vertex, parallel nodes folded left and each run a
    balanced series."""
    left, steps = gsp_module._reduce(g, (a, b))
    if len(left) > 2 or b not in left[a] or any(len(ns) < 2 for _, ns in steps):
        return None
    runs, closed = {}, {}  # edge key -> the runs reduced to that edge

    def take(x, v):
        key = edge_key(x, v)
        got = runs.pop(key, [])
        if len(got) == 1 and not g.has_edge(x, v):
            return got[0]
        if got:
            closed[key] = got
        return deque((x, v))

    for v, ns in steps:
        x, y = ns
        runs.setdefault(edge_key(x, y), []).append(gsp_module._join(take(x, v), take(v, y), v))

    def segments(item):
        _, x, _, run = item
        return itertools.pairwise(run if run[0] == x else reversed(run))

    def kids(item):
        if item[0] == "parallel":
            _, x, y, members = item
            return [("series", x, y, run) for run in members]
        return [
            ("parallel", s, t, closed[edge_key(s, t)])
            for s, t in segments(item)
            if edge_key(s, t) in closed
        ]

    def combine(item, values):
        if item[0] == "parallel":
            _, x, y, _ = item
            values.sort(key=lambda tv: tv[1])
            parts = [leaf(x, y)] if g.has_edge(x, y) else []
            parts += [t for t, _ in values]
            return gsp_module._fold("parallel", parts), values[0][1] if values else None
        inner = iter(values)
        parts, lows = [], [low for _, low in values]
        for s, t in segments(item):
            parts.append(next(inner)[0] if edge_key(s, t) in closed else leaf(s, t))
            lows.append(t)
        lows.pop()
        return gsp_module._series(parts), min(lows)

    root = ("parallel", a, b, runs.pop(edge_key(a, b), []))
    return gsp_module._bottom_up(root, kids, combine)[0]


def _rotate(th, tk):
    # Both trees share ordered terminals (a, b) and overlap exactly
    # there; both are simple. Returns a simple tree of the union whose
    # first terminal is still a (the second generally moves closer to a).
    # The smaller side is unwound: series combs are folded into the
    # other side as inverted factors, parallel nodes shed a complexity-0
    # child, and a bare leaf finally joins in parallel.
    if th.n + th.m > tk.n + tk.m:
        th, tk = tk, th
    if th.op == "leaf":
        return node("parallel", th, tk)
    if th.op == "parallel":
        c0, c1 = th.children
        extra, rest = (c1, c0) if c1.complexity == 0 else (c0, c1)
        return _rotate(rest, node("parallel", extra, tk))
    factors = _flatten(th, ("series",))
    bracket = tk
    for f in reversed(factors[1:]):
        bracket = node("series", bracket, _invert(f))
    return _rotate(factors[0], bracket)


def reference_rebuild_block(g, tree, target):
    """gsp._rebuild_block as it was before the S/P tree: the split at the
    complex core's terminals is a fresh replay_sp of the block g, and a
    block that is not refuted is a fresh replay_sp from the first edge
    (target, w), w in sorted order, that is simple. The rotation the
    classifier once re-anchored with checks that an answer exists: the
    bridged outside pieces and the core's children fold into two simple
    trees, and unwinding one into the other must give a simple tree of
    the same graph from the target."""
    hits = gsp_module._minimal_complex_nodes(tree)
    if len(hits) >= 2:
        return gsp_module._witness_pair(g, hits[0], hits[1])
    m = hits[0]
    assert m.op == "parallel" and target in m.terminals
    s, t = m.terminals
    fresh = replay_sp(g, s, t)
    assert fresh is not None
    m_edges = _leaf_edges(m)
    outside = []
    for piece in _flatten(fresh, ("parallel",)):
        piece_edges = _leaf_edges(piece)
        if piece_edges <= m_edges:
            continue
        assert not piece_edges & m_edges, "piece straddles the complex core"
        if piece.complexity >= 1:
            return _witness_f2(
                [_extract(m.children[0])[0], _extract(m.children[1])[0],
                 _extract(piece)[0]]
            )
        inner = gsp_module._minimal_complex_nodes(piece)
        if inner:
            return gsp_module._witness_pair(g, m, inner[0])
        outside.append(piece)
    left = gsp_module._fold("parallel", outside + [m.children[0]])
    right = m.children[1]
    if target == s:
        rotated = _rotate(left, right)
    else:
        rotated = _rotate(_invert(left), _invert(right))
    assert rotated.a == target and rotated.simple
    for w in g.sorted_neighbors(target):
        out = replay_sp(g, target, w)
        if out.simple:
            assert rotated.graph == out.graph == g
            return out
    raise AssertionError("no edge at the target roots a simple tree")


def reference_extract(tree):
    """Where bipath extraction as first written runs: for each bipath, in
    order, its stops, the terminals and cut vertices on the block path
    of a non-bridged series node's recomposed graph, and the edges of
    each block between two stops."""
    if tree.is_leaf or tree.bridged:
        return []
    if tree.op == "parallel":
        return reference_extract(tree.children[0]) + reference_extract(tree.children[1])
    if tree.op in ("branch", "branch_alt"):
        return reference_extract(tree.children[0])
    blocks, cuts = reference_block_path(block_cut_forest(tree.graph), tree.a, tree.b)
    return [([tree.a, *cuts, tree.b], [set(tree.graph.induced(b).edges()) for b in blocks])]


def check_routes(bp, stops, block_edges):
    """The bipath stops where the first form did, and between two stops
    its paths are two internally disjoint routes over that block's
    edges: it takes one pair of routes through every block."""
    assert list(bp.primaries) == stops
    cuts = []
    for path in (bp.path1, bp.path2):
        assert len(set(path)) == len(path), path  # simple
        at = [path.index(v) for v in stops]
        assert at == sorted(at) and at[0] == 0 and at[-1] == len(path) - 1
        cuts.append([path[i:j + 1] for i, j in zip(at, at[1:])])
    for r1, r2, edges in zip(*cuts, block_edges):
        assert r1 != r2 and not set(r1[1:-1]) & set(r2), (r1, r2)
        for r in (r1, r2):
            assert {tuple(sorted(e)) for e in zip(r, r[1:])} <= edges, r


def sp_pairs(g):
    """Every ordered pair of g's vertices that is an edge or separates g:
    the terminals an SP tree of a K_4-free block can have."""
    for a, b in itertools.permutations(g.vertices, 2):
        if g.has_edge(a, b) or not g.without_vertices({a, b}).is_connected():
            yield a, b


def record(tree):
    return None if tree is None else json.dumps(tree_to_record(tree))


def check_extract(tree):
    """Bipaths of every non-bridged node run where the block walk says;
    returns the number of nodes compared."""
    nodes = [t for t in tree.walk() if not t.bridged]
    for t in nodes:
        got, want = extract_checked(t), reference_extract(t)
        assert len(got) == len(want), tree_to_record(t)
        for bp, (stops, block_edges) in zip(got, want):
            check_routes(bp, stops, block_edges)
    return len(nodes)


def test_sp_matches_its_first_form(atlas_2_7, rng):
    blocks = {}
    for g in atlas_2_7:
        for blk in block_cut_forest(g).blocks:
            sub = g.induced(blk)
            if _sp_reducible(sub):
                blocks[sub.edges()] = sub
    blocks = list(blocks.values())
    blocks += [cycle_graph(n) for n in range(3, 13)]
    blocks += [Graph.from_edges(_bipaths(count)) for count in (2, 3)]
    cases = [(g, a, b) for g in blocks for a, b in sp_pairs(g)]
    # random blocks in one order of each pair, for time
    for g in (random_biconnected(rng) for _ in range(300)):
        if _sp_reducible(g):
            cases += [(g, a, b) for a, b in sp_pairs(g) if a < b]
    # ladders: every pair up to 2x8, then an end rung, the middle rung
    # and an end edge, which nest m levels deep
    for m in range(2, 41):
        g = generate(f"grid:2,{m}")
        pairs = sp_pairs(g) if m <= 8 else [
            ("v0", f"v{m}"), (f"v{m // 2}", f"v{m + m // 2}"), ("v0", "v1")
        ]
        cases += [(g, a, b) for ab in pairs for a, b in (ab, ab[::-1])]
    trees = []
    for g, a, b in cases:
        got = sp_decompose(g, a, b)
        assert record(got) == record(reference_sp(g, a, b)), (sorted(g.edges()), a, b)
        assert recompose(got) == reference_recompose(got) == g, (sorted(g.edges()), a, b)
        trees.append(got)
    compared = sum(check_extract(t) for t in trees)
    complex_trees = sum(not t.simple for t in trees)
    assert len(cases) > 6000 and compared > 10000 and complex_trees > 50


def test_extract_on_classifier_trees_matches_its_first_form(atlas_2_7_classified, rng):
    # the classifier's trees hang branch nodes under series nodes, whose
    # pendants the bipaths must leave out; the F2 and F3 witnesses are
    # built from the same routes
    classified = [cls for _, cls in atlas_2_7_classified]
    classified += [classify_topological_3(random_block_tree(rng)) for _ in range(100)]
    classified += map(classify_topological_3, bench_corpus("classify", (0, 1, 2)))
    branchy = compared = 0
    families = {"F1": 0, "F2": 0, "F3": 0}
    for c in classified:
        if c.verdict == "YES":
            compared += check_extract(c.tree)
            branchy += any(
                t.op == "series" and any(k.op.startswith("branch") for k in t.children)
                for t in c.tree.walk()
            )
        else:
            assert pattern_problems(c.witness) == []
            families[c.witness.family] += 1
    assert compared > 1000 and branchy > 100
    assert families["F2"] > 50 and families["F3"] > 30, families


def test_sp_refuses_what_it_cannot_reduce():
    # the first form recursed without end on a K_4 and on terminals that
    # are neither adjacent nor a separating pair: sp_decompose refuses
    # both with InputError, as it does a graph with a pendant vertex or
    # of two components, and the S/P tree roots no tree at such a pair
    theta = Graph.from_edges([("p", "x1"), ("x1", "x2"), ("x2", "q"), ("p", "y1"),
                              ("y1", "y2"), ("y2", "q"), ("p", "z"), ("z", "q")])
    pendant = Graph.from_edges([("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")])
    for g, a, b, why in [
        (complete_graph(4), "0", "1", "K_4"),
        (theta, "x1", "y1", "separate"),
        (pendant, "a", "b", "biconnected"),
        (Graph.from_edges([("a", "b"), ("c", "d")]), "a", "b", "biconnected"),
    ]:
        with pytest.raises(InputError, match=why):
            sp_decompose(g, a, b)
    sp = gsp_module._sp_tree(theta, "p", "z", gsp_module._reduce(theta, ("p", "z")))
    assert sp.rooted("x1", "y1") is None and not sp.simple_from("x1", "y1")


def sp_blocks(graphs):
    """The K_4-free blocks of 3+ vertices of graphs, each edge set once."""
    out = {}
    for g in graphs:
        for blk in block_cut_forest(g).blocks:
            sub = g.induced(blk)
            if len(blk) >= 3 and _sp_reducible(sub):
                out.setdefault(sub.edges(), sub)
    return list(out.values())


def test_rooted_matches_sp(atlas_2_7, rng):
    """One S/P tree per block, built from its least edge as the
    classifier keeps it, renders at every pair an SP tree of the block
    can have, adjacent or separating, the tree a fresh reduction
    replayed there builds, and at an edge or a P-node's poles reads its
    simplicity without rendering it: at every such ordered pair of a
    block of up to 40 edges, S-node splits included, and for time at 12
    edges and 12 other pairs drawn from a larger one (the classify
    corpus's blocks have up to 200). Any other pair is refused, and
    rated not simple."""
    graphs = list(atlas_2_7)
    graphs += bench_corpus("classify", (0, 1, 2)) + bench_corpus("synth", (0, 1, 2))
    graphs += [random_biconnected(rng) for _ in range(300)]
    graphs += [random_block_tree(rng) for _ in range(100)]
    graphs += [reanchor_graph(rng) for _ in range(100)]
    rootings = complex_rootings = splits = mixed = refused = 0
    for sub in sp_blocks(graphs):
        m = min(sub.vertices)
        sp = gsp_module._sp_tree(sub, m, min(sub[m]), gsp_module._reduce(sub, (m, min(sub[m]))))
        assert sp.edges() == list(sub.edges())
        if sub.m <= 40:
            pairs = list(itertools.permutations(sub.vertices, 2))
            good = set(sp_pairs(sub))
        else:
            pairs = [uv[::d] for uv in rng.sample(sub.edges(), 12) for d in (1, -1)]
            pairs += rng.sample(list(itertools.permutations(sub.vertices, 2)), 12)
            good = {(u, v) for u, v in pairs if sub.has_edge(u, v)
                    or not sub.without_vertices({u, v}).is_connected()}
        verdicts = set()
        for u, v in [*pairs, (m, "not a vertex")]:
            where = (sorted(sub.edges()), u, v)
            if (u, v) not in good:
                assert sp.rooted(u, v) is None and not sp.simple_from(u, v), where
                refused += 1
                continue
            want = replay_sp(sub, u, v)
            assert record(sp.rooted(u, v)) == record(want), where
            rootings += 1
            if sub.has_edge(u, v) or edge_key(u, v) in sp.closed:
                assert sp.simple_from(u, v) == want.simple, where
                verdicts.add(want.simple)
                complex_rootings += not want.simple
            else:
                splits += 1
        mixed += len(verdicts) == 2
    assert rootings > 20000 and complex_rootings > 5000 and mixed > 100, (
        rootings, complex_rootings, mixed)
    assert splits > 5000 and refused > 1000, (splits, refused)
    # two a-b bipaths, through m and through q, and the edge ab
    g = Graph.from_edges([("a", "b")] + [
        e for mid in "mq" for end, x, y in (("a", "x", "y"), ("b", "z", "w"))
        for inner in (x + mid, y + mid) for e in ((end, inner), (inner, mid))])
    sp = gsp_module._sp_tree(g, "a", "b", gsp_module._reduce(g, ("a", "b")))
    for u, v in (("xm", "ym"), ("m", "q")):
        assert sp.rooted(u, v) is None and not sp.simple_from(u, v)


def test_classifying_a_ladder_builds_one_forest(monkeypatch):
    # the K_4 block test and the peel share one forest
    forests = count_forests(monkeypatch)
    assert classify_topological_3(generate("grid:2,300")).verdict == "YES"
    assert len(forests) == 1


# ---------------------------------------------------------------------------
# classification


def check_yes(g):
    c = classify_topological_3(g)
    assert c.verdict == "YES", c.verdict
    assert c.tree.graph == g and is_simple(c.tree)
    return c


def check_no(g, family):
    c = classify_topological_3(g)
    assert c.verdict == "NO"
    assert c.witness.family == family
    assert pattern_check(c.witness) and embedded(c.witness, g)
    return c


def test_classify_easy_yes():
    check_yes(path_graph(5))
    check_yes(Graph.from_edges([("c", f"l{i}") for i in range(4)]))
    check_yes(cycle_graph(6))
    check_yes(Graph.from_edges([(s, f"m{i}") for s in "ab" for i in range(3)]))


def test_classify_many_parallel_paths_is_fine():
    # six internally disjoint paths sharing their ends give no pattern:
    # a forbidden strand needs an inner articulation vertex
    g = Graph.from_edges([(s, f"m{i}") for s in "ab" for i in range(6)])
    check_yes(g)


def test_classify_forbidden_families():
    check_no(complete_graph(4), "F1")
    check_no(k4_subdivision_example(), "F1")
    check_no(family_f2(), "F2")
    check_no(family_f3(), "F3")


def test_classify_minimal_three_strands():
    edges = []
    for i in (1, 2, 3):
        m, x, y = f"m{i}", f"x{i}", f"y{i}"
        edges += [("a", m), (m, "b"), ("a", x), (x, m), (m, y), (y, "b")]
    check_no(Graph.from_edges(edges), "F2")


def test_classification_record_shape():
    yes = classify_topological_3(cycle_graph(4)).to_record()
    assert yes["verdict"] == "YES" and "tree" in yes and "witness" not in yes
    no = classify_topological_3(complete_graph(4)).to_record()
    assert no["verdict"] == "NO" and "witness" in no and "tree" not in no


def test_classify_input_errors():
    with pytest.raises(InputError):
        classify_topological_3(Graph.from_edges([], vertices=["x"]))
    with pytest.raises(InputError):
        classify_topological_3(Graph.from_edges([("a", "b")], vertices=["a", "b", "z"]))


def test_connectivity_is_read_off_the_forest(monkeypatch):
    # the forest's component count is the BFS's on every atlas graph,
    # disconnected ones too, and the classifier runs no BFS for it
    for ng in nx.graph_atlas_g():
        g = from_networkx(ng)
        assert gsp_module._components(g, block_cut_forest(g)) == len(g.components())
    calls = []
    real = Graph.component_of
    monkeypatch.setattr(Graph, "component_of", lambda g, v: calls.append(v) or real(g, v))
    assert classify_topological_3(generate("grid:20,20")).verdict == "NO"
    assert classify_topological_3(generate("tree:6")).verdict == "YES"
    assert calls == []
    two = Graph.from_edges([("a", "b"), ("b", "c"), ("c", "a"), ("d", "e")])
    with pytest.raises(InputError, match="classification needs a connected graph"):
        classify_topological_3(two)
    with pytest.raises(InputError, match="decomposition needs a connected graph"):
        gsp_decompose(two, "a", "b")
    with pytest.raises(InputError, match="needs a biconnected graph"):
        sp_decompose(Graph.from_edges([("a", "b")], vertices="abz"), "a", "b")


def test_classify_derives_graph_once(monkeypatch):
    calls = []
    real = gsp_module.recompose

    def counting(tree):
        calls.append(tree)
        return real(tree)

    monkeypatch.setattr(gsp_module, "recompose", counting)
    for spec in ("path:50", "cycle:50"):
        calls.clear()
        c = classify_topological_3(generate(spec))
        assert c.verdict == "YES"
        assert calls == [c.tree], spec
        assert c.tree.graph == generate(spec) and len(calls) == 1


def test_only_the_checked_root_derives_a_graph(monkeypatch, atlas_2_7):
    """No node below the root the classifier checks derives a graph, and
    a NO answer derives none: on the atlas and on the benchmark's
    classify corpus, seeds 0-2."""
    calls = []
    real = gsp_module.recompose

    def counting(tree):
        calls.append(tree)
        return real(tree)

    monkeypatch.setattr(gsp_module, "recompose", counting)
    verdicts = {"YES": 0, "NO": 0}
    for g in list(atlas_2_7) + bench_corpus("classify", (0, 1, 2)):
        calls.clear()
        out = gsp_module.build_simple_gsp(g)
        if isinstance(out, GspTree):
            assert calls == [out], sorted(g.edges())
            verdicts["YES"] += 1
        else:
            assert calls == [], sorted(g.edges())
            verdicts["NO"] += 1
    assert min(verdicts.values()) > 200, verdicts


def count_copies(monkeypatch):
    """Counters of Graph.induced calls and of series-parallel reductions."""
    calls = {"induced": 0, "reduce": 0}
    real_induced, real_reduce = Graph.induced, gsp_module._reduce

    def induced(self, keep):
        calls["induced"] += 1
        return real_induced(self, keep)

    def reduce(adj, keep=()):
        calls["reduce"] += 1
        return real_reduce(adj, keep)

    monkeypatch.setattr(Graph, "induced", induced)
    monkeypatch.setattr(gsp_module, "_reduce", reduce)
    return calls


CHORD_CYCLE = Graph.from_edges(
    [(f"c{i:02d}", f"c{(i + 1) % 12:02d}") for i in range(12)]
    + [("c00", "c02"), ("c00", "c04"), ("c04", "c08"), ("c08", "c10")]
)


def cycle_edges(prefix, n):
    return [(f"{prefix}{i}", f"{prefix}{(i + 1) % n}") for i in range(n)]


def flower(hub, petals=60):
    """petals 8-cycles sharing the vertex hub."""
    edges = []
    for j in range(petals):
        ring = [hub] + [f"p{j:02d}.{k}" for k in range(1, 8)]
        edges += [(ring[k], ring[(k + 1) % 8]) for k in range(8)]
    return Graph.from_edges(edges)


COPY_CASES = {
    "chords": CHORD_CYCLE,
    "twin 6-cycles": Graph.from_edges(
        cycle_edges("a", 6) + cycle_edges("b", 6) + [("a0", "b0")]
    ),
    "flower hub a": flower("a"),
    "flower hub z": flower("z"),
}


@pytest.mark.parametrize(
    "spec, induced, reductions",
    [
        # bridges peel without a subgraph, and so does the last one
        ("path:200", 0, 0),
        ("tree:6", 0, 0),
        # one block: its K_4 test's reduction builds its tree
        ("cycle:50", 0, 1),
        ("grid:2,50", 0, 1),
        ("chords", 0, 1),
        # a K_4 block: after its test, three prefixes of its BFS order
        # are copied and reduced, the third (16 vertices) is the region,
        # and the other 28 reductions are the region's minimisation
        ("grid:3,20", 3, 32),
        # each block is reduced once, and both pendants start at their
        # least vertex, so their tests' reductions build their trees
        ("twin 6-cycles", 2, 2),
        # every petal starts at the hub; with the hub last, a pendant is
        # rooted at the hub in the S/P tree its test's reduction builds
        ("flower hub a", 60, 60),
        ("flower hub z", 60, 60),
        # the main block's tree from its cut, its tree from its least
        # edge and the re-anchoring's split at the core's terminals are
        # rooted in one S/P tree; each was a copy and a reduction of its own
        ("f2s13-n130", 1, 1),
        ("f3s14-n169", 1, 1),
    ],
)
def test_classify_copies_and_reduces_once(monkeypatch, spec, induced, reductions):
    if spec in COPY_CASES:
        g = COPY_CASES[spec]
    elif spec.endswith("-n130") or spec.endswith("-n169"):
        g = bench_graph("classify", 0, spec)
    else:
        g = generate(spec)
    calls = count_copies(monkeypatch)
    c = classify_topological_3(g)
    assert (c.verdict == "NO") == (spec in ("grid:3,20", "f2s13-n130", "f3s14-n169"))
    assert c.verdict == "NO" or c.tree.graph == g
    assert calls == {"induced": induced, "reduce": reductions}


def test_classify_reduces_and_copies_each_block_once(monkeypatch):
    """On every graph of the bench classify corpus (seeds 0-2) that holds
    no K_4 subdivision, each block of 3+ vertices is reduced at most
    once and only a block of 4+ vertices is copied, at most once."""
    checked = 0
    for g in bench_corpus("classify", (0, 1, 2)):
        if has_k4_subdivision(g) is not None:
            continue
        blocks = block_cut_forest(g).blocks
        with monkeypatch.context() as patch:
            calls = count_copies(patch)
            classify_topological_3(g)
        assert calls["reduce"] <= sum(len(b) >= 3 for b in blocks), sorted(g.edges())
        assert calls["induced"] <= sum(len(b) >= 4 for b in blocks), sorted(g.edges())
        checked += 1
    assert checked > 150


def count_touched(monkeypatch):
    """A counter of the vertices Graph.induced keeps and _reduce reduces."""
    touched = [0]
    real_induced, real_reduce = Graph.induced, gsp_module._reduce

    def induced(self, keep):
        keep = set(keep)
        touched[0] += len(keep)
        return real_induced(self, keep)

    def reduce(adj, keep=()):
        touched[0] += sum(1 for _ in adj)  # a Graph or a dict
        return real_reduce(adj, keep)

    monkeypatch.setattr(Graph, "induced", induced)
    monkeypatch.setattr(gsp_module, "_reduce", reduce)
    return touched


def six_cycle_chain(n):
    """n 6-cycles, each joined to the next by a bridge."""
    edges = []
    for i in range(n):
        edges += cycle_edges(f"c{i:03d}.", 6)
        if i:
            edges.append((f"c{i - 1:03d}.3", f"c{i:03d}.0"))
    return Graph.from_edges(edges)


@pytest.mark.parametrize(
    "family, build, sizes",
    [
        ("path", lambda n: generate(f"path:{n}"), (250, 1000)),
        ("tree", lambda h: generate(f"tree:{h}"), (5, 7)),
        ("sun", lambda n: sun(n), (50, 200)),  # sun is defined below
        ("grid:2", lambda n: generate(f"grid:2,{n}"), (50, 200)),
        ("6-cycle chain", six_cycle_chain, (10, 40)),
    ],
)
def test_classify_work_grows_linearly(monkeypatch, family, build, sizes):
    # counting, not timing: from one size to one with 4x the vertices,
    # linear work grows 4x and quadratic work 16x
    small, big = map(build, sizes)
    assert big.n >= 3.9 * small.n
    touched = count_touched(monkeypatch)
    assert classify_topological_3(small).verdict == "YES"
    at_small, touched[0] = touched[0], 0
    assert classify_topological_3(big).verdict == "YES"
    assert touched[0] <= 5 * at_small, (at_small, touched[0])
    assert at_small > 0 or family in ("path", "tree")  # bridges copy nothing


def test_one_block_refutation_reuses_the_failed_reduction(monkeypatch):
    # the reduction that would build the tree stops short; the witness
    # is the K_4 block test's, from the same 32 reductions: the test,
    # three of the region's prefixes and 28 of its minimisation
    g = generate("grid:3,20")
    want = has_k4_subdivision(g).to_record()
    calls = count_copies(monkeypatch)
    c = classify_topological_3(g)
    assert c.verdict == "NO" and c.witness.to_record() == want
    assert calls == {"induced": 3, "reduce": 32}


def test_a_large_k4_block_is_minimised_in_a_small_region(monkeypatch):
    # counting, not timing: the block's one K_4 test reduces all of its
    # 90,000 vertices, and the region adds a few hundred; minimising
    # the whole block reduced 1.5 million in 106 reductions, every one
    # of them copying most of the block
    g = generate("grid:300,300")
    touched = count_touched(monkeypatch)
    c = classify_topological_3(g)
    assert c.verdict == "NO" and c.witness.family == "F1"
    assert g.n <= touched[0] <= g.n + g.n // 100, touched[0]


def test_a_k4_far_from_the_least_vertex_is_minimised_near_it(monkeypatch):
    # grid:2,2000 with both diagonals of the square v1990, v1991, v3990,
    # v3991: no prefix from v0 reaches that K_4, so the region starts
    # again from the least vertex the block's reduction leaves. With the
    # whole block minimised instead, the witness is the same, but it took
    # 85 reductions over 157,062 vertices
    g = generate("grid:2,2000")
    g = Graph.from_edges([*g.edges(), ("v1990", "v3991"), ("v1991", "v3990")])
    want = gsp_module._extract_k4(g).to_record()
    calls = count_reductions(monkeypatch)
    c = classify_topological_3(g)
    assert c.verdict == "NO" and c.witness.to_record() == want
    assert len(calls) <= 30, len(calls)


# ---------------------------------------------------------------------------
# the peel loop against its first form


def reference_pendant_trees(g, built):
    """gsp._pendant as it was before the S/P tree: built holds rendered
    trees, and a complex one re-anchors by reference_rebuild_block."""
    for i, (_, _, tree) in enumerate(built):
        if tree.simple:
            return i, tree
    cores = [gsp_module._minimal_complex_nodes(tree) for _, _, tree in built]
    for hits in cores:
        if len(hits) >= 2:
            return gsp_module._witness_pair(g, hits[0], hits[1])
    for i, ((blk, cut, tree), (m,)) in enumerate(zip(built, cores)):
        if cut in m.terminals:
            redone = reference_rebuild_block(g.induced(blk), tree, cut)
            if isinstance(redone, ForbiddenWitness):
                return redone
            return i, redone
    return gsp_module._witness_pair(g, cores[0][0], cores[1][0])


def reference_peel(g):
    """The classifier's peel loop as first written: a fresh block-cut
    forest and a copy of the remaining graph for every peel, its leaf
    blocks sorted by least vertex, and a fresh replay_sp for every tree.
    Returns the peeled blocks and the last block's tree, as the first
    two parts of what gsp._peel returns."""
    peeled = []
    bcf = block_cut_forest(g)
    while len(bcf.blocks) > 1:
        built = []
        for blk, cut in sorted(leaf_blocks(bcf), key=lambda bc: min(bc[0]))[:2]:
            sub = g.induced(blk)
            built.append((blk, cut, replay_sp(sub, cut, min(sub.sorted_neighbors(cut)))))
        got = reference_pendant_trees(g, built)
        if isinstance(got, ForbiddenWitness):
            return got
        i, tree = got
        blk, cut, _ = built[i]
        peeled.append((blk, cut, tree))
        g = g.without_vertices(set(blk) - {cut})
        bcf = block_cut_forest(g)
    root = replay_sp(g, *g.edges()[0])
    if not root.simple:
        root = reference_rebuild_block(
            g, root, gsp_module._minimal_complex_nodes(root)[0].a
        )
        if isinstance(root, ForbiddenWitness):
            return root
    return peeled, root


def reference_merge(tree, pendant, c):
    """The graft as first written, one limb per call: descend to a node
    with c as a terminal, each time into the first child whose subtree
    has a node with c as a terminal, and hang the pendant there."""
    trail = []
    while c not in tree.terminals:
        i = 0 if any(c in s.terminals for s in tree.children[0].walk()) else 1
        trail.append((tree, i))
        tree = tree.children[i]
    out = node("branch" if tree.a == c else "branch_alt", tree, pendant)
    for t, i in reversed(trail):
        kids = list(t.children)
        kids[i] = out
        out = node(t.op, *kids)
    return out


def reference_limbs(tree, limbs):
    for c, pendant in limbs:
        tree = reference_merge(tree, pendant, c)
    return tree


def reference_record(g):
    w = has_k4_subdivision(g)
    if w is None:
        w = reference_peel(g)
    if isinstance(w, ForbiddenWitness):
        return Classification("NO", witness=w).to_record()
    with mock.patch.object(gsp_module, "_merge", reference_limbs):
        tree = gsp_module._assemble(*w)
    return Classification("YES", tree=tree).to_record()


# block templates: an edge, cycles, a theta, and blocks with two or three
# bipaths between "0" and "1" (complex SP trees, which the classifier
# re-anchors or refutes); two bipaths closed by the edge 0-1 or by a path
# 0-x-1, with or without one more strand 0-y-1, re-anchor when the block
# is pendant at one of their middle vertices
def _bipaths(count):
    edges = []
    for i in range(count):
        m, p, q, r, s = (f"{i}{t}" for t in "mpqrs")
        edges += [("0", p), (p, m), ("0", q), (q, m), (m, r), (r, "1"), (m, s), (s, "1")]
    return edges


BLOCKS = [
    [("0", "1")],
    [("0", "1"), ("1", "2"), ("2", "0")],
    [("0", "1"), ("1", "2"), ("2", "3"), ("3", "0")],
    [("0", "1"), ("1", "2"), ("2", "3"), ("3", "4"), ("4", "5"), ("5", "0")],
    [(s, f"m{i}") for s in "01" for i in range(3)],
    _bipaths(2),
    _bipaths(3),
    _bipaths(2) + [("0", "1")],
    _bipaths(2) + [("0", "x"), ("x", "1")],
    _bipaths(2) + [("0", "1"), ("0", "y"), ("y", "1")],
]


def random_block_tree(rng):
    """Blocks glued at shared vertices, tie-rich: most new blocks take
    labels above their glue vertex, so several leaf blocks share their
    least vertex, and the rest take labels from one shared counter."""
    edges, vertices, fresh = [], ["a"], iter(range(10**6))
    for _ in range(rng.randint(1, 7)):
        glue = rng.choice(vertices)
        template = rng.choice(BLOCKS[:5] * 3 + BLOCKS[5:])
        local = sorted({v for e in template for v in e})
        at = rng.choice(local)
        above = rng.random() < 0.6
        names = {}
        for v in local:
            if v == at:
                names[v] = glue
            elif above:
                names[v] = f"{glue}.{next(fresh)}"
            else:
                names[v] = f"{next(fresh):03d}"
        vertices += [w for w in names.values() if w != glue]
        edges += [(names[u], names[v]) for u, v in template]
    return Graph.from_edges(edges)


def double_stars():
    """Every labelling of an edge with two pendant edges at each end: the
    last block then grafts one limb at each of its terminals, in an
    order that the labels decide."""
    for y, z, *ends in itertools.permutations("abcdef"):
        yield Graph.from_edges([(y, z), (y, ends[0]), (y, ends[1]),
                                (z, ends[2]), (z, ends[3])])


def test_peel_matches_its_first_form(atlas_2_7_classified, rng, monkeypatch):
    trees = [random_block_tree(rng) for _ in range(300)]
    refuted_trees = 0
    anchored = []
    rebuild = gsp_module._rebuild_block

    def spy(*args):
        got = rebuild(*args)
        anchored.append(not isinstance(got, ForbiddenWitness))
        return got

    with monkeypatch.context() as patch:
        patch.setattr(gsp_module, "_rebuild_block", spy)
        classified = atlas_2_7_classified + [
            (g, classify_topological_3(g)) for g in trees + list(double_stars())
        ]
    for i, (g, cls) in enumerate(classified):
        got = cls.to_record()
        assert json.dumps(got) == json.dumps(reference_record(g)), sorted(g.edges())
        refuted_trees += i >= len(atlas_2_7_classified) and got["verdict"] == "NO"
    # block trees of series-parallel blocks hold no K_4 subdivision, so
    # their NO answers come from the peel itself; some of their complex
    # blocks re-anchor, so the YES branch of _rebuild_block, its rooting
    # at the target, meets the first form and its rotation too
    assert refuted_trees > 30
    assert any(anchored), (len(anchored), refuted_trees)


def reanchor_graph(rng):
    """Two bipaths between a and b, each through its middle vertex by two
    routes of 1-2 inner vertices per half (1 at odds of 2 to 1), closed
    by the edge ab or by a path, with 0-3 more a-b strands, 0-3 pendant
    paths or cycles at random vertices, and random labels. The block's tree is complex
    from a root on a strand and simple from one on a bipath, so the
    classifier re-anchors it wherever the peel roots it on a strand."""
    edges, fresh = [], (f"n{i}" for i in itertools.count())

    def strand(x, y, inner):
        edges.extend(itertools.pairwise([x, *(next(fresh) for _ in range(inner)), y]))

    for _ in range(2):
        mid = next(fresh)
        for end in "ab":
            for _ in range(2):
                strand(end, mid, rng.choice([1, 1, 2]))
    for inner in [rng.choice([0, 1, 2])] + [rng.randint(1, 4) for _ in range(rng.randint(0, 3))]:
        strand("a", "b", inner)
    for _ in range(rng.randint(0, 3)):
        at = rng.choice(sorted({v for e in edges for v in e}))
        if rng.random() < 0.5:
            strand(at, next(fresh), rng.randint(0, 2))
        else:
            strand(at, at, rng.randint(2, 3))  # a cycle through at
    return relabeled(Graph.from_edges(edges), rng)


def test_reanchors_match_their_first_form(rng, monkeypatch):
    """The re-anchorings the S/P tree roots (_rebuild_block's split and
    its rooting at the target's first simple edge) give the classifier's
    first form's records, whose oracle cross-checks each against the
    rotation it once made, where no bench or atlas graph re-anchors at
    all."""
    anchored = []
    rebuild = gsp_module._rebuild_block

    def spy(*args):
        got = rebuild(*args)
        anchored.append(isinstance(got, GspTree))
        return got

    graphs = [reanchor_graph(rng) for _ in range(300)]
    for g in graphs:
        with monkeypatch.context() as patch:
            patch.setattr(gsp_module, "_rebuild_block", spy)
            got = classify_topological_3(g).to_record()
        assert json.dumps(got) == json.dumps(reference_record(g)), sorted(g.edges())
    assert sum(anchored) >= 40, (sum(anchored), len(anchored))


def test_a_rendered_tree_is_scanned_for_cores_once(rng, monkeypatch):
    """Each tree the classifier renders is scanned for its minimal complex
    nodes at most once: the re-anchoring takes the core its caller found.
    On the bench classify corpus (seeds 0-2) and on graphs that re-anchor
    a block or join cores in two pendant blocks."""
    scanned = []
    real = gsp_module._minimal_complex_nodes

    def spy(tree):
        scanned.append(tree)  # kept alive, so no two trees share an id
        return real(tree)

    graphs = bench_corpus("classify", (0, 1, 2))
    graphs += [reanchor_graph(rng) for _ in range(100)]
    graphs += [cross_block_graph(rng) for _ in range(50)]
    monkeypatch.setattr(gsp_module, "_minimal_complex_nodes", spy)
    for g in graphs:
        classify_topological_3(g)
    ids = [id(t) for t in scanned]
    assert len(set(ids)) == len(ids)
    assert len(ids) > 200, len(ids)


def test_a_reanchoring_renders_only_its_new_root(monkeypatch):
    """A re-anchoring that succeeds renders one tree, the block's from the
    target's first simple edge: it reads the rootings at the target off
    the S/P tree first, and renders the split at the complex core's
    terminals only to refute. On reanchor_graph, seeds 0-4; the
    refutations render the split and, if none applies, no root."""
    renders, anchored, refuted = [], [], []
    rooted, rebuild = gsp_module._SPTree.rooted, gsp_module._rebuild_block

    def render(sp, u, v):
        if renders:
            renders[-1] += 1
        return rooted(sp, u, v)

    def spy(*args):
        renders.append(0)
        got = rebuild(*args)
        (anchored if isinstance(got, GspTree) else refuted).append(renders.pop())
        return got

    monkeypatch.setattr(gsp_module._SPTree, "rooted", render)
    monkeypatch.setattr(gsp_module, "_rebuild_block", spy)
    for seed in range(5):
        rng = random.Random(seed)
        for _ in range(100):
            classify_topological_3(reanchor_graph(rng))
    assert set(anchored) == {1} and len(anchored) >= 40, (len(anchored), set(anchored))
    assert set(refuted) <= {1}, set(refuted)


# ---------------------------------------------------------------------------
# F3 connectors against their first form


def reference_witness_pair(g, n0, n1):
    """gsp._witness_pair as first written: connectors from a max-flow on g
    without both interiors."""
    bips0 = _extract(n0)
    bips1 = _extract(n1)
    assert len(bips0) >= 2 and len(bips1) >= 2
    t0 = {n0.a, n0.b}
    t1 = {n1.a, n1.b}
    if t0 == t1:
        return _witness_f2([bips0[0], bips0[1], bips1[0]])
    v0, v1 = (set().union(*_leaf_edges(n)) for n in (n0, n1))
    interiors = (v0 - t0) | (v1 - t1)
    pq = two_disjoint_paths(g.without_vertices(interiors), t0, t1)
    assert pq is not None, "connector paths missing between complex cores"
    p, q = pq
    return _witness_f3(
        (p[0], q[0]),
        (p[-1], q[-1]),
        [bips0[0], bips0[1], bips1[0], bips1[1]],
        (p, q),
    )


def reference_witness_cross_block(g, blk_h, cut_h, m_h, blk_k, cut_k, m_k):
    """The first form's four-bipath witness with its cores in two pendant
    blocks: legs from each core endpoint to its block's cut vertex,
    joined by a corridor between the cut vertices."""
    bips_h = _extract(m_h)[:2]
    bips_k = _extract(m_k)[:2]
    s0, t0 = m_h.terminals
    s1, t1 = m_k.terminals
    int_h = set().union(*_leaf_edges(m_h)) - {s0, t0}
    int_k = set().union(*_leaf_edges(m_k)) - {s1, t1}
    gh = g.induced(blk_h)
    gk = g.induced(blk_k)
    corridor = g.shortest_path(
        cut_h, cut_k, forbidden=(set(blk_h) | set(blk_k)) - {cut_h, cut_k}
    )
    assert corridor is not None
    legs = {}
    for key, host, src, cut, avoid in (
        ("h0", gh, s0, cut_h, int_h | {t0}),
        ("h1", gh, t0, cut_h, int_h | {s0}),
        ("k0", gk, s1, cut_k, int_k | {t1}),
        ("k1", gk, t1, cut_k, int_k | {s1}),
    ):
        legs[key] = host.shortest_path(src, cut, forbidden=avoid)
        assert legs[key] is not None
    p1 = legs["h0"] + corridor[1:] + legs["k0"][::-1][1:]
    p2 = legs["h1"] + corridor[1:] + legs["k1"][::-1][1:]
    return _witness_f3((s0, t0), (s1, t1), bips_h + bips_k, (p1, p2))


def reference_pendant(g, built, crossed):
    """gsp._pendant as first written, with the max-flow inside one block
    and the legs and corridor across two; crossed counts the calls that
    reach the cross-block witness. The first form passed the graph the
    peel had left to that witness; g gives the same paths, since a
    simple path between two vertices of one block never leaves it. The
    first form rendered every tree it was given, and took each block's
    vertices, here read off its tree's leaves."""
    trees = [(gsp_module._render(sp, cut, other), cut) for sp, cut, other in built]
    built = [(set().union(*_leaf_edges(t)), cut, t) for t, cut in trees]
    for i, (_, _, tree) in enumerate(built):
        if tree.simple:
            return i, tree
    cores = [gsp_module._minimal_complex_nodes(tree) for _, _, tree in built]
    for (blk, _, _), hits in zip(built, cores):
        if len(hits) >= 2:
            return reference_witness_pair(g.induced(blk), hits[0], hits[1])
    for i, ((blk, cut, tree), (m,)) in enumerate(zip(built, cores)):
        if cut in m.terminals:
            redone = reference_rebuild_block(g.induced(blk), tree, cut)
            if isinstance(redone, ForbiddenWitness):
                return redone
            return i, redone
    crossed.append(g)
    (blk_h, cut_h, _), (blk_k, cut_k, _) = built
    return reference_witness_cross_block(
        g, blk_h, cut_h, cores[0][0], blk_k, cut_k, cores[1][0]
    )


def closed_bipaths(tag, rng):
    """A block with two bipaths between tag+"s" and tag+"t", each through
    its middle vertex by two routes of 2-3 edges per half, closed by a
    path from s through the cut vertex tag+"c" to t: its tree from the
    cut is complex, with a core that the cut does not touch."""
    s, t, c = f"{tag}s", f"{tag}t", f"{tag}c"
    edges = []
    for i in range(2):
        mid = f"{tag}{i}m"
        for end, half in ((s, "a"), (t, "b")):
            for route in "xy":
                inner = [f"{tag}{i}{half}{route}{j}" for j in range(rng.randint(1, 2))]
                edges += itertools.pairwise([end, *inner, mid])
    for end, side in ((s, "l"), (t, "r")):
        inner = [f"{tag}{side}{j}" for j in range(rng.randint(0, 2))]
        edges += itertools.pairwise([end, *inner, c])
    return edges, c


def cross_block_graph(rng):
    """Two closed-bipath pendant blocks joined by a bridge path of 0-4
    inner vertices, relabelled at random half the time: the peel's two
    pendants are both complex and neither cut touches its core, so the
    F3 witness joins cores in two blocks."""
    edges_h, cut_h = closed_bipaths("h", rng)
    edges_k, cut_k = closed_bipaths("k", rng)
    bridge = [cut_h, *(f"z{j}" for j in range(rng.randint(0, 4))), cut_k]
    g = Graph.from_edges(edges_h + edges_k + list(itertools.pairwise(bridge)))
    return relabeled(g, rng) if rng.random() < 0.5 else g


def test_f3_connectors_match_their_first_form(rng):
    """Two BFS paths around the cores give the witness the max-flow and
    the cross-block legs gave: on the F3 graphs of the benchmark's
    classify corpus, seeds 0-2, and on a family whose F3 witnesses join
    cores in two pendant blocks."""
    corpus = [
        g for g in bench_corpus("classify", (0, 1, 2))
        if classify_topological_3(g).to_record().get("witness", {}).get("family") == "F3"
    ]
    family = [cross_block_graph(rng) for _ in range(200)]
    crossed = []
    pendant = functools.partial(reference_pendant, crossed=crossed)
    for g in corpus + family:
        got = classify_topological_3(g)
        with mock.patch.object(gsp_module, "_pendant", pendant), mock.patch.object(
            gsp_module, "_witness_pair", reference_witness_pair
        ):
            want = classify_topological_3(g)
        assert got.witness.family == "F3"
        assert json.dumps(got.to_record()) == json.dumps(want.to_record()), sorted(g.edges())
    assert len(corpus) == 36
    assert crossed == family


def sun(n):
    """An n-cycle with a pendant edge at every vertex."""
    return Graph.from_edges(
        [(f"c{i}", f"c{(i + 1) % n}") for i in range(n)]
        + [(f"c{i}", f"p{i}") for i in range(n)]
    )


def test_sun_grafts_walk_each_node_once(monkeypatch):
    # every limb of a block hangs in one pass over the block's tree; a
    # walk per limb and per level made this quadratic
    steps = [0]
    real = GspTree.walk

    def counting(self):
        for t in real(self):
            steps[0] += 1
            yield t

    monkeypatch.setattr(GspTree, "walk", counting)
    g = sun(400)
    c = classify_topological_3(g)
    assert c.verdict == "YES"
    assert 0 < steps[0] <= 2 * (g.n + g.m)


# ---------------------------------------------------------------------------
# the GSP peel against its first form


def reference_gsp(g, a, b):
    """gsp._gsp as first written: a fresh block-cut forest and a copy of
    the remaining graph for every peel, its leaf blocks sorted by least
    vertex, and one graft per peeled block, in reverse peel order."""
    peeled = []
    while True:
        leaves = sorted(leaf_blocks(block_cut_forest(g)), key=lambda bc: min(bc[0]))
        for blk, cut in leaves:
            if cut is not None and not {a, b} & (set(blk) - {cut}):
                break
        else:
            break
        sub = g.induced(blk)
        peeled.append((cut, replay_sp(sub, cut, min(sub.sorted_neighbors(cut)))))
        g = g.without_vertices(set(blk) - {cut})
    out = replay_sp(g, a, b)
    for cut, tree in reversed(peeled):
        if out is None or tree is None:
            return None
        out = reference_merge(out, tree, cut)
    return out


def reference_gsp_decompose(g, a, b):
    """gsp_decompose as first written: its checks, then reference_gsp."""
    gsp_module._check_terminals(g, a, b)
    if not g.is_connected():
        raise InputError("decomposition needs a connected graph")
    if not _sp_reducible(g):
        raise InputError("the graph contains a K_4 subdivision")
    if not g.has_edge(a, b):
        ok = False
        for blk in block_cut_forest(g).blocks:
            if a in blk and b in blk and len(blk) > 3:
                sub = g.induced(blk)
                if not sub.without_vertices({a, b}).is_connected():
                    ok = True
                    break
        if not ok:
            raise InputError(
                "terminals must be adjacent or separate one biconnected block"
            )
    return reference_gsp(g, a, b)


def decomposed(decompose, g, a, b):
    """The tree decompose(g, a, b) returns, or the text of its InputError."""
    try:
        return decompose(g, a, b)
    except InputError as ex:
        return f"error: {ex}"


def meaning(t):
    """What a tree says of its graph, whatever its shape."""
    return t.complexity, t.simple, t.bridged


def tree_depth(tree):
    depth, stack = 0, [(tree, 1)]
    while stack:
        t, d = stack.pop()
        depth = max(depth, d)
        stack.extend((c, d + 1) for c in t.children)
    return depth


def test_gsp_decompose_matches_its_first_form(atlas_2_7):
    # gsp_decompose builds series spines where the first form nested
    # every limb in the next, so the trees differ in shape: they must
    # refuse the same inputs with the same text, and otherwise rebuild
    # the same graph over the same terminals with the same root
    trees = 0
    for g in atlas_2_7:
        for a, b in itertools.permutations(g.vertices, 2):
            got = decomposed(gsp_decompose, g, a, b)
            want = decomposed(reference_gsp_decompose, g, a, b)
            where = (sorted(g.edges()), a, b)
            if isinstance(want, str):
                assert got == want, where
                continue
            assert recompose(got) == g and got.terminals == (a, b), where
            assert reference_recompose(got) == g, where
            assert meaning(got) == meaning(want), where
            trees += 1
    assert trees > 5000


@pytest.mark.parametrize("name", ["path:1000", "tree:8", "sun:300"])
def test_gsp_decompose_matches_its_first_form_on_long_graphs(name):
    # the first form nested one level per peeled block, 998 on path:1000,
    # and its record overflowed the recursion limit in json.dumps
    g = sun(300) if name == "sun:300" else generate(name)
    a, b = g.edges()[0]
    got = gsp_decompose(g, a, b)
    assert recompose(got) == g and got.terminals == (a, b)
    assert tree_depth(got) <= 64
    json.dumps(tree_to_record(got))


def test_gsp_decompose_reduces_each_block_once(atlas_2_7, monkeypatch):
    """gsp_decompose reduces each block of 3+ vertices once, for its K_4
    test, and roots the terminals' block in that reduction too; it
    makes no reduction of the whole graph. Counted in vertices reduced,
    on graphs with pendant blocks and every terminal pair they accept.
    sp_decompose makes one reduction of its biconnected graph."""
    graphs = [
        g for g in atlas_2_7
        if len(block_cut_forest(g).blocks) > 1 and has_k4_subdivision(g) is None
    ]
    graphs += [sun(12), six_cycle_chain(4), flower("a", 5)]
    calls = []
    real = gsp_module._reduce

    def reduce(adj, keep=()):
        calls.append(sum(1 for _ in adj))  # a Graph or a dict
        return real(adj, keep)

    monkeypatch.setattr(gsp_module, "_reduce", reduce)
    checked = 0
    for g in graphs:
        each = sum(len(blk) for blk in block_cut_forest(g).blocks if len(blk) >= 3)
        for a, b in itertools.permutations(sorted(g.vertices), 2):
            calls.clear()
            try:
                gsp_decompose(g, a, b)
            except InputError:
                continue
            assert sum(calls) == each, (sorted(g.edges()), a, b)
            checked += 1
    assert checked > 3000, checked
    blocks = [
        g for g in atlas_2_7
        if g.n >= 3 and len(block_cut_forest(g).blocks) == 1 and has_k4_subdivision(g) is None
    ]
    for g in blocks + [generate("grid:2,8"), cycle_graph(12)]:
        for a, b in itertools.permutations(sorted(g.vertices), 2):
            calls.clear()
            try:
                sp_decompose(g, a, b)
            except InputError:
                continue
            assert calls == [g.n], (sorted(g.edges()), a, b)
            checked += 1
    assert checked > 6000, checked


def test_gsp_decompose_builds_one_forest(monkeypatch):
    # the terminal check and the peel share one forest; the first form
    # built a fresh one at every peel, 999 on this path
    forests = count_forests(monkeypatch)
    g = generate("path:1000")
    assert gsp_decompose(g, *g.edges()[0]).graph == g
    assert len(forests) == 1


# Run under python -O, where asserts are stripped: the classifier's own
# final check must still refuse a wrong answer. "spine" keeps the last
# block's tree and drops every limb; "limbs" does the same to
# gsp_decompose, whose own check must refuse it; "merge" grafts nothing,
# so the tree misses every limb off a spine; "witness" makes every
# witness look foreign to the graph. "sp" makes the S/P tree root no
# tree, and sp_decompose must refuse to return None; "leaf" makes it
# root a bare leaf, which sp_decompose's own check must refuse; "gsp"
# makes it root none for gsp_decompose's terminals' block, and "peel"
# none for the classifier's peel, on a pendant block of the paw (a triangle with a
# pendant edge) and on the last block of a cycle. "split" roots no tree anywhere but at a block's kept pair, so
# the re-anchoring of an F2 graph's block finds no split at its complex
# core's terminals. "reanchor" rates no rooting simple, so the
# re-anchoring of a block of two a-b bipaths and the edge ab, complex
# from its least edge ab, finds no edge at a to root it from.
SABOTAGE = """
import sys

import zvsearch.gsp as gsp
from zvsearch.graphs import Graph, edge_key, generate

spec, how = sys.argv[1:]
EDGES = {
    "paw": [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")],
    "reanchor": [
        ("a", "b"),
        ("a", "xm"), ("xm", "m"), ("a", "ym"), ("ym", "m"),
        ("m", "zm"), ("zm", "b"), ("m", "wm"), ("wm", "b"),
        ("a", "xq"), ("xq", "q"), ("a", "yq"), ("yq", "q"),
        ("q", "zq"), ("zq", "b"), ("q", "wq"), ("wq", "b"),
    ],
}
g = Graph.from_edges(EDGES[spec]) if spec in EDGES else generate(spec)
run = gsp.classify_topological_3
rooted = gsp._SPTree.rooted
if how in ("spine", "limbs"):
    gsp._assemble = lambda *args: args[1]
    if how == "limbs":
        run = lambda g: gsp.gsp_decompose(g, *g.edges()[0])
elif how == "merge":
    gsp._merge = lambda tree, limbs: tree
elif how in ("sp", "leaf", "gsp", "peel"):
    gsp._SPTree.rooted = (
        lambda sp, u, v: gsp.leaf(u, v)) if how == "leaf" else lambda *args: None
    if how in ("sp", "leaf"):
        run = lambda g: gsp.sp_decompose(g, *g.edges()[0])
    elif how == "gsp":
        run = lambda g: gsp.gsp_decompose(g, *g.edges()[0])
elif how == "split":
    gsp._SPTree.rooted = lambda sp, u, v: (
        rooted(sp, u, v) if edge_key(u, v) == sp.key else None)
elif how == "reanchor":
    gsp._SPTree.simple_from = lambda *args: False
else:
    gsp.embedded = lambda witness, g: False
try:
    run(g)
except AssertionError as ex:
    print("refused:", ex)
else:
    print("accepted")
"""


@pytest.mark.parametrize(
    "spec, how, why",
    [
        ("path:6", "spine", "decomposition"),
        ("tree:2", "limbs", "decomposition"),
        ("tree:2", "merge", "decomposition"),
        ("f2", "witness", "witness"),
        ("f3", "witness", "witness"),
        ("cycle:5", "sp", "series-parallel engine"),
        ("cycle:5", "leaf", "decomposition"),
        ("cycle:5", "gsp", "series-parallel engine"),
        ("paw", "peel", "series-parallel engine"),
        ("cycle:5", "peel", "series-parallel engine"),
        ("f2", "split", "split"),
        ("reanchor", "reanchor", "re-anchoring"),
    ],
)
def test_sabotaged_classification_is_refused_under_O(spec, how, why):
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
    assert proc.stdout.startswith(f"refused: the {why}"), proc.stdout
