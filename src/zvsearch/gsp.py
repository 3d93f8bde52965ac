"""Generalized series-parallel decompositions and the width-3 classifier.

A terminal graph is a graph with an ordered pair of distinct terminals.
Four composition operators build larger terminal graphs from smaller
ones (series, parallel, and two one-point "branch" attachments), and a
GspTree records how a graph was assembled. The classifier decides
whether a connected graph admits a *simple* tree, one where no subtree
mixes two essentially different terminal-to-terminal routings; graphs
that do can be searched with three pursuers after subdivision, and
graphs that cannot embed one of the forbidden patterns in
`zvsearch.forbidden`, which the classifier extracts as a witness.

Complexity of a subtree counts its terminal-to-terminal bipaths:
bridged series nodes and single edges contribute nothing, a parallel
node adds up its children, and a branch node inherits from the child
that keeps both terminals. "Simple" means every subtree has complexity
at most one.
"""

from dataclasses import dataclass
from functools import lru_cache

from .errors import InputError
from .forbidden import (
    Bipath,
    ForbiddenWitness,
    _witness_f2,
    _witness_f3,
    bipath_problems,
    embedded,
    pattern_check,
    pattern_problems,
)
from .graphs import (
    Graph,
    block_cut_forest,
    edge_key,
    internally_disjoint_paths,
    is_bridged as _bridged_between,
    subdivision_label,
    two_disjoint_paths,
)

OPS = ("series", "parallel", "branch", "branch_alt")


# ---------------------------------------------------------------------------
# terminal graphs and composition


@dataclass(frozen=True)
class TerminalGraph:
    """A graph with an ordered pair of distinct terminal vertices."""

    graph: Graph
    a: str
    b: str

    def __post_init__(self):
        if self.a == self.b:
            raise InputError("terminals must be distinct")
        for t in (self.a, self.b):
            if t not in self.graph:
                raise InputError(f"terminal {t!r} is not a vertex")

    @property
    def terminals(self):
        return (self.a, self.b)

    def swapped(self):
        return TerminalGraph(self.graph, self.b, self.a)


def compose(op, first, second):
    """Glue two terminal graphs.

    series     joins first.b to second.a; result runs first.a -> second.b.
    parallel   identifies both terminal pairs (same order).
    branch     hangs second on at its own first terminal == first.a.
    branch_alt hangs second on at its own first terminal == first.b.

    The graphs may only share the glued vertices; anything else is an
    InputError naming the violated clause.
    """
    if op not in OPS:
        raise InputError(f"unknown composition {op!r} (have {OPS})")
    shared = set(first.graph.vertices) & set(second.graph.vertices)
    if op == "series":
        if first.b != second.a:
            raise InputError(
                "series composition needs first.b == second.a "
                f"(got {first.b!r} and {second.a!r})"
            )
        if shared != {first.b}:
            raise InputError(
                "series composition allows overlap only at the glued terminal"
            )
        return TerminalGraph(first.graph.union(second.graph), first.a, second.b)
    if op == "parallel":
        if first.terminals != second.terminals:
            raise InputError(
                "parallel composition needs identical ordered terminals "
                f"(got {first.terminals} and {second.terminals})"
            )
        if shared != {first.a, first.b}:
            raise InputError(
                "parallel composition allows overlap only at the terminals"
            )
        return TerminalGraph(first.graph.union(second.graph), first.a, first.b)
    glue = first.a if op == "branch" else first.b
    if second.a != glue:
        raise InputError(
            f"{op} composition needs second.a == {glue!r} (got {second.a!r})"
        )
    if shared != {glue}:
        raise InputError(f"{op} composition allows overlap only at {glue!r}")
    return TerminalGraph(first.graph.union(second.graph), first.a, first.b)


# ---------------------------------------------------------------------------
# decomposition trees


@dataclass(frozen=True)
class GspTree:
    """One node of a decomposition: an operator or a single-edge leaf.

    The stored graph is always the recomposition of the subtree, which
    node() guarantees by construction and recompose() re-checks.
    """

    op: str
    graph: Graph
    a: str
    b: str
    children: tuple = ()

    @property
    def terminals(self):
        return (self.a, self.b)

    @property
    def is_leaf(self):
        return self.op == "leaf"

    def terminal_graph(self):
        return TerminalGraph(self.graph, self.a, self.b)

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()


def leaf(u, v):
    if u == v:
        raise InputError("a leaf joins two distinct vertices")
    return GspTree("leaf", Graph.from_edges([(u, v)]), u, v)


def node(op, child0, child1):
    tg = compose(op, child0.terminal_graph(), child1.terminal_graph())
    return GspTree(op, tg.graph, tg.a, tg.b, (child0, child1))


def recompose(tree):
    """Fold the tree bottom-up and confirm every stored graph agrees.

    Returns the root graph. Hand-built trees with inconsistent stored
    graphs raise InputError; anything produced by node() passes.
    """
    if tree.is_leaf:
        want = Graph.from_edges([(tree.a, tree.b)])
        if tree.graph != want:
            raise InputError("leaf graph is not the single terminal edge")
        return tree.graph
    parts = [
        TerminalGraph(recompose(c), c.a, c.b) for c in tree.children
    ]
    tg = compose(tree.op, *parts)
    if tg.graph != tree.graph or tg.terminals != tree.terminals:
        raise InputError(f"stored graph disagrees with recomposition at {tree.op}")
    return tree.graph


def tree_to_record(tree):
    if tree.is_leaf:
        return {"op": "leaf", "terminals": list(tree.terminals)}
    return {
        "op": tree.op,
        "terminals": list(tree.terminals),
        "children": [tree_to_record(c) for c in tree.children],
    }


def tree_from_record(record):
    try:
        op = record["op"]
        terminals = tuple(record["terminals"])
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed tree record: {exc}") from None
    if op == "leaf":
        return leaf(*terminals)
    kids = record.get("children")
    if not isinstance(kids, list) or len(kids) != 2:
        raise InputError("an operator node needs exactly two children")
    out = node(op, tree_from_record(kids[0]), tree_from_record(kids[1]))
    if out.terminals != terminals:
        raise InputError(
            f"recorded terminals {terminals} disagree with recomposition "
            f"{out.terminals}"
        )
    return out


# ---------------------------------------------------------------------------
# complexity


def is_bridged(tg):
    """Whether every terminal-to-terminal route crosses some bridge."""
    return _bridged_between(tg.graph, tg.a, tg.b)


@lru_cache(maxsize=16384)
def _node_complexity(tree):
    if tree.op in ("leaf", "series"):
        return 0 if _bridged_between(tree.graph, tree.a, tree.b) else 1
    if tree.op == "parallel":
        return sum(_node_complexity(c) for c in tree.children)
    return _node_complexity(tree.children[0])


def is_simple(tree):
    return all(_node_complexity(s) <= 1 for s in tree.walk())


@dataclass(frozen=True)
class ComplexityReport:
    """Root complexity plus one (path, op, value, bridged) row per node."""

    value: int
    simple: bool
    nodes: tuple


def complexity(tree):
    rows = []
    simple = True
    stack = [((), tree)]
    while stack:
        path, t = stack.pop()
        value = _node_complexity(t)
        simple = simple and value <= 1
        rows.append((path, t.op, value, _bridged_between(t.graph, t.a, t.b)))
        for i, c in enumerate(reversed(t.children)):
            stack.append((path + (len(t.children) - 1 - i,), c))
    rows.sort(key=lambda r: r[0])
    return ComplexityReport(_node_complexity(tree), simple, tuple(rows))


def _invert(tree):
    # Total inversion, used internally on trees of any complexity. The
    # branch tags swap because the hanging child keeps its orientation
    # while the spine's terminals reverse.
    if tree.is_leaf:
        return GspTree("leaf", tree.graph, tree.b, tree.a)
    c0, c1 = tree.children
    if tree.op == "series":
        return node("series", _invert(c1), _invert(c0))
    if tree.op == "parallel":
        return node("parallel", _invert(c0), _invert(c1))
    if tree.op == "branch":
        return node("branch_alt", _invert(c0), c1)
    return node("branch", _invert(c0), c1)


def invert(tree):
    """The same decomposition read from the other terminal."""
    if not is_simple(tree):
        raise InputError("inversion is defined for simple decompositions")
    return _invert(tree)


def subdivide_decomposition(tree, counts):
    """Replace each counted leaf edge by a series chain of new leaves.

    Chain labels match zvsearch.graphs.subdivide, so a tree subdivided
    here recomposes to exactly the derived graph of the subdivided base.
    """
    root_edges = set(tree.graph.edges())
    norm = {}
    for e, c in counts.items():
        k = edge_key(*e)
        if k not in root_edges:
            raise InputError(f"{k} is not an edge of the decomposition")
        if c < 0:
            raise InputError(f"negative subdivision count on {k}")
        if c:
            norm[k] = int(c)

    def rebuild(t):
        if t.is_leaf:
            e = edge_key(t.a, t.b)
            c = norm.get(e, 0)
            if not c:
                return t
            inner = [subdivision_label(e, i) for i in range(1, c + 1)]
            if t.a != e[0]:
                inner.reverse()
            seq = [t.a] + inner + [t.b]
            out = leaf(seq[0], seq[1])
            for u, v in zip(seq[1:], seq[2:]):
                out = node("series", out, leaf(u, v))
            return out
        return node(t.op, rebuild(t.children[0]), rebuild(t.children[1]))

    return rebuild(tree)


# ---------------------------------------------------------------------------
# K_4 subdivisions


def _sp_reducible(g):
    """Series-parallel multigraph reduction on one biconnected block."""
    if g.n <= 2:
        return True
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
    return len(mult) <= 2


def _contains_k4(g):
    return any(
        len(blk) >= 4 and not _sp_reducible(g.induced(blk))
        for blk in block_cut_forest(g).blocks
    )


def _extract_k4(g):
    # Shrink to an edge-minimal subgraph that still embeds the pattern;
    # what remains is the subdivision itself, so the roles fall out of
    # the degree sequence.
    h = g
    shrinking = True
    while shrinking:
        shrinking = False
        for e in h.edges():
            cand = h.without_edge(*e)
            if _contains_k4(cand):
                h = cand
                shrinking = True
                break
    h = h.induced([v for v in h.vertices if h.degree(v) > 0])
    branch = sorted(v for v in h.vertices if h.degree(v) == 3)
    assert len(branch) == 4 and all(h.degree(v) in (2, 3) for v in h.vertices)
    chains = {}
    for v in branch:
        for w in h.sorted_neighbors(v):
            path = [v, w]
            while h.degree(path[-1]) == 2:
                path.append(
                    next(
                        x
                        for x in h.sorted_neighbors(path[-1])
                        if x != path[-2]
                    )
                )
            key = frozenset(edge_key(x, y) for x, y in zip(path, path[1:]))
            if key not in chains:
                chains[key] = path if path[0] < path[-1] else path[::-1]
    paths = sorted(chains.values())
    assert len(paths) == 6
    w = ForbiddenWitness(
        "F1",
        h,
        {"branch_vertices": branch, "paths": [list(p) for p in paths]},
    )
    assert pattern_check(w), pattern_problems(w)
    return w


def has_k4_subdivision(g):
    """A witness embedding of a K_4 subdivision, or None."""
    for blk in sorted(block_cut_forest(g).blocks, key=min):
        if len(blk) >= 4 and not _sp_reducible(g.induced(blk)):
            return _extract_k4(g.induced(blk))
    return None


# ---------------------------------------------------------------------------
# series-parallel decomposition engines


def _fold(op, parts):
    out = parts[0]
    for p in parts[1:]:
        out = node(op, out, p)
    return out


def _sp(g, a, b):
    """SP tree for a biconnected K_4-free (g, a, b); None on obstruction.

    Peels the direct a-b edge into its own leaf, decomposes each
    remaining component of g - {a, b} as a series chain along its block
    path, and folds the parts in parallel. A single component with no
    a-b edge means {a, b} was neither an edge nor a separator, which
    cannot happen below a valid call.
    """
    if g.n == 2:
        return leaf(a, b) if g.has_edge(a, b) else None
    direct = g.has_edge(a, b)
    base = g.without_edge(a, b) if direct else g
    parts = [leaf(a, b)] if direct else []
    for comp in sorted(base.without_vertices({a, b}).components(), key=min):
        t = _sp_chain(base.induced(set(comp) | {a, b}), a, b)
        if t is None:
            return None
        parts.append(t)
    if len(parts) < 2:
        return None
    return _fold("parallel", parts)


def _sp_chain(h, a, b):
    """Series chain of per-block SP trees along h's a-b block path.

    None when the path misses a block of h; in a biconnected ambient
    graph that never happens (hanging material would need a cut vertex).
    """
    bcf = block_cut_forest(h)
    blocks, cuts = bcf.block_path(a, b)
    if len(blocks) != len(bcf.blocks):
        return None
    stops = [a] + cuts + [b]
    parts = []
    for blk, u, v in zip(blocks, stops, stops[1:]):
        t = _sp(h.induced(blk), u, v)
        if t is None:
            return None
        parts.append(t)
    return _fold("series", parts)


def _two_connected(g):
    return g.n >= 2 and g.is_connected() and len(block_cut_forest(g).blocks) == 1


def sp_decompose(g, a, b):
    """Series-parallel tree of a biconnected K_4-free graph.

    The terminals must be adjacent or disconnect the graph; those are
    exactly the pairs for which such a tree exists.
    """
    _check_terminals(g, a, b)
    if not _two_connected(g):
        raise InputError("series-parallel decomposition needs a biconnected graph")
    w = has_k4_subdivision(g)
    if w is not None:
        raise InputError("the graph contains a K_4 subdivision")
    if not g.has_edge(a, b):
        rest = g.without_vertices({a, b})
        if rest.n == 0 or rest.is_connected():
            raise InputError(
                "terminals must be adjacent or separate the graph"
            )
    t = _sp(g, a, b)
    assert t is not None
    return t


def _check_terminals(g, a, b):
    for v in (a, b):
        if v not in g:
            raise InputError(f"no vertex {v!r}")
    if a == b:
        raise InputError("terminals must be distinct")


def _gsp(g, a, b):
    """GSP tree for a connected K_4-free (g, a, b); None on obstruction."""
    bcf = block_cut_forest(g)
    if len(bcf.blocks) == 1:
        return _sp(g, a, b)
    blocks = None
    try:
        blocks, cuts = bcf.block_path(a, b)
    except InputError:
        pass
    if blocks is not None and len(blocks) == len(bcf.blocks):
        stops = [a] + cuts + [b]
        parts = []
        for blk, u, v in zip(blocks, stops, stops[1:]):
            t = _sp(g.induced(blk), u, v)
            if t is None:
                return None
            parts.append(t)
        return _fold("series", parts)
    # peel a pendant block whose interior holds neither terminal
    for blk, cut in sorted(bcf.leaf_blocks(), key=lambda bc: min(bc[0])):
        if cut is None:
            return None
        interior = set(blk) - {cut}
        if a in interior or b in interior:
            continue
        sub = g.induced(blk)
        t_blk = _sp(sub, cut, min(sub.sorted_neighbors(cut)))
        if t_blk is None:
            return None
        rest = _gsp(g.without_vertices(interior), a, b)
        if rest is None:
            return None
        return _merge(rest, t_blk, cut)
    return None


def gsp_decompose(g, a, b):
    """Generalized series-parallel tree over the given terminals.

    Requires a connected K_4-free graph whose terminals are adjacent or
    form a two-element separator of one biconnected block.
    """
    _check_terminals(g, a, b)
    if not g.is_connected():
        raise InputError("decomposition needs a connected graph")
    if has_k4_subdivision(g) is not None:
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
    t = _gsp(g, a, b)
    assert t is not None
    return t


# ---------------------------------------------------------------------------
# grafting a pendant block onto an existing tree


def _merge(tree, pendant, c):
    # pendant.a == c; descend to a node with c as a terminal and hang the
    # pendant there. Every rebuilt ancestor keeps its operator, so no
    # complexity changes along the way.
    if tree.a == c:
        return node("branch", tree, pendant)
    if tree.b == c:
        return node("branch_alt", tree, pendant)
    c0, c1 = tree.children
    if c in c0.graph:
        return node(tree.op, _merge(c0, pendant, c), c1)
    return node(tree.op, c0, _merge(c1, pendant, c))


def merge_block(tree, pendant, c):
    """Attach a decomposition of a pendant block at its cut vertex c.

    The two graphs may share only c, and c must be a terminal of the
    pendant tree (it is reoriented if it is the second one).
    """
    shared = set(tree.graph.vertices) & set(pendant.graph.vertices)
    if shared != {c}:
        raise InputError(f"the graphs must overlap exactly at {c!r}")
    if c not in pendant.terminals:
        raise InputError(f"{c!r} is not a terminal of the pendant tree")
    if pendant.a != c:
        pendant = _invert(pendant)
    return _merge(tree, pendant, c)


# ---------------------------------------------------------------------------
# rotation: re-anchoring a parallel join at one terminal


def _series_factors(tree):
    if tree.op != "series":
        return [tree]
    return _series_factors(tree.children[0]) + _series_factors(tree.children[1])


def _size(tree):
    return tree.graph.n + tree.graph.m


def _rotate(th, tk):
    # Both trees share ordered terminals (a, b) and overlap exactly
    # there; both are simple. Returns a simple tree of the union whose
    # first terminal is still a (the second generally moves closer to a).
    # The smaller side is unwound: series combs are folded into the
    # other side as inverted factors, parallel nodes shed a complexity-0
    # child, and a bare leaf finally joins in parallel.
    if _size(th) > _size(tk):
        th, tk = tk, th
    if th.op == "leaf":
        return node("parallel", th, tk)
    if th.op == "parallel":
        c0, c1 = th.children
        extra, rest = (c1, c0) if _node_complexity(c1) == 0 else (c0, c1)
        return _rotate(rest, node("parallel", extra, tk))
    factors = _series_factors(th)
    bracket = tk
    for f in reversed(factors[1:]):
        bracket = node("series", bracket, _invert(f))
    return _rotate(factors[0], bracket)


def rotate_parallel(th, tk):
    """Rework H joined in parallel with K into one simple tree anchored
    at the first shared terminal.

    Both inputs must be simple series-parallel trees over the same
    ordered terminal pair whose union is biconnected. The plain parallel
    join of two complexity-1 trees is not simple; the rotation trades
    the second terminal for simplicity.
    """
    for t in (th, tk):
        if any(s.op in ("branch", "branch_alt") for s in t.walk()):
            raise InputError("rotation takes series-parallel trees only")
        if not is_simple(t):
            raise InputError("rotation takes simple trees only")
    if th.terminals != tk.terminals:
        raise InputError("the trees must share their ordered terminals")
    compose("parallel", th.terminal_graph(), tk.terminal_graph())
    if not _two_connected(th.graph.union(tk.graph)):
        raise InputError("the joined graph must be biconnected")
    out = _rotate(th, tk)
    assert is_simple(out) and out.a == th.a
    return out


# ---------------------------------------------------------------------------
# bipath extraction


def extract_bipaths(tree):
    """Terminal-to-terminal bipaths witnessing the tree's complexity.

    Yields at least complexity-many bipaths for the root node, each one
    structurally checked against the node's graph.
    """
    out = _extract(tree)
    for bp in out:
        assert not bipath_problems(tree.graph, bp)
        assert set(bp.endpoints) == set(tree.terminals)
    return out


def _extract(tree):
    if tree.is_leaf:
        return []
    if tree.op == "parallel":
        return _extract(tree.children[0]) + _extract(tree.children[1])
    if tree.op in ("branch", "branch_alt"):
        return _extract(tree.children[0])
    if _bridged_between(tree.graph, tree.a, tree.b):
        return []
    # a non-bridged series node: walk its block chain, taking a pair of
    # internally disjoint routes through every block
    bcf = block_cut_forest(tree.graph)
    blocks, cuts = bcf.block_path(tree.a, tree.b)
    stops = [tree.a] + cuts + [tree.b]
    assert len(stops) >= 3
    path1, path2 = [tree.a], [tree.a]
    for blk, u, v in zip(blocks, stops, stops[1:]):
        assert len(blk) >= 3
        pair = internally_disjoint_paths(tree.graph.induced(blk), u, v, 2)
        assert pair is not None
        path1.extend(pair[0][1:])
        path2.extend(pair[1][1:])
    return [Bipath(tuple(path1), tuple(path2), tuple(stops))]


# ---------------------------------------------------------------------------
# minimal complex nodes and witness extraction


@dataclass(frozen=True)
class McdResult:
    """Either the unique minimal complex node or a conflicting pair."""

    node: object = None
    conflict: tuple = ()


def _minimal_complex_nodes(tree):
    hits = []
    for c in tree.children:
        hits.extend(_minimal_complex_nodes(c))
    if hits:
        return hits
    return [tree] if _node_complexity(tree) >= 2 else []


def minimal_complex_descendant(tree):
    """Deepest subtree of complexity two or more.

    A unique one comes back as .node; two incomparable ones (which will
    turn into a four-bipath witness) come back as .conflict.
    """
    hits = _minimal_complex_nodes(tree)
    if not hits:
        raise InputError("the tree is simple; no complex descendant")
    if len(hits) == 1:
        return McdResult(node=hits[0])
    return McdResult(conflict=(hits[0], hits[1]))


def _witness_pair(g, n0, n1):
    """Forbidden pattern from two incomparable complex nodes in one
    biconnected graph.

    Equal terminal pairs give three bipaths on one endpoint pair; the
    interiors being separated by their terminals makes any third bipath
    compatible. Distinct pairs get joined by two fully disjoint
    connector paths, which exist in a biconnected ambient graph once
    both interiors are cut away.
    """
    bips0 = _extract(n0)
    bips1 = _extract(n1)
    assert len(bips0) >= 2 and len(bips1) >= 2
    t0 = {n0.a, n0.b}
    t1 = {n1.a, n1.b}
    if t0 == t1:
        return _witness_f2([bips0[0], bips0[1], bips1[0]])
    interiors = (set(n0.graph.vertices) - t0) | (set(n1.graph.vertices) - t1)
    pq = two_disjoint_paths(g.without_vertices(interiors), t0, t1)
    assert pq is not None, "connector paths missing between complex cores"
    p, q = pq
    return _pack_f3(
        (p[0], q[0]),
        (p[-1], q[-1]),
        [bips0[0], bips0[1], bips1[0], bips1[1]],
        (p, q),
    )


def _pack_f3(pair1, pair2, bips, conns):
    # bips[0], bips[1] run over pair1; conns[i] joins pair1[i] to pair2[i]
    for pair, members in ((pair1, bips[:2]), (pair2, bips[2:])):
        for bp in members:
            if bp.endpoints != pair and bp.endpoints != tuple(reversed(pair)):
                raise AssertionError("bipath endpoints disagree with the pair")
    return _witness_f3(pair1, pair2, bips, conns)


def _witness_cross_block(g, blk_h, cut_h, m_h, blk_k, cut_k, m_k):
    """Four-bipath witness with its cores in two different pendant blocks.

    Neither cut vertex touches its block's complex core, so each core
    endpoint reaches the cut inside its block while avoiding the
    core's interior and the opposite endpoint (entering the interior
    would force an exit through that endpoint). The two routes share
    the corridor between the cut vertices, which the pattern allows.
    """
    bips_h = _extract(m_h)[:2]
    bips_k = _extract(m_k)[:2]
    s0, t0 = m_h.terminals
    s1, t1 = m_k.terminals
    int_h = set(m_h.graph.vertices) - {s0, t0}
    int_k = set(m_k.graph.vertices) - {s1, t1}
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
    return _pack_f3((s0, t0), (s1, t1), bips_h + bips_k, (p1, p2))


# ---------------------------------------------------------------------------
# re-anchoring a complex block tree (or refuting it)


def _parallel_pieces(tree):
    if tree.op != "parallel":
        return [tree]
    return _parallel_pieces(tree.children[0]) + _parallel_pieces(tree.children[1])


def _rebuild_block(g, tree, target):
    """Turn a complex SP tree of a biconnected graph into a simple one
    with `target` as first terminal, or extract a forbidden pattern.

    target must be a terminal of the tree's unique minimal complex node
    (M, s, t). Decomposing g afresh over (s, t) splits it into parallel
    pieces that lie entirely inside or outside M; a non-bridged outside
    piece hands a third bipath to M's two and refutes the graph, and
    bridged outside pieces fold together with M's children into two
    simple trees that the rotation re-anchors at the target.
    """
    hits = _minimal_complex_nodes(tree)
    if len(hits) >= 2:
        return _witness_pair(g, hits[0], hits[1])
    m = hits[0]
    assert m.op == "parallel" and target in m.terminals
    s, t = m.terminals
    fresh = _sp(g, s, t)
    assert fresh is not None
    m_edges = set(m.graph.edges())
    outside = []
    for piece in _parallel_pieces(fresh):
        piece_edges = set(piece.graph.edges())
        if piece_edges <= m_edges:
            continue
        assert not piece_edges & m_edges, "piece straddles the complex core"
        if _node_complexity(piece) >= 1:
            return _witness_f2(
                [_extract(m.children[0])[0], _extract(m.children[1])[0],
                 _extract(piece)[0]]
            )
        inner = _minimal_complex_nodes(piece)
        if inner:
            return _witness_pair(g, m, inner[0])
        outside.append(piece)
    left = _fold("parallel", outside + [m.children[0]])
    right = m.children[1]
    if target == s:
        out = _rotate(left, right)
    else:
        out = _rotate(_invert(left), _invert(right))
    assert out.a == target and out.graph == g and is_simple(out)
    return out


# ---------------------------------------------------------------------------
# the classifier


def _build(g):
    bcf = block_cut_forest(g)
    if len(bcf.blocks) == 1:
        e = g.edges()[0]
        tree = _sp(g, *e)
        assert tree is not None
        if is_simple(tree):
            return tree
        hits = _minimal_complex_nodes(tree)
        if len(hits) >= 2:
            return _witness_pair(g, hits[0], hits[1])
        return _rebuild_block(g, tree, hits[0].a)
    pendants = sorted(bcf.leaf_blocks(), key=lambda bc: min(bc[0]))[:2]
    built = []
    for blk, cut in pendants:
        assert cut is not None
        sub = g.induced(blk)
        tree = _sp(sub, cut, min(sub.sorted_neighbors(cut)))
        assert tree is not None
        built.append((blk, cut, tree))
    for blk, cut, tree in built:
        if is_simple(tree):
            return _peel(g, blk, cut, tree)
    for blk, cut, tree in built:
        hits = _minimal_complex_nodes(tree)
        if len(hits) >= 2:
            return _witness_pair(g.induced(blk), hits[0], hits[1])
    (blk_h, cut_h, tree_h), (blk_k, cut_k, tree_k) = built
    m_h = _minimal_complex_nodes(tree_h)[0]
    m_k = _minimal_complex_nodes(tree_k)[0]
    for blk, cut, tree, m in (
        (blk_h, cut_h, tree_h, m_h),
        (blk_k, cut_k, tree_k, m_k),
    ):
        if cut in m.graph:
            # the cut is a root terminal of the block tree, and root
            # terminals stay terminals all the way down
            assert cut in m.terminals
            redone = _rebuild_block(g.induced(blk), tree, cut)
            if isinstance(redone, ForbiddenWitness):
                return redone
            return _peel(g, blk, cut, redone)
    return _witness_cross_block(g, blk_h, cut_h, m_h, blk_k, cut_k, m_k)


def _peel(g, blk, cut, tree_blk):
    rest = _build(g.without_vertices(set(blk) - {cut}))
    if isinstance(rest, ForbiddenWitness):
        return rest
    if tree_blk.a != cut:
        tree_blk = _invert(tree_blk)
    return _merge(rest, tree_blk, cut)


def build_simple_gsp(g):
    """A simple decomposition of g, or the forbidden pattern preventing
    one.

    Pendant blocks are decomposed from their cut vertex and grafted on
    when simple; a complex pendant tree either re-anchors at its cut
    (when the cut touches the complex core) or certifies a pattern. At
    most two pendant blocks ever need attention: two complex ones
    already refute the graph.
    """
    if g.n < 2:
        raise InputError("classification needs at least two vertices")
    if not g.is_connected():
        raise InputError("classification needs a connected graph")
    w = has_k4_subdivision(g)
    if w is not None:
        return w
    out = _build(g)
    if isinstance(out, GspTree):
        assert out.graph == g and is_simple(out)
    else:
        assert pattern_check(out) and embedded(out, g)
    return out


@dataclass(frozen=True)
class Classification:
    """YES with a simple tree, or NO with a pattern witness."""

    verdict: str
    tree: object = None
    witness: object = None

    def to_record(self):
        out = {"verdict": self.verdict}
        if self.tree is not None:
            out["tree"] = tree_to_record(self.tree)
        if self.witness is not None:
            out["witness"] = self.witness.to_record()
        return out


def classify_topological_3(g):
    """Decide whether every subdivision of g can be searched with three
    pursuers, with a decomposition or a witness either way."""
    if g.n < 2:
        raise InputError("classification needs at least two vertices")
    out = build_simple_gsp(g)
    if isinstance(out, GspTree):
        return Classification("YES", tree=out)
    return Classification("NO", witness=out)
