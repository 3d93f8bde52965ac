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

A tree stores no graphs: node() checks only terminals, and `recompose`
derives a subtree's graph on demand, checking the overlap rule.
Complexity counts a subtree's terminal-to-terminal bipaths and is set
from the children when a node is built: a leaf is bridged (a bridge
separates its terminals) and counts 0, a series node is bridged when
either child is and counts 0 if so and 1 if not, a parallel node is
never bridged and adds up its children, and a branch node copies the
child that keeps both terminals. "Simple" means every subtree has
complexity at most one.
"""

from dataclasses import dataclass

from .errors import InputError
from .forbidden import (
    Bipath,
    ForbiddenWitness,
    _checked,
    _witness_f2,
    _witness_f3,
    bipath_problems,
    embedded,
    pattern_check,
)
from .graphs import (
    Graph,
    block_cut_forest,
    edge_key,
    internally_disjoint_paths,
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


def _glue(op, first, second):
    """The terminal rule of composition, on terminal pairs alone.

    Returns the terminals of the result and the set of vertices the two
    parts must share, which _union checks wherever graphs are glued.
    """
    if op not in OPS:
        raise InputError(f"unknown composition {op!r} (have {OPS})")
    if op == "parallel":
        if first != second:
            raise InputError(
                "parallel composition needs identical ordered terminals "
                f"(got {first} and {second})"
            )
        return first, set(first)
    glue = first[0] if op == "branch" else first[1]
    if second[0] != glue:
        raise InputError(
            f"{op} composition needs second.a == {glue!r} (got {second[0]!r})"
        )
    return ((first[0], second[1]) if op == "series" else first), {glue}


def compose(op, first, second):
    """Glue two terminal graphs.

    series     joins first.b to second.a; result runs first.a -> second.b.
    parallel   identifies both terminal pairs (same order).
    branch     hangs second on at its own first terminal == first.a.
    branch_alt hangs second on at its own first terminal == first.b.

    The graphs may only share the glued vertices; anything else is an
    InputError naming the violated clause.
    """
    terminals, glued = _glue(op, first.terminals, second.terminals)
    adj = _union(op, glued, _thaw(first.graph), _thaw(second.graph))
    return TerminalGraph(_freeze(adj), *terminals)


def _union(op, glued, first, second):
    # The overlap rule of composition, on adjacency maps (vertex -> set of
    # neighbours) that may share only the glued vertices. The larger map
    # absorbs the smaller, so folding a whole tree costs O(n log n).
    small, big = sorted((first, second), key=len)
    if {v for v in small if v in big} != glued:
        raise InputError(f"{op} composition allows overlap only at {sorted(glued)}")
    for v, ns in small.items():
        big.setdefault(v, set()).update(ns)
    return big


def _thaw(g):
    return {v: set(g.neighbors(v)) for v in g.vertices}


def _freeze(adj):
    return Graph({v: frozenset(ns) for v, ns in adj.items()})


# ---------------------------------------------------------------------------
# decomposition trees


class GspTree:
    """One node of a decomposition: an operator or a single-edge leaf.

    A node stores its operator, terminals and children. `bridged`,
    `complexity` and `simple` follow from the children's in O(1) when
    the node is built; `graph`, the recomposition of the subtree, is
    derived on first access.
    """

    __slots__ = ("op", "a", "b", "children", "bridged", "complexity", "simple",
                 "_graph")

    def __init__(self, op, a, b, children=()):
        if a == b:
            raise InputError("terminals must be distinct")
        self.op, self.a, self.b, self.children = op, a, b, tuple(children)
        self._graph = None
        if op == "leaf":
            self.bridged, self.complexity, self.simple = True, 0, True
            return
        c0, c1 = children
        if op == "series":
            self.bridged = c0.bridged or c1.bridged
            self.complexity = 0 if self.bridged else 1
        elif op == "parallel":
            self.bridged, self.complexity = False, c0.complexity + c1.complexity
        else:
            self.bridged, self.complexity = c0.bridged, c0.complexity
        self.simple = self.complexity <= 1 and c0.simple and c1.simple

    @property
    def terminals(self):
        return (self.a, self.b)

    @property
    def is_leaf(self):
        return self.op == "leaf"

    @property
    def graph(self):
        """The recomposed graph of the subtree, derived on first access."""
        return recompose(self) if self._graph is None else self._graph

    def terminal_graph(self):
        return TerminalGraph(self.graph, self.a, self.b)

    def walk(self):
        stack = [self]
        while stack:
            t = stack.pop()
            yield t
            stack.extend(reversed(t.children))


def leaf(u, v):
    return GspTree("leaf", u, v)


def node(op, child0, child1):
    terminals, _ = _glue(op, child0.terminals, child1.terminals)
    return GspTree(op, *terminals, (child0, child1))


def _bottom_up(root, kids, combine):
    # Post-order evaluation without recursion, for trees that nest as
    # deep as a graph is long: combine(t, values) gets the values of
    # kids(t), in order. Reversed, this preorder finishes each child's
    # subtree before the next child's, so the values form a stack.
    order, stack = [], [root]
    while stack:
        order.append(stack.pop())
        stack.extend(kids(order[-1]))
    values = []
    for t in reversed(order):
        cut = len(values) - len(kids(t))
        values[cut:] = [combine(t, values[cut:])]
    return values[0]


def recompose(tree):
    """Fold the tree bottom-up into its graph, which it returns and keeps.

    This is where the overlap rule is checked: children that share more
    than their glued vertices raise InputError.
    """

    def combine(t, parts):
        if t.is_leaf:
            return {t.a: {t.b}, t.b: {t.a}}
        _, glued = _glue(t.op, *(c.terminals for c in t.children))
        return _union(t.op, glued, *parts)

    tree._graph = _freeze(_bottom_up(tree, lambda t: t.children, combine))
    return tree._graph


def tree_to_record(tree):
    def combine(t, kids):
        rec = {"op": t.op, "terminals": list(t.terminals)}
        if kids:
            rec["children"] = kids
        return rec

    return _bottom_up(tree, lambda t: t.children, combine)


def tree_from_record(record):
    """Rebuild a tree from its record: terminals are checked at every
    node, and the overlap rule by deriving the graph once."""

    def parts(rec):
        try:
            op, (a, b) = rec["op"], rec["terminals"]
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed tree record: {exc}") from None
        kids = () if op == "leaf" else rec.get("children")
        if op != "leaf" and (not isinstance(kids, list) or len(kids) != 2):
            raise InputError("an operator node needs exactly two children")
        return op, (a, b), kids

    def combine(rec, kids):
        op, terminals, _ = parts(rec)
        out = leaf(*terminals) if op == "leaf" else node(op, *kids)
        if out.terminals != terminals:
            raise InputError(
                f"recorded terminals {terminals} disagree with recomposition "
                f"{out.terminals}"
            )
        return out

    out = _bottom_up(record, lambda rec: parts(rec)[2], combine)
    recompose(out)
    return out


# ---------------------------------------------------------------------------
# complexity


def is_simple(tree):
    return tree.simple


@dataclass(frozen=True)
class ComplexityReport:
    """Root complexity plus one (path, op, value, bridged) row per node."""

    value: int
    simple: bool
    nodes: tuple


def complexity(tree):
    rows = []
    stack = [((), tree)]
    while stack:
        path, t = stack.pop()
        rows.append((path, t.op, t.complexity, t.bridged))
        stack.extend((path + (i,), c) for i, c in enumerate(t.children))
    rows.sort(key=lambda r: r[0])
    return ComplexityReport(tree.complexity, tree.simple, tuple(rows))


def _invert(tree):
    # Total inversion, used internally on trees of any complexity. The
    # branch tags swap because the hanging child keeps its orientation
    # while the spine's terminals reverse.
    def kids(t):
        return t.children if t.op in ("series", "parallel") else t.children[:1]

    def combine(t, inv):
        if t.is_leaf:
            return leaf(t.b, t.a)
        if t.op == "series":
            return node("series", inv[1], inv[0])
        if t.op == "parallel":
            return node("parallel", *inv)
        swapped = "branch_alt" if t.op == "branch" else "branch"
        return node(swapped, inv[0], t.children[1])

    return _bottom_up(tree, kids, combine)


def invert(tree):
    """The same decomposition read from the other terminal."""
    if not tree.simple:
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

    def rebuild(t, kids):
        if not t.is_leaf:
            return node(t.op, *kids)
        e = edge_key(t.a, t.b)
        c = norm.get(e, 0)
        if not c:
            return t
        inner = [subdivision_label(e, i) for i in range(1, c + 1)]
        if t.a != e[0]:
            inner.reverse()
        seq = [t.a] + inner + [t.b]
        return _fold("series", [leaf(u, v) for u, v in zip(seq, seq[1:])])

    return _bottom_up(tree, lambda t: t.children, rebuild)


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
    return _checked(w)


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
    """GSP tree for a connected K_4-free (g, a, b); None on obstruction.

    Pendant blocks whose interior holds neither terminal are peeled off,
    each decomposed from its cut vertex, until the a-b block path runs
    through every block; they are grafted back onto that chain in
    reverse order.
    """
    peeled = []
    while True:
        bcf = block_cut_forest(g)
        if len(bcf.block_path(a, b)[0]) == len(bcf.blocks):
            break
        for blk, cut in sorted(bcf.leaf_blocks(), key=lambda bc: min(bc[0])):
            if cut is not None and not {a, b} & (set(blk) - {cut}):
                break
        else:
            return None
        sub = g.induced(blk)
        peeled.append((cut, _sp(sub, cut, min(sub.sorted_neighbors(cut)))))
        g = g.without_vertices(set(blk) - {cut})
    out = _sp_chain(g, a, b)
    for cut, tree in reversed(peeled):
        if out is None or tree is None:
            return None
        out = _merge(out, tree, cut)
    return out


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
    # pendant.a == c; descend to a node with c as a terminal, each time
    # into the first child with a leaf at c, and hang the pendant there.
    # Every rebuilt ancestor keeps its operator, so no complexity changes
    # along the way.
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


def _flatten(tree, op):
    # the maximal subtrees below a run of op nodes, left to right
    out = []
    stack = [tree]
    while stack:
        t = stack.pop()
        if t.op == op:
            stack.extend(reversed(t.children))
        else:
            out.append(t)
    return out


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
        extra, rest = (c1, c0) if c1.complexity == 0 else (c0, c1)
        return _rotate(rest, node("parallel", extra, tk))
    factors = _flatten(th, "series")
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
        if not t.simple:
            raise InputError("rotation takes simple trees only")
    if th.terminals != tk.terminals:
        raise InputError("the trees must share their ordered terminals")
    joined = compose("parallel", th.terminal_graph(), tk.terminal_graph())
    if not _two_connected(joined.graph):
        raise InputError("the joined graph must be biconnected")
    out = _rotate(th, tk)
    assert out.simple and out.a == th.a
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
    if tree.is_leaf or tree.bridged:
        return []
    if tree.op == "parallel":
        return _extract(tree.children[0]) + _extract(tree.children[1])
    if tree.op in ("branch", "branch_alt"):
        return _extract(tree.children[0])
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


def _minimal_complex_nodes(tree):
    # subtrees of complexity two or more with none below them, left to
    # right: the non-simple nodes whose children are all simple
    return [
        t for t in tree.walk()
        if not t.simple and all(c.simple for c in t.children)
    ]


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
    for piece in _flatten(fresh, "parallel"):
        piece_edges = set(piece.graph.edges())
        if piece_edges <= m_edges:
            continue
        assert not piece_edges & m_edges, "piece straddles the complex core"
        if piece.complexity >= 1:
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
    assert out.a == target and out.simple
    return out


# ---------------------------------------------------------------------------
# the classifier


def _pendant(g, bcf):
    """A pendant block of g to peel, as (block, cut, simple tree of the
    block with the cut as first terminal), or the pattern refuting g."""
    pendants = sorted(bcf.leaf_blocks(), key=lambda bc: min(bc[0]))[:2]
    built = []
    for blk, cut in pendants:
        assert cut is not None
        sub = g.induced(blk)
        tree = _sp(sub, cut, min(sub.sorted_neighbors(cut)))
        assert tree is not None
        built.append((blk, cut, tree))
    for blk, cut, tree in built:
        if tree.simple:
            return blk, cut, tree
    cores = [_minimal_complex_nodes(tree) for _, _, tree in built]
    for (blk, _, _), hits in zip(built, cores):
        if len(hits) >= 2:
            return _witness_pair(g.induced(blk), hits[0], hits[1])
    for (blk, cut, tree), (m,) in zip(built, cores):
        # the cut is a root terminal of the block tree, and root
        # terminals stay terminals all the way down, so the cut touches
        # the complex core exactly when it is one of the core's terminals
        if cut in m.terminals:
            redone = _rebuild_block(g.induced(blk), tree, cut)
            if isinstance(redone, ForbiddenWitness):
                return redone
            return blk, cut, redone
    (blk_h, cut_h, _), (blk_k, cut_k, _) = built
    return _witness_cross_block(
        g, blk_h, cut_h, cores[0][0], blk_k, cut_k, cores[1][0]
    )


def _build(g):
    # Peel pendant blocks off until one block is left, then graft them
    # back on in reverse order, each at its cut vertex.
    peeled = []
    bcf = block_cut_forest(g)
    while len(bcf.blocks) > 1:
        got = _pendant(g, bcf)
        if isinstance(got, ForbiddenWitness):
            return got
        blk, cut, tree = got
        peeled.append((cut, tree))
        g = g.without_vertices(set(blk) - {cut})
        bcf = block_cut_forest(g)
    out = _sp(g, *g.edges()[0])
    assert out is not None
    if not out.simple:
        out = _rebuild_block(g, out, _minimal_complex_nodes(out)[0].a)
        if isinstance(out, ForbiddenWitness):
            return out
    for cut, tree in reversed(peeled):
        out = _merge(out, tree, cut)
    return out


def build_simple_gsp(g):
    """A simple decomposition of g, or the forbidden pattern preventing
    one.

    Pendant blocks are decomposed from their cut vertex and grafted on
    when simple; a complex pendant tree either re-anchors at its cut
    (when the cut touches the complex core) or certifies a pattern. At
    most two pendant blocks ever need attention: two complex ones
    already refute the graph. The answer is checked here, once, and a
    wrong one raises AssertionError, an internal error, also under
    `python -O`.
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
        try:
            ok = recompose(out) == g and out.simple
        except InputError:
            ok = False
        if not ok:
            raise AssertionError("the decomposition is not a simple tree of the graph")
    elif not (pattern_check(out) and embedded(out, g)):
        raise AssertionError(f"the witness is not an {out.family} pattern of the graph")
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
