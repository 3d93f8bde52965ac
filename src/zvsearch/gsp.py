"""Generalized series-parallel decompositions and the width-3 classifier.

A terminal graph is a graph with an ordered pair of distinct terminals.
Four composition operators build larger terminal graphs from smaller
ones (series, parallel, and two one-point "branch" attachments), and a
GspTree records how a graph was assembled. The classifier decides
whether a connected graph admits a *simple* tree, one where no subtree
mixes two essentially different terminal-to-terminal routings; graphs
that do can be searched with three pursuers after subdivision, and
graphs that cannot embed one of the forbidden patterns in
`zvsearch.forbidden`, which the classifier extracts as a witness. The
code that finds a witness packs it; the public call that returns it
checks it, once. A YES answer keeps its peel, which synthesis re-roots
from without peeling again. An F1 witness is minimised inside a
breadth-first region of its block, the first of 4, 8, 16, ...
vertices that still holds a K_4 subdivision, the bipaths of F2 and F3
witnesses are routes read off the tree's leaves, and the two connectors
of an F3 witness are BFS paths around both complex cores, with no
max-flow.

A tree stores no graphs: node() checks only terminals and sums vertex
and edge counts, an inner node's edges are read off its leaves, and
`recompose` derives the graph of a root that is checked (so a NO answer
derives none), enforcing the overlap rule on the children's vertex sets
and building the graph once from the leaf edges. Complexity counts a
subtree's terminal-to-terminal bipaths and is set from the children
when a node is built: a leaf is bridged (a bridge separates its
terminals) and counts 0, a series node is bridged when either child is
and counts 0 if so and 1 if not, a parallel node is never bridged and
adds up its children, and a branch node copies the child that keeps
both terminals. "Simple" means every subtree has complexity at most
one. The flags locate bridges too: the separating bridges of a bridged
subtree are its leaf factors, the leaves reached through series nodes
and branch spines, in order from a to b, so synthesis reads the bridge
it splits at off the tree.

One series-parallel reduction does two jobs: it decides K_4-freeness,
and replayed, its steps build the block's unrooted S/P tree, which
roots every SP tree of the block: from an edge, a P-node's poles or two
stops of one series run, exactly the pairs that are adjacent or
separate the block. The classifier reduces each block of three or more
vertices once, its least edge kept, replays that reduction once, and
roots the result wherever a tree of the block is asked for: a pendant
from its cut, the last block from its least edge, a re-anchoring's new
root (and its split, only to refute) and each rooting synth weighs.
Whether a rooting is simple is read off the S/P tree, so only the trees
the classifier keeps or takes cores from are rendered. The
classifier's trees are series spines: it peels pendant blocks off one
block-cut forest, runs each block in series into its largest limb,
counted in vertices, and hangs the other limbs on with branch nodes in
one pass over the block's tree (a heavy-path layout). Every series run
is folded into a balanced tree. How deep limbs hang inside limbs sets
the size of a synthesized host, each level multiplying the subdivision
its ball sweep demands; on a tree a limb hangs inside at most log2(n)
others, and a path is one series run. `gsp_decompose` builds its limbs
the same way, from the same block reductions, and hangs them all with
branch nodes on its terminals' block, rooted at the terminals in that
block's S/P tree; `sp_decompose` roots its one block's S/P tree there.
"""

import heapq
from collections import deque
from dataclasses import dataclass, field
from itertools import pairwise

from .errors import InputError
from .forbidden import (
    Bipath,
    ForbiddenWitness,
    _checked,
    _witness_f2,
    _witness_f3,
    embedded,
)
from .graphs import (
    Graph,
    block_cut_forest,
    edge_key,
    subdivision_label,
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
    parts must share, which compose and recompose check.
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
    _overlap(op, glued, set(first.graph.vertices), set(second.graph.vertices))
    return TerminalGraph(first.graph.union(second.graph), *terminals)


def _overlap(op, glued, first, second):
    # The overlap rule of composition, on the parts' vertex sets, which
    # may share only the glued vertices: their union, the larger set
    # absorbing the smaller.
    small, big = (second, first) if len(second) < len(first) else (first, second)
    if small & big != glued:
        raise InputError(f"{op} composition allows overlap only at {sorted(glued)}")
    big |= small
    return big


# ---------------------------------------------------------------------------
# decomposition trees


class GspTree:
    """One node of a decomposition: an operator or a single-edge leaf.

    A node stores its operator, terminals and children. `bridged`,
    `complexity`, `simple` and the subtree's vertex and edge counts `n`
    and `m` follow from the children's in O(1) when the node is built;
    the counts are exact when the overlap rule holds, which `recompose`
    checks at every root the package trusts. `graph`, the recomposition
    of the subtree, is derived on first access.
    """

    __slots__ = ("op", "a", "b", "children", "bridged", "complexity", "simple",
                 "n", "m", "_graph")

    def __init__(self, op, a, b, children=()):
        if a == b:
            raise InputError("terminals must be distinct")
        self.op, self.a, self.b, self.children = op, a, b, tuple(children)
        self._graph = None
        if op == "leaf":
            self.bridged, self.complexity, self.simple = True, 0, True
            self.n, self.m = 2, 1
            return
        c0, c1 = children
        self.n = c0.n + c1.n - (2 if op == "parallel" else 1)
        self.m = c0.m + c1.m
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


def _leaf_edges(tree):
    # the edge keys of tree's graph, without it; their union is its vertex set
    return {edge_key(t.a, t.b) for t in tree.walk() if t.op == "leaf"}


def _bottom_up(root, kids, combine):
    # Post-order evaluation without recursion, for trees that nest as
    # deep as a graph is long: combine(t, values) gets the values of
    # kids(t), in order. Reversed, this preorder finishes each child's
    # subtree before the next child's, so the values form a stack.
    order, stack = [], [root]
    while stack:
        t = stack.pop()
        ts = kids(t)
        order.append((t, len(ts)))
        stack.extend(ts)
    values = []
    for t, k in reversed(order):
        cut = len(values) - k
        values[cut:] = [combine(t, values[cut:])]
    return values[0]


def recompose(tree):
    """Fold the tree bottom-up into its graph, which it returns and keeps.

    This is where the overlap rule is checked: children whose vertex
    sets share more than their glued vertices raise InputError. The fold
    carries each subtree's vertex set, the larger absorbing the smaller,
    and collects the leaf edges; the graph is built from them once, and
    leaves that name one edge twice raise InputError too.
    """
    order, stack = [], [tree]
    while stack:
        t = stack.pop()
        order.append(t)
        stack.extend(t.children)
    edges, parts = [], []
    for t in reversed(order):  # left to right, children before parents
        if t.op == "leaf":
            edges.append((t.a, t.b))
            parts.append({t.a, t.b})
            continue
        c0, c1 = t.children
        _, glued = _glue(t.op, (c0.a, c0.b), (c1.a, c1.b))
        second, first = parts.pop(), parts.pop()
        parts.append(_overlap(t.op, glued, first, second))
    g = Graph.from_edges(edges)
    if sum(map(g.degree, g.vertices)) != 2 * len(edges):  # g.m would sort
        raise InputError("the tree's leaves name an edge twice")
    tree._graph = g
    return g


def tree_to_record(tree):
    """The tree as {"nodes": rows}, one row per node in post-order.

    A leaf row is [op, a, b]; an operator row is [op, a, b, i, j], where
    i and j are the row ids of its first and second child. Children
    precede their parent, so the root is the last row, and the record
    nests to the same depth whatever the tree's.
    """
    rows = []

    def combine(t, kids):
        rows.append([t.op, t.a, t.b, *kids])
        return len(rows) - 1

    _bottom_up(tree, lambda t: t.children, combine)
    return {"nodes": rows}


def tree_from_record(record):
    """Rebuild a tree from its record in one forward pass.

    The record is untrusted. A row needs a known op and string terminals,
    and an operator row needs two earlier rows that no other row names;
    every row but the last must be some row's child, and an operator
    row's terminals must be those its children compose to. The overlap
    rule is checked by deriving the graph once.
    """
    try:
        rows = record["nodes"]
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed tree record: {exc}") from None
    if not isinstance(rows, list) or not rows:
        raise InputError("a tree record needs a non-empty list of nodes")
    built, used = [], [False] * len(rows)
    for r, row in enumerate(rows):
        if not isinstance(row, list) or len(row) not in (3, 5):
            raise InputError(f"node {r}: a row is [op, a, b] or [op, a, b, i, j]")
        op, a, b = row[:3]
        if op != "leaf" and op not in OPS:
            raise InputError(f"node {r}: unknown op {op!r}")
        if (op == "leaf") != (len(row) == 3):
            raise InputError(f"node {r}: a leaf has no children, an operator two")
        if type(a) is not str or type(b) is not str:
            raise InputError(f"node {r}: terminals must be strings")
        if op == "leaf":
            out = leaf(a, b)
        else:
            for i in row[3:]:
                if type(i) is not int or not 0 <= i < r:
                    raise InputError(f"node {r}: child {i!r} is not an earlier row")
                if used[i]:
                    raise InputError(f"node {r}: row {i} is already a child")
                used[i] = True
            out = node(op, built[row[3]], built[row[4]])
            if out.terminals != (a, b):
                raise InputError(
                    f"node {r}: recorded terminals {[a, b]} disagree with "
                    f"recomposition {list(out.terminals)}"
                )
        built.append(out)
    if not all(used[:-1]):
        raise InputError(f"node {used.index(False)}: no row has it as a child")
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
        return _series([leaf(u, v) for u, v in zip(seq, seq[1:])])

    return _bottom_up(tree, lambda t: t.children, rebuild)


# ---------------------------------------------------------------------------
# K_4 subdivisions


def _reduce(adj, keep=()):
    """The series-parallel reduction of adj, never taking a vertex of keep.

    adj maps each vertex to its neighbours: a Graph, read in sorted
    order, or a dict of sets. Vertices of degree at most one are deleted
    and those of degree two spliced out, neighbours kept as sets so that
    parallel edges merge as they form. A worklist holds the vertices of
    degree at most two; a step changes only its neighbours' degrees, so
    only they are queued again. Stops at two vertices or when no step is
    left, and returns what is left, as neighbour sets, and the steps in
    order, as (vertex, its neighbours when it went).
    """
    nbrs = {v: set(adj[v]) for v in adj}
    work = [v for v in nbrs if len(nbrs[v]) <= 2 and v not in keep]
    steps = []
    while work and len(nbrs) > 2:
        v = work.pop()
        if v not in nbrs or len(nbrs[v]) > 2:
            continue
        ns = nbrs.pop(v)
        steps.append((v, ns))
        for u in ns:
            nbrs[u].discard(v)
            if len(ns) == 2:
                nbrs[u] |= ns - {u}
            if len(nbrs[u]) <= 2 and u not in keep:
                work.append(u)
    return nbrs, steps


def _sp_reducible(adj):
    """True when adj, a Graph or a dict of neighbour sets, has no K_4
    minor; for the cubic K_4 that is the same as no K_4 subdivision. Any
    graph reduces to nothing, in any order of steps, exactly when it has
    no K_4 minor (Duffin 1965)."""
    return len(_reduce(adj)[0]) <= 2


def _is_k4_subdivision(adj):
    """True when the edges of adj, a Graph or a dict of neighbour sets,
    form one K_4 subdivision: its non-isolated part is connected, four
    vertices have degree 3 and the others degree 2."""
    count = [0] * 4  # vertices of degree 0, 1, 2 and 3
    for v in adj:
        d = len(adj[v])
        if d > 3:
            return False
        count[d] += 1
    if count[1] or count[3] != 4:
        return False
    start = next(v for v in adj if adj[v])
    seen, stack = {start}, [start]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == count[2] + 4


def _k4_region(block, m):
    """The part of block, a Graph that does not reduce, that _extract_k4
    minimises: the first prefix of 4, 8, 16, ... vertices of the block's
    breadth-first order from m, neighbours in sorted order, whose induced
    graph does not reduce either; on a block of more than 8 vertices
    where none does, the same from the least vertex that a reduction of
    the block leaves, which lies in a graph of minimum degree 3. The
    block itself when it is a K_4 subdivision already, which _extract_k4
    keeps whole without a reduction, or when no prefix holds one. A
    prefix is connected, and every graph of minimum degree 3 holds a K_4
    subdivision (Dirac 1952), so where most degrees are 3 or more the
    region stays small and near its start, however large the block; the
    prefixes tried from one start hold fewer vertices than the block."""
    if _is_k4_subdivision(block):
        return block
    region = _bfs_region(block, m)
    if region is None and block.n > 8:
        region = _bfs_region(block, min(_reduce(block)[0]))
    return block if region is None else region


def _bfs_region(block, m):
    # the first prefix of 4, 8, 16, ... vertices of block's BFS order
    # from m, shorter than block, that does not reduce; None if none does
    order, seen, size, i = [m], {m}, 4, 0
    while size < block.n:
        while len(order) < size:
            for w in block.sorted_neighbors(order[i]):
                if w not in seen:
                    seen.add(w)
                    order.append(w)
            i += 1
        region = block.induced(order[:size])
        if not _sp_reducible(region):
            return region
        size *= 2
    return None


def _extract_k4(g):
    # Shrink g, a graph that holds a K_4 subdivision (the classifier's
    # _k4_region of a block), to an edge-minimal subgraph that still
    # embeds the pattern; what remains is the subdivision itself, so the
    # roles fall out of the degree sequence. The result is that of one
    # pass over the edges in sorted order, dropping each edge whose
    # removal keeps a K_4 subdivision; containing one is monotone, so a
    # restart after a removal would only keep the same edges again. The
    # pass tests runs of consecutive edges at once. If h minus a whole
    # run still holds a subdivision, so does h minus each prefix of the
    # run, and the pass would drop every edge of it: drop the run and
    # double the next one. Otherwise halve the run; a single edge that
    # loses the pattern is kept. That takes O(k log m) reductions for k
    # kept edges.
    # The pass stops as soon as h is a subdivision: connected, four
    # vertices of degree 3, the rest of degree 2. h always holds one, S;
    # an edge of h outside S would meet S, h being connected, at a
    # vertex of higher degree in h than in S, a fifth of degree 3 or one
    # of degree 4. So h is S, no edge of which can go, and the pass
    # would keep every edge left. A vertex the drops leave without
    # neighbours leaves h, so each reduction copies only the live part.
    # The public call that returns the witness checks it: its F1 pattern
    # holds exactly when h is a subdivision with six chains.
    h = {v: set(g.neighbors(v)) for v in g.vertices}
    edges = g.edges()
    i, size = 0, 1
    done = _is_k4_subdivision(h)
    while not done and i < len(edges):
        run = edges[i:i + size]
        for u, v in run:
            for x, y in ((u, v), (v, u)):
                h[x].discard(y)
                if not h[x]:
                    del h[x]
        if not _sp_reducible(h):
            i += len(run)
            size *= 2
            done = _is_k4_subdivision(h)
        else:
            for u, v in run:
                h.setdefault(u, set()).add(v)
                h.setdefault(v, set()).add(u)
            if size == 1:
                i += 1
            else:
                size //= 2
    h = Graph({v: frozenset(ns) for v, ns in h.items() if ns})
    branch = sorted(v for v in h.vertices if h.degree(v) == 3)
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
    return ForbiddenWitness(
        "F1",
        h,
        {"branch_vertices": branch, "paths": [list(p) for p in paths]},
    )


def has_k4_subdivision(g):
    """A witness embedding of a K_4 subdivision, or None. The witness is
    checked here, once, and one that fails its pattern raises
    AssertionError, also under `python -O`."""
    out = _reduce_blocks(g, block_cut_forest(g))
    return _checked(out) if isinstance(out, ForbiddenWitness) else None


def _block_graph(g, blk):
    # the graph of one block of g: g itself when g is that block
    return g if len(blk) == g.n else g.induced(blk)


def _reduce_blocks(g, bcf):
    """Each block of 3+ vertices of g, by least vertex (ties in forest
    order), reduced once with its least edge kept: {block index: (its
    graph, its reduction)}, or the F1 witness of the first block whose
    reduction stops short, minimised inside the block's _k4_region. A
    biconnected block with adjacent kept terminals reduces to their edge
    exactly when it holds no K_4 subdivision (Duffin 1965); each kept
    reduction later builds its block's S/P tree. A triangle's neighbour
    sets are read off the block, and g stands for its graph, which only
    tells the S/P tree which pairs are edges."""
    kept = {}
    for m, i in sorted((min(b), i) for i, b in enumerate(bcf.blocks) if len(b) >= 3):
        blk = bcf.blocks[i]
        if len(blk) == 3:
            sub, adj = g, {v: blk - {v} for v in blk}
        else:
            sub = adj = _block_graph(g, blk)
        kept[i] = sub, _reduce(adj, (m, min(adj[m])))
        if len(kept[i][1][0]) > 2:
            return _extract_k4(_k4_region(sub, m))
    return kept


# ---------------------------------------------------------------------------
# series-parallel decomposition engines


def _fold(op, parts):
    out = parts[0]
    for p in parts[1:]:
        out = node(op, out, p)
    return out


def _series(parts):
    """A balanced series tree of a run, in order: joining neighbours
    pairwise, round after round, keeps it ceil(log2 len) deep, and with
    it every walk that recurses over the tree."""
    while len(parts) > 1:
        pairs = [node("series", *parts[i:i + 2]) for i in range(0, len(parts) - 1, 2)]
        parts = pairs + parts[len(pairs) * 2:]
    return parts[0]


def _join(run, other, v):
    # two series runs, deques of stops meeting at v, as one: the shorter
    # joins the longer at v, so no stop is copied more than log2(n) times
    if len(run) < len(other):
        run, other = other, run
    tail = iter(other if other[0] == v else reversed(other))
    next(tail)
    if run[-1] == v:
        run.extend(tail)
    else:
        run.extendleft(tail)
    return run


def _sp_tree(g, a, b, reduction):
    """The unrooted S/P tree of a K_4-free block (see _SPTree) from its
    series-parallel reduction keeping the edge ab, as _reduce_blocks
    keeps it: one that reduces the block to that edge, each step
    splicing out a vertex of degree two. g only tells which pairs are
    edges, so it may be any graph that holds this one as a block.

    Replayed in order, the steps group the routes between two vertices
    by the edge they reduced to: a direct edge of g and series runs,
    each run a deque of stops. Splicing out v joins the routes of its
    two edges into a new run; an edge whose routes are one run continues
    it, a direct edge alone is a leaf segment, and any other group is
    closed: a parallel segment between two stops.
    """
    runs, closed = {}, {}  # edge key -> the runs reduced to that edge

    def take(x, v):
        key = edge_key(x, v)
        got = runs.pop(key, [])
        if len(got) == 1 and not g.has_edge(x, v):
            return got[0]
        if got:
            closed[key] = got
        return deque((x, v))

    for v, ns in reduction[1]:
        x, y = ns
        runs.setdefault(edge_key(x, y), []).append(_join(take(x, v), take(v, y), v))
    return _SPTree(g, a, b, runs.pop(edge_key(a, b), []), closed)


class _SPTree:
    """The unrooted S/P tree of a block, built once from one replayed
    reduction (see _sp_tree) and rooted wherever a tree is asked for:
    the SPQR tree of a K_4-free block, which has no R-nodes (Di Battista
    and Tamassia 1996).

    Its S-nodes are the runs, each a cycle closed by the P-node it is a
    member of, whose segments are real edges or P-nodes. Its P-nodes
    are the closed groups and the kept pair (a, b), each two poles with
    its member runs, plus the real edge between them if there is one;
    a kept pair holding its own edge and a single run is no P-node, but
    that run's cycle. Every vertex but the kept pair is an inner stop of
    exactly one run, the one made when it was spliced out. rooted(u, v)
    renders the tree that a reduction of the block keeping u and v,
    replayed, would root at (u, v), for every pair an SP tree of the
    block can have, and simple_from(u, v) reads whether it is simple
    without rendering it, for the pairs its callers root at. The kept
    pair, adjacent as _reduce_blocks keeps it, renders straight from the
    replay; any other root walks out over an index made on first use.
    """

    def __init__(self, graph, a, b, top, closed):
        self.graph, self.key, self.top, self.closed = graph, edge_key(a, b), top, closed
        if len(top) > 1:
            closed[self.key] = top  # last in, so reversed(closed) is top-down
        self.runs = self.at = self.good = None

    def _index(self):
        # The runs, numbered top-down (the order of their groups,
        # reversed, as children close before their parents); where each
        # P-node other than the kept pair and each edge of a run sits, as
        # the arc (run, i, i + 1) of the stops it spans; each run's count
        # of real-edge segments; and each P-node's member runs.
        if self.runs is not None:
            return
        groups = list(reversed(self.closed.items()))
        if self.key not in self.closed:
            groups.insert(0, (self.key, self.top))
        self.runs, self.at, self.real, self.members = [], {}, [], {}
        for key, group in groups:
            self.members[key] = []
            for run in group:
                j = len(self.runs)
                self.members[key].append(j)
                self.runs.append(run)
                count = 0
                for i, (s, t) in enumerate(pairwise(run)):
                    k = edge_key(s, t)
                    self.at[k] = (j, i, i + 1)
                    count += k not in self.closed
                self.real.append(count)

    def edges(self):
        """The block's edges, in sorted order."""
        self._index()
        keys = {*self.at, *self.closed, self.key}
        return sorted(k for k in keys if self.graph.has_edge(*k))

    def rooted(self, u, v):
        """The SP tree from (u, v), with maximal series and parallel
        nodes: the kept pair, an edge of the block, a P-node's poles or
        an S-node split, two stops of one run that are not consecutive
        on its cycle; None for any other pair. In a K_4-free block those
        are exactly the pairs that are adjacent or separate the block. A
        split is the parallel of the run's two arcs between its stops.
        The parallel node at a pair puts its direct edge first, then its
        runs by least interior vertex, folded left; each run is a
        balanced series. The render is one bottom-up walk without
        recursion over items of one shape, a P-node or a run each, so a
        pair with thousands of runs renders as deep a tree as it must."""
        closed, has_edge = self.closed, self.graph.has_edge
        key = edge_key(u, v)
        if key == self.key:
            root = ("parallel", u, v, self.top, None, None)
        else:
            self._index()
            where = self.at.get(key) or next((
                (j, *sorted(map(run.index, (u, v))))
                for j, run in enumerate(self.runs) if u in run and v in run
            ), None)
            if where is None:
                return None
            j, p, q = where
            members = closed.get(key, ()) if q == p + 1 else [list(self.runs[j])[p:q + 1]]
            root = ("parallel", u, v, members, None, where)
        # An item (op, x, y, parts, skip, where) is a node as the replay
        # built it: a P-node's member runs, or one run's stops. Walking
        # out from another root, a parallel item leaves out skip, its
        # member run toward the root, and where is the arc (run, p, q) of
        # stops p to q it spans when that run lies away from the root.
        # The rest of that run's cycle is then a series item around it,
        # whose skip and where are the key and the run of the P-node
        # closing the cycle; both are None elsewhere.

        def around(where, x, y):
            # the cycle of run j less its arc from stop p to stop q,
            # from x to y
            j, p, q = where
            run = list(self.runs[j])
            if run[p] == x:
                stops = run[p::-1] + run[:q - 1:-1]
            else:
                stops = run[q:] + run[:p + 1]
            return ("series", x, y, stops, edge_key(run[0], run[-1]), self.runs[j])

        def segments(x, run):
            return pairwise(run if run[0] == x else reversed(run))

        def kids(item):
            op, x, y, parts, skip, where = item
            if op == "parallel":
                out = [("series", x, y, run, None, None) for run in parts if run is not skip]
                if where is not None:
                    out.append(around(where, x, y))
                return out
            return [
                ("parallel", s, t, closed[k], where, self.at.get(k)) if k == skip
                else ("parallel", s, t, closed[k], None, None)
                for s, t in segments(x, parts) if (k := edge_key(s, t)) in closed
            ]

        def combine(item, values):
            # values: (tree, least interior vertex) of each kid
            op, x, y, parts = item[:4]
            if op == "parallel":
                values.sort(key=lambda tv: tv[1])
                trees = [leaf(x, y)] if has_edge(x, y) else []
                trees += [t for t, _ in values]
                return _fold("parallel", trees), values[0][1] if values else None
            inner = iter(values)
            trees, lows = [], [low for _, low in values]
            for s, t in segments(x, parts):
                trees.append(next(inner)[0] if edge_key(s, t) in closed else leaf(s, t))
                lows.append(t)
            lows.pop()
            return _series(trees), min(lows)

        return _bottom_up(root, kids, combine)[0]

    def simple_from(self, u, v):
        """Whether rooted(u, v) is simple, without rendering it, for an
        edge of the block, the kept pair or a P-node's poles, the only
        roots its callers ask about; False for any other pair, S-node
        splits included.

        A run is bridged exactly when it has a real-edge segment, a
        parallel node counts its children's complexity and a series node
        counts at most 1, so the tree is simple exactly when every P-node
        has at most one non-bridged member run, not counting the one
        toward the root. A P-node with nb >= 3 non-bridged neighbours in
        the tree is complex from every root; one with nb = 2 is simple
        from a root that lies beyond one of those two and from no other.
        One top-down pass counts, for every node, the P-nodes that a root
        there leaves complex."""
        self._index()
        if self.good is None:
            self._rate()
        key = edge_key(u, v)
        if key in self.closed:
            return self.good[key]
        if key in self.at:
            return self.good[self.at[key][0]]
        return key == self.key and self.good[0]

    def _rate(self):
        # good[j] for run j and good[key] for a P-node: whether a root
        # there leaves every P-node simple
        real, at, members = list(self.real), self.at, self.members
        if self.key not in self.closed and self.top and self.graph.has_edge(*self.key):
            real[0] += 1  # the single run's cycle closes with the kept edge
        nb = {
            k: sum(real[j] == 0 for j in js) + (k in at and real[at[k][0]] == 0)
            for k, js in members.items() if k in self.closed
        }
        # a P-node of nb = 2 whose run toward the kept pair is bridged
        # leaves complex every root outside its subtree
        out = {k: c == 2 and k in at and real[at[k][0]] > 0 for k, c in nb.items()}
        everywhere = sum(c >= 3 for c in nb.values()) + sum(out.values())
        good, above = {}, [0] * len(self.runs)
        for k, js in members.items():  # top-down
            if k not in nb:  # the kept pair's single cycle, the root
                good[0] = everywhere == 0
                continue
            count = (above[at[k][0]] if k in at else 0) - out[k]
            good[k] = (nb[k] == 2) + count + everywhere == 0
            for j in js:
                above[j] = count + (nb[k] == 2 and real[j] > 0)
                good[j] = above[j] + everywhere == 0
        self.good = good


def _components(g, bcf):
    """The number of connected components of g, read off its forest bcf.
    The blocks and cut vertices of one component form a tree, so its
    block sizes add up to its vertex count plus its block count less one;
    an isolated vertex is a block of its own."""
    return len(bcf.blocks) + g.n - sum(map(len, bcf.blocks))


def sp_decompose(g, a, b):
    """Series-parallel tree of a biconnected K_4-free graph.

    The terminals must be adjacent or disconnect the graph; those are
    exactly the pairs for which such a tree exists. The K_4 test reduces
    the graph once, as the classifier reduces a block, and the tree is
    rooted at (a, b) in that reduction's S/P tree; a one-edge graph's is
    a leaf. The answer is checked here, once, and a wrong one raises
    AssertionError, an internal error, also under `python -O`.
    """
    _check_terminals(g, a, b)
    bcf = block_cut_forest(g)
    if len(bcf.blocks) != 1:
        raise InputError("series-parallel decomposition needs a biconnected graph")
    kept = _reduce_blocks(g, bcf)
    if isinstance(kept, ForbiddenWitness):
        raise InputError("the graph contains a K_4 subdivision")
    if not g.has_edge(a, b):
        rest = g.without_vertices({a, b})
        if rest.n == 0 or rest.is_connected():
            raise InputError(
                "terminals must be adjacent or separate the graph"
            )
    sp = _Leaves(g, bcf, kept).sp(0)
    return _checked_decomposition(_render(sp, a, b), g, a, b)


def _check_terminals(g, a, b):
    for v in (a, b):
        if v not in g:
            raise InputError(f"no vertex {v!r}")
    if a == b:
        raise InputError("terminals must be distinct")


class _Leaves:
    """The leaf blocks of g, peeled one at a time off one block-cut forest.

    Peeling a leaf block leaves every other block whole and only retires
    cut vertices; this keeps each cut vertex's blocks, each block's live
    cut vertices (those another block still holds) and a heap of leaf
    blocks, keyed by least vertex m and then m's least neighbour in the
    block. That orders them as a fresh forest of the remaining graph
    sorted by least vertex would: leaf blocks with the same m both hang
    from m, and a forest lists them in the order its DFS leaves m. kept
    maps each block of 3+ vertices to its graph and its reduction keeping
    its key, as _reduce_blocks makes them, and each block's S/P tree is
    built from it once, on first use (see sp); a bridge has none.
    """

    def __init__(self, g, bcf, kept):
        self.blocks, self.kept = bcf.blocks, kept
        self.keys = [(min(blk), min(g.neighbors(min(blk)) & blk)) for blk in self.blocks]
        self.live = [set(blk & bcf.cut_vertices) for blk in self.blocks]
        self.holders = {v: set() for v in bcf.cut_vertices}
        for i, cuts in enumerate(self.live):
            for v in cuts:
                self.holders[v].add(i)
        self.alive = set(range(len(self.blocks)))
        self.sps, self.heap = {}, []
        for i in self.alive:
            self.push(i)

    def push(self, i):
        """Put block i on the heap if it is a leaf."""
        if len(self.live[i]) == 1:
            (cut,) = self.live[i]
            heapq.heappush(self.heap, (self.keys[i], i, cut))

    def pop(self):
        """The least leaf block on the heap, as (its index, its cut vertex)."""
        return heapq.heappop(self.heap)[1:]

    def peel(self, i, cut):
        self.alive.remove(i)
        self.holders[cut].remove(i)
        if len(self.holders[cut]) == 1:
            (j,) = self.holders[cut]
            self.live[j].discard(cut)
            self.push(j)

    def sp(self, i):
        """Block i's S/P tree, built once from its kept reduction; None
        for a bridge."""
        if i in self.kept and i not in self.sps:
            sub, reduction = self.kept[i]
            self.sps[i] = _sp_tree(sub, *self.keys[i], reduction)
        return self.sps.get(i)

    def rooting(self, g, i, cut):
        """(sp, cut, other): block i's S/P tree, None for a bridge, and
        the pair its tree from cut is rooted at, cut and cut's least
        neighbour in the block. Whether that tree is simple is read off
        sp, and _render builds it only where it is needed."""
        m, other = self.keys[i]
        if cut != m:
            other = min(g.neighbors(cut) & self.blocks[i])
        return self.sp(i), cut, other


def _render(sp, a, b):
    """A block's SP tree from (a, b), rooted in its S/P tree sp; a
    bridge's, sp None, is the leaf ab. Every caller asks for a pair that
    is adjacent or separates the block, so a refused pair raises
    AssertionError, an internal error, also under `python -O`."""
    if sp is None:
        return leaf(a, b)
    tree = sp.rooted(a, b)
    if tree is None:
        raise AssertionError("the series-parallel engine found no tree of a K_4-free block")
    return tree


def _gsp(g, bcf, kept, a, b):
    """GSP tree for a connected K_4-free (g, a, b), given g's block-cut
    forest and the reductions _reduce_blocks keeps.

    Leaf blocks whose interior holds no terminal are peeled off, each
    decomposed from its cut vertex, until the block holding both
    terminals is left; a leaf whose interior holds one stays a leaf, so
    it leaves the heap for good. The classifier's _assemble builds the
    limbs as series spines; the terminals' block's tree is rooted at
    (a, b) in its S/P tree, a bridge's is a leaf, and every limb hangs
    on it with a branch node.
    """
    leaves = _Leaves(g, bcf, kept)
    peeled = []
    while leaves.heap:
        i, cut = leaves.pop()
        blk = leaves.blocks[i]
        if {a, b} & (blk - {cut}):
            continue
        peeled.append((blk, cut, _render(*leaves.rooting(g, i, cut))))
        leaves.peel(i, cut)
    (i,) = leaves.alive
    return _assemble(peeled, _render(leaves.sp(i), a, b), ())


def gsp_decompose(g, a, b):
    """Generalized series-parallel tree over the given terminals.

    Requires a connected K_4-free graph whose terminals are adjacent or
    form a two-element separator of one biconnected block. The K_4 test
    reduces each block once, and every tree of a block, the terminals'
    block's included, is rooted in the S/P tree of that reduction. The
    answer is checked here, once, and a wrong one raises AssertionError,
    an internal error, also under `python -O`.
    """
    _check_terminals(g, a, b)
    bcf = block_cut_forest(g)
    if _components(g, bcf) != 1:
        raise InputError("decomposition needs a connected graph")
    kept = _reduce_blocks(g, bcf)
    if isinstance(kept, ForbiddenWitness):
        raise InputError("the graph contains a K_4 subdivision")
    if not g.has_edge(a, b) and not any(
        a in blk and b in blk and len(blk) > 3
        and not g.induced(blk - {a, b}).is_connected()
        for blk in bcf.blocks
    ):
        raise InputError("terminals must be adjacent or separate one biconnected block")
    return _checked_decomposition(_gsp(g, bcf, kept, a, b), g, a, b)


def _checked_decomposition(t, g, a, b):
    # t, if it is a tree of g over the terminals (a, b); the check folds
    # its vertex sets and builds its graph once (see recompose)
    try:
        ok = recompose(t) == g and t.terminals == (a, b)
    except InputError:
        ok = False
    if not ok:
        raise AssertionError("the decomposition is not a tree of the graph over its terminals")
    return t


# ---------------------------------------------------------------------------
# grafting a pendant block onto an existing tree


def _merge(tree, limbs):
    # limbs: (c, pendant) pairs with pendant.a == c, each hung in turn on
    # the first node, in preorder, with c as a terminal. A branch node
    # keeps its spine's terminals and its pendant shares only c with
    # the tree, so hanging one limb moves no later limb's node: one
    # preorder pass finds them all, and limbs meeting at one node hang
    # there in their given order. Every rebuilt ancestor keeps its
    # operator, so no complexity changes along the way.
    if not limbs:
        return tree
    pending = {}
    for i, (c, pendant) in enumerate(limbs):
        pending.setdefault(c, []).append((i, c, pendant))
    at = {}
    for t in tree.walk():
        if not pending:
            break
        here = [limb for c in t.terminals for limb in pending.pop(c, ())]
        if here:
            at[id(t)] = sorted(here, key=lambda limb: limb[0])
    if pending:
        raise AssertionError(f"no node of the tree has {min(pending)!r} as a terminal")

    def combine(t, kids):
        out = t if all(k is c for k, c in zip(kids, t.children)) else node(t.op, *kids)
        for _, c, pendant in at.get(id(t), ()):
            out = node("branch" if out.a == c else "branch_alt", out, pendant)
        return out

    return _bottom_up(tree, lambda t: t.children, combine)


# ---------------------------------------------------------------------------
# bipath extraction


def _flatten(tree, ops):
    # the maximal subtrees below a run of nodes with an operator in ops
    # and of branch spines, left to right; a branch node's pendant
    # shares only its glue vertex with the spine
    out, stack = [], [tree]
    while stack:
        t = stack.pop()
        if t.op in ops:
            stack.extend(reversed(t.children))
        elif t.op in ("branch", "branch_alt"):
            stack.append(t.children[0])
        else:
            out.append(t)
    return out


def _route(tree):
    """One route from tree.a to tree.b through the tree's graph, read off
    its leaves: a series node takes both children in order, and any
    other node its first child, which keeps the node's terminals."""
    path, stack = [tree.a], [tree]
    while stack:
        t = stack.pop()
        if t.op == "leaf":
            path.append(t.b)
        elif t.op == "series":
            stack.extend(reversed(t.children))
        else:
            stack.append(t.children[0])
    return path


def _extract(tree):
    # One bipath per non-bridged piece below tree's parallel nodes and
    # branch spines, left to right; a leaf is bridged, so each is a
    # series node. Its factors, read through series nodes and branch
    # spines, are parallel nodes, one per block of its chain. A
    # factor's two children run between its terminals and share only
    # them, so a route through each is a pair of internally disjoint
    # routes through the block.
    out = []
    for t in _flatten(tree, ("parallel",)):
        if t.bridged:
            continue
        factors = _flatten(t, ("series",))
        path1, path2 = [t.a], [t.a]
        for f in factors:
            path1.extend(_route(f.children[0])[1:])
            path2.extend(_route(f.children[1])[1:])
        stops = [f.a for f in factors] + [t.b]
        out.append(Bipath(tuple(path1), tuple(path2), tuple(stops)))
    return out


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
    """Forbidden pattern from two incomparable complex nodes, both in one
    block of g or each in its own pendant block.

    Equal terminal pairs give three bipaths on one endpoint pair; the
    interiors being separated by their terminals makes any third bipath
    compatible. Distinct pairs get joined by two connectors, BFS paths
    in g around both cores and the other two terminals, for the first
    of the two pairings of the terminals where both exist. The pattern
    lets connectors meet, and one pairing always works: in one block,
    two disjoint paths join the pairs once both interiors are cut away
    (Menger), each avoiding the other's ends; across two pendant blocks,
    each terminal reaches its block's cut vertex around its core, and a
    corridor outside both blocks joins the cut vertices.
    """
    bips0 = _extract(n0)
    bips1 = _extract(n1)
    if len(bips0) < 2 or len(bips1) < 2:
        raise AssertionError("a complex core yields fewer than two bipaths")
    t0 = {n0.a, n0.b}
    t1 = {n1.a, n1.b}
    if t0 == t1:
        return _witness_f2([bips0[0], bips0[1], bips1[0]])
    v0, v1 = (set().union(*_leaf_edges(n)) for n in (n0, n1))
    blocked = v0 | v1
    x0, x1 = n0.terminals
    for y0, y1 in (n1.terminals, n1.terminals[::-1]):
        p = g.shortest_path(x0, y0, forbidden=blocked - {x0, y0})
        q = p and g.shortest_path(x1, y1, forbidden=blocked - {x1, y1})
        if q:
            return _witness_f3(
                (x0, x1), (y0, y1), [bips0[0], bips0[1], bips1[0], bips1[1]], (p, q)
            )
    raise AssertionError("connector paths missing between complex cores")


# ---------------------------------------------------------------------------
# re-anchoring a complex block tree (or refuting it)


def _rebuild_block(sp, m, target):
    """Turn a complex SP tree of a block, whose S/P tree is sp and whose
    unique minimal complex node is m, into a simple one with `target` as
    first terminal, or extract a forbidden pattern.

    target must be a terminal of m = (M, s, t), a P-node of sp. The
    answer is sp rooted at the first edge (target, w), w in sorted
    order, from which sp rates it simple, and only that tree is
    rendered. Where there is none, sp is rendered at (s, t), where it
    splits the block into parallel pieces that lie entirely inside or
    outside M; a non-bridged outside piece hands a third bipath to M's
    two, and a complex node inside a piece makes a pair with M; either
    refutes the graph. A refutation is a pattern inside the block, so
    then no root of the block is simple, and where nothing refutes, an
    edge at the target roots a simple tree: M's two children and the
    outside pieces are then simple and the pieces bridged, and
    unwinding one side into the other (series factors join inverted,
    parallel nodes shed a complexity-0 child, a last leaf joins in
    parallel) gives a simple tree parallel(leaf(target, w), ...). The
    maximal SP tree from that edge has the same P-nodes and member runs,
    so it is simple too. The checks raise AssertionError, also under
    python -O.
    """
    if m.op != "parallel" or target not in m.terminals:
        raise AssertionError("the target is not a terminal of the complex core")
    for w in sp.graph.sorted_neighbors(target):
        if sp.simple_from(target, w):
            return sp.rooted(target, w)
    s, t = m.terminals
    fresh = sp.rooted(s, t)
    if fresh is None:
        raise AssertionError("the split at the complex core's terminals is missing")
    m_edges = _leaf_edges(m)
    for piece in _flatten(fresh, ("parallel",)):
        piece_edges = _leaf_edges(piece)
        if piece_edges <= m_edges:
            continue
        if piece_edges & m_edges:
            raise AssertionError("the split has a piece that straddles the complex core")
        if piece.complexity >= 1:
            return _witness_f2(
                [_extract(m.children[0])[0], _extract(m.children[1])[0],
                 _extract(piece)[0]]
            )
        inner = _minimal_complex_nodes(piece)
        if inner:
            return _witness_pair(sp.graph, m, inner[0])
    raise AssertionError("the re-anchoring found no edge at the target to root a simple tree")


# ---------------------------------------------------------------------------
# the classifier


def _pendant(g, built):
    """Which of the first two pendant blocks to peel, given as
    _Leaves.rooting has them, (S/P tree, cut, other): (its position, a
    simple tree of the block with the cut as first terminal), or the
    pattern refuting g. A tree is rendered only when its block is peeled
    as it is or its complex cores are needed."""
    for i, (sp, cut, other) in enumerate(built):
        if sp is None or sp.simple_from(cut, other):
            return i, _render(sp, cut, other)
    cores = [_minimal_complex_nodes(_render(*rooting)) for rooting in built]
    for hits in cores:
        if len(hits) >= 2:
            return _witness_pair(g, hits[0], hits[1])
    for i, ((sp, cut, _), (m,)) in enumerate(zip(built, cores)):
        # the cut is a root terminal of the block tree, and root
        # terminals stay terminals all the way down, so the cut touches
        # the complex core exactly when it is one of the core's terminals
        if cut in m.terminals:
            redone = _rebuild_block(sp, m, cut)
            if isinstance(redone, ForbiddenWitness):
                return redone
            return i, redone
    return _witness_pair(g, cores[0][0], cores[1][0])


def _peel(g, bcf, kept):
    """Peel pendant blocks off g, whose forest is bcf, to its last block.

    Returns the peeled blocks in order, as (block, cut, simple tree of
    the block with the cut as first terminal), a simple tree of the
    last block from its least edge, and the last block's S/P tree (None
    when it is a bridge); or the pattern refuting g. Each round takes
    the first two leaf blocks and peels the one _pendant picks. Every
    block is K_4-free, and kept holds the reductions of _reduce_blocks:
    each block of 3+ vertices has one S/P tree, built from its kept
    reduction, and every tree of it is rooted there: a pendant's from
    its cut, the last block's from its least edge, and the
    re-anchoring's split. A rendered tree is scanned for complex cores
    at most once.
    """
    leaves = _Leaves(g, bcf, kept)
    peeled = []
    while len(leaves.alive) > 1:
        pair = [leaves.pop() for _ in range(2)]
        got = _pendant(g, [leaves.rooting(g, i, cut) for i, cut in pair])
        if isinstance(got, ForbiddenWitness):
            return got
        k, pendant = got
        leaves.push(pair[1 - k][0])
        i, cut = pair[k]
        peeled.append((leaves.blocks[i], cut, pendant))
        leaves.peel(i, cut)
    (i,) = leaves.alive
    last, a, b = leaves.rooting(g, i, leaves.keys[i][0])
    root = _render(last, a, b)
    if not root.simple:
        hits = _minimal_complex_nodes(root)
        if len(hits) >= 2:
            return _witness_pair(last.graph, hits[0], hits[1])
        root = _rebuild_block(last, hits[0], hits[0].a)
        if isinstance(root, ForbiddenWitness):
            return root
    return peeled, root, last


def _assemble(peeled, root, ends=None):
    """One tree from the peeled blocks, given as (block, cut, tree of the
    block with the cut as first terminal) in peel order, and the tree of
    what the peel left.

    One pass in peel order builds each block's limb: its tree, grafted
    with the limbs hanging at its other vertices, then continued in
    series by the largest limb, counted in vertices, at its second
    terminal. A limb is kept as its run of series segments, last first.
    The other limbs are grafted by one _merge, largest innermost: an outer
    branch sweeps a ball as wide as its pendant's search, so the small
    pendants belong outside. The root continues into its largest limb
    at each of its terminals in ends (by default both); the run on its
    first terminal's side is read backwards, each segment inverted.
    With no ends, every limb hangs on the root with a branch node and
    the tree keeps the root's terminals.
    """
    hanging = {}  # vertex -> limbs hanging there, as (vertices, order, run)

    def graft(tree, limbs, ends):
        # the heaviest limb at each end, and tree with the others grafted
        heavy, rest = {}, []
        for _, _, v, run in sorted(limbs, key=lambda limb: (-limb[0], limb[1])):
            if v in ends and v not in heavy:
                heavy[v] = run
            else:
                rest.append((v, _series(run[::-1])))
        return _merge(tree, rest), heavy

    for order, (blk, cut, tree) in enumerate(peeled):
        limbs = [limb for v in blk if v != cut for limb in hanging.pop(v, ())]
        tree, heavy = graft(tree, limbs, (tree.b,))
        run = heavy.get(tree.b, [])
        run.append(tree)
        size = len(blk) + sum(limb[0] - 1 for limb in limbs)
        hanging.setdefault(cut, []).append((size, order, cut, run))
    # every limb still hanging hangs from the root
    limbs = [limb for at in hanging.values() for limb in at]
    tree, heavy = graft(root, limbs, root.terminals if ends is None else ends)
    head = [_invert(s) for s in heavy.get(root.a, [])]
    return _series(head + [tree] + heavy.get(root.b, [])[::-1])


def _rootings(peeled, last):
    """The classifier's assembly of the peeled blocks onto the last block,
    given as the peel has them (Classification.peel), of 3+ vertices: its
    S/P tree, last, rooted at each of its edges in turn, in sorted order,
    wherever that tree is simple. A rooting that is not simple is
    skipped without being rendered."""
    for u, v in last.edges():
        if last.simple_from(u, v):
            yield _assemble(peeled, last.rooted(u, v))


def build_simple_gsp(g):
    """A simple decomposition of g, or the forbidden pattern preventing
    one: the answer classify_topological_3 gives.

    Each block of three or more vertices is first reduced once, its least
    edge kept; a reduction that stops short finds a K_4 subdivision, and
    only then is the F1 witness extracted. The other reductions build
    their blocks' S/P trees, one per block, in which every tree of the
    block is rooted. Pendant blocks are peeled off and
    rooted at their cut vertex; a complex pendant tree either
    re-anchors at its cut (when the cut touches the complex core) or
    certifies a pattern. At most two pendant blocks ever need attention:
    two complex ones already refute the graph. The tree is then
    assembled as series spines: each block continues in series into its
    largest limb, and only the other limbs hang on with branch nodes, so
    a path becomes one series run and on a tree a limb hangs inside at
    most log2(n) others. The answer is checked once, at the end of the
    classifier, and a wrong one raises AssertionError, an internal error,
    also under `python -O`: a tree's check folds its vertex sets and
    builds its graph once (see recompose), and a witness's checks its
    pattern and that it sits in g. The code that finds a witness packs
    it without checking it.
    """
    cls = classify_topological_3(g)
    return cls.tree or cls.witness


@dataclass(frozen=True)
class Classification:
    """YES with a simple tree and the peel it was assembled from (as
    _peel returns it: the peeled blocks, the last block's tree and its
    S/P tree, for synth to re-root from; not in the record), or NO with
    a pattern witness."""

    verdict: str
    tree: object = None
    witness: object = None
    peel: object = field(default=None, repr=False, compare=False)

    def to_record(self):
        out = {"verdict": self.verdict}
        if self.tree is not None:
            out["tree"] = tree_to_record(self.tree)
        if self.witness is not None:
            out["witness"] = self.witness.to_record()
        return out


def classify_topological_3(g):
    """Decide whether every subdivision of g can be searched with three
    pursuers, with a decomposition or a witness either way, checked here
    (see build_simple_gsp)."""
    if g.n < 2:
        raise InputError("classification needs at least two vertices")
    bcf = block_cut_forest(g)
    if _components(g, bcf) != 1:
        raise InputError("classification needs a connected graph")
    out = _reduce_blocks(g, bcf)
    if not isinstance(out, ForbiddenWitness):
        out = _peel(g, bcf, out)
    if isinstance(out, ForbiddenWitness):
        if not embedded(_checked(out), g):
            raise AssertionError(f"the witness is not an {out.family} pattern of the graph")
        return Classification("NO", witness=out)
    peeled, root, _ = out
    tree = _assemble(peeled, root)
    try:
        ok = recompose(tree) == g and tree.simple
    except InputError:
        ok = False
    if not ok:
        raise AssertionError("the decomposition is not a simple tree of the graph")
    return Classification("YES", tree=tree, peel=out)
