"""Undirected simple graphs with string vertex labels.

Everything downstream (the sweep game, the solvers, the decompositions)
works over this one representation. Labels are opaque strings with
lexicographic order; every iteration in the package runs in sorted label
order so that witnesses and decompositions come out deterministic.

Edges are stored as sorted 2-tuples (u, v) with u < v.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import InputError

# ---------------------------------------------------------------------------
# core graph type


def edge_key(u, v):
    """Canonical form of an undirected edge."""
    if u == v:
        raise InputError(f"self-loop at {u!r}")
    return (u, v) if u < v else (v, u)


class Graph:
    """Immutable simple graph. Build with from_edges or the generators."""

    __slots__ = ("vertices", "_adj", "_edges", "_mask_cache")

    def __init__(self, adj):
        self._adj = adj
        self.vertices = tuple(sorted(adj))
        self._edges = None
        self._mask_cache = None

    @classmethod
    def from_edges(cls, edges, vertices=()):
        """Graph from an iterable of 2-tuples plus optional extra vertices."""
        adj = {v: set() for v in vertices}
        for u, v in edges:
            u, v = str(u), str(v)
            if u == v:
                raise InputError(f"self-loop at {u!r}")
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
        return cls({v: frozenset(ns) for v, ns in adj.items()})

    # -- basics

    @property
    def n(self):
        return len(self.vertices)

    def __contains__(self, v):
        return v in self._adj

    def __iter__(self):
        return iter(self.vertices)

    def neighbors(self, v):
        try:
            return self._adj[v]
        except KeyError:
            raise InputError(f"no vertex {v!r}") from None

    def sorted_neighbors(self, v):
        return sorted(self.neighbors(v))

    def degree(self, v):
        return len(self.neighbors(v))

    def has_edge(self, u, v):
        return u in self._adj and v in self._adj[u]

    def edges(self):
        """All edges as sorted tuples, in sorted order."""
        if self._edges is None:
            es = []
            for u in self.vertices:
                for v in self._adj[u]:
                    if u < v:
                        es.append((u, v))
            self._edges = tuple(sorted(es))
        return self._edges

    @property
    def m(self):
        return len(self.edges())

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.vertices == other.vertices and self._adj == other._adj

    def __hash__(self):
        return hash((self.vertices, self.edges()))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"

    # -- derived graphs

    def induced(self, keep):
        keep = set(keep)
        missing = keep - set(self._adj)
        if missing:
            raise InputError(f"not vertices: {sorted(missing)}")
        return Graph({v: self._adj[v] & keep for v in keep})

    def without_vertices(self, drop):
        drop = set(drop)
        return self.induced(set(self._adj) - drop)

    def without_edge(self, u, v):
        e = edge_key(u, v)
        if not self.has_edge(u, v):
            raise InputError(f"no edge {e}")
        adj = dict(self._adj)
        adj[u] = adj[u] - {v}
        adj[v] = adj[v] - {u}
        return Graph(adj)

    def union(self, other):
        """Union of vertex and edge sets (labels decide identity)."""
        adj = {v: set(ns) for v, ns in self._adj.items()}
        for v, ns in other._adj.items():
            adj.setdefault(v, set()).update(ns)
        return Graph({v: frozenset(ns) for v, ns in adj.items()})

    def relabel(self, mapping):
        """New graph with vertices renamed; mapping must be injective."""
        new = {}
        for v in self.vertices:
            w = mapping.get(v, v)
            if w in new:
                raise InputError(f"relabel collision at {w!r}")
            new[w] = frozenset(mapping.get(x, x) for x in self._adj[v])
        return Graph(new)

    # -- traversal

    def component_of(self, v):
        if v not in self._adj:
            raise InputError(f"no vertex {v!r}")
        seen = {v}
        queue = deque([v])
        while queue:
            u = queue.popleft()
            for w in self._adj[u]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        return frozenset(seen)

    def components(self):
        """Connected components, sorted by minimum label."""
        seen = set()
        comps = []
        for v in self.vertices:
            if v not in seen:
                c = self.component_of(v)
                seen |= c
                comps.append(c)
        return comps

    def is_connected(self):
        return self.n <= 1 or len(self.component_of(self.vertices[0])) == self.n

    def distances(self, source):
        """BFS distance from source to every reachable vertex."""
        dist = {source: 0}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for w in self._adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return dist

    def shortest_path(self, source, target, forbidden=()):
        """One shortest source-target path avoiding `forbidden` interior
        vertices, ties broken by sorted labels. None if unreachable."""
        forbidden = set(forbidden) - {source, target}
        prev = {source: None}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            if u == target:
                path = []
                while u is not None:
                    path.append(u)
                    u = prev[u]
                return list(reversed(path))
            for w in self.sorted_neighbors(u):
                if w not in prev and w not in forbidden:
                    prev[w] = u
                    queue.append(w)
        return None

    # -- bitmask view (used by the solvers and the fast simulator)

    def masks(self):
        """(index map, neighbor masks, full mask) over sorted vertices."""
        if self._mask_cache is None:
            index = {v: i for i, v in enumerate(self.vertices)}
            nbr = [0] * self.n
            for v, i in index.items():
                m = 0
                for w in self._adj[v]:
                    m |= 1 << index[w]
                nbr[i] = m
            self._mask_cache = (index, nbr, (1 << self.n) - 1)
        return self._mask_cache

    def to_mask(self, vs):
        index = self.masks()[0]
        m = 0
        for v in vs:
            try:
                m |= 1 << index[v]
            except KeyError:
                raise InputError(f"no vertex {v!r}") from None
        return m

    def from_mask(self, m):
        vs = self.vertices
        out = []
        i = 0
        while m:
            if m & 1:
                out.append(vs[i])
            m >>= 1
            i += 1
        return frozenset(out)


# ---------------------------------------------------------------------------
# boundary and balls


def boundary(g, s):
    """Vertices of s with at least one neighbor outside s."""
    s = frozenset(s)
    extra = s - set(g.vertices)
    if extra:
        raise InputError(f"not vertices: {sorted(extra)}")
    return frozenset(v for v in s if g.neighbors(v) - s)


def ball(g, v, radius):
    """Closed ball: all vertices at BFS distance <= radius from v."""
    if radius < 0:
        raise InputError("radius must be >= 0")
    if v not in g:
        raise InputError(f"no vertex {v!r}")
    dist = g.distances(v)
    return frozenset(u for u, d in dist.items() if d <= radius)


# ---------------------------------------------------------------------------
# blocks, cut vertices, bridges


@dataclass(frozen=True)
class BlockCutForest:
    """Biconnected components ("blocks") and cut vertices of a graph.

    Blocks are vertex sets; they partition the edges. A bridge shows up as
    a 2-vertex block, an isolated vertex as a 1-vertex block.
    """

    blocks: tuple
    cut_vertices: frozenset

    def leaf_blocks(self):
        """Blocks containing at most one cut vertex, with that vertex."""
        out = []
        for b in self.blocks:
            cuts = [v for v in sorted(b) if v in self.cut_vertices]
            if len(cuts) <= 1:
                out.append((b, cuts[0] if cuts else None))
        return out

    def block_path(self, a, b):
        """Ordered blocks and cut vertices on the block-tree path joining a
        and b.

        Returns (blocks, cuts) with len(cuts) == len(blocks) - 1; a lies in
        the first block and b in the last. A cut-vertex endpoint is allowed
        (the path starts at whichever of its blocks faces the other end).
        Raises InputError when the two ends are disconnected or equal.
        """
        if a == b:
            raise InputError("block path endpoints must differ")
        starts = [i for i, blk in enumerate(self.blocks) if a in blk]
        goals = {i for i, blk in enumerate(self.blocks) if b in blk}
        if not starts or not goals:
            raise InputError("endpoint not in any block")
        # BFS on the bipartite block/cut incidence. Multiple start blocks
        # (a a cut vertex) act as sources; the first goal block reached wins,
        # so the chain never doubles back through another block at a.
        by_cut = {}
        for i, blk in enumerate(self.blocks):
            for v in blk:
                if v in self.cut_vertices:
                    by_cut.setdefault(v, []).append(i)
        prev = {i: None for i in starts}
        queue = deque(starts)
        while queue:
            i = queue.popleft()
            if i in goals:
                chain = []
                while i is not None:
                    chain.append(i)
                    i = prev[i]
                chain.reverse()
                blks = [self.blocks[j] for j in chain]
                cuts = []
                for x, y in zip(blks, blks[1:]):
                    shared = x & y
                    assert len(shared) == 1
                    cuts.append(next(iter(shared)))
                return blks, cuts
            for v in sorted(self.blocks[i] & self.cut_vertices):
                for j in by_cut[v]:
                    if j not in prev:
                        prev[j] = i
                        queue.append(j)
        raise InputError(f"{a!r} and {b!r} are in different components")


def block_cut_forest(g):
    """Iterative Hopcroft-Tarjan biconnected components.

    Iterative on purpose: subdivided hosts have induced paths with hundreds
    of vertices, deep enough to threaten the recursion limit.
    """
    disc, low, parent = {}, {}, {}
    blocks = []
    cuts = set()
    estack = []
    counter = 0
    for root in g.vertices:
        if root in disc:
            continue
        if not g.neighbors(root):
            blocks.append(frozenset([root]))
            continue
        disc[root] = low[root] = counter
        counter += 1
        root_children = 0
        stack = [(root, iter(g.sorted_neighbors(root)))]
        while stack:
            v, it = stack[-1]
            advanced = False
            for w in it:
                if w not in disc:
                    estack.append((v, w))
                    parent[w] = v
                    disc[w] = low[w] = counter
                    counter += 1
                    if v == root:
                        root_children += 1
                    stack.append((w, iter(g.sorted_neighbors(w))))
                    advanced = True
                    break
                if w != parent.get(v) and disc[w] < disc[v]:
                    estack.append((v, w))
                    if disc[w] < low[v]:
                        low[v] = disc[w]
            if advanced:
                continue
            stack.pop()
            if not stack:
                continue
            u = stack[-1][0]
            if low[v] < low[u]:
                low[u] = low[v]
            if low[v] >= disc[u]:
                members = set()
                while True:
                    e = estack.pop()
                    members.update(e)
                    if e == (u, v):
                        break
                blocks.append(frozenset(members))
                if u != root or root_children >= 2:
                    cuts.add(u)
        # a root with 2+ DFS children is a cut vertex; handled above
    return BlockCutForest(tuple(blocks), frozenset(cuts))


def bridges(g):
    """All bridge edges, as sorted tuples in sorted order."""
    bcf = block_cut_forest(g)
    out = []
    for b in bcf.blocks:
        if len(b) == 2:
            u, v = sorted(b)
            out.append((u, v))
    return sorted(out)


def is_bridged(g, a, b):
    """True iff some bridge separates a from b (a, b connected)."""
    for v in (a, b):
        if v not in g:
            raise InputError(f"no vertex {v!r}")
    if a == b:
        return False
    # same 2-edge-connected component <=> no separating bridge
    stripped = g
    for u, v in bridges(g):
        stripped = stripped.without_edge(u, v)
    return b not in stripped.component_of(a)


def separating_bridges(g, a, b):
    """Bridges whose removal disconnects a from b."""
    out = []
    for u, v in bridges(g):
        if b not in g.without_edge(u, v).component_of(a):
            out.append((u, v))
    return out


# ---------------------------------------------------------------------------
# subdivisions


def subdivision_label(edge, i):
    u, v = edge
    return f"({u},{v})#{i}"


class SubdividedGraph:
    """A base graph with each edge replaced by a path of `count` new
    interior vertices. Interior labels are "(u,v)#i" with (u, v) the sorted
    base edge and i counting from the lexicographically smaller endpoint.

    The derived graph is built on first access to `derived`; size and
    membership questions are answered from the labels alone.
    """

    __slots__ = ("base", "counts", "_tops", "_derived")

    def __init__(self, base, counts):
        norm = {}
        base_edges = set(base.edges())
        for e, c in counts.items():
            e = edge_key(*e)
            if e not in base_edges:
                raise InputError(f"{e} is not a base edge")
            if c < 0:
                raise InputError(f"negative count on {e}")
            if c:
                norm[e] = int(c)
        self.base = base
        self.counts = norm
        # label prefix "(u,v)" -> highest index in use; commas inside
        # vertex names can give two edges one prefix, ("x,y","z") and
        # ("x","y,z") both "(x,y,z)", and their chains would fuse
        self._tops = {}
        for (u, v), c in norm.items():
            head = f"({u},{v})"
            if head in self._tops:
                raise InputError(f"label collision: {head!r}")
            self._tops[head] = c
        for x in base.vertices:
            if self._is_interior(x):
                raise InputError(f"label collision: {x!r}")
        self._derived = None

    @property
    def derived(self):
        """The subdivided graph itself."""
        if self._derived is None:
            # written straight into one adjacency dict: hosts run to tens
            # of thousands of vertices, and an edge list plus mutable sets
            # would hold several times the memory of the finished graph
            adj = {v: [] for v in self.base.vertices}
            for e in self.base.edges():
                chain = self.chain(e)
                adj[chain[0]].append(chain[1])
                adj[chain[-1]].append(chain[-2])
                for i in range(1, len(chain) - 1):
                    adj[chain[i]] = frozenset((chain[i - 1], chain[i + 1]))
            for v in self.base.vertices:
                adj[v] = frozenset(adj[v])
            self._derived = Graph(adj)
        return self._derived

    @property
    def n(self):
        """Vertex count of the derived graph."""
        return self.base.n + sum(self.counts.values())

    def _is_interior(self, x):
        if not isinstance(x, str):
            return False
        head, _, i = x.rpartition("#")
        top = self._tops.get(head, 0)
        return i.isdecimal() and i == str(int(i)) and 0 < int(i) <= top

    def __contains__(self, x):
        """Whether x is a vertex of the derived graph."""
        return x in self.base or self._is_interior(x)

    def shared_vertices(self, other):
        """Vertices the derived graphs of two subdivisions have in common."""
        got = {x for x in self.base.vertices if x in other}
        got.update(x for x in other.base.vertices if x in self)
        for head in self._tops.keys() & other._tops.keys():
            top = min(self._tops[head], other._tops[head])
            got.update(f"{head}#{i}" for i in range(1, top + 1))
        return got

    def count(self, u, v=None):
        e = edge_key(u, v) if v is not None else edge_key(*u)
        return self.counts.get(e, 0)

    def chain(self, edge):
        """Vertices of the subdivided edge in order, endpoints included,
        starting at the smaller endpoint."""
        u, v = edge_key(*edge)
        c = self.counts.get((u, v), 0)
        return [u] + [subdivision_label((u, v), i) for i in range(1, c + 1)] + [v]

    def chain_from(self, edge, end):
        """Same chain, oriented to start at `end`."""
        ch = self.chain(edge)
        if ch[0] == end:
            return ch
        if ch[-1] == end:
            return ch[::-1]
        raise InputError(f"{end!r} is not an endpoint of {edge}")

    def __repr__(self):
        return f"SubdividedGraph(base_n={self.base.n}, derived_n={self.n})"


def subdivide(g, counts):
    """Subdivide each edge e of g into counts.get(e, 0) interior vertices."""
    return SubdividedGraph(g, dict(counts))


# ---------------------------------------------------------------------------
# vertex equivalences and quotients


class EquivalenceSpec:
    """A partition of a graph's vertex set. Singleton classes may be left
    implicit when building from merge lists."""

    __slots__ = ("classes", "_class_of")

    def __init__(self, classes):
        seen = {}
        norm = []
        for cls in classes:
            cls = frozenset(cls)
            if not cls:
                raise InputError("empty equivalence class")
            for v in cls:
                if v in seen:
                    raise InputError(f"{v!r} in two classes")
                seen[v] = cls
            norm.append(cls)
        self.classes = tuple(sorted(norm, key=lambda c: min(c)))
        self._class_of = seen

    @classmethod
    def from_merges(cls, vertices, merges):
        """Partition of `vertices` with the given merged groups; everything
        else stays a singleton."""
        merged = set()
        groups = []
        for grp in merges:
            grp = frozenset(grp)
            groups.append(grp)
            merged |= grp
        extra = merged - set(vertices)
        if extra:
            raise InputError(f"not vertices: {sorted(extra)}")
        for v in vertices:
            if v not in merged:
                groups.append(frozenset([v]))
        return cls(groups)

    def class_of(self, v):
        try:
            return self._class_of[v]
        except KeyError:
            raise InputError(f"no class for {v!r}") from None

    def covers(self, vertices):
        return set(self._class_of) == set(vertices)

    @staticmethod
    def label(cls):
        return "+".join(sorted(cls))

    def meet(self, xs):
        """Union of the classes fully contained in xs (the largest
        invariant set inside xs)."""
        xs = frozenset(xs)
        out = set()
        for cls in self.classes:
            if cls <= xs:
                out |= cls
        return frozenset(out)

    def join(self, xs):
        """Union of the classes meeting xs (the smallest invariant set
        containing xs)."""
        xs = frozenset(xs)
        out = set()
        for cls in self.classes:
            if cls & xs:
                out |= cls
        return frozenset(out)

    def is_invariant(self, xs):
        return self.meet(xs) == frozenset(xs)


def quotient(g, eq):
    """Quotient graph: one vertex per class, labeled by the sorted joined
    member labels; intra-class edges are dropped.

    Returns (quotient graph, dict mapping each original vertex to its
    quotient label).
    """
    if not eq.covers(g.vertices):
        raise InputError("equivalence classes must cover the vertex set exactly")
    name = {cls: EquivalenceSpec.label(cls) for cls in eq.classes}
    mapping = {v: name[eq.class_of(v)] for v in g.vertices}
    edges = set()
    for u, v in g.edges():
        qu, qv = mapping[u], mapping[v]
        if qu != qv:
            edges.add(edge_key(qu, qv))
    return Graph.from_edges(edges, vertices=name.values()), mapping


# ---------------------------------------------------------------------------
# disjoint paths (Menger via unit-capacity flow, deterministic)


def _augment(adjcap, source, sink):
    """One BFS augmenting path; returns the node path or None."""
    prev = {source: None}
    queue = deque([source])
    while queue:
        x = queue.popleft()
        if x == sink:
            path = []
            while x is not None:
                path.append(x)
                x = prev[x]
            return list(reversed(path))
        for y in sorted(adjcap[x], key=str):
            if adjcap[x][y] > 0 and y not in prev:
                prev[y] = x
                queue.append(y)
    return None


def _flow_paths(g, sources, sinks, k, split_exempt=()):
    """Up to k vertex-disjoint paths from `sources` to `sinks`.

    Splits every vertex into in/out with unit capacity except those in
    split_exempt (used for internally-disjoint paths, where the shared
    endpoints may carry several paths). Returns a list of label paths,
    or None if fewer than k exist.
    """
    IN, OUT = 0, 1
    adjcap = {"S": {}, "T": {}}

    def ensure(node):
        if node not in adjcap:
            adjcap[node] = {}

    def arc(x, y, cap):
        ensure(x)
        ensure(y)
        adjcap[x].setdefault(y, 0)
        adjcap[y].setdefault(x, 0)
        adjcap[x][y] += cap

    big = g.n + 1
    for v in g.vertices:
        arc((IN, v), (OUT, v), big if v in split_exempt else 1)
    for u, v in g.edges():
        arc((OUT, u), (IN, v), 1)
        arc((OUT, v), (IN, u), 1)
    for s in sorted(sources):
        arc("S", (IN, s), big if s in split_exempt else 1)
    for t in sorted(sinks):
        arc((OUT, t), "T", big if t in split_exempt else 1)

    flow = {}
    found = 0
    while found < k:
        path = _augment(adjcap, "S", "T")
        if path is None:
            return None
        for x, y in zip(path, path[1:]):
            adjcap[x][y] -= 1
            adjcap[y][x] += 1
            flow[(x, y)] = flow.get((x, y), 0) + 1
            if flow.get((y, x), 0) > 0:
                # cancel opposite flow instead of stacking
                flow[(x, y)] -= 1
                flow[(y, x)] -= 1
        found += 1

    def take(x, y):
        if flow.get((x, y), 0) > 0:
            flow[(x, y)] -= 1
            return True
        return False

    paths = []
    for s in sorted(sources):
        while take("S", (IN, s)):
            path = [s]
            node = (IN, s)
            while True:
                node = (OUT, node[1])
                # walk the flow out of this vertex
                nxt = None
                for y in sorted((y for (x, y), f in flow.items() if x == node and f > 0), key=str):
                    nxt = y
                    break
                if nxt == "T" or nxt is None:
                    if nxt == "T":
                        flow[(node, "T")] -= 1
                    break
                flow[(node, nxt)] -= 1
                path.append(nxt[1])
                node = nxt
            paths.append(path)
    assert len(paths) == k
    return paths


def two_disjoint_paths(g, xs, ys):
    """Two fully vertex-disjoint paths from the set xs to the set ys, or
    None. A vertex in both sets yields a zero-length path."""
    xs, ys = frozenset(xs), frozenset(ys)
    for v in xs | ys:
        if v not in g:
            raise InputError(f"no vertex {v!r}")
    if not xs or not ys:
        raise InputError("endpoint sets must be nonempty")
    return _flow_paths(g, xs, ys, 2)


def internally_disjoint_paths(g, u, v, k=2):
    """k u-v paths sharing only their endpoints, or None."""
    if u == v:
        raise InputError("endpoints must differ")
    return _flow_paths(g, {u}, {v}, k, split_exempt={u, v})


# ---------------------------------------------------------------------------
# generators


def path_graph(n):
    if n < 1:
        raise InputError("path needs >= 1 vertex")
    return Graph.from_edges(
        ((str(i), str(i + 1)) for i in range(n - 1)), vertices=[str(i) for i in range(n)]
    )


def cycle_graph(n):
    if n < 3:
        raise InputError("cycle needs >= 3 vertices")
    return Graph.from_edges((str(i), str((i + 1) % n)) for i in range(n))


def complete_graph(n):
    if n < 1:
        raise InputError("complete graph needs >= 1 vertex")
    return Graph.from_edges(
        ((str(i), str(j)) for i in range(n) for j in range(i + 1, n)),
        vertices=[str(i) for i in range(n)],
    )


def grid_graph(n, m):
    """n-by-m grid, vertices v{a*m+b} for row a, column b."""
    if n < 2 or m < 2:
        raise InputError("grid sides must be >= 2")
    edges = []
    for a in range(n):
        for b in range(m):
            if b + 1 < m:
                edges.append((f"v{a * m + b}", f"v{a * m + b + 1}"))
            if a + 1 < n:
                edges.append((f"v{a * m + b}", f"v{(a + 1) * m + b}"))
    return Graph.from_edges(edges)


def perfect_binary_tree(depth):
    """Complete binary tree with 2^(depth+1)-1 vertices; root label 't'."""
    if depth < 0:
        raise InputError("depth must be >= 0")
    edges = []
    vertices = ["t"]
    frontier = ["t"]
    for _ in range(depth):
        nxt = []
        for v in frontier:
            for bit in "01":
                w = v + bit
                edges.append((v, w))
                nxt.append(w)
        vertices.extend(nxt)
        frontier = nxt
    return Graph.from_edges(edges, vertices=vertices)


def k4_subdivision_example():
    """The 8-vertex subdivision of K_4 used throughout the tests: branch
    vertices A, B, C, D with the A-D connection stretched through I1..I4."""
    edges = [
        ("A", "B"), ("B", "C"), ("C", "D"), ("D", "I4"), ("I4", "I3"),
        ("I3", "I2"), ("I2", "I1"), ("I1", "A"), ("A", "C"), ("B", "D"),
    ]
    return Graph.from_edges(edges)


def _add_path(edges, a, b, length, prefix):
    """Append a path of `length` edges from a to b, interior labels
    prefix+"1".. Returns the interior labels."""
    if length < 1:
        raise InputError("path length must be >= 1")
    inner = [f"{prefix}{i}" for i in range(1, length)]
    seq = [a] + inner + [b]
    edges.extend(zip(seq, seq[1:]))
    return inner


def _add_bipath(edges, a, b, segments, prefix):
    """Append a bipath from a to b.

    segments is a list of (len1, len2) pairs, one per consecutive primary
    pair; primary interior vertices get labels prefix+"m1", ... Returns the
    full ordered primary list.
    """
    if not segments:
        raise InputError("bipath needs >= 1 segment")
    primaries = [a] + [f"{prefix}m{i}" for i in range(1, len(segments))] + [b]
    if len(primaries) < 3:
        raise InputError("bipath needs >= 3 primary vertices (>= 2 segments)")
    for j, (l1, l2) in enumerate(segments):
        if l1 < 1 or l2 < 1:
            raise InputError("primary path lengths must be >= 1")
        if l1 == 1 and l2 == 1:
            raise InputError("both primary paths length 1 would be a parallel edge")
        p, q = primaries[j], primaries[j + 1]
        _add_path(edges, p, q, l1, f"{prefix}s{j}a")
        _add_path(edges, p, q, l2, f"{prefix}s{j}b")
    return primaries


_DEFAULT_SEGMENTS = ((2, 2), (2, 2))


def family_f1(subdivisions=1):
    """A K_4 subdivision: every edge of K_4 subdivided `subdivisions` times."""
    if subdivisions < 0:
        raise InputError("subdivisions must be >= 0")
    k4 = Graph.from_edges(
        (f"w{i}", f"w{j}") for i in range(4) for j in range(i + 1, 4)
    )
    counts = {e: subdivisions for e in k4.edges()}
    return subdivide(k4, counts).derived


def family_f2(segments=None):
    """Three bipaths sharing endpoints a, b and otherwise disjoint.

    segments: optional list of three per-bipath segment specs; defaults to
    two (2,2) segments each (order-3 bipaths).
    """
    if segments is None:
        segments = [_DEFAULT_SEGMENTS] * 3
    if len(segments) != 3:
        raise InputError("exactly three bipaths")
    edges = []
    for i, seg in enumerate(segments):
        _add_bipath(edges, "a", "b", list(seg), f"b{i}")
    return Graph.from_edges(edges)


def family_f3(segments=None, connector_lengths=(2, 2)):
    """Two disjoint bipath pairs plus two connecting paths.

    Pair one shares endpoints v1, v2; pair two shares v3, v4; the first
    connector runs v1-v3 and the second v2-v4, disjoint from everything
    except their endpoints. segments: optional list of four per-bipath
    segment specs.
    """
    if segments is None:
        segments = [_DEFAULT_SEGMENTS] * 4
    if len(segments) != 4:
        raise InputError("exactly four bipaths")
    c1, c2 = connector_lengths
    edges = []
    endpoints = [("v1", "v2"), ("v1", "v2"), ("v3", "v4"), ("v3", "v4")]
    for i, (seg, (x, y)) in enumerate(zip(segments, endpoints)):
        _add_bipath(edges, x, y, list(seg), f"b{i}")
    _add_path(edges, "v1", "v3", c1, "q1u")
    _add_path(edges, "v2", "v4", c2, "q2u")
    return Graph.from_edges(edges)


_GENERATORS = {
    "path": (path_graph, 1),
    "cycle": (cycle_graph, 1),
    "complete": (complete_graph, 1),
    "grid": (grid_graph, 2),
    "tree": (perfect_binary_tree, 1),
    "k4sub": (k4_subdivision_example, 0),
    "f1": (family_f1, -1),  # optional single int
    "f2": (family_f2, 0),
    "f3": (family_f3, 0),
}


def generate(spec):
    """Build a named graph from "kind" or "kind:arg,arg" (CLI syntax)."""
    kind, _, rest = spec.partition(":")
    kind = kind.strip().lower()
    if kind not in _GENERATORS:
        raise InputError(f"unknown generator {kind!r} (have {sorted(_GENERATORS)})")
    fn, arity = _GENERATORS[kind]
    args = [a for a in (x.strip() for x in rest.split(",")) if a]
    try:
        args = [int(a) for a in args]
    except ValueError:
        raise InputError(f"generator arguments must be integers: {rest!r}") from None
    if arity >= 0 and len(args) != arity:
        raise InputError(f"{kind} takes exactly {arity} argument(s)")
    if arity == -1 and len(args) > 1:
        raise InputError(f"{kind} takes at most one argument")
    return fn(*args)


# ---------------------------------------------------------------------------
# edge-list files


def parse_edge_list(text):
    """Parse the edge-list format.

    One edge per line ("u v"), '#' comments, blank lines ignored. An
    optional "terminals a b" line declares terminals. A line with a single
    token declares an isolated vertex. Returns (graph, terminals or None).
    """
    edges = []
    vertices = []
    terminals = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "terminals":
            if len(tokens) != 3:
                raise InputError(f"line {lineno}: terminals needs two labels")
            if terminals is not None:
                raise InputError(f"line {lineno}: duplicate terminals line")
            terminals = (tokens[1], tokens[2])
            continue
        if len(tokens) == 1:
            vertices.append(tokens[0])
        elif len(tokens) == 2:
            edges.append((tokens[0], tokens[1]))
        else:
            raise InputError(f"line {lineno}: expected 'u v', got {raw!r}")
    g = Graph.from_edges(edges, vertices=vertices)
    if terminals is not None:
        for t in terminals:
            if t not in g:
                raise InputError(f"terminal {t!r} is not a vertex")
    return g, terminals


def format_edge_list(g, terminals=None):
    lines = []
    if terminals is not None:
        lines.append(f"terminals {terminals[0]} {terminals[1]}")
    covered = set()
    for u, v in g.edges():
        lines.append(f"{u} {v}")
        covered.update((u, v))
    for v in g.vertices:
        if v not in covered:
            lines.append(v)
    return "\n".join(lines) + "\n"
