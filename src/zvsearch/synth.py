"""Constructive synthesis of aligned 3-searches on subdivisions.

The builders here realize width-3 searches by recursion over a simple
GSP decomposition: sweeps that clear a ball around a pinned vertex, one
amalgamation per composition operation, and a splitter that cuts a
bridged side into two halves joined through a long connector path.

The amalgamations are unchecked building blocks: they validate their
inputs but trust the searches they are handed. `synthesize` re-simulates
the final bundle once, on the one derived host it builds, and checks its
floors; nothing it returns is trusted on paper alone.
"""

from dataclasses import dataclass, field

from .errors import InputError
from .game import check_aligned_search, is_successful, simulate
from .graphs import (
    Graph,
    SubdividedGraph,
    edge_key,
    grid_graph,
    separating_bridges,
    subdivision_label,
)
from .gsp import (
    GspTree,
    TerminalGraph,
    _fold,
    invert,
    is_simple,
    node,
    subdivide_decomposition,
)

__all__ = [
    "AlignedSearchBundle",
    "SynthTask",
    "clear_ball_outward",
    "clear_ball_inward",
    "amalgamate_series",
    "amalgamate_branch",
    "amalgamate_branch_prime",
    "amalgamate_parallel",
    "split_at_bridge",
    "synthesize",
    "grid_search",
]


@dataclass(frozen=True)
class AlignedSearchBundle:
    """A subdivided host plus a verified 3-search aligned to (a, b).

    floors_satisfied maps every base edge to the interior count the host
    actually carries, so callers can confirm their demands were met.
    stats carries assembly bookkeeping (operation, host size, flags).
    """

    host: SubdividedGraph
    search: tuple
    alignment: tuple
    floors_satisfied: dict
    stats: dict = field(default_factory=dict)

    def to_record(self):
        return {
            "base_edges": [list(e) for e in sorted(self.host.base.edges())],
            "counts": [[u, v, c] for (u, v), c in sorted(self.host.counts.items())],
            "search": [sorted(step) for step in self.search],
            "alignment": list(self.alignment),
            "floors_satisfied": [
                [u, v, c] for (u, v), c in sorted(self.floors_satisfied.items())
            ],
            "stats": self.stats,
        }

    @classmethod
    def from_record(cls, rec):
        base = Graph.from_edges(tuple(e) for e in rec["base_edges"])
        host = SubdividedGraph(base, {edge_key(u, v): c for u, v, c in rec["counts"]})
        return cls(
            host,
            tuple(frozenset(step) for step in rec["search"]),
            tuple(rec["alignment"]),
            {edge_key(u, v): c for u, v, c in rec["floors_satisfied"]},
            dict(rec.get("stats", {})),
        )


@dataclass(frozen=True)
class SynthTask:
    """Deferred synthesis of one side of a composition.

    `base` names the terminal graph the side stands for; `run` takes a
    floor map (base edge -> minimum interior count) and must return a
    verified bundle on a subdivision meeting it. Amalgamations that pin a
    terminal compute their floor demands from `base` before calling run.
    """

    base: TerminalGraph
    run: object


def _attained(host):
    return {e: host.count(e) for e in host.base.edges()}


def _require_overlap(h0, h1, shared, op):
    got = h0.shared_vertices(h1)
    if got != set(shared):
        raise InputError(
            f"{op} amalgamation needs hosts overlapping exactly at "
            f"{sorted(map(str, shared))}, found {sorted(map(str, got))}"
        )


def _merge_hosts(*hosts):
    base = hosts[0].base
    for h in hosts[1:]:
        base = base.union(h.base)
    counts = {}
    for h in hosts:
        counts.update(h.counts)
    return SubdividedGraph(base, counts)


# ---------------------------------------------------------------------------
# ball clearing


def _sweep_chains(host, center, radius, need, direction):
    base = host.base
    if center not in base:
        raise InputError(f"{center!r} is not a base vertex of the host")
    chains = sorted(
        (host.chain_from((center, u), center) for u in base.neighbors(center)),
        key=lambda ch: str(ch[-1]),
    )
    if not chains:
        raise InputError(f"{center!r} is isolated, nothing to sweep")
    for ch in chains:
        if len(ch) - 2 < need:
            e = edge_key(ch[0], ch[-1])
            raise InputError(
                f"edge {e} carries {len(ch) - 2} interior vertices but the "
                f"{direction} sweep of radius {radius} needs at least {need}"
            )
    return chains


def clear_ball_outward(host, w, v, r):
    """Sweep outward from w along each incident path in turn, so that the
    whole radius-r ball around w ends cleared.

    The first swept path gets the longest run because it erodes, one
    vertex per step, while the remaining paths are handled; the geometric
    step counts 2^(d-i) * r absorb exactly that loss. Length works out to
    (2^d - 1) * r, w sits in every step, and the search is aligned to
    (w, v) since no other base vertex is ever cleared.
    """
    if w == v:
        raise InputError("ball clearing needs distinct pinned and avoided vertices")
    d = host.base.degree(w)
    need = (1 << (d - 1)) * r + 1 if d else 0
    chains = _sweep_chains(host, w, r, need, "outward")
    steps = []
    for i, ch in enumerate(chains, start=1):
        for t in range(1, (1 << (d - i)) * r + 1):
            steps.append(frozenset({w, ch[t], ch[t + 1]}))
    return tuple(steps)


def clear_ball_inward(host, v, w, r):
    """Mirror of the outward sweep: everything outside the radius-r ball
    around v starts cleared and the search walks each incident path down
    to v, shortest run first.

    Each window leads one position ahead of the eroding front, so the
    front is first halted and then pushed back; in particular v itself is
    only cleared on the very last step, which is what keeps the search
    aligned to (w, v) over the initially cleared set.
    """
    if v == w:
        raise InputError("ball clearing needs distinct pinned and avoided vertices")
    d = host.base.degree(v)
    need = (1 << (d - 1)) * r if d else 0
    chains = _sweep_chains(host, v, r, need, "inward")
    steps = []
    for i, ch in enumerate(chains, start=1):
        span = (1 << (i - 1)) * r
        for t in range(1, span + 1):
            steps.append(frozenset({v, ch[span - t + 1], ch[span - t + 2]}))
    return tuple(steps)


# ---------------------------------------------------------------------------
# amalgamation


def amalgamate_series(b0, b1):
    """Chain two bundles end to start.

    The shared terminal stays uncleared through the whole first search by
    its alignment, then is pinned by the second search's alignment, so the
    plain concatenation works without any connective tissue.
    """
    a, c = b0.alignment
    c1, b = b1.alignment
    if c != c1:
        raise InputError(
            f"alignments do not chain: {b0.alignment} then {b1.alignment}"
        )
    _require_overlap(b0.host, b1.host, {c}, "series")
    host = _merge_hosts(b0.host, b1.host)
    search = tuple(b0.search) + tuple(b1.search)
    stats = {"op": "series", "host_vertices": host.n, "search_length": len(search)}
    return AlignedSearchBundle(host, search, (a, b), _attained(host), stats)


def amalgamate_branch(task0, b1):
    """Hang a pendant bundle at the first terminal.

    A ball of radius |S_1| is cleared around the shared vertex first, so
    it survives the pendant's search; the main search then runs as if
    from scratch. The ball requires every edge at the shared vertex to be
    subdivided 2^(d-1) * |S_1| + 1 times, which is demanded from task0.
    """
    a, b = task0.base.terminals
    if b1.alignment[0] != a:
        raise InputError(
            f"pendant alignment {b1.alignment} does not start at the shared "
            f"terminal {a!r}"
        )
    if set(task0.base.graph.vertices) & set(b1.host.base.vertices) != {a}:
        raise InputError("branch amalgamation allows overlap only at the shared terminal")
    r = len(b1.search)
    d = task0.base.graph.degree(a)
    demand = {
        edge_key(a, u): (1 << (d - 1)) * r + 1
        for u in task0.base.graph.neighbors(a)
    }
    b0 = task0.run(demand)
    _require_overlap(b0.host, b1.host, {a}, "branch")
    host = _merge_hosts(b0.host, b1.host)
    search = clear_ball_outward(b0.host, a, b, r) + tuple(b1.search) + tuple(b0.search)
    stats = {
        "op": "branch",
        "host_vertices": host.n,
        "search_length": len(search),
        "ball_radius": r,
    }
    return AlignedSearchBundle(host, search, (a, b), _attained(host), stats)


def amalgamate_branch_prime(task0, b1):
    """Hang a pendant bundle at the second terminal.

    The main search runs first with b withheld from its final step, which
    leaves exactly b and then an eroding ball around it dirty while the
    pendant is cleared; an inward sweep of radius |S_1| + 1 finishes the
    job. The pendant bundle must be aligned into the shared terminal.
    """
    a, b = task0.base.terminals
    if b1.alignment[1] != b:
        raise InputError(
            f"pendant alignment {b1.alignment} does not end at the shared "
            f"terminal {b!r}"
        )
    if set(task0.base.graph.vertices) & set(b1.host.base.vertices) != {b}:
        raise InputError(
            "branch-prime amalgamation allows overlap only at the shared terminal"
        )
    r = len(b1.search) + 1
    d = task0.base.graph.degree(b)
    demand = {
        edge_key(b, u): (1 << (d - 1)) * r for u in task0.base.graph.neighbors(b)
    }
    b0 = task0.run(demand)
    _require_overlap(b0.host, b1.host, {b}, "branch-prime")
    assert b0.search and b in b0.search[-1], "main search must touch b last"
    trimmed = tuple(b0.search[:-1]) + (b0.search[-1] - {b},)
    host = _merge_hosts(b0.host, b1.host)
    search = trimmed + tuple(b1.search) + clear_ball_inward(b0.host, b, a, r)
    stats = {
        "op": "branch_prime",
        "host_vertices": host.n,
        "search_length": len(search),
        "ball_radius": r,
    }
    return AlignedSearchBundle(host, search, (a, b), _attained(host), stats)


def amalgamate_parallel(task0, b1, b2):
    """Run two pendant bundles and a main bundle in parallel position.

    b1 hangs at a with free end c, b2 hangs at b with free end d, and a
    fresh connector path from c to d ties them together. The schedule is

        ball out at a, S_1, sweep connector away from c, S_0,
        sweep connector toward d, ({d}), S_2, ball in at b.

    The connector is long enough (|S_0| + 4 interior vertices) that the
    front parked on it survives S_0's erosion; the singleton {d} step
    hands the connector's end over to S_2's pinned terminal.
    """
    a, b = task0.base.terminals
    if b1.alignment[0] != a:
        raise InputError(f"first pendant {b1.alignment} does not start at {a!r}")
    if b2.alignment[1] != b:
        raise InputError(f"second pendant {b2.alignment} does not end at {b!r}")
    c = b1.alignment[1]
    d = b2.alignment[0]
    g0 = task0.base.graph
    if set(g0.vertices) & set(b1.host.base.vertices) != {a}:
        raise InputError("parallel amalgamation: first pendant may share only a")
    if set(g0.vertices) & set(b2.host.base.vertices) != {b}:
        raise InputError("parallel amalgamation: second pendant may share only b")
    if set(b1.host.base.vertices) & set(b2.host.base.vertices):
        raise InputError("parallel amalgamation: pendants must be disjoint")
    if set(b2.host.base.neighbors(b)) == {d} and not b2.host.count(b, d):
        # the window sealing the connector at d pins b, and with no other
        # neighbor left dirty b would come clean right there, well before
        # the closing sweep
        raise InputError(
            f"parallel amalgamation: {d!r} is the only neighbor of {b!r} in "
            "the second pendant's host; subdivide the pendant between them"
        )

    delta = max(g0.degree(a), g0.degree(b))
    demand_a = (1 << (delta - 1)) * len(b1.search) + 1
    demand_b = (1 << (delta - 1)) * (len(b2.search) + 1)
    demand = {}
    for u in g0.neighbors(a):
        demand[edge_key(a, u)] = demand_a
    sum_edges = []
    for u in g0.neighbors(b):
        e = edge_key(b, u)
        if e in demand:
            # one edge serving both terminals takes the combined demand
            demand[e] += demand_b
            sum_edges.append(e)
        else:
            demand[e] = demand_b
    b0 = task0.run(demand)
    _require_overlap(b0.host, b1.host, {a}, "parallel")
    _require_overlap(b0.host, b2.host, {b}, "parallel")

    length = len(b0.search)
    connector = SubdividedGraph(
        Graph.from_edges([(c, d)]), {edge_key(c, d): length + 4}
    )
    _require_overlap(b1.host, connector, {c}, "parallel")
    _require_overlap(b2.host, connector, {d}, "parallel")
    _require_overlap(b0.host, connector, set(), "parallel")
    host = _merge_hosts(b0.host, b1.host, b2.host, connector)

    q = connector.chain_from((c, d), c)
    s_a = clear_ball_outward(b0.host, a, b, len(b1.search))
    s_pa = tuple(
        frozenset({a, q[t - 1], q[t]}) for t in range(1, length + 4)
    )
    s_pb = tuple(
        frozenset({b, q[t + 2], q[t + 3]}) for t in range(1, length + 3)
    )
    s_b = clear_ball_inward(b0.host, b, a, len(b2.search) + 1)
    search = (
        s_a
        + tuple(b1.search)
        + s_pa
        + tuple(b0.search)
        + s_pb
        + (frozenset({d}),)
        + tuple(b2.search)
        + s_b
    )
    stats = {
        "op": "parallel",
        "host_vertices": host.n,
        "search_length": len(search),
        "connector_count": length + 4,
        "checkpoint_step": len(s_a) + len(b1.search) + len(s_pa) + length + len(s_pb) + 1,
    }
    if sum_edges:
        stats["floor_sum_edges"] = sorted(sum_edges)
    if b0.stats.get("padded_steps"):
        stats["padded_steps"] = b0.stats["padded_steps"]
    return AlignedSearchBundle(host, search, (a, b), _attained(host), stats)


# ---------------------------------------------------------------------------
# bridge splitting


def _holds_edge(tree, c, d):
    return tree.graph.has_edge(c, d)


def _split(t, c, d):
    """Cut subtree t at the edge (c, d), returning decompositions of the
    two components. A side is None while the cut hugs the boundary of the
    subtree holding it; series parents reattach the missing context."""
    if t.is_leaf:
        assert {t.a, t.b} == {c, d}
        return None, None
    t0, t1 = t.children
    if t.op == "series":
        if _holds_edge(t0, c, d):
            left, right = _split(t0, c, d)
            return left, (t1 if right is None else node("series", right, t1))
        left, right = _split(t1, c, d)
        return (t0 if left is None else node("series", t0, left)), right
    if t.op == "parallel":
        raise AssertionError("a separating bridge cannot sit inside a parallel node")
    # branch and branch_alt pendants never separate the outer terminals,
    # so the cut edge lives in child 0; both cut endpoints are fresh
    # subdivision labels, hence never equal to the spine's terminals and
    # neither side collapses away.
    assert _holds_edge(t0, c, d)
    left, right = _split(t0, c, d)
    if t.op == "branch":
        assert left is not None
        return node("branch", left, t1), right
    assert right is not None
    return left, node("branch_alt", right, t1)


def _split_impl(tree):
    tg = tree.terminal_graph()
    found = separating_bridges(tg.graph, tg.a, tg.b)
    if not found:
        raise InputError(
            f"no separating bridge between the terminals {tg.a!r} and {tg.b!r}"
        )
    dist = tg.graph.distances(tg.a)
    origin = min(found, key=lambda e: (min(dist[e[0]], dist[e[1]]), e))
    # Always subdivide the chosen bridge twice. The middle edge then has
    # fresh endpoints, so the halves keep honest, distinct terminals no
    # matter how close the bridge sits to a or b.
    t2 = subdivide_decomposition(tree, {origin: 2})
    m1 = subdivision_label(origin, 1)
    m2 = subdivision_label(origin, 2)
    d2 = t2.graph.distances(tg.a)
    c, d = (m1, m2) if d2[m1] < d2[m2] else (m2, m1)
    left, right = _split(t2, c, d)
    assert left is not None and right is not None
    assert left.terminals == (tg.a, c) and right.terminals == (d, tg.b)
    assert is_simple(left) and is_simple(right)
    return left, (c, d), right, origin


def split_at_bridge(tree):
    """Split a bridged simple decomposition at a separating bridge.

    Picks the bridge nearest the first terminal (ties by edge label),
    subdivides it twice, and returns the two halves plus the middle edge:
    (left tree for (G1, a, c), (c, d), right tree for (G2, d, b)).
    """
    if not is_simple(tree):
        raise InputError("bridge splitting needs a simple decomposition")
    left, mid, right, _ = _split_impl(tree)
    return left, mid, right


# ---------------------------------------------------------------------------
# the synthesizer


def _check_floors(floors, graph):
    out = {}
    for e, f in floors.items():
        k = edge_key(*e)
        if not graph.has_edge(*k):
            raise InputError(f"floor on {k} names a non-edge")
        if f < 0:
            raise InputError(f"negative floor on {k}")
        out[k] = int(f)
    return out


def _restrict(floors, tree):
    return {e: f for e, f in floors.items() if tree.graph.has_edge(*e)}


def _task(tree, floors):
    inherited = _restrict(floors, tree)

    def run(extra):
        merged = dict(inherited)
        for e, f in extra.items():
            merged[e] = max(merged.get(e, 0), f)
        return _synth(tree, merged)

    return SynthTask(tree.terminal_graph(), run)


def _padded(bundle, extra):
    """Prefix singleton steps pinning the first terminal, lengthening the
    search without disturbing success or alignment."""
    if extra <= 0:
        return bundle
    a = bundle.alignment[0]
    search = (frozenset({a}),) * extra + tuple(bundle.search)
    stats = dict(bundle.stats)
    stats["padded_steps"] = stats.get("padded_steps", 0) + extra
    return AlignedSearchBundle(
        bundle.host, search, bundle.alignment, bundle.floors_satisfied, stats
    )


def _pieces(tree):
    """Flatten a parallel composition into its parallel-free pieces.

    A branch whose spine is itself parallel is rewritten on the fly,
    hoisting the pendant onto the spine's first piece; the piece list
    therefore consists of trees whose own top is not a parallel node, and
    every piece of complexity 0 is honestly bridged.
    """
    if tree.op == "parallel":
        return _pieces(tree.children[0]) + _pieces(tree.children[1])
    if tree.op in ("branch", "branch_alt"):
        inner = _pieces(tree.children[0])
        if len(inner) > 1:
            return [node(tree.op, inner[0], tree.children[1])] + inner[1:]
    return [tree]


def _piece_key(piece):
    return piece.graph.n, sorted(map(str, piece.graph.vertices))


def _parallel(tree, floors):
    pieces = _pieces(tree)
    bridged = [p for p in pieces if p.bridged]
    # a simple tree allows at most one piece of complexity 1, and every
    # complexity-0 piece is bridged, so there is always a candidate
    assert bridged, "no bridged piece in a simple parallel composition"
    chosen = min(bridged, key=_piece_key)
    rest = [p for p in pieces if p is not chosen]
    core = rest[0] if len(rest) == 1 else _fold("parallel", rest)

    left, (c, d), right, origin = _split_impl(chosen)
    b1 = _synth(left, _restrict(floors, left))
    b = right.terminals[1]
    rf = _restrict(floors, right)
    if right.graph.degree(b) == 1 and right.graph.has_edge(d, b):
        # keep d away from b in the right half's host, as the parallel
        # amalgamation requires
        e = edge_key(d, b)
        rf[e] = max(rf.get(e, 0), 1)
    b2 = _synth(right, rf)

    inner = _task(core, floors)
    need = floors.get(origin, 0)

    def run(extra):
        got = inner.run(extra)
        # the split edge's floor is carried by the connector path, whose
        # interior count is |S_0| + 4; pad the core search if it is short
        return _padded(got, need - 4 - len(got.search))

    raw = amalgamate_parallel(SynthTask(inner.base, run), b1, b2)

    # Rename the origin chain x .. c .. d .. y to canonical labels of the
    # split edge; every other base edge already carries its own labels.
    x, y = origin if c == subdivision_label(origin, 1) else origin[::-1]
    path = (
        b1.host.chain_from((x, c), x)
        + raw.host.chain_from((c, d), c)[1:]
        + b2.host.chain_from((d, y), d)[1:]
    )
    if x != origin[0]:
        path.reverse()
    remap = {v: subdivision_label(origin, i) for i, v in enumerate(path[1:-1], 1)}
    counts = {e: n for e, n in raw.host.counts.items() if tree.graph.has_edge(*e)}
    counts[origin] = len(path) - 2
    host = SubdividedGraph(tree.graph, counts)
    search = tuple(frozenset(remap.get(v, v) for v in step) for step in raw.search)
    stats = dict(raw.stats)
    stats["host_vertices"] = host.n
    stats["split_edge"] = list(origin)
    return AlignedSearchBundle(host, search, tree.terminals, _attained(host), stats)


def _synth(tree, floors):
    a, b = tree.terminals
    if tree.is_leaf:
        e = edge_key(a, b)
        count = floors.get(e, 0)
        host = SubdividedGraph(tree.graph, {e: count})
        if count == 0:
            search = (frozenset({a, b}),)
        else:
            q = host.chain_from(e, a)
            search = tuple(
                frozenset({a, q[t], q[t + 1]}) for t in range(1, count + 1)
            )
        stats = {"op": "leaf", "host_vertices": host.n, "search_length": len(search)}
        return AlignedSearchBundle(host, search, (a, b), _attained(host), stats)
    t0, t1 = tree.children
    if tree.op == "series":
        return amalgamate_series(
            _synth(t0, _restrict(floors, t0)), _synth(t1, _restrict(floors, t1))
        )
    if tree.op == "branch":
        return amalgamate_branch(_task(t0, floors), _synth(t1, _restrict(floors, t1)))
    if tree.op == "branch_alt":
        pendant = _synth(invert(t1), _restrict(floors, t1))
        return amalgamate_branch_prime(_task(t0, floors), pendant)
    return _parallel(tree, floors)


def synthesize(tg, tree, floors=None):
    """Build a verified aligned 3-search bundle for the terminal graph.

    `tree` must be a simple decomposition of tg; `floors` optionally
    demands minimum interior counts per base edge, which the returned
    host is guaranteed to meet (children may always over-subdivide).
    This is the one place a bundle is checked: the search is re-simulated
    on the derived host, and a bundle that fails the check or its floors
    raises AssertionError, an internal error, also under `python -O`.
    """
    if not isinstance(tree, GspTree):
        raise InputError("synthesis needs a decomposition tree")
    if not is_simple(tree):
        raise InputError("synthesis needs a simple decomposition")
    if tree.graph != tg.graph or tree.terminals != tg.terminals:
        raise InputError("decomposition does not describe the terminal graph")
    checked = _check_floors(floors or {}, tg.graph)
    bundle = _synth(tree, checked)
    try:
        ok, why = check_aligned_search(
            bundle.host.derived, bundle.search, *bundle.alignment, width=3
        )
    except InputError as ex:
        ok, why = False, str(ex)
    if not ok:
        raise AssertionError(f"bundle failed verification: {why}")
    for e, need in checked.items():
        if bundle.host.count(e) < need:
            raise AssertionError(f"floor {need} unmet on {e}")
    return bundle


# ---------------------------------------------------------------------------
# the grid sweep


def grid_search(n, m):
    """The explicit sweep on the n-by-m grid: a window of min(n, m) + 1
    consecutive vertices, in the snake order that walks the short side,
    pushed across the whole grid in min * (max - 1) steps."""
    if min(n, m) < 2:
        raise InputError("grid sweeps need both sides at least 2")
    small = min(n, m)
    big = max(n, m)

    def label(idx):
        if n >= m:
            return f"v{idx}"
        col, row = divmod(idx, small)
        return f"v{row * m + col}"

    steps = tuple(
        frozenset(label(t + off) for off in range(small + 1))
        for t in range(small * (big - 1))
    )
    trace = simulate(grid_graph(n, m), steps)
    if not is_successful(trace):
        raise AssertionError("grid sweep failed to clear the grid")
    return steps
