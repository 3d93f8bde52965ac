"""Constructive synthesis of aligned 3-searches on subdivisions.

The builders here realize width-3 searches by recursion over a simple
GSP decomposition: sweeps that clear a ball around a pinned vertex, one
amalgamation per composition operation, and a splitter that cuts a
bridged side into two halves joined through a long connector path. The
tree already records which subtrees are bridged, so the splitter reads
the bridge off the tree and never searches a graph for one.

The amalgamations are unchecked building blocks: they validate their
inputs but trust the searches they are handed. `synthesize` re-simulates
the final bundle once, on the host's own vertex numbering, and checks
its floors; nothing it returns is trusted on paper alone.

A bundle's size follows from its tree by arithmetic, and `_plan` works
it out without building anything: the interior count of every base
edge and the search length, node for node as `_synth` would build
them. The command line plans before it builds (`_rooted`): it weighs
the classifier's tree against the same assembly rerooted at each edge
of the last block, builds the one with the smallest planned host, and
refuses a plan past `_HOST_CAP` before allocating it.
"""

from dataclasses import dataclass, field

from .errors import InputError, ResourceLimitError
from .game import check_aligned_search, is_successful, simulate
from .graphs import (
    Graph,
    SubdividedGraph,
    edge_key,
    grid_graph,
    subdivision_label,
)
from .gsp import (
    GspTree,
    TerminalGraph,
    _fold,
    _invert,
    _root_block,
    _rootings,
    invert,
    is_simple,
    leaf,
    node,
    recompose,
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
        alignment = rec["alignment"]
        if type(alignment) is not list or len(alignment) != 2 or any(
            type(v) is not str for v in alignment
        ):
            raise ValueError(f"alignment {alignment!r} is not two vertex labels")
        search = rec["search"]
        if type(search) is not list or any(type(step) is not list for step in search):
            raise ValueError("the search is not a list of steps, each a list of labels")
        return cls(
            host,
            tuple(frozenset(step) for step in search),
            tuple(alignment),
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
    b0, sum_edges = _parallel_main(task0, b1, b2)
    c = b1.alignment[1]
    d = b2.alignment[0]
    connector = SubdividedGraph(
        Graph.from_edges([(c, d)]), {edge_key(c, d): len(b0.search) + 4}
    )
    _require_overlap(b1.host, connector, {c}, "parallel")
    _require_overlap(b2.host, connector, {d}, "parallel")
    _require_overlap(b0.host, connector, set(), "parallel")
    host = _merge_hosts(b0.host, b1.host, b2.host, connector)
    q = connector.chain_from((c, d), c)
    return _parallel_bundle(
        host, task0.base.terminals, b0, b1.search, q, b2.search, sum_edges
    )


def _parallel_main(task0, b1, b2):
    """Check the pieces of a parallel amalgamation and run the main task
    with the ball demands at both terminals. Returns the main bundle and
    the edges that took both terminals' demands."""
    a, b = task0.base.terminals
    if b1.alignment[0] != a:
        raise InputError(f"first pendant {b1.alignment} does not start at {a!r}")
    if b2.alignment[1] != b:
        raise InputError(f"second pendant {b2.alignment} does not end at {b!r}")
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
    return b0, sum_edges


def _parallel_bundle(host, terminals, b0, s1, q, s2, sum_edges):
    """The parallel schedule as a bundle on host: the main bundle b0, the
    pendant searches s1 and s2, and q the connector's chain from c to d,
    each under the labels host gives them."""
    a, b = terminals
    length = len(b0.search)
    s_a = clear_ball_outward(b0.host, a, b, len(s1))
    s_pa = tuple(
        frozenset({a, q[t - 1], q[t]}) for t in range(1, length + 4)
    )
    s_pb = tuple(
        frozenset({b, q[t + 2], q[t + 3]}) for t in range(1, length + 3)
    )
    s_b = clear_ball_inward(b0.host, b, a, len(s2) + 1)
    search = (
        s_a
        + tuple(s1)
        + s_pa
        + tuple(b0.search)
        + s_pb
        + (frozenset({q[-1]}),)
        + tuple(s2)
        + s_b
    )
    stats = {
        "op": "parallel",
        "host_vertices": host.n,
        "search_length": len(search),
        "connector_count": length + 4,
        "checkpoint_step": len(s_a) + len(s1) + len(s_pa) + length + len(s_pb) + 1,
    }
    if sum_edges:
        stats["floor_sum_edges"] = sorted(sum_edges)
    if b0.stats.get("padded_steps"):
        stats["padded_steps"] = b0.stats["padded_steps"]
    return AlignedSearchBundle(host, search, (a, b), _attained(host), stats)


# ---------------------------------------------------------------------------
# bridge splitting


def _split_impl(tree, last=False):
    # The separating bridges of a bridged tree are its leaf factors, the
    # leaves reached through series nodes and branch spines, and they lie
    # in order along the a-b chain; the first is the one nearest a, and
    # the last (last=True), nearest b, is the first of invert(tree). The
    # walk descends into the first (last) bridged child, and only the
    # ancestors on its path are rebuilt. The leaf (x, y) is cut as if
    # subdivided twice: the middle edge then has fresh endpoints, so the
    # halves keep honest, distinct terminals however close the bridge
    # sits to a or b.
    if not tree.bridged:
        raise InputError(
            f"no separating bridge between the terminals {tree.a!r} and {tree.b!r}"
        )
    path, t = [], tree
    while not t.is_leaf:
        first = t.op != "series" or (
            not t.children[1].bridged if last else t.children[0].bridged)
        path.append((t, first))
        t = t.children[0 if first else 1]
    x, y = t.terminals
    origin = edge_key(x, y)
    near, far = (1, 2) if x == origin[0] else (2, 1)
    c, d = subdivision_label(origin, near), subdivision_label(origin, far)
    left, right = leaf(x, c), leaf(d, y)
    for t, first in reversed(path):
        t0, t1 = t.children
        if t.op == "series":
            if first:
                right = node("series", right, t1)
            else:
                left = node("series", t0, left)
        elif t.op == "branch":
            left = node("branch", left, t1)
        else:
            right = node("branch_alt", right, t1)
    return left, (c, d), right, origin


def split_at_bridge(tree):
    """Split a bridged simple decomposition at a separating bridge.

    The bridge comes from the tree, not from a search of its graph: it is
    the first leaf factor, the leaf reached through series nodes and
    branch spines that is nearest the first terminal. It is subdivided
    twice, and the result is the two halves plus the middle edge:
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


def _task(tree, floors):
    def run(extra):
        merged = dict(floors)
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
    b1 = _synth(left, floors)
    b = right.terminals[1]
    rf = floors
    if right.graph.degree(b) == 1 and right.graph.has_edge(d, b):
        # keep d away from b in the right half's host, as the parallel
        # amalgamation requires
        e = edge_key(d, b)
        rf = {**floors, e: max(floors.get(e, 0), 1)}
    b2 = _synth(right, rf)

    inner = _task(core, floors)
    need = floors.get(origin, 0)

    def run(extra):
        got = inner.run(extra)
        # the split edge's floor is carried by the connector path, whose
        # interior count is |S_0| + 4; pad the core search if it is short
        return _padded(got, need - 4 - len(got.search))

    b0, sum_edges = _parallel_main(SynthTask(inner.base, run), b1, b2)

    # The origin chain x .. c .. d .. y becomes the split edge's own chain.
    # Its labels are fixed once |S_0| fixes the connector's length, so the
    # connector sweeps are built on them and only the pendants' searches,
    # which hold x .. c and d .. y under the halves' labels, are renamed.
    x, y = origin if c == subdivision_label(origin, 1) else origin[::-1]
    to_c = b1.host.chain_from((x, c), x)[1:]
    from_d = b2.host.chain_from((d, y), d)[:-1]
    total = len(to_c) + len(b0.search) + 4 + len(from_d)
    labels = [subdivision_label(origin, i) for i in range(1, total + 1)]
    if x != origin[0]:
        labels.reverse()
    q = labels[len(to_c) - 1 : total - len(from_d) + 1]
    s1 = _renamed(b1.search, dict(zip(to_c, labels)))
    s2 = _renamed(b2.search, dict(zip(from_d, labels[total - len(from_d) :])))
    counts = {}
    for h in (b0.host, b1.host, b2.host):
        counts.update((e, n) for e, n in h.counts.items() if tree.graph.has_edge(*e))
    counts[origin] = total
    host = SubdividedGraph(tree.graph, counts)
    bundle = _parallel_bundle(host, tree.terminals, b0, s1, q, s2, sum_edges)
    bundle.stats["split_edge"] = list(origin)
    return bundle


def _renamed(steps, remap):
    keys = frozenset(remap)
    return tuple(
        step if keys.isdisjoint(step) else frozenset(remap.get(v, v) for v in step)
        for step in steps
    )


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
        return amalgamate_series(_synth(t0, floors), _synth(t1, floors))
    if tree.op == "branch":
        return amalgamate_branch(_task(t0, floors), _synth(t1, floors))
    if tree.op == "branch_alt":
        pendant = _synth(invert(t1), floors)
        return amalgamate_branch_prime(_task(t0, floors), pendant)
    return _parallel(tree, floors)


# ---------------------------------------------------------------------------
# the size model

# Planned host vertices or search steps past which synth refuses to
# build. Building and printing a bundle takes about 0.6 KB per step:
# K_{2,6} from the classifier's root, 515,641 host vertices and
# 1,033,433 steps, peaked at 650 MB.
_HOST_CAP = 500_000


class _OverCap(Exception):
    pass


def _ends(tree, end):
    """The neighbours of tree's first (end 0) or second (end 1) terminal
    in its graph, read off the leaves below the nodes that keep it as a
    terminal, without the graph."""
    out, stack = [], [(tree, end)]
    while stack:
        t, end = stack.pop()
        if t.op == "leaf":
            out.append(t.a if end else t.b)
            continue
        t0, t1 = t.children
        if t.op == "series":
            stack.append((t1, 1) if end else (t0, 0))
            continue
        stack.append((t0, end))
        if t.op == "parallel":
            stack.append((t1, end))
        elif (t.op == "branch") != bool(end):
            stack.append((t1, 0))
    return out


class _Plan:
    """The sizes _synth would build, planned on Python ints (see _plan).
    A class rather than closures, so that a plan leaves no reference
    cycle for the paused collector."""

    __slots__ = ("room", "steps_cap", "counts", "orders", "interior")

    def __init__(self, room, steps_cap):
        self.room, self.steps_cap = room, steps_cap
        self.counts, self.orders = {}, {}
        self.interior = 0  # the counts planned so far

    def order(self, t):
        # vertices of t's graph; the entry keeps t alive, so no other
        # node can take its id
        got = self.orders.get(id(t))
        if got is None:
            n = 2
            if t.op != "leaf":
                n = self.order(t.children[0]) + self.order(t.children[1])
                n -= 2 if t.op == "parallel" else 1
            self.orders[id(t)] = got = (n, t)
        return got[0]

    def grow(self, by):
        self.interior += by
        if self.interior > self.room:
            raise _OverCap

    def demanded(self, floors, at, ends, value, merged=None):
        # floors, or merged, with value demanded on the edges from at to
        # its neighbours ends, which the plan has yet to reach: they will
        # add at least value each to the interior
        if self.interior + len(ends) * value > self.room:
            raise _OverCap
        merged = dict(floors) if merged is None else merged
        for u in ends:
            e = edge_key(at, u)
            merged[e] = max(merged.get(e, 0), value)
        return merged

    def node(self, t, floors, flip):
        """The search length of t, or of invert(t) when flip."""
        op = t.op
        if op == "leaf":
            e = edge_key(t.a, t.b)
            c = self.counts[e] = floors.get(e, 0)
            if c:
                self.grow(c)
                return c
            return 1
        t0, t1 = t.children
        if op == "series":
            if flip:
                t0, t1 = t1, t0
            length = self.node(t0, floors, flip) + self.node(t1, floors, flip)
        elif op == "parallel":
            length = self.parallel(t, floors, flip)
        else:
            # the pendant hangs at t0's first terminal under a branch node
            # and at its second under branch_alt; inverting swaps the tags
            glue = 0 if op == "branch" else 1
            r = self.node(t1, floors, bool(glue) != flip)
            ends = _ends(t0, glue)
            d = len(ends)
            if glue == flip:  # built by amalgamate_branch
                demand = (1 << (d - 1)) * r + 1
                length = ((1 << d) - 1) * r + r
            else:  # built by amalgamate_branch_prime, radius r + 1
                demand = (1 << (d - 1)) * (r + 1)
                length = r + ((1 << d) - 1) * (r + 1)
            merged = self.demanded(floors, t0.terminals[glue], ends, demand)
            length += self.node(t0, merged, flip)
        if length > self.steps_cap:
            raise _OverCap
        return length

    def parallel(self, t, floors, flip):
        """_parallel on t, or on invert(t) when flip: the split halves,
        the core under the demands at both terminals, the padding and
        the connector. Inverting inverts every piece, and the split of an
        inverted piece at its first bridge is the inversion of the split
        at its last, with the halves swapped."""
        pieces = _pieces(t)
        bridged = [p for p in pieces if p.bridged]
        # _piece_key: a leaf has the fewest vertices, and only one piece
        # can be the edge ab; labels break a tie
        chosen = next((p for p in bridged if p.op == "leaf"), None)
        if chosen is None:
            least = min(map(self.order, bridged))
            tied = [p for p in bridged if self.order(p) == least]
            chosen = tied[0] if len(tied) == 1 else min(tied, key=_labels)
        rest = [p for p in pieces if p is not chosen]
        core = rest[0] if len(rest) == 1 else _fold("parallel", rest)
        at_a = 1 if flip else 0  # the end of t that is the first terminal
        a, b = t.terminals[at_a], t.terminals[1 - at_a]
        if chosen.op == "leaf":
            # the edge ab splits into the leaves a-c and d-b, searched in
            # one step each, and d-b carries one interior vertex
            origin, s1, s2, halves = edge_key(a, b), 1, 1, 1
            self.grow(1)
        else:
            left, (c, d), right, origin = _split_impl(chosen, last=flip)
            # the halves that hang at a and at b, and b's fresh neighbour
            h1, h2, fresh = (right, left, c) if flip else (left, right, d)
            s1 = self.node(h1, floors, flip)
            rf = floors
            if _ends(h2, 1 - at_a) == [fresh]:
                e = edge_key(fresh, b)
                rf = {**floors, e: max(floors.get(e, 0), 1)}
            s2 = self.node(h2, rf, flip)
            # c and d each have one neighbour in their halves, x and y;
            # the chain x .. c .. d .. y takes the split edge's place
            (x,), (y,) = _ends(left, 1), _ends(right, 0)
            halves = self.counts.pop(edge_key(x, c)) + self.counts.pop(edge_key(d, y))
        a_ends, b_ends = _ends(core, at_a), _ends(core, 1 - at_a)
        da, db = len(a_ends), len(b_ends)
        scale = 1 << (max(da, db) - 1)
        demand_a, demand_b = scale * s1 + 1, scale * (s2 + 1)
        merged = self.demanded(floors, a, a_ends, demand_a)
        merged = self.demanded(floors, b, b_ends, demand_b, merged)
        if b in a_ends:
            # one edge serving both terminals takes the combined demand
            e = edge_key(a, b)
            merged[e] = max(floors.get(e, 0), demand_a + demand_b)
        s0 = max(self.node(core, merged, flip), floors.get(origin, 0) - 4)
        self.counts[origin] = halves + s0 + 6
        self.grow(s0 + 6)
        return ((1 << da) - 1) * s1 + s1 + 3 * s0 + 6 + s2 + ((1 << db) - 1) * (s2 + 1)


def _labels(t):
    # _piece_key's tie-break, without the graph
    return sorted(map(str, {v for s in t.walk() if s.op == "leaf" for v in (s.a, s.b)}))


def _plan(tree, floors, room=_HOST_CAP, steps_cap=_HOST_CAP, flip=False):
    """The size of the bundle _synth builds from tree, or from
    invert(tree) when flip, under floors, a checked floor map, without
    building it: (interior count per base edge, search length). It
    returns None as soon as the interior vertices planned so far or a
    demand pass room, or a search length passes steps_cap.

    It follows _synth node for node on Python ints. It makes no search
    step, no host and no graph: terminal degrees are read off the leaves
    (_ends) and vertex counts are summed bottom-up, once per node. The
    only labels it makes are the two fresh terminals of each split of a
    piece that is not a single edge.
    """
    planner = _Plan(room, steps_cap)
    try:
        length = planner.node(tree, floors, flip)
    except _OverCap:
        return None
    return planner.counts, length


def _rooted(g, tree, floors):
    """The tree synth builds for g, a YES graph, given the classifier's
    tree and unchecked floors.

    The other candidates are the classifier's assembly with the block
    its peel leaves last, if that block has 4+ vertices, decomposed from
    each of its edges (gsp._rootings), each read from either end. The
    tree built has the least planned (host vertices, search steps) among
    those no worse than the classifier's tree on both; ties keep the
    classifier's tree, then the first in edge order. There are 2|E(B)|
    candidates, each planned in O(|E(g)|), so they are tried only when
    2 |E(B)| |E(g)| is at most the classifier's planned host, or the
    host cap if that is smaller: the choice never costs more than the
    build it can save. A plan past the cap raises ResourceLimitError,
    before anything is built.
    """
    def sized(plan):
        # (host vertices, search steps) of a plan, or None
        return None if plan is None else (g.n + sum(plan[0].values()), plan[1])

    floors = _check_floors(floors, g)
    plan = _plan(tree, floors, _HOST_CAP - g.n)
    # the plan counts each base edge once
    first, m = sized(plan), g.m if plan is None else len(plan[0])
    best, chosen = first, (tree, False)
    limit = _HOST_CAP if first is None else min(first[0], _HOST_CAP)
    # a block of 4+ vertices has 4+ edges, so with 8 |E(g)| past the
    # limit the rule fails before the peel runs
    if m > g.n and 8 * m <= limit:
        peeled, block = _root_block(g)
        if block.n >= 4 and 2 * block.m * m <= limit:
            # a plan stops once it passes the best host so far or the
            # classifier's length: then it cannot win
            steps_cap = _HOST_CAP if first is None else first[1]
            for t in _rootings(peeled, block):
                for flip in (False, True):
                    room = (_HOST_CAP if best is None else best[0]) - g.n
                    got = sized(_plan(t, floors, room, steps_cap, flip))
                    if got is not None and (best is None or got < best):
                        best, chosen = got, (t, flip)
    if best is None:
        raise ResourceLimitError(
            f"the planned bundle passes the cap of {_HOST_CAP:,} host vertices "
            "or search steps", budget=_HOST_CAP,
        )
    t, flip = chosen
    if t is tree:
        return tree
    t = _invert(t) if flip else t
    try:
        ok = recompose(t) == g and t.simple
    except InputError:
        ok = False
    if not ok:
        raise AssertionError("the rerooted tree is not a simple tree of the graph")
    return t


def synthesize(tg, tree, floors=None):
    """Build a verified aligned 3-search bundle for the terminal graph.

    `tree` must be a simple decomposition of tg; `floors` optionally
    demands minimum interior counts per base edge, which the returned
    host is guaranteed to meet (children may always over-subdivide).
    This is the one place a bundle is checked: the search is re-simulated
    on the host's own numbering, and a bundle that fails the check or its
    floors raises AssertionError, an internal error, also under
    `python -O`.
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
            bundle.host, bundle.search, *bundle.alignment, width=3
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
