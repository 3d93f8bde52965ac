"""Constructive synthesis of aligned 3-searches on subdivisions.

Width-3 searches are built over a simple GSP decomposition from a few
schedules: sweeps that clear a ball around a pinned vertex, one
amalgamation per composition operation, and a splitter that cuts a
bridged side into two halves joined through a long connector path. The
tree already records which subtrees are bridged, so the splitter reads
the bridge off the tree and never searches a graph for one.

`synthesize` runs one walker over the tree (`_Walk`). It reads terminal
degrees off the leaves and lays every step on the final host's labels,
so it derives no inner node's graph and makes one host, the final one.
The same walker in plan mode (`_plan`) counts the steps instead of
making them: the interior count of every base edge and the search
length, without building anything. The command line plans before it
builds (`_rooted`): it weighs the classifier's tree against the same
assembly rerooted at each edge of the last block, builds the one with
the smallest planned host, and refuses a plan past `_HOST_CAP` before
allocating it.

The public amalgamations compose bundles and tasks from the same
schedules. They are unchecked building blocks: they validate their
inputs but trust the searches they are handed. `synthesize`
re-simulates the final bundle once, on the host's own vertex numbering,
and checks its floors; nothing it returns is trusted on paper alone.
"""

import math
from dataclasses import dataclass, field

from .errors import InputError, ResourceLimitError
from .game import check_aligned_search, is_successful, simulate
from .graphs import (
    Graph,
    SubdividedGraph,
    _chain,
    edge_key,
    grid_graph,
    subdivision_label,
)
from .gsp import (
    GspTree,
    TerminalGraph,
    _invert,
    _leaf_edges,
    _rootings,
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
    """A subdivided host plus a 3-search aligned to (a, b), verified only
    where synthesize or `verify --bundle` has replayed it.

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
    bundle on a subdivision meeting it, which the amalgamation trusts.
    Amalgamations that pin a terminal compute their floor demands from
    `base` before calling run.
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
# step schedules
#
# Each schedule is written once, here, and shared by the public building
# blocks below, which read chains off hosts, and by the walker, which
# reads them off its counts. The composite schedules (_hang and
# _parallel_search) take their parts as steps or, in plan mode, as step
# counts: `+` joins either.


def _size(steps):
    # the length of a schedule's part: its steps, or their count
    return steps if type(steps) is int else len(steps)


def _slide(pin, q, start, span):
    """span steps that pin `pin` and slide a window of two along the
    chain q, from q[start] and q[start + 1] on."""
    return tuple(frozenset({pin, q[i], q[i + 1]}) for i in range(start, start + span))


def _need(d, r, outward):
    """The interior vertices each of the d edges at a ball's center
    must carry for a sweep of radius r: 2^(d-1) r, and one more for the
    outward sweep."""
    return (1 << (d - 1)) * r + int(outward) if d else 0


def _demand(at, ends, need):
    # need on every edge from at to one of ends
    return {edge_key(at, u): need for u in ends}


def _ball_out(w, chains, r):
    """The outward sweep at w along chains, sorted by their far ends:
    chain i (from 1) runs 2^(d-i) r steps."""
    d = len(chains)
    return tuple(
        step
        for i, ch in enumerate(chains, start=1)
        for step in _slide(w, ch, 1, (1 << (d - i)) * r)
    )


def _ball_in(v, chains, r):
    """The inward sweep at v along chains, sorted by their far ends:
    chain i (from 1) is walked down to v from its vertex 2^(i-1) r."""
    steps = ()
    for i, ch in enumerate(chains):
        span = (1 << i) * r
        steps += _slide(v, ch[span + 1 : 0 : -1], 0, span)
    return steps


def _hang(s0, s1, ball, at, outward):
    """The branch schedules. Outward, the pendant S_1 hangs at the
    first terminal, at: the ball there, S_1, then the main search S_0.
    Otherwise it hangs at the second, at: S_0 with at withheld from its
    last step, S_1, then the ball at at."""
    if outward:
        return ball + s1 + s0
    if type(s0) is tuple:
        s0 = s0[:-1] + (s0[-1] - {at},)
    return s0 + s1 + ball


def _parallel_demand(a, b, a_ends, b_ends, r1, r2):
    """The demands of a parallel amalgamation on the main side, whose
    terminals a and b have the neighbours a_ends and b_ends there: the
    balls of radius r1 = |S_1| out at a and r2 + 1 = |S_2| + 1 in at b,
    both at the larger degree. An edge ab serves both terminals and
    takes the sum. Returns the demands and the edges that took a sum."""
    d = max(len(a_ends), len(b_ends))
    demand = _demand(a, a_ends, _need(d, r1, True))
    need_b, summed = _need(d, r2 + 1, False), []
    for u in b_ends:
        e = edge_key(b, u)
        if e in demand:
            demand[e] += need_b
            summed.append(e)
        else:
            demand[e] = need_b
    return demand, summed


def _parallel_search(a, b, ball_a, s1, q, s0, s2, ball_b):
    """The parallel schedule, on steps or, with q None, on step counts:

        ball out at a, S_1, sweep the connector q away from c, S_0,
        sweep q toward d, ({d}), S_2, ball in at b.

    q runs from c to d through |S_0| + 4 interior vertices. Returns the
    search and its checkpoint, the number of steps through ({d})."""
    length = _size(s0)
    if q is None:
        away, toward, handover = length + 3, length + 2, 1
    else:
        away, toward = _slide(a, q, 0, length + 3), _slide(b, q, 3, length + 2)
        handover = (frozenset({q[-1]}),)
    head = ball_a + s1 + away + s0 + toward + handover
    return head + s2 + ball_b, _size(head)


def _parallel_stats(length, checkpoint, summed, padded):
    # a parallel bundle's own stats, S_0 being length steps long
    stats = {"op": "parallel", "connector_count": length + 4, "checkpoint_step": checkpoint}
    if summed:
        stats["floor_sum_edges"] = sorted(summed)
    if padded:
        stats["padded_steps"] = padded
    return stats


# ---------------------------------------------------------------------------
# ball clearing


def _sweep_chains(host, center, r, outward):
    # the chains at center, sorted by their far ends, once each is
    # known to have room for the sweep
    base = host.base
    if center not in base:
        raise InputError(f"{center!r} is not a base vertex of the host")
    chains = sorted(
        (host.chain_from((center, u), center) for u in base.neighbors(center)),
        key=lambda ch: str(ch[-1]),
    )
    if not chains:
        raise InputError(f"{center!r} is isolated, nothing to sweep")
    need = _need(len(chains), r, outward)
    for ch in chains:
        if len(ch) - 2 < need:
            e = edge_key(ch[0], ch[-1])
            raise InputError(
                f"edge {e} carries {len(ch) - 2} interior vertices but the "
                f"{'outward' if outward else 'inward'} sweep of radius {r} "
                f"needs at least {need}"
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
    return _ball_out(w, _sweep_chains(host, w, r, True), r)


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
    return _ball_in(v, _sweep_chains(host, v, r, False), r)


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
    return _amalgamate_branch(task0, b1, True)


def amalgamate_branch_prime(task0, b1):
    """Hang a pendant bundle at the second terminal.

    The main search runs first with b withheld from its final step, which
    leaves exactly b and then an eroding ball around it dirty while the
    pendant is cleared; an inward sweep of radius |S_1| + 1 finishes the
    job. The pendant bundle must be aligned into the shared terminal.
    """
    return _amalgamate_branch(task0, b1, False)


def _amalgamate_branch(task0, b1, outward):
    # the pendant b1 hangs at the first terminal (outward) or the second
    a, b = task0.base.terminals
    at, end, name = (a, "start", "branch") if outward else (b, "end", "branch-prime")
    if b1.alignment[0 if outward else 1] != at:
        raise InputError(
            f"pendant alignment {b1.alignment} does not {end} at the shared "
            f"terminal {at!r}"
        )
    g0 = task0.base.graph
    if set(g0.vertices) & set(b1.host.base.vertices) != {at}:
        raise InputError(f"{name} amalgamation allows overlap only at the shared terminal")
    r = len(b1.search) + (0 if outward else 1)
    b0 = task0.run(_demand(at, g0.neighbors(at), _need(g0.degree(at), r, outward)))
    _require_overlap(b0.host, b1.host, {at}, name)
    if outward:
        ball = clear_ball_outward(b0.host, a, b, r)
    else:
        assert b0.search and b in b0.search[-1], "main search must touch b last"
        ball = clear_ball_inward(b0.host, b, a, r)
    host = _merge_hosts(b0.host, b1.host)
    search = _hang(tuple(b0.search), tuple(b1.search), ball, at, outward)
    stats = {
        "op": "branch" if outward else "branch_prime",
        "host_vertices": host.n,
        "search_length": len(search),
        "ball_radius": r,
    }
    return AlignedSearchBundle(host, search, (a, b), _attained(host), stats)


def amalgamate_parallel(task0, b1, b2):
    """Run two pendant bundles and a main bundle in parallel position.

    b1 hangs at a with free end c, b2 hangs at b with free end d, and a
    fresh connector path from c to d ties them together, on the schedule
    of _parallel_search. The connector is long enough (|S_0| + 4
    interior vertices) that the front parked on it survives S_0's
    erosion; the singleton {d} step hands the connector's end over to
    S_2's pinned terminal.
    """
    a, b = task0.base.terminals
    c, d = b1.alignment[1], b2.alignment[0]
    if b1.alignment[0] != a:
        raise InputError(f"first pendant {b1.alignment} does not start at {a!r}")
    if b2.alignment[1] != b:
        raise InputError(f"second pendant {b2.alignment} does not end at {b!r}")
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
    r1, r2 = len(b1.search), len(b2.search)
    demand, summed = _parallel_demand(
        a, b, g0.neighbors(a), g0.neighbors(b), r1, r2
    )
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
    search, checkpoint = _parallel_search(
        a,
        b,
        clear_ball_outward(b0.host, a, b, r1),
        tuple(b1.search),
        connector.chain_from((c, d), c),
        tuple(b0.search),
        tuple(b2.search),
        clear_ball_inward(b0.host, b, a, r2 + 1),
    )
    stats = {"host_vertices": host.n, "search_length": len(search)}
    stats.update(_parallel_stats(
        length, checkpoint, summed, b0.stats.get("padded_steps", 0)
    ))
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
# the walker

# Planned host vertices or search steps past which synth refuses to
# build. Building and printing a bundle takes about 0.6 KB per step:
# K_{2,6} from the classifier's root, 515,641 host vertices and
# 1,033,433 steps, peaked at 650 MB.
_HOST_CAP = 500_000


class _OverCap(Exception):
    pass


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


def _pieces(tree):
    """Flatten a parallel composition into its parallel-free pieces, left
    to right, without recursion.

    A branch whose spine is itself parallel is rewritten on the fly,
    hoisting the pendant onto the spine's first piece; the piece list
    therefore consists of trees whose own top is not a parallel node, and
    every piece of complexity 0 is honestly bridged. The walk follows
    each branch chain down to its spine. A parallel spine hands its
    first child the chain's branches, innermost first, then those handed
    down from above; any other spine ends a piece, the chain's top
    re-hung under the branches handed down.
    """
    out, stack = [], [(tree, ())]
    while stack:
        top, hung = stack.pop()
        spine, chain = top, []
        while spine.op in ("branch", "branch_alt"):
            chain.append(spine)
            spine = spine.children[0]
        if spine.op == "parallel":
            first, second = spine.children
            stack += [(second, ()), (first, (*reversed(chain), *hung))]
            continue
        for b in hung:
            top = node(b.op, top, b.children[1])
        out.append(top)
    return out


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


def _labels(t):
    # the sorted vertex labels of t, without the graph
    return sorted(map(str, set().union(*_leaf_edges(t))))


def _renamed(steps, remap):
    keys = frozenset(remap)
    return tuple(
        step if keys.isdisjoint(step) else frozenset(remap.get(v, v) for v in step)
        for step in steps
    )


class _Walk:
    """One walk over a simple tree, with no graph and no host. In build
    mode each node returns its search steps; in plan mode (see _plan)
    their count, on Python ints. Both modes put every base edge's
    interior count into `counts`, and `stats` holds the last node's own
    stats. A class rather than closures, so that a walk leaves no
    reference cycle for the paused collector."""

    __slots__ = ("build", "room", "steps_cap", "counts", "interior", "stats")

    def __init__(self, build, room, steps_cap):
        self.build, self.room, self.steps_cap = build, room, steps_cap
        self.counts = {}
        self.interior = 0  # the counts walked so far
        self.stats = None

    def grow(self, by):
        self.interior += by
        if self.interior > self.room:
            raise _OverCap

    def demanded(self, floors, demand):
        # floors with demand merged in; the demanded edges, which the walk
        # has yet to reach, will add at least their demands to the interior
        merged, total = dict(floors), self.interior
        for e, f in demand.items():
            total += f
            if f > merged.get(e, 0):
                merged[e] = f
        if total > self.room:
            raise _OverCap
        return merged

    def node(self, t, floors, flip):
        """The search of the bundle built from t, or from invert(t) when
        flip, under floors."""
        op = t.op
        if op == "leaf":
            # the window slides from a down the edge's chain, or with no
            # interior vertex one step holds the edge
            e = edge_key(t.a, t.b)
            c = self.counts[e] = floors.get(e, 0)
            if c:
                self.grow(c)
            if not self.build:
                return c or 1
            a, b = (t.b, t.a) if flip else (t.a, t.b)
            self.stats = {"op": "leaf"}
            return _slide(a, _chain(e, c, a), 1, c) if c else (frozenset({a, b}),)
        if op == "series":
            t0, t1 = t.children[::-1] if flip else t.children
            search = self.node(t0, floors, flip) + self.node(t1, floors, flip)
            if self.build:
                self.stats = {"op": "series"}
        elif op == "parallel":
            search = self.parallel(t, floors, flip, _pieces(t))
        else:
            search = self.branch(t, floors, flip)
        if not self.build and search > self.steps_cap:
            raise _OverCap
        return search

    def ball(self, at, ends, r, outward):
        # the ball sweep at at over its edges to ends, on the chains the
        # walk has given them; either sweep's runs add up to (2^d - 1) r
        if not self.build:
            return ((1 << len(ends)) - 1) * r
        chains = []
        for u in sorted(ends, key=str):
            e = edge_key(at, u)
            chains.append(_chain(e, self.counts[e], at))
        return (_ball_out if outward else _ball_in)(at, chains, r)

    def branch(self, t, floors, flip):
        # the pendant hangs at t0's first terminal under a branch node
        # and at its second under branch_alt; inverting swaps the tags,
        # so a branch_alt's pendant is walked inverted
        t0, t1 = t.children
        glue = 0 if t.op == "branch" else 1
        s1 = self.node(t1, floors, bool(glue) != flip)
        # the pendant hangs at the first terminal (amalgamate_branch) or
        # at the second (amalgamate_branch_prime, radius |S_1| + 1)
        outward = glue == flip
        at, ends = t0.terminals[glue], _ends(t0, glue)
        r = _size(s1) + (0 if outward else 1)
        demand = _demand(at, ends, _need(len(ends), r, outward))
        s0 = self.node(t0, self.demanded(floors, demand), flip)
        if self.build:
            self.stats = {"op": "branch" if outward else "branch_prime", "ball_radius": r}
        return _hang(s0, s1, self.ball(at, ends, r, outward), at, outward)

    def chosen(self, pieces):
        """The piece to split: a bridged one of the fewest vertices, the
        least labels breaking a tie. A leaf has the fewest, and only one
        piece can be the edge ab. A simple tree allows at most one piece
        of complexity 1, and every complexity-0 piece is bridged, so
        there is always a candidate."""
        for p in pieces:
            if p.op == "leaf":
                return p
        bridged = [p for p in pieces if p.bridged]
        least = min(p.n for p in bridged)
        tied = [p for p in bridged if p.n == least]
        return tied[0] if len(tied) == 1 else min(tied, key=_labels)

    def parallel(self, t, floors, flip, pieces):
        """The parallel amalgamation of t, or of invert(t) when flip, given
        t's pieces (see _pieces). The chosen piece is split at a bridge
        into the pendants S_1 at a and S_2 at b; the other pieces form
        the core S_0, walked under the demands at both terminals: a lone
        piece as a node, and more as the parallel amalgamation of just
        those pieces, which share t's terminals, so t is flattened once.
        The core's length is part of t's, which node checks against the
        plan's cap. Inverting inverts every piece, and the split of an
        inverted piece at its first bridge is the inversion of the split
        at its last, with the halves swapped."""
        chosen = self.chosen(pieces)
        rest = [p for p in pieces if p is not chosen]
        at_a = 1 if flip else 0  # the end of t that is the first terminal
        a, b = t.terminals[at_a], t.terminals[1 - at_a]
        left, (c, d), right, origin = _split_impl(chosen, last=flip)
        # the halves that hang at a and at b, and their fresh ends, which
        # the connector joins
        h1, h2, c1, c2 = (right, left, d, c) if flip else (left, right, c, d)
        s1 = self.node(h1, floors, flip)
        rf = floors
        if _ends(h2, 1 - at_a) == [c2]:
            # keep c2 away from b in the second pendant's host, as the
            # parallel amalgamation requires
            e = edge_key(c2, b)
            rf = {**floors, e: max(floors.get(e, 0), 1)}
        s2 = self.node(h2, rf, flip)
        a_ends, b_ends = ([u for p in rest for u in _ends(p, end)] for end in (at_a, 1 - at_a))
        r1, r2 = _size(s1), _size(s2)
        demand, summed = _parallel_demand(a, b, a_ends, b_ends, r1, r2)
        inner = self.demanded(floors, demand)
        s0 = (self.node(rest[0], inner, flip) if len(rest) == 1
              else self.parallel(t, inner, flip, rest))
        # the split edge's floor is carried by the connector, whose
        # interior count is |S_0| + 4: a short S_0 is padded with steps
        # that pin a
        pad = max(0, floors.get(origin, 0) - 4 - _size(s0))
        if self.build:
            # and so were the core's own cores (its stats are the last node's)
            padded = pad + self.stats.get("padded_steps", 0)
            s0 = (frozenset({a}),) * pad + s0
        else:
            s0 += pad
        length = _size(s0)
        # the chain x .. c1 .. c2 .. y takes the split edge's place; c1
        # is the split edge's first or second label, "(x,y)#1" or "#2"
        x, y = origin if c1[-1] == "1" else origin[::-1]
        n1, n2 = self.counts.pop(edge_key(x, c1)), self.counts.pop(edge_key(c2, y))
        total = self.counts[origin] = n1 + length + 6 + n2
        self.grow(length + 6)
        ball_a, ball_b = self.ball(a, a_ends, r1, True), self.ball(b, b_ends, r2 + 1, False)
        if not self.build:
            return _parallel_search(a, b, ball_a, s1, None, s0, s2, ball_b)[0]
        # the pendants hold x .. c1 and c2 .. y under their own labels;
        # the connector is laid on the split edge's
        chain = _chain(origin, total, x)
        s1 = _renamed(s1, dict(zip(_chain(edge_key(x, c1), n1, x)[1:], chain[1:])))
        s2 = _renamed(s2, dict(zip(_chain(edge_key(c2, y), n2, y)[1:], chain[-2::-1])))
        q = chain[n1 + 1 : total + 1 - n2]
        search, checkpoint = _parallel_search(a, b, ball_a, s1, q, s0, s2, ball_b)
        self.stats = _parallel_stats(length, checkpoint, summed, padded)
        self.stats["split_edge"] = list(origin)
        return search


def _plan(tree, floors, room, steps_cap=_HOST_CAP, flip=False):
    """The size of the bundle synthesize builds from tree, or from
    invert(tree) when flip, under floors, a checked floor map, without
    building it: (interior count per base edge, search length). It
    returns None as soon as the interior vertices walked so far or a
    demand pass room, or a search length passes steps_cap.

    It is the walker in plan mode: the same demands, piece choice,
    splits and padding, on step counts instead of steps. It makes no
    search step, no host and no graph: terminal degrees are read off the
    leaves (_ends) and vertex counts off the nodes (GspTree.n).
    The only labels it makes are the two fresh terminals of each split.
    """
    walk = _Walk(False, room, steps_cap)
    try:
        length = walk.node(tree, floors, flip)
    except _OverCap:
        return None
    return walk.counts, length


def _bundle(graph, tree, floors, flip):
    """The unchecked bundle the walker builds from tree, or from
    invert(tree) when flip, under floors, a checked floor map; graph is
    tree's graph and becomes the base of the one host it makes."""
    walk = _Walk(True, math.inf, math.inf)
    search = walk.node(tree, floors, flip)
    host = SubdividedGraph(graph, walk.counts)
    stats = {**walk.stats, "host_vertices": host.n, "search_length": len(search)}
    alignment = tree.terminals[::-1] if flip else tree.terminals
    return AlignedSearchBundle(host, search, alignment, _attained(host), stats)


def _rooted(g, cls, floors):
    """The tree synth builds for g, a YES graph, given its classification
    and unchecked floors.

    The other candidates are the classifier's assembly with the block
    its peel leaves last, if that block has 4+ vertices, rooted at each
    of its edges where that is simple (gsp._rootings), each read from
    either end. They are assembled from the peel cls keeps, whose S/P
    tree of the last block roots them all, so g is peeled and its
    blocks reduced once. The
    walker synthesize builds with plans each one (_plan), the other end
    with flip, so a plan is the size of what synthesize would build; a
    candidate chosen from its other end is inverted once, here. The
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
    tree = cls.tree
    plan = _plan(tree, floors, _HOST_CAP - g.n)
    # the plan counts each base edge once
    first, m = sized(plan), g.m if plan is None else len(plan[0])
    best, chosen = first, (tree, False)
    limit = _HOST_CAP if first is None else min(first[0], _HOST_CAP)
    # a block of 4+ vertices has 4+ edges, so with 8 |E(g)| past the
    # limit the rule fails before the last block's size is read
    if m > g.n and 8 * m <= limit:
        peeled, root, last = cls.peel
        if root.n >= 4 and 2 * root.m * m <= limit:
            # a plan stops once it passes the best host so far or the
            # classifier's length: then it cannot win
            steps_cap = _HOST_CAP if first is None else first[1]
            for t in _rootings(peeled, last):
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
    One walk of the tree (_Walk) lays out the search, and the one host
    it makes is the final one. This is the one place a bundle is
    checked: the search is re-simulated
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
    bundle = _bundle(tg.graph, tree, checked, False)
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
