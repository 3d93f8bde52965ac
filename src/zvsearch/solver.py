"""Exact solvers and lower-bound certificates.

Three engines live here:

  * a reachability closure over clean sets for the plain game, pruned to
    an antichain of set-maximal states (sound because one round of the
    dynamics is monotone in the protected set),
  * an exact visited-set solver for monotonic searches (no antichain
    there: a bigger clean set can be a strictly worse monotonic
    position, a 3-star already shows it),
  * a subset DP for vertex separation, which equals pathwidth and hands
    us monotonic inspection numbers with a bag-sequence witness.

inspection_number runs the closure only below a cap it already holds:
the largest bag of a path decomposition, whose bag sweep succeeds at
that width. The decomposition is an optimal one from the subset DP
below when the tables fit (cap = pathwidth+1), and a greedy layout's
otherwise, so every n has a cap. When every width below the cap fails,
the merged bag sweep, replayed from the clean start, is the witness.

The first two engines are one breadth-first closure (_closure) over one
batched round map. A state's picks are enumerated in
itertools.combinations order, gathered through a cached index table
when one chunk holds them all, and mapped a fixed-size chunk at a time
as numpy mask arrays: N(outside) comes from per-byte neighbourhood
tables, one gather per byte of the mask instead of a loop over
vertices, and each chunk's distinct clean sets are handled in the order
of their first picks. That keeps the BFS order, the witnesses and the
explored-state counts of the pick-by-pick loop, which the tests keep as
the reference.

The subset DP reads two uint8 tables over all 2^n vertex sets: the
popcount and the boundary size, which is the popcount less that of the
set's clean part after one round with the set protected. So the tables
come from the same per-byte neighbourhood tables and the same round map
as the closure, filled one block of masks at a time.

Plus the boundary-gap certificate: a size i such that no set of size
strictly between i-k and i has boundary below k. No width-k search can
grow its protected set past that gap, so finding one proves the
inspection number exceeds k. The converse fails (K_4 with k=3 has no
gap), which is why the certificate is a separate artifact and not part
of the solver's answer.

Everything returns replayable witnesses; nothing is trusted without a
simulation pass somewhere in the tests.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from itertools import chain, combinations, islice

import numpy as np

from .errors import InputError, ResourceLimitError
from .game import is_monotonic, is_successful, simulate
from .graphs import boundary

# Largest n for the subset tables: three uint8 arrays of 2^n entries,
# 3 bytes per subset, about 12 MB at n = 22; beyond that, refuse.
_MASK_CAP = 22

# Picks per batch of the round map: enough rows to amortise numpy's
# per-call cost, few enough that a state's temporaries stay under a few
# MB whatever n and k are.
_CHUNK = 1 << 14

# Masks per block of the subset tables: their uint64/intp temporaries
# stay around half a MB, whatever n is.
_BLOCK = 1 << 16

# Start vertices the greedy layout tries when no optimal decomposition
# caps the closure: each costs one pass over the graph.
_GREEDY_STARTS = 4


@dataclass(frozen=True)
class SolveResult:
    """Outcome of a solve: the value, a replayable witness, and how much
    state space it cost. value is None when the scan stopped at k_max
    without an answer (that is "don't know up to here", never "no")."""

    value: object  # int or None
    witness: object  # tuple of steps, or None
    explored_states: int
    method: str

    def to_record(self):
        wit = None
        if self.witness is not None:
            wit = [sorted(s) for s in self.witness]
        return {
            "value": self.value,
            "witness": wit,
            "explored_states": self.explored_states,
            "method": self.method,
        }


@dataclass(frozen=True)
class PathDecomposition:
    """Bag sequence; every edge inside some bag, occurrences contiguous."""

    bags: tuple

    @property
    def width(self):
        return max((len(b) for b in self.bags), default=1) - 1


@dataclass(frozen=True)
class BoundaryGapCertificate:
    """Proof that in(G) > k: no achievable set size lies strictly between
    i-k and i, so a width-k search cannot grow past size i."""

    k: int
    i: int
    profile: frozenset

    def to_record(self):
        return {"k": self.k, "i": self.i, "profile": sorted(self.profile)}


def _round_tables(nbr, n, dtype):
    """Per-byte neighbourhood tables: tables[b][x] is the union of nbr[v]
    over the vertices v = 8*b + t for the bits t set in x. Each table
    doubles once per vertex of its byte, so the last one has 2^(n mod 8)
    entries when n is not a multiple of 8."""
    tables = []
    for base in range(0, n, 8):
        row = np.zeros(1, dtype=dtype)
        for v in range(base, min(base + 8, n)):
            row = np.concatenate((row, row | nbr[v]))
        tables.append(row)
    return tables


def _round_map(protected, full, tables):
    """Clean sets after one round, one per protected mask: a protected
    vertex stays clean unless it has a neighbour outside the protected
    set."""
    outside = full ^ protected
    reach = tables[0][(outside & 0xFF).astype(np.intp)]
    for b in range(1, len(tables)):
        reach |= tables[b][((outside >> 8 * b) & 0xFF).astype(np.intp)]
    return protected & ~reach


def _replay(parents, state):
    steps = []
    while parents[state] is not None:
        state, step = parents[state]
        steps.append(step)
    steps.reverse()
    return steps


def _pick_chunks(dirty, j, tables):
    """The j-subsets of dirty in itertools.combinations order, as index
    arrays of at most _CHUNK rows. When one chunk holds them all, they
    are dirty gathered through the table of combinations(range(|dirty|),
    j), which tables caches per (|dirty|, j) for one closure; a longer
    stream is built chunk by chunk."""
    d = dirty.size
    if math.comb(d, j) <= _CHUNK:
        table = tables.get((d, j))
        if table is None:
            flat = np.fromiter(
                chain.from_iterable(combinations(range(d), j)), dtype=np.intp
            )
            table = tables[d, j] = flat.reshape(-1, j)
        yield dirty[table]
        return
    combos = combinations(dirty.tolist(), j)
    while True:
        flat = np.fromiter(
            chain.from_iterable(islice(combos, _CHUNK)), dtype=np.intp
        )
        yield flat.reshape(-1, j)
        if flat.size < _CHUNK * j:
            return


def _closure(g, k, clean_start, state_budget, prune, monotone):
    """Breadth-first closure over clean-set states.

    Plain mode generates only full-size moves over dirty vertices: the
    round map is monotone in the protected set, so padding a smaller
    step never loses a solution. Monotone mode must try every step size
    (padding can overshoot into a state with no monotonic continuation)
    and must keep every visited state instead of a maximal antichain.

    A state's picks are taken in itertools.combinations order, _CHUNK at
    a time, as rows of a numpy index array (see _pick_chunks), and mapped
    in one batch: OR the pick bits into the state, then take N(outside)
    from the byte tables, one gather per byte of the mask. The chunk's
    distinct clean sets (np.unique, put back in the order of their first
    rows) then go through the loop body of a pick-by-pick search (the
    witness check, then the monotone, parent and antichain checks). A
    later row with the same clean set is a no-op in that search: the set
    is already a parent, or it is still dominated, since an archive
    member only ever leaves for a superset. So the BFS order, the
    witnesses and the count of expanded states are those of the
    pick-by-pick search. Masks are uint64 up to 64 vertices and Python
    ints in an object array above that.

    Returns (steps or None, states expanded).
    """
    _, nbr, full = g.masks()
    start = g.to_mask(clean_start)
    if start == full:
        return [], 0
    if k == 0:
        return None, 0
    if k >= g.n:
        return [frozenset(g.vertices)], 1

    dtype = np.uint64 if g.n <= 64 else object
    bits = np.array([1 << i for i in range(g.n)], dtype=dtype)
    tables = _round_tables(nbr, g.n, dtype)
    vs = g.vertices
    parents = {start: None}
    frontier = deque([start])
    archive = [start]
    expanded = 0
    pick_tables = {}
    while frontier:
        state = frontier.popleft()
        expanded += 1
        if expanded > state_budget:
            raise ResourceLimitError(
                f"solver state budget exhausted at k={k}",
                budget=state_budget,
                used=expanded,
            )
        dirty = np.array(
            [i for i in range(g.n) if not state >> i & 1], dtype=np.intp
        )
        top = min(k, dirty.size)
        sizes = range(1, top + 1) if monotone else (top,)
        for j in sizes:
            for picks in _pick_chunks(dirty, j, pick_tables):
                protected = np.bitwise_or.reduce(bits[picks], axis=1) | state
                nxts, rows = np.unique(
                    _round_map(protected, full, tables), return_index=True
                )
                order = np.argsort(rows)
                for nxt, row in zip(nxts[order].tolist(), rows[order].tolist()):
                    if nxt == full:
                        pick = picks[row].tolist()
                        parents[nxt] = (state, frozenset(vs[i] for i in pick))
                        return _replay(parents, nxt), expanded
                    if monotone and (nxt & state != state or nxt == state):
                        continue
                    if nxt in parents:
                        continue
                    if prune and not monotone:
                        if any(other | nxt == other for other in archive):
                            continue
                        archive[:] = [o for o in archive if o | nxt != nxt]
                        archive.append(nxt)
                    pick = picks[row].tolist()
                    parents[nxt] = (state, frozenset(vs[i] for i in pick))
                    frontier.append(nxt)
    return None, expanded


# ---------------------------------------------------------------------------
# plain game


def exists_successful_search(g, k, clean_start=(), state_budget=200_000,
                             prune=True):
    """Steps of a successful search with width <= k, or None.

    None is a proof: the closure is exhaustive over reachable clean
    sets. prune=False disables the antichain and keeps every visited
    state; it exists so tests can cross-check the pruning.
    """
    if k < 0:
        raise InputError("k must be >= 0")
    steps, _ = _closure(g, k, clean_start, state_budget, prune, False)
    return steps


def inspection_number(
    g, k_max=None, clean_start=(), state_budget=200_000, mask_cap=_MASK_CAP
):
    """Smallest width admitting a successful search, as a SolveResult.

    A path decomposition caps the answer: its bag sweep succeeds at width
    cap, its largest bag size. The decomposition is an optimal one
    (cap = pathwidth+1) when the graph has at most mask_cap vertices,
    few enough for the DP, and a greedy layout's otherwise. The closure
    runs only for k < cap. If every such k fails, the answer is the cap,
    and the witness is the bag sweep, merged (see _merge_bags) and
    replayed from clean_start; explored_states then counts the states of
    the failing widths alone. Disconnected graphs decompose: the
    searchers finish one component, move on, and nothing recontaminates
    behind them, so the answer is the max over components.
    """
    if g.n == 0:
        raise InputError("empty graph")
    if k_max is not None and k_max < 1:
        raise InputError("k_max must be >= 1")
    comps = g.components()
    if len(comps) > 1:
        start = frozenset(clean_start)
        best = 0
        all_steps = []
        states = 0
        for comp in comps:
            sub = g.induced(comp)
            res = inspection_number(sub, k_max=k_max,
                                    clean_start=start & comp,
                                    state_budget=state_budget,
                                    mask_cap=mask_cap)
            states += res.explored_states
            if res.value is None:
                return SolveResult(None, None, states, res.method)
            best = max(best, res.value)
            all_steps.extend(res.witness)
        return SolveResult(best, tuple(all_steps), states,
                           "clean-set closure per component")

    bags, source = _cap_bags(g, mask_cap)
    cap = max(len(b) for b in bags)
    top = cap - 1 if k_max is None else min(cap - 1, k_max)
    states = 0
    for k in range(1, top + 1):
        steps, used = _closure(g, k, clean_start, state_budget, True, False)
        states += used
        if steps is not None:
            return SolveResult(
                k, tuple(steps), states, f"clean-set closure below {source}"
            )
    if k_max is not None and k_max < cap:
        return SolveResult(
            None, None, states, f"clean-set closure below {source}"
        )
    # an explicit raise, so that the replay guards the witness under -O too
    steps = _merge_bags(bags, cap)
    if not is_successful(simulate(g, steps, clean_start=clean_start)):
        raise AssertionError("bag sweep failed")
    return SolveResult(
        cap, steps, states, f"bag sweep at {source}, clean-set closure below"
    )


def _cap_bags(g, mask_cap):
    """(bags, name of their width) of the path decomposition that caps
    the scan of a connected graph: an optimal one when the subset tables
    fit, a greedy layout's when n > mask_cap or numpy refuses them."""
    if g.n <= mask_cap:
        try:
            _, decomp = pathwidth(g, mask_cap=mask_cap)
        except ResourceLimitError:
            pass
        else:
            return decomp.bags, "pathwidth+1"
    return _greedy_bags(g), "a greedy layout's width+1"


def _bits(m):
    while m:
        low = m & -m
        yield low.bit_length() - 1
        m ^= low


def _boundary_mask(nbr, m, outside):
    """The vertices of m with a neighbour in outside."""
    out = 0
    for u in _bits(m):
        if nbr[u] & outside:
            out |= 1 << u
    return out


def _greedy_bags(g):
    """Bags of a greedy vertex layout of a connected graph, as pathwidth
    builds them: bag i is the boundary of the first i-1 vertices plus the
    i-th.

    From each of _GREEDY_STARTS start vertices of least degree, every
    step adds the neighbour of the prefix that leaves the prefix's
    boundary smallest (then the one with the fewest neighbours left
    outside, then the first in label order). The layout with the
    smallest largest bag wins."""
    _, nbr, full = g.masks()
    starts = sorted(range(g.n), key=lambda v: (nbr[v].bit_count(), v))
    best = None
    for v in starts[:_GREEDY_STARTS]:
        bags = []
        prefix = bnd = 0
        while True:
            bags.append(bnd | 1 << v)
            prefix |= 1 << v
            rest = full ^ prefix
            bnd = _boundary_mask(nbr, bnd | 1 << v, rest)
            if not rest:
                break
            reach = 0
            for u in _bits(bnd):
                reach |= nbr[u]
            v = min(
                _bits(reach & rest),
                key=lambda u: (
                    _boundary_mask(nbr, bnd | 1 << u, rest ^ 1 << u).bit_count(),
                    (nbr[u] & rest).bit_count(),
                    u,
                ),
            )
        width = max(b.bit_count() for b in bags)
        if best is None or width < best[0]:
            best = width, bags
    return tuple(g.from_mask(b) for b in best[1])


def _merge_bags(bags, cap):
    """Consecutive bags merged while their union has at most cap
    vertices. The merged sweep clears whatever the bag sweep clears: the
    round map R is monotone, and a step S1 from clean set C leaves
    C1 within C | S1, so R(C | S1 | S2) contains R(C1 | S2)."""
    steps = []
    for bag in bags:
        if steps and len(steps[-1] | bag) <= cap:
            steps[-1] |= bag
        else:
            steps.append(frozenset(bag))
    return tuple(steps)


# ---------------------------------------------------------------------------
# monotonic variant


def exists_monotonic_search(g, k, clean_start=(), state_budget=400_000):
    """Steps of a successful search whose clean sets never shrink, or None.

    Exact visited-set exploration; see _closure for why neither the
    antichain nor the full-size-move shortcut is available here.
    """
    if k < 0:
        raise InputError("k must be >= 0")
    steps, _ = _closure(g, k, clean_start, state_budget, False, True)
    return steps


# ---------------------------------------------------------------------------
# pathwidth via vertex separation


def _subset_array(n):
    """One uninitialised uint8 entry per subset of n vertices. A size
    numpy refuses up front, past its limits or more than the host will
    map, is a blown budget, not a crash."""
    try:
        return np.empty(1 << n, dtype=np.uint8)
    except (MemoryError, ValueError) as ex:
        raise ResourceLimitError(
            f"subset tables for n = {n} do not fit in memory "
            f"(2^{n} bytes each: {ex})",
            used=n,
        ) from None


def _mask_tables(g, mask_cap):
    """(popcount, boundary size) for every subset of a graph with at
    most mask_cap vertices, as two uint8 arrays indexed by mask.

    The boundary of a set is the part of it with a neighbour outside, so
    it is the popcount minus that of the set's clean part after one round
    with the set protected: the round map of the closure, on the same
    byte tables, filled _BLOCK masks at a time."""
    n = g.n
    if n > mask_cap:
        raise ResourceLimitError(
            f"subset tables need n <= {mask_cap}, got {n}",
            budget=mask_cap,
            used=n,
        )
    _, nbr, full = g.masks()
    pc = _subset_array(n)
    bnd = _subset_array(n)
    tables = _round_tables(nbr, n, np.uint64)
    for lo in range(0, 1 << n, _BLOCK):
        hi = min(lo + _BLOCK, 1 << n)
        masks = np.arange(lo, hi, dtype=np.uint64)
        count = np.bitwise_count(masks)
        pc[lo:hi] = count
        bnd[lo:hi] = count - np.bitwise_count(_round_map(masks, full, tables))
    return pc, bnd


def _vertex_separation(g, mask_cap):
    """(separation number, layout) of a connected small graph.

    f[S] is the best separation of an ordering of S, filled one layer
    of |S| at a time. f starts at 255, above any boundary, so the min
    over v of f[S ^ (1 << v)] can take every v: for v outside S that is
    a set of the next layer, which still holds 255."""
    n = g.n
    if n == 1:
        return 0, [g.vertices[0]]
    pc, bnd = _mask_tables(g, mask_cap)
    f = _subset_array(n)
    f.fill(255)
    f[0] = 0
    for layer in range(1, n + 1):
        sel = np.nonzero(pc == layer)[0]
        best = f[sel ^ 1]
        for v in range(1, n):
            np.minimum(best, f[sel ^ (1 << v)], out=best)
        f[sel] = np.maximum(best, bnd[sel])

    # rebuild a layout: peel the last vertex of an optimal ordering
    layout = []
    mask = (1 << n) - 1
    while mask:
        target = f[mask]
        for v in range(n):
            if mask >> v & 1 and f[mask ^ (1 << v)] <= target:
                layout.append(g.vertices[v])
                mask ^= 1 << v
                break
        else:
            raise AssertionError("DP table is inconsistent")
    layout.reverse()
    return int(f[(1 << n) - 1]), layout


def pathwidth(g, mask_cap=_MASK_CAP):
    """(pathwidth, PathDecomposition): exact, via vertex separation.

    Bag i is the boundary of the first i-1 layout vertices plus the i-th
    vertex itself. Components are laid out one after another. A
    component of more than mask_cap vertices raises ResourceLimitError.
    """
    if g.n == 0:
        raise InputError("empty graph")
    width = 0
    bags = []
    for comp in g.components():
        sub = g.induced(comp)
        vs, order = _vertex_separation(sub, mask_cap)
        width = max(width, vs)
        prefix = set()
        for v in order:
            bags.append(frozenset(boundary(sub, prefix) | {v}))
            prefix.add(v)
    return width, PathDecomposition(tuple(bags))


def is_path_decomposition(g, bags):
    """Validate bag coverage and contiguity."""
    bags = [frozenset(b) for b in bags]
    seen = set().union(*bags) if bags else set()
    if seen != set(g.vertices):
        return False
    for u, v in g.edges():
        if not any(u in b and v in b for b in bags):
            return False
    for v in g.vertices:
        hits = [i for i, b in enumerate(bags) if v in b]
        if hits[-1] - hits[0] != len(hits) - 1:
            return False
    return True


def monotonic_inspection_number(g, mask_cap=_MASK_CAP):
    """Monotonic inspection number as a SolveResult.

    Equals pathwidth + 1; the bag sequence of an optimal decomposition,
    searched in order, is a monotonic search of that width. The witness
    is simulated before returning, as a cheap self-check that raises
    AssertionError, under python -O too. No clean-set state is explored,
    so explored_states is 0.
    """
    width, decomp = pathwidth(g, mask_cap=mask_cap)
    steps = tuple(decomp.bags)
    trace = simulate(g, steps)
    if not (is_successful(trace) and is_monotonic(trace)):
        raise AssertionError("bag sweep failed")
    return SolveResult(width + 1, steps, 0, "pathwidth + 1")


# ---------------------------------------------------------------------------
# boundary profiles and the gap certificate


def boundary_profile(g, k, mask_cap=_MASK_CAP):
    """Set of sizes |C| over all vertex sets C with boundary below k."""
    if g.n == 0:
        raise InputError("empty graph")
    if k < 0:
        raise InputError("k must be >= 0")
    pc, bnd = _mask_tables(g, mask_cap)
    hit = bnd < k
    return frozenset(int(i) for i in np.unique(pc[hit]))


def boundary_gap_certificate(g, k, mask_cap=_MASK_CAP, profile=None):
    """Smallest size i in [1, n] with no profile member strictly between
    i-k and i, or None.

    A width-k search grows its protected set by at most k per step while
    every intermediate clean set must keep boundary below k; a gap of k
    consecutive missing sizes under i is therefore unreachable. None
    means every i is witnessed, which proves nothing about in(G).
    A caller that has boundary_profile(g, k) already passes it as
    profile, and no subset table is built.
    """
    if profile is None:
        profile = boundary_profile(g, k, mask_cap=mask_cap)
    for i in range(1, g.n + 1):
        if not any(i - k < c < i for c in profile):
            return BoundaryGapCertificate(k, i, profile)
    return None
