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
that width. It takes a greedy layout's first, of width w. From an empty
clean set, a boundary-gap certificate (below) at k = w alone settles the
answer at w+1, with no DP: the inspection number is at most pathwidth+1,
so w is then the pathwidth. Otherwise, when the tables fit, the subset
DP below runs as a decision one width under w: it gives an optimal
layout when the pathwidth is below w, and nothing when it is w, where
the greedy layout is optimal too (cap = pathwidth+1). Where the tables
do not fit, the greedy layout caps the scan, so every n has a cap. Nor
does it run the closure at the widths that a certificate already rules
out: from an empty clean set it takes the largest certified width under
the cap, and closes only the widths above it. When every width below the
cap is certified or fails, the merged bag sweep, replayed from the clean
start, is the witness.

The first two engines are one breadth-first closure (_closure) over one
batched round map, which maps a batch of frontier states at a time.
Their picks are read off one cached table per (n, j), the masks of
itertools.combinations(range(n), j): a state's own are the entries
disjoint from it, in the order combinations gives its dirty vertices. A
batch holds at most a fixed number of table rows, and where the table
would outgrow one batch, each state streams its picks from combinations
alone, a chunk at a time. The search ends where its goal is made: only a
pick of a state's whole dirty set reaches the full set, so the first
state made with at most k dirty vertices is the one the search finishes
from, and it is never mapped. Masks are numpy arrays: N(outside) comes
from neighbourhood tables, one gather per chunk of up to 11 bits of the
mask (two chunks up to 22 vertices) instead of a loop over vertices.
Each batch then does in numpy what the pick-by-pick search does row by
row. Rows whose clean set is a parent already go first (a byte per
vertex set up to 16 vertices, a sorted array above), then every row of a
set but its first (row numbers scattered over the 2^n sets, np.unique
above 16 vertices), then the sets inside a member of the antichain
archive, a uint64 array tested in one broadcast; one more broadcast
orders the few that are left. Parents hold pick masks, and only the
witness's steps become vertex sets. That keeps the BFS order, the
witnesses, the explored-state counts and the state at which a budget
runs out of the pick-by-pick loop, which the tests keep as the
reference.

The vertex-separation DP keeps one uint8 entry per vertex set, but
visits only the sets that can start a layout no wider than a bound its
caller gives, a greedy layout's width or one less: it grows them one
layer of set sizes at a time, by one vertex each, and takes each new
set's boundary (the part of it that one round with the set protected
leaves dirty) from the same neighbourhood tables as the closure. The
boundary alone decides whether a set is kept, and sets its value unless
it is below the value of the set it grew from: only those few sets read
their predecessors.

The boundary profile, the sizes of the sets whose boundary is smaller
than k, has two engines. One sweeps all 2^n sets a block of masks at a
time, on the closure's neighbourhood tables, and keeps only the least
boundary of each set size: the profile at every k is read off those n+1
numbers. The other visits the separators instead, the sets B of fewer
than k vertices: a set with boundary B is B plus components of G - B,
so each B adds |B| plus the subset sums of those components' sizes.
There are sum over r < k of C(n, r) of them, far fewer than 2^n on the
sparse graphs where k is small, and it works at any n that its budget
of search steps allows. The profile takes the sweep only when it is
cheaper.

Plus the boundary-gap certificate: a size i such that no set of size
strictly between i-k and i has boundary below k. No width-k search can
grow its protected set past that gap, so finding one proves the
inspection number exceeds k, and every width below k too. The converse
fails (K_4 with k=3 has no gap), so a certificate only ever skips
closures: where the largest certified width is the cap less one, it
settles the value, and the answer names it.

Everything returns replayable witnesses; nothing is trusted without a
simulation pass somewhere in the tests.

numpy is imported inside the functions that use it, so importing this
module, or the package, does not load it: callers that never run one
of the numpy engines above (the classifier, synthesis, verification, a
boundary profile from separators) never pay for numpy's import.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, combinations, islice

from .errors import InputError, ResourceLimitError
from .game import is_monotonic, is_successful, simulate

# Largest n for the subset tables: one uint8 array of 2^n entries for
# the separation DP, 4 MB at n = 22, and a sweep of 2^n masks for the
# boundary profile; beyond that, refuse. 2^_MASK_CAP also bounds the
# search steps of a boundary profile from separators.
_MASK_CAP = 22

# Masks of the sweep per search step of the separators at which
# boundary_profile's two engines cost about the same: a step of a search
# of G - B takes about 0.2 us in pure Python, a mask of the sweep 4-5 ns
# (2 vCPUs).
_TABLE_RATIO = 48

# Bits of a set of sizes whose shift costs about one step of a search of
# G - B: either is about 0.25 us, and a shift of n bits about
# 0.25 * (1 + n / 4096) us.
_SHIFT_BITS = 4096

# Rows per batch of the round map, pick-table rows of a batch of states
# or streamed picks of one state: enough to amortise numpy's per-call
# cost, few enough that a batch's temporaries stay under a few MB
# whatever n and k are.
_CHUNK = 1 << 14

# Largest n whose masks fit one uint64; above it, masks are Python ints
# in object arrays.
_WORD_BITS = 64

# Largest n for which the closure keeps a byte per vertex set to say
# which sets are parents, and a slot per set for a row number to dedupe a
# batch: 2^16 bytes plus 2^16 intp entries, about half a MB. Above it,
# the parents are one sorted array.
_TABLE_BITS = 16

# Entries per block of the separation DP's candidates: their intp
# temporaries stay around half a MB, whatever n is.
_BLOCK = 1 << 16

# Masks per block of the least-boundary sweep: a block's uint64
# temporaries stay under a tenth of a MB.
_SWEEP = 1 << 13

# Largest n for the least-boundary sweep, whatever the subset budget. It
# keeps nothing per set, so no allocation stops it; 2^32 masks take about
# 20 s (4-5 ns a mask on 2 vCPUs), and each vertex more doubles that.
_SWEEP_CAP = 32

# Start vertices the greedy layout tries, for the cap of a solve and the
# bound of the separation DP: each costs one pass over the graph.
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
    certificate: object = None  # BoundaryGapCertificate that settled it

    def to_record(self):
        wit = None
        if self.witness is not None:
            wit = [sorted(s) for s in self.witness]
        doc = {
            "value": self.value,
            "witness": wit,
            "explored_states": self.explored_states,
            "method": self.method,
        }
        if self.certificate is not None:
            doc["certificate"] = {"k": self.certificate.k,
                                  "i": self.certificate.i}
        return doc


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


@lru_cache(maxsize=2)
def _round_tables(nbr, n, dtype):
    """Neighbourhood tables, one per chunk of the mask's bits:
    tables[c][x] is the union of nbr[v] over the vertices v = w*c + t
    for the bits t set in x. uint64 masks split into ceil(n/11) chunks
    of equal width w <= 11, so n <= 11 takes one gather and n <= 22 two,
    each from a table of at most 2^11 entries. Object masks, above 64
    vertices, keep bytes (w = 8): their entries are Python ints of n
    bits, and 2^11 of them per chunk would cost eight times the memory.
    Each table doubles once per vertex of its chunk, so the last one is
    smaller when w does not divide n.

    nbr is a tuple, so that one solve builds the tables once for the
    separation DP, the certificate's sweep and every width of the
    closure. The tables are shared, so they are read-only."""
    import numpy as np
    width = 8 if dtype is object else math.ceil(n / math.ceil(n / 11))
    tables = []
    for base in range(0, n, width):
        row = np.zeros(1, dtype=dtype)
        for v in range(base, min(base + width, n)):
            row = np.concatenate((row, row | nbr[v]))
        row.flags.writeable = False
        tables.append(row)
    return tables


def _reach(masks, tables):
    """The neighbourhood of each mask, one gather per chunk of its bits;
    the first table, always full, has 2^w entries for chunks of w bits.
    The masks hold no vertex at or above n, so the last chunk needs no
    mask of its own. A uint64 chunk indexes its table as a view, since
    it is far below 2^63; object masks convert."""
    import numpy as np
    width = tables[0].size.bit_length() - 1
    last = len(tables) - 1
    for c, table in enumerate(tables):
        part = masks >> width * c if c else masks
        if c < last:
            part = part & (1 << width) - 1
        part = part.astype(np.intp) if part.dtype == object else part.view(np.intp)
        if c:
            reach |= table[part]
        else:
            reach = table[part]
    return reach


def _round_map(protected, full, tables):
    """Clean sets after one round, one per protected mask: a protected
    vertex stays clean unless it has a neighbour outside the protected
    set."""
    return protected & ~_reach(full ^ protected, tables)


def _replay(parents, state, vs):
    """The steps from the clean start to state, each read off the mask of
    the pick that reached the next state."""
    steps = []
    while parents[state] is not None:
        state, pick = parents[state]
        steps.append(frozenset(vs[i] for i in _bits(pick)))
    steps.reverse()
    return steps


# a solve of many graphs meets many (n, j): the bench solve corpus about 50
@lru_cache(maxsize=64)
def _pick_table(n, j, dtype):
    """The masks of combinations(range(n), j), in that order. Those of a
    state's picks are the entries disjoint from the state, in the order
    of combinations(dirty, j). Shared, so read-only."""
    import numpy as np
    bits = np.array([1 << i for i in range(n)], dtype=dtype)
    flat = np.fromiter(chain.from_iterable(combinations(range(n), j)),
                       dtype=np.intp)
    table = np.bitwise_or.reduce(bits[flat.reshape(-1, j)], axis=1)
    table.flags.writeable = False
    return table


def _batch_rows(states, table, full, tables):
    """(pos, clean sets, pick masks) of every pick of a batch of states,
    mapped in one go, in the order of the pick-by-pick search: pos is the
    row's state in the batch. A state's picks are the table entries
    disjoint from it, so one (states x table) filter finds them all."""
    pos, col = ((table & states[:, None]) == 0).nonzero()
    picks = table[col]
    return pos, _round_map(picks | states[pos], full, tables), picks


def _streamed_rows(state, sizes, bits, full, tables, chunk):
    """(pos, clean sets, pick masks) of the picks of one state, when the
    pick table would be longer than a chunk, chunk rows at a time: the
    j-subsets of its dirty vertices for each j in sizes, in combinations
    order. pos is 0, the state's place in its batch of one."""
    import numpy as np
    dirty = [i for i in range(len(bits)) if not state >> i & 1]
    for j in sizes:
        combos = combinations(dirty, j)
        while True:
            flat = np.fromiter(
                chain.from_iterable(islice(combos, chunk)), dtype=np.intp
            )
            if not flat.size:
                break
            picks = np.bitwise_or.reduce(bits[flat.reshape(-1, j)], axis=1)
            nxts = _round_map(picks | state, full, tables)
            yield np.zeros(picks.size, dtype=np.intp), nxts, picks
            if flat.size < chunk * j:
                break


class _Parents:
    """The clean sets a closure has made parents, tested a batch at a
    time. Up to _TABLE_BITS vertices a byte per set of the 2^n says which
    are in, and a slot per set for a row number dedupes a batch in linear
    time; above, the parents are one sorted array, and np.unique
    dedupes."""

    def __init__(self, n, start, dtype):
        import numpy as np
        if n <= _TABLE_BITS:
            self.table = np.zeros(1 << n, dtype=np.bool_)
            self.table[start] = True
            self.slots = np.empty(1 << n, dtype=np.intp)
        else:
            self.table = None
            self.sorted = np.array([start], dtype=dtype)

    def absent(self, sets):
        """Whether each of sets is no parent yet."""
        import numpy as np
        if self.table is not None:
            return ~self.table[sets.view(np.intp)]
        at = np.searchsorted(self.sorted, sets)
        return self.sorted[np.minimum(at, self.sorted.size - 1)] != sets

    def first(self, sets):
        """The index of the first of each distinct set, in order. Row
        numbers are scattered in reverse, so that the first row of a set
        is the one written last: numpy writes a one-dimensional fancy
        assignment in index order."""
        import numpy as np
        if self.table is None:
            _, first = np.unique(sets, return_index=True)
            first.sort()
            return first
        keys = sets.view(np.intp)
        rows = np.arange(keys.size)
        self.slots[keys[::-1]] = rows[::-1]
        return (self.slots[keys] == rows).nonzero()[0]

    def add(self, sets):
        """Make sets, none of them in yet, parents."""
        import numpy as np
        if self.table is not None:
            self.table[sets.view(np.intp)] = True
        else:
            sets = np.sort(sets)
            self.sorted = np.insert(
                self.sorted, np.searchsorted(self.sorted, sets), sets)


def _inside(sets, others):
    """Whether each of sets lies inside some member of others, tested in
    broadcasts of at most _CHUNK pairs."""
    import numpy as np
    out = np.zeros(sets.size, dtype=np.bool_)
    if others.size:
        outside = ~others
        step = max(1, _CHUNK // others.size)
        for lo in range(0, sets.size, step):
            out[lo:lo + step] = (
                (sets[lo:lo + step, None] & outside) == 0).any(axis=1)
    return out


def _antichain(sets, archive):
    """(accepted, archive) for a batch's new clean sets, distinct, none a
    parent, in row order: the indices of the sets that the pick-by-pick
    search would add to the antichain archive, and the archive after
    them.

    That search drops a set inside an archive member, else removes the
    members inside it and appends it. A member leaves only for a superset,
    so a set inside a member before the batch is still inside one when
    the search reaches it. A set inside an earlier set of the batch is
    dropped too: that set was accepted, or lies inside an accepted one in
    turn. So one broadcast of the sets against the archive and
    themselves, in row chunks of at most _CHUNK pairs, settles the batch.
    Each set contains itself, so the first set that contains it is a
    member or an earlier set unless it is itself, and then it is
    accepted; it stays in the archive when no other set contains it. A
    member leaves when one of those contains it."""
    import numpy as np
    old = archive.size
    outside = ~np.concatenate((archive, sets))
    accepted = np.empty(sets.size, dtype=np.bool_)
    top = np.empty(sets.size, dtype=np.bool_)
    step = max(1, _CHUNK // outside.size)
    for lo in range(0, sets.size, step):
        hit = (sets[lo:lo + step, None] & outside) == 0
        own = np.arange(old + lo, old + lo + hit.shape[0])
        accepted[lo:lo + step] = hit.argmax(axis=1) == own
        top[lo:lo + step] = hit.sum(axis=1) == 1
    top = sets[top]
    archive = np.concatenate((archive[~_inside(archive, top)], top))
    return accepted.nonzero()[0], archive


def _closure(g, k, clean_start, state_budget, prune, monotone):
    """Breadth-first closure over clean-set states.

    Plain mode generates only full-size moves over dirty vertices: the
    round map is monotone in the protected set, so padding a smaller
    step never loses a solution. Monotone mode must try every step size
    (padding can overshoot into a state with no monotonic continuation)
    and must keep every visited state instead of a maximal antichain.

    The search ends where its goal state is made, not where it is
    popped. One round keeps only protected vertices clean, so a pick
    reaches the full set exactly when it is the state's whole dirty set
    D; a pick has at most k vertices, so only a state with |D| <= k
    finishes, and it finishes with D: its one pick in plain mode, its
    largest in monotone mode. States are popped in the order they are
    made, so the pick-by-pick search returns at the first state made
    (the start first) whose D has at most k vertices, once it has
    expanded every state made before it: the count is that state's
    index plus one, and the witness is its path plus D. Such a state is
    never popped, so a popped state's picks are exactly the entries of
    the pick table disjoint from it.

    Picks are taken from the table of every pick of the graph, the masks
    of combinations(range(n), j) for the step sizes j (j-major in
    monotone mode, see _pick_table), when it has at most _CHUNK rows.
    Frontier states are then popped into a batch while it holds at most
    _CHUNK table rows, and the batch is mapped in one go: OR each
    state's picks into it, and take N(outside) from the neighbourhood
    tables, one gather per chunk of the mask. Past a table of _CHUNK
    rows, each state has its picks streamed from itertools.combinations
    alone, _CHUNK rows at a time.

    Each batch of rows then does in numpy what the pick-by-pick search
    does row by row. A row is a no-op there when its clean set was a
    parent before the batch (see _Parents), or, in monotone mode, when
    it does not grow its state. So is every later row of a set met in
    the batch, from any of its states: the first one made the set a
    parent or left it inside the antichain, and an archive member only
    ever leaves for a superset. Then, in prune mode, _antichain keeps
    the rows the antichain test would. What is left are the states the
    search makes, in its order, each with its parent and the mask of its
    pick, and the first of them with at most k dirty vertices is the
    goal; steps become vertex sets only when the witness is replayed.
    Every state a batch pops was made before the goal, so the budget is
    checked when a batch is popped and once at the goal's index, and
    the BFS order, the witnesses, the count of expanded states and the
    state at which the budget runs out are those of the pick-by-pick
    search. Masks are uint64 up to _WORD_BITS vertices and Python ints
    in object arrays above that, which take the same numpy operations on
    the sorted parents' path.

    Returns (steps or None, states expanded).
    """
    import numpy as np
    _, nbr, full = g.masks()
    start = g.to_mask(clean_start)
    if start == full:
        return [], 0
    if k == 0:
        return None, 0
    n = g.n
    if k >= n:
        return [frozenset(g.vertices)], 1

    def spend(used):
        if used > state_budget:
            raise ResourceLimitError(
                f"solver state budget exhausted at k={k}",
                budget=state_budget,
                used=state_budget + 1,
            )

    parents = {start: None}

    def finish(state, explored):
        spend(explored)
        parents[full] = state, full ^ state
        return _replay(parents, full, g.vertices), explored

    if n - start.bit_count() <= k:
        return finish(start, 1)

    chunk = _CHUNK
    dtype = np.uint64 if n <= _WORD_BITS else object
    bits = np.array([1 << i for i in range(n)], dtype=dtype)
    tables = _round_tables(tuple(nbr), n, dtype)
    sizes = range(1, k + 1) if monotone else (k,)
    rows = sum(math.comb(n, j) for j in sizes)
    table, per_batch = None, 1
    if rows <= chunk:
        table = np.concatenate([_pick_table(n, j, dtype) for j in sizes])
        per_batch = chunk // rows

    met = _Parents(n, start, dtype)
    archive = np.array([start], dtype=dtype)
    frontier = deque([start])
    expanded = 0
    while frontier:
        batch = [frontier.popleft() for _ in range(min(per_batch, len(frontier)))]
        expanded += len(batch)
        spend(expanded)
        states = np.array(batch, dtype=dtype)
        if table is None:
            mapped = _streamed_rows(batch[0], sizes, bits, full, tables, chunk)
        else:
            mapped = [_batch_rows(states, table, full, tables)]
        for pos, nxts, picks in mapped:
            keep = met.absent(nxts)
            if monotone:
                held = states[pos]
                keep &= (nxts & held == held) & (nxts != held)
            at = keep.nonzero()[0]
            if at.size > 1:
                at = at[met.first(nxts[at])]
            if not at.size:
                continue
            new = nxts[at]
            if prune and not monotone:
                accepted, archive = _antichain(new, archive)
                at, new = at[accepted], new[accepted]
            met.add(new)
            new = new.tolist()
            made = len(parents)
            parents.update(zip(new, zip(states[pos[at]].tolist(),
                                        picks[at].tolist())))
            for i, state in enumerate(new):
                if n - state.bit_count() <= k:
                    return finish(state, made + i + 1)
            frontier.extend(new)
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
    cap, its largest bag size. A greedy layout's comes first, of width w.
    From an empty clean set, a boundary-gap certificate at k = w alone
    proves the answer exceeds w, so it is w+1: the answer is at most
    pathwidth+1, and w is then the pathwidth. So is it when the
    certificate's sweep ran and its least boundaries reach w: every
    layout has a prefix of boundary w or more. Otherwise, when the graph
    has at most mask_cap vertices, few enough for the DP, the DP decides
    whether the pathwidth is below w (see _optimal_layout): if so its
    layout caps the answer, and if not the greedy one is optimal, so cap
    = pathwidth+1 either way. Above mask_cap, or when numpy refuses the
    tables, the greedy layout's width+1 is the cap. method says
    "pathwidth+1" wherever the DP's tables fit, whether or not the DP
    ran. The closure runs only for c < k < cap, where c is the largest
    width below the cap with a boundary-gap certificate (see
    _largest_certificate), which proves the answer exceeds c; k = 1
    always has one, and no width from the pathwidth to w - 1 can. A
    certificate bounds searches from an empty clean set only, so with a
    nonempty clean_start c is 0. If every closure fails, the answer is
    the cap, and the witness is the bag sweep, merged (see _merge_bags)
    and replayed from clean_start. explored_states counts the states of
    the widths the closure ran; when c = cap - 1 it ran none, method
    names the certificate and certificate holds it. A k_max at or below
    c gives value None at no cost. Disconnected graphs decompose: the
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

    greedy, layout = _greedy_layout(g)
    certify, least = (None, None) if clean_start or not greedy else _certifier(
        g, greedy, mask_cap)
    cert = certify(greedy) if certify is not None else None
    width, exact = greedy, g.n <= mask_cap
    if cert is not None or least is not None and max(least) >= greedy:
        # the greedy width is the pathwidth: certified, or every layout
        # has a prefix whose boundary reaches it (see _certifier)
        exact = exact and _table_fits(g.n)
    elif exact:
        try:
            width, layout = _optimal_layout(g, mask_cap, (greedy, layout))
        except ResourceLimitError:
            exact = False
    if cert is None and certify is not None:
        # no width from the pathwidth to greedy - 1 has one
        cert = _largest_certificate(min(width, greedy - 1), certify)
    source = "pathwidth+1" if exact else "a greedy layout's width+1"
    cap = width + 1
    top = cap - 1 if k_max is None else min(cap - 1, k_max)
    certified = cert.k if cert is not None else 0
    states = 0
    for k in range(certified + 1, top + 1):
        try:
            steps, used = _closure(g, k, clean_start, state_budget, True,
                                   False)
        except ResourceLimitError as ex:
            raise ResourceLimitError(
                f"{ex} (budget {state_budget} states per width, "
                f"{states} states expanded at k < {k})",
                budget=ex.budget,
                used=ex.used,
            ) from None
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
    steps = _merge_bags(_layout_bags(g, layout), cap)
    if not is_successful(simulate(g, steps, clean_start=clean_start)):
        raise AssertionError("bag sweep failed")
    if cert is not None and certified == cap - 1:
        return SolveResult(
            cap, steps, states,
            f"bag sweep at {source}, boundary-gap certificate below", cert
        )
    return SolveResult(
        cap, steps, states, f"bag sweep at {source}, clean-set closure below"
    )


def _certifier(g, top, mask_cap):
    """(certify, least): certify gives the boundary-gap certificate of a
    connected graph at a width k, 1 <= k <= top, or None, and least is
    the sweep's least boundaries (see _least_boundaries), or None where
    no sweep ran.

    Where boundary_profile(g, top) would sweep the subset masks, the one
    sweep's least boundaries give the profile at every width; a sweep
    refused past _SWEEP_CAP leaves k = 1 alone. Otherwise each width
    takes the separators, and one that their step budget refuses has no
    certificate. Either way k = 1 has one: the sets of a connected graph
    with no boundary are the empty set and the whole graph, so the
    profile at k = 1 is {0, n}, with a gap at i = 1. The first s
    vertices of any layout form a set with boundary least[s] or more, so
    max(least) bounds the vertex separation number from below."""
    least = None
    swept = _takes_tables(g, top, mask_cap)
    if swept:
        try:
            least = _least_boundaries(g, mask_cap)
        except ResourceLimitError:
            pass

    def certify(k):
        if k == 1:
            return boundary_gap_certificate(g, 1, profile=frozenset({0, g.n}))
        if least is not None:
            return boundary_gap_certificate(
                g, k, profile=_sizes_below(least, k))
        if swept:
            return None
        try:
            return boundary_gap_certificate(g, k, mask_cap=mask_cap)
        except ResourceLimitError:
            return None

    return certify, least


def _largest_certificate(top, certify):
    """The boundary-gap certificate of the largest width k <= top that
    has one, on a connected graph, or None when top < 1. The widths are
    tried from top down, each by certify, a _certifier of the graph for
    top or more. A smaller width costs fewer separator steps, so a width
    their budget refuses does not end the walk, and k = 1 always has a
    certificate."""
    if top < 1:
        return None
    for k in range(top, 1, -1):
        cert = certify(k)
        if cert is not None:
            return cert
    return certify(1)


def _table_fits(n):
    """Whether numpy grants the separation DP's table of 2^n bytes. The
    probe writes nothing to it, so no page of it is touched."""
    try:
        _subset_array(n)
    except ResourceLimitError:
        return False
    return True


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


def _layout_bags(g, layout):
    """Bags of a vertex layout of g: bag i is the boundary of the first
    i-1 vertices plus the i-th."""
    index, nbr, rest = g.masks()
    bags = []
    bnd = 0
    for v in layout:
        bag = bnd | 1 << index[v]
        bags.append(frozenset(g.from_mask(bag)))
        rest ^= 1 << index[v]
        bnd = _boundary_mask(nbr, bag, rest)
    return tuple(bags)


def _greedy_layout(g):
    """(width, layout) of the greedy layout of a connected graph.

    From each of _GREEDY_STARTS start vertices of least degree, every
    step adds the neighbour of the prefix that leaves the prefix's
    boundary smallest (then the one with the fewest neighbours left
    outside, then the first in label order). The layout with the
    smallest largest bag wins (see _layout_bags); its width is that
    bag's size less one, the largest boundary it adds a vertex to. A
    start is dropped as soon as a bag shows it cannot win.

    Adding u keeps a boundary vertex unless u is its last neighbour
    outside, and u joins the boundary when it has a neighbour outside.
    So with `ones` the boundary vertices that have one neighbour left
    outside, u leaves a boundary of |bnd| - |nbr[u] & ones| + [u has a
    neighbour outside]: a few bit operations per candidate, packed with
    the other two criteria into one integer key."""
    _, nbr, full = g.masks()
    shift = g.n.bit_length()
    starts = sorted(range(g.n), key=lambda v: (nbr[v].bit_count(), v))
    best = None
    for v in starts[:_GREEDY_STARTS]:
        order = []
        width = 0
        rest = full
        bnd = ones = 0
        while True:
            size = bnd.bit_count()
            if best is not None and size >= best[0]:
                break
            width = max(width, size)
            order.append(v)
            rest ^= 1 << v
            bnd &= ~(nbr[v] & ones)
            if nbr[v] & rest:
                bnd |= 1 << v
            if not rest:
                best = width, order
                break
            ones = reach = 0
            m = bnd
            while m:
                low = m & -m
                m ^= low
                out = nbr[low.bit_length() - 1] & rest
                reach |= out
                if out & (out - 1) == 0:
                    ones |= low
            size = bnd.bit_count()
            key = None
            while reach:
                low = reach & -reach
                reach ^= low
                u = low.bit_length() - 1
                out = nbr[u] & rest
                cost = size - (nbr[u] & ones).bit_count() + (out != 0)
                k = (cost << shift | out.bit_count()) << shift | u
                if key is None or k < key:
                    key = k
            v = key & ((1 << shift) - 1)
    width, order = best
    return width, [g.vertices[v] for v in order]


def _optimal_layout(g, mask_cap, greedy):
    """(vertex separation, layout) of an optimal layout of a connected
    graph, from greedy = _greedy_layout(g), of width w.

    The DP runs as a decision one below w (see _vertex_separation): it
    gives the full DP's value and layout when the separation number is
    below w, and None when it is w, where the greedy layout is optimal.
    Its tables refuse a graph past mask_cap with ResourceLimitError."""
    below = _vertex_separation(g, mask_cap, greedy[0] - 1)
    return greedy if below is None else below


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
    import numpy as np
    try:
        return np.empty(1 << n, dtype=np.uint8)
    except (MemoryError, ValueError) as ex:
        raise ResourceLimitError(
            f"subset tables for n = {n} do not fit in memory "
            f"(2^{n} bytes: {ex})",
            used=n,
        ) from None


def _check_mask_cap(n, mask_cap):
    if n > mask_cap:
        raise ResourceLimitError(
            f"subset tables need n <= {mask_cap}, got {n}",
            budget=mask_cap,
            used=n,
        )


def _least_boundaries(g, mask_cap):
    """least[s], the smallest boundary of any set of s vertices, for s in
    0..n, of a graph with at most mask_cap and at most _SWEEP_CAP
    vertices.

    The boundary of a set is the part of it with a neighbour outside: the
    set AND the neighbourhood of its outside, from the closure's
    neighbourhood tables. One sweep visits all 2^n sets, _SWEEP masks a
    block, and keeps nothing but least. A block's masks are one high
    part OR each of the 2^w low parts, so a mask's outside is the high
    part's outside OR the low part's, and its neighbourhood the union
    of theirs: one gather over the low parts serves every block, one
    over the high parts the whole sweep, and a block costs a few numpy
    passes. Its boundaries, taken in the order of their low parts'
    popcounts, reduce to the least per size in one np.minimum.reduceat.
    """
    import numpy as np
    n = g.n
    _check_mask_cap(n, mask_cap)
    if n > _SWEEP_CAP:
        raise ResourceLimitError(
            f"a sweep of all 2^{n} vertex sets is past the 2^{_SWEEP_CAP} "
            f"it takes",
            budget=_SWEEP_CAP,
            used=n,
        )
    _, nbr, full = g.masks()
    tables = _round_tables(tuple(nbr), n, np.uint64)
    size = min(_SWEEP, 1 << n)
    w = size.bit_length() - 1
    low = np.arange(size, dtype=np.uint64)
    low_reach = _reach(low ^ np.uint64(size - 1), tables)
    highs = np.arange(0, 1 << n, size, dtype=np.uint64)
    high_reach = _reach(highs ^ np.uint64(full & ~(size - 1)), tables)
    count = np.bitwise_count(low)
    order = np.argsort(count, kind="stable")
    starts = np.searchsorted(count[order], np.arange(w + 1))
    least = np.full(n + 1, n, dtype=np.uint8)
    for hi, reach, h in zip(highs.tolist(), high_reach.tolist(),
                            np.bitwise_count(highs).tolist()):
        masks = low | np.uint64(hi)
        bnd = np.bitwise_count(masks & (low_reach | np.uint64(reach)))
        np.minimum(least[h:h + w + 1], np.minimum.reduceat(bnd[order], starts),
                   out=least[h:h + w + 1])
    return least.tolist()


def _vertex_separation(g, mask_cap, bound):
    """(separation number, layout) of a connected small graph, when the
    separation number is at most bound; None when it is larger.

    f[S] is the best separation of an ordering of S: the larger of S's
    boundary and the least f[S - v] over v in S. It is built one layer of
    |S| at a time from a frontier, the sets of the layer with f <= bound.
    A set with f <= bound has a predecessor S - v with f <= bound, so
    only the frontier's one-vertex extensions can join the next frontier;
    no other set is ever visited, and f is exact wherever it is <= bound.
    _optimal_layout, for pathwidth and inspection_number alike, passes
    one less than a greedy layout's width, as a decision: the frontier
    then runs empty, at the last layer or before, exactly when the
    greedy layout is optimal. On sparse graphs the sets with f below
    that width are far fewer than those with f up to it.

    f is one uint8 entry per subset, 255 where nothing was written.
    Candidates come _BLOCK entries at a time (see _extend). The next
    layer's sets hold 255 until their first candidate arrives, and that
    candidate writes the set's boundary at once, above bound or not, so
    f itself tells a new set from one met before and no set is valued
    twice. Only a kept set whose boundary is below the f of the set it
    grew from reads its predecessors; every other set's f is its
    boundary. The boundary comes from the neighbourhood tables of the
    closure, one gather per chunk of up to 11 bits. The peel at the end
    compares against values <= f[full] <= bound only, where f is exact,
    so whatever the bound it picks the layout of the full-table DP."""
    import numpy as np
    n = g.n
    if n == 1:
        return (0, [g.vertices[0]]) if bound >= 0 else None
    _check_mask_cap(n, mask_cap)
    f = _subset_array(n)
    f.fill(255)
    f[0] = 0
    _, nbr, full = g.masks()
    tables = _round_tables(tuple(nbr), n, np.uint64)
    bits = np.array([1 << v for v in range(n)], dtype=np.intp)
    full = np.uint64(full)
    # no layer holds more than C(n, n/2) sets
    rows = max(1, min(_BLOCK // n, math.comb(n, n // 2)))
    tags = np.tile(np.arange(n, dtype=np.uint8), rows)
    frontier = np.zeros(1, dtype=np.intp)
    for _ in range(n):
        if frontier.size <= rows:
            frontier = _extend(f, frontier, bound, bits, tags, full, tables)
        else:
            frontier = np.concatenate([
                _extend(f, frontier[lo:lo + rows], bound, bits, tags, full,
                        tables)
                for lo in range(0, frontier.size, rows)
            ])
        if not frontier.size:
            return None

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


def _extend(f, sets, bound, bits, tags, full, tables):
    """The sets one vertex larger than a frontier set in `sets` that have
    f <= bound, with f written for every such set not met before.

    Masks are intp: f's 2^n entries already bound n far below 63. Row S,
    column v of `grown` is S | v, and its f entry is 255 only for a set
    of the next layer met for the first time: S itself (v in S) holds its
    f <= bound, and a set met in an earlier block holds its value. Each
    new set gets the vertex of its column as a tag in f; one tag
    survives per set, since its rows add distinct vertices, and the row
    that reads its own tag back stands for the set.

    Each new set then takes its boundary, from the neighbourhood tables,
    into f. Its f is max(boundary, least f of its predecessors), and the
    parent S of its row is a predecessor with f[S] <= bound, so f <=
    bound exactly when the boundary is: a set above bound keeps its
    boundary, not always its f, but any value above bound tells a later
    block, the next layer and the peel the same. A kept set whose
    boundary is at least f[S] has f = boundary already. Only the others
    read their n predecessors, from the layer below; for v outside the
    set the read hits the layer above, still 255."""
    import numpy as np
    grown = sets[:, None] | bits
    at = (f[grown] == 255).ravel().nonzero()[0]
    cand = grown.ravel()[at]
    tag = tags[at]
    f[cand] = tag
    won = f[cand] == tag
    cand = cand[won]
    cand64 = cand.view(np.uint64)
    boundary = np.bitwise_count(cand64 & _reach(full ^ cand64, tables))
    f[cand] = boundary
    low = (boundary < f[sets][at[won] // bits.size]).nonzero()[0]
    if low.size:
        below = cand[low]
        f[below] = np.maximum(_least_predecessor(f, below, bits), boundary[low])
    return cand[boundary <= bound]


def _least_predecessor(f, masks, bits):
    """The least f[S - v] over v in S, for each set S in masks, with the
    layer above S still 255 in f: S ^ v for v outside S reads it."""
    return f[bits[:, None] ^ masks].min(axis=0)


def pathwidth(g, mask_cap=_MASK_CAP):
    """(pathwidth, PathDecomposition): exact, via vertex separation.

    Each component takes an optimal layout (see _optimal_layout): the
    DP's where the separation number is below a greedy layout's width,
    the greedy one where it is not. Bag i is the boundary of the first
    i-1 layout vertices plus the i-th vertex itself, so the largest bag
    holds the separation number plus one; that is checked with an
    explicit raise, under python -O too. Components are laid out one
    after another. A component of more than mask_cap vertices raises
    ResourceLimitError.
    """
    if g.n == 0:
        raise InputError("empty graph")
    width = 0
    bags = []
    comps = g.components()
    for comp in comps:
        sub = g if len(comps) == 1 else g.induced(comp)
        if sub.n > 1:
            # before the greedy pass over a graph the tables refuse
            _check_mask_cap(sub.n, mask_cap)
        vs, layout = _optimal_layout(sub, mask_cap, _greedy_layout(sub))
        sub_bags = _layout_bags(sub, layout)
        if max(len(b) for b in sub_bags) - 1 != vs:
            raise AssertionError("layout bags disagree with their width")
        width = max(width, vs)
        bags.extend(sub_bags)
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
    searched in order, is a monotonic search of that width. The
    decomposition is pathwidth's: the separation DP runs only as a
    decision one below a greedy layout's width. The witness
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
    """Set of sizes |C| over all vertex sets C with boundary below k.

    Two engines give the same set: a sweep of the 2^n subset masks
    (_table_profile), and the separators (_separator_profile), the sets
    B with |B| < k. The separators' cost is counted before any is
    visited: one search of G - B' for each set B' below the largest
    size, each of n + m steps, a step also shifting an (n+1)-bit set of
    sizes. The sweep is taken when n <= mask_cap and 2^n is at most
    _TABLE_RATIO times those steps, the separators otherwise. The
    sweep's least boundary per size gives the profile at every k at
    once, which is how inspection_number reads its certificates; it
    refuses n above _SWEEP_CAP whatever mask_cap is.

    More than 2^mask_cap separator steps raise ResourceLimitError, so
    mask_cap bounds the work of either engine, whatever n is. When n <=
    mask_cap the separators are chosen only below 2^n / _TABLE_RATIO
    steps, so nothing is refused that the sweep answers."""
    n = g.n
    if n == 0:
        raise InputError("empty graph")
    if k < 0:
        raise InputError("k must be >= 0")
    if _takes_tables(g, k, mask_cap):
        return _table_profile(g, k, mask_cap)
    limit = 1 << mask_cap
    steps = _separator_steps(g, k, limit)
    if steps > limit:
        raise ResourceLimitError(
            f"boundary profile needs at least {steps} separator search "
            f"steps, more than 2^{mask_cap}",
            budget=limit,
            used=steps,
        )
    return _separator_profile(g, k)


def _takes_tables(g, k, mask_cap):
    """Whether boundary_profile(g, k) sweeps the subset masks."""
    return g.n <= mask_cap and (
        _TABLE_RATIO * _separator_steps(g, k, 1 << g.n) >= 1 << g.n)


def _separator_steps(g, k, limit):
    """The search steps of _separator_profile(g, k), or a first count of
    them past limit when the searches alone pass it."""
    searches = _separator_count(g.n, max(k - 1, 1), limit) if k else 0
    return searches * (g.n + g.m) * (1 + g.n // _SHIFT_BITS)


def _separator_count(n, k, limit):
    """Sum over r < k of C(n, r), the sets of fewer than k of n vertices,
    or the first partial sum above limit."""
    total = 0
    term = 1
    for r in range(min(k, n + 1)):
        total += term
        if total > limit:
            break
        term = term * (n - r) // (r + 1)
    return total


def _table_profile(g, k, mask_cap):
    """boundary_profile read from one sweep of the subset masks."""
    return _sizes_below(_least_boundaries(g, mask_cap), k)


def _sizes_below(least, k):
    """The sizes s whose least boundary least[s] is below k."""
    return frozenset(s for s, b in enumerate(least) if b < k)


def _separator_profile(g, k):
    """boundary_profile from the separators B, the sets with |B| < k.

    A set C with boundary B is B plus a union of components of G - B:
    a vertex of C - B has every neighbour in C. Conversely, B plus any
    union of components of G - B has its boundary inside B. So the
    profile is every |B| + s, s a subset sum of the component sizes of
    G - B, kept as the bits of one int. A set B of the largest size,
    top, is taken as B' plus a vertex v past the last vertex of B', so
    that one search of G - B' (_cut_pieces) serves every such v: G - B
    has the components of G - B' other than v's, plus the pieces that
    v's component falls into without v. Stops once every size 0..n is
    in."""
    n = g.n
    top = min(k - 1, n)
    if top < 0:
        return frozenset()
    index = {v: i for i, v in enumerate(g.vertices)}
    adj = [[index[w] for w in g[v]] for v in g.vertices]
    every = (1 << n + 1) - 1
    prof = 0
    # B' runs over the sets below top, or the empty set alone at top = 0
    for r in range(max(top, 1)):
        for sep in combinations(range(n), r):
            gone = [False] * n
            for v in sep:
                gone[v] = True
            comps, pieces = _cut_pieces(adj, gone)
            counts = Counter(len(members) for members in comps)
            prof |= _subset_sums(counts) << r
            if r + 1 == top:
                after = sep[-1] + 1 if sep else 0
                # subset sums of the other components, one per size
                others = {}
                for members in comps:
                    c = len(members)
                    if c not in others:
                        counts[c] -= 1
                        others[c] = _subset_sums(counts)
                        counts[c] += 1
                    for v in members:
                        if v >= after:
                            sums = others[c]
                            for s in pieces[v]:
                                sums |= sums << s
                            prof |= sums << top
            if prof == every:
                return frozenset(range(n + 1))
    return frozenset(i for i in range(n + 1) if prof >> i & 1)


def _subset_sums(counts):
    """Subset sums of a multiset of sizes, counts[size] copies of each,
    as the bits of an int. The copies of a size are added 1, 2, 4, ...
    at a time, which reaches every number of them up to counts[size]:
    so many components of few sizes cost a few shifts, not one each."""
    sums = 1
    for size, copies in counts.items():
        step = 1
        while copies:
            take = min(step, copies)
            sums |= sums << size * take
            copies -= take
            step <<= 1
    return sums


def _cut_pieces(adj, gone):
    """(components, pieces) of the graph adj without the vertices marked
    in gone. components lists the vertices of each; pieces[v] holds the
    sizes of the components that v's component falls into without v.

    One depth-first search per component: a child w of v whose subtree
    has no edge to a vertex above v (low[w] >= disc[v]) is a piece of
    its own, and the rest of the component, if any, is one more. The
    edge from w back to v may set low[w] to disc[v], which passes the
    test, so it need not be skipped as a bridge search would."""
    n = len(adj)
    disc = [0] * n
    low = [0] * n
    size = [1] * n
    pieces = [[] for _ in range(n)]
    comps = []
    t = 0
    for root in range(n):
        if gone[root] or disc[root]:
            continue
        t += 1
        disc[root] = low[root] = t
        members = [root]
        stack = [(root, -1, iter(adj[root]))]
        while stack:
            v, parent, it = stack[-1]
            for w in it:
                if gone[w]:
                    continue
                if not disc[w]:
                    t += 1
                    disc[w] = low[w] = t
                    members.append(w)
                    stack.append((w, v, iter(adj[w])))
                    break
                if disc[w] < low[v]:
                    low[v] = disc[w]
            else:
                stack.pop()
                if parent >= 0:
                    size[parent] += size[v]
                    if low[v] < low[parent]:
                        low[parent] = low[v]
                    if low[v] >= disc[parent]:
                        pieces[parent].append(size[v])
        comps.append(members)
        for v in members:
            rest = len(members) - 1 - sum(pieces[v])
            if rest:
                pieces[v].append(rest)
    return comps, pieces


def boundary_gap_certificate(g, k, mask_cap=_MASK_CAP, profile=None):
    """Smallest size i in [1, n] with no profile member strictly between
    i-k and i, or None; at k = 1, None when g has no edge.

    A width-k search grows its clean set by at most k per step, and by
    exactly k only when it searches k vertices outside the clean set
    and the protected set has an empty boundary. The sizes of the clean
    sets it reaches are profile members, so the sizes strictly between
    i-k and i, all missing, can be crossed only by such a step, and at
    k >= 2 that step's protected set would put a profile member among
    them. At k = 1 there is no size between i-1 and i: the step cleans
    one vertex whose neighbours are all clean already, so the first
    clean vertex has none, and one searcher never cleans a vertex with
    a neighbour. So k = 1 proves in(G) > 1 exactly when g has an edge;
    on an edgeless graph every set has an empty boundary, the profile
    holds every size, and one searcher succeeds. None means every i is
    witnessed, which proves nothing about in(G). A caller that has
    boundary_profile(g, k) already passes it as profile, and no subset
    table is built.
    """
    if k == 1 and not g.m:
        return None
    if profile is None:
        profile = boundary_profile(g, k, mask_cap=mask_cap)
    # one walk up the sorted profile: below is its largest member under i
    members = sorted(profile)
    j = 0
    below = None
    for i in range(1, g.n + 1):
        while j < len(members) and members[j] < i:
            below = members[j]
            j += 1
        if below is None or below <= i - k:
            return BoundaryGapCertificate(k, i, profile)
    return None
