"""Sweep-search dynamics.

A search is a sequence of vertex sets (the "steps"). The whole graph
starts contaminated except for an optional clean start set. Searching a
set protects it for one round; anything protected or already clean stays
clean afterwards unless it touches contamination:

    protected_t = clean_{t-1} | step_t
    clean_t     = protected_t - boundary(protected_t)

The search succeeds when every vertex is clean after the last step.
Contamination has no visibility rule to exploit: recontamination happens
whenever a protected set's boundary touches the outside, so the only
state worth tracking is the clean set itself.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError
from .graphs import boundary


def _check_steps(g, steps):
    out = []
    vset = set(g.vertices)
    for t, s in enumerate(steps, start=1):
        s = frozenset(s)
        extra = s - vset
        if extra:
            raise InputError(f"step {t}: not vertices: {sorted(extra)}")
        out.append(s)
    return tuple(out)


@dataclass(frozen=True)
class SearchTrace:
    """Full record of one simulated search."""

    steps: tuple
    clean_start: frozenset
    vertices: frozenset  # of the graph the search ran on
    protected: tuple  # protected[t] is the set right after step t+1 searches
    clean: tuple  # clean[0] is the start set; clean[t] follows step t

    def width(self):
        return max((len(s) for s in self.steps), default=0)


def simulate(g, steps, clean_start=()):
    """Run a search and return the full trace."""
    steps = _check_steps(g, steps)
    clean = frozenset(clean_start)
    extra = clean - set(g.vertices)
    if extra:
        raise InputError(f"clean start: not vertices: {sorted(extra)}")
    clean_hist = [clean]
    prot_hist = []
    for s in steps:
        protected = clean | s
        clean = protected - boundary(g, protected)
        prot_hist.append(protected)
        clean_hist.append(clean)
    return SearchTrace(
        steps,
        clean_hist[0],
        frozenset(g.vertices),
        tuple(prot_hist),
        tuple(clean_hist),
    )


def _stream_check(g, steps, clean_start, width, a, b):
    """Shared engine for the streaming checks.

    Keeps no trace and updates the erosion front incrementally, touching
    only the vertices that change state each step; synthesized hosts run
    to tens of thousands of steps and whole-set recomputation used to
    dominate. The graph's vertices are numbered once, so the state lives
    in flat containers of ints: `protected` is a bytearray, `unprot` and
    the neighbor lists are lists, `front` is a set. Pass a and b as None
    to skip the alignment conditions; otherwise both must be vertices.
    g is a Graph or a SubdividedGraph; either gives its own numbering.
    """
    index, nbrs = g.numbered()
    start = set(clean_start)
    extra = start - index.keys()
    if extra:
        raise InputError(f"clean start: not vertices: {sorted(extra)}")
    start = {index[v] for v in start}
    protected = bytearray(len(nbrs))
    # unprot counts dirty neighbors; front is the protected slice of the
    # boundary, i.e. exactly what erodes next round
    unprot = [len(ns) for ns in nbrs]
    for v in start:
        protected[v] = 1
        for u in nbrs[v]:
            unprot[u] -= 1
    front = {v for v in start if unprot[v]}
    ai = None if a is None else index[a]
    bi = None if b is None else index[b]

    # clean_0 is the start set verbatim, erosion only begins once a step
    # has been played
    eroding = False
    for t, s in enumerate(steps, start=1):
        try:
            ids = {index[v] for v in s}
        except KeyError:
            extra = sorted(frozenset(s) - index.keys())
            raise InputError(f"step {t}: not vertices: {extra}") from None
        if bi is not None and protected[bi] and not (eroding and bi in front):
            return False, f"{b!r} cleaned before the search ended (step {t - 1})"
        if width is not None and len(ids) > width:
            return False, f"step {t} has {len(ids)} > {width} vertices"
        if eroding:
            for v in front - ids:
                protected[v] = 0
                front.discard(v)
                for u in nbrs[v]:
                    unprot[u] += 1
                    if protected[u]:
                        front.add(u)
        for v in ids:
            if not protected[v]:
                protected[v] = 1
                for u in nbrs[v]:
                    unprot[u] -= 1
                    if not unprot[u]:
                        front.discard(u)
                if unprot[v]:
                    front.add(v)
        eroding = True
        if ai is not None and not protected[ai]:
            return False, f"step {t}: {a!r} not protected"
    missing = len(nbrs) - protected.count(1) + (len(front) if eroding else 0)
    if missing:
        return False, f"{missing} vertices never cleaned"
    return True, None


def check_search(g, steps, clean_start=(), width=None):
    """Streaming success check; no trace kept.

    g is a Graph or a SubdividedGraph; a subdivided host is checked on
    its own numbering, without building its derived graph. Returns (ok,
    failure) where failure is None or a short reason string. Cheap
    enough to run on every synthesized search, including hosts with
    tens of thousands of vertices.
    """
    try:
        return _stream_check(g, steps, clean_start, width, None, None)
    except InputError as err:
        return False, str(err)


def check_aligned_search(g, steps, a, b, clean_start=(), width=None):
    """Streaming success-plus-alignment check.

    Same contract as check_search, on a Graph or a SubdividedGraph,
    additionally requiring a in every protected set and b outside every
    clean set before the last. Raises InputError on vertices the graph
    does not have.
    """
    for v in (a, b):
        if v not in g:
            raise InputError(f"no vertex {v!r}")
    return _stream_check(g, steps, clean_start, width, a, b)


def is_successful(trace):
    return trace.clean[-1] == trace.vertices


def is_monotonic(trace):
    """Clean sets never shrink along the trace."""
    return all(a <= b for a, b in zip(trace.clean, trace.clean[1:]))


def is_aligned(trace, a, b):
    """The search holds a in every protected set and never cleans b early.

    Concretely: a is in protected[t] for every step t, and b stays outside
    every clean set except possibly the final one. An empty search is
    aligned to any pair. Alignment is what makes searches safe to
    concatenate at a shared vertex.
    """
    if any(a not in p for p in trace.protected):
        return False
    return all(b not in c for c in trace.clean[:-1])


def search_width(steps):
    return max((len(s) for s in steps), default=0)


# ---------------------------------------------------------------------------
# searches across a vertex equivalence

def invariant_core(eq, xs):
    """Largest eq-invariant subset of xs (union of fully covered classes)."""
    return eq.meet(xs)


def invariant_hull(eq, xs):
    """Smallest eq-invariant superset of xs (union of touched classes)."""
    return eq.join(xs)


def core_classes(eq, xs):
    """Labels of the classes fully contained in xs.

    This is invariant_core seen from the quotient side: the result is a
    vertex set of the quotient graph.
    """
    xs = frozenset(xs)
    return frozenset(eq.label(c) for c in eq.classes if c <= xs)


def push_search(steps, eq):
    """Image of a search in the quotient: step t maps to the classes it
    meets. Total on arbitrary searches; for invariant ones this is the
    transport that preserves the whole trace."""
    out = []
    for s in steps:
        out.append(frozenset(eq.label(eq.class_of(v)) for v in s))
    return tuple(out)


def is_invariant(g, steps, clean_start, eq):
    """Every protected set of the simulated trace is a union of classes."""
    trace = simulate(g, steps, clean_start)
    return all(eq.is_invariant(p) for p in trace.protected)
