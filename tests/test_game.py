"""Search semantics: traces, streaming checks, invariance helpers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zvsearch.errors import InputError
from zvsearch.game import (
    _stream_check,
    check_aligned_search,
    check_search,
    invariant_core,
    invariant_hull,
    is_aligned,
    is_invariant,
    is_monotonic,
    is_successful,
    push_search,
    search_width,
    simulate,
)
from zvsearch.graphs import (
    EquivalenceSpec,
    Graph,
    cycle_graph,
    generate,
    path_graph,
    quotient,
)
from zvsearch.gsp import classify_topological_3
from zvsearch.synth import synthesize


def reference_stream_check(g, steps, clean_start, width, a, b):
    """The streaming engine keyed by vertex labels, as it was before the
    integer ids: the oracle for game._stream_check."""
    vset = set(g.vertices)
    protected = set(clean_start)
    if protected - vset:
        raise InputError(f"clean start: not vertices: {sorted(protected - vset)}")
    unprot = {v: sum(1 for u in g.neighbors(v) if u not in protected)
              for v in vset}
    front = {v for v in protected if unprot[v]}

    def flip_in(v):
        protected.add(v)
        for u in g.neighbors(v):
            unprot[u] -= 1
            if not unprot[u]:
                front.discard(u)
        if unprot[v]:
            front.add(v)

    def flip_out(v):
        protected.discard(v)
        front.discard(v)
        for u in g.neighbors(v):
            unprot[u] += 1
            if u in protected:
                front.add(u)

    eroding = False
    for t, s in enumerate(steps, start=1):
        s = frozenset(s)
        if s - vset:
            raise InputError(f"step {t}: not vertices: {sorted(s - vset)}")
        if b is not None and (b in protected) and not (eroding and b in front):
            return False, f"{b!r} cleaned before the search ended (step {t - 1})"
        if width is not None and len(s) > width:
            return False, f"step {t} has {len(s)} > {width} vertices"
        if eroding:
            for v in [v for v in front if v not in s]:
                flip_out(v)
        for v in s:
            if v not in protected:
                flip_in(v)
        eroding = True
        if a is not None and a not in protected:
            return False, f"step {t}: {a!r} not protected"
    missing = len(vset) - len(protected) + (len(front) if eroding else 0)
    if missing:
        return False, f"{missing} vertices never cleaned"
    return True, None


def searches(n, max_len=8, max_step=3):
    vs = [f"v{i}" for i in range(n)]
    step = st.sets(st.sampled_from(vs), min_size=1, max_size=min(max_step, n)).map(
        frozenset
    )
    return st.lists(step, max_size=max_len).map(tuple)


def graphs_and_searches():
    def build(n):
        vs = [f"v{i}" for i in range(n)]
        pairs = st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n
        )
        g = pairs.map(
            lambda ps: Graph.from_edges(
                ((f"v{a}", f"v{b}") for a, b in ps if a != b), vertices=vs
            )
        )
        start = st.sets(st.sampled_from(vs)).map(frozenset)
        return st.tuples(g, searches(n), start)

    return st.integers(3, 8).flatmap(build)


def test_path_sweep_trace():
    """Two-window sweep of P_3, spelled out move for move."""
    g = path_graph(3)
    trace = simulate(g, [{"0", "1"}, {"1", "2"}])
    assert trace.protected == (frozenset({"0", "1"}), frozenset({"0", "1", "2"}))
    assert trace.clean == (
        frozenset(),
        frozenset({"0"}),
        frozenset({"0", "1", "2"}),
    )
    assert is_successful(trace) and is_monotonic(trace)


def test_recontamination():
    """Leaving a cleaned cycle vertex next to dirt loses it again."""
    g = cycle_graph(4)
    trace = simulate(g, [{"0", "1"}, {"2"}])
    assert trace.clean[1] == frozenset()
    assert not is_successful(trace)


def test_search_over_clean_start():
    g = path_graph(4)
    trace = simulate(g, [{"2", "3"}], clean_start={"0", "1"})
    assert is_successful(trace)
    with pytest.raises(InputError):
        simulate(g, [{"0"}], clean_start={"zz"})
    with pytest.raises(InputError):
        simulate(g, [{"zz"}])


def test_search_width():
    assert search_width([{"a"}, {"a", "b", "c"}]) == 3
    assert search_width([]) == 0


def test_is_aligned_frozen():
    g = path_graph(3)
    trace = simulate(g, [{"0", "1"}, {"1", "2"}])
    assert is_aligned(trace, "0", "2")
    # vertex 0 is fully cleared from step 1 on, so it fails as b
    assert not is_aligned(trace, "0", "0")
    assert not is_aligned(trace, "2", "2")


@settings(max_examples=120, deadline=None)
@given(graphs_and_searches())
def test_check_search_matches_simulate(gss):
    g, steps, start = gss
    trace = simulate(g, steps, start)
    ok, why = check_search(g, steps, start)
    assert ok == is_successful(trace), why


@settings(max_examples=120, deadline=None)
@given(graphs_and_searches(), st.integers(0, 7), st.integers(0, 7))
def test_check_aligned_search_matches_trace_predicates(gss, ai, bi):
    g, steps, start = gss
    vs = sorted(g.vertices)
    a, b = vs[ai % len(vs)], vs[bi % len(vs)]
    trace = simulate(g, steps, start)
    want = is_successful(trace) and is_aligned(trace, a, b)
    got, why = check_aligned_search(g, steps, a, b, start)
    assert got == want, why


def outcome(fn, *args):
    try:
        return fn(*args)
    except InputError as err:
        return "InputError", str(err)


@settings(max_examples=300, deadline=None)
@given(
    graphs_and_searches(),
    st.booleans(),
    st.integers(0, 7),
    st.integers(0, 7),
    st.none() | st.integers(1, 3),
    st.booleans(),
    st.integers(0, 8),
    st.booleans(),
)
def test_stream_check_matches_reference(
    gss, aligned, ai, bi, width, clean, stray_at, stray_start
):
    """Same answer, reason and input error as the label-keyed engine,
    with and without alignment, a width, a clean start, and a step or a
    clean start that names a vertex the graph lacks."""
    g, steps, start = gss
    vs = sorted(g.vertices)
    a, b = (vs[ai % len(vs)], vs[bi % len(vs)]) if aligned else (None, None)
    start = start if clean else ()
    if stray_start:
        start = frozenset(start) | {"stray"}
    if stray_at < len(steps):
        steps = steps[:stray_at] + (steps[stray_at] | {"stray"},) + steps[stray_at + 1:]
    args = (g, steps, start, width, a, b)
    assert outcome(_stream_check, *args) == outcome(reference_stream_check, *args)


def sabotaged_checks(bundle):
    """(label, steps, clean_start, width, a, b) for a synthesized bundle:
    its own check, then searches broken in the ways a record can be."""
    steps = [frozenset(s) for s in bundle.search]
    a, b = bundle.alignment
    (u, v), count = max(bundle.host.counts.items())
    mid = len(steps) // 2
    wide = steps[mid] | frozenset(bundle.host.base.vertices[:4])

    def naming(x):
        return steps[:mid] + [steps[mid] | {x}] + steps[mid + 1:]

    yield "clean", steps, (), 3, a, b
    yield "truncated", steps[:-1], (), 3, a, b
    yield "[a] appended", steps + [frozenset([a])], (), 3, a, b
    yield "over width", steps[:mid] + [wide] + steps[mid + 1:], (), 3, a, b
    for x in (f"({u},{v})#0", f"({u},{v})#{count + 1}", "nowhere"):
        yield f"names {x}", naming(x), (), 3, a, b
    yield "clean start off the host", steps, (a, "nowhere"), 3, a, b
    # searching b with its neighbours cleans b mid-search; that step
    # may be wider than 3
    b_cleaned = bundle.host.derived.neighbors(b) | {b}
    yield "b cleaned mid-search", steps[:mid] + [b_cleaned] + steps[mid:], (), None, a, b


@pytest.mark.parametrize("spec", ["grid:2,4", "cycle:5", "tree:3"])
def test_stream_check_on_the_host_matches_its_derived_graph(spec):
    """The host's own numbering gives the same answer, reason or input
    error as its derived graph, aligned or not, with and without a width;
    the label-keyed engine on the derived graph is the oracle."""
    c = classify_topological_3(generate(spec))
    bundle = synthesize(c.tree.terminal_graph(), c.tree)
    host, derived = bundle.host, bundle.host.derived
    for label, steps, start, width, a, b in sabotaged_checks(bundle):
        for args in ((steps, start, None, None, None), (steps, start, width, a, b)):
            got = outcome(_stream_check, host, *args)
            assert got == outcome(_stream_check, derived, *args), label
            assert got == outcome(reference_stream_check, derived, *args), label
        # the bundle passes its own aligned check, and every sabotage fails it
        assert (got == (True, None)) == (label == "clean"), (label, got)


def test_check_aligned_width_and_reasons():
    g = path_graph(3)
    ok, why = check_aligned_search(g, [{"0", "1", "2"}], "0", "2", width=2)
    assert not ok and "3 > 2" in why
    ok, why = check_aligned_search(g, [{"0"}], "1", "2")
    assert not ok and "not protected" in why
    ok, why = check_aligned_search(g, [{"0", "1"}], "0", "2")
    assert not ok and "never cleaned" in why
    with pytest.raises(InputError):
        check_aligned_search(g, [], "0", "zz")


def test_concatenation_keeps_clean_sets_growing():
    """Appending a step that re-searches FC plus its closed neighborhood
    never shrinks FC."""
    g = cycle_graph(5)
    first = [{"0", "1", "4"}, {"1", "2", "4"}]
    fc = simulate(g, first).clean[-1]
    closed = set(fc)
    for v in fc:
        closed |= g.neighbors(v)
    again = simulate(g, first + [closed])
    assert again.clean[-1] >= fc


def test_invariance_helpers():
    eq = EquivalenceSpec.from_merges("abcd", [("a", "b")])
    assert invariant_core(eq, {"a", "c"}) == frozenset({"c"})
    assert invariant_hull(eq, {"a", "c"}) == frozenset({"a", "b", "c"})
    pushed = push_search([{"a"}, {"c", "d"}], eq)
    assert pushed == (frozenset({"a+b"}), frozenset({"c", "d"}))


def test_is_invariant_on_quotientable_search():
    # two parallel edges collapsed to one: searching both strands at once
    g = Graph.from_edges([("a", "x"), ("x", "b"), ("a", "y"), ("y", "b")])
    eq = EquivalenceSpec.from_merges(g.vertices, [("x", "y")])
    steps = [{"a", "x", "y"}, {"x", "y", "b"}]
    assert is_invariant(g, steps, (), eq)
    assert not is_invariant(g, [{"a", "x"}], (), eq)
    q, _ = quotient(g, eq)
    qtrace = simulate(q, push_search(steps, eq))
    assert is_successful(qtrace)
