"""Acceptance gate: one test per release criterion.

Each test prints a single PASS line on success (pytest -v adds its own
verdict per test as well); a failed assertion is the FAIL. The criteria
pin exact values, so there are no tolerances to tune. Expected values
were frozen from independent oracles: subset enumeration for boundary
profiles, the brute-force pattern search for the classifier, and the
hand-checked worked example for the trace comparison.
"""

import itertools
import time

from zvsearch.game import (
    check_aligned_search,
    core_classes,
    is_aligned,
    is_successful,
    push_search,
    simulate,
)
from zvsearch.graphs import (
    EquivalenceSpec,
    Graph,
    SubdividedGraph,
    ball,
    boundary,
    complete_graph,
    cycle_graph,
    edge_key,
    family_f1,
    family_f2,
    family_f3,
    grid_graph,
    k4_subdivision_example,
    path_graph,
    perfect_binary_tree,
    quotient,
)
from zvsearch.gsp import classify_topological_3
from zvsearch.forbidden import brute_force_forbidden, embedded, pattern_check
from zvsearch.solver import (
    boundary_gap_certificate,
    boundary_profile,
    exists_monotonic_search,
    exists_successful_search,
    inspection_number,
    monotonic_inspection_number,
    pathwidth,
)
from zvsearch.synth import AlignedSearchBundle, clear_ball_inward, clear_ball_outward

from conftest import all_trees, random_connected

V = frozenset({"A", "B", "C", "D", "I1", "I2", "I3", "I4"})

EXAMPLE_STEPS = (
    frozenset({"A", "I1", "I2"}),
    frozenset({"A", "I2", "I3"}),
    frozenset({"A", "I3", "I4"}),
    frozenset({"A", "I4", "D"}),
    frozenset({"A", "B", "C"}),
    frozenset({"B", "C", "D"}),
    frozenset({"D", "I3", "I4"}),
)

# the worked example's table, rows 1..7, exactly as printed
PRINTED_FC = (
    frozenset({"I1"}),
    frozenset({"I1", "I2"}),
    frozenset({"I1", "I2", "I3"}),
    frozenset({"I1", "I2", "I3", "I4"}),
    frozenset({"A", "I1", "I2", "I3"}),
    frozenset({"A", "I1", "I2", "B", "C"}),
    V,
)
PRINTED_PC = (
    frozenset({"A", "I1", "I2"}),
    frozenset({"A", "I1", "I2", "I3"}),
    frozenset({"A", "I1", "I2", "I3", "I4"}),
    frozenset({"A", "I1", "I2", "I3", "I4", "D"}),
    frozenset({"A", "I1", "I2", "I3", "I4", "D", "B", "C"}),
    frozenset({"A", "I1", "I2", "I3", "B", "C", "D"}),
    V,
)


def report(num, detail):
    print(f"criterion {num:02d}: PASS ({detail})")


def test_criterion_01_worked_example_trace():
    t0 = time.monotonic()
    g = k4_subdivision_example()
    trace = simulate(g, EXAMPLE_STEPS)

    assert tuple(trace.clean[1:]) == PRINTED_FC
    for t, want in enumerate(PRINTED_PC):
        got = trace.protected[t]
        if t == 4:
            # the printed row 5 carries a stray D; the simulated set is
            # otherwise identical and the printed FC row 5 agrees with it
            assert want - got == {"D"}
            assert got == want - {"D"}
        else:
            assert got == want
    assert is_successful(trace)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    report(1, f"7 rows matched, one documented misprint, {elapsed:.3f}s")


def test_criterion_02_exact_inspection_numbers():
    cases = []
    for n in range(2, 9):
        cases.append((path_graph(n), 2, f"path {n}"))
    for n in range(3, 9):
        cases.append((cycle_graph(n), 3, f"cycle {n}"))
    for n in range(2, 6):
        cases.append((complete_graph(n), n, f"complete {n}"))
    for m in range(2, 6):
        cases.append((grid_graph(2, m), 3, f"grid 2x{m}"))
    cases.append((grid_graph(3, 3), 4, "grid 3x3"))
    cases.append((k4_subdivision_example(), 3, "example graph"))

    worst = 0.0
    for g, want, name in cases:
        t0 = time.monotonic()
        res = inspection_number(g)
        elapsed = time.monotonic() - t0
        worst = max(worst, elapsed)
        assert res.value == want, f"{name}: got {res.value}, want {want}"
        trace = simulate(g, res.witness)
        assert is_successful(trace)
        assert elapsed < 60.0, f"{name} took {elapsed:.1f}s"
    report(2, f"{len(cases)} exact values, slowest case {worst:.2f}s")


def test_criterion_03_monotonic_equals_pathwidth_plus_one(atlas_2_6, rng):
    graphs = list(atlas_2_6) + [random_connected(7, rng) for _ in range(200)]
    for g in graphs:
        res = monotonic_inspection_number(g)
        width, _ = pathwidth(g)
        assert res.value == width + 1
        trace = simulate(g, res.witness)
        assert is_successful(trace)
        assert exists_monotonic_search(g, res.value, state_budget=2_000_000) is not None
        assert exists_monotonic_search(g, res.value - 1, state_budget=2_000_000) is None

    grids = 0
    for n in range(2, 5):
        for m in range(2, 5):
            assert pathwidth(grid_graph(n, m))[0] == min(n, m)
            grids += 1
    report(3, f"{len(graphs)} graphs, three routes agree; {grids} grid widths")


def test_criterion_04_strict_gap_instance():
    g = k4_subdivision_example()
    assert inspection_number(g).value == 3
    assert monotonic_inspection_number(g).value == 4
    assert pathwidth(g)[0] == 3
    report(4, "plain value 3, monotonic value 4")


def brute_profile(g, k):
    sizes = set()
    vs = list(g.vertices)
    for r in range(len(vs) + 1):
        for combo in itertools.combinations(vs, r):
            if len(boundary(g, set(combo))) < k:
                sizes.add(r)
    return frozenset(sizes)


def test_criterion_05_boundary_certificates(atlas_2_6):
    c6 = cycle_graph(6)
    cert = boundary_gap_certificate(c6, 2)
    assert cert is not None and 1 <= cert.i <= 6
    profile = boundary_profile(c6, 2)
    assert profile == frozenset({0, 1, 6})
    assert profile == brute_profile(c6, 2)
    assert all(not (cert.i - 2 < s < cert.i) for s in profile)

    # soundness: once the solver certifies in(G) <= k, no gap certificate
    # may exist at that k or any larger one
    checked = 0
    for g in atlas_2_6:
        val = inspection_number(g).value
        for k in range(val, g.n + 1):
            assert boundary_gap_certificate(g, k) is None, (sorted(g.edges()), k)
            checked += 1

    # low-boundary subsets of the two reference grids are tiny or nearly
    # everything; the whole subset lattice is enumerated by the profile
    small = boundary_profile(grid_graph(3, 4), 3)
    assert small <= frozenset(range(0, 4)) | frozenset({11, 12})
    large = boundary_profile(grid_graph(4, 4), 4)
    assert large <= frozenset(range(0, 7)) | frozenset(range(13, 17))
    report(5, f"gap at i={cert.i}; {checked} sound feasible pairs; 2 grid profiles")


def test_criterion_06_classifier_coherence(atlas_2_7_classified):
    t0 = time.monotonic()
    yes = no = 0
    for g, cls in atlas_2_7_classified:
        found = brute_force_forbidden(g)
        if cls.verdict == "YES":
            assert found is None, sorted(g.edges())
            yes += 1
        else:
            assert found is not None, sorted(g.edges())
            assert pattern_check(cls.witness) and embedded(cls.witness, g)
            no += 1

    k4 = classify_topological_3(complete_graph(4))
    assert k4.verdict == "NO" and k4.witness.family == "F1"
    for factory, family in ((family_f2, "F2"), (family_f3, "F3")):
        cls = classify_topological_3(factory())
        assert cls.verdict == "NO" and cls.witness.family == family
        assert pattern_check(cls.witness) and embedded(cls.witness, factory())

    for t in all_trees(2, 9):
        assert classify_topological_3(t).verdict == "YES"
    k23 = Graph.from_edges([(s, f"m{i}") for s in "ab" for i in range(3)])
    assert classify_topological_3(k23).verdict == "YES"

    elapsed = time.monotonic() - t0
    assert elapsed < 600.0
    report(6, f"{yes} YES / {no} NO vs oracle, trees and families, {elapsed:.1f}s")


def check_bundle(g, bundle, floors=None):
    host = bundle.host.derived
    ok, why = check_aligned_search(host, bundle.search, *bundle.alignment, width=3)
    assert ok, why
    assert bundle.host.base == g
    for e, need in (floors or {}).items():
        assert bundle.host.count(e) >= need
    assert bundle.floors_satisfied == {e: bundle.host.count(e) for e in g.edges()}
    if host.n <= 15:
        assert exists_successful_search(host, 3) is not None
        return 1
    return 0


def test_criterion_07_synthesis_pipeline(synthesized_corpus):
    solver_confirmed = 0
    for g, cls, bundle in synthesized_corpus:
        assert cls.verdict == "YES"
        solver_confirmed += check_bundle(g, bundle)

    # the example graph contains the forbidden pattern itself, so no
    # decomposition exists to synthesize from; its known 7-step search
    # is packaged and verified directly instead
    base = k4_subdivision_example()
    assert classify_topological_3(base).verdict == "NO"
    host = SubdividedGraph(base, {})
    direct = AlignedSearchBundle(
        host,
        EXAMPLE_STEPS,
        ("A", "D"),
        {e: 0 for e in base.edges()},
        {"op": "direct"},
    )
    ok, why = check_aligned_search(host.derived, direct.search, "A", "D", width=3)
    assert ok, why
    assert exists_successful_search(host.derived, 3) is not None

    report(7, f"{len(synthesized_corpus)} bundles + direct example, {solver_confirmed} solver-confirmed")


def ball_instance(rng):
    dw = rng.randint(1, 3)
    dv = rng.randint(1, 3)
    r = rng.randint(1, 3)
    edges = [("w", "v")]
    edges += [("w", f"x{i}") for i in range(dw - 1)]
    edges += [("v", f"y{i}") for i in range(dv - 1)]
    base = Graph.from_edges(edges)
    counts = {}
    for e in base.edges():
        need = 0
        if "w" in e:
            need = max(need, (1 << (dw - 1)) * r + 1)
        if "v" in e:
            need = max(need, (1 << (dv - 1)) * r)
        counts[e] = need + rng.randint(0, 3)
    return SubdividedGraph(base, counts), dw, r


def test_criterion_08_ball_sweep_properties(rng):
    for _ in range(500):
        host, dw, r = ball_instance(rng)
        g = host.derived

        out = clear_ball_outward(host, "w", "v", r)
        assert len(out) == ((1 << dw) - 1) * r
        trace = simulate(g, out)
        assert ball(g, "w", r) <= trace.clean[-1]
        assert is_aligned(trace, "w", "v")

        inw = clear_ball_inward(host, "v", "w", r)
        start = set(g.vertices) - ball(g, "v", r)
        trace_in = simulate(g, inw, clean_start=start)
        assert is_successful(trace_in)
        assert is_aligned(trace_in, "w", "v")
    report(8, "500 hosts, outward and inward sweeps as stated")


def random_partition(vertices, rng):
    pool = list(vertices)
    rng.shuffle(pool)
    classes = []
    while pool:
        size = 1 if rng.random() < 0.2 else rng.randint(1, 3)
        size = min(size, len(pool))
        classes.append(frozenset(pool[:size]))
        pool = pool[size:]
    return EquivalenceSpec(classes)


def quotient_instance(rng):
    from zvsearch.game import is_invariant

    g = random_connected(rng.randint(3, 9), rng)
    eq = random_partition(g.vertices, rng)
    start = frozenset(v for c in eq.classes if rng.random() < 0.3 for v in c)
    length = rng.randint(1, g.n + 3)
    if rng.random() < 0.8:
        steps = tuple(
            frozenset(
                v
                for c in rng.sample(list(eq.classes), min(rng.randint(1, 3), len(eq.classes)))
                for v in c
            )
            for _ in range(length)
        )
    else:
        vs = sorted(g.vertices)
        steps = tuple(
            frozenset(rng.sample(vs, 1 if rng.random() < 0.7 else rng.randint(2, 3)))
            for _ in range(length)
        )
    if not is_invariant(g, steps, start, eq):
        return None
    return g, eq, steps, start


def test_criterion_09_quotient_invariance(rng):
    kept = 0
    tried = 0
    while kept < 500:
        tried += 1
        assert tried < 5000, "instance acceptance rate collapsed"
        inst = quotient_instance(rng)
        if inst is None:
            continue
        g, eq, steps, start = inst
        kept += 1

        trace = simulate(g, steps, clean_start=start)
        qg, _ = quotient(g, eq)
        qtrace = simulate(qg, push_search(steps, eq), clean_start=core_classes(eq, start))
        for t in range(len(steps)):
            assert qtrace.protected[t] == core_classes(eq, trace.protected[t])
        for t in range(len(steps) + 1):
            assert qtrace.clean[t] == core_classes(eq, trace.clean[t])
    report(9, f"{kept} invariant searches of {tried} sampled, both identities exact")


def test_criterion_10_lower_bound_probes():
    values = {}
    found = None
    for depth in (1, 2, 3):
        g = perfect_binary_tree(depth)
        values[depth] = inspection_number(g, state_budget=500_000).value
        if values[depth] == 3:
            found = depth
            break
    assert found == 3, values
    assert values == {1: 2, 2: 2, 3: 3}

    for g, name in (
        (family_f1(1), "subdivided complete quadruple"),
        (family_f2(), "three-strand family"),
        (family_f3(), "linked-pairs family"),
    ):
        assert exists_successful_search(g, 2) is None, name
    report(10, "depth-3 binary tree needs 3; all three families refuse 2")
