"""Exact solvers: inspection numbers, pathwidth, boundary certificates.

The frozen values used here were fixed against an independent brute-force
enumeration before the closure-based solver existed; keep them in sync
with nothing.
"""

import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from collections import Counter, deque

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zvsearch
from zvsearch import solver
from zvsearch.errors import InputError, ResourceLimitError
from zvsearch.game import is_monotonic, is_successful, search_width, simulate
from zvsearch.graphs import (
    Graph,
    boundary,
    complete_graph,
    cycle_graph,
    family_f1,
    family_f2,
    family_f3,
    generate,
    grid_graph,
    k4_subdivision_example,
    path_graph,
    subdivide,
)
from zvsearch.cli import main
from zvsearch.solver import (
    _closure,
    _greedy_layout,
    _layout_bags,
    _least_boundaries,
    _merge_bags,
    _separator_profile,
    _table_profile,
    _vertex_separation,
    boundary_gap_certificate,
    boundary_profile,
    exists_monotonic_search,
    exists_successful_search,
    inspection_number,
    is_path_decomposition,
    monotonic_inspection_number,
    pathwidth,
)

from conftest import bench_corpus, from_networkx, random_connected, relabeled


def brute_profile(g, k):
    """Subset enumeration oracle for boundary_profile, n <= 12 or so."""
    vs = list(g.vertices)
    sizes = set()
    for r in range(len(vs) + 1):
        for combo in itertools.combinations(vs, r):
            if len(boundary(g, set(combo))) < k:
                sizes.add(r)
    return frozenset(sizes)


def _clean_after(nbr, full, protected):
    """Clean set after one round with the given protected set."""
    clean = protected
    outside = full & ~protected
    rem = protected
    while rem:
        low = rem & -rem
        if nbr[low.bit_length() - 1] & outside:
            clean &= ~low
        rem ^= low
    return clean


def reference_closure(g, k, clean_start, prune, monotone):
    """The clean-set closure one pick at a time: the oracle for the
    batched round map in solver._closure. Returns (steps or None,
    states expanded), with no state budget."""
    _, nbr, full = g.masks()
    start = g.to_mask(clean_start)
    if start == full:
        return [], 0
    if k == 0:
        return None, 0
    if k >= g.n:
        return [frozenset(g.vertices)], 1
    vs = g.vertices
    parents = {start: None}
    frontier = deque([start])
    archive = [start]
    expanded = 0
    while frontier:
        state = frontier.popleft()
        expanded += 1
        dirty = [i for i in range(g.n) if not state >> i & 1]
        top = min(k, len(dirty))
        sizes = range(1, top + 1) if monotone else (top,)
        for j in sizes:
            for pick in itertools.combinations(dirty, j):
                protected = state
                for i in pick:
                    protected |= 1 << i
                nxt = _clean_after(nbr, full, protected)
                if nxt == full:
                    parents[nxt] = (state, frozenset(vs[i] for i in pick))
                    return replay(parents, nxt), expanded
                if monotone and (nxt & state != state or nxt == state):
                    continue
                if nxt in parents:
                    continue
                if prune and not monotone:
                    if any(other | nxt == other for other in archive):
                        continue
                    archive[:] = [o for o in archive if o | nxt != nxt]
                    archive.append(nxt)
                parents[nxt] = (state, frozenset(vs[i] for i in pick))
                frontier.append(nxt)
    return None, expanded


def replay(parents, state):
    """The steps from the clean start to state, read back through
    parents, which maps each state to (its parent, the step)."""
    steps = []
    while parents[state] is not None:
        state, step = parents[state]
        steps.append(step)
    steps.reverse()
    return steps


def assert_matches_reference(g, k, clean_start=(), prune=True, monotone=False):
    got = _closure(g, k, clean_start, 10**9, prune, monotone)
    assert got == reference_closure(g, k, clean_start, prune, monotone), (
        sorted(g.edges()), k, sorted(clean_start), prune, monotone)
    return got


def test_single_vertex():
    g = Graph.from_edges([], vertices=["x"])
    r = inspection_number(g)
    assert r.value == 1 and len(r.witness) == 1


def test_paths_need_two():
    for n in range(2, 7):
        r = inspection_number(path_graph(n))
        assert r.value == 2, n
        assert exists_successful_search(path_graph(n), 1) is None


def test_cycles_need_three():
    for n in range(3, 7):
        assert inspection_number(cycle_graph(n)).value == 3, n


def test_complete_graphs_need_everything():
    for n in range(2, 6):
        assert inspection_number(complete_graph(n)).value == n, n


def test_witness_is_replayable():
    r = inspection_number(cycle_graph(6))
    trace = simulate(cycle_graph(6), r.witness)
    assert is_successful(trace)
    assert search_width(r.witness) == r.value


def test_clean_start_lowers_the_job():
    g = path_graph(5)
    r = inspection_number(g, clean_start={"0", "1", "2", "3"})
    assert r.value == 1


def test_solve_result_record():
    rec = inspection_number(path_graph(2)).to_record()
    assert rec["value"] == 2
    assert rec["witness"] == [["0", "1"]]
    assert rec["method"]


def test_k_max_stops_early():
    r = inspection_number(complete_graph(5), k_max=3)
    assert r.value is None and r.witness is None


def test_state_budget_raises():
    """tree:4 (value 3, greedy cap 4) is certified at k = 2 from the
    separators, so it closes k = 3 only and blows the budget there. The
    bench graph rc081-n12 of solve seed 0 is certified at k = 3: it
    fails k = 4 in 16 states, then blows the budget at k = 5. The
    message says how far the run got."""
    with pytest.raises(ResourceLimitError) as ex:
        inspection_number(generate("tree:4"), state_budget=200)
    assert str(ex.value) == (
        "solver state budget exhausted at k=3 (budget 200 states per width, "
        "0 states expanded at k < 3)")
    assert (ex.value.budget, ex.value.used) == (200, 201)
    g = bench_corpus("solve", [0])[8 + 81]
    assert g.n == 12 and g.m == 25
    with pytest.raises(ResourceLimitError) as ex:
        inspection_number(g, state_budget=20)
    assert str(ex.value) == (
        "solver state budget exhausted at k=5 (budget 20 states per width, "
        "16 states expanded at k < 5)")
    assert (ex.value.budget, ex.value.used) == (20, 21)


def test_bad_inputs():
    with pytest.raises(InputError):
        exists_successful_search(path_graph(2), -1)
    with pytest.raises(InputError):
        pathwidth(Graph.from_edges([]))


def test_prune_matches_exhaustive(rng):
    """Antichain pruning changes nothing about feasibility answers."""
    for _ in range(25):
        g = random_connected(rng.randint(3, 6), rng)
        for k in (1, 2, 3):
            a = exists_successful_search(g, k, prune=True)
            b = exists_successful_search(g, k, prune=False)
            assert (a is None) == (b is None)


def test_pathwidth_frozen():
    assert pathwidth(path_graph(6))[0] == 1
    assert pathwidth(cycle_graph(6))[0] == 2
    assert pathwidth(complete_graph(5))[0] == 4
    assert pathwidth(grid_graph(3, 4))[0] == 3
    star = Graph.from_edges([("c", f"l{i}") for i in range(5)])
    assert pathwidth(star)[0] == 1


def test_pathwidth_bags_validate():
    for g in (path_graph(5), cycle_graph(5), grid_graph(2, 3)):
        w, decomp = pathwidth(g)
        assert decomp.width == w
        assert is_path_decomposition(g, decomp.bags)


def test_values_ignore_labels(atlas_2_7, rng):
    """No value depends on vertex labels: a random relabelling keeps the
    inspection number (n <= 6), the pathwidth and the boundary profiles
    (n <= 7)."""
    for g in atlas_2_7:
        h = relabeled(g, rng)
        if g.n <= 6:
            assert inspection_number(h).value == inspection_number(g).value
        assert pathwidth(h)[0] == pathwidth(g)[0]
        for k in (2, 3):
            assert boundary_profile(h, k) == boundary_profile(g, k)


def test_is_path_decomposition_rejects():
    g = path_graph(3)
    _, decomp = pathwidth(g)
    bags = list(decomp.bags)
    assert not is_path_decomposition(g, bags[:-1] or [frozenset()])
    # break contiguity: v appears, disappears, then returns
    assert not is_path_decomposition(
        g, [frozenset({"0", "1"}), frozenset({"1", "2"}), frozenset({"0", "2"})]
    )


def test_monotonic_inspection_matches_pathwidth(rng):
    for _ in range(20):
        g = random_connected(rng.randint(2, 6), rng)
        r = monotonic_inspection_number(g)
        assert r.value == pathwidth(g)[0] + 1
        trace = simulate(g, r.witness)
        assert is_successful(trace) and is_monotonic(trace)


def test_monotone_threshold_on_cycle():
    g = cycle_graph(5)
    steps = exists_monotonic_search(g, 3)
    assert steps is not None
    trace = simulate(g, steps)
    assert is_successful(trace) and is_monotonic(trace)
    assert exists_monotonic_search(g, 2) is None


def test_strict_gap_instance():
    """The eight-vertex example splits the plain and monotonic numbers."""
    g = k4_subdivision_example()
    assert inspection_number(g).value == 3
    assert monotonic_inspection_number(g).value == 4


def test_boundary_profile_c6_frozen():
    got = boundary_profile(cycle_graph(6), 2)
    assert got == frozenset({0, 1, 6})
    assert got == brute_profile(cycle_graph(6), 2)


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 7), st.integers(1, 3), st.randoms(use_true_random=False))
def test_boundary_profile_matches_brute(n, k, r):
    vs = [f"v{i}" for i in range(n)]
    edges = [(u, w) for i, u in enumerate(vs) for w in vs[i + 1:] if r.random() < 0.5]
    g = Graph.from_edges(edges, vertices=vs)
    assert boundary_profile(g, k) == brute_profile(g, k)


def test_certificate_on_long_cycle():
    cert = boundary_gap_certificate(cycle_graph(6), 2)
    assert cert is not None
    assert cert.i == 3 and cert.profile == frozenset({0, 1, 6})
    assert cert.to_record() == {"k": 2, "i": 3, "profile": [0, 1, 6]}


def profile_graphs(rng, sizes, count):
    """For each n in sizes, the edgeless graph on v0..v{n-1} and count
    random graphs on them, with edge probabilities from 0.1 to 0.9."""
    graphs = []
    for n in sizes:
        vs = [f"v{i}" for i in range(n)]
        graphs.append(Graph.from_edges([], vertices=vs))
        for _ in range(count):
            p = rng.uniform(0.1, 0.9)
            edges = [(u, w) for i, u in enumerate(vs) for w in vs[i + 1:]
                     if rng.random() < p]
            graphs.append(Graph.from_edges(edges, vertices=vs))
    return graphs


def test_profile_engines_match_brute(rng):
    """Both engines, and boundary_profile choosing between them, equal
    the subset enumeration for n <= 12 and every k <= 5."""
    for g in profile_graphs(rng, range(1, 13), 3):
        for k in range(6):
            want = brute_profile(g, k)
            assert _table_profile(g, k, 22) == want, (sorted(g.edges()), k)
            assert _separator_profile(g, k) == want, (sorted(g.edges()), k)
            assert boundary_profile(g, k) == want, (sorted(g.edges()), k)


def test_profile_engines_agree(rng):
    """The separators equal the subset tables for n <= 16 and every
    k <= 5, k >= n and edgeless graphs included."""
    graphs = profile_graphs(rng, range(1, 17), 5)
    graphs += [family_f1(2), family_f2(), grid_graph(4, 4), path_graph(16)]
    for g in graphs:
        for k in range(6):
            assert _separator_profile(g, k) == _table_profile(g, k, 22), (
                sorted(g.edges()), k)


def test_boundary_profile_picks_its_engine(monkeypatch):
    """Tables when n <= mask_cap and 2^n <= _TABLE_RATIO * T, for the T
    search steps of the separators (one search of n + m steps for each
    set of fewer than k - 1 vertices), separators otherwise; more than
    2^mask_cap search steps are refused before any separator is
    visited."""
    assert solver._TABLE_RATIO == 48
    built = []
    real = solver._least_boundaries

    def counted(g, mask_cap):
        built.append(g.n)
        return real(g, mask_cap)

    monkeypatch.setattr(solver, "_least_boundaries", counted)
    # one search of 2n steps: 48 * 18 >= 2^9 but 48 * 20 < 2^10
    assert boundary_profile(cycle_graph(9), 1) == frozenset({0, 9})
    assert boundary_profile(cycle_graph(10), 1) == frozenset({0, 10})
    assert built == [9]
    assert boundary_profile(complete_graph(14), 13) == (
        frozenset(range(13)) | {14})
    assert boundary_profile(path_graph(20), 2) == frozenset(range(21))
    assert built == [9, 14]
    # k = 4: 1 + n + C(n, 2) searches of n + C(n, 2) steps, 29,412 at
    # n = 18, 48 times that >= 2^18; 64,262 at n = 22, < 2^22 / 48
    assert boundary_profile(complete_graph(18), 4) == frozenset({0, 1, 2, 3, 18})
    assert boundary_profile(complete_graph(22), 4) == frozenset({0, 1, 2, 3, 22})
    assert built == [9, 14, 18]
    # path:10 with k = 2: one search of 10 vertices and 9 edges, 19
    # steps, more than 2^4, at most 2^5; k = 3 adds one per vertex
    assert boundary_profile(path_graph(10), 2, mask_cap=5) == frozenset(range(11))
    with pytest.raises(ResourceLimitError, match="at least 19 sep") as ex:
        boundary_profile(path_graph(10), 2, mask_cap=4)
    assert (ex.value.budget, ex.value.used) == (16, 19)
    with pytest.raises(ResourceLimitError, match="at least 209 sep"):
        boundary_profile(path_graph(10), 3, mask_cap=5)
    assert built == [9, 14, 18]


def test_certificate_is_the_first_gap(rng):
    """The one walk up the sorted profile finds the definition's i: the
    smallest with no member strictly between i - k and i."""
    path = path_graph(12)
    for _ in range(300):
        profile = frozenset(c for c in range(13) if rng.random() < 0.4)
        k = rng.randrange(5)
        want = next((i for i in range(1, 13)
                     if not any(i - k < c < i for c in profile)), None)
        cert = boundary_gap_certificate(path, k, profile=profile)
        assert (cert.i if cert else None) == want, (sorted(profile), k)


@pytest.mark.parametrize(
    "family, c, i",
    [("f1:0", 1, 6), ("f1:0", 5, 10), ("f1:0", 10, 15),
     ("f2", 0, 7), ("f2", 1, 8), ("f2", 3, 12),
     ("f3", 0, 7), ("f3", 1, 8), ("f3", 3, 12)],
)
def test_forbidden_subdivisions_have_a_k3_gap(family, c, i):
    """The NO half of the theorem: no subdivision of K_4 (F1), F2 or F3
    is searchable with 3 searchers. Here a k = 3 certificate proves it
    for each graph with every edge subdivided c times, up to 134
    vertices, far past the subset tables. A certificate is evidence, not
    a decision procedure: k4sub, whose inspection number is 3, has none,
    and a graph whose inspection number exceeds 3 may have none either."""
    base = generate(family)
    g = subdivide(base, {e: c for e in base.edges()}).derived
    assert g.n == base.n + c * base.m
    cert = boundary_gap_certificate(g, 3)
    assert cert is not None and cert.i == i


def test_certificate_sound_on_feasible_pairs(rng):
    """No gap certificate may exist at or above the true value."""
    for _ in range(15):
        g = random_connected(rng.randint(2, 6), rng)
        val = inspection_number(g).value
        for k in range(val, g.n + 1):
            assert boundary_gap_certificate(g, k) is None, (sorted(g.edges()), k)


def test_certificates_are_sound_on_every_graph_of_up_to_five_vertices():
    """Every graph of 1-5 vertices, disconnected and edgeless ones too: a
    certificate at k proves the inspection number exceeds k. An edgeless
    graph has none at k = 1, since one searcher sweeps it; a graph with
    an edge has one."""
    checked = 0
    for ng in nx.graph_atlas_g():
        if not 1 <= ng.number_of_nodes() <= 5:
            continue
        g = from_networkx(ng)
        value = inspection_number(g).value
        for k in range(g.n + 1):
            if boundary_gap_certificate(g, k) is not None:
                assert value > k, (sorted(g.edges()), g.n, k)
            checked += 1
        assert (boundary_gap_certificate(g, 1) is None) == (g.m == 0)
    assert checked == 2 * 1 + 3 * 2 + 4 * 4 + 5 * 11 + 6 * 34
    assert boundary_gap_certificate(path_graph(1), 1) is None
    assert boundary_gap_certificate(Graph.from_edges([], ["a", "b"]), 1) is None


# ---------------------------------------------------------------------------
# the batched round map against the pick-by-pick reference


@pytest.mark.parametrize("mode", ["prune", "exhaustive", "monotone"])
def test_closure_matches_reference(rng, mode):
    """Same witness and same count of expanded states as the reference."""
    for _ in range(30):
        g = random_connected(rng.randint(3, 10), rng)
        for k in range(1, 5):
            assert_matches_reference(
                g, k, prune=mode == "prune", monotone=mode == "monotone"
            )


def test_closure_matches_reference_from_clean_start():
    g = grid_graph(3, 4)
    start = {g.vertices[0], g.vertices[5], g.vertices[6]}
    for k in (2, 3, 4):
        for monotone in (False, True):
            assert_matches_reference(g, k, start, monotone=monotone)


def test_closure_matches_reference_above_64_vertices():
    """Past 64 vertices the masks are Python ints in object arrays. The
    clean start leaves the dirty vertices on bits on both sides of 64."""
    g = path_graph(70)
    start = {str(i) for i in range(50)}
    steps, explored = assert_matches_reference(g, 2, start)
    assert explored == 172
    assert is_successful(simulate(g, steps, clean_start=start))
    assert assert_matches_reference(g, 2, start, monotone=True)[1] == 19
    assert assert_matches_reference(g, 1, start) == (None, 1)


def test_closure_matches_reference_across_chunks():
    """A state with more picks than one chunk holds. {p} is clean after
    any pick of both p and 9, the last two vertices in label order, so
    the first chunk finds it and the second one meets it again."""
    g = complete_graph(20)
    g = Graph.from_edges(list(g.edges()) + [("9", "p")])
    assert g.vertices[-2:] == ("9", "p")
    assert math.comb(g.n, 5) > solver._CHUNK
    assert assert_matches_reference(g, 5) == (None, 2)


def recorded_batches(monkeypatch):
    """(states, table rows) of each batch _closure maps, in order."""
    sizes = []
    batch_rows = solver._batch_rows

    def recorded(batch, table, *args):
        sizes.append((len(batch), len(table)))
        return batch_rows(batch, table, *args)

    monkeypatch.setattr(solver, "_batch_rows", recorded)
    return sizes


def test_small_chunks_match_reference(rng, monkeypatch):
    """Chunks of a few rows put duplicates and dominated clean sets on
    every side of a chunk boundary: at 5 rows every state streams its
    picks in several chunks, and at 40 and 400 rows batches of a few
    states fill a chunk and end between states."""
    graphs = [random_connected(rng.randint(5, 9), rng) for _ in range(8)]
    graphs += [path_graph(8), cycle_graph(7), grid_graph(2, 4)]
    sizes = recorded_batches(monkeypatch)
    for chunk in (5, 40, 400):
        monkeypatch.setattr(solver, "_CHUNK", chunk)
        sizes.clear()
        for g in graphs:
            for k in (2, 3):
                for prune, monotone in ((True, False), (False, False),
                                        (False, True)):
                    assert_matches_reference(
                        g, k, prune=prune, monotone=monotone)
        assert all(states * rows <= chunk for states, rows in sizes)
        if chunk == 5:
            assert not sizes  # every table is longer: all picks stream
        else:
            assert max(s for s, rows in sizes if s == chunk // rows) > 1


def test_goal_inside_a_batch_matches_reference(monkeypatch):
    """path:9 at k = 2 reaches the full set at the first state of a
    batch of six: the five after it are mapped but never expanded."""
    sizes = recorded_batches(monkeypatch)
    steps, explored = assert_matches_reference(path_graph(9), 2)
    assert steps is not None and explored == 22
    assert sizes[-1][0] == 6
    assert sum(states for states, _ in sizes) == explored + 5


@pytest.mark.parametrize("mode", ["prune", "exhaustive", "monotone"])
def test_budget_runs_out_where_the_reference_does(rng, mode):
    """Let E be the states the reference expands. A budget of E answers
    as the reference does, and a budget of E - 1 raises at the E-th
    state, though a batch maps states past the budget before the loop
    reaches them."""
    prune, monotone = mode == "prune", mode == "monotone"
    graphs = [random_connected(rng.randint(4, 10), rng) for _ in range(12)]
    graphs += [path_graph(9), cycle_graph(8), grid_graph(3, 3)]
    for g in graphs:
        for k in range(1, min(4, g.n)):
            want = reference_closure(g, k, (), prune, monotone)
            used = want[1]
            assert _closure(g, k, (), used, prune, monotone) == want
            with pytest.raises(ResourceLimitError) as ex:
                _closure(g, k, (), used - 1, prune, monotone)
            assert (ex.value.budget, ex.value.used) == (used - 1, used)


def test_closure_batches_stay_within_a_chunk(monkeypatch):
    """C(26, 4) = 14,950 picks fill all but 1,434 rows of a chunk, so on
    grid:2,13 at k = 4, whose frontier holds up to 252 states, every
    batch is one state. No round map gets more than _CHUNK rows, and the
    traced peak stays under 4 MiB."""
    g = grid_graph(2, 13)
    assert math.comb(g.n, 4) <= solver._CHUNK < 2 * math.comb(g.n, 4)
    sizes = recorded_batches(monkeypatch)
    rows = []
    round_map = solver._round_map

    def recorded(protected, *args):
        rows.append(len(protected))
        return round_map(protected, *args)

    monkeypatch.setattr(solver, "_round_map", recorded)
    _closure(g, 1, (), 10, True, False)  # byte tables, outside the trace
    tracemalloc.start()
    try:
        steps, explored = _closure(g, 4, (), 10**9, True, False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert steps is not None and explored == 1571
    assert {states for states, _ in sizes} == {1}
    assert max(rows) <= solver._CHUNK
    assert peak < 4 << 20, peak


# ---------------------------------------------------------------------------
# the numpy pre-filters of each batch against the pick-by-pick reference


@pytest.fixture(scope="module")
def bench_closures():
    """The arguments of every closure inspection_number runs on the bench
    solve corpus, seed 0."""
    calls = []
    real = solver._closure

    def recorded(*args):
        calls.append(args)
        return real(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_closure", recorded)
        for g in bench_corpus("solve", [0]):
            inspection_number(g)
    return calls


STAGES = ("parent", "repeat", "archive", "batch", "accepted")


def spy_prefilters(monkeypatch):
    """Counts of the rows each stage of a batch drops or accepts: rows
    whose clean set was a parent, later rows of a set met in the batch,
    sets inside a member of the archive before the batch (counted here
    in pure Python), sets inside an earlier set of the batch, and sets
    accepted. Each archive after a batch is checked, also in pure
    Python."""
    counts = Counter()
    absent, first, antichain = (solver._Parents.absent, solver._Parents.first,
                                solver._antichain)

    def spy_absent(self, sets):
        new = absent(self, sets)
        counts["parent"] += int(new.size - new.sum())
        return new

    def spy_first(self, sets):
        rows = first(self, sets)
        counts["repeat"] += sets.size - rows.size
        return rows

    def spy_antichain(sets, archive):
        accepted, after = antichain(sets, archive)
        members = archive.tolist()
        inside = sum(any(s | a == a for a in members) for s in sets.tolist())
        counts["archive"] += inside
        counts["batch"] += sets.size - inside - accepted.size
        counts["accepted"] += accepted.size
        # the archive stays the maximal sets of the old one and the new
        every = members + sets[accepted].tolist()
        assert sorted(after.tolist()) == sorted(
            x for x in every if not any(x != y and x | y == y for y in every))
        return accepted, after

    monkeypatch.setattr(solver._Parents, "absent", spy_absent)
    monkeypatch.setattr(solver._Parents, "first", spy_first)
    monkeypatch.setattr(solver, "_antichain", spy_antichain)
    return counts


def test_closure_matches_reference_on_the_bench_corpus(
        bench_closures, monkeypatch):
    """Every closure that solve runs on the bench corpus (seed 0) gives
    the reference's witness and count, and each pre-filter of a batch
    drops rows before the antichain test sees them."""
    counts = spy_prefilters(monkeypatch)
    assert len(bench_closures) == 65
    for g, k, clean_start, _, prune, monotone in bench_closures:
        assert_matches_reference(g, k, clean_start, prune, monotone)
    assert min(counts[key] for key in STAGES) > 0, counts
    # most rows map to a parent; few reach the antichain
    assert counts["parent"] > 10 * (counts["archive"] + counts["batch"]
                                    + counts["accepted"])


@pytest.mark.parametrize("path", ["scatter", "unique", "object"])
def test_each_batch_path_matches_reference(
        bench_closures, rng, monkeypatch, path):
    """Up to _TABLE_BITS vertices a batch is deduped by scattering row
    numbers over the 2^n sets and the parents are a byte table; above,
    np.unique and a sorted array; above _WORD_BITS the masks are object
    arrays. Lowering those limits forces each path, which must match
    the reference in every mode."""
    if path != "scatter":
        monkeypatch.setattr(solver, "_TABLE_BITS", 0)
    if path == "object":
        monkeypatch.setattr(solver, "_WORD_BITS", 0)
    taken = set()
    first = solver._Parents.first

    def spy_first(self, sets):
        taken.add((self.table is not None, sets.dtype))
        return first(self, sets)

    monkeypatch.setattr(solver._Parents, "first", spy_first)
    counts = spy_prefilters(monkeypatch)
    graphs = [random_connected(rng.randint(4, 9), rng) for _ in range(8)]
    graphs += [path_graph(8), cycle_graph(7), grid_graph(2, 4)]
    for g in graphs:
        for k in (2, 3):
            for prune, monotone in ((True, False), (False, False),
                                    (False, True)):
                assert_matches_reference(g, k, prune=prune, monotone=monotone)
    for g, k, clean_start, _, prune, monotone in bench_closures[:20]:
        assert_matches_reference(g, k, clean_start, prune, monotone)
    dtype = np.dtype(object if path == "object" else np.uint64)
    assert taken == {(path == "scatter", dtype)}
    assert min(counts[key] for key in STAGES) > 0, counts


def test_separators_certify_the_largest_width_below_the_top():
    """Above the subset budget the separators try each width from the
    top down. tree:4 (greedy cap 4) fails k = 3 and is certified at
    k = 2 with a gap at i = 6, so solve closes k = 3 only; tree:5 (cap
    5) fails k = 4 and 3. With a budget of 2^10 search steps the
    separators refuse tree:5 at k = 4 (252,125 steps) and k = 3 (8,000),
    and the walk goes on to k = 2 (125)."""
    tree4, tree5 = generate("tree:4"), generate("tree:5")
    for g, top in ((tree4, 3), (tree5, 4)):
        for mask_cap in (22, 10):
            certify = solver._certifier(g, top, mask_cap)[0]
            cert = solver._largest_certificate(top, certify)
            assert (cert.k, cert.i) == (2, 6)
    with pytest.raises(ResourceLimitError):
        boundary_gap_certificate(tree5, 3, mask_cap=10)
    res = inspection_number(tree4)
    assert (res.value, res.explored_states) == (3, 11261)
    assert res.certificate is None
    assert is_successful(simulate(tree4, res.witness))


# Run under python -O, where asserts are stripped: a decomposition that
# loses its last bag no longer sweeps the graph clean, and the self-check
# of monotonic_inspection_number must still refuse it.
SABOTAGE = """
import zvsearch.solver as solver
from zvsearch.graphs import cycle_graph

real = solver.pathwidth


def pathwidth(g, mask_cap):
    width, decomp = real(g, mask_cap=mask_cap)
    return width, solver.PathDecomposition(decomp.bags[:-1])


solver.pathwidth = pathwidth
try:
    solver.monotonic_inspection_number(cycle_graph(5))
except AssertionError as ex:
    print("refused:", ex)
else:
    print("accepted")
"""


def test_sabotaged_bag_sweep_is_refused_under_O():
    root = os.path.dirname(os.path.dirname(zvsearch.__file__))
    env = dict(os.environ, PYTHONPATH=root)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", SABOTAGE],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("refused: bag sweep failed"), proc.stdout


def test_monotonic_inspection_explores_no_states():
    assert monotonic_inspection_number(grid_graph(3, 3)).explored_states == 0


# ---------------------------------------------------------------------------
# the capped scan against the full one


def reference_inspection_number(g, clean_start=()):
    """The scan inspection_number replaced: the closure at every k up to
    pathwidth+1, the cap included, on a connected graph. Returns (value,
    steps, states explored at each width from k = 1 on)."""
    cap = pathwidth(g)[0] + 1
    states = []
    for k in range(1, cap + 1):
        steps, used = _closure(g, k, clean_start, 10**9, True, False)
        states.append(used)
        if steps is not None:
            return k, tuple(steps), states
    raise AssertionError("no search at pathwidth+1")


def random_clean_start(g, rng):
    return set(rng.sample(g.vertices, rng.randint(0, g.n // 2)))


def assert_matches_full_scan(g, clean_start, mask_cap=22):
    res = inspection_number(g, clean_start=clean_start, mask_cap=mask_cap)
    value, steps, per_width = reference_inspection_number(g, clean_start)
    states = sum(per_width)
    where = (sorted(g.edges()), sorted(clean_start))
    assert res.value == value, where
    assert search_width(res.witness) <= value, where
    assert is_successful(simulate(g, res.witness, clean_start=clean_start)), where
    # the widths a certificate settles, k = 1 at least, are skipped; a
    # clean start takes no certificate
    skipped = range(1, value) if g.m and not clean_start else [0]
    if res.method.startswith("clean-set closure"):
        # the value came from the closure: the full scan's witness, and
        # its count at the widths above the certified ones
        assert res.witness == steps, where
        assert res.explored_states in [sum(per_width[c:]) for c in skipped], where
    elif "certificate" in res.method:
        assert res.method.startswith("bag sweep"), where
        assert res.certificate.k == value - 1 and res.explored_states == 0, where
    else:
        assert res.method.startswith("bag sweep"), where
        assert res.certificate is None, where
        assert res.explored_states in [
            sum(per_width[c:-1]) for c in skipped], where
        assert res.explored_states < states or states == 0, where
    return res


def test_inspection_number_matches_full_scan(rng):
    """Same values as the closure run up to pathwidth+1, and witnesses
    that replay at that width, with and without a clean start."""
    swept = 0
    for _ in range(40):
        g = random_connected(rng.randint(3, 10), rng)
        for start in (set(), random_clean_start(g, rng)):
            res = assert_matches_full_scan(g, start)
            swept += res.method.startswith("bag sweep")
    assert swept > 20


def test_greedy_cap_matches_full_scan(rng):
    """mask_cap=0 builds no subset table: the cap is a greedy layout's."""
    for _ in range(40):
        g = random_connected(rng.randint(3, 10), rng)
        for start in (set(), random_clean_start(g, rng)):
            res = assert_matches_full_scan(g, start, mask_cap=0)
            assert "greedy layout" in res.method


def greedy_bags(g):
    """The bags of g's greedy layout, which caps a solve's scan."""
    return _layout_bags(g, _greedy_layout(g)[1])


def test_labels_follow_the_tables(monkeypatch):
    """method names pathwidth+1 where the DP's tables fit, whether the
    DP ran or a certificate at the greedy width settled the answer
    first: path:70 (certified at k = 1) reads the same with a subset
    budget of 100, whose 2^70 bytes numpy refuses, as with 22. With the
    tables refused, cycle:6 (certified at k = 2) and K4_PENDANTS (whose
    DP runs) name the greedy layout too."""
    g = path_graph(70)
    wide = inspection_number(g, mask_cap=100)
    assert wide.method == inspection_number(g, mask_cap=22).method
    assert "greedy layout" in wide.method
    for g in (cycle_graph(6), K4_PENDANTS):
        assert "pathwidth+1" in inspection_number(g).method

    def refused(n):
        raise ResourceLimitError("refused")

    monkeypatch.setattr(solver, "_subset_array", refused)
    for g in (cycle_graph(6), K4_PENDANTS):
        res = inspection_number(g)
        assert "greedy layout" in res.method
        assert res.value == (3 if g.n == 6 else 4)


def test_solve_decides_below_the_greedy_width(monkeypatch):
    """inspection_number never runs the DP at the greedy width: only one
    below it, and not at all where a certificate at the greedy width
    settles the answer (most of the bench solve corpus, seed 0) or where
    the certificate's sweep already proves the greedy width optimal (23
    more graphs there): every layout's prefix of s vertices has boundary
    least[s] or more. With a clean start no certificate is taken, and
    the decision still runs one below."""
    calls = []
    real = solver._vertex_separation

    def spy(g, mask_cap, bound):
        calls.append((g, bound))
        return real(g, mask_cap, bound)

    monkeypatch.setattr(solver, "_vertex_separation", spy)
    graphs = bench_corpus("solve", (0,))
    for g in graphs:
        inspection_number(g)
    ran = len(calls)
    assert (len(graphs), ran) == (108, 43)
    for g, bound in calls:
        _, least = solver._certifier(g, bound + 1, solver._MASK_CAP)
        assert least is None or max(least) <= bound, sorted(g.edges())
    inspection_number(K4_PENDANTS, clean_start={"v4"})
    assert len(calls) == ran + 1
    for g, bound in calls:
        assert bound == _greedy_layout(g)[0] - 1, sorted(g.edges())


def test_greedy_bags_form_a_path_decomposition(rng):
    graphs = [path_graph(1), cycle_graph(9), grid_graph(3, 5)]
    graphs += [k4_subdivision_example(), family_f3()]
    graphs += [random_connected(rng.randint(2, 12), rng) for _ in range(40)]
    for g in graphs:
        bags = greedy_bags(g)
        assert is_path_decomposition(g, bags), sorted(g.edges())
        if g.n <= 22:
            assert max(len(b) for b in bags) >= pathwidth(g)[0] + 1
    # f3 has 26 vertices and inspection number 4: its greedy cap is tight
    assert max(len(b) for b in greedy_bags(family_f3())) == 4


def test_merged_sweep_is_no_longer_and_replays(rng):
    for _ in range(40):
        g = random_connected(rng.randint(2, 12), rng)
        for bags in (pathwidth(g)[1].bags, greedy_bags(g)):
            cap = max(len(b) for b in bags)
            steps = _merge_bags(bags, cap)
            assert len(steps) <= len(bags)
            assert search_width(steps) <= cap
            assert set().union(*steps) == set(g.vertices)
            assert is_successful(simulate(g, steps)), sorted(g.edges())
    assert _merge_bags(pathwidth(path_graph(2))[1].bags, 2) == (frozenset("01"),)


# K_4 on v0..v3 with three pendant vertices at v0: value 4, pathwidth 3,
# and a boundary-gap certificate at k = 1 only.
K4_PENDANTS = Graph.from_edges(
    (f"v{u}", f"v{w}") for u, w in [
        (0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (1, 2), (1, 3), (2, 3)])


def test_k_max_below_the_cap_gives_up():
    """K4_PENDANTS has value 4 and pathwidth 3: k_max = 3 runs the
    closure at k = 2 and 3, above its certified k = 1, and stops; k_max
    = 4 answers the cap."""
    g = K4_PENDANTS
    full = inspection_number(g)
    assert full.value == 4 and full.method.startswith("bag sweep")
    assert full.certificate is None
    stopped = inspection_number(g, k_max=3)
    assert stopped.value is None and stopped.witness is None
    assert stopped.explored_states == full.explored_states == 16
    assert inspection_number(g, k_max=4) == full


def test_k_max_at_a_certified_width_runs_no_closure(monkeypatch):
    """A k_max at or below the largest certified width stops before any
    closure: grid:3,3 is certified at k = 3, K4_PENDANTS at k = 1."""

    def refused(*args):
        raise AssertionError("closure ran")

    monkeypatch.setattr(solver, "_closure", refused)
    for g, top in ((grid_graph(3, 3), 3), (K4_PENDANTS, 1)):
        for k_max in range(1, top + 1):
            res = inspection_number(g, k_max=k_max)
            assert (res.value, res.witness, res.explored_states) == (None, None, 0)
            assert res.certificate is None
    assert inspection_number(grid_graph(3, 3), k_max=4).value == 4


# Run under python -O, where asserts are stripped: a bag sweep that loses
# its last step no longer clears the graph, and inspection_number must
# still refuse it rather than return it as the witness at the cap.
CAP_SABOTAGE = """
import sys

import zvsearch.solver as solver
from zvsearch.graphs import generate

real = solver._merge_bags
solver._merge_bags = lambda bags, cap: real(bags, cap)[:-1]
try:
    solver.inspection_number(generate(sys.argv[1]), mask_cap=int(sys.argv[2]))
except AssertionError as ex:
    print("refused:", ex)
else:
    print("accepted")
"""


@pytest.mark.parametrize(
    "spec, mask_cap", [("cycle:5", 22), ("cycle:30", 22), ("grid:3,3", 0)]
)
def test_sabotaged_cap_sweep_is_refused_under_O(spec, mask_cap):
    root = os.path.dirname(os.path.dirname(zvsearch.__file__))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", CAP_SABOTAGE, spec, str(mask_cap)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=root),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("refused: bag sweep failed"), proc.stdout


@pytest.mark.parametrize("spec", ["cycle:66", "cycle:200"])
def test_solve_long_cycles(capsys, spec):
    """Above the subset budget the greedy layout caps the scan at 3, and
    the separators certify k = 2 (a gap at i = 3), so no width runs the
    closure."""
    assert main(["solve", spec]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["value"] == 3 and doc["explored_states"] == 0
    assert doc["certificate"] == {"k": 2, "i": 3}
    g = cycle_graph(int(spec.split(":")[1]))
    assert is_successful(simulate(g, doc["witness"]))
    assert search_width(doc["witness"]) == 3


def first_form_solve(g, per_width):
    """{k_max: (value, method, certificate, explored_states)} of
    inspection_number as it was when the full DP capped every graph of
    at most 22 vertices, on a connected one from an empty clean set, for
    k_max None and 1 up to the value: cap = pathwidth+1, the largest
    certificate below the cap, and the closure at the widths above it up
    to the cap less one or k_max. per_width holds the states of the
    closure at each width from k = 1 up to the value
    (reference_inspection_number)."""
    cap = pathwidth(g)[0] + 1
    cert = solver._largest_certificate(cap - 1, solver._certifier(g, cap - 1, 22)[0])
    value = len(per_width)
    out = {}
    for k_max in [None, *range(1, value + 1)]:
        top = cap - 1 if k_max is None else min(cap - 1, k_max)
        states = sum(per_width[cert.k:min(top, value)])
        if value <= top:
            out[k_max] = value, "clean-set closure below pathwidth+1", None, states
        elif k_max is not None and k_max < cap:
            out[k_max] = None, "clean-set closure below pathwidth+1", None, states
        elif cert.k == cap - 1:
            out[k_max] = (cap, "bag sweep at pathwidth+1, boundary-gap "
                          "certificate below", cert, states)
        else:
            out[k_max] = (cap, "bag sweep at pathwidth+1, clean-set closure "
                          "below", None, states)
    return out


def test_certificates_are_sound_on_the_atlas_and_the_solve_corpus(atlas_2_7):
    """No width at or above the value the closure finds has a
    boundary-gap certificate, and the largest one the solver takes lies
    below that value: on every connected graph of 2-7 vertices and on
    the benchmark's solve corpus, seeds 0-2. On each, inspection_number
    with the greedy cap and the decision DP gives the value, method,
    certificate and explored states of its first form, whose full DP
    capped every graph, at every k_max up to the value too; only its
    bag-sweep witnesses may differ, and each replays at its width."""
    graphs = list(atlas_2_7) + bench_corpus("solve", (0, 1, 2))
    assert len(graphs) == 995 + 3 * 108
    for g in graphs:
        value, _, per_width = reference_inspection_number(g)
        cap = pathwidth(g)[0] + 1
        certify = solver._certifier(g, cap - 1, 22)[0]
        assert solver._largest_certificate(cap - 1, certify).k < value
        for k in range(value, g.n + 1):
            assert boundary_gap_certificate(g, k) is None, (sorted(g.edges()), k)
        for k_max, want in first_form_solve(g, per_width).items():
            res = inspection_number(g, k_max=k_max)
            got = res.value, res.method, res.certificate, res.explored_states
            assert got == want, (sorted(g.edges()), k_max)
            if res.value is not None:
                assert is_successful(simulate(g, res.witness)), sorted(g.edges())
                assert search_width(res.witness) <= value


def test_a_clean_start_takes_no_certificate(rng, monkeypatch):
    """The certificate bounds searches from an empty clean set: with a
    nonempty one the closure runs at every width below the cap, as
    before there was a certificate, and gives the full scan's value,
    witness and count."""

    def refused(*args):
        raise AssertionError("certificate taken")

    monkeypatch.setattr(solver, "_largest_certificate", refused)
    graphs = [grid_graph(3, 3), cycle_graph(6), K4_PENDANTS]
    graphs += [random_connected(rng.randint(3, 9), rng) for _ in range(20)]
    for g in graphs:
        start = random_clean_start(g, rng) or {g.vertices[0]}
        res = inspection_number(g, clean_start=start)
        value, steps, per_width = reference_inspection_number(g, start)
        where = (sorted(g.edges()), sorted(start))
        assert res.value == value and res.certificate is None, where
        if res.method.startswith("clean-set closure"):
            assert (res.witness, res.explored_states) == (
                steps, sum(per_width)), where
        else:
            assert res.explored_states == sum(per_width[:-1]), where


# ---------------------------------------------------------------------------
# the subset tables and the vertex-separation DP against the loops they
# replaced


def reference_mask_tables(g):
    """(popcount, boundary size) of every subset, one int64 pass over all
    masks per vertex: the oracle for solver._least_boundaries and for
    the separation DP."""
    n = g.n
    _, nbr, _ = g.masks()
    masks = np.arange(1 << n, dtype=np.int64)
    pc = np.zeros(1 << n, dtype=np.uint8)
    bnd = np.zeros(1 << n, dtype=np.uint8)
    for v in range(n):
        inm = ((masks >> v) & 1).astype(bool)
        pc += inm
        if nbr[v]:
            hasout = (masks | nbr[v]) != masks
            bnd += inm & hasout
    return pc, bnd


def reference_vertex_separation(g):
    """The DP that picks each layer's sets holding v with boolean masks:
    the oracle for solver._vertex_separation."""
    n = g.n
    if n == 1:
        return 0, [g.vertices[0]]
    pc, bnd = reference_mask_tables(g)
    f = np.zeros(1 << n, dtype=np.uint8)
    for layer in range(1, n + 1):
        sel = np.nonzero(pc == layer)[0]
        best = np.full(len(sel), 255, dtype=np.uint8)
        for v in range(n):
            has = ((sel >> v) & 1).astype(bool)
            if not has.any():
                continue
            cand = f[sel[has] ^ (1 << v)]
            best[has] = np.minimum(best[has], cand)
        f[sel] = np.maximum(best, bnd[sel])
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


def separation(g):
    """solver._vertex_separation bounded by the greedy width, as
    pathwidth runs it: the full DP's (value, layout)."""
    return solver._vertex_separation(g, 22, _greedy_layout(g)[0])


def layout_separation(g, layout):
    """Largest boundary over the prefixes of a vertex order."""
    return max(len(boundary(g, set(layout[:i]))) for i in range(len(layout) + 1))


def brute_vertex_separation(g):
    """Min over all vertex orders of the max prefix boundary, n <= 7."""
    return min(layout_separation(g, p) for p in itertools.permutations(g.vertices))


def random_graph(n, rng):
    """A graph on v0..v{n-1}, often disconnected, with isolated vertices."""
    vs = [f"v{i}" for i in range(n)]
    p = rng.uniform(0.5, 3.0) / n
    edges = [(u, w) for i, u in enumerate(vs) for w in vs[i + 1:] if rng.random() < p]
    return Graph.from_edges(edges, vertices=vs)


def reference_least_boundaries(g):
    """The least boundary per set size, read off the reference tables."""
    pc, bnd = reference_mask_tables(g)
    return [int(bnd[pc == s].min()) for s in range(g.n + 1)]


def assert_tables_match(g, want=None):
    if want is None:
        want = reference_least_boundaries(g)
    assert _least_boundaries(g, 22) == want, sorted(g.edges())


def test_mask_tables_match_reference(rng):
    """n 1-20: a last byte table that is not full for most n, and from
    n = 14 on more than one block of masks."""
    assert 1 << 14 > solver._SWEEP
    for n in range(1, 21):
        for _ in range(3 if n <= 12 else 1):
            assert_tables_match(random_graph(n, rng))
    assert_tables_match(complete_graph(12))
    assert_tables_match(grid_graph(4, 5))


def test_least_boundaries_match_reference_at_every_block_size(
        rng, monkeypatch):
    """Every block size from one mask to all 2^n, for n 1-16: blocks of
    1 leave every bit to the high part, blocks of 2^n to the low part,
    and n from 12 on splits each part's neighbourhood gather over two
    tables."""
    for n in range(1, 17):
        g = random_graph(n, rng)
        want = reference_least_boundaries(g)
        for bits in range(n + 1):
            monkeypatch.setattr(solver, "_SWEEP", 1 << bits)
            assert_tables_match(g, want)


def test_small_blocks_match_reference(rng, monkeypatch):
    """Blocks of 2 masks sweep each graph's sets in 2^(n-1) blocks, and
    blocks of 3 DP entries leave the DP one frontier set per block, so
    that most sets of a layer are met again in a later block."""
    monkeypatch.setattr(solver, "_SWEEP", 2)
    monkeypatch.setattr(solver, "_BLOCK", 3)
    for n in range(1, 11):
        assert_tables_match(random_graph(n, rng))
    for g in [random_connected(n, rng) for n in range(2, 11)] + [LOOSE_BOUND]:
        assert separation(g) == reference_vertex_separation(g), (
            sorted(g.edges()))


def sparse_graphs(rng):
    """Paths, cycles, ladders, Prufer trees and random graphs with
    p = 1.5/n over a spanning tree, n 14-20: few of their sets have a
    small separation, so the DP's frontier is a sliver of all 2^n."""
    graphs = []
    for n in range(14, 21):
        seq = [rng.randrange(n) for _ in range(n - 2)]
        tree = from_networkx(nx.from_prufer_sequence(seq))
        extra = [(u, w) for i, u in enumerate(tree.vertices)
                 for w in tree.vertices[i + 1:] if rng.random() < 1.5 / n]
        graphs += [path_graph(n), cycle_graph(n), grid_graph(2, n // 2), tree,
                   Graph.from_edges(list(tree.edges()) + extra)]
    return graphs


# v0..v10: a greedy layout of width 3 where the separation number is 2,
# so the DP runs with a bound above the answer.
LOOSE_BOUND = Graph.from_edges(
    (f"v{u}", f"v{w}") for u, w in [
        (0, 3), (0, 5), (0, 8), (0, 10), (1, 6), (1, 7), (2, 9), (3, 6),
        (4, 7), (4, 8), (5, 6), (6, 9), (7, 10)])


def test_vertex_separation_matches_reference(rng):
    for n in range(1, 21):
        for _ in range(3 if n <= 12 else 1):
            g = random_connected(n, rng) if n > 1 else path_graph(1)
            assert separation(g) == reference_vertex_separation(g), (
                sorted(g.edges()))
    g = grid_graph(4, 5)
    assert separation(g) == reference_vertex_separation(g)
    assert solver._greedy_layout(LOOSE_BOUND)[0] == 3
    for g in sparse_graphs(rng) + [LOOSE_BOUND]:
        assert separation(g) == reference_vertex_separation(g), (
            sorted(g.edges()))
    assert separation(LOOSE_BOUND)[0] == 2


def spy_valuations(monkeypatch):
    """Counts, per _vertex_separation run, the sets the DP keeps and the
    sets that read their predecessors, and lists the outsides whose
    neighbourhoods it gathers, one per set whose boundary it takes."""
    runs = []
    extend, least, reach = solver._extend, solver._least_predecessor, solver._reach
    real = solver._vertex_separation

    def spy_separation(g, mask_cap, bound):
        runs.append({"kept": 0, "read": 0, "valued": [], "bound": bound})
        return real(g, mask_cap, bound)

    def spy_extend(*args):
        kept = extend(*args)
        runs[-1]["kept"] += kept.size
        return kept

    def spy_least(f, masks, bits):
        runs[-1]["read"] += masks.size
        return least(f, masks, bits)

    def spy_reach(masks, tables):
        runs[-1]["valued"] += masks.tolist()
        return reach(masks, tables)

    monkeypatch.setattr(solver, "_vertex_separation", spy_separation)
    monkeypatch.setattr(solver, "_extend", spy_extend)
    monkeypatch.setattr(solver, "_least_predecessor", spy_least)
    monkeypatch.setattr(solver, "_reach", spy_reach)
    return runs


@pytest.mark.parametrize("block", [None, 3])
def test_vertex_separation_reads_predecessors_only_below_the_parent(
        rng, monkeypatch, block):
    """The step keeps a set on its boundary alone and reads the
    predecessors of a kept set only when its boundary is below the value
    of the set it grew from. Both branches run on the oracle's corpus,
    with blocks of 3 sets too, where most sets of a layer are met again
    in a later block: every set is still valued once. A complete graph
    keeps every set and reads only for the full one, whose boundary is 0
    below its parents' n - 2; LOOSE_BOUND keeps sets above its answer."""
    if block is not None:
        monkeypatch.setattr(solver, "_BLOCK", block)
    top = 10 if block else 14
    graphs = [random_connected(n, rng) for n in range(2, top + 1)]
    if not block:
        graphs += [grid_graph(4, 5)] + sparse_graphs(rng)
    graphs += [LOOSE_BOUND, complete_graph(8)]
    want = [reference_vertex_separation(g) for g in graphs]
    runs = spy_valuations(monkeypatch)
    for g, expect in zip(graphs, want):
        assert separation(g) == expect, sorted(g.edges())
    assert len(runs) == len(graphs)
    for g, run in zip(graphs, runs):
        assert len(set(run["valued"])) == len(run["valued"]), sorted(g.edges())
        assert run["read"] <= run["kept"] <= len(run["valued"]), sorted(g.edges())
    assert sum(0 < run["read"] < run["kept"] for run in runs) > len(graphs) // 2
    loose, complete = runs[-2:]
    assert 0 < loose["read"] < loose["kept"]
    assert (complete["kept"], complete["read"]) == (255, 1)
    assert len(complete["valued"]) == 255


def test_reach_matches_union_of_neighbourhoods_at_every_chunk_layout(rng):
    """uint64 masks split into ceil(n/11) equal chunks, one table each;
    object masks, above 64 vertices, keep ceil(n/8) byte tables, whose
    Python-int entries would cost eight times the memory in 11-bit ones.
    n runs across every change of layout: 11/12, 22/23, 64/65."""
    for n in range(1, 67):
        nbr = tuple(rng.getrandbits(n) & ~(1 << v) for v in range(n))
        dtype = np.uint64 if n <= 64 else object
        tables = solver._round_tables(nbr, n, dtype)
        width = 8 if n > 64 else math.ceil(n / math.ceil(n / 11))
        assert len(tables) == math.ceil(n / width), n
        assert [t.size for t in tables[:-1]] == [1 << width] * (len(tables) - 1)
        assert tables[-1].size == 1 << n - width * (len(tables) - 1)
        masks = ([0, (1 << n) - 1] + [1 << v for v in range(n)]
                 + [rng.getrandbits(n) for _ in range(40)])
        got = solver._reach(np.array(masks, dtype=dtype), tables)
        want = []
        for m in masks:
            union = 0
            for v in range(n):
                if m >> v & 1:
                    union |= nbr[v]
            want.append(union)
        assert [int(x) for x in got] == want, n


def test_vertex_separation_memory_stays_near_its_table():
    """The DP keeps one byte per subset and the frontier's sets: on a
    22-cycle, whose frontier is tiny, the traced peak stays under twice
    the 4 MiB table."""
    g = cycle_graph(22)
    tracemalloc.start()
    try:
        width, _ = pathwidth(g, mask_cap=22)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert width == 2
    assert peak < 8 << 20, peak


def test_pathwidth_matches_reference_on_disconnected(rng):
    """pathwidth lays out the components one after another. Each takes
    the reference DP's value, and its bags where that value is below the
    greedy width, the greedy layout's bags where it is not; every bag
    list is a path decomposition of its stated width."""
    graphs = [random_graph(n, rng) for n in range(2, 19)]
    graphs.append(Graph.from_edges(
        list(cycle_graph(7).edges()) + [("a", "b"), ("b", "c")], vertices=["z"]))
    graphs.append(LOOSE_BOUND)
    assert sum(len(g.components()) > 1 for g in graphs) > len(graphs) // 2
    below = 0
    for g in graphs:
        width, decomp = pathwidth(g)
        assert is_path_decomposition(g, decomp.bags), sorted(g.edges())
        assert max(len(b) for b in decomp.bags) == width + 1
        want_width = 0
        want_bags = []
        comps = g.components()
        for comp in comps:
            sub = g if len(comps) == 1 else g.induced(comp)
            value, layout = reference_vertex_separation(sub)
            greedy, greedy_layout = _greedy_layout(sub)
            assert value <= greedy
            below += value < greedy
            want_width = max(want_width, value)
            want_bags += _layout_bags(sub, layout if value < greedy
                                      else greedy_layout)
        assert (width, decomp.bags) == (want_width, tuple(want_bags)), (
            sorted(g.edges()))
    assert below >= 1


def test_pathwidth_decides_below_the_greedy_width(rng, monkeypatch):
    """pathwidth and mono never run the DP at the greedy width: every
    component of a random, sparse or disconnected graph asks it one
    below."""
    calls = []
    real = solver._vertex_separation

    def spy(g, mask_cap, bound):
        calls.append((g, bound))
        return real(g, mask_cap, bound)

    monkeypatch.setattr(solver, "_vertex_separation", spy)
    graphs = [random_connected(n, rng) for n in range(2, 13)]
    graphs += sparse_graphs(rng)[::4] + [LOOSE_BOUND]
    graphs += [random_graph(n, rng) for n in range(2, 15)]
    comps = sum(len(g.components()) for g in graphs)
    for g in graphs:
        pathwidth(g)
        monotonic_inspection_number(g)
    assert len(calls) == 2 * comps
    for g, bound in calls:
        assert bound == _greedy_layout(g)[0] - 1, sorted(g.edges())


def test_decision_matches_the_full_dp(rng):
    """Below the greedy width the DP is a decision: at any bound at or
    above the separation number it gives the full DP's value and layout
    (the reference's), and below it None, down to a bound of -1. Random
    graphs of 1-14 vertices, LOOSE_BOUND and the sparse graphs take the
    reference, and n <= 7 the brute force too."""
    graphs = [path_graph(1), complete_graph(6), LOOSE_BOUND]
    graphs += [random_connected(n, rng) for n in range(2, 15)]
    graphs += [random_connected(rng.randint(2, 7), rng) for _ in range(20)]
    graphs += sparse_graphs(rng)[::3]
    below = 0
    for g in graphs:
        want = reference_vertex_separation(g)
        if g.n <= 7:
            assert want[0] == brute_vertex_separation(g), sorted(g.edges())
        greedy = _greedy_layout(g)[0]
        below += want[0] < greedy
        for bound in range(-1, greedy + 1):
            got = _vertex_separation(g, 22, bound)
            expect = want if want[0] <= bound else None
            assert got == expect, (sorted(g.edges()), bound)
    assert below >= 2


def test_vertex_separation_matches_brute_force(rng):
    graphs = [path_graph(1), cycle_graph(7), complete_graph(6), k4_subdivision_example()]
    graphs += [random_connected(rng.randint(2, 7), rng) for _ in range(20)]
    for g in graphs:
        if g.n > 7:
            continue
        value, layout = separation(g)
        assert value == brute_vertex_separation(g), sorted(g.edges())
        assert sorted(layout) == list(g.vertices)
        assert layout_separation(g, layout) == value
