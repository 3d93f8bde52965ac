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
from collections import deque

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
    family_f3,
    grid_graph,
    k4_subdivision_example,
    path_graph,
)
from zvsearch.cli import main
from zvsearch.solver import (
    _closure,
    _greedy_bags,
    _mask_tables,
    _merge_bags,
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

from conftest import random_connected


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
                    return solver._replay(parents, nxt), expanded
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
    with pytest.raises(ResourceLimitError):
        inspection_number(grid_graph(3, 3), state_budget=3)


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


def test_certificate_sound_on_feasible_pairs(rng):
    """No gap certificate may exist at or above the true value."""
    for _ in range(15):
        g = random_connected(rng.randint(2, 6), rng)
        val = inspection_number(g).value
        for k in range(val, g.n + 1):
            assert boundary_gap_certificate(g, k) is None, (sorted(g.edges()), k)


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


def test_small_chunks_match_reference(rng, monkeypatch):
    """Chunks of a few rows put duplicates and dominated clean sets on
    every side of a chunk boundary."""
    monkeypatch.setattr(solver, "_CHUNK", 5)
    for _ in range(8):
        g = random_connected(rng.randint(5, 9), rng)
        for k in (2, 3):
            for mode in ("prune", "exhaustive", "monotone"):
                assert_matches_reference(
                    g, k, prune=mode == "prune", monotone=mode == "monotone"
                )


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
    steps, states explored), each width's states counted."""
    cap = pathwidth(g)[0] + 1
    states = 0
    for k in range(1, cap + 1):
        steps, used = _closure(g, k, clean_start, 10**9, True, False)
        states += used
        if steps is not None:
            return k, tuple(steps), states
    raise AssertionError("no search at pathwidth+1")


def random_clean_start(g, rng):
    return set(rng.sample(g.vertices, rng.randint(0, g.n // 2)))


def assert_matches_full_scan(g, clean_start, mask_cap=22):
    res = inspection_number(g, clean_start=clean_start, mask_cap=mask_cap)
    value, steps, states = reference_inspection_number(g, clean_start)
    where = (sorted(g.edges()), sorted(clean_start))
    assert res.value == value, where
    assert search_width(res.witness) <= value, where
    assert is_successful(simulate(g, res.witness, clean_start=clean_start)), where
    if res.method.startswith("clean-set closure"):
        # the value came from the closure: the full scan's witness and count
        assert (res.witness, res.explored_states) == (steps, states), where
    else:
        assert res.method.startswith("bag sweep"), where
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


def test_greedy_bags_form_a_path_decomposition(rng):
    graphs = [path_graph(1), cycle_graph(9), grid_graph(3, 5)]
    graphs += [k4_subdivision_example(), family_f3()]
    graphs += [random_connected(rng.randint(2, 12), rng) for _ in range(40)]
    for g in graphs:
        bags = _greedy_bags(g)
        assert is_path_decomposition(g, bags), sorted(g.edges())
        if g.n <= 22:
            assert max(len(b) for b in bags) >= pathwidth(g)[0] + 1
    # f3 has 26 vertices and inspection number 4: its greedy cap is tight
    assert max(len(b) for b in _greedy_bags(family_f3())) == 4


def test_merged_sweep_is_no_longer_and_replays(rng):
    for _ in range(40):
        g = random_connected(rng.randint(2, 12), rng)
        for bags in (pathwidth(g)[1].bags, _greedy_bags(g)):
            cap = max(len(b) for b in bags)
            steps = _merge_bags(bags, cap)
            assert len(steps) <= len(bags)
            assert search_width(steps) <= cap
            assert set().union(*steps) == set(g.vertices)
            assert is_successful(simulate(g, steps)), sorted(g.edges())
    assert _merge_bags(pathwidth(path_graph(2))[1].bags, 2) == (frozenset("01"),)


def test_k_max_below_the_cap_gives_up():
    """grid:3,3 has value 4 and pathwidth 3: k_max = 3 runs the closure
    at k = 1, 2, 3 and stops; k_max = 4 answers the cap."""
    full = inspection_number(grid_graph(3, 3))
    assert full.value == 4 and full.method.startswith("bag sweep")
    stopped = inspection_number(grid_graph(3, 3), k_max=3)
    assert stopped.value is None and stopped.witness is None
    assert stopped.explored_states == full.explored_states
    assert inspection_number(grid_graph(3, 3), k_max=4) == full


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
    """Above the subset budget the greedy layout caps the scan at 3, so
    only k = 1 and k = 2 run the closure, one state each."""
    assert main(["solve", spec]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["value"] == 3 and doc["explored_states"] == 2
    g = cycle_graph(int(spec.split(":")[1]))
    assert is_successful(simulate(g, doc["witness"]))
    assert search_width(doc["witness"]) == 3


# ---------------------------------------------------------------------------
# the subset tables and the vertex-separation DP against the loops they
# replaced


def reference_mask_tables(g):
    """(popcount, boundary size) of every subset, one int64 pass over all
    masks per vertex: the oracle for solver._mask_tables."""
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


def assert_tables_match(g):
    pc, bnd = _mask_tables(g, 22)
    want_pc, want_bnd = reference_mask_tables(g)
    assert pc.dtype == bnd.dtype == np.uint8
    assert np.array_equal(pc, want_pc), sorted(g.edges())
    assert np.array_equal(bnd, want_bnd), sorted(g.edges())


def test_mask_tables_match_reference(rng):
    """n 1-20: a last byte table that is not full for most n, and from
    n = 17 on more than one block of masks."""
    assert 1 << 17 > solver._BLOCK
    for n in range(1, 21):
        for _ in range(3 if n <= 12 else 1):
            assert_tables_match(random_graph(n, rng))
    assert_tables_match(complete_graph(12))
    assert_tables_match(grid_graph(4, 5))


def test_small_blocks_match_reference(rng, monkeypatch):
    """Blocks of 3 masks end every table on a partial block."""
    monkeypatch.setattr(solver, "_BLOCK", 3)
    for n in range(1, 11):
        assert_tables_match(random_graph(n, rng))


def test_vertex_separation_matches_reference(rng):
    for n in range(1, 21):
        for _ in range(3 if n <= 12 else 1):
            g = random_connected(n, rng) if n > 1 else path_graph(1)
            assert _vertex_separation(g, 22) == reference_vertex_separation(g), (
                sorted(g.edges()))
    g = grid_graph(4, 5)
    assert _vertex_separation(g, 22) == reference_vertex_separation(g)


def test_pathwidth_matches_reference_on_disconnected(rng, monkeypatch):
    """pathwidth lays out the components one after another; the bags of
    the reference DP and of the new one must be the same."""
    graphs = [random_graph(n, rng) for n in range(2, 19)]
    graphs.append(Graph.from_edges(
        list(cycle_graph(7).edges()) + [("a", "b"), ("b", "c")], vertices=["z"]))
    assert sum(len(g.components()) > 1 for g in graphs) > len(graphs) // 2
    got = [pathwidth(g) for g in graphs]
    monkeypatch.setattr(
        solver, "_vertex_separation", lambda g, cap: reference_vertex_separation(g)
    )
    for g, result in zip(graphs, got):
        assert result == pathwidth(g), sorted(g.edges())


def test_vertex_separation_matches_brute_force(rng):
    graphs = [path_graph(1), cycle_graph(7), complete_graph(6), k4_subdivision_example()]
    graphs += [random_connected(rng.randint(2, 7), rng) for _ in range(20)]
    for g in graphs:
        if g.n > 7:
            continue
        value, layout = _vertex_separation(g, 22)
        assert value == brute_vertex_separation(g), sorted(g.edges())
        assert sorted(layout) == list(g.vertices)
        assert layout_separation(g, layout) == value
