"""Forbidden-pattern witnesses and the brute-force pattern search."""

import copy
import os
import subprocess
import sys

import pytest

import zvsearch
from zvsearch.errors import InputError, ResourceLimitError
from zvsearch.forbidden import (
    Bipath,
    ForbiddenWitness,
    bipath_problems,
    brute_force_forbidden,
    embedded,
    pattern_check,
    pattern_problems,
)
from zvsearch.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    family_f1,
    family_f2,
    family_f3,
    path_graph,
)
from zvsearch.gsp import classify_topological_3


def two_cycle_bipath():
    """Bipath with primaries a, m, b through two 4-cycles."""
    g = Graph.from_edges(
        [("a", "p"), ("p", "m"), ("a", "q"), ("q", "m"),
         ("m", "r"), ("r", "b"), ("m", "s"), ("s", "b")]
    )
    bp = Bipath(("a", "p", "m", "r", "b"), ("a", "q", "m", "s", "b"), ("a", "m", "b"))
    return g, bp


def small_f2_graph():
    edges = []
    for i in (1, 2, 3):
        m, x, y = f"m{i}", f"x{i}", f"y{i}"
        edges += [("a", m), (m, "b"), ("a", x), (x, m), (m, y), (y, "b")]
    return Graph.from_edges(edges)


def test_bipath_accessors():
    g, bp = two_cycle_bipath()
    assert bp.endpoints == ("a", "b")
    assert bp.vertex_set() == frozenset("apqmrsb")
    assert len(bp.edge_set()) == 8
    assert bipath_problems(g, bp) == []


def test_bipath_record_round_trip():
    _, bp = two_cycle_bipath()
    assert Bipath.from_record(bp.to_record()) == bp
    with pytest.raises(InputError):
        Bipath.from_record({"path1": ["a", "b"]})


def test_bipath_problems_name_the_defect():
    g, bp = two_cycle_bipath()

    stray = Bipath(bp.path1, ("a", "z", "b"), bp.primaries)
    assert any("path2" in p for p in bipath_problems(g, stray))

    flat = Bipath(("a", "p", "m"), ("a", "q", "m"), ("a", "m"))
    assert any("fewer than three primaries" in p for p in bipath_problems(g, flat))

    shared = Bipath(("a", "p", "m", "r", "b"), ("a", "p", "m", "s", "b"), ("a", "m", "b"))
    probs = bipath_problems(g, shared)
    assert any("share an edge" in p or "primaries" in p for p in probs)


def test_witness_record_round_trip():
    w = brute_force_forbidden(complete_graph(4))
    back = ForbiddenWitness.from_record(w.to_record())
    assert back.family == w.family
    assert back.graph == w.graph
    assert pattern_check(back)


def test_witness_record_rejects_garbage():
    with pytest.raises(InputError, match="family"):
        ForbiddenWitness.from_record(
            {"family": "F9", "graph": {"vertices": [], "edges": []}, "roles": {}}
        )
    with pytest.raises(InputError, match="malformed"):
        ForbiddenWitness.from_record({"family": "F1"})


def test_brute_force_frozen_calls():
    w = brute_force_forbidden(complete_graph(4))
    assert w.family == "F1" and pattern_check(w)
    assert embedded(w, complete_graph(4))

    assert brute_force_forbidden(cycle_graph(4)) is None
    assert brute_force_forbidden(path_graph(6)) is None

    w2 = brute_force_forbidden(small_f2_graph())
    assert w2.family == "F2" and pattern_check(w2)
    assert embedded(w2, small_f2_graph())


def test_brute_force_limits():
    with pytest.raises(InputError, match="12"):
        brute_force_forbidden(family_f2())
    with pytest.raises(ResourceLimitError):
        brute_force_forbidden(complete_graph(4), budget=3)


def test_embedded_requires_subgraph():
    w = brute_force_forbidden(complete_graph(4))
    assert not embedded(w, cycle_graph(5))
    # supergraph of K_4 still hosts the witness
    g5 = complete_graph(5)
    relabeled = ForbiddenWitness(w.family, w.graph, w.roles)
    assert embedded(relabeled, g5)


@pytest.mark.parametrize(
    "factory,family",
    [(family_f1, "F1"), (family_f2, "F2"), (family_f3, "F3")],
)
def test_generated_families_certify_themselves(factory, family):
    g = factory()
    c = classify_topological_3(g)
    assert c.verdict == "NO" and c.witness.family == family
    assert pattern_problems(c.witness) == []
    assert embedded(c.witness, g)
    back = ForbiddenWitness.from_record(c.witness.to_record())
    assert pattern_check(back) and back.graph == c.witness.graph


def corrupt(w, mutate):
    rec = copy.deepcopy(w.to_record())
    mutate(rec)
    return ForbiddenWitness.from_record(rec)


def test_pattern_problems_catch_corruption():
    w1 = classify_topological_3(family_f1()).witness
    bad = corrupt(w1, lambda r: r["roles"]["branch_vertices"].__setitem__(0, "nope"))
    assert pattern_problems(bad)

    w2 = classify_topological_3(family_f2()).witness
    bad2 = corrupt(w2, lambda r: r["roles"]["bipaths"].pop())
    assert pattern_problems(bad2)

    w3 = classify_topological_3(family_f3()).witness
    bad3 = corrupt(w3, lambda r: r["roles"]["connectors"][0].reverse())
    assert pattern_problems(bad3)


def test_pattern_problems_reject_coinciding_pairs():
    w3 = classify_topological_3(family_f3()).witness
    rec = copy.deepcopy(w3.to_record())
    rec["roles"]["shared_pairs"][1] = list(rec["roles"]["shared_pairs"][0])
    bad = ForbiddenWitness.from_record(rec)
    assert any("coincide" in p for p in pattern_problems(bad))


# Run under python -O, where asserts are stripped: every witness builder
# must still refuse a witness that fails its pattern check. The sabotage
# makes pattern_problems report a defect for one family only, so the
# refusal comes from the builder of that family: _brute_f1 through the
# brute-force search, and _witness_f2, _witness_f3 and gsp._extract_k4
# through the classifier, ahead of its own final check.
SABOTAGE = """
import sys

import zvsearch.forbidden as forbidden
from zvsearch.graphs import generate
from zvsearch.gsp import classify_topological_3

spec, family, how = sys.argv[1:]
real = forbidden.pattern_problems
forbidden.pattern_problems = (
    lambda w: ["sabotaged"] if w.family == family else real(w)
)
find = forbidden.brute_force_forbidden if how == "brute" else classify_topological_3
try:
    find(generate(spec))
except AssertionError as ex:
    print("refused:", ex)
else:
    print("accepted")
"""


@pytest.mark.parametrize(
    "spec, family, how",
    [
        ("f1", "F1", "brute"),
        ("f2", "F2", "classify"),
        ("f3", "F3", "classify"),
        ("complete:4", "F1", "classify"),
    ],
)
def test_sabotaged_witness_is_refused_under_O(spec, family, how):
    root = os.path.dirname(os.path.dirname(zvsearch.__file__))
    env = dict(os.environ, PYTHONPATH=root)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", SABOTAGE, spec, family, how],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    want = f"refused: {family} witness fails its pattern: ['sabotaged']"
    assert proc.stdout.startswith(want), proc.stdout
