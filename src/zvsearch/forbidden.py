"""Forbidden-pattern library for the width-3 classifier.

A graph admits a simple decomposition exactly when it embeds none of
three patterns, so every negative classification carries a witness:

  F1  a subdivision of K_4;
  F2  three bipaths sharing both endpoints, otherwise pairwise disjoint;
  F3  two endpoint-sharing bipath pairs joined by two connector paths.

A bipath is the union of two edge-disjoint paths with the same endpoints
whose common vertices (the "primaries", three or more) appear in the
same order on both paths. Witnesses are plain data plus a structural
checker, so a result can be re-validated without trusting the code that
produced it. The brute-force searcher at the bottom is the independent
oracle the classifier is tested against on small graphs.
"""

from dataclasses import dataclass
from itertools import combinations

from .errors import InputError, ResourceLimitError
from .graphs import Graph, edge_key

FAMILIES = ("F1", "F2", "F3")


# ---------------------------------------------------------------------------
# witness data


@dataclass(frozen=True)
class Bipath:
    """Two edge-disjoint paths, same endpoints, primaries in shared order."""

    path1: tuple
    path2: tuple
    primaries: tuple

    @property
    def endpoints(self):
        return (self.primaries[0], self.primaries[-1])

    def vertex_set(self):
        return frozenset(self.path1) | frozenset(self.path2)

    def edge_set(self):
        out = set()
        for path in (self.path1, self.path2):
            out.update(edge_key(u, v) for u, v in zip(path, path[1:]))
        return frozenset(out)

    def to_record(self):
        return {
            "path1": list(self.path1),
            "path2": list(self.path2),
            "primaries": list(self.primaries),
        }

    @staticmethod
    def from_record(record):
        try:
            return Bipath(
                tuple(record["path1"]),
                tuple(record["path2"]),
                tuple(record["primaries"]),
            )
        except (KeyError, TypeError) as exc:
            raise InputError(f"malformed bipath record: {exc}") from None


@dataclass(frozen=True)
class ForbiddenWitness:
    """An embedded pattern: family tag, the subgraph, role annotations.

    roles is JSON-shaped (lists, strings) so records round-trip:
      F1: branch_vertices (4 labels), paths (6 label lists)
      F2: endpoints (2 labels), bipaths (3 bipath records)
      F3: shared_pairs (2 label pairs), bipaths (4 records, first two on
          the first pair), connectors (2 label lists, pair i joined by
          connectors at position i within shared_pairs)
    """

    family: str
    graph: Graph
    roles: dict

    def to_record(self):
        return {
            "family": self.family,
            "graph": {
                "vertices": list(self.graph.vertices),
                "edges": [list(e) for e in self.graph.edges()],
            },
            "roles": self.roles,
        }

    @staticmethod
    def from_record(record):
        try:
            family = record["family"]
            gdoc = record["graph"]
            graph = Graph.from_edges(
                (tuple(e) for e in gdoc["edges"]), vertices=gdoc["vertices"]
            )
            roles = record["roles"]
        except (KeyError, TypeError) as exc:
            raise InputError(f"malformed witness record: {exc}") from None
        if family not in FAMILIES:
            raise InputError(f"unknown witness family {family!r}")
        return ForbiddenWitness(family, graph, roles)


def embedded(witness, g):
    """Whether the witness subgraph sits inside g (labels must match)."""
    wg = witness.graph
    return set(wg.vertices) <= set(g.vertices) and all(
        g.has_edge(u, v) for u, v in wg.edges()
    )


# ---------------------------------------------------------------------------
# structural checking


def _path_problems(g, seq, name, out):
    if not seq:
        out.append(f"{name}: empty")
        return
    if len(set(seq)) != len(seq):
        out.append(f"{name}: repeats a vertex")
    for u, v in zip(seq, seq[1:]):
        if not (u in g and v in g and g.has_edge(u, v)):
            out.append(f"{name}: {u!r}-{v!r} is not an edge")
            return


def bipath_problems(g, bp, name="bipath"):
    """Structural defects of one bipath inside g; empty list when sound."""
    out = []
    _path_problems(g, bp.path1, f"{name}.path1", out)
    _path_problems(g, bp.path2, f"{name}.path2", out)
    if out:
        return out
    if len(bp.path1) < 2 or len(bp.path2) < 2:
        out.append(f"{name}: constituent path has no edge")
        return out
    if bp.path1[0] != bp.path2[0] or bp.path1[-1] != bp.path2[-1]:
        out.append(f"{name}: paths do not share endpoints")
        return out
    e1 = {edge_key(u, v) for u, v in zip(bp.path1, bp.path1[1:])}
    e2 = {edge_key(u, v) for u, v in zip(bp.path2, bp.path2[1:])}
    if e1 & e2:
        out.append(f"{name}: paths share an edge")
    common = set(bp.path1) & set(bp.path2)
    if common != set(bp.primaries):
        out.append(f"{name}: primaries are not the common vertices")
        return out
    if len(bp.primaries) < 3:
        out.append(f"{name}: fewer than three primaries")
    for path, tag in ((bp.path1, "path1"), (bp.path2, "path2")):
        pos = {v: i for i, v in enumerate(path)}
        idx = [pos[v] for v in bp.primaries]
        if idx != sorted(idx):
            out.append(f"{name}: primaries out of order on {tag}")
        if bp.primaries[0] != path[0] or bp.primaries[-1] != path[-1]:
            out.append(f"{name}: endpoint is not an extreme primary")
    return out


def _role_bipaths(roles, count, out):
    recs = roles.get("bipaths")
    if not isinstance(recs, list) or len(recs) != count:
        out.append(f"expected {count} bipath records")
        return None
    try:
        return [Bipath.from_record(r) for r in recs]
    except InputError as exc:
        out.append(str(exc))
        return None


def _span(seqs):
    """The vertices and edges, as edge keys, that some vertex sequences
    walk: a witness graph is the span of the paths its roles name."""
    verts, edges = set(), set()
    for seq in seqs:
        verts.update(seq)
        edges.update(edge_key(u, v) for u, v in zip(seq, seq[1:]))
    return verts, edges


def _halves(bips):
    return [path for bp in bips for path in (bp.path1, bp.path2)]


def _graph_mismatch(w, vertices, edges, out):
    if set(w.graph.vertices) != set(vertices):
        out.append("witness graph vertices disagree with the roles")
    if set(w.graph.edges()) != set(edges):
        out.append("witness graph edges disagree with the roles")


def _f1_problems(w):
    out = []
    branch = w.roles.get("branch_vertices")
    paths = w.roles.get("paths")
    if not isinstance(branch, list) or len(set(branch)) != 4:
        return ["need four distinct branch vertices"]
    if not isinstance(paths, list) or len(paths) != 6:
        return ["need six connecting paths"]
    for i, p in enumerate(paths):
        _path_problems(w.graph, p, f"path{i}", out)
    if out:
        return out
    wanted = {frozenset(pair) for pair in combinations(branch, 2)}
    got = [frozenset((p[0], p[-1])) for p in paths]
    if set(got) != wanted or len(got) != 6:
        out.append("paths do not join each branch pair exactly once")
    bset = set(branch)
    interiors = []
    for i, p in enumerate(paths):
        if len(p) < 2:
            out.append(f"path{i} has no edge")
        inner = set(p[1:-1])
        if inner & bset:
            out.append(f"path{i} passes through a branch vertex")
        interiors.append(inner)
    for i, j in combinations(range(6), 2):
        if interiors[i] & interiors[j]:
            out.append(f"path{i} and path{j} share an interior vertex")
    verts, edges = _span(paths)
    _graph_mismatch(w, verts | bset, edges, out)
    return out


def _f2_problems(w):
    out = []
    ends = w.roles.get("endpoints")
    if not isinstance(ends, list) or len(set(ends)) != 2:
        return ["need two distinct shared endpoints"]
    bips = _role_bipaths(w.roles, 3, out)
    if bips is None:
        return out
    for i, bp in enumerate(bips):
        out.extend(bipath_problems(w.graph, bp, f"bipath{i}"))
    if out:
        return out
    eset = set(ends)
    for i, bp in enumerate(bips):
        if set(bp.endpoints) != eset:
            out.append(f"bipath{i} does not run between the endpoints")
    for i, j in combinations(range(3), 2):
        if bips[i].vertex_set() & bips[j].vertex_set() != eset:
            out.append(f"bipath{i} and bipath{j} meet outside the endpoints")
        if bips[i].edge_set() & bips[j].edge_set():
            out.append(f"bipath{i} and bipath{j} share an edge")
    _graph_mismatch(w, *_span(_halves(bips)), out)
    return out


def _f3_problems(w):
    out = []
    pairs = w.roles.get("shared_pairs")
    conns = w.roles.get("connectors")
    if (
        not isinstance(pairs, list)
        or len(pairs) != 2
        or any(not isinstance(p, list) or len(set(p)) != 2 for p in pairs)
    ):
        return ["need two shared endpoint pairs"]
    if not isinstance(conns, list) or len(conns) != 2:
        return ["need two connector paths"]
    (v1, v2), (v3, v4) = pairs
    if {v1, v2} == {v3, v4}:
        return ["endpoint pairs coincide (that is the three-bipath pattern)"]
    bips = _role_bipaths(w.roles, 4, out)
    if bips is None:
        return out
    for i, bp in enumerate(bips):
        out.extend(bipath_problems(w.graph, bp, f"bipath{i}"))
    for i, conn in enumerate(conns):
        _path_problems(w.graph, conn, f"connector{i}", out)
    if out:
        return out
    for i, eset in ((0, {v1, v2}), (1, {v1, v2}), (2, {v3, v4}), (3, {v3, v4})):
        if set(bips[i].endpoints) != eset:
            out.append(f"bipath{i} does not run between its shared pair")
    for i, j in ((0, 1), (2, 3)):
        want = {v1, v2} if i == 0 else {v3, v4}
        if bips[i].vertex_set() & bips[j].vertex_set() != want:
            out.append(f"bipath{i} and bipath{j} meet outside their pair")
    allowed = {v1, v2} & {v3, v4}
    first = bips[0].vertex_set() | bips[1].vertex_set()
    second = bips[2].vertex_set() | bips[3].vertex_set()
    if not first & second <= allowed:
        out.append("the two bipath pairs overlap beyond a shared endpoint")
    bip_verts = first | second
    for conn, (x, y), tag in (
        (conns[0], (v1, v3), "connector0"),
        (conns[1], (v2, v4), "connector1"),
    ):
        if conn[0] != x or conn[-1] != y:
            out.append(f"{tag} does not join {x!r} to {y!r}")
        elif not set(conn) & bip_verts <= {x, y}:
            out.append(f"{tag} strays into a bipath")
    _graph_mismatch(w, *_span(_halves(bips) + conns), out)
    return out


def pattern_problems(witness):
    """Every structural defect found in the witness, as messages."""
    if witness.family == "F1":
        return _f1_problems(witness)
    if witness.family == "F2":
        return _f2_problems(witness)
    if witness.family == "F3":
        return _f3_problems(witness)
    return [f"unknown family {witness.family!r}"]


def pattern_check(witness):
    """True when the witness matches its family pattern."""
    return not pattern_problems(witness)


def _checked(witness):
    """The witness, once it matches its family pattern. A witness that
    does not raises AssertionError, under python -O too."""
    problems = pattern_problems(witness)
    if problems:
        raise AssertionError(
            f"{witness.family} witness fails its pattern: {problems}"
        )
    return witness


# ---------------------------------------------------------------------------
# brute-force search (the oracle the classifier is compared against)


class _Budget:
    def __init__(self, limit):
        self.limit = limit
        self.used = 0

    def tick(self, n=1):
        self.used += n
        if self.used > self.limit:
            raise ResourceLimitError(
                "forbidden-pattern search budget exhausted",
                budget=self.limit,
                used=self.used,
            )


def _simple_paths(g, u, v, banned, budget):
    """Yield simple u-v paths whose interior avoids `banned` (DFS order)."""
    if u == v:
        yield (u,)
        return
    banned = set(banned) - {u, v}
    path = [u]
    onpath = {u}
    iters = [iter(g.sorted_neighbors(u))]
    while iters:
        budget.tick()
        w = next(iters[-1], None)
        if w is None:
            iters.pop()
            onpath.discard(path.pop())
            continue
        if w == v:
            yield tuple(path) + (v,)
            continue
        if w in onpath or w in banned:
            continue
        path.append(w)
        onpath.add(w)
        iters.append(iter(g.sorted_neighbors(w)))


def _brute_f1(g, budget):
    candidates = [v for v in g.vertices if g.degree(v) >= 3]
    for quad in combinations(candidates, 4):
        pairs = list(combinations(quad, 2))
        chosen = []

        def place(i, used):
            if i == 6:
                return True
            x, y = pairs[i]
            others = set(quad) - {x, y}
            for p in _simple_paths(g, x, y, used | others, budget):
                chosen.append(p)
                if place(i + 1, used | set(p[1:-1])):
                    return True
                chosen.pop()
            return False

        if place(0, set()):
            verts, edges = _span(chosen)
            return ForbiddenWitness(
                "F1",
                Graph.from_edges(edges, vertices=verts),
                {
                    "branch_vertices": list(quad),
                    "paths": [list(p) for p in chosen],
                },
            )
    return None


def _ordered_common(p, q):
    """Common vertices of two a-b paths if q visits them in p's order."""
    qpos = {v: i for i, v in enumerate(q)}
    common = [v for v in p if v in qpos]
    if len(common) < 3:
        return None
    idx = [qpos[v] for v in common]
    if any(x >= y for x, y in zip(idx, idx[1:])):
        return None
    return tuple(common)


def _bipaths_between(g, a, b, budget, path_cap=3000):
    paths = []
    for p in _simple_paths(g, a, b, (), budget):
        paths.append((p, {edge_key(u, v) for u, v in zip(p, p[1:])}))
        if len(paths) >= path_cap:
            break
    found = {}
    for (p, pe), (q, qe) in combinations(paths, 2):
        budget.tick()
        if pe & qe:
            continue
        prim = _ordered_common(p, q)
        if prim is None:
            continue
        key = (frozenset(p) | frozenset(q), frozenset(pe | qe))
        if key not in found:
            found[key] = Bipath(p, q, prim)
    return list(found.values())


# The packers build a witness from its roles, unchecked: the public call
# that returns it (brute_force_forbidden, classify_topological_3 and
# build_simple_gsp, or has_k4_subdivision) checks it once, via _checked.
def _witness_f2(bips):
    a, b = sorted(bips[0].endpoints)
    verts, edges = _span(_halves(bips))
    return ForbiddenWitness(
        "F2",
        Graph.from_edges(edges, vertices=verts),
        {"endpoints": [a, b], "bipaths": [bp.to_record() for bp in bips]},
    )


def _witness_f3(pair1, pair2, bips, conns):
    verts, edges = _span(_halves(bips) + list(conns))
    return ForbiddenWitness(
        "F3",
        Graph.from_edges(edges, vertices=verts),
        {
            "shared_pairs": [list(pair1), list(pair2)],
            "bipaths": [bp.to_record() for bp in bips],
            "connectors": [list(c) for c in conns],
        },
    )


def _brute_f2(g, budget):
    for a, b in combinations(g.vertices, 2):
        bips = _bipaths_between(g, a, b, budget)
        ends = {a, b}
        for i, j, k in combinations(range(len(bips)), 3):
            budget.tick()
            vi, vj, vk = (bips[x].vertex_set() for x in (i, j, k))
            if vi & vj == ends and vi & vk == ends and vj & vk == ends:
                return _witness_f2([bips[i], bips[j], bips[k]])
    return None


def _brute_f3(g, budget):
    units = {}
    for pair in combinations(g.vertices, 2):
        bips = _bipaths_between(g, *pair, budget)
        here = []
        for i, j in combinations(range(len(bips)), 2):
            budget.tick()
            if bips[i].vertex_set() & bips[j].vertex_set() == set(pair):
                here.append((bips[i], bips[j]))
        if here:
            units[pair] = here
    for pair1, pair2 in combinations(sorted(units), 2):
        shared = set(pair1) & set(pair2)
        if len(shared) == 2:
            continue
        for u1 in units[pair1]:
            vset1 = u1[0].vertex_set() | u1[1].vertex_set()
            for u2 in units[pair2]:
                budget.tick()
                vset2 = u2[0].vertex_set() | u2[1].vertex_set()
                if not vset1 & vset2 <= shared:
                    continue
                blocked = vset1 | vset2
                for v3, v4 in (pair2, tuple(reversed(pair2))):
                    v1, v2 = pair1
                    p1 = g.shortest_path(v1, v3, forbidden=blocked - {v1, v3})
                    p2 = g.shortest_path(v2, v4, forbidden=blocked - {v2, v4})
                    if p1 is None or p2 is None:
                        continue
                    return _witness_f3(
                        (v1, v2), (v3, v4), list(u1) + list(u2), (p1, p2)
                    )
    return None


def brute_force_forbidden(g, budget=1_000_000):
    """Exhaustively search g for any of the three patterns.

    Independent of the classifier on purpose: every family is found by
    direct enumeration (quadruple-plus-paths for F1, path pairs filtered
    into bipaths for F2/F3). Intended for cross-checks on small graphs;
    refuses more than 12 vertices, and raises ResourceLimitError when the
    step budget runs out. A witness found is checked here, once, and one
    that fails its pattern raises AssertionError, also under `python -O`.
    """
    if g.n > 12:
        raise InputError("brute-force pattern search is limited to 12 vertices")
    tracker = _Budget(budget)
    for finder in (_brute_f1, _brute_f2, _brute_f3):
        w = finder(g, tracker)
        if w is not None:
            return _checked(w)
    return None
