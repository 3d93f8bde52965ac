"""Seeded inputs for the benchmark workloads.

Everything here uses the standard library only: the program under test
receives generator specs and edge-list files, never objects built by
its own code. The same seed gives the same corpus. Sizes (vertex counts,
densities, stretch lengths) follow a fixed schedule and only the
structure is drawn at random, so that the cost of a corpus barely moves
between seeds and a change in the program is what moves the numbers.
Where one input's cost swings with its structure and would set a
percentile on its own (the solve graphs, the largest NO graphs of
classify, the degrees of the synth trees), the structure comes from a
fixed stream and the seed varies the rest.
"""

import random


# Generator specs whose inspection numbers are frozen in the test suite.
SOLVE_NAMED = {
    "grid:4,4": 5,
    "grid:3,5": 4,
    "grid:3,6": 4,
    "f1": 4,
    "f2": 4,
    "cycle:18": 3,
    "tree:3": 3,
    "k4sub": 3,
}


def prufer_tree(rng, n, seq=None):
    """Edges of the labelled tree on range(n) with Prufer sequence seq,
    by default a uniform random one."""
    if n <= 2:
        return [(0, 1)][: n - 1]
    if seq is None:
        seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges = []
    for x in seq:
        leaf = min(v for v in range(n) if degree[v] == 1)
        edges.append((leaf, x))
        degree[leaf] -= 1
        degree[x] -= 1
    u, v = [v for v in range(n) if degree[v] == 1]
    edges.append((u, v))
    return edges


def random_connected(rng, n, extra):
    """A random spanning tree plus each other pair with probability extra."""
    edges = set(tuple(sorted(e)) for e in prufer_tree(rng, n))
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and rng.random() < extra:
                edges.add((u, v))
    return sorted(edges)


def chord_cycle(rng, n, keep):
    """An n-cycle plus non-crossing chords: the diagonals of a random
    polygon triangulation, each kept with probability keep."""
    edges = [(i, (i + 1) % n) for i in range(n)]
    stack = [(0, n - 1)]
    while stack:
        lo, hi = stack.pop()
        if hi - lo < 2:
            continue
        mid = rng.randrange(lo + 1, hi)
        for a, b in ((lo, mid), (mid, hi)):
            if b - a >= 2 and (a, b) != (0, n - 1) and rng.random() < keep:
                edges.append((a, b))
        stack.extend([(lo, mid), (mid, hi)])
    return edges


class _Builder:
    """Integer-labelled edge list that grows by paths."""

    def __init__(self):
        self.n = 0
        self.edges = []

    def vertex(self):
        self.n += 1
        return self.n - 1

    def path(self, a, b, length):
        """Join a to b by a path of `length` edges."""
        prev = a
        for _ in range(length - 1):
            nxt = self.vertex()
            self.edges.append((prev, nxt))
            prev = nxt
        self.edges.append((prev, b))

    def bipath(self, rng, a, b, segments, stretch):
        """Consecutive primaries joined by two parallel paths each."""
        prims = [a] + [self.vertex() for _ in range(segments - 1)] + [b]
        for p, q in zip(prims, prims[1:]):
            self.path(p, q, rng.randint(max(2, stretch // 2), stretch))
            self.path(p, q, rng.randint(max(1, stretch // 2), stretch))

    def tails(self, rng, count, length):
        """Hang pendant paths off random existing vertices."""
        for _ in range(count):
            prev = rng.randrange(self.n)
            for _ in range(rng.randint(max(1, length // 2), length)):
                nxt = self.vertex()
                self.edges.append((prev, nxt))
                prev = nxt


def stretched_family(rng, family, stretch, tails, tail_len):
    """F1 (a K4 subdivision), F2 (three bipaths on a common pair) or F3
    (two bipath pairs plus two connectors), every path drawn with
    stretch/2 to stretch edges, plus pendant tails. Each contains its pattern, so
    the classifier must answer NO."""
    b = _Builder()
    if family == "F1":
        w = [b.vertex() for _ in range(4)]
        for i in range(4):
            for j in range(i + 1, 4):
                b.path(w[i], w[j], rng.randint(max(1, stretch // 2), stretch))
    elif family == "F2":
        x, y = b.vertex(), b.vertex()
        for _ in range(3):
            b.bipath(rng, x, y, 2, stretch)
    else:
        v1, v2, v3, v4 = (b.vertex() for _ in range(4))
        for x, y in ((v1, v2), (v1, v2), (v3, v4), (v3, v4)):
            b.bipath(rng, x, y, 2, stretch)
        b.path(v1, v3, rng.randint(max(1, stretch // 2), stretch))
        b.path(v2, v4, rng.randint(max(1, stretch // 2), stretch))
    b.tails(rng, tails, tail_len)
    return b.n, b.edges


def ladder(m):
    """Edges of the 2-by-m grid on range(2m)."""
    edges = [(i, i + 1) for i in range(m - 1)]
    edges += [(m + i, m + i + 1) for i in range(m - 1)]
    edges += [(i, m + i) for i in range(m)]
    return edges


def _graph(name, edges):
    """An edge-list graph; labels are v0, v1, ... in construction order,
    because the program's running time depends on labels (its tie-breaks
    pick minimum labels) and random labels would add that cost to the
    seed-to-seed spread."""
    return {"name": name, "edges": [(f"v{u}", f"v{v}") for u, v in edges]}


def _spec(spec):
    return {"name": spec, "spec": spec}


def build(workload, seed):
    """(graphs, cases) for one workload.

    graphs: list of {"name", "spec"} or {"name", "edges"} dicts.
    cases: list of {"verb", "graph", "argv_tail"}; argv_tail may hold the
    placeholder "{pw}", filled with the graph's checked pathwidth.
    """
    rng = random.Random(f"{workload}:{seed}")
    return _BUILDERS[workload](rng)


# (n, count) of the random graphs: the closure's cost grows steeply
# with n, so larger sizes are fewer.
SOLVE_SIZES = ((9, 26), (10, 24), (11, 20), (12, 16), (13, 9), (14, 5))


def _solve(rng):
    # The closure's cost differs tenfold between random graphs of one size
    # and density, so drawing them from the seed would make the
    # percentiles a property of the seed. The graphs come from a fixed
    # stream instead and the seed renames their vertices: every input
    # changes, their cost does not.
    shapes = random.Random("solve-shapes")
    graphs = [_spec(s) for s in SOLVE_NAMED]
    densities = (0.08, 0.15, 0.25, 0.4)
    i = 0
    for n, count in SOLVE_SIZES:
        for _ in range(count):
            edges = random_connected(shapes, n, densities[i % len(densities)])
            names = rng.sample(range(n), n)
            edges = [(names[u], names[v]) for u, v in edges]
            graphs.append(_graph(f"rc{i:03d}-n{n}", edges))
            i += 1
    cases = [{"verb": "solve", "graph": g["name"], "argv_tail": []} for g in graphs]
    return graphs, cases


# (n, count): the 2^n tables make cost double per vertex, so the large
# sizes are few; one n=22 graph keeps the largest table in every run.
SUBSET_SIZES = ((14, 7), (15, 7), (16, 7), (17, 6), (18, 4), (19, 2), (20, 1), (22, 1))


def _subset(rng):
    graphs = []
    kinds = ("cycle", "ladder", "path", "tree", "random")
    i = 0
    for size, count in SUBSET_SIZES:
        for _ in range(count):
            kind = kinds[i % len(kinds)]
            n = size
            if kind == "cycle":
                edges = [(v, (v + 1) % n) for v in range(n)]
            elif kind == "ladder":
                n -= n % 2
                edges = ladder(n // 2)
            elif kind == "path":
                edges = [(v, v + 1) for v in range(n - 1)]
            elif kind == "tree":
                edges = prufer_tree(rng, n)
            else:
                edges = random_connected(rng, n, 1.5 / n)
            graphs.append(_graph(f"{kind}{i:02d}-n{n}", edges))
            i += 1
    cases = []
    for g in graphs:
        cases.append({"verb": "pathwidth", "graph": g["name"], "argv_tail": []})
        cases.append({"verb": "mono", "graph": g["name"], "argv_tail": []})
        cases.append({"verb": "lowerbound", "graph": g["name"], "argv_tail": ["-k", "{pw}"]})
    return graphs, cases


def _classify(rng):
    graphs = []
    sizes = (30, 40, 50, 65, 80)
    kinds = ("prufer", "path", "cycle", "chords", "ladder")
    for i in range(60):
        n = sizes[i % len(sizes)]
        kind = kinds[(i // len(sizes)) % len(kinds)]
        if kind == "prufer":
            edges = prufer_tree(rng, n)
        elif kind == "path":
            edges = [(v, v + 1) for v in range(n - 1)]
        elif kind == "cycle":
            edges = [(v, (v + 1) % n) for v in range(n)]
        elif kind == "chords":
            edges = chord_cycle(rng, n, 0.3)
        else:
            edges = ladder(n // 2)
        graphs.append(_graph(f"{kind}{i:02d}-n{n}", edges))
    # The large NO graphs come from a fixed stream, like the specs below,
    # so that the slowest tenth of the cases, where case_p90 is read, does
    # not change with the seed; the seed draws the smaller ones.
    fixed = random.Random("classify-large")
    stretches = (3, 5, 7, 9, 11)
    for i in range(36):
        family = ("F1", "F2", "F3")[i % 3]
        stretch = stretches[(i // 3) % len(stretches)]
        draw = fixed if stretch >= 9 else rng
        n, edges = stretched_family(draw, family, stretch, 3 + i % 4, stretch)
        graphs.append(_graph(f"{family.lower()}s{i:02d}-n{n}", edges))
    graphs += [_spec(f"grid:3,{m}") for m in (10, 20, 40, 60)]
    graphs += [_spec("path:200"), _spec("cycle:200")]
    cases = [{"verb": "classify", "graph": g["name"], "argv_tail": []} for g in graphs]
    return graphs, cases


def _synth(rng):
    # A tree's synthesis cost swings with its degrees, so the degree
    # sequences are fixed: the seed shuffles each Prufer sequence, which
    # keeps every vertex's degree and draws another tree.
    shapes = random.Random("synth-degrees")
    graphs = []
    for i in range(40):
        n = 6 + i % 4
        seq = [shapes.randrange(n) for _ in range(n - 2)]
        rng.shuffle(seq)
        graphs.append(_graph(f"prufer{i:02d}-n{n}", prufer_tree(rng, n, seq)))
    for n in range(3, 11):
        graphs.append(_graph(f"cycle-n{n}", [(v, (v + 1) % n) for v in range(n)]))
    for m in range(3, 9):
        graphs.append(_spec(f"grid:2,{m}"))
    k23 = [(s, 2 + i) for s in (0, 1) for i in range(3)]
    graphs.append(_graph("k23", k23))
    # the heavy tail: more cases above the trees than lie beyond case_p90,
    # so that case_p90 is read off fixed inputs, not off the seed's trees
    graphs += [_spec(f"path:{n}") for n in (12, 14, 16, 18, 20)] + [_spec("tree:3")]
    cases = []
    for g in graphs:
        cases.append({"verb": "synth", "graph": g["name"], "argv_tail": []})
        cases.append({"verb": "verify", "graph": g["name"], "argv_tail": []})
    return graphs, cases


_BUILDERS = {"solve": _solve, "subset": _subset, "classify": _classify, "synth": _synth}
WORKLOADS = tuple(_BUILDERS)
