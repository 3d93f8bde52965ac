"""Shared corpus helpers.

The exhaustive small-graph sweeps come from the networkx atlas, which is a
test-only dependency; the library itself never imports it.
"""

import importlib.util
import random
from collections import deque
from pathlib import Path

import networkx as nx
import pytest

from zvsearch.errors import InputError
from zvsearch.graphs import Graph, block_cut_forest, cycle_graph, generate
from zvsearch.gsp import classify_topological_3, recompose
from zvsearch.synth import synthesize


def from_networkx(ng):
    """Relabel a networkx graph into ours, keeping isolated vertices."""
    return Graph.from_edges(
        ((f"v{u}", f"v{v}") for u, v in ng.edges()),
        vertices=(f"v{u}" for u in ng.nodes()),
    )


def connected_atlas(lo, hi):
    """All connected graphs with lo..hi vertices, one per isomorphism class."""
    out = []
    for ng in nx.graph_atlas_g():
        if lo <= ng.number_of_nodes() <= hi and nx.is_connected(ng):
            out.append(from_networkx(ng))
    return out


def _bench_items(workload, seed):
    # the graph items of one workload's corpus (bench/corpus.py)
    path = Path(__file__).resolve().parents[1] / "bench" / "corpus.py"
    spec = importlib.util.spec_from_file_location("bench_corpus", path)
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    return corpus.build(workload, seed)[0]


def _bench_graph(item):
    return generate(item["spec"]) if "spec" in item else Graph.from_edges(item["edges"])


def bench_corpus(workload, seeds):
    """The graphs of one benchmark workload (bench/corpus.py) for each
    seed."""
    return [_bench_graph(item) for seed in seeds for item in _bench_items(workload, seed)]


def bench_graph(workload, seed, name):
    """The graph of one benchmark workload's corpus for seed that is
    named name."""
    (item,) = [item for item in _bench_items(workload, seed) if item["name"] == name]
    return _bench_graph(item)


def check_counts(tree):
    """Every node's vertex and edge counts (n, m) are those of its
    recomposed graph; returns the number of nodes checked."""
    nodes = list(tree.walk())
    for t in nodes:
        g = recompose(t)
        assert (t.n, t.m) == (g.n, g.m), (t.op, t.terminals)
    return len(nodes)


def all_trees(lo, hi):
    out = []
    for n in range(lo, hi + 1):
        out.extend(from_networkx(t) for t in nx.nonisomorphic_trees(n))
    return out


def leaf_blocks(bcf):
    """The blocks of a block-cut forest that hold at most one cut vertex,
    each with that vertex or None."""
    out = []
    for blk in bcf.blocks:
        cuts = [v for v in sorted(blk) if v in bcf.cut_vertices]
        if len(cuts) <= 1:
            out.append((blk, cuts[0] if cuts else None))
    return out


def bridges(g):
    """All bridge edges, as sorted tuples in sorted order."""
    return sorted(tuple(sorted(b)) for b in block_cut_forest(g).blocks if len(b) == 2)


def is_bridged(g, a, b):
    """True iff some bridge separates a from b (a, b connected): the
    oracle for GspTree.bridged, read off the graph."""
    # same 2-edge-connected component <=> no separating bridge
    stripped = g
    for u, v in bridges(g):
        stripped = stripped.without_edge(u, v)
    return b not in stripped.component_of(a)


def separating_bridges(g, a, b):
    """Bridges whose removal disconnects a from b."""
    return [(u, v) for u, v in bridges(g) if b not in g.without_edge(u, v).component_of(a)]


# ---------------------------------------------------------------------------
# disjoint paths (Menger via unit-capacity flow, deterministic): the first
# form of the classifier's routes and connectors, kept as an oracle


def _augment(adjcap, source, sink):
    """One BFS augmenting path; returns the node path or None."""
    prev = {source: None}
    queue = deque([source])
    while queue:
        x = queue.popleft()
        if x == sink:
            path = []
            while x is not None:
                path.append(x)
                x = prev[x]
            return list(reversed(path))
        for y in sorted(adjcap[x], key=str):
            if adjcap[x][y] > 0 and y not in prev:
                prev[y] = x
                queue.append(y)
    return None


def _flow_paths(g, sources, sinks, k):
    """Up to k vertex-disjoint paths from `sources` to `sinks`, by a
    unit-capacity max-flow.

    Splits every vertex into in/out with unit capacity. Returns a list
    of label paths, or None if fewer than k exist.
    """
    IN, OUT = 0, 1
    adjcap = {"S": {}, "T": {}}  # residual capacities
    arcs = set()  # the arcs of the network, each of capacity one

    def arc(x, y):
        arcs.add((x, y))
        adjcap.setdefault(x, {})[y] = 1
        adjcap.setdefault(y, {}).setdefault(x, 0)

    for v in g.vertices:
        arc((IN, v), (OUT, v))
    for u, v in g.edges():
        arc((OUT, u), (IN, v))
        arc((OUT, v), (IN, u))
    for s in sorted(sources):
        arc("S", (IN, s))
    for t in sorted(sinks):
        arc((OUT, t), "T")

    for _ in range(k):
        path = _augment(adjcap, "S", "T")
        if path is None:
            return None
        for x, y in zip(path, path[1:]):
            adjcap[x][y] -= 1
            adjcap[y][x] += 1

    def take(x, y):
        # an arc carries flow when its residual is spent; taking the
        # unit gives the residual back
        if (x, y) in arcs and not adjcap[x][y]:
            adjcap[x][y] += 1
            return True
        return False

    paths = []
    for s in sorted(sources):
        while take("S", (IN, s)):
            path = [s]
            node = (OUT, s)
            while True:
                # follow the least successor, by str, that carries flow
                nxt = next((y for y in sorted(adjcap[node], key=str) if take(node, y)), None)
                if nxt is None or nxt == "T":
                    break
                path.append(nxt[1])
                node = (OUT, nxt[1])
            paths.append(path)
    assert len(paths) == k
    return paths


def two_disjoint_paths(g, xs, ys):
    """Two fully vertex-disjoint paths from the set xs to the set ys, or
    None. A vertex in both sets yields a zero-length path."""
    xs, ys = frozenset(xs), frozenset(ys)
    for v in xs | ys:
        if v not in g:
            raise InputError(f"no vertex {v!r}")
    if not xs or not ys:
        raise InputError("endpoint sets must be nonempty")
    return _flow_paths(g, xs, ys, 2)


def internally_disjoint_paths(g, u, v, k=2):
    """k u-v paths sharing only their endpoints, or None: the direct edge
    uv, if there is one, and vertex-disjoint paths from u's other
    neighbours to v's in g without u and v (a common neighbour is a path
    of one vertex), each extended by u and v."""
    if u == v:
        raise InputError("endpoints must differ")
    direct = [[u, v]] if g.has_edge(u, v) else []
    need = k - len(direct)
    if need <= 0:
        return direct[:k]
    inner = _flow_paths(
        g.without_vertices({u, v}), g.neighbors(u) - {v}, g.neighbors(v) - {u}, need
    )
    return None if inner is None else direct + [[u, *p, v] for p in inner]


def relabeled(g, rng):
    """g under a random bijection onto fresh labels r0, r1, ..."""
    names = [f"r{i}" for i in range(g.n)]
    rng.shuffle(names)
    return g.relabel(dict(zip(g.vertices, names)))


def random_connected(n, rng):
    while True:
        ng = nx.gnp_random_graph(n, rng.uniform(0.25, 0.7), seed=rng.randint(0, 2**31))
        if nx.is_connected(ng):
            return from_networkx(ng)


@pytest.fixture(scope="session")
def atlas_2_6():
    return connected_atlas(2, 6)


@pytest.fixture(scope="session")
def atlas_2_7():
    return connected_atlas(2, 7)


@pytest.fixture(scope="session")
def atlas_2_7_classified(atlas_2_7):
    """(graph, classification) for every graph of atlas_2_7, classified
    once per session."""
    return [(g, classify_topological_3(g)) for g in atlas_2_7]


@pytest.fixture
def rng():
    return random.Random(0x5eed)


@pytest.fixture(scope="session")
def synthesis_corpus(atlas_2_7_classified):
    """The YES graphs criterion 07 synthesizes: a seeded sample of 100
    from the atlas, every tree with 2-8 vertices, cycles 3-8 and K_{2,3}."""
    yes_graphs = [g for g, cls in atlas_2_7_classified if cls.verdict == "YES"]
    corpus = random.Random(2026).sample(yes_graphs, 100)
    corpus += all_trees(2, 8)
    corpus += [cycle_graph(n) for n in range(3, 9)]
    corpus.append(Graph.from_edges([(s, f"m{i}") for s in "ab" for i in range(3)]))
    return corpus


@pytest.fixture(scope="session")
def synthesized_corpus(synthesis_corpus):
    """(graph, classification, bundle) for every graph of synthesis_corpus:
    the bundle is synthesized once per session from the classifier's
    tree, or None when the verdict is NO."""
    out = []
    for g in synthesis_corpus:
        cls = classify_topological_3(g)
        tree = cls.tree
        bundle = None if tree is None else synthesize(tree.terminal_graph(), tree)
        out.append((g, cls, bundle))
    return out
