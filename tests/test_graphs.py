"""Graph container, generators, subdivision bookkeeping, quotients."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zvsearch import graphs
from zvsearch.errors import InputError, ResourceLimitError
from zvsearch.graphs import (
    EquivalenceSpec,
    Graph,
    ball,
    block_cut_forest,
    boundary,
    complete_graph,
    cycle_graph,
    edge_key,
    format_edge_list,
    generate,
    grid_graph,
    k4_subdivision_example,
    parse_edge_list,
    path_graph,
    perfect_binary_tree,
    quotient,
    subdivide,
    subdivision_label,
)

from conftest import (
    bridges,
    internally_disjoint_paths,
    is_bridged,
    leaf_blocks,
    separating_bridges,
    two_disjoint_paths,
)


def small_graphs():
    return st.integers(3, 8).flatmap(
        lambda n: st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=2 * n,
        ).map(
            lambda pairs: Graph.from_edges(
                ((f"v{a}", f"v{b}") for a, b in pairs if a != b),
                vertices=(f"v{i}" for i in range(n)),
            )
        )
    )


def test_edge_key_sorts():
    assert edge_key("b", "a") == ("a", "b")
    assert edge_key("a", "b") == ("a", "b")


def test_from_edges_rejects_self_loop():
    with pytest.raises(InputError):
        Graph.from_edges([("x", "x")])


def test_basic_accessors():
    g = Graph.from_edges([("a", "b"), ("b", "c")], vertices=["z"])
    assert g.n == 4
    assert g.m == 2
    assert "z" in g and g.degree("z") == 0
    assert g.has_edge("a", "b") and g.has_edge("b", "a")
    assert not g.has_edge("a", "c")
    assert g.sorted_neighbors("b") == ["a", "c"]
    with pytest.raises(InputError):
        g.neighbors("nope")


def test_induced_and_removal():
    g = cycle_graph(5)
    h = g.induced({"0", "1", "2"})
    assert sorted(h.edges()) == [("0", "1"), ("1", "2")]
    assert g.without_edge("0", "1").m == g.m - 1
    assert g.without_vertices({"0"}).n == 4


def test_union_rejects_edge_conflicts_only_on_vertices():
    g = Graph.from_edges([("a", "b")])
    h = Graph.from_edges([("b", "c")])
    assert g.union(h).m == 2


def test_relabel_collision():
    g = Graph.from_edges([("a", "b"), ("b", "c")])
    with pytest.raises(InputError):
        g.relabel({"a": "c", "b": "b", "c": "c"})


def test_components_and_connectivity():
    g = Graph.from_edges([("a", "b")], vertices=["c"])
    comps = sorted(sorted(c) for c in g.components())
    assert comps == [["a", "b"], ["c"]]
    assert not g.is_connected()
    assert cycle_graph(4).is_connected()


def test_distances_and_shortest_path():
    g = path_graph(5)
    d = g.distances("0")
    assert d["4"] == 4
    assert g.shortest_path("0", "3") == ["0", "1", "2", "3"]
    # forbidding the middle of a cycle forces the long way round
    c = cycle_graph(5)
    assert len(c.shortest_path("0", "2", forbidden={"1"})) == 4
    assert c.shortest_path("0", "2", forbidden={"1", "3"}) is None


def test_mask_round_trip():
    g = cycle_graph(6)
    s = frozenset({"1", "4"})
    assert g.from_mask(g.to_mask(s)) == s


def test_boundary_and_ball():
    g = path_graph(5)
    assert boundary(g, {"1", "2"}) == {"1", "2"}
    assert boundary(g, set(g.vertices)) == set()
    assert ball(g, "2", 1) == {"1", "2", "3"}
    assert ball(g, "0", 2) == {"0", "1", "2"}


def test_bridges_frozen():
    assert bridges(path_graph(4)) == [("0", "1"), ("1", "2"), ("2", "3")]
    assert bridges(cycle_graph(4)) == []
    assert bridges(k4_subdivision_example()) == []


def test_separating_bridges_barbell():
    # the graph-level bridge oracles of the tests; two triangles joined
    # by a two-edge path: both path edges separate
    g = Graph.from_edges(
        [("a", "b"), ("b", "c"), ("c", "a"),
         ("c", "m"), ("m", "d"),
         ("d", "e"), ("e", "f"), ("f", "d")]
    )
    assert is_bridged(g, "a", "e")
    seps = separating_bridges(g, "a", "e")
    assert sorted(seps) == [edge_key("c", "m"), edge_key("m", "d")]
    assert not is_bridged(g, "a", "b")


def test_block_cut_forest_barbell():
    g = Graph.from_edges(
        [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d"),
         ("d", "e"), ("e", "f"), ("f", "d")]
    )
    leaves = leaf_blocks(block_cut_forest(g))
    assert sorted((sorted(blk), cut) for blk, cut in leaves) == [
        (["a", "b", "c"], "c"), (["d", "e", "f"], "d")
    ]


@settings(max_examples=200, deadline=None)
@given(small_graphs())
def test_block_cut_forest_matches_networkx(g):
    """Blocks and cut vertices against networkx; an isolated vertex is a
    block of its own, which networkx leaves out."""
    import networkx as nx

    ng = nx.Graph()
    ng.add_nodes_from(g.vertices)
    ng.add_edges_from(g.edges())
    bcf = block_cut_forest(g)
    want = {frozenset(b) for b in nx.biconnected_components(ng)}
    want |= {frozenset([v]) for v in g.vertices if not g.neighbors(v)}
    assert len(bcf.blocks) == len(want) and set(bcf.blocks) == want
    assert bcf.cut_vertices == set(nx.articulation_points(ng))


class CountedAdj(dict):
    """An adjacency that counts the vertices read by walking it."""

    walked = 0

    def __iter__(self):
        for v in super().__iter__():
            self.walked += 1
            yield v


def test_induced_reads_only_the_kept_vertices():
    """induced looks up each kept vertex instead of walking all n, so a
    peel that takes one small block at a time stays linear."""
    adj = CountedAdj(path_graph(1000)._adj)
    g = Graph(adj)
    adj.walked = 0
    sub = g.induced(["4", "3"])
    assert adj.walked == 0
    assert sub.vertices == ("3", "4") and sub.edges() == (("3", "4"),)
    with pytest.raises(InputError, match=r"not vertices: \['x'\]"):
        g.induced(["3", "x"])
    assert adj.walked == 0


def test_subdivision_labels_and_chains():
    g = path_graph(3)
    sub = subdivide(g, {("0", "1"): 2})
    assert sub.count("1", "0") == 2
    assert sub.chain(("0", "1")) == ["0", "(0,1)#1", "(0,1)#2", "1"]
    assert sub.chain_from(("0", "1"), "1") == ["1", "(0,1)#2", "(0,1)#1", "0"]
    assert sub.derived.n == 5
    assert subdivision_label(("0", "1"), 1) == "(0,1)#1"
    with pytest.raises(InputError):
        subdivide(g, {("0", "2"): 1})
    with pytest.raises(InputError):
        subdivide(g, {("0", "1"): -1})
    with pytest.raises(InputError):
        sub.chain_from(("0", "1"), "2")


def test_subdivision_answers_from_labels_match_derived():
    # size, membership and overlap are read off the labels without
    # building the derived graph; the derived graph is the reference
    g = Graph.from_edges([("a", "b"), ("b", "c"), ("c", "d"), ("x", "(a,b)#7")])
    subs = [
        subdivide(g, {("a", "b"): 3, ("c", "d"): 1}),
        subdivide(g, {("a", "b"): 2, ("b", "c"): 4}),
        subdivide(Graph.from_edges([("a", "b"), ("b", "z")]), {("a", "b"): 5}),
        subdivide(Graph.from_edges([("d", "e")]), {("d", "e"): 2}),
    ]
    for sub in subs:
        vs = set(sub.derived.vertices)
        assert sub.n == len(vs)
        assert all(v in sub for v in vs)
        for v in ("(a,b)#0", "(a,b)#01", "(a,b)#9", "(a,b)#", "(b,a)#1", "q"):
            assert (v in sub) == (v in vs)
        for other in subs:
            assert sub.shared_vertices(other) == vs & set(other.derived.vertices)
    with pytest.raises(InputError, match="label collision"):
        subdivide(g, {("a", "b"): 7})


def test_subdivision_refuses_edges_with_one_label_head():
    # commas in names: both chains would be labelled "(x,y,z)#i"
    g = Graph.from_edges([("x,y", "z"), ("x", "y,z")])
    with pytest.raises(InputError, match=r"label collision: '\(x,y,z\)'"):
        subdivide(g, {("x,y", "z"): 1, ("x", "y,z"): 1})
    sub = subdivide(g, {("x,y", "z"): 1, ("x", "y,z"): 0})
    assert sub.n == sub.derived.n == 5


def test_subdivision_zero_counts_dropped():
    sub = subdivide(path_graph(2), {("0", "1"): 0})
    assert sub.counts == {}
    assert sub.derived == path_graph(2)


def test_equivalence_spec_basics():
    eq = EquivalenceSpec.from_merges("abcd", [("a", "c")])
    assert eq.class_of("a") == frozenset({"a", "c"})
    assert eq.covers("abcd")
    assert not eq.covers("abcde")
    assert eq.meet({"a", "b"}) == frozenset({"b"})
    assert eq.join({"a", "b"}) == frozenset({"a", "b", "c"})
    assert eq.is_invariant({"a", "c", "d"})
    assert not eq.is_invariant({"a", "d"})


def test_quotient_cycle_mod_antipodes():
    g = cycle_graph(6)
    eq = EquivalenceSpec.from_merges(
        g.vertices, [("0", "3"), ("1", "4"), ("2", "5")]
    )
    q, mapping = quotient(g, eq)
    assert q.n == 3 and q.m == 3  # a triangle
    assert mapping["0"] == mapping["3"]
    with pytest.raises(InputError):
        quotient(path_graph(2), eq)


def test_disjoint_paths_frozen():
    theta = Graph.from_edges(
        [("a", "x"), ("x", "b"), ("a", "y"), ("y", "b"), ("a", "b")]
    )
    assert internally_disjoint_paths(theta, "a", "b", 3) is not None
    assert internally_disjoint_paths(path_graph(4), "0", "3", 2) is None
    c = cycle_graph(4)
    pair = two_disjoint_paths(c, {"0", "1"}, {"2", "3"})
    assert pair is not None
    p, q = pair
    assert not (set(p) & set(q))
    assert two_disjoint_paths(path_graph(3), {"0"}, {"2"}) is None


@settings(max_examples=60, deadline=None)
@given(small_graphs())
def test_disjoint_paths_match_networkx(g):
    """Menger cross-check against networkx local connectivity."""
    import networkx as nx

    ng = nx.Graph()
    ng.add_nodes_from(g.vertices)
    ng.add_edges_from(g.edges())
    vs = sorted(g.vertices)
    u, v = vs[0], vs[-1]
    if u == v or g.has_edge(u, v):
        return
    want = nx.connectivity.local_node_connectivity(ng, u, v)
    for k in range(1, 4):
        got = internally_disjoint_paths(g, u, v, k)
        if k <= want:
            assert got is not None and len(got) == k
            used = set()
            for p in got:
                assert p[0] == u and p[-1] == v
                inner = set(p[1:-1])
                assert not (inner & used)
                used |= inner
        else:
            assert got is None


def test_generator_shapes():
    assert path_graph(4).m == 3
    assert cycle_graph(5).m == 5
    assert complete_graph(4).m == 6
    g = grid_graph(3, 4)
    assert g.n == 12 and g.m == 3 * 3 + 2 * 4
    t = perfect_binary_tree(3)
    assert t.n == 15 and t.m == 14


def test_k4_subdivision_example_layout():
    g = k4_subdivision_example()
    assert g.n == 8
    assert {v for v in g.vertices if g.degree(v) == 3} == {"A", "B", "C", "D"}
    assert g.has_edge("A", "I1") and g.has_edge("I4", "D")


def test_generate_specs():
    assert generate("cycle:5") == cycle_graph(5)
    assert generate("grid: 2, 3") == grid_graph(2, 3)
    assert generate("k4sub") == k4_subdivision_example()
    assert generate("f1").n == complete_graph(4).n + 6
    with pytest.raises(InputError):
        generate("blob:3")
    with pytest.raises(InputError):
        generate("cycle:3,4")
    with pytest.raises(InputError):
        generate("cycle:x")


@pytest.mark.parametrize(
    "spec",
    ["path:1", "path:9", "cycle:3", "cycle:10", "complete:1", "complete:7",
     "grid:2,2", "grid:3,7", "tree:0", "tree:5", "k4sub", "f1", "f1:0", "f1:3",
     "f2", "f3"],
)
def test_generator_sizes_are_predicted_exactly(spec):
    """generate refuses a spec by the size its table predicts, before
    building anything; the prediction is the built graph's size."""
    kind, _, rest = spec.partition(":")
    args = [int(a) for a in rest.split(",") if a]
    g = generate(spec)
    assert graphs._GENERATORS[kind][2](*args) == g.n + len(list(g.edges()))


@pytest.mark.parametrize(
    "spec, size",
    [("path:99999999999", 199999999997), ("path:500001", 1000001),
     ("complete:1000000", 500000500000), ("grid:1000,1000", 2998000),
     ("tree:60", 2**62 - 3), ("tree:99999999999", 2**66 - 3)],
)
def test_generate_refuses_specs_over_the_cap(spec, size):
    with pytest.raises(ResourceLimitError, match=f"at least {size} vertices") as ex:
        generate(spec)
    assert (ex.value.budget, ex.value.used) == (graphs._GENERATED_CAP, size)


def test_refused_arguments_are_input_errors_at_any_size():
    assert graphs._GENERATORS["path"][2](500000) == graphs._GENERATED_CAP - 1
    for spec in ("grid:1,2000000", "complete:-5000", "tree:-3"):
        with pytest.raises(InputError):
            generate(spec)


def test_family_generators_have_expected_branch_degrees():
    from zvsearch.graphs import family_f2, family_f3

    f2 = family_f2()
    assert f2.degree("a") == 6 and f2.degree("b") == 6
    f3 = family_f3()
    # two bipaths plus one connector meet at each junction vertex
    assert all(f3.degree(v) == 5 for v in ("v1", "v2", "v3", "v4"))


def test_parse_edge_list_forms():
    g, terms = parse_edge_list("# comment\nterminals a b\na b\nb c\nlonely\n")
    assert terms == ("a", "b")
    assert g.degree("lonely") == 0
    assert g.m == 2
    g2, terms2 = parse_edge_list("x y\n")
    assert terms2 is None and g2.m == 1
    with pytest.raises(InputError):
        parse_edge_list("a b c\n")
    with pytest.raises(InputError):
        parse_edge_list("terminals onlyone\na b\n")


@settings(max_examples=60, deadline=None)
@given(small_graphs())
def test_format_parse_round_trip(g):
    text = format_edge_list(g)
    back, terms = parse_edge_list(text)
    assert terms is None
    assert back == g


def test_format_round_trip_with_terminals():
    g = cycle_graph(4)
    text = format_edge_list(g, terminals=("0", "2"))
    back, terms = parse_edge_list(text)
    assert back == g and terms == ("0", "2")
