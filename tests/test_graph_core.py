import pytest
from hypothesis import given, strategies as st

from retlab.graph_core import (
    Graph,
    common_neighbours,
    connected_components,
    disjoint_union,
    distance_k_neighbourhood,
    graph,
    induced_subgraph,
    is_isomorphic,
    neighbourhood,
    parse_graph,
    serialize_graph,
)

from conftest import reflexive_clique, random_graph


def test_loops_and_adjacency():
    h = graph(3, [(0, 0), (1, 0), (2, 1)])
    assert h.is_looped(0) and not h.is_looped(1)
    assert h.has_edge(0, 1) and h.has_edge(1, 0)
    assert neighbourhood(h, 0) == {0, 1}
    assert neighbourhood(h, 1) == {0, 2}


def test_multi_edges_collapse():
    h = graph(2, [(0, 1), (1, 0), (0, 1)])
    assert len(h.edges) == 1


def test_edge_out_of_range_rejected():
    with pytest.raises(ValueError):
        graph(2, [(0, 2)])
    with pytest.raises(ValueError):
        Graph(2, frozenset({(1, 0)}))  # unnormalized


def test_common_neighbours():
    h = reflexive_clique(4)
    assert common_neighbours(h, [0, 1]) == {0, 1, 2, 3}
    p = graph(3, [(0, 1), (1, 2)])
    assert common_neighbours(p, [0, 2]) == {1}
    assert common_neighbours(p, iter([1])) == {0, 2}
    with pytest.raises(ValueError):
        common_neighbours(p, [])
    with pytest.raises(ValueError):
        common_neighbours(p, [0, 3])


def test_distance_k_walk_semantics():
    p = graph(4, [(0, 1), (1, 2), (2, 3)])
    assert distance_k_neighbourhood(p, 0, 2) == {0, 2}
    # a loop lets a walk stall
    lp = graph(2, [(0, 0), (0, 1)])
    assert distance_k_neighbourhood(lp, 0, 2) == {0, 1}


def test_induced_subgraph_relabels():
    h = graph(4, [(0, 0), (0, 2), (2, 3)])
    sub, relabel = induced_subgraph(h, {0, 2, 3})
    assert sub.n == 3
    assert relabel == {0: 0, 2: 1, 3: 2}
    assert sub.has_edge(0, 1) and sub.has_edge(1, 2) and sub.is_looped(0)


def test_connected_components_and_union():
    a = graph(2, [(0, 1)])
    b = reflexive_clique(3)
    u = disjoint_union(a, b)
    comps = connected_components(u)
    assert sorted(map(sorted, comps)) == [[0, 1], [2, 3, 4]]


def test_isomorphism_positive_and_negative():
    c4 = graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    c4b = graph(4, [(0, 2), (2, 1), (1, 3), (0, 3)])
    m = is_isomorphic(c4, c4b)
    assert m is not None
    for u, v in c4.edges:
        assert c4b.has_edge(m[u], m[v])
    path = graph(4, [(0, 1), (1, 2), (2, 3)])
    assert is_isomorphic(c4, path) is None
    # loops must be preserved
    l1 = graph(1, [(0, 0)])
    l0 = graph(1, [])
    assert is_isomorphic(l1, l0) is None


def test_parse_serialize_round_trip():
    h = graph(3, [(0, 0), (0, 1), (1, 2)])
    assert parse_graph(serialize_graph(h)) == h


def test_parse_errors_are_line_numbered():
    with pytest.raises(ValueError, match="line 2"):
        parse_graph("n 2\ne 0 5\n")
    with pytest.raises(ValueError, match="line 1"):
        parse_graph("e 0 1\n")
    with pytest.raises(ValueError, match="line 3"):
        parse_graph("n 2\ne 0 1\nwhat\n")


@given(st.integers(0, 6), st.randoms(use_true_random=False))
def test_serialization_round_trips_random_graphs(n, rnd):
    h = random_graph(rnd, n)
    assert parse_graph(serialize_graph(h)) == h


@given(st.integers(1, 5), st.randoms(use_true_random=False))
def test_isomorphism_invariant_under_relabeling(n, rnd):
    h = random_graph(rnd, n)
    perm = list(range(n))
    rnd.shuffle(perm)
    h2 = graph(n, [(perm[u], perm[v]) for u, v in h.edges])
    assert is_isomorphic(h, h2) is not None
