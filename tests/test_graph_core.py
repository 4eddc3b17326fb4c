import random
import sys
from itertools import permutations

import pytest
from hypothesis import given, strategies as st

from retlab.graph_core import (
    Graph,
    common_neighbours,
    connected_components,
    disjoint_union,
    graph,
    induced_subgraph,
    is_isomorphic,
    neighbourhood,
    parse_graph,
    search,
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


def test_search_order_and_empty_order():
    assert list(search([], None)) == [()]
    # slot 1 is placed first; slot 0 then takes the values above it
    def candidates(i, image):
        return iter(range(2) if i == 0 else range(image[1] + 1, 3))

    assert list(search([1, 0], candidates)) == [(1, 0), (2, 0), (2, 1)]


def _is_isomorphism(h1, h2, m):
    """m is a bijection taking edges (loops included) to edges, and the
    two graphs have as many edges."""
    return (
        sorted(m) == list(range(h1.n))
        and sorted(m.values()) == list(range(h2.n))
        and len(h1.edges) == len(h2.edges)
        and all(h2.has_edge(m[u], m[v]) for u, v in h1.edges)
    )


@pytest.mark.parametrize("relabel", ["identity", "reversed", "shuffled"])
def test_isomorphism_of_long_paths_needs_no_recursion(relabel):
    n = sys.getrecursionlimit() + 100
    p = graph(n, [(i, i + 1) for i in range(n - 1)])
    perm = list(range(n))
    if relabel == "reversed":
        perm.reverse()
    elif relabel == "shuffled":
        random.Random(3).shuffle(perm)
    q = graph(n, [(perm[u], perm[v]) for u, v in p.edges])
    m = is_isomorphic(p, q)
    assert m is not None and _is_isomorphism(p, q, m)


def test_isomorphism_matches_brute_force():
    rng = random.Random(11)
    found = missed = 0
    for _ in range(400):
        n = rng.randint(0, 6)
        h1 = random_graph(rng, n, rng.random(), rng.random())
        perm = list(range(n))
        rng.shuffle(perm)
        h2 = graph(n, [(perm[u], perm[v]) for u, v in h1.edges])
        if n and rng.random() < 0.5:  # toggle one pair, often keeping the invariants
            u, v = sorted((rng.randrange(n), rng.randrange(n)))
            h2 = graph(n, h2.edges ^ {(u, v)})
        exists = any(_is_isomorphism(h1, h2, dict(enumerate(p))) for p in permutations(range(n)))
        m = is_isomorphic(h1, h2)
        assert (m is not None) == exists
        if m is not None:
            assert _is_isomorphism(h1, h2, m)
        found += exists
        missed += not exists
    assert found >= 150 and missed >= 100
