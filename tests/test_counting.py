import inspect
import math
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from retlab.cli import main
from retlab.graph_core import graph, serialize_graph
from retlab.counting import (
    StirlingPreconditionError,
    check_stirling_bounds,
    count_homs,
    count_large_cuts,
    count_list_homs,
    count_multiterminal_cuts,
    count_retractions,
    count_weighted_list_homs,
    cut_edges,
    dirichlet_approx,
    full_lists,
    iter_list_homs,
    naive_count,
    parse_lists,
    separating_functions,
    serialize_lists,
    stirling2,
)

from conftest import reflexive_clique, random_graph

K3 = graph(3, [(0, 1), (1, 2), (0, 2)])


def test_homs_to_k3_are_colourings():
    # proper 3-colourings of a triangle
    assert count_homs(K3, K3) == 6
    p3 = graph(3, [(0, 1), (1, 2)])
    assert count_homs(p3, K3) == 12  # 3 * 2 * 2


def test_single_vertex_counts_target_size():
    k1 = graph(1, [])
    assert count_homs(k1, K3) == 3
    assert count_homs(k1, reflexive_clique(5)) == 5


def test_lists_restrict():
    p2 = graph(2, [(0, 1)])
    assert count_list_homs(p2, [frozenset({0}), frozenset({0, 1, 2})], K3) == 2
    assert count_list_homs(p2, [frozenset(), frozenset({0})], K3) == 0


def test_looped_instance_rejected():
    lp = graph(1, [(0, 0)])
    with pytest.raises(ValueError):
        count_homs(lp, K3)


def test_retraction_list_sizes_enforced():
    p2 = graph(2, [(0, 1)])
    with pytest.raises(ValueError):
        count_retractions(p2, [frozenset({0, 1}), frozenset({0})], K3)
    assert count_retractions(p2, [frozenset({0}), frozenset({0, 1, 2})], K3) == 2


def test_weighted_counts():
    p2 = graph(2, [(0, 1)])
    h = graph(2, [(0, 0), (0, 1)])
    # maps: (0,0),(0,1),(1,0); weights w0=2,w1=3
    assert count_weighted_list_homs(p2, full_lists(p2, h), h, [2, 3]) == 4 + 6 + 6


def test_iter_matches_count_and_is_sorted():
    g = graph(3, [(0, 1), (1, 2)])
    h = graph(3, [(0, 0), (0, 1), (1, 2)])
    homs = list(iter_list_homs(g, full_lists(g, h), h))
    assert len(homs) == count_homs(g, h)
    assert homs == sorted(homs)
    assert len(set(homs)) == len(homs)


@given(st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_counter_agrees_with_naive(rnd):
    g = random_graph(rnd, rnd.randint(1, 5), loop_prob=0.0)
    h = random_graph(rnd, rnd.randint(1, 4))
    lists = [
        frozenset(v for v in range(h.n) if rnd.random() < 0.7) for _ in range(g.n)
    ]
    assert count_list_homs(g, lists, h) == naive_count(g, lists, h)


@st.composite
def list_instances(draw, max_g=6, max_h=4):
    """Instances with isolated vertices, several components, and empty,
    singleton or larger lists."""
    gn = draw(st.integers(0, max_g))
    hn = draw(st.integers(1, max_h))
    g_pairs = [(u, v) for u in range(gn) for v in range(u + 1, gn)]
    h_pairs = [(a, b) for a in range(hn) for b in range(a, hn)]
    g_edges = draw(st.lists(st.sampled_from(g_pairs), unique=True)) if g_pairs else []
    h_edges = draw(st.lists(st.sampled_from(h_pairs), unique=True))
    lists = draw(
        st.lists(st.frozensets(st.integers(0, hn - 1)), min_size=gn, max_size=gn)
    )
    weights = draw(st.lists(st.integers(0, 5), min_size=hn, max_size=hn))
    return graph(gn, g_edges), lists, graph(hn, h_edges), weights


def brute_homs(g, lists, h):
    return [
        image
        for image in product(*[sorted(s) for s in lists])
        if all(h.has_edge(image[u], image[v]) for u, v in g.edges)
    ]


# two components, an isolated vertex, a singleton and an empty list
SPLIT = (
    graph(5, [(0, 1), (2, 3)]),
    [frozenset({0}), frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2}), frozenset({2})],
    graph(3, [(0, 0), (0, 1), (1, 2)]),
    [2, 3, 5],
)
EMPTY_LIST = (SPLIT[0], SPLIT[1][:4] + [frozenset()], SPLIT[2], SPLIT[3])


@given(list_instances())
@example(SPLIT)
@example(EMPTY_LIST)
@settings(max_examples=150, deadline=None)
def test_counts_and_enumeration_agree_with_brute_force(instance):
    g, lists, h, weights = instance
    homs = brute_homs(g, lists, h)
    assert count_list_homs(g, lists, h) == naive_count(g, lists, h) == len(homs)
    assert count_weighted_list_homs(g, lists, h, weights) == sum(
        math.prod(weights[x] for x in image) for image in homs
    )
    enumerated = list(iter_list_homs(g, lists, h))
    assert sorted(enumerated) == homs


@given(list_instances(max_g=9), st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_counts_invariant_under_relabelling(instance, rnd):
    g, lists, h, weights = instance
    p = list(range(g.n))
    q = list(range(h.n))
    rnd.shuffle(p)
    rnd.shuffle(q)
    g2 = graph(g.n, [(p[u], p[v]) for u, v in g.edges])
    h2 = graph(h.n, [(q[a], q[b]) for a, b in h.edges])
    lists2 = [None] * g.n
    for v, s in enumerate(lists):
        lists2[p[v]] = frozenset(q[x] for x in s)
    weights2 = [None] * h.n
    for x, w in enumerate(weights):
        weights2[q[x]] = w
    assert count_list_homs(g2, lists2, h2) == count_list_homs(g, lists, h)
    assert count_weighted_list_homs(g2, lists2, h2, weights2) == (
        count_weighted_list_homs(g, lists, h, weights)
    )


LOOPED_K1 = graph(1, [(0, 0)])
HARD_CORE = graph(2, [(0, 0), (0, 1)])


def path(n):
    return graph(n, [(i, i + 1) for i in range(n - 1)])


def test_deep_path_into_looped_vertex():
    p = path(1500)
    lists = full_lists(p, LOOPED_K1)
    assert count_list_homs(p, lists, LOOPED_K1) == 1
    assert list(iter_list_homs(p, lists, LOOPED_K1)) == [(0,) * 1500]
    # a generator function, so that a traced run can count what it yields
    assert inspect.isgeneratorfunction(iter_list_homs)


def test_deep_path_into_looped_vertex_cli(tmp_path, capsys):
    g = tmp_path / "p1500.graph"
    h = tmp_path / "k1.graph"
    g.write_text(serialize_graph(path(1500)))
    h.write_text(serialize_graph(LOOPED_K1))
    assert main(["count", "--mode", "hom", str(g), str(h)]) == 0
    assert capsys.readouterr().out == "1\n"


def test_long_path_into_hard_core_is_fibonacci():
    fib = [0, 1]
    while len(fib) <= 202:
        fib.append(fib[-1] + fib[-2])
    assert count_homs(path(200), HARD_CORE) == fib[202]


def test_stirling_small_values():
    assert stirling2(3, 2) == 6
    assert stirling2(3, 3) == 6
    assert stirling2(3, 4) == 0
    assert stirling2(0, 0) == 1
    assert stirling2(4, 1) == 1


def test_stirling_bounds_and_precondition():
    assert check_stirling_bounds(10, 2)
    with pytest.raises(StirlingPreconditionError):
        check_stirling_bounds(3, 4)
    with pytest.raises(StirlingPreconditionError):
        check_stirling_bounds(10, 0)


def test_dirichlet_bound_holds():
    lams = [Fraction(1, 3), Fraction(2, 7)]
    r, ts = dirichlet_approx(lams, 25)
    assert 1 <= r <= 25
    d = len(lams)
    for lam, t in zip(lams, ts):
        assert abs(r * lam - t) ** d <= Fraction(1, 25)


def test_dirichlet_rejects_bad_input():
    with pytest.raises(ValueError):
        dirichlet_approx([], 5)
    with pytest.raises(ValueError):
        dirichlet_approx([Fraction(-1)], 5)


def test_separating_functions_fix_terminals():
    g = graph(3, [(0, 1), (1, 2)])
    phis = list(separating_functions(g, [0, 2]))
    assert len(phis) == 2
    assert all(phi[0] == 1 and phi[2] == 2 for phi in phis)


def test_multiterminal_cuts_triangle():
    k_min, count, ok = count_multiterminal_cuts(K3, [0, 1, 2], 3)
    assert (k_min, count, ok) == (3, 1, True)


def test_large_cuts():
    c4 = graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert count_large_cuts(c4) == (4, 1)
    assert count_large_cuts(K3) == (2, 3)


def test_lists_parse_serialize_round_trip():
    g = graph(3, [(0, 1), (1, 2)])
    lists = [frozenset({0, 2}), frozenset(range(3)), frozenset({1})]
    text = serialize_lists(lists, K3)
    assert parse_lists(text, g, K3) == lists


def test_lists_parse_errors():
    g = graph(2, [(0, 1)])
    with pytest.raises(ValueError, match="line 1"):
        parse_lists("l 5 0\n", g, K3)
    with pytest.raises(ValueError, match="line 2"):
        parse_lists("l 0 0\nl 0 1\n", g, K3)
