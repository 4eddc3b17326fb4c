import random
from fractions import Fraction

import pytest

from retlab import gadget_lab
from retlab.graph_core import graph, neighbourhood
from retlab.counting import count_homs, full_lists, iter_list_homs
from retlab.structure import universal_vertices
from retlab.gadget_lab import (
    EmptyIntervalError,
    HType,
    check_kelk_condition,
    count_type,
    decompose_ball,
    enumerate_maximal_types,
    find_dominance_params,
    htype_of,
    is_nonempty_type,
    make_j_graph,
    make_net,
    make_triangle_extended,
    make_wr,
    make_x_graph,
    nhat,
    pinned_configurations,
    verify_boost_decomposition,
    verify_cycle_gadget,
    verify_degree2_bristle,
    verify_net_zphi,
    verify_pin_neighbourhood,
    verify_two_pin,
    verify_wr3_zphi,
)

from conftest import irreflexive_path, reflexive_cycle


def random_graph(rng, n, universal=False):
    """A random graph with loops; vertex 0 is looped and universal if asked."""
    p = rng.random()
    edges = [(u, v) for u in range(n) for v in range(u, n) if rng.random() < p]
    if universal:
        edges += [(0, v) for v in range(n)]
    return graph(n, edges)


def cn_mask(h, mask):
    """Common neighbourhood of a vertex bitmask; every vertex for 0."""
    out = (1 << h.n) - 1
    for v in range(h.n):
        if mask >> v & 1:
            out &= sum(1 << u for u in h.neighbours(v))
    return out


def closed_by_scan(h):
    """The 2^n oracle: every non-empty mask B with cn(B) non-empty and
    cn(cn(B)) = B."""
    return [
        m
        for m in range(1, 1 << h.n)
        if cn_mask(h, m) and cn_mask(h, cn_mask(h, m)) == m
    ]


def kelk_by_pair_scan(h, f):
    """The exhaustive oracle: the first counterexample (S, T) as masks,
    or None, over every non-empty S and every non-empty T inside cn(S)
    with S inside cn(T)."""
    fmask = sum(1 << v for v in f)
    bound = len(f) * h.n
    for s in range(1, 1 << h.n):
        allowed = cn_mask(h, s)
        t = allowed
        while t:
            if s & ~cn_mask(h, t) == 0 and fmask not in (s, t):
                if bin(s).count("1") * bin(t).count("1") >= bound:
                    return s, t
            t = (t - 1) & allowed
    return None


# -- graph families ---------------------------------------------------------


def test_make_x_graph_shapes():
    h = make_x_graph(1, 0, 1)
    assert h.n == 4  # center, one unlooped leaf, one triangle pair
    assert h.loops() == frozenset({0, 2, 3})
    assert neighbourhood(h, 1) == {0}
    h = make_x_graph(2, 1, 2)
    assert h.n == 1 + 2 + 1 + 4
    assert neighbourhood(h, 0) == frozenset(range(h.n))


def test_make_wr_and_net():
    wr = make_wr(3)
    assert wr.n == 4 and wr.loops() == frozenset(range(4))
    net = make_net()
    assert net.n == 6 and net.loops() == frozenset(range(6))
    assert net.has_edge(0, 1) and net.has_edge(0, 3) and not net.has_edge(3, 4)


def test_make_triangle_extended():
    h = make_triangle_extended("cycle", 5, [1, 3, 4])
    assert h.n == 8
    assert neighbourhood(h, 5) == {5, 1, 2}
    h = make_triangle_extended("path", 4, [0, 2])
    assert h.n == 6
    assert not h.has_edge(0, 3)
    with pytest.raises(ValueError):
        make_triangle_extended("cycle", 2, [])
    with pytest.raises(ValueError):
        make_triangle_extended("path", 4, [3])  # last edge index is 2


# -- types ------------------------------------------------------------------


def test_j_graph_layout():
    j = make_j_graph(2, 1, 3)
    assert j.graph.n == 2 * (2 * 3) + 2 * 3
    assert len(j.matching) == 3
    for u, v in j.matching:
        assert j.graph.has_edge(u, v)
    assert all(j.graph.has_edge(x, y) for x in j.a for y in j.b)


def test_htype_rejects_non_homs():
    j = make_j_graph(1, 1, 1)
    h = make_x_graph(1, 0, 1)
    with pytest.raises(ValueError):
        htype_of((1, 1, 1, 1), j, h)  # vertex 1 is unlooped


def test_types_partition_all_homs():
    rng = random.Random(5)
    cases = [
        (make_x_graph(1, 0, 1), (1, 1, 1)),
        (make_x_graph(1, 1, 1), (1, 1, 1)),
        (make_x_graph(1, 0, 1), (1, 2, 1)),
    ]
    cases += [(random_graph(rng, rng.randint(1, 4)), (1, 1, 1)) for _ in range(12)]
    cases += [(random_graph(rng, 3), (1, 2, 1)) for _ in range(3)]
    for h, pqt in cases:
        j = make_j_graph(*pqt)
        by_type = {}
        for hom in iter_list_homs(j.graph, full_lists(j.graph, h), h):
            t = htype_of(hom, j, h)
            by_type[t] = by_type.get(t, 0) + 1
        assert sum(by_type.values()) == count_homs(j.graph, h)
        for t in by_type:
            assert is_nonempty_type(t, j, h)
            # every per-type count against the full enumeration
            assert count_type(t, j, h) == by_type[t]
        # random types, mostly not realized, count what enumeration finds
        vs = range(h.n)
        for _ in range(10):
            t = HType(
                frozenset(v for v in vs if rng.random() < 0.5),
                frozenset((x, y) for x in vs for y in vs if rng.random() < 0.3),
                frozenset(v for v in vs if rng.random() < 0.5),
            )
            assert count_type(t, j, h) == by_type.get(t, 0)
    # a T2 pair that is not an edge: vertex 1 of X(1, 0, 1) is unlooped
    h, j = make_x_graph(1, 0, 1), make_j_graph(1, 1, 1)
    t = HType(frozenset({0}), frozenset({(1, 1)}), frozenset({0}))
    assert not is_nonempty_type(t, j, h)
    assert count_type(t, j, h) == 0


def test_maximal_types_match_printed_tables():
    def sig(t):
        # orientation-free: the larger outer part first
        l1, l3 = sorted((len(t.t1), len(t.t3)), reverse=True)
        return (l1, len(t.t2), l3)

    for k1 in list(range(1, 8)) + [14]:  # X(14, 0, 1) has 17 vertices
        types = enumerate_maximal_types(make_x_graph(k1, 0, 1))
        sizes = sorted(sig(t) for t in types)
        expected = sorted(
            [
                (3 + k1, 1, 3 + k1),
                (3 + k1, 3, 3),
                (3 + k1, 3 + k1, 1),
                (3, 9, 3),
                (3, 9 + k1, 1),
                (1, 9 + 2 * k1, 1),
            ]
        )
        assert sizes == expected
    for k1 in range(3, 7):
        types = enumerate_maximal_types(make_x_graph(k1, 1, 1))
        assert len(types) == 10


def test_closed_sets_match_mask_scan():
    rng = random.Random(9)
    for _ in range(150):
        h = random_graph(rng, rng.randint(1, 10), universal=rng.random() < 0.5)
        closed, _ = gadget_lab._closed_sets(h)
        assert sorted(closed) == closed_by_scan(h)
        for a, b in zip(closed, closed[1:]):
            low = (a ^ b) & -(a ^ b)
            assert b & low  # lectic order: b has the least differing vertex


def test_maximal_types_contain_no_other():
    rng = random.Random(13)
    for _ in range(40):
        h = random_graph(rng, rng.randint(1, 6))
        types = enumerate_maximal_types(h)
        both = set(types) | {t.symmetric() for t in types}
        for t in both:
            for u in both:
                if t != u:
                    assert not (u.t1 <= t.t1 and u.t2 <= t.t2 and u.t3 <= t.t3)


def test_closed_set_limit_raises(monkeypatch):
    h = make_x_graph(2, 2, 1)  # more than four closed sets
    monkeypatch.setattr(gadget_lab, "MAX_CLOSED_SETS", 4)
    with pytest.raises(ValueError, match="more than 4 closed sets"):
        enumerate_maximal_types(h)
    with pytest.raises(ValueError, match="more than 4 closed sets"):
        check_kelk_condition(h)


def test_nhat_formula():
    h = make_x_graph(2, 0, 1)
    types = enumerate_maximal_types(h)
    by_sig = {
        tuple(sorted((len(t.t1), len(t.t3)))) + (len(t.t2),): t for t in types
    }
    t = by_sig[(1, 3, 11)]  # outer parts of sizes 1 and 3, middle 11
    assert nhat(t, 2, 3, 1) == 3**2 * 11**3 * 1**2
    assert nhat(t, 1, 1, 2) == 3**2 * 11**2


def test_maximal_types_bound_realized_counts():
    h = make_x_graph(1, 0, 1)
    j = make_j_graph(1, 1, 1)
    for t in enumerate_maximal_types(h):
        assert count_type(t, j, h) <= nhat(t, 1, 1, 1)


# -- dominance --------------------------------------------------------------


def test_dominance_t5_all_k1():
    for k1 in range(1, 8):
        cert = find_dominance_params("T5", k1)
        assert cert.gamma < 1
        ad, cd = cert.rows[0]
        for a, c in cert.rows[1:]:
            assert a**cert.p * c**cert.q < ad**cert.p * cd**cert.q
            # the certificate transfers to larger t by powering
            for t in range(1, 5):
                assert Fraction(a**cert.p * c**cert.q, ad**cert.p * cd**cert.q) ** t <= cert.gamma**t


def test_dominance_t5_minimality():
    cert = find_dominance_params("T5", 1)
    assert (cert.p, cert.q) == (1, 11)


def test_dominance_t9_success_and_failure():
    for k1 in (3, 4, 5, 6):
        cert = find_dominance_params("T9", k1)
        assert cert.gamma < 1
    for k1 in (1, 2):
        with pytest.raises(EmptyIntervalError):
            find_dominance_params("T9", k1)
    # (9, 9) and (1, 16) against (3, 12): ratios multiplying to 1
    with pytest.raises(EmptyIntervalError, match=r"\(1, 16\) and \(9, 9\)"):
        find_dominance_params("T9", 2)


def test_dominance_fails_past_the_old_vertex_cap():
    for variant in ("T5", "T9"):
        with pytest.raises(EmptyIntervalError):
            find_dominance_params(variant, 14)


def test_dominance_rejects_bad_variant():
    with pytest.raises(ValueError):
        find_dominance_params("T1", 3)


# -- ball decomposition -----------------------------------------------------


def test_decompose_ball():
    hb = make_x_graph(2, 1, 2)
    dec = decompose_ball(hb, 0)
    assert dec.unlooped == (1, 2)
    assert dec.degree2 == (3,)
    assert len(dec.triangles) == 2
    assert dec.k == 1 and dec.q == 3
    # a looped edge is the smallest valid ball: one degree-2 direction
    tiny = decompose_ball(graph(2, [(0, 0), (0, 1), (1, 1)]), 0)
    assert tiny.degree2 == (1,) and not tiny.triangles
    with pytest.raises(ValueError):
        decompose_ball(make_net(), 0)  # 0 is not universal


def test_pinned_configuration_counts():
    hb = make_x_graph(2, 0, 2)
    dec = decompose_ball(hb, 0)
    assert dec.k == 0
    # no degree-2 directions: every configuration count is 1
    assert all(pinned_configurations(dec, z) == 1 for z in range(hb.n))
    hb = make_x_graph(0, 1, 2)
    dec = decompose_ball(hb, 0)
    assert dec.k == 1
    # closed forms: f(b) = 2^k, f(x_i) = 2 for the degree-2 direction,
    # f = 1 on triangle vertices
    assert pinned_configurations(dec, 0) == 2
    assert pinned_configurations(dec, dec.degree2[0]) == 2
    for x, y in dec.triangles:
        assert pinned_configurations(dec, x) == 1
        assert pinned_configurations(dec, y) == 1


# -- pinning gadgets --------------------------------------------------------


def test_pin_neighbourhood_fixed_instance():
    h = make_x_graph(2, 0, 1)
    ball = neighbourhood(h, 3)
    g = graph(3, [(0, 1), (1, 2)])
    report = verify_pin_neighbourhood(h, 3, g, [frozenset({0}), ball, ball])
    assert report.passed


def test_pin_neighbourhood_rejects_partial_lists():
    h = make_x_graph(2, 0, 1)
    g = graph(1, [])
    with pytest.raises(ValueError):
        verify_pin_neighbourhood(h, 3, g, [frozenset({0, 3})])


def test_two_pin_fixed_instance():
    h = make_x_graph(1, 0, 1)
    from retlab.graph_core import common_neighbours

    cn = common_neighbours(h, [2, 3])
    g = graph(2, [(0, 1)])
    report = verify_two_pin(h, 2, 3, g, [cn, cn])
    assert report.passed


def test_two_pin_empty_common_neighbourhood():
    h = irreflexive_path(4)  # 0 and 3 share no neighbour
    report = verify_two_pin(h, 0, 3, graph(0, []), [])
    assert report.passed and (report.lhs, report.rhs) == (1, 1)
    g = graph(2, [(0, 1)])
    report = verify_two_pin(h, 0, 3, g, [frozenset(), frozenset()])
    assert report.passed and (report.lhs, report.rhs) == (0, 0)
    with pytest.raises(ValueError):
        verify_two_pin(h, 0, 3, graph(1, []), [frozenset({1})])


def test_boost_requires_pendant_triangle_shape():
    hp = make_x_graph(1, 0, 1)
    with pytest.raises(ValueError):
        verify_boost_decomposition(
            hp, 0, 2, graph(1, []), [frozenset({0, 2})], 2
        )


def test_boost_fixed_instances():
    hp = make_x_graph(1, 1, 1)  # looped leaf 2 has neighbourhood {0, 2}
    pair = frozenset({0, 2})
    for g, lists, s in [
        (graph(1, []), [pair], 1),
        (graph(2, [(0, 1)]), [pair, frozenset({0})], 2),
        (graph(3, [(0, 1), (1, 2), (0, 2)]), [pair] * 3, 3),
    ]:
        report = verify_boost_decomposition(hp, 0, 2, g, lists, s)
        assert report.passed, report.details


def test_degree2_bristle_fixed_instances():
    # looped b - unlooped g - looped c
    h = graph(3, [(0, 0), (2, 2), (0, 1), (1, 2)])
    report = verify_degree2_bristle(h, 0, 1, graph(2, [(0, 1)]), [frozenset({0})] * 2)
    assert report.passed
    # with a second looped neighbour of b
    h2 = graph(4, [(0, 0), (2, 2), (3, 3), (0, 1), (1, 2), (0, 3)])
    core = frozenset({0, 3})
    report = verify_degree2_bristle(
        h2, 0, 1, graph(3, [(0, 1), (1, 2)]), [core, frozenset({3}), core]
    )
    assert report.passed


def test_degree2_bristle_hypothesis_enforced():
    # g with a single neighbour violates |Gamma(g)| >= 2
    h = graph(2, [(0, 0), (0, 1)])
    with pytest.raises(ValueError):
        verify_degree2_bristle(h, 0, 1, graph(1, []), [frozenset({0})])


# -- the clique/chain and net reductions ------------------------------------


def test_wr3_identity_k0():
    tri = graph(3, [(0, 1), (1, 2), (0, 2)])
    hb = make_x_graph(0, 0, 3)
    report = verify_wr3_zphi(hb, 0, tri, [0, 1, 2], 3, 1)
    assert report.passed
    assert report.lhs == 216  # surj(3,3)^3 with all three edges cut


def test_net_identity_small():
    h = make_net()
    g = graph(4, [(3, 0), (3, 1), (3, 2)])
    report = verify_net_zphi(h, [0, 1, 2], g, [0, 1, 2], [1, 1, 1])
    assert report.passed
    assert report.lhs == 78732  # 3 * 3^9 * (4/3)


# -- the cycle gadget -------------------------------------------------------


def test_cycle_gadget_bare_cycles():
    for q in (5, 6):
        h = reflexive_cycle(q)
        for ell in range(1, q):
            report = verify_cycle_gadget(h, list(range(q)), ell)
            assert report.passed, (q, ell, report.details)


def test_cycle_gadget_rejects_bad_ell():
    from retlab.gadget_lab import build_cycle_gadget

    with pytest.raises(ValueError):
        build_cycle_gadget(reflexive_cycle(5), list(range(5)), 5)


# -- the two-dominant-state criterion ----------------------------------------


def test_kelk_pass_and_fail():
    ok, ce = check_kelk_condition(make_x_graph(7, 0, 1))
    assert ok and ce is None
    ok, ce = check_kelk_condition(make_x_graph(1, 0, 1))
    assert not ok
    s, t = ce
    # the counterexample satisfies the mutual-coverage hypothesis and
    # violates the bound
    from retlab.graph_core import common_neighbours

    assert s <= common_neighbours(make_x_graph(1, 0, 1), t)
    assert t <= common_neighbours(make_x_graph(1, 0, 1), s)
    assert len(s) * len(t) >= 1 * 4
    assert (s, t) == ({0, 2, 3}, {0, 2, 3})  # the closed pair
    assert check_kelk_condition(make_x_graph(14, 0, 1)) == (True, None)


def test_kelk_matches_pair_scan():
    from retlab.graph_core import common_neighbours

    rng = random.Random(17)
    verdicts = set()
    for _ in range(120):
        h = random_graph(rng, rng.randint(2, 8), universal=True)
        f = universal_vertices(h)
        if len(f) == h.n:
            continue
        ok, ce = check_kelk_condition(h)
        first = kelk_by_pair_scan(h, f)
        assert ok == (first is None)
        verdicts.add(ok)
        if not ok:
            s, t = ce
            assert s == common_neighbours(h, t) and t == common_neighbours(h, s)
            assert f not in (s, t) and len(s) * len(t) >= len(f) * h.n
            if cn_mask(h, first[0]) == first[1] and cn_mask(h, first[1]) == first[0]:
                # the scan met a closed pair first: the same pair
                masks = (sum(1 << v for v in s), sum(1 << v for v in t))
                assert masks == first
    assert verdicts == {True, False}


def test_kelk_requires_proper_universal_set():
    with pytest.raises(ValueError):
        check_kelk_condition(graph(2, [(0, 1)]))  # no universal vertex
    from conftest import reflexive_clique

    with pytest.raises(ValueError):
        check_kelk_condition(reflexive_clique(3))  # everything universal
