import math
import random
import sys
from itertools import combinations, permutations, product
from math import comb

import pytest

from retlab import structure
from retlab.gadget_lab import make_net, make_triangle_extended
from retlab.graph_core import graph
from retlab.structure import (
    SQUARE,
    StructuralWitness,
    classify_component_shape,
    find_induced_net,
    find_induced_reflexive_cycle,
    find_induced_wr3,
    find_mixed_triangle,
    find_square,
    girth,
    is_degree2_bristle,
    is_square_free,
    recognize_hbis,
    recognize_triangle_extended,
    universal_vertices,
    validate_hbis,
)

from conftest import (
    fig3_left,
    fig3_right,
    fig4,
    fig5,
    fig15,
    irreflexive_path,
    mutate_hbis,
    random_graph,
    random_hbis,
    reflexive_clique,
    reflexive_cycle,
    star,
)


def test_square_detection():
    c4 = graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert not is_square_free(c4)
    w = find_square(c4)
    assert w.vertices == frozenset(range(4))
    assert is_square_free(reflexive_clique(3))
    assert not is_square_free(reflexive_clique(4))
    # a square as a non-induced subgraph still counts
    k4 = reflexive_clique(4)
    assert find_square(k4) is not None


def test_girth_ignores_loops():
    assert girth(graph(2, [(0, 0), (0, 1)])) == math.inf
    assert girth(graph(3, [(0, 1), (1, 2), (0, 2)])) == 3
    assert girth(graph(5, [(i, (i + 1) % 5) for i in range(5)])) == 5


def test_component_shapes():
    s = classify_component_shape(reflexive_clique(3))
    assert s.reflexive and s.reflexive_clique and s.trivial
    s = classify_component_shape(star(4))
    assert s.irreflexive and s.irreflexive_star and s.trivial
    s = classify_component_shape(irreflexive_path(5))
    assert s.irreflexive_caterpillar and not s.trivial
    s = classify_component_shape(fig3_left())
    assert s.mixed and not s.trivial


def test_mixed_triangle_finder():
    h = fig3_right()
    # fig3-right is all triangles reflexive: no mixed triangle
    assert find_mixed_triangle(h) is None
    m21 = graph(3, [(0, 0), (1, 1), (0, 1), (1, 2), (0, 2)])
    assert find_mixed_triangle(m21).tag == "MixedTriangle21"
    m12 = graph(3, [(0, 0), (0, 1), (1, 2), (0, 2)])
    assert find_mixed_triangle(m12).tag == "MixedTriangle12"


def test_wr3_and_net_finders():
    from retlab.gadget_lab import make_net, make_wr

    assert find_induced_wr3(make_wr(3)) is not None
    assert find_induced_wr3(reflexive_clique(4)) is None
    assert find_induced_net(make_net()) is not None
    assert find_induced_net(make_wr(3)) is None


def test_reflexive_cycle_finder():
    assert find_induced_reflexive_cycle(reflexive_cycle(5)) is not None
    assert find_induced_reflexive_cycle(reflexive_cycle(4)) is None
    # a chord shortens every induced cycle below 5
    chord = graph(
        6,
        [(v, v) for v in range(6)]
        + [(i, (i + 1) % 6) for i in range(6)]
        + [(0, 3)],
    )
    assert find_induced_reflexive_cycle(chord) is None
    assert find_induced_reflexive_cycle(fig15()) is not None
    # unlooped cycles do not count
    assert find_induced_reflexive_cycle(graph(5, [(i, (i + 1) % 5) for i in range(5)])) is None


def test_recognize_hbis_on_figures():
    dec5 = recognize_hbis(fig5())
    assert dec5 is not None
    assert [len(k) for k in dec5.cliques] == [3, 3, 2, 2]
    assert [len(b) for b in dec5.bristles] == [4, 2, 1]
    assert validate_hbis(fig5(), dec5)

    dec4 = recognize_hbis(fig4())
    assert dec4 is not None
    assert sorted(len(k) for k in dec4.cliques) == sorted([2, 3, 2, 3, 4, 2, 2])
    assert sum(len(b) for b in dec4.bristles) == 9
    assert validate_hbis(fig4(), dec4)

    assert recognize_hbis(fig3_right()) is not None
    assert recognize_hbis(fig3_left()) is None


def test_recognize_hbis_rejects_over_bound():
    # reflexive P3 with 2 bristles: bound (2-1)(2-1) = 1 < 2
    assert recognize_hbis(fig3_left()) is None
    # single reflexive edge with an endpoint bristle
    h = graph(3, [(0, 0), (1, 1), (0, 1), (0, 2)])
    assert recognize_hbis(h) is None


def test_recognize_hbis_needs_a_chain():
    # single reflexive cliques are trivial and deliberately not recognized
    assert recognize_hbis(reflexive_clique(3)) is None
    # smallest genuine chain: two reflexive edges sharing a joint
    dec = recognize_hbis(graph(3, [(0, 0), (1, 1), (2, 2), (0, 1), (1, 2)]))
    assert dec is not None and dec.q == 1
    # cliques {3,0,4} {0,1} {1,2} {2,3,6} form a ring; {4,5} and {6,7}
    # hang off it, so the intersection graph has two ends but is no path
    ring = [(3, 0), (0, 4), (3, 4), (0, 1), (1, 2), (2, 3), (2, 6), (3, 6)]
    ring += [(4, 5), (6, 7)] + [(v, v) for v in range(8)]
    assert recognize_hbis(graph(8, ring)) is None


def test_recognize_triangle_extended():
    dec = recognize_triangle_extended(fig15())
    assert dec is not None
    assert dec.kind == "cycle"
    assert len(dec.core) == 5
    assert len(dec.apex_map) == 3
    dec = recognize_triangle_extended(reflexive_cycle(6))
    assert dec is not None and dec.kind == "cycle" and not dec.apex_map
    assert recognize_triangle_extended(reflexive_clique(4)) is None


def test_universal_vertices():
    assert universal_vertices(reflexive_clique(3)) == frozenset({0, 1, 2})
    h = graph(3, [(0, 0), (0, 1), (0, 2)])
    assert universal_vertices(h) == frozenset({0})


def test_degree2_bristle_condition():
    # looped b - unlooped g - looped c
    h = graph(3, [(0, 0), (2, 2), (0, 1), (1, 2)])
    assert is_degree2_bristle(h, 0, 1)
    assert not is_degree2_bristle(h, 1, 0)  # the center must be looped
    assert not is_degree2_bristle(h, 0, 2)  # g must be unlooped and adjacent
    assert not is_degree2_bristle(graph(2, [(0, 0), (0, 1)]), 0, 1)  # |N(g)| < 2
    # a looped neighbour of b sharing both of g's neighbours
    h2 = graph(4, [(0, 0), (2, 2), (3, 3), (0, 1), (1, 2), (0, 3), (2, 3)])
    assert not is_degree2_bristle(h2, 0, 1)
    with pytest.raises(ValueError):
        is_degree2_bristle(h, 0, 3)


# -- brute-force references on graphs of at most 8 vertices -----------------


def _ref_mixed_triangle(h):
    for tri in combinations(range(h.n), 3):
        if all(h.has_edge(u, v) for u, v in combinations(tri, 2)):
            k = sum(h.is_looped(v) for v in tri)
            if k in (1, 2):
                tag = "MixedTriangle21" if k == 2 else "MixedTriangle12"
                return StructuralWitness(tag, frozenset(tri))
    return None


def _ref_net(h):
    """The first reflexive triangle w, then pendants d_i in id order,
    whose six vertices induce exactly the net."""
    loops = sorted(h.loops())
    for w in combinations(loops, 3):
        if not all(h.has_edge(u, v) for u, v in combinations(w, 2)):
            continue
        near = [[x for x in loops if h.has_edge(wi, x)] for wi in w]
        for d in product(*near):
            vs = set(w) | set(d)
            if len(vs) != 6:
                continue
            want = {frozenset(e) for e in combinations(w, 2)}
            want |= {frozenset(e) for e in zip(w, d)}
            have = {frozenset(e) for e in h.edges if e[0] != e[1] and set(e) <= vs}
            if have == want:
                return StructuralWitness("InducedNet", frozenset(vs))
    return None


def _induces_cycle(h, vs):
    """True iff the vertex set induces one cycle, loops ignored."""
    deg = {v: len((h.neighbours(v) & vs) - {v}) for v in vs}
    if any(d != 2 for d in deg.values()):
        return False
    seen, todo = set(), [min(vs)]
    while todo:
        v = todo.pop()
        if v not in seen:
            seen.add(v)
            todo.extend(h.neighbours(v) & vs)
    return seen == vs


def _ref_has_reflexive_cycle(h):
    loops = sorted(h.loops())
    return any(
        _induces_cycle(h, set(vs))
        for r in range(5, len(loops) + 1)
        for vs in combinations(loops, r)
    )


def _ref_tec(h):
    """The first apex set, by size and then id order, and the smallest
    core sequence that make the reflexive graph h a triangle-extended
    cycle or path, by trying every ordering of the core."""
    plain = {frozenset(e) for e in h.edges if e[0] != e[1]}
    for r in range(h.n):
        for apexes in combinations(range(h.n), r):
            pairs = [h.neighbours(d) - {d} for d in apexes]
            if any(len(pair) != 2 for pair in pairs):
                continue  # an apex has exactly its two triangle edges
            apex_edges = {
                frozenset((d, x)) for d, pair in zip(apexes, pairs) for x in pair
            }
            core = [v for v in range(h.n) if v not in apexes]
            for kind, n_core in (("cycle", len(core)), ("path", len(core) - 1)):
                if len(plain) != n_core + 2 * r or (kind == "cycle" and n_core < 3):
                    continue
                for seq in permutations(core):
                    if not all(map(h.has_edge, seq, seq[1:])):
                        continue
                    core_edges = [
                        frozenset((seq[i], seq[(i + 1) % len(seq)]))
                        for i in range(n_core)
                    ]
                    slots = [core_edges.index(p) for p in pairs if p in core_edges]
                    if len(set(slots)) == r and set(core_edges) | apex_edges == plain:
                        return kind, seq, tuple(sorted(zip(slots, apexes)))
    return None


def _random_reflexive_connected(rng, n):
    edges = [(v, v) for v in range(n)] + [(rng.randrange(v), v) for v in range(1, n)]
    edges += [(u, v) for u, v in combinations(range(n), 2) if rng.random() < 0.15]
    return graph(n, edges)


def _relabelled(rng, h):
    perm = list(range(h.n))
    rng.shuffle(perm)
    return graph(h.n, [(perm[u], perm[v]) for u, v in h.edges])


def _toggled(rng, h):
    u, v = rng.randrange(h.n), rng.randrange(h.n)
    e = (min(u, v), max(u, v))
    return graph(h.n, h.edges ^ {e})


def test_witness_finders_match_brute_force():
    rng = random.Random(4)
    targets = []
    for _ in range(300):
        targets.append(random_graph(rng, rng.randint(1, 8), rng.random(), rng.random()))
    for _ in range(60):
        net = make_net()
        extra = rng.randint(0, 2)
        edges = set(net.edges) | {(v, v) for v in range(6, 6 + extra)}
        edges |= {
            (u, v)
            for u in range(6 + extra)
            for v in range(6, 6 + extra)
            if u < v and rng.random() < 0.4
        }
        h = _relabelled(rng, graph(6 + extra, edges))
        targets += [h, _toggled(rng, h)]
    for _ in range(60):
        h = _relabelled(rng, reflexive_cycle(rng.randint(5, 8)))
        targets += [h, _toggled(rng, h), _toggled(rng, _toggled(rng, h))]
    nets = cycles = 0
    for h in targets:
        assert find_mixed_triangle(h) == _ref_mixed_triangle(h)
        net = find_induced_net(h)
        assert net == _ref_net(h)
        nets += net is not None
        cycle = find_induced_reflexive_cycle(h)
        assert (cycle is not None) == _ref_has_reflexive_cycle(h)
        if cycle is not None:
            assert len(cycle.vertices) >= 5 and cycle.vertices <= h.loops()
            assert _induces_cycle(h, set(cycle.vertices))
            cycles += 1
    assert nets >= 40 and cycles >= 60


def test_triangle_extended_matches_brute_force():
    rng = random.Random(5)
    targets = []
    for _ in range(80):
        kind = rng.choice(["cycle", "path"])
        q = rng.randint(3, 6) if kind == "cycle" else rng.randint(2, 6)
        slots = q if kind == "cycle" else q - 1
        idx = sorted(rng.sample(range(slots), rng.randint(0, min(slots, 8 - q))))
        h = _relabelled(rng, make_triangle_extended(kind, q, idx))
        targets += [h, _toggled(rng, h)]
    targets += [_random_reflexive_connected(rng, rng.randint(1, 8)) for _ in range(80)]
    found = 0
    for h in targets:
        if h.n == 0 or h.loops() != frozenset(range(h.n)):
            continue
        try:
            dec = recognize_triangle_extended(h)
        except ValueError:  # disconnected after a toggle
            continue
        got = None if dec is None else (dec.kind, dec.core, dec.apex_map)
        assert got == _ref_tec(h)
        found += dec is not None
    assert found >= 80


def test_recognized_chains_validate():
    rng = random.Random(6)
    chains = 0
    for _ in range(600):
        h, meta = random_hbis(rng)
        if h.n > 8:
            continue
        dec = recognize_hbis(h)
        assert dec is not None and validate_hbis(h, dec)
        assert recognize_hbis(mutate_hbis(rng, h, meta)) is None
        chains += 1
        near = _toggled(rng, h)
        dec = recognize_hbis(near)
        assert dec is None or validate_hbis(near, dec)
    assert chains >= 50
    for _ in range(2000):
        loop_prob = rng.choice([rng.random(), 1.0])
        h = random_graph(rng, rng.randint(1, 8), loop_prob, rng.random())
        dec = recognize_hbis(h)
        assert dec is None or validate_hbis(h, dec)


# -- inputs past the recursion limit and large apex sets --------------------


def test_long_reflexive_cycle_needs_no_recursion():
    h = reflexive_cycle(1200)
    assert find_induced_reflexive_cycle(h).vertices == frozenset(range(1200))


def test_clique_chain_deeper_than_recursion_limit():
    n = sys.getrecursionlimit() + 50
    edges = [(u, v) for u in range(n) for v in range(u, n)] + [(n, n), (0, n)]
    h = graph(n + 1, edges)
    dec = recognize_hbis(h)
    assert dec.path_vertices == (1, 0, n)
    assert dec.cliques == (frozenset(range(n)), frozenset({0, n}))
    assert dec.bristles == (frozenset(),)


def test_triangle_extended_tries_few_apex_sets(monkeypatch):
    # 18 apex candidates; only sets leaving at most three of them in the
    # core are tried, not all 2^18
    h = make_triangle_extended("cycle", 20, list(range(18)))
    bound = sum(comb(18, k) for k in range(4))
    calls = []
    match_core = structure._match_core

    def counted(*args):
        calls.append(1)
        assert len(calls) <= bound, "tried more apex sets than the bound"
        return match_core(*args)

    monkeypatch.setattr(structure, "_match_core", counted)
    dec = recognize_triangle_extended(h)
    assert dec.core == tuple(range(20))
    assert dec.apex_map == tuple((i, 20 + i) for i in range(18))


def _ref_square(h):
    """All vertex pairs u < v in order; the first with two shared
    neighbours a < b gives the square u-a-v-b."""
    for u, v in combinations(range(h.n), 2):
        shared = sorted((h.neighbours(u) & h.neighbours(v)) - {u, v})
        if len(shared) >= 2:
            return StructuralWitness(SQUARE, frozenset({u, v, shared[0], shared[1]}))
    return None


def test_find_square_matches_all_pairs():
    rng = random.Random(6)
    squares = 0
    for _ in range(2000):
        h = random_graph(rng, rng.randint(0, 10), rng.random(), rng.choice([0.1, 0.2, 0.35, 0.6]))
        w = find_square(h)
        assert w == _ref_square(h)
        squares += w is not None
    assert 400 <= squares <= 1600
