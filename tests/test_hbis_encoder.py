import random
from itertools import product

import pytest

from retlab.graph_core import graph, is_isomorphic
from retlab.structure import recognize_hbis
from retlab.hbis_encoder import (
    MAX_CSP_VARIABLES,
    AssignmentKind,
    EncodingError,
    ImpCspInstance,
    build_hve,
    build_instances,
    bristle_assignment,
    classify_assignment,
    path_assignment,
    satisfying_assignments,
    serialize_csp,
    verify_hbis_encoding,
    vertex_order,
)

from conftest import fig3_right, fig4, fig5, random_hbis


def fig5_dec():
    return recognize_hbis(fig5())


def test_vertex_order_is_left_to_right():
    dec = fig5_dec()
    order = vertex_order(dec)
    assert order[0] == dec.path_vertices[0]
    assert order[-1] == dec.path_vertices[-1]
    assert len(order) == 7


def test_fig5_instances_match_frozen_constraints():
    dec = fig5_dec()
    iv, ie = build_instances(dec)
    # looped order p0=0, r1=1, p1=2, r2=3, p2=4, p3=5, p4=6
    assert iv.constraints == frozenset(
        {(6, 4), (6, 3), (6, 2), (6, 1), (5, 2), (5, 1), (4, 3), (2, 1)}
    )
    order = vertex_order(dec)
    rank = {v: i for i, v in enumerate(order)}
    universe = frozenset(
        (u, v)
        for u in order[1:]
        for v in order[1:]
        if rank[u] > rank[v]
    )
    assert universe - ie.constraints == frozenset({(2, 1), (4, 3)})


def test_fig5_assignment_census():
    dec = fig5_dec()
    iv, _ = build_instances(dec)
    sats = satisfying_assignments(iv)
    kinds = [classify_assignment(dec, s).kind for s in sats]
    assert len(sats) == 14
    assert kinds.count("path") == 7
    assert kinds.count("bristle") == 7
    assert kinds.count("other") == 0


def test_path_and_bristle_assignments_satisfy_iv():
    dec = fig5_dec()
    iv, _ = build_instances(dec)
    sats = satisfying_assignments(iv)
    for v in vertex_order(dec):
        assert path_assignment(dec, v) in sats
        assert classify_assignment(dec, path_assignment(dec, v)) == AssignmentKind("path", vertex=v)
    # the four bristles at the first joint
    found = [s for s in sats if classify_assignment(dec, s).kind == "bristle"]
    assert len(found) == 7


def test_build_hve_reconstructs_fig5():
    dec = fig5_dec()
    iv, ie = build_instances(dec)
    hve, assignments = build_hve(iv, ie)
    assert hve.n == 14
    assert is_isomorphic(hve, fig5()) is not None


def test_verify_pipeline_on_figures():
    for h in (fig3_right(), fig4(), fig5()):
        proof = verify_hbis_encoding(h)
        assert len(proof.bijection) == h.n


def test_verify_rejects_non_hbis():
    with pytest.raises(EncodingError):
        verify_hbis_encoding(graph(3, [(0, 1), (1, 2)]))


def test_random_round_trips(rng):
    for _ in range(10):
        h, _ = random_hbis(rng)
        proof = verify_hbis_encoding(h)
        assert proof.hve.n == h.n
        # path assignments are recognised exactly as a search over
        # path_assignment would find them
        dec = proof.decomposition
        order = vertex_order(dec)
        noise = [{u: rng.randint(0, 1) for u in order[1:]} for _ in range(20)]
        for sigma in list(proof.assignments) + noise:
            ref = [v for v in order if sigma == path_assignment(dec, v)]
            kind = classify_assignment(dec, sigma)
            if ref:
                assert kind == AssignmentKind("path", vertex=ref[0])
            else:
                assert kind.kind != "path"


def test_serialize_csp_is_deterministic():
    dec = fig5_dec()
    iv, _ = build_instances(dec)
    text = serialize_csp(iv)
    assert text == serialize_csp(iv)
    assert text.startswith("var x1\n")
    assert "imp x" in text


def test_bristle_assignment_shape():
    dec = fig5_dec()
    sigma = bristle_assignment(dec, 1, 1, 3)
    kind = classify_assignment(dec, sigma)
    assert kind.kind == "bristle" and kind.joint == 1


def _ref_assignments(inst):
    """Every 0/1 vector in lexicographic order, kept when it satisfies
    every implication."""
    pos = {x: i for i, x in enumerate(inst.variables)}
    return [
        dict(zip(inst.variables, values))
        for values in product((0, 1), repeat=len(inst.variables))
        if all(values[pos[u]] <= values[pos[v]] for u, v in inst.constraints)
    ]


def test_satisfying_assignments_match_brute_force():
    rng = random.Random(12)
    both_ways = 0
    for _ in range(500):
        k = rng.randint(0, 8)
        variables = tuple(rng.sample(range(20), k))
        constraints = frozenset(
            (rng.choice(variables), rng.choice(variables))
            for _ in range(rng.randint(0, 2 * k) if k else 0)
        )
        inst = ImpCspInstance(variables, constraints)
        assert satisfying_assignments(inst) == _ref_assignments(inst)
        rank = {x: i for i, x in enumerate(variables)}
        both_ways += len({rank[u] < rank[v] for u, v in constraints if u != v}) == 2
    assert both_ways >= 200


def test_assignment_limit():
    chain = tuple(range(MAX_CSP_VARIABLES))
    inst = ImpCspInstance(chain, frozenset(zip(chain[1:], chain)))
    assert len(satisfying_assignments(inst)) == MAX_CSP_VARIABLES + 1
    big = ImpCspInstance(tuple(range(MAX_CSP_VARIABLES + 1)), frozenset())
    with pytest.raises(ValueError, match="too many variables"):
        satisfying_assignments(big)
    with pytest.raises(ValueError, match="too many variables"):
        build_hve(big, big)
