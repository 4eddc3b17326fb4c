import pytest

from retlab.graph_core import disjoint_union, graph, induced_subgraph
from retlab.classifier import classify, classify_component
from retlab.hbis_encoder import verify_hbis_encoding
from retlab.structure import (
    find_induced_net,
    find_induced_reflexive_cycle,
    find_induced_wr3,
    find_mixed_triangle,
)
from retlab.gadget_lab import make_net, make_triangle_extended, make_wr, make_x_graph

from conftest import (
    complete_bipartite,
    fig3_left,
    fig3_right,
    fig4,
    fig15,
    irreflexive_path,
    reflexive_clique,
    reflexive_cycle,
    reflexive_p3_with_bristles,
    star,
)


def test_component_tags():
    assert classify_component(reflexive_clique(3), True)[0] == "Trivial"
    assert classify_component(fig3_right(), True)[0] == "Hbis"
    assert classify_component(irreflexive_path(5), True)[0] == "IrreflexiveCaterpillar"
    tag, witness = classify_component(fig3_left(), True)
    assert tag == "Hard" and witness is not None


def test_component_requires_connected():
    with pytest.raises(ValueError):
        classify_component(disjoint_union(reflexive_clique(2), star(2)), True)


def test_verdicts_fp():
    for h in (reflexive_clique(1), reflexive_clique(2), reflexive_clique(3),
              star(3), complete_bipartite(2, 3),
              disjoint_union(reflexive_clique(3), graph(2, [(0, 1)]))):
        assert classify(h).cls == "FP"
    # not square-free but all components trivial
    assert classify(reflexive_clique(4)).cls == "FP"


def test_verdicts_bis():
    for h in (irreflexive_path(4), irreflexive_path(5), fig3_right(),
              reflexive_p3_with_bristles(1)):
        assert classify(h).cls == "BIS"
    # fig4 has squares; the easy non-square-free case still applies
    assert classify(fig4()).cls == "BIS"
    # ... and to any number of clique-chain components
    v = classify(disjoint_union(fig4(), fig3_right()))
    assert v.cls == "BIS" and [tag for _, tag, _ in v.reasons] == ["Hbis", "Hbis"]


def test_verdicts_sat():
    for h in (fig3_left(), make_net(), reflexive_cycle(5), make_wr(3),
              fig15(), make_x_graph(1, 0, 1), make_x_graph(5, 0, 2),
              reflexive_p3_with_bristles(2)):
        v = classify(h)
        assert v.cls == "SAT", h


def test_square_free_never_unknown():
    from retlab.structure import is_square_free
    import random

    from conftest import random_graph

    rng = random.Random(7)
    for _ in range(50):
        h = random_graph(rng, rng.randint(1, 6))
        v = classify(h)
        if is_square_free(h):
            assert v.cls != "UNKNOWN"


def test_unknown_only_for_non_square_free():
    # reflexive C4 is neither trivial nor a clique chain and has a square
    c4 = reflexive_cycle(4)
    assert classify(c4).cls == "UNKNOWN"


def test_bis_hbis_components_encode():
    v = classify(fig4())
    assert v.cls == "BIS"
    for comp, tag, _ in v.reasons:
        if tag == "Hbis":
            sub, _ = induced_subgraph(fig4(), comp)
            verify_hbis_encoding(sub)  # raises on failure


def test_witnesses_revalidate():
    """Each witness names vertices of h whose induced subgraph the
    finder of its tag recognises as a whole."""
    finders = {
        "MixedTriangle21": find_mixed_triangle,
        "MixedTriangle12": find_mixed_triangle,
        "InducedWR3": find_induced_wr3,
        "InducedNet": find_induced_net,
        "ReflexiveCycleGe5": find_induced_reflexive_cycle,
    }
    targets = (
        make_net(), make_wr(3), reflexive_cycle(5), fig15(),
        graph(3, [(0, 0), (1, 1), (0, 1), (1, 2), (0, 2)]),
        disjoint_union(reflexive_clique(2), make_net()),
        disjoint_union(star(2), make_wr(3), reflexive_cycle(6)),
    )
    seen = 0
    for h in targets:
        for comp, _, witness in classify(h).reasons:
            if witness is None:
                continue
            assert witness.vertices <= comp
            sub, _ = induced_subgraph(h, witness.vertices)
            found = finders[witness.tag](sub)
            assert found.tag == witness.tag
            assert found.vertices == frozenset(range(sub.n))
            seen += 1
    assert seen == 8


# (target, tag, (witness tag, witness vertices)): one or more targets
# per rung of the witness ladder, so that no rung can move unnoticed.
WITNESS_TABLE = [
    (make_x_graph(1, 0, 1), "Hard", ("HardNeighbourhood", {0, 1, 2, 3})),
    (make_x_graph(1, 1, 0), "Hard", ("HardNeighbourhood", {0, 1, 2})),
    (make_x_graph(2, 2, 0), "Hard", ("HardNeighbourhood", {0, 1, 2, 3, 4})),
    (make_x_graph(3, 1, 1), "Hard", ("HardNeighbourhood", set(range(7)))),
    (make_x_graph(5, 0, 2), "Hard", ("HardNeighbourhood", set(range(10)))),
    (fig3_left(), "Hard", ("HardNeighbourhood", {0, 1, 2, 3, 4})),
    (reflexive_p3_with_bristles(3), "Hard", ("HardNeighbourhood", set(range(6)))),
    # the ball of 0 is a reflexive P3 (a chain); the ball of 1 is hard
    (graph(6, [(0, 0), (1, 1), (2, 2), (5, 5), (0, 1), (1, 2), (1, 3), (1, 4), (0, 5)]),
     "Hard", ("HardNeighbourhood", {0, 1, 2, 3, 4})),
    (graph(3, [(0, 0), (2, 2), (0, 1), (1, 2)]), "Hard", ("Degree2Bristle", {0, 1})),
    (graph(3, [(0, 0), (1, 1), (0, 1), (1, 2), (0, 2)]), "Hard", ("MixedTriangle21", {0, 1, 2})),
    (graph(3, [(0, 0), (0, 1), (1, 2), (0, 2)]), "Hard", ("MixedTriangle12", {0, 1, 2})),
    (make_net(), "Hard", ("InducedNet", set(range(6)))),
    (make_wr(3), "Hard", ("InducedWR3", {0, 1, 2, 3})),
    (make_wr(4), "Hard", ("InducedWR3", {0, 1, 2, 3})),
    (reflexive_cycle(5), "Hard", ("ReflexiveCycleGe5", set(range(5)))),
    (reflexive_cycle(6), "Hard", ("ReflexiveCycleGe5", set(range(6)))),
    (fig15(), "Hard", ("ReflexiveCycleGe5", set(range(5)))),
    (fig3_right(), "Hbis", None),
    (make_triangle_extended("path", 4, [0, 2]), "Hbis", None),
]


@pytest.mark.parametrize("h, tag, witness", WITNESS_TABLE)
def test_witness_ladder_table(h, tag, witness):
    ((_, got_tag, got),) = classify(h).reasons
    assert got_tag == tag
    if witness is None:
        assert got is None
    else:
        assert (got.tag, got.vertices) == (witness[0], frozenset(witness[1]))


def test_witnesses_use_global_ids():
    # the net is the second component, on vertices 2..7
    v = classify(disjoint_union(reflexive_clique(2), make_net()))
    (_, tag0, w0), (comp, tag1, w1) = v.reasons
    assert (tag0, w0) == ("Trivial", None)
    assert comp == frozenset(range(2, 8)) and tag1 == "Hard"
    assert (w1.tag, w1.vertices) == ("InducedNet", frozenset(range(2, 8)))


def test_bristle_monotonicity():
    assert classify(reflexive_p3_with_bristles(0)).cls == "BIS"
    assert classify(reflexive_p3_with_bristles(1)).cls == "BIS"
    assert classify(reflexive_p3_with_bristles(2)).cls == "SAT"
    assert classify(reflexive_p3_with_bristles(3)).cls == "SAT"
