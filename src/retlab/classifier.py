"""The approximation-complexity trichotomy for retraction counting.

Square-free targets are classified FP / BIS / SAT: FP when every
component is trivial (a reflexive clique or an irreflexive complete
bipartite graph), BIS when every component is trivial, a clique chain
with bristles, or an irreflexive caterpillar (and some component is
non-trivial), SAT otherwise.  Non-square-free targets are classified
only when the easy case applies: FP when every component is trivial,
BIS when every component is trivial or a clique chain with bristles
(any number of them), and UNKNOWN otherwise.

For hard square-free components a best-effort structural witness is
attached, searched in a fixed ladder: mixed triangle, looped star with
three independent looped leaves, net, long reflexive cycle, a degree-2
bristle configuration, and finally a hard neighbourhood-ball shape.
The witness is explanatory only, may be absent, and names vertices of
the whole target.
"""

from dataclasses import dataclass

from .graph_core import induced_subgraph, connected_components, neighbourhood
from .structure import (
    StructuralWitness,
    classify_component_shape,
    find_induced_net,
    find_induced_reflexive_cycle,
    find_induced_wr3,
    find_mixed_triangle,
    is_degree2_bristle,
    is_square_free,
    recognize_hbis,
)

TRIVIAL = "Trivial"
HBIS = "Hbis"
CATERPILLAR = "IrreflexiveCaterpillar"
HARD = "Hard"

DEGREE2_BRISTLE = "Degree2Bristle"
HARD_NEIGHBOURHOOD = "HardNeighbourhood"


@dataclass(frozen=True)
class ClassVerdict:
    cls: str  # FP, BIS, SAT or UNKNOWN
    reasons: tuple  # (component vertex set, tag, witness or None) triples


def _find_degree2_bristle(hc):
    """The first looped vertex b and neighbour g, in id order, that form a
    degree-2 bristle."""
    for b in sorted(hc.loops()):
        for g in sorted(neighbourhood(hc, b)):
            if is_degree2_bristle(hc, b, g):
                return StructuralWitness(DEGREE2_BRISTLE, frozenset({b, g}))
    return None


def _find_hard_neighbourhood(hc):
    """A looped vertex whose neighbourhood ball is itself a hard
    component (not trivial, not a clique chain, not a caterpillar)."""
    for b in sorted(hc.loops()):
        ball = neighbourhood(hc, b)
        sub, _ = induced_subgraph(hc, ball)
        # Connected: b is adjacent to the whole ball.  False keeps the
        # witness ladder from recursing into the ball.
        if classify_component(sub, False)[0] == HARD:
            return StructuralWitness(HARD_NEIGHBOURHOOD, ball)
    return None


def _hardness_witness(hc):
    for finder in (
        find_mixed_triangle,
        find_induced_wr3,
        find_induced_net,
        find_induced_reflexive_cycle,
        _find_degree2_bristle,
        _find_hard_neighbourhood,
    ):
        witness = finder(hc)
        if witness is not None:
            return witness
    return None


def classify_component(hc, square_free):
    """(tag, witness) for one connected component.

    The witness is only searched for hard square-free components and may
    still be None when no ladder rung applies.
    """
    if hc.n == 0 or len(connected_components(hc)) != 1:
        raise ValueError("classify_component needs a connected graph")
    shape = classify_component_shape(hc)
    if shape.trivial:
        return TRIVIAL, None
    if recognize_hbis(hc) is not None:
        return HBIS, None
    if shape.irreflexive_caterpillar:
        return CATERPILLAR, None
    return HARD, _hardness_witness(hc) if square_free else None


def classify(h):
    """The full verdict for a (possibly disconnected) target graph."""
    square_free = is_square_free(h)
    reasons = []
    tags = []
    for comp in connected_components(h):
        sub, _ = induced_subgraph(h, comp)
        tag, witness = classify_component(sub, square_free)
        if witness is not None:
            ids = sorted(comp)  # the relabelling induced_subgraph applied
            witness = StructuralWitness(
                witness.tag, frozenset(ids[v] for v in witness.vertices)
            )
        reasons.append((comp, tag, witness))
        tags.append(tag)
    easy = {TRIVIAL, HBIS, CATERPILLAR}
    if all(t == TRIVIAL for t in tags):
        cls = "FP"
    elif square_free:
        cls = "BIS" if all(t in easy for t in tags) else "SAT"
    elif all(t in (TRIVIAL, HBIS) for t in tags):
        cls = "BIS"
    else:
        cls = "UNKNOWN"
    return ClassVerdict(cls, tuple(reasons))
