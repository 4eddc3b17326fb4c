"""Graph families, counting-reduction gadgets, and their exact verification.

Everything here is desk-scale: each gadget identity is checked by exact
integer counting (the generic frontier-DP counter, which costs
O(n |H|^(f+1)) for frontier width f, or explicit enumeration serves as
the oracle; the closed-form side is the claim under test).  Dominance certificates use exact rational arithmetic.

Type conventions: a "type" of a homomorphism from the four-layer gadget
J(p, q, t) is the triple (image of A, matched image pairs of (B, B'),
image of A').  The matched-pair reading is deliberate: only matched
B-B' pairs are edges of J, so only those pairs carry information.

Maximal types and the two-dominant-state check are read off one list:
the closed sets of cn o cn, where cn is the common-neighbourhood
operator, listed by Ganter's NextClosure.  Per-type counts are products
of surjection counts, with no enumeration.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

from .graph_core import (
    Graph,
    graph,
    common_neighbours,
    induced_subgraph,
    neighbourhood,
)
from .counting import (
    count_list_homs,
    count_weighted_list_homs,
    cut_edges,
    iter_list_homs,
    separating_functions,
    stirling2,
)
from .structure import is_degree2_bristle, universal_vertices

# The most closed sets _closed_sets lists; 16 vertices never reach it.
MAX_CLOSED_SETS = 2**16
# find_dominance_params gives up after this many mediant probes.
MAX_MEDIANT_STEPS = 64


# ---------------------------------------------------------------------------
# graph families


def make_x_graph(k1, k2, k3):
    """Looped center 0 with k1 unlooped leaves, k2 looped leaves and k3
    looped triangle pairs.  Vertex numbering: center, unlooped leaves,
    looped leaves, then triangle pairs (x, y) in order."""
    if k1 < 0 or k2 < 0 or k3 < 0:
        raise ValueError("leaf counts must be non-negative")
    edges = [(0, 0)]
    nxt = 1
    for _ in range(k1):
        edges.append((0, nxt))
        nxt += 1
    for _ in range(k2):
        edges.extend([(0, nxt), (nxt, nxt)])
        nxt += 1
    for _ in range(k3):
        x, y = nxt, nxt + 1
        edges.extend([(0, x), (0, y), (x, y), (x, x), (y, y)])
        nxt += 2
    return graph(nxt, edges)


def make_wr(q):
    """Looped star: center 0 and q looped leaves."""
    if q < 1:
        raise ValueError("need at least one leaf")
    edges = [(0, 0)]
    for v in range(1, q + 1):
        edges.extend([(0, v), (v, v)])
    return graph(q + 1, edges)


def make_net():
    """Reflexive triangle 0, 1, 2 with looped pendants 3, 4, 5."""
    edges = [(v, v) for v in range(6)]
    edges += [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4), (2, 5)]
    return graph(6, edges)


def make_triangle_extended(kind, q, apex_indices):
    """Reflexive cycle (or path) 0..q-1 with, for each i in apex_indices,
    an extra looped apex adjacent to core vertices i and i+1 (mod q for
    cycles).  Apexes are numbered q, q+1, ... in index order."""
    apex_indices = sorted(set(apex_indices))
    if kind == "cycle":
        if q < 3:
            raise ValueError("cycle length must be at least 3")
        if apex_indices and not (0 <= apex_indices[0] and apex_indices[-1] < q):
            raise ValueError("apex index out of range")
        core_edges = [(i, (i + 1) % q) for i in range(q)]
    elif kind == "path":
        if q < 2:
            raise ValueError("path needs at least two vertices")
        if apex_indices and not (0 <= apex_indices[0] and apex_indices[-1] < q - 1):
            raise ValueError("apex index out of range")
        core_edges = [(i, i + 1) for i in range(q - 1)]
    else:
        raise ValueError("kind must be 'cycle' or 'path'")
    edges = [(v, v) for v in range(q)] + core_edges
    nxt = q
    for i in apex_indices:
        edges.extend([(nxt, nxt), (nxt, i), (nxt, (i + 1) % q)])
        nxt += 1
    return graph(nxt, edges)


# ---------------------------------------------------------------------------
# the four-layer gadget J(p, q, t) and homomorphism types


@dataclass(frozen=True)
class JGraph:
    p: int
    q: int
    t: int
    graph: Graph
    a: tuple
    b: tuple
    b2: tuple
    a2: tuple

    @property
    def matching(self):
        return tuple(zip(self.b, self.b2))


def make_j_graph(p, q, t):
    """Independent sets A, B, B', A' of sizes pt, qt, qt, pt with edges
    A x B, a perfect matching between B and B' (i-th to i-th), and
    B' x A'."""
    if p < 1 or q < 1 or t < 1:
        raise ValueError("parameters must be positive")
    a = tuple(range(p * t))
    b = tuple(range(p * t, p * t + q * t))
    b2 = tuple(range(p * t + q * t, p * t + 2 * q * t))
    a2 = tuple(range(p * t + 2 * q * t, 2 * p * t + 2 * q * t))
    edges = [(x, y) for x in a for y in b]
    edges += list(zip(b, b2))
    edges += [(x, y) for x in b2 for y in a2]
    return JGraph(p, q, t, graph(2 * p * t + 2 * q * t, edges), a, b, b2, a2)


@dataclass(frozen=True)
class HType:
    t1: frozenset
    t2: frozenset  # ordered pairs (x, y) with {x, y} an edge of H
    t3: frozenset

    @property
    def b_side(self):
        return frozenset(x for x, _ in self.t2)

    @property
    def b2_side(self):
        return frozenset(y for _, y in self.t2)

    def symmetric(self):
        return HType(self.t3, frozenset((y, x) for x, y in self.t2), self.t1)

    def sort_key(self):
        return (sorted(self.t1), sorted(self.t2), sorted(self.t3))


def htype_of(h, j, target):
    """The type of a homomorphism h (indexable by vertex of j.graph)."""
    for u, v in j.graph.edges:
        if not target.has_edge(h[u], h[v]):
            raise ValueError("map is not a homomorphism: edge (%d, %d)" % (u, v))
    return HType(
        frozenset(h[v] for v in j.a),
        frozenset((h[u], h[v]) for u, v in j.matching),
        frozenset(h[v] for v in j.a2),
    )


def is_nonempty_type(t, j, target):
    """The conditions for a type to be realized by some homomorphism from
    a gadget with enough vertices in each layer: all parts non-empty,
    every T2 pair an edge, T1 completely joined to the B-side, and the
    B'-side completely joined to T3."""
    del j  # the layer sizes enter only count_type's surjection counts
    if not (t.t1 and t.t2 and t.t3):
        return False
    if any(not target.has_edge(x, y) for x, y in t.t2):
        return False
    if any(not target.has_edge(x, y) for x in t.t1 for y in t.b_side):
        return False
    if any(not target.has_edge(x, y) for x in t.b2_side for y in t.t3):
        return False
    return True


def _cn_operator(h):
    """The common-neighbourhood operator on vertex bitmasks of h; the
    empty mask maps to every vertex."""
    masks = [0] * h.n
    for v in range(h.n):
        for u in h.neighbours(v):
            masks[v] |= 1 << u
    everything = (1 << h.n) - 1

    def cn(mask):
        out = everything
        m = mask
        while m:
            v = (m & -m).bit_length() - 1
            out &= masks[v]
            m &= m - 1
        return out

    return cn


def _closed_sets(h):
    """Non-empty vertex sets fixed by applying the common-neighbourhood
    operator cn twice (and whose common neighbourhood is non-empty), as
    bitmasks in lectic order, together with cn.

    Ganter's NextClosure: the set after a closed set A is the closure B
    of (A & {0..i-1}) | {i} for the largest i not in A for which
    B & {0..i-1} = A & {0..i-1}.  Each set costs at most n closures.
    Raises ValueError once more than MAX_CLOSED_SETS sets are listed.
    """
    cn = _cn_operator(h)
    closed = []
    mask = cn(cn(0))
    while True:
        if mask and cn(mask):
            if len(closed) == MAX_CLOSED_SETS:
                raise ValueError("more than %d closed sets" % MAX_CLOSED_SETS)
            closed.append(mask)
        for i in reversed(range(h.n)):
            bit = 1 << i
            if mask & bit:
                continue
            low = mask & (bit - 1)
            nxt = cn(cn(low | bit))
            if (nxt & (bit - 1)) == low:
                mask = nxt
                break
        else:
            return closed, cn


def _mask_to_set(mask):
    out = set()
    while mask:
        v = (mask & -mask).bit_length() - 1
        out.add(v)
        mask &= mask - 1
    return frozenset(out)


def enumerate_maximal_types(h):
    """All maximal types for homomorphisms from the four-layer gadget to
    h, deduplicated up to symmetry (swapping the two halves).

    The types are the pairs (B, B') of closed sets that cover each other
    through edges, each completed to (cn(B), E(B, B'), cn(B')).  Covering
    makes B the B-side of E(B, B'), so none contains another: from
    t >= u follow B_t >= B_u and cn(B_t) >= cn(B_u), and as cn reverses
    inclusion, cn(B_t) = cn(B_u), so the closed sets B_t and B_u are
    equal; likewise B'_t = B'_u, and then t = u.  The pair (B', B)
    gives the symmetric type, so each unordered pair is visited once and
    its type kept in the orientation with the smaller sort key.
    """
    closed, cn = _closed_sets(h)
    sides = [(_mask_to_set(m), _mask_to_set(cn(m))) for m in closed]
    out = []
    for i, (bset, t1) in enumerate(sides):
        for b2set, t3 in sides[i:]:
            t2 = frozenset(
                (x, y) for x in bset for y in b2set if h.has_edge(x, y)
            )
            t = HType(t1, t2, t3)
            if t.b_side == bset and t.b2_side == b2set:  # B, B' cover
                out.append(min(t, t.symmetric(), key=HType.sort_key))
    return sorted(out, key=HType.sort_key)


def nhat(t, p, q, tt):
    """The cardinality-power estimate |T1|^pt |T2|^qt |T3|^pt."""
    return (
        len(t.t1) ** (p * tt) * len(t.t2) ** (q * tt) * len(t.t3) ** (p * tt)
    )


def count_type(t, j, target):
    """Exact number of homomorphisms from j.graph to target of type t.

    A map of type t sends A onto T1, the matched pairs of (B, B') onto
    T2 and A' onto T3.  Every map with exactly these images is a
    homomorphism when t is realizable (is_nonempty_type) and none is
    otherwise, so the count is a product of three surjection counts.
    """
    if not is_nonempty_type(t, j, target):
        return 0
    return (
        stirling2(len(j.a), len(t.t1))
        * stirling2(len(j.b), len(t.t2))
        * stirling2(len(j.a2), len(t.t3))
    )


# ---------------------------------------------------------------------------
# dominance certificates


class EmptyIntervalError(RuntimeError):
    """No ratio q/p satisfies every row inequality strictly."""


@dataclass(frozen=True)
class DominanceCertificate:
    variant: str
    k1: int
    p: int
    q: int
    gamma: Fraction  # max over rows of the t=1 ratio; strictly below 1
    rows: tuple  # (|T1|*|T3|, |T2|) per table row, dominant first


def _dominance_rows(variant, k1):
    if k1 < 1:
        raise ValueError("k1 must be positive")
    if variant == "T5":
        h = make_x_graph(k1, 0, 1)
        dominant_sig = (3, 9 + k1)
    elif variant == "T9":
        h = make_x_graph(k1, 1, 1)
        dominant_sig = (3, 10 + k1)
    else:
        raise ValueError("variant must be 'T5' or 'T9'")
    rows = [
        (len(t.t1) * len(t.t3), len(t.t2)) for t in enumerate_maximal_types(h)
    ]
    if rows.count(dominant_sig) != 1:
        raise AssertionError("dominant row not identified uniquely")
    others = [r for r in rows if r != dominant_sig]
    return dominant_sig, others


def find_dominance_params(variant, k1):
    """Positive integers p, q making the designated table row dominate
    every other row of its maximal-type table, with the largest t=1
    ratio as an exact certificate.

    The ratio q/p is located by mediant (Stern-Brocot) search, so the
    returned pair minimizes p + q.  All comparisons are exact integer
    power comparisons; an unsatisfiable system raises EmptyIntervalError.
    Two rows with a a' = ad^2 and c c' = cd^2 pin q/p from both sides
    with the same bases, (a/ad)^p < (cd/c)^q and its reverse; their
    ratios multiply to 1 for every p, q, so they raise before the search.
    """
    dom, others = _dominance_rows(variant, k1)
    ad, cd = dom
    for i, (a, c) in enumerate(others):
        for a2, c2 in others[i + 1 :]:
            if a * a2 == ad * ad and c * c2 == cd * cd:
                raise EmptyIntervalError(
                    "rows (%d, %d) and (%d, %d) pin q/p from both sides"
                    % (a, c, a2, c2)
                )
    lo = (0, 1)  # q/p as (numerator, denominator)
    hi = (1, 0)
    for _ in range(MAX_MEDIANT_STEPS):
        num, den = lo[0] + hi[0], lo[1] + hi[1]
        p, q = den, num
        need_larger = need_smaller = False
        for a, c in others:
            if a**p * c**q < ad**p * cd**q:
                continue
            if c < cd:
                need_larger = True  # ratio too small for this row
            elif c > cd:
                need_smaller = True  # ratio too large for this row
            else:
                # |T2| ties the dominant row; no ratio can ever help.
                raise EmptyIntervalError(
                    "row (%d, %d) can never be dominated" % (a, c)
                )
        if need_larger and need_smaller:
            raise EmptyIntervalError(
                "conflicting bounds at q/p = %d/%d" % (q, p)
            )
        if need_larger:
            lo = (num, den)
        elif need_smaller:
            hi = (num, den)
        else:
            gamma = max(
                Fraction(a**p * c**q, ad**p * cd**q) for a, c in others
            )
            assert gamma < 1
            return DominanceCertificate(
                variant, k1, p, q, gamma, (dom,) + tuple(others)
            )
    raise EmptyIntervalError(
        "no admissible ratio within %d mediant steps" % MAX_MEDIANT_STEPS
    )


# ---------------------------------------------------------------------------
# neighbourhood-ball decomposition and pinned configurations


@dataclass(frozen=True)
class BallDecomposition:
    """The neighbourhood of a looped center: degree-2 looped neighbours,
    looped triangle pairs, and unlooped pendants (within the ball)."""

    h: Graph  # the ball itself (center universal)
    center: int
    degree2: tuple  # looped neighbours whose only ball-neighbours are
    # themselves and the center
    triangles: tuple  # pairs (x, y) of adjacent looped neighbours
    unlooped: tuple

    @property
    def k(self):
        return len(self.degree2)

    @property
    def q(self):
        return len(self.degree2) + len(self.triangles)

    @property
    def x_vertices(self):
        return self.degree2 + tuple(x for x, _ in self.triangles)

    def state(self, i):
        """The closed neighbourhood of the i-th direction vertex."""
        return frozenset(neighbourhood(self.h, self.x_vertices[i]))


def decompose_ball(h, b):
    """Decompose a graph in which b is a looped universal vertex into
    the center / degree-2 / triangle-pair / unlooped shape.  Raises
    ValueError when the graph is not of that shape."""
    if not h.is_looped(b):
        raise ValueError("center must be looped")
    if neighbourhood(h, b) != frozenset(range(h.n)):
        raise ValueError("center must be adjacent to every vertex")
    unlooped = []
    degree2 = []
    paired = {}
    for v in range(h.n):
        if v == b:
            continue
        nbrs = neighbourhood(h, v)
        if not h.is_looped(v):
            if nbrs != frozenset({b}):
                raise ValueError("unlooped vertex %d has extra neighbours" % v)
            unlooped.append(v)
        elif nbrs == frozenset({v, b}):
            degree2.append(v)
        elif len(nbrs) == 3:
            (w,) = nbrs - {v, b}
            if not h.is_looped(w) or neighbourhood(h, w) != frozenset({w, b, v}):
                raise ValueError("vertex %d is not in a pendant triangle" % v)
            paired[min(v, w)] = max(v, w)
        else:
            raise ValueError("looped vertex %d has degree > 3" % v)
    triangles = tuple(sorted(paired.items()))
    return BallDecomposition(
        h, b, tuple(sorted(degree2)), triangles, tuple(sorted(unlooped))
    )


def pinned_configurations(dec, z):
    """The number of tuples (z, z_1, ..., z_k) with each z_i adjacent to
    both z and the i-th degree-2 vertex, counted structurally."""
    if not 0 <= z < dec.h.n:
        raise ValueError("vertex out of range")
    f = 1
    for x in dec.degree2:
        f *= len(neighbourhood(dec.h, z) & neighbourhood(dec.h, x))
    return f


# ---------------------------------------------------------------------------
# gadget reports


@dataclass(frozen=True)
class GadgetReport:
    name: str
    params: tuple  # ordered (key, value) pairs
    lhs: int
    rhs: int
    passed: bool
    details: tuple = ()

    def format(self):
        return "%s %s lhs=%d rhs=%d" % (
            "PASS" if self.passed else "FAIL",
            self.name,
            self.lhs,
            self.rhs,
        )


def _report(name, params, lhs, rhs, extra_ok=True, details=()):
    return GadgetReport(
        name, tuple(params), lhs, rhs, lhs == rhs and extra_ok, tuple(details)
    )


# ---------------------------------------------------------------------------
# pinning gadgets


def _gadget_instance(g, lists, h, apexes=(), hub=None, s=0):
    """g extended by the pinned vertices of a reduction, with its lists.

    Each entry of apexes adds one vertex joined to all of g and pinned to
    that entry.  A hub adds one vertex pinned to it plus s helpers per
    vertex of g, each joined to its vertex and to the hub vertex.  New
    vertices are numbered apexes first, then the hub, then the helpers
    (vertex by vertex); non-singleton lists of g widen to all of V(h).
    """
    n = g.n
    edges = list(g.edges)
    everything = frozenset(range(h.n))
    lists2 = [lst if len(lst) == 1 else everything for lst in lists]
    for w, x in enumerate(apexes, start=n):
        edges += [(w, v) for v in range(n)]
        lists2.append(frozenset({x}))
    nxt = n + len(apexes)
    if hub is not None:
        pin = nxt
        lists2.append(frozenset({hub}))
        nxt += 1
        for v in range(n):
            for _ in range(s):
                edges.extend([(nxt, v), (nxt, pin)])
                nxt += 1
        lists2.extend([everything] * (nxt - pin - 1))
    return graph(nxt, edges), lists2


def _count_inside(g, lists, h, vertices):
    """List homomorphisms from g into the subgraph of h induced by
    vertices; the lists use the vertex ids of h."""
    sub, relabel = induced_subgraph(h, vertices)
    return count_list_homs(
        g, [frozenset(relabel[x] for x in s) for s in lists], sub
    )


def _check_pin_lists(lists, allowed):
    for v, s in enumerate(lists):
        if len(s) != 1 and s != allowed:
            raise ValueError(
                "list of vertex %d must be a singleton or the full ball" % v
            )
        if not s <= allowed:
            raise ValueError("list of vertex %d leaves the ball" % v)


def _verify_pins(name, params, h, pins, g, lists):
    """Apexes pinned to each of pins and joined to all of g restrict every
    image to the common neighbourhood of pins."""
    ball = common_neighbours(h, pins)
    _check_pin_lists(lists, ball)
    lhs = _count_inside(g, lists, h, ball)
    rhs = count_list_homs(*_gadget_instance(g, lists, h, apexes=pins), h)
    return _report(name, params, lhs, rhs)


def verify_pin_neighbourhood(h, u, g, lists):
    """One apex joined to all of g and pinned to u restricts every image
    to the neighbourhood of u; both counts must agree exactly.

    The lists use the vertex ids of h and must each be a singleton or
    all of the neighbourhood of u.
    """
    return _verify_pins(
        "pin-neighbourhood", [("u", u), ("n", g.n)], h, [u], g, lists
    )


def verify_two_pin(h, b1, b2, g, lists):
    """Two apexes pinned to b1 and b2 and joined to all of g restrict
    every image to the common neighbourhood of b1 and b2.

    The lists follow verify_pin_neighbourhood, with that common
    neighbourhood as the ball.
    """
    return _verify_pins(
        "two-pin", [("b1", b1), ("b2", b2), ("n", g.n)], h, [b1, b2], g, lists
    )


def verify_boost_decomposition(hp, b, r1, g, lists, s):
    """Per-vertex independent sets joined to a pin on r1 weight each
    image u by |common neighbours of u and r1|^s, which is 2^s exactly
    on {b, r1}.  Checks that the full homomorphisms (images of g inside
    {b, r1}) number exactly 2^{s n} times the two-vertex target count,
    and that full plus non-full equals the total.
    """
    pair = frozenset({b, r1})
    if neighbourhood(hp, r1) != pair or not hp.is_looped(b):
        raise ValueError("r1 must be looped with neighbourhood exactly {b, r1}")
    for u in range(hp.n):
        if u not in pair and len(neighbourhood(hp, u) & pair) > 1:
            raise ValueError(
                "vertex %d shares two neighbours with the pair" % u
            )
    for v, lst in enumerate(lists):
        if not (lst == pair or (len(lst) == 1 and lst <= pair)):
            raise ValueError("list of vertex %d must live on the pair" % v)
    n = g.n
    g2, lists2 = _gadget_instance(g, lists, hp, hub=r1, s=s)

    z_full = z_rest = 0
    for h in iter_list_homs(g2, lists2, hp):
        if all(h[v] in pair for v in range(n)):
            z_full += 1
        else:
            z_rest += 1
    rhs = 2 ** (s * n) * _count_inside(g, lists, hp, pair)
    total = count_list_homs(g2, lists2, hp)
    return _report(
        "boost",
        [("b", b), ("r1", r1), ("n", n), ("s", s)],
        z_full,
        rhs,
        extra_ok=(total == z_full + z_rest),
        details=("z0=%d" % z_rest, "total=%d" % total),
    )


def verify_degree2_bristle(h, b, g_vertex, g, lists):
    """Replacing an unlooped neighbour g_vertex of b (inside the ball of
    b) by |Gamma(g_vertex)|^s pendants is compensated, on the instance
    side, by pins to b and g_vertex plus per-vertex independent sets of
    size s.  Both counts must agree exactly; a weighted recount
    cross-checks the blow-up.
    """
    if not is_degree2_bristle(h, b, g_vertex):
        raise ValueError("vertex %d is not a degree-2 bristle on %d" % (g_vertex, b))
    gamma_g = neighbourhood(h, g_vertex)
    ball = neighbourhood(h, b)
    # smallest exponent e with |Gamma(g)|^e >= |Gamma(b)|, doubled
    e = 0
    while len(gamma_g) ** e < len(ball):
        e += 1
    s = 2 * e

    kept, relabel = induced_subgraph(h, ball - {g_vertex})
    blow = len(gamma_g) ** s
    hp_edges = list(kept.edges)
    hp_edges += [(relabel[b], kept.n + i) for i in range(blow)]
    hp = graph(kept.n + blow, hp_edges)

    core = frozenset(relabel)
    for v, lst in enumerate(lists):
        if not (lst == core or (len(lst) == 1 and lst <= core)):
            raise ValueError("list of vertex %d must live on the kept ball" % v)
    everything_hp = frozenset(range(hp.n))
    lists_hp = [
        frozenset(relabel[x] for x in lst) if len(lst) == 1 else everything_hp
        for lst in lists
    ]
    rhs = count_list_homs(g, lists_hp, hp)

    lhs = count_list_homs(
        *_gadget_instance(g, lists, h, apexes=[b], hub=g_vertex, s=s), h
    )

    # Weighted cross-check over the un-blown ball.
    sub, sub_relabel = induced_subgraph(h, ball)
    weights = [1] * sub.n
    weights[sub_relabel[g_vertex]] = blow
    lists_sub = [
        frozenset(sub_relabel[x] for x in lst)
        if len(lst) == 1
        else frozenset(range(sub.n))
        for lst in lists
    ]
    weighted = count_weighted_list_homs(g, lists_sub, sub, weights)
    return _report(
        "degree2-bristle",
        [("b", b), ("g", g_vertex), ("n", g.n), ("s", s)],
        lhs,
        rhs,
        extra_ok=(weighted == rhs),
        details=("weighted=%d" % weighted,),
    )


# ---------------------------------------------------------------------------
# the clique-with-pendant-chains reduction (looped star with 3+ directions)


@dataclass(frozen=True)
class Wr3Instance:
    graph: Graph
    lists: tuple
    pins: tuple  # pin vertex per direction
    cliques: dict = field(compare=False)  # G-vertex -> clique vertex ids
    chains: dict = field(compare=False)  # clique vertex -> chain ids per i
    edge_cliques: dict = field(compare=False)  # G-edge -> clique vertex ids


def build_wr3_instance(g, terminals, dec, s, t):
    """The multiterminal-cut encoding: a size-s clique per vertex of g
    (each clique vertex carrying one pendant chain per degree-2
    direction), a size-t clique per edge fully joined to both endpoint
    cliques, and per-direction pins wired to the terminal cliques."""
    terminals = list(terminals)
    if len(terminals) != dec.q:
        raise ValueError("need exactly one terminal per direction")
    k = dec.k
    xs = dec.x_vertices
    edges = []
    pins = tuple(range(dec.q))
    nxt = dec.q

    def clique_with_chains(size):
        nonlocal nxt
        members = list(range(nxt, nxt + size))
        nxt += size
        edges.extend(
            (u, v) for i, u in enumerate(members) for v in members[i + 1 :]
        )
        chain = {}
        for w in members:
            ids = list(range(nxt, nxt + k))
            nxt += k
            chain[w] = ids
            for i, c in enumerate(ids):
                edges.extend([(w, c), (c, pins[i])])
        return members, chain

    cliques = {}
    chains = {}
    for v in range(g.n):
        members, chain = clique_with_chains(s)
        cliques[v] = members
        chains.update(chain)
    edge_cliques = {}
    for e in sorted(g.edges):
        members, chain = clique_with_chains(t)
        edge_cliques[e] = members
        chains.update(chain)
        u, v = e
        edges.extend(
            (w, c) for w in cliques[u] + cliques[v] for c in members
        )
    for i, tau in enumerate(terminals):
        edges.extend((w, pins[i]) for w in cliques[tau])
    j = graph(nxt, edges)
    everything = frozenset(range(dec.h.n))
    lists = [everything] * nxt
    for i in range(dec.q):
        lists[pins[i]] = frozenset({xs[i]})
    return Wr3Instance(j, tuple(lists), pins, cliques, chains, edge_cliques)


def _wr3_full_count(inst, g, phi, dec):
    """Number of homomorphisms that are full and whose per-vertex states
    follow phi, by restricted enumeration.  Restricting each clique to
    its target state loses no such homomorphism."""
    k = dec.k
    xs = dec.x_vertices
    states = {v: dec.state(phi[v] - 1) for v in range(g.n)}
    lists = list(inst.lists)
    for v in range(g.n):
        for w in inst.cliques[v]:
            lists[w] = states[v]
    for e, members in inst.edge_cliques.items():
        shared = states[e[0]] & states[e[1]]
        for w in members:
            lists[w] = shared
    configs = {
        z: set(
            product(
                *[
                    sorted(
                        neighbourhood(dec.h, z) & neighbourhood(dec.h, xs[i])
                    )
                    for i in range(k)
                ]
            )
        )
        for z in range(dec.h.n)
    }
    count = 0
    for h in iter_list_homs(inst.graph, lists, dec.h):
        ok = True
        for v in range(g.n):
            seen = set()
            for w in inst.cliques[v]:
                seen.add((h[w],) + tuple(h[c] for c in inst.chains[w]))
            want = {
                (z,) + cfg for z in states[v] for cfg in configs[z]
            }
            if seen != want:
                ok = False
                break
        if ok:
            count += 1
    return count


def verify_wr3_zphi(hb, b, g, terminals, s, t):
    """For every separating function phi, the number of full
    homomorphisms agreeing with phi must equal the closed form
    surj(s, 2^k+2)^n * (2^k)^(t |Cut|) * (2^k+2)^(t (m - |Cut|))."""
    dec = decompose_ball(hb, b)
    inst = build_wr3_instance(g, terminals, dec, s, t)
    k = dec.k
    n, m = g.n, len(g.edges)
    surj = stirling2(s, 2**k + 2)
    lhs_total = rhs_total = 0
    all_match = True
    details = []
    for phi in separating_functions(g, terminals):
        cut = len(cut_edges(g, phi))
        formula = surj**n * (2**k) ** (t * cut) * (2**k + 2) ** (t * (m - cut))
        observed = _wr3_full_count(inst, g, phi, dec)
        lhs_total += observed
        rhs_total += formula
        if observed != formula:
            all_match = False
        details.append("phi=%s cut=%d z=%d" % ("".join(map(str, phi)), cut, observed))
    return _report(
        "wr3-zphi",
        [("k", k), ("q", dec.q), ("s", s), ("t", t), ("n", n), ("m", m)],
        lhs_total,
        rhs_total,
        extra_ok=all_match,
        details=details,
    )


# ---------------------------------------------------------------------------
# the net reduction


def build_net_instance(g, terminals, h, w_labels, sizes):
    """Per-vertex stars to the three terminals plus, per edge of g,
    three independent sets (of the given sizes) joined to the endpoints
    and to one terminal each."""
    terminals = list(terminals)
    if len(terminals) != 3 or len(w_labels) != 3 or len(sizes) != 3:
        raise ValueError("the construction uses exactly three terminals")
    edges = []
    for v in range(g.n):
        edges.extend((v, tau) for tau in terminals if tau != v)
    nxt = g.n
    blocks = {}
    for e in sorted(g.edges):
        u, v = e
        per_edge = []
        for i in range(3):
            ids = list(range(nxt, nxt + sizes[i]))
            nxt += sizes[i]
            per_edge.append(ids)
            for c in ids:
                edges.extend([(c, u), (c, v), (c, terminals[i])])
        blocks[e] = per_edge
    j = graph(nxt, edges)
    everything = frozenset(range(h.n))
    lists = [everything] * nxt
    for i, tau in enumerate(terminals):
        lists[tau] = frozenset({w_labels[i]})
    return j, tuple(lists), blocks


def verify_net_zphi(h, w_labels, g, terminals, sizes):
    """Per separating function phi, the count with every g-vertex pinned
    to its colour must equal 3^{tm} * prod_i (|Gamma(w_i)|/3)^{t_i |Mon_i|},
    and the unpinned total must equal the sum over phi."""
    j, lists, _ = build_net_instance(g, terminals, h, w_labels, sizes)
    t = sum(sizes)
    m = len(g.edges)
    degrees = [len(neighbourhood(h, w)) for w in w_labels]
    lhs_total = rhs_total = 0
    all_match = True
    details = []
    for phi in separating_functions(g, terminals):
        mono = [0, 0, 0]
        for u, v in g.edges:
            if phi[u] == phi[v]:
                mono[phi[u] - 1] += 1
        formula = Fraction(3) ** (t * m)
        for i in range(3):
            formula *= Fraction(degrees[i], 3) ** (sizes[i] * mono[i])
        if formula.denominator != 1:
            raise AssertionError("per-phi formula is not integral")
        formula = formula.numerator
        pinned = list(lists)
        for v in range(g.n):
            pinned[v] = frozenset({w_labels[phi[v] - 1]})
        observed = count_list_homs(j, pinned, h)
        lhs_total += observed
        rhs_total += formula
        if observed != formula:
            all_match = False
        details.append("phi=%s z=%d" % ("".join(map(str, phi)), observed))
    grand = count_list_homs(j, list(lists), h)
    return _report(
        "net-zphi",
        [("t", tuple(sizes)), ("n", g.n), ("m", m)],
        lhs_total,
        rhs_total,
        extra_ok=all_match and grand == lhs_total,
        details=details + ["total=%d" % grand],
    )


# ---------------------------------------------------------------------------
# the two-list simulation gadget on triangle-extended cycles


@dataclass(frozen=True)
class CycleGadget:
    graph: Graph
    lists: tuple
    anchors: tuple  # the two vertices standing in for the replaced one
    ell: int


def build_cycle_gadget(h, core, ell):
    """The doubled-path gadget whose anchor pair can only map (jointly)
    to c_0 or c_ell of the given reflexive cycle.

    core lists the cycle vertices of h in cyclic order; both arc
    parities are built as mirror images of the construction for one
    parity.  Pins use singleton lists at the arc midpoints.
    """
    q = len(core)
    if not 1 <= ell <= q - 1:
        raise ValueError("ell must be between 1 and q - 1")
    edges = []
    pinned = {}
    nxt = 0

    def fresh():
        nonlocal nxt
        nxt += 1
        return nxt - 1

    def arc(length, midpoints):
        """Pairs 0..half-1 of a doubled path ending in the pinned
        midpoint vertices; returns the anchor pair (index 0)."""
        if length % 2 == 0:
            half = length // 2
            pairs = [(fresh(), fresh()) for _ in range(half)]
            ends = [fresh()]
        else:
            half = length // 2 + 1
            pairs = [(fresh(), fresh()) for _ in range(half)]
            ends = [fresh(), fresh()]
        for a, b in pairs:
            edges.append((a, b))
        for (a, b), (c, d) in zip(pairs, pairs[1:]):
            edges.extend([(a, c), (a, d), (b, c), (b, d)])
        last = pairs[-1]
        for i, e in enumerate(ends):
            pinned[e] = midpoints[i]
            edges.extend([(last[0], e), (last[1], e)])
        return pairs[0]

    if ell % 2 == 0:
        first = arc(ell, [core[ell // 2]])
    else:
        first = arc(ell, [core[(ell + 1) // 2], core[ell // 2]])
    back = q - ell
    if back % 2 == 0:
        mid = [core[((q + ell) // 2) % q]]
    else:
        mid = [core[((q + ell + 1) // 2) % q], core[((q + ell) // 2) % q]]
    second = arc(back, mid)
    # glue: identify the two anchor pairs
    merge = {second[0]: first[0], second[1]: first[1]}
    final_edges = set()
    for a, b in edges:
        final_edges.add((merge.get(a, a), merge.get(b, b)))
    keep = sorted(set(range(nxt)) - set(merge))
    relabel = {v: i for i, v in enumerate(keep)}
    j = graph(
        len(keep), [(relabel[a], relabel[b]) for a, b in final_edges]
    )
    everything = frozenset(range(h.n))
    lists = [everything] * j.n
    for v, target in pinned.items():
        lists[relabel[v]] = frozenset({target})
    anchors = (relabel[first[0]], relabel[first[1]])
    return CycleGadget(j, tuple(lists), anchors, ell)


def verify_cycle_gadget(h, core, ell):
    """Checks the two structural claims by full enumeration: the gadget
    has exactly two list homomorphisms, one sending the anchor pair
    (constantly) to c_0 and one to c_ell; and substituting the gadget
    for a {c_0, c_ell}-listed vertex preserves counts on a small probe
    instance."""
    gadget = build_cycle_gadget(h, core, ell)
    c0, cl = core[0], core[ell]
    homs = list(iter_list_homs(gadget.graph, list(gadget.lists), h))
    a0, a1 = gadget.anchors
    images = sorted(h[a0] for h in homs)
    shape_ok = (
        len(homs) == 2
        and all(hh[a0] == hh[a1] for hh in homs)
        and images == sorted({c0, cl})
    )

    # substitution probe: one constrained vertex adjacent to a pinned one
    probe = graph(2, [(0, 1)])
    probe_lists = [frozenset({c0, cl}), frozenset({c0})]
    direct = count_list_homs(probe, probe_lists, h)
    n0 = gadget.graph.n
    edges = list(gadget.graph.edges)
    pin = n0
    edges.extend([(a0, pin), (a1, pin)])
    combined = graph(n0 + 1, edges)
    combined_lists = list(gadget.lists) + [frozenset({c0})]
    substituted = count_list_homs(combined, combined_lists, h)
    return _report(
        "cycle-gadget",
        [("q", len(core)), ("ell", ell)],
        len(homs),
        2,
        extra_ok=shape_ok and direct == substituted,
        details=(
            "anchor images=%s" % images,
            "probe direct=%d substituted=%d" % (direct, substituted),
        ),
    )


# ---------------------------------------------------------------------------
# the two-dominant-state criterion


def check_kelk_condition(h):
    """Test of the two-dominant-state criterion over closed pairs.

    Returns (True, None) when every mutually-covering pair (S, T) has
    S = F or T = F for the universal set F, or satisfies |S||T| < |F||V|;
    otherwise (False, (S, T)) with a counterexample.  Requires a proper
    non-empty universal set.

    Only the closed pairs (S, cn(S)) are tested, in increasing order of
    the bitmask of S, the order of a scan over all pairs.  That loses
    nothing: a counterexample (S, T) grows to the closed pair
    (cn(cn(S)), cn(S)), whose product is no smaller, and neither side is
    F, since a side equal to F would strictly contain S or T and so
    force the other side past |V| vertices.
    """
    f = universal_vertices(h)
    if not f or len(f) == h.n:
        raise ValueError("universal set must be proper and non-empty")
    closed, cn = _closed_sets(h)
    bound = len(f) * h.n
    for smask in sorted(closed):
        s, t = _mask_to_set(smask), _mask_to_set(cn(smask))
        if f not in (s, t) and len(s) * len(t) >= bound:
            return False, (s, t)
    return True, None
