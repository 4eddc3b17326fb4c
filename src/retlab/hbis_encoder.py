"""Encoding of a clique-chain-with-bristles graph as a Boolean CSP over
implication constraints, and the machine-checked reconstruction.

Variables are one per looped vertex except the first path endpoint; a
constraint (u, v) means "x_u implies x_v".  Two instances are built: a
vertex instance (its satisfying assignments are the vertices of the
reconstruction graph) and an edge instance (its constraints drive the
adjacency rule).  The reconstruction must be isomorphic to the input,
via the explicit path/bristle-assignment bijection.  Assignments and the
isomorphism re-check both come from `graph_core.search`, without recursion.

CSP serialization: lines `var <name>` then `imp <x> <y>`.
"""

from dataclasses import dataclass

from .graph_core import Graph, is_isomorphic, search
from .structure import recognize_hbis

MAX_CSP_VARIABLES = 30


@dataclass(frozen=True)
class ImpCspInstance:
    variables: tuple  # vertex ids, in encoding order
    constraints: frozenset  # pairs (u, v) meaning x_u -> x_v


@dataclass(frozen=True)
class AssignmentKind:
    kind: str  # "path", "bristle" or "other"
    vertex: int = None  # for "path"
    joint: int = None  # i, for "bristle"
    lo: int = None  # a, for "bristle"
    hi: int = None  # b, for "bristle"


def vertex_order(dec):
    """Total order on the looped vertices: cliques left to right, each
    clique's joint first and next joint last, interior vertices by raw id."""
    p = dec.path_vertices
    order = [p[0]]
    for i, k in enumerate(dec.cliques):
        interior = sorted(k - {p[i], p[i + 1]})
        order.extend(interior)
        order.append(p[i + 1])
    return order


def build_instances(dec):
    """The vertex and edge CSP instances for a decomposition.

    Constraints live on all ordered pairs U = {(u, v) : u > v}; per-joint
    deletions carve out the clique overlaps (edge instance) and the
    bristle budget (vertex instance, smallest pairs first under the
    (u ascending, v descending) order).
    """
    order = vertex_order(dec)
    rank = {v: i for i, v in enumerate(order)}
    p = dec.path_vertices
    variables = tuple(order[1:])
    varset = set(variables)
    universe = {
        (u, v) for u in variables for v in variables if rank[u] > rank[v]
    }

    de = []  # per-clique deletions for the edge instance
    for i, k in enumerate(dec.cliques):
        members = sorted(k - {p[i]}, key=lambda v: rank[v])
        de.append(
            {
                (u, v)
                for u in members
                for v in members
                if rank[u] > rank[v]
            }
        )
    av = []  # per-joint candidate deletions for the vertex instance
    for i in range(1, dec.q + 1):
        left = dec.cliques[i - 1] - {p[i - 1]}
        right = dec.cliques[i] - {p[i]}
        pairs = [(u, v) for u in right for v in left if u in varset and v in varset]
        pairs.sort(key=lambda uv: (rank[uv[0]], -rank[uv[1]]))
        av.append(pairs)

    dv = set()
    for i in range(1, dec.q + 1):
        take = len(dec.bristles[i - 1])
        dv.update(av[i - 1][:take])

    cv = universe - dv
    ce = universe - set().union(*de)
    return (
        ImpCspInstance(variables, frozenset(cv)),
        ImpCspInstance(variables, frozenset(ce)),
    )


def satisfying_assignments(inst):
    """All satisfying assignments, in lexicographic order (variables in
    instance order, value 0 before 1), found by `graph_core.search`."""
    variables = inst.variables
    if len(variables) > MAX_CSP_VARIABLES:
        raise ValueError("too many variables (%d) to enumerate" % len(variables))
    pos = {x: i for i, x in enumerate(variables)}
    # Earlier x_j bounds x_i from below if x_j -> x_i, above if x_i -> x_j.
    below = [[] for _ in variables]
    above = [[] for _ in variables]
    for u, v in inst.constraints:
        i, j = pos[u], pos[v]
        if i < j:
            below[j].append(i)
        elif j < i:
            above[i].append(j)

    def candidates(i, values):
        lo = any(values[j] for j in below[i])
        hi = all(values[j] for j in above[i])
        return iter(range(lo, hi + 1))

    return [dict(zip(variables, values)) for values in search(range(len(variables)), candidates)]


def path_assignment(dec, v):
    """The monotone assignment that is 1 exactly on variables up to v."""
    order = vertex_order(dec)
    rank = {u: i for i, u in enumerate(order)}
    return {u: 1 if rank[u] <= rank[v] else 0 for u in order[1:]}


def bristle_assignment(dec, i, a, b):
    """The assignment that dips to 0 on [a, p_i] and rises to 1 on
    (p_i, b]."""
    order = vertex_order(dec)
    rank = {u: i for i, u in enumerate(order)}
    pi = rank[dec.path_vertices[i]]
    ra, rb = rank[a], rank[b]

    def value(u):
        r = rank[u]
        if r < ra:
            return 1
        if ra <= r <= pi:
            return 0
        if pi < r <= rb:
            return 1
        return 0

    return {u: value(u) for u in order[1:]}


def classify_assignment(dec, sigma):
    """Decide whether sigma is a path assignment, a well-formed bristle
    assignment for some joint, or neither."""
    order = vertex_order(dec)
    rank = {u: i for i, u in enumerate(order)}
    p = dec.path_vertices
    variables = order[1:]
    # In rank order a path assignment reads 1^k 0^(m-k); its vertex is
    # order[k].
    values = [sigma[u] for u in variables]
    k = values.count(1)
    if values == [1] * k + [0] * (len(values) - k):
        return AssignmentKind("path", vertex=order[k])
    ones = [u for u in variables if sigma[u] == 1]
    zeros = [u for u in variables if sigma[u] == 0]
    if not ones or not zeros:
        return AssignmentKind("other")
    a = min(zeros, key=lambda u: rank[u])
    b = max(ones, key=lambda u: rank[u])
    if rank[b] <= rank[a]:
        return AssignmentKind("other")
    for i in range(1, dec.q + 1):
        if (
            b in dec.cliques[i] - {p[i]}
            and a in dec.cliques[i - 1] - {p[i - 1]}
            and sigma == bristle_assignment(dec, i, a, b)
        ):
            return AssignmentKind("bristle", joint=i, lo=a, hi=b)
    return AssignmentKind("other")


def build_hve(iv, ie):
    """Graph on the satisfying assignments of the vertex instance; two
    assignments (possibly equal, yielding a loop) are adjacent iff every
    edge-instance constraint (x, y) has sigma(x) <= sigma'(y) and
    sigma'(x) <= sigma(y).

    Returns (graph, assignments) with vertex i carrying assignments[i].
    """
    if iv.variables != ie.variables:
        raise ValueError("vertex and edge instances must share variables")
    assignments = satisfying_assignments(iv)
    cons = sorted(ie.constraints)
    edges = set()
    for i, s1 in enumerate(assignments):
        for j in range(i, len(assignments)):
            s2 = assignments[j]
            if all(
                s1[x] <= s2[y] and s2[x] <= s1[y] for x, y in cons
            ):
                edges.add((i, j))
    return Graph(len(assignments), frozenset(edges)), assignments


class EncodingError(RuntimeError):
    """The reconstruction failed to reproduce the input graph."""


@dataclass(frozen=True)
class EncodingProof:
    decomposition: object
    iv: ImpCspInstance
    ie: ImpCspInstance
    hve: Graph
    assignments: tuple  # hve vertex -> assignment dict
    bijection: dict  # input vertex -> hve vertex


def verify_hbis_encoding(h):
    """Run the full pipeline on h and check the explicit bijection.

    Looped vertex v maps to its path assignment; the bristles at joint i
    map (in sorted order) to the satisfying bristle assignments whose
    unique neighbour is the path assignment of p_i.
    """
    dec = recognize_hbis(h)
    if dec is None:
        raise EncodingError("input graph is not a clique chain with bristles")
    iv, ie = build_instances(dec)
    hve, assignments = build_hve(iv, ie)

    bijection = {}
    bristle_pools = {i: [] for i in range(1, dec.q + 1)}
    for idx, sigma in enumerate(assignments):
        kind = classify_assignment(dec, sigma)
        if kind.kind == "path":
            bijection[kind.vertex] = idx
        elif kind.kind == "bristle":
            bristle_pools[kind.joint].append(idx)
        else:
            raise EncodingError("unexpected satisfying assignment %r" % (sigma,))
    for i in range(1, dec.q + 1):
        pool = sorted(bristle_pools[i])
        bristles = sorted(dec.bristles[i - 1])
        if len(pool) != len(bristles):
            raise EncodingError(
                "joint %d: %d bristles but %d bristle assignments"
                % (i, len(bristles), len(pool))
            )
        bijection.update(zip(bristles, pool))

    if len(bijection) != h.n or hve.n != h.n:
        raise EncodingError("vertex counts differ: %d vs %d" % (h.n, hve.n))
    for u in range(h.n):
        for v in range(u, h.n):
            if h.has_edge(u, v) != hve.has_edge(bijection[u], bijection[v]):
                raise EncodingError(
                    "adjacency mismatch on (%d, %d)" % (u, v)
                )
    # Belt and braces: the generic isomorphism search must agree.
    if is_isomorphic(h, hve) is None:
        raise EncodingError("no isomorphism found by search")
    return EncodingProof(
        decomposition=dec,
        iv=iv,
        ie=ie,
        hve=hve,
        assignments=tuple(assignments),
        bijection=bijection,
    )


def serialize_csp(inst):
    lines = ["var x%d" % u for u in inst.variables]
    rank = {u: i for i, u in enumerate(inst.variables)}
    for u, v in sorted(inst.constraints, key=lambda uv: (rank[uv[0]], rank[uv[1]])):
        lines.append("imp x%d x%d" % (u, v))
    return "\n".join(lines) + "\n"
