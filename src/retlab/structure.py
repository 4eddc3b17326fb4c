"""Structural predicates and recognizers used by the trichotomy.

Square-freeness (a square is a 4-cycle on distinct vertices, induced or
not), girth (loops ignored), component shape facets, induced-subgraph
witnesses (mixed triangle / looped star with 3 independent looped leaves /
net / long reflexive cycle), the degree-2 bristle condition, the
clique-chain-with-bristles recognizer, and the triangle-extended
cycle/path recognizer.

No function here recurses, so input size is bounded by memory, not by
the interpreter's recursion limit.  For n vertices, m edges and maximum
degree D:

- `find_square` counts the paths u-w-v to later v, O(sum of deg^2);
- the triangle scan behind the mixed-triangle and net finders visits
  each edge once and each of its upper neighbours once, O(m·D) set
  operations instead of the n^3/6 vertex triples;
- `recognize_hbis` builds each maximal clique of the looped core once,
  from an edge no clique covers yet, and gives up as soon as a vertex
  would lie in a third clique: O(n log n + m);
- `find_induced_reflexive_cycle` is a depth-first search over induced
  paths with an explicit stack, O(length) per extension step;
- `recognize_triangle_extended` tries the apex sets that leave at most
  three candidates in the core, O(c^3) sets for c candidates, each
  matched in O(n + m + q^2 log q) for a core of q vertices.
"""

from collections import deque
from dataclasses import dataclass
from itertools import combinations

from .graph_core import connected_components, neighbourhood

# Witness tags.
MIXED_TRIANGLE_21 = "MixedTriangle21"  # two looped, one unlooped
MIXED_TRIANGLE_12 = "MixedTriangle12"  # one looped, two unlooped
INDUCED_WR3 = "InducedWR3"
INDUCED_NET = "InducedNet"
REFLEXIVE_CYCLE_GE5 = "ReflexiveCycleGe5"
SQUARE = "Square"


@dataclass(frozen=True)
class StructuralWitness:
    tag: str
    vertices: frozenset


@dataclass(frozen=True)
class HbisDecomposition:
    """A chain of reflexive cliques K_0..K_Q overlapping in single path
    vertices p_1..p_Q, with bristle sets B_1..B_Q hanging off the internal
    path vertices.  path_vertices is (p_0, ..., p_{Q+1})."""

    path_vertices: tuple
    cliques: tuple  # Q+1 frozensets
    bristles: tuple  # Q frozensets, bristles[i-1] attaches to p_i

    @property
    def q(self):
        return len(self.cliques) - 1


@dataclass(frozen=True)
class TriangleExtendedDecomposition:
    """A reflexive cycle/path c_0..c_{q-1} plus apexes: for each i in
    apex_map, a vertex d_i forming a reflexive triangle with the core edge
    (c_i, c_{i+1 mod q})."""

    kind: str  # "cycle" or "path"
    core: tuple  # (c_0, ..., c_{q-1})
    apex_map: tuple  # sorted tuple of (i, d_i)

    @property
    def apex_indices(self):
        return frozenset(i for i, _ in self.apex_map)


def find_square(h):
    """A 4-cycle on distinct vertices as a (not necessarily induced)
    subgraph, or None.  Loops are irrelevant."""
    for u in range(h.n):
        paths = {}
        for w in h.neighbours(u):
            if w != u:
                for v in h.neighbours(w):
                    if v > u and v != w:
                        paths[v] = paths.get(v, 0) + 1
        twice = [v for v, c in paths.items() if c >= 2]
        if twice:
            v = min(twice)
            a, b = sorted((h.neighbours(u) & h.neighbours(v)) - {u, v})[:2]
            return StructuralWitness(SQUARE, frozenset({u, a, v, b}))
    return None


def is_square_free(h):
    return find_square(h) is None


def girth(h):
    """Length of a shortest cycle on >= 3 distinct vertices; loops are not
    cycles.  Returns math.inf for forests."""
    import math

    best = math.inf
    for s in range(h.n):
        dist = {s: 0}
        parent = {s: None}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in h.neighbours(u):
                if w == u:
                    continue
                if w not in dist:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif parent[u] != w:
                    best = min(best, dist[u] + dist[w] + 1)
    return best


@dataclass(frozen=True)
class ComponentShape:
    reflexive: bool
    irreflexive: bool
    mixed: bool
    reflexive_clique: bool
    irreflexive_complete_bipartite: bool
    irreflexive_star: bool
    irreflexive_caterpillar: bool
    trivial: bool


def classify_component_shape(h):
    """Boolean shape facets of a connected graph."""
    if h.n == 0 or len(connected_components(h)) != 1:
        raise ValueError("classify_component_shape needs a connected graph")
    loops = h.loops()
    reflexive = len(loops) == h.n
    irreflexive = not loops
    mixed = not reflexive and not irreflexive

    reflexive_clique = reflexive and all(
        h.has_edge(u, v) for u, v in combinations(range(h.n), 2)
    )

    complete_bipartite = False
    if irreflexive:
        colour = _two_colour(h)
        if colour is not None:
            a = [v for v in range(h.n) if colour[v] == 0]
            b = [v for v in range(h.n) if colour[v] == 1]
            complete_bipartite = all(h.has_edge(u, v) for u in a for v in b)

    star = irreflexive and sum(1 for v in range(h.n) if len(h.neighbours(v)) > 1) <= 1

    caterpillar = False
    if irreflexive and len(h.edges) == h.n - 1:  # connected and acyclic
        spine = [v for v in range(h.n) if len(h.neighbours(v)) >= 2]
        caterpillar = _path_order(_induced_nbrs(h, spine)) is not None

    return ComponentShape(
        reflexive=reflexive,
        irreflexive=irreflexive,
        mixed=mixed,
        reflexive_clique=reflexive_clique,
        irreflexive_complete_bipartite=complete_bipartite,
        irreflexive_star=star,
        irreflexive_caterpillar=caterpillar,
        trivial=reflexive_clique or complete_bipartite,
    )


def _two_colour(h):
    colour = [None] * h.n
    for s in range(h.n):
        if colour[s] is not None:
            continue
        colour[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in h.neighbours(u):
                if w == u:
                    return None
                if colour[w] is None:
                    colour[w] = 1 - colour[u]
                    queue.append(w)
                elif colour[w] == colour[u]:
                    return None
    return colour


def _walk(nbrs, start):
    """The walk from start that always steps to the smallest unvisited
    neighbour, as a list; nbrs maps each vertex to its neighbour set.  On
    a path that starts at start, or on a cycle, it visits every vertex;
    callers compare its length with the vertex count."""
    seq = [start]
    seen = {start}
    while True:
        options = nbrs[seq[-1]] - seen
        if not options:
            return seq
        seq.append(min(options))
        seen.add(seq[-1])


def _path_order(nbrs):
    """The vertices of nbrs (a map to neighbour sets without loops) in
    path order from the smaller end, or None when they do not form a
    simple path.  No vertex or one vertex is a path."""
    if len(nbrs) <= 1:
        return list(nbrs)
    ends = sorted(v for v, s in nbrs.items() if len(s) == 1)
    if len(ends) != 2 or any(len(s) > 2 for s in nbrs.values()):
        return None
    seq = _walk(nbrs, ends[0])
    return seq if len(seq) == len(nbrs) else None


def _induced_nbrs(h, vertices):
    """Each vertex's neighbours among the given vertices, loops dropped."""
    vs = set(vertices)
    return {v: (h.neighbours(v) & vs) - {v} for v in vertices}


def _triangles(h, vertices):
    """The triangles a < b < c of h on the given vertices, in
    lexicographic order."""
    vs = set(vertices)
    for a in sorted(vs):
        up = {w for w in h.neighbours(a) if w > a and w in vs}
        for b in sorted(up):
            for c in sorted(w for w in h.neighbours(b) & up if w > b):
                yield a, b, c


def find_mixed_triangle(h):
    """A triangle with exactly two looped vertices (tag MixedTriangle21) or
    exactly one (tag MixedTriangle12), or None."""
    for a, b, c in _triangles(h, range(h.n)):
        k = sum(1 for v in (a, b, c) if h.is_looped(v))
        if k == 2:
            return StructuralWitness(MIXED_TRIANGLE_21, frozenset({a, b, c}))
        if k == 1:
            return StructuralWitness(MIXED_TRIANGLE_12, frozenset({a, b, c}))
    return None


def find_induced_wr3(h):
    """Four looped vertices b,u1,u2,u3 with b adjacent to each u_i and no
    edges among the u_i, or None."""
    loops = sorted(h.loops())
    for b in loops:
        nbrs = [u for u in loops if u != b and h.has_edge(b, u)]
        for u1, u2, u3 in combinations(nbrs, 3):
            if (
                not h.has_edge(u1, u2)
                and not h.has_edge(u1, u3)
                and not h.has_edge(u2, u3)
            ):
                return StructuralWitness(INDUCED_WR3, frozenset({b, u1, u2, u3}))
    return None


def find_induced_net(h):
    """Six looped vertices: a reflexive triangle w1,w2,w3 plus one looped
    pendant per corner, induced; or None."""
    loops = sorted(h.loops())
    for w1, w2, w3 in _triangles(h, loops):
        tri = {w1, w2, w3}
        pend = []
        for w in (w1, w2, w3):
            pend.append(
                [
                    d
                    for d in loops
                    if d not in tri
                    and h.has_edge(w, d)
                    and not any(h.has_edge(d, x) for x in tri - {w})
                ]
            )
        for d1 in pend[0]:
            for d2 in pend[1]:
                if d2 == d1 or h.has_edge(d1, d2):
                    continue
                for d3 in pend[2]:
                    if d3 in (d1, d2) or h.has_edge(d1, d3) or h.has_edge(d2, d3):
                        continue
                    return StructuralWitness(
                        INDUCED_NET, frozenset({w1, w2, w3, d1, d2, d3})
                    )
    return None


def is_degree2_bristle(h, b, g):
    """True iff b is looped, g is an unlooped neighbour of b with at least
    two neighbours, and every other member of b's ball (b included) shares
    exactly one neighbour with g."""
    ball = neighbourhood(h, b)
    gamma_g = neighbourhood(h, g)
    if not h.is_looped(b) or h.is_looped(g) or g not in ball or len(gamma_g) < 2:
        return False
    return all(len(h.neighbours(u) & gamma_g) == 1 for u in ball - {g})


def find_induced_reflexive_cycle(h, min_len=5):
    """An induced cycle of length >= min_len with every vertex looped, or
    None."""
    if min_len < 3:
        raise ValueError("min_len must be at least 3")
    loops = sorted(h.loops())
    loopset = set(loops)
    # Depth-first over induced looped paths s = path[0] < every other
    # vertex; stack[i] iterates the candidate successors of path[i].
    for s in loops:
        path = [s]
        inpath = {s}
        stack = [iter(sorted(h.neighbours(s)))]
        while stack:
            for w in stack[-1]:
                if w <= s or w not in loopset or w in inpath:
                    continue
                nbrs = h.neighbours(w)
                if any(p in nbrs for p in path[1:-1]):
                    continue
                if len(path) >= 2 and s in nbrs:
                    if len(path) + 1 >= min_len:
                        return StructuralWitness(
                            REFLEXIVE_CYCLE_GE5, frozenset(path + [w])
                        )
                    continue  # cannot pass through w without creating a chord
                path.append(w)
                inpath.add(w)
                stack.append(iter(sorted(nbrs)))
                break
            else:
                stack.pop()
                inpath.discard(path.pop())
    return None


def recognize_hbis(h):
    """Recognize a chain of reflexive cliques with bounded bristle counts.

    Returns an HbisDecomposition, or None.  The looped part must decompose
    into maximal reflexive cliques whose intersection graph is a path with
    consecutive intersections of size exactly 1; unlooped vertices must be
    degree-1 bristles on internal path vertices, at most
    (|K_{i-1}|-1)(|K_i|-1) of them per joint.  Of the two path
    orientations the lexicographically smaller one is returned.
    """
    if h.n == 0 or len(connected_components(h)) != 1:
        return None
    loops = h.loops()
    unlooped = [v for v in range(h.n) if v not in loops]
    # Every unlooped vertex is a degree-1 bristle on a looped vertex.
    attach = {}
    for w in unlooped:
        nbrs = h.neighbours(w)
        if len(nbrs) != 1:
            return None
        (t,) = nbrs
        if t not in loops:
            return None
        attach[w] = t
    if len(loops) < 3:
        return None
    # In a chain each core edge uv lies in exactly one maximal clique,
    # the looped common neighbourhood of u and v, and each looped vertex
    # in at most two.  Build each clique once from an edge no clique
    # covers yet; any failure of these facts rules the chain out.
    cliques = []
    member = {v: [] for v in loops}  # looped vertex -> indices of its cliques
    for u in sorted(loops):
        uncovered = (h.neighbours(u) & loops) - {u}
        for i in member[u]:
            uncovered -= cliques[i]
        while uncovered:
            k = h.neighbours(u) & h.neighbours(min(uncovered)) & loops
            if not all(k <= h.neighbours(w) for w in k):
                return None
            for w in k:
                if len(member[w]) == 2:
                    return None
                member[w].append(len(cliques))
            cliques.append(k)
            uncovered -= k
    if len(cliques) < 2:
        return None
    # The clique intersection graph must be a path with single-vertex
    # consecutive intersections and empty non-consecutive intersections.
    links = {i: set() for i in range(len(cliques))}
    for pair in member.values():
        if len(pair) == 2:
            i, j = pair
            if j in links[i]:
                return None  # two cliques share two vertices
            links[i].add(j)
            links[j].add(i)
    chain = _path_order(links)
    if chain is None:
        return None
    ordered = [cliques[i] for i in chain]

    best = None
    for seq in (ordered, ordered[::-1]):
        dec = _orient_hbis(h, seq, attach)
        if dec is None:
            return None
        if best is None or dec.path_vertices < best.path_vertices:
            best = dec
    return best


def _orient_hbis(h, cliques, attach):
    big_q = len(cliques) - 1
    joints = []
    for i in range(big_q):
        (p,) = cliques[i] & cliques[i + 1]
        joints.append(p)
    p0 = min(cliques[0] - {joints[0]})
    p_last = max(cliques[-1] - {joints[-1]})
    path = [p0] + joints + [p_last]
    internal = set(joints)
    bristles = [set() for _ in range(big_q)]
    for w, t in attach.items():
        if t not in internal:
            return None
        bristles[joints.index(t)].add(w)
    for i in range(1, big_q + 1):
        bound = (len(cliques[i - 1]) - 1) * (len(cliques[i]) - 1)
        if len(bristles[i - 1]) > bound:
            return None
    return HbisDecomposition(
        path_vertices=tuple(path),
        cliques=tuple(cliques),
        bristles=tuple(frozenset(b) for b in bristles),
    )


def validate_hbis(h, dec):
    """Independently re-check every HbisDecomposition invariant against h."""
    big_q = dec.q
    if big_q < 1 or len(dec.path_vertices) != big_q + 2 or len(dec.bristles) != big_q:
        return False
    p = dec.path_vertices
    ks = dec.cliques
    loops = h.loops()
    covered = set()
    for i, k in enumerate(ks):
        if p[i] not in k or p[i + 1] not in k:
            return False
        for u in k:
            if u not in loops:
                return False
        for u, v in combinations(sorted(k), 2):
            if not h.has_edge(u, v):
                return False
        covered |= k
    for i in range(1, big_q + 1):
        if ks[i - 1] & ks[i] != {p[i]}:
            return False
    for i, j in combinations(range(big_q + 1), 2):
        if j - i > 1 and ks[i] & ks[j]:
            return False
    allowed_edges = set()
    for k in ks:
        for u in k:
            allowed_edges.add((u, u))
            for v in k:
                if u < v:
                    allowed_edges.add((u, v))
    bristle_all = set()
    for i in range(1, big_q + 1):
        b = dec.bristles[i - 1]
        if len(b) > (len(ks[i - 1]) - 1) * (len(ks[i]) - 1):
            return False
        for w in b:
            if w in loops or h.neighbours(w) != frozenset({p[i]}):
                return False
            allowed_edges.add(tuple(sorted((w, p[i]))))
        if b & bristle_all:
            return False
        bristle_all |= b
    if covered | bristle_all != set(range(h.n)):
        return False
    return set(h.edges) == allowed_edges


def recognize_triangle_extended(h):
    """Recognize a reflexive triangle-extended cycle or path.

    Rejects non-reflexive input; returns a TriangleExtendedDecomposition
    with a canonical core labeling, or None.  Interpretations with fewer
    apexes are preferred (a bare reflexive triangle is a cycle of length 3
    with no apexes).
    """
    if h.n == 0 or len(connected_components(h)) != 1:
        raise ValueError("recognize_triangle_extended needs a connected graph")
    if len(h.loops()) != h.n:
        raise ValueError("recognize_triangle_extended needs a reflexive graph")
    candidates = []
    for v in range(h.n):
        nbrs = sorted(h.neighbours(v) - {v})
        if len(nbrs) == 2 and h.has_edge(nbrs[0], nbrs[1]):
            candidates.append(v)
    # A candidate left in the core has two adjacent neighbours, so it is a
    # vertex of a triangle core or an end of a path core: at most three
    # stay, and smaller apex sets cannot match.
    sizes = range(max(len(candidates) - 3, 0), len(candidates) + 1)
    for apexes in (a for r in sizes for a in combinations(candidates, r)):
        # Each apex consumes one core edge; apex edges must be distinct.
        edges = {h.neighbours(d) - {d} for d in apexes}
        if len(edges) < len(apexes) or any(e & set(apexes) for e in edges):
            continue
        core = sorted(set(range(h.n)) - set(apexes))
        dec = _match_core(h, core, apexes)
        if dec is not None:
            return dec
    return None


def _match_core(h, core, apexes):
    if not core:
        return None
    nbrs = _induced_nbrs(h, core)
    if all(len(s) == 2 for s in nbrs.values()):
        kind = "cycle"
        seq = _walk(nbrs, core[0])
    else:
        kind = "path"
        seq = _path_order(nbrs)
    if seq is None or len(seq) != len(core):
        return None
    # Attach apexes to core edges and canonicalize.
    return _canonical_tec(h, kind, seq, apexes)


def _canonical_tec(h, kind, seq, apexes):
    q = len(seq)
    if kind == "cycle":
        variants = []
        for shift in range(q):
            rot = seq[shift:] + seq[:shift]
            variants.append(rot)
            variants.append([rot[0]] + rot[1:][::-1])
    else:
        variants = [seq, seq[::-1]]
    variants.sort(key=tuple)
    for cand in variants:
        amap = _place_apexes(h, kind, cand, apexes)
        if amap is not None:
            return TriangleExtendedDecomposition(
                kind=kind, core=tuple(cand), apex_map=tuple(sorted(amap))
            )
    return None


def _place_apexes(h, kind, seq, apexes):
    q = len(seq)
    pos = {v: i for i, v in enumerate(seq)}
    edge_count = q if kind == "cycle" else q - 1
    amap = []
    used = set()
    for d in apexes:
        a, b = sorted(h.neighbours(d) - {d})
        i, j = pos[a], pos[b]
        if kind == "cycle":
            if (i + 1) % q == j:
                idx = i
            elif (j + 1) % q == i:
                idx = j
            else:
                return None
        else:
            if i + 1 == j:
                idx = i
            elif j + 1 == i:
                idx = j
            else:
                return None
        if idx in used or idx >= edge_count:
            return None
        used.add(idx)
        amap.append((idx, d))
    # Edge exactness: the apex triangle edges plus core edges plus loops
    # must be everything.
    allowed = {(v, v) for v in range(h.n)}
    for i in range(edge_count):
        allowed.add(tuple(sorted((seq[i], seq[(i + 1) % q]))))
    for idx, d in amap:
        allowed.add(tuple(sorted((d, seq[idx]))))
        allowed.add(tuple(sorted((d, seq[(idx + 1) % q]))))
    if set(h.edges) != allowed:
        return None
    return amap


def universal_vertices(h):
    """The looped vertices adjacent to every vertex of h."""
    everything = frozenset(range(h.n))
    return frozenset(v for v in range(h.n) if h.neighbours(v) == everything)
