"""Structural predicates and recognizers used by the trichotomy.

Square-freeness (a square is a 4-cycle on distinct vertices, induced or
not), girth (loops ignored), component shape facets, induced-subgraph
witnesses (mixed triangle / looped star with 3 independent looped leaves /
net / long reflexive cycle), the clique-chain-with-bristles recognizer,
and the triangle-extended cycle/path recognizer.
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
    for u, v in combinations(range(h.n), 2):
        shared = (h.neighbours(u) & h.neighbours(v)) - {u, v}
        if len(shared) >= 2:
            a, b = sorted(shared)[:2]
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
        caterpillar = _is_path_set(h, spine)

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


def _is_path_set(h, vertices):
    """True iff the given vertices induce a simple path (or are empty /
    a single vertex) inside h."""
    if len(vertices) <= 1:
        return True
    vs = set(vertices)
    degs = [len((h.neighbours(v) & vs) - {v}) for v in vertices]
    ends = [v for v, d in zip(vertices, degs) if d == 1]
    mids = [v for v, d in zip(vertices, degs) if d == 2]
    if len(ends) != 2 or len(ends) + len(mids) != len(vertices):
        return False
    # Connectivity along the path.
    start = ends[0]
    seen = {start}
    cur = start
    while True:
        nxt = [w for w in h.neighbours(cur) if w in vs and w not in seen and w != cur]
        if not nxt:
            break
        cur = nxt[0]
        seen.add(cur)
    return len(seen) == len(vertices)


def find_mixed_triangle(h):
    """A triangle with exactly two looped vertices (tag MixedTriangle21) or
    exactly one (tag MixedTriangle12), or None."""
    for a, b, c in combinations(range(h.n), 3):
        if h.has_edge(a, b) and h.has_edge(b, c) and h.has_edge(a, c):
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
    for w1, w2, w3 in combinations(loops, 3):
        if not (h.has_edge(w1, w2) and h.has_edge(w2, w3) and h.has_edge(w1, w3)):
            continue
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


def find_induced_reflexive_cycle(h, min_len=5):
    """An induced cycle of length >= min_len with every vertex looped, or
    None."""
    if min_len < 3:
        raise ValueError("min_len must be at least 3")
    loops = sorted(h.loops())
    loopset = set(loops)

    def extend(path, inpath):
        s = path[0]
        last = path[-1]
        for w in sorted(h.neighbours(last)):
            if w <= s or w not in loopset or w in inpath:
                continue
            nbrs = h.neighbours(w)
            if any(p in nbrs for p in path[1:-1]):
                continue
            if len(path) >= 2 and s in nbrs:
                if len(path) + 1 >= min_len:
                    return path + [w]
                continue  # cannot pass through w without creating a chord
            found = extend(path + [w], inpath | {w})
            if found:
                return found
        return None

    for s in loops:
        found = extend([s], {s})
        if found:
            return StructuralWitness(REFLEXIVE_CYCLE_GE5, frozenset(found))
    return None


def _maximal_cliques(vertices, adj):
    """All maximal cliques of the simple graph on `vertices` given by
    adjacency sets `adj` (self-adjacency ignored)."""
    result = []

    def bron_kerbosch(r, p, x):
        if not p and not x:
            result.append(frozenset(r))
            return
        for v in sorted(p):
            bron_kerbosch(r | {v}, p & adj[v], x & adj[v])
            p = p - {v}
            x = x | {v}

    bron_kerbosch(set(), set(vertices), set())
    return result


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
    core = sorted(loops)
    if len(core) < 3:
        return None
    adj = {v: (h.neighbours(v) & loops) - {v} for v in core}
    cliques = _maximal_cliques(core, adj)
    if len(cliques) < 2:
        return None
    # The clique intersection graph must be a path with single-vertex
    # consecutive intersections and empty non-consecutive intersections.
    links = {i: [] for i in range(len(cliques))}
    for i, j in combinations(range(len(cliques)), 2):
        inter = cliques[i] & cliques[j]
        if len(inter) > 1:
            return None
        if inter:
            links[i].append(j)
            links[j].append(i)
    ends = [i for i in links if len(links[i]) == 1]
    if len(ends) != 2 or any(len(v) > 2 for v in links.values()):
        return None
    chain = [min(ends)]
    while True:
        nxt = [j for j in links[chain[-1]] if len(chain) < 2 or j != chain[-2]]
        if not nxt:
            break
        chain.append(nxt[0])
    if len(chain) != len(cliques):
        return None  # the intersection graph is disconnected
    ordered = [cliques[i] for i in chain]
    # Non-consecutive cliques must be disjoint (checked above via size<=1 and
    # the path shape: any non-consecutive intersection would add a link).
    # Every looped edge must live inside some clique (true for maximal
    # cliques of the core by construction) -- verify anyway.
    for u, v in h.edges:
        if u in loops and v in loops and u != v:
            if not any(u in k and v in k for k in ordered):
                return None

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
    subsets = []
    for r in range(len(candidates) + 1):
        subsets.extend(combinations(candidates, r))
    subsets.sort(key=lambda s: (len(s), s))
    for apexes in subsets:
        # Each apex consumes one core edge; apex edges must be distinct.
        edges_used = set()
        ok = True
        for d in apexes:
            e = tuple(sorted(h.neighbours(d) - {d}))
            if e in edges_used or any(x in apexes for x in e):
                ok = False
                break
            edges_used.add(e)
        if not ok:
            continue
        core = sorted(set(range(h.n)) - set(apexes))
        dec = _match_core(h, core, apexes)
        if dec is not None:
            return dec
    return None


def _match_core(h, core, apexes):
    coreset = set(core)
    deg = {v: len((h.neighbours(v) - {v}) & coreset) for v in core}
    m = sum(deg.values()) // 2
    if len(core) == 0:
        return None
    if len(core) == 1:
        seq = list(core)
        kind = "path"
    elif all(d == 2 for d in deg.values()) and m == len(core) and len(core) >= 3:
        kind = "cycle"
        seq = _walk_cycle(h, core, coreset)
        if seq is None:
            return None
    else:
        ends = [v for v in core if deg[v] == 1]
        if len(ends) != 2 or m != len(core) - 1 or any(
            d not in (1, 2) for d in deg.values()
        ):
            return None
        kind = "path"
        seq = _walk_path(h, ends[0], coreset)
        if seq is None or len(seq) != len(core):
            return None
    # Attach apexes to core edges and canonicalize.
    return _canonical_tec(h, kind, seq, apexes)


def _walk_cycle(h, core, coreset):
    start = min(core)
    seq = [start]
    prev = None
    cur = start
    while True:
        nxt = sorted(w for w in (h.neighbours(cur) - {cur}) & coreset if w != prev)
        if not nxt:
            return None
        step = nxt[0]
        if step == start:
            break
        prev, cur = cur, step
        seq.append(cur)
        if len(seq) > len(core):
            return None
    if len(seq) != len(core):
        return None
    return seq


def _walk_path(h, start, coreset):
    seq = [start]
    prev = None
    cur = start
    while True:
        nxt = [w for w in (h.neighbours(cur) - {cur}) & coreset if w != prev]
        if not nxt:
            return seq
        if len(nxt) > 1:
            return None
        prev, cur = cur, nxt[0]
        seq.append(cur)


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
