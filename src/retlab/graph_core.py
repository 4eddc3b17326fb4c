"""Core graph representation and algebra.

Graphs are finite and undirected; loops are allowed (an edge whose two
endpoints coincide), multi-edges are not.  Vertices are dense 0-based
integers.  All values are immutable; every operation is a pure function.
`search` is the package's one depth-first search, on an explicit stack:
list-homomorphism enumeration, implication-CSP solutions and
`is_isomorphic` all run on it, and no function in retlab recurses.

Text format (UTF-8, one record per line):
    n <vertex_count>         first non-comment line
    e <u> <v>                zero or more; u == v encodes a loop
    # ...                    comment
Serialization emits edges sorted by (min, max) endpoint.
"""

from collections import Counter
from dataclasses import dataclass, field


def _norm(u, v):
    return (u, v) if u <= v else (v, u)


@dataclass(frozen=True)
class Graph:
    n: int
    edges: frozenset
    _adj: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be non-negative")
        nbrs = [set() for _ in range(self.n)]
        for e in self.edges:
            u, v = e
            if not (0 <= u <= v < self.n):
                raise ValueError("edge %r out of range or not normalized" % (e,))
            nbrs[u].add(v)
            nbrs[v].add(u)
        object.__setattr__(self, "_adj", tuple(frozenset(s) for s in nbrs))

    def neighbours(self, v):
        return self._adj[v]

    def has_edge(self, u, v):
        return _norm(u, v) in self.edges

    def is_looped(self, v):
        return (v, v) in self.edges

    def loops(self):
        return frozenset(v for v in range(self.n) if (v, v) in self.edges)


def graph(n, edges=()):
    """Build a Graph from any iterable of (possibly unnormalized) pairs."""
    return Graph(n, frozenset(_norm(u, v) for u, v in edges))


def neighbourhood(h, v):
    """All u with {u,v} an edge of h; contains v itself iff v is looped."""
    if not 0 <= v < h.n:
        raise ValueError("vertex %d out of range" % v)
    return h.neighbours(v)


def common_neighbours(h, vertices):
    """Intersection of the neighbourhoods of a non-empty vertex set."""
    vertices = list(vertices)
    if not vertices:
        raise ValueError("common_neighbours of an empty set is undefined")
    return neighbourhood(h, vertices[0]).intersection(
        *(neighbourhood(h, v) for v in vertices[1:])
    )


def induced_subgraph(h, vertices):
    """Subgraph induced by a vertex set, relabeled 0..|U|-1.

    Returns (subgraph, relabel) where relabel maps old ids to new ids.
    """
    ordered = sorted(set(vertices))
    if ordered and not (0 <= ordered[0] and ordered[-1] < h.n):
        raise ValueError("vertex out of range")
    relabel = {v: i for i, v in enumerate(ordered)}
    keep = set(ordered)
    edges = frozenset(
        (relabel[u], relabel[v]) for u, v in h.edges if u in keep and v in keep
    )
    return Graph(len(ordered), edges), relabel


def connected_components(h):
    """Partition of the vertices into maximal connected sets."""
    seen = [False] * h.n
    out = []
    for s in range(h.n):
        if seen[s]:
            continue
        comp = {s}
        seen[s] = True
        stack = [s]
        while stack:
            u = stack.pop()
            for w in h.neighbours(u):
                if not seen[w]:
                    seen[w] = True
                    comp.add(w)
                    stack.append(w)
        out.append(frozenset(comp))
    return out


def _iso_key(h, v):
    nbrs = h.neighbours(v)
    profile = sorted((len(h.neighbours(u)), h.is_looped(u)) for u in nbrs)
    return (len(nbrs), h.is_looped(v), tuple(profile))


def search(order, candidates):
    """Depth-first over order[0], order[1], ..., a permutation of the slots
    0..len(order)-1: slot order[i] takes each value of the iterator
    `candidates(i, image)`, `image` holding the earlier slots' values, and
    each full image is yielded as a tuple (() once for an empty order).
    One iterator per placed slot sits on a stack, so depth costs no recursion.
    """
    if not order:
        yield ()
        return
    image = [0] * len(order)
    last = len(order) - 1
    stack = [candidates(0, image)]
    while stack:
        depth = len(stack) - 1
        x = next(stack[-1], None)
        if x is None:
            stack.pop()
        else:
            image[order[depth]] = x
            if depth == last:
                yield tuple(image)
            else:
                stack.append(candidates(depth + 1, image))


def is_isomorphic(h1, h2):
    """A loop- and edge-preserving bijection V(h1) -> V(h2), or None.

    The first map `search` finds, with (degree, loop-flag,
    neighbour-degree-multiset) pruning; intended for desk-scale graphs
    (<= ~32 vertices) and free of recursion at any size.
    """
    if h1.n != h2.n or len(h1.edges) != len(h2.edges):
        return None
    keys1 = [_iso_key(h1, v) for v in range(h1.n)]
    keys2 = [_iso_key(h2, v) for v in range(h2.n)]
    if sorted(keys1) != sorted(keys2):
        return None
    # Assign rarest invariant classes first.
    freq = Counter(keys1)
    order = sorted(range(h1.n), key=lambda v: (freq[keys1[v]], v))
    pool = [[u for u in range(h2.n) if keys2[u] == keys1[v]] for v in range(h1.n)]

    def candidates(i, image):
        # u is unused, matches v's loop and sees exactly v's mapped neighbours.
        v = order[i]
        placed = order[:i]
        used = {image[w] for w in placed}
        mapped = {image[w] for w in h1.neighbours(v).intersection(placed)}
        return (
            u
            for u in pool[v]
            if u not in used
            and h1.is_looped(v) == h2.is_looped(u)
            and h2.neighbours(u) & used == mapped
        )

    for image in search(order, candidates):
        return {v: image[v] for v in order}
    return None


def parse_graph(text):
    """Parse the `n ... / e u v` text format; raises ValueError with the
    offending line number on malformed input."""
    n = None
    edges = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "n":
            if n is not None:
                raise ValueError("line %d: duplicate n record" % lineno)
            if len(parts) != 2 or not parts[1].isdigit():
                raise ValueError("line %d: malformed n record" % lineno)
            n = int(parts[1])
        elif parts[0] == "e":
            if n is None:
                raise ValueError("line %d: e record before n record" % lineno)
            if len(parts) != 3:
                raise ValueError("line %d: malformed e record" % lineno)
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise ValueError("line %d: non-integer endpoint" % lineno) from None
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError("line %d: endpoint out of range" % lineno)
            edges.add(_norm(u, v))
        else:
            raise ValueError("line %d: unknown record %r" % (lineno, parts[0]))
    if n is None:
        raise ValueError("line 1: missing n record")
    return Graph(n, frozenset(edges))


def serialize_graph(h):
    lines = ["n %d" % h.n]
    for u, v in sorted(h.edges):
        lines.append("e %d %d" % (u, v))
    return "\n".join(lines) + "\n"


def disjoint_union(*graphs):
    """Disjoint union, relabeling each argument's vertices after the last."""
    n = 0
    edges = set()
    for g in graphs:
        edges.update((u + n, v + n) for u, v in g.edges)
        n += g.n
    return Graph(n, frozenset(edges))
