"""Exact counters and combinatorial oracles.

Homomorphism/list-homomorphism/retraction counting by a frontier DP over
a maximum-cardinality-search order, in O(n |H|^(f+1)) for an n-vertex
instance whose frontier never exceeds f vertices, whatever the count;
enumeration by `graph_core.search` over the same order; a naive
enumeration oracle, surjection counts with the sandwich bound check,
simultaneous rational approximation, and brute-force cut counting.  All
counts are exact Python integers.

Lists file format: lines `l <v> *` (full list) or `l <v> <h1> <h2> ...`;
vertices without a record default to the full list.
"""

import math
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import product
from operator import itemgetter

from .graph_core import _norm, connected_components, search

NAIVE_BUDGET = 10**7


def full_lists(g, h):
    """The all-full list assignment for instance g over target h."""
    everything = frozenset(range(h.n))
    return [everything] * g.n


def _validate_instance(g, lists, h):
    if len(lists) != g.n:
        raise ValueError("list assignment must cover every instance vertex")
    if any(g.is_looped(v) for v in range(g.n)):
        raise ValueError("instance graph must be irreflexive")
    for v, s in enumerate(lists):
        for x in s:
            if not 0 <= x < h.n:
                raise ValueError("list of vertex %d mentions invalid target %r" % (v, x))


def count_list_homs(g, lists, h):
    """Exact number of maps h(v) in S_v preserving every edge of g.

    An empty list short-circuits to 0.
    """
    _validate_instance(g, lists, h)
    return _count(g, lists, h, weights=None)


def count_homs(g, h):
    return count_list_homs(g, full_lists(g, h), h)


def count_retractions(g, lists, h):
    """count_list_homs restricted to retraction instances: every list has
    size 1 or |V(h)|."""
    for v, s in enumerate(lists):
        if len(s) not in (1, h.n):
            raise ValueError(
                "retraction instance requires |S_v| in {1, |V(H)|}; vertex %d has %d"
                % (v, len(s))
            )
    return count_list_homs(g, lists, h)


def count_weighted_list_homs(g, lists, h, weights):
    """Sum over list homomorphisms of the product of per-image weights."""
    _validate_instance(g, lists, h)
    if len(weights) != h.n:
        raise ValueError("need one weight per target vertex")
    return _count(g, lists, h, weights=list(weights))


def _count(g, lists, h, weights, order=None):
    """Frontier DP over a maximum-cardinality-search (MCS) order.

    Pinned (singleton-list) vertices are placed first, in id order: their
    images are fixed, so each only narrows its neighbours' lists.  The rest
    follow in MCS order: the next vertex is an unplaced one with the most
    placed neighbours, ties going to the lower id.  The table maps the
    images of the frontier (unpinned placed vertices with an unplaced
    neighbour) to the number, or weight sum, of list homomorphisms of the
    placed vertices that extend them.  A vertex whose neighbours are all
    placed never enters the frontier: it is folded in as the factor
    |allowed| (or the sum of its weights).  Costs O(n |H|^(f+1)) for
    frontier width f.  When `order` is a list, the placed vertices are
    appended to it; it stops short when the count is found to be 0.
    """
    if not all(lists):
        return 0
    adj = h._adj
    n = g.n
    nbrs = g._adj
    allowed = list(lists)
    left = [len(s) for s in nbrs]  # unplaced neighbours
    # Heap entries are ints ordered like (-placed neighbours, id); a stale
    # entry pops after its vertex's newest one and is skipped as placed.
    score = [0] * n
    state = [0] * n  # 0 unplaced, 1 pinned, 2 placed by the DP
    factor = 1
    for p, s in enumerate(lists):
        if len(s) != 1:
            continue
        state[p] = 1
        if order is not None:
            order.append(p)
        (x,) = allowed[p]  # narrowed by earlier pins, so never empty here
        if weights is not None:
            factor *= weights[x]
        near = adj[x]
        for w in nbrs[p]:
            left[w] -= 1
            if not state[w]:
                allowed[w] = allowed[w] & near
                if not allowed[w]:
                    return 0
                score[w] -= n
    heap = [score[v] + v for v in range(n) if score[v] and not state[v]]
    heapify(heap)
    seeds = iter(range(n))
    frontier = []
    table = {(): factor}
    while True:
        if heap:
            v = heappop(heap) % n
            if state[v]:
                continue
        else:  # a new component
            v = next(seeds, None)
            if v is None:
                return table[()]
            if state[v]:
                continue
        state[v] = 2
        if order is not None:
            order.append(v)
        where = []
        gone = False
        for w in nbrs[v]:
            if state[w] == 2:
                where.append(frontier.index(w))
                left[v] -= 1
                left[w] -= 1
                gone = gone or not left[w]
            elif not state[w]:
                score[w] -= n
                heappush(heap, score[w] + w)
        if gone:
            keep = [i for i, u in enumerate(frontier) if left[u]]
            frontier = [frontier[i] for i in keep]
            project = _projection(keep)
        else:
            project = None
        stays = left[v] > 0
        if stays:
            frontier.append(v)
        own = allowed[v]
        new = {}
        get = new.get
        for key, c in table.items():
            allowed_v = own
            for i in where:
                allowed_v = allowed_v & adj[key[i]]
            if not allowed_v:
                continue
            if project is not None:
                key = project(key)
            if stays:
                for x in allowed_v:
                    k = key + (x,)
                    new[k] = get(k, 0) + (c if weights is None else c * weights[x])
            else:
                f = len(allowed_v) if weights is None else sum(weights[x] for x in allowed_v)
                new[key] = get(key, 0) + c * f
        if not new:
            return 0
        table = new


def _projection(keep):
    """The map from a table key to the tuple of its entries at `keep`."""
    if len(keep) > 1:
        return itemgetter(*keep)
    if keep:
        i = keep[0]
        return lambda key: (key[i],)
    return lambda key: ()


def iter_list_homs(g, lists, h):
    """Yield every list homomorphism as a tuple indexed by instance vertex.

    `graph_core.search` over the counter's MCS order, each vertex taking
    the sorted members of its list adjacent to its placed neighbours'
    images; the order is deterministic.  The counter runs first, so an
    instance with no list homomorphism costs only its DP.
    """
    _validate_instance(g, lists, h)
    order = []
    if not _count(g, lists, h, None, order):
        return
    position = {v: i for i, v in enumerate(order)}
    back = [[u for u in g.neighbours(v) if position[u] < i] for i, v in enumerate(order)]
    adj = h._adj

    def candidates(i, image):
        allowed = lists[order[i]]
        for u in back[i]:
            allowed = allowed & adj[image[u]]
        return iter(sorted(allowed))

    yield from search(order, candidates)


def naive_count(g, lists, h, budget=NAIVE_BUDGET):
    """Test oracle: enumerate all maps explicitly and check each edge."""
    _validate_instance(g, lists, h)
    size = 1
    for s in lists:
        size *= len(s)
        if size > budget:
            raise ValueError("naive enumeration budget exceeded")
    edges = [(u, v) for u, v in g.edges]
    total = 0
    for image in product(*[sorted(s) for s in lists]):
        if all(_norm(image[u], image[v]) in h.edges for u, v in edges):
            total += 1
    return total


def stirling2(a, b):
    """The number of surjective functions from [a] onto [b].

    (This is b! times the classical Stirling number of the second kind.)
    """
    if a < 0 or b < 0:
        raise ValueError("arguments must be non-negative")
    return sum(
        (-1) ** j * math.comb(b, j) * (b - j) ** a for j in range(b + 1)
    )


class StirlingPreconditionError(ValueError):
    """Raised when (a, b) violates the a >= 2b ln(2b) hypothesis."""


def check_stirling_bounds(a, b):
    """True iff b^a / 2 <= #surjections(a, b) <= b^a.

    Requires b >= 1 and a >= 2b ln(2b); violations are reported distinctly.
    """
    if b < 1 or a < 2 * b * math.log(2 * b):
        raise StirlingPreconditionError(
            "bounds need b >= 1 and a >= 2b ln(2b); got a=%r b=%r" % (a, b)
        )
    s = stirling2(a, b)
    return 2 * s >= b**a and s <= b**a


def dirichlet_approx(lams, n):
    """Find r <= n and integers t_i with |r*lam_i - t_i| <= n^(-1/d).

    Scans r = 1..n, rounding t_i half-up; exact rational arithmetic
    throughout (floats are converted to their exact binary value).
    Returns (r, tuple_of_t).
    """
    if not lams:
        raise ValueError("need at least one lambda")
    lams = [Fraction(x) for x in lams]
    if any(x <= 0 for x in lams):
        raise ValueError("lambdas must be positive")
    if n < 1:
        raise ValueError("n must be positive")
    d = len(lams)
    bound = Fraction(1, n)  # compare max_err**d <= 1/n, i.e. err <= n^(-1/d)
    for r in range(1, n + 1):
        ts = []
        errs = []
        for lam in lams:
            x = r * lam
            t = math.floor(x + Fraction(1, 2))  # round half-up
            ts.append(int(t))
            errs.append(abs(x - t))
        if max(errs) ** d <= bound:
            return r, tuple(ts)
    raise AssertionError("no admissible r found; this contradicts the bound")


def separating_functions(g, terminals):
    """Yield maps V(g) -> {1..q} fixing terminal i to i (as tuples)."""
    q = len(terminals)
    term = {v: i + 1 for i, v in enumerate(terminals)}
    free = [v for v in range(g.n) if v not in term]
    base = [0] * g.n
    for v, i in term.items():
        base[v] = i
    for choice in product(range(1, q + 1), repeat=len(free)):
        phi = list(base)
        for v, c in zip(free, choice):
            phi[v] = c
        yield tuple(phi)


def cut_edges(g, phi):
    return frozenset(e for e in g.edges if phi[e[0]] != phi[e[1]])


def count_multiterminal_cuts(g, terminals, k):
    """Enumerate all separating functions of (g, terminals).

    Returns (k_min, count_of_size_k, promise_ok) where promise_ok records
    whether every multiterminal cut has size at least k.
    """
    terminals = list(terminals)
    if len(set(terminals)) != len(terminals) or not terminals:
        raise ValueError("terminals must be distinct and non-empty")
    if len(connected_components(g)) != 1:
        raise ValueError("instance graph must be connected")
    k_min = None
    count = 0
    for phi in separating_functions(g, terminals):
        size = len(cut_edges(g, phi))
        if k_min is None or size < k_min:
            k_min = size
        if size == k:
            count += 1
    return k_min, count, k <= k_min


def count_large_cuts(g):
    """Maximum cut size of g and the number of unordered bipartitions
    achieving it (both parts may be empty)."""
    if g.n and len(connected_components(g)) != 1:
        raise ValueError("instance graph must be connected")
    edges = [e for e in g.edges if e[0] != e[1]]
    k_max = 0
    count = 0
    # Fix vertex 0's side so each unordered bipartition appears once.
    for mask in range(1 << max(g.n - 1, 0)):
        side = [0] + [(mask >> i) & 1 for i in range(g.n - 1)]
        size = sum(1 for u, v in edges if side[u] != side[v])
        if size > k_max:
            k_max, count = size, 1
        elif size == k_max:
            count += 1
    return k_max, count


def parse_lists(text, g, h):
    """Parse the `l <v> ...` lists format into a per-vertex assignment."""
    everything = frozenset(range(h.n))
    lists = [everything] * g.n
    explicit = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] != "l" or len(parts) < 3:
            raise ValueError("line %d: malformed l record" % lineno)
        try:
            v = int(parts[1])
        except ValueError:
            raise ValueError("line %d: non-integer vertex" % lineno) from None
        if not 0 <= v < g.n:
            raise ValueError("line %d: vertex out of range" % lineno)
        if v in explicit:
            raise ValueError("line %d: duplicate list for vertex %d" % (lineno, v))
        explicit.add(v)
        if parts[2:] == ["*"]:
            lists[v] = everything
            continue
        try:
            members = [int(x) for x in parts[2:]]
        except ValueError:
            raise ValueError("line %d: non-integer list member" % lineno) from None
        if any(not 0 <= x < h.n for x in members):
            raise ValueError("line %d: list member out of range" % lineno)
        lists[v] = frozenset(members)
    return lists


def serialize_lists(lists, h):
    everything = frozenset(range(h.n))
    lines = []
    for v, s in enumerate(lists):
        if s == everything:
            lines.append("l %d *" % v)
        else:
            lines.append("l %d %s" % (v, " ".join(str(x) for x in sorted(s))))
    return "\n".join(lines) + "\n"
