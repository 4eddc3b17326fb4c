"""Expected values that do not come from the code under test.

Nothing here imports retlab.  Graphs are given as adjacency sets
(`adj[v]` is the set of neighbours of v, containing v iff v is looped),
so every oracle runs on plain Python data.  Counts come from closed forms
(Fibonacci and Lucas numbers) or from transfer-matrix products; verdicts
come from the shape rules the paper fixes.
"""

from itertools import product


def fib(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def lucas(n):
    return fib(n - 1) + fib(n + 1)


def path_homs(n, adj, lists=None, weights=None):
    """Weighted list homomorphisms from the path 0-1-...-(n-1) into adj:
    a product of n - 1 transfer matrices applied to a start vector."""
    m = len(adj)
    lists = lists or [range(m)] * n
    weights = weights or [1] * m
    vec = [weights[x] if x in set(lists[0]) else 0 for x in range(m)]
    for i in range(1, n):
        allowed = set(lists[i])
        vec = [
            weights[y] * sum(vec[x] for x in adj[y]) if y in allowed else 0
            for y in range(m)
        ]
    return sum(vec)


def brute_list_homs(n, edges, lists, adj):
    """List homomorphisms by enumerating every map (desk-scale only)."""
    return sum(
        1
        for image in product(*[sorted(s) for s in lists[:n]])
        if all(image[v] in adj[image[u]] for u, v in edges)
    )


def walks(adj, a, b, length):
    """Walks of the given length from a to b: (A^length)[a][b]."""
    vec = [1 if x == a else 0 for x in range(len(adj))]
    for _ in range(length):
        vec = [sum(vec[x] for x in adj[y]) for y in range(len(adj))]
    return vec[b]


def grid_homs(rows, cols, adj):
    """Homomorphisms from the rows x cols grid into adj, by a transfer
    matrix over the homomorphisms of one column."""
    m = len(adj)
    states = [
        s
        for s in product(range(m), repeat=rows)
        if all(s[i + 1] in adj[s[i]] for i in range(rows - 1))
    ]
    vec = [1] * len(states)
    for _ in range(cols - 1):
        vec = [
            sum(
                v
                for s, v in zip(states, vec)
                if all(t[i] in adj[s[i]] for i in range(rows))
            )
            for t in states
        ]
    return sum(vec)


def is_star(adj):
    n = len(adj)
    return n <= 2 or any(len(adj[v]) == n - 1 for v in range(n))


def is_caterpillar(adj):
    """Leaf-strip test for a tree: deleting every leaf leaves a path."""
    inner = {v for v in range(len(adj)) if len(adj[v]) >= 2}
    # What is left of a tree is a subtree, so degree <= 2 makes it a path.
    return all(len(adj[v] & inner) <= 2 for v in inner)


def tree_verdict(adj):
    """Irreflexive trees: stars are complete bipartite (FP), other
    caterpillars are #BIS-easy, every other tree is #SAT-hard."""
    if is_star(adj):
        return "FP"
    return "BIS" if is_caterpillar(adj) else "SAT"


def wr_verdict(q):
    """The looped star with q looped leaves: a reflexive edge is a clique,
    a reflexive P3 is a clique chain, and q >= 3 contains an induced WR3."""
    return {1: "FP", 2: "BIS"}.get(q, "SAT")


def hom_types(adj, n_vertices, edges, sides):
    """Brute-force table {type: count} over all maps from a J-graph into
    adj.  sides is (A, matching pairs, A'); a type is (images of A,
    matched image pairs, images of A')."""
    a, matching, a2 = sides
    table = {}
    for image in product(range(len(adj)), repeat=n_vertices):
        if all(image[v] in adj[image[u]] for u, v in edges):
            key = (
                frozenset(image[v] for v in a),
                frozenset((image[u], image[v]) for u, v in matching),
                frozenset(image[v] for v in a2),
            )
            table[key] = table.get(key, 0) + 1
    return table


def maximal_type_signatures(variant, k1):
    """Sorted (max(|T1|,|T3|), |T2|, min(|T1|,|T3|)) signatures of the
    maximal-type tables of X(k1, 0, 1) ("T5") and X(k1, 1, 1) ("T9")."""
    if variant == "T5":
        rows = [
            (3 + k1, 1, 3 + k1),
            (3 + k1, 3, 3),
            (3 + k1, 3 + k1, 1),
            (3, 9, 3),
            (3, 9 + k1, 1),
            (1, 9 + 2 * k1, 1),
        ]
    else:
        rows = [
            (4 + k1, 1, 4 + k1),
            (4 + k1, 2, 2),
            (4 + k1, 3, 3),
            (4 + k1, 4 + k1, 1),
            (2, 4, 2),
            (3, 4, 2),
            (2, 6 + k1, 1),
            (3, 9, 3),
            (3, 10 + k1, 1),
            (1, 12 + 2 * k1, 1),
        ]
    return sorted(rows)


def dominance_holds(variant, k1, p, q, gamma, rows_claimed):
    """Re-derive the dominance certificate from the closed-form table:
    the designated row must beat every other row strictly at (p, q), and
    gamma must be the largest ratio.  Returns None if the claimed rows
    disagree with the table."""
    table = [(r[0] * r[2], r[1]) for r in maximal_type_signatures(variant, k1)]
    dom = (3, 9 + k1) if variant == "T5" else (3, 10 + k1)
    if sorted(table) != sorted(rows_claimed):
        return None
    others = [r for r in table if r != dom]
    ad, cd = dom
    if not (p >= 1 and q >= 1):
        return False
    if any(a**p * c**q >= ad**p * cd**q for a, c in others):
        return False
    worst = max(others, key=lambda r: r[0] ** p * r[1] ** q)
    # gamma == worst ratio, compared without division
    return gamma.numerator * ad**p * cd**q == gamma.denominator * worst[0] ** p * worst[1] ** q


def common_nbhd(adj, vertices):
    out = set(range(len(adj)))
    for v in vertices:
        out &= adj[v]
    return out


def kelk_counterexample_ok(adj, s, t):
    """A counterexample (S, T) to the two-dominant-state criterion covers
    mutually and has |S||T| >= |F||V|, F being the universal vertices."""
    n = len(adj)
    f = {v for v in range(n) if len(adj[v]) == n}
    return (
        bool(s)
        and bool(t)
        and set(s) <= common_nbhd(adj, t)
        and set(t) <= common_nbhd(adj, s)
        and set(s) != f
        and set(t) != f
        and len(s) * len(t) >= len(f) * n
    )


def is_isomorphism(adj1, adj2, mapping):
    n = len(adj1)
    if len(adj2) != n or sorted(mapping) != list(range(n)):
        return False
    if sorted(mapping.values()) != list(range(n)):
        return False
    return all(
        (v in adj1[u]) == (mapping[v] in adj2[mapping[u]])
        for u in range(n)
        for v in range(n)
    )


def parse_edge_list(text):
    """(n, adjacency sets) of the `n / e u v` text format, read
    independently of retlab's parser."""
    n = None
    adj = None
    for line in text.splitlines():
        parts = line.split()
        if not parts or parts[0].startswith("#"):
            continue
        if parts[0] == "n":
            n = int(parts[1])
            adj = [set() for _ in range(n)]
        elif parts[0] == "e":
            u, v = int(parts[1]), int(parts[2])
            adj[u].add(v)
            adj[v].add(u)
        else:
            raise ValueError("unexpected record %r" % line)
    return n, adj


def degree_profile(adj):
    return sorted((len(a), v in a) for v, a in enumerate(adj))
