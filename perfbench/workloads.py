"""Seeded check lists for the three workloads.

A check is one call into retlab's public API, or one in-process
`retlab.cli.main(argv)` pipeline with stdin and stdout redirected.  Each
check carries an `observe` function, which turns the call's outcome into
a comparable value, and an `oracle`, which computes the expected value
from `oracles` without calling retlab.  Both run outside every timed span
and outside set-up.

Inputs are built here with the benchmark's own builders; retlab only
supplies the `graph` constructor and the dataclasses its API takes.  All
randomness comes from `random.Random(seed)`.
"""

import random
from dataclasses import dataclass, field
from pathlib import Path

import oracles


@dataclass
class Check:
    cid: str
    call: tuple  # ("api", module, function, args) or ("cli", [(argv, stdin), ...])
    observe: object  # outcome -> comparable value
    oracle: object  # () -> expected value
    expected: object = field(default=None)


def _same(outcome):
    return outcome


def _report(r):
    return (r.passed, r.lhs, r.rhs)


def _report_agrees(r):
    return (r.passed, r.lhs == r.rhs)


def _fixed(value):
    return lambda: value


# ---------------------------------------------------------------------------
# plain graph data: (n, edges) with edges as pairs, u == v a loop


def adjacency(n, edges):
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def relabel(n, edges, rng, root=None):
    """Shuffle the labels; `root`, if given, keeps label 0.  The counter
    searches from vertex 0, so fixing it keeps a pinned instance's cost
    independent of the seed."""
    perm = list(range(n))
    rng.shuffle(perm)
    if root is not None:
        i = perm.index(0)
        perm[i], perm[root] = perm[root], 0
    return [(perm[u], perm[v]) for u, v in edges], perm


def path_edges(n):
    return [(i, i + 1) for i in range(n - 1)]


def cycle_edges(n):
    return [(i, (i + 1) % n) for i in range(n)]


def grid_edges(rows, cols):
    at = lambda r, c: r * cols + c  # noqa: E731
    edges = [(at(r, c), at(r, c + 1)) for r in range(rows) for c in range(cols - 1)]
    return edges + [(at(r, c), at(r + 1, c)) for r in range(rows - 1) for c in range(cols)]


def loops(n):
    return [(v, v) for v in range(n)]


def x_graph(k1, k2, k3):
    """Looped center 0; k1 unlooped leaves, k2 looped leaves, k3 looped
    triangle pairs, numbered in that order."""
    edges = [(0, 0)]
    nxt = 1
    for _ in range(k1):
        edges.append((0, nxt))
        nxt += 1
    for _ in range(k2):
        edges += [(0, nxt), (nxt, nxt)]
        nxt += 1
    for _ in range(k3):
        x, y = nxt, nxt + 1
        edges += [(0, x), (0, y), (x, y), (x, x), (y, y)]
        nxt += 2
    return nxt, edges


def wr(q):
    return q + 1, [(0, 0)] + [e for v in range(1, q + 1) for e in ((0, v), (v, v))]


def net():
    return 6, loops(6) + [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4), (2, 5)]


def reflexive_cycle(q):
    return q, loops(q) + cycle_edges(q)


def triangle_extended_cycle(q, apexes):
    edges = loops(q) + cycle_edges(q)
    nxt = q
    for i in sorted(apexes):
        edges += [(nxt, nxt), (nxt, i), (nxt, (i + 1) % q)]
        nxt += 1
    return nxt, edges


HARD_CORE = (2, [(0, 0), (0, 1)])
REFLEXIVE_P3 = (3, loops(3) + [(0, 1), (1, 2)])
LOOPED_K1 = (1, [(0, 0)])
FIG15 = triangle_extended_cycle(5, [1, 3, 4])
FIG5 = (
    14,
    loops(7)
    + [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4), (4, 5), (5, 6)]
    + [(7, 2), (8, 2), (9, 2), (10, 2), (11, 4), (12, 4), (13, 5)],
)


def random_graph(rng, n, loop_prob=0.4, edge_prob=0.5):
    edges = [(v, v) for v in range(n) if rng.random() < loop_prob]
    edges += [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < edge_prob
    ]
    return n, edges


def random_connected(rng, n):
    edges = [(rng.randint(0, v - 1), v) for v in range(1, n)]
    edges += [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3]
    return n, sorted(set(edges))


def random_chain(rng, max_joints, max_clique):
    """A chain of reflexive cliques with in-bound bristle counts, under a
    random relabelling.  Returns (n, edges, joints, endpoint) with joints
    as (vertex, bristles, bound)."""
    big_q = rng.randint(1, max_joints)
    sizes = [rng.randint(2, max_clique) for _ in range(big_q + 1)]
    edges = []
    path = [0]
    nxt = 1
    for s in sizes:
        members = [path[-1]] + list(range(nxt, nxt + s - 1))
        nxt += s - 1
        path.append(members[-1])
        edges += [(u, v) for i, u in enumerate(members) for v in members[i + 1 :]]
    edges += loops(nxt)
    joints = []
    for i in range(1, big_q + 1):
        bound = (sizes[i - 1] - 1) * (sizes[i] - 1)
        count = rng.randint(0, bound)
        joints.append((path[i], count, bound))
        for _ in range(count):
            edges.append((path[i], nxt))
            nxt += 1
    edges, perm = relabel(nxt, edges, rng)
    return nxt, edges, [(perm[j], c, b) for j, c, b in joints], perm[0]


def mutate_chain(rng, n, edges, joints, endpoint):
    """Push one joint's bristles over its bound, or hang a bristle on a
    path endpoint; either way the result is no clique chain."""
    edges = list(edges)
    if joints and rng.random() < 0.5:
        joint, count, bound = rng.choice(joints)
        for _ in range(bound - count + 1):
            edges.append((joint, n))
            n += 1
    else:
        edges.append((endpoint, n))
        n += 1
    return n, edges


def random_tree(rng, n):
    return [(rng.randrange(v), v) for v in range(1, n)]


def random_caterpillar(rng, n):
    spine = rng.randint(2, n // 2)
    edges = path_edges(spine)
    edges += [(rng.randrange(spine), v) for v in range(spine, n)]
    return edges


# ---------------------------------------------------------------------------
# instance files for the CLI checks


def _graph_text(n, edges):
    lines = ["n %d" % n]
    lines += ["e %d %d" % (min(u, v), max(u, v)) for u, v in sorted(set(edges))]
    return "\n".join(lines) + "\n"


class Files:
    """Writes the instance files that CLI checks read."""

    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def graph(self, name, n, edges):
        path = self.root / (name + ".graph")
        path.write_text(_graph_text(n, edges), encoding="utf-8")
        return str(path)

    def lists(self, name, lists):
        path = self.root / (name + ".lists")
        lines = ["l %d %s" % (v, " ".join(map(str, sorted(s)))) for v, s in enumerate(lists)]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return str(path)


def _cli(cid, *steps, observe=_same, oracle):
    return Check(cid, ("cli", list(steps)), observe, oracle)


# ---------------------------------------------------------------------------
# count: the counting kernel on graded families


class _Target:
    def __init__(self, lab, name, n, edges):
        self.name, self.n, self.edges = name, n, edges
        self.adj = adjacency(n, edges)
        self.graph = lab.graph_core.graph(n, edges)


def _count_check(lab, files, cid, mode, n, edges, tgt, lists, oracle, via_cli):
    """A hom / lhom / retraction count, through the API or `retlab count`."""
    if via_cli:
        argv = ["count", "--mode", mode, files.graph(cid, n, edges), files.graph(tgt.name, tgt.n, tgt.edges)]
        if lists is not None:
            argv += ["--lists", files.lists(cid, lists)]
        return _cli(cid, (argv, ""), oracle=lambda: (0, "%d\n" % oracle()))
    g = lab.graph_core.graph(n, edges)
    if mode == "hom":
        call = ("api", "counting", "count_homs", (g, tgt.graph))
    else:
        fn = "count_list_homs" if mode == "lhom" else "count_retractions"
        call = ("api", "counting", fn, (g, [frozenset(s) for s in lists], tgt.graph))
    return Check(cid, call, _same, oracle)


def _by_label(perm, order_lists):
    """Lists given in path order, re-indexed by the shuffled labels."""
    lists = [None] * len(perm)
    for i, s in enumerate(order_lists):
        lists[perm[i]] = s
    return lists


def _family(params):
    """Pair each parameter with a flag sending every fourth member of the
    family through the CLI.  The choice is not seeded, so that a seed
    changes labels but not the cost of a pass."""
    return [(p, i % 4 == 1) for i, p in enumerate(params)]


def count_checks(lab, rng, files):
    hc = _Target(lab, "hard-core", *HARD_CORE)
    rp3 = _Target(lab, "reflexive-p3", *REFLEXIVE_P3)
    nt = _Target(lab, "net", *net())
    k1 = _Target(lab, "looped-k1", *LOOPED_K1)
    checks = []

    for n, cli in _family(list(range(10, 27))):
        edges, _ = relabel(n, path_edges(n), rng)
        checks.append(_count_check(lab, files, "path-%d" % n, "hom", n, edges, hc, None,
                                   (lambda n=n: oracles.fib(n + 2)), cli))
    for n, cli in _family(list(range(10, 25))):
        edges, _ = relabel(n, cycle_edges(n), rng)
        checks.append(_count_check(lab, files, "cycle-%d" % n, "hom", n, edges, hc, None,
                                   (lambda n=n: oracles.lucas(n)), cli))
    grids = [(r, c, t) for r, c in ((2, 2), (2, 3), (2, 4), (3, 3), (3, 4), (4, 4)) for t in (hc, rp3)]
    for (r, c, t), cli in _family(grids):
        # Grids keep their row-major labels: the counter's cost depends on
        # where its search starts, and the seed should not move it.
        checks.append(_count_check(lab, files, "grid-%dx%d-%s" % (r, c, t.name), "hom", r * c, grid_edges(r, c), t, None,
                                   (lambda r=r, c=c, t=t: oracles.grid_homs(r, c, t.adj)), cli))
    # end pins: triangle to itself, triangle to pendant, pendant to pendant
    pinned = [(n, i, a, b) for n in range(2, 13) for i, (a, b) in enumerate(((0, 0), (0, 5), (3, 4)))]
    for (n, i, a, b), cli in _family(pinned):
        edges, perm = relabel(n, path_edges(n), rng, root=n // 2)
        lists = _by_label(perm, [{a}] + [set(range(6))] * (n - 2) + [{b}])
        checks.append(_count_check(lab, files, "net-ret-%d-%d" % (n, i), "ret", n, edges, nt, lists,
                                   (lambda n=n, a=a, b=b: oracles.walks(nt.adj, a, b, n - 1)), cli))
    listed = []
    for n in range(6, 15):
        order_lists = [set(range(3)) for _ in range(n)]
        order_lists[n // 3], order_lists[2 * n // 3] = {0, 1}, {1, 2}
        listed.append((n, order_lists))
    for (n, order_lists), cli in _family(listed):
        edges, perm = relabel(n, path_edges(n), rng, root=n // 2)
        lists = _by_label(perm, order_lists)
        checks.append(_count_check(lab, files, "p3-lists-%d" % n, "lhom", n, edges, rp3, lists,
                                   (lambda n=n, ol=order_lists: oracles.path_homs(n, rp3.adj, ol)), cli))
    for n in range(5, 21):
        weights = rng.sample(range(7, 10), 2)  # similar magnitudes, similar cost
        edges, _ = relabel(n, path_edges(n), rng)
        g = lab.graph_core.graph(n, edges)
        args = (g, [frozenset(range(2))] * n, hc.graph, weights)
        checks.append(Check("weighted-%d" % n, ("api", "counting", "count_weighted_list_homs", args), _same,
                            (lambda n=n, w=weights: oracles.path_homs(n, hc.adj, weights=w))))

    # Deep instances with count 1: recursion depth, not output size.
    n = 1500
    edges, _ = relabel(n, path_edges(n), rng)
    checks.append(_count_check(lab, files, "deep-path-%d-looped-k1" % n, "hom", n, edges, k1, None, _fixed(1), False))
    n = 1200
    edges, perm = relabel(n, path_edges(n), rng, root=n // 2)
    order_lists = [{1} if i % 2 == 0 else {0, 1} for i in range(n)]
    lists = _by_label(perm, order_lists)
    checks.append(_count_check(lab, files, "deep-path-%d-pinned" % n, "lhom", n, edges, hc, lists,
                               (lambda ol=order_lists: oracles.path_homs(1200, hc.adj, ol)), False))
    return checks


# ---------------------------------------------------------------------------
# gadgets: many small pinned calls, enumeration plus filtering, closures


def _random_type(rng, adj, p, q, t):
    """The type of a random homomorphism from J(p, q, t) into adj."""
    n = len(adj)
    while True:
        b_img = [rng.randrange(n) for _ in range(q * t)]
        allowed_a = sorted(oracles.common_nbhd(adj, b_img))
        b2_img = [rng.choice(sorted(adj[x])) for x in b_img]
        allowed_a2 = sorted(oracles.common_nbhd(adj, b2_img))
        if allowed_a and allowed_a2:
            a_img = [rng.choice(allowed_a) for _ in range(p * t)]
            a2_img = [rng.choice(allowed_a2) for _ in range(p * t)]
            return frozenset(a_img), frozenset(zip(b_img, b2_img)), frozenset(a2_img)


def _j_graph(lab, p, q, t):
    """J(p, q, t) as documented for `make_j_graph`: layers A, B, B', A'
    numbered in that order, A x B, B_i - B'_i, B' x A'."""
    a = tuple(range(p * t))
    b = tuple(range(p * t, p * t + q * t))
    b2 = tuple(range(p * t + q * t, p * t + 2 * q * t))
    a2 = tuple(range(p * t + 2 * q * t, 2 * p * t + 2 * q * t))
    edges = [(x, y) for x in a for y in b] + list(zip(b, b2)) + [(x, y) for x in b2 for y in a2]
    g = lab.graph_core.graph(2 * p * t + 2 * q * t, edges)
    return lab.gadget_lab.JGraph(p, q, t, g, a, b, b2, a2), edges, (a, tuple(zip(b, b2)), a2)


def _type_count(tables, adj, j_edges, sides, n_j, key):
    """Brute-force count of homomorphisms of one type; `tables` caches the
    full type table of each (target, gadget) pair."""
    table_key = (repr(adj), n_j)
    if table_key not in tables:
        tables[table_key] = oracles.hom_types(adj, n_j, j_edges, sides)
    return tables[table_key].get(key, 0)


def _signatures(types):
    return sorted(
        (max(len(t.t1), len(t.t3)), len(t.t2), min(len(t.t1), len(t.t3))) for t in types
    )


def gadgets_checks(lab, rng, files):
    del files  # every gadget check goes through the API
    G = lab.graph_core.graph
    checks = []

    def api(cid, fn, args, observe, oracle):
        checks.append(Check(cid, ("api", "gadget_lab", fn, args), observe, oracle))

    # criterion 7 (a) and (b): seeded pin and two-pin instances, with the
    # sizes cycling through the criterion's ranges rather than drawn, so
    # that the seed changes the instances but hardly the cost of a pass
    done = 0
    while done < 450:
        hn, hedges = random_graph(rng, 2 + done % 4)
        hadj = adjacency(hn, hedges)
        u = rng.randrange(hn)
        if not hadj[u]:
            continue
        gn, gedges = random_connected(rng, 1 + done // 4 % 4)
        ball = sorted(hadj[u])
        lists = [frozenset({rng.choice(ball)}) if rng.random() < 0.5 else frozenset(ball) for _ in range(gn)]
        want = lambda gn=gn, ge=gedges, ls=lists, ha=hadj: oracles.brute_list_homs(gn, ge, ls, ha)  # noqa: E731
        api("pin-%d" % done, "verify_pin_neighbourhood", (G(hn, hedges), u, G(gn, gedges), lists),
            _report, lambda w=want: (True,) + (w(),) * 2)
        done += 1
    done = 0
    while done < 225:
        hn, hedges = random_graph(rng, 2 + done % 4)
        hadj = adjacency(hn, hedges)
        b1, b2 = rng.randrange(hn), rng.randrange(hn)
        cn = sorted(hadj[b1] & hadj[b2])
        if not cn:
            continue
        gn, gedges = random_connected(rng, 1 + done // 4 % 3)
        lists = [frozenset({rng.choice(cn)}) if rng.random() < 0.5 else frozenset(cn) for _ in range(gn)]
        want = lambda gn=gn, ge=gedges, ls=lists, ha=hadj: oracles.brute_list_homs(gn, ge, ls, ha)  # noqa: E731
        api("two-pin-%d" % done, "verify_two_pin", (G(hn, hedges), b1, b2, G(gn, gedges), lists),
            _report, lambda w=want: (True,) + (w(),) * 2)
        done += 1

    # boost: the criterion 7 grid for n, s <= 3 plus the all-pair n = 3, s = 3 case
    hp_n, hp_edges = x_graph(1, 1, 1)  # looped leaf 2 has neighbourhood {0, 2}
    hp_adj = adjacency(hp_n, hp_edges)
    pair = frozenset({0, 2})
    small = [(1, []), (2, [(0, 1)]), (3, [(0, 1), (1, 2), (0, 2)])]
    boosts = [(gn, ge, [pair if v % 2 == 0 else frozenset({0}) for v in range(gn)], s)
              for gn, ge in small for s in (1, 2, 3)]
    boosts.append((3, small[2][1], [pair] * 3, 3))
    for i, (gn, ge, lists, s) in enumerate(boosts):
        # closed form: 2^(s n) times the homomorphisms into the pair
        want = lambda gn=gn, ge=ge, ls=lists, s=s: 2 ** (s * gn) * oracles.brute_list_homs(gn, ge, ls, hp_adj)  # noqa: E731
        api("boost-n%d-s%d-%d" % (gn, s, i), "verify_boost_decomposition",
            (G(hp_n, hp_edges), 0, 2, G(gn, ge), lists, s), _report, lambda w=want: (True,) + (w(),) * 2)

    # degree-2 bristle, criterion 7 (d)
    h1 = G(3, [(0, 0), (2, 2), (0, 1), (1, 2)])
    h2 = G(4, [(0, 0), (2, 2), (3, 3), (0, 1), (1, 2), (0, 3)])
    core2 = frozenset({0, 3})
    bristles = [
        (h1, G(1, []), [frozenset({0})]),
        (h1, G(2, [(0, 1)]), [frozenset({0})] * 2),
        (h2, G(1, []), [core2]),
        (h2, G(2, [(0, 1)]), [core2, frozenset({3})]),
        (h2, G(3, [(0, 1), (1, 2)]), [core2, frozenset({0}), core2]),
    ]
    for i, (h, g, lists) in enumerate(bristles):
        api("bristle-%d" % i, "verify_degree2_bristle", (h, 0, 1, g, lists), _report_agrees, _fixed((True, True)))

    # the clique-with-chains and net identities
    tri = G(3, [(0, 1), (1, 2), (0, 2)])
    for k1 in (0, 1):
        api("wr3-x%d03" % k1, "verify_wr3_zphi", (G(*x_graph(k1, 0, 3)), 0, tri, [0, 1, 2], 3, 1),
            _report_agrees, _fixed((True, True)))
    for sizes in ([1, 1, 1], [2, 1, 1]):
        api("net-zphi-%d%d%d" % tuple(sizes), "verify_net_zphi",
            (G(*net()), [0, 1, 2], G(4, [(3, 0), (3, 1), (3, 2)]), [0, 1, 2], sizes),
            _report_agrees, _fixed((True, True)))

    # cycle gadgets: every ell on C5, C6, C8 and fig. 15
    for name, (hn, hedges), q in (("c5", reflexive_cycle(5), 5), ("c6", reflexive_cycle(6), 6),
                                  ("c8", reflexive_cycle(8), 8), ("fig15", FIG15, 5)):
        for ell in range(1, q):
            api("cycle-%s-%d" % (name, ell), "verify_cycle_gadget", (G(hn, hedges), list(range(q)), ell),
                _report, _fixed((True, 2, 2)))

    # criterion 5: maximal-type tables; criterion 6: dominance certificates
    tables = [("T5", k1, x_graph(k1, 0, 1)) for k1 in range(1, 8)]
    tables += [("T9", k1, x_graph(k1, 1, 1)) for k1 in range(3, 7)]
    for variant, k1, h in tables:
        api("types-%s-%d" % (variant, k1), "enumerate_maximal_types", (G(*h),), _signatures,
            lambda v=variant, k=k1: oracles.maximal_type_signatures(v, k))
    for variant, k1 in [("T5", k) for k in range(1, 8)] + [("T9", k) for k in range(3, 7)]:
        api("dominance-%s-%d" % (variant, k1), "find_dominance_params", (variant, k1),
            lambda c, v=variant, k=k1: oracles.dominance_holds(v, k, c.p, c.q, c.gamma, c.rows), _fixed(True))
    for k1 in (1, 2):
        api("dominance-T9-%d" % k1, "find_dominance_params", ("T9", k1), _same,
            _fixed(("raised", "EmptyIntervalError")))

    # criterion 8: the two-dominant-state checker
    blow = (5, [(0, 0), (0, 1), (0, 2), (0, 3), (0, 4)])
    kelk = [("x701", x_graph(7, 0, 1), True), ("x611", x_graph(6, 1, 1), True),
            ("x502", x_graph(5, 0, 2), True), ("blow", blow, True), ("x101", x_graph(1, 0, 1), False)]
    for name, (hn, hedges), ok in kelk:
        hadj = adjacency(hn, hedges)
        observe = lambda r, a=hadj: (r[0], r[1] is None if r[0] else oracles.kelk_counterexample_ok(a, *r[1]))  # noqa: E731
        api("kelk-%s" % name, "check_kelk_condition", (G(hn, hedges),), observe, _fixed((ok, True)))

    # count_type on the criterion 5, 6 and 8 targets, types of random homomorphisms
    targets = [h for _, _, h in tables] + [x_graph(5, 0, 2), blow]
    jobs = [(h, 1) for h in targets] + [(h, 2) for h in (x_graph(1, 0, 1), x_graph(2, 0, 1), blow)]
    type_tables = {}
    for i, ((hn, hedges), t) in enumerate(jobs):
        hadj = adjacency(hn, hedges)
        jg, j_edges, sides = _j_graph(lab, 1, 1, t)
        for r in range(3):
            key = _random_type(rng, hadj, 1, 1, t)
            htype = lab.gadget_lab.HType(*key)
            api("count-type-%d-%d" % (i, r), "count_type", (htype, jg, G(hn, hedges)), _same,
                lambda a=hadj, e=j_edges, s=sides, n=jg.graph.n, k=key: _type_count(type_tables, a, e, s, n, k))
    return checks


# ---------------------------------------------------------------------------
# classify: structure recognizers, classifier, hbis encoder, CLI


CORPUS = [  # criterion 4: (n, edges, verdict)
    (1, loops(1), "FP"),
    (2, loops(2) + [(0, 1)], "FP"),
    (3, loops(3) + [(0, 1), (0, 2), (1, 2)], "FP"),
    (4, [(0, i) for i in range(1, 4)], "FP"),
    (6, [(0, i) for i in range(1, 6)], "FP"),
    (5, [(i, 2 + j) for i in range(2) for j in range(3)], "FP"),
    (4, path_edges(4), "BIS"),
    (5, path_edges(5), "BIS"),
    (6, [(0, 1), (1, 2), (2, 3), (1, 4), (2, 5)], "BIS"),
    (6, loops(4) + [(0, 1), (1, 2), (2, 3), (1, 3), (1, 4), (1, 5)], "BIS"),
    (4, loops(3) + [(0, 1), (1, 2), (1, 3)], "BIS"),
    (5, loops(3) + [(0, 1), (1, 2), (1, 3), (1, 4)], "SAT"),
    (*x_graph(1, 0, 1), "SAT"),
    (*x_graph(1, 1, 0), "SAT"),
    (*x_graph(2, 2, 0), "SAT"),
    (*x_graph(3, 1, 1), "SAT"),
    (*x_graph(5, 0, 2), "SAT"),
    (*wr(3), "SAT"),
    (*net(), "SAT"),
    (*reflexive_cycle(5), "SAT"),
    (*FIG15, "SAT"),
]


def _fig4():
    edges = loops(12)
    for k in [(0, 1), (1, 2, 3), (3, 4), (4, 5, 6), (6, 7, 8, 9), (9, 10), (10, 11)]:
        edges += [(u, v) for i, u in enumerate(k) for v in k[i + 1 :]]
    nxt = 12
    for joint, count in ((1, 2), (6, 4), (9, 2), (10, 1)):
        for _ in range(count):
            edges.append((joint, nxt))
            nxt += 1
    return nxt, edges


def _verdict(v):
    return v.cls


def _cli_verdict(outcome):
    code, out = outcome
    return code, out.splitlines()[-1] if out else ""


def _classify_targets(rng):
    """(name, n, edges, verdict) for the seeded targets of fixed verdict."""
    out = [("corpus-%d" % i, n, e, v) for i, (n, e, v) in enumerate(CORPUS)]
    out.append(("corpus-fig4", *_fig4(), "BIS"))
    for i in range(160):
        n = rng.randint(40, 60)
        edges = random_caterpillar(rng, n) if i % 2 else random_tree(rng, n)
        edges, _ = relabel(n, edges, rng)
        out.append(("tree-%d" % i, n, edges, oracles.tree_verdict(adjacency(n, edges))))
    for q in range(5, 31):
        n, edges = reflexive_cycle(q)
        out.append(("refl-cycle-%d" % q, n, relabel(n, edges, rng)[0], "SAT"))
    for i in range(100):
        q = rng.randint(5, 30)
        n, edges = triangle_extended_cycle(q, rng.sample(range(q), rng.randint(1, q // 2)))
        out.append(("tec-%d" % i, n, relabel(n, edges, rng)[0], "SAT"))
    for i in range(100):
        k2 = rng.randint(0, 8)
        k3 = rng.randint(max(0, 3 - k2), 8)
        n, edges = x_graph(rng.randint(0, 8), k2, k3)
        # three pairwise non-adjacent looped neighbours of the center: WR3
        out.append(("x-%d" % i, n, relabel(n, edges, rng)[0], "SAT"))
    for q in range(1, 61):
        n, edges = wr(q)
        out.append(("wr-%d" % q, n, relabel(n, edges, rng)[0], oracles.wr_verdict(q)))
    for i in range(160):
        n, edges, _, _ = random_chain(rng, 10, 4)
        out.append(("chain-%d" % i, n, edges, "BIS"))
    return out


def classify_checks(lab, rng, files):
    G = lab.graph_core.graph
    checks = []
    targets = _classify_targets(rng)
    cli_ids = set(rng.sample(range(len(targets)), len(targets) // 5))
    for i, (name, n, edges, verdict) in enumerate(targets):
        if i in cli_ids:
            checks.append(_cli("cli-classify-" + name, (["classify", files.graph(name, n, edges)], ""),
                               observe=_cli_verdict, oracle=_fixed((0, "verdict: " + verdict))))
        else:
            checks.append(Check("classify-" + name, ("api", "classifier", "classify", (G(n, edges),)),
                                _verdict, _fixed(verdict)))

    # criterion 2: the encoding round trip, and rejection of mutated chains
    for i in range(160):
        n, edges, joints, endpoint = random_chain(rng, 4, 4)
        hadj = adjacency(n, edges)
        observe = lambda proof, a=hadj: oracles.is_isomorphism(  # noqa: E731
            a, adjacency(proof.hve.n, proof.hve.edges), proof.bijection)
        checks.append(Check("hbis-verify-%d" % i, ("api", "hbis_encoder", "verify_hbis_encoding", (G(n, edges),)),
                            observe, _fixed(True)))
        bad_n, bad_edges = mutate_chain(rng, n, edges, joints, endpoint)
        checks.append(Check("hbis-reject-%d" % i, ("api", "structure", "recognize_hbis", (G(bad_n, bad_edges),)),
                            lambda dec: dec is None, _fixed(True)))

    # in-process CLI pipelines
    fig5_path = files.graph("fig5", *FIG5)
    fig5_adj = adjacency(*FIG5)
    checks.append(_cli("cli-gen-net-classify", (["gen", "net"], ""), (["classify", "-"], None),
                       observe=_cli_verdict, oracle=_fixed((0, "verdict: SAT"))))
    checks.append(_cli("cli-hbis-verify-fig5", (["hbis-verify", fig5_path], ""),
                       observe=_hbis_verify_output, oracle=_fixed((0, "PASS 14 vertices", True))))
    checks.append(_cli("cli-hbis-encode-fig5", (["hbis-encode", fig5_path], ""),
                       observe=lambda o: _hbis_encode_output(o, fig5_adj), oracle=_fixed((0, True))))
    return checks


def _hbis_verify_output(outcome):
    code, out = outcome
    lines = out.splitlines()
    pairs = [tuple(map(int, line.split()[1:])) for line in lines[1:]]
    bijective = sorted(a for a, _ in pairs) == list(range(14)) == sorted(b for _, b in pairs)
    return code, lines[0] if lines else "", bijective


def _hbis_encode_output(outcome, adj):
    code, out = outcome
    sections = out.split("graph Hve\n")
    if len(sections) != 2 or not sections[0].startswith("csp Iv\n") or "csp Ie\n" not in sections[0]:
        return code, False
    n, hve = oracles.parse_edge_list(sections[1])
    return code, n == len(adj) and oracles.degree_profile(hve) == oracles.degree_profile(adj)


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {"count": count_checks, "gadgets": gadgets_checks, "classify": classify_checks}


def build(workload, seed, lab, workdir):
    """The workload's checks in a seeded order, expected values unset."""
    rng = random.Random("%s:%d" % (workload, seed))
    checks = WORKLOADS[workload](lab, rng, Files(Path(workdir) / workload))
    rng.shuffle(checks)
    return checks

