"""Command-line front end.

Subcommands: classify, count, hbis-encode, hbis-verify, gen,
gadget-verify, types-table, cuts.  Graph arguments are file paths or `-`
for standard input.  Exit codes: 0 success / PASS, 1 FAIL, 2 usage or
malformed input.  All output is byte-deterministic.
"""

import argparse
import sys

from .graph_core import graph, parse_graph, serialize_graph
from .counting import (
    count_homs,
    count_large_cuts,
    count_list_homs,
    count_multiterminal_cuts,
    count_retractions,
    full_lists,
    parse_lists,
)
from .classifier import classify
from .hbis_encoder import (
    EncodingError,
    build_instances,
    build_hve,
    serialize_csp,
    verify_hbis_encoding,
)
from .structure import recognize_hbis, recognize_triangle_extended
from .gadget_lab import (
    check_kelk_condition,
    count_type,
    enumerate_maximal_types,
    make_j_graph,
    make_net,
    make_triangle_extended,
    make_wr,
    make_x_graph,
    nhat,
    verify_cycle_gadget,
    verify_net_zphi,
    verify_wr3_zphi,
)


def _read_graph(path):
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    return parse_graph(text)


def _cmd_classify(args):
    h = _read_graph(args.graph)
    verdict = classify(h)
    for i, (_, tag, _) in enumerate(verdict.reasons):
        print("component %d: %s" % (i, tag))
    print("verdict: %s" % verdict.cls)
    return 0


def _cmd_count(args):
    g = _read_graph(args.instance)
    h = _read_graph(args.target)
    if args.mode == "hom":
        if args.lists:
            raise ValueError("--lists is only valid with lhom or ret")
        print(count_homs(g, h))
        return 0
    if args.lists:
        with open(args.lists, "r", encoding="utf-8") as f:
            lists = parse_lists(f.read(), g, h)
    else:
        lists = full_lists(g, h)
    if args.mode == "lhom":
        print(count_list_homs(g, lists, h))
    else:
        print(count_retractions(g, lists, h))
    return 0


def _cmd_hbis_encode(args):
    h = _read_graph(args.graph)
    dec = recognize_hbis(h)
    if dec is None:
        print("FAIL not a clique chain with bristles")
        return 1
    iv, ie = build_instances(dec)
    hve, _ = build_hve(iv, ie)
    sys.stdout.write("csp Iv\n" + serialize_csp(iv))
    sys.stdout.write("csp Ie\n" + serialize_csp(ie))
    sys.stdout.write("graph Hve\n" + serialize_graph(hve))
    return 0


def _cmd_hbis_verify(args):
    h = _read_graph(args.graph)
    try:
        proof = verify_hbis_encoding(h)
    except EncodingError as exc:
        print("FAIL %s" % exc)
        return 1
    print("PASS %d vertices" % h.n)
    for v in sorted(proof.bijection):
        print("map %d %d" % (v, proof.bijection[v]))
    return 0


def _cmd_gen(args):
    spec = args.spec
    kind = spec[0]
    if kind == "x":
        if len(spec) != 4:
            raise ValueError("gen x needs k1 k2 k3")
        h = make_x_graph(*(int(x) for x in spec[1:]))
    elif kind == "wr":
        if len(spec) != 2:
            raise ValueError("gen wr needs q")
        h = make_wr(int(spec[1]))
    elif kind == "net":
        if len(spec) != 1:
            raise ValueError("gen net takes no arguments")
        h = make_net()
    elif kind == "tec":
        if len(spec) < 3:
            raise ValueError("gen tec needs <cycle|path> <q> [apex indices]")
        h = make_triangle_extended(spec[1], int(spec[2]), [int(x) for x in spec[3:]])
    else:
        raise ValueError("unknown family %r" % kind)
    sys.stdout.write(serialize_graph(h))
    return 0


def _cmd_gadget_verify(args):
    name = args.name
    if name == "kelk":
        h = _read_graph(args.args[0])
        ok, ce = check_kelk_condition(h)
        if ok:
            print("PASS kelk lhs=1 rhs=1")
            return 0
        s, t = sorted(ce[0]), sorted(ce[1])
        print("FAIL kelk lhs=0 rhs=1")
        print("counterexample S=%s T=%s" % (s, t))
        return 1
    if name == "cycle":
        if len(args.args) != 2:
            raise ValueError("gadget-verify cycle <H.graph> <ell>")
        h = _read_graph(args.args[0])
        ell = int(args.args[1])
        dec = recognize_triangle_extended(h)
        if dec is None or dec.kind != "cycle":
            raise ValueError("target is not a triangle-extended cycle")
        report = verify_cycle_gadget(h, list(dec.core), ell)
    elif name == "wr3":
        if len(args.args) != 4:
            raise ValueError("gadget-verify wr3 <Hb.graph> <b> <s> <t>")
        h = _read_graph(args.args[0])
        b, s, t = int(args.args[1]), int(args.args[2]), int(args.args[3])
        probe = graph(3, [(0, 1), (1, 2), (0, 2)])
        report = verify_wr3_zphi(h, b, probe, [0, 1, 2], s, t)
    elif name == "net":
        if len(args.args) != 7:
            raise ValueError(
                "gadget-verify net <H.graph> <w1> <w2> <w3> <t1> <t2> <t3>"
            )
        h = _read_graph(args.args[0])
        ws = [int(x) for x in args.args[1:4]]
        sizes = [int(x) for x in args.args[4:7]]
        probe = graph(4, [(3, 0), (3, 1), (3, 2)])
        report = verify_net_zphi(h, ws, probe, [0, 1, 2], sizes)
    else:
        raise ValueError("unknown gadget %r" % name)
    print(report.format())
    return 0 if report.passed else 1


def _cmd_types_table(args):
    h = _read_graph(args.graph)
    types = enumerate_maximal_types(h)
    j = make_j_graph(args.p, args.q, args.t)
    for i, t in enumerate(types):
        t1, t2, t3 = t.sort_key()
        line = "type %d T1=%s T2=%s T3=%s nhat=%d n=%d" % (
            i,
            ",".join(map(str, t1)),
            ";".join("%d-%d" % p for p in t2),
            ",".join(map(str, t3)),
            nhat(t, args.p, args.q, args.t),
            count_type(t, j, h),
        )
        print(line)
    return 0


def _cmd_cuts(args):
    g = _read_graph(args.graph)
    if args.terminals:
        if args.k is None:
            raise ValueError("-K is required with --terminals")
        k_min, count, ok = count_multiterminal_cuts(g, args.terminals, args.k)
        print("kmin %d" % k_min)
        print("count %d" % count)
        print("promise %s" % ("ok" if ok else "violated"))
    else:
        k_max, count = count_large_cuts(g)
        print("kmax %d" % k_max)
        print("count %d" % count)
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="retlab",
        description="exact counting, classification and gadget checks "
        "for graph retraction targets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="trichotomy verdict for a target")
    p.add_argument("graph")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("count", help="exact homomorphism-style counts")
    p.add_argument("--mode", choices=["hom", "lhom", "ret"], required=True)
    p.add_argument("instance")
    p.add_argument("target")
    p.add_argument("--lists")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("hbis-encode", help="emit the CSP encoding and its graph")
    p.add_argument("graph")
    p.set_defaults(func=_cmd_hbis_encode)

    p = sub.add_parser("hbis-verify", help="check the encoding round trip")
    p.add_argument("graph")
    p.set_defaults(func=_cmd_hbis_verify)

    p = sub.add_parser("gen", help="generate a named graph family")
    p.add_argument("spec", nargs="+")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("gadget-verify", help="run one gadget identity check")
    p.add_argument("name", choices=["kelk", "cycle", "wr3", "net"])
    p.add_argument("args", nargs="*")
    p.set_defaults(func=_cmd_gadget_verify)

    p = sub.add_parser("types-table", help="maximal types with estimates")
    p.add_argument("graph")
    p.add_argument("--p", type=int, default=1)
    p.add_argument("--q", type=int, default=1)
    p.add_argument("--t", type=int, default=1)
    p.set_defaults(func=_cmd_types_table)

    p = sub.add_parser("cuts", help="brute-force cut statistics")
    p.add_argument("graph")
    p.add_argument("--terminals", type=int, nargs="+")
    p.add_argument("-K", dest="k", type=int)
    p.set_defaults(func=_cmd_cuts)

    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
