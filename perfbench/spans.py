"""Span tracing for the traced run, installed from outside the program.

`Tracer.install` rebinds each function in `SPANNED` in every retlab module
namespace that holds it (so `count_list_homs` is replaced in `counting`,
`gadget_lab` and `cli` alike), which leaves `src/` untouched.  Spans stay
in memory as [name, start, end, active, parent, check id]; `active` is the
time the span was running, which for a generator is the sum over its
resumes.  A span's self time is its active time minus its children's.
"""

import functools
import inspect
import json
from collections import defaultdict
from time import perf_counter

SPANNED = {
    "graph_core": ("parse_graph", "induced_subgraph", "is_isomorphic"),
    "counting": ("count_list_homs", "count_weighted_list_homs", "iter_list_homs"),
    "structure": ("is_square_free", "classify_component_shape", "recognize_hbis", "find_mixed_triangle",
                  "find_induced_wr3", "find_induced_net", "find_induced_reflexive_cycle"),
    "classifier": ("classify", "classify_component"),
    "hbis_encoder": ("satisfying_assignments", "build_hve", "verify_hbis_encoding"),
    "gadget_lab": ("verify_pin_neighbourhood", "verify_two_pin", "verify_boost_decomposition",
                   "verify_degree2_bristle", "verify_wr3_zphi", "verify_net_zphi", "verify_cycle_gadget",
                   "enumerate_maximal_types", "check_kelk_condition", "find_dominance_params", "count_type"),
    "cli": ("main",),
}

WITNESS_FINDERS = ("find_mixed_triangle", "find_induced_wr3", "find_induced_net", "find_induced_reflexive_cycle")
RECURSION_COUNTED = ("counting.count_list_homs", "counting.count_weighted_list_homs", "counting.iter_list_homs")


def _boost_total(report):
    return next(int(d[6:]) for d in report.details if d.startswith("total="))


# Work counters read from a span's arguments and result: name -> [(counter, fn)].
WORK = {
    "counting.count_list_homs": [("counting.count_list_homs.homs", lambda a, r: r)],
    "graph_core.parse_graph": [("graph_core.parse_graph.bytes", lambda a, r: len(a[0].encode("utf-8")))],
    "structure.recognize_hbis": [("structure.recognize_hbis.hits", lambda a, r: r is not None)],
    "hbis_encoder.satisfying_assignments": [("hbis_encoder.satisfying_assignments.assignments", lambda a, r: len(r))],
    "hbis_encoder.build_hve": [("hbis_encoder.build_hve.pairs_checked", lambda a, r: r[0].n * (r[0].n + 1) // 2)],
    "gadget_lab.verify_boost_decomposition": [
        ("gadget_lab.boost.z_full", lambda a, r: r.lhs),
        ("gadget_lab.boost.total", lambda a, r: _boost_total(r)),
    ],
    "gadget_lab.count_type": [("gadget_lab.count_type.matched", lambda a, r: r)],
}
for _name in WITNESS_FINDERS:
    WORK["structure." + _name] = [("structure.witness_finders.hits", lambda a, r: r is not None)]

# Layer metric -> the end-to-end metrics (on which workloads) it should move.
LAYER_MAP = {
    "counting.count_list_homs.{calls,self_s,ns_per_hom}": "checks_per_s, check_ms.p90 on count; check_ms.p90 on gadgets; calls is 0 on classify",
    "counting.count_weighted_list_homs.self_s": "checks_per_s on count and gadgets (degree-2 bristle)",
    "counting.iter_list_homs.{self_s,yielded}": "checks_per_s on gadgets",
    "counting.recursion_errors": "pass_ratio on count",
    "gadget_lab.verify_*.self_s": "checks_per_s, check_ms.p90 on gadgets",
    "gadget_lab.boost.full_share": "checks_per_s on gadgets",
    "gadget_lab.count_type.match_share": "checks_per_s on gadgets",
    "gadget_lab.{enumerate_maximal_types,check_kelk_condition,find_dominance_params}.self_s": "check_ms.p50 on gadgets",
    "structure.{is_square_free,classify_component_shape}.self_s": "check_ms.p50, checks_per_s on classify",
    "structure.recognize_hbis.{calls,self_s,hit_ratio}": "check_ms.p50, checks_per_s on classify",
    "structure.witness_finders.{calls,self_s,hit_ratio}": "check_ms.p50, checks_per_s on classify",
    "classifier.classify.{calls,self_s}": "check_ms.p50 on classify",
    "classifier.classify_component.self_s": "check_ms.p50 on classify",
    "hbis_encoder.satisfying_assignments.{self_s,assignments}": "check_ms.p90 on classify",
    "hbis_encoder.build_hve.{self_s,pairs_checked}": "check_ms.p90 on classify",
    "hbis_encoder.verify_hbis_encoding.{calls,self_s}": "check_ms.p90 on classify",
    "graph_core.is_isomorphic.{calls,self_s}": "check_ms.p90 on classify",
    "graph_core.induced_subgraph.self_s": "check_ms.p50 on classify and gadgets",
    "graph_core.parse_graph.{self_s,bytes}": "check_ms.p50 on count and classify",
    "cli.main.{calls,self_s}": "check_ms.p50 on count and classify",
    "fail_ratio": "pass_ratio on every workload",
    "trace.overhead_ratio": "none; traced wall time over untraced wall time",
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.check_id = None
        self.counters = defaultdict(int)

    def install(self, lab):
        """Rebind every spanned function in all retlab module namespaces."""
        modules = list(vars(lab).values())
        for mod_name, names in SPANNED.items():
            for name in names:
                original = getattr(getattr(lab, mod_name), name)
                wrap = self._wrap_generator if inspect.isgeneratorfunction(original) else self._wrap
                wrapper = wrap("%s.%s" % (mod_name, name), original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)

    def _open(self, name):
        span = [name, 0.0, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.check_id]
        self.spans.append(span)
        return len(self.spans) - 1, span

    def _wrap(self, name, fn):
        work = WORK.get(name, ())
        count_recursion = name in RECURSION_COUNTED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx, span = self._open(name)
            self.stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except RecursionError:
                if count_recursion:
                    self.counters["counting.recursion_errors"] += 1
                raise
            finally:
                end = perf_counter()
                self.stack.pop()
                span[1], span[2], span[3] = start, end, end - start
            for counter, measure in work:
                self.counters[counter] += measure(args, result)
            return result

        return wrapper

    def _wrap_generator(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx, span = self._open(name)
            return self._drive(name, idx, span, fn(*args, **kwargs))

        return wrapper

    def _drive(self, name, idx, span, gen):
        yielded = 0
        try:
            while True:
                self.stack.append(idx)
                start = perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                except RecursionError:
                    if name in RECURSION_COUNTED:
                        self.counters["counting.recursion_errors"] += 1
                    raise
                finally:
                    end = perf_counter()
                    self.stack.pop()
                    if not span[1]:
                        span[1] = start
                    span[2] = end
                    span[3] += end - start
                yielded += 1
                yield item
        finally:
            self.counters[name + ".yielded"] += yielded
            parent = span[4]
            if parent >= 0 and self.spans[parent][0] == "gadget_lab.count_type":
                self.counters["gadget_lab.count_type.enumerated"] += yielded

    def self_times(self, rescale):
        """name -> [calls, self seconds], with each span's active time
        rescaled by the factor `rescale` gives its [start, end] interval."""
        active = [
            a * rescale(start, end) / (end - start) if end > start else a
            for _, start, end, a, _, _ in self.spans
        ]
        child = [0.0] * len(self.spans)
        for i, span in enumerate(self.spans):
            if span[4] >= 0:
                child[span[4]] += active[i]
        out = defaultdict(lambda: [0, 0.0])
        for i, span in enumerate(self.spans):
            out[span[0]][0] += 1
            out[span[0]][1] += active[i] - child[i]
        return out

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"fields": ["name", "start", "end", "active", "parent", "check"], "spans": self.spans}, f)

    def layer_metrics(self, rescale, overhead_ratio, fail_ratio):
        """Every per-layer metric with its unit."""
        times = self.self_times(rescale)
        c = self.counters
        out = {}

        def calls(name):
            out[name + ".calls"] = (times[name][0], "count")

        def self_s(name):
            out[name + ".self_s"] = (times[name][1], "s")

        def share(name, part, whole):
            out[name] = (part / whole if whole else 0.0, "ratio")

        for name in ("counting.count_list_homs", "classifier.classify", "hbis_encoder.verify_hbis_encoding",
                     "graph_core.is_isomorphic", "cli.main", "structure.recognize_hbis"):
            calls(name)
        for mod, names in SPANNED.items():
            for name in names:
                if name not in WITNESS_FINDERS:
                    self_s("%s.%s" % (mod, name))
        homs = c["counting.count_list_homs.homs"]
        out["counting.count_list_homs.ns_per_hom"] = (
            times["counting.count_list_homs"][1] * 1e9 / homs if homs else 0.0, "ns/hom")
        out["counting.iter_list_homs.yielded"] = (c["counting.iter_list_homs.yielded"], "count")
        out["counting.recursion_errors"] = (c["counting.recursion_errors"], "count")
        share("gadget_lab.boost.full_share", c["gadget_lab.boost.z_full"], c["gadget_lab.boost.total"])
        share("gadget_lab.count_type.match_share", c["gadget_lab.count_type.matched"],
              c["gadget_lab.count_type.enumerated"])
        share("structure.recognize_hbis.hit_ratio", c["structure.recognize_hbis.hits"],
              times["structure.recognize_hbis"][0])
        finders = ["structure." + f for f in WITNESS_FINDERS]
        finder_calls = sum(times[f][0] for f in finders)
        out["structure.witness_finders.calls"] = (finder_calls, "count")
        out["structure.witness_finders.self_s"] = (sum(times[f][1] for f in finders), "s")
        share("structure.witness_finders.hit_ratio", c["structure.witness_finders.hits"], finder_calls)
        out["hbis_encoder.satisfying_assignments.assignments"] = (
            c["hbis_encoder.satisfying_assignments.assignments"], "count")
        out["hbis_encoder.build_hve.pairs_checked"] = (c["hbis_encoder.build_hve.pairs_checked"], "count")
        out["graph_core.parse_graph.bytes"] = (c["graph_core.parse_graph.bytes"], "B")
        out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
        out["fail_ratio"] = (fail_ratio, "ratio")
        return out
