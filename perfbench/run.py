"""retlab benchmark: seeded checks, each with an independent expected value.

    python3 perfbench/run.py --workload count --seed 1 --seconds 30 --trace 0

Run from the repository root; retlab is imported from `src/`.  One
single-threaded process runs one workload (see `workloads.WORKLOADS`;
why each was chosen is recorded in BENCHMARK.json).

Set-up (import retlab, build the seeded inputs, write the CLI's instance
files) runs five times before the first pass and once more after each
pass, and `setup_s` is the median.  Expected values are computed by
`oracles` once, outside every timed span.  An untraced run (`--trace 0`)
repeats whole passes over the checks while the next pass is predicted to
end within `--seconds` of wall time (at least one pass) and reports the
end-to-end metrics.  A traced run (`--trace 1`) makes one untraced and one
traced pass, so its call and work counts repeat exactly for a seed, and
reports the per-layer metrics; its spans go to `.perfbench/trace/`.

Every reported time is rescaled to a reference interpreter speed by
`speed.Sampler`, because this machine's speed drifts; the raw wall times
of the passes are printed on a comment line before the result.

A check fails when its observed value differs from the expected one or
when it raises.  `failed` counts both; `correct` is false only when some
check returned a wrong answer or exit code.  A failed check takes +inf
time in the percentiles.  The last line of stdout is the JSON result.
"""

import argparse
import gc
import importlib
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import spans
import speed
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
MODULES = ("graph_core", "counting", "structure", "classifier", "hbis_encoder", "gadget_lab", "cli")
SETUP_REPEATS = 5


class Raised:
    """A check's exception, by name only: keeping the exception would keep
    its traceback, which after a RecursionError holds a thousand frames."""

    def __init__(self, exc):
        self.name = type(exc).__name__


def load_lab():
    """Import every retlab module afresh, so each set-up pays the import."""
    for name in [m for m in sys.modules if m == "retlab" or m.startswith("retlab.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module("retlab." + m) for m in MODULES})


def set_up(workload, seed, sampler):
    """One set-up: import retlab, build the inputs, write the CLI's files."""
    t0 = perf_counter()
    lab = load_lab()
    checks = workloads.build(workload, seed, lab, OUT / "work")
    return lab, checks, sampler.rescale(t0, perf_counter())


def execute(lab, call):
    if call[0] == "api":
        _, module, function, args = call
        return getattr(getattr(lab, module), function)(*args)
    out = ""
    saved = sys.stdin
    try:
        for argv, stdin in call[1]:
            sys.stdin = io.StringIO(out if stdin is None else stdin)
            buf = io.StringIO()
            with redirect_stdout(buf), redirect_stderr(io.StringIO()):
                code = lab.cli.main(list(argv))
            out = buf.getvalue()
    finally:
        sys.stdin = saved
    return code, out


def run_pass(lab, checks, tracer=None):
    """Run every check once; returns ((start, end), [(t0, t1, outcome)]).
    Each pass starts from a collected heap, so that the garbage left by
    set-up and oracles does not land in whichever checks run first."""
    results = []
    gc.collect()
    start = perf_counter()
    for check in checks:
        if tracer:
            tracer.check_id = check.cid
        t0 = perf_counter()
        try:
            outcome = execute(lab, check.call)
        except Exception as exc:  # a failed check, recorded and counted
            outcome = Raised(exc)
        results.append((t0, perf_counter(), outcome))
    return (start, perf_counter()), results


class Tally:
    """Outcomes compared with expected values, outside the timed spans."""

    def __init__(self):
        self.times, self.ok, self.wrong, self.errors = [], 0, 0, 0
        self.failures = {}

    @property
    def attempted(self):
        return len(self.times)

    @property
    def failed(self):
        return self.wrong + self.errors

    def add(self, checks, results, sampler):
        for check, (t0, t1, outcome) in zip(checks, results):
            if isinstance(outcome, Raised):
                observed = ("raised", outcome.name)
            else:
                try:
                    observed = check.observe(outcome)
                except Exception as exc:  # an outcome the check cannot read is wrong
                    observed = ("unreadable", repr(exc))
            if observed == check.expected:
                self.ok += 1
                self.times.append(sampler.rescale(t0, t1))
                continue
            expected_raise = isinstance(check.expected, tuple) and check.expected[:1] == ("raised",)
            if isinstance(outcome, Raised) and not expected_raise:
                self.errors += 1
            else:
                self.wrong += 1
            self.times.append(math.inf)
            self.failures[check.cid] = (observed, check.expected)


def percentile(values, p):
    """Nearest-rank percentile; +inf entries sort last."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def measure(args, lab, checks, sampler, setups):
    """The untraced run: whole passes, then the end-to-end metrics."""
    tally, walls, timed = Tally(), [], 0.0
    while not walls or sum(walls) + walls[-1] <= args.seconds:
        (start, end), results = run_pass(lab, checks)
        walls.append(end - start)
        timed += sampler.rescale(start, end)
        tally.add(checks, results, sampler)
        setups.append(set_up(args.workload, args.seed, sampler)[2])
    metrics = {
        "checks_per_s": (tally.ok / timed, "1/s"),
        "check_ms.p50": (percentile(tally.times, 50) * 1e3, "ms"),
        "check_ms.p90": (percentile(tally.times, 90) * 1e3, "ms"),
        "pass_ratio": (tally.ok / tally.attempted, "ratio"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return tally, walls, metrics


def trace(args, lab, checks, sampler):
    """The traced run: one untraced pass, then one traced pass."""
    tally = Tally()
    (start, end), results = run_pass(lab, checks)
    tally.add(checks, results, sampler)
    untraced = sampler.rescale(start, end)
    tracer = spans.Tracer()
    tracer.install(lab)
    (t_start, t_end), results = run_pass(lab, checks, tracer)
    tally.add(checks, results, sampler)
    tracer.write(OUT / "trace" / ("%s-seed%d.json" % (args.workload, args.seed)))
    metrics = tracer.layer_metrics(sampler.rescale, sampler.rescale(t_start, t_end) / untraced,
                                   tally.failed / tally.attempted)
    return tally, [end - start, t_end - t_start], metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    with speed.Sampler() as sampler:
        setups = []
        try:
            for _ in range(SETUP_REPEATS):
                lab, checks, seconds = set_up(args.workload, args.seed, sampler)
                setups.append(seconds)
        except ImportError as exc:
            print("cannot import retlab from %s: %s" % (ROOT / "src", exc), file=sys.stderr)
            return 2
        for check in checks:
            check.expected = check.oracle()
        if args.trace:
            tally, walls, metrics = trace(args, lab, checks, sampler)
        else:
            tally, walls, metrics = measure(args, lab, checks, sampler, setups)

    print("# workload=%s seed=%d checks_per_pass=%d python=%s recursionlimit=%d nproc=%s"
          % (args.workload, args.seed, len(checks), platform.python_version(), sys.getrecursionlimit(),
             os.cpu_count()))
    print("# raw pass wall s: %s" % " ".join("%.3f" % w for w in walls))
    for cid, (observed, expected) in sorted(tally.failures.items()):
        print("# failed %s: observed %.100r expected %.100r" % (cid, observed, expected))
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
