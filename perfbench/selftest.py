"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py [workload ...]

Checks that
  1. two traced runs with the same seed give identical call and work
     counts (every per-layer metric whose unit is not a time);
  2. a deliberately wrong expected value is reported as a failed check,
     with `correct` false, so the checker can fail;
  3. the same seed builds the same inputs and a different seed other ones.
Defaults to the count and classify workloads; a traced gadgets run takes
over a minute.  Exits 1 if any test fails.
"""

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import fields, is_dataclass
from pathlib import Path

import run
import speed

TIMES = ("s", "ns/hom")


def canonical(value):
    """A seed-independent text form of check inputs, for comparing runs."""
    if hasattr(value, "edges") and hasattr(value, "n"):
        return "G(%d,%s)" % (value.n, sorted(value.edges))
    if isinstance(value, (set, frozenset)):
        return "{%s}" % ",".join(sorted(canonical(x) for x in value))
    if isinstance(value, (list, tuple)):
        return "[%s]" % ",".join(canonical(x) for x in value)
    if is_dataclass(value):
        return "%s(%s)" % (type(value).__name__, ",".join(canonical(getattr(value, f.name)) for f in fields(value)))
    return repr(value)


def traced_counts(workload, seed):
    cmd = [sys.executable, str(Path(run.__file__)), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", "1"]
    done = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=600, check=True)
    metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
    return {k: m["value"] for k, m in metrics.items() if m["unit"] not in TIMES and k != "trace.overhead_ratio"}


def fingerprint(workload, seed, sampler):
    lab, checks, _ = run.set_up(workload, seed, sampler)
    digest = hashlib.sha256()
    for check in checks:
        text = [check.cid, canonical(check.call)]
        if check.call[0] == "cli":  # the instance files are inputs too
            text += [Path(a).read_text() for argv, _ in check.call[1] for a in argv if os.path.isfile(a)]
        digest.update("\n".join(text).encode())
    return digest.hexdigest()


def wrong_expectation_fails(workload, sampler):
    lab, checks, _ = run.set_up(workload, 1, sampler)
    sample = [c for c in checks if not c.cid.startswith(("deep", "boost", "net-zphi"))][:5]
    for check in sample:
        check.expected = check.oracle()
    _, results = run.run_pass(lab, sample)
    honest = run.Tally()
    honest.add(sample, results, sampler)
    sample[0].expected = ("deliberately wrong", sample[0].expected)
    _, results = run.run_pass(lab, sample)
    broken = run.Tally()
    broken.add(sample, results, sampler)
    return honest.failed == 0 and broken.wrong == 1 and sample[0].cid in broken.failures


def main():
    chosen = sys.argv[1:] or ["count", "classify"]
    sys.path.insert(0, str(run.ROOT / "src"))
    failures = []
    for workload in chosen:
        before = len(failures)
        first, second = traced_counts(workload, 1), traced_counts(workload, 1)
        if first != second:
            failures.append("%s: traced counts differ: %s" % (
                workload, {k: (first[k], second.get(k)) for k in first if first[k] != second.get(k)}))
        with speed.Sampler() as sampler:
            if not wrong_expectation_fails(workload, sampler):
                failures.append("%s: a wrong expected value was not reported" % workload)
            a, b, c = (fingerprint(workload, s, sampler) for s in (1, 1, 2))
        if a != b:
            failures.append("%s: the same seed built different inputs" % workload)
        if a == c:
            failures.append("%s: seeds 1 and 2 built the same inputs" % workload)
        print("%s: %s" % (workload, "ok" if len(failures) == before else "FAILED"), flush=True)
    for line in failures:
        print(line)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
