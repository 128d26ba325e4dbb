"""End-to-end benchmark of pcfzeros, with accuracy gates and a traced
per-layer split.

    python3 perfbench/run.py --workload {tables,hermite,grid,seed} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout: the package is imported from its
``src/`` directory, and nothing is installed or built.  One run

  1. times ``import pcfzeros`` in fresh interpreters (setup_s);
  2. makes the workload's calls once, untimed: the verification pass,
     whose outputs go through the accuracy gates after the timed passes;
  3. repeats the calls for --seconds (tracing off).  With --trace 1 it
     spends half of that untraced and half with every layer's public
     functions wrapped in spans, and reports the per-layer split;
  4. prints a report, then, as the last line, the result object
     {"correct", "attempted", "failed", "metrics"}.

End-to-end times are in reference seconds (see probe.py): each call's
and each import's wall time is scaled by the speed of the machine at
that moment.  The report also gives them in wall-clock seconds.
Per-layer times are wall-clock seconds.

An op fails when its call raised or exited non-zero without it, or when
it failed an accuracy gate.  `correct` is false when any returned value
failed a gate or a timed pass returned something other than the
verification pass.  Without pcfzeros sources under ./src the run exits
with status 1 and prints no result.
"""
import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

from probe import PROBE_REF_S, probe

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 5
# prints the import's wall seconds and the probe's around it (the best of
# three, as the probe is not yet warm in a fresh interpreter)
_IMPORT = ("import sys, time; sys.path[:0] = sys.argv[1:]; "
           "from probe import probe; p = min(probe() for _ in range(3)); "
           "t = time.perf_counter(); import pcfzeros; "
           "d = time.perf_counter() - t; "
           "print(d, (p + min(probe() for _ in range(3))) / 2)")


def load_program():
    """Put the checkout's src/ first on sys.path; exit if it is absent."""
    if not os.path.isfile(os.path.join(SRC, "pcfzeros", "__init__.py")):
        sys.exit(f"perfbench: no pcfzeros sources under {SRC}")
    sys.path.insert(0, SRC)


def setup_times():
    """(import seconds, probe seconds) in each of SETUP_REPEATS fresh
    interpreters."""
    out = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", _IMPORT, SRC, HERE],
                              capture_output=True, text=True, timeout=120,
                              check=True, cwd=ROOT)
        out.append(tuple(map(float, proc.stdout.split())))
    return out


def environment(seed):
    import mpmath
    import numpy
    import scipy
    import pcfzeros
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or commit
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "mpmath": mpmath.__version__,
            "kernel_backend": pcfzeros.kernel_backend,
            "nproc": os.cpu_count(), "machine": platform.machine(),
            "seed": seed, "commit": commit}


@dataclass
class Pass:
    latencies: list = field(default_factory=list)  # wall seconds per call
    scales: list = field(default_factory=list)     # PROBE_REF_S / probe s
    outcomes: list = field(default_factory=list)
    repeatable: bool = True  # every result equals the expected one

    def seconds(self, scaled):
        """Per-call seconds, in reference seconds when `scaled`."""
        if not scaled:
            return self.latencies
        return [t * s for t, s in zip(self.latencies, self.scales)]


def run_pass(calls, workdir, expected=None):
    """Make every call once, with the probe timed around each.  Keeps the
    outcomes, or, given the `expected` ones, only whether they match (so
    that memory does not grow with the number of passes)."""
    from workloads import run_call
    clock = time.perf_counter
    p = Pass()
    before = probe()
    for i, call in enumerate(calls):
        t0 = clock()
        out = run_call(call, workdir)
        p.latencies.append(clock() - t0)
        after = probe()
        p.scales.append(2.0 * PROBE_REF_S / (before + after))
        before = after
        if expected is None:
            p.outcomes.append(out)
        elif out.result != expected[i].result:
            p.repeatable = False
    return p


def timed_passes(calls, workdir, seconds, expected):
    """Whole passes, repeated until `seconds` have elapsed (at least one)."""
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(calls, workdir, expected))
    return passes


def quantile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def timings(passes, certified, setup, scaled):
    """ops_per_s (median over passes), percentiles over the workload's
    calls of each call's median latency over the passes, and the median
    import time; in reference seconds when `scaled`."""
    per_pass = [p.seconds(scaled) for p in passes]
    ms = [1e3 * statistics.median(c) for c in zip(*per_pass)]
    return {
        "ops_per_s": statistics.median(certified / sum(c) for c in per_pass),
        "call_ms_p50": quantile(ms, 50),
        "call_ms_p90": quantile(ms, 90),
        "setup_s": statistics.median(
            d * (PROBE_REF_S / p if scaled else 1.0) for d, p in setup),
    }


def end_to_end(passes, certified, attempted, setup, rss_mb):
    units = {"ops_per_s": "1/s", "call_ms_p50": "ms", "call_ms_p90": "ms",
             "setup_s": "s"}
    m = {k: {"value": v, "unit": units[k]}
         for k, v in timings(passes, certified, setup, True).items()}
    m["certified_ratio"] = {"value": certified / attempted, "unit": "ratio"}
    m["peak_rss_mb"] = {"value": rss_mb, "unit": "MB"}
    return m


def main(argv=None):
    load_program()
    import spans
    import workloads

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    clock = time.perf_counter
    phase_s = {}
    t0 = clock()
    setup = setup_times()
    phase_s["setup"] = clock() - t0
    calls = workloads.calls_for(args.workload, args.seed)
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        t0 = clock()
        expected = run_pass(calls, workdir).outcomes
        phase_s["verification_pass"] = clock() - t0
        t0 = clock()
        if args.trace:
            half = args.seconds / 2.0
            untraced = timed_passes(calls, workdir, half, expected)
            tracer = spans.Tracer()
            with spans.traced(tracer):
                passes = timed_passes(calls, workdir, half, expected)
            measured = untraced + passes
        else:
            passes = measured = timed_passes(calls, workdir, args.seconds,
                                             expected)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        phase_s["timed_passes"] = clock() - t0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    t0 = clock()
    rng = random.Random(args.seed)
    verdicts = [workloads.verify(c, o, rng) for c, o in zip(calls, expected)]
    phase_s["gates"] = clock() - t0
    flat = [v for vs in verdicts for v in vs]
    attempted = len(flat)
    certified = flat.count(True)
    repeatable = all(p.repeatable for p in measured)
    correct = repeatable and False not in flat

    if args.trace:
        summary = tracer.summary()
        # in reference seconds: the halves may see different machine speeds
        overhead_s = (statistics.fmean(sum(p.seconds(True)) for p in passes)
                      - statistics.fmean(sum(p.seconds(True))
                                         for p in untraced))
        metrics = spans.layer_metrics(
            summary, len(passes), sum(sum(p.latencies) for p in passes),
            overhead_s)
    else:
        metrics = end_to_end(passes, certified, attempted, setup, rss_mb)

    report = {
        "environment": environment(args.seed),
        "workload": args.workload, "seconds": args.seconds,
        "trace": args.trace,
        "passes": len(measured),
        "latency_samples": sum(len(p.latencies) for p in passes),
        "setup_samples_s": [d for d, _ in setup],
        "probe_ms_median": 1e3 * statistics.median(
            PROBE_REF_S / s for p in measured for s in p.scales),
        "wall_clock": timings(passes, certified, setup, False),
        "phase_s": phase_s,
        "repeatable": repeatable,
        "calls": [{"call": " ".join(map(str, c.args)), "ops": c.ops,
                   "certified": vs.count(True),
                   "gate_failures": vs.count(False),
                   "not_returned": vs.count(None),
                   "error": o.error.splitlines()[-1] if o.error else ""}
                  for c, o, vs in zip(calls, expected, verdicts)],
        "metrics": metrics,
    }
    if args.trace:
        report["spans"] = {
            name: {"calls": s["calls"], "failed": s["failed"],
                   "total_s": s["total_s"], "self_s": s["self_s"],
                   "parents": sorted(s["parents"])}
            for name, s in sorted(summary.items())}
        report["traced_passes"] = len(passes)
    print(json.dumps(report, indent=1))
    print(json.dumps({"correct": correct,
                      "attempted": attempted * len(measured),
                      "failed": (attempted - certified) * len(measured),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
