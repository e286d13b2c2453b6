"""utrestrict benchmark runner.

    python3 bench/run.py --workload engines --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Each pass is one fresh, single-threaded
interpreter (bench/worker.py) that issues the workload's seeded query list
serially, so program caches start cold as they do for a CLI user.  Passes
repeat, one at a time, while another one still fits in --seconds (there is
always at least one).  Set-up time is also sampled by a few processes that
only import the package.

The first pass checks every output; every later pass must print the same
output.  Times are taken at the reference speed: scaled by how fast a fixed
loop runs on the same CPU at the same moment (refclock.py), because other
tenants of the host change its speed by up to 70%.  --trace 0 reports the
end-to-end metrics: each query's time is its median over the passes, and
wall_s, query_p50_ms and query_max_ms are the sum, median and maximum of
those times; setup_s and peak_rss_mb are medians.  --trace 1 runs each pass twice, untraced and then with the layer
tracer, and reports the per-layer metrics: counts from the traced passes
(which must agree exactly), times as medians, and the tracing overhead.

Lines before the last one on stdout describe the run (pass and sample
counts, per-query times of the ROADMAP baseline commands, failures).  The
last line is the result object.  Spans of the last traced pass go to
.bench_out/spans-<workload>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from refclock import REF_KERNEL_S, RefClock
from workloads import WORKLOADS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKER = os.path.join(BENCH_DIR, "worker.py")
OUT_DIR = os.path.join(ROOT, ".bench_out")

SETUP_PROBES = 15
REF_SAMPLES = 25     # reference-loop samples before and after a probe
TIME_LIMIT_S = 170      # the whole run, set-up and passes included


class BenchError(Exception):
    pass


def _monotonic():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _spin():
    """A few milliseconds of fixed interpreter work."""
    total = 0
    for i in range(20000):
        total += i * i
    return total


class Runner:
    def __init__(self, start):
        self.start = start
        self.env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
                        PYTHONHASHSEED="0")
        # the first worker writes bytecode caches, so that set-up time is
        # import time, as for an installed CLI, and not compile time
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.cpus = sorted(os.sched_getaffinity(0))

    def _pin_to_quietest_cpu(self):
        """Pin this process, and so the next worker, to the CPU that runs a
        fixed loop fastest right now.  Other tenants load the CPUs unevenly
        and in bursts of seconds, so this avoids most of their load."""
        best = None
        try:
            for cpu in self.cpus:
                os.sched_setaffinity(0, {cpu})
                t = time.perf_counter()
                _spin()
                took = time.perf_counter() - t
                if best is None or took < best[0]:
                    best = (took, cpu)
            os.sched_setaffinity(0, {best[1]})
        except OSError:     # pinning refused: run wherever the OS places it
            os.sched_setaffinity(0, self.cpus)

    def setup_probe(self):
        """Set-up time of one fresh interpreter, at the reference speed:
        scaled by the reference loop's speed just before and after it on
        the probe's CPU (see refclock.py)."""
        self._pin_to_quietest_cpu()
        ref = RefClock()
        for _ in range(REF_SAMPLES):
            ref.measure()
        setup_s = self.spawn("setup", pin=False)["setup_s"]
        for _ in range(REF_SAMPLES):
            ref.measure()
        return setup_s * REF_KERNEL_S / ref.median()

    def spawn(self, *args, pin=True):
        """Run one worker to completion; returns its JSON summary."""
        left = TIME_LIMIT_S - (_monotonic() - self.start)
        if left <= 0:
            raise BenchError("time limit reached")
        if pin:
            self._pin_to_quietest_cpu()
        t0 = _monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, WORKER, repr(t0), *map(str, args)],
                env=self.env, cwd=ROOT, capture_output=True, text=True,
                timeout=left)
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker {args} exceeded the time limit")
        if proc.returncode != 0:
            raise BenchError(f"worker {args} exited {proc.returncode}:\n"
                             f"{proc.stderr.strip()}")
        return json.loads(proc.stdout.splitlines()[-1])


def _load_metric_units():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def _layer_values(traced):
    """Per-layer values over the traced passes: times are medians, counts
    must repeat exactly."""
    first = traced[0]["layers"]
    values, mismatched = {}, []
    for name, value in first.items():
        if name.endswith("_s"):
            values[name] = statistics.median(t["layers"][name] for t in traced)
        else:
            values[name] = value
            if any(t["layers"][name] != value for t in traced):
                mismatched.append(name)
    return values, mismatched


def _failures(passes, checked_hashes):
    """(failed operations, reasons): a query fails in a pass when it raised,
    failed its check, or printed other output than in the checked pass."""
    failed, reasons = 0, []
    for p in passes:
        for name, error, h, want in zip(p["names"], p["errors"], p["hashes"],
                                        checked_hashes):
            if error is None and h != want:
                error = "output differs from the checked pass"
            if error is not None:
                failed += 1
                reasons.append(f"{name}: {error}")
    return failed, reasons


def run(workload, seed, seconds, trace):
    start = _monotonic()
    runner = Runner(start)
    os.makedirs(OUT_DIR, exist_ok=True)
    spans = ("--spans", os.path.join(OUT_DIR, f"spans-{workload}.json"))

    runner.spawn("setup")   # writes bytecode caches; not measured
    setups = [runner.setup_probe() for _ in range(SETUP_PROBES)]
    # the first pass checks every output; later passes must repeat it
    passes, traced = [], []
    check = ("--check",)
    while True:
        t = _monotonic()
        passes.append(runner.spawn("pass", workload, seed, *check))
        if trace:
            traced.append(runner.spawn("pass", workload, seed, *spans))
        check = ()
        now = _monotonic()
        if (now - start) + (now - t) > seconds:   # another would not fit
            break

    every = passes + traced
    # a query's time is its median over the passes, at the reference speed
    query_s = [statistics.median(times)
               for times in zip(*(p["query_s"] for p in passes))]
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(query_s),
        "query_p50_ms": statistics.median(query_s) * 1000,
        "query_max_ms": max(query_s) * 1000,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    mismatched = []
    if trace:
        layers, mismatched = _layer_values(traced)
        values.update(layers)
        values["trace.overhead_s"] = (
            statistics.median(sum(t["query_s"]) for t in traced)
            - statistics.median(sum(p["query_s"]) for p in passes))

    failed, reasons = _failures(every, passes[0]["hashes"])
    reasons += [f"count {name} differs between traced passes"
                for name in mismatched]
    names = passes[0]["names"]
    print(json.dumps({
        "workload": workload, "seed": seed, "trace": trace,
        "passes": len(passes), "traced_passes": len(traced),
        "queries_per_pass": len(names), "setup_samples": len(setups),
        "pass_wall_s": [sum(p["query_s"]) for p in passes],
        "pass_raw_wall_s": [sum(p["raw_query_s"]) for p in passes],
        "pass_ref_kernel_us": [p["ref_kernel_s"] * 1e6 for p in passes],
        "baseline_query_ms": {name: t * 1000 for name, t, b in
                              zip(names, query_s, passes[0]["baseline"])
                              if b},
        "failures": reasons[:20]}))

    e2e_units, layer_units = _load_metric_units()
    units = layer_units if trace else e2e_units
    print(json.dumps({
        "correct": not reasons,
        "attempted": sum(len(p["names"]) for p in every),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "utrestrict", "cli.py")):
        print("bench: src/utrestrict is missing; run from a utrestrict "
              "checkout", file=sys.stderr)
        return 2
    try:
        run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
