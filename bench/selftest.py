"""Self-test of the benchmark harness.

    python3 bench/selftest.py

1. Two traced runs at one seed must report identical counts for every
   per-layer count metric, with no failed operation, on every workload
   (about a minute each).
2. A deliberately corrupted coefficient must be counted as a failed
   operation, both for a query checked against module values and for one
   checked against a recorded digest.

Exits 1 on the first failed assertion.
"""

import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]

from utrestrict.qcalc import QPoly  # noqa: E402
from worker import run_pass  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 5


class SelfTestFailure(Exception):
    pass


def expect(ok, message):
    if not ok:
        raise SelfTestFailure(message)


def traced_counts(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"),
         "--workload", workload, "--seed", str(SEED), "--seconds", "1",
         "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    expect(proc.returncode == 0, f"run.py exited {proc.returncode}: "
                                 f"{proc.stderr.strip()}")
    result = json.loads(proc.stdout.splitlines()[-1])
    expect(result["correct"] and result["failed"] == 0,
           f"{workload}: traced run not correct: {proc.stdout}")
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] != "s"}


def test_counts_repeat(workload):
    first, second = traced_counts(workload), traced_counts(workload)
    differ = [name for name in first if first[name] != second[name]]
    expect(not differ, f"{workload}: counts differ between two traced runs: "
                       f"{[(n, first[n], second[n]) for n in differ]}")


def _corrupt(query, text):
    """Add one to the first coefficient of a JSON decompose output."""
    obj = json.loads(text)
    coeff = obj["terms"][0]["coeff"]
    obj["terms"][0]["coeff"] = (str(int(coeff) + 1) if query["spec"]["q"]
                                else str(QPoly.parse(coeff) + 1))
    return json.dumps(obj, sort_keys=True) + "\n"


def test_corruption_is_a_failure():
    workload = "sweep"
    targets = {"superchar": None, "digest": None}   # check -> query id

    def mutate(query, result):
        kind = query["check"]
        if (kind in targets and targets[kind] is None
                and query["spec"]["fmt"] == "json"
                and json.loads(result)["terms"]):
            targets[kind] = query["id"]
            return _corrupt(query, result)
        return result

    summary = run_pass(workload, SEED, True, mutate=mutate)
    failed = [i for i, e in enumerate(summary["errors"]) if e is not None]
    expect(None not in targets.values(), f"no query to corrupt: {targets}")
    expect(sorted(failed) == sorted(targets.values()),
           f"corrupted {targets}, but failures at {failed}: "
           f"{[summary['errors'][i] for i in failed]}")


def main():
    try:
        test_corruption_is_a_failure()
        print("PASS  a corrupted coefficient is a failed operation")
        for workload in WORKLOADS:
            test_counts_repeat(workload)
            print(f"PASS  counts repeat between two traced runs: {workload}")
    except SelfTestFailure as exc:
        print(f"FAIL  {exc}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
