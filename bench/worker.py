"""One benchmark pass in a fresh interpreter.

    python3 bench/worker.py T0 setup
    python3 bench/worker.py T0 pass WORKLOAD SEED [--check] [--spans PATH]

T0 is the CLOCK_MONOTONIC reading the parent took just before starting
this process, so set-up time runs from interpreter start until utrestrict
is imported.  A pass issues the seeded query list serially through the
public entry points with caches cold; each query's time is also given at
the reference speed (refclock.py).  Outside the timed region it hashes
every output and, with --check, checks every output.  With --spans the
layer tracer is installed for the timed region and its spans are written
to PATH.  The worker prints one JSON object on stdout.
"""

import sys
import time

import utrestrict.cli  # noqa: F401  set-up ends when the package is ready

READY = time.clock_gettime(time.CLOCK_MONOTONIC)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

from checks import check, load_digests, solver_inputs  # noqa: E402
from refclock import RefClock  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import make_queries  # noqa: E402

from utrestrict import cli, scfcore  # noqa: E402


def _solve(spec):
    """A solver query: the exact symbolic solver on a restricted character,
    with the degree bound the acceptance tests use (largest value degree
    plus a margin)."""
    lam, inner, _ = solver_inputs(spec)
    f = scfcore.restrict_values(lam, inner)
    bound = max(len(v.coeffs) for v in f.values.values()) + 16
    return scfcore.decompose_exact(f, bound)


def output_digest(result):
    """Hash of a query result: CLI output text, or a solver Decomposition."""
    if not isinstance(result, str):
        result = json.dumps([result.basis, [(t, str(c))
                                            for t, c in result.labels_text()]])
    return hashlib.sha256(result.encode()).hexdigest()


def run_pass(workload, seed, do_check, tracer=None, mutate=None):
    """Run one pass; returns its summary as a dict.

    `mutate(query, result)`, when given, may alter a result before it is
    checked; the self-test uses it to corrupt a coefficient.
    """
    queries = make_queries(workload, seed)
    results, errors, spans = [], [], []
    bytes_out = 0
    ref = RefClock()
    if tracer is not None:
        tracer.install()
    ref.install()
    for query in queries:
        if tracer is not None:
            tracer.query = query["id"]
        out = io.StringIO()
        t0, h0 = ref.now()
        try:
            if query["argv"] is None:
                result = _solve(query["spec"])
            else:
                cli.run(query["argv"], out)
                result = out.getvalue()
            error = None
        except Exception as exc:  # a failing query is a failed operation
            result, error = None, f"{type(exc).__name__}: {exc}"
        t1, h1 = ref.now()
        spans.append((t0, t1, (t1 - t0) - (h1 - h0)))
        results.append(result)
        errors.append(error)
        bytes_out += len(out.getvalue().encode())
    ref.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()

    digests = load_digests() if do_check else None
    hashes = []
    for i, query in enumerate(queries):
        if errors[i] is None:
            if mutate is not None:
                results[i] = mutate(query, results[i])
            if do_check:
                errors[i] = check(query, results[i], workload, seed, digests)
        hashes.append(None if results[i] is None
                      else output_digest(results[i]))
    summary = {
        # each query's time at the reference speed (see refclock.py)
        "query_s": [took * ref.scale(t0, t1) for t0, t1, took in spans],
        "raw_query_s": [took for _, _, took in spans],
        "ref_kernel_s": ref.median(),
        "peak_rss_mb": peak_rss_mb,
        "names": [q["name"] for q in queries],
        "baseline": [q["baseline"] for q in queries],
        "errors": errors,
        "hashes": hashes,
    }
    if tracer is not None:
        summary["layers"] = tracer.layer_metrics(bytes_out)
    return summary


def main(argv):
    t0 = float(argv[0])
    out = {"setup_s": READY - t0}
    if argv[1] == "pass":
        ap = argparse.ArgumentParser(prog="worker.py T0 pass")
        ap.add_argument("workload")
        ap.add_argument("seed", type=int)
        ap.add_argument("--check", action="store_true")
        ap.add_argument("--spans")
        args = ap.parse_args(argv[2:])
        tracer = Tracer() if args.spans else None
        out.update(run_pass(args.workload, args.seed, args.check, tracer))
        if tracer is not None:
            tracer.write_spans(args.spans)
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
