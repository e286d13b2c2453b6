"""Command-line front end: decomposition queries, verification suites,
arc-diagram rendering, and JSON/CSV export.

Exit codes: 0 success, 1 usage error, 2 verification failure, 3 budget
exceeded.  All output is deterministic for fixed inputs.
"""

import argparse
import csv
import itertools
import json
import sys
from math import comb

from .qcalc import QPoly, ZERO, qbinom, qphi
from .setpart import (
    GroundSet, RegionSplit, EnumerationBoundExceeded, parse_partition,
)
from .nestposet import block_poset, poset_binom
from .oracle import (
    BudgetExceeded, DEFAULT_BUDGET, OracleInvariantError, superclass_orbits,
    module_trace, u_mu_matrix,
)
from .scfcore import supercharacter_table
from .restrict import (
    psiK, core, core_tensor, rainbow, peel, double_rainbow,
    OnionLayer, onion, ut_algebra,
)


class UsageError(Exception):
    pass


class VerifyFailure(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # one spelling per flag: no prefix abbreviations (verify --m would
    # otherwise read as --max)
    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise UsageError(message)


# --- shared flag parsing -----------------------------------------------------

def _ints(words, what):
    """The integers in `words`; a word that is not one is a usage error."""
    try:
        return [int(x) for x in words]
    except ValueError:
        raise UsageError(f"bad {what}") from None


def _reject_unread(args, what, reads):
    """A flag that `what` does not read is a usage error, not ignored."""
    unread = [f"--{dest.replace('_', '-')}"
              for dest, value in sorted(vars(args).items())
              if value is not None and dest not in reads
              and dest not in ("command", "family", "suite")]
    if unread:
        raise UsageError(f"{what} does not read {', '.join(unread)}")


def _parse_labels(text):
    labels = _ints(text.replace(",", " ").split(), f"label list {text!r}")
    if not labels or len(set(labels)) != len(labels):
        raise UsageError(f"labels must be distinct and nonempty: {text!r}")
    if min(labels) < 1:
        raise UsageError(f"labels must be positive: {text!r}")
    return labels


def _parse_split(text):
    parts = text.split(",")
    if len(parts) != 3:
        raise UsageError("--split wants three sizes a,b,c")
    a, b, c = _ints(parts, f"--split {text!r}")
    if min(a, b, c) < 0 or a + b + c == 0:
        raise UsageError("--split sizes must be nonnegative, not all zero")
    return RegionSplit.from_sizes(a, b, c)


def _parse_anchor_pairs(text):
    pairs = []
    for chunk in text.split(";"):
        parts = chunk.split(",")
        if len(parts) != 2:
            raise UsageError("--anchors wants pairs 'lo,hi' joined by ';'")
        lo, hi = _ints(parts, f"anchor pair {chunk!r}")
        if lo >= hi:
            raise UsageError(f"anchor pair {chunk!r} is not increasing")
        if lo < 1:
            raise UsageError(f"anchor pair {chunk!r} is not positive")
        pairs.append((lo, hi))
    return pairs


def _parse_ms(text):
    ms = _ints(text.split(","), f"--m-list {text!r}")
    if min(ms) < 1:
        raise UsageError(f"--m-list entries must be positive: {text!r}")
    return ms


def _ground(args):
    if args.labels is not None and args.n is not None:
        raise UsageError("give --n or --labels, not both")
    if args.labels:
        labels = _parse_labels(args.labels)
        if labels != sorted(labels):
            raise UsageError(f"--labels must be increasing: {args.labels!r}")
        return GroundSet(labels)
    if args.n is None:
        raise UsageError("need --n or --labels")
    if args.n < 1:
        raise UsageError("--n must be positive")
    return GroundSet.range(args.n)


# --- decompose ---------------------------------------------------------------

# the parameters each family reads besides --format, --q and --out
_FAMILY_FLAGS = {
    "rainbow": ("n", "labels", "m", "target"),
    "double-rainbow": ("split", "m", "ell", "target"),
    "onion": ("n", "labels", "anchors", "m_list"),
    "psi": ("n", "labels", "cols"),
    "core": ("n", "labels", "k"),
    "peel": ("split", "b", "f"),
    "ut-algebra": ("n", "labels", "target"),
}


def _build_decomposition(args):
    fam = args.family
    _reject_unread(args, fam, ("format", "q", "out") + _FAMILY_FLAGS[fam])
    if fam == "rainbow":
        target = args.target or "superchars"
        if target not in ("superchars", "core"):
            raise UsageError("rainbow --target must be superchars or core")
        if args.m is None or args.m < 0:
            raise UsageError("rainbow needs --m >= 0")
        return rainbow(_ground(args), args.m, target)
    if fam == "double-rainbow":
        if args.split is None:
            raise UsageError("double-rainbow needs --split a,b,c")
        target = args.target or "superchars"
        if target not in ("superchars", "peel", "trivial_coeff"):
            raise UsageError(
                "double-rainbow --target must be superchars, peel "
                "or trivial_coeff")
        if args.m is None or args.ell is None:
            raise UsageError("double-rainbow needs --m and --ell")
        if args.m < 0 or args.ell < 0:
            raise UsageError("double-rainbow needs --m >= 0 and --ell >= 0")
        return double_rainbow(_parse_split(args.split), args.m, args.ell,
                              target)
    if fam == "onion":
        if args.anchors is None or args.m_list is None:
            raise UsageError("onion needs --anchors and --m-list")
        pairs = _parse_anchor_pairs(args.anchors)
        ms = _parse_ms(args.m_list)
        if len(ms) != len(pairs):
            raise UsageError("--anchors and the m list disagree in length")
        outer = _ground(args)
        all_anchors = {x for p in pairs for x in p}
        if not all(pairs[0][0] < x < pairs[0][1] for x in outer):
            raise UsageError(
                "the ground set must lie between the outermost anchors")
        for (plo, phi), (lo, hi) in zip(pairs, pairs[1:]):
            if not plo <= lo < hi <= phi:
                raise UsageError("each anchor pair must nest inside the "
                                 "one before it")
        layers = []
        ground = outer
        for j, (lo, hi) in enumerate(pairs):
            if j > 0:
                inner = [x for x in ground
                         if lo < x < hi and x not in all_anchors]
                if not inner:
                    raise UsageError(f"layer {j + 1} has empty ground")
                ground = GroundSet(inner)
            layers.append(OnionLayer(ground, lo, hi))
        return onion(layers, ms)
    if fam == "psi":
        g = _ground(args)
        K = _parse_labels(args.cols) if args.cols else []
        if not set(K) <= set(g):
            raise UsageError("--cols must lie inside the ground set")
        return psiK(g, K).decomposition()
    if fam == "core":
        if args.k is None or args.k < 0:
            raise UsageError("core needs --k >= 0")
        return core(_ground(args), args.k).decomposition()
    if fam == "peel":
        if args.split is None:
            raise UsageError("peel needs --split a,b,c")
        if args.b is None or args.f is None:
            raise UsageError("peel needs --b and --f")
        return peel(_parse_split(args.split), args.b, args.f)
    if fam == "ut-algebra":
        target = args.target or "superchars"
        mod = ut_algebra(_ground(args))
        if target == "superchars":
            return mod.superchar_decomposition()
        if target == "core":
            return mod.core_style()
        raise UsageError("ut-algebra --target must be superchars or core")
    raise UsageError(f"unknown family {fam!r}")


def _coeff_text(coeff, q):
    if q is None:
        return str(coeff)
    return str(coeff(q))


def _emit_decomposition(dec, args, out):
    rows = [(label, _coeff_text(coeff, args.q))
            for label, coeff in dec.labels_text()]
    fmt = args.format or "text"
    if fmt == "json":
        obj = {"basis": dec.basis,
               "terms": [{"label": t, "coeff": c} for t, c in rows]}
        if args.q is not None:
            obj["q"] = args.q
        out.write(json.dumps(obj, sort_keys=True) + "\n")
    elif fmt == "csv":
        w = csv.writer(out, lineterminator="\n")
        w.writerow(["label", "coeff"])
        for t, c in rows:
            w.writerow([t, c])
    else:
        out.write(f"basis: {dec.basis}\n")
        width = max((len(t) for t, _ in rows), default=0)
        for t, c in rows:
            out.write(f"{t.ljust(width)}  {c}\n")
        if not rows:
            out.write("(zero)\n")


# --- qbinom ------------------------------------------------------------------

def _run_qbinom(args, out):
    if args.k is None or args.k < 0:
        raise UsageError("qbinom needs --k >= 0")
    shapes = [s for s in ("chain", "antichain", "partition")
              if getattr(args, s) is not None]
    if len(shapes) != 1:
        raise UsageError("qbinom wants exactly one of "
                         "--chain, --antichain, --partition")
    shape = shapes[0]
    _reject_unread(args, f"qbinom --{shape}",
                   ("k", shape, "n", "labels") if shape == "partition"
                   else ("k", shape))
    if shape == "chain":
        n = args.chain
        if n < 0:
            raise UsageError("--chain size must be nonnegative")
        out.write(str(qbinom(n, args.k)) + "\n")
        return
    if shape == "antichain":
        n = args.antichain
        if n < 0:
            raise UsageError("--antichain size must be nonnegative")
        blocks = [(x, x, 0) for x in range(1, n + 1)]
        out.write(str(poset_binom(blocks, args.k)) + "\n")
        return
    g = _ground(args)
    try:
        lam = parse_partition(args.partition, g)
    except Exception as exc:
        raise UsageError(f"bad partition: {exc}")
    out.write(str(poset_binom(block_poset(lam), args.k)) + "\n")


# --- show --------------------------------------------------------------------

def render_arcs(lam):
    """ASCII arc diagram with the arcs drawn below the node row."""
    labels = sorted(lam.ground)
    col = {}
    pos = 0
    header = []
    for x in labels:
        text = str(x)
        col[x] = pos + (len(text) - 1) // 2
        header.append(text)
        pos += len(text) + 1
    lines = [" ".join(header)]
    # inner arcs first so nesting reads outward down the page
    for i, j in sorted(lam.arcs, key=lambda a: (a[1] - a[0], a[0])):
        lo, hi = col[i], col[j]
        row = [" "] * (pos - 1)
        row[lo] = "+"
        row[hi] = "+"
        for c in range(lo + 1, hi):
            row[c] = "-"
        lines.append("".join(row).rstrip() + f"  ({i}-{j})")
    if not lam.arcs:
        lines.append("(no arcs)")
    return "\n".join(lines)


def _run_show(args, out):
    g = _ground(args)
    try:
        lam = parse_partition(" ".join(args.arcs), g)
    except Exception as exc:
        raise UsageError(f"bad partition: {exc}")
    out.write(render_arcs(lam) + "\n")


# --- verify ------------------------------------------------------------------

def _verify_grid(suites, bounds, budget, report):
    """The orbits, traces and solver suites in one walk over the grid.

    Each orbit table is built once, and each oracle trace (psiK for every
    column set K, then the algebra, at each u_mu) once.  The trace must
    equal the closed-form value at q = p (traces) and the closed-form
    coefficients at q = p rebuilt through the supercharacter table
    (solver); the table is invertible at p, so a matching rebuild proves
    the coefficients unique.  Each suite stops at its first failure.
    """
    live = [s for s in ("orbits", "traces", "solver") if s in suites]

    def fail(suite, name, detail):
        report(f"{suite} {name}", detail)
        live.remove(suite)

    for p in (2, 3):
        for n in range(1, bounds[p] + 1):
            if not live:
                return
            at = f"n={n} p={p}"
            try:
                table = superclass_orbits(n, p, budget=budget)
            except OracleInvariantError as exc:
                for suite in list(live):
                    fail(suite, at, exc)
                return
            checks = [s for s in ("traces", "solver") if s in live]
            if "orbits" in live:
                report(f"orbits {at}")
            if not checks:
                continue
            g = GroundSet.range(n)
            reps = [(mu, u_mu_matrix(mu, n)) for mu in table.reps]
            if "solver" in checks:
                parts, values = supercharacter_table(g, p)
                rows = dict(zip(parts, values))
            modules = []
            for r in range(n + 1):
                for K in map(frozenset, itertools.combinations(g, r)):
                    mod = psiK(g, K)
                    modules.append(("psiK", f"K={sorted(K)} ", ("psiK", K),
                                    mod.value, mod.decomposition))
            alg = ut_algebra(g)
            modules.append(("ut", "", ("utAlgebra",), alg.trace,
                            alg.superchar_decomposition))
            for kind, what, spec, value, decomposition in modules:
                name = f"{kind} {at}"
                if "solver" in live:
                    dec = decomposition()
                    coeffs = [dec[nu](p) for nu in parts]
                for mu, u in reps:
                    trace = module_trace(spec, u, p, n)
                    case = f"{what}mu={mu.label()} q={p} oracle={trace}"
                    if "traces" in live:
                        want = value(mu)(p)
                        if want != trace:
                            fail("traces", name, f"{case} formula={want}")
                    if "solver" in live:
                        got = sum(c * chi for c, chi in zip(coeffs, rows[mu]))
                        if got != trace:
                            fail("solver", name, f"{case} rebuilt={got}")
            for suite in checks:
                if suite in live:
                    report(f"{suite} {at}")


def _verify_identities(nmax, report):
    # phi telescoping
    for m in range(nmax + 3):
        for ell in range(m + 1):
            total = ZERO
            for k in range(ell, m + 1):
                total = total + (qphi(m - ell, k - ell) * qbinom(ell, k - ell)
                                 ).shift(comb(k - ell, 2))
            if total != QPoly.q_pow((m - ell) * ell):
                report("identities phi-telescoping",
                       f"m={m} ell={ell} got={total}")
                return
    report("identities phi-telescoping")
    # core tensor product as the equivalent Gaussian-binomial identity
    for n in range(nmax + 1):
        for k in range(n + 1):
            for j in range(k + 1):
                cmap = core_tensor(j, k, n)
                for l in range(n + 1):
                    lhs = qbinom(n - l, j).shift(comb(j, 2)) \
                        * qbinom(n - l, k).shift(comb(k, 2))
                    rhs = ZERO
                    for m, c in cmap.items():
                        rhs = rhs + c * qbinom(n - l, k + m) \
                            .shift(comb(k + m, 2))
                    if lhs != rhs:
                        report("identities core-tensor",
                               f"n={n} j={j} k={k} l={l} "
                               f"lhs={lhs} rhs={rhs}")
                        return
    report("identities core-tensor")
    # rainbow core/superchars consistency on small grounds
    for n in range(1, min(nmax, 5) + 1):
        g = GroundSet.range(n)
        for m in range(0, 4):
            by_core = rainbow(g, m, "core")
            direct = rainbow(g, m, "superchars")
            expanded = {}
            for lab, c in by_core.coeffs.items():
                k = lab.payload[0]
                for lam, d in core(g, k).decomposition().coeffs.items():
                    expanded[lam] = expanded.get(lam, ZERO) + c * d
            for lam in set(expanded) | set(direct.coeffs):
                a = expanded.get(lam, ZERO)
                b = direct.coeffs.get(lam, ZERO)
                if a != b:
                    report("identities rainbow-consistency",
                           f"n={n} m={m} lam={lam.label()} "
                           f"via-core={a} direct={b}")
                    return
    report("identities rainbow-consistency")


# the flags each verify suite reads
_SUITE_FLAGS = {"identities": ("max",), "all": ("n", "q", "budget", "max")}


def _run_verify(args, out):
    suite = args.suite
    _reject_unread(args, f"verify {suite}",
                   _SUITE_FLAGS.get(suite, ("n", "q", "budget")))
    for flag in ("n", "max", "budget"):
        value = getattr(args, flag)
        if value is not None and value < 1:
            raise UsageError(f"--{flag} must be positive")
    # the oracle grid: p=2 up to n=5, p=3 up to n=4
    caps = {2: 5, 3: 4}
    if args.q is not None and args.q not in caps:
        raise UsageError("verify oracle suites support --q 2 or 3")
    top = caps[args.q] if args.q else max(caps.values())
    if args.n is not None and args.n > top:
        raise UsageError(f"verify --n must be at most {top}"
                         + (f" with --q {args.q}" if args.q else ""))
    bounds = {p: min(args.n or cap, cap) if args.q in (None, p) else 0
              for p, cap in caps.items()}
    suites = (("orbits", "traces", "solver", "identities") if suite == "all"
              else (suite,))
    # one buffer per suite, printed in suite order
    lines = {s: [] for s in suites}

    def report(name, detail=None):
        """A PASS line for `name`, or with a detail a FAIL line."""
        buf = lines[name.split()[0]]
        if detail is None:
            buf.append(f"PASS  {name}")
        else:
            buf += [f"FAIL  {name}", f"      first counterexample: {detail}"]

    _verify_grid(suites, bounds, args.budget or DEFAULT_BUDGET, report)
    if "identities" in suites:
        _verify_identities(args.max or 8, report)
    lines = [line for s in suites for line in lines[s]]
    out.writelines(line + "\n" for line in lines)
    failures = sum(line.startswith("FAIL") for line in lines)
    if failures:
        raise VerifyFailure(f"{failures} check(s) failed")


# --- argument surface --------------------------------------------------------

def build_parser():
    p = _Parser(prog="utrestrict",
                description="Exact restriction calculus for unitriangular "
                            "supercharacters")
    sub = p.add_subparsers(dest="command")

    def add_ground(sp):
        sp.add_argument("--n", type=int, default=None)
        sp.add_argument("--labels", default=None)

    qb = sub.add_parser("qbinom", description="poset binomial coefficients")
    add_ground(qb)
    qb.add_argument("--k", type=int, default=None)
    qb.add_argument("--chain", type=int, default=None)
    qb.add_argument("--antichain", type=int, default=None)
    qb.add_argument("--partition", default=None)

    # export is decompose with JSON as the default format
    dp = sub.add_parser("decompose", aliases=["export"],
                        description="decomposition coefficients")
    dp.add_argument("family", choices=tuple(_FAMILY_FLAGS))
    add_ground(dp)
    dp.add_argument("--format", choices=("text", "json", "csv"), default=None)
    dp.add_argument("--q", type=int, default=None)
    dp.add_argument("--m", type=int, default=None)
    dp.add_argument("--ell", type=int, default=None)
    dp.add_argument("--split", default=None)
    dp.add_argument("--anchors", default=None)
    dp.add_argument("--target", default=None)
    dp.add_argument("--cols", default=None)
    dp.add_argument("--k", type=int, default=None)
    dp.add_argument("--b", type=int, default=None)
    dp.add_argument("--f", type=int, default=None)
    dp.add_argument("--m-list", dest="m_list", default=None)
    dp.add_argument("--out", default=None)

    sh = sub.add_parser("show", description="ASCII arc diagram")
    add_ground(sh)
    sh.add_argument("arcs", nargs="*")

    vf = sub.add_parser("verify", description="oracle verification suites")
    vf.add_argument("suite", choices=(
        "identities", "orbits", "traces", "solver", "all"))
    vf.add_argument("--n", type=int, default=None)
    vf.add_argument("--q", type=int, default=None)
    vf.add_argument("--max", type=int, default=None)
    vf.add_argument("--budget", type=int, default=None)
    return p


def run(argv, out=None):
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        raise UsageError("missing subcommand")
    if args.command == "qbinom":
        _run_qbinom(args, out)
    elif args.command in ("decompose", "export"):
        if args.command == "export" and args.format is None:
            args.format = "json"
        try:
            dec = _build_decomposition(args)
        except EnumerationBoundExceeded:
            raise
        except ValueError as exc:
            # engines reject out-of-range parameters with ValueError
            raise UsageError(str(exc)) from None
        if args.out:
            try:
                with open(args.out, "w") as fh:
                    _emit_decomposition(dec, args, fh)
            except OSError as exc:
                raise UsageError(f"cannot write --out {args.out!r}: "
                                 f"{exc.strerror}") from None
        else:
            _emit_decomposition(dec, args, out)
    elif args.command == "show":
        _run_show(args, out)
    elif args.command == "verify":
        _run_verify(args, out)
    return 0


def main(argv=None):
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        return run(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except VerifyFailure as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 2
    except (BudgetExceeded, EnumerationBoundExceeded) as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
