"""Command-line front end: decomposition queries, verification suites,
arc-diagram rendering, and JSON/CSV export.

Exit codes: 0 success, 1 usage error or stdout closed early (nothing is
printed to stderr then), 2 verification failure, 3 budget exceeded.  All
output is deterministic for fixed inputs.
"""

import argparse
import csv
import functools
import itertools
import json
import os
import re
import sys
from argparse import ArgumentTypeError
from json.encoder import encode_basestring_ascii

from .qcalc import QPoly, ZERO, e_k, qbinom, qphi
from .setpart import (
    GroundSet, RegionSplit, EnumerationBoundExceeded, parse_partition,
)
from .nestposet import block_poset, poset_binom
from .oracle import (
    DEFAULT_BUDGET, OracleInvariantError, superclass_orbits,
    module_trace, u_mu_matrix,
)
from .scfcore import supercharacter_table
from .restrict import (
    psiK, core, core_tensor, rainbow, peel, double_rainbow, onion,
    ut_algebra,
)


class UsageError(Exception):
    pass


class VerifyFailure(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # one spelling per flag: no prefix abbreviations (verify all --m would
    # otherwise read as --max)
    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise UsageError(message)


# --- flag values -------------------------------------------------------------
# type= converters: a bad value raises ArgumentTypeError, which argparse turns
# into a usage error that names the flag

_INTEGER = re.compile(r"-?[0-9]+")
# the most digits an integer flag may have: CPython's default cap on int() of
# a str, fixed here so that an interpreter without that cap refuses the same
# words, and the refusal does not echo them
MAX_DIGITS = 4300


def _ints(words, what):
    """The integers in `words`; a word that is not one, in ASCII digits with
    an optional minus sign, is a bad value (int() also reads "1_0", "+1",
    " 1" and non-ASCII digits), and so is one of more than MAX_DIGITS
    digits."""
    if not all(map(_INTEGER.fullmatch, words)):
        raise ArgumentTypeError(f"bad {what}")
    if any(len(x) - (x[0] == "-") > MAX_DIGITS for x in words):
        raise ArgumentTypeError(f"an integer has more than {MAX_DIGITS} "
                                "digits")
    return [int(x) for x in words]


def _integer(text):
    """The converter of every integer flag."""
    [n] = _ints([text], f"integer {text!r}")
    return n


def _at_least(lo):
    """The converter of an integer flag whose value must be at least lo."""
    def convert(text):
        n = _integer(text)
        if n < lo:
            raise ArgumentTypeError(f"must be at least {lo}: {n}")
        return n
    return convert


def _labels(text):
    labels = _ints(text.replace(",", " ").split(), f"label list {text!r}")
    if not labels or len(set(labels)) != len(labels) or min(labels) < 1:
        raise ArgumentTypeError(
            f"labels must be distinct, positive and nonempty: {text!r}")
    return labels


def _ground_labels(text):
    labels = _labels(text)
    if labels != sorted(labels):
        raise ArgumentTypeError(f"labels must be increasing: {text!r}")
    return GroundSet(labels)


def _ground_size(text):
    return GroundSet.range(_at_least(1)(text))


def _cols(text):
    # --cols "" is the empty column set
    return _labels(text) if text else []


def _split(text):
    sizes = _ints(text.split(","), f"split {text!r}")
    if len(sizes) != 3 or min(sizes) < 0 or sum(sizes) == 0:
        raise ArgumentTypeError("wants three sizes a,b,c, nonnegative and "
                                f"not all zero: {text!r}")
    return RegionSplit.from_sizes(*sizes)


def _anchor_pairs(text):
    pairs = []
    for chunk in text.split(";"):
        pair = _ints(chunk.split(","), f"anchor pair {chunk!r}")
        if len(pair) != 2 or not 1 <= pair[0] < pair[1]:
            raise ArgumentTypeError("wants pairs 'lo,hi', 1 <= lo < hi, "
                                    f"joined by ';': {chunk!r}")
        pairs.append(tuple(pair))
    return pairs


def _m_list(text):
    ms = _ints(text.split(","), f"m list {text!r}")
    if min(ms) < 1:
        raise ArgumentTypeError(f"entries must be positive: {text!r}")
    return ms


# --- decompose ---------------------------------------------------------------

def _build_ut_algebra(args):
    mod = ut_algebra(args.ground)
    if args.target == "core":
        return mod.core_style()
    return mod.superchar_decomposition()


def _run_decompose(args, out):
    if args.command == "export" and args.format is None:
        args.format = "json"
    try:
        dec = args.build(args)
    except ValueError as exc:
        # engines reject out-of-range parameters with ValueError
        raise UsageError(str(exc)) from None
    labels, coeffs = dec.columns()
    # every text is made before --out opens its file: a --q too large to
    # print leaves no file behind
    texts = _coeff_texts(coeffs, args.q)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                _emit_decomposition(dec.basis, labels, texts, args, fh)
        except OSError as exc:
            raise UsageError(f"cannot write --out {args.out!r}: "
                             f"{exc.strerror}") from None
    else:
        _emit_decomposition(dec.basis, labels, texts, args, out)


def _coeff_texts(coeffs, q):
    """The text of each coefficient, or of its value at q, made once per
    distinct value: equal coefficients need not be one object (core --n 9
    --k 4 has 155 values in 10,096 rows)."""
    distinct = {coeff.coeffs: coeff for coeff in coeffs}
    try:
        text = {key: str(coeff) if q is None else str(coeff(q))
                for key, coeff in distinct.items()}
    except ValueError:
        # str() refuses an int longer than sys.get_int_max_str_digits()
        raise UsageError("--q is too large: a coefficient's value has too "
                         "many digits to print") from None
    return [text[coeff.coeffs] for coeff in coeffs]


def _emit_decomposition(basis, labels, texts, args, out):
    """Write the rows, the label texts and the coefficient texts, in
    args.format.  No container is built per row."""
    fmt = args.format or "text"
    if fmt == "json":
        # the bytes of json.dumps(obj, sort_keys=True), written with no
        # dict per term: json.dumps(s) of a str s is
        # encode_basestring_ascii(s)
        quote = encode_basestring_ascii
        head = '{"basis": ' + quote(basis)
        if args.q is not None:
            head += ', "q": ' + json.dumps(args.q)
        terms = ", ".join([f'{{"coeff": {quote(c)}, "label": {quote(t)}}}'
                           for t, c in zip(labels, texts)])
        out.write(f'{head}, "terms": [{terms}]}}\n')
    elif fmt == "csv":
        w = csv.writer(out, lineterminator="\n")
        w.writerow(["label", "coeff"])
        w.writerows(zip(labels, texts))
    else:
        # one write per row: a reader that closes the pipe early meets the
        # next write
        out.write(f"basis: {basis}\n")
        width = max(map(len, labels), default=0)
        out.writelines(f"{t.ljust(width)}  {c}\n"
                       for t, c in zip(labels, texts))
        if not labels:
            out.write("(zero)\n")


# --- qbinom ------------------------------------------------------------------

def _run_qbinom(args, out):
    # argparse cannot say that only --partition reads a ground set
    if (args.ground is None) != (args.partition is None):
        raise UsageError("--n or --labels goes with --partition, and only "
                         "with it")
    if args.chain is not None:
        out.write(str(qbinom(args.chain, args.k)) + "\n")
        return
    if args.antichain is not None:
        # every block of an antichain weighs 0
        out.write(str(e_k((0,) * args.antichain, args.k)) + "\n")
        return
    try:
        lam = parse_partition(args.partition, args.ground)
    except ValueError as exc:
        raise UsageError(f"bad --partition: {exc}")
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
    try:
        lam = parse_partition(" ".join(args.arcs), args.ground)
    except ValueError as exc:
        raise UsageError(f"bad partition: {exc}")
    out.write(render_arcs(lam) + "\n")


# --- verify ------------------------------------------------------------------

def _grid_suite(suite, grid, table_at, trace_at):
    """The orbits, traces or solver suite over the (n, p) of `grid`, as
    (name, detail) pairs: detail is None for a PASS, and the suite's first
    counterexample is its last pair, a FAIL.

    orbits builds each orbit table.  At each u_mu, the oracle trace of
    psiK for every column set K, then of the algebra, must equal the
    closed-form value at q = p (traces) and the closed-form coefficients
    at q = p rebuilt through the supercharacter table (solver); the table
    is invertible at p, so a matching rebuild proves the coefficients
    unique.  table_at(n, p) and trace_at(spec, u, p) are the oracle's
    superclass_orbits and module_trace, memoised by the caller, so suites
    run in one command share each table and each trace.
    """
    for n, p in grid:
        at = f"n={n} p={p}"
        try:
            table = table_at(n, p)
        except OracleInvariantError as exc:
            yield f"{suite} {at}", exc
            return
        if suite != "orbits":
            g = GroundSet.range(n)
            reps = [(mu, u_mu_matrix(mu, n)) for mu in table.reps]
            if suite == "solver":
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
                if suite == "solver":
                    dec = decomposition()
                    coeffs = [dec[nu](p) for nu in parts]
                for mu, u in reps:
                    trace = trace_at(spec, u, p)
                    if suite == "traces":
                        got, word = value(mu)(p), "formula"
                    else:
                        got = sum(c * chi for c, chi in zip(coeffs, rows[mu]))
                        word = "rebuilt"
                    if got != trace:
                        yield (f"{suite} {kind} {at}",
                               f"{what}mu={mu.label()} q={p} oracle={trace} "
                               f"{word}={got}")
                        return
        yield f"{suite} {at}", None


def _verify_identities(nmax):
    """The identities suite, as _grid_suite's (name, detail) pairs."""
    # phi telescoping
    for m in range(nmax + 3):
        for ell in range(m + 1):
            total = ZERO
            for k in range(ell, m + 1):
                total = total + qphi(m - ell, k - ell) \
                    * e_k(tuple(range(ell)), k - ell)
            if total != QPoly.q_pow((m - ell) * ell):
                yield ("identities phi-telescoping",
                       f"m={m} ell={ell} got={total}")
                return
    yield "identities phi-telescoping", None
    # core tensor product as the equivalent Gaussian-binomial identity
    for n in range(nmax + 1):
        for k in range(n + 1):
            for j in range(k + 1):
                cmap = core_tensor(j, k, n)
                for l in range(n + 1):
                    chain = tuple(range(n - l))
                    lhs = e_k(chain, j) * e_k(chain, k)
                    rhs = ZERO
                    for m, c in cmap.items():
                        rhs = rhs + c * e_k(chain, k + m)
                    if lhs != rhs:
                        yield ("identities core-tensor",
                               f"n={n} j={j} k={k} l={l} lhs={lhs} rhs={rhs}")
                        return
    yield "identities core-tensor", None
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
                    yield ("identities rainbow-consistency",
                           f"n={n} m={m} lam={lam.label()} "
                           f"via-core={a} direct={b}")
                    return
    yield "identities rainbow-consistency", None


def _run_verify(args, out):
    # the oracle grid: p=2 up to n=5, p=3 up to n=4
    caps = {2: 5, 3: 4}
    top = caps[args.q] if args.q else max(caps.values())
    if args.n is not None and args.n > top:
        raise UsageError(f"verify --n must be at most {top}"
                         + (f" with --q {args.q}" if args.q else ""))
    # the identities suite's time grows about as max^8 (the core tensor
    # check): 2.3 s at --max 16, a minute at 24
    if args.max > 16:
        raise UsageError("verify --max must be at most 16")
    grid = [(n, p) for p, cap in caps.items() if args.q in (None, p)
            for n in range(1, min(args.n or cap, cap) + 1)]
    # the oracle, computed once per table and per trace in this command: the
    # solver suite rereads every trace, and verify all is about 3% slower
    # without the trace cache, although _block_ranks caches per u
    table_at = functools.cache(
        functools.partial(superclass_orbits, budget=args.budget))
    trace_at = functools.cache(module_trace)
    suites = (("orbits", "traces", "solver", "identities")
              if args.suite == "all" else (args.suite,))
    lines = []
    for suite in suites:
        for name, detail in (
                _verify_identities(args.max) if suite == "identities"
                else _grid_suite(suite, grid, table_at, trace_at)):
            if detail is None:
                lines.append(f"PASS  {name}")
            else:
                lines += [f"FAIL  {name}",
                          f"      first counterexample: {detail}"]
    out.writelines(line + "\n" for line in lines)
    failures = sum(line.startswith("FAIL") for line in lines)
    if failures:
        raise VerifyFailure(f"{failures} check(s) failed")


# --- argument surface --------------------------------------------------------
# a leaf parser (qbinom, show, decompose|export FAMILY, verify SUITE) gets its
# flags from one fill(parser), whether built alone or in the whole tree

def _add_ground(sp, required=True):
    group = sp.add_mutually_exclusive_group(required=required)
    group.add_argument("--n", dest="ground", metavar="N", type=_ground_size)
    group.add_argument("--labels", dest="ground", metavar="LABELS",
                       type=_ground_labels)


def _fill_qbinom(qb):
    qb.set_defaults(run=_run_qbinom)
    _add_ground(qb, required=False)
    qb.add_argument("--k", type=_at_least(0), required=True)
    shape = qb.add_mutually_exclusive_group(required=True)
    shape.add_argument("--chain", type=_at_least(0))
    shape.add_argument("--antichain", type=_at_least(0))
    shape.add_argument("--partition")


def _fill_show(sh):
    sh.set_defaults(run=_run_show)
    _add_ground(sh)
    sh.add_argument("arcs", nargs="*")


def _family(build, *required, ground=True, **optional):
    """The fill of a decompose family built by build(args): ground and
    output flags, the `required` (flag, type) pairs, then `optional`."""
    def fill(fp):
        fp.set_defaults(run=_run_decompose, build=build)
        if ground:
            _add_ground(fp)
        fp.add_argument("--format", choices=("text", "json", "csv"))
        fp.add_argument("--q", type=_integer)
        fp.add_argument("--out")
        for flag, convert in required:
            fp.add_argument(flag, type=convert, required=True)
        for name, keywords in optional.items():
            fp.add_argument("--" + name, **keywords)
    return fill


_CORE_TARGET = {"choices": ("superchars", "core"), "default": "superchars"}
_FAMILIES = {
    "rainbow": _family(lambda a: rainbow(a.ground, a.m, a.target),
                       ("--m", _at_least(0)), target=_CORE_TARGET),
    "double-rainbow": _family(
        lambda a: double_rainbow(a.split, a.m, a.ell, a.target),
        ("--split", _split), ("--m", _at_least(0)), ("--ell", _at_least(0)),
        target={"choices": ("superchars", "peel", "trivial_coeff"),
                "default": "superchars"}, ground=False),
    # the anchors lie outside the ground, so 1..n is never an onion's ground
    "onion": _family(lambda a: onion(a.labels, a.anchors, a.m_list),
                     ("--labels", _ground_labels),
                     ("--anchors", _anchor_pairs), ("--m-list", _m_list),
                     ground=False),
    "psi": _family(lambda a: psiK(a.ground, a.cols).decomposition(),
                   cols={"type": _cols, "default": ()}),
    "core": _family(lambda a: core(a.ground, a.k).decomposition(),
                    ("--k", _at_least(0))),
    "peel": _family(lambda a: peel(a.split, a.b, a.f), ("--split", _split),
                    ("--b", _integer), ("--f", _integer), ground=False),
    "ut-algebra": _family(_build_ut_algebra, target=_CORE_TARGET),
}


def _fill_suite(name, sp):
    # defaults, also of the flags that the suite does not read
    sp.set_defaults(run=_run_verify, n=None, q=None, budget=DEFAULT_BUDGET,
                    max=8)
    if name != "identities":
        sp.add_argument("--n", type=_at_least(1))
        sp.add_argument("--q", type=_integer, choices=(2, 3))
        sp.add_argument("--budget", type=_at_least(1))
    if name in ("identities", "all"):
        sp.add_argument("--max", type=_at_least(1))


# {command words: (prog words, {namespace name: word}, description, fill)};
# export FAMILY is decompose FAMILY, named so in its help as by the tree
_LEAVES = {
    ("qbinom",): ("qbinom", {"command": "qbinom"},
                  "poset binomial coefficients", _fill_qbinom),
    ("show",): ("show", {"command": "show"}, "ASCII arc diagram", _fill_show),
    **{(command, name): (f"decompose {name}",
                         {"command": command, "family": name}, None, fill)
       for command in ("decompose", "export")
       for name, fill in _FAMILIES.items()},
    **{("verify", name): (f"verify {name}",
                          {"command": "verify", "suite": name}, None,
                          functools.partial(_fill_suite, name))
       for name in ("identities", "orbits", "traces", "solver", "all")},
}
_BUILT = {}  # {prog words: leaf parser}, each built on first use


@functools.cache
def build_parser():
    """The whole command line, filled by the leaves' fills: built once per
    process, for argv that names no leaf (see parse_args)."""
    p = _Parser(prog="utrestrict",
                description="Exact restriction calculus for unitriangular "
                            "supercharacters")
    sub = p.add_subparsers(dest="command", required=True)

    def add(holder, words):
        _, _, description, fill = _LEAVES[words]
        fill(holder.add_parser(words[-1], description=description))

    add(sub, ("qbinom",))
    dp = sub.add_parser("decompose", aliases=["export"],
                        description="decomposition coefficients")
    add(sub, ("show",))
    vf = sub.add_parser("verify", description="oracle verification suites")
    groups = {"decompose": dp.add_subparsers(dest="family", required=True),
              "verify": vf.add_subparsers(dest="suite", required=True)}
    for words in _LEAVES:
        if words[0] in groups:
            add(groups[words[0]], words)
    return p


def parse_args(argv):
    """The namespace of argv.  The command words (qbinom, show,
    decompose|export FAMILY, verify SUITE) name the leaf that declares the
    flags after them: only it is built, once per process, and parses them,
    with the tree's help and messages.  argv that names no leaf (help above
    a leaf, a missing or unknown command word, flags before the family or
    suite) goes to the whole tree."""
    hit = _LEAVES.get(tuple(argv[:2])) or _LEAVES.get(tuple(argv[:1]))
    if hit is None:
        return build_parser().parse_args(argv)
    prog, words, description, fill = hit
    parser = _BUILT.get(prog)
    if parser is None:
        parser = _BUILT[prog] = _Parser(prog="utrestrict " + prog,
                                        description=description)
        fill(parser)
    return parser.parse_args(argv[len(words):], argparse.Namespace(**words))


def run(argv, out=None):
    out = out if out is not None else sys.stdout
    args = parse_args(argv)
    args.run(args, out)
    return 0


def main(argv=None):
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        run(argv)
        sys.stdout.flush()
        return 0
    except BrokenPipeError:
        # the reader closed stdout (`... | head -1`): point it at devnull so
        # that the interpreter's final flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except VerifyFailure as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 2
    except EnumerationBoundExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
