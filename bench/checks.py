"""Correctness checks for benchmark queries, run outside the timed region.

- superchar: the output is parsed back into coefficients c_lam and
  sum_lam c_lam * chi^lam(u_mu) is compared with the module's own value at
  u_mu for the trivial mu and two seeded ones.  The values come from the
  module definitions (restricted multiset characters, column-set traces,
  core traces, the algebra's fixed-point count), not from the engine.
- digest: the polynomial JSON output of the same base query is hashed and
  compared with the digest recorded by record_digests.py; the query's own
  output must equal it, evaluated at --q when one was given.
- oracle: every verify line is PASS and each expected case is present.
- solver: the solver's coefficient map equals the closed-form engine's.

Each check returns None when the output is right and a one-line reason
otherwise.
"""

import csv
import hashlib
import io
import json
import os
import random

from utrestrict import cli
from utrestrict.qcalc import QPoly, ZERO
from utrestrict.restrict import core, double_rainbow, psiK, rainbow, ut_algebra
from utrestrict.scfcore import superchar_value
from utrestrict.setpart import (
    ArcMultiset, GroundSet, RegionSplit, SetPartition, from_blocks,
    parse_partition,
)

DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "digests.json")


def load_digests():
    with open(DIGESTS_PATH) as fh:
        return json.load(fh)


def parse_output(text, fmt):
    """(basis or None, [(label, coeff text)]) from decompose output."""
    if fmt == "json":
        obj = json.loads(text)
        return obj["basis"], [(t["label"], t["coeff"]) for t in obj["terms"]]
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        if not rows or rows[0] != ["label", "coeff"]:
            raise ValueError("csv output lacks its header")
        if any(len(r) != 2 for r in rows[1:]):
            raise ValueError("csv row without two fields")
        return None, [tuple(r) for r in rows[1:]]
    lines = text.splitlines()
    if not lines or not lines[0].startswith("basis: "):
        raise ValueError("text output lacks its basis line")
    basis = lines[0][len("basis: "):]
    if lines[1:] == ["(zero)"]:
        return basis, []
    rows = []
    for line in lines[1:]:
        label, sep, coeff = line.partition("  ")
        if not sep:
            raise ValueError(f"bad text row {line!r}")
        rows.append((label.strip(), coeff.strip()))
    return basis, rows


def rows_digest(basis, rows):
    blob = json.dumps([basis, rows], separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def run_cli(argv):
    out = io.StringIO()
    cli.run(argv, out)
    return out.getvalue()


# --- supercharacter basis ----------------------------------------------------

def _module_value(value, ground):
    """mu -> the module's character value at u_mu, as a QPoly."""
    kind = value[0]
    if kind == "psi":
        return psiK(ground, value[1]).value
    if kind == "core":
        return core(ground, value[1]).value
    if kind == "ut":
        return ut_algebra(ground).trace
    if kind == "rainbow":
        # m parallel arcs over two anchors just outside the ground
        n = len(ground)
        rank = {x: i + 2 for i, x in enumerate(ground)}
        ambient = GroundSet.range(n + 2)
        big = ArcMultiset(ambient, [(1, n + 2)] * value[1])

        def rainbow_value(mu):
            mu_big = SetPartition(ambient,
                                  [(rank[i], rank[j]) for i, j in mu.arcs])
            return superchar_value(big, mu_big, ambient)
        return rainbow_value
    if kind == "dr":
        a, b, c, m, ell = value[1:]
        split = RegionSplit.from_sizes(a, b, c)
        big = split.anchor_multiset(m, ell)

        def dr_value(mu):
            return superchar_value(big, SetPartition(split.ambient, mu.arcs),
                                   split.ambient)
        return dr_value
    raise ValueError(f"unknown module {value!r}")


def sample_mus(ground, rng, count=2):
    """The trivial superclass and `count` seeded random ones."""
    mus = [SetPartition(ground, ())]
    for _ in range(count):
        rgs = [0]
        for _ in range(len(ground) - 1):
            rgs.append(rng.randint(0, max(rgs) + 1))
        blocks = {}
        for x, v in zip(ground, rgs):
            blocks.setdefault(v, []).append(x)
        mus.append(from_blocks(ground, blocks.values()))
    return mus


def check_superchar(spec, text, rng):
    basis, rows = parse_output(text, spec["fmt"])
    if basis not in (None, "supercharacter"):
        return f"basis {basis!r}, want supercharacter"
    ground = GroundSet(spec["labels"])
    q = spec["q"]
    terms = {}
    for label, coeff in rows:
        lam = (SetPartition(ground, ()) if label == "()"
               else parse_partition(label, ground))
        if lam in terms:
            return f"label {label} repeated"
        terms[lam] = int(coeff) if q is not None else QPoly.parse(coeff)
    value = _module_value(spec["value"], ground)
    for mu in sample_mus(ground, rng):
        want = value(mu)
        if q is None:
            got = ZERO
            for lam, c in terms.items():
                got = got + c * superchar_value(lam, mu, ground)
        else:
            want = want(q)
            got = sum(c * superchar_value(lam, mu, ground)(q)
                      for lam, c in terms.items())
        if got != want:
            return (f"at mu={mu.label()}: sum of coefficients times "
                    f"characters is {got}, module value is {want}")
    return None


# --- digest-checked bases ------------------------------------------------------

def check_digest(spec, text, digests):
    want = digests.get(spec["key"])
    if want is None:
        return f"no recorded digest for {spec['key']!r}"
    ref_basis, ref_rows = parse_output(
        run_cli(["decompose", *spec["key"].split(), "--format", "json"]),
        "json")
    if rows_digest(ref_basis, ref_rows) != want:
        return "polynomial output differs from the recorded digest"
    basis, rows = parse_output(text, spec["fmt"])
    if basis not in (None, ref_basis):
        return f"basis {basis!r}, want {ref_basis!r}"
    q = spec["q"]
    if q is not None:
        ref_rows = [(label, str(QPoly.parse(c)(q))) for label, c in ref_rows]
    if rows != ref_rows:
        return "output rows differ from the recorded polynomial output"
    return None


# --- oracle and solver ---------------------------------------------------------

def check_oracle(spec, text):
    want = [f"PASS  {spec['suite']} n={n} p={spec['p']}"
            for n in range(1, spec["nmax"] + 1)]
    got = text.splitlines()
    if got != want:
        bad = next((line for line in got if not line.startswith("PASS")),
                   None)
        return bad or f"verify printed {len(got)} lines, want {want}"
    return None


def solver_inputs(spec):
    """(character, inner ground, closed-form coefficients) of a solver
    query; the closed form is computed lazily by the check."""
    if spec["kind"] == "rainbow":
        n, m, s = spec["n"], spec["m"], spec["shift"]
        ambient = GroundSet(range(s + 1, s + n + 3))
        inner = GroundSet(range(s + 2, s + n + 2))
        lam = ArcMultiset(ambient, [(s + 1, s + n + 2)] * m)
        return lam, inner, lambda: rainbow(inner, m, "superchars")
    split = RegionSplit.from_sizes(*spec["split"])
    m, ell = spec["m"], spec["ell"]
    return (split.anchor_multiset(m, ell), split.inner,
            lambda: double_rainbow(split, m, ell, "superchars"))


def check_solver(spec, dec):
    _, _, closed_form = solver_inputs(spec)
    if dec.basis != "supercharacter" or dec.coeffs != closed_form().coeffs:
        return "solver coefficients differ from the closed-form engine"
    return None


def check(query, result, workload, seed, digests):
    """Check one query's result (output text, or a Decomposition for the
    solver); returns None or a failure reason."""
    spec = query["spec"]
    kind = query["check"]
    try:
        if kind == "superchar":
            rng = random.Random(f"check:{workload}:{seed}:{query['id']}")
            return check_superchar(spec, result, rng)
        if kind == "digest":
            return check_digest(spec, result, digests)
        if kind == "oracle":
            return check_oracle(spec, result)
        return check_solver(spec, result)
    except Exception as exc:  # a malformed output is a failed operation
        return f"check raised {type(exc).__name__}: {exc}"
