"""Seeded query lists for the four benchmark workloads.

Each workload has a fixed structure: a list of query slots whose sizes are
fixed, so every seed asks for the same amount of work.  The seed picks the
concrete inputs inside each slot: ground labels, column positions, mirror
images of a geometry, the order, and in sweep the output format and the
evaluation point --q.

A query is a plain dict:
  name      short text used in reports
  argv      CLI arguments for utrestrict.cli.run (None for solver queries)
  check     "superchar", "digest", "oracle" or "solver"
  spec      what the check needs to rebuild the expected answer
  baseline  true for the commands of the ROADMAP's measured-baselines table

Only the standard library is imported here, so generating a query list
warms no program cache.
"""

import random

WORKLOADS = ("engines", "sweep", "oracle", "solver")

FORMATS = ("text", "json", "csv")


def make_queries(workload, seed):
    rng = random.Random(f"{workload}:{seed}")
    queries = _GENERATORS[workload](rng)
    for i, q in enumerate(queries):
        q["id"] = i
    return queries


# --- CLI query builders ------------------------------------------------------

SWEEP_QS = (None, None, 2, 3, 4, 5)


def _ground(rng, n):
    """--n, or at the seed's choice an increasing label list of size n."""
    if rng.random() < 0.5:
        labels = sorted(rng.sample(range(2, 4 * n + 2), n))
        return ["--labels", ",".join(map(str, labels))], labels
    return ["--n", str(n)], list(range(1, n + 1))


def _decompose(rng, base, check, spec, style, baseline):
    """A decompose query.  style is (format, q), or None for a seeded one."""
    fmt, q = style or (rng.choice(FORMATS), rng.choice(SWEEP_QS))
    argv = ["decompose", *base, "--format", fmt]
    if q is not None:
        argv += ["--q", str(q)]
    return {"name": " ".join(base), "argv": argv, "check": check,
            "spec": dict(spec, fmt=fmt, q=q), "baseline": baseline}


def _superchar(rng, family, n, value, extra=(), style=None, baseline=False):
    """Supercharacter-basis query checked against the module's own values.

    value names the module: ["rainbow", m], ["psi", column indices],
    ["core", k] or ["ut"]."""
    gargs, labels = _ground(rng, n)
    if value[0] == "psi":
        cols = sorted(labels[i] for i in value[1])
        extra = ["--cols", ",".join(map(str, cols))] if cols else []
        value = ["psi", cols]
    base = [family, *gargs, *extra]
    return _decompose(rng, base, "superchar",
                      {"labels": labels, "value": value}, style, baseline)


def _digest(rng, base, style=None, baseline=False):
    """Query in a basis with no independent value: compared with the output
    digest recorded for `base` (see record_digests.py)."""
    return _decompose(rng, base, "digest", {"key": " ".join(base)}, style,
                      baseline)


def _split_text(a, b, c):
    return f"{a},{b},{c}"


def _dr(rng, split, m, ell, target, style=None, baseline=False):
    a, b, c = split
    base = ["double-rainbow", "--split", _split_text(a, b, c),
            "--m", str(m), "--ell", str(ell), "--target", target]
    if target != "superchars":
        return _digest(rng, base, style, baseline)
    return _decompose(rng, base, "superchar",
                      {"labels": _dr_inner_labels(a, b, c),
                       "value": ["dr", a, b, c, m, ell]}, style, baseline)


def _dr_inner_labels(a, b, c):
    """Inner ground of RegionSplit.from_sizes(a, b, c): consecutive labels
    with the anchors (and the collapsed ones) left out."""
    x = 2 if a > 0 else 1
    labels = list(range(x, x + a))
    x += a + 1
    labels += list(range(x, x + b))
    x += b + 1
    labels += list(range(x, x + c))
    return labels


def _peel_base(split, b, f):
    return ["peel", "--split", _split_text(*split), "--b", str(b),
            "--f", str(f)]


def _onion_base(spec):
    labels, anchors, ms = spec
    return ["onion", "--labels", ",".join(map(str, labels)),
            "--anchors", ";".join(f"{lo},{hi}" for lo, hi in anchors),
            "--m-list", ",".join(map(str, ms))]


# --- universes for the digest families ----------------------------------------

def compositions(n):
    """(a, b, c) >= 0 with a + b + c = n."""
    return [(a, b, n - a - b) for a in range(n + 1) for b in range(n + 1 - a)]


def peel_params(split):
    a, _, c = split
    return [(b, f) for b in range(min(a, c) + 1) for f in range(b, a + c + 1)]


def onion_specs(n):
    """Onions over the labels 2..n+1 with outer anchors 1 and n+2, one to
    three layers, each layer's ground nonempty, m_j in {1, 2}."""
    labels = list(range(2, n + 2))
    shapes = [[(1, n + 2)]]
    for lo in labels:
        for hi in labels:
            if hi - lo < 2:
                continue
            shapes.append([(1, n + 2), (lo, hi)])
            for lo2 in range(lo + 1, hi):
                for hi2 in range(lo2 + 2, hi):
                    shapes.append([(1, n + 2), (lo, hi), (lo2, hi2)])
    out = []
    for anchors in shapes:
        for code in range(2 ** len(anchors)):
            ms = [1 + ((code >> j) & 1) for j in range(len(anchors))]
            out.append((labels, anchors, ms))
    return out


SWEEP_MAX_N = 6

# the onion of the engines workload: three nested layers over ten labels
ENGINES_ONION = (list(range(2, 12)), [(1, 12), (3, 10), (5, 8)])


def digest_queries():
    """Every base argv that a digest-checked query can have."""
    bases = []
    for n in range(1, SWEEP_MAX_N + 1):
        for m in range(5):
            bases.append(["rainbow", "--n", str(n), "--m", str(m),
                          "--target", "core"])
        bases.append(["ut-algebra", "--n", str(n), "--target", "core"])
        for split in compositions(n):
            for m in range(3):
                for ell in range(3):
                    for target in ("peel", "trivial_coeff"):
                        bases.append(
                            ["double-rainbow", "--split", _split_text(*split),
                             "--m", str(m), "--ell", str(ell),
                             "--target", target])
            bases += [_peel_base(split, b, f)
                      for b, f in peel_params(split)]
        bases += [_onion_base(spec) for spec in onion_specs(n)]
    bases += [_onion_base((*ENGINES_ONION, ms)) for ms in _engines_onion_ms()]
    bases += [_peel_base((3, 2, 3), 1, 3), _peel_base((3, 3, 3), 2, 4),
              ["ut-algebra", "--n", "8", "--target", "core"]]
    return bases


def _engines_onion_ms():
    # m2 = 1 is left out: onion() fails an assertion there (see README.md)
    return [[m1, m2, m3] for m1 in (2, 3) for m2 in (2, 3) for m3 in (1, 2)]


# --- engines ------------------------------------------------------------------

def _engines(rng):
    # format and --q are fixed per query, so every seed emits the same
    # amount of output and peaks at the same memory
    out = [
        # the ROADMAP's measured-baselines table
        _superchar(rng, "rainbow", 8, ["rainbow", 3], ["--m", "3"],
                   ("text", None), baseline=True),
        _superchar(rng, "core", 9, ["core", 4], ["--k", "4"],
                   ("json", None), baseline=True),
        _dr(rng, (3, 2, 3), 2, 2, "superchars", ("csv", None),
            baseline=True),
        _superchar(rng, "ut-algebra", 8, ["ut"], style=("text", 2),
                   baseline=True),
        _digest(rng, _peel_base((3, 2, 3), 1, 3), ("json", 3),
                baseline=True),
        # more queries at n = 8 to 10, near the enumeration cap
        _superchar(rng, "rainbow", 9, ["rainbow", 3], ["--m", "3"],
                   ("csv", 3)),
        _superchar(rng, "psi", 9, ["psi", sorted(rng.sample(range(9), 4))],
                   style=("text", None)),
        _digest(rng, _peel_base((3, 3, 3), 2, 4), ("csv", None)),
        _digest(rng, _onion_base((*ENGINES_ONION,
                                  rng.choice(_engines_onion_ms()))),
                ("text", 2)),
        _digest(rng, ["ut-algebra", "--n", "8", "--target", "core"],
                ("json", None)),
    ]
    rng.shuffle(out)
    return out


# --- sweep --------------------------------------------------------------------

SWEEP_ROUNDS = 4


def _mirror(rng, split):
    """(a, b, c) or, at the seed's choice, (c, b, a): the same work."""
    a, b, c = split
    return (c, b, a) if rng.random() < 0.5 else split


def _sweep(rng):
    """Per ground size n <= 6, a fixed schedule of parameters (arc counts,
    core sizes, column-set sizes, geometries); the seed picks labels,
    column positions, mirror images, format, --q and the order."""
    out = []
    for n in range(1, SWEEP_MAX_N + 1):
        comps = compositions(n)
        for r in range(SWEEP_ROUNDS):
            for j in (2 * r, 2 * r + 1):
                out.append(_superchar(rng, "rainbow", n, ["rainbow", j % 4],
                                      ["--m", str(j % 4)]))
                cols = sorted(rng.sample(range(n), j % (n + 1)))
                out.append(_superchar(rng, "psi", n, ["psi", cols]))
                k = j % (n + 1)
                out.append(_superchar(rng, "core", n, ["core", k],
                                      ["--k", str(k)]))
                out.append(_dr(rng, _mirror(rng, comps[5 * j % len(comps)]),
                               j % 3, j // 3 % 3, "superchars"))
            out.append(_superchar(rng, "ut-algebra", n, ["ut"]))
            out.append(_digest(rng, ["ut-algebra", "--n", str(n),
                                     "--target", "core"]))
            out.append(_digest(rng, ["rainbow", "--n", str(n), "--m", str(r),
                                     "--target", "core"]))
            for t, target in enumerate(("peel", "trivial_coeff")):
                out.append(_dr(rng, _mirror(rng, comps[(3 * r + t) % len(comps)]),
                               r % 3, (r + 1) % 3, target))
            split = _mirror(rng, comps[(5 * r + 2) % len(comps)])
            params = peel_params(split)
            out.append(_digest(rng, _peel_base(split, *params[r % len(params)])))
            specs = onion_specs(n)
            out.append(_digest(rng, _onion_base(specs[7 * r % len(specs)])))
    rng.shuffle(out)
    return out


# --- oracle -------------------------------------------------------------------

# verify's grid at n <= 4 for both primes.  The default grid also has
# traces at n = 5, p = 2: one 9 s call, too long to time steadily in a run.
ORACLE_PRIMES = (2, 3)
ORACLE_NMAX = 4


def _oracle(rng):
    out = []
    for suite in ("orbits", "traces"):
        for p in ORACLE_PRIMES:
            argv = ["verify", suite, "--q", str(p), "--n", str(ORACLE_NMAX)]
            if rng.random() < 0.5:
                argv += ["--budget", str(10 ** 7)]
            out.append({"name": f"verify {suite} --q {p}", "argv": argv,
                        "check": "oracle",
                        "spec": {"suite": suite, "p": p,
                                 "nmax": ORACLE_NMAX},
                        "baseline": False})
    rng.shuffle(out)
    return out


# --- solver -------------------------------------------------------------------

# geometries with |N| = 4, each about 0.2-0.45 s; an |N| = 5 solve takes
# 4-5 s in one call, too long to time steadily in a run
SOLVER_RAINBOWS = ((4, 1), (4, 2), (4, 3))
# (a, b, c, m, ell); the seed may mirror (a, b, c) to (c, b, a), which
# gives the same character values and the same solver work
SOLVER_DOUBLE = ((1, 2, 1, 1, 1), (1, 2, 1, 2, 2), (2, 1, 1, 2, 1),
                 (2, 0, 2, 2, 2), (0, 2, 2, 1, 1), (2, 2, 0, 2, 2),
                 (1, 3, 0, 1, 2))


def _solver(rng):
    out = []
    for n, m in SOLVER_RAINBOWS:
        out.append({"name": f"solver rainbow n={n} m={m}", "argv": None,
                    "check": "solver",
                    "spec": {"kind": "rainbow", "n": n, "m": m,
                             "shift": rng.randint(0, 20)},
                    "baseline": False})
    for a, b, c, m, ell in SOLVER_DOUBLE:
        if rng.random() < 0.5:
            a, c = c, a
        out.append({"name": f"solver double-rainbow {a},{b},{c} m={m} "
                            f"ell={ell}",
                    "argv": None, "check": "solver",
                    "spec": {"kind": "double-rainbow", "split": [a, b, c],
                             "m": m, "ell": ell},
                    "baseline": False})
    rng.shuffle(out)
    return out


_GENERATORS = {"engines": _engines, "sweep": _sweep, "oracle": _oracle,
               "solver": _solver}
