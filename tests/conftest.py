import functools
import itertools
import os
import subprocess
import sys
from collections import Counter
from math import comb
from types import SimpleNamespace

import pytest

import utrestrict
from utrestrict.oracle import mat_mul
from utrestrict.qcalc import QPoly, ZERO, Q_MINUS_1, qphi
from utrestrict.scfcore import (
    SuperclassFunction, decompose_at_prime, superchar_value,
)
from utrestrict.setpart import enumerate_partitions, nst_points


# --- arc-diagram references ----------------------------------------------------

def blocks(lam):
    """Classical set partition bl(lam) by transitive closure of the arcs,
    with singletons."""
    parent = {x: x for x in lam.ground}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in lam.arcs:
        parent[find(i)] = find(j)
    out = {}
    for x in lam.ground:
        out.setdefault(find(x), []).append(x)
    return frozenset(frozenset(b) for b in out.values())


def subset_sum(weights, k):
    """The sum of q^(sum of S) over the k-subsets S of the weights, by
    listing the subsets: the witness of qcalc.e_k."""
    if k < 0:
        return ZERO
    counts = Counter(map(sum, itertools.combinations(weights, k)))
    return QPoly([counts[e] for e in range(max(counts, default=-1) + 1)])


def crs(lam):
    """Number of crossing pairs i~k, j~l with i<j<k<l."""
    return sum(1 for (i, k), (j, l) in itertools.combinations(
        sorted(lam.arcs), 2) if i < j < k < l)


def closure_block_poset(lam):
    """(min, max, wt) per block of a noncrossing partition, read off the
    transitive closure: wt(b) counts the arcs over min(b)."""
    if crs(lam):
        raise ValueError("needs a noncrossing partition")
    return tuple(sorted((min(b), max(b), nst_points(lam, [min(b)]))
                        for b in blocks(lam)))


def _nested_in(a, b):
    """Block a lies under block b: some consecutive pair of a (a itself, for
    a singleton) sits strictly inside an arc of b."""
    sa, sb = sorted(a), sorted(b)
    pairs = list(zip(sa, sa[1:])) or [(sa[0], sa[0])]
    return any(i < j and k < l
               for j, k in pairs for i, l in zip(sb, sb[1:]))


def _nesting_above(lam):
    """Brute-force nesting order on the blocks of lam, built from the block
    sets and not from arc counts: maps the (min, max) of each block to the
    frozenset of (min, max) of the blocks above it."""
    ends = {b: (min(b), max(b)) for b in blocks(lam)}
    return {ends[a]: frozenset(ends[b] for b in ends
                               if b != a and _nested_in(a, b))
            for a in ends}


@pytest.fixture
def nesting_above():
    return _nesting_above


# --- reference helpers ---------------------------------------------------------

def character_function(lam, ground):
    """chi^lam as a SuperclassFunction on `ground`."""
    return SuperclassFunction(
        ground,
        {mu: superchar_value(lam, mu, ground)
         for mu, _, _ in enumerate_partitions(ground)})


def odot(f, h):
    """Pointwise product of two superclass functions on one ground."""
    assert f.ground == h.ground, "pointwise product needs one ground"
    return SuperclassFunction(f.ground,
                              {mu: v * h(mu) for mu, v in f.values.items()})


def numeric_decompose(values, p, ground):
    """Solve sum_nu c_nu chi^nu(u_mu)|q=p = values[mu] exactly over Q;
    values maps each partition of `ground` to an int."""
    return decompose_at_prime(SuperclassFunction(ground, values), p)


def dr_trivial_reference(split, m, ell, pre=None):
    """The double rainbow's coefficient at the trivial supercharacter, from
    its explicit sum: (q-1)^(m+ell) q^pre times the sum over f, l of
    phi^m_f phi^(m-f+ell)_l C(|N| - |N_=|, f) C(|N_=|, l).  The prefactor
    pre is m per nonempty side region unless given: each one puts an inner
    anchor strictly inside the outer pair."""
    n_eq = len(split.n_eq)
    rest = len(split.inner) - n_eq
    total = ZERO
    for f in range(m + 1):
        for l in range(m - f + ell + 1):
            total = total + qphi(m, f) * qphi(m - f + ell, l) \
                * QPoly.const(comb(rest, f) * comb(n_eq, l))
    if pre is None:
        pre = m * ((len(split.n_lt) > 0) + (len(split.n_gt) > 0))
    return ((Q_MINUS_1 ** (m + ell)) * total).shift(pre)


def check_nonnegative_at(dec, qs=(2, 3)):
    """Supercharacter multiplicities must be nonnegative integers at prime
    powers."""
    for coeff in dec.coeffs.values():
        for q in qs:
            assert coeff(q) >= 0, f"negative multiplicity {coeff} at q={q}"


# --- brute-force module traces -------------------------------------------------
#
# The oracle reads module traces off ranks mod p.  This reference enumerates
# every basis vector of the module and sums theta(tr(a v)) in Z[zeta_p] over
# the vectors u fixes, straight from the definition of the action.  The sums
# must be rational integers (`as_integer` raises otherwise), and they are
# compared with the oracle's integer traces.

class CyclotomicInt:
    """Element of Z[zeta_p] as an integer vector over 1, zeta, ..., zeta^(p-2)
    with zeta^(p-1) = -(1 + zeta + ... + zeta^(p-2)).  For p = 2 this is a
    plain integer in disguise."""

    __slots__ = ("p", "vec")

    def __init__(self, p, vec):
        vec = list(vec)
        if len(vec) != p - 1:
            raise ValueError(f"Z[zeta_{p}] needs {p - 1} coordinates, "
                             f"got {len(vec)}")
        self.p = p
        self.vec = tuple(vec)

    @staticmethod
    def zero(p):
        return CyclotomicInt(p, [0] * (p - 1))

    @staticmethod
    def theta(p, x):
        """zeta_p^x for an integer exponent x."""
        e = x % p
        vec = [0] * (p - 1)
        if e == p - 1:
            vec = [-1] * (p - 1)
        else:
            vec[e] = 1
        return CyclotomicInt(p, vec)

    def _same_field(self, other):
        if self.p != other.p:
            raise ValueError(f"Z[zeta_{self.p}] and Z[zeta_{other.p}] mixed")

    def __add__(self, other):
        self._same_field(other)
        return CyclotomicInt(self.p, [a + b for a, b in zip(self.vec, other.vec)])

    def __mul__(self, other):
        self._same_field(other)
        p = self.p
        # multiply in Z[x]/(1 + x + ... + x^(p-1)) via exponents mod p
        full = [0] * p
        for i, a in enumerate(self.vec):
            if a:
                for j, b in enumerate(other.vec):
                    if b:
                        full[(i + j) % p] += a * b
        last = full[p - 1]
        return CyclotomicInt(p, [c - last for c in full[:-1]])

    def __eq__(self, other):
        return (isinstance(other, CyclotomicInt)
                and self.p == other.p and self.vec == other.vec)

    def __hash__(self):
        return hash((self.p, self.vec))

    def __repr__(self):
        return f"CyclotomicInt(p={self.p}, {self.vec})"

    def is_rational_integer(self):
        return all(c == 0 for c in self.vec[1:])

    def as_integer(self):
        if not self.is_rational_integer():
            raise ValueError(f"not an integer: {self.vec}")
        return self.vec[0]


def add_identity(x, p):
    n = len(x)
    return tuple(tuple((x[i][j] + int(i == j)) % p for j in range(n))
                 for i in range(n))


def mat_dagger(m):
    """Flip across the anti-diagonal: (m^dag)_ij = m_(w0 j, w0 i)."""
    n = len(m)
    return tuple(tuple(m[n - 1 - j][n - 1 - i] for j in range(n))
                 for i in range(n))


def _matrices(n, p, cells):
    for vals in itertools.product(range(p), repeat=len(cells)):
        m = [[0] * n for _ in range(n)]
        for (i, j), v in zip(cells, vals):
            m[i][j] = v
        yield tuple(tuple(row) for row in m)


def _strict_upper(n, p):
    return _matrices(n, p, [(i, j) for i in range(n) for j in range(i + 1, n)])


def _unitriangular(n, p):
    """Every u in UT_n(F_p)."""
    return (add_identity(x, p) for x in _strict_upper(n, p))


def _lt_basis(n, p, cols=None, rows=None):
    """Strictly lower-triangular matrices, optionally restricted to column
    support `cols` and/or row support `rows` (1-based ground labels)."""
    return _matrices(n, p, [(i, j) for i in range(n) for j in range(i)
                            if (cols is None or j + 1 in cols)
                            and (rows is None or i + 1 in rows)])


def _strict_lower_part(m):
    n = len(m)
    return tuple(tuple(m[i][j] if i > j else 0 for j in range(n))
                 for i in range(n))


def _trace_prod(a, b, p):
    """tr(a b) mod p."""
    n = len(a)
    return sum(a[i][k] * b[k][i] for i in range(n) for k in range(n)) % p


def _minus_identity(m, p):
    n = len(m)
    return tuple(tuple((m[i][j] - (i == j)) % p for j in range(n))
                 for i in range(n))


def _left_trace(u, p, basis, unit=1):
    """Trace of u on the left action u > v = theta(tr((u-1)v)) (uv mod b),
    with theta(x) = zeta^(unit x)."""
    um1 = _minus_identity(u, p)
    total = CyclotomicInt.zero(p)
    for v in basis:
        if _strict_lower_part(mat_mul(u, v, p)) == v:
            total = total + CyclotomicInt.theta(
                p, unit * _trace_prod(um1, v, p))
    return total.as_integer()


@functools.cache
def _inverse(u, p):
    """u^-1 for u in UT_n(F_p), found by search over the group."""
    n = len(u)
    one = add_identity(((0,) * n,) * n, p)
    return next(v for v in _unitriangular(n, p) if mat_mul(u, v, p) == one)


def _right_trace(u, p, basis):
    """Trace of u on the right action u > v = theta(tr(v(u^-1 - 1)))
    (v u^-1 mod b)."""
    uinv = _inverse(u, p)
    um1 = _minus_identity(uinv, p)
    total = CyclotomicInt.zero(p)
    for v in basis:
        if _strict_lower_part(mat_mul(v, uinv, p)) == v:
            total = total + CyclotomicInt.theta(p, _trace_prod(v, um1, p))
    return total.as_integer()


def _cyclotomic_trace(spec, u, p):
    """The reference for oracle.module_trace, with its specs, and with
    ("flippedK", R): the row-set module on the strictly lower matrices with
    row support R, under the right action."""
    n = len(u)
    kind = spec[0]
    if kind == "psiK":
        return _left_trace(u, p, _lt_basis(n, p, cols=set(spec[1])))
    if kind == "flippedK":
        return _right_trace(u, p, _lt_basis(n, p, rows=set(spec[1])))
    if kind == "utAlgebra":
        return sum(1 for v in _strict_upper(n, p) if mat_mul(u, v, p) == v)
    raise ValueError(f"unknown module spec {spec!r}")


@pytest.fixture
def brute_force():
    return SimpleNamespace(
        trace=_cyclotomic_trace, left_trace=_left_trace, lt_basis=_lt_basis,
        unitriangular=_unitriangular)


# --- subprocesses ------------------------------------------------------------

def _run_python(*argv):
    """Run the Python interpreter on argv with this checkout's package
    importable."""
    src = os.path.dirname(os.path.dirname(utrestrict.__file__))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src + (os.pathsep + path if path else ""))
    return subprocess.run([sys.executable, *argv],
                          capture_output=True, text=True, env=env,
                          timeout=120)


def _run_optimized(script, *args):
    """Run a Python script under `python -O` (asserts stripped)."""
    return _run_python("-O", "-c", script, *args)


@pytest.fixture
def run_python():
    return _run_python


@pytest.fixture
def run_optimized():
    return _run_optimized
