"""Brute-force ground truth over small prime fields.

Enumerates the strictly upper-triangular algebra ut_N over F_p, computes the
two-sided Borel orbits (superclasses), and takes traces of the concrete
module actions with exact cyclotomic arithmetic.  Everything here is
independent of the closed-form engines, so agreement is evidence.
"""

import itertools

from .setpart import GroundSet, SetPartition, bell
from .scfcore import SuperclassFunction, decompose_at_prime


class BudgetExceeded(Exception):
    pass


DEFAULT_BUDGET = 10 ** 7
SUPPORTED_PRIMES = (2, 3, 5)


class CyclotomicInt:
    """Element of Z[zeta_p] as an integer vector over 1, zeta, ..., zeta^(p-2)
    with zeta^(p-1) = -(1 + zeta + ... + zeta^(p-2)).  For p = 2 this is a
    plain integer in disguise."""

    __slots__ = ("p", "vec")

    def __init__(self, p, vec):
        vec = list(vec)
        assert len(vec) == p - 1
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

    def __add__(self, other):
        assert self.p == other.p
        return CyclotomicInt(self.p, [a + b for a, b in zip(self.vec, other.vec)])

    def __mul__(self, other):
        assert self.p == other.p
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
        assert self.is_rational_integer(), f"not an integer: {self.vec}"
        return self.vec[0]


# --- matrix plumbing (tuples of tuples mod p) --------------------------------

def mat_mul(a, b, p):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) % p for j in range(n))
        for i in range(n))

def identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def strict_lower_part(m):
    n = len(m)
    return tuple(tuple(m[i][j] if i > j else 0 for j in range(n))
                 for i in range(n))


def trace_prod(a, b, p):
    """tr(a b) mod p."""
    n = len(a)
    return sum(a[i][k] * b[k][i] for i in range(n) for k in range(n)) % p


def mat_dagger(m):
    """Flip across the anti-diagonal: (m^dag)_ij = m_(w0 j, w0 i)."""
    n = len(m)
    return tuple(tuple(m[n - 1 - j][n - 1 - i] for j in range(n))
                 for i in range(n))


def mat_inverse_unipotent(u, p):
    """Inverse of a unipotent upper-triangular matrix by back substitution."""
    n = len(u)
    x = identity(n)
    v = [list(row) for row in x]
    # solve u * v = Id column by column
    for col in range(n):
        for i in range(n - 1, -1, -1):
            s = sum(u[i][k] * v[k][col] for k in range(i + 1, n))
            v[i][col] = (int(i == col) - s) % p
    return tuple(tuple(row) for row in v)


def u_mu_matrix(mu, n):
    """Canonical superclass representative: Id plus the arc pattern."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for i, j in mu.arcs:
        m[i - 1][j - 1] = 1
    return tuple(tuple(row) for row in m)


def enumerate_strict_upper(n, p):
    cells = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for vals in itertools.product(range(p), repeat=len(cells)):
        m = [[0] * n for _ in range(n)]
        for (i, j), v in zip(cells, vals):
            m[i][j] = v
        yield tuple(tuple(row) for row in m)


def borel_generators(n, p):
    """Transvections and diagonal scalings generating the Borel subgroup."""
    gens = []
    for i in range(n):
        for j in range(i + 1, n):
            for c in range(1, p):
                m = [[int(a == b) for b in range(n)] for a in range(n)]
                m[i][j] = c
                gens.append(tuple(tuple(r) for r in m))
    for i in range(n):
        for a in range(2, p):
            m = [[int(r == s) for s in range(n)] for r in range(n)]
            m[i][i] = a
            gens.append(tuple(tuple(r) for r in m))
    return gens


class OrbitTable:
    __slots__ = ("n", "p", "orbit_of", "orbits", "reps")

    def __init__(self, n, p, orbit_of, orbits, reps):
        self.n = n
        self.p = p
        self.orbit_of = orbit_of    # matrix -> orbit id
        self.orbits = orbits        # orbit id -> list of matrices
        self.reps = reps            # orbit id -> SetPartition


def _arc_pattern(m):
    """SetPartition arcs if m is 0/1 with distinct rows/cols, else None."""
    arcs = []
    n = len(m)
    for i in range(n):
        for j in range(i + 1, n):
            if m[i][j] == 1:
                arcs.append((i + 1, j + 1))
            elif m[i][j] != 0:
                return None
    lefts = [a[0] for a in arcs]
    rights = [a[1] for a in arcs]
    if len(set(lefts)) != len(lefts) or len(set(rights)) != len(rights):
        return None
    return arcs


def superclass_orbits(n, p, budget=DEFAULT_BUDGET):
    """BFS over ut_N under left/right Borel multiplication."""
    assert p in SUPPORTED_PRIMES
    states = p ** (n * (n - 1) // 2)
    if states > budget:
        raise BudgetExceeded(f"{states} states exceeds budget {budget}")
    gens = borel_generators(n, p)
    ground = GroundSet.range(n)
    orbit_of = {}
    orbits = []
    reps = []
    for start in enumerate_strict_upper(n, p):
        if start in orbit_of:
            continue
        oid = len(orbits)
        stack = [start]
        orbit_of[start] = oid
        members = [start]
        while stack:
            x = stack.pop()
            for g in gens:
                for y in (mat_mul(g, x, p), mat_mul(x, g, p)):
                    if y not in orbit_of:
                        orbit_of[y] = oid
                        members.append(y)
                        stack.append(y)
        orbits.append(members)
        patterns = [a for a in map(_arc_pattern, members) if a is not None]
        assert len(patterns) == 1, \
            f"orbit must contain exactly one u_mu pattern, got {len(patterns)}"
        reps.append(SetPartition(ground, patterns[0]))
    assert len(orbits) == bell(n)
    return OrbitTable(n, p, orbit_of, orbits, reps)


# --- module traces -----------------------------------------------------------

def enumerate_lt_basis(n, p, cols=None, rows=None):
    """Strictly lower-triangular matrices, optionally restricted to column
    support `cols` and/or row support `rows` (1-based ground labels)."""
    cells = []
    for i in range(n):
        for j in range(i):
            if cols is not None and (j + 1) not in cols:
                continue
            if rows is not None and (i + 1) not in rows:
                continue
            cells.append((i, j))
    for vals in itertools.product(range(p), repeat=len(cells)):
        m = [[0] * n for _ in range(n)]
        for (i, j), v in zip(cells, vals):
            m[i][j] = v
        yield tuple(tuple(row) for row in m)


def left_trace(u, p, basis):
    """Trace of u on the left action u > v = theta(tr((u-1)v)) (uv mod b)."""
    n = len(u)
    total = CyclotomicInt.zero(p)
    um1 = tuple(tuple((u[i][j] - int(i == j)) % p for j in range(n))
                for i in range(n))
    for v in basis:
        if strict_lower_part(mat_mul(u, v, p)) == v:
            total = total + CyclotomicInt.theta(p, trace_prod(um1, v, p))
    return total


def right_trace(u, p, basis):
    """Trace of u on the right action u > v = theta(tr(v(u^-1 - 1)))
    (v u^-1 mod b)."""
    n = len(u)
    uinv = mat_inverse_unipotent(u, p)
    um1 = tuple(tuple((uinv[i][j] - int(i == j)) % p for j in range(n))
                for i in range(n))
    total = CyclotomicInt.zero(p)
    for v in basis:
        if strict_lower_part(mat_mul(v, uinv, p)) == v:
            total = total + CyclotomicInt.theta(p, trace_prod(v, um1, p))
    return total


def module_trace(spec, u, p, n):
    """Trace of u in UT_N on a concretely realized module.

    spec: ("psiK", K) | ("psiHook", K, J) | ("regular",) | ("utAlgebra",)
        | ("flippedK", K), with K, J sets of 1-based labels.
    """
    kind = spec[0]
    if kind == "regular":
        spec = ("psiK", frozenset(range(1, n + 1)))
        kind = "psiK"
    if kind == "psiK":
        basis = enumerate_lt_basis(n, p, cols=set(spec[1]))
        return left_trace(u, p, basis)
    if kind == "psiHook":
        K, J = set(spec[1]), set(spec[2])
        basis = [v for v in enumerate_lt_basis(n, p, cols=K)
                 if _row_support(v) == J]
        return left_trace(u, p, basis)
    if kind == "flippedK":
        basis = enumerate_lt_basis(n, p, rows=set(spec[1]))
        return right_trace(u, p, basis)
    if kind == "utAlgebra":
        count = sum(1 for v in enumerate_strict_upper(n, p)
                    if mat_mul(u, v, p) == v)
        out = CyclotomicInt.zero(p)
        return out + CyclotomicInt(p, [count] + [0] * (p - 2))
    raise ValueError(f"unknown module spec {spec!r}")


def _row_support(v):
    return {i + 1 for i, row in enumerate(v) if any(row)}


def numeric_decompose(values, p, ground):
    """Solve sum_nu c_nu chi^nu(u_mu)|q=p = values[mu] exactly over Q.

    values: map SetPartition -> CyclotomicInt or int.
    """
    ints = {mu: v.as_integer() if isinstance(v, CyclotomicInt) else v
            for mu, v in values.items()}
    return decompose_at_prime(SuperclassFunction(ground, ints), p)


def verify_constancy(f, table):
    """Check that f is constant on Id + each orbit; returns (ok, detail)."""
    for oid, members in enumerate(table.orbits):
        vals = {f(add_identity(x, table.p)) for x in members}
        if len(vals) != 1:
            return False, (table.reps[oid], sorted(vals)[:2])
    return True, None


def add_identity(x, p):
    n = len(x)
    return tuple(tuple((x[i][j] + int(i == j)) % p for j in range(n))
                 for i in range(n))
