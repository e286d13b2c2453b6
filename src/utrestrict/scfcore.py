"""Symbolic supercharacter values and the exact decomposition solver.

The supercharacter of a set partition lam evaluated at the canonical
superclass representative u_mu is the signed monomial

    (-1)^|lam cap mu| (q-1)^|lam-mu| q^(nst^lam_N - nst^lam_mu)

unless some arc i~k of lam has i~j or j~k in mu with i<j<k, in which case it
vanishes.  Multiset characters factor as the pointwise product of their
arcs, so their values are signed monomials too.  `_monomial` holds this arc
rule and returns (sign, a, e) for sign (q-1)^a q^e; `superchar_value` turns
it into a QPoly, and `supercharacter_table` into integers at a fixed q.

Supercharacters are orthogonal for the superclass-size weighted inner
product (Diaconis-Isaacs), so a superclass function f with polynomial values
has supercharacter coefficients

    c_nu = sum_mu w_mu chi^nu(u_mu) / sum_mu |K_mu| chi^nu(u_mu)^2,
    w_mu = |K_mu| f(mu),

one exact division in Z[q] per coefficient.  `decompose_exact` never builds
a table of polynomials:

- Numerators are sums of big integers at q = 2^K (qcalc.pack).  Each w_mu
  is packed once as W_mu, and a nonzero entry sign (q-1)^a q^e adds
  sign W_mu (2^K - 1)^a << K e.  The l1 norm is submultiplicative and
  l1((q-1)^a) = 2^a, so B = sum_mu l1(|K_mu|) l1(f(mu)) 2^a_max, a_max the
  most arcs of a partition, bounds every coefficient of every numerator,
  and K = bits(B) + 1 unpacks each one exactly.
- The denominator has the closed form q^C(n,2) (q-1)^|nu| q^crs(nu), where
  crs(nu) counts the crossing pairs of arcs (Chen-Deng-Du-Stanley-Yan).
- The solver then rebuilds f from the coefficients at every superclass,
  packed at a second K = bits(M) + 1, M = max(max_mu l1(f(mu)),
  sum_nu l1(c_nu) 2^|nu|).  Both sides' coefficients lie within +-M, so
  their difference's lie within +-2^K, where equal packs mean equal
  polynomials.  The table is invertible over Q(q), so a rebuild that
  matches proves the coefficients are the unique ones, whatever the class
  sizes or the denominator formula.

The numeric Gauss-Jordan solve at a fixed prime (`decompose_at_prime`) is
not on any CLI path: only the tests' `numeric_decompose` and the benchmark
tracer call it.  `verify solver` rebuilds oracle traces through the integer
table instead.
"""

from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import combinations
from math import comb
from operator import attrgetter

from .qcalc import (
    QPoly, ZERO, InexactDivision, l1, packing, divide_exact, pack, unpack)
from .setpart import (
    SetPartition, arc_token, arcs_label, enumerate_partitions,
)


class DecompositionError(ArithmeticError):
    """The symbolic solver could not certify a decomposition: a coefficient
    is not an integer polynomial (or exceeds the degree bound), or the
    coefficients do not rebuild the function."""


class SingularSystem(Exception):
    """The sampled linear system was singular (signals a bug: the
    supercharacter table is invertible)."""


def _monomial(lam, mu, ambient):
    """chi^lam(u_mu) as (sign, a, e) with value sign (q-1)^a q^e, or None
    when it vanishes; lam may be any ArcMultiset, mu must be a
    SetPartition; both read over the `ambient` ground set.  An arc i~k
    gives 0 when mu has an arc i~j or j~k with i<j<k; otherwise q^(points
    inside - arcs of mu inside) times q-1 when mu lacks the arc, and times
    -1 when mu has it."""
    labels = ambient.labels
    meet = e = 0
    for i, k in lam.arcs:
        # an arc of mu that shares one end with i~k and lies under it kills
        # the value; i~k itself is a meet; one strictly inside lowers e.
        # mu's arcs come by left endpoint, and none from k on touches i~k
        for j, l in mu.arcs:
            if j >= k:
                break
            if j == i:
                if l < k:
                    return None
                meet += l == k
            elif l == k:
                if j > i:
                    return None
            elif i < j and l < k:
                e -= 1
        e += bisect_left(labels, k) - bisect_right(labels, i)
    return -1 if meet & 1 else 1, len(lam.arcs) - meet, e


def _poly(sign, a, e):
    """sign (q-1)^a q^e as a QPoly, by the binomial theorem."""
    return QPoly([0] * e + [sign * (-1) ** (a - j) * comb(a, j)
                            for j in range(a + 1)])


def superchar_value(lam, mu, ambient):
    """chi^lam(u_mu) as a QPoly: the signed monomial of `_monomial`, or
    zero."""
    m = _monomial(lam, mu, ambient)
    return ZERO if m is None else _poly(*m)


def superclass_size(mu, ground):
    """|K_mu|, the size of the superclass of u_mu in UT_ground, as a QPoly.

    With the arcs of mu read in the ranks of `ground` (n = |ground|):
    (q-1)^|mu| q^(sum_{(i,l) in mu} (n-l+i-1)
                  - #{(i,l), (j,k) in mu : i<j, l<k}).
    """
    rank = {x: r for r, x in enumerate(ground, 1)}
    n = len(ground)
    arcs = [(rank[i], rank[l]) for i, l in mu.arcs]
    e = sum(n - l + i - 1 for i, l in arcs)
    # sorted by distinct left endpoints, so i < j holds in every pair
    e -= sum(1 for (_, l), (_, k) in combinations(arcs, 2) if l < k)
    return _poly(1, len(arcs), e)


class SuperclassFunction:
    """Total map from S_K to values: QPolys for a symbolic superclass
    function, integers for the numeric solve at a prime."""

    __slots__ = ("ground", "values")

    def __init__(self, ground, values):
        self.ground = ground
        self.values = dict(values)
        want = {mu for mu, _, _ in enumerate_partitions(ground)}
        if self.values.keys() != want:
            raise ValueError("value map must be total on the partitions of "
                             f"{list(ground)}")

    def __call__(self, mu):
        return self.values[mu]


def restrict_values(lam, sub):
    """Restriction of chi^lam from UT_N' to UT_K as a value table on S_K.

    lam lives over N' = lam.ground; sub = K is any subset of N'.  The value
    at mu in S_K is chi^lam(u_mu) with mu read as a partition of N'.
    """
    ambient = lam.ground
    if not all(x in ambient for x in sub):
        raise ValueError(f"K = {list(sub)} is not a subset of the ground "
                         f"set {list(ambient)}")
    values = {}
    for mu, _, _ in enumerate_partitions(sub):
        mu_big = SetPartition(ambient, mu.arcs)
        values[mu] = superchar_value(lam, mu_big, ambient)
    return SuperclassFunction(sub, values)


class Decomposition:
    """Coefficient map from basis labels to QPoly, tagged with the basis."""

    __slots__ = ("basis", "coeffs")

    def __init__(self, basis, coeffs):
        self.basis = basis
        # a dict copy keeps the keys' hashes: only the zeros are looked up
        self.coeffs = dict(coeffs)
        for k in [k for k, v in coeffs.items() if v.is_zero()]:
            del self.coeffs[k]

    def __getitem__(self, label):
        return self.coeffs.get(label, ZERO)

    def __eq__(self, other):
        return (isinstance(other, Decomposition)
                and self.basis == other.basis and self.coeffs == other.coeffs)

    def columns(self):
        """The rows as two lists, the label texts and the coefficients:
        partitions first, by arc count and then arcs, then the other labels
        by text.  The text of each arc is made once per call."""
        parts, others = [], []
        for label in self.coeffs:
            (parts if isinstance(label, SetPartition) else others).append(
                label)
        # by arcs, then stably by arc count; each partition holds its arcs
        # sorted already
        parts.sort(key=attrgetter("arcs"))
        parts.sort(key=len)
        others.sort(key=str)
        token = _ArcTokens().__getitem__
        labels = [arcs_label(map(token, lam.arcs)) for lam in parts]
        labels += map(str, others)
        parts += others
        return labels, list(map(self.coeffs.__getitem__, parts))

    def labels_text(self):
        """(label text, coeff) pairs in the order of `columns`."""
        return list(zip(*self.columns()))


class _ArcTokens(dict):
    """arc -> its i-j token, made on the first lookup."""

    __slots__ = ()

    def __missing__(self, arc):
        token = self[arc] = arc_token(arc)
        return token


def solve_exact(matrix, rhs):
    """Gaussian elimination over Fractions; returns the solution vector.

    Raises SingularSystem when the matrix is not invertible.
    """
    n = len(matrix)
    A = [[Fraction(x) for x in row] + [Fraction(rhs[i])]
         for i, row in enumerate(matrix)]
    for col in range(n):
        piv = next((r for r in range(col, n) if A[r][col] != 0), None)
        if piv is None:
            raise SingularSystem(f"no pivot in column {col}")
        A[col], A[piv] = A[piv], A[col]
        inv = 1 / A[col][col]
        A[col] = [x * inv for x in A[col]]
        for r in range(n):
            if r != col and A[r][col]:
                f = A[r][col]
                A[r] = [x - f * y for x, y in zip(A[r], A[col])]
    return [A[r][n] for r in range(n)]


def _table_order(ground):
    """The partitions of ground by arc count and then arcs: the scan yields
    in order of arcs, and a stable sort by count keeps it."""
    return sorted((mu for mu, _, _ in enumerate_partitions(ground)), key=len)


def supercharacter_table(ground, q):
    """Matrix [chi^nu(u_mu)] at the integer q, rows mu, cols nu, in the
    order of `_table_order`: each nonzero entry is sign (q-1)^a q^e."""
    parts = _table_order(ground)
    unit = [(q - 1) ** a for a in range(len(ground) + 1)]

    def value(nu, mu):
        m = _monomial(nu, mu, ground)
        if m is None:
            return 0
        sign, a, e = m
        return sign * unit[a] * q ** e

    return parts, [[value(nu, mu) for nu in parts] for mu in parts]


def decompose_at_prime(f, p):
    """Coefficients in the supercharacter basis, at q = p (Fractions), of a
    superclass function f with integer values."""
    parts, M = supercharacter_table(f.ground, p)
    sol = solve_exact(M, [f(mu) for mu in parts])
    return dict(zip(parts, sol))


def _norm(nu, n):
    """sum_mu |K_mu| chi^nu(u_mu)^2 over the superclasses of UT_n, in closed
    form: q^C(n,2) (q-1)^|nu| q^crs(nu), crs(nu) counting the crossing pairs
    of arcs i~k, j~l with i<j<k<l."""
    # sorted by distinct left endpoints, so i < j holds in every pair
    crs = sum(1 for (_, k), (j, l) in combinations(nu.arcs, 2) if j < k < l)
    return _poly(1, len(nu), n * (n - 1) // 2 + crs)


def decompose_exact(f, degree_bound=None):
    """Expand a symbolic SuperclassFunction in the supercharacter basis.

    Each coefficient is the orthogonality quotient
    sum_mu |K_mu| f(mu) chi^nu(u_mu) / `_norm`(nu), its numerator summed
    packed and divided exactly in Z[q]; then sum_nu c_nu chi^nu(u_mu) ==
    f(mu) is checked packed at every mu.  Raises DecompositionError when a
    quotient is not an integer polynomial, when a coefficient's degree
    exceeds `degree_bound` (if given), or when the coefficients do not
    rebuild f.
    """
    ground = f.ground
    parts = _table_order(ground)
    values = [f(mu) for mu in parts]
    sizes = [superclass_size(mu, ground) for mu in parts]
    top = len(parts[-1])    # the most arcs: chi^nu has l1 norm <= 2^top
    K = packing(sum(l1(s) * l1(v) for s, v in zip(sizes, values)) << top)
    unit = (1 << K) - 1     # q - 1 at q = 2^K
    weighted = [pack(s, K) * pack(v, K) for s, v in zip(sizes, values)]
    weighted = [[w * unit ** a for a in range(top + 1)] for w in weighted]
    coeffs, columns = {}, {}
    for j, nu in enumerate(parts):
        column = [(i, m) for i, mu in enumerate(parts)
                  if (m := _monomial(nu, mu, ground))]
        num = 0
        for i, (sign, a, e) in column:
            term = weighted[i][a] << K * e
            num = num + term if sign > 0 else num - term
        if not num:
            continue
        try:
            c = divide_exact(unpack(num, K), _norm(nu, len(ground)))
        except InexactDivision as exc:
            raise DecompositionError(
                f"coefficient of {nu.label()}: {exc}") from None
        if degree_bound is not None and c.degree() > degree_bound:
            raise DecompositionError(
                f"coefficient of {nu.label()} has degree {c.degree()} > "
                f"bound {degree_bound}")
        coeffs[j], columns[j] = c, column
    # the coefficients of each rebuilt value and of f(mu) lie within +-bound
    # and those of their difference within +-2^K, so equal packs mean equal
    # polynomials, and a rebuilt value unpacks exactly
    K = packing(max(max(map(l1, values)),
                     sum(l1(c) << len(parts[j]) for j, c in coeffs.items())))
    unit = (1 << K) - 1
    rebuilt = [0] * len(parts)
    for j, c in coeffs.items():
        packed = [pack(c, K) * unit ** a for a in range(len(parts[j]) + 1)]
        for i, (sign, a, e) in columns[j]:
            term = packed[a] << K * e
            rebuilt[i] += term if sign > 0 else -term
    for mu, v, got in zip(parts, values, rebuilt):
        if got != pack(v, K):
            raise DecompositionError(
                f"coefficients do not rebuild f at {mu.label()}: "
                f"{unpack(got, K)} != {v}")
    return Decomposition("supercharacter",
                         {parts[j]: c for j, c in coeffs.items()})
