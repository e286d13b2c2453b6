"""Symbolic supercharacter values and the exact decomposition solver.

The supercharacter of a set partition lam evaluated at the canonical
superclass representative u_mu is

    (q-1)^|lam-mu| (-1)^|lam cap mu| q^(nst^lam_N - nst^lam_mu)

unless some arc i~k of lam has i~j or j~k in mu with i<j<k, in which case it
vanishes.  Multiset characters factor as the pointwise product of their arcs.

Supercharacters are orthogonal for the superclass-size weighted inner
product (Diaconis-Isaacs), so a superclass function f with polynomial values
has supercharacter coefficients

    c_nu = sum_mu |K_mu| f(mu) chi^nu(u_mu) / sum_mu |K_mu| chi^nu(u_mu)^2,

one exact division in Z[q] per coefficient.  The solver then rebuilds f from
the coefficients at every superclass; the table is invertible over Q(q), so
a rebuild that matches proves the coefficients are the unique ones.  The
numeric Gauss-Jordan solve at a fixed prime (`decompose_at_prime`) is not on
any CLI path: only the tests' `numeric_decompose` and the benchmark tracer
call it.  `verify solver` rebuilds oracle traces through the table instead.
"""

from fractions import Fraction
from itertools import combinations

from .qcalc import ZERO, Q_MINUS_1, InexactDivision, divide_exact
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


def superchar_value(lam, mu, ambient):
    """chi^lam(u_mu) as a QPoly, one factor per arc of lam; lam may be a
    SetPartition or an ArcMultiset, mu must be a SetPartition; both read
    over the `ambient` ground set.  An arc i~k gives 0 when mu has an arc
    i~j or j~k with i<j<k; otherwise q^(points inside - arcs of mu inside)
    times q-1 when mu lacks the arc, and times -1 when mu has it."""
    meet = e = 0
    for i, k in lam.arcs:
        # an arc of mu that shares one end with i~k and lies under it kills
        # the value; i~k itself is a meet; one strictly inside lowers e
        for j, l in mu.arcs:
            if j == i:
                if l < k:
                    return ZERO
                meet += l == k
            elif l == k:
                if j > i:
                    return ZERO
            elif i < j and l < k:
                e -= 1
        e += sum(1 for x in ambient if i < x < k)
    val = (Q_MINUS_1 ** (len(lam.arcs) - meet)).shift(e)
    return val if meet % 2 == 0 else -val


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
    return (Q_MINUS_1 ** len(arcs)).shift(e)


class SuperclassFunction:
    """Total map from S_K to values: QPolys for a symbolic superclass
    function, integers for the numeric solve at a prime."""

    __slots__ = ("ground", "values")

    def __init__(self, ground, values):
        self.ground = ground
        self.values = dict(values)
        want = {mu for mu, _, _ in enumerate_partitions(ground)}
        assert set(self.values) == want, "value map must be total on S_K"

    def __call__(self, mu):
        return self.values[mu]


def restrict_values(lam, sub):
    """Restriction of chi^lam from UT_N' to UT_K as a value table on S_K.

    lam lives over N' = lam.ground; sub = K is any subset of N'.  The value
    at mu in S_K is chi^lam(u_mu) with mu read as a partition of N'.
    """
    ambient = lam.ground
    assert all(x in ambient for x in sub)
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

    def labels_text(self):
        """(label text, coeff) pairs: partitions first, by arc count and
        then arcs, then the other labels by text.  The text of each arc is
        made once per call."""
        parts, others = [], []
        for label, coeff in self.coeffs.items():
            if isinstance(label, SetPartition):
                parts.append((label.arcs, coeff))
            else:
                others.append((str(label), coeff))
        # by arcs, then stably by arc count: an arc tuple alone compares
        # faster than inside a key tuple
        parts.sort(key=lambda row: row[0])
        parts.sort(key=lambda row: len(row[0]))
        others.sort(key=lambda row: row[0])
        tokens = {arc: arc_token(arc) for arc in
                  frozenset().union(*(arcs for arcs, _ in parts))}
        return [(arcs_label(map(tokens.__getitem__, arcs)), coeff)
                for arcs, coeff in parts] + others


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


def supercharacter_table(ground, q=None):
    """Matrix [chi^nu(u_mu)], rows mu, cols nu, in the deterministic
    partition order, by arc count and then arcs: QPoly entries, or integers
    when q is given."""
    # the scan yields in order of arcs; a stable sort by count keeps it
    parts = sorted((mu for mu, _, _ in enumerate_partitions(ground)),
                   key=len)
    table = [[superchar_value(nu, mu, ground) for nu in parts]
             for mu in parts]
    if q is not None:
        table = [[v(q) for v in row] for row in table]
    return parts, table


def decompose_at_prime(f, p):
    """Coefficients in the supercharacter basis, at q = p (Fractions), of a
    superclass function f with integer values."""
    parts, M = supercharacter_table(f.ground, p)
    sol = solve_exact(M, [f(mu) for mu in parts])
    return dict(zip(parts, sol))


def decompose_exact(f, degree_bound=None):
    """Expand a symbolic SuperclassFunction in the supercharacter basis.

    Each coefficient is the orthogonality quotient
    sum_mu |K_mu| f(mu) chi^nu(u_mu) / sum_mu |K_mu| chi^nu(u_mu)^2, divided
    exactly in Z[q]; then sum_nu c_nu chi^nu(u_mu) == f(mu) is checked at
    every mu.  Raises DecompositionError when a quotient is not an integer
    polynomial, when a coefficient's degree exceeds `degree_bound` (if
    given), or when the coefficients do not rebuild f.
    """
    ground = f.ground
    parts, table = supercharacter_table(ground)
    sizes = [superclass_size(mu, ground) for mu in parts]
    weighted = [size * f(mu) for size, mu in zip(sizes, parts)]
    coeffs = {}
    for j, nu in enumerate(parts):
        column = [(w, size, row[j])
                  for w, size, row in zip(weighted, sizes, table)
                  if not row[j].is_zero()]
        num = sum((w * chi for w, _, chi in column), ZERO)
        if num.is_zero():
            continue
        den = sum((size * chi * chi for _, size, chi in column), ZERO)
        try:
            c = divide_exact(num, den)
        except InexactDivision as exc:
            raise DecompositionError(
                f"coefficient of {nu.label()}: {exc}") from None
        if degree_bound is not None and c.degree() > degree_bound:
            raise DecompositionError(
                f"coefficient of {nu.label()} has degree {c.degree()} > "
                f"bound {degree_bound}")
        coeffs[j] = c
    for mu, row in zip(parts, table):
        rebuilt = sum((c * row[j] for j, c in coeffs.items()), ZERO)
        if rebuilt != f(mu):
            raise DecompositionError(
                f"coefficients do not rebuild f at {mu.label()}: "
                f"{rebuilt} != {f(mu)}")
    return Decomposition("supercharacter",
                         {parts[j]: c for j, c in coeffs.items()})
