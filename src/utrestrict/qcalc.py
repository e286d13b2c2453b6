"""Exact integer-coefficient polynomials in the formal variable q.

QPoly stores coefficients little-endian by exponent, with no trailing zeros
(the zero polynomial is the empty tuple).  All the q-combinatorial quantities
(q-integers, q-factorials, q-binomials, the phi products) live here,
together with the exact division used by the decomposition solver, exact
Newton interpolation through integer samples, and the Kronecker kernel
(pack, unpack, laurent_sum) on which the engines' hot sums run.

Every q-binomial is one sum, e_k(q^w : w in weights): the paper's poset
binomial over the block weights (nestposet), and qbinom(n, k) over the chain
weights 0..n-1, where e_k is q^C(k,2) times the Gaussian binomial.
"""

import re
from fractions import Fraction
from functools import cache
from math import prod


class NonIntegralInterpolation(Exception):
    """Interpolation succeeded but the coefficients are not integers."""


class InexactDivision(ArithmeticError):
    """A polynomial quotient left a remainder or has a non-integer
    coefficient."""


class QPoly:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        c = list(coeffs)
        if not all(isinstance(x, int) for x in c):
            raise TypeError(f"QPoly coefficients must be integers: {c!r}")
        while c and c[-1] == 0:
            c.pop()
        self.coeffs = tuple(c)

    @classmethod
    def _of(cls, c):
        """QPoly from a list of ints without the type check: integers are
        closed under the ring operations, so their results need none."""
        while c and c[-1] == 0:
            c.pop()
        out = cls.__new__(cls)
        out.coeffs = tuple(c)
        return out

    @staticmethod
    def const(c):
        return QPoly((c,))

    @staticmethod
    def q_pow(e):
        if e < 0:
            raise ValueError(f"negative power of q: q^{e}")
        return QPoly((0,) * e + (1,))

    def is_zero(self):
        return not self.coeffs

    def degree(self):
        # degree of 0 is -1 by convention
        return len(self.coeffs) - 1

    def __eq__(self, other):
        if isinstance(other, int):
            other = QPoly.const(other)
        return isinstance(other, QPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        if isinstance(other, int):
            other = QPoly.const(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return QPoly._of([x + (b[i] if i < len(b) else 0)
                          for i, x in enumerate(a)])

    __radd__ = __add__

    def __neg__(self):
        return QPoly._of([-x for x in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, int):
            other = QPoly.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return QPoly.const(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, int):
            return QPoly._of([other * x for x in self.coeffs])
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return QPoly()
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return QPoly._of(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError(f"negative power of a polynomial: {n}")
        out = QPoly.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def shift(self, e):
        """Multiply by q^e."""
        if e < 0:
            raise ValueError(f"negative q-shift: q^{e}")
        if not self.coeffs:
            return self
        return QPoly._of([0] * e + list(self.coeffs))

    def __call__(self, q):
        """Evaluate at an integer or Fraction value of q (Horner)."""
        out = 0
        for c in reversed(self.coeffs):
            out = out * q + c
        return out

    def __str__(self):
        # sparse descending form, e.g. "q^5 - q^3 - q^2 + 1": each term
        # signed, "+ " or "- ", then one join, which drops the leading "+ "
        # and closes up a leading "- "
        coeffs = self.coeffs
        if not coeffs:
            return "0"
        terms = []
        for e in range(len(coeffs) - 1, -1, -1):
            c = coeffs[e]
            if c:
                sign = "- " if c < 0 else "+ "
                a = abs(c)
                if e == 0:
                    terms.append(f"{sign}{a}")
                else:
                    power = "q" if e == 1 else f"q^{e}"
                    terms.append(sign + power if a == 1
                                 else f"{sign}{a}*{power}")
        text = " ".join(terms)
        return text[2:] if text[0] == "+" else "-" + text[2:]

    def __repr__(self):
        return f"QPoly({str(self)})"

    @staticmethod
    def parse(text):
        """The inverse of __str__: a text that no polynomial prints raises
        ValueError."""
        # the first term gets a sign, "+ " or "- ", as each later one has
        words = re.split(r"(?:^| )([-+]) ",
                         "- " + text[1:] if text[:1] == "-" else "+ " + text)
        coeffs = {}
        for sign, term in zip(words[1::2], words[2::2]):
            m = re.fullmatch(r"([0-9]+)|(?:([0-9]+)\*)?q(?:\^([0-9]+))?", term)
            if m is None:
                raise ValueError(f"bad term {term!r} in {text!r}")
            c = int(m[1] or m[2] or 1)
            e = 0 if m[1] else int(m[3] or 1)
            coeffs[e] = c if sign == "+" else -c
        out = QPoly([coeffs.get(e, 0) for e in range(max(coeffs) + 1)])
        if str(out) != text:
            raise ValueError(f"{text!r} is not the text of a polynomial")
        return out


ZERO = QPoly()
ONE = QPoly.const(1)
Q_MINUS_1 = QPoly((-1, 1))


# --- Kronecker substitution: p(q) as the integer p(2^K) ----------------------

def pack(poly, K):
    """The integer poly(2^K) (Horner in base 2^K)."""
    v = 0
    for c in reversed(poly.coeffs):
        v = (v << K) + c
    return v


def unpack(v, K):
    """The polynomial p with pack(p, K) == v, read off as signed base-2^K
    digits: exact when every coefficient of p lies in [-2^(K-1), 2^(K-1)),
    for K >= 2 (at K = 1 no positive v ends)."""
    half, mask = 1 << (K - 1), (1 << K) - 1
    out = []
    while v:
        c = ((v + half) & mask) - half
        out.append(c)
        v = (v - c) >> K
    return QPoly._of(out)


def l1(poly):
    return sum(map(abs, poly.coeffs))


def packing(bound):
    """K for q = 2^K such that pack/unpack are exact on polynomials whose
    coefficients lie within +-bound: 2^(K-1) > bound, and K >= 2."""
    return max(bound, 1).bit_length() + 1


def laurent_sum(terms):
    """(poly, e) with q^e poly the sum of q^e_i prod(factors_i) over the
    (factors_i, e_i) in terms; e is the least e_i of a nonzero term and may
    be negative.  Each product is one big-int product at q = 2^K: the l1
    norm is submultiplicative and bounds every coefficient, so the sum's lie
    within B = sum_i prod of the l1 norms of factors_i, and K = packing(B)
    puts them in [-2^(K-1), 2^(K-1))."""
    terms = [(fs, e) for fs, e in terms if all(f.coeffs for f in fs)]
    if not terms:
        return ZERO, 0
    low = min(e for _, e in terms)
    K = packing(sum(prod(map(l1, fs)) for fs, _ in terms))
    return unpack(sum(prod(pack(f, K) for f in fs) << K * (e - low)
                      for fs, e in terms), K), low


def divide_exact(num, den):
    """num / den in Z[q].

    Raises InexactDivision unless den divides num with an integer quotient,
    and ZeroDivisionError when den is zero.
    """
    if den.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    rem = list(num.coeffs)
    top = den.degree()
    lead = den.coeffs[-1]
    quot = [0] * max(len(rem) - top, 0)
    for k in range(len(quot) - 1, -1, -1):
        c, r = divmod(rem[k + top], lead)
        if r:
            raise InexactDivision(f"({num}) / ({den}) is not integral")
        quot[k] = c
        if c:
            for i, x in enumerate(den.coeffs):
                rem[k + i] -= c * x
    if any(rem):
        raise InexactDivision(f"({num}) / ({den}) leaves a remainder")
    return QPoly._of(quot)


def qint(n):
    """[n] = 1 + q + ... + q^(n-1); qint(0) = 0."""
    if n < 0:
        raise ValueError(f"qint needs n >= 0: {n}")
    return QPoly((1,) * n)


@cache
def qfactorial(n):
    if n < 0:
        raise ValueError(f"qfactorial needs n >= 0: {n}")
    out = ONE
    for i in range(2, n + 1):
        out = out * qint(i)
    return out


@cache
def e_k(weights, k):
    """e_k(q^w : w in weights), the sum over k-subsets of q^(their sum),
    and zero unless 0 <= k <= len(weights).  Symmetric in the weights, so
    callers pass them as a sorted tuple: the engines meet few distinct
    weight vectors across many partitions.  The rows grow with k, so past
    len/2 it is q^(sum of the weights) e_(len-k) at 1/q: the coefficients of
    e_(len-k), padded to that degree and reversed."""
    if k < 0 or k > len(weights):
        return ZERO
    low = min(k, len(weights) - k)
    # rows[j]: coefficients of e_j over the weights seen so far
    rows = [[1]] + [[] for _ in range(low)]
    for i, w in enumerate(weights):
        for j in range(min(i + 1, low), 0, -1):
            src, dst = rows[j - 1], rows[j]
            if len(dst) < len(src) + w:
                dst.extend([0] * (len(src) + w - len(dst)))
            for e, c in enumerate(src):
                dst[e + w] += c
    row = rows[low]
    if low < k:
        row = (row + [0] * (sum(weights) + 1 - len(row)))[::-1]
    return QPoly._of(row)


@cache
def qbinom(n, k):
    """[n choose k]_q, zero unless 0 <= k <= n: e_k over the chain weights
    0..n-1 is q^C(k,2) times it, so drop its first C(k,2) coefficients (all
    zero).  e_k loops over the weights, so any n fits the stack."""
    return QPoly._of(list(e_k(tuple(range(n)), k).coeffs[k * (k - 1) // 2:]))


@cache
def qphi(n, k):
    """phi^n_k = prod_{j=0}^{k-1} (q^(n-j) - 1), for 0 <= k <= n."""
    if not 0 <= k <= n:
        raise ValueError(f"qphi needs 0 <= k <= n: {(n, k)}")
    out = ONE
    for j in range(k):
        out = out * (QPoly.q_pow(n - j) - 1)
    return out


def qmultinom(n, ks):
    """[n]! / prod [k_j]!  with sum(ks) = n, as an exact polynomial."""
    if sum(ks) != n:
        raise ValueError(f"qmultinom parts {tuple(ks)} do not sum to {n}")
    # iterated qbinom keeps the computation division-free
    out = ONE
    rest = n
    for k in ks:
        out = out * qbinom(rest, k)
        rest -= k
    return out


def interpolate(points, require_integer=True):
    """Newton interpolation through (x, value) pairs with exact rationals.

    Raises NonIntegralInterpolation when the result has a non-integer
    coefficient and an integer polynomial was demanded.
    """
    xs = [p[0] for p in points]
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation nodes must be distinct")
    ys = [Fraction(p[1]) for p in points]
    n = len(points)
    # divided differences
    dd = ys[:]
    for level in range(1, n):
        for i in range(n - 1, level - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / (xs[i] - xs[i - level])
    # expand the Newton form into monomial coefficients
    coeffs = [Fraction(0)] * n
    basis = [Fraction(1)] + [Fraction(0)] * n  # running prod (x - x_i)
    deg = 0
    for level in range(n):
        c = dd[level]
        for i in range(deg + 1):
            coeffs[i] += c * basis[i]
        # basis *= (x - xs[level])
        new = [Fraction(0)] * (n + 1)
        for i in range(deg + 1):
            if basis[i]:
                new[i + 1] += basis[i]
                new[i] -= basis[i] * xs[level]
        basis = new
        deg += 1
    if require_integer:
        if any(c.denominator != 1 for c in coeffs):
            raise NonIntegralInterpolation(
                f"non-integer coefficients: {coeffs}")
        return QPoly(int(c) for c in coeffs)
    return coeffs


def primes(count, start=2):
    """First `count` primes >= start."""
    out = []
    p = max(2, start)
    while len(out) < count:
        if all(p % d for d in range(2, int(p ** 0.5) + 1)):
            out.append(p)
        p += 1
    return out
