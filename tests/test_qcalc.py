import itertools
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from utrestrict import qcalc, restrict
from utrestrict.qcalc import (
    QPoly, NonIntegralInterpolation, InexactDivision, divide_exact,
    e_k, qint, qfactorial, qbinom, qphi, qmultinom, interpolate, primes,
    pack, unpack, laurent_sum, ONE, ZERO, Q_MINUS_1,
)
from utrestrict.setpart import GroundSet

from conftest import subset_sum


def brute_subspace_count(p, n, k):
    # count k-dim subspaces of F_p^n by counting ordered bases
    num = 1
    for i in range(k):
        num *= p ** n - p ** i
    den = 1
    for i in range(k):
        den *= p ** k - p ** i
    assert num % den == 0
    return num // den


class TestQPoly:
    def test_canonical_trailing_zeros(self):
        assert QPoly((1, 0, 0)).coeffs == (1,)
        assert QPoly((0, 0)).coeffs == ()
        assert QPoly() == ZERO

    def test_arith(self):
        a = QPoly((1, 2))
        b = QPoly((0, -2, 3))
        assert (a + b).coeffs == (1, 0, 3)
        assert (a - a).is_zero()
        assert (a * b).coeffs == (0, -2, -1, 6)
        assert a * 0 == ZERO
        assert (a ** 3) == a * a * a

    def test_eval(self):
        p = QPoly((1, -1, 0, 2))
        assert p(3) == 1 - 3 + 2 * 27
        assert p(Fraction(1, 2)) == Fraction(3, 4)

    def test_str_roundtrip(self):
        cases = [ZERO, ONE, QPoly((-1, 1)), QPoly((1, 0, -1, -1, 0, 1)),
                 QPoly((0, 3)), QPoly((-7,)), QPoly((0, 0, -2, 5))]
        for p in cases:
            assert QPoly.parse(str(p)) == p

    def test_str_form(self):
        assert str(QPoly((1, 0, -1, -1, 0, 1))) == "q^5 - q^3 - q^2 + 1"
        assert str(ZERO) == "0"
        assert str(QPoly((0, 1))) == "q"
        assert str(QPoly((5,))) == "5"
        assert str(QPoly((0, 0, 0, 2))) == "2*q^3"
        # a negative leading coefficient: "-" closed up, the others spaced
        assert str(QPoly((-7,))) == "-7"
        assert str(QPoly((0, -1))) == "-q"
        assert str(QPoly((-1, 1, 0, -2))) == "-2*q^3 + q - 1"
        assert str(QPoly((0, 3, -1))) == "-q^2 + 3*q"

    @given(st.lists(st.integers(-9, 9), max_size=6),
           st.lists(st.integers(-9, 9), max_size=6),
           st.integers(-3, 3))
    def test_hom_eval(self, a, b, x):
        pa, pb = QPoly(a), QPoly(b)
        assert (pa + pb)(x) == pa(x) + pb(x)
        assert (pa * pb)(x) == pa(x) * pb(x)


class TestQCombinatorics:
    def test_qint(self):
        assert qint(0) == ZERO
        assert qint(1) == ONE
        assert qint(3) == QPoly((1, 1, 1))

    def test_qbinom_edges(self):
        assert qbinom(5, 0) == ONE
        assert qbinom(5, -1) == ZERO
        assert qbinom(5, 6) == ZERO
        assert qbinom(2, 1) == QPoly((1, 1))

    def test_qbinom_counts_subspaces(self):
        # frozen oracle value from spec examples
        assert qbinom(4, 2)(2) == 35
        for p, n in itertools.product((2, 3), range(5)):
            for k in range(n + 1):
                assert qbinom(n, k)(p) == brute_subspace_count(p, n, k)

    def test_qbinom_pascal(self):
        for n in range(1, 13):
            for k in range(n + 1):
                assert qbinom(n, k) == \
                    qbinom(n - 1, k - 1) + qbinom(n - 1, k).shift(k)

    def test_e_k_sums_over_subsets(self):
        # every weight tuple of at most 6 entries in 0..3, in every order,
        # and every k from -1 to one past its length
        for size in range(7):
            for weights in itertools.product(range(4), repeat=size):
                for k in range(-1, size + 2):
                    assert e_k(weights, k) == subset_sum(weights, k), \
                        (weights, k)

    def test_qbinom_times_factorials(self):
        # [n choose k]_q [k]! [n-k]! = [n]!, a witness that shares no code
        # with e_k
        for n in range(13):
            for k in range(n + 1):
                assert qbinom(n, k) * qfactorial(k) * qfactorial(n - k) == \
                    qfactorial(n)

    @staticmethod
    def e_k_lines(weights, k):
        """The lines that one uncached e_k(weights, k) runs."""
        code, count = e_k.__wrapped__.__code__, [0]

        def tracer(frame, event, arg):
            if frame.f_code is not code:
                return None
            count[0] += event == "line"
            return tracer

        before = sys.gettrace()
        sys.settrace(tracer)
        try:
            e_k.__wrapped__(weights, k)
        finally:
            sys.settrace(before)
        return count[0]

    def test_qbinom_takes_the_smaller_k(self):
        # e_k's rows grow with k, and past len/2 it reads the complement:
        # e_97 of the chain 0..99 builds the rows of e_3 (31,196 lines run
        # at k = 3), where building the rows up to k runs 16,309,787; the
        # [100 choose 97] that reads it is [100 choose 3]
        chain = tuple(range(100))
        assert self.e_k_lines(chain, 97) <= self.e_k_lines(chain, 3) + 10
        assert qbinom.__wrapped__(100, 97) == qbinom.__wrapped__(100, 3)

    def test_qbinom_symmetry(self):
        for n in range(10):
            for k in range(n + 1):
                assert qbinom(n, k) == qbinom(n, n - k)

    def test_loops_fit_a_shallow_stack(self, run_python):
        # qfactorial and qbinom loop over n, so n far past the recursion
        # limit works
        proc = run_python("-c", "\n".join([
            "import sys",
            "from utrestrict.qcalc import qbinom, qfactorial",
            "sys.setrecursionlimit(60)",
            "print(qfactorial(64)(1), qbinom(200, 3)(1))"]))
        assert (proc.returncode, proc.stdout, proc.stderr) == \
            (0, f"{math.factorial(64)} {math.comb(200, 3)}\n", "")

    def test_qphi(self):
        assert qphi(5, 0) == ONE
        assert qphi(1, 1) == Q_MINUS_1
        assert qphi(3, 2) == QPoly((1, 0, -1, -1, 0, 1))
        for k in (-1, 3):
            with pytest.raises(ValueError):
                qphi(2, k)

    def test_qphi_factorization(self):
        for n in range(13):
            for k in range(n + 1):
                assert qphi(n, k) == \
                    (Q_MINUS_1 ** k) * qfactorial(k) * qbinom(n, k)

    def test_qmultinom(self):
        assert qmultinom(4, (2, 1, 1)) == \
            qbinom(4, 2) * qbinom(2, 1) * qbinom(1, 1)
        assert qmultinom(3, (3,)) == ONE


def tuple_laurent_sum(terms):
    """laurent_sum by the tuple arithmetic: the reference."""
    prods = [(math.prod(fs, start=ONE), e) for fs, e in terms]
    prods = [(p, e) for p, e in prods if not p.is_zero()]
    if not prods:
        return ZERO, 0
    low = min(e for _, e in prods)
    return sum((p.shift(e - low) for p, e in prods), ZERO), low


class TestKronecker:
    """pack, unpack and laurent_sum against the tuple arithmetic, on seeded
    random signed polynomials."""

    @staticmethod
    def random_poly(rng, bits):
        return QPoly([rng.randint(-(1 << bits), 1 << bits)
                      for _ in range(rng.randint(0, 9))])

    def test_round_trip(self):
        rng = random.Random(16)
        for _ in range(500):
            K = rng.randint(2, 70)
            half = 1 << (K - 1)
            p = QPoly([rng.randrange(-half, half)
                       for _ in range(rng.randint(0, 12))])
            assert unpack(pack(p, K), K) == p
            assert pack(p, K) == p(1 << K)
        for K in (2, 3, 8, 64):
            # every digit at an end of [-2^(K-1), 2^(K-1))
            half = 1 << (K - 1)
            p = QPoly((-half, half - 1, -half, 0, half - 1, -half))
            assert unpack(pack(p, K), K) == p

    def test_round_trip_fails_outside_the_digit_range(self):
        # negative controls: a coefficient of exactly 2^(K-1), and a width
        # one bit short of a coefficient bound B
        for K in (2, 3, 8, 33, 64):
            p = QPoly((-1, 1 << (K - 1), 1))
            assert unpack(pack(p, K), K) != p
        for B in (2, 5, 8, 255, (1 << 40) + 3):
            p = QPoly((0, B, -B, 1))
            K = B.bit_length() + 1
            assert unpack(pack(p, K), K) == p
            assert unpack(pack(p, K - 1), K - 1) != p

    def test_laurent_sum_matches_tuple_arithmetic(self):
        rng = random.Random(1616)
        for _ in range(400):
            bits = rng.choice((1, 3, 20, 70))
            terms = [(tuple(ZERO if rng.random() < 0.1
                            else self.random_poly(rng, bits)
                            for _ in range(rng.randint(0, 4))),
                      rng.randint(-5, 5))
                     for _ in range(rng.randint(0, 6))]
            assert laurent_sum(terms) == tuple_laurent_sum(terms), terms

    def test_laurent_sum_at_a_tight_bound(self):
        # a sum of constants reaches its l1 bound, so the width is tight at
        # every B; at 2^j - 1 and 2^j it gains a bit
        for B in range(1, 300):
            for c in (B, -B):
                terms = [((QPoly((c,)),), 3)]
                assert laurent_sum(terms) == (QPoly((c,)), 3)
            terms = [((QPoly((1, 1)), QPoly((B - 1, 1))), -2),
                     ((QPoly((1,)),), -2)]
            assert laurent_sum(terms) == tuple_laurent_sum(terms)

    def test_ut_algebra_pass_meets_its_bound(self, monkeypatch):
        # the packed ut-algebra pass unpacks at K = 2n + 2 because the l1
        # norm of every base is at most 3^(n-1); it is met at n = 1 and
        # reached a third of the way at n = 2..4
        norms = []
        superchars = restrict._superchars

        def recorded(ground, base, *args, **kwargs):
            def tallied(lam, skeleton):
                poly, e = base(lam, skeleton)
                norms.append(sum(map(abs, poly.coeffs)))
                return poly, e
            return superchars(ground, tallied, *args, **kwargs)

        monkeypatch.setattr(restrict, "_superchars", recorded)
        for n in range(1, 10):
            norms.clear()
            restrict.ut_algebra(GroundSet.range(n)).superchar_decomposition()
            assert norms and max(norms) <= 3 ** (n - 1), n
        assert max(norms) == 721


class TestInterpolate:
    def test_linear(self):
        assert interpolate([(2, 3), (3, 4), (5, 6)]) == QPoly((1, 1))

    def test_constant(self):
        assert interpolate([(2, 1), (3, 1)]) == ONE

    def test_roundtrip_qbinom(self):
        p = qbinom(4, 2)
        pts = [(x, p(x)) for x in (2, 3, 5, 7, 11)]
        assert interpolate(pts) == p

    def test_degree_40_roundtrip(self):
        p = QPoly(tuple((-1) ** i * (i + 1) for i in range(41)))
        xs = primes(41)
        assert interpolate([(x, p(x)) for x in xs]) == p

    def test_non_integral_flagged(self):
        with pytest.raises(NonIntegralInterpolation):
            interpolate([(0, 0), (2, 1)])

    def test_rational_allowed(self):
        coeffs = interpolate([(0, 0), (2, 1)], require_integer=False)
        assert coeffs[1] == Fraction(1, 2)


class TestDivideExact:
    def test_exact_quotient(self):
        assert divide_exact(qphi(3, 2), Q_MINUS_1) == \
            (QPoly.q_pow(3) - 1) * qint(2)
        assert divide_exact(qfactorial(5), qfactorial(3)) == qint(4) * qint(5)
        assert divide_exact(QPoly((-6, 4)), QPoly((3, -2))) == \
            QPoly.const(-2)

    def test_quotient_times_divisor(self):
        for a in (qbinom(6, 3), Q_MINUS_1 ** 4, QPoly((5, -3, 0, 2))):
            for b in (ONE, Q_MINUS_1, qint(3).shift(2), QPoly((1, 0, -2))):
                assert divide_exact(a * b, b) == a

    def test_remainder_raises(self):
        with pytest.raises(InexactDivision):
            divide_exact(qint(3), Q_MINUS_1)
        with pytest.raises(InexactDivision):
            divide_exact(ONE, QPoly.q_pow(1))

    def test_non_integral_quotient_raises(self):
        # q + 1 = (1/2)(2q + 2) over Q, but not over Z
        with pytest.raises(InexactDivision):
            divide_exact(qint(2), QPoly((2, 2)))

    def test_zero_numerator(self):
        assert divide_exact(ZERO, qint(3)) == ZERO

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            divide_exact(ONE, ZERO)


class TestIntegerCoefficients:
    def test_non_integer_raises(self):
        with pytest.raises(TypeError):
            QPoly([1.5])
        with pytest.raises(TypeError):
            QPoly.const(Fraction(1, 2))

    def test_non_integer_raises_under_optimize(self, run_optimized):
        script = ("from utrestrict.qcalc import QPoly\n"
                  "try:\n"
                  "    QPoly([1.5])\n"
                  "    print('returned')\n"
                  "except TypeError:\n"
                  "    print('raised')\n")
        proc = run_optimized(script)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["raised"]


class TestNegativeExponent:
    def test_shift_raises(self):
        with pytest.raises(ValueError):
            qint(2).shift(-1)

    def test_q_pow_raises(self):
        with pytest.raises(ValueError):
            QPoly.q_pow(-2)


def test_primes():
    assert primes(5) == [2, 3, 5, 7, 11]
    assert primes(3, start=4) == [5, 7, 11]
