import itertools
import random
import types
from math import comb

import pytest

from utrestrict.qcalc import (
    QPoly, ZERO, ONE, Q_MINUS_1, InexactDivision, qbinom, qphi, qint,
)
from utrestrict import qcalc, restrict, scfcore
from utrestrict.setpart import (
    GroundSet, SetPartition, ArcMultiset, enumerate_partitions,
    nst, nst_points, wt_up, parse_partition, RegionSplit,
)
from utrestrict.nestposet import block_poset, poset_binom, poset_multinom
from utrestrict.scfcore import (
    SuperclassFunction, superchar_value, decompose_exact, restrict_values,
)
from utrestrict.restrict import (
    ModuleLabel, _shift_signed, psiK, psi_hook,
    core, core_tensor, rainbow, interference, peel, double_rainbow,
    onion, ut_algebra,
)

from conftest import (
    bell, check_nonnegative_at, dr_trivial_reference, region_sizes,
)


# the q at which multiplicities must be nonnegative
QS = (2, 3, 4, 5)


def expand_value(dec, mu, ground):
    """Evaluate a supercharacter decomposition at u_mu symbolically."""
    out = ZERO
    for lam, c in dec.coeffs.items():
        out = out + c * superchar_value(lam, mu, ground)
    return out


def coeff_maps_equal(a, b):
    return a.coeffs == b.coeffs


class TestShiftSigned:
    def test_positive(self):
        assert _shift_signed(qint(3), 2) == qint(3).shift(2)

    def test_exact_division(self):
        assert _shift_signed(QPoly.q_pow(4) - QPoly.q_pow(2), -2) == \
            QPoly.q_pow(2) - 1

    def test_inexact_raises(self):
        with pytest.raises(InexactDivision):
            _shift_signed(qint(2), -1)

    def test_inexact_raises_under_optimize(self, run_optimized):
        # `python -O` strips asserts: a nonzero low coefficient must still
        # stop the division instead of being dropped
        script = (
            "from utrestrict.qcalc import InexactDivision, qint\n"
            "from utrestrict.restrict import _shift_signed\n"
            "try:\n"
            "    print(_shift_signed(qint(2), -1))\n"
            "except InexactDivision:\n"
            "    print('raised')\n")
        proc = run_optimized(script)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "raised\n"



class TestArgumentChecksUnderOptimize:
    def test_bad_arguments_raise_under_optimize(self, run_optimized):
        # `python -O` strips asserts: each of these calls returned a wrong
        # answer there ({} for m = -1, 4 core coefficients for j > k, 1 for
        # [-1]!, a coefficient for an empty ground, a decomposition over
        # unsorted labels, a geometry with n_- below n_--, a scan with
        # weight 2 yielding none of the 7 two-arc partitions of weight 4, one
        # with bound (0, -1) yielding the empty partition, of sum 0,
        # q^2 + 4q + 4 for overlapping pools, 2*q^3 for "2*p^3", a
        # ZeroDivisionError for a repeated node, and 1 for phi^2_{-1}) and
        # must raise instead
        script = (
            "from utrestrict.nestposet import block_poset, poset_multinom\n"
            "from utrestrict.qcalc import (\n"
            "    QPoly, interpolate, qfactorial, qint, qmultinom, qphi)\n"
            "from utrestrict.restrict import (\n"
            "    UtAlgebra, core, core_tensor, double_rainbow, interference,\n"
            "    rainbow)\n"
            "from utrestrict.setpart import (\n"
            "    GroundSet, RegionSplit, enumerate_partitions,\n"
            "    parse_partition)\n"
            "g = GroundSet.range(4)\n"
            "P = block_poset(parse_partition('1-3 2-4', GroundSet.range(5)))\n"
            "calls = [\n"
            "    lambda: double_rainbow(RegionSplit.from_sizes(1, 1, 1),\n"
            "                           -1, 1, 'superchars'),\n"
            "    lambda: core_tensor(3, 1, 2),\n"
            "    lambda: qfactorial(-1),\n"
            "    lambda: UtAlgebra(GroundSet(())),\n"
            "    lambda: core(GroundSet((3, 1, 2)), 1).decomposition(),\n"
            "    lambda: RegionSplit.from_sizes(-1, 1, 1),\n"
            "    lambda: GroundSet((0, 1)),\n"
            "    lambda: g.subset({5}),\n"
            "    lambda: rainbow(g, -1, 'superchars'),\n"
            "    lambda: interference(g, 4, 1, set(), 1, 'psi'),\n"
            "    lambda: interference(g, 1, 4, {2, 3}, 1, 'superchars_a'),\n"
            "    lambda: interference(g, 1, 4, {2, 3}, 1, 'superchars_b'),\n"
            "    lambda: qint(-1),\n"
            "    lambda: qmultinom(3, (1, 1)),\n"
            "    lambda: list(enumerate_partitions(g, None, lambda i, j: 2,\n"
            "                                      (4, 4))),\n"
            "    lambda: list(enumerate_partitions(g, bound=(0, -1))),\n"
            "    lambda: poset_multinom(P, [(1, frozenset(P))] * 2),\n"
            "    lambda: QPoly.parse('2*p^3'),\n"
            "    lambda: interpolate([(1, 1), (1, 2)]),\n"
            "    lambda: qphi(2, -1),\n"
            "]\n"
            "for call in calls:\n"
            "    try:\n"
            "        print('returned', call())\n"
            "    except ValueError:\n"
            "        print('raised')\n")
        proc = run_optimized(script)
        assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
        assert proc.stdout.splitlines() == ["raised"] * 20


def endpoint_refine(K, J):
    """Exponents of the left-endpoint refinement: the hook on columns K
    rewrites as the sum over I of q^exponent times the hook on columns I.

    Returns {I: integer exponent}; exponents may be negative only when the
    corresponding refined module vanishes.
    """
    K, J = frozenset(K), frozenset(J)
    out = {}
    for I in itertools.combinations(sorted(K), len(J)):
        I = frozenset(I)
        rest = K - I
        out[I] = wt_up(rest, J) - wt_up(rest, I)
    return out


class TestPsiK:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_values_match_decomposition(self, n):
        g = GroundSet.range(n)
        labels = list(g)
        for r in range(n + 1):
            for K in itertools.combinations(labels, r):
                mod = psiK(g, K)
                dec = mod.decomposition()
                for mu, _, _ in enumerate_partitions(g):
                    assert expand_value(dec, mu, g) == mod.value(mu), (K, mu)

    def test_values_n5_spot(self):
        g = GroundSet.range(5)
        for K in [{2, 4}, {1, 2, 3, 4, 5}, set()]:
            mod = psiK(g, K)
            dec = mod.decomposition()
            for mu, _, _ in enumerate_partitions(g):
                assert expand_value(dec, mu, g) == mod.value(mu)

    def test_trivial_and_regular(self):
        g = GroundSet.range(3)
        empty = SetPartition(g, ())
        assert psiK(g, set()).decomposition().coeffs == {empty: ONE}
        # the full column set gives the regular module: value q^3 at identity
        assert psiK(g, {1, 2, 3}).value(empty) == QPoly.q_pow(3)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_hooks_sum_to_psiK(self, n):
        g = GroundSet.range(n)
        labels = list(g)
        for r in range(n + 1):
            for K in itertools.combinations(labels, r):
                total = {}
                for s in range(n + 1):
                    for J in itertools.combinations(labels, s):
                        for lam, c in psi_hook(g, K, J).coeffs.items():
                            total[lam] = total.get(lam, ZERO) + c
                total = {k: v for k, v in total.items() if not v.is_zero()}
                assert total == psiK(g, K).decomposition().coeffs, K

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_endpoint_refinement(self, n):
        # the hook on columns K rewrites as a sum of hooks on smaller column
        # sets I, with the predicted exponents
        g = GroundSet.range(n)
        labels = list(g)
        for r in range(1, n + 1):
            for K in itertools.combinations(labels, r):
                for s in range(1, r + 1):
                    for J in itertools.combinations(labels, s):
                        want = psi_hook(g, K, J).coeffs
                        total = {}
                        for I, e in endpoint_refine(K, J).items():
                            part = psi_hook(g, I, J).coeffs
                            if e < 0:
                                assert not part, (K, J, I)
                                continue
                            for lam, c in part.items():
                                total[lam] = total.get(lam, ZERO) + c.shift(e)
                        total = {k: v for k, v in total.items()
                                 if not v.is_zero()}
                        assert total == want, (K, J)


class TestCore:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_values_match_decomposition(self, n):
        g = GroundSet.range(n)
        for k in range(n + 1):
            mod = core(g, k)
            dec = mod.decomposition()
            for mu, _, _ in enumerate_partitions(g):
                assert expand_value(dec, mu, g) == mod.value(mu), (k, mu)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_equals_sum_of_column_modules(self, n):
        g = GroundSet.range(n)
        labels = list(g)
        for k in range(n + 1):
            total = {}
            for K in itertools.combinations(labels, k):
                for lam, c in psiK(g, K).decomposition().coeffs.items():
                    total[lam] = total.get(lam, ZERO) + c
            total = {k_: v for k_, v in total.items() if not v.is_zero()}
            assert total == core(g, k).decomposition().coeffs, k

    def test_out_of_range_empty(self):
        g = GroundSet.range(3)
        assert core(g, 4).decomposition().coeffs == {}
        assert core(g, 4).value(SetPartition(g, ())) == ZERO


class TestCoreTensor:
    def test_identity_up_to_8(self):
        # the tensor product of two core modules re-expands in core modules;
        # verified here as the equivalent Gaussian-binomial identity
        for n in range(9):
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
                        assert lhs == rhs, (n, k, j, l)

    def test_module_level(self):
        # same identity at the level of symbolic trace values
        n = 5
        g = GroundSet.range(n)
        for k in range(n + 1):
            for j in range(k + 1):
                cmap = core_tensor(j, k, n)
                for mu, _, _ in enumerate_partitions(g):
                    lhs = core(g, j).value(mu) * core(g, k).value(mu)
                    rhs = ZERO
                    for m, c in cmap.items():
                        rhs = rhs + c * core(g, k + m).value(mu)
                    assert lhs == rhs


class TestRainbow:
    @pytest.mark.parametrize("n,m", [(n, m) for n in range(1, 6)
                                     for m in range(5)])
    def test_core_vs_superchars(self, n, m):
        g = GroundSet.range(n)
        by_core = rainbow(g, m, "core")
        total = {}
        for label, c in by_core.coeffs.items():
            k = label.payload[0]
            for lam, d in core(g, k).decomposition().coeffs.items():
                total[lam] = total.get(lam, ZERO) + c * d
        total = {k_: v for k_, v in total.items() if not v.is_zero()}
        assert total == rainbow(g, m, "superchars").coeffs

    @pytest.mark.parametrize("n,m", [(n, m) for n in (2, 3, 4)
                                     for m in (1, 2, 3)])
    def test_end_to_end_restriction(self, n, m):
        # brute symbolic restriction of the m-fold spanning multiset
        ambient = GroundSet.range(n + 2)
        inner = GroundSet(range(2, n + 2))
        big = ArcMultiset(ambient, [(1, n + 2)] * m)
        dec = rainbow(inner, m, "superchars")
        for mu, _, _ in enumerate_partitions(inner):
            mu_big = SetPartition(ambient, mu.arcs)
            assert superchar_value(big, mu_big, ambient) == \
                expand_value(dec, mu, inner), mu

    def test_full_nested_coefficient(self):
        # |N| = 2*lp split evenly: closed form for the full nested partition
        for lp in (1, 2, 3):
            n = 2 * lp
            g = GroundSet.range(n)
            lam = SetPartition(g, [(t, n + 1 - t) for t in range(1, lp + 1)])
            for m in range(lp, lp + 4):
                dec = rainbow(g, m, "superchars")
                want = ((Q_MINUS_1 ** m) * qphi(m, lp)) \
                    .shift(nst(lam, lam) + (m - lp) * lp)
                assert dec.coeffs[lam] == want, (lp, m)

    def test_telescoping_identity(self):
        for m in range(11):
            for lp in range(m + 1):
                lhs = ZERO
                for k in range(lp, m + 1):
                    lhs = lhs + (qphi(m - lp, k - lp) * qbinom(lp, k - lp)) \
                        .shift(comb(k - lp, 2))
                assert lhs == QPoly.q_pow((m - lp) * lp), (m, lp)

    def test_solver_cross_check(self):
        n, m = 3, 2
        ambient = GroundSet.range(n + 2)
        inner = GroundSet(range(2, n + 2))
        big = ArcMultiset(ambient, [(1, n + 2)] * m)
        f = restrict_values(big, inner)
        got = decompose_exact(f, m * (n + 2) ** 2)
        assert got.coeffs == rainbow(inner, m, "superchars").coeffs


def interference_setup(n, k_minus, k_plus):
    ambient = GroundSet.range(n)
    K = frozenset(x for x in ambient if k_minus < x < k_plus)
    return ambient, K, GroundSet(sorted(K))


class TestInterferencePsi:
    def test_reduces_to_rainbow(self):
        ambient, K, gK = interference_setup(6, 2, 6)
        for ell in (1, 2, 3):
            dec = interference(ambient, 2, 6, K, ell, "psi")
            for label, c in dec.coeffs.items():
                J = label.payload[0]
                assert c == (Q_MINUS_1 ** ell) * qphi(ell, len(J))

    def test_values(self):
        # chi^nu . chi^rainbow == chi^nu . sum of column-module traces, as
        # functions on the superclasses of the interval K
        ambient = GroundSet.range(8)
        k_minus, k_plus = 2, 7
        cases = [
            (frozenset({3, 4, 5, 6}), []),
            (frozenset({3, 4, 5, 6}), [(1, 4)]),
            (frozenset({3, 5, 6}), [(1, 5), (3, 8)]),
            (frozenset({4, 5}), [(1, 8), (3, 8)]),
        ]
        for K, nu_arcs in cases:
            nu = ArcMultiset(ambient, nu_arcs)
            gK = GroundSet(sorted(K))
            rb_arcs = [(k_minus, k_plus)]
            for ell in (1, 2):
                dec = interference(ambient, k_minus, k_plus, K, ell, "psi",
                                   nu=nu)
                big_rb = ArcMultiset(ambient, rb_arcs * ell)
                for mu, _, _ in enumerate_partitions(gK):
                    mu_big = SetPartition(ambient, mu.arcs)
                    nuval = superchar_value(nu, mu_big, ambient)
                    lhs = nuval * superchar_value(big_rb, mu_big, ambient)
                    rhs = ZERO
                    for label, c in dec.coeffs.items():
                        J = label.payload[0]
                        rhs = rhs + c * psiK(gK, J).value(mu)
                    assert lhs == nuval * rhs, (K, nu_arcs, ell, mu)


class TestInterferenceHooks:
    def test_values(self):
        ambient = GroundSet.range(6)
        k_minus, k_plus = 2, 6
        K = frozenset({3, 4, 5})
        gK = GroundSet(sorted(K))
        cases = [[], [(1, 4)], [(1, 3), (2, 5)], [(1, 6)]]
        for nu_arcs in cases:
            nu = ArcMultiset(ambient, nu_arcs)
            for s in range(len(K) + 1):
                for J in itertools.combinations(sorted(K), s):
                    dec = interference(ambient, k_minus, k_plus, K, 0,
                                       "superchars_a", nu=nu, J=frozenset(J))
                    for mu, _, _ in enumerate_partitions(gK):
                        mu_big = SetPartition(ambient, mu.arcs)
                        nuval = superchar_value(nu, mu_big, ambient)
                        lhs = nuval * psiK(gK, J).value(mu)
                        rhs = ZERO
                        for label, c in dec.coeffs.items():
                            Jp, I = label.payload
                            hook = psi_hook(gK, Jp, I)
                            rhs = rhs + c * expand_value(hook, mu, gK)
                        assert lhs == nuval * rhs, (nu_arcs, J, mu)


    def test_nonzero_hook_at_negative_exponent_raises(self, monkeypatch,
                                                      run_optimized):
        # J = {2, 3} reaches a negative exponent at the hook J' = {3},
        # I = {2}, which vanishes; were it nonzero, the call must raise, and
        # under python -O as well
        nonzero = types.SimpleNamespace(coeffs={0: 1})
        monkeypatch.setattr(restrict, "psi_hook", lambda *args: nonzero)
        with pytest.raises(ArithmeticError, match="nonzero hook module"):
            interference(GroundSet.range(4), 1, 4, {2, 3}, 0, "superchars_a",
                         J={2, 3})
        proc = run_optimized(
            "from types import SimpleNamespace\n"
            "from utrestrict import restrict\n"
            "from utrestrict.setpart import GroundSet\n"
            "restrict.psi_hook = lambda *a: SimpleNamespace(coeffs={0: 1})\n"
            "try:\n"
            "    restrict.interference(GroundSet.range(4), 1, 4, {2, 3}, 0,\n"
            "                          'superchars_a', J={2, 3})\n"
            "except ArithmeticError as exc:\n"
            "    print('raised', exc)\n")
        assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
        assert proc.stdout == \
            "raised negative exponent on a nonzero hook module\n"


def proof_style_coefficients(ambient, K, nu, ell):
    """Alternative manifestly polynomial form of the supercharacter
    coefficients in the interference decomposition (inner sum over explicit
    point sets instead of a poset multinomial)."""
    gK = GroundSet(sorted(K))
    XL = nu.left_endpoints() & K
    XR = nu.right_endpoints() & K
    out = {}
    for lam, _, _ in enumerate_partitions(gK):
        if len(lam) > ell:
            continue
        try:
            SetPartition(ambient, nu.arcs + lam.arcs)
        except ValueError:
            continue
        base = wt_up(XL, lam.left_endpoints()) \
            + wt_up(lam.right_endpoints(), XR) + nst(lam, lam)
        pool = sorted(K - XL - lam.left_endpoints())
        total = ZERO
        for l in range(len(lam), ell + 1):
            inner = ZERO
            for L in itertools.combinations(pool, l - len(lam)):
                e = wt_up(XL, L) + wt_up(L, XR) + nst_points(lam, L)
                inner = inner + QPoly.q_pow(e)
            total = total + (qphi(ell, l) * inner) \
                .shift(base + (ell - l) * len(XL))
        if not total.is_zero():
            out[lam] = (Q_MINUS_1 ** ell) * total
    return out


class TestInterferenceSuperchars:
    def test_reduces_to_rainbow(self):
        ambient, K, gK = interference_setup(6, 2, 6)
        nu = SetPartition(ambient, ())
        for ell in (1, 2, 3):
            dec = interference(ambient, 2, 6, K, ell, "superchars_b", nu=nu)
            assert dec.coeffs == rainbow(gK, ell, "superchars").coeffs

    def cases(self):
        ambient = GroundSet.range(7)
        k_minus, k_plus = 2, 6
        K = frozenset({3, 4, 5})
        arcs = [[(1, 4)], [(1, 3), (4, 7)], [(1, 7)], [(2, 7)],
                [(1, 7), (2, 4)]]
        return ambient, k_minus, k_plus, K, arcs

    def test_values(self):
        ambient, k_minus, k_plus, K, cases = self.cases()
        gK = GroundSet(sorted(K))
        for nu_arcs in cases:
            nu = SetPartition(ambient, nu_arcs)
            for ell in (1, 2):
                dec = interference(ambient, k_minus, k_plus, K, ell,
                                   "superchars_b", nu=nu)
                big_rb = ArcMultiset(ambient, [(k_minus, k_plus)] * ell)
                for mu, _, _ in enumerate_partitions(gK):
                    mu_big = SetPartition(ambient, mu.arcs)
                    nuval = superchar_value(nu, mu_big, ambient)
                    lhs = nuval * superchar_value(big_rb, mu_big, ambient)
                    rhs = expand_value(dec, mu, gK)
                    assert lhs == nuval * rhs, (nu_arcs, ell, mu)

    def test_matches_pointwise_form(self):
        ambient, k_minus, k_plus, K, cases = self.cases()
        for nu_arcs in cases:
            nu = SetPartition(ambient, nu_arcs)
            # at ell = 6 the sum over l stops at |lam| + |bl_R| < ell
            for ell in (1, 2, 3, 6):
                dec = interference(ambient, k_minus, k_plus, K, ell,
                                   "superchars_b", nu=nu)
                want = proof_style_coefficients(ambient, K, nu, ell)
                assert dec.coeffs == want, (nu_arcs, ell)


class TestWorkedExample:
    """A 13-point configuration with frozen intermediate polynomials."""

    def setup_data(self):
        g = GroundSet.range(13)
        union = SetPartition(
            g, [(5, 12), (1, 6), (2, 10), (3, 9), (7, 13)])
        K = set(range(4, 13))
        P = block_poset(union.uncross())
        return g, union, K, P

    def test_block_poset(self):
        g, union, K, P = self.setup_data()
        assert sorted(union.uncross().arcs) == \
            [(1, 13), (2, 12), (3, 10), (5, 6), (7, 9)]
        weights = {(lo, hi): w for lo, hi, w in P}
        assert weights == {(1, 13): 0, (2, 12): 1, (3, 10): 2, (4, 4): 3,
                           (5, 6): 3, (7, 9): 3, (8, 8): 4, (11, 11): 2}

    def test_intermediate_polynomials(self):
        g, union, K, P = self.setup_data()
        blR = [b for b in P if b[1] in K]
        blL = [b for b in P if b[0] in K]
        pm = lambda k, pool: poset_multinom(P, [(k, pool)])
        assert pm(0, blR) == ONE and pm(0, blL) == ONE
        assert pm(1, blR) == QPoly.parse("q^4 + 3*q^3 + 2*q^2 + q")
        assert pm(2, blR) == QPoly.parse(
            "3*q^7 + 5*q^6 + 7*q^5 + 4*q^4 + 2*q^3")
        assert pm(1, blL) == QPoly.parse("q^4 + 3*q^3 + q^2")
        assert pm(2, blL) == QPoly.parse("3*q^7 + 4*q^6 + 3*q^5")

    def test_poset_form_equals_point_form(self):
        # the constrained poset binomial agrees with the explicit sum over
        # point subsets weighted by the number of arcs nesting over them
        g, union, K, P = self.setup_data()
        XL = {1, 2, 3, 7} & K
        XR = {6, 10, 9, 13} & K
        blR = [b for b in P if b[1] in K]
        blL = [b for b in P if b[0] in K]
        poolR = sorted(K - XL - {5})
        poolL = sorted(K - XR - {12})

        def ptsum(pool, k):
            out = ZERO
            for L in itertools.combinations(pool, k):
                out = out + QPoly.q_pow(nst_points(union, L))
            return out

        for k in range(4):
            assert poset_multinom(P, [(k, blR)]) == ptsum(poolR, k)
            assert poset_multinom(P, [(k, blL)]) == ptsum(poolL, k)

    def test_two_sided_sums_agree(self):
        g, union, K, P = self.setup_data()
        nu_arcs = {(1, 6), (2, 10), (3, 9), (7, 13)}
        nu_left = {i for i, j in nu_arcs}
        nu_right = {j for i, j in nu_arcs}
        xl = len(nu_left & K)   # only 7
        xr = len(nu_right & K)  # 6, 9, 10
        assert (xl, xr) == (1, 3)
        blR = [b for b in P if b[1] in K]
        blL = [b for b in P if b[0] in K]
        ell, sz = 3, 1  # one arc of the inner partition
        left = ZERO
        right = ZERO
        for l in range(sz, ell + 1):
            mult_r = poset_multinom(P, [(l - sz, blR)])
            mult_l = poset_multinom(P, [(l - sz, blL)])
            left = left + (qphi(ell, l) * mult_r).shift((ell - l) * xl)
            right = right + (qphi(ell, l) * mult_l).shift((ell - l) * xr)
        assert left == right
        q3 = QPoly.q_pow(3) - 1
        q2 = QPoly.q_pow(2) - 1
        want = q3 * (QPoly.q_pow(2)
                     + q2 * QPoly.parse("q^5 + 3*q^4 + 2*q^3 + q^2")
                     + q2 * Q_MINUS_1 * QPoly.parse(
                         "3*q^7 + 5*q^6 + 7*q^5 + 4*q^4 + 2*q^3"))
        assert left == want


class TestSymmetryIdentity:
    """Two ways of summing the same decomposition coefficient agree whenever
    every outside arc has exactly one endpoint in the interval K."""

    @staticmethod
    def sides(ground, K, nu, lam, ell):
        union = SetPartition(ground, nu.arcs + lam.arcs)
        P = block_poset(union.uncross())
        xl = len(nu.left_endpoints() & K)
        xr = len(nu.right_endpoints() & K)
        blR = [b for b in P if b[1] in K]
        blL = [b for b in P if b[0] in K]
        left = ZERO
        right = ZERO
        for l in range(len(lam), ell + 1):
            mr = poset_multinom(P, [(l - len(lam), blR)])
            ml = poset_multinom(P, [(l - len(lam), blL)])
            left = left + (qphi(ell, l) * mr).shift((ell - l) * xl)
            right = right + (qphi(ell, l) * ml).shift((ell - l) * xr)
        return left, right

    def admissible(self, ground, K):
        gK = GroundSet(sorted(K))
        pairs = [(i, j) for i in ground for j in ground if i < j
                 and (i in K) != (j in K)]
        nus = []
        for r in range(3):
            for chosen in itertools.combinations(pairs, r):
                try:
                    nus.append(SetPartition(ground, chosen))
                except ValueError:
                    continue
        return gK, nus

    def test_exhaustive_small(self):
        ground = GroundSet.range(6)
        K = {3, 4}
        gK, nus = self.admissible(ground, K)
        for nu in nus:
            for lam, _, _ in enumerate_partitions(gK):
                try:
                    SetPartition(ground, nu.arcs + lam.arcs)
                except ValueError:
                    continue
                for ell in range(len(lam), 4):
                    left, right = self.sides(ground, K, nu, lam, ell)
                    assert left == right, (nu, lam, ell)

    def test_randomized_larger(self):
        rng = random.Random(20260823)
        for _ in range(40):
            n = rng.randint(6, 8)
            ground = GroundSet.range(n)
            a = rng.randint(2, n - 2)
            b = rng.randint(a + 1, min(a + 3, n - 1))
            K = set(range(a, b + 1))
            gK = GroundSet(sorted(K))
            pairs = [(i, j) for i in ground for j in ground if i < j
                     and (i in K) != (j in K)]
            rng.shuffle(pairs)
            nu_arcs = []
            for cand in pairs:
                try:
                    SetPartition(ground, nu_arcs + [cand])
                    nu_arcs.append(cand)
                except ValueError:
                    continue
                if len(nu_arcs) == 3:
                    break
            nu = SetPartition(ground, nu_arcs)
            lams = [lam for lam, _, _ in enumerate_partitions(gK)
                    if self._compatible(ground, nu, lam)]
            lam = rng.choice(lams)
            ell = rng.randint(len(lam), len(lam) + 3)
            left, right = self.sides(ground, K, nu, lam, ell)
            assert left == right, (n, K, nu, lam, ell)

    @staticmethod
    def _compatible(ground, nu, lam):
        try:
            SetPartition(ground, nu.arcs + lam.arcs)
            return True
        except ValueError:
            return False


class TestPeel:
    def test_trivial_when_no_outside(self):
        split = RegionSplit.from_sizes(0, 2, 0)
        dec = peel(split, 0, 0)
        empty = SetPartition(split.inner, ())
        assert dec.coeffs == {empty: ONE}

    def test_core_reduction(self):
        for a, b, c in [(3, 0, 0), (0, 0, 3), (2, 0, 0), (0, 0, 2)]:
            split = RegionSplit.from_sizes(a, b, c)
            for f in range(len(split.inner) + 1):
                assert peel(split, 0, f).coeffs == \
                    core(split.inner, f).decomposition().coeffs, (a, c, f)

    def test_column_module_reduction(self):
        # N_> empty: the peel module splits into column-set modules over N_<
        for a, b in [(2, 1), (3, 1), (2, 2)]:
            split = RegionSplit.from_sizes(a, b, 0)
            for f in range(a + 1):
                total = {}
                for F in itertools.combinations(sorted(split.n_lt), f):
                    for lam, co in psiK(split.inner, F) \
                            .decomposition().coeffs.items():
                        total[lam] = total.get(lam, ZERO) + co
                total = {k: v for k, v in total.items() if not v.is_zero()}
                assert total == peel(split, 0, f).coeffs, (a, b, f)

    def test_mirror_duality(self):
        # flipping the geometry left-right conjugates the coefficients
        for a, b, c in [(2, 1, 1), (1, 2, 2), (2, 1, 0)]:
            split = RegionSplit.from_sizes(a, b, c)
            mirror = RegionSplit.from_sizes(c, b, a)
            fwd = dict(zip(sorted(mirror.inner),
                           sorted(split.inner, reverse=True)))
            for f in range(a + c + 1):
                for bb in range(min(a, c, f) + 1):
                    got = peel(split, bb, f).coeffs
                    other = peel(mirror, bb, f).coeffs
                    mapped = {}
                    for nu, co in other.items():
                        arcs = [(fwd[j], fwd[i]) for i, j in nu.arcs]
                        mapped[SetPartition(split.inner, arcs)] = co
                    assert mapped == got, (a, b, c, bb, f)

    def test_parameter_validation(self):
        split = RegionSplit.from_sizes(1, 1, 1)
        with pytest.raises(ValueError):
            peel(split, 2, 2)
        with pytest.raises(ValueError):
            peel(split, 0, 3)


def dr_lhs_value(split, m, ell, mu):
    mu_big = SetPartition(split.ambient, mu.arcs)
    return superchar_value(split.anchor_multiset(m, ell), mu_big,
                           split.ambient)


DR_GEOMETRIES = [(a, b, c) for a in range(3) for b in range(3)
                 for c in range(3)
                 if 0 < a + b + c <= 3] + [(2, 1, 1), (1, 2, 1), (1, 1, 2),
                                          (2, 0, 2)]


class TestDoubleRainbow:
    @pytest.mark.parametrize("abc", DR_GEOMETRIES)
    def test_superchars_end_to_end(self, abc):
        split = RegionSplit.from_sizes(*abc)
        parts = [lam for lam, _, _ in enumerate_partitions(split.inner)]
        for m in range(3):
            for ell in range(3):
                dec = double_rainbow(split, m, ell, "superchars")
                for mu in parts:
                    got = expand_value(dec, mu, split.inner)
                    assert got == dr_lhs_value(split, m, ell, mu), \
                        (abc, m, ell, mu)

    def test_trivial_coefficient(self):
        # both targets against the explicit sum, not against each other
        for abc in DR_GEOMETRIES:
            split = RegionSplit.from_sizes(*abc)
            empty = SetPartition(split.inner, ())
            for m in range(3):
                for ell in range(3):
                    want = dr_trivial_reference(split, m, ell)
                    full = double_rainbow(split, m, ell, "superchars")
                    triv = double_rainbow(split, m, ell, "trivial_coeff")
                    assert full[empty] == want, (abc, m, ell)
                    assert triv[empty] == want, (abc, m, ell)

    def test_trivial_coefficient_generic_prefactor(self):
        # with nonempty side regions the prefactor exponent is exactly 2m
        split = RegionSplit.from_sizes(1, 1, 1)
        m, ell = 2, 1
        triv = double_rainbow(split, m, ell, "trivial_coeff")
        empty = SetPartition(split.inner, ())
        assert triv.coeffs[empty] == \
            dr_trivial_reference(split, m, ell, pre=2 * m)

    def test_rainbow_reduction(self):
        # no side regions: the double rainbow is a plain rainbow of m + ell
        for b in (1, 2, 3):
            split = RegionSplit.from_sizes(0, b, 0)
            for m in range(3):
                for ell in range(3):
                    dec = double_rainbow(split, m, ell, "superchars")
                    want = rainbow(split.inner, m + ell, "superchars")
                    assert dec.coeffs == want.coeffs, (b, m, ell)

    def test_peel_target_labels(self):
        split = RegionSplit.from_sizes(1, 1, 1)
        m, ell = 2, 1
        dec = double_rainbow(split, m, ell, "peel")
        labels = {lab.payload for lab in dec.coeffs}
        assert labels == {(b, f, m - f + ell)
                          for f in range(m + 1) for b in range(min(f, 1) + 1)}
        for lab, c in dec.coeffs.items():
            b, f, mm = lab.payload
            want = ((Q_MINUS_1 ** f) * qphi(m, f)).shift(2 * m + (m - f) * b)
            assert c == want

    def test_solver_cross_check(self):
        split = RegionSplit.from_sizes(1, 1, 1)
        m, ell = 1, 1
        f = restrict_values(split.anchor_multiset(m, ell), split.inner)
        got = decompose_exact(f, (m + ell) * len(split.ambient) ** 2)
        want = double_rainbow(split, m, ell, "superchars")
        assert got.coeffs == want.coeffs

    def test_anchor_prefactor(self):
        # m per inner anchor strictly inside the outer pair, ell for none;
        # also the nestings of the double-rainbow multiset over the anchors
        grid = [abc for abc in itertools.product(range(7), repeat=3)
                if 0 < sum(abc) <= 6]
        assert (0, 1, 0) in grid and (0, 2, 3) in grid and (2, 1, 0) in grid
        for abc in grid:
            split = RegionSplit.from_sizes(*abc)
            pairs = [(split.n_mm, split.n_pp), (split.n_m, split.n_p)]
            spots = {a for a in (split.n_m, split.n_p)
                     if split.n_mm < a < split.n_pp}
            anchors = sorted({x for pair in pairs for x in pair})
            for m, ell in itertools.product(range(4), repeat=2):
                got = restrict._anchor_prefactor(pairs, [m, ell])
                assert got == m * len(spots), (abc, m, ell)
                assert got == nst_points(split.anchor_multiset(m, ell),
                                         anchors), (abc, m, ell)


class TestOnion:
    def test_single_layer_is_rainbow(self):
        g = GroundSet(range(2, 6))
        for m in (1, 2, 3):
            dec = onion(g, [(1, 6)], [m])
            want = rainbow(g, m, "core")
            got = {lab.payload[1][0]: c for lab, c in dec.coeffs.items()}
            for lab, c in want.coeffs.items():
                assert got.get(lab.payload[0], ZERO) == c, (m, lab)

    @pytest.mark.parametrize("abc", [(1, 1, 1), (2, 1, 1), (1, 2, 1),
                                     (2, 2, 2), (0, 1, 1), (1, 1, 0),
                                     (0, 2, 0)])
    def test_two_layers_match_peel_target(self, abc):
        for m, ell in [(1, 1), (2, 1), (2, 2), (3, 1)]:
            split = RegionSplit.from_sizes(*abc)
            got = onion(split.inner, [(split.n_mm, split.n_pp),
                                      (split.n_m, split.n_p)], [m, ell])
            dr = double_rainbow(split, m, ell, "peel")
            n_eq = region_sizes(split)[1]
            derived = {}
            for lab, c in dr.coeffs.items():
                b, f, mm = lab.payload
                for f2 in range(min(mm, n_eq) + 1):
                    key = ((b, 0), (f, f2))
                    derived[key] = c * (Q_MINUS_1 ** mm) * qphi(mm, f2)
            got_map = {lab.payload: c for lab, c in got.coeffs.items()}
            assert got_map == derived, (abc, m, ell)

    def test_three_layers_structure(self):
        # layers 2..9, then {5,6} (the anchors 4 and 7 belong to no
        # layer), then {5,6}
        ms = [2, 1, 1]
        dec = onion(GroundSet(range(2, 10)), [(1, 10), (3, 8), (4, 7)], ms)
        assert dec.coeffs
        for lab, c in dec.coeffs.items():
            bs, fs = lab.payload
            assert bs[-1] == 0
            used = 0
            for j in range(3):
                cap = sum(ms[:j + 1]) - used
                assert 0 <= bs[j] <= fs[j] <= cap
                used += fs[j]
            for q in (2, 3):
                assert c(q) >= 0

    @pytest.mark.parametrize("anchors, ms", [
        ([(1, 10), (3, 8)], [2]),               # lengths differ
        ([], []),                               # no pair
        ([(1, 10)], [0]),                       # m below 1
        ([(2, 10)], [1]),                       # ground not inside
        ([(1, 10), (3, 11)], [1, 1]),           # pairs do not nest
        ([(1, 10), (3, 8), (2, 9)], [1, 1, 1]),
        ([(1, 10), (4, 5)], [1, 1]),            # empty layer
    ])
    def test_rejects_bad_geometry(self, anchors, ms):
        with pytest.raises(ValueError):
            onion(GroundSet(range(2, 10)), anchors, ms)

    def test_rejects_bad_geometry_under_optimize(self, run_optimized):
        # the checks are raises, not asserts: they hold under python -O
        script = (
            "from utrestrict.setpart import GroundSet\n"
            "from utrestrict.restrict import onion\n"
            "g = GroundSet(range(2, 10))\n"
            "for anchors, ms in [([(1, 10), (3, 8)], [2]),\n"
            "                    ([(1, 10), (3, 11)], [1, 1])]:\n"
            "    try:\n"
            "        onion(g, anchors, ms)\n"
            "    except ValueError:\n"
            "        print('ValueError')\n")
        proc = run_optimized(script)
        assert (proc.returncode, proc.stdout, proc.stderr) == \
            (0, "ValueError\nValueError\n", "")


class TestUtAlgebra:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_trace_matches_realization(self, n):
        # trace times q^C(n-1,2) (q-1)^(n-1) equals the product of n-1
        # single-arc characters over the interleaved ambient set
        g = GroundSet(2 * j for j in range(1, n + 1))
        amb = GroundSet([1] + [x for j in range(1, n + 1)
                               for x in (2 * j, 2 * j + 1)])
        mod = ut_algebra(g)
        for mu, _, _ in enumerate_partitions(g):
            mu_big = SetPartition(amb, mu.arcs)
            prod = ONE
            for j in range(1, n):
                arc = SetPartition(amb, [(1, 2 * j + 1)])
                prod = prod * superchar_value(arc, mu_big, amb)
            want = ((Q_MINUS_1 ** (n - 1)) * mod.trace(mu)).shift(
                comb(n - 1, 2))
            assert prod == want, mu

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_core_style_values(self, n):
        # the auxiliary n-fold tensor product expands in row-set modules
        g = GroundSet(2 * j for j in range(1, n + 1))
        amb = GroundSet([1] + [x for j in range(1, n + 1)
                               for x in (2 * j, 2 * j + 1)])
        mod = ut_algebra(g)
        dec = mod.core_style()
        for mu, _, _ in enumerate_partitions(g):
            mu_big = SetPartition(amb, mu.arcs)
            prod = ONE
            for j in range(1, n + 1):
                arc = SetPartition(amb, [(1, 2 * j + 1)])
                prod = prod * superchar_value(arc, mu_big, amb)
            got = ZERO
            for lab, c in dec.coeffs.items():
                got = got + c * mod.row_module_value(lab.payload[0], mu)
            assert got == prod, mu

    def test_superchar_decomposition_matches_solver(self):
        for n in (2, 3, 4):
            g = GroundSet.range(n)
            mod = ut_algebra(g)
            f = SuperclassFunction(
                g, {mu: mod.trace(mu) for mu, _, _ in enumerate_partitions(g)})
            dec = decompose_exact(f, comb(n, 2) + 2)
            assert dec.coeffs == mod.superchar_decomposition().coeffs

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_superchar_decomposition_values(self, n):
        g = GroundSet.range(n)
        mod = ut_algebra(g)
        dec = mod.superchar_decomposition()
        for mu, _, _ in enumerate_partitions(g):
            assert expand_value(dec, mu, g) == mod.trace(mu), mu

    def test_n1_special_case(self):
        g = GroundSet.range(1)
        dec = ut_algebra(g).superchar_decomposition()
        assert dec.coeffs == {SetPartition(g, ()): ONE}

    def test_nonnegative_multiplicities(self):
        for n in (2, 3, 4):
            g = GroundSet.range(n)
            check_nonnegative_at(ut_algebra(g).superchar_decomposition(),
                                 QS)


class TestNonnegativity:
    def test_rainbow(self):
        for n in (2, 3, 4):
            g = GroundSet.range(n)
            for m in range(4):
                check_nonnegative_at(rainbow(g, m, "superchars"), QS)

    def test_double_rainbow(self):
        for abc in [(1, 1, 1), (2, 1, 1), (0, 2, 1)]:
            split = RegionSplit.from_sizes(*abc)
            for m in range(3):
                for ell in range(3):
                    check_nonnegative_at(
                        double_rainbow(split, m, ell, "superchars"), QS)

    def test_psi_core_peel(self):
        g = GroundSet.range(4)
        check_nonnegative_at(psiK(g, {2, 3}).decomposition(), QS)
        check_nonnegative_at(core(g, 2).decomposition(), QS)
        split = RegionSplit.from_sizes(2, 1, 1)
        check_nonnegative_at(peel(split, 1, 2), QS)


class TestWorkCounts:
    """Deterministic work of the engines: the partitions the scan yields,
    the coefficients they keep, the coefficient bases computed (one per
    scan skeleton) and the distinct poset binomials computed.  A
    regression in the scan's constraints, the skeleton memo or the e_k memo
    moves these counts; wall time is not gated."""

    @pytest.fixture
    def scanned(self, monkeypatch):
        count = [0]
        scan = restrict.enumerate_partitions

        def counted(*args, **kwargs):
            for item in scan(*args, **kwargs):
                count[0] += 1
                yield item

        monkeypatch.setattr(restrict, "enumerate_partitions", counted)
        return count

    @pytest.fixture
    def bases(self, monkeypatch):
        # the coefficient bases each engine call computes
        count = [0]
        superchars = restrict._superchars

        def counted(ground, base, *args, **kwargs):
            def tallied(lam, skeleton):
                count[0] += 1
                return base(lam, skeleton)
            return superchars(ground, tallied, *args, **kwargs)

        monkeypatch.setattr(restrict, "_superchars", counted)
        return count

    def test_ut_algebra_scans_bell_n_minus_1(self, scanned):
        # no arc may end at the top point: Bell(7) partitions of [8]
        dec = ut_algebra(GroundSet.range(8)).superchar_decomposition()
        assert scanned[0] == len(dec.coeffs) == bell(7) == 877

    def test_ut_algebra_passes_once_per_skeleton(self, scanned, bases):
        # one right-to-left pass per (L, R) of the 877 partitions: the
        # noncrossing partitions of [7], Catalan(7)
        dec = ut_algebra(GroundSet.range(8)).superchar_decomposition()
        assert (scanned[0], len(dec.coeffs), bases[0]) == (877, 877, 429)

    def test_psiK_scans_left_endpoints_in_K(self, scanned):
        dec = psiK(GroundSet.range(9), {2, 3, 6, 8}).decomposition()
        assert scanned[0] == len(dec.coeffs) == 250

    def test_psi_hook_scans_only_its_terms(self, scanned):
        # |J| arcs, each from K to J: the 4! matchings of {1..4} to {5..8};
        # the scan with ends in K and J and at most |J| arcs yields 209
        dec = psi_hook(GroundSet.range(8), {1, 2, 3, 4}, {5, 6, 7, 8})
        assert scanned[0] == len(dec.coeffs) == 24

    def test_core_computes_each_binomial_once(self, scanned):
        qcalc.e_k.cache_clear()
        dec = core(GroundSet.range(10), 5).decomposition()
        info = qcalc.e_k.cache_info()
        # 72,028 partitions of [10] with at most 5 arcs; one e_k per
        # endpoint skeleton (the noncrossing ones), 128 distinct
        assert scanned[0] == len(dec.coeffs) == 72028
        assert (info.misses, info.hits + info.misses) == (128, 13690)

    def test_peel_scans_only_what_it_keeps(self, scanned):
        # the region rule leaves the scan only the partitions with two arcs
        # from N_< to N_> and none inside N_=: the capped scan of the 9
        # points yields 10,096
        dec = peel(RegionSplit.from_sizes(3, 3, 3), 2, 4)
        assert scanned[0] == len(dec.coeffs) == 450

    def test_double_rainbow_scans_only_what_it_keeps(self, scanned):
        # at most two arcs outside N_=: the capped scan of the 8 points
        # yields 3,046
        dec = double_rainbow(RegionSplit.from_sizes(3, 2, 3), 2, 2,
                             "superchars")
        assert scanned[0] == len(dec.coeffs) == 435

    def test_double_rainbow_bases_once_per_key(self, scanned, bases):
        # one base per skeleton, which holds L, R and the weight sum (the
        # arcs outside N_=): 339 of the 435 partitions
        double_rainbow(RegionSplit.from_sizes(3, 2, 3), 2, 2, "superchars")
        assert (scanned[0], bases[0]) == (435, 339)

    def test_double_rainbow_sums_once_per_pool_weights(self, monkeypatch):
        # one Laurent sum per (region counts, sorted pool weights), not per
        # skeleton (L, R and arcs outside N_=): 339 bases share at most 115
        # sums
        count = [0]
        laurent_sum = restrict.laurent_sum

        def counted(terms):
            count[0] += 1
            return laurent_sum(terms)

        monkeypatch.setattr(restrict, "laurent_sum", counted)
        double_rainbow(RegionSplit.from_sizes(3, 2, 3), 2, 2, "superchars")
        assert count[0] <= 115

    def test_rainbow_builds_no_qphi_past_n(self):
        # e_k of the n - |lam| block weights is 0 past k = n, so the sum
        # over k stops at min(m, n): phi^40_k for k <= 2, where every
        # k <= 40 makes 41
        qphi.cache_clear()
        rainbow(GroundSet.range(2), 40, "superchars")
        assert qphi.cache_info().misses == 3

    def test_double_rainbow_builds_no_qphi_past_its_pools(self):
        # f and l stop where the e_k of their block pools vanish; every
        # f <= m and l <= m - f + ell make 252
        qphi.cache_clear()
        double_rainbow(RegionSplit.from_sizes(1, 1, 1), 20, 1, "superchars")
        assert qphi.cache_info().misses == 7

    def test_interference_builds_no_qphi_past_its_blocks(self):
        # the poset multinomial is 0 once l - |lam| passes the blocks of
        # bl_R, so l stops at |lam| + |bl_R|; every l <= 40 makes 41
        g = GroundSet.range(4)
        qphi.cache_clear()
        dec = interference(g, 1, 4, {2, 3}, 40, "superchars_b",
                           nu=SetPartition(g, [(1, 4)]))
        assert (len(dec.coeffs), qphi.cache_info().misses) == (2, 3)

    @pytest.fixture
    def qpoly_calls(self, monkeypatch):
        # tuple-arithmetic calls of QPoly; the packed sums make none
        count = {"add": 0, "mul": 0}
        add, mul = QPoly.__add__, QPoly.__mul__

        def counted_add(a, b):
            count["add"] += 1
            return add(a, b)

        def counted_mul(a, b):
            count["mul"] += 1
            return mul(a, b)

        monkeypatch.setattr(QPoly, "__add__", counted_add)
        monkeypatch.setattr(QPoly, "__mul__", counted_mul)
        return count

    def test_ut_algebra_pass_adds_no_qpoly(self, qpoly_calls):
        # the right-to-left pass runs on packed ints; on QPoly it makes
        # 20,555 tuple additions
        ut_algebra(GroundSet.range(8)).superchar_decomposition()
        assert qpoly_calls["add"] == 0

    def test_double_rainbow_base_multiplies_packed(self, qpoly_calls):
        # each term of the Laurent sum is one big-int product, so only the
        # cold qphi cache and the sign multiply QPolys (23 here); a tuple
        # product per term makes 4,478
        qphi.cache_clear()
        double_rainbow(RegionSplit.from_sizes(3, 2, 3), 2, 2, "superchars")
        assert qpoly_calls["mul"] <= 352

    @pytest.fixture
    def posets(self, monkeypatch):
        # the block posets the engines build
        count = [0]
        build = restrict.block_poset

        def counted(lam):
            count[0] += 1
            return build(lam)

        monkeypatch.setattr(restrict, "block_poset", counted)
        return count

    def test_core_and_rainbow_build_no_block_poset(self, posets):
        # both read their block weights off each skeleton's depth vector;
        # one block poset per skeleton makes 3,313 for core and 1,549 for
        # rainbow
        core(GroundSet.range(9), 4).decomposition()
        rainbow(GroundSet.range(9), 3, "superchars")
        assert posets[0] == 0

    def test_equal_coefficients_share_one_object(self):
        # one coefficient object per (base polynomial, shift): core's 10,096
        # terms hold 155 distinct values, rainbow's 3,145 hold 56; one
        # object per term makes 10,096 and 3,145
        for dec, most in [
                (core(GroundSet.range(9), 4).decomposition(), 236),
                (rainbow(GroundSet.range(9), 3, "superchars"), 148)]:
            assert len({id(c) for c in dec.coeffs.values()}) <= most

    def test_labels_text_sorts_no_arcs(self, monkeypatch):
        # each partition holds its arcs sorted, so the label rows sort on
        # them as they are; re-sorting each partition's arcs makes 10,096
        # sorted calls
        dec = core(GroundSet.range(9), 4).decomposition()
        count = [0]

        def counted(*args, **kwargs):
            count[0] += 1
            return sorted(*args, **kwargs)

        monkeypatch.setattr(scfcore, "sorted", counted, raising=False)
        assert len(dec.labels_text()) == 10096
        assert count[0] == 0
