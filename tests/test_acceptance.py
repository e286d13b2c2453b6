"""Acceptance gate: every top-level guarantee of the package, end to end.

Each test class is one acceptance criterion.  Oracle equivalence means the
closed-form engines reproduce brute-force finite-group computations exactly;
identity checks are exact polynomial equalities with zero tolerance.
"""

import itertools
import random
import time

import pytest

from utrestrict.qcalc import QPoly, ZERO, ONE, Q_MINUS_1, qphi
from utrestrict.setpart import (
    GroundSet, SetPartition, ArcMultiset, enumerate_partitions,
    nst, nst_points, wt_up, parse_partition, RegionSplit,
    from_blocks,
)
from utrestrict.nestposet import block_poset, poset_binom, poset_multinom
from utrestrict.scfcore import (
    SuperclassFunction, superchar_value, decompose_exact, restrict_values,
)
from utrestrict.oracle import (
    superclass_orbits, module_trace, u_mu_matrix,
)
from utrestrict import cli
from utrestrict.restrict import (
    psiK, core_tensor, rainbow, double_rainbow, onion, ut_algebra,
)

from conftest import (
    assert_census, dr_trivial_reference, numeric_decompose, region_sizes,
)


# --- criterion 1: superclass census ------------------------------------------

class TestCensus:
    def test_orbit_census_within_budget(self):
        start = time.monotonic()
        for n, p in [(3, 2), (3, 3), (4, 2), (4, 3), (5, 2)]:
            assert_census(superclass_orbits(n, p))
        assert time.monotonic() - start < 120


# --- criterion 2: supercharacter formula ground truth -------------------------

class TestColumnModuleGroundTruth:
    def test_all_column_sets_n_up_to_4(self):
        p = 2
        for n in (1, 2, 3, 4):
            table = superclass_orbits(n, p)
            g = GroundSet.range(n)
            labels = list(range(1, n + 1))
            for r in range(n + 1):
                for K in itertools.combinations(labels, r):
                    K = frozenset(K)
                    mod = psiK(g, K)
                    for mu in table.reps:
                        u = u_mu_matrix(mu, n)
                        got = module_trace(("psiK", K), u, p)
                        assert got == mod.value(mu)(p), (n, K, mu)


# --- criterion 3: rainbow restriction end to end ------------------------------

class TestRainbowEndToEnd:
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_solver_equals_closed_form(self, n, m):
        ambient = GroundSet.range(n + 2)
        inner = GroundSet(range(2, n + 2))
        mult = ArcMultiset(ambient, [(1, n + 2)] * m)
        f = restrict_values(mult, inner)
        sol = decompose_exact(f, m * (n + 2) ** 2)
        want = rainbow(inner, m, "superchars")
        assert sol.coeffs == want.coeffs
        for q in (2, 3, 5):
            for lam in set(sol.coeffs) | set(want.coeffs):
                assert sol[lam](q) == want[lam](q), (lam, q)


# --- criteria 4 and 5: double rainbow and onion -------------------------------

DR_GRID = [(a, b, c)
           for a in range(3) for b in range(3) for c in range(3)
           if a + b + c > 0]


def _canon(ground, arcs):
    """Arcs relabeled along the order isomorphism ground -> 1..n."""
    rank = {x: i + 1 for i, x in enumerate(sorted(ground))}
    return tuple(sorted((rank[i], rank[j]) for i, j in arcs))


_TABLE_CACHE = {}


def char_table(n):
    """Symbolic supercharacter table over 1..n, canonical arc keys."""
    if n not in _TABLE_CACHE:
        g = GroundSet.range(n)
        parts = [lam for lam, _, _ in enumerate_partitions(g)]
        _TABLE_CACHE[n] = {
            tuple(sorted(lam.arcs)): {
                tuple(sorted(mu.arcs)): superchar_value(lam, mu, g)
                for mu in parts}
            for lam in parts}
    return _TABLE_CACHE[n]


class TestDoubleRainbowAcceptance:
    @pytest.mark.parametrize("abc", DR_GRID)
    def test_coefficients_match_restriction(self, abc):
        # engine coefficients reproduce the restricted character at every
        # superclass and prime; the supercharacter table is invertible, so
        # this pins the engine to the unique solver decomposition
        split = RegionSplit.from_sizes(*abc)
        n = len(split.inner)
        table = char_table(n)
        parts = [lam for lam, _, _ in enumerate_partitions(split.inner)]
        for m in range(3):
            for ell in range(3):
                dec = double_rainbow(split, m, ell, "superchars")
                coeffs = {_canon(split.inner, lam.arcs): c
                          for lam, c in dec.coeffs.items()}
                for mu in parts:
                    lhs = superchar_value(
                        split.anchor_multiset(m, ell),
                        SetPartition(split.ambient, mu.arcs), split.ambient)
                    key = _canon(split.inner, mu.arcs)
                    for q in (2, 3):
                        rhs = sum(c(q) * table[gam][key](q)
                                  for gam, c in coeffs.items())
                        assert lhs(q) == rhs, (abc, m, ell, mu, q)

    @pytest.mark.parametrize("abc", [(1, 1, 1), (0, 1, 1), (1, 1, 0),
                                     (0, 2, 0), (2, 1, 2), (2, 2, 2)])
    def test_exact_solver_subgrid(self, abc):
        # the full symbolic solver on a subgrid, as a direct witness
        split = RegionSplit.from_sizes(*abc)
        for m, ell in [(1, 1), (2, 1), (2, 2)]:
            values = {}
            for mu, _, _ in enumerate_partitions(split.inner):
                values[mu] = superchar_value(
                    split.anchor_multiset(m, ell),
                    SetPartition(split.ambient, mu.arcs), split.ambient)
            f = SuperclassFunction(split.inner, values)
            # the solver needs no degree bound: every coefficient is one
            # exact division in Z[q], certified by rebuilding f from them
            sol = decompose_exact(f)
            assert sol.coeffs == \
                double_rainbow(split, m, ell, "superchars").coeffs, \
                (abc, m, ell)

    @pytest.mark.parametrize("abc", DR_GRID)
    def test_trivial_coefficient_closed_form(self, abc):
        split = RegionSplit.from_sizes(*abc)
        empty = SetPartition(split.inner, ())
        for m in range(3):
            for ell in range(3):
                # the explicit sum witnesses both targets
                want = dr_trivial_reference(split, m, ell)
                dec = double_rainbow(split, m, ell, "superchars")
                triv = double_rainbow(split, m, ell, "trivial_coeff")
                assert dec[empty] == want, (abc, m, ell)
                assert triv[empty] == want, (abc, m, ell)


class TestOnionAcceptance:
    # the inner layer needs a nonempty ground N_=; the ids stay those of
    # DR_GRID
    @pytest.mark.parametrize("abc", [
        pytest.param(abc, id=f"abc{i}")
        for i, abc in enumerate(DR_GRID) if abc[1] > 0])
    def test_two_layer_onion_equals_peel_target(self, abc):
        split = RegionSplit.from_sizes(*abc)
        n_eq = region_sizes(split)[1]
        assert n_eq == abc[1] > 0
        pairs = [(split.n_mm, split.n_pp), (split.n_m, split.n_p)]
        for m in (1, 2):
            for ell in (1, 2):
                got = onion(split.inner, pairs, [m, ell])
                got = {lab.payload: c for lab, c in got.coeffs.items()}
                dr = double_rainbow(split, m, ell, "peel")
                derived = {}
                for lab, c in dr.coeffs.items():
                    b, f, mm = lab.payload
                    for f2 in range(min(mm, n_eq) + 1):
                        derived[((b, 0), (f, f2))] = \
                            c * (Q_MINUS_1 ** mm) * qphi(mm, f2)
                assert got == derived, (abc, m, ell)

    @pytest.mark.parametrize("n,p", [(1, 2), (2, 2), (3, 2), (4, 2),
                                     (1, 3), (2, 3), (3, 3), (4, 3)])
    def test_ut_trace_matches_oracle(self, n, p):
        table = superclass_orbits(n, p)
        mod = ut_algebra(GroundSet.range(n))
        for mu in table.reps:
            u = u_mu_matrix(mu, n)
            got = module_trace(("utAlgebra",), u, p)
            assert got == mod.trace(mu)(p), (n, p, mu)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_ut_superchar_decomposition_matches_solver(self, n):
        p = 2
        g = GroundSet.range(n)
        mod = ut_algebra(g)
        values = {}
        for mu, _, _ in enumerate_partitions(g):
            u = u_mu_matrix(mu, n)
            values[mu] = module_trace(("utAlgebra",), u, p)
        sol = numeric_decompose(values, p, g)
        want = mod.superchar_decomposition()
        for lam, c in sol.items():
            assert c == want[lam](p), (n, lam)


# --- criterion 6: polynomial identity suite -----------------------------------

IDENTITY_CHECKS = ("phi-telescoping", "core-tensor", "rainbow-consistency")


class TestIdentitySuite:
    def test_suite_runs_exactly_and_fast(self, nesting_above, capsys):
        start = time.monotonic()

        # (i) core tensor identity, n <= 8, 0 <= j <= k <= n, 0 <= l <= n,
        # and (ii) phi telescoping, 0 <= ell <= m <= 10: the default grid of
        # `verify identities`
        assert cli.main(["verify", "identities"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"PASS  identities {name}" for name in IDENTITY_CHECKS]

        # (iii) both poset-binomial recursions on every block poset, |N| <= 6
        for n in range(1, 7):
            for lam, _, _ in enumerate_partitions(GroundSet.range(n)):
                u = lam.uncross()
                P = block_poset(u)
                above = nesting_above(u)
                for a in P:
                    if any(a[:2] in ups for ups in above.values()):
                        continue  # a is not minimal
                    Pp = tuple(b for b in P if b != a)
                    for k in range(len(P) + 2):
                        assert poset_binom(P, k) == \
                            poset_binom(Pp, k - 1).shift(a[2]) \
                            + poset_binom(Pp, k)
                top = sum(w for _, _, w in P)
                for k in range(len(P) + 1):
                    a = list(poset_binom(P, k).coeffs)
                    b = list(poset_binom(P, len(P) - k).coeffs)
                    a += [0] * (top + 1 - len(a))
                    b += [0] * (top + 1 - len(b))
                    assert a == b[::-1], (lam, k)

        # (iv) the worked thirteen-point example with its intermediates
        self._worked_example()

        assert time.monotonic() - start < 300

    def test_verify_identities_negative_control(self, monkeypatch, capsys):
        # one wrong core-tensor coefficient must fail the suite
        def wrong(j, k, n):
            cmap = core_tensor(j, k, n)
            cmap[0] = cmap[0] + 1
            return cmap
        monkeypatch.setattr(cli, "core_tensor", wrong)
        assert cli.main(["verify", "identities"]) == 2
        out = capsys.readouterr().out
        assert "FAIL  identities core-tensor" in out.splitlines()

    @staticmethod
    def _worked_example():
        g = GroundSet.range(13)
        K = set(range(4, 13))
        lam = parse_partition("5-12", g)
        nu = parse_partition("1-6 2-10 3-9 7-13", g)
        union = SetPartition(g, lam.arcs + nu.arcs)
        P = block_poset(union.uncross())
        pool_r = [b for b in P if b[1] in K]
        pool_l = [b for b in P if b[0] in K]
        want_r = {1: QPoly.parse("q^4 + 3*q^3 + 2*q^2 + q"),
                  2: QPoly.parse("3*q^7 + 5*q^6 + 7*q^5 + 4*q^4 + 2*q^3")}
        want_l = {1: QPoly.parse("q^4 + 3*q^3 + q^2"),
                  2: QPoly.parse("3*q^7 + 4*q^6 + 3*q^5")}
        for k in (1, 2):
            got_r = poset_multinom(P, [(k, pool_r)])
            got_l = poset_multinom(P, [(k, pool_l)])
            assert got_r == want_r[k], k
            assert got_l == want_l[k], k
        # the poset form agrees with the raw point-count form on both sides
        X_L = sorted(set(x for x, _ in nu.arcs) & K)
        X_R = sorted(set(x for _, x in nu.arcs) & K)
        for k in range(4):
            for pool, X, ends in ((pool_r, X_L, lam.left_endpoints()),
                                  (pool_l, X_R, lam.right_endpoints())):
                direct = ZERO
                free = [x for x in sorted(K)
                        if x not in X and x not in ends]
                for pick in itertools.combinations(free, k):
                    direct = direct + QPoly.q_pow(nst_points(union, pick))
                assert direct == poset_multinom(P, [(k, pool)]), k


# --- criterion 7: property suite ----------------------------------------------

class TestPropertySuite:
    def test_exhaustive_up_to_6(self):
        for n in range(1, 7):
            g = GroundSet.range(n)
            points = list(g)
            for lam, _, _ in enumerate_partitions(g):
                u = lam.uncross()
                assert u.uncross() == u
                assert u.left_endpoints() == lam.left_endpoints()
                assert u.right_endpoints() == lam.right_endpoints()
                assert lam.dagger().dagger() == lam
                L, R = lam.left_endpoints(), lam.right_endpoints()
                for r in range(n + 1):
                    for A in itertools.combinations(points, r):
                        want = wt_up(A, R) - wt_up(A, L) - len(set(A) & L)
                        assert nst_points(lam, A) == want

    def test_multiset_value_is_arc_product(self):
        # exhaustive at |N| = 5 over two-arc multisets with repetition
        g = GroundSet.range(5)
        pairs = list(itertools.combinations(range(1, 6), 2))
        for a1 in pairs:
            for a2 in pairs:
                mult = ArcMultiset(g, [a1, a2])
                for mu, _, _ in enumerate_partitions(g):
                    want = superchar_value(SetPartition(g, [a1]), mu, g) \
                        * superchar_value(SetPartition(g, [a2]), mu, g)
                    assert superchar_value(mult, mu, g) == want, (a1, a2, mu)

    def test_randomized_up_to_9(self):
        rng = random.Random(20260823)
        for _ in range(300):
            n = rng.randint(2, 9)
            g = GroundSet.range(n)
            s = [0]
            for _ in range(n - 1):
                s.append(rng.randint(0, max(s) + 1))
            blocks = {}
            for x, v in zip(g, s):
                blocks.setdefault(v, []).append(x)
            lam = from_blocks(g, blocks.values())
            u = lam.uncross()
            assert u.uncross() == u
            assert u.left_endpoints() == lam.left_endpoints()
            assert u.right_endpoints() == lam.right_endpoints()
            d = lam.dagger()
            assert d.dagger() == lam
            A = [x for x in g if rng.random() < 0.4]
            L, R = lam.left_endpoints(), lam.right_endpoints()
            want = wt_up(A, R) - wt_up(A, L) - len(set(A) & L)
            assert nst_points(lam, A) == want
