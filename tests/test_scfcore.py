import itertools
import json
import random

import pytest

from utrestrict import scfcore

from utrestrict.qcalc import QPoly, ZERO, ONE, Q_MINUS_1
from utrestrict.restrict import core, rainbow
from utrestrict.setpart import (
    GroundSet, SetPartition, ArcMultiset, parse_partition,
    enumerate_partitions, nst, nst_points, wt_up,
)
from utrestrict.scfcore import (
    superchar_value, restrict_values, decompose_exact,
    decompose_at_prime, supercharacter_table, solve_exact, SingularSystem,
    SuperclassFunction, Decomposition, DecompositionError, superclass_size,
)

from conftest import character_function, check_nonnegative_at, odot

N6 = GroundSet.range(6)


def empty(ground):
    return SetPartition(ground, ())


class TestSuperCharValue:
    def test_value_at_identity(self):
        lam = parse_partition("1-6", N6)
        assert superchar_value(lam, empty(N6), N6) == Q_MINUS_1.shift(4)
        for n in range(1, 6):
            g = GroundSet.range(n)
            for lam, _, _ in enumerate_partitions(g):
                got = superchar_value(lam, empty(g), g)
                want = (Q_MINUS_1 ** len(lam)).shift(nst_points(lam, list(g)))
                assert got == want

    def test_trivial_character(self):
        g = GroundSet.range(4)
        for mu, _, _ in enumerate_partitions(g):
            assert superchar_value(empty(g), mu, g) == ONE

    def test_minus_one_case(self):
        g = GroundSet.range(2)
        lam = parse_partition("1-2", g)
        assert superchar_value(lam, lam, g) == QPoly.const(-1)

    def test_vanishing(self):
        g = GroundSet.range(3)
        lam = parse_partition("1-3", g)
        assert superchar_value(lam, parse_partition("1-2", g), g) == ZERO
        assert superchar_value(lam, parse_partition("2-3", g), g) == ZERO

    def test_multiset_consistency(self):
        # product-of-arcs value equals the direct formula on set partitions
        for n in range(1, 7):
            g = GroundSet.range(n)
            parts = [lam for lam, _, _ in enumerate_partitions(g)]
            for lam in parts:
                m = ArcMultiset(g, lam.arcs)
                for mu in parts:
                    assert superchar_value(m, mu, g) == \
                        superchar_value(lam, mu, g)

    def test_degree_one_in_each_multiset_arc(self):
        g = GroundSet.range(4)
        m = ArcMultiset(g, [(1, 4), (1, 4)])
        v = superchar_value(m, empty(g), g)
        assert v == (Q_MINUS_1 ** 2).shift(4)


class TestTableAndSolver:
    def test_solver_identity(self):
        assert solve_exact([[2, 0], [0, 4]], [2, 8]) == [1, 2]

    def test_solver_singular(self):
        with pytest.raises(SingularSystem):
            solve_exact([[1, 1], [2, 2]], [1, 2])

    def test_table_invertible_at_primes(self):
        # the grid of `verify solver`, whose rebuild check needs this
        grid = [(n, p) for n in range(1, 5) for p in (2, 3)] + [(5, 2)]
        for n, p in grid:
            parts, M = supercharacter_table(GroundSet.range(n), p)
            # invertibility asserted through a successful solve
            solve_exact(M, [0] * len(parts))

    def test_basis_vector_roundtrip(self):
        g = GroundSet.range(3)
        for lam, _, _ in enumerate_partitions(g):
            f = character_function(lam, g)
            d = decompose_exact(f, degree_bound=4)
            for nu, c in d.coeffs.items():
                assert c == (ONE if nu == lam else ZERO)
            assert d[lam] == ONE


class TestDecomposeExact:
    def test_regular_character(self):
        # psi_N^N values: q^C(n,2) at the empty partition, 0 elsewhere;
        # coefficient of chi^lam is q^(nst^lam_lam + nst^lam_(N-L(lam)))
        for n in (2, 3, 4):
            g = GroundSet.range(n)
            gl = list(g)
            values = {mu: ZERO for mu, _, _ in enumerate_partitions(g)}
            values[empty(g)] = QPoly.q_pow(n * (n - 1) // 2)
            f = SuperclassFunction(g, values)
            d = decompose_exact(f, degree_bound=n * (n - 1) // 2 + 1)
            for lam, _, _ in enumerate_partitions(g):
                rest = [x for x in gl if x not in lam.left_endpoints()]
                want = QPoly.q_pow(nst(lam, lam) + nst_points(lam, rest))
                assert d[lam] == want
            check_nonnegative_at(d)

    def test_single_arc_restriction(self):
        # Res chi^{k~n} from N+{n} to N = (q-1)(chi^0 + sum_{l>k} chi^{k~l})
        for n in range(2, 6):
            big = GroundSet.range(n + 1)
            sub = GroundSet.range(n)
            for k in range(1, n + 1):
                lam = ArcMultiset(big, [(k, n + 1)])
                f = restrict_values(lam, sub)
                d = decompose_exact(f, degree_bound=4)
                want = {empty(sub): Q_MINUS_1}
                for l in range(k + 1, n + 1):
                    want[SetPartition(sub, [(k, l)])] = Q_MINUS_1
                assert d.coeffs == want

    def test_shared_right_endpoint_product(self):
        # chi^{i~l} odot chi^{j~l} = (q-1)(chi^{i~l} + sum_{j<k<l} chi^{i~l,j~k})
        g = GroundSet.range(5)
        i, j, l = 1, 2, 5
        f = character_function(SetPartition(g, [(i, l)]), g)
        h = character_function(SetPartition(g, [(j, l)]), g)
        d = decompose_exact(odot(f, h), degree_bound=4)
        want = {SetPartition(g, [(i, l)]): Q_MINUS_1}
        for k in range(j + 1, l):
            want[SetPartition(g, [(i, l), (j, k)])] = Q_MINUS_1
        assert d.coeffs == want

    def test_odot_trivial_and_commutative(self):
        g = GroundSet.range(3)
        one = character_function(empty(g), g)
        f = character_function(parse_partition("1-3", g), g)
        assert odot(f, one).values == f.values
        h = character_function(parse_partition("2-3", g), g)
        assert odot(f, h).values == odot(h, f).values


def rainbow_restriction():
    # chi^{1~5, 1~5} restricted from {1..5} to {2,3,4}
    big = GroundSet.range(5)
    return restrict_values(ArcMultiset(big, [(1, 5)] * 2),
                           GroundSet((2, 3, 4)))


class TestCertification:
    """decompose_exact raises instead of returning an uncertified answer."""

    def test_size_reads_ranks(self):
        g = GroundSet((3, 5, 8, 9))
        for mu, _, _ in enumerate_partitions(g):
            ranked = SetPartition(
                GroundSet.range(4),
                [(list(g).index(i) + 1, list(g).index(l) + 1)
                 for i, l in mu.arcs])
            assert superclass_size(mu, g) == \
                superclass_size(ranked, GroundSet.range(4))

    def test_sizes_sum_to_group_order(self):
        for n in range(1, 6):
            g = GroundSet.range(n)
            total = sum((superclass_size(mu, g)
                         for mu, _, _ in enumerate_partitions(g)), ZERO)
            assert total == QPoly.q_pow(n * (n - 1) // 2)

    @pytest.mark.parametrize("sabotage", ["unit", "one_class_times_q"])
    def test_wrong_superclass_size_raises(self, monkeypatch, sabotage):
        true_size = superclass_size
        if sabotage == "unit":
            def wrong(mu, ground):
                return ONE
        else:
            def wrong(mu, ground):
                size = true_size(mu, ground)
                return size.shift(1) if len(mu) == 1 else size
        f = rainbow_restriction()
        assert decompose_exact(f).coeffs  # the honest solve succeeds
        monkeypatch.setattr(scfcore, "superclass_size", wrong)
        with pytest.raises(DecompositionError):
            decompose_exact(f)

    def test_wrong_quotient_fails_rebuild(self, monkeypatch):
        # an exact but wrong quotient is caught by the rebuild check
        true_divide = scfcore.divide_exact
        monkeypatch.setattr(scfcore, "divide_exact",
                            lambda num, den: true_divide(num, den) + ONE)
        with pytest.raises(DecompositionError, match="rebuild"):
            decompose_exact(rainbow_restriction())

    def test_wrong_superclass_size_raises_under_optimize(self, run_optimized):
        # `python -O` strips asserts: the certification must not use them
        script = (
            "import json\n"
            "from utrestrict import scfcore\n"
            "from utrestrict.qcalc import ONE\n"
            "from utrestrict.setpart import GroundSet, ArcMultiset\n"
            "f = scfcore.restrict_values(ArcMultiset(GroundSet.range(5), "
            "[(1, 5)] * 2), GroundSet((2, 3, 4)))\n"
            "honest = len(scfcore.decompose_exact(f).coeffs)\n"
            "scfcore.superclass_size = lambda mu, ground: ONE\n"
            "try:\n"
            "    scfcore.decompose_exact(f)\n"
            "    outcome = 'returned'\n"
            "except scfcore.DecompositionError:\n"
            "    outcome = 'raised'\n"
            "print(json.dumps([honest, outcome]))\n")
        proc = run_optimized(script)
        assert proc.returncode == 0, proc.stderr
        honest, outcome = json.loads(proc.stdout)
        assert honest > 0 and outcome == "raised"

    @pytest.mark.parametrize("crs_shift", [1, -1])
    def test_wrong_crossing_count_raises(self, monkeypatch, crs_shift):
        # the closed denominator with crs(nu) + 1 or crs(nu) - 1: a quotient
        # turns inexact, or a wrong one is caught by the rebuild
        true_norm = scfcore._norm

        def wrong(nu, n):
            norm = true_norm(nu, n)
            if crs_shift > 0:
                return norm.shift(1)
            assert norm.coeffs[0] == 0      # q^C(n,2) divides the norm
            return QPoly(norm.coeffs[1:])

        f = rainbow_restriction()
        assert decompose_exact(f).coeffs
        monkeypatch.setattr(scfcore, "_norm", wrong)
        with pytest.raises(DecompositionError):
            decompose_exact(f)

    @pytest.mark.parametrize("corruption", [
        QPoly.q_pow(64),
        # packs to 0 at q = 2^8: a rebuild at a fixed K = 8 would accept it
        QPoly.q_pow(64) * 256 - QPoly.q_pow(65)])
    def test_corrupt_coefficient_fails_rebuild(self, monkeypatch, corruption):
        # one coefficient off by a term far above every value's degree; the
        # rebuild packs at a K read off the coefficients' l1 norms
        true_divide = scfcore.divide_exact
        calls = []

        def corrupt_first(num, den):
            calls.append(1)
            c = true_divide(num, den)
            return c + corruption if len(calls) == 1 else c

        monkeypatch.setattr(scfcore, "divide_exact", corrupt_first)
        with pytest.raises(DecompositionError, match="rebuild"):
            decompose_exact(rainbow_restriction())

    def test_non_polynomial_coefficient_raises(self):
        # the indicator of the identity class is the regular character
        # divided by q^C(n,2): its coefficients are not in Z[q]
        g = GroundSet.range(3)
        values = {mu: ZERO for mu, _, _ in enumerate_partitions(g)}
        values[empty(g)] = ONE
        with pytest.raises(DecompositionError):
            decompose_exact(SuperclassFunction(g, values))

    def test_degree_bound_enforced(self):
        f = rainbow_restriction()
        top = max(c.degree() for c in decompose_exact(f).coeffs.values())
        assert decompose_exact(f, top).coeffs == decompose_exact(f).coeffs
        with pytest.raises(DecompositionError):
            decompose_exact(f, top - 1)


class TestClosedNorm:
    """The solver's denominators come from a closed form; the rebuild
    certifies the result either way, and this pins the form itself."""

    GROUNDS = [GroundSet.range(n) for n in range(7)] \
        + [GroundSet((2, 3, 5, 8, 9, 12))]

    @pytest.mark.parametrize("ground", GROUNDS, ids=lambda g: str(tuple(g)))
    def test_norm_is_the_summed_denominator(self, ground):
        parts = [mu for mu, _, _ in enumerate_partitions(ground)]
        sizes = [superclass_size(mu, ground) for mu in parts]
        for nu in parts:
            total = ZERO
            for mu, size in zip(parts, sizes):
                chi = superchar_value(nu, mu, ground)
                if not chi.is_zero():
                    total = total + size * chi * chi
            assert scfcore._norm(nu, len(ground)) == total, nu


class TestSolverScale:
    def test_rainbow_large_multiplicity(self):
        # coefficients of q-degree up to about 2m and size up to about 2^m
        ambient = GroundSet.range(6)
        inner = GroundSet(range(2, 6))
        for m in range(1, 9):
            f = restrict_values(ArcMultiset(ambient, [(1, 6)] * m), inner)
            assert decompose_exact(f).coeffs == \
                rainbow(inner, m, "superchars").coeffs, m

    def test_solve_multiplies_no_qpoly(self, monkeypatch):
        # the table, the numerators and the rebuild run on signed monomials
        # and packed ints, so |N| = 5 makes no polynomial product; a table of
        # QPoly entries multiplied entry by entry makes 8,947
        f = restrict_values(ArcMultiset(GroundSet.range(7), [(1, 7)] * 2),
                            GroundSet(range(2, 7)))
        count = [0]
        mul = QPoly.__mul__

        def counted(a, b):
            count[0] += 1
            return mul(a, b)

        monkeypatch.setattr(QPoly, "__mul__", counted)
        monkeypatch.setattr(QPoly, "__rmul__", counted)
        dec = decompose_exact(f)
        assert (len(dec.coeffs), count[0]) == (36, 0)


class TestRestrictValues:
    def test_trivial(self):
        g = GroundSet.range(4)
        lam = ArcMultiset(g, ())
        f = restrict_values(lam, GroundSet((1, 2, 3)))
        assert all(v == ONE for v in f.values.values())

    def test_case3_proportional(self):
        # arcs inside K restrict to a q-power multiple of the same character
        big = GroundSet.range(5)
        sub = GroundSet((2, 3, 4))
        lam = ArcMultiset(big, [(2, 4)])
        f = restrict_values(lam, sub)
        d = decompose_exact(f, degree_bound=10)
        inner = SetPartition(sub, [(2, 4)])
        assert set(d.coeffs) == {inner}
        c = d[inner]
        # single monomial q^e
        assert sum(map(abs, c.coeffs)) == 1 and c.coeffs[-1] == 1

    def test_bad_inputs_raise_under_optimize(self, run_python):
        # each check must hold without asserts: checked by asserts alone,
        # under `python -O` a K outside N' returned a value table, a partial
        # map failed later with a KeyError, and a negative power never
        # returned
        script = (
            "from utrestrict.qcalc import ONE, Q_MINUS_1\n"
            "from utrestrict.scfcore import (\n"
            "    SuperclassFunction, restrict_values)\n"
            "from utrestrict.setpart import (\n"
            "    ArcMultiset, GroundSet, SetPartition)\n"
            "g = GroundSet.range(3)\n"
            "cases = [\n"
            "    lambda: restrict_values(ArcMultiset(g, [(1, 3)]),\n"
            "                            GroundSet((7,))),\n"
            "    lambda: SuperclassFunction(g, {SetPartition(g, ()): ONE}),\n"
            "    lambda: Q_MINUS_1 ** -1,\n"
            "]\n"
            "for case in cases:\n"
            "    try:\n"
            "        case()\n"
            "        print('returned')\n"
            "    except ValueError as exc:\n"
            "        print(len(str(exc).splitlines()))\n")
        proc = run_python("-O", "-c", script)
        assert (proc.returncode, proc.stdout, proc.stderr) == \
            (0, "1\n1\n1\n", "")

    def test_rainbow_anchor_values(self):
        # chi^{(1,5)} restricted to K={2,3,4} matches (q-1)(psi^0+(q-1)psi^1)
        big = GroundSet.range(5)
        sub = GroundSet((2, 3, 4))
        lam = ArcMultiset(big, [(1, 5)])
        f = restrict_values(lam, sub)
        from utrestrict.qcalc import qint
        for mu, _, _ in enumerate_partitions(sub):
            # psi^0 = 1, psi^1(u_mu) = [|K| - |mu|]
            want = Q_MINUS_1 * (1 + Q_MINUS_1 * qint(3 - len(mu)))
            assert f(mu) == want


class TestLabelsText:
    @staticmethod
    def decompositions():
        # a closed form built in scan order and a solver result built in
        # table order
        yield core(GroundSet.range(7), 3).decomposition()
        lam = ArcMultiset(GroundSet.range(6), [(1, 6), (1, 6), (2, 5)])
        yield decompose_exact(restrict_values(lam, GroundSet((2, 3, 4, 5))))

    def test_rows_by_arc_count_then_arcs(self):
        for dec in self.decompositions():
            want = sorted(dec.coeffs, key=lambda lam: (len(lam), lam.arcs))
            assert dec.labels_text() == [
                (lam.label(), dec.coeffs[lam]) for lam in want]

    def test_rows_do_not_depend_on_insertion_order(self):
        rng = random.Random(3)
        for dec in self.decompositions():
            items = list(dec.coeffs.items())
            assert len(items) > 10
            for _ in range(3):
                rng.shuffle(items)
                shuffled = Decomposition(dec.basis, dict(items))
                assert shuffled.labels_text() == dec.labels_text()
            reverse = Decomposition(dec.basis, dict(items[::-1]))
            assert reverse.labels_text() == dec.labels_text()
