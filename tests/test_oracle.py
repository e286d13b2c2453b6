import itertools
import json

import pytest

from utrestrict.setpart import (
    GroundSet, SetPartition, enumerate_partitions, bell, nst, nst_points,
    wt_up,
)
from utrestrict.scfcore import superclass_size
from utrestrict.restrict import psiK
from utrestrict.oracle import (
    BudgetExceeded, superclass_orbits, borel_generators, module_trace,
    u_mu_matrix, mat_mul, mat_inverse_unipotent, identity,
)

from conftest import (
    CyclotomicInt, add_identity, character_function, mat_dagger,
    numeric_decompose,
)


def subsets(n):
    labels = range(1, n + 1)
    return [frozenset(c) for r in range(n + 1)
            for c in itertools.combinations(labels, r)]


def orbit_of(table):
    """matrix -> orbit id over the oracle's orbit lists."""
    return {x: oid for oid, orbit in enumerate(table.orbits) for x in orbit}


def character_values(table):
    """lam -> {mu: chi^lam(u_mu) at q = p} over the oracle's representatives."""
    g = GroundSet.range(table.n)
    return {lam: {mu: character_function(lam, g)(mu)(table.p)
                  for mu in table.reps}
            for lam, _, _ in enumerate_partitions(g)}


def orthogonality_failures(table, values):
    """Pairs (lam, nu) whose inner product sum_mu |orbit_mu| chi^lam(u_mu)
    chi^nu(u_mu), weighted by the oracle's orbit sizes, is zero when
    lam == nu or nonzero when lam != nu."""
    sizes = {mu: len(orbit) for mu, orbit in zip(table.reps, table.orbits)}
    out = []
    for lam, a in values.items():
        for nu, b in values.items():
            inner = sum(sizes[mu] * a[mu] * b[mu] for mu in sizes)
            if (inner == 0) == (lam == nu):
                out.append((lam.label(), nu.label()))
    return out


class TestCyclotomic:
    def test_power_sum_vanishes(self):
        for p in (2, 3, 5):
            s = CyclotomicInt.zero(p)
            for x in range(p):
                s = s + CyclotomicInt.theta(p, x)
            assert s == CyclotomicInt.zero(p)

    def test_multiplicative(self):
        for p in (3, 5):
            for a in range(p):
                for b in range(p):
                    assert CyclotomicInt.theta(p, a) * CyclotomicInt.theta(p, b) \
                        == CyclotomicInt.theta(p, a + b)

    def test_p2_is_signs(self):
        assert CyclotomicInt.theta(2, 0).as_integer() == 1
        assert CyclotomicInt.theta(2, 1).as_integer() == -1

    def test_integer_detection(self):
        z = CyclotomicInt.theta(5, 1)
        assert not z.is_rational_integer()
        assert (CyclotomicInt.theta(3, 1) + CyclotomicInt.theta(3, 2)) \
            .as_integer() == -1


class TestMatrixPlumbing:
    def test_inverse(self, brute_force):
        for p in (2, 3):
            for u in brute_force.unitriangular(3, p):
                assert mat_mul(u, mat_inverse_unipotent(u, p), p) == identity(3)

    def test_dagger_involution_and_product(self, brute_force):
        for u in brute_force.unitriangular(3, 2):
            assert mat_dagger(mat_dagger(u)) == u
        all_ut = list(brute_force.unitriangular(3, 3))
        for u in all_ut:
            for v in all_ut:
                assert mat_dagger(mat_mul(u, v, 3)) == \
                    mat_mul(mat_dagger(v), mat_dagger(u), 3)


class TestOrbits:
    @pytest.mark.parametrize("n,p", [(1, 2), (2, 2), (2, 3), (3, 2), (3, 3),
                                     (4, 2), (4, 3), (6, 2), (4, 5)])
    def test_census(self, n, p):
        table = superclass_orbits(n, p)
        assert len(table.orbits) == bell(n)
        sizes = sum(len(o) for o in table.orbits)
        assert sizes == p ** (n * (n - 1) // 2)
        labels = sorted(r.label() for r in table.reps)
        want = sorted(mu.label() for mu, _, _
                      in enumerate_partitions(GroundSet.range(n)))
        assert labels == want

    @pytest.mark.parametrize("n,p", [(n, 2) for n in range(1, 7)]
                             + [(n, 3) for n in range(1, 5)]
                             + [(3, 5), (4, 5)])
    def test_superclass_size_formula(self, n, p):
        # the closed-form |K_mu| the symbolic solver weights by
        g = GroundSet.range(n)
        table = superclass_orbits(n, p)
        for rep, orbit in zip(table.reps, table.orbits):
            assert superclass_size(rep, g)(p) == len(orbit), rep

    def test_zero_orbit_is_singleton(self):
        table = superclass_orbits(3, 3)
        zero = tuple(tuple(0 for _ in range(3)) for _ in range(3))
        oid = orbit_of(table)[zero]
        assert table.orbits[oid] == [zero]
        assert table.reps[oid].arcs == frozenset()

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            superclass_orbits(5, 2, budget=100)

    @pytest.mark.parametrize("n,p", [(3, 3), (4, 2), (3, 5)])
    def test_orbits_closed_under_generators(self, n, p):
        # ties the row/column moves of the search to matrix products
        table = superclass_orbits(n, p)
        gens = borel_generators(n, p)
        index = orbit_of(table)
        assert len(index) == p ** (n * (n - 1) // 2)
        for x, oid in index.items():
            for g in gens:
                assert index[mat_mul(g, x, p)] == oid, (x, g)
                assert index[mat_mul(x, g, p)] == oid, (x, g)

    @pytest.mark.parametrize("n,p", [(3, 2), (4, 2), (3, 3), (4, 3)])
    def test_supercharacter_orthogonality(self, n, p):
        # the closed-form supercharacters, weighted by the oracle's orbit
        # sizes (not by the size formula), are orthogonal and nonzero
        table = superclass_orbits(n, p)
        assert orthogonality_failures(table, character_values(table)) == []

    def test_orthogonality_negative_control(self):
        # one perturbed value breaks the inner product with the trivial
        # supercharacter (constant 1) by the size of that orbit
        table = superclass_orbits(3, 2)
        values = character_values(table)
        lam = next(lam for lam in values if lam.arcs)
        values[lam][table.reps[0]] += 1
        trivial = SetPartition(GroundSet.range(3), ())
        assert (lam.label(), trivial.label()) in \
            orthogonality_failures(table, values)


class TestModuleTraces:
    @pytest.mark.parametrize(
        "n,p", [pytest.param(n, 2, id=str(n)) for n in (2, 3, 4, 5)]
        + [pytest.param(4, 3, id="4-p3")])
    def test_psiK_matches_closed_form(self, n, p):
        table = superclass_orbits(n, p)
        g = GroundSet.range(n)
        for r in range(n + 1):
            for K in itertools.combinations(g, r):
                K = frozenset(K)
                mod = psiK(g, K)
                for mu in table.reps:
                    u = u_mu_matrix(mu, n)
                    got = module_trace(("psiK", K), u, p, n)
                    assert got == mod.value(mu)(p), (K, mu)

    def test_psiK_p3(self):
        n, p = 3, 3
        table = superclass_orbits(n, p)
        for K in [frozenset(), frozenset({1}), frozenset({2, 3}),
                  frozenset({1, 2, 3})]:
            mod = psiK(GroundSet.range(n), K)
            for mu in table.reps:
                u = u_mu_matrix(mu, n)
                got = module_trace(("psiK", K), u, p, n)
                assert got == mod.value(mu)(p)

    def test_regular_module(self):
        n, p = 3, 2
        table = superclass_orbits(n, p)
        for mu in table.reps:
            u = u_mu_matrix(mu, n)
            got = module_trace(("regular",), u, p, n)
            want = p ** 3 if not mu.arcs else 0
            assert got == want

    def test_hooks_partition_psiK(self):
        n, p = 3, 2
        labels = list(range(1, n + 1))
        table = superclass_orbits(n, p)
        for r in range(n + 1):
            for K in itertools.combinations(labels, r):
                K = frozenset(K)
                for mu in table.reps:
                    u = u_mu_matrix(mu, n)
                    total = 0
                    for s in range(n + 1):
                        for J in itertools.combinations(labels, s):
                            total = total + module_trace(
                                ("psiHook", K, frozenset(J)), u, p, n)
                    assert total == module_trace(("psiK", K), u, p, n)

    def test_flipped_dagger_transport(self, brute_force):
        n, p = 3, 2
        labels = list(range(1, n + 1))
        for r in range(n + 1):
            for K in itertools.combinations(labels, r):
                K = frozenset(K)
                w0K = frozenset(n + 1 - x for x in K)
                for u in brute_force.unitriangular(n, p):
                    assert module_trace(("flippedK", K), u, p, n) == \
                        module_trace(("psiK", w0K), mat_dagger(u), p, n)

    @pytest.mark.parametrize("n,p", [(2, 2), (3, 2), (2, 3), (3, 3), (4, 2),
                                     (4, 3), (5, 2), (3, 5)])
    def test_ut_algebra_trace(self, n, p):
        table = superclass_orbits(n, p)
        for mu in table.reps:
            u = u_mu_matrix(mu, n)
            got = module_trace(("utAlgebra",), u, p, n)
            e = n * (n - 1) // 2 - sum(n - j for _, j in mu.arcs)
            assert got == p ** e, (mu, got)

    def test_ut_algebra_n2_arc(self):
        # the single-arc superclass at n=2 fixes exactly q of the q elements
        g = GroundSet.range(2)
        mu = SetPartition(g, [(1, 2)])
        u = u_mu_matrix(mu, 2)
        assert module_trace(("utAlgebra",), u, 2, 2) == 2
        assert module_trace(("utAlgebra",), u, 3, 2) == 3

    def test_theta_choice_irrelevant(self, brute_force):
        # replacing theta(x) = zeta^x by theta(x) = zeta^(c x) for any unit c
        # leaves every module trace unchanged
        n, p = 3, 3
        K = {1, 2, 3}
        basis = list(brute_force.lt_basis(n, p, cols=K))
        table = superclass_orbits(n, p)
        for mu in table.reps:
            u = u_mu_matrix(mu, n)
            want = module_trace(("psiK", K), u, p, n)
            for c in range(1, p):
                assert brute_force.left_trace(u, p, basis, unit=c) == want


# grids where the witness runs over every u in UT_n(F_p), and grids where it
# runs over the superclass representatives u_mu
EVERY_U = [(2, 2), (3, 2), (2, 3), (3, 3)]
EVERY_U_MU = [(4, 2), (4, 3), (3, 5)]


def witness_points(n, p, brute_force):
    if (n, p) in EVERY_U:
        return list(brute_force.unitriangular(n, p))
    return [u_mu_matrix(mu, n) for mu in superclass_orbits(n, p).reps]


class TestCyclotomicWitness:
    """module_trace reads traces off ranks mod p; the reference sums
    theta(tr(a v)) over every fixed basis vector in Z[zeta_p]."""

    @pytest.mark.parametrize("n,p", EVERY_U + EVERY_U_MU)
    def test_psiK(self, n, p, brute_force):
        for u in witness_points(n, p, brute_force):
            for K in subsets(n):
                assert module_trace(("psiK", K), u, p, n) == \
                    brute_force.trace(("psiK", K), u, p, n), (u, K)

    @pytest.mark.parametrize("n,p", EVERY_U + EVERY_U_MU)
    def test_flippedK(self, n, p, brute_force):
        for u in witness_points(n, p, brute_force):
            for R in subsets(n):
                assert module_trace(("flippedK", R), u, p, n) == \
                    brute_force.trace(("flippedK", R), u, p, n), (u, R)

    @pytest.mark.parametrize("n,p", EVERY_U + EVERY_U_MU)
    def test_psiHook(self, n, p, brute_force):
        for u in witness_points(n, p, brute_force):
            for K in subsets(n):
                hooks = brute_force.hook_traces(K, u, p, n)
                for J in subsets(n):
                    assert module_trace(("psiHook", K, J), u, p, n) == \
                        hooks.get(J, 0), (u, K, J)

    @pytest.mark.parametrize("n,p", EVERY_U + EVERY_U_MU)
    def test_ut_algebra(self, n, p, brute_force):
        for u in witness_points(n, p, brute_force):
            assert module_trace(("utAlgebra",), u, p, n) == \
                brute_force.trace(("utAlgebra",), u, p, n), u


def orbit_values(f, table):
    """For each orbit, the set of values of f at Id + x over its members."""
    return [{f(add_identity(x, table.p)) for x in members}
            for members in table.orbits]


class TestConstancy:
    def test_trace_is_superclass_function(self):
        n, p = 3, 2
        table = superclass_orbits(n, p)
        for K in [frozenset({1}), frozenset({2, 3}), frozenset({1, 2, 3})]:
            values = orbit_values(
                lambda u: module_trace(("psiK", K), u, p, n), table)
            assert all(len(v) == 1 for v in values), K

    def test_ut_algebra_constant(self):
        n, p = 3, 2
        table = superclass_orbits(n, p)
        values = orbit_values(
            lambda u: module_trace(("utAlgebra",), u, p, n), table)
        assert all(len(v) == 1 for v in values)

    def test_negative_control(self):
        # a raw matrix entry is not a superclass function; note p = 3 since
        # at p = 2 the (1,2) corner entry happens to be B x B invariant
        n, p = 2, 3
        table = superclass_orbits(n, p)
        assert any(len(v) > 1 for v in orbit_values(lambda u: u[0][1], table))


class TestNumericDecompose:
    def test_character_indicator(self):
        g = GroundSet.range(3)
        p = 2
        for lam, _, _ in enumerate_partitions(g):
            f = character_function(lam, g)
            values = {mu: f(mu)(p) for mu, _, _ in enumerate_partitions(g)}
            sol = numeric_decompose(values, p, g)
            for nu, c in sol.items():
                assert c == (1 if nu == lam else 0)

    @pytest.mark.parametrize("n,p", [(2, 2), (3, 2), (3, 3)])
    def test_psiK_decomposition_coefficients(self, n, p):
        # coefficient of chi^lam in psi^K is q^(nst^lam_lam + nst^lam_(K-L))
        g = GroundSet.range(n)
        labels = list(range(1, n + 1))
        for r in range(n + 1):
            for K in itertools.combinations(labels, r):
                K = frozenset(K)
                values = {}
                for mu, _, _ in enumerate_partitions(g):
                    u = u_mu_matrix(mu, n)
                    values[mu] = module_trace(("psiK", K), u, p, n)
                sol = numeric_decompose(values, p, g)
                for lam, c in sol.items():
                    if not lam.left_endpoints() <= K:
                        assert c == 0
                    else:
                        extra = sorted(K - lam.left_endpoints())
                        e = nst(lam, lam) + nst_points(lam, extra)
                        assert c == p ** e, (K, lam)


class TestOptimizedInterpreter:
    def test_invariant_checks_survive_optimize(self, run_optimized):
        # `python -O` strips asserts: these must still raise; elimination
        # mod p needs a field, so p = 4 is refused
        script = (
            "import json\n"
            "from utrestrict.oracle import (\n"
            "    identity, module_trace, superclass_orbits)\n"
            "calls = [lambda: superclass_orbits(3, 4),\n"
            "         lambda: module_trace(('psiK', {1}), identity(3), 4, 3)]\n"
            "out = []\n"
            "for call in calls:\n"
            "    try:\n"
            "        call()\n"
            "        out.append('returned')\n"
            "    except ValueError:\n"
            "        out.append('raised')\n"
            "print(json.dumps(out))\n")
        proc = run_optimized(script)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == ["raised"] * 2
