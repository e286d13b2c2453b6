import itertools
import json
import random

import pytest

from utrestrict.setpart import (
    GroundSet, SetPartition, EnumerationBoundExceeded, enumerate_partitions,
    nst, nst_points, wt_up,
)
from utrestrict.scfcore import superclass_size
from utrestrict.restrict import PsiKModule, psiK, ut_algebra
from utrestrict import oracle
from utrestrict.oracle import (
    OracleInvariantError, superclass_orbits,
    borel_generators, module_trace, u_mu_matrix, mat_mul,
)

from conftest import (
    CyclotomicInt, _strict_upper, add_identity, assert_census,
    character_function, dropping_scan, mat_dagger, numeric_decompose,
)


def subsets(n):
    labels = range(1, n + 1)
    return [frozenset(c) for r in range(n + 1)
            for c in itertools.combinations(labels, r)]


def orbit_members(table):
    """Each orbit's states as matrices: state k is the k-th matrix of
    _strict_upper, the itertools.product order the oracle codes states in."""
    states = list(_strict_upper(table.n, table.p))
    return [[states[x] for x in orbit] for orbit in table.orbits]


def orbit_of(table):
    """matrix -> orbit id over the oracle's orbit lists."""
    return {x: oid for oid, orbit in enumerate(orbit_members(table))
            for x in orbit}


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
        assert_census(superclass_orbits(n, p))

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
        # the zero matrix is state 0
        table = superclass_orbits(3, 3)
        assert not any(map(any, next(_strict_upper(3, 3))))
        oid = next(k for k, orbit in enumerate(table.orbits) if 0 in orbit)
        assert table.orbits[oid] == [0]
        assert table.reps[oid].arcs == ()

    def test_budget(self, monkeypatch):
        # refused before the search builds anything
        monkeypatch.setattr(oracle, "borel_generators", None)
        with pytest.raises(EnumerationBoundExceeded):
            superclass_orbits(5, 2, budget=100)

    @pytest.mark.parametrize("n,p", [(1, 2), (4, 2), (4, 3), (5, 5)])
    def test_generating_set_size(self, n, p):
        # n - 1 simple-root transvections, and n torus scalings when F_p^*
        # is not trivial
        assert len(borel_generators(n, p)) == (n - 1) + n * (p > 2)

    @pytest.mark.parametrize("n,p", [(3, 3), (4, 2), (3, 5)])
    def test_orbits_closed_under_generators(self, n, p):
        # every I + cE_ij (i < j, c a unit) and every scaling of one
        # diagonal entry by a unit other than 1, built here and not by
        # borel_generators: each orbit must be closed under all of B, not
        # only under the moves the search makes
        table = superclass_orbits(n, p)
        index = orbit_of(table)
        assert len(index) == p ** (n * (n - 1) // 2)
        gens = []
        for i, j in itertools.product(range(n), repeat=2):
            for c in range(1, p):
                if i < j or (i == j and c > 1):
                    g = [[int(a == b) for b in range(n)]
                         for a in range(n)]
                    g[i][j] = c
                    gens.append(tuple(map(tuple, g)))
        assert len(gens) == (n * (n - 1) // 2 + n) * (p - 1) - n
        for x, oid in index.items():
            for g in gens:
                assert index[mat_mul(g, x, p)] == oid, (x, g)
                assert index[mat_mul(x, g, p)] == oid, (x, g)

    def test_two_patterns_in_one_orbit_fail(self, monkeypatch):
        # a scan that yields each partition twice: the second search
        # starts in the orbit the first one found
        real = oracle.enumerate_partitions
        monkeypatch.setattr(oracle, "enumerate_partitions", lambda g: [
            yielded for yielded in real(g) for _ in range(2)])
        with pytest.raises(OracleInvariantError,
                           match="lies in the orbit of an earlier partition"):
            superclass_orbits(3, 2)

    def test_dropped_pattern_fails(self, monkeypatch):
        # a scan that drops its last partition leaves that orbit's states
        # unreached
        monkeypatch.setattr(oracle, "enumerate_partitions",
                            dropping_scan(oracle.enumerate_partitions))
        with pytest.raises(OracleInvariantError,
                           match="cover 6 of the 8 states"):
            superclass_orbits(3, 2)

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
                    got = module_trace(("psiK", K), u, p)
                    assert got == mod.value(mu)(p), (K, mu)

    def test_psiK_p3(self):
        n, p = 3, 3
        table = superclass_orbits(n, p)
        for K in [frozenset(), frozenset({1}), frozenset({2, 3}),
                  frozenset({1, 2, 3})]:
            mod = psiK(GroundSet.range(n), K)
            for mu in table.reps:
                u = u_mu_matrix(mu, n)
                got = module_trace(("psiK", K), u, p)
                assert got == mod.value(mu)(p)

    def test_regular_module(self):
        # the column-set module on every column is the regular module
        n, p = 3, 2
        table = superclass_orbits(n, p)
        for mu in table.reps:
            u = u_mu_matrix(mu, n)
            got = module_trace(("psiK", frozenset(range(1, n + 1))), u, p)
            want = p ** 3 if not mu.arcs else 0
            assert got == want

    def test_unknown_spec_refused(self):
        # two kinds, each with its own arity
        u = u_mu_matrix(SetPartition(GroundSet.range(3), ()), 3)
        for spec in [("regular",), ("flippedK", frozenset({1})),
                     ("psiHook", frozenset({1}), frozenset({2})),
                     ("psiK",), ("utAlgebra", frozenset()), ()]:
            with pytest.raises(ValueError, match="unknown module spec"):
                module_trace(spec, u, 2)

    def test_non_unitriangular_refused(self):
        # an entry below the diagonal, and a diagonal entry other than 1
        for u in [((1, 0), (1, 1)), ((1, 1), (0, 2))]:
            for spec in [("psiK", frozenset({1})), ("utAlgebra",)]:
                with pytest.raises(ValueError, match="upper unitriangular"):
                    module_trace(spec, u, 3)

    def test_non_square_refused(self):
        u = ((1, 0, 0), (0, 1, 0))
        for spec in [("psiK", frozenset({1})), ("utAlgebra",)]:
            with pytest.raises(ValueError, match="square"):
                module_trace(spec, u, 2)

    @pytest.mark.parametrize("label", [0, 4])
    def test_column_label_out_of_range_refused(self, label):
        u = u_mu_matrix(SetPartition(GroundSet.range(3), [(1, 3)]), 3)
        with pytest.raises(ValueError, match=r"lie in 1\.\.3"):
            module_trace(("psiK", frozenset({2, label})), u, 2)

    @pytest.mark.parametrize("n,p", [(2, 2), (3, 2), (2, 3), (3, 3), (4, 2),
                                     (4, 3), (5, 2), (3, 5)])
    def test_ut_algebra_trace(self, n, p):
        table = superclass_orbits(n, p)
        for mu in table.reps:
            u = u_mu_matrix(mu, n)
            got = module_trace(("utAlgebra",), u, p)
            e = n * (n - 1) // 2 - sum(n - j for _, j in mu.arcs)
            assert got == p ** e, (mu, got)

    def test_rank_cache_holds_a_grid(self):
        # verify traces one module at every representative, then the next:
        # the rank cache must hold the whole grid, here the 877 u_mu of
        # (7, 2), so that the second module finds each u ranked already
        us = [u_mu_matrix(mu, 7)
              for mu, _, _ in enumerate_partitions(GroundSet.range(7))]
        oracle._block_ranks.cache_clear()
        for spec in [("psiK", frozenset()), ("utAlgebra",)]:
            for u in us:
                module_trace(spec, u, 2)
        info = oracle._block_ranks.cache_info()
        assert (info.misses, info.hits) == (877, 877)

    def test_ut_algebra_n2_arc(self):
        # the single-arc superclass at n=2 fixes exactly q of the q elements
        g = GroundSet.range(2)
        mu = SetPartition(g, [(1, 2)])
        u = u_mu_matrix(mu, 2)
        assert module_trace(("utAlgebra",), u, 2) == 2
        assert module_trace(("utAlgebra",), u, 3) == 3

    def test_theta_choice_irrelevant(self, brute_force):
        # replacing theta(x) = zeta^x by theta(x) = zeta^(c x) for any unit c
        # leaves every module trace unchanged
        n, p = 3, 3
        K = {1, 2, 3}
        basis = list(brute_force.lt_basis(n, p, cols=K))
        table = superclass_orbits(n, p)
        for mu in table.reps:
            u = u_mu_matrix(mu, n)
            want = module_trace(("psiK", K), u, p)
            for c in range(1, p):
                assert brute_force.left_trace(u, p, basis, unit=c) == want


# grids where the witness runs over every u in UT_n(F_p), and grids where it
# runs over the superclass representatives u_mu
EVERY_U = [(2, 2), (3, 2), (2, 3), (3, 3), (4, 2)]
EVERY_U_MU = [(4, 3), (3, 5)]


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
                assert module_trace(("psiK", K), u, p) == \
                    brute_force.trace(("psiK", K), u, p), (u, K)

    @pytest.mark.parametrize("n,p", EVERY_U + EVERY_U_MU)
    def test_flippedK(self, n, p, brute_force):
        # the right action on row set R, against its dagger transport
        for u in witness_points(n, p, brute_force):
            for R in subsets(n):
                w0R = frozenset(n + 1 - x for x in R)
                assert brute_force.trace(("flippedK", R), u, p) == \
                    module_trace(("psiK", w0R), mat_dagger(u), p), (u, R)

    @pytest.mark.parametrize("n,p", EVERY_U + EVERY_U_MU)
    def test_ut_algebra(self, n, p, brute_force):
        for u in witness_points(n, p, brute_force):
            assert module_trace(("utAlgebra",), u, p) == \
                brute_force.trace(("utAlgebra",), u, p), u


def random_unitriangular(n, p, count, seed):
    """`count` seeded random u in UT_n(F_p)."""
    rng = random.Random(seed)
    return [tuple(tuple(int(i == j) if i >= j else rng.randrange(p)
                        for j in range(n)) for i in range(n))
            for _ in range(count)]


class TestRandomBlocks:
    """The u_mu are partial permutations plus the identity, so their blocks
    barely exercise the column split; random u of UT_4(F_3) do."""

    @pytest.mark.parametrize("u", random_unitriangular(4, 3, 20, seed=4),
                             ids=range(20))
    def test_traces(self, u, brute_force):
        for spec in [("psiK", K) for K in subsets(4)] + [("utAlgebra",)]:
            assert module_trace(spec, u, 3) == \
                brute_force.trace(spec, u, 3), (u, spec)


# the row-set modules W^A label ut-algebra --target core; the witness runs
# over every row set A and every u_mu
ROW_GRID = [(n, 2) for n in range(1, 5)] + [(n, 3) for n in (2, 3)]


def row_module_cases(n, p, brute_force):
    """(A, mu, trace) for every row set A and every u_mu at (n, p), with the
    brute-force trace of u_mu under the right action on the strictly lower
    matrices with row support A."""
    for mu in superclass_orbits(n, p).reps:
        u = u_mu_matrix(mu, n)
        for A in subsets(n):
            yield A, mu, brute_force.trace(("flippedK", A), u, p)


class TestRowModuleWitness:
    @pytest.mark.parametrize("n,p", ROW_GRID)
    def test_row_module_value(self, n, p, brute_force):
        alg = ut_algebra(GroundSet.range(n))
        for A, mu, trace in row_module_cases(n, p, brute_force):
            assert alg.row_module_value(A, mu)(p) == trace, (A, mu)

    def test_negative_control(self, brute_force):
        # the transport without w0 reads the wrong rows, and the witness
        # sees it on 152 of the 338 cases
        cases = misses = 0
        for n, p in ROW_GRID:
            g = GroundSet.range(n)
            for A, mu, trace in row_module_cases(n, p, brute_force):
                cases += 1
                misses += PsiKModule(g, A).value(mu.dagger())(p) != trace
        assert (cases, misses) == (338, 152)


def orbit_values(f, table):
    """For each orbit, the set of values of f at Id + x over its members."""
    return [{f(add_identity(x, table.p)) for x in members}
            for members in orbit_members(table)]


class TestConstancy:
    def test_trace_is_superclass_function(self):
        n, p = 3, 2
        table = superclass_orbits(n, p)
        for K in [frozenset({1}), frozenset({2, 3}), frozenset({1, 2, 3})]:
            values = orbit_values(
                lambda u: module_trace(("psiK", K), u, p), table)
            assert all(len(v) == 1 for v in values), K

    def test_ut_algebra_constant(self):
        n, p = 3, 2
        table = superclass_orbits(n, p)
        values = orbit_values(
            lambda u: module_trace(("utAlgebra",), u, p), table)
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
                    values[mu] = module_trace(("psiK", K), u, p)
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
        # mod p needs a field, so p = 4 is refused, and the column split
        # needs u unitriangular and the labels in 1..n
        script = (
            "import json\n"
            "from utrestrict.oracle import (\n"
            "    module_trace, superclass_orbits)\n"
            "one = ((1, 0, 0), (0, 1, 0), (0, 0, 1))\n"
            "lower = ((1, 0, 0), (0, 1, 0), (1, 0, 1))\n"
            "calls = [lambda: superclass_orbits(3, 4),\n"
            "         lambda: module_trace(('psiK', {1}), one, 4),\n"
            "         lambda: module_trace(('utAlgebra',), lower, 2),\n"
            "         lambda: module_trace(('psiK', {4}), one, 2)]\n"
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
        assert json.loads(proc.stdout) == ["raised"] * 4
