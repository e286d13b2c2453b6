import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from utrestrict.setpart import (
    GroundSet, SetPartition, ArcMultiset, RegionSplit,
    DistinctEndpointViolation, GroundViolation, EnumerationBoundExceeded,
    parse_partition, nst, nst_points, wt_up, region_counts,
    enumerate_partitions, from_blocks, bell,
)

from conftest import blocks, crs

N6 = GroundSet.range(6)
RUNNING_LAM = parse_partition("1-5 2-4 4-6", N6)


class TestParsing:
    def test_running_example(self):
        assert RUNNING_LAM.arcs == {(1, 5), (2, 4), (4, 6)}

    def test_empty(self):
        assert parse_partition("", GroundSet.range(3)).arcs == frozenset()

    def test_duplicate_right(self):
        with pytest.raises(DistinctEndpointViolation):
            parse_partition("1-4 2-4", GroundSet.range(4))

    def test_duplicate_left(self):
        with pytest.raises(DistinctEndpointViolation):
            parse_partition("1-3 1-4", GroundSet.range(4))

    def test_outside_ground(self):
        with pytest.raises(GroundViolation):
            parse_partition("1-7", N6)

    def test_multiset_allows_repeats(self):
        m = ArcMultiset(N6, [(2, 5), (1, 6), (1, 6)])
        assert m.arcs == ((1, 6), (1, 6), (2, 5))


class TestBlocks:
    def test_running_example(self):
        assert blocks(RUNNING_LAM) == frozenset({
            frozenset({1, 5}), frozenset({2, 4, 6}), frozenset({3})})

    def test_empty(self):
        g = GroundSet.range(3)
        assert blocks(parse_partition("", g)) == frozenset(
            {frozenset({1}), frozenset({2}), frozenset({3})})

    def test_single_arc(self):
        g = GroundSet.range(2)
        assert blocks(parse_partition("1-2", g)) == frozenset({frozenset({1, 2})})


class TestDagger:
    def test_running_example(self):
        assert RUNNING_LAM.dagger().arcs == {(2, 6), (3, 5), (1, 3)}

    def test_empty(self):
        g = GroundSet.range(3)
        lam = parse_partition("", g)
        assert lam.dagger() == lam

    def test_involution(self):
        assert RUNNING_LAM.dagger().dagger() == RUNNING_LAM

    def test_nonconsecutive_ground(self):
        g = GroundSet((2, 3, 5, 7))
        lam = parse_partition("2-5 3-7", g)
        assert lam.dagger().arcs == {(3, 7), (2, 5)}  # w0 swaps 2<->7, 3<->5


class TestUncross:
    def test_running_example(self):
        g = GroundSet.range(6)
        lam = parse_partition("1-4 2-5 4-6", g)
        assert lam.uncross().arcs == {(2, 4), (4, 5), (1, 6)}

    def test_fixed_point_on_noncrossing(self):
        for lam, _, _ in enumerate_partitions(GroundSet.range(5)):
            if crs(lam) == 0:
                assert lam.uncross() == lam

    def test_single_crossing(self):
        lam = parse_partition("1-3 2-4", GroundSet.range(4))
        assert lam.uncross().arcs == {(2, 3), (1, 4)}

    def test_idempotent_and_preserves_endpoints(self):
        for n in range(1, 8):
            for lam, _, _ in enumerate_partitions(GroundSet.range(n)):
                u = lam.uncross()
                assert crs(u) == 0
                assert u.uncross() == u
                assert u.left_endpoints() == lam.left_endpoints()
                assert u.right_endpoints() == lam.right_endpoints()

    def test_image_is_all_noncrossing(self):
        for n in range(1, 7):
            g = GroundSet.range(n)
            all_parts = [lam for lam, _, _ in enumerate_partitions(g)]
            image = {lam.uncross() for lam in all_parts}
            noncrossing = {lam for lam in all_parts if crs(lam) == 0}
            assert image == noncrossing


class TestStats:
    def test_running_example_counts(self):
        assert nst(RUNNING_LAM, RUNNING_LAM) == 1
        assert crs(RUNNING_LAM) == 1

    def test_nst_points(self):
        lam = parse_partition("1-6", N6)
        assert nst_points(lam, {2, 3, 4, 5}) == 4

    def test_nst_wt_conversion_exhaustive(self):
        # nst^lam_A = wt_up_{R(lam)}(A) - wt_up_{L(lam)}(A) whenever A avoids
        # L(lam); in general the right side overcounts by |A cap L(lam)|.
        for n in range(1, 7):
            g = GroundSet.range(n)
            points = list(g)
            for lam, _, _ in enumerate_partitions(g):
                L, R = lam.left_endpoints(), lam.right_endpoints()
                for r in range(n + 1):
                    for A in itertools.combinations(points, r):
                        rhs = wt_up(A, R) - wt_up(A, L)
                        assert nst_points(lam, A) == rhs - len(set(A) & L)
                        if not set(A) & L:
                            assert nst_points(lam, A) == rhs

    def test_nst_invariant_under_uncross(self):
        for n in range(1, 7):
            g = GroundSet.range(n)
            points = list(g)
            for lam, _, _ in enumerate_partitions(g):
                u = lam.uncross()
                for r in range(n + 1):
                    for A in itertools.combinations(points, r):
                        assert nst_points(lam, A) == nst_points(u, A)

    def test_multiset_multiplicity(self):
        m = ArcMultiset(N6, [(1, 6), (1, 6)])
        inner = ArcMultiset(N6, [(2, 5), (2, 5), (2, 5)])
        assert nst(m, inner) == 6
        assert nst_points(m, [3]) == 2

    def test_wt_up(self):
        assert wt_up({1, 2}, {3, 4}) == 4
        assert wt_up({3}, {1, 2}) == 0


class TestRegions:
    def split(self):
        # ambient 1..8: n--=1, N_<={2}, n-=3, N_=={4,5}, n+=6, N_>={7}, n++=8
        return RegionSplit(GroundSet.range(8), 1, 3, 6, 8)

    def test_regions(self):
        s = self.split()
        assert list(s.n_lt) == [2]
        assert list(s.n_eq) == [4, 5]
        assert list(s.n_gt) == [7]
        # the restriction ground N excludes all four anchors
        assert list(s.inner) == [2, 4, 5, 7]

    def test_region_select(self):
        s = self.split()
        gam = parse_partition("2-7 4-5", s.ambient)
        # one arc from N_< to N_>, one inside N_=, none elsewhere
        assert region_counts(gam, s) == {"<>": 1, "==": 1}

    def test_gamma_eq_empty(self):
        s = self.split()
        gam = parse_partition("2-7", s.ambient)
        counts = region_counts(gam, s)
        assert counts["=="] == 0
        assert counts == {"<>": 1}

    def test_from_sizes(self):
        s = RegionSplit.from_sizes(1, 2, 1)
        assert (s.n_mm, s.n_m, s.n_p, s.n_pp) == (1, 3, 6, 8)
        c = RegionSplit.from_sizes(0, 1, 0)
        assert c.n_mm == c.n_m and c.n_p == c.n_pp
        assert list(c.n_eq) == [2]


def constraint_grid():
    """(ground, [(lefts, rights)]): every pair of endpoint constraints
    (None: anywhere) on n <= 5 points and a gapped ground, a seeded sample
    of 300 pairs on 6 points."""
    rng = random.Random(6)
    for g in [GroundSet.range(n) for n in range(7)] + \
            [GroundSet((2, 3, 5, 8, 9))]:
        sides = [None] + [frozenset(s) for r in range(len(g) + 1)
                          for s in itertools.combinations(g, r)]
        pairs = list(itertools.product(sides, repeat=2))
        if len(g) == 6:
            pairs = rng.sample(pairs, 300)
        yield g, pairs


def caps(g):
    """Every arc cap of a scan of g: none, and -1 to |g|."""
    return [None, *range(-1, len(g) + 1)]


class TestEnumeration:
    def test_bell_counts(self):
        for n in range(1, 7):
            parts = [lam for lam, _, _
                     in enumerate_partitions(GroundSet.range(n))]
            assert len(parts) == bell(n)
            assert len(set(parts)) == len(parts)

    def test_n1(self):
        assert [p.arcs for p, _, _
                in enumerate_partitions(GroundSet.range(1))] == [frozenset()]

    def test_bound(self):
        # the budget counts partitions, not points: Bell(11) is over it,
        # the 1,772 partitions of [12] with at most 2 arcs are not
        with pytest.raises(EnumerationBoundExceeded):
            list(enumerate_partitions(GroundSet.range(11)))
        assert sum(1 for _ in enumerate_partitions(GroundSet.range(12), 2)) \
            == 1772
        with pytest.raises(EnumerationBoundExceeded):
            next(enumerate_partitions(GroundSet.range(12), 4))
        # the scan nests one generator per point: 128 points is the most,
        # even for the one partition with no arc
        assert [p.arcs for p, _, _
                in enumerate_partitions(GroundSet.range(128), 0)] \
            == [frozenset()]
        assert sum(1 for _ in enumerate_partitions(GroundSet.range(128),
                                                   1)) == 1 + 128 * 127 // 2
        with pytest.raises(EnumerationBoundExceeded):
            next(enumerate_partitions(GroundSet.range(129), 0))

    def test_blocks_roundtrip(self):
        g = GroundSet.range(5)
        for lam, _, _ in enumerate_partitions(g):
            assert from_blocks(g, blocks(lam)) == lam

    def test_every_arc_set_once(self):
        # against every set of arcs with distinct left and distinct right
        # endpoints, on n = 0..6 and on a ground with gaps
        for g in [GroundSet.range(n) for n in range(7)] + \
                [GroundSet((2, 3, 5, 8, 9))]:
            pairs = list(itertools.combinations(g, 2))
            want = set()
            for r in range(len(g) + 1):
                for arcs in itertools.combinations(pairs, r):
                    if len({i for i, _ in arcs}) == len({j for _, j in arcs}) \
                            == r:
                        want.add(frozenset(arcs))
            got = [lam.arcs for lam, _, _ in enumerate_partitions(g)]
            assert len(got) == len(set(got)) == bell(len(g))
            assert set(got) == want

    def test_arc_cap(self):
        # the capped scan yields exactly the partitions with at most m arcs
        for n in range(9):
            g = GroundSet.range(n)
            every = [lam for lam, _, _ in enumerate_partitions(g)]
            for m in range(-1, n + 1):
                got = [lam for lam, _, _ in enumerate_partitions(g, m)]
                assert len(got) == len(set(got))
                assert set(got) == {lam for lam in every if len(lam) <= m}

    def test_endpoint_constraints(self):
        # the scan with lefts/rights yields exactly the partitions of the
        # full scan whose left endpoints lie in lefts and right endpoints in
        # rights (None: anywhere), under every arc cap, each once, and each
        # equal to the validated partition on the same arcs, on every
        # ground and constraint pair of constraint_grid
        for g, pairs in constraint_grid():
            every = [lam for lam, _, _ in enumerate_partitions(g)]
            for lefts, rights in pairs:
                kept = [lam for lam in every
                        if (lefts is None or lam.left_endpoints() <= lefts)
                        and (rights is None
                             or lam.right_endpoints() <= rights)]
                for m in caps(g):
                    got = [lam for lam, _, _
                           in enumerate_partitions(g, m, lefts, rights)]
                    assert len(got) == len(set(got))
                    assert set(got) == {lam for lam in kept
                                        if m is None or len(lam) <= m}
                    for lam in got:
                        checked = SetPartition(g, lam.arcs)
                        assert lam == checked
                        assert hash(lam) == hash(checked)

    def test_nest_and_skeleton(self):
        # on the grid above, each yield carries nst(lam, lam), and a
        # skeleton that every scan of the ground gives exactly the
        # partitions with the same L(lam) and R(lam)
        for g, pairs in constraint_grid():
            skeletons = {}      # (L, R) -> skeleton
            for lefts, rights in pairs:
                for m in caps(g):
                    for lam, nest, skeleton in enumerate_partitions(
                            g, m, lefts, rights):
                        assert nest == nst(lam, lam)
                        ends = (lam.left_endpoints(), lam.right_endpoints())
                        assert skeletons.setdefault(ends, skeleton) \
                            == skeleton
            assert len(set(skeletons.values())) == len(skeletons)

    def test_endpoint_constraints_keep_the_budget(self):
        # the budget counts the unconstrained scan: Bell(11) is over it even
        # when no point may close an arc
        with pytest.raises(EnumerationBoundExceeded):
            next(enumerate_partitions(GroundSet.range(11), None, None, ()))


@settings(max_examples=200)
@given(st.integers(2, 9), st.data())
def test_random_arc_sets_validated(n, data):
    # constructor must reject duplicate-endpoint arc sets and accept others
    g = GroundSet.range(n)
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    arcs = data.draw(st.lists(st.sampled_from(pairs), max_size=6))
    lefts = [a[0] for a in set(arcs)]
    rights = [a[1] for a in set(arcs)]
    ok = len(set(lefts)) == len(lefts) and len(set(rights)) == len(rights)
    if ok:
        SetPartition(g, set(arcs))
    else:
        with pytest.raises(DistinctEndpointViolation):
            SetPartition(g, set(arcs))


@settings(max_examples=150)
@given(st.integers(2, 9), st.integers(0, 10 ** 9))
def test_random_partition_properties(n, seed):
    rng = random.Random(seed)
    g = GroundSet.range(n)
    # random partition via random restricted growth string
    s = [0]
    for _ in range(n - 1):
        s.append(rng.randint(0, max(s) + 1))
    blocks = {}
    for x, v in zip(g, s):
        blocks.setdefault(v, []).append(x)
    lam = from_blocks(g, blocks.values())
    u = lam.uncross()
    assert crs(u) == 0 and u.uncross() == u
    assert u.left_endpoints() == lam.left_endpoints()
    assert u.right_endpoints() == lam.right_endpoints()
    d = lam.dagger()
    assert d.dagger() == lam
    assert crs(d) == crs(lam)
