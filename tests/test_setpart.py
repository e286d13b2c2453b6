import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from utrestrict.setpart import (
    GroundSet, SetPartition, ArcMultiset, RegionSplit,
    DistinctEndpointViolation, GroundViolation, EnumerationBoundExceeded,
    parse_partition, nst, nst_points, wt_up, region_counts,
    enumerate_partitions, count_scan, from_blocks, bell,
)
from utrestrict.nestposet import block_poset, depth_vector

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
        # consecutive labels from 1, regions of the asked sizes, and an
        # anchor collapse exactly at an empty outer region
        for a, b, c in itertools.product(range(4), repeat=3):
            if a + b + c == 0:
                continue
            s = RegionSplit.from_sizes(a, b, c)
            assert list(s.ambient) == list(range(1, s.n_pp + 1))
            assert (len(s.n_lt), len(s.n_eq), len(s.n_gt)) == (a, b, c)
            assert s.n_mm == 1
            assert (s.n_m == s.n_mm, s.n_p == s.n_pp) == (a == 0, c == 0)


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


def rule_grid():
    """(split, [(cap, bounds)]): every split with a + b + c <= 7, under
    peel's region rule for each (b, f) (exactly b arcs from N_< to N_>, none
    inside N_=, at most f arcs) and double rainbow's for each m, ell <= 3 (at
    most m arcs outside N_=, at most m + ell arcs)."""
    for n in range(1, 8):
        for a, b in itertools.product(range(n + 1), repeat=2):
            c = n - a - b
            if c < 0:
                continue
            rules = [(f, {"<>": (bb, bb), "==": (0, 0)})
                     for bb in range(min(a, c) + 1)
                     for f in range(bb, a + c + 1)]
            rules += [(m + ell, {"<< <= <> => >>": (0, m)})
                      for m, ell in itertools.product(range(4), repeat=2)]
            yield RegionSplit.from_sizes(a, b, c), rules


def depth_mismatches(depth):
    """The partitions whose skeleton's depth(skeleton, n) is not the sorted
    block weights of block_poset: every partition of [n] for n <= 7, and
    every yield of the scans of constraint_grid under each arc cap."""
    scans = [(GroundSet.range(n), [(None, None)]) for n in range(1, 8)]
    out = []
    for g, pairs in itertools.chain(scans, constraint_grid()):
        for lefts, rights in pairs:
            for m in caps(g):
                for lam, _, skeleton in enumerate_partitions(g, m, lefts,
                                                             rights):
                    weights = tuple(sorted(b[2] for b in block_poset(lam)))
                    if depth(skeleton, len(g)) != weights:
                        out.append(lam)
    return out


def obeys(counts, bounds):
    """Whether region counts lie within bounds, as a region rule reads
    them."""
    return all(lo <= sum(counts[cls] for cls in classes.split()) <= hi
               for classes, (lo, hi) in bounds.items())


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
        # the work per partition grows with the ground: 128 points is the
        # most, even for the one partition with no arc
        assert [p.arcs for p, _, _
                in enumerate_partitions(GroundSet.range(128), 0)] \
            == [frozenset()]
        assert sum(1 for _ in enumerate_partitions(GroundSet.range(128),
                                                   1)) == 1 + 128 * 127 // 2
        with pytest.raises(EnumerationBoundExceeded):
            next(enumerate_partitions(GroundSet.range(129), 0))

    def test_scan_does_not_recurse_per_point(self, run_python):
        # the scan steps through the points in one loop, so 128 points fit
        # in a stack far shallower than the ground
        proc = run_python("-c", "\n".join([
            "import sys",
            "from utrestrict.setpart import GroundSet, enumerate_partitions",
            "sys.setrecursionlimit(60)",
            "print(sum(1 for _ in enumerate_partitions("
            "GroundSet.range(128), 1)))"]))
        assert (proc.returncode, proc.stdout, proc.stderr) == \
            (0, "8129\n", "")

    def test_scan_memory_does_not_grow_with_the_output(self):
        # the scan keeps one stack of partial states, not a level of them:
        # listing the 4,140 partitions of [8] without keeping them stays
        # far below what one state per partition would take
        g = GroundSet.range(8)
        tracemalloc.start()
        try:
            for _ in enumerate_partitions(g):
                pass
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024

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

    def test_depth_vector_is_the_block_weights(self):
        # the depth vector read off each yielded skeleton is the sorted
        # block weights of block_poset, on every partition of [n], n <= 7,
        # and every capped scan of constraint_grid (a capped scan may stop
        # early, leaving the last points out of the skeleton)
        assert depth_mismatches(depth_vector) == []

    def test_depth_vector_check_catches_a_late_depth(self):
        # negative control: a depth counted after the point opens its arc
        def late(skeleton, n):
            weights, depth = [], 0
            for _ in range(n):
                depth += skeleton & 1
                if skeleton & 2:
                    depth -= 1
                else:
                    weights.append(depth)
                skeleton >>= 2
            return tuple(sorted(weights))

        assert depth_mismatches(late)

    def test_budget_counts_the_constrained_scan(self):
        # the budget counts what the scan yields: Bell(11) is over it, but
        # when no point may close an arc the scan of 11 points yields the
        # one partition with no arc
        g = GroundSet.range(11)
        assert count_scan(g) is None
        with pytest.raises(EnumerationBoundExceeded):
            next(enumerate_partitions(g))
        assert count_scan(g, None, None, ()) == 1
        assert [lam.arcs for lam, _, _
                in enumerate_partitions(g, None, None, ())] == [frozenset()]
        # peel's rule on the split 4,4,4 with b = 2, f = 4 keeps 13,992
        # of the partitions of its 12 points with at most 4 arcs: more than
        # the budget
        split = RegionSplit.from_sizes(4, 4, 4)
        assert count_scan(split.inner, 4) is None
        assert count_scan(split.inner, 4, rule=(
            split.region, {"<>": (2, 2), "==": (0, 0)})) == 13992

    def test_count_scan_is_the_yield_count(self):
        for g, pairs in constraint_grid():
            for lefts, rights in pairs:
                for m in caps(g):
                    assert count_scan(g, m, lefts, rights) == sum(
                        1 for _ in enumerate_partitions(g, m, lefts, rights))

    def test_region_rule(self):
        # on every split and rule of rule_grid, the scan under the rule
        # yields exactly the partitions of the capped scan whose region
        # counts obey the rule, each once, with the same nest and skeleton;
        # and count_scan counts them
        kept = dropped = short = 0
        for split, rules in rule_grid():
            # the partitions by arc count and region counts
            groups = {}
            for lam, nest, skeleton in enumerate_partitions(split.inner):
                counts = region_counts(lam, split)
                key = len(lam), frozenset(counts.items())
                groups.setdefault(key, (len(lam), counts, {}))[2][lam] = \
                    nest, skeleton
            for cap, bounds in rules:
                want = {}
                for size, counts, lams in groups.values():
                    if size > cap:
                        continue
                    if obeys(counts, bounds):
                        want.update(lams)
                        continue
                    dropped += len(lams)
                    # obeys every bound but a lower end
                    short += len(lams) * obeys(counts, {
                        classes: (0, hi) for classes, (_, hi)
                        in bounds.items()})
                rule = (split.region, bounds)
                got = [(lam, (nest, skeleton)) for lam, nest, skeleton
                       in enumerate_partitions(split.inner, cap, rule=rule)]
                assert len(got) == len(want) \
                    == count_scan(split.inner, cap, rule=rule)
                assert dict(got) == want
                kept += len(got)
        # the rules drop partitions, some of them by a lower end only
        assert (kept, dropped, short) == (284009, 284937, 58368)


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
