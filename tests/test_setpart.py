import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from utrestrict.setpart import (
    GroundSet, SetPartition, ArcMultiset, RegionSplit,
    DistinctEndpointViolation, GroundViolation, EnumerationBoundExceeded,
    parse_partition, nst, nst_points, wt_up,
    enumerate_partitions, from_blocks, depth_vector, MAX_PARTITIONS,
)
from utrestrict.nestposet import block_poset

from conftest import bell, blocks, crs, region_sizes

N6 = GroundSet.range(6)
RUNNING_LAM = parse_partition("1-5 2-4 4-6", N6)


class TestParsing:
    def test_running_example(self):
        assert RUNNING_LAM.arcs == ((1, 5), (2, 4), (4, 6))

    def test_empty(self):
        assert parse_partition("", GroundSet.range(3)).arcs == ()

    def test_duplicate_right(self):
        with pytest.raises(DistinctEndpointViolation):
            parse_partition("1-4 2-4", GroundSet.range(4))

    def test_duplicate_left(self):
        with pytest.raises(DistinctEndpointViolation):
            parse_partition("1-3 1-4", GroundSet.range(4))

    def test_repeated_arc(self):
        # a repeated arc repeats both its endpoints: refused, not kept once
        with pytest.raises(DistinctEndpointViolation,
                           match=r"in \[\(1, 3\), \(1, 3\)\]$"):
            parse_partition("1-3 1-3", GroundSet.range(4))
        with pytest.raises(DistinctEndpointViolation):
            SetPartition(N6, [(2, 5), (1, 6), (2, 5)])

    def test_outside_ground(self):
        with pytest.raises(GroundViolation):
            parse_partition("1-7", N6)

    def test_ground_in_equality_not_hash(self):
        # the hash reads the arcs alone, equality the ground too: one arc
        # set on two grounds is two keys
        a = parse_partition("1-2", GroundSet.range(3))
        b = parse_partition("1-2", GroundSet.range(4))
        assert hash(a) == hash(b) and a != b
        assert len({a: 0, b: 1}) == 2

    def test_multiset_allows_repeats(self):
        m = ArcMultiset(N6, [(2, 5), (1, 6), (1, 6)])
        assert m.arcs == ((1, 6), (1, 6), (2, 5))

    @pytest.mark.parametrize("arcs", [[(1.9, 3), (2, 4.7)], [("1", "3")],
                                      [(2.0, 3)], [(1, 3), ("2", 4)]])
    def test_arc_ends_are_ints(self, arcs):
        # an end is kept as given, never truncated or read from text; the
        # mixed ends are refused before a sort could raise TypeError
        with pytest.raises(ValueError, match="must be integers"):
            SetPartition(GroundSet.range(4), arcs)
        with pytest.raises(ValueError, match="must be integers"):
            ArcMultiset(GroundSet.range(4), arcs)


class TestCanonicalArcs:
    def test_any_order_gives_the_scan_tuple(self):
        # the arcs in reversed or shuffled order build the scan's yield of
        # the same partition: its sorted tuple, equal and with equal hash;
        # on every partition of [n], n <= 6, and of a ground with gaps
        rng = random.Random(7)
        for g in [GroundSet.range(n) for n in range(7)] + \
                [GroundSet((2, 3, 5, 8, 9))]:
            for lam, _, _ in enumerate_partitions(g):
                shuffled = list(lam.arcs)
                rng.shuffle(shuffled)
                for arcs in (lam.arcs[::-1], shuffled):
                    built = SetPartition(g, arcs)
                    assert type(built.arcs) is tuple
                    assert built.arcs == tuple(sorted(arcs)) == lam.arcs
                    assert built == lam and hash(built) == hash(lam)

    def test_multiset_any_order_gives_one_tuple(self):
        # the same for arc multisets, with the first arc of each partition
        # repeated: the repeat stays, and every order builds one sorted
        # tuple, equal and with equal hash
        rng = random.Random(7)
        for g in [GroundSet.range(n) for n in range(2, 7)] + \
                [GroundSet((2, 3, 5, 8, 9))]:
            for lam, _, _ in enumerate_partitions(g):
                arcs = list(lam.arcs + lam.arcs[:1])
                want = ArcMultiset(g, arcs)
                assert want.arcs == tuple(sorted(arcs))
                assert len(want) == len(arcs)
                rng.shuffle(arcs)
                for order in (arcs, arcs[::-1]):
                    built = ArcMultiset(g, order)
                    assert type(built.arcs) is tuple
                    assert built.arcs == want.arcs
                    assert built == want and hash(built) == hash(want)

    def test_partition_is_a_multiset_yet_never_equals_one(self):
        # a set partition is an arc multiset, but equality stays
        # class-exact in both orders, and each repr names its own class
        lam = SetPartition(N6, [(2, 4), (1, 5)])
        m = ArcMultiset(N6, [(2, 4), (1, 5)])
        assert isinstance(lam, ArcMultiset)
        assert not isinstance(m, SetPartition)
        assert lam.arcs == m.arcs and hash(lam) == hash(m)
        assert lam != m and m != lam
        assert not (lam == m) and not (m == lam)
        assert len({lam: 0, m: 1}) == 2
        assert repr(lam) == "SetPartition((1, 2, 3, 4, 5, 6), " \
            "[(1, 5), (2, 4)])"
        assert repr(m) == "ArcMultiset((1, 2, 3, 4, 5, 6), [(1, 5), (2, 4)])"

    def test_label_reads_the_tuple(self):
        lam = SetPartition(N6, [(4, 6), (2, 4), (1, 5)])
        assert lam.label() == "1-5 2-4 4-6" == RUNNING_LAM.label()
        assert repr(lam) == "SetPartition((1, 2, 3, 4, 5, 6), " \
            "[(1, 5), (2, 4), (4, 6)])"


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
        assert RUNNING_LAM.dagger().arcs == ((1, 3), (2, 6), (3, 5))

    def test_empty(self):
        g = GroundSet.range(3)
        lam = parse_partition("", g)
        assert lam.dagger() == lam

    def test_involution(self):
        assert RUNNING_LAM.dagger().dagger() == RUNNING_LAM

    def test_nonconsecutive_ground(self):
        g = GroundSet((2, 3, 5, 7))
        lam = parse_partition("2-5 3-7", g)
        assert lam.dagger().arcs == ((2, 5), (3, 7))  # w0 swaps 2<->7, 3<->5


class TestUncross:
    def test_running_example(self):
        g = GroundSet.range(6)
        lam = parse_partition("1-4 2-5 4-6", g)
        assert lam.uncross().arcs == ((1, 6), (2, 4), (4, 5))

    def test_fixed_point_on_noncrossing(self):
        for lam, _, _ in enumerate_partitions(GroundSet.range(5)):
            if crs(lam) == 0:
                assert lam.uncross() == lam

    def test_single_crossing(self):
        lam = parse_partition("1-3 2-4", GroundSet.range(4))
        assert lam.uncross().arcs == ((1, 4), (2, 3))

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
        return RegionSplit.from_sizes(1, 2, 1)

    def test_regions(self):
        s = self.split()
        assert list(s.n_lt) == [2]
        assert [x for x in s.inner if s.region[x] == "="] == [4, 5]
        assert list(s.n_gt) == [7]
        # the restriction ground N excludes all four anchors
        assert list(s.inner) == [2, 4, 5, 7]

    def test_region_select(self):
        s = self.split()
        gam = parse_partition("2-7 4-5", s.ambient)
        # one arc from N_< to N_>, one inside N_=, none elsewhere
        assert s.region_counts(gam) == {"<>": 1, "==": 1}

    def test_gamma_eq_empty(self):
        s = self.split()
        gam = parse_partition("2-7", s.ambient)
        counts = s.region_counts(gam)
        assert counts["=="] == 0
        assert counts == {"<>": 1}

    def test_from_sizes(self):
        s = RegionSplit.from_sizes(1, 2, 1)
        assert (s.n_mm, s.n_m, s.n_p, s.n_pp) == (1, 3, 6, 8)
        c = RegionSplit.from_sizes(0, 1, 0)
        assert c.n_mm == c.n_m and c.n_p == c.n_pp
        assert c.region == {2: "="}
        # consecutive labels from 1, regions of the asked sizes, and an
        # anchor collapse exactly at an empty outer region
        for a, b, c in itertools.product(range(4), repeat=3):
            if a + b + c == 0:
                continue
            s = RegionSplit.from_sizes(a, b, c)
            assert list(s.ambient) == list(range(1, s.n_pp + 1))
            assert region_sizes(s) == (a, b, c)
            assert (len(s.n_lt), len(s.n_gt)) == (a, c)
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


def endpoint_weight(lefts, rights):
    """The scan weight that allows the arcs with left end in lefts and right
    end in rights (None: anywhere), at weight 0; None when both are None."""
    if lefts is None and rights is None:
        return None

    def weight(i, j):
        if (lefts is None or i in lefts) and (rights is None or j in rights):
            return 0
        return None

    return weight


def caps(g):
    """Every arc cap of a scan of g: none, and -1 to |g|."""
    return [None, *range(-1, len(g) + 1)]


def region_weight(split, forbidden, counted):
    """The scan weight of a region rule: None on the arcs whose class (the
    region tags of its two ends, e.g. "<>") is in forbidden, 1 on those in
    counted, 0 on the rest."""
    region = split.region

    def weight(i, j):
        arc = region[i] + region[j]
        return None if arc in forbidden else int(arc in counted)

    return weight


def rule_grid():
    """(split, [(cap, rule)]): every split with a + b + c <= 7, under
    peel's region rule for each (b, f) (exactly b arcs from N_< to N_>, none
    inside N_=, at most f arcs) and double rainbow's for each m, ell <= 3 (at
    most m arcs outside N_=, at most m + ell arcs).  A rule is (forbidden
    classes, counted classes, (lo, hi))."""
    outside = {"<<", "<=", "<>", "=>", ">>"}
    for n in range(1, 8):
        for a, b in itertools.product(range(n + 1), repeat=2):
            c = n - a - b
            if c < 0:
                continue
            rules = [(f, ({"=="}, {"<>"}, (bb, bb)))
                     for bb in range(min(a, c) + 1)
                     for f in range(bb, a + c + 1)]
            rules += [(m + ell, (set(), outside, (0, m)))
                      for m, ell in itertools.product(range(4), repeat=2)]
            yield RegionSplit.from_sizes(a, b, c), rules


def lower_end_rules():
    """(split, cap, rule) with a lower end above 0, on every split with
    a + b + c <= 6: peel's rule for each b >= 1 and f, and rules that count
    one, two or three classes."""
    for n in range(1, 7):
        for a, b in itertools.product(range(n + 1), repeat=2):
            c = n - a - b
            if c < 0:
                continue
            split = RegionSplit.from_sizes(a, b, c)
            for bb in range(1, min(a, c) + 1):
                for f in range(bb, a + c + 1):
                    yield split, f, ({"=="}, {"<>"}, (bb, bb))
            for cap in (None, 2, 3):
                for counted, bound in [({"<>"}, (1, 2)),
                                       ({"<=", "=>"}, (1, 3)),
                                       ({"<<", "<=", "<>"}, (2, 3)),
                                       ({"<>", ">>"}, (1, 1))]:
                    yield split, cap, (set(), counted, bound)


def ruled_scan(split, cap, rule):
    """The scan of split's inner ground under a region rule."""
    forbidden, counted, bound = rule
    return enumerate_partitions(
        split.inner, cap, region_weight(split, forbidden, counted), bound)


def arc_scan(g, cap, weight, bound, slack=0, squeeze=0):
    """The arc sets that a plain copy of enumerate_partitions' arc-by-arc
    scan yields under weight and bound = (lo, hi), in its order.  A state
    is dropped when lo is above 0 and its weight sum, with the arcs it may
    still gain (at most its spare arcs, and one per later left endpoint
    with an allowed arc of weight 1), falls short of lo + slack; a child is
    dropped when its sum passes hi - squeeze.  slack and squeeze 0 are the
    scan's own prunes."""
    lo, hi = bound
    cap = len(g) if cap is None else cap
    allowed = [(arc, w) for arc in itertools.combinations(g, 2)
               for w in [weight(*arc)] if w is not None]

    def walk(arcs, count):
        later = [(arc, w) for arc, w in allowed
                 if not arcs or arc[0] > arcs[-1][0]]
        spare = cap - len(arcs)
        fresh = len({arc[0] for arc, w in later if w})
        if lo > 0 and count + min(spare, fresh) < lo + slack:
            return
        if count >= lo:
            yield arcs
        used = {j for _, j in arcs}
        for arc, w in later if spare > 0 else ():
            if arc[1] not in used and count + w <= hi - squeeze:
                yield from walk(arcs + (arc,), count + w)

    return list(walk((), 0))


def depth_mismatches(depth):
    """The partitions whose skeleton's depth(skeleton, n) is not the sorted
    block weights of block_poset: every partition of [n] for n <= 7, and
    every yield of the scans of constraint_grid under each arc cap."""
    scans = [(GroundSet.range(n), [(None, None)]) for n in range(1, 8)]
    out = []
    for g, pairs in itertools.chain(scans, constraint_grid()):
        for lefts, rights in pairs:
            weight = endpoint_weight(lefts, rights)
            for m in caps(g):
                for lam, _, skeleton in enumerate_partitions(g, m, weight):
                    weights = tuple(sorted(b[2] for b in block_poset(lam)))
                    if depth(skeleton, len(g)) != weights:
                        out.append(lam)
    return out


def counted_shift(split, counts, counted):
    """What a region rule's weight sum adds to a skeleton of split's inner
    ground: the arcs in the counted classes, times 4^n."""
    return sum(counts[cls] for cls in counted) << 2 * len(split.inner)


def obeys(counts, rule):
    """Whether region counts obey a region rule: no arc in a forbidden
    class, and between lo and hi arcs in the counted classes."""
    forbidden, counted, (lo, hi) = rule
    return (not any(counts[cls] for cls in forbidden)
            and lo <= sum(counts[cls] for cls in counted) <= hi)


class TestEnumeration:
    def test_bell_counts(self):
        for n in range(1, 7):
            parts = [lam for lam, _, _
                     in enumerate_partitions(GroundSet.range(n))]
            assert len(parts) == bell(n)
            assert len(set(parts)) == len(parts)

    def test_n1(self):
        assert [p.arcs for p, _, _
                in enumerate_partitions(GroundSet.range(1))] == [()]

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
                in enumerate_partitions(GroundSet.range(128), 0)] == [()]
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
                        want.add(arcs)
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
        # the scan whose weight allows the arcs from lefts to rights yields
        # exactly the partitions of the full scan whose left endpoints lie
        # in lefts and right endpoints in rights (None: anywhere), under
        # every arc cap, each once, and each
        # equal to the validated partition on the same arcs, on every
        # ground and constraint pair of constraint_grid
        for g, pairs in constraint_grid():
            every = [lam for lam, _, _ in enumerate_partitions(g)]
            for lefts, rights in pairs:
                kept = [lam for lam in every
                        if (lefts is None or lam.left_endpoints() <= lefts)
                        and (rights is None
                             or lam.right_endpoints() <= rights)]
                weight = endpoint_weight(lefts, rights)
                for m in caps(g):
                    got = [lam for lam, _, _
                           in enumerate_partitions(g, m, weight)]
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
                weight = endpoint_weight(lefts, rights)
                for m in caps(g):
                    for lam, nest, skeleton in enumerate_partitions(
                            g, m, weight):
                        assert nest == nst(lam, lam)
                        ends = (lam.left_endpoints(), lam.right_endpoints())
                        assert skeletons.setdefault(ends, skeleton) \
                            == skeleton
            assert len(set(skeletons.values())) == len(skeletons)

    def test_skeleton_is_ends_and_weight_sum(self):
        # two yields of one scan share a skeleton exactly when they share
        # L(lam), R(lam) and the weight sum of their arcs: on every scan of
        # constraint_grid under each arc cap (all weights 0), and under
        # every rule of rule_grid (weight sum: the arcs in the counted
        # classes)
        scans = [(g, m, endpoint_weight(*pair), None)
                 for g, pairs in constraint_grid() for pair in pairs
                 for m in caps(g)]
        scans += [(split.inner, cap, region_weight(split, *rule[:2]),
                   rule[2])
                  for split, rules in rule_grid() for cap, rule in rules]
        sums = set()
        for g, m, weight, bound in scans:
            keys = {}       # skeleton -> (L, R, weight sum)
            for lam, _, skeleton in enumerate_partitions(g, m, weight, bound):
                total = sum(weight(i, j) for i, j in lam.arcs) if weight \
                    else 0
                key = lam.left_endpoints(), lam.right_endpoints(), total
                assert keys.setdefault(skeleton, key) == key
                sums.add(total)
            assert len(set(keys.values())) == len(keys)
        # not vacuous: the rules reach weight sums past 1
        assert sums == {0, 1, 2, 3}

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
        # when the weight forbids every arc the scan of 11 points yields the
        # one partition with no arc
        g = GroundSet.range(11)
        with pytest.raises(EnumerationBoundExceeded):
            next(enumerate_partitions(g))
        assert [lam.arcs for lam, _, _
                in enumerate_partitions(g, None, lambda i, j: None)] == [()]
        # peel's rule on the split 4,4,4 with b = 2, f = 4 keeps 13,992
        # of the partitions of its 12 points with at most 4 arcs: more than
        # the budget
        split = RegionSplit.from_sizes(4, 4, 4)
        with pytest.raises(EnumerationBoundExceeded):
            next(enumerate_partitions(split.inner, 4))
        assert sum(1 for _ in ruled_scan(
            split, 4, ({"=="}, {"<>"}, (2, 2)))) == 13992
        # the budget counts yields, not partial states: peel's rule on the
        # split 5,9,1 with b = 1, f = 5 keeps 64,591 partitions of its 15
        # points, though a left-to-right point sweep holds more partial
        # states than the budget at some point
        split = RegionSplit.from_sizes(5, 9, 1)
        assert sum(1 for _ in ruled_scan(
            split, 5, ({"=="}, {"<>"}, (1, 1)))) == 64591

    def test_budget_edge(self):
        # with no arc ending at the top point, the scan of 11 points yields
        # the Bell(10) partitions of the rest: exactly the budget, so it
        # runs, each partition once
        g = GroundSet.range(11)
        got = [lam for lam, _, _ in enumerate_partitions(
            g, None, lambda i, j: None if j == 11 else 0)]
        assert len(got) == len(set(got)) == MAX_PARTITIONS == bell(10)

    def test_region_rule(self):
        # on every split and rule of rule_grid, the scan under the rule
        # yields exactly the partitions of the capped scan whose region
        # counts obey the rule, each once, with the same nest, and the
        # skeleton of the unruled scan (weight sum 0) plus the rule's
        # weight sum times 4^n
        kept = dropped = short = 0
        for split, rules in rule_grid():
            # the partitions by arc count and region counts
            groups = {}
            for lam, nest, skeleton in enumerate_partitions(split.inner):
                counts = split.region_counts(lam)
                key = len(lam), frozenset(counts.items())
                groups.setdefault(key, (len(lam), counts, {}))[2][lam] = \
                    nest, skeleton
            for cap, rule in rules:
                forbidden, counted, (_, hi) = rule
                want = {}
                for size, counts, lams in groups.values():
                    if size > cap:
                        continue
                    if obeys(counts, rule):
                        # the ruled skeleton adds the rule's weight sum
                        shift = counted_shift(split, counts, counted)
                        want.update((lam, (nest, skeleton + shift))
                                    for lam, (nest, skeleton) in lams.items())
                        continue
                    dropped += len(lams)
                    # obeys the rule but its lower end
                    short += len(lams) * obeys(counts,
                                               (forbidden, counted, (0, hi)))
                got = [(lam, (nest, skeleton)) for lam, nest, skeleton
                       in ruled_scan(split, cap, rule)]
                assert len(got) == len(want)
                assert dict(got) == want
                kept += len(got)
        # the rules drop partitions, some of them by a lower end only
        assert (kept, dropped, short) == (284009, 284937, 58368)


    def test_yields_in_sorted_arc_order(self):
        # each yield holds its arcs as a sorted tuple, and the yields come
        # in lexicographic order of those tuples: on every partition of
        # [n], n <= 8, and on every scan of constraint_grid under each arc
        # cap
        scans = [(GroundSet.range(n), [(None, None)]) for n in range(9)]
        for g, pairs in itertools.chain(scans, constraint_grid()):
            for lefts, rights in pairs:
                weight = endpoint_weight(lefts, rights)
                for m in caps(g):
                    got = [lam.arcs for lam, _, _
                           in enumerate_partitions(g, m, weight)]
                    assert all(arcs == tuple(sorted(arcs)) for arcs in got)
                    assert got == sorted(got)

    def test_ruled_scan_is_the_filtered_scan(self):
        # under rules with a lower end above 0, the ruled scan yields, in
        # order and with the same nest, exactly the capped unruled scan's
        # partitions that obey the rule, its skeleton shifted by the
        # rule's weight sum; and so does the plain copy of the scan in
        # arc_scan
        cases = 0
        for split, cap, rule in lower_end_rules():
            want = [(lam.arcs, nest,
                     skeleton + counted_shift(split, counts, rule[1]))
                    for lam, nest, skeleton
                    in enumerate_partitions(split.inner, cap)
                    for counts in [split.region_counts(lam)]
                    if obeys(counts, rule)]
            got = [(lam.arcs, nest, skeleton) for lam, nest, skeleton
                   in ruled_scan(split, cap, rule)]
            assert got == want
            assert arc_scan(split.inner, cap, region_weight(split, *rule[:2]),
                            rule[2]) == [a for a, _, _ in want]
            cases += bool(want)
        assert cases > 100

    @staticmethod
    def copy_misses_a_filtered_scan(**off):
        """Whether arc_scan, set off by `off`, differs from the ruled scan
        on some rule of lower_end_rules."""
        return any(
            arc_scan(split.inner, cap, region_weight(split, *rule[:2]),
                     rule[2], **off)
            != [lam.arcs for lam, _, _ in ruled_scan(split, cap, rule)]
            for split, cap, rule in lower_end_rules())

    def test_filtered_scan_check_catches_an_eager_prune(self):
        # negative control: a lower-end prune that wants one arc more than
        # the bound asks drops partitions that obey the rule
        assert self.copy_misses_a_filtered_scan(slack=1)

    def test_filtered_scan_check_catches_a_short_upper_end(self):
        # negative control: an upper-end check off by one (count + w < hi)
        # drops the partitions whose weight sum is exactly hi
        assert self.copy_misses_a_filtered_scan(squeeze=1)

    def test_lower_end_past_the_cap_yields_nothing(self):
        # no partition with at most cap arcs reaches a weight sum above cap
        g = GroundSet.range(6)
        for cap in range(4):
            assert list(enumerate_partitions(
                g, cap, lambda i, j: 1, (cap + 1, cap + 1))) == []
        assert list(enumerate_partitions(g, 3, lambda i, j: 1, (4, 9))) == []
        # at lo = cap the same scan yields exactly the partitions with cap
        # arcs
        assert {lam for lam, _, _ in enumerate_partitions(
            g, 3, lambda i, j: 1, (3, 9))} \
            == {lam for lam, _, _ in enumerate_partitions(g, 3)
                if len(lam) == 3}

    def test_weight_that_forbids_every_arc_yields_the_empty_partition(self):
        for n in range(6):
            for bound in (None, (0, 0), (0, 5)):
                assert [lam.arcs for lam, _, _ in enumerate_partitions(
                    GroundSet.range(n), None, lambda i, j: None, bound)] \
                    == [()]


@settings(max_examples=200)
@given(st.integers(2, 9), st.data())
def test_random_arc_sets_validated(n, data):
    # constructor must reject duplicate-endpoint arc lists, a repeated arc
    # among them, and accept others
    g = GroundSet.range(n)
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    drawn = data.draw(st.lists(st.sampled_from(pairs), max_size=6))
    for arcs in (set(drawn), drawn):
        lefts = [a[0] for a in arcs]
        rights = [a[1] for a in arcs]
        if len(set(lefts)) == len(lefts) and len(set(rights)) == len(rights):
            assert SetPartition(g, arcs).arcs == tuple(sorted(arcs))
        else:
            with pytest.raises(DistinctEndpointViolation):
                SetPartition(g, arcs)


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
