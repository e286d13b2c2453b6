from math import comb

import pytest

from utrestrict.qcalc import QPoly, ZERO, ONE
from utrestrict.setpart import GroundSet, parse_partition, enumerate_partitions
from utrestrict.nestposet import block_poset, poset_binom, poset_multinom

from conftest import closure_block_poset, crs, subset_sum


def from_weights(*ws):
    """Entries with the given block weights on the points 1, 2, ..."""
    return tuple((i, i, w) for i, w in enumerate(ws, 1))


def chain(n):
    return from_weights(*range(n - 1, -1, -1))


class TestBlockPoset:
    def test_running_example(self, nesting_above):
        lam = parse_partition("1-7 2-4 4-5", GroundSet.range(7))
        P = block_poset(lam)
        assert len(P) == 4
        above = nesting_above(lam)
        assert (2, 5) in above[(3, 3)]
        assert (1, 7) in above[(2, 5)]
        assert (1, 7) in above[(3, 3)]
        assert (1, 7) in above[(6, 6)]
        assert (2, 5) not in above[(6, 6)]
        assert P == ((1, 7, 0), (2, 5, 1), (3, 3, 2), (6, 6, 1))

    def test_empty_partition_antichain(self):
        lam = parse_partition("", GroundSet.range(4))
        P = block_poset(lam)
        assert len(P) == 4 and all(w == 0 for _, _, w in P)

    def test_single_nesting_chain(self):
        lam = parse_partition("1-4 2-3", GroundSet.range(4))
        assert block_poset(lam) == ((1, 4, 0), (2, 3, 1))

    def test_crossing_input_reads_its_uncrossing(self):
        # 1-3 2-4 uncrosses to 1-4 2-3
        lam = parse_partition("1-3 2-4", GroundSet.range(4))
        assert block_poset(lam) == ((1, 4, 0), (2, 3, 1))
        # every partition with n <= 7: the one stack scan equals the
        # transitive-closure construction on the uncrossed partition
        count = 0
        for n in range(1, 8):
            for lam, _, _ in enumerate_partitions(GroundSet.range(n)):
                u = lam.uncross()
                assert block_poset(lam) == block_poset(u) \
                    == closure_block_poset(u), lam
                count += 1
        assert count == 1155

    def test_always_pointed_forest(self, nesting_above):
        # every noncrossing partition with n <= 8, against the brute-force
        # nesting order
        count = 0
        shapes = set()
        for n in range(1, 9):
            for lam, _, _ in enumerate_partitions(GroundSet.range(n)):
                if crs(lam):
                    continue
                count += 1
                above = nesting_above(lam)
                for ups in above.values():
                    # nesting is transitive, and the blocks above any block
                    # form a chain: each connected component has one top
                    assert all(above[c] <= ups for c in ups)
                    ups = sorted(ups, key=lambda c: len(above[c]))
                    assert all(x in above[y] for x, y in zip(ups, ups[1:]))
                P = block_poset(lam)
                assert {(lo, hi): w for lo, hi, w in P} == \
                    {b: len(ups) for b, ups in above.items()}
                shapes.add(tuple(sorted(w for _, _, w in P)))
        assert count == 2055
        assert len(shapes) >= 5  # spot check: several distinct forest shapes

    def test_endpoint_payload(self):
        lam = parse_partition("1-7 2-4 4-5", GroundSet.range(7))
        P = block_poset(lam)
        # bl_R(K) and bl_L(K) are the entries with max / min in K
        assert [b for b in P if b[1] in {5, 6}] == [(2, 5, 1), (6, 6, 1)]
        assert [b for b in P if b[0] in {1, 3}] == [(1, 7, 0), (3, 3, 2)]


class TestPosetBinom:
    def test_antichain(self):
        for n in range(6):
            P = from_weights(*[0] * n)
            for k in range(n + 1):
                assert poset_binom(P, k) == QPoly.const(comb(n, k))

    def test_chain(self):
        # the chain of n blocks has the weights 0..n-1
        for n in range(7):
            P = chain(n)
            for k in range(n + 1):
                assert poset_binom(P, k) == subset_sum(range(n), k)

    def test_one_top_over_minima(self):
        # n-th element above n-1 incomparable minima
        for n in range(2, 7):
            P = from_weights(*[1] * (n - 1), 0)
            for k in range(1, n + 1):
                expect = QPoly.q_pow(k - 1, comb(n - 1, k - 1)) + \
                    QPoly.q_pow(k, comb(n - 1, k))
                assert poset_binom(P, k) == expect

    def test_one_bottom_under_maxima(self):
        for n in range(2, 7):
            P = from_weights(n - 1, *[0] * (n - 1))
            for k in range(1, n + 1):
                expect = QPoly.q_pow(n - 1, comb(n - 1, k - 1)) + \
                    QPoly.const(comb(n - 1, k))
                assert poset_binom(P, k) == expect

    def test_out_of_range(self):
        P = chain(3)
        assert poset_binom(P, 4) == ZERO
        assert poset_binom(P, -1) == ZERO

    def test_sum_at_q1(self):
        for n in range(1, 6):
            for lam, _, _ in enumerate_partitions(GroundSet.range(n)):
                P = block_poset(lam)
                total = sum(poset_binom(P, k)(1) for k in range(len(P) + 1))
                assert total == 2 ** len(P)


def below(above, a):
    """(min, max) of the blocks strictly below the entry a."""
    return {b for b, ups in above.items() if a[:2] in ups}


class TestRecursions:
    @staticmethod
    def all_posets(max_n, nesting_above):
        for n in range(1, max_n + 1):
            for lam, _, _ in enumerate_partitions(GroundSet.range(n)):
                u = lam.uncross()
                yield block_poset(u), nesting_above(u)

    def test_minimal_element_recursion(self, nesting_above):
        for P, above in self.all_posets(6, nesting_above):
            for a in P:
                if below(above, a):
                    continue
                Pp = tuple(b for b in P if b != a)
                for k in range(len(P) + 2):
                    assert poset_binom(P, k) == \
                        poset_binom(Pp, k - 1).shift(a[2]) + poset_binom(Pp, k)

    def test_general_element_recursion(self, nesting_above):
        for P, above in self.all_posets(6, nesting_above):
            for a in P:
                under = below(above, a)
                # without a, every block below it has one block fewer above
                Pp = tuple((lo, hi, w - ((lo, hi) in under))
                           for lo, hi, w in P if (lo, hi, w) != a)
                pool = frozenset(b for b in Pp if b[:2] in under)
                rest = frozenset(Pp) - pool
                for k in range(len(P) + 1):
                    total = ZERO
                    for j in range(k + 1):
                        with_a = poset_multinom(
                            Pp, [(j, pool), (k - j - 1, rest)])
                        without = poset_multinom(
                            Pp, [(j, pool), (k - j, rest)])
                        total = total + \
                            (with_a.shift(a[2]) + without).shift(j)
                    assert total == poset_binom(P, k)

    def test_reverse_coefficient_duality(self, nesting_above):
        for P, _ in self.all_posets(6, nesting_above):
            n = len(P)
            top = sum(w for _, _, w in P)
            for k in range(n + 1):
                a = list(poset_binom(P, k).coeffs)
                b = list(poset_binom(P, n - k).coeffs)
                a += [0] * (top + 1 - len(a))
                b += [0] * (top + 1 - len(b))
                assert a == b[::-1]


class TestMultinom:
    def test_single_constraint(self):
        P = chain(4)
        for k in range(5):
            assert poset_multinom(P, [(k, P)]) == poset_binom(P, k)
            # a zero count on an empty pool is a factor of one
            assert poset_multinom(P, [(k, P), (0, ())]) == poset_binom(P, k)

    def test_symmetry(self):
        lam = parse_partition("1-7 2-4 4-5", GroundSet.range(7))
        P = block_poset(lam)
        n = len(P)
        A = frozenset(P[:2])
        B = frozenset(P[2:])
        for k in range(n + 1):
            left = poset_multinom(P, [(k, A), (n - k, B)])
            right = poset_multinom(P, [(n - k, B), (k, A)])
            assert left == right
        # A and B split P, so the pool sums add up to the binomial
        for j in range(n + 1):
            assert sum((poset_multinom(P, [(k, A), (j - k, B)])
                        for k in range(j + 1)), ZERO) == poset_binom(P, j)

    def test_zero_ks(self):
        P = chain(3)
        assert poset_multinom(
            P, [(0, frozenset(P[:1])), (0, frozenset(P[1:]))]) == ONE

    def test_overlap_rejected(self):
        P = chain(3)
        with pytest.raises(ValueError):
            poset_multinom(P, [(1, frozenset(P[:2])), (1, frozenset(P[1:]))])
