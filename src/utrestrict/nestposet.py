"""Block weights of the uncrossed partition and their poset q-binomials.

The blocks of a noncrossing partition are ordered by nesting, and the poset
q-binomial [P choose k]_q sums q^wt(A) over k-subsets A of the blocks, with
wt(A) the sum over a in A of the number of blocks strictly above a.  That
weight is additive, so [P choose k]_q is the elementary symmetric polynomial
e_k(q^wt(b) : b a block) and depends only on the block weights:
`poset_binom` and `poset_multinom` read the weights and leave the sum to
`qcalc.e_k`, the one q-binomial algorithm.

The engines read these weights on the uncrossing of a partition lam, which
depends only on L(lam) and R(lam).  Arcs of a noncrossing partition cannot
cross a block, so the blocks above b are those with an arc strictly over
min(b), one arc each: wt(b) is the number of arcs open at min(b).  So the
sorted weights are the scan's depth vector (`setpart.depth_vector`); the
engines that pool the blocks by the region of an end point build them with
`block_poset` and filter its entries.
"""

from .qcalc import ZERO, ONE, e_k


def block_poset(lam):
    """One (min, max, wt) entry per block of the uncrossing of lam, sorted
    by min.  bl_{R(K)} / bl_{L(K)} are the entries with max / min in K; wt
    is the number of blocks nesting over the block.

    One scan of the ground set: a right endpoint joins the block of the
    nearest open left endpoint (the matching of SetPartition.uncross), and
    any other point starts a block under the arcs open there."""
    L, R = lam.left_endpoints(), lam.right_endpoints()
    entries = []
    open_blocks = []    # block of each open left endpoint, nearest last
    for x in lam.ground:
        if x in R:
            b = open_blocks.pop()
            entries[b][1] = x
        else:
            b = len(entries)
            entries.append([x, x, len(open_blocks)])
        if x in L:
            open_blocks.append(b)
    return tuple(map(tuple, entries))


def poset_binom(P, k):
    """[P choose k]_q = sum over k-subsets A of q^{wt(A)}."""
    return e_k(tuple(sorted(b[2] for b in P)), k)


def poset_multinom(P, constraints):
    """Constrained multinomial: product over (k_j, pool_j) of the sum over
    k_j-subsets of pool_j of q^{wt^P}; the pools must be disjoint."""
    pools = [set(pool) for _, pool in constraints]
    if sum(map(len, pools)) != len(set().union(*pools)):
        raise ValueError("constraint pools must be disjoint")
    out = ONE
    for (k, _), pool in zip(constraints, pools):
        factor = e_k(tuple(sorted(b[2] for b in P if b in pool)), k)
        if factor.is_zero():
            return ZERO
        out = out * factor
    return out
