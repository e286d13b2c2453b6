"""Block weights of the uncrossed partition and their poset q-binomials.

The blocks of a noncrossing partition are ordered by nesting, and the poset
q-binomial [P choose k]_q sums q^wt(A) over k-subsets A of the blocks, with
wt(A) the sum over a in A of the number of blocks strictly above a.  That
weight is additive, so [P choose k]_q is the elementary symmetric polynomial
e_k(q^wt(b) : b a block) and depends only on the block weights.

The engines read these weights on the uncrossing of a partition lam, which
depends only on L(lam) and R(lam).  Arcs of a noncrossing partition cannot
cross a block, so the blocks above b are those with an arc strictly over
min(b), one arc each: wt(b) is the number of arcs open at min(b).  So the
sorted weights are the scan's depth vector (`depth_vector`), read off the
endpoint skeleton alone; the engines that need the blocks themselves, to
pool them by their end points, build them with `block_poset`.
"""

from functools import cache

from .qcalc import QPoly, ZERO, ONE


def block_poset(lam):
    """One (min, max, wt) entry per block of the uncrossing of lam, sorted
    by min.  The end points pick out bl_{R(K)} / bl_{L(K)} downstream; wt
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


def depth_vector(skeleton, n):
    """The sorted block weights of the uncrossing of every partition of n
    points with this skeleton (an enumerate_partitions skeleton: bit 2i set
    when the i-th point opens an arc, bit 2i + 1 when it closes one).  A
    point that closes no arc starts a block under the arcs open just before
    it, so its weight is the depth there."""
    weights = []
    depth = 0
    for _ in range(n):
        if skeleton & 2:
            depth -= 1
        else:
            weights.append(depth)
        depth += skeleton & 1
        skeleton >>= 2
    weights.sort()
    return tuple(weights)


def blocks_with_max_in(P, K):
    """bl_{R(K)}: entries whose rightmost ground point lies in K."""
    return frozenset(b for b in P if b[1] in K)


def blocks_with_min_in(P, K):
    """bl_{L(K)}: entries whose leftmost ground point lies in K."""
    return frozenset(b for b in P if b[0] in K)


@cache
def _e_k(weights, k):
    """e_k(q^w : w in weights), the sum over k-subsets of q^(their sum).
    Symmetric in the weights, so callers pass them as a sorted tuple: the
    engines meet few distinct weight vectors across many partitions."""
    if k < 0 or k > len(weights):
        return ZERO
    # rows[j]: coefficients of e_j over the weights seen so far
    rows = [[1]] + [[] for _ in range(k)]
    for i, w in enumerate(weights):
        for j in range(min(i + 1, k), 0, -1):
            src, dst = rows[j - 1], rows[j]
            if len(dst) < len(src) + w:
                dst.extend([0] * (len(src) + w - len(dst)))
            for e, c in enumerate(src):
                dst[e + w] += c
    return QPoly(rows[k])


def poset_binom(P, k):
    """[P choose k]_q = sum over k-subsets A of q^{wt(A)}."""
    return _e_k(tuple(sorted(b[2] for b in P)), k)


def poset_multinom(P, constraints):
    """Constrained multinomial: product over (k_j, pool_j) of the sum over
    k_j-subsets of pool_j of q^{wt^P}; the pools must be disjoint."""
    pools = [set(pool) for _, pool in constraints]
    assert sum(map(len, pools)) == len(set().union(*pools)), \
        "constraint pools must be disjoint"
    out = ONE
    for (k, _), pool in zip(constraints, pools):
        factor = _e_k(tuple(sorted(b[2] for b in P if b in pool)), k)
        if factor.is_zero():
            return ZERO
        out = out * factor
    return out
