"""Block weights of noncrossing partitions and their poset q-binomials.

The blocks of a noncrossing partition are ordered by nesting, and the poset
q-binomial [P choose k]_q sums q^wt(A) over k-subsets A of the blocks, with
wt(A) the sum over a in A of the number of blocks strictly above a.  That
weight is additive, so [P choose k]_q is the elementary symmetric polynomial
e_k(q^wt(b) : b a block) and depends only on the block weights.

Arcs of a noncrossing partition cannot cross a block, so the blocks above b
are those with an arc strictly over min(b), one arc each:
wt(b) = nst_points(lam, [min b]).
"""

from .qcalc import QPoly, ZERO, ONE
from .setpart import crs, nst_points


def block_poset(lam):
    """One (min, max, wt) entry per block of the noncrossing partition lam,
    sorted by min.  The end points pick out bl_{R(K)} / bl_{L(K)}
    downstream; wt is the number of blocks nesting over the block."""
    if crs(lam) != 0:
        raise ValueError("block_poset requires a noncrossing partition")
    return tuple(sorted((min(b), max(b), nst_points(lam, [min(b)]))
                        for b in lam.blocks()))


def blocks_with_max_in(P, K):
    """bl_{R(K)}: entries whose rightmost ground point lies in K."""
    return frozenset(b for b in P if b[1] in K)


def blocks_with_min_in(P, K):
    """bl_{L(K)}: entries whose leftmost ground point lies in K."""
    return frozenset(b for b in P if b[0] in K)


def _e_k(weights, k):
    """e_k(q^w : w in weights), the sum over k-subsets of q^(their sum)."""
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
    return _e_k([b[2] for b in P], k)


def poset_multinom(P, constraints):
    """Constrained multinomial: product over (k_j, pool_j) of the sum over
    k_j-subsets of pool_j of q^{wt^P}.  A pool of None means the complement
    of the other pools (a trailing unconstrained count)."""
    seen = set()
    for _, pool in constraints:
        if pool is not None:
            pool = set(pool)
            assert not (pool & seen), "constraint pools must be disjoint"
            seen |= pool
    out = ONE
    for k, pool in constraints:
        chosen = [b for b in P if b not in seen] if pool is None \
            else [b for b in P if b in pool]
        factor = _e_k([b[2] for b in chosen], k)
        if factor.is_zero():
            return ZERO
        out = out * factor
    return out
