import pytest


def _nested_in(a, b):
    """Block a lies under block b: some consecutive pair of a (a itself, for
    a singleton) sits strictly inside an arc of b."""
    sa, sb = sorted(a), sorted(b)
    pairs = list(zip(sa, sa[1:])) or [(sa[0], sa[0])]
    return any(i < j and k < l
               for j, k in pairs for i, l in zip(sb, sb[1:]))


def _nesting_above(lam):
    """Brute-force nesting order on the blocks of lam, built from the block
    sets and not from arc counts: maps the (min, max) of each block to the
    frozenset of (min, max) of the blocks above it."""
    ends = {b: (min(b), max(b)) for b in lam.blocks()}
    return {ends[a]: frozenset(ends[b] for b in ends
                               if b != a and _nested_in(a, b))
            for a in ends}


@pytest.fixture
def nesting_above():
    return _nesting_above
