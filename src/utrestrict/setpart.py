"""Arc multisets over ordered ground sets, and set partitions among them.

An arc multiset holds arcs (i, j), i < j; a set partition is one with
pairwise distinct left and pairwise distinct right endpoints, and a block is
a maximal chain of its arcs.  Statistics (nestings, weights), the uncrossing
map, the dagger involution and enumeration by an arc-by-arc scan all live
here, together with the region geometry used by the double-rainbow and onion
engines.  The scan's skeleton, the engines' one memo key, is defined here
alone: L(.) and R(.) as two bits per point below the weight sum of the
arcs, and `depth_vector` reads the block weights of the uncrossing off it.
"""

import re
from collections import Counter
from itertools import islice, pairwise


class DistinctEndpointViolation(ValueError):
    pass


class GroundViolation(ValueError):
    pass


class EnumerationBoundExceeded(Exception):
    pass


class GroundSet(tuple):
    """A totally ordered finite label set, possibly inside a larger ambient
    set: the tuple of its labels."""

    __slots__ = ()

    def __new__(cls, labels):
        self = tuple.__new__(cls, labels)
        if not all(isinstance(x, int) and x > 0 for x in self):
            raise ValueError(
                f"ground set labels must be positive: {tuple(self)}")
        if not all(a < b for a, b in pairwise(self)):
            raise ValueError(f"ground set labels must be strictly increasing: "
                             f"{tuple(self)}")
        return self

    @staticmethod
    def range(n):
        return GroundSet(range(1, n + 1))

    def __repr__(self):
        return f"GroundSet{tuple(self)}"

    def w0(self, x):
        """Order-reversing involution of the ground set."""
        return self[-1 - self.index(x)]

    def subset(self, labels):
        labels = tuple(sorted(labels))
        if not all(x in self for x in labels):
            raise GroundViolation(f"{list(labels)} is not in {tuple(self)}")
        return GroundSet(labels)


class ArcMultiset:
    """Arcs (i, j), i < j, over a ground set, repeats allowed, kept as a
    tuple sorted by left endpoint: the order the scan builds them in."""

    __slots__ = ("ground", "arcs")

    def __init__(self, ground, arcs):
        arcs = tuple(sorted((int(i), int(j)) for i, j in arcs))
        for i, j in arcs:
            if not (i < j):
                raise ValueError(f"arc ({i},{j}) needs left < right")
            if i not in ground or j not in ground:
                raise GroundViolation(
                    f"arc ({i},{j}) leaves ground {tuple(ground)}")
        self.ground = ground
        self.arcs = arcs

    def __len__(self):
        return len(self.arcs)

    def __eq__(self, other):
        # class-exact: a set partition never equals a multiset
        return (type(other) is type(self)
                and self.ground == other.ground and self.arcs == other.arcs)

    def __hash__(self):
        # equal multisets share a ground
        return hash(self.arcs)

    def __repr__(self):
        return f"{type(self).__name__}({tuple(self.ground)}, {list(self.arcs)})"

    def left_endpoints(self):
        return frozenset(i for i, _ in self.arcs)

    def right_endpoints(self):
        return frozenset(j for _, j in self.arcs)


class SetPartition(ArcMultiset):
    """An arc multiset with distinct left and distinct right endpoints."""

    __slots__ = ()

    def __init__(self, ground, arcs):
        super().__init__(ground, arcs)
        arcs = self.arcs
        # a repeated arc repeats both its endpoints
        if (len({i for i, _ in arcs}) != len(arcs)
                or len({j for _, j in arcs}) != len(arcs)):
            raise DistinctEndpointViolation(
                f"repeated left or right endpoint in {list(arcs)}")

    @classmethod
    def _trusted(cls, ground, arcs):
        """A partition from a sorted tuple of (i, j) int pairs known to be
        inside ground, with i < j and distinct endpoints: no checks."""
        out = cls.__new__(cls)
        out.ground = ground
        out.arcs = arcs
        return out

    def label(self):
        """Canonical text form: whitespace-separated i-j tokens."""
        return arcs_label(map(arc_token, self.arcs))

    def dagger(self):
        w0 = self.ground.w0
        return SetPartition(self.ground, ((w0(j), w0(i)) for i, j in self.arcs))

    def uncross(self):
        """The unique noncrossing partition with the same L(.) and R(.).

        Scanning right endpoints left to right, each one is matched to the
        nearest available left endpoint to its left.
        """
        lefts = sorted(self.left_endpoints())
        arcs = []
        avail = []
        li = 0
        for r in sorted(self.right_endpoints()):
            while li < len(lefts) and lefts[li] < r:
                avail.append(lefts[li])
                li += 1
            arcs.append((avail.pop(), r))
        return SetPartition(self.ground, arcs)


def arc_token(arc):
    """The i-j token of one arc in SetPartition.label."""
    return f"{arc[0]}-{arc[1]}"


def arcs_label(tokens):
    """SetPartition.label's text from the tokens of its sorted arcs."""
    return " ".join(tokens) or "()"


def parse_partition(text, ground):
    """The set partition whose arcs are the tokens i-j of `text`."""
    arcs = []
    for tok in text.split():
        # ASCII digits only: int() also reads "1_0", "+2" and non-ASCII digits
        if not re.fullmatch(r"[0-9]+-[0-9]+", tok):
            raise ValueError(f"token {tok!r} should read i-j")
        arcs.append(tuple(map(int, tok.split("-"))))
    return SetPartition(ground, arcs)


# --- statistics ------------------------------------------------------------

def nst(lam, mu):
    """nst^lam_mu = #{(i~l in lam, j~k in mu) : i<j<k<l}, with multiplicity."""
    return sum(1 for (i, l) in lam.arcs for (j, k) in mu.arcs
               if i < j and k < l)


def nst_points(lam, points):
    """nst^lam_A = #{(i~l in lam, j in A) : i<j<l}, with multiplicity."""
    return sum(1 for (i, l) in lam.arcs for j in points if i < j < l)


def wt_up(A, C):
    """wt^up_C(A) = #{(a, c) in A x C : a < c}  (= wt^down_A(C))."""
    return sum(1 for a in A for c in C if a < c)


# --- region geometry -------------------------------------------------------

class RegionSplit:
    """Double-rainbow geometry with |N_<| = a, |N_=| = b, |N_>| = c: the
    restriction ground N = N_< | N_= | N_> sits inside the ambient
    N' = {n_--} N_< {n_-} N_= {n_+} N_> {n_++} = 1..n_++.  The four anchors
    belong to N' but never to N.

    Degenerate collapses: n_- coincides with n_-- exactly when a = 0, and
    n_+ with n_++ exactly when c = 0; N_= may be empty while n_- < n_+.
    """

    __slots__ = ("ambient", "inner", "n_mm", "n_m", "n_p", "n_pp",
                 "n_lt", "n_eq", "n_gt", "region")

    def __init__(self, a, b, c):
        if min(a, b, c) < 0 or not a + b + c:
            raise ValueError(f"region sizes {(a, b, c)} must be nonnegative "
                             "and not all zero")
        n_m = a + 1 + (a > 0)
        n_p = n_m + b + 1
        n_pp = n_p + c + (c > 0)
        anchors = (1, n_m, n_p, n_pp)
        self.ambient = GroundSet.range(n_pp)
        self.n_mm, self.n_m, self.n_p, self.n_pp = anchors
        inner = [x for x in self.ambient if x not in anchors]
        self.inner = GroundSet(inner)
        self.n_lt = GroundSet(x for x in inner if x < n_m)
        self.n_eq = GroundSet(x for x in inner if n_m < x < n_p)
        self.n_gt = GroundSet(x for x in inner if x > n_p)
        # the region tag of each point of N
        self.region = {x: "<" if x < n_m else "=" if x < n_p else ">"
                       for x in inner}

    @classmethod
    def from_sizes(cls, a, b, c):
        return cls(a, b, c)

    def anchor_multiset(self, m, ell):
        """The double-rainbow multiset over the ambient ground set."""
        arcs = [(self.n_mm, self.n_pp)] * m + [(self.n_m, self.n_p)] * ell
        return ArcMultiset(self.ambient, arcs)

    def region_counts(self, lam):
        """Arcs of lam by region: a Counter keyed by the tags of the two
        endpoints, e.g. "<>" counts the arcs from N_< to N_>."""
        region = self.region
        return Counter(region[i] + region[j] for i, j in lam.arcs)


# --- enumeration -----------------------------------------------------------

def from_blocks(ground, blocks):
    """The partition with the given blocks: consecutive pairs inside each
    sorted block are its arcs."""
    arcs = []
    for b in blocks:
        b = sorted(b)
        arcs.extend(zip(b, b[1:]))
    return SetPartition(ground, arcs)


# a scan may yield at most Bell(10) partitions, all those of 10 points, and
# run over at most 128 points: the work per partition grows with the ground,
# and the 8,129 partitions of 128 points with at most one arc take less time
# to decompose than the full scan of 10 points
MAX_PARTITIONS, MAX_POINTS = 115975, 128


def enumerate_partitions(ground, max_arcs=None, weight=None, bound=None):
    """Every partition of `ground` with at most max_arcs arcs (all of S_N if
    None), each once.  Yields (lam, nest, skeleton): nest is nst(lam, lam),
    and skeleton is an int with bit 2i set when the i-th point is a left
    endpoint and bit 2i + 1 when it is a right endpoint, plus 4^n times the
    weight sum of its arcs, so two yields of one scan share a skeleton
    exactly when they share L(.), R(.) and the weight sum.

    weight(i, j) is None for an arc (i, j) that no yield may hold, and
    otherwise its weight, 0 or 1 (None: every arc weighs 0); with bound =
    (lo, hi), 0 <= lo <= hi, only the partitions whose arc weights sum to
    between lo and hi are yielded.  Other weights or bounds raise ValueError.

    A depth-first scan that adds whole arcs in increasing left endpoint, on
    one stack.  The allowed arcs are listed once, sorted: those with a
    weight no more than hi.  Every state is a partition, (the first allowed
    arc whose left endpoint is past the state's last one, arcs, a bitmask of
    the right endpoints used, nest, skeleton, weight sum), and while it has
    fewer than max_arcs arcs each later allowed arc on an unused right
    endpoint makes a child.  A new arc (i, j) nests under exactly the
    earlier arcs that end after j.  The children are pushed in reverse, so
    the yields come in lexicographic order of their sorted arcs.

    A state yields when its sum has reached lo.  A child whose sum passes hi
    is dropped at once, and a state is dropped with all it would add when
    its sum, plus as many arcs as it may still add (at most its spare arcs,
    and one per later left endpoint with an arc of weight 1), falls short
    of lo.  That count of one arc per left endpoint is why a weight is 0 or
    1, checked once per arc as the arcs are listed.

    The budget is the scan's own count, taken before the first yield: on
    more than 10 points the scan runs into a list first, and stops one
    partition past MAX_PARTITIONS to raise EnumerationBoundExceeded.  So a
    refusal costs at most one budget-sized scan.
    """
    n = len(ground)
    cap = n if max_arcs is None else max_arcs
    if n > MAX_POINTS:
        raise EnumerationBoundExceeded(f"{n} points > bound {MAX_POINTS}")
    scan = _scan(ground, min(cap, n), weight, bound)
    # no scan of 10 points or fewer can pass the budget, Bell(10)
    if n > 10:
        scan = list(islice(scan, MAX_PARTITIONS + 1))
        if len(scan) > MAX_PARTITIONS:
            raise EnumerationBoundExceeded(
                f"more than {MAX_PARTITIONS} partitions of {n} points have "
                f"at most {cap} arcs")
    yield from scan


def _scan(ground, cap, weight, bound):
    """The scan of enumerate_partitions, with no budget."""
    labels = tuple(ground)
    lo, hi = bound or (0, cap)
    if bound is not None and not 0 <= lo <= hi:
        raise ValueError(f"bound {bound} needs 0 <= lo <= hi")
    # the allowed arcs by left endpoint, each as (arc, right endpoint bit,
    # right endpoint index, skeleton bits, weight)
    groups = [[] for _ in labels]
    for i, x in enumerate(labels):
        for j, y in enumerate(labels[i + 1:], i + 1):
            if (w := weight(x, y) if weight else 0) not in (None, 0, 1):
                raise ValueError(
                    f"arc ({x},{y}) weighs {w!r}, not None, 0 or 1")
            if w is not None and w <= hi:
                bits = 1 << 2 * i | 2 << 2 * j | w << 2 * len(labels)
                groups[i].append(((x, y), 1 << j, j, bits, w))
    # each arc also holds the index of the first arc with a later left end
    cands = []
    for group in groups:
        cands += [arc + (len(cands) + len(group),) for arc in group]
    # at that index, the later left endpoints with an arc of weight 1
    reach = [0] * (len(cands) + 1)
    at = len(cands)
    for group in reversed(groups):
        at -= len(group)
        reach[at] = reach[at + len(group)] + any(arc[4] for arc in group)
    rev, top = cands[::-1], len(cands)
    stack = [(0, (), 0, 0, 0, 0)] if cap >= 0 else []
    push = stack.append
    while stack:
        k, arcs, used, nest, skeleton, count = stack.pop()
        spare = cap - len(arcs)
        if lo and count + min(spare, reach[k]) < lo:
            continue
        if count >= lo:
            yield SetPartition._trusted(ground, arcs), nest, skeleton
        if spare:
            for arc, bit, j, bits, w, after in rev[:top - k]:
                if not used & bit and count + w <= hi:
                    push((after, arcs + (arc,), used | bit,
                          nest + (used >> j).bit_count(), skeleton + bits,
                          count + w))


def depth_vector(skeleton, n):
    """The sorted block weights of the uncrossings of the partitions of n
    points with this scan skeleton, from its low 2n bits: a point that
    closes no arc starts a block under the arcs open just before it."""
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
