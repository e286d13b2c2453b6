"""Arc-form set partitions over ordered ground sets.

A set partition here is a set of arcs (i, j), i < j, with pairwise distinct
left endpoints and pairwise distinct right endpoints; a block is a maximal
chain of arcs.  Statistics (nestings, weights), the uncrossing map, the
dagger involution and enumeration by an arc-by-arc scan all live here,
together with the region geometry used by the double-rainbow and onion
engines.
"""

from collections import Counter
from itertools import islice


class DistinctEndpointViolation(ValueError):
    pass


class GroundViolation(ValueError):
    pass


class EnumerationBoundExceeded(Exception):
    pass


class GroundSet:
    """A totally ordered finite label set, possibly inside a larger ambient set."""

    __slots__ = ("labels",)

    def __init__(self, labels):
        labels = tuple(labels)
        assert all(isinstance(x, int) and x > 0 for x in labels)
        assert all(a < b for a, b in zip(labels, labels[1:])), \
            "ground set labels must be strictly increasing"
        self.labels = labels

    @staticmethod
    def range(n):
        return GroundSet(range(1, n + 1))

    def __len__(self):
        return len(self.labels)

    def __iter__(self):
        return iter(self.labels)

    def __contains__(self, x):
        return x in self.labels

    def __eq__(self, other):
        return isinstance(other, GroundSet) and self.labels == other.labels

    def __hash__(self):
        return hash(self.labels)

    def __repr__(self):
        return f"GroundSet{self.labels}"

    def w0(self, x):
        """Order-reversing involution of the ground set."""
        i = self.labels.index(x)
        return self.labels[len(self.labels) - 1 - i]

    def subset(self, labels):
        labels = tuple(sorted(labels))
        assert all(x in self for x in labels)
        return GroundSet(labels)


def _check_arcs(ground, arcs):
    for i, j in arcs:
        if not (i < j):
            raise ValueError(f"arc ({i},{j}) needs left < right")
        if i not in ground or j not in ground:
            raise GroundViolation(f"arc ({i},{j}) leaves ground {ground.labels}")


class SetPartition:
    """Arcs with distinct left and distinct right endpoints, kept as a tuple
    sorted by left endpoint: the order the scan builds them in."""

    __slots__ = ("ground", "arcs")

    def __init__(self, ground, arcs):
        arcs = tuple(sorted((int(i), int(j)) for i, j in arcs))
        _check_arcs(ground, arcs)
        # a repeated arc repeats both its endpoints
        if (len({i for i, _ in arcs}) != len(arcs)
                or len({j for _, j in arcs}) != len(arcs)):
            raise DistinctEndpointViolation(
                f"repeated left or right endpoint in {list(arcs)}")
        self.ground = ground
        self.arcs = arcs

    @classmethod
    def _trusted(cls, ground, arcs):
        """A partition from a sorted tuple of (i, j) int pairs known to be
        inside ground, with i < j and distinct endpoints: no checks."""
        out = cls.__new__(cls)
        out.ground = ground
        out.arcs = arcs
        return out

    def __len__(self):
        return len(self.arcs)

    def __eq__(self, other):
        return (isinstance(other, SetPartition)
                and self.ground == other.ground and self.arcs == other.arcs)

    def __hash__(self):
        # equal partitions share a ground
        return hash(self.arcs)

    def __repr__(self):
        return f"SetPartition({self.ground.labels}, {list(self.arcs)})"

    def label(self):
        """Canonical text form: whitespace-separated i-j tokens."""
        return arcs_label(map(arc_token, self.arcs))

    def left_endpoints(self):
        return frozenset(i for i, _ in self.arcs)

    def right_endpoints(self):
        return frozenset(j for _, j in self.arcs)

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


class ArcMultiset:
    """Multiset of arcs over a ground set (no distinctness constraint)."""

    __slots__ = ("ground", "arcs")

    def __init__(self, ground, arcs):
        arcs = tuple(sorted((int(i), int(j)) for i, j in arcs))
        _check_arcs(ground, arcs)
        self.ground = ground
        self.arcs = arcs

    def __len__(self):
        return len(self.arcs)

    def __eq__(self, other):
        return (isinstance(other, ArcMultiset)
                and self.ground == other.ground and self.arcs == other.arcs)

    def __hash__(self):
        return hash((self.ground, self.arcs))

    def __repr__(self):
        return f"ArcMultiset({self.ground.labels}, {list(self.arcs)})"

    def left_endpoints(self):
        return frozenset(i for i, _ in self.arcs)

    def right_endpoints(self):
        return frozenset(j for _, j in self.arcs)


def arc_token(arc):
    """The i-j token of one arc in SetPartition.label."""
    return f"{arc[0]}-{arc[1]}"


def arcs_label(tokens):
    """The text form of SetPartition.label from the tokens of its sorted
    arcs."""
    return " ".join(tokens) or "()"


def parse_partition(text, ground):
    arcs = []
    for tok in text.split():
        i, j = tok.split("-")
        arcs.append((int(i), int(j)))
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
    """Double-rainbow geometry: the restriction ground N = N_< | N_= | N_>
    sits inside the ambient N' = {n_--} N_< {n_-} N_= {n_+} N_> {n_++}.
    The four anchors belong to N' but never to N.

    Degenerate collapses: n_- may coincide with n_-- (then N_< = {}) and
    n_+ with n_++ (then N_> = {}); N_= may be empty while n_- < n_+.
    """

    __slots__ = ("ambient", "inner", "n_mm", "n_m", "n_p", "n_pp",
                 "n_lt", "n_eq", "n_gt", "region")

    def __init__(self, ambient, n_mm, n_m, n_p, n_pp):
        assert n_mm <= n_m <= n_p <= n_pp and n_mm < n_pp
        self.ambient = ambient
        self.n_mm, self.n_m, self.n_p, self.n_pp = n_mm, n_m, n_p, n_pp
        anchors = {n_mm, n_m, n_p, n_pp}
        inner = [x for x in ambient if x not in anchors]
        assert inner, "the restriction ground N must be nonempty"
        assert all(n_mm < x < n_pp for x in inner)
        for a in (n_m, n_p):
            assert a in ambient
        self.inner = GroundSet(inner)
        self.n_lt = GroundSet(x for x in inner if x < n_m)
        self.n_eq = GroundSet(x for x in inner if n_m < x < n_p)
        self.n_gt = GroundSet(x for x in inner if x > n_p)
        # the region tag of each point of N
        self.region = {x: "<" if x < n_m else "=" if x < n_p else ">"
                       for x in inner}
        # the anchor collapses are forced by the region emptiness
        assert len(self.n_lt) > 0 or n_m == n_mm
        assert len(self.n_gt) > 0 or n_p == n_pp

    @staticmethod
    def from_sizes(a, b, c):
        """Geometry with |N_<| = a, |N_=| = b, |N_>| = c on the labels
        1..n_++.  n_- collapses onto n_-- exactly when a = 0 (the geometry
        forces it), similarly on the right."""
        n_m = a + 1 + (a > 0)
        n_p = n_m + b + 1
        n_pp = n_p + c + (c > 0)
        return RegionSplit(GroundSet.range(n_pp), 1, n_m, n_p, n_pp)

    def anchor_multiset(self, m, ell):
        """The double-rainbow multiset over the ambient ground set."""
        arcs = [(self.n_mm, self.n_pp)] * m + [(self.n_m, self.n_p)] * ell
        return ArcMultiset(self.ambient, arcs)


def region_counts(lam, split):
    """Arcs of lam by region: a Counter keyed by the tags of the two
    endpoints, e.g. "<>" counts the arcs from N_< to N_>."""
    region = split.region
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


def enumerate_partitions(ground, max_arcs=None, lefts=None, rights=None,
                         rule=None):
    """Every partition of `ground` with at most max_arcs arcs (all of S_N if
    None), each once; with `lefts` (`rights`) given, only those whose left
    (right) endpoints all lie in it.  Yields (lam, nest, skeleton): nest is
    nst(lam, lam), and skeleton is an int with bit 2i set when the i-th
    point is a left endpoint and bit 2i + 1 when it is a right endpoint, so
    two partitions share a skeleton exactly when they share L(.) and R(.).

    A region rule (tags, bounds) keeps only the partitions whose arcs obey
    its bounds.  tags maps each point to a one-character tag (as
    RegionSplit.region does); an arc's class is the tags of its left and
    right endpoint, e.g. "<>"; and bounds maps a space-separated list of
    classes to (lo, hi), the least and most arcs those classes may hold
    together.

    A depth-first scan that adds whole arcs in increasing left endpoint, on
    one stack.  The allowed arcs are listed once, sorted: both ends in
    lefts and rights, and no class that a bound holds to none.  Every state
    is a partition, (the first allowed arc whose left endpoint is past the
    state's last one, arcs, a bitmask of the right endpoints used, nest,
    skeleton, bound counts), and while it has fewer than max_arcs arcs each
    later allowed arc on an unused right endpoint makes a child.  A new arc
    (i, j) nests under exactly the earlier arcs that end after j.  The
    children are pushed in reverse, so the yields come in lexicographic
    order of their sorted arcs.

    Under a rule a state yields when every bound's count has reached its
    lower end.  A child whose count passes an upper end is dropped at once,
    and a state is dropped with all it would add when a count, plus as many
    arcs as it may still add (at most its spare arcs, and one per later left
    endpoint with an allowed arc in the bound's classes), falls short of the
    lower end.

    The budget is the scan's own count, taken before the first yield: on
    more than 10 points the scan runs into a list first, and stops one
    partition past MAX_PARTITIONS to raise EnumerationBoundExceeded.  So a
    refusal costs at most one budget-sized scan.
    """
    n = len(ground)
    cap = n if max_arcs is None else max_arcs
    if n > MAX_POINTS:
        raise EnumerationBoundExceeded(f"{n} points > bound {MAX_POINTS}")
    scan = _scan(ground, min(cap, n), lefts, rights, rule)
    # no scan of 10 points or fewer can pass the budget, Bell(10)
    if n > 10:
        scan = list(islice(scan, MAX_PARTITIONS + 1))
        if len(scan) > MAX_PARTITIONS:
            raise EnumerationBoundExceeded(
                f"more than {MAX_PARTITIONS} partitions of {n} points have "
                f"at most {cap} arcs")
    yield from scan


def _scan(ground, cap, lefts, rights, rule):
    """The scan of enumerate_partitions, with no budget."""
    labels = tuple(ground)
    tags, bounds = rule or (dict.fromkeys(labels, ""), {})
    tag = [tags[x] for x in labels]
    # the bound counts are one int of 16-bit fields, one per bound, biased
    # so that a field's top bit is set exactly when its count passes hi:
    # start holds the counts of no arc, over the top bits, and lift hi -
    # lo + 1 in each field, which added to the counts sets every top bit
    # exactly when each count has reached lo; units maps one in each
    # bound's field to the bound's classes, and bump each class to its
    # increment to the counts.  hi is clamped to the points and lo to
    # hi + 1, so no field carries into the next
    start = over = lift = 0
    units = {}
    for k, (classes, (lo, hi)) in enumerate(bounds.items()):
        hi = min(hi, len(labels))
        lo = min(lo, hi + 1)
        start += (0x7FFF - hi) << 16 * k
        over += 0x8000 << 16 * k
        lift += (hi - lo + 1) << 16 * k
        units[1 << 16 * k] = frozenset(classes.split())
    bump = {t + u: sum(unit for unit, classes in units.items()
                       if t + u in classes)
            for t in set(tag) for u in set(tag)}
    low = any(lo > 0 for lo, _ in bounds.values())
    # the allowed arcs by left endpoint, each as (arc, right endpoint bit,
    # right endpoint index, skeleton bits, bound increment)
    groups = [[((x, y), 1 << j, j, 1 << 2 * i | 2 << 2 * j,
                bump[tag[i] + tag[j]])
               for j, y in enumerate(labels[i + 1:], i + 1)
               if (rights is None or y in rights)
               and not start + bump[tag[i] + tag[j]] & over]
              for i, x in enumerate(labels) if lefts is None or x in lefts]
    # each arc also holds the index of the first arc with a later left end
    cands = []
    for group in groups:
        cands += [arc + (len(cands) + len(group),) for arc in group]
    # with a lower end above 0: at that index, per spare arc count, lift
    # plus the most arcs that each bound may still gain
    reach = {}
    if low:
        fresh, at = dict.fromkeys(units, 0), len(cands)
        for group in [[]] + groups[::-1]:
            at -= len(group)
            for unit in fresh:
                fresh[unit] += any(arc[4] & unit for arc in group)
            reach[at] = [lift + sum(min(s, f) * unit
                                    for unit, f in fresh.items())
                         for s in range(cap + 1)]
    rev, top = cands[::-1], len(cands)
    stack = [(0, (), 0, 0, 0, start)] if cap >= 0 else []
    push = stack.append
    while stack:
        k, arcs, used, nest, skeleton, counts = stack.pop()
        spare = cap - len(arcs)
        if low and counts + reach[k][spare] & over != over:
            continue
        if counts + lift & over == over:
            yield SetPartition._trusted(ground, arcs), nest, skeleton
        if spare:
            for arc, bit, j, bits, inc, after in rev[:top - k]:
                if not used & bit and not counts + inc & over:
                    push((after, arcs + (arc,), used | bit,
                          nest + (used >> j).bit_count(), skeleton | bits,
                          counts + inc))


def bell(n):
    """Bell number by the independent binomial recurrence."""
    from math import comb
    out = [1]
    for m in range(1, n + 1):
        out.append(sum(comb(m - 1, k) * out[k] for k in range(m)))
    return out[n]
