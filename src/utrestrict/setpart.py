"""Arc-form set partitions over ordered ground sets.

A set partition here is a set of arcs (i, j), i < j, with pairwise distinct
left endpoints and pairwise distinct right endpoints; a block is a maximal
chain of arcs.  Statistics (nestings, weights), the uncrossing map, the
dagger involution and enumeration by a left-to-right arc scan all live here,
together with the region geometry used by the double-rainbow and onion
engines.
"""

from collections import Counter


class DistinctEndpointViolation(ValueError):
    pass


class GroundViolation(ValueError):
    pass


class EnumerationBoundExceeded(ValueError):
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
    """Arc set with distinct left endpoints and distinct right endpoints."""

    __slots__ = ("ground", "arcs")

    def __init__(self, ground, arcs):
        arcs = frozenset((int(i), int(j)) for i, j in arcs)
        _check_arcs(ground, arcs)
        lefts = [a[0] for a in arcs]
        rights = [a[1] for a in arcs]
        if len(set(lefts)) != len(lefts) or len(set(rights)) != len(rights):
            raise DistinctEndpointViolation(
                f"repeated left or right endpoint in {sorted(arcs)}")
        self.ground = ground
        self.arcs = arcs

    @classmethod
    def _trusted(cls, ground, arcs):
        """A partition from (i, j) int pairs already known to be inside
        ground, with i < j and distinct endpoints: no checks."""
        out = cls.__new__(cls)
        out.ground = ground
        out.arcs = frozenset(arcs)
        return out

    def __len__(self):
        return len(self.arcs)

    def __iter__(self):
        return iter(sorted(self.arcs))

    def __eq__(self, other):
        return (isinstance(other, SetPartition)
                and self.ground == other.ground and self.arcs == other.arcs)

    def __hash__(self):
        return hash((self.ground, self.arcs))

    def __repr__(self):
        return f"SetPartition({self.ground.labels}, {sorted(self.arcs)})"

    def label(self):
        """Canonical text form: whitespace-separated i-j tokens."""
        return arcs_label(sorted(self.arcs))

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

    def __iter__(self):
        return iter(self.arcs)

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


def arcs_of(lam):
    """Arc list with multiplicity for either partition flavor."""
    if isinstance(lam, SetPartition):
        return sorted(lam.arcs)
    return list(lam.arcs)


def arcs_label(arcs):
    """The text form of SetPartition.label from its sorted arcs."""
    return " ".join(f"{i}-{j}" for i, j in arcs) or "()"


def parse_partition(text, ground):
    arcs = []
    for tok in text.split():
        i, j = tok.split("-")
        arcs.append((int(i), int(j)))
    return SetPartition(ground, arcs)


# --- statistics ------------------------------------------------------------

def nst(lam, mu):
    """nst^lam_mu = #{(i~l in lam, j~k in mu) : i<j<k<l}, with multiplicity."""
    mu_arcs = arcs_of(mu)
    return sum(1 for (i, l) in arcs_of(lam) for (j, k) in mu_arcs
               if i < j and k < l)


def nst_points(lam, points):
    """nst^lam_A = #{(i~l in lam, j in A) : i<j<l}, with multiplicity."""
    return sum(1 for (i, l) in arcs_of(lam) for j in points if i < j < l)


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
        """Geometry with |N_<| = a, |N_=| = b, |N_>| = c on consecutive labels.

        n_- collapses onto n_-- exactly when a = 0 (the geometry forces it),
        similarly on the right.
        """
        labels = []
        x = 1
        if a > 0:
            n_mm = x
            labels.append(x)
            x += 1
        labels += list(range(x, x + a))
        x += a
        n_m = x
        labels.append(x)
        x += 1
        if a == 0:
            n_mm = n_m
        labels += list(range(x, x + b))
        x += b
        n_p = x
        labels.append(x)
        x += 1
        labels += list(range(x, x + c))
        x += c
        if c == 0:
            n_pp = n_p
        else:
            n_pp = x
            labels.append(x)
        return RegionSplit(GroundSet(labels), n_mm, n_m, n_p, n_pp)

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
# run over at most 128 points: it nests one generator per point, and the 8,129
# partitions of 128 points with at most one arc take less time to decompose
# than the full scan of 10 points
MAX_PARTITIONS, MAX_POINTS = 115975, 128


def _count_partitions(n, max_arcs):
    """Partitions of n points with at most max_arcs arcs, the sum of the
    Stirling numbers S(n, n - k) over k <= max_arcs, or None above budget."""
    diag = [1] + [0] * min(max_arcs, n)     # diag[k] = S(i, i - k)
    for i in range(1, n + 1):
        for k in range(len(diag) - 1, 0, -1):
            diag[k] += (i - k) * diag[k - 1]
        if sum(diag) > MAX_PARTITIONS:
            return None     # the sum only grows with i
    return sum(diag)


def enumerate_partitions(ground, max_arcs=None, lefts=None, rights=None):
    """Every partition of `ground` with at most max_arcs arcs (all of S_N if
    None), each once; with `lefts` (`rights`) given, only those whose left
    (right) endpoints all lie in it.  Yields (lam, nest, skeleton): nest is
    nst(lam, lam), and skeleton is an int with bit 2i set when the i-th
    point is a left endpoint and bit 2i + 1 when it is a right endpoint, so
    two partitions share a skeleton exactly when they share L(.) and R(.).

    A left-to-right scan of the arc diagram: each point may close one open
    arc if it is in rights, and may open one if it is in lefts.  A branch
    stops when its arcs would exceed max_arcs, or when more arcs are open
    than points are left to close them.  The budget counts the partitions
    with at most max_arcs arcs whatever the endpoint constraints.

    Closing the arc (l, x) nests it over the closed arcs opened after l
    (Chen-Deng-Du-Stanley-Yan's scan): of the arcs opened after l, those
    still open cross it instead.
    """
    labels = tuple(ground)
    n = len(labels)
    spare = n if max_arcs is None else max_arcs
    if n > MAX_POINTS:
        raise EnumerationBoundExceeded(f"{n} points > bound {MAX_POINTS}")
    if _count_partitions(n, spare) is None:
        raise EnumerationBoundExceeded(
            f"more than {MAX_PARTITIONS} partitions of {n} points have at "
            f"most {spare} arcs")
    opens = [lefts is None or x in lefts for x in labels]
    closes = [rights is None or x in rights for x in labels]
    # closers[i]: points after the i-th that may close an arc
    closers = [0] * n
    for i in range(n - 2, -1, -1):
        closers[i] = closers[i + 1] + closes[i + 1]
    arcs = []
    # the open arcs in scan order: (left endpoint, arcs opened before it)
    opened = []

    def scan(i, spare, nest, skeleton):
        # spare: arcs that may still be opened
        if i == n:
            yield SetPartition._trusted(ground, arcs), nest, skeleton
            return
        x, rest = labels[i], closers[i]
        for c in range(-1, len(opened) if closes[i] else 0):
            nest_x, skeleton_x = nest, skeleton
            if c >= 0:
                # with o arcs open, len(arcs) + o - before - 1 arcs were
                # opened after l, and o - c - 1 of them are still open
                l, before = opened.pop(c)
                nest_x += len(arcs) - before + c
                arcs.append((l, x))
                skeleton_x |= 2 << 2 * i
            if len(opened) <= rest:
                yield from scan(i + 1, spare, nest_x, skeleton_x)
            if spare > 0 and opens[i] and len(opened) < rest:
                opened.append((x, len(arcs) + len(opened)))
                yield from scan(i + 1, spare - 1, nest_x,
                                skeleton_x | 1 << 2 * i)
                opened.pop()
            if c >= 0:
                opened.insert(c, (l, before))
                arcs.pop()

    if spare >= 0:
        yield from scan(0, spare, 0, 0)


def bell(n):
    """Bell number by the independent binomial recurrence."""
    from math import comb
    out = [1]
    for m in range(1, n + 1):
        out.append(sum(comb(m - 1, k) * out[k] for k in range(m)))
    return out[n]
