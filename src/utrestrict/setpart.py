"""Arc-form set partitions over ordered ground sets.

A set partition here is a set of arcs (i, j), i < j, with pairwise distinct
left endpoints and pairwise distinct right endpoints; a block is a maximal
chain of arcs.  Statistics (nestings, weights), the uncrossing map, the
dagger involution and enumeration by a left-to-right arc scan all live here,
together with the region geometry used by the double-rainbow and onion
engines.
"""

from collections import Counter
from operator import add


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

    def __eq__(self, other):
        return (isinstance(other, SetPartition)
                and self.ground == other.ground and self.arcs == other.arcs)

    def __hash__(self):
        return hash((self.ground, self.arcs))

    def __repr__(self):
        return f"SetPartition({self.ground.labels}, {sorted(self.arcs)})"

    def label(self):
        """Canonical text form: whitespace-separated i-j tokens."""
        return arcs_label(map(arc_token, sorted(self.arcs)))

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


def _scan_shape(labels, lefts, rights):
    """The scan's arrays: whether each point may open an arc, whether it
    may close one, and how many points after it may close one."""
    opens = [lefts is None or x in lefts for x in labels]
    closes = [rights is None or x in rights for x in labels]
    closers = [0] * len(labels)
    for i in range(len(labels) - 2, -1, -1):
        closers[i] = closers[i + 1] + closes[i + 1]
    return opens, closes, closers


def _rule_tables(labels, opens, closes, rule):
    """The tables of a scan under a region rule (tags, bounds), or None
    (every tag "", no bound): each point's tag; for each class under a
    bound, its increment to each bound's count; and for each point i, up to
    len(labels), a row with one entry per bound: (lo, hi, the tags of open
    arcs that some closer from i on puts in its classes, the tags of those
    that every closer from i on puts there, how many points from i on may
    open an arc that some later closer puts there)."""
    tags, bounds = rule or (dict.fromkeys(labels, ""), {})
    tag = [tags[x] for x in labels]
    every = frozenset(tag)
    bounds = [(frozenset(classes.split()), lo, hi)
              for classes, (lo, hi) in bounds.items()]
    bump = {}
    for k, (classes, _, _) in enumerate(bounds):
        for cls in classes:
            bump.setdefault(cls, [0] * len(bounds))[k] = 1
    bump = {cls: tuple(inc) for cls, inc in bump.items()}
    # per bound, (can, must, fresh) over the points from i on, built from
    # the last point back; past it no point is left to close an arc
    reach = [(frozenset(), every, 0)] * len(bounds)
    rows = [()] * (len(labels) + 1)
    for i in range(len(labels), -1, -1):
        if i < len(labels):
            u, step = tag[i], []
            for (classes, _, _), (can, must, fresh) in zip(bounds, reach):
                # an arc opened at i closes only after i
                fresh += opens[i] and u in can
                if closes[i]:
                    land = {t for t in every if t + u in classes}
                    can, must = can | land, must & land
                step.append((can, must, fresh))
            reach = step
        rows[i] = tuple((lo, hi, *r) for (_, lo, hi), r in zip(bounds, reach))
    return tag, bump, rows


def _bumped(counts, inc):
    """The bound counts after closing an arc whose class adds inc (None:
    under no bound)."""
    return counts if inc is None else tuple(map(add, counts, inc))


def _off_bounds(row, counts, open_tags, spare):
    """Whether a state with these bound counts, open arcs opened at these
    tags and spare arcs left to open is off a bound of row (a row of the
    rule tables): its arcs and the open arcs that must land in the bound's
    classes pass hi, or its arcs, the open arcs that may land there and the
    arcs that may still open and land there fall short of lo."""
    for c, (lo, hi, can, must, fresh) in zip(counts, row):
        if c + sum(map(must.__contains__, open_tags)) > hi or lo > c and \
                c + min(spare, fresh) + sum(map(can.__contains__, open_tags)) \
                < lo:
            return True
    return False


def count_scan(ground, max_arcs=None, lefts=None, rights=None, rule=None):
    """How many partitions enumerate_partitions(ground, max_arcs, lefts,
    rights, rule) yields, or None when that is more than MAX_PARTITIONS.

    A forward count of the scan's live branches, keyed by (the sorted tags
    of the open arcs' left endpoints, all "" with no rule; arcs left to
    open; bound counts), under the scan's own rules.  With no rule every
    live branch yields at least once (it may close an open arc at each
    later closer), so the running total never falls, and the count stops
    once it passes the budget.  Under a rule a live branch may end without
    a yield; the count still stops, returning None, once more than
    MAX_PARTITIONS branches are live at one point."""
    labels = tuple(ground)
    opens, closes, closers = _scan_shape(labels, lefts, rights)
    tag, bump, rows = _rule_tables(labels, opens, closes, rule)
    spare = len(labels) if max_arcs is None else max_arcs

    def kept(step, i):
        return Counter({key: w for key, w in step.items()
                        if not _off_bounds(rows[i], key[2], key[0], key[1])})

    live = kept(Counter({((), spare, (0,) * len(rows[0])): 1}
                        if spare >= 0 else {}), 0)
    for i, rest in enumerate(closers):
        u = tag[i]
        step = Counter()
        for (tally, s, counts), ways in live.items():
            # close none of the open arcs, or one opened at each tag
            moves = [(tally, counts, ways)]
            for t in set(tally) if closes[i] else ():
                c = tally.index(t)
                moves.append((tally[:c] + tally[c + 1:],
                              _bumped(counts, bump.get(t + u)),
                              ways * tally.count(t)))
            for tally_x, counts_x, w in moves:
                if len(tally_x) <= rest:
                    step[tally_x, s, counts_x] += w
                if s > 0 and opens[i] and len(tally_x) < rest:
                    step[tuple(sorted(tally_x + (u,))), s - 1, counts_x] += w
        live = kept(step, i + 1)
        if sum(live.values()) > MAX_PARTITIONS:
            return None
    return sum(live.values())


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

    A depth-first scan of the arc diagram from left to right, on one stack
    of partial states: at each point a state may close one open arc if the
    point is in rights, and may open one if it is in lefts.  A state is
    dropped when its arcs would exceed max_arcs, or when more arcs are open
    than points are left to close them.  A state is a partition once it is
    past the last point, or has no open arc and no arc left to open (the
    points left would only carry it along); on more than 10 points the
    budget counts them before the scan starts.  Under a rule a state is
    also dropped when its arcs and the open arcs that every later closer
    puts in a bound's classes pass the upper end, or when its open arcs and
    the arcs it may still open cannot reach the lower end.

    Closing the arc (l, x) nests it over the closed arcs opened after l
    (Chen-Deng-Du-Stanley-Yan's scan): of the arcs opened after l, those
    still open cross it instead.
    """
    labels = tuple(ground)
    n = len(labels)
    cap = n if max_arcs is None else max_arcs
    if n > MAX_POINTS:
        raise EnumerationBoundExceeded(f"{n} points > bound {MAX_POINTS}")
    # no scan of 10 points or fewer can pass the budget, Bell(10)
    if n > 10 and count_scan(ground, max_arcs, lefts, rights, rule) is None:
        raise EnumerationBoundExceeded(
            f"more than {MAX_PARTITIONS} partitions of {n} points have at "
            f"most {cap} arcs")
    opens, closes, closers = _scan_shape(labels, lefts, rights)
    if rule is not None:
        yield from _ruled_scan(ground, cap, opens, closes, closers, rule)
        return
    # a partial state: (points scanned, arcs, the open arcs in scan order as
    # (left endpoint, arcs opened before it), nest, skeleton)
    stack = [(0, (), (), 0, 0)] if cap >= 0 else []
    push = stack.append
    while stack:
        i, arcs, opened, nest, skeleton = stack.pop()
        if i == n or not opened and len(arcs) == cap:
            yield SetPartition._trusted(ground, arcs), nest, skeleton
            continue
        x, rest, o = labels[i], closers[i], len(opened)
        close_bit, open_bit = 2 << 2 * i, 1 << 2 * i
        # an arc opened at x comes after all len(arcs) + o arcs opened so
        # far, whether or not x closes one
        new = ((x, len(arcs) + o),) \
            if opens[i] and len(arcs) + o < cap else None
        if o <= rest:
            push((i + 1, arcs, opened, nest, skeleton))
        if new and o < rest:
            push((i + 1, arcs, opened + new, nest, skeleton | open_bit))
        for c, (l, before) in enumerate(opened if closes[i] else ()):
            # len(arcs) + o - before - 1 arcs were opened after l, and
            # o - c - 1 of them are still open
            arcs_x = arcs + ((l, x),)
            opened_x = opened[:c] + opened[c + 1:]
            nest_x = nest + len(arcs) - before + c
            if o - 1 <= rest:
                push((i + 1, arcs_x, opened_x, nest_x, skeleton | close_bit))
            if new and o - 1 < rest:
                push((i + 1, arcs_x, opened_x + new, nest_x,
                      skeleton | close_bit | open_bit))


def _ruled_scan(ground, cap, opens, closes, closers, rule):
    """enumerate_partitions' scan under a region rule: each state also
    carries the tags of its open arcs' left endpoints, in scan order, and
    the bound counts.  Whether a state is off the bounds depends only on
    (point, those tags, bound counts, arcs left to open), and few of those
    recur, so each is checked once."""
    labels = tuple(ground)
    n = len(labels)
    tag, bump, rows = _rule_tables(labels, opens, closes, rule)
    off = {}
    stack = [(0, (), (), "", 0, 0, (0,) * len(rows[0]))] if cap >= 0 else []
    push = stack.append
    while stack:
        i, arcs, opened, otags, nest, skeleton, counts = stack.pop()
        spare = cap - len(arcs) - len(opened)
        key = i, otags, counts, spare
        dropped = off.get(key)
        if dropped is None:
            dropped = off[key] = _off_bounds(rows[i], counts, otags, spare)
        if dropped:
            continue
        if i == n or not opened and not spare:
            yield SetPartition._trusted(ground, arcs), nest, skeleton
            continue
        x, u, rest, o = labels[i], tag[i], closers[i], len(opened)
        close_bit, open_bit = 2 << 2 * i, 1 << 2 * i
        new = ((x, len(arcs) + o),) if opens[i] and spare else None
        if o <= rest:
            push((i + 1, arcs, opened, otags, nest, skeleton, counts))
        if new and o < rest:
            push((i + 1, arcs, opened + new, otags + u, nest,
                  skeleton | open_bit, counts))
        for c, (l, before) in enumerate(opened if closes[i] else ()):
            counts_x = _bumped(counts, bump.get(otags[c] + u))
            arcs_x = arcs + ((l, x),)
            opened_x = opened[:c] + opened[c + 1:]
            otags_x = otags[:c] + otags[c + 1:]
            nest_x = nest + len(arcs) - before + c
            if o - 1 <= rest:
                push((i + 1, arcs_x, opened_x, otags_x, nest_x,
                      skeleton | close_bit, counts_x))
            if new and o - 1 < rest:
                push((i + 1, arcs_x, opened_x + new, otags_x + u, nest_x,
                      skeleton | close_bit | open_bit, counts_x))


def bell(n):
    """Bell number by the independent binomial recurrence."""
    from math import comb
    out = [1]
    for m in range(1, n + 1):
        out.append(sum(comb(m - 1, k) * out[k] for k in range(m)))
    return out[n]
