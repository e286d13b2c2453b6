"""Arc-form set partitions over ordered ground sets.

A set partition here is a set of arcs (i, j), i < j, with pairwise distinct
left endpoints and pairwise distinct right endpoints; a block is a maximal
chain of arcs.  Statistics (nestings, weights), the uncrossing map, the
dagger involution and enumeration by a left-to-right arc scan all live here,
together with the region geometry used by the double-rainbow and onion
engines.
"""


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
        return " ".join(f"{i}-{j}" for i, j in sorted(self.arcs)) or "()"

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
                 "n_lt", "n_eq", "n_gt")

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


def region_select(lam, split, alpha, beta):
    """_alpha lam _beta: arcs with left endpoint in N_alpha, right in N_beta.

    alpha/beta are region tags "<", "=", ">", or "<=" / "=>" style unions
    written as strings of tags, e.g. "<=" means N_< union {n_-} union N_=.
    """

    def members(tag):
        out = set()
        if "<" in tag:
            out |= set(split.n_lt)
        if "=" in tag:
            out |= set(split.n_eq)
        if ">" in tag:
            out |= set(split.n_gt)
        return out

    A, B = members(alpha), members(beta)
    arcs = [a for a in arcs_of(lam) if a[0] in A and a[1] in B]
    if isinstance(lam, SetPartition):
        return SetPartition(lam.ground, arcs)
    return ArcMultiset(lam.ground, arcs)


# --- enumeration -----------------------------------------------------------

def from_blocks(ground, blocks):
    """The partition with the given blocks: consecutive pairs inside each
    sorted block are its arcs."""
    arcs = []
    for b in blocks:
        b = sorted(b)
        arcs.extend(zip(b, b[1:]))
    return SetPartition(ground, arcs)


# the largest ground set that enumerate_partitions sweeps (Bell(10) = 115975)
MAX_GROUND = 10


def enumerate_partitions(ground, max_arcs=None):
    """Every partition of `ground` with at most max_arcs arcs (all of S_N if
    None), each once.

    A left-to-right scan of the arc diagram: each point may close one open
    arc and may open one.  A branch stops when its arcs would exceed
    max_arcs, or when more arcs are open than points are left to close them.
    """
    labels = tuple(ground)
    n = len(labels)
    if n > MAX_GROUND:
        raise EnumerationBoundExceeded(f"|ground| = {n} > bound {MAX_GROUND}")
    arcs = []
    opened = []     # left endpoints of the open arcs

    def scan(i, spare):
        # spare: arcs that may still be opened
        if i == n:
            yield SetPartition(ground, arcs)
            return
        x, rest = labels[i], n - i - 1
        for c in range(-1, len(opened)):
            if c >= 0:
                arcs.append((opened.pop(c), x))
            if len(opened) <= rest:
                yield from scan(i + 1, spare)
            if spare > 0 and len(opened) < rest:
                opened.append(x)
                yield from scan(i + 1, spare - 1)
                opened.pop()
            if c >= 0:
                opened.insert(c, arcs.pop()[0])

    spare = n if max_arcs is None else max_arcs
    if spare >= 0:
        yield from scan(0, spare)


def bell(n):
    """Bell number by the independent binomial recurrence."""
    from math import comb
    out = [1]
    for m in range(1, n + 1):
        out.append(sum(comb(m - 1, k) * out[k] for k in range(m)))
    return out[n]
