"""Closed-form decomposition engines for supercharacter restrictions.

Each engine turns one family of modules (column-set, hook, core, rainbow,
peel, double rainbow, onion, the strictly-upper-triangular algebra) into an
explicit coefficient map, either over the supercharacter basis or over a
coarser module basis.  Engines emit coefficients only; the isomorphisms
themselves are witnessed by the brute-force oracle at small sizes.
"""

import itertools
from collections import namedtuple
from math import comb

from .qcalc import (
    QPoly, ZERO, ONE, Q_MINUS_1, InexactDivision, e_k, qphi, qmultinom, qint,
    packing, laurent_sum, unpack,
)
from .setpart import (
    SetPartition, ArcMultiset, EnumerationBoundExceeded, MAX_PARTITIONS,
    enumerate_partitions, depth_vector, nst, nst_points, wt_up,
)
from .nestposet import block_poset, poset_binom, poset_multinom
from .scfcore import Decomposition


class ModuleLabel(namedtuple("ModuleLabel", "kind payload")):
    """Hashable tag for a non-supercharacter basis element: its kind and a
    tuple payload."""

    __slots__ = ()

    @staticmethod
    def _set_text(s):
        return "{" + ",".join(str(x) for x in sorted(s)) + "}"

    def __str__(self):
        if self.kind == "core":
            return f"V^{self.payload[0]}"
        if self.kind == "psiK":
            return "V^" + self._set_text(self.payload[0])
        if self.kind == "rowK":
            return "W^" + self._set_text(self.payload[0])
        if self.kind == "hook":
            cols, rows = self.payload
            return f"V^[{self._set_text(cols)}<-{self._set_text(rows)}]"
        if self.kind == "peel_rainbow":
            b, f, mm = self.payload
            return f"V^({b};{f})xRainbow({mm})"
        if self.kind == "onion":
            bs, fs = self.payload
            btxt = ",".join(str(x) for x in bs)
            ftxt = ",".join(str(x) for x in fs)
            return f"V^(b={btxt};f={ftxt})"
        return f"{self.kind}{self.payload}"


def _shift_signed(poly, e):
    """Multiply by q^e; for e < 0 the division must be exact, else
    InexactDivision is raised."""
    if e >= 0:
        return poly.shift(e)
    if any(poly.coeffs[:-e]):
        raise InexactDivision(f"{poly} is not divisible by q^{-e}")
    return QPoly(poly.coeffs[-e:])


def _superchars(ground, base, max_arcs=None, weight=None, bound=None):
    """The supercharacter decomposition whose coefficient at each partition
    lam that enumerate_partitions(ground, max_arcs, weight, bound) yields is
    q^nst(lam, lam) times q^e poly, where (poly, e) = base(lam, skeleton)
    and skeleton is lam's skeleton from the scan; every other coefficient is
    zero.  weight(i, j) is None for an arc no such lam holds and otherwise 0
    or 1 (the scan's lower-end prune counts at most one arc per left
    endpoint), and bound = (lo, hi) limits the weight sum of lam (None: no
    limit): so the scan skips partitions whose coefficient would be zero,
    as peel's without exactly b arcs from N_< to N_>.

    base may read lam only through L(lam), R(lam) and the weight sum of its
    arcs, which the skeleton encodes, and runs once per skeleton of the
    scan.  For the double rainbow the weight sum is the number of arcs
    outside N_=: with L(lam) and R(lam) fixed, that number fixes every
    region count (arcs into N_= start in N_< or N_=, arcs out of N_= end in
    N_= or N_>, and arcs into N_< start there).

    Partitions whose base polynomial and total shift agree share one
    coefficient object: few distinct ones occur among many partitions."""
    memo = {}
    shifted = {}    # (id of a base polynomial, shift) -> coefficient
    coeffs = {}
    for lam, nest, skeleton in enumerate_partitions(ground, max_arcs, weight,
                                                    bound):
        got = memo.get(skeleton)
        if got is None:
            got = memo[skeleton] = base(lam, skeleton)
        poly, e = got
        if poly.coeffs:
            # memo keeps every base polynomial alive, so no id is reused
            at = (id(poly), e + nest)
            coeff = shifted.get(at)
            if coeff is None:
                coeff = shifted[at] = _shift_signed(poly, e + nest)
            coeffs[lam] = coeff
    return Decomposition("supercharacter", coeffs)


def _subsets(pool, size=None):
    pool = sorted(pool)
    if size is not None:
        return [frozenset(c) for c in itertools.combinations(pool, size)]
    out = []
    for r in range(len(pool) + 1):
        out.extend(frozenset(c) for c in itertools.combinations(pool, r))
    return out


# --- column-set and hook modules --------------------------------------------

class PsiKModule:
    """The left module with basis the strictly-lower matrices supported on
    columns K; trivial for K empty, regular for K = N."""

    __slots__ = ("ground", "K")

    def __init__(self, ground, K):
        K = frozenset(K)
        if not all(x in ground for x in K):
            raise ValueError(f"column set {sorted(K)} not inside {tuple(ground)}")
        self.ground = ground
        self.K = K

    def value(self, mu):
        """Trace at the canonical superclass representative u_mu."""
        L = mu.left_endpoints()
        if L & self.K:
            return ZERO
        pool = [x for x in self.ground if x not in L]
        return QPoly.q_pow(wt_up(self.K, pool))

    def _base(self, lam, skeleton):
        return ONE, nst_points(lam, self.K - lam.left_endpoints())

    def decomposition(self):
        # the coefficient vanishes unless L(lam) lies inside K, so lam has
        # at most |K| arcs
        return _superchars(self.ground, self._base, len(self.K),
                           lambda i, j: 0 if i in self.K else None)


def psiK(ground, K):
    return PsiKModule(ground, K)


def psi_hook(ground, K, J):
    """Supercharacter coefficients of the right-endpoint submodule with
    column support in K and right endpoints exactly J."""
    K, J = frozenset(K), frozenset(J)
    if not (all(x in ground for x in K) and all(x in ground for x in J)):
        raise ValueError("hook parameters must sit inside the ground set")
    # the psiK coefficients of the partitions with R(lam) = J: those with
    # |J| arcs, each from K to J
    return _superchars(ground, PsiKModule(ground, K)._base, len(J),
                       lambda i, j: 1 if i in K and j in J else None,
                       (len(J), len(J)))


# --- core modules -----------------------------------------------------------

class CoreModule:
    """Direct sum of the column-set modules over all k-subsets of N."""

    __slots__ = ("ground", "k")

    def __init__(self, ground, k):
        self.ground = ground
        self.k = k

    def value(self, mu):
        return e_k(tuple(range(len(self.ground) - len(mu))), self.k)

    def decomposition(self):
        n = len(self.ground)

        def base(lam, skeleton):
            return e_k(depth_vector(skeleton, n), self.k - len(lam)), 0

        if self.k > n:
            # the module is zero; a scan would only find zero coefficients
            return Decomposition("supercharacter", {})
        return _superchars(self.ground, base, self.k)


def core(ground, k):
    return CoreModule(ground, k)


def core_tensor(j, k, n):
    """Core-basis coefficients of the tensor product of two core modules:
    maps m to the coefficient of the core module of size k+m."""
    if not 0 <= j <= k <= n:
        raise ValueError(f"core_tensor needs 0 <= j <= k <= n: {(j, k, n)}")
    out = {}
    for m in range(j + 1):
        out[m] = qmultinom(k + m, (k + m - j, m, j - m)).shift(comb(j - m, 2))
    return out


# --- rainbow ----------------------------------------------------------------

def rainbow(ground, m, target):
    """Restriction of the m-fold parallel-arc multiset spanning N.

    target "core": coefficients of the core modules; target "superchars":
    coefficients of the supercharacters.
    """
    if m < 0:
        raise ValueError(f"rainbow needs m >= 0: {m}")
    n = len(ground)
    if target == "core":
        coeffs = {}
        for k in range(min(m, n) + 1):
            coeffs[ModuleLabel("core", (k,))] = \
                (Q_MINUS_1 ** m) * qphi(m, k)
        return Decomposition("core", coeffs)
    if target == "superchars":
        sign = Q_MINUS_1 ** m
        sums = {}   # the sum below depends on lam through its weights only

        def base(lam, skeleton):
            # one weight per block, so the weights also fix |lam|; e_k of
            # the n - |lam| weights is 0 past k = n
            weights = depth_vector(skeleton, n)
            got = sums.get(weights)
            if got is None:
                got = sums[weights] = laurent_sum(
                    ((sign, qphi(m, k), e_k(weights, k - len(lam))), 0)
                    for k in range(len(lam), min(m, n) + 1))
            return got

        return _superchars(ground, base, m)
    raise ValueError(f"unknown rainbow target {target!r}")


# --- interference -----------------------------------------------------------

def interference(ground, k_minus, k_plus, K, ell, mode, nu=None, J=None):
    """Decompositions of a partition module tensored with an anchored
    rainbow, in the presence of interfering arcs nu.

    mode "psi": coefficients of the column-set modules of UT_K.
    mode "superchars_a": coefficients of hook modules for the tensor with a
    single column-set module with columns J (requires J).
    mode "superchars_b": supercharacter coefficients of UT_K (requires nu a
    set partition).
    """
    K = frozenset(K)
    kbar = frozenset(x for x in ground if k_minus < x < k_plus)
    if not (k_minus in ground and k_plus in ground and k_minus < k_plus):
        raise ValueError("the anchors must lie in the ground set, in order")
    if not K <= kbar:
        raise ValueError("K must sit inside the open anchor interval")
    if nu is None:
        nu = ArcMultiset(ground, ())

    if mode == "psi":
        if any(i in kbar and j in kbar for i, j in nu.arcs):
            raise ValueError("nu may not have arcs inside the anchor interval")
        XL = nu.left_endpoints() & K
        pref = ell * len(kbar - K)
        coeffs = {}
        for size in range(min(ell, len(K - XL)) + 1):
            for Jp in _subsets(K - XL, size):
                e = pref + wt_up(XL, Jp) + (ell - size) * len(XL)
                coeffs[ModuleLabel("psiK", (Jp,))] = \
                    ((Q_MINUS_1 ** ell) * qphi(ell, size)).shift(e)
        return Decomposition("psiK", coeffs)

    if mode == "superchars_a":
        if J is None:
            raise ValueError("mode superchars_a needs J")
        J = frozenset(J)
        if kbar != K:
            raise ValueError("anchor interval must be exactly K here")
        if any(i in K and j in K for i, j in nu.arcs):
            raise ValueError("nu may not have arcs inside K")
        XR = nu.right_endpoints() & K
        coeffs = {}
        for size in range(len(J) + 1):
            for I in _subsets(K - XR, size):
                for Jp in _subsets(J, size):
                    rest = J - Jp
                    e = (wt_up(I, XR) + wt_up(rest, XR)
                         + wt_up(rest, I) - wt_up(rest, Jp))
                    label = ModuleLabel("hook", (Jp, I))
                    if e < 0:
                        # only admissible when the hook module vanishes
                        if psi_hook(ground.subset(K), Jp, I).coeffs:
                            raise ArithmeticError(
                                "negative exponent on a nonzero hook module")
                        continue
                    coeffs[label] = QPoly.q_pow(e)
        return Decomposition("psiHook", coeffs)

    if mode == "superchars_b":
        if not isinstance(nu, SetPartition):
            raise ValueError("mode superchars_b needs a set partition nu")
        if kbar != K:
            raise ValueError("anchor interval must be exactly K here")
        if any(i in K and j in K for i, j in nu.arcs):
            raise ValueError("nu may not have arcs inside K")
        XL = nu.left_endpoints() & K
        npr = sum(1 for i, j in nu.arcs
                  if all(i < x < j for x in K))
        sign = Q_MINUS_1 ** ell

        def base(lam, skeleton):
            # nst(nu, lam) reads L(lam) and R(lam) only: no arc of nu has
            # both ends in K, so one nests over all arcs of lam, none, those
            # opened after its left end in K, or those closed before its
            # right end in K
            union = SetPartition(ground, nu.arcs + lam.arcs)
            P = block_poset(union)
            blR = [b for b in P if b[1] in K]
            outer = nst(nu, lam)
            return laurent_sum(
                ((sign, qphi(ell, l),
                  poset_multinom(P, [(l - len(lam), blR)])),
                 outer + (ell - l) * len(XL) - l * npr)
                # the multinomial is 0 once l - |lam| passes the blocks of blR
                for l in range(len(lam), min(ell, len(lam) + len(blR)) + 1))

        # lam shares no left endpoint and no right endpoint with nu, so
        # their union is a partition
        L, R = nu.left_endpoints(), nu.right_endpoints()
        return _superchars(ground.subset(K), base, ell,
                           lambda i, j: None if i in L or j in R else 0)

    raise ValueError(f"unknown interference mode {mode!r}")


# --- peel, double rainbow, onion --------------------------------------------

def _peel_pool(P, region):
    """The blocks of P that end in N_< or start in N_>."""
    return [b for b in P if region[b[1]] == "<" or region[b[0]] == ">"]


def peel(split, b, f):
    """Supercharacter coefficients of the peel module with crossing rank b
    and total rank bound f."""
    a, c = len(split.n_lt), len(split.n_gt)
    if not (0 <= b <= min(a, c) and b <= f <= a + c):
        raise ValueError(f"peel parameters (b={b}, f={f}) out of range")

    def base(nu, skeleton):
        return poset_binom(_peel_pool(block_poset(nu), region),
                           f - len(nu)), 0

    # the coefficient vanishes unless nu has exactly b arcs from N_< to N_>
    # and none inside N_=
    region = split.region

    def weight(i, j):
        arc = region[i] + region[j]
        return None if arc == "==" else int(arc == "<>")

    return _superchars(split.inner, base, f, weight, (b, b))


def _anchor_prefactor(pairs, ms):
    """Exponent of the anchors nested under the rainbows: m_j for each
    anchor lying strictly inside anchor pair j."""
    anchors = {x for pair in pairs for x in pair}
    return sum(m * sum(1 for x in anchors if lo < x < hi)
               for (lo, hi), m in zip(pairs, ms))


def double_rainbow(split, m, ell, target):
    """Restriction of the double rainbow (m outer arcs, ell inner arcs).

    target "peel": coefficients of peel-module tensor rainbow summands;
    target "superchars": supercharacter coefficients over the inner ground;
    target "trivial_coeff": the coefficient of the trivial supercharacter.
    """
    if m < 0 or ell < 0:
        raise ValueError(f"double_rainbow needs m, ell >= 0: {(m, ell)}")
    a, c = len(split.n_lt), len(split.n_gt)
    pre = _anchor_prefactor(
        [(split.n_mm, split.n_pp), (split.n_m, split.n_p)], [m, ell])

    if target == "peel":
        coeffs = {}
        for f in range(min(m, a + c) + 1):
            for b in range(min(f, a, c) + 1):
                label = ModuleLabel("peel_rainbow", (b, f, m - f + ell))
                coeffs[label] = ((Q_MINUS_1 ** f) * qphi(m, f)) \
                    .shift(pre + (m - f) * b)
        return Decomposition("peel", coeffs)

    sign = Q_MINUS_1 ** (m + ell)
    region = split.region
    sums = {}   # (region counts, sorted pool weights) -> (poly, e)

    def base(gam, skeleton):
        counts = split.region_counts(gam)
        g_eq = counts["=="]
        g_neq = len(gam) - g_eq
        le_gt = counts["<>"] + counts["=>"]
        P = block_poset(gam)
        # poset_multinom(P, pools) as one e_k factor per disjoint pool, each
        # on the pool's sorted block weights
        w1 = tuple(sorted(b[2] for b in _peel_pool(P, region)))
        w2 = tuple(sorted(b[2] for b in P if region[b[1]] == "="))
        key = g_eq, g_neq, counts["=>"], le_gt, w1, w2
        got = sums.get(key)
        if got is None:
            # e_k of a pool is 0 past its size
            poly, e = laurent_sum(
                ((sign, qphi(m, f), qphi(m - f + ell, l),
                  e_k(w1, f - g_neq), e_k(w2, l - g_eq)),
                 ell * counts["=>"] + (m - f - l) * le_gt)
                for f in range(g_neq, min(m, g_neq + len(w1)) + 1)
                for l in range(g_eq, min(m - f + ell, g_eq + len(w2)) + 1))
            got = sums[key] = poly, e + pre
        return got

    if target == "superchars":
        # more than m arcs outside N_= leave the f range of base empty, and
        # more than m + ell arcs in all the l range
        return _superchars(split.inner, base, m + ell,
                           lambda i, j: int(region[i] + region[j] != "=="),
                           (0, m))

    if target == "trivial_coeff":
        empty = SetPartition(split.inner, ())
        poly, e = base(empty, 0)
        return Decomposition("supercharacter",
                             {empty: _shift_signed(poly, e)})

    raise ValueError(f"unknown double_rainbow target {target!r}")


def onion(ground, anchors, ms):
    """Coefficients of the onion modules in the iterated restriction of
    nested rainbow multisets: m_j arcs on the j-th (lo, hi) pair of
    `anchors`.  Layer 0 is `ground`, strictly inside the outermost pair;
    layer j is the points of layer j-1 strictly inside pair j, less every
    anchor.  Raises ValueError when the pairs do not nest or a layer is
    empty."""
    k = len(anchors)
    if not k or len(ms) != k:
        raise ValueError("wants one m per anchor pair, and at least one pair")
    if min(ms) < 1:
        raise ValueError(f"every m must be at least 1: {list(ms)}")
    lo, hi = anchors[0]
    if not all(lo < x < hi for x in ground):
        raise ValueError("the ground set must lie strictly inside the "
                         "outermost anchor pair")
    for (plo, phi), (lo, hi) in zip(anchors, anchors[1:]):
        if not plo <= lo < hi <= phi:
            raise ValueError("each anchor pair must nest inside the one "
                             "before it")
    every = {x for pair in anchors for x in pair}
    layers = [list(ground)]
    for lo, hi in anchors[1:]:
        layers.append([x for x in layers[-1]
                       if lo < x < hi and x not in every])
    for j, layer in enumerate(layers):
        if not layer:
            raise ValueError(f"anchor layer {j + 1} has empty ground")
    # (b cap, f cap) of each layer: the side regions of a layer around the
    # next pair bound the crossing rank b and the rank f; the innermost
    # layer has b = 0
    caps = []
    for layer, (lo, hi) in zip(layers, anchors[1:]):
        a = sum(1 for x in layer if x < lo)
        c = sum(1 for x in layer if x > hi)
        caps.append((min(a, c), a + c))
    caps.append((0, len(layers[-1])))
    sign = (Q_MINUS_1 ** sum(ms)).shift(_anchor_prefactor(anchors, ms))
    coeffs = {}

    def rec(j, top, bs, fs, tops):
        # top: the arcs reaching layer j, the m's so far less the f's
        # peeled off before
        if j == k:
            bsum = list(itertools.accumulate(reversed(bs)))[::-1]
            poly = sign
            for m, f, t, b in zip(ms, fs, tops, bsum):
                poly = poly * qphi(t, f).shift((m - f) * b)
            coeffs[ModuleLabel("onion", (bs, fs))] = poly
            return
        top += ms[j]
        bcap, fcap = caps[j]
        for f in range(min(top, fcap) + 1):
            for b in range(min(f, bcap) + 1):
                rec(j + 1, top - f, bs + (b,), fs + (f,), tops + (top,))

    rec(0, 0, (), (), ())
    return Decomposition("onion", coeffs)


# --- the strictly-upper-triangular algebra ----------------------------------

class UtAlgebra:
    """The span of the strictly upper-triangular matrices as a left module."""

    __slots__ = ("ground",)

    def __init__(self, ground):
        if not len(ground):
            raise ValueError("the ut-algebra needs a nonempty ground set")
        self.ground = ground

    def trace(self, mu):
        """Fixed-point count of u_mu acting by left multiplication."""
        n = len(self.ground)
        e = comb(n, 2) - sum(
            sum(1 for c in self.ground if c > j) for _, j in mu.arcs)
        return QPoly.q_pow(e)

    def row_module_value(self, A, mu):
        """Trace of the row-set module W^A at u_mu.

        W^A is the mirror of the column-set module: it vanishes on
        superclasses with a right endpoint in A.  Its value is obtained by
        transporting the column-set value through the order-reversing map.
        """
        A = frozenset(self.ground.w0(a) for a in A)
        return PsiKModule(self.ground, A).value(mu.dagger())

    def core_style(self):
        """Row-set module coefficients of the full auxiliary tensor product
        of the |N| single-arc modules realizing this trace: at row set A,
        q^C(n,2) (q-1)^(n+|A|) times the product over x in A of
        [1 + #(points right of x outside A)], one packed product.  Its
        2^n row sets are held to the scan's budget, MAX_PARTITIONS."""
        n = len(self.ground)
        if 1 << n > MAX_PARTITIONS:
            raise EnumerationBoundExceeded(
                f"2^{n} row sets of {n} points > bound {MAX_PARTITIONS}")
        labels = sorted(self.ground)
        signs = [Q_MINUS_1 ** e for e in range(n, 2 * n + 1)]
        qints = [qint(w) for w in range(n + 1)]
        coeffs = {}
        for A in _subsets(labels):
            rest = [x for x in labels if x not in A]
            poly, e = laurent_sum([(
                (signs[len(A)],
                 *(qints[1 + sum(1 for c in rest if c > x)] for x in A)),
                comb(n, 2))])
            coeffs[ModuleLabel("rowK", (A,))] = poly.shift(e)
        return Decomposition("rowK", coeffs)

    def superchar_decomposition(self):
        """The coefficient of lam is q^nst(lam, lam) times the sum, over
        the row sets A that contain R(lam) and miss the top point, of the
        product over x in A of (q^w(x) - 1) q^(arcs of lam over x, for x
        outside R(lam)), where w(x) counts the points right of x outside A.
        The sum reads L(lam) and R(lam) only.  One right-to-left pass:
        by[w] sums the choices so far that leave w points outside A.  It
        runs at q = 2^K (qcalc.pack): each of its n - 1 steps makes at most
        3 signed terms of one, so the sum's l1 norm, a bound on its
        coefficients, is at most 3^(n-1): K = qcalc.packing(3^(n-1))."""
        rest = self.ground[:-1]
        K = packing(3 ** (len(self.ground) - 1))

        def base(lam, skeleton):
            R = lam.right_endpoints()
            by = {1: 1}
            for x in reversed(rest):
                step = {}
                lift = 0 if x in R else K * nst_points(lam, (x,))
                for w, v in by.items():
                    step[w] = step.get(w, 0) + (((v << K * w) - v) << lift)
                    if x not in R:
                        step[w + 1] = step.get(w + 1, 0) + v
                by = step
            return unpack(sum(by.values()), K), 0

        # A holds R(lam) and misses the top point: an arc of lam ending
        # there makes the coefficient zero
        top = self.ground[-1]
        return _superchars(self.ground, base, None,
                           lambda i, j: None if j == top else 0)


def ut_algebra(ground):
    return UtAlgebra(ground)
