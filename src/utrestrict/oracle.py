"""Brute-force ground truth over small prime fields.

Enumerates the strictly upper-triangular algebra ut_N over F_p and finds the
two-sided Borel orbits (superclasses) by breadth-first search.  The moves
are the row and column operations of a minimal generating set of B: the
simple-root transvections I + E_(i,i+1) and, for p > 2, the scaling of each
diagonal entry by a primitive root.  A state is coded as its index in
itertools.product order, and a move adds to it an index delta read off the
state's digits.

Module traces use the Diaconis-Isaacs realisation of two modules: the
column-set module psi^K on strictly lower-triangular matrices and the
algebra ut_N itself, each with u acting on the left.  The vectors that u
fixes form an F_p-subspace F, the trace of psi^K is the cyclotomic sum of
theta(phi(v)) over F for a linear functional phi, and that sum is p^dim F
when phi vanishes on F and 0 otherwise; the trace on ut_N is |F|.  Both
dim F and the vanishing test are ranks found by Gaussian elimination mod p.
The enumerated cyclotomic sum stays in the tests as the witness of this
shortcut.  Everything here is independent of the closed-form engines, so
agreement is evidence.
"""

import functools
import itertools

from .setpart import GroundSet, SetPartition, bell


class BudgetExceeded(Exception):
    pass


class OracleInvariantError(RuntimeError):
    """The oracle found a result that contradicts the theory it enumerates."""


DEFAULT_BUDGET = 10 ** 7
SUPPORTED_PRIMES = (2, 3, 5)


def _check_prime(p):
    if p not in SUPPORTED_PRIMES:
        raise ValueError(f"p must be one of {SUPPORTED_PRIMES}, got {p!r}")


# --- matrix plumbing (tuples of tuples mod p) --------------------------------

def mat_mul(a, b, p):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) % p for j in range(n))
        for i in range(n))


def u_mu_matrix(mu, n):
    """Canonical superclass representative: Id plus the arc pattern."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for i, j in mu.arcs:
        m[i - 1][j - 1] = 1
    return tuple(tuple(row) for row in m)


def _primitive_root(p):
    """The least generator of the cyclic group F_p^*."""
    return next(g for g in range(1, p)
                if len({pow(g, k, p) for k in range(1, p)}) == p - 1)


def borel_generators(n, p):
    """A minimal generating set of the Borel subgroup B of GL_n(F_p), each
    element I + cE_(a,b) given as the 0-based triple (a, b, c): the n - 1
    simple-root transvections (i, i + 1, 1), which generate U_n(F_p), and,
    for p > 2, the scalings (i, i, g - 1) of each diagonal entry by a
    primitive root g mod p, which generate the torus because F_p^* is
    cyclic.  None can be left out: every product of the others has 0 at
    its (i, i + 1), or 1 at its (i, i)."""
    gens = [(i, i + 1, 1) for i in range(n - 1)]
    if p > 2:
        root = _primitive_root(p)
        gens += [(i, i, root - 1) for i in range(n)]
    return gens


class OrbitTable:
    __slots__ = ("n", "p", "orbits", "reps")

    def __init__(self, n, p, orbits, reps):
        self.n = n
        self.p = p
        self.orbits = orbits        # orbit id -> list of matrices
        self.reps = reps            # orbit id -> SetPartition


# --- superclass orbits ------------------------------------------------------
#
# A state is the flat vector of the strictly upper cells (i, j), i < j, in
# row-major order, coded as its index in itertools.product order: the first
# cell is the most significant base-p digit.  A generator g = I + cE_ab
# acts as x -> x + cE_ab x on the left and x -> x + x cE_ab on the right:
# left multiplication adds c times row b to row a, right multiplication
# adds c times column a to column b, and a diagonal generator (a = b)
# scales a row (left) or a column (right).  A move changes each target
# digit d_t to (d_t + c d_s) mod p, so it adds that change times
# p^(place of t) to the index.

def _move(gen, n, cells, left):
    """(target, source, coefficient) triples of x -> g x (left) or x -> x g
    for the generator g = I + cE_ab, gen = (a, b, c), on the flat vector
    over `cells`."""
    a, b, c = gen
    index = {cell: t for t, cell in enumerate(cells)}
    # (g x)_am gains c x_bm; (x g)_mb gains c x_ma
    pairs = [((a, m), (b, m)) if left else ((m, b), (m, a))
             for m in range(n)]
    return [(index[t], index[s], c) for t, s in pairs if s in index]


def _arc_patterns(n):
    """The arc sets on the 0-based points of [n] with distinct left ends and
    distinct right ends: the 0/1 states of the u_mu patterns."""
    def grow(i, arcs, rights):
        if i == n:
            yield arcs
            return
        yield from grow(i + 1, arcs, rights)
        for j in range(i + 1, n):
            if j not in rights:
                yield from grow(i + 1, arcs + [(i, j)], rights | {j})
    return grow(0, [], frozenset())


def superclass_orbits(n, p, budget=DEFAULT_BUDGET):
    """The B x B orbits on ut_N(F_p), found breadth-first from each state
    not yet reached, in itertools.product order, under the left and right
    moves of borel_generators.  Their closure is the whole orbit, because
    those elements generate B."""
    _check_prime(p)
    cells = [(i, j) for i in range(n) for j in range(i + 1, n)]
    states = p ** len(cells)
    if states > budget:
        raise BudgetExceeded(f"{states} states exceeds budget {budget}")
    place = [p ** k for k in reversed(range(len(cells)))]
    moves = [[(t, s, c, place[t]) for t, s, c in _move(g, n, cells, left)]
             for g in borel_generators(n, p) for left in (True, False)]
    digits = list(itertools.product(range(p), repeat=len(cells)))
    orbit_of = [-1] * states
    flat_orbits = []
    for start in range(states):
        if orbit_of[start] >= 0:
            continue
        oid = len(flat_orbits)
        orbit_of[start] = oid
        # the member list is the search's queue: the loop reaches what it
        # appends
        members = [start]
        for x in members:
            d = digits[x]
            for move in moves:
                y = x
                for t, s, c, w in move:
                    y += ((d[t] + c * d[s]) % p - d[t]) * w
                if orbit_of[y] < 0:
                    orbit_of[y] = oid
                    members.append(y)
        flat_orbits.append(members)
    if len(flat_orbits) != bell(n):
        raise OracleInvariantError(
            f"{len(flat_orbits)} orbits at n={n} p={p}, expected "
            f"Bell({n}) = {bell(n)}")
    patterns = [[] for _ in flat_orbits]
    at = dict(zip(cells, place))
    for arcs in _arc_patterns(n):
        patterns[orbit_of[sum(at[a] for a in arcs)]].append(arcs)
    # the matrix of every state in index order: row i is i + 1 zeros, then
    # its cells
    matrices = list(itertools.product(*(
        [(0,) * (i + 1) + row
         for row in itertools.product(range(p), repeat=n - 1 - i)]
        for i in range(n))))
    ground = GroundSet.range(n)
    orbits = []
    reps = []
    for members, found in zip(flat_orbits, patterns):
        if len(found) != 1:
            raise OracleInvariantError(
                f"orbit must contain exactly one u_mu pattern, "
                f"got {len(found)}")
        reps.append(SetPartition(ground, [(i + 1, j + 1)
                                          for i, j in found[0]]))
        orbits.append([matrices[x] for x in members])
    return OrbitTable(n, p, orbits, reps)


# --- module traces -----------------------------------------------------------
#
# A module is the span of a set of cells (0-based (row, column)) of a
# triangle: the strictly lower one for the column-set modules, the strictly
# upper one for ut_N.  u acts on the left by v -> v + a v, a = u - 1, cut
# back to the triangle, times the scalar theta(tr(a v)).  The fixed vectors
# are the kernel of v -> a v on the triangle, and the cyclotomic sum over
# them is p^dim when the trace functional vanishes on the kernel, else 0.

def _echelon(rows, p):
    """Row space mod p as {pivot column: row scaled to 1 there}; each row
    is zero at the pivots of the rows before it."""
    basis = {}
    for row in rows:
        row = _reduce(row, basis, p)
        pivot = next((k for k, x in enumerate(row) if x), None)
        if pivot is not None:
            inv = pow(row[pivot], -1, p)
            basis[pivot] = [x * inv % p for x in row]
    return basis


def _reduce(row, basis, p):
    for pivot, b in basis.items():
        c = row[pivot]
        if c:
            row = [(x - c * y) % p for x, y in zip(row, b)]
    return row


def _fixed_sum(a, cells, triangle, p, functional=True):
    """Sum of theta(tr(a v)) (or of 1, without the functional) over the v
    in the span of `cells` whose image a v vanishes on every cell of
    `triangle`."""
    # (a v)_rs = sum_k a_rk v_ks
    eqs = [[a[r][k] if t == s else 0 for k, t in cells]
           for r, s in triangle]
    basis = _echelon(eqs, p)
    # tr(a v) = sum_xy a_yx v_xy
    if functional and any(_reduce([a[y][x] for x, y in cells], basis, p)):
        return 0
    return p ** (len(cells) - len(basis))


# verify takes the trace of every module at each representative u: the
# cache builds u - 1 once per u, and holds a whole table's representatives
@functools.lru_cache(maxsize=256)
def _minus_identity(m, p):
    n = len(m)
    return tuple(tuple((m[i][j] - (i == j)) % p for j in range(n))
                 for i in range(n))


def module_trace(spec, u, p):
    """Trace of u in UT_N, N = len(u), on a concretely realized module, an
    integer.

    spec: ("psiK", K), K a set of 1-based column labels, or ("utAlgebra",).
    """
    _check_prime(p)
    n = len(u)
    match spec:
        case ("psiK", K):
            lower = [(i, j) for i in range(n) for j in range(i)]
            cells = [(i, j) for i, j in lower if j + 1 in K]
            return _fixed_sum(_minus_identity(u, p), cells, lower, p)
        case ("utAlgebra",):
            # u v = v on ut_N: the kernel of v -> (u - 1) v, no character
            upper = [(i, j) for i in range(n) for j in range(i + 1, n)]
            return _fixed_sum(_minus_identity(u, p), upper, upper, p,
                              functional=False)
    raise ValueError(f"unknown module spec {spec!r}")
