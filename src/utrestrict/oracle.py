"""Brute-force ground truth over small prime fields.

Enumerates the strictly upper-triangular algebra ut_N over F_p and finds the
two-sided Borel orbits (superclasses) by breadth-first search, each generator
acting as a row or column operation.  Module traces use the Diaconis-Isaacs
realisation of the modules on strictly lower-triangular matrices: the
vectors that u fixes form an F_p-subspace F, the trace is the cyclotomic sum
of theta(phi(v)) over F for a linear functional phi, and that sum is p^dim F
when phi vanishes on F and 0 otherwise.  Both dim F and the vanishing test
are ranks found by Gaussian elimination mod p.  The enumerated cyclotomic
sum stays in the tests as the witness of this shortcut.  Everything here is
independent of the closed-form engines, so agreement is evidence.
"""

import itertools

from .setpart import GroundSet, SetPartition, bell
from .scfcore import SuperclassFunction, decompose_at_prime


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


def identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def mat_inverse_unipotent(u, p):
    """Inverse of a unipotent upper-triangular matrix by back substitution."""
    n = len(u)
    x = identity(n)
    v = [list(row) for row in x]
    # solve u * v = Id column by column
    for col in range(n):
        for i in range(n - 1, -1, -1):
            s = sum(u[i][k] * v[k][col] for k in range(i + 1, n))
            v[i][col] = (int(i == col) - s) % p
    return tuple(tuple(row) for row in v)


def u_mu_matrix(mu, n):
    """Canonical superclass representative: Id plus the arc pattern."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for i, j in mu.arcs:
        m[i - 1][j - 1] = 1
    return tuple(tuple(row) for row in m)


def borel_generators(n, p):
    """Transvections and diagonal scalings generating the Borel subgroup."""
    gens = []
    for i in range(n):
        for j in range(i + 1, n):
            for c in range(1, p):
                m = [[int(a == b) for b in range(n)] for a in range(n)]
                m[i][j] = c
                gens.append(tuple(tuple(r) for r in m))
    for i in range(n):
        for a in range(2, p):
            m = [[int(r == s) for s in range(n)] for r in range(n)]
            m[i][i] = a
            gens.append(tuple(tuple(r) for r in m))
    return gens


class OrbitTable:
    __slots__ = ("n", "p", "orbit_of", "orbits", "reps")

    def __init__(self, n, p, orbit_of, orbits, reps):
        self.n = n
        self.p = p
        self.orbit_of = orbit_of    # matrix -> orbit id
        self.orbits = orbits        # orbit id -> list of matrices
        self.reps = reps            # orbit id -> SetPartition


# --- superclass orbits ------------------------------------------------------
#
# A state is the flat vector of the strictly upper cells (i, j), i < j, in
# row-major order.  A Borel element g acts as x -> x + (g - I) x on the left
# and x -> x + x (g - I) on the right, and g - I has one nonzero entry: left
# multiplication by I + cE_ij adds c times row j to row i, right
# multiplication adds c times column i to column j, and a diagonal generator
# scales a row (left) or a column (right).

def _move(g, cells, left):
    """(target, source, coefficient) triples of x -> g x (left) or x -> x g
    on the flat vector over `cells`."""
    index = {c: t for t, c in enumerate(cells)}
    n = len(g)
    out = []
    for a in range(n):
        for b in range(n):
            c = g[a][b] - (a == b)
            if not c:
                continue
            for m in range(n):
                # (g x)_am gains c x_bm; (x g)_mb gains c x_ma
                t, s = ((a, m), (b, m)) if left else ((m, b), (m, a))
                if s in index:
                    out.append((index[t], index[s], c))
    return out


def _arc_pattern(state, cells):
    """SetPartition arcs if the state is 0/1 with distinct rows/cols, else
    None."""
    arcs = []
    for (i, j), x in zip(cells, state):
        if x == 1:
            arcs.append((i + 1, j + 1))
        elif x:
            return None
    lefts = {a[0] for a in arcs}
    rights = {a[1] for a in arcs}
    if len(lefts) != len(arcs) or len(rights) != len(arcs):
        return None
    return arcs


def superclass_orbits(n, p, budget=DEFAULT_BUDGET):
    """BFS over ut_N under left/right Borel multiplication."""
    _check_prime(p)
    cells = [(i, j) for i in range(n) for j in range(i + 1, n)]
    states = p ** len(cells)
    if states > budget:
        raise BudgetExceeded(f"{states} states exceeds budget {budget}")
    moves = [_move(g, cells, left) for g in borel_generators(n, p)
             for left in (True, False)]
    seen = {}
    flat_orbits = []
    for start in itertools.product(range(p), repeat=len(cells)):
        if start in seen:
            continue
        oid = len(flat_orbits)
        stack = [start]
        seen[start] = oid
        members = [start]
        while stack:
            x = stack.pop()
            for move in moves:
                y = list(x)
                for t, s, c in move:
                    y[t] = (y[t] + c * x[s]) % p
                y = tuple(y)
                if y not in seen:
                    seen[y] = oid
                    members.append(y)
                    stack.append(y)
        flat_orbits.append(members)
    if len(flat_orbits) != bell(n):
        raise OracleInvariantError(
            f"{len(flat_orbits)} orbits at n={n} p={p}, expected "
            f"Bell({n}) = {bell(n)}")
    ground = GroundSet.range(n)
    orbit_of = {}
    orbits = []
    reps = []
    for oid, members in enumerate(flat_orbits):
        patterns = [a for a in (_arc_pattern(x, cells) for x in members)
                    if a is not None]
        if len(patterns) != 1:
            raise OracleInvariantError(
                f"orbit must contain exactly one u_mu pattern, "
                f"got {len(patterns)}")
        reps.append(SetPartition(ground, patterns[0]))
        matrices = [_upper_matrix(x, n) for x in members]
        orbit_of.update(dict.fromkeys(matrices, oid))
        orbits.append(matrices)
    return OrbitTable(n, p, orbit_of, orbits, reps)


def _upper_matrix(state, n):
    """The matrix of a flat state: row i is i + 1 zeros, then its cells."""
    rows = []
    k = 0
    for i in range(n):
        rows.append((0,) * (i + 1) + state[k:k + n - 1 - i])
        k += n - 1 - i
    return tuple(rows)


# --- module traces -----------------------------------------------------------
#
# A module is the span of a set of cells (0-based (row, column)) of a
# triangle: the strictly lower one for the column- and row-set modules, the
# strictly upper one for ut_N.  u acts by v -> v + a v (left, a = u - 1) or
# v -> v + v a (right, a = u^-1 - 1), cut back to the triangle, times the
# scalar theta(tr(a v)) = theta(tr(v a)).  The fixed vectors are the kernel
# of v -> (a v) or (v a) on the triangle, and the cyclotomic sum over them
# is p^dim when the trace functional vanishes on the kernel, else 0.

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


def _fixed_sum(a, cells, triangle, p, left=True, functional=True):
    """Sum of theta(tr(a v)) (or of 1, without the functional) over the v
    in the span of `cells` whose image a v (left) or v a (right) vanishes
    on every cell of `triangle`."""
    if left:
        # (a v)_rs = sum_k a_rk v_ks
        eqs = [[a[r][k] if t == s else 0 for k, t in cells]
               for r, s in triangle]
    else:
        # (v a)_rs = sum_k v_rk a_ks
        eqs = [[a[k][s] if t == r else 0 for t, k in cells]
               for r, s in triangle]
    basis = _echelon(eqs, p)
    # tr(a v) = sum_xy a_yx v_xy
    if functional and any(_reduce([a[y][x] for x, y in cells], basis, p)):
        return 0
    return p ** (len(cells) - len(basis))


def _minus_identity(m, p):
    n = len(m)
    return tuple(tuple((m[i][j] - (i == j)) % p for j in range(n))
                 for i in range(n))


def module_trace(spec, u, p, n):
    """Trace of u in UT_N on a concretely realized module, an integer.

    spec: ("psiK", K) | ("psiHook", K, J) | ("regular",) | ("utAlgebra",)
        | ("flippedK", K), with K, J sets of 1-based labels.
    """
    _check_prime(p)
    kind = spec[0]
    lower = [(i, j) for i in range(n) for j in range(i)]
    if kind == "regular":
        spec = ("psiK", frozenset(range(1, n + 1)))
        kind = "psiK"
    if kind == "psiK":
        K = set(spec[1])
        cells = [(i, j) for i, j in lower if j + 1 in K]
        return _fixed_sum(_minus_identity(u, p), cells, lower, p)
    if kind == "psiHook":
        K, J = set(spec[1]), sorted(set(spec[2]))
        a = _minus_identity(u, p)
        # row support exactly J: inclusion-exclusion over the subspaces
        # with row support inside each J' of J
        value = 0
        for r in range(len(J) + 1):
            for rows in itertools.combinations(J, r):
                cells = [(i, j) for i, j in lower
                         if j + 1 in K and i + 1 in rows]
                value += (-1) ** (len(J) - r) * _fixed_sum(
                    a, cells, lower, p)
        return value
    if kind == "flippedK":
        R = set(spec[1])
        cells = [(i, j) for i, j in lower if i + 1 in R]
        a = _minus_identity(mat_inverse_unipotent(u, p), p)
        return _fixed_sum(a, cells, lower, p, left=False)
    if kind == "utAlgebra":
        # u v = v on ut_N: the kernel of v -> (u - 1) v, no character
        upper = [(i, j) for i in range(n) for j in range(i + 1, n)]
        return _fixed_sum(_minus_identity(u, p), upper, upper, p,
                          functional=False)
    raise ValueError(f"unknown module spec {spec!r}")


def numeric_decompose(values, p, ground):
    """Solve sum_nu c_nu chi^nu(u_mu)|q=p = values[mu] exactly over Q.

    values: map SetPartition -> int.
    """
    return decompose_at_prime(SuperclassFunction(ground, values), p)
