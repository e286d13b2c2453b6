"""Brute-force ground truth over small prime fields.

Enumerates the strictly upper-triangular algebra ut_N over F_p and finds the
two-sided Borel orbits (superclasses) by breadth-first search.  The moves
are the row and column operations of a minimal generating set of B: the
simple-root transvections I + E_(i,i+1) and, for p > 2, the scaling of each
diagonal entry by a primitive root.  A state is coded as its index in
itertools.product order, a move adds to it an index delta read off the
state's digits, and an orbit is the list of its states' indices.  Each
search starts from the u_mu pattern of a partition of setpart's scan, and
the scan must be a transversal: a start in an earlier orbit, or orbits
that miss a state, mean it drops, repeats or invents a partition.

Module traces use the Diaconis-Isaacs realisation of two modules: the
column-set module psi^K on strictly lower-triangular matrices and the
algebra ut_N itself, each with u acting on the left.  The vectors that u
fixes form an F_p-subspace F, the trace of psi^K is the cyclotomic sum of
theta(phi(v)) over F for a linear functional phi, p^dim F when phi
vanishes on F and 0 otherwise, and the trace on ut_N is |F|.  F and phi
split by column, so both traces are read off the ranks mod p of the 2n + 2
principal blocks of u - 1, found once per u.  The enumerated cyclotomic
sum stays in the tests as the witness of this shortcut.  Everything here
is independent of the closed-form engines, so agreement is evidence.
"""

import functools
import itertools
from collections import namedtuple

from .setpart import GroundSet, EnumerationBoundExceeded, enumerate_partitions


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


# orbit i lists its state indices in orbits[i]; reps[i] is its partition
OrbitTable = namedtuple("OrbitTable", "n p orbits reps")


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


def superclass_orbits(n, p, budget=DEFAULT_BUDGET):
    """The B x B orbits on ut_N(F_p), in scan order, each found
    breadth-first from a partition's u_mu pattern (digits 1 at its arcs)
    under the moves of borel_generators, whose closure is the whole orbit
    because they generate B.  A start already seen, or orbits that miss a
    state, raise OracleInvariantError."""
    _check_prime(p)
    cells = [(i, j) for i in range(n) for j in range(i + 1, n)]
    states = p ** len(cells)
    if states > budget:
        raise EnumerationBoundExceeded(
            f"{states} states exceeds budget {budget}")
    place = [p ** k for k in reversed(range(len(cells)))]
    moves = [[(t, s, c, place[t]) for t, s, c in _move(g, n, cells, left)]
             for g in borel_generators(n, p) for left in (True, False)]
    digits = list(itertools.product(range(p), repeat=len(cells)))
    at = {(i + 1, j + 1): w for (i, j), w in zip(cells, place)}
    reps = [mu for mu, _, _ in enumerate_partitions(GroundSet.range(n))]
    seen = bytearray(states)
    orbits = []
    for mu in reps:
        start = sum(at[arc] for arc in mu.arcs)
        if seen[start]:
            raise OracleInvariantError(
                f"u_mu of {mu.label()} lies in the orbit of an earlier "
                "partition")
        seen[start] = 1
        # members is the search's queue: the loop reaches what it appends
        members = [start]
        for x in members:
            d = digits[x]
            for move in moves:
                y = x
                for t, s, c, w in move:
                    y += ((d[t] + c * d[s]) % p - d[t]) * w
                if not seen[y]:
                    seen[y] = 1
                    members.append(y)
        orbits.append(members)
    covered = sum(map(len, orbits))
    if covered != states:
        raise OracleInvariantError(
            f"the orbits of the {len(reps)} u_mu patterns cover {covered} "
            f"of the {states} states at n={n} p={p}")
    return OrbitTable(n, p, orbits, reps)


# --- module traces -----------------------------------------------------------
#
# u acts on the left by v -> v + a v, a = u - 1, cut back to the module's
# triangle, times theta(tr(a v)) on psi^K.  a is strictly upper triangular,
# so (a v)_rs = sum_k a_rk v_ks reads only column s of v (0-based), and the
# fixed vectors and tr(a v) split by column.  On psi^K, column s = k - 1
# for k in K has the unknowns v_ks, k > s, and the equations of rows r > s:
# matrix a[s+1:, s+1:].  tr(a v) there is the row a[s][s+1:], which
# vanishes on the kernel iff it is in the row space of a[s+1:, s+1:], iff
# rank a[s:, s:] = rank a[s+1:, s+1:] (column s of a[s:, s:] is 0).  The
# sum is the product over the columns: 0 if one fails, else p^(sum of
# n - 1 - s - rank a[s+1:, s+1:]).  On ut_N, column s has the unknowns
# v_ks, k < s, and matrix a[:s, :s]: the trace is p^(sum of s - rank).

def _rank(rows, p):
    """Rank mod p: each row is reduced by the rows kept before it, each
    kept row scaled to 1 at its pivot and zero at the earlier pivots."""
    basis = {}
    for row in rows:
        for pivot, b in basis.items():
            c = row[pivot]
            if c:
                row = [(x - c * y) % p for x, y in zip(row, b)]
        pivot = next((k for k, x in enumerate(row) if x), None)
        if pivot is not None:
            inv = pow(row[pivot], -1, p)
            basis[pivot] = [x * inv % p for x in row]
    return len(basis)


# verify traces every module at each representative u, module by module:
# the cache finds the ranks once per u, so it holds one command's whole
# grid, unbounded, since a smaller LRU evicts each u before its next module
@functools.cache
def _block_ranks(u, p):
    """(low, up) for t = 0..n: low[t] = rank a[t:, t:] and up[t] =
    rank a[:t, :t] mod p, a = u - 1."""
    n = len(u)
    a = [[(x - (i == j)) % p for j, x in enumerate(row)]
         for i, row in enumerate(u)]
    if any(len(row) != n or any(row[:i + 1]) for i, row in enumerate(a)):
        raise ValueError("u must be a square upper unitriangular matrix "
                         f"mod {p}, got {u!r}")
    low = tuple(_rank([row[t:] for row in a[t:]], p) for t in range(n + 1))
    up = tuple(_rank([row[:t] for row in a[:t]], p) for t in range(n + 1))
    return low, up


def module_trace(spec, u, p):
    """Trace of u in UT_N, N = len(u), on a concretely realized module, an
    integer.

    spec: ("psiK", K), K a set of 1-based column labels, or ("utAlgebra",).
    """
    _check_prime(p)
    n = len(u)
    match spec:
        case ("psiK", K):
            if not all(1 <= k <= n for k in K):
                raise ValueError(f"psiK column labels must lie in 1..{n}, "
                                 f"got {sorted(K)!r}")
            low, _ = _block_ranks(u, p)
            cols = [k - 1 for k in K]
            if any(low[s] != low[s + 1] for s in cols):
                return 0
            return p ** sum(n - 1 - s - low[s + 1] for s in cols)
        case ("utAlgebra",):
            _, up = _block_ranks(u, p)
            return p ** sum(s - up[s] for s in range(n))
    raise ValueError(f"unknown module spec {spec!r}")
