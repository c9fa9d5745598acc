r"""
Exact isomorphism-class counts of quiver representations over F_q.

Burnside count over G = prod_i GL_{d_i}(F_q) acting on the representation
space: M = (1/|G|) sum_g #Fix(g).  Elements are grouped by similarity type
(multiset of (irreducible charpoly factor, Jordan-block partition) per
vertex), since #Fix(g) only depends on the type:

  dim Fix(g) = sum_a dim Hom_{F_q[T]}(M_{s(a)}, M_{t(a)}),
  dim Hom(M_tau, M_sigma) = sum_{p} deg(p) * sum_{i,j} min(lambda_i, mu_j).

Only the vertices that an acting arrow (both ends with d > 0) touches
enter G.  Any other GL_{d_v} acts trivially, so it multiplies sum_g #Fix(g)
and |G| by the same |GL_{d_v}| and cancels; a d that no arrow acts on
counts 1 without a census.

Types are enumerated by vectorised brute force: all n x n matrices at once
(numpy, field arithmetic through lookup tables), bucketed by characteristic
polynomial, with buckets of non-squarefree charpoly refined by the nullity
sequences of p(g)^j.  This keeps the count an independent census rather
than a formula imported from the theory being tested.

Nilpotent flavours enumerate the fixed subspace of one representative per
type tuple and test the nilpotency condition directly on each point.

This is the only module of the package that imports numpy.  It is loaded
on first use, through kac.brute_force_counts, so that importing qgk and
running the CLI without the oracle do not pay for numpy.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .kac import conjugate_partition
from .quiver import FLAVOURS, CountingError, Quiver, _prime_power
from .roots import BudgetError

ENUM_BUDGET = 8_000_000
FIX_BUDGET = 2_000_000
PATH_BUDGET = 20_000
TYPE_TUPLE_BUDGET = 200_000


class _Field:
    """F_q scalar arithmetic via lookup tables; elements are codes 0..q-1.

    For q = p^k with k > 1, codes are base-p digit strings of polynomial
    coefficients modulo the lexicographically first monic irreducible of
    degree k (constant coefficient first).
    """

    __slots__ = ("q", "p", "k", "add", "mul", "neg", "inv", "_irr_cache")

    def __init__(self, q: int):
        p, k = _prime_power(q)
        self.q, self.p, self.k = q, p, k
        if k == 1:
            add = [[(a + b) % p for b in range(p)] for a in range(p)]
            mul = [[(a * b) % p for b in range(p)] for a in range(p)]
        else:
            modulus = get_field(p).irreducibles(k)[0]
            add = [[0] * q for _ in range(q)]
            mul = [[0] * q for _ in range(q)]
            for a in range(q):
                da = _digits(a, p, k)
                for b in range(q):
                    db = _digits(b, p, k)
                    add[a][b] = _undigits([(x + y) % p for x, y in zip(da, db)], p)
                    mul[a][b] = _undigits(_polymulmod(da, db, modulus, p), p)
        self.add = np.array(add, dtype=np.int16)
        self.mul = np.array(mul, dtype=np.int16)
        neg = [0] * q
        inv = [0] * q
        for a in range(q):
            for b in range(q):
                if add[a][b] == 0:
                    neg[a] = b
                if mul[a][b] == 1:
                    inv[a] = b
        self.neg = np.array(neg, dtype=np.int16)
        self.inv = np.array(inv, dtype=np.int16)
        self._irr_cache: dict[int, list[tuple[int, ...]]] = {}

    # scalar helpers (python ints)
    def s_add(self, a: int, b: int) -> int:
        return int(self.add[a, b])

    def s_mul(self, a: int, b: int) -> int:
        return int(self.mul[a, b])

    def s_neg(self, a: int) -> int:
        return int(self.neg[a])

    def irreducibles(self, degree: int) -> list[tuple[int, ...]]:
        """Monic irreducible polynomials of exact degree, constant first."""
        cached = self._irr_cache.get(degree)
        if cached is not None:
            return cached
        result = []
        for tail in itertools.product(range(self.q), repeat=degree):
            poly = tail + (1,)
            if self._is_irreducible(poly):
                result.append(poly)
        self._irr_cache[degree] = result
        return result

    def _is_irreducible(self, poly: tuple[int, ...]) -> bool:
        degree = len(poly) - 1
        if degree == 0:
            return False
        for d in range(1, degree // 2 + 1):
            for p in self.irreducibles(d):
                if not _poly_mod(self, poly, p):
                    return False
        return True

    def factor_monic(self, poly: tuple[int, ...]) -> list[tuple[tuple[int, ...], int]]:
        if poly[-1] != 1:
            raise CountingError("can only factor monic polynomials")
        factors = []
        rest = poly
        degree = 1
        while len(rest) > 1:
            for p in self.irreducibles(degree):
                mult = 0
                while len(rest) > len(p) - 1 and not _poly_mod(self, rest, p):
                    rest = _poly_div(self, rest, p)
                    mult += 1
                if mult:
                    factors.append((p, mult))
                if len(rest) == 1:
                    break
            degree += 1
            if degree > len(poly):
                raise CountingError("factorisation did not terminate")
        if rest != (1,):
            raise CountingError("factorisation left a non-unit")
        return factors


def _digits(code: int, p: int, k: int) -> list[int]:
    out = []
    for _ in range(k):
        out.append(code % p)
        code //= p
    return out


def _undigits(digits: list[int], p: int) -> int:
    code = 0
    for d in reversed(digits):
        code = code * p + d
    return code


def _polymulmod(a: list[int], b: list[int], modulus: tuple[int, ...], p: int) -> list[int]:
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] = (prod[i + j] + x * y) % p
    k = len(modulus) - 1
    for i in range(len(prod) - 1, k - 1, -1):
        c = prod[i]
        if c:
            for j in range(k + 1):
                prod[i - k + j] = (prod[i - k + j] - c * modulus[j]) % p
    return prod[:k]


# -- polynomial scalars over the field (tuples, constant coefficient first) ----


def _poly_norm(poly: tuple[int, ...]) -> tuple[int, ...]:
    n = len(poly)
    while n > 1 and poly[n - 1] == 0:
        n -= 1
    return poly[:n]


def _poly_divmod(F: _Field, a: tuple[int, ...], b: tuple[int, ...]):
    b = _poly_norm(b)
    rem = list(a)
    quo = [0] * max(1, len(a) - len(b) + 1)
    inv_lead = int(F.inv[b[-1]])
    for i in range(len(a) - len(b), -1, -1):
        c = F.s_mul(rem[i + len(b) - 1], inv_lead)
        if c:
            quo[i] = c
            for j, bj in enumerate(b):
                rem[i + j] = F.s_add(rem[i + j], F.s_neg(F.s_mul(c, bj)))
    return _poly_norm(tuple(quo)), _poly_norm(tuple(rem))


def _poly_mod(F: _Field, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    rem = _poly_divmod(F, a, b)[1]
    return () if rem == (0,) else rem


def _poly_div(F: _Field, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    quo, rem = _poly_divmod(F, a, b)
    if rem != (0,):
        raise CountingError("inexact polynomial division")
    return quo


# -- batched matrix linear algebra over F_q -------------------------------------


def _all_matrices(F: _Field, n: int) -> np.ndarray:
    count = F.q ** (n * n)
    codes = np.arange(count, dtype=np.int64)
    digits = np.empty((count, n * n), dtype=np.int16)
    for pos in range(n * n):
        digits[:, pos] = codes % F.q
        codes //= F.q
    return digits.reshape(count, n, n)


def _batch_det_sub(F: _Field, mats: np.ndarray, rows, cols) -> np.ndarray:
    out = np.zeros(mats.shape[0], dtype=np.int16)
    for perm in itertools.permutations(range(len(rows))):
        term = mats[:, rows[0], cols[perm[0]]]
        for i in range(1, len(rows)):
            term = F.mul[term, mats[:, rows[i], cols[perm[i]]]]
        parity = sum(
            1 for i in range(len(perm)) for j in range(i + 1, len(perm)) if perm[i] > perm[j]
        )
        if parity % 2:
            term = F.neg[term]
        out = F.add[out, term]
    return out


def _batch_charpoly(F: _Field, mats: np.ndarray) -> np.ndarray:
    """Non-leading charpoly coefficients c_0..c_{n-1} of det(tI - g)."""
    n = mats.shape[-1]
    coeffs = np.zeros((mats.shape[0], n), dtype=np.int16)
    for k in range(1, n + 1):
        ek = np.zeros(mats.shape[0], dtype=np.int16)
        for subset in itertools.combinations(range(n), k):
            ek = F.add[ek, _batch_det_sub(F, mats, list(subset), list(subset))]
        if k % 2:
            ek = F.neg[ek]
        coeffs[:, n - k] = ek
    return coeffs


def _batch_matmul(F: _Field, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    n = A.shape[-2]
    m = B.shape[-1]
    out = np.zeros(A.shape[:-2] + (n, m), dtype=np.int16)
    for k in range(A.shape[-1]):
        prod = F.mul[A[..., :, k][..., :, None], B[..., k, :][..., None, :]]
        out = F.add[out, prod]
    return out


def _batch_poly_eval(F: _Field, poly: tuple[int, ...], mats: np.ndarray) -> np.ndarray:
    n = mats.shape[-1]
    out = np.zeros_like(mats)
    diag = np.arange(n)
    out[:, diag, diag] = poly[-1]
    for c in reversed(poly[:-1]):
        out = _batch_matmul(F, out, mats)
        if c:
            out[:, diag, diag] = F.add[out[:, diag, diag], np.int16(c)]
    return out


def _batch_rank(F: _Field, mats: np.ndarray) -> np.ndarray:
    n = mats.shape[-1]
    rank = np.zeros(mats.shape[0], dtype=np.int16)
    undecided = np.ones(mats.shape[0], dtype=bool)
    for k in range(n, 0, -1):
        nonzero = np.zeros(mats.shape[0], dtype=bool)
        for rows in itertools.combinations(range(n), k):
            for cols in itertools.combinations(range(n), k):
                nonzero |= _batch_det_sub(F, mats, list(rows), list(cols)) != 0
        hit = undecided & nonzero
        rank[hit] = k
        undecided &= ~hit
    return rank


# -- similarity types ------------------------------------------------------------

Sig = tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]


@dataclass(frozen=True)
class MatType:
    """One GL_n(F_q) conjugacy class: (irreducible, partition) pairs + size."""

    sig: Sig
    count: int
    rep: np.ndarray

    def __hash__(self):
        return hash(self.sig)


def gl_order(q: int, n: int) -> int:
    return math.prod(q**n - q**i for i in range(n))


def hom_dim(sig1: Sig, sig2: Sig) -> int:
    """dim Hom_{F_q[T]} between modules with the given similarity types."""
    total = 0
    for poly1, lam in sig1:
        for poly2, mu in sig2:
            if poly1 == poly2:
                deg = len(poly1) - 1
                total += deg * sum(min(a, b) for a in lam for b in mu)
    return total


_FIELD_CACHE: dict[int, _Field] = {}
_TYPE_CACHE: dict[tuple[int, int], list[MatType]] = {}


def get_field(q: int) -> _Field:
    if q not in _FIELD_CACHE:
        _FIELD_CACHE[q] = _Field(q)
    return _FIELD_CACHE[q]


def matrix_types(q: int, n: int) -> list[MatType]:
    """All similarity types of invertible n x n matrices over F_q."""
    key = (q, n)
    if key in _TYPE_CACHE:
        return _TYPE_CACHE[key]
    F = get_field(q)
    if n == 0:
        types = [MatType((), 1, np.zeros((0, 0), dtype=np.int16))]
        _TYPE_CACHE[key] = types
        return types
    if q ** (n * n) > ENUM_BUDGET:
        raise BudgetError(
            f"enumerating {q}^{n * n} matrices exceeds the budget of {ENUM_BUDGET}"
        )
    mats = _all_matrices(F, n)
    mats = mats[_batch_det_sub(F, mats, range(n), range(n)) != 0]
    cps = _batch_charpoly(F, mats)
    codes = np.zeros(mats.shape[0], dtype=np.int64)
    for i in range(n):
        codes = codes * F.q + cps[:, n - 1 - i]
    uniq, first, inverse, counts = np.unique(
        codes, return_index=True, return_inverse=True, return_counts=True
    )
    types: list[MatType] = []
    for u in range(len(uniq)):
        coeffs = []
        c = int(uniq[u])
        for _ in range(n):
            coeffs.append(c % F.q)
            c //= F.q
        charpoly = tuple(coeffs) + (1,)
        factors = F.factor_monic(charpoly)
        if all(mult == 1 for _, mult in factors):
            sig = tuple(sorted((p, (1,)) for p, _ in factors))
            types.append(MatType(sig, int(counts[u]), mats[first[u]].copy()))
            continue
        subset = mats[inverse == u]
        repeated = [(p, m) for p, m in factors if m > 1]
        keycols = []
        for p, m in repeated:
            pg = _batch_poly_eval(F, p, subset)
            power = pg
            for _ in range(m):
                keycols.append(subset.shape[1] - _batch_rank(F, power))
                power = _batch_matmul(F, power, pg)
        keys = np.stack(keycols, axis=1)
        sub_uniq, sub_first, sub_counts = np.unique(
            keys, axis=0, return_index=True, return_counts=True
        )
        for row in range(sub_uniq.shape[0]):
            sig_parts = [(p, (1,)) for p, m in factors if m == 1]
            col = 0
            for p, m in repeated:
                e = len(p) - 1
                nulls = [0] + [int(x) for x in sub_uniq[row, col : col + m]]
                col += m
                diffs = []
                for j in range(1, m + 1):
                    step = nulls[j] - nulls[j - 1]
                    if step % e:
                        raise CountingError("nullity sequence not divisible by degree")
                    diffs.append(step // e)
                lam = conjugate_partition(tuple(x for x in diffs if x))
                if sum(lam) != m:
                    raise CountingError("partition recovery failed")
                sig_parts.append((p, lam))
            sig = tuple(sorted(sig_parts))
            types.append(
                MatType(sig, int(sub_counts[row]), subset[sub_first[row]].copy())
            )
    if sum(t.count for t in types) != gl_order(q, n):
        raise CountingError("similarity types do not exhaust GL_n")
    _TYPE_CACHE[key] = types
    return types


# -- fixed points and flavours ---------------------------------------------------


def _nullspace(F: _Field, rows: list[list[int]], width: int) -> list[list[int]]:
    """Basis of the right kernel of the given matrix over F_q."""
    mat = [row[:] for row in rows]
    pivots: list[int] = []
    r = 0
    for c in range(width):
        pivot = None
        for i in range(r, len(mat)):
            if mat[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = int(F.inv[mat[r][c]])
        mat[r] = [F.s_mul(inv, x) for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = F.s_neg(mat[i][c])
                mat[i] = [F.s_add(x, F.s_mul(f, y)) for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    basis = []
    free = [c for c in range(width) if c not in pivots]
    for c in free:
        vec = [0] * width
        vec[c] = 1
        for i, pc in enumerate(pivots):
            vec[pc] = F.s_neg(mat[i][c])
        basis.append(vec)
    return basis


def _commutant_kernel(F: _Field, gt: np.ndarray, gs: np.ndarray) -> list[list[int]]:
    """Basis of {X : gt X = X gs}, X flattened row-major as (dt, ds)."""
    dt, ds = gt.shape[0], gs.shape[0]
    width = dt * ds
    rows = []
    for i in range(dt):
        for j in range(ds):
            row = [0] * width
            for k in range(dt):
                row[k * ds + j] = F.s_add(row[k * ds + j], int(gt[i, k]))
            for k in range(ds):
                row[i * ds + k] = F.s_add(row[i * ds + k], F.s_neg(int(gs[k, j])))
            rows.append(row)
    return _nullspace(F, rows, width)


def _paths_of_length(quiver: Quiver, arrows: list[int], length: int) -> list[list[int]]:
    """Composable arrow index sequences a_1..a_L with t(a_i) = s(a_{i+1})."""
    paths: list[list[int]] = [[a] for a in arrows]
    for _ in range(length - 1):
        new = []
        for path in paths:
            last_target = quiver.arrows[path[-1]][1]
            for a in arrows:
                if quiver.arrows[a][0] == last_target:
                    new.append(path + [a])
            if len(new) > PATH_BUDGET:
                raise BudgetError(f"more than {PATH_BUDGET} paths to test")
        paths = new
    return paths


def brute_force_counts(quiver: Quiver, d: tuple[int, ...], q: int, flavour: str = "plain") -> int:
    """Number of isomorphism classes of F_q-representations of dimension d.

    flavour selects the counted class: "plain" counts all representations,
    "nilpotent" those where every length-|d| path acts by zero, and
    "one_nilpotent" those where each loop arrow acts nilpotently.

    An arrow acts when both its ends have d > 0.  The census runs only over
    the vertices that some acting arrow touches: at any other vertex v,
    GL_{d_v} acts trivially on the representation space, so it fixes every
    point and contributes a factor |GL_{d_v}| to both sum_g #Fix(g) and
    |G|.  With no touched vertex the space is a point and the count is 1.
    The nilpotent paths have length sum_v d_v over the touched vertices:
    every path of acting arrows stays among them, so a representation is
    nilpotent exactly when all paths of that length act by zero.
    """
    if flavour not in FLAVOURS:
        raise CountingError(f"unknown flavour {flavour!r}")
    dims = dict(zip(quiver.vertices, quiver.vector(d)))
    if not any(dims.values()):
        raise CountingError("dimension vector must be nonzero and nonnegative")
    F = get_field(q)
    active = [
        k
        for k, (s, t) in enumerate(quiver.arrows)
        if dims[s] > 0 and dims[t] > 0
    ]
    ends = {v for k in active for v in quiver.arrows[k]}
    touched = [v for v in quiver.vertices if v in ends]
    if not touched:
        return 1
    per_vertex = [matrix_types(q, dims[v]) for v in touched]
    tuple_count = math.prod(len(types) for types in per_vertex)
    if tuple_count > TYPE_TUPLE_BUDGET:
        raise BudgetError(f"{tuple_count} similarity type tuples exceed the budget")
    position = {v: i for i, v in enumerate(touched)}

    total = 0
    for combo in itertools.product(*per_vertex):
        weight = math.prod(t.count for t in combo)
        if flavour == "plain":
            fix_dim = 0
            for k in active:
                s, t = quiver.arrows[k]
                fix_dim += hom_dim(combo[position[t]].sig, combo[position[s]].sig)
            total += weight * q**fix_dim
        else:
            total += weight * _flavoured_fix_count(
                F, quiver, dims, combo, position, active, flavour
            )
    order = math.prod(gl_order(q, dims[v]) for v in touched)
    result = Fraction(total, order)
    if result.denominator != 1:
        raise CountingError("Burnside average is not an integer")
    return int(result)


def _flavoured_fix_count(F, quiver, dims, combo, position, active, flavour) -> int:
    bases = []
    for a in active:
        s, t = quiver.arrows[a]
        gt = combo[position[t]].rep
        gs = combo[position[s]].rep
        bases.append(_commutant_kernel(F, gt, gs))
    kdim = sum(len(b) for b in bases)
    if F.q**kdim > FIX_BUDGET:
        raise BudgetError(f"fixed subspace of size {F.q}^{kdim} exceeds the budget")
    count = F.q**kdim
    coeffs = np.empty((count, kdim), dtype=np.int16)
    codes = np.arange(count, dtype=np.int64)
    for pos in range(kdim):
        coeffs[:, pos] = codes % F.q
        codes //= F.q
    points: dict[int, np.ndarray] = {}
    offset = 0
    for a, basis in zip(active, bases):
        s, t = quiver.arrows[a]
        flat = np.zeros((count, dims[t] * dims[s]), dtype=np.int16)
        for j, vec in enumerate(basis):
            term = F.mul[coeffs[:, offset + j][:, None], np.array(vec, dtype=np.int16)[None, :]]
            flat = F.add[flat, term]
        points[a] = flat.reshape(count, dims[t], dims[s])
        offset += len(basis)
    good = np.ones(count, dtype=bool)
    if flavour == "one_nilpotent":
        for a in active:
            s, t = quiver.arrows[a]
            if s != t:
                continue
            power = points[a]
            for _ in range(dims[s] - 1):
                power = _batch_matmul(F, power, points[a])
            good &= ~power.any(axis=(1, 2))
    else:
        length = sum(dims[v] for v in position)
        for path in _paths_of_length(quiver, active, length):
            prod = points[path[0]]
            for a in path[1:]:
                prod = _batch_matmul(F, points[a], prod)
            good &= ~prod.any(axis=(1, 2))
    return int(np.count_nonzero(good))
