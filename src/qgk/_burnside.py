r"""
Exact isomorphism-class counts of quiver representations over F_q.

Burnside count over G = prod_i GL_{d_i}(F_q) acting on the representation
space: M = (1/|G|) sum_g #Fix(g).  Elements are grouped by similarity type
(per vertex, the irreducible charpoly factors p, each with the conjugate
lambda' of its Jordan-block partition lambda), since #Fix(g) only depends
on the type:

  dim Fix(g) = sum_a dim Hom_{F_q[T]}(M_{s(a)}, M_{t(a)}),
  dim Hom(M_tau, M_sigma) = sum_{p} deg(p) * sum_k lambda'_k mu'_k,

the pairing <lambda, mu> = sum_{i,j} min(lambda_i, mu_j) of Hua's formula.

Only the vertices that an acting arrow (both ends with d > 0) touches
enter G.  Any other GL_{d_v} acts trivially, so it multiplies sum_g #Fix(g)
and |G| by the same |GL_{d_v}| and cancels; a d that no arrow acts on
counts 1 without a census.

Types are enumerated by batched brute force: all n x n matrices at once,
bucketed by characteristic polynomial, with buckets of non-squarefree
charpoly refined by the nullity sequences of p(g)^j, which grow by deg(p)
times lambda'_j.  This keeps the count an independent census rather than a
formula imported from the theory being tested.  Charpolys are factored by
a table that a sieve fills once per field, degree by degree: each product
of an irreducible f with a factored g whose factors all come no later than
f is recorded once, and what no product reaches is irreducible.

Nilpotent flavours enumerate the fixed subspace of one representative per
type tuple and test the nilpotency condition directly on each point.

A batch is held in byte lanes: one bytes object per matrix entry, with
byte i the entry of the i-th matrix.  Field elements are codes below
q <= MAX_FIELD = 16, so a_i * q + b_i < 256 fits one byte, and one big-int
multiply-add followed by bytes.translate through a 256-byte table applies
F_q's addition or multiplication to every lane at once with no carry
between lanes.  MAX_FIELD and the prime-power check live here, their only
reader; kac.FIELDS lists every field size they admit.  The census needs
only the standard library.  It is loaded on first use, through
kac.brute_force_counts.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import operator
from fractions import Fraction
from typing import NamedTuple

from .quiver import FLAVOURS, CountingError, Quiver
from .roots import BudgetError

#: The largest field the census runs over: its byte lanes need a * q + b < 256.
MAX_FIELD = 16
ENUM_BUDGET = 8_000_000
FIX_BUDGET = 2_000_000
PATH_BUDGET = 20_000
TYPE_TUPLE_BUDGET = 200_000

#: bytes.translate tables: 1 where a lane byte is nonzero, the byte itself, its low 7 bits.
_NONZERO = bytes([0]) + bytes([1]) * 255
_IDENTITY, _LOW7 = bytes(range(256)), bytes(b & 127 for b in range(256))


#: A polynomial over the field: its coefficient codes, constant first.
Poly = tuple[int, ...]


def _prime_power(q: int) -> tuple[int, int]:
    """(p, k) with q = p^k; raises CountingError unless q is a prime power."""
    if q < 2:
        raise CountingError(f"{q} is not a prime power")
    p = 2
    while p * p <= q:
        if q % p == 0:
            break
        p += 1
    else:
        return q, 1
    k = 0
    m = q
    while m % p == 0:
        m //= p
        k += 1
    if m != 1:
        raise CountingError(f"{q} is not a prime power")
    return p, k


def _table(values) -> bytes:
    return bytes(values).ljust(256, b"\0")


class _Field:
    """F_q arithmetic via 256-byte lookup tables; elements are codes 0..q-1.

    add and mul hold a + b and a * b at index a * q + b, neg and inv at
    index a, and scale[c] holds c * a at index a.  For q = p^k with k > 1,
    codes are base-p digit strings of polynomial coefficients modulo the
    lexicographically first monic irreducible of degree k (constant
    coefficient first).
    """

    __slots__ = ("q", "p", "k", "add", "mul", "neg", "inv", "scale", "_factors")

    def __init__(self, q: int):
        p, k = _prime_power(q)
        if q > MAX_FIELD:
            raise CountingError(f"F_{q}: the census runs over fields of size at most {MAX_FIELD}")
        self.q, self.p, self.k = q, p, k
        if k == 1:
            add = [[(a + b) % p for b in range(p)] for a in range(p)]
            mul = [[(a * b) % p for b in range(p)] for a in range(p)]
        else:
            base = get_field(p)
            modulus = base.irreducibles(k)[0]
            add = [[0] * q for _ in range(q)]
            mul = [[0] * q for _ in range(q)]
            for a in range(q):
                da = _digits(a, p, k)
                for b in range(q):
                    db = _digits(b, p, k)
                    add[a][b] = _undigits([(x + y) % p for x, y in zip(da, db)], p)
                    mul[a][b] = _undigits(_polymulmod(base, da, db, modulus), p)
        self.add = _table(x for row in add for x in row)
        self.mul = _table(x for row in mul for x in row)
        self.scale = [_table(row) for row in mul]
        self.neg = _table(row.index(0) for row in add)
        self.inv = _table([0] + [row.index(1) for row in mul[1:]])
        self._factors: list[dict[Poly, tuple[Poly, ...]]] = [{(1,): ()}]

    def s_add(self, a: int, b: int) -> int:
        return self.add[a * self.q + b]

    def s_mul(self, a: int, b: int) -> int:
        return self.mul[a * self.q + b]

    def lanes(self, table: bytes, a: bytes, b: bytes) -> bytes:
        """table[a_i * q + b_i] in every byte lane i; no carry crosses lanes below 256."""
        ab = int.from_bytes(a, "big") * self.q + int.from_bytes(b, "big")
        return ab.to_bytes(len(a), "big").translate(table)

    def fold(self, table: bytes, lanes) -> bytes:
        """The lane-wise sum (table add) or product (table mul) of a nonempty iterable."""
        return functools.reduce(functools.partial(self.lanes, table), lanes)

    def factors(self, degree: int) -> dict[Poly, tuple[Poly, ...]]:
        """Every monic polynomial of the degree, in lex order, to its irreducible factors.

        The factors come with multiplicity in (degree, lex) order.  A sieve
        fills one degree m at a time: each product f * g, with f irreducible
        of degree k < m and g of degree m - k with no factor after f, is
        recorded once, as g's factors then f.  The monic polynomials of
        degree m that no product reaches are the irreducibles.
        """
        table = self._factors
        while len(table) <= degree:
            m, products = len(table), {}
            for k in range(1, m):
                for f in self.irreducibles(k):
                    for g, factors in table[m - k].items():
                        if (len(factors[-1]), factors[-1]) <= (len(f), f):
                            products[_poly_mul(self, f, g)] = factors + (f,)
            monic = (tail + (1,) for tail in itertools.product(range(self.q), repeat=m))
            table.append({poly: products.get(poly, (poly,)) for poly in monic})
        return table[degree]

    def irreducibles(self, degree: int) -> list[Poly]:
        """Monic irreducible polynomials of exact degree, constant first, in lex order."""
        return [poly for poly, factors in self.factors(degree).items() if factors == (poly,)]


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


def _poly_mul(F: _Field, a, b) -> Poly:
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] = F.s_add(prod[i + j], F.s_mul(x, y))
    return tuple(prod)


def _polymulmod(F: _Field, a: list[int], b: list[int], modulus: Poly) -> list[int]:
    """a * b modulo a monic modulus of degree k, over a prime field F."""
    prod = list(_poly_mul(F, a, b))
    k = len(modulus) - 1
    for i in range(len(prod) - 1, k - 1, -1):
        c = prod[i]
        if c:
            for j in range(k + 1):
                prod[i - k + j] = (prod[i - k + j] - c * modulus[j]) % F.p
    return prod[:k]


# -- batched matrix linear algebra over F_q -------------------------------------


#: A batch of n x m matrices: n rows of m byte lanes, one lane per entry.
Batch = list[list[bytes]]


def _digit_lanes(q: int, width: int) -> list[bytes]:
    """Lane pos holds digit pos (least significant first) of each of 0 .. q^width - 1."""
    return [
        b"".join(bytes([v]) * q**pos for v in range(q)) * q ** (width - pos - 1)
        for pos in range(width)
    ]


def _select(mats: Batch, mask: bytes) -> Batch:
    """The matrices where mask is 1: kept bytes (all below 128) gain bit 7, the rest drop."""
    keep, size = int.from_bytes(mask, "big") << 7, len(mask)
    marked = ([(int.from_bytes(x, "big") | keep).to_bytes(size, "big") for x in r] for r in mats)
    return [[x.translate(_LOW7, _IDENTITY[:128]) for x in row] for row in marked]


def _nonzero(mats: Batch) -> int:
    """An int whose byte i is nonzero exactly when matrix i is nonzero."""
    return functools.reduce(operator.or_, (int.from_bytes(x, "big") for row in mats for x in row))


def _batch_det_sub(F: _Field, mats: Batch, rows, cols) -> bytes:
    """The rows x cols minor of every matrix, by the Leibniz sum."""
    terms = []
    for perm in itertools.permutations(cols):
        term = F.fold(F.mul, (mats[r][c] for r, c in zip(rows, perm)))
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        terms.append(term.translate(F.neg) if inversions % 2 else term)
    return F.fold(F.add, terms)


def _batch_charpoly(F: _Field, mats: Batch) -> list[bytes]:
    """Non-leading charpoly coefficients c_0..c_{n-1} of det(tI - g)."""
    n = len(mats)
    coeffs = []
    for k in range(n, 0, -1):
        minors = (_batch_det_sub(F, mats, s, s) for s in itertools.combinations(range(n), k))
        ek = F.fold(F.add, minors)
        coeffs.append(ek.translate(F.neg) if k % 2 else ek)
    return coeffs


def _batch_matmul(F: _Field, A: Batch, B: Batch) -> Batch:
    mul = functools.partial(F.lanes, F.mul)
    return [[F.fold(F.add, map(mul, row, col)) for col in zip(*B)] for row in A]


def _batch_poly_eval(F: _Field, poly: tuple[int, ...], mats: Batch) -> Batch:
    """p(g) for a monic p, by Horner's rule."""
    out = mats
    for step, c in enumerate(reversed(poly[:-1])):
        if step:
            out = _batch_matmul(F, out, mats)
        if c:
            shift = bytes([c]) * len(mats[0][0])
            out = [[*r[:i], F.lanes(F.add, r[i], shift), *r[i + 1 :]] for i, r in enumerate(out)]
    return out


def _batch_rank(F: _Field, mats: Batch) -> bytes:
    n, size = len(mats), len(mats[0][0])
    rank, undecided = 0, int.from_bytes(bytes([1]) * size, "big")
    for k in range(n, 0, -1):
        nonzero = 0
        for rows in itertools.combinations(range(n), k):
            for cols in itertools.combinations(range(n), k):
                nonzero |= int.from_bytes(_batch_det_sub(F, mats, rows, cols), "big")
        hit = undecided & int.from_bytes(nonzero.to_bytes(size, "big").translate(_NONZERO), "big")
        rank += k * hit
        undecided ^= hit
    return rank.to_bytes(size, "big")


def _entry(mats: Batch, index: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(lane[index] for lane in row) for row in mats)


# -- similarity types ------------------------------------------------------------

Sig = tuple[tuple[Poly, tuple[int, ...]], ...]


class MatType(NamedTuple):
    """One GL_n(F_q) conjugacy class: (irreducible, conjugate partition) pairs + size."""

    sig: Sig
    count: int
    rep: tuple[tuple[int, ...], ...]


def gl_order(q: int, n: int) -> int:
    return math.prod(q**n - q**i for i in range(n))


def hom_dim(sig1: Sig, sig2: Sig) -> int:
    """dim Hom_{F_q[T]} between modules with the given similarity types."""
    total = 0
    for poly1, lam in sig1:
        for poly2, mu in sig2:
            if poly1 == poly2:
                total += (len(poly1) - 1) * sum(map(operator.mul, lam, mu))
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
    if q ** (n * n) > ENUM_BUDGET:
        raise BudgetError(
            f"enumerating {q}^{n * n} matrices exceeds the budget of {ENUM_BUDGET}"
        )
    if q**n > 256:
        raise BudgetError(f"degree-{n} charpolys over F_{q} do not fit a byte lane")
    lanes = _digit_lanes(q, n * n)
    mats = [lanes[i * n : (i + 1) * n] for i in range(n)]
    mats = _select(mats, _batch_det_sub(F, mats, range(n), range(n)).translate(_NONZERO))
    cps = _batch_charpoly(F, mats)
    horner = functools.partial(F.lanes, _IDENTITY)
    # each matrix's charpoly as one byte, c_0 + c_1 q + ... + c_{n-1} q^(n-1) < q^n
    code = functools.reduce(horner, reversed(cps))
    types: list[MatType] = []
    refine = {}
    for value in sorted(set(code)):
        charpoly = tuple(value // q**i % q for i in range(n)) + (1,)
        factors = collections.Counter(F.factors(n)[charpoly])
        if max(factors.values()) > 1:
            refine[value] = factors
            continue
        sig = tuple((p, (1,)) for p in factors)
        types.append(MatType(sig, code.count(value), _entry(mats, code.index(value))))
    # one pass keeps the matrices whose charpoly has a repeated factor, then split those
    *mats, cps = _select(mats + [cps], code.translate(bytes(b in refine for b in range(256))))
    code = functools.reduce(horner, reversed(cps))
    matmul = functools.partial(_batch_matmul, F)
    for value, factors in refine.items():
        subset = _select(mats, code.translate(bytes(b == value for b in range(256))))
        keycols = []
        for p, m in factors.items():
            if m > 1:
                pg = _batch_poly_eval(F, p, subset)
                powers = itertools.accumulate(itertools.repeat(pg, m), matmul)
                keycols += [_batch_rank(F, power) for power in powers]
        columns = list(zip(*keycols))
        for ranks, sub_count in collections.Counter(columns).items():
            # the nullity of p(g)^j grows by deg p times lam'_j, the number of blocks of size >= j
            col, sig = 0, []
            for p, m in factors.items():
                conj = (1,)
                if m > 1:
                    e, nulls = len(p) - 1, [0] + [n - r for r in ranks[col : col + m]]
                    col += m
                    steps = [b - a for a, b in zip(nulls, nulls[1:])]
                    if any(step % e for step in steps):
                        raise CountingError("nullity sequence not divisible by degree")
                    conj = tuple(step // e for step in steps if step)
                    if sum(conj) != m:
                        raise CountingError("partition recovery failed")
                sig.append((p, conj))
            types.append(MatType(tuple(sig), sub_count, _entry(subset, columns.index(ranks))))
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
        inv = F.inv[mat[r][c]]
        mat[r] = [F.s_mul(inv, x) for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = F.neg[mat[i][c]]
                mat[i] = [F.s_add(x, F.s_mul(f, y)) for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    basis = []
    free = [c for c in range(width) if c not in pivots]
    for c in free:
        vec = [0] * width
        vec[c] = 1
        for i, pc in enumerate(pivots):
            vec[pc] = F.neg[mat[i][c]]
        basis.append(vec)
    return basis


def _commutant_kernel(F: _Field, gt, gs) -> list[list[int]]:
    """Basis of {X : gt X = X gs}, X flattened row-major as (dt, ds)."""
    dt, ds = len(gt), len(gs)
    width = dt * ds
    rows = []
    for i in range(dt):
        for j in range(ds):
            row = [0] * width
            for k in range(dt):
                row[k * ds + j] = F.s_add(row[k * ds + j], gt[i][k])
            for k in range(ds):
                row[i * ds + k] = F.s_add(row[i * ds + k], F.neg[gs[k][j]])
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
        raise BudgetError(
            f"{tuple_count} similarity type tuples exceed the budget of {TYPE_TUPLE_BUDGET}"
        )
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
        raise BudgetError(
            f"fixed subspace of size {F.q}^{kdim} exceeds the budget of {FIX_BUDGET}"
        )
    count = F.q**kdim
    coeffs = _digit_lanes(F.q, kdim)
    zero = bytes(count)
    points: dict[int, Batch] = {}
    offset = 0
    for a, basis in zip(active, bases):
        s, t = quiver.arrows[a]
        terms = list(zip(coeffs[offset : offset + len(basis)], basis))
        flat = [
            F.fold(F.add, [zero, *(x.translate(F.scale[v[e]]) for x, v in terms if v[e])])
            for e in range(dims[t] * dims[s])
        ]
        points[a] = [flat[r * dims[s] : (r + 1) * dims[s]] for r in range(dims[t])]
        offset += len(basis)
    nonzero = 0
    if flavour == "one_nilpotent":
        for a in active:
            s, t = quiver.arrows[a]
            if s != t:
                continue
            power = points[a]
            for _ in range(dims[s] - 1):
                power = _batch_matmul(F, power, points[a])
            nonzero |= _nonzero(power)
    else:
        length = sum(dims[v] for v in position)
        for path in _paths_of_length(quiver, active, length):
            prod = points[path[0]]
            for a in path[1:]:
                prod = _batch_matmul(F, points[a], prod)
            nonzero |= _nonzero(prod)
    return nonzero.to_bytes(count, "big").count(0)
