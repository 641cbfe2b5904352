"""Matrices over the algebra, their embedding over K, and determinants.

A k x k matrix over (a,b/F) embeds into 2k x 2k matrices over K by
splitting every entry q = z1 + z2*j and assembling the global block
matrix [[B, b*C], [conj(C), conj(B)]], where B and C hold the z1 and z2
parts.  The embedding is a ring homomorphism, and the determinant of
the image (always a rational) is the reduced norm.  MatK.det computes
it by Bareiss's fraction-free elimination over Z[j], j = q*i for
a = p/q, in O(k^3) big-integer operations for every (a, b), split
algebras included.

mat_inv is Gauss-Jordan elimination on the algebra itself, in integers:
each row of [M | I] is cleared once to integer quaternions, products go
through the algebra's integer table, and no pivot is ever inverted, so
the only Fractions are the k^2 entries of the result.  Its pivot is the
first entry of nonzero reduced norm down the column, then along the
later columns; a split algebra can still refuse an invertible matrix
whose remaining block has only entries of norm zero.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .algebra import AlgebraParams, KElem, Quat, _integral, quat_halves
from .errors import (
    DimensionMismatch,
    InternalInvariant,
    NotInvertible,
    UnsupportedAlgebra,
)


class MatD:
    """Square matrix over the quaternion algebra; entries are immutable."""

    __slots__ = ("params", "k", "rows")

    def __init__(self, params: AlgebraParams, rows):
        self.params = params
        self.k = len(rows)
        grid = []
        for row in rows:
            if len(row) != self.k:
                raise DimensionMismatch("matrix is not square")
            for q in row:
                if q.params != params:
                    raise ValueError("entry lives in a different algebra")
            grid.append(tuple(row))
        self.rows = tuple(grid)

    @classmethod
    def identity(cls, params, k: int):
        one = Quat.one(params)
        zero = Quat.zero(params)
        return cls(params, [[one if r == c else zero for c in range(k)] for r in range(k)])

    @classmethod
    def zeros(cls, params, k: int):
        zero = Quat.zero(params)
        return cls(params, [[zero] * k for _ in range(k)])

    def entry(self, r: int, c: int) -> Quat:
        return self.rows[r][c]

    def _check(self, other: "MatD"):
        if self.params != other.params:
            raise ValueError("operands live in different algebras")
        if self.k != other.k:
            raise DimensionMismatch(f"{self.k}x{self.k} vs {other.k}x{other.k}")

    def __add__(self, other):
        if not isinstance(other, MatD):
            return NotImplemented
        self._check(other)
        return MatD(self.params, [
            [x + y for x, y in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)
        ])

    def __sub__(self, other):
        if not isinstance(other, MatD):
            return NotImplemented
        self._check(other)
        return MatD(self.params, [
            [x - y for x, y in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)
        ])

    def __neg__(self):
        return MatD(self.params, [[-x for x in row] for row in self.rows])

    def __mul__(self, other):
        if not isinstance(other, MatD):
            return NotImplemented
        self._check(other)
        k = self.k
        out = []
        for r in range(k):
            row = []
            for c in range(k):
                acc = Quat.zero(self.params)
                for s in range(k):
                    acc = acc + self.rows[r][s] * other.rows[s][c]
                row.append(acc)
            out.append(row)
        return MatD(self.params, out)

    def scale_left(self, q: Quat) -> "MatD":
        """Multiply every entry by q on the left (order matters)."""
        return MatD(self.params, [[q * x for x in row] for row in self.rows])

    def mul_vector(self, vec):
        """Matrix times column vector of quaternions."""
        vec = tuple(vec)
        if len(vec) != self.k:
            raise DimensionMismatch("vector length does not match")
        out = []
        for row in self.rows:
            acc = Quat.zero(self.params)
            for x, v in zip(row, vec):
                acc = acc + x * v
            out.append(acc)
        return tuple(out)

    def submatrix(self, row_idx, col_idx) -> "MatD":
        return MatD(self.params, [[self.rows[r][c] for c in col_idx] for r in row_idx])

    def __eq__(self, other):
        if not isinstance(other, MatD):
            return NotImplemented
        return self.params == other.params and self.rows == other.rows

    def __repr__(self):
        return f"MatD({self.k}x{self.k})"


class MatK:
    """Square matrix over the quadratic field K = F(i)."""

    __slots__ = ("a", "m", "rows")

    def __init__(self, a: Fraction, rows):
        self.a = a
        self.m = len(rows)
        grid = []
        for row in rows:
            if len(row) != self.m:
                raise DimensionMismatch("matrix is not square")
            grid.append(tuple(row))
        self.rows = tuple(grid)

    @classmethod
    def identity(cls, a, m: int):
        one = KElem.one(a)
        zero = KElem.zero(a)
        return cls(a, [[one if r == c else zero for c in range(m)] for r in range(m)])

    def entry(self, r: int, c: int) -> KElem:
        return self.rows[r][c]

    def __add__(self, other):
        if not isinstance(other, MatK):
            return NotImplemented
        if self.m != other.m:
            raise DimensionMismatch(f"{self.m} vs {other.m}")
        return MatK(self.a, [
            [x + y for x, y in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)
        ])

    def __sub__(self, other):
        if not isinstance(other, MatK):
            return NotImplemented
        if self.m != other.m:
            raise DimensionMismatch(f"{self.m} vs {other.m}")
        return MatK(self.a, [
            [x - y for x, y in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)
        ])

    def __mul__(self, other):
        if not isinstance(other, MatK):
            return NotImplemented
        if self.m != other.m:
            raise DimensionMismatch(f"{self.m} vs {other.m}")
        m = self.m
        out = []
        for r in range(m):
            row = []
            for c in range(m):
                acc = KElem.zero(self.a)
                for s in range(m):
                    acc = acc + self.rows[r][s] * other.rows[s][c]
                row.append(acc)
            out.append(row)
        return MatK(self.a, out)

    def conj(self) -> "MatK":
        return MatK(self.a, [[x.conj() for x in row] for row in self.rows])

    def det(self) -> KElem:
        """Exact determinant over K by Bareiss's fraction-free elimination.

        With a = p/q in lowest terms, j = q*i has j^2 = p*q, an integer,
        and an entry u + v*i is u + (v/q)*j.  Scaling each column to clear
        its denominators (the determinant is multilinear in columns) gives
        a matrix over Z[j].  Every Bareiss update is divided exactly by the
        previous pivot x, as y*conj(x)/N(x), so all intermediates are minors
        and stay in Z[j]: O(m^3) big-integer operations in all.

        When p*q = s^2, K = F x F is not a field and Z[j] has zero divisors.
        The ring maps j -> s and j -> -s onto Z fix F; the elimination runs
        over Z once through each, and the two images give back u and v.
        """
        a = self.a
        m = self.m
        if m == 0:
            raise DimensionMismatch("empty matrix")
        p, q = a.numerator, a.denominator
        pq = p * q
        cols_u = []
        cols_v = []
        scale = 1
        for c in range(m):
            col = [row[c] for row in self.rows]
            den = math.lcm(*(x.u.denominator for x in col), *(x.v.denominator * q for x in col))
            scale *= den
            cols_u.append([x.u.numerator * (den // x.u.denominator) for x in col])
            cols_v.append([x.v.numerator * (den // (x.v.denominator * q)) for x in col])
        root = math.isqrt(pq) if pq > 0 else 0
        if root * root == pq:
            # one lane per ring map j -> +-root onto Z; with no j-parts the
            # loop below is plain integer Bareiss
            zeros = [[0] * m for _ in range(m)]
            lanes = [
                ([[u + s * v for u, v in zip(cu, cv)] for cu, cv in zip(cols_u, cols_v)], zeros, 0)
                for s in (root, -root)
            ]
        else:
            lanes = [(cols_u, cols_v, pq)]
        dets = []
        for lane_u, lane_v, d in lanes:
            # rows of the lane's matrix: us holds the Z-parts, vs the j-parts
            us = [list(r) for r in zip(*lane_u)]
            vs = [list(r) for r in zip(*lane_v)]
            sign = 1
            prev_u, prev_v = 1, 0
            for k in range(m):
                pivot = next((r for r in range(k, m) if us[r][k] or vs[r][k]), None)
                if pivot is None:
                    dets.append((0, 0))
                    break
                if pivot != k:
                    us[k], us[pivot] = us[pivot], us[k]
                    vs[k], vs[pivot] = vs[pivot], vs[k]
                    sign = -sign
                uk, vk = us[k], vs[k]
                ku, kv = uk[k], vk[k]
                dkv = d * kv
                # divide exactly by prev = prev_u + prev_v*j: times conj(prev), over N(prev)
                norm = prev_u * prev_u - d * prev_v * prev_v
                for r in range(k + 1, m):
                    ur, vr = us[r], vs[r]
                    ru, rv = ur[k], vr[k]
                    drv = d * rv
                    for c in range(k + 1, m):
                        xu, xv, yu, yv = ur[c], vr[c], uk[c], vk[c]
                        nu = ku * xu + dkv * xv - ru * yu - drv * yv
                        nv = ku * xv + kv * xu - ru * yv - rv * yu
                        if prev_v:
                            ur[c] = (nu * prev_u - d * nv * prev_v) // norm
                            vr[c] = (nv * prev_u - nu * prev_v) // norm
                        else:
                            ur[c] = nu // prev_u
                            vr[c] = nv // prev_u
                prev_u, prev_v = ku, kv
            else:
                dets.append((sign * prev_u, sign * prev_v))
        if len(dets) == 2:
            plus, minus = dets[0][0], dets[1][0]
            det_u, det_v = (plus + minus) // 2, (plus - minus) // (2 * root)
        else:
            det_u, det_v = dets[0]
        # det_u + det_v*j = det_u + det_v*q*i
        return KElem(Fraction(det_u, scale), Fraction(det_v * q, scale), a)

    def __eq__(self, other):
        if not isinstance(other, MatK):
            return NotImplemented
        return self.a == other.a and self.rows == other.rows

    def __repr__(self):
        return f"MatK({self.m}x{self.m})"


def embed_matrix(mat: MatD) -> MatK:
    """Embed a k x k quaternion matrix into M_2k(K).

    Global block layout [[B, b*C], [conj(C), conj(B)]] where the entry
    (r, c) of mat splits as z1 + z2*j with z1 = B[r][c], z2 = C[r][c].
    Ring homomorphism; the determinant of the image is the reduced norm.
    """
    params = mat.params
    a, b = params.a, params.b
    k = mat.k
    zero = KElem.zero(a)
    out = [[zero] * (2 * k) for _ in range(2 * k)]
    for r in range(k):
        for c in range(k):
            z1, z2 = quat_halves(mat.rows[r][c])
            out[r][c] = z1
            out[r][c + k] = z2 * b
            out[r + k][c] = z2.conj()
            out[r + k][c + k] = z1.conj()
    return MatK(a, out)


def _shift(mat: MatD, lam: Quat) -> MatD:
    """mat - lam*I, subtracting lam on the diagonal only."""
    rows = [list(row) for row in mat.rows]
    for r, row in enumerate(rows):
        row[r] = row[r] - lam
    return MatD(mat.params, rows)


def reduced_norm(mat: MatD) -> Fraction:
    """Determinant of the embedded matrix, returned as an exact rational.

    The 2k x 2k determinant comes from MatK.det's fraction-free
    elimination, O(k^3) big-integer operations.  It provably lies in F;
    a nonzero i-part would mean a bug, and raises InternalInvariant.
    Multiplicative, and equal to the Study determinant over the rational
    Hamilton quaternions.
    """
    det = embed_matrix(mat).det()
    if det.v != 0:
        raise InternalInvariant(f"embedded determinant {det!r} has a nonzero i-part")
    return det.u


def dieudonne_det(mat: MatD) -> float:
    """Nonnegative square root of the reduced norm, as a float.

    Only defined here for definite algebras (a < 0 and b < 0), where the
    reduced norm is nonnegative and the value group is the positive
    reals; multiplicative up to floating tolerance.
    """
    if not mat.params.is_definite:
        raise UnsupportedAlgebra("Dieudonne determinant requires a < 0 and b < 0")
    nrd = reduced_norm(mat)
    if nrd < 0:
        raise InternalInvariant("reduced norm of a definite algebra came out negative")
    return math.sqrt(nrd)


def mat_is_invertible(mat: MatD) -> bool:
    """Exact invertibility test: nonzero reduced norm."""
    return reduced_norm(mat) != 0


def _int_quat_ops(params: AlgebraParams):
    """Product and norm of integer quaternions (4-tuples) in the algebra.

    Both go through `AlgebraParams.int_table`, so each carries exactly one
    extra factor of its scale: mul(p, q) = scale*p*q and
    norm(p) = scale*nrd(p), all in integers.
    """
    (t00, t01, t02, t03, t10, t11, t12, t13,
     t20, t21, t22, t23, t30, t31, t32, t33) = [t for row in params.int_table[1] for t, _ in row]

    def mul(p, q):
        # e_x e_y lands on e_(x^y)
        p0, p1, p2, p3 = p
        q0, q1, q2, q3 = q
        return (
            t00 * p0 * q0 + t11 * p1 * q1 + t22 * p2 * q2 + t33 * p3 * q3,
            t01 * p0 * q1 + t10 * p1 * q0 + t23 * p2 * q3 + t32 * p3 * q2,
            t02 * p0 * q2 + t20 * p2 * q0 + t13 * p1 * q3 + t31 * p3 * q1,
            t03 * p0 * q3 + t30 * p3 * q0 + t12 * p1 * q2 + t21 * p2 * q1,
        )

    def norm(p):
        # real part of p*conj(p)
        p0, p1, p2, p3 = p
        return t00 * p0 * p0 - t11 * p1 * p1 - t22 * p2 * p2 - t33 * p3 * p3

    return mul, norm


_ZQ = (0, 0, 0, 0)


def mat_inv(mat: MatD) -> MatD:
    """Two-sided inverse by Gauss-Jordan elimination on integer rows.

    Each row of [M | I] is cleared once to integer quaternions.  With
    pivot P, N = scale*nrd(P) and f a row's entry in the pivot column,
    the row becomes (scale*N)*row - (f*conj(P))*pivot_row, divided by the
    gcd of its integers.  Rows stay left multiples w*row of the rows the
    Fraction elimination would hold, so row r of the inverse is
    conj(w_r)*A_r/(scale*nrd(w_r)), w_r its diagonal entry and A_r its
    right half.

    The pivot is the first entry of nonzero reduced norm down the column;
    when there is none, the later columns of the remaining block are
    searched in order and the first one with such an entry is swapped in
    (the inverse's rows are un-permuted at the end).  A division algebra
    never needs the search, and every invertible matrix inverts.  In a
    split algebra NotInvertible is also raised on an invertible matrix
    whose remaining block has only entries of norm zero, such as
    [[1+i, 1-i], [1-i, 1+i]] in (1,1) (reduced norm -16).
    """
    params = mat.params
    k = mat.k
    mul, norm = _int_quat_ops(params)
    scale = params.int_table[0]
    rows = []
    for r, row in enumerate(mat.rows):
        den, nums = _integral([c for q in row for c in q.coords])
        unit = [_ZQ] * k
        unit[r] = (den, 0, 0, 0)
        rows.append([tuple(nums[4 * c:4 * c + 4]) for c in range(k)] + unit)
    perm = list(range(k))
    for col in range(k):
        found = None
        for c in range(col, k):
            found = next((r for r in range(col, k) if norm(rows[r][c])), None)
            if found is not None:
                break
        if found is None:
            raise NotInvertible("no invertible pivot in column %d" % col)
        if c != col:
            perm[col], perm[c] = perm[c], perm[col]
            for row in rows:
                row[col], row[c] = row[c], row[col]
        rows[col], rows[found] = rows[found], rows[col]
        piv = rows[col]
        p = piv[col]
        s = scale * norm(p)
        pc = (p[0], -p[1], -p[2], -p[3])
        live = [(c, y) for c, y in enumerate(piv) if y != _ZQ]
        for r in range(k):
            row = rows[r]
            f = row[col]
            if r == col or f == _ZQ:
                continue
            g = mul(f, pc)
            row = [(s * x0, s * x1, s * x2, s * x3) for x0, x1, x2, x3 in row]
            for c, y in live:
                x0, x1, x2, x3 = row[c]
                y0, y1, y2, y3 = mul(g, y)
                row[c] = (x0 - y0, x1 - y1, x2 - y2, x3 - y3)
            d = math.gcd(*[x for q in row for x in q])
            if d > 1:
                row = [(x0 // d, x1 // d, x2 // d, x3 // d) for x0, x1, x2, x3 in row]
            rows[r] = row
    out = [None] * k
    for j, row in enumerate(rows):
        w = row[j]
        n = norm(w)
        wc = (w[0], -w[1], -w[2], -w[3])
        out[perm[j]] = [
            Quat._make(params, tuple(Fraction(x, n) for x in mul(wc, a))) for a in row[k:]
        ]
    return MatD(params, out)
