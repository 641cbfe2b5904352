"""Left eigenvalues via the characteristic polynomial, and the 4x4 sextic.

The characteristic polynomial of a k x k matrix A is the inverse image
under h of the symbolic determinant det(embed(A) - embed(lambda)) where
lambda = x1 + x2*i + x3*j + x4*ij has central symbolic coordinates.  It
is a general polynomial of degree 2k whose value at any point equals
the reduced norm of A - lambda*I, so its roots are exactly the left
eigenvalues.

For 4 x 4 matrices with invertible lower-left block C the degree-8
characteristic polynomial can be traded for one sextic: with
C(A - zI)C^-1(D - zI) - CB = [[e, f], [g, h]], a point is a left
eigenvalue iff e, f*g vanish there, or e does not vanish and
e*conj(e)*h - g*conj(e)*f does.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import KElem, Quat
from .errors import BlockNotInvertible, DimensionMismatch, NotInvertible, OffDiagonalZero
from .freepoly import CommPoly, comm_det, comm_to_free_lift
from .genpoly import GenPoly, gen_matmul, gen_matsub
from .isomorphism import h_inv
from .matquat import MatD, _shift, embed_matrix, mat_inv, mat_is_invertible, reduced_norm


def build_symbolic(mat: MatD):
    """The 2k x 2k matrix of embed(A) - embed(lambda*I) with symbolic lambda.

    Entries are commutative polynomials over K of degree at most one;
    evaluating them at the coordinates of a concrete point reproduces
    embed_matrix(A - lambda*I) exactly.
    """
    params = mat.params
    a, b = params.a, params.b
    k = mat.k
    one = Fraction(1)
    embedded = embed_matrix(mat)
    out = [
        [CommPoly.const(embedded.entry(r, c)) for c in range(2 * k)]
        for r in range(2 * k)
    ]
    # the embedding of lambda*I: z1 = x1 + x2 i, z2 = x3 + x4 i per diagonal slot
    z1 = CommPoly.var(a, 1, KElem(one, 0, a)) + CommPoly.var(a, 2, KElem(0, one, a))
    z1c = CommPoly.var(a, 1, KElem(one, 0, a)) + CommPoly.var(a, 2, KElem(0, -one, a))
    z2b = CommPoly.var(a, 3, KElem(b, 0, a)) + CommPoly.var(a, 4, KElem(0, b, a))
    z2c = CommPoly.var(a, 3, KElem(one, 0, a)) + CommPoly.var(a, 4, KElem(0, -one, a))
    for r in range(k):
        out[r][r] = out[r][r] - z1
        out[r][r + k] = out[r][r + k] - z2b
        out[r + k][r] = out[r + k][r] - z2c
        out[r + k][r + k] = out[r + k][r + k] - z1c
    return out


def char_poly(mat: MatD) -> GenPoly:
    """Characteristic polynomial: roots are exactly the left eigenvalues.

    Degree is 2k, and for every point x of the algebra the value of the
    polynomial at x equals reduced_norm(mat - x*I).
    """
    det = comm_det(build_symbolic(mat))
    lifted = comm_to_free_lift(det, mat.params)
    return h_inv(lifted)


def is_left_eigenvalue(mat: MatD, lam: Quat) -> bool:
    """Exact test: the reduced norm of mat - lam*I vanishes."""
    return reduced_norm(_shift(mat, lam)) == 0


def plant_eigenpair(base: MatD, vec, lam: Quat, pivot: int | None = None) -> MatD:
    """Replace one column of base so that (lam, vec) is an exact eigenpair.

    The chosen coordinate vec[pivot] must be invertible (default: the
    first coordinate with nonzero reduced norm); the returned matrix M
    satisfies M @ vec == lam * vec, giving a ground-truth left
    eigenvalue for tests and demos.
    """
    params = base.params
    vec = tuple(vec)
    if len(vec) != base.k:
        raise DimensionMismatch("vector length does not match matrix size")
    if pivot is None:
        pivot = next((m for m, v in enumerate(vec) if v.nrd() != 0), None)
        if pivot is None:
            raise NotInvertible("vector has no invertible coordinate")
    elif vec[pivot].nrd() == 0:
        raise NotInvertible(f"coordinate {pivot} is not invertible")
    vm_inv = vec[pivot].inv()
    rows = []
    for r in range(base.k):
        rest = Quat.zero(params)
        for c in range(base.k):
            if c != pivot:
                rest = rest + base.rows[r][c] * vec[c]
        new_entry = (lam * vec[r] - rest) * vm_inv
        row = list(base.rows[r])
        row[pivot] = new_entry
        rows.append(row)
    return MatD(params, rows)


@dataclass(frozen=True)
class SchurData:
    """The four quadratic corner polynomials and the sextic built from them."""

    e: GenPoly
    f: GenPoly
    g: GenPoly
    h: GenPoly
    sextic: GenPoly


def _const_block(mat: MatD, rows, cols):
    return [[GenPoly.from_quat(mat.rows[r][c]) for c in cols] for r in rows]


def schur_sextic(mat: MatD) -> SchurData:
    """Block reduction of a 4x4 matrix with invertible lower-left block.

    Computes C(A - zI)C^-1(D - zI) - CB with z between the conjugated
    constant factors, exactly in the written order, and returns the
    corner polynomials e, f, g, h (degree at most 2) together with
    sextic = e*conj(e)*h - g*conj(e)*f (degree at most 6).
    """
    if mat.k != 4:
        raise DimensionMismatch("the sextic reduction needs a 4x4 matrix")
    params = mat.params
    top, bottom = (0, 1), (2, 3)
    c_blk = mat.submatrix(bottom, top)
    if not mat_is_invertible(c_blk):
        raise BlockNotInvertible("lower-left 2x2 block is singular")
    c_inv = mat_inv(c_blk)

    z = GenPoly.z(params)
    a_mz = _const_block(mat, top, top)
    d_mz = _const_block(mat, bottom, bottom)
    for r in range(2):
        a_mz[r][r] = a_mz[r][r] - z
        d_mz[r][r] = d_mz[r][r] - z
    c_g = [[GenPoly.from_quat(q) for q in row] for row in c_blk.rows]
    cinv_g = [[GenPoly.from_quat(q) for q in row] for row in c_inv.rows]
    b_g = _const_block(mat, top, bottom)

    prod = gen_matmul(gen_matmul(gen_matmul(c_g, a_mz), cinv_g), d_mz)
    t = gen_matsub(prod, gen_matmul(c_g, b_g))
    e, f, g, h = t[0][0], t[0][1], t[1][0], t[1][1]
    ebar = e.conj()
    sextic = e * ebar * h - g * ebar * f
    return SchurData(e, f, g, h, sextic)


def sextic_eigen_test(data: SchurData, lam: Quat) -> bool:
    """Exact eigenvalue test through the reduced block.

    When e(lam) is nonzero the test is the vanishing of the sextic;
    when e(lam) = 0 the block matrix is singular iff f(lam)*g(lam) = 0.
    Equivalent to reduced_norm(M - lam*I) = 0 for the source matrix.
    """
    e_val = data.e.substitute(lam)
    if e_val:
        return not data.sextic.substitute(lam)
    return not (data.f.substitute(lam) * data.g.substitute(lam))


def quadratic_2x2(mat: MatD) -> GenPoly:
    """Degree-2 polynomial whose roots are the left eigenvalues of a 2x2.

    For [[a, b], [c, d]] with c != 0 this is c(a - z)c^-1(d - z) - cb.
    When c = 0 the matrix is triangular and the eigenvalues are exactly
    the diagonal entries; that case raises OffDiagonalZero carrying
    them instead of returning a polynomial.  A nonzero c with zero
    reduced norm, which only split algebras have, raises NotInvertible.
    """
    if mat.k != 2:
        raise DimensionMismatch("need a 2x2 matrix")
    a_, b_ = mat.rows[0]
    c_, d_ = mat.rows[1]
    if not c_:
        raise OffDiagonalZero(a_, d_)
    c_inv = c_.inv()
    z = GenPoly.z(mat.params)
    poly = (
        GenPoly.from_quat(c_)
        * (GenPoly.from_quat(a_) - z)
        * GenPoly.from_quat(c_inv)
        * (GenPoly.from_quat(d_) - z)
        - GenPoly.from_quat(c_ * b_)
    )
    return poly
