"""Characteristic polynomials, planted eigenpairs, and the 4x4 reduction."""

import random
from fractions import Fraction

import pytest

from quatalg import (
    HAMILTON,
    AlgebraParams,
    BlockNotInvertible,
    GenPoly,
    MatD,
    OffDiagonalZero,
    Quat,
    build_symbolic,
    char_poly,
    embed_matrix,
    is_left_eigenvalue,
    mat_is_invertible,
    plant_eigenpair,
    quadratic_2x2,
    reduced_norm,
    schur_sextic,
    sextic_eigen_test,
)

from quatalg import matquat

from conftest import rand_matd, rand_nonzero_quat, rand_quat
from test_fast_paths import _mul_reference

H = HAMILTON
I, J, K = Quat.basis(H, 1), Quat.basis(H, 2), Quat.basis(H, 3)


def _shift(mat, lam):
    return mat - MatD.identity(mat.params, mat.k).scale_left(lam)


def test_build_symbolic_specializes_to_embedding():
    rng = random.Random(27)
    for k in (1, 2):
        mat = rand_matd(rng, k)
        sym = build_symbolic(mat)
        lam = rand_quat(rng)
        shifted = embed_matrix(_shift(mat, lam))
        for r in range(2 * k):
            for c in range(2 * k):
                assert sym[r][c].eval_at(lam.coords) == shifted.entry(r, c)


def test_build_symbolic_identity_at_one():
    mat = MatD.identity(H, 2)
    sym = build_symbolic(mat)
    one = Quat.one(H)
    for row in sym:
        for entry in row:
            assert not entry.eval_at(one.coords)


def test_char_poly_of_zero_matrix_is_norm_form():
    p = char_poly(MatD.zeros(H, 1))
    rng = random.Random(28)
    for _ in range(10):
        lam = rand_quat(rng)
        assert p.substitute(lam) == Quat.scalar(H, lam.nrd())


def test_char_poly_1x1_root_is_entry():
    rng = random.Random(29)
    q = rand_quat(rng)
    p = char_poly(MatD(H, [[q]]))
    assert p.substitute(q) == Quat.zero(H)
    other = q + Quat.one(H)
    assert p.substitute(other) != Quat.zero(H)


def test_char_poly_diag_roots():
    zero = Quat.zero(H)
    mat = MatD(H, [[I, zero], [zero, J]])
    p = char_poly(mat)
    assert p.substitute(I) == Quat.zero(H)
    assert p.substitute(J) == Quat.zero(H)


def test_master_identity_small():
    rng = random.Random(30)
    for k in (1, 2):
        for _ in range(4):
            mat = rand_matd(rng, k)
            p = char_poly(mat)
            assert p.degree() == 2 * k
            for _ in range(6):
                lam = rand_quat(rng)
                assert p.substitute(lam) == Quat.scalar(H, reduced_norm(_shift(mat, lam)))


def test_master_identity_other_division_algebra():
    # runs the whole pipeline through the generic (non-vectorized) lanes
    from quatalg import AlgebraParams

    params = AlgebraParams(-2, -3)
    rng = random.Random(44)
    for k in (1, 2):
        mat = rand_matd(rng, k, params)
        p = char_poly(mat)
        assert p.degree() == 2 * k
        for _ in range(5):
            lam = rand_quat(rng, params)
            assert p.substitute(lam) == Quat.scalar(params, reduced_norm(_shift(mat, lam)))


def test_is_left_eigenvalue_examples():
    zero = Quat.zero(H)
    diag = MatD(H, [[I, zero], [zero, J]])
    assert is_left_eigenvalue(diag, I)
    assert not is_left_eigenvalue(MatD.identity(H, 2), Quat.scalar(H, 2))


@pytest.mark.parametrize("ab", [(-1, -1), (-2, -3), (1, 1), (Fraction(1, 2), -5)], ids=str)
def test_is_left_eigenvalue_matches_full_shift(ab):
    # the diagonal-only shift against M - lam*I built from the identity
    params = AlgebraParams(*ab)
    rng = random.Random(33)
    for k in (1, 2, 3, 4):
        vec = (Quat.one(params),) + tuple(rand_quat(rng, params) for _ in range(k - 1))
        lam = Quat(params, Fraction(1, 2), -1, 2, Fraction(-3, 5))
        mat = plant_eigenpair(rand_matd(rng, k, params), vec, lam)
        points = [lam, Quat.zero(params), rand_quat(rng, params), mat.entry(0, 0)]
        for point in points:
            assert matquat._shift(mat, point) == _shift(mat, point)
            assert is_left_eigenvalue(mat, point) == (reduced_norm(_shift(mat, point)) == 0)
        assert is_left_eigenvalue(mat, lam)


def test_plant_eigenpair():
    rng = random.Random(31)
    for k in (2, 3):
        base = rand_matd(rng, k)
        vec = tuple(rand_nonzero_quat(rng) for _ in range(k))
        lam = rand_quat(rng)
        planted = plant_eigenpair(base, vec, lam)
        assert planted.mul_vector(vec) == tuple(lam * v for v in vec)
        assert is_left_eigenvalue(planted, lam)


def test_plant_with_unit_vector_replaces_column():
    rng = random.Random(32)
    base = rand_matd(rng, 3)
    vec = (Quat.one(H), Quat.zero(H), Quat.zero(H))
    lam = rand_quat(rng)
    planted = plant_eigenpair(base, vec, lam)
    col = [planted.rows[r][0] for r in range(3)]
    assert col == [lam, Quat.zero(H), Quat.zero(H)]
    zeroed = plant_eigenpair(base, vec, Quat.zero(H))
    assert reduced_norm(zeroed) == 0


def test_schur_closed_form_case():
    # M = [[0, 0], [I, 0]] in blocks: e = h = z^2, f = g = 0
    zero = Quat.zero(H)
    one = Quat.one(H)
    rows = [[zero] * 4 for _ in range(4)]
    rows[2][0] = one
    rows[3][1] = one
    mat = MatD(H, rows)
    data = schur_sextic(mat)
    z2 = GenPoly.z(H) ** 2
    assert data.e == z2 and data.h == z2
    assert not data.f and not data.g
    assert data.sextic == z2 * z2.conj() * z2
    assert sextic_eigen_test(data, Quat.zero(H))
    assert is_left_eigenvalue(mat, Quat.zero(H))
    rng = random.Random(33)
    for _ in range(8):
        lam = rand_nonzero_quat(rng)
        assert not sextic_eigen_test(data, lam)
        assert not is_left_eigenvalue(mat, lam)
    assert char_poly(mat).degree() == 8


def _rand_4x4_with_invertible_c(rng, plant=None, params=H):
    while True:
        mat = rand_matd(rng, 4, params)
        if plant is not None:
            lam, vec = plant
            mat = plant_eigenpair(mat, vec, lam)
        c_blk = mat.submatrix((2, 3), (0, 1))
        if mat_is_invertible(c_blk):
            return mat


def test_schur_sextic_degrees_and_equivalence(monkeypatch):
    rng = random.Random(34)
    for params, trials in ((H, 3), (AlgebraParams(-2, -3), 2), (AlgebraParams(Fraction(1, 2), -5), 2)):
        for _ in range(trials):
            lam = rand_quat(rng, params)
            vec = tuple(rand_nonzero_quat(rng, params) for _ in range(4))
            mat = _rand_4x4_with_invertible_c(rng, plant=(lam, vec), params=params)
            data = schur_sextic(mat)
            for poly in (data.e, data.f, data.g, data.h):
                d = poly.degree()
                assert d is None or d <= 2
            assert data.sextic.degree() == 6
            assert sextic_eigen_test(data, lam)
            assert is_left_eigenvalue(mat, lam)
            for _ in range(4):
                probe = rand_quat(rng, params)
                expected = reduced_norm(_shift(mat, probe)) == 0
                assert sextic_eigen_test(data, probe) == expected
    # the last sextic, (1/2,-5), once more on the Fraction-by-Fraction product
    monkeypatch.setattr(GenPoly, "__mul__", lambda p, q: _mul_reference(p, p._coerce(q)))
    assert schur_sextic(mat).sextic == data.sextic


def test_schur_rejects_singular_c():
    mat = MatD.identity(H, 4)
    with pytest.raises(BlockNotInvertible):
        schur_sextic(mat)


def test_quadratic_swap_matrix():
    zero, one = Quat.zero(H), Quat.one(H)
    mat = MatD(H, [[zero, one], [one, zero]])
    poly = quadratic_2x2(mat)
    assert poly == GenPoly(H, {(0, 0, 0): 1, (0,): -1})  # z^2 - 1
    assert poly.substitute(one) == Quat.zero(H)
    assert poly.substitute(-one) == Quat.zero(H)


def test_quadratic_planted_and_random():
    rng = random.Random(35)
    for _ in range(6):
        base = rand_matd(rng, 2)
        vec = (rand_nonzero_quat(rng), rand_nonzero_quat(rng))
        lam = rand_quat(rng)
        mat = plant_eigenpair(base, vec, lam)
        if not mat.rows[1][0]:
            continue
        poly = quadratic_2x2(mat)
        assert poly.degree() == 2
        assert poly.substitute(lam) == Quat.zero(H)
        for _ in range(4):
            probe = rand_quat(rng)
            expected = reduced_norm(_shift(mat, probe)) == 0
            assert (poly.substitute(probe) == Quat.zero(H)) == expected


def test_quadratic_triangular_case():
    zero, one = Quat.zero(H), Quat.one(H)
    mat = MatD(H, [[I, one], [zero, J]])
    with pytest.raises(OffDiagonalZero) as excinfo:
        quadratic_2x2(mat)
    assert excinfo.value.eigenvalues == (I, J)
    assert is_left_eigenvalue(mat, I)
    assert is_left_eigenvalue(mat, J)


def test_e_ebar_is_central_at_points():
    rng = random.Random(36)
    vec = tuple(rand_nonzero_quat(rng) for _ in range(4))
    mat = _rand_4x4_with_invertible_c(rng, plant=(rand_quat(rng), vec))
    data = schur_sextic(mat)
    for _ in range(6):
        lam = rand_quat(rng)
        e_val = data.e.substitute(lam)
        prod = e_val.conj() * e_val
        assert prod.is_central
        assert prod == Quat.scalar(H, e_val.nrd())
