"""Matrices over the algebra: embedding, reduced norm, determinants."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatalg import (
    HAMILTON,
    AlgebraParams,
    CommPoly,
    DimensionMismatch,
    KElem,
    MatD,
    MatK,
    NotInvertible,
    Quat,
    UnsupportedAlgebra,
    comm_det,
    dieudonne_det,
    embed_matrix,
    mat_inv,
    mat_is_invertible,
    reduced_norm,
)

from conftest import rand_matd, rand_quat

H = HAMILTON
I, J, K = Quat.basis(H, 1), Quat.basis(H, 2), Quat.basis(H, 3)


def _diag(params, *entries):
    k = len(entries)
    zero = Quat.zero(params)
    return MatD(params, [[entries[r] if r == c else zero for c in range(k)] for r in range(k)])


def test_matrix_arithmetic_basics():
    rng = random.Random(19)
    a = rand_matd(rng, 3)
    b = rand_matd(rng, 3)
    ident = MatD.identity(H, 3)
    assert a * ident == a
    assert (a + b) - b == a
    one_by_one = MatD(H, [[I]]) * MatD(H, [[J]])
    assert one_by_one == MatD(H, [[K]])


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        rand_matd(random.Random(0), 2) * rand_matd(random.Random(0), 3)
    with pytest.raises(DimensionMismatch):
        MatD(H, [[Quat.one(H), Quat.zero(H)]])


def test_embed_examples():
    emb = embed_matrix(MatD(H, [[I]]))
    assert emb.entry(0, 0).v == 1 and emb.entry(1, 1).v == -1
    assert not emb.entry(0, 1) and not emb.entry(1, 0)
    ident = MatD.identity(H, 3)
    assert embed_matrix(ident) == embed_matrix(ident) * embed_matrix(ident)


def test_embed_homomorphism():
    rng = random.Random(20)
    for _ in range(15):
        a = rand_matd(rng, 2)
        b = rand_matd(rng, 2)
        assert embed_matrix(a * b) == embed_matrix(a) * embed_matrix(b)
        assert embed_matrix(a + b) == embed_matrix(a) + embed_matrix(b)


def test_embed_homomorphism_general_params():
    params = AlgebraParams(-2, -3)
    rng = random.Random(21)
    for _ in range(10):
        a = rand_matd(rng, 2, params)
        b = rand_matd(rng, 2, params)
        assert embed_matrix(a * b) == embed_matrix(a) * embed_matrix(b)


def test_reduced_norm_examples():
    q = Quat(H, 1, 2, -1, 3)
    assert reduced_norm(MatD(H, [[q]])) == q.nrd()
    assert reduced_norm(MatD.identity(H, 3)) == 1
    assert reduced_norm(_diag(H, I, J)) == 1


def test_reduced_norm_multiplicative():
    rng = random.Random(22)
    for k in (2, 3):
        for _ in range(8):
            a = rand_matd(rng, k)
            b = rand_matd(rng, k)
            assert reduced_norm(a * b) == reduced_norm(a) * reduced_norm(b)


def test_reduced_norm_nonnegative_for_definite():
    rng = random.Random(23)
    for params in (H, AlgebraParams(-2, -5)):
        for _ in range(10):
            assert reduced_norm(rand_matd(rng, 2, params)) >= 0


def test_dieudonne_examples():
    assert dieudonne_det(MatD.identity(H, 2)) == 1.0
    assert dieudonne_det(MatD(H, [[Quat(H, 1, 1, 1, 1)]])) == 2.0
    row = [Quat(H, 1, 2, 0, 0), Quat(H, 0, 0, 3, 1)]
    singular = MatD(H, [row, row])
    assert dieudonne_det(singular) == 0.0


def test_dieudonne_requires_definite():
    split = AlgebraParams(1, -1)
    with pytest.raises(UnsupportedAlgebra):
        dieudonne_det(MatD.identity(split, 2))


def test_dieudonne_relations():
    rng = random.Random(24)
    for k in (1, 2, 3, 4):
        for _ in range(4):
            a = rand_matd(rng, k)
            b = rand_matd(rng, k)
            da, db, dab = dieudonne_det(a), dieudonne_det(b), dieudonne_det(a * b)
            assert math.isclose(da * da, float(reduced_norm(a)), rel_tol=1e-9, abs_tol=1e-9)
            assert math.isclose(dab, da * db, rel_tol=1e-9, abs_tol=1e-9)


def _rank_by_elimination(mat: MatD) -> int:
    # independent invertibility oracle: left row reduction over the algebra
    rows = [list(r) for r in mat.rows]
    k = mat.k
    rank = 0
    for col in range(k):
        pivot = None
        for r in range(rank, k):
            if rows[r][col].nrd() != 0:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = rows[rank][col].inv()
        rows[rank] = [inv * x for x in rows[rank]]
        for r in range(k):
            if r != rank and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def test_invertibility_matches_elimination_oracle():
    rng = random.Random(25)
    cases = [rand_matd(rng, 2) for _ in range(15)]
    row = [rand_quat(rng), rand_quat(rng)]
    cases.append(MatD(H, [row, [x * Quat.scalar(H, 2) for x in row]]))  # forced singular
    cases.append(MatD.zeros(H, 2))
    # rows (i, 1) and (-1, i) are left-dependent: (-1, i) = i * (i, 1)
    cases.append(MatD(H, [[I, Quat.one(H)], [-Quat.one(H), I]]))
    for mat in cases:
        assert mat_is_invertible(mat) == (_rank_by_elimination(mat) == mat.k)
    assert reduced_norm(cases[-1]) == 0


def test_mat_inv_round_trip():
    rng = random.Random(26)
    for k in (1, 2, 3):
        for _ in range(6):
            mat = rand_matd(rng, k)
            if not mat_is_invertible(mat):
                continue
            inv = mat_inv(mat)
            assert mat * inv == MatD.identity(H, k)
            assert inv * mat == MatD.identity(H, k)
    with pytest.raises(NotInvertible):
        mat_inv(MatD.zeros(H, 2))


# division algebras, a split one, and rational, non-square and square a
DIFF_PARAMS = [(-1, -1), (-2, -3), (1, 1), (Fraction(1, 2), -5), (4, -3), (2, 3)]


def _mat_inv_reference(mat: MatD) -> MatD:
    # the Fraction Gauss-Jordan loop the integer kernel replaced
    params = mat.params
    k = mat.k
    work = [list(row) for row in mat.rows]
    aug = [list(row) for row in MatD.identity(params, k).rows]
    for col in range(k):
        pivot = None
        for r in range(col, k):
            if work[r][col].nrd() != 0:
                pivot = r
                break
        if pivot is None:
            raise NotInvertible("no invertible pivot in column %d" % col)
        work[col], work[pivot] = work[pivot], work[col]
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = work[col][col].inv()
        work[col] = [inv * x for x in work[col]]
        aug[col] = [inv * x for x in aug[col]]
        for r in range(k):
            if r == col:
                continue
            factor = work[r][col]
            if not factor:
                continue
            work[r] = [x - factor * y for x, y in zip(work[r], work[col])]
            aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return MatD(params, aug)


def _check_inv(mat: MatD):
    # equal to the reference wherever it returns; where it raises, either
    # raise too or (complete pivoting) return a two-sided inverse
    try:
        expected = _mat_inv_reference(mat)
    except NotInvertible:
        expected = None
    if expected is not None:
        assert mat_inv(mat) == expected
        return True
    ident = MatD.identity(mat.params, mat.k)
    try:
        inv = mat_inv(mat)
    except NotInvertible:
        return False
    assert mat * inv == ident and inv * mat == ident
    return True


def _cofactor_det(mat: MatK) -> KElem:
    # the symbolic cofactor engine on constant entries
    det = comm_det([[CommPoly.const(x) for x in row] for row in mat.rows])
    return det.terms.get((0, 0, 0, 0), KElem.zero(mat.a))


def _rand_rational_quat(rng, params):
    return Quat(params, *[Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3, 5))) for _ in range(4)])


def _diff_cases(rng, params, k):
    yield rand_matd(rng, k, params)
    yield MatD(params, [[_rand_rational_quat(rng, params) for _ in range(k)] for _ in range(k)])
    if k > 1:
        # last row a left multiple of the first; then a zero first column
        rows = [[_rand_rational_quat(rng, params) for _ in range(k)] for _ in range(k)]
        factor = rand_quat(rng, params)
        rows[-1] = [factor * x for x in rows[0]]
        yield MatD(params, rows)
        zero = Quat.zero(params)
        yield MatD(params, [[zero] + row[1:] for row in rows[::-1]])


@pytest.mark.parametrize("ab", DIFF_PARAMS, ids=str)
def test_reduced_norm_matches_cofactor_route(ab):
    params = AlgebraParams(*ab)
    rng = random.Random(27)
    for k in range(1, 6):
        for mat in _diff_cases(rng, params, k):
            expected = _cofactor_det(embed_matrix(mat))
            assert expected.v == 0
            assert reduced_norm(mat) == expected.u


@pytest.mark.parametrize("a", [-1, Fraction(-3, 4), 1, 4, Fraction(9, 4), Fraction(2, 7)], ids=str)
def test_k_det_matches_cofactor_route(a):
    # general matrices over K, whose determinants have i-parts too
    a = Fraction(a)
    rng = random.Random(28)

    def entry():
        return KElem(Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))),
                     Fraction(rng.randint(-3, 3), rng.choice((1, 2, 7))), a)

    for m in range(1, 7):
        mat = MatK(a, [[entry() for _ in range(m)] for _ in range(m)])
        assert mat.det() == _cofactor_det(mat)
    # the second row [i, a + i] is i times the first [1, 1 + i], as i^2 = a
    one, i = KElem.one(a), KElem(0, 1, a)
    assert MatK(a, [[one, one + i], [i, KElem(a, 1, a)]]).det() == KElem.zero(a)
    with pytest.raises(DimensionMismatch):
        MatK(a, []).det()


def _big_quat(rng, params, num, den):
    return Quat(params, *[Fraction(rng.randint(-num, num), rng.randint(1, den)) for _ in range(4)])


@pytest.mark.parametrize("ab", DIFF_PARAMS, ids=str)
def test_mat_inv_fast_vs_generic(ab):
    params = AlgebraParams(*ab)
    rng = random.Random(31)
    for k in range(1, 9):
        cases = [MatD(params, [[_rand_rational_quat(rng, params) for _ in range(k)] for _ in range(k)])]
        if k <= 6:
            cases.append(rand_matd(rng, k, params))
            # numerators up to 1e30; then denominators up to 1e30 as well
            sizes = [(10**30, 5)] + ([(10**30, 10**30)] if k <= 3 else [])
            cases += [MatD(params, [[_big_quat(rng, params, num, den) for _ in range(k)]
                                    for _ in range(k)]) for num, den in sizes]
        for mat in cases:
            assert _check_inv(mat) == (reduced_norm(mat) != 0)
    zero = Quat.zero(params)
    for k in range(1, 6):
        for mat in list(_diff_cases(rng, params, k))[2:] + [MatD.zeros(params, k)]:
            # singular: a row that is a left multiple of another, a zero column
            assert reduced_norm(mat) == 0
            with pytest.raises(NotInvertible):
                mat_inv(mat)
            with pytest.raises(NotInvertible):
                _mat_inv_reference(mat)
    assert mat_inv(MatD(params, [])) == MatD(params, [])
    assert mat_inv(MatD(params, [[zero, Quat.one(params)], [Quat.one(params), zero]])) == \
        MatD(params, [[zero, Quat.one(params)], [Quat.one(params), zero]])


def test_mat_inv_pivots_past_a_norm_zero_column():
    params = AlgebraParams(1, 1)
    one = Quat.one(params)
    p, q = Quat(params, 1, 1, 0, 0), Quat(params, 1, -1, 0, 0)
    # column 0 holds only zero divisors, column 1 does not
    mat = MatD(params, [[p, one], [q, 2 * one]])
    assert reduced_norm(mat) != 0
    with pytest.raises(NotInvertible):
        _mat_inv_reference(mat)
    inv = mat_inv(mat)
    ident = MatD.identity(params, 2)
    assert mat * inv == ident and inv * mat == ident
    # a 3x3 whose first two columns hold only zero divisors (j + ij has norm 0)
    r = Quat(params, 0, 0, 1, 1)
    mat = MatD(params, [[p, p, one], [q, r, 2 * one], [p, q, 3 * one]])
    assert reduced_norm(mat) == 32
    inv = mat_inv(mat)
    ident = MatD.identity(params, 3)
    assert mat * inv == ident and inv * mat == ident
    # the swap at column 1 must move the entries of the row above too
    zero = Quat.zero(params)
    mat = MatD(params, [[one, Quat.basis(params, 2), Quat(params, 2, 0, 0, 1)],
                        [zero, p, one], [zero, q, 2 * one]])
    assert reduced_norm(mat) != 0
    with pytest.raises(NotInvertible):
        _mat_inv_reference(mat)
    inv = mat_inv(mat)
    assert mat * inv == ident and inv * mat == ident
    # every entry has norm zero: still refused, though nrd = -16
    with pytest.raises(NotInvertible):
        mat_inv(MatD(params, [[p, q], [q, p]]))


def test_reduced_norm_of_split_example():
    # invertible, though no entry of column 0 is (1 + i and 1 - i are zero divisors)
    params = AlgebraParams(1, 1)
    p, q = Quat(params, 1, 1, 0, 0), Quat(params, 1, -1, 0, 0)
    assert reduced_norm(MatD(params, [[p, q], [q, p]])) == -16


small_coords = st.integers(-3, 3)


def _matrices(params, k):
    quat = st.tuples(small_coords, small_coords, small_coords, small_coords).map(
        lambda t: Quat(params, *t))
    row = st.lists(quat, min_size=k, max_size=k)
    return st.lists(row, min_size=k, max_size=k).map(lambda rows: MatD(params, rows))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_reduced_norm_multiplicative_property(data):
    ab = data.draw(st.sampled_from([(-2, -3), (1, 1), (Fraction(1, 2), -5), (4, -3), (2, 3)]))
    params = AlgebraParams(*ab)
    k = data.draw(st.integers(1, 4))
    a = data.draw(_matrices(params, k))
    b = data.draw(_matrices(params, k))
    assert reduced_norm(a * b) == reduced_norm(a) * reduced_norm(b)


def test_reduced_norm_multiplicative_at_k12():
    # far beyond the 2^(2k) column subsets of the cofactor route
    rng = random.Random(29)
    for params in (H, AlgebraParams(-2, -3), AlgebraParams(1, 1)):
        a = rand_matd(rng, 12, params)
        b = rand_matd(rng, 12, params)
        assert reduced_norm(a * b) == reduced_norm(a) * reduced_norm(b)


def _complex_adjoint_det(mat: MatD):
    # independent oracle: det of [[A1, A2], [-conj(A2), conj(A1)]] over Q(i)
    from sympy import QQ_I
    from sympy.polys.matrices import DomainMatrix

    k = mat.k
    grid = [[None] * (2 * k) for _ in range(2 * k)]
    for r in range(k):
        for c in range(k):
            c1, c2, c3, c4 = mat.entry(r, c).coords
            grid[r][c] = QQ_I(c1, c2)
            grid[r][c + k] = QQ_I(c3, c4)
            grid[r + k][c] = QQ_I(-c3, c4)
            grid[r + k][c + k] = QQ_I(c1, -c2)
    det = DomainMatrix(grid, (2 * k, 2 * k), QQ_I).det()
    assert det.y == 0
    return Fraction(int(det.x.numerator), int(det.x.denominator))


def test_reduced_norm_matches_complex_adjoint_oracle():
    rng = random.Random(30)
    for k in range(1, 7):
        for mat in _diff_cases(rng, H, k):
            assert reduced_norm(mat) == _complex_adjoint_det(mat)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_mat_inv_two_sided_property(data):
    ab = data.draw(st.sampled_from([(-2, -3), (1, 1), (Fraction(1, 2), -5), (4, -3), (2, 3)]))
    params = AlgebraParams(*ab)
    k = data.draw(st.integers(1, 4))
    a = data.draw(_matrices(params, k))
    ident = MatD.identity(params, k)
    if reduced_norm(a) == 0:
        with pytest.raises(NotInvertible):
            mat_inv(a)
        return
    try:
        inv = mat_inv(a)
    except NotInvertible:
        # only split algebras have nonzero entries of norm zero
        assert ab in ((1, 1), (4, -3))
        return
    assert a * inv == ident and inv * a == ident
