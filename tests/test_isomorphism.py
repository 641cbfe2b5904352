"""The isomorphism h, its generator preimages, and the inverse map."""

import random
from fractions import Fraction

import pytest

from quatalg import (
    HAMILTON,
    AlgebraParams,
    FreePoly,
    GenPoly,
    Quat,
    build_symbolic,
    char_poly,
    comm_det,
    comm_to_free_lift,
    generators,
    h_inv,
    h_map,
    h_z,
    preimage_generator,
)

from conftest import rand_freepoly, rand_genpoly, rand_matd

H = HAMILTON
I, J, K = Quat.basis(H, 1), Quat.basis(H, 2), Quat.basis(H, 3)

QUARTER = Fraction(1, 4)

GOLDEN_PREIMAGES = {
    1: {(0, 0): QUARTER, (1, 1): -QUARTER, (2, 2): -QUARTER, (3, 3): -QUARTER},
    2: {(1, 0): -QUARTER, (0, 1): -QUARTER, (3, 2): -QUARTER, (2, 3): QUARTER},
    3: {(2, 0): -QUARTER, (3, 1): QUARTER, (0, 2): -QUARTER, (1, 3): -QUARTER},
    4: {(3, 0): -QUARTER, (2, 1): -QUARTER, (1, 2): QUARTER, (0, 3): -QUARTER},
}


def test_h_z_image():
    assert h_z(H) == FreePoly(H, {(0, (1,)): 1, (1, (2,)): 1, (2, (3,)): 1, (3, (4,)): 1})


def test_h_map_of_z_plus_jzj():
    z = GenPoly.z(H)
    p = z + GenPoly.from_quat(J) * z * GenPoly.from_quat(J)
    assert h_map(p) == FreePoly(H, {(1, (2,)): 2, (3, (4,)): 2})


def test_h_map_fixes_constants():
    q = Quat(H, 2, -1, 3, Fraction(1, 2))
    assert h_map(GenPoly.from_quat(q)) == FreePoly.from_quat(q)


def test_h_map_homomorphism():
    rng = random.Random(14)
    for _ in range(40):
        p = rand_genpoly(rng, max_degree=2, terms=5)
        q = rand_genpoly(rng, max_degree=2, terms=5)
        assert h_map(p * q) == h_map(p) * h_map(q)
        assert h_map(p + q) == h_map(p) + h_map(q)


def test_preimage_golden_formulas():
    for k, terms in GOLDEN_PREIMAGES.items():
        assert preimage_generator(k, H) == GenPoly(H, terms)


def test_preimages_map_to_generators():
    for k in (1, 2, 3, 4):
        assert h_map(preimage_generator(k, H)) == FreePoly.x(H, k)


def test_preimage_rejects_bad_index():
    with pytest.raises(ValueError):
        preimage_generator(0, H)


def test_preimages_for_other_division_algebras():
    for params in (AlgebraParams(-2, -3), AlgebraParams(-1, -7), AlgebraParams(-5, -1)):
        qs = generators(params)
        for k, q in enumerate(qs, start=1):
            assert h_map(q) == FreePoly.x(params, k)
            assert q.degree() == 1


def test_h_inv_conjugation_golden():
    free = FreePoly(H, {(0, (1,)): 1, (1, (2,)): -1, (2, (3,)): -1, (3, (4,)): -1})
    half = Fraction(-1, 2)
    expected = GenPoly(H, {(0, 0): half, (1, 1): half, (2, 2): half, (3, 3): half})
    assert h_inv(free) == expected


def test_round_trips():
    rng = random.Random(15)
    for _ in range(40):
        p = rand_genpoly(rng, max_degree=3, terms=7)
        assert h_inv(h_map(p)) == p
        q = rand_freepoly(rng, max_degree=3, terms=7)
        assert h_map(h_inv(q)) == q


def test_round_trips_general_params():
    params = AlgebraParams(-3, -2)
    rng = random.Random(16)
    for _ in range(10):
        p = rand_genpoly(rng, params=params, max_degree=2, terms=5)
        assert h_inv(h_map(p)) == p


def test_evaluation_compatibility():
    rng = random.Random(17)
    for _ in range(40):
        q = rand_freepoly(rng, max_degree=3, terms=6)
        coords = [rng.randint(-3, 3) for _ in range(4)]
        lam = Quat(H, *coords)
        assert q.eval_at(coords) == h_inv(q).substitute(lam)


def test_degree_preservation():
    rng = random.Random(18)
    for _ in range(20):
        q = rand_freepoly(rng, max_degree=3, terms=6)
        expected = q.degree()
        got = h_inv(q).degree()
        if expected is None or expected == 0:
            # degree-zero free polynomials are constants on both sides
            assert got == expected or (expected == 0 and got == 0)
        else:
            assert got == expected


@pytest.mark.parametrize(
    "params, k",
    [(H, 3), (H, 4), (AlgebraParams(-2, -3), 3), (AlgebraParams(1, 1), 3),
     (AlgebraParams(Fraction(1, 2), -5), 3)],
    ids=repr,
)
def test_char_poly_round_trip(params, k):
    # the paper's round trip at char-poly scale: h(h_inv(lift(det))) = lift(det)
    mat = rand_matd(random.Random(19 + k), k, params)
    lifted = comm_to_free_lift(comm_det(build_symbolic(mat)), params)
    assert h_map(char_poly(mat)) == lifted
