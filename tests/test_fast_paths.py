"""The exact kernels of `GenPoly` products, `substitute`, `h_map` and `h_inv`
against reference loops.

The references are the Fraction-by-Fraction routes the kernels replaced:
the product merges each pair of boundary letters one Fraction at a time,
substitution walks every word through a prefix memo, h_map multiplies
e_b0 * X * e_b1 * ... * X * e_bn as `FreePoly` products through a prefix
memo, and h_inv expands e_beta * q_w1 * ... * q_wn with `GenPoly`
products.  Coordinates up to 1e30 push the kernels past int64 onto
several moduli and the CRT.
"""

import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatalg import (
    HAMILTON,
    AlgebraParams,
    BudgetExceeded,
    FreePoly,
    GenPoly,
    InternalInvariant,
    Quat,
    generators,
    h_inv,
    h_map,
    h_z,
)
from quatalg import isomorphism

from conftest import rand_genpoly

PARAMS = [
    HAMILTON,
    AlgebraParams(-2, -3),
    AlgebraParams(1, 1),
    AlgebraParams(Fraction(1, 2), -5),
    AlgebraParams(7, Fraction(-3, 5)),
]
NON_HAMILTON = PARAMS[1:]


def _mul_reference(p, q):
    table = p.params.table
    acc = {}
    for wu, cu in p.terms.items():
        head = wu[:-1]
        row = table[wu[-1]]
        for wv, cv in q.terms.items():
            # the two boundary basis letters merge: e_x e_y = s*e_(x^y)
            coeff, idx = row[wv[0]]
            word = head + (idx,) + wv[1:]
            c = cu * cv * coeff
            s = acc.get(word)
            acc[word] = c if s is None else s + c
    return GenPoly._make(p.params, {w: c for w, c in acc.items() if c})


def _substitute_reference(poly, d):
    params = poly.params
    memo = {}
    total = Quat.zero(params)
    for word, coeff in poly.terms.items():
        value = Quat.basis(params, word[0])
        for end in range(2, len(word) + 1):
            prefix = word[:end]
            got = memo.get(prefix)
            if got is None:
                got = value * d * Quat.basis(params, word[end - 1])
                memo[prefix] = got
            value = got
        total = total + value * coeff
    return total


def _h_map_reference(poly):
    params = poly.params
    # X * e_b for each basis letter; prefixes of words are shared
    x_poly = h_z(params)
    ext = tuple(x_poly * FreePoly.from_quat(Quat.basis(params, b)) for b in range(4))
    cache = {}

    def prefix_value(word):
        got = cache.get(word)
        if got is None:
            if len(word) == 1:
                got = FreePoly.from_quat(Quat.basis(params, word[0]))
            else:
                got = prefix_value(word[:-1]) * ext[word[-1]]
            cache[word] = got
        return got

    acc = {}
    for word, coeff in poly.terms.items():
        for key, c in prefix_value(word).terms.items():
            s = acc.get(key)
            v = c * coeff
            acc[key] = v if s is None else s + v
    return {k: c for k, c in acc.items() if c}


def _h_inv_reference(poly):
    params = poly.params
    qs = generators(params)
    cache = {(): GenPoly.one(params)}

    def product(word):
        got = cache.get(word)
        if got is None:
            got = product(word[:-1]) * qs[word[-1] - 1]
            cache[word] = got
        return got

    acc = {}
    for (beta, word), coeff in poly.terms.items():
        left = GenPoly.from_quat(Quat.basis(params, beta) * coeff)
        for w, c in (left * product(word)).terms.items():
            s = acc.get(w)
            acc[w] = c if s is None else s + c
    return {w: c for w, c in acc.items() if c}


def _coeff(rng, big):
    num = rng.randint(-big, big) or 1
    return Fraction(num, rng.choice((1, 2, 3, 4, 8, 9)))


def _bulk_genpoly(rng, params, max_degree, terms, big):
    out = {}
    for _ in range(terms):
        deg = rng.randint(0, max_degree)
        out[tuple(rng.randint(0, 3) for _ in range(deg + 1))] = _coeff(rng, big)
    return GenPoly(params, out)


def _bulk_freepoly(rng, params, max_degree, terms, big):
    out = {}
    while len(out) < terms:
        deg = rng.randint(0, max_degree)
        key = (rng.randint(0, 3), tuple(rng.randint(1, 4) for _ in range(deg)))
        out[key] = _coeff(rng, big)
    return FreePoly(params, out)


def _wide_coeff(rng, big):
    return Fraction(rng.randint(-big, big) or 1, rng.randint(1, big))


def _point(rng, params, big):
    return Quat(params, *[Fraction(rng.randint(-big, big), rng.randint(1, 5)) for _ in range(4)])


def _as_genpoly(params, x):
    if isinstance(x, GenPoly):
        return x
    if isinstance(x, Quat):
        return GenPoly.from_quat(x)
    return GenPoly.constant(params, x)


def _check_mul(p, q):
    params = p.params if isinstance(p, GenPoly) else q.params
    got = p * q
    assert isinstance(got, GenPoly)
    assert got == _mul_reference(_as_genpoly(params, p), _as_genpoly(params, q))
    assert all(c for c in got.terms.values())


@pytest.mark.parametrize("params", PARAMS, ids=repr)
def test_mul_fast_vs_generic(params):
    rng = random.Random(47)
    for big in (9, 10**6, 10**30):
        for _ in range(4):
            # numerators and denominators both up to big
            p = GenPoly(params, {tuple(rng.randint(0, 3) for _ in range(rng.randint(1, 6))):
                                 _wide_coeff(rng, big) for _ in range(12)})
            q = _bulk_genpoly(rng, params, 5, 10, big)
            _check_mul(p, q)
            _check_mul(q, p)
            _check_mul(p, p)
    zero, one = GenPoly.zero(params), GenPoly.one(params)
    p = _bulk_genpoly(rng, params, 3, 8, 10**30)
    lam = _point(rng, params, 10**30)
    for other in (zero, one, GenPoly.constant(params, Fraction(-7, 10**30 + 1)), lam,
                  Quat.zero(params), 3, 0, Fraction(10**30, 7)):
        _check_mul(p, other)
        _check_mul(other, p)
        _check_mul(zero, other)
    assert (p * zero).terms == {} and (zero * p).terms == {}
    # z i + z j times b i z - a j z: the z*z terms cancel, ab - ab = 0
    a, b = params.a, params.b
    left = GenPoly(params, {(0, 1): 1, (0, 2): 1})
    right = GenPoly(params, {(1, 0): b, (2, 0): -a})
    _check_mul(left, right)
    assert (0, 0, 0) not in (left * right).terms
    # one sparse word of 41 letters on either side
    word = tuple(rng.randint(0, 3) for _ in range(41))
    long = GenPoly(params, {word: Fraction(3, 7), (2, 0): 5})
    _check_mul(long, p)
    _check_mul(p, long)
    _check_mul(long, long)


def test_mul_cancels_to_zero_in_a_split_algebra():
    # (1+i)(1-i) = 1 - a = 0 in (1,1): z(1+i) * (1-i)z is the zero polynomial
    params = AlgebraParams(1, 1)
    left = GenPoly(params, {(0, 0): 1, (0, 1): 1})
    right = GenPoly(params, {(0, 0): 1, (1, 0): -1})
    assert (left * right).terms == {}
    assert _mul_reference(left, right).terms == {}
    assert (Quat(params, 1, 1, 0, 0) * right).terms == {}


def test_substitute_fast_vs_generic():
    rng = random.Random(41)
    for params in PARAMS:
        for big in (4, 10**6, 10**30):
            for _ in range(4):
                poly = _bulk_genpoly(rng, params, 4, 40, big)
                for scale in (3, 10**30):
                    lam = _point(rng, params, scale)
                    assert poly.substitute(lam) == _substitute_reference(poly, lam)


def test_h_inv_fast_vs_generic():
    rng = random.Random(42)
    for params in PARAMS:
        for big in (9, 10**30):
            for _ in range(4):
                poly = _bulk_freepoly(rng, params, 4, 30, big)
                got = h_inv(poly)
                assert got.terms == _h_inv_reference(poly)
                # the array form handed over by h_inv evaluates like the terms
                lam = _point(rng, params, 4)
                assert got.substitute(lam) == _substitute_reference(got, lam)


def test_h_map_fast_vs_generic():
    rng = random.Random(43)
    for params in PARAMS:
        for big in (9, 10**30):
            for _ in range(3):
                poly = _bulk_genpoly(rng, params, 5, 30, big)
                assert h_map(poly).terms == _h_map_reference(poly)


def test_linear_image_matches_h_map():
    rng = random.Random(45)
    for params in PARAMS:
        for _ in range(10):
            words = [(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(rng.randint(1, 6))]
            p = GenPoly(params, {w: _coeff(rng, 10**6) for w in words})
            image = {(beta, (m,)): c for m, q in isomorphism._linear_image(p).items()
                     for beta, c in enumerate(q.coords) if c}
            assert image == h_map(p).terms


def test_generator_search_does_not_load_numpy():
    code = ("import sys; from quatalg import AlgebraParams, generators; from quatalg import cli; "
            "generators(AlgebraParams(-2, -3)); "
            "assert cli.main(['hinv', '--algebra=5,-7', '--var', '2']) == 0; "
            "assert 'numpy' not in sys.modules")
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60, stdout=subprocess.DEVNULL)


def test_products_do_not_load_numpy():
    # the parser multiplies GenPolys, and numeric eigcheck/nrd reach it
    code = ("import sys; from quatalg import HAMILTON, AlgebraParams, MatD, mat_inv, parse_quat, "
            "quadratic_2x2, schur_sextic; "
            "q = parse_quat('1/2 + 3*i*j - k', HAMILTON); "
            "rows = [[parse_quat(f'{r} + {c}*i - j', HAMILTON) for c in range(4)] for r in range(4)]; "
            "rows[2][0] = rows[2][0] + q; "
            "assert quadratic_2x2(MatD(HAMILTON, [r[:2] for r in rows[:2]])).degree() == 2; "
            "assert schur_sextic(MatD(HAMILTON, rows)).sextic.degree() == 6; "
            "split, rat = AlgebraParams(1, 1), AlgebraParams('1/2', -5); "
            "m = MatD(split, [[parse_quat(t, split) for t in r] for r in (['1+i', '1'], ['1-i', '2'])]); "
            "assert mat_inv(m) * m == MatD.identity(split, 2); "
            "m = MatD(rat, [[parse_quat(t, rat) for t in r] for r in (['1/3+k', 'i'], ['j', '2'])]); "
            "assert m * mat_inv(m) == MatD.identity(rat, 2); "
            "assert 'numpy' not in sys.modules")
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60)


def test_step_kernel_budget():
    # a degree-n word needs 4^(n+1) dense entries: n = 14 alone is 8 GiB,
    # so each of these must be refused before any allocation
    long_word = GenPoly(HAMILTON, {(1, 2, 3) * 500: 1})
    with pytest.raises(BudgetExceeded):
        h_map(long_word)
    rng = random.Random(46)
    word = tuple(rng.randint(0, 3) for _ in range(41))
    with pytest.raises(BudgetExceeded):
        h_map(GenPoly(HAMILTON, {word: 1, (2,): 3}))
    for letters in (14, 41):
        free = FreePoly(HAMILTON, {(1, tuple(rng.randint(1, 4) for _ in range(letters))): 1})
        with pytest.raises(BudgetExceeded):
            h_inv(free)


@pytest.mark.parametrize("params", PARAMS, ids=repr)
def test_degenerate_polynomials(params):
    lam = Quat(params, 2, -1, 3, Fraction(1, 2))
    zero = GenPoly.zero(params)
    assert zero.substitute(lam) == Quat.zero(params)
    assert h_inv(FreePoly.zero(params)) == zero
    const = GenPoly.from_quat(Quat(params, 1, Fraction(-2, 3), 0, 5))
    assert const.substitute(lam) == Quat(params, 1, Fraction(-2, 3), 0, 5)
    assert h_inv(h_map(const)) == const
    # one sparse word of 40 letters, beyond any packed base-4 index
    rng = random.Random(44)
    word = tuple(rng.randint(0, 3) for _ in range(41))
    sparse = GenPoly(params, {word: Fraction(3, 7), (2, 0): 5})
    assert sparse.substitute(lam) == _substitute_reference(sparse, lam)
    assert sparse.substitute(Quat.zero(params)) == _substitute_reference(sparse, Quat.zero(params))


def test_generator_shape_is_checked(monkeypatch):
    params = AlgebraParams(-5, -7)
    real = generators(params)
    bad = (real[0] + GenPoly(params, {(0, 1): 1}),) + real[1:]
    isomorphism._step_table.cache_clear()
    monkeypatch.setattr(isomorphism, "generators", lambda p: bad)
    with pytest.raises(InternalInvariant):
        h_inv(FreePoly.x(params, 1))


def test_import_does_not_load_numpy():
    code = "import quatalg, sys; assert 'numpy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_round_trip_and_homomorphism_property(data):
    params = data.draw(st.sampled_from(NON_HAMILTON), label="params")
    rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
    p = rand_genpoly(rng, params, max_degree=3, terms=8)
    q = rand_genpoly(rng, params, max_degree=2, terms=6)
    r = rand_genpoly(rng, params, max_degree=2, terms=6)
    x = _point(rng, params, data.draw(st.sampled_from([3, 10**12]), label="size"))
    assert h_inv(h_map(p)) == p
    assert h_map(p * q) == h_map(p) * h_map(q)
    assert (p * q).substitute(x) == p.substitute(x) * q.substitute(x)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
