"""The isomorphism h between general polynomials and the free-monoid ring.

h fixes the algebra pointwise and sends z to x1 + i*x2 + j*x3 + ij*x4.
Its inverse is determined by the preimages q_k of the four generators,
which are found by a conjugation-annihilation search: starting from
p = z, each step kills at least one surviving monomial of h(p) while
keeping the x_k coefficient alive, until a single term remains.

Every preimage has the shape q_g = sum_s C[g][s] e_s z e_(s^g), checked
once per algebra, and h_inv runs on the exact integer array kernel of
`quatalg._kernels` in every algebra (int64, or residues and the CRT).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm

from .algebra import AlgebraParams, Quat
from .errors import AlgorithmFailure, InternalInvariant, NotInvertible
from .freepoly import FreePoly
from .genpoly import GenPoly


def h_z(params: AlgebraParams) -> FreePoly:
    """Image of z: x1 + i*x2 + j*x3 + ij*x4."""
    one = Fraction(1)
    return FreePoly._make(
        params, {(0, (1,)): one, (1, (2,)): one, (2, (3,)): one, (3, (4,)): one}
    )


def h_map(poly: GenPoly) -> FreePoly:
    """Apply the homomorphism h to a general polynomial."""
    params = poly.params
    # X * e_b for each basis letter, precomputed; prefixes of words are shared
    x_poly = h_z(params)
    ext = tuple(x_poly * FreePoly.from_quat(Quat.basis(params, b)) for b in range(4))
    cache: dict[tuple, FreePoly] = {}

    def prefix_value(word):
        got = cache.get(word)
        if got is None:
            if len(word) == 1:
                got = FreePoly.from_quat(Quat.basis(params, word[0]))
            else:
                got = prefix_value(word[:-1]) * ext[word[-1]]
            cache[word] = got
        return got

    acc: dict = {}
    for word, coeff in poly.terms.items():
        for key, c in prefix_value(word).terms.items():
            s = acc.get(key)
            v = c * coeff
            acc[key] = v if s is None else s + v
    return FreePoly._make(params, {k: c for k, c in acc.items() if c})


def _linear_coeffs(poly: FreePoly) -> dict[int, Quat]:
    """Coefficients d_m with poly = sum d_m x_m, for degree-one polynomials."""
    params = poly.params
    coords: dict[int, list] = {}
    for (beta, word), c in poly.terms.items():
        if len(word) != 1:
            raise ValueError("polynomial is not homogeneous of degree one")
        m = word[0]
        cur = coords.setdefault(m, [Fraction(0)] * 4)
        cur[beta] += c
    out = {}
    for m, cs in coords.items():
        q = Quat._make(params, tuple(cs))
        if q:
            out[m] = q
    return out


def _annihilate(p: GenPoly, k: int, params: AlgebraParams):
    """Depth-first search over the deterministic move order; None = dead branch."""
    d = _linear_coeffs(h_map(p))
    c = d.get(k)
    if c is None:
        return None
    others = [m for m in (1, 2, 3, 4) if m != k and m in d]
    if not others:
        return GenPoly.from_quat(c.inv()) * p

    moves = []
    rule1 = [m for m in others if d[m] * c != c * d[m]]
    if rule1:
        # a' = d_m fails to commute with c: p <- a' p a'^-1 - p kills x_m
        for m in rule1:
            a_ = d[m]
            try:
                moves.append((GenPoly.from_quat(a_), GenPoly.from_quat(a_.inv())))
            except NotInvertible:
                continue
    else:
        # c commutes with every other coefficient; pick a target b' = d_m
        # with c*b'^-1 non-central and a basis a' that fails to commute
        # with it, then p <- b' a' p b'^-1 a'^-1 - p (not a conjugation
        # unless a' and b' commute).
        for m in others:
            b_ = d[m]
            try:
                ratio = c * b_.inv()
            except NotInvertible:
                continue
            if ratio.is_central:
                continue
            for idx in (1, 2, 3):
                t = Quat.basis(params, idx)
                if t * ratio != ratio * t:
                    moves.append(
                        (GenPoly.from_quat(b_ * t), GenPoly.from_quat(b_.inv() * t.inv()))
                    )
    # degenerate states (no move) fall through and the caller backtracks
    for left, right in moves:
        candidate = left * p * right - p
        result = _annihilate(candidate, k, params)
        if result is not None:
            return result
    return None


@lru_cache(maxsize=None)
def _generators(params: AlgebraParams):
    out = []
    for k in (1, 2, 3, 4):
        q = _annihilate(GenPoly.z(params), k, params)
        if q is None:
            raise AlgorithmFailure(f"no preimage of x{k} found for {params!r}")
        if h_map(q) != FreePoly.x(params, k):
            raise AlgorithmFailure(f"candidate preimage of x{k} failed verification")
        out.append(q)
    return tuple(out)


def generators(params: AlgebraParams):
    """The four cached degree-one preimages (q_1, q_2, q_3, q_4)."""
    return _generators(params)


def preimage_generator(k: int, params: AlgebraParams) -> GenPoly:
    """The degree-one general polynomial q_k with h(q_k) = x_k exactly."""
    if k not in (1, 2, 3, 4):
        raise ValueError("generator index must be in 1..4")
    return _generators(params)[k - 1]


@lru_cache(maxsize=None)
def _step_table(params: AlgebraParams):
    """h_inv's step weights: (W, D) with W[c][s][g] = D T[c][s] C[g][s] integral.

    Checks that every preimage has the shape q_g = sum_s C[g][s] e_s z e_(s^g)."""
    coeffs = []
    for g, q in enumerate(generators(params)):
        row = {word[0]: c for word, c in q.terms.items() if len(word) == 2 and word[1] == word[0] ^ g}
        if len(q.terms) != 4 or len(row) != 4:
            raise InternalInvariant(f"preimage of x{g + 1} is not of the form sum_s c_s e_s z e_(s^{g})")
        coeffs.append(row)
    rational = [[[params.table[c][s][0] * coeffs[g][s] for g in range(4)] for s in range(4)]
                for c in range(4)]
    scale = lcm(*(w.denominator for plane in rational for row in plane for w in row))
    weights = tuple(tuple(tuple(int(w * scale) for w in row) for row in plane)
                    for plane in rational)
    return weights, scale


def h_inv(poly: FreePoly) -> GenPoly:
    """Apply the inverse isomorphism to a free polynomial.

    A monomial c * e_beta * x_{w1}..x_{wn} maps to
    c * e_beta * q_{w1} * ... * q_{wn}, extended linearly.  The result
    carries its array form, so substituting into it builds nothing.
    """
    params = poly.params
    weights, scale = _step_table(params)
    from . import _kernels

    terms, arrays = _kernels.h_inv(poly.terms, weights, scale)
    out = GenPoly._make(params, terms)
    out._arrays = arrays
    return out
