"""The isomorphism h between general polynomials and the free-monoid ring.

h fixes the algebra pointwise and sends z to x1 + i*x2 + j*x3 + ij*x4.
Its inverse is determined by the preimages q_k of the four generators,
which are found by a conjugation-annihilation search: starting from
p = z, each step kills at least one surviving monomial of h(p) while
keeping the x_k coefficient alive, until a single term remains.

Both directions are one step per variable position on a dense base-4
array (`quatalg._kernels.step_image`), exact in every algebra (int64,
or residues and the CRT), with two tables.  h multiplies by
X = sum_s e_s x_(s+1) and then by the next letter (`_forward_table`).
h_inv multiplies by the preimages, which all have the shape
q_g = sum_s C[g][s] e_s z e_(s^g), checked once per algebra
(`_step_table`).  The generator search reads the degree-one image of h
from the forward table in plain Python, without numpy.
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
    """Apply the homomorphism h to a general polynomial.

    Runs on the same step kernel as h_inv, with h's forward table.
    Raises BudgetExceeded for degrees above `_kernels.MAX_STEP_DEGREE`.
    """
    params = poly.params
    weights, scale = _forward_table(params)
    from . import _kernels

    return FreePoly._make(params, _kernels.h_map(poly.terms, weights, scale))


def _integral_table(rational):
    """(W, D): a 4x4x4 table of Fractions scaled by the lcm D of its denominators."""
    scale = lcm(*(w.denominator for plane in rational for row in plane for w in row))
    weights = tuple(tuple(tuple(int(w * scale) for w in row) for row in plane)
                    for plane in rational)
    return weights, scale


@lru_cache(maxsize=None)
def _forward_table(params: AlgebraParams):
    """h's step weights: (W, D) with W[c][u][b] = D T[c][c^u] T[u][b] integral.

    With X = sum_s e_s x_(s+1), e_c X e_b = sum_s T[c][s] T[c^s][b]
    e_(c^s^b) x_(s+1): writing u = c^s, one position takes the carry c
    and the letter b to the output digit c^u and the carry u^b.
    """
    table = params.table
    return _integral_table([[[table[c][c ^ u][0] * table[u][b][0] for b in range(4)]
                             for u in range(4)] for c in range(4)])


def _linear_image(p: GenPoly) -> dict[int, Quat]:
    """Coefficients d_m with h(p) = sum d_m x_m, for p homogeneous of degree one.

    The forward table applied to the words (c, b) in plain Python, so
    the generator search never loads numpy.
    """
    params = p.params
    weights, scale = _forward_table(params)
    coords: dict[int, list] = {}
    for word, coeff in p.terms.items():
        if len(word) != 2:
            raise ValueError("polynomial is not homogeneous of degree one")
        c, b = word
        for u in range(4):
            w = weights[c][u][b]
            if w:
                coords.setdefault((c ^ u) + 1, [0] * 4)[u ^ b] += coeff * w
    out = {}
    for m, cs in coords.items():
        q = Quat._make(params, tuple(Fraction(x, scale) for x in cs))
        if q:
            out[m] = q
    return out


def _annihilate(p: GenPoly, k: int, params: AlgebraParams):
    """Depth-first search over the deterministic move order; None = dead branch."""
    d = _linear_image(p)
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
        if _linear_image(q) != {k: Quat.one(params)}:
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
    return _integral_table([[[params.table[c][s][0] * coeffs[g][s] for g in range(4)]
                             for s in range(4)] for c in range(4)])


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
