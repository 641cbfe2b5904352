"""Exact integer array kernels behind `GenPoly.substitute`, `h_map` and `h_inv`.

One kernel per operation serves every algebra (a,b), magnitude and word
length.  Basis products land on the XOR of their indices,
e_x e_y = T[x][y] e_(x^y), so with each rational table scaled by the lcm
of its denominators the work is integer array arithmetic.  Substitution
contracts a polynomial's sorted words right to left, summing the rows
that share a prefix and multiplying each group by the integer matrix of
e_b * lambda.  Both directions of the isomorphism are one step per
variable position on a dense base-4 array (`_expand`, run per degree by
`step_image`), with two tables: h's forward table and h_inv's generator
table.  The image of a degree-n word has 4^n terms, so the dense array
is at most four times the output; degrees above MAX_STEP_DEGREE raise
BudgetExceeded before anything is allocated.

Exactness rule: every partial sum is bounded before any work starts.
Below 2^62 one plain int64 pass is exact; above it the kernel runs
modulo enough pairwise coprime moduli below 2^29, where four products of
two residues stay below 2^62, and the Chinese remainder theorem returns
the value in the symmetric range.  The package imports this module, and
with it numpy, only inside the functions that call it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import gcd, lcm, prod

import numpy as np

from .algebra import _integral
from .errors import BudgetExceeded

_INT64_EXACT = 1 << 62
# the dense step array of degree n has 4^(n+1) int64 entries, 32 MiB at
# n = 10, the top degree of a k = 5 char poly
MAX_STEP_DEGREE = 10


def _moduli(bound: int) -> list:
    """Pairwise coprime moduli in (2^28, 2^29) whose product exceeds 2 * bound."""
    out, cand = [], (1 << 29) - 1
    while prod(out) <= 2 * bound:
        if gcd(cand, prod(out)) == 1:
            out.append(cand)
        cand -= 2
    return out


def _crt(residues, moduli) -> np.ndarray:
    """Integers in the symmetric range with the given residues (Garner's method)."""
    stacked = np.stack(residues)
    out = np.zeros(stacked.shape[1], dtype=object)
    nz = np.flatnonzero(stacked.any(axis=0))
    digits = []
    for i, m in enumerate(moduli):
        t = stacked[i, nz]
        for j in range(i):
            t = (t - digits[j] % m) * pow(moduli[j], -1, m) % m
        digits.append(t)
    value = digits[-1].astype(object)
    for d, m in zip(digits[-2::-1], moduli[-2::-1]):
        value = value * m + d.astype(object)
    total = prod(moduli)
    out[nz] = np.where(value > total // 2, value - total, value)
    return out


def _run(bound: int, nums, table, kernel) -> np.ndarray:
    """kernel(nums, table, modulus) exactly, from |every partial sum| <= bound."""
    if bound < _INT64_EXACT:
        return kernel(nums, np.array(table, dtype=np.int64), None)
    moduli = _moduli(bound)
    table = np.array(table, dtype=object)
    return _crt([kernel(np.remainder(nums, m).astype(np.int64),
                        np.remainder(table, m).astype(np.int64), m) for m in moduli], moduli)


class _Degree:
    """The terms of one degree n >= 1: integer numerators over ``den``.

    The words are the rows of an int8 letter array in lexicographic
    order, so words that share a prefix are adjacent.  The contraction
    gathers every word into the vector of its length-n prefix (one slot
    per last letter), then for t = n-1 .. 0 maps each length-(t+1) prefix
    through the matrix of its letter at position t and sums it into its
    length-t prefix; ``levels`` holds those letters and group starts.
    """

    __slots__ = ("nums", "den", "weight", "rows", "last", "levels")

    def __init__(self, letters: np.ndarray, nums: list, den: int):
        n = letters.shape[1] - 1
        self.den = den
        self.weight = sum(map(abs, nums))
        self.nums = np.array(nums, dtype=np.int64 if self.weight < _INT64_EXACT else object)
        new = np.zeros(len(letters), dtype=bool)
        new[0] = True
        changed = letters[1:] != letters[:-1]
        starts = [np.zeros(1, dtype=np.int64)]
        for t in range(n):
            new[1:] |= changed[:, t]
            starts.append(np.flatnonzero(new))
        self.rows = np.cumsum(new) - 1
        self.last = letters[:, n]
        self.levels = [(letters[starts[t + 1], t], np.searchsorted(starts[t + 1], starts[t]))
                       for t in range(n - 1, -1, -1)]

    def contract(self, nums, mats, modulus):
        vec = np.zeros((len(self.levels[0][0]), 4), dtype=np.int64)
        vec[self.rows, self.last] = nums
        for letters, starts in self.levels:
            # a group has at most four members, one per letter, so its sum
            # stays below 4 * 4 * modulus^2 < 2^62 before the reduction
            vec = np.add.reduceat(np.einsum("rij,rj->ri", mats[letters], vec), starts)
            if modulus is not None:
                vec %= modulus
        return vec[0]


def word_arrays(terms: dict):
    """Array form of a GenPoly's terms: (constant coordinates, [_Degree, ...])."""
    const = [Fraction(0)] * 4
    by_degree: dict[int, list] = {}
    for word, coeff in terms.items():
        if len(word) == 1:
            const[word[0]] = coeff
        else:
            by_degree.setdefault(len(word), []).append((word, coeff))
    degrees = []
    for items in by_degree.values():
        letters = np.array([w for w, _ in items], dtype=np.int8)
        order = np.lexsort(letters.T[::-1]).tolist()
        den, nums = _integral([items[i][1] for i in order])
        degrees.append(_Degree(letters[order], nums, den))
    return tuple(const), degrees


def substitute(arrays, table, point) -> tuple:
    """Coordinates of the value at ``point`` of the polynomial with these arrays.

    The matrices are S * L(e_b * point) for b = 0..3, with L(q) the left
    multiplication by q in basis coordinates, L(q)[r][s] = q[r^s] T[r^s][s],
    L(e_b q)[r] = T[b][r^b] L(q)[r^b], and S the lcm of their denominators.
    """
    const, degrees = arrays
    coords = list(const)
    left = [[point[r ^ s] * table[r ^ s][s][0] for s in range(4)] for r in range(4)]
    mats = [[[table[b][r ^ b][0] * x for x in left[r ^ b]] for r in range(4)] for b in range(4)]
    scale = lcm(*(x.denominator for m in mats for row in m for x in row))
    mats = [[[int(x * scale) for x in row] for row in m] for m in mats]
    norm = max(1, max(sum(map(abs, row)) for m in mats for row in m))
    for deg in degrees:
        n = len(deg.levels)
        value = _run(deg.weight * norm ** n, deg.nums, mats, deg.contract)
        for s in range(4):
            coords[s] += Fraction(int(value[s]), deg.den * scale ** n)
    return tuple(coords)


def _expand(n: int, index, nums, weights, modulus):
    """The dense degree-n image of the monomials at ``index``.

    Before step t the array is indexed by (o_0..o_(t-1), carry c,
    g_(t+1), g_(t+2)..g_n); the step replaces the pair (c, g) by the
    output digit and the next carry, (c^u, u^g), with weight
    weights[c][u][g], four sources per target.  Both directions of the
    isomorphism are this step with their own table (see
    `quatalg.isomorphism._step_table` and `_forward_table`).
    """
    pairs = np.arange(16)
    steps = []
    for u in range(4):
        c, g = (pairs >> 2) ^ u, (pairs & 3) ^ u
        steps.append((c * 4 + g, weights[c, u, g]))
    x = np.zeros(4 ** (n + 1), dtype=np.int64)
    x[index] = nums
    for t in range(n):
        x = x.reshape(4 ** t, 16, -1)
        y = x[:, steps[0][0]] * steps[0][1][:, None]
        for src, w in steps[1:]:
            y += x[:, src] * w[:, None]
        if modulus is not None:
            y %= modulus
        x = y
    return x.reshape(-1)


def step_image(pairs, weights, scale: int, keys):
    """Terms of the linear map that steps every degree through ``weights``.

    ``pairs`` yields (digits, coefficient) with digits = (d_0, .., d_n)
    the base-4 index of a degree-n monomial, most significant first (the
    index layout); ``keys`` turns the n+1 digit arrays of the nonzero
    outputs into their keys (the key layout).  The table is integral
    with scale ``scale``, so a degree-n output carries den * scale^n.
    Returns the terms and, per degree, (digit arrays, integer values,
    denominator).  Raises BudgetExceeded, before any array is allocated,
    when some degree exceeds MAX_STEP_DEGREE.
    """
    by_degree: dict[int, list] = {}
    for digits, coeff in pairs:
        by_degree.setdefault(len(digits) - 1, []).append((digits, coeff))
    top = max(by_degree, default=0)
    if top > MAX_STEP_DEGREE:
        raise BudgetExceeded(f"degree {top} needs a dense array of 4^{top + 1} entries; "
                             f"the limit is degree {MAX_STEP_DEGREE}")
    wmax = max(abs(w) for plane in weights for row in plane for w in row)
    out: dict = {}
    degrees = []
    for n, items in sorted(by_degree.items()):
        den, nums = _integral([c for _, c in items])
        index = np.array([d for d, _ in items], dtype=np.int64) @ (4 ** np.arange(n, -1, -1))

        def kernel(vals, table, modulus, n=n, index=index):
            return _expand(n, index, vals, table, modulus)

        acc = _run(sum(map(abs, nums)) * wmax ** n, np.array(nums, dtype=object), weights, kernel)
        nz = np.flatnonzero(acc)
        if not nz.size:
            continue
        vals = acc[nz].tolist()
        digits = [((nz >> (2 * (n - t))) & 3).astype(np.int8) for t in range(n + 1)]
        out_den = den * scale ** n
        # char polys repeat few distinct coefficients: build each Fraction once
        fracs = {v: Fraction(v, out_den) for v in set(vals)}
        out.update(zip(keys(digits), map(fracs.__getitem__, vals)))
        degrees.append((digits, vals, out_den))
    return out, degrees


def _gen_keys(digits):
    """General-polynomial words: the digits are the letters."""
    return zip(*(d.tolist() for d in digits))


def _free_keys(digits):
    """Free monomials (beta, word): the last digit is the carry beta, and
    an output digit s stands for the variable x_(s+1)."""
    *letters, beta = digits
    words = zip(*((d + 1).tolist() for d in letters)) if letters else repeat(())
    return zip(beta.tolist(), words)


def h_map(terms: dict, weights, scale: int) -> dict:
    """Terms of h(P) for a general polynomial P with these terms.

    ``weights`` and ``scale`` are h's forward table; a word
    (b_0, .., b_n) is its own index."""
    return step_image(terms.items(), weights, scale, _free_keys)[0]


def h_inv(terms: dict, weights, scale: int):
    """Terms and array form of the general polynomial whose h-image is ``terms``.

    ``terms`` maps (beta, variable word) to coefficients, indexed as
    (beta, w_1 - 1, .., w_n - 1); ``weights`` and ``scale`` are the
    generator table."""
    pairs = (((beta, *(w - 1 for w in word)), c) for (beta, word), c in terms.items())
    out, degrees = step_image(pairs, weights, scale, _gen_keys)
    const = tuple(out.get((b,), Fraction(0)) for b in range(4))
    arrays = [_Degree(np.stack(digits, axis=1), vals, den)
              for digits, vals, den in degrees if len(digits) > 1]
    return out, (const, arrays)
