"""Reference arithmetic that shares no code with quatalg.

Quaternions are plain 4-tuples of Fractions over the basis (1, i, j, ij).
The multiplication table is derived here by rewriting words in i and j
with the defining relations ii = a, jj = b, ji = -ij, so the checks do
not trust the package's own table.  The reduced-norm oracle is the
determinant over QQ of left multiplication by M on D^k (a 4k x 4k
rational matrix), which equals nrd(M)^2, taken with sympy's DomainMatrix.

The text parsers read back what the CLI prints, so CLI output is compared
with the library result term by term.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt

_BASIS_WORDS = ((), ("i",), ("j",), ("i", "j"))
_NAMES = {"i": 1, "j": 2, "k": 3}
_ZERO = Fraction(0)


def _normal_form(word, a: Fraction, b: Fraction):
    """Rewrite a word in i, j to coeff * i^e1 j^e2 using ii=a, jj=b, ji=-ij."""
    coeff = Fraction(1)
    w = list(word)
    t = 0
    while t < len(w) - 1:
        if w[t] == w[t + 1]:
            coeff *= a if w[t] == "i" else b
            del w[t:t + 2]
            t = max(t - 1, 0)
        elif w[t] == "j" and w[t + 1] == "i":
            w[t], w[t + 1] = "i", "j"
            coeff = -coeff
            t = max(t - 1, 0)
        else:
            t += 1
    return coeff, _BASIS_WORDS.index(tuple(w))


@lru_cache(maxsize=None)
def table(a: Fraction, b: Fraction):
    """table[x][y] = (coeff, z) with e_x e_y = coeff * e_z."""
    return tuple(
        tuple(_normal_form(_BASIS_WORDS[x] + _BASIS_WORDS[y], a, b) for y in range(4))
        for x in range(4)
    )


def qmul(p, q, tab):
    out = [_ZERO] * 4
    for x, px in enumerate(p):
        if px:
            for y, qy in enumerate(q):
                if qy:
                    c, z = tab[x][y]
                    out[z] += c * px * qy
    return tuple(out)


def qconj(p):
    return (p[0], -p[1], -p[2], -p[3])


def qnrd(p, tab) -> Fraction:
    return qmul(p, qconj(p), tab)[0]


def qinv(p, tab):
    n = qnrd(p, tab)
    return tuple(c / n for c in qconj(p))


def left_mult_det(rows, a: Fraction, b: Fraction) -> Fraction:
    """det over QQ of v -> M v on D^k; rows hold 4-tuples of Fractions."""
    # imported here: sympy is only needed for checks, never during set-up
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    tab = table(a, b)
    k = len(rows)
    n = 4 * k
    big = [[QQ(0)] * n for _ in range(n)]
    for r in range(k):
        for c in range(k):
            q = rows[r][c]
            for x in range(4):
                if not q[x]:
                    continue
                for y in range(4):
                    coeff, z = tab[x][y]
                    v = coeff * q[x]
                    big[4 * r + z][4 * c + y] += QQ(v.numerator, v.denominator)
    det = DomainMatrix(big, (n, n), QQ).det()
    return Fraction(int(det.numerator), int(det.denominator))


def nrd_from_square(square: Fraction) -> Fraction:
    """|nrd| from nrd^2, or raise ValueError when the value is no square."""
    roots = []
    for n in (square.numerator, square.denominator):
        r = isqrt(n)
        if r * r != n:
            raise ValueError(f"{square} is not the square of a rational")
        roots.append(r)
    return Fraction(*roots)


# --- general polynomials: word (b0, ..., bn) -> Fraction -----------------

def gen_mul(p: dict, q: dict, tab) -> dict:
    acc: dict = {}
    for wu, cu in p.items():
        head, row = wu[:-1], tab[wu[-1]]
        for wv, cv in q.items():
            c, z = row[wv[0]]
            w = head + (z,) + wv[1:]
            acc[w] = acc.get(w, _ZERO) + c * cu * cv
    return {w: c for w, c in acc.items() if c}


def _prefix_image(word, memo, start, step):
    """Image of a word with image(w + (b,)) = step(image(w), b), memoized on prefixes."""
    k = len(word)
    while k > 1 and word[:k] not in memo:
        k -= 1
    value = memo[word[:k]] if k > 1 else start(word[0])
    for t in range(k, len(word)):
        value = step(value, word[t])
        memo[word[:t + 1]] = value
    return value


def gen_eval(p: dict, d, tab):
    """Value of sum c * e_b0 d e_b1 d ... d e_bn at the quaternion d."""
    memo: dict = {}
    total = (_ZERO,) * 4
    for word, coeff in p.items():
        v = _prefix_image(word, memo, _basis, lambda v, b: qmul(qmul(v, d, tab), _basis(b), tab))
        total = tuple(t + coeff * x for t, x in zip(total, v))
    return total


def _basis(idx):
    out = [_ZERO] * 4
    out[idx] = Fraction(1)
    return tuple(out)


# --- free-monoid ring: (basis, word in 1..4) -> Fraction ------------------

def free_mul(p: dict, q: dict, tab) -> dict:
    acc: dict = {}
    for (b1, w1), c1 in p.items():
        for (b2, w2), c2 in q.items():
            c, z = tab[b1][b2]
            key = (z, w1 + w2)
            acc[key] = acc.get(key, _ZERO) + c * c1 * c2
    return {k: c for k, c in acc.items() if c}


def h_image(p: dict, tab) -> dict:
    """h(P) with h(z) = x1 + i x2 + j x3 + ij x4, computed without the package."""
    one = Fraction(1)
    zimg = {(0, (1,)): one, (1, (2,)): one, (2, (3,)): one, (3, (4,)): one}

    def step(img, b):
        return free_mul(free_mul(img, zimg, tab), {(b, ()): one}, tab)

    memo: dict = {}
    out: dict = {}
    for word, coeff in p.items():
        img = _prefix_image(word, memo, lambda b: {(b, ()): one}, step)
        for key, c in img.items():
            out[key] = out.get(key, _ZERO) + coeff * c
    return {k: c for k, c in out.items() if c}


# --- CLI text read back ----------------------------------------------------

def parse_gen_text(text: str) -> dict:
    """Read format_poly output: ' + '-joined terms like -3/4*i*z*k."""
    text = text.strip()
    if text == "0":
        return {}
    out = {}
    for term in text.split(" + "):
        tokens = term.split("*")
        letters = [0]
        for tok in tokens[1:]:
            if tok == "z":
                letters.append(0)
            else:
                letters[-1] = _NAMES[tok]
        out[tuple(letters)] = Fraction(tokens[0])
    return out


def parse_free_text(text: str) -> dict:
    """Read format_free_poly output: terms like 2*i*x2*x4."""
    text = text.strip()
    if text == "0":
        return {}
    out = {}
    for term in text.split(" + "):
        tokens = term.split("*")
        beta, word = 0, []
        for tok in tokens[1:]:
            if tok in _NAMES:
                beta = _NAMES[tok]
            else:
                word.append(int(tok[1:]))
        out[(beta, tuple(word))] = Fraction(tokens[0])
    return out


def parse_quat_text(text: str):
    coords = [_ZERO] * 4
    for word, c in parse_gen_text(text).items():
        if len(word) != 1:
            raise ValueError(f"not a constant: {text!r}")
        coords[word[0]] = c
    return tuple(coords)
