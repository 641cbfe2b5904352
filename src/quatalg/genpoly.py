"""General polynomials: the variable z commutes with rationals only.

A monomial e_b0 * z * e_b1 * z * ... * z * e_bn is stored as the index
word (b0, ..., bn); its degree is n.  A polynomial is a sparse map from
words to nonzero rational coefficients, so equality of polynomials is
dict equality.  Coefficients from the algebra are expanded through the
basis at construction time, which makes the stored form canonical:
dz^2, zdz and z^2d are three different words for non-central d.

Products run on integer numerators in pure Python: each operand is
cleared to one common denominator, the right operand's words are grouped
by first letter, and each pair of boundary letters merges through the
algebra's integer table (`AlgebraParams.int_table`) into one dict of
ints; each distinct output numerator becomes one `Fraction`.  The
parser multiplies, so products never import numpy.

Substitution runs on the exact integer array kernel of `quatalg._kernels`
in every algebra, on an array form built once per polynomial.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import AlgebraParams, Quat, _integral, as_scalar
from .errors import DimensionMismatch


class GenPoly:
    """Element of the general polynomial ring over (a,b/F)."""

    __slots__ = ("params", "terms", "_arrays")

    def __init__(self, params: AlgebraParams, terms=None):
        self.params = params
        self.terms = {}
        if terms:
            for word, coeff in terms.items():
                word = tuple(word)
                if not word or any(b not in (0, 1, 2, 3) for b in word):
                    raise ValueError(f"invalid index word {word!r}")
                c = as_scalar(coeff)
                if c:
                    self.terms[word] = c
        self._arrays = None

    @classmethod
    def _make(cls, params, terms: dict):
        # terms must already be canonical: tuple keys, nonzero Fractions
        self = object.__new__(cls)
        self.params = params
        self.terms = terms
        self._arrays = None
        return self

    @classmethod
    def zero(cls, params):
        return cls._make(params, {})

    @classmethod
    def one(cls, params):
        return cls._make(params, {(0,): Fraction(1)})

    @classmethod
    def constant(cls, params, value):
        c = as_scalar(value)
        return cls._make(params, {(0,): c} if c else {})

    @classmethod
    def z(cls, params):
        """The monomial z itself, stored as the word (0, 0)."""
        return cls._make(params, {(0, 0): Fraction(1)})

    @classmethod
    def from_quat(cls, q: Quat):
        terms = {}
        for idx, c in enumerate(q.coords):
            if c:
                terms[(idx,)] = c
        return cls._make(q.params, terms)

    def _coerce(self, other):
        if isinstance(other, GenPoly):
            if other.params != self.params:
                raise ValueError("operands live in different algebras")
            return other
        if isinstance(other, Quat):
            if other.params != self.params:
                raise ValueError("operands live in different algebras")
            return GenPoly.from_quat(other)
        if isinstance(other, (int, Fraction)):
            return GenPoly.constant(self.params, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for word, c in other.terms.items():
            s = terms.get(word)
            if s is None:
                terms[word] = c
            else:
                s = s + c
                if s:
                    terms[word] = s
                else:
                    del terms[word]
        return GenPoly._make(self.params, terms)

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for word, c in other.terms.items():
            s = terms.get(word)
            if s is None:
                terms[word] = -c
            else:
                s = s - c
                if s:
                    terms[word] = s
                else:
                    del terms[word]
        return GenPoly._make(self.params, terms)

    def __neg__(self):
        return GenPoly._make(self.params, {w: -c for w, c in self.terms.items()})

    def scale(self, value) -> "GenPoly":
        """Multiply every coefficient by a central scalar."""
        s = as_scalar(value)
        if not s:
            return GenPoly.zero(self.params)
        return GenPoly._make(self.params, {w: c * s for w, c in self.terms.items()})

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        scale, table = self.params.int_table
        lden, lnums = _integral(self.terms.values())
        rden, rnums = _integral(other.terms.values())
        # group the right words by first letter, so each pair of boundary
        # letters, e_x e_y = T[x][y] e_(x^y), is looked up once per left word
        groups = [[], [], [], []]
        for word, m in zip(other.terms, rnums):
            groups[word[0]].append((word[1:], m))
        groups = [(y, g) for y, g in enumerate(groups) if g]
        acc = {}
        get = acc.get
        for word, n in zip(self.terms, lnums):
            head = word[:-1]
            row = table[word[-1]]
            for y, group in groups:
                t, idx = row[y]
                f = n * t
                head_idx = head + (idx,)
                for tail, m in group:
                    key = head_idx + tail
                    acc[key] = get(key, 0) + f * m
        den = lden * rden * scale
        # one Fraction per distinct numerator; ints hash much faster than Fractions
        fracs = {}
        terms = {}
        for key, n in acc.items():
            if n:
                c = fracs.get(n)
                if c is None:
                    c = fracs[n] = Fraction(n, den)
                terms[key] = c
        return GenPoly._make(self.params, terms)

    def __rmul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other.__mul__(self)

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("only nonnegative integer powers are defined")
        result = GenPoly.one(self.params)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def degree(self):
        """Maximal word degree, or None for the zero polynomial."""
        if not self.terms:
            return None
        return max(len(w) for w in self.terms) - 1

    def substitute(self, d: Quat) -> Quat:
        """Replace z by d and evaluate in the algebra.

        Substitution at any point of the algebra is a ring homomorphism
        on this ring; that property is what distinguishes it from the
        left-coefficient polynomial ring.  The first call builds the
        array form that later calls reuse (h_inv hands it over ready).
        """
        if d.params != self.params:
            raise ValueError("substitution point lives in a different algebra")
        from . import _kernels

        if self._arrays is None:
            self._arrays = _kernels.word_arrays(self.terms)
        return Quat._make(self.params, _kernels.substitute(self._arrays, self.params.table, d.coords))

    def conj(self) -> "GenPoly":
        """Conjugation operator: P -> (-P + i P i^-1 + j P j^-1 + ij P (ij)^-1)/2.

        For every substitution point x this satisfies
        conj(P)(x) == P(x).conj(); it is linear, degree-preserving and an
        involution.  The three basis inverses exist for any nonzero a, b.
        """
        params = self.params
        acc = -self
        for idx in (1, 2, 3):
            t = Quat.basis(params, idx)
            acc = acc + GenPoly.from_quat(t) * self * GenPoly.from_quat(t.inv())
        return acc.scale(Fraction(1, 2))

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, GenPoly):
            return NotImplemented
        return self.params == other.params and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "GenPoly(0)"
        parts = [f"{c}*{w}" for w, c in sorted(self.terms.items(), key=lambda t: (len(t[0]), t[0]))]
        return "GenPoly(" + " + ".join(parts) + ")"


def gen_matmul(lhs, rhs):
    """Product of two matrices with GenPoly entries, order preserved."""
    if len(lhs[0]) != len(rhs):
        raise DimensionMismatch("inner dimensions differ")
    params = lhs[0][0].params
    out = []
    for r in range(len(lhs)):
        row = []
        for c in range(len(rhs[0])):
            acc = GenPoly.zero(params)
            for s in range(len(rhs)):
                acc = acc + lhs[r][s] * rhs[s][c]
            row.append(acc)
        out.append(row)
    return out


def gen_matsub(lhs, rhs):
    """Entrywise difference of two GenPoly matrices."""
    return [[x - y for x, y in zip(rl, rr)] for rl, rr in zip(lhs, rhs)]
