"""Exact arithmetic in quaternion algebras (a,b/F) over the rationals.

The algebra has basis 1, i, j, ij with relations i^2 = a, j^2 = b and
ji = -ij.  Basis elements are indexed 0..3 in the fixed order
(1, i, j, ij); the CLI and formatters write ``k`` for ij.  Every
coordinate is a ``fractions.Fraction``, so all identities in this
package are decided exactly.

Products of basis elements satisfy e_x * e_y = coeff * e_(x XOR y)
where coeff is +-1 times a power of a and b.  That XOR structure is
what keeps the sparse polynomial representations in the rest of the
package cheap, and it is baked into the tables below.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm

from .errors import NotInvertible

#: The scalar field F: exact rationals.
Scalar = Fraction

BASIS_NAMES = ("1", "i", "j", "k")

# e_x * e_y = _SIGN[x][y] * a**_A_EXP[x][y] * b**_B_EXP[x][y] * e_(x ^ y)
_SIGN = (
    (1, 1, 1, 1),
    (1, 1, 1, 1),
    (1, -1, 1, -1),
    (1, -1, 1, -1),
)
_A_EXP = (
    (0, 0, 0, 0),
    (0, 1, 0, 1),
    (0, 0, 0, 0),
    (0, 1, 0, 1),
)
_B_EXP = (
    (0, 0, 0, 0),
    (0, 0, 0, 0),
    (0, 0, 1, 1),
    (0, 0, 1, 1),
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


def as_scalar(value) -> Fraction:
    """Coerce an int, string or Fraction to an exact rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def _integral(coeffs):
    """Common denominator and integer numerators of some Fractions."""
    den = lcm(*[c.denominator for c in coeffs])
    return den, [c.numerator * (den // c.denominator) for c in coeffs]


@lru_cache(maxsize=None)
def _mul_table(a: Fraction, b: Fraction):
    table = []
    for x in range(4):
        row = []
        for y in range(4):
            coeff = Fraction(_SIGN[x][y]) * a ** _A_EXP[x][y] * b ** _B_EXP[x][y]
            row.append((coeff, x ^ y))
        table.append(tuple(row))
    return tuple(table)


@dataclass(frozen=True)
class AlgebraParams:
    """Structure constants of (a,b/F): a = i^2, b = j^2.

    When a < 0 and b < 0 the norm form is anisotropic over the
    rationals and the algebra is division; other nonzero parameters are
    accepted, but inverses of norm-zero elements raise NotInvertible at
    the point of use.
    """

    a: Fraction
    b: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", as_scalar(self.a))
        object.__setattr__(self, "b", as_scalar(self.b))
        if self.a == 0 or self.b == 0:
            raise ValueError("algebra parameters a, b must be nonzero")

    @property
    def is_definite(self) -> bool:
        return self.a < 0 and self.b < 0

    @property
    def table(self):
        """4x4 table: table[x][y] = (coeff, index) with e_x e_y = coeff * e_index."""
        return _mul_table(self.a, self.b)

    @cached_property
    def int_table(self):
        """(scale, rows): rows[x][y] = (scale * coeff, index), all integers.

        scale is the lcm of the table's denominators, so integer products
        through rows carry exactly one extra factor of scale.
        """
        scale, nums = _integral([c for row in self.table for c, _ in row])
        return scale, tuple(tuple((nums[4 * x + y], x ^ y) for y in range(4)) for x in range(4))

    def __repr__(self):
        return f"AlgebraParams({self.a}, {self.b})"


#: Rational Hamilton quaternions, (-1,-1/Q).
HAMILTON = AlgebraParams(Fraction(-1), Fraction(-1))


class Quat:
    """Element c1 + c2*i + c3*j + c4*ij of (a,b/F), immutable."""

    __slots__ = ("params", "coords")

    def __init__(self, params: AlgebraParams, c1=0, c2=0, c3=0, c4=0):
        self.params = params
        self.coords = (as_scalar(c1), as_scalar(c2), as_scalar(c3), as_scalar(c4))

    @classmethod
    def _make(cls, params, coords):
        # internal fast path: coords must already be a 4-tuple of Fractions
        self = object.__new__(cls)
        self.params = params
        self.coords = coords
        return self

    @classmethod
    def zero(cls, params):
        return cls._make(params, (_ZERO, _ZERO, _ZERO, _ZERO))

    @classmethod
    def one(cls, params):
        return cls._make(params, (_ONE, _ZERO, _ZERO, _ZERO))

    @classmethod
    def scalar(cls, params, value):
        return cls._make(params, (as_scalar(value), _ZERO, _ZERO, _ZERO))

    @classmethod
    def basis(cls, params, index: int):
        coords = [_ZERO, _ZERO, _ZERO, _ZERO]
        coords[index] = _ONE
        return cls._make(params, tuple(coords))

    def _check_params(self, other: "Quat"):
        if self.params != other.params:
            raise ValueError("operands live in different algebras")

    def __add__(self, other):
        if not isinstance(other, Quat):
            return NotImplemented
        self._check_params(other)
        a, b = self.coords, other.coords
        return Quat._make(self.params, (a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3]))

    def __sub__(self, other):
        if not isinstance(other, Quat):
            return NotImplemented
        self._check_params(other)
        a, b = self.coords, other.coords
        return Quat._make(self.params, (a[0] - b[0], a[1] - b[1], a[2] - b[2], a[3] - b[3]))

    def __neg__(self):
        c = self.coords
        return Quat._make(self.params, (-c[0], -c[1], -c[2], -c[3]))

    def __mul__(self, other):
        if isinstance(other, Quat):
            self._check_params(other)
            table = self.params.table
            out = [_ZERO, _ZERO, _ZERO, _ZERO]
            for x, px in enumerate(self.coords):
                if not px:
                    continue
                row = table[x]
                for y, qy in enumerate(other.coords):
                    if not qy:
                        continue
                    coeff, idx = row[y]
                    out[idx] += px * qy * coeff
            return Quat._make(self.params, tuple(out))
        if isinstance(other, (int, Fraction)):
            s = as_scalar(other)
            c = self.coords
            return Quat._make(self.params, (c[0] * s, c[1] * s, c[2] * s, c[3] * s))
        return NotImplemented

    def __rmul__(self, other):
        # scalars are central, so this is the same product
        if isinstance(other, (int, Fraction)):
            return self.__mul__(other)
        return NotImplemented

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("only nonnegative integer powers are defined")
        result = Quat.one(self.params)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def conj(self) -> "Quat":
        """Quaternion conjugate: trd(q) - q."""
        c = self.coords
        return Quat._make(self.params, (c[0], -c[1], -c[2], -c[3]))

    def trd(self) -> Fraction:
        """Reduced trace 2*c1."""
        return 2 * self.coords[0]

    def nrd(self) -> Fraction:
        """Reduced norm c1^2 - a*c2^2 - b*c3^2 + a*b*c4^2 = q * conj(q)."""
        a, b = self.params.a, self.params.b
        c1, c2, c3, c4 = self.coords
        return c1 * c1 - a * c2 * c2 - b * c3 * c3 + a * b * c4 * c4

    def inv(self) -> "Quat":
        """Two-sided inverse conj(q)/nrd(q)."""
        n = self.nrd()
        if n == 0:
            raise NotInvertible(f"reduced norm of {self!r} is zero")
        return self.conj() * (1 / n)

    @property
    def is_central(self) -> bool:
        c = self.coords
        return not (c[1] or c[2] or c[3])

    def __bool__(self):
        c = self.coords
        return bool(c[0] or c[1] or c[2] or c[3])

    def __eq__(self, other):
        if not isinstance(other, Quat):
            return NotImplemented
        return self.params == other.params and self.coords == other.coords

    def __hash__(self):
        return hash((self.params, self.coords))

    def __repr__(self):
        c = self.coords
        return f"Quat({c[0]}, {c[1]}, {c[2]}, {c[3]})"


class KElem:
    """Element u + v*i of the quadratic subfield K = F(i), with i^2 = a."""

    __slots__ = ("u", "v", "a")

    def __init__(self, u, v, a: Fraction):
        self.u = as_scalar(u)
        self.v = as_scalar(v)
        self.a = a

    @classmethod
    def _make(cls, u, v, a):
        self = object.__new__(cls)
        self.u = u
        self.v = v
        self.a = a
        return self

    @classmethod
    def zero(cls, a):
        return cls._make(_ZERO, _ZERO, a)

    @classmethod
    def one(cls, a):
        return cls._make(_ONE, _ZERO, a)

    def __add__(self, other):
        if not isinstance(other, KElem):
            return NotImplemented
        return KElem._make(self.u + other.u, self.v + other.v, self.a)

    def __sub__(self, other):
        if not isinstance(other, KElem):
            return NotImplemented
        return KElem._make(self.u - other.u, self.v - other.v, self.a)

    def __neg__(self):
        return KElem._make(-self.u, -self.v, self.a)

    def __mul__(self, other):
        if isinstance(other, KElem):
            u1, v1, u2, v2 = self.u, self.v, other.u, other.v
            return KElem._make(u1 * u2 + self.a * v1 * v2, u1 * v2 + v1 * u2, self.a)
        if isinstance(other, (int, Fraction)):
            s = as_scalar(other)
            return KElem._make(self.u * s, self.v * s, self.a)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.__mul__(other)
        return NotImplemented

    def conj(self) -> "KElem":
        return KElem._make(self.u, -self.v, self.a)

    def norm(self) -> Fraction:
        """Field norm u^2 - a*v^2 down to F."""
        return self.u * self.u - self.a * self.v * self.v

    def inv(self) -> "KElem":
        n = self.norm()
        if n == 0:
            raise NotInvertible(f"{self!r} has zero norm")
        return KElem._make(self.u / n, -self.v / n, self.a)

    def __bool__(self):
        return bool(self.u or self.v)

    def __eq__(self, other):
        if not isinstance(other, KElem):
            return NotImplemented
        return self.a == other.a and self.u == other.u and self.v == other.v

    def __hash__(self):
        return hash((self.a, self.u, self.v))

    def __repr__(self):
        return f"KElem({self.u}, {self.v})"


def quat_halves(q: Quat) -> tuple[KElem, KElem]:
    """Split q = z1 + z2*j with z1 = c1 + c2*i, z2 = c3 + c4*i in K."""
    a = q.params.a
    c1, c2, c3, c4 = q.coords
    return KElem._make(c1, c2, a), KElem._make(c3, c4, a)


def k_embed(q: Quat):
    """Embed q into a 2x2 matrix over K, returned as a tuple of row tuples.

    With q = z1 + z2*j the image is [[z1, b*z2], [conj(z2), conj(z1)]].
    This layout is the matrix of left multiplication by q on the right
    K-module D with basis (1, j); it is a ring homomorphism and its
    determinant is the reduced norm of q.
    """
    z1, z2 = quat_halves(q)
    b = q.params.b
    return ((z1, z2 * b), (z2.conj(), z1.conj()))
