"""quatalg: exact computer algebra for quaternion algebras.

Implements the ring of general polynomials over a quaternion algebra
(the variable commutes with the rationals only), the free-monoid ring
it is isomorphic to, matrices over the algebra with their reduced-norm
determinant, characteristic polynomials whose roots are exactly the
left eigenvalues, and the 4x4 sextic block reduction.
"""

from .algebra import (
    HAMILTON,
    AlgebraParams,
    KElem,
    Quat,
    Scalar,
    k_embed,
)
from .eigen import (
    SchurData,
    build_symbolic,
    char_poly,
    is_left_eigenvalue,
    plant_eigenpair,
    quadratic_2x2,
    schur_sextic,
    sextic_eigen_test,
)
from .errors import (
    AlgorithmFailure,
    BlockNotInvertible,
    BudgetExceeded,
    DimensionMismatch,
    DivisionByZeroLiteral,
    InternalInvariant,
    MissingAlgebra,
    NonSquare,
    NotInBaseField,
    NotInvertible,
    OffDiagonalZero,
    ParseError,
    QuatAlgError,
    UnsupportedAlgebra,
)
from .freepoly import CommPoly, FreePoly, comm_det, comm_to_free_lift
from .genpoly import GenPoly
from .isomorphism import generators, h_inv, h_map, h_z, preimage_generator
from .matquat import (
    MatD,
    MatK,
    dieudonne_det,
    embed_matrix,
    mat_inv,
    mat_is_invertible,
    reduced_norm,
)
from .parsing import (
    format_free_poly,
    format_poly,
    format_quat,
    format_scalar,
    parse_poly,
    parse_quat,
)

__version__ = "0.1.0"

__all__ = [
    "HAMILTON",
    "AlgebraParams",
    "KElem",
    "Quat",
    "Scalar",
    "k_embed",
    "GenPoly",
    "FreePoly",
    "CommPoly",
    "comm_det",
    "comm_to_free_lift",
    "generators",
    "h_z",
    "h_map",
    "h_inv",
    "preimage_generator",
    "MatD",
    "MatK",
    "embed_matrix",
    "reduced_norm",
    "dieudonne_det",
    "mat_inv",
    "mat_is_invertible",
    "SchurData",
    "build_symbolic",
    "char_poly",
    "is_left_eigenvalue",
    "plant_eigenpair",
    "schur_sextic",
    "sextic_eigen_test",
    "quadratic_2x2",
    "parse_poly",
    "parse_quat",
    "format_poly",
    "format_quat",
    "format_free_poly",
    "format_scalar",
    "QuatAlgError",
    "NotInvertible",
    "DimensionMismatch",
    "UnsupportedAlgebra",
    "InternalInvariant",
    "NotInBaseField",
    "AlgorithmFailure",
    "BlockNotInvertible",
    "BudgetExceeded",
    "OffDiagonalZero",
    "ParseError",
    "DivisionByZeroLiteral",
    "NonSquare",
    "MissingAlgebra",
    "__version__",
]
