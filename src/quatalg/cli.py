"""Command-line entry points and the JSON matrix file format.

Matrix files are JSON documents
``{"algebra": [a, b], "entries": [["i", "0"], ["0", "j"]]}`` where a, b
are integers or rational strings and every entry is a z-free expression
in the grammar of :mod:`quatalg.parsing`.

All subcommands accept ``--algebra a,b`` (default ``-1,-1``) where no
matrix file supplies the parameters.  Errors print a machine-readable
kind (the exception class name) to stderr and exit with status 2;
``eigcheck`` exits 0 when the tested point is a left eigenvalue and 1
when it is not.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .algebra import AlgebraParams
from .eigen import (
    char_poly,
    quadratic_2x2,
    schur_sextic,
)
from .errors import (
    MissingAlgebra,
    NonSquare,
    OffDiagonalZero,
    ParseError,
    QuatAlgError,
)
from .isomorphism import h_map, preimage_generator
from .matquat import MatD, _shift, dieudonne_det, reduced_norm
from .parsing import (
    format_free_poly,
    format_poly,
    format_quat,
    format_scalar,
    parse_poly,
    parse_quat,
)


def _rational_from_json(value, what: str) -> Fraction:
    if isinstance(value, bool):
        raise ParseError(f"{what} must be an exact rational, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"{what}: {exc}") from None
    raise ParseError(f"{what} must be an integer or a rational string, got {value!r}")


def load_matrix(path: str) -> MatD:
    """Read a matrix file; errors carry row/column coordinates."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid matrix file: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError("matrix file must be a JSON object")
    if "algebra" not in doc:
        raise MissingAlgebra("matrix file has no 'algebra' field")
    algebra = doc["algebra"]
    if not isinstance(algebra, (list, tuple)) or len(algebra) != 2:
        raise MissingAlgebra("'algebra' must be a pair [a, b]")
    params = AlgebraParams(
        _rational_from_json(algebra[0], "algebra parameter a"),
        _rational_from_json(algebra[1], "algebra parameter b"),
    )
    entries = doc.get("entries")
    if not isinstance(entries, list) or not entries:
        raise NonSquare("'entries' must be a nonempty list of rows")
    k = len(entries)
    rows = []
    for r, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != k:
            raise NonSquare(f"row {r} has {len(row) if isinstance(row, list) else '?'} entries, expected {k}")
        out = []
        for c, text in enumerate(row):
            if isinstance(text, int) and not isinstance(text, bool):
                text = str(text)
            if not isinstance(text, str):
                raise ParseError(f"entry ({r},{c}) must be an expression string")
            try:
                out.append(parse_quat(text, params))
            except ParseError as exc:
                raise ParseError(f"entry ({r},{c}): {exc}") from None
        rows.append(out)
    return MatD(params, rows)


def save_matrix(path: str, mat: MatD) -> None:
    """Write a matrix back out in the JSON file format."""
    doc = {
        "algebra": [format_scalar(mat.params.a), format_scalar(mat.params.b)],
        "entries": [[format_quat(q) for q in row] for row in mat.rows],
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2)
        handle.write("\n")


def _params_from_args(args) -> AlgebraParams:
    text = args.algebra
    pieces = text.split(",")
    if len(pieces) != 2:
        raise ParseError("--algebra expects two comma-separated rationals")
    try:
        return AlgebraParams(Fraction(pieces[0].strip()), Fraction(pieces[1].strip()))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"--algebra: {exc}") from None


def _cmd_hinv(args) -> int:
    params = _params_from_args(args)
    print(format_poly(preimage_generator(args.var, params)))
    return 0


def _cmd_hmap(args) -> int:
    params = _params_from_args(args)
    poly = parse_poly(args.poly, params)
    print(format_free_poly(h_map(poly)))
    return 0


def _cmd_eval(args) -> int:
    params = _params_from_args(args)
    poly = parse_poly(args.poly, params)
    point = parse_quat(args.at, params)
    print(format_quat(poly.substitute(point)))
    return 0


def _cmd_charpoly(args) -> int:
    mat = load_matrix(args.matrix)
    print(format_poly(char_poly(mat)))
    return 0


def _cmd_eigcheck(args) -> int:
    mat = load_matrix(args.matrix)
    lam = parse_quat(args.lam, mat.params)
    nrd = reduced_norm(_shift(mat, lam))
    print(format_scalar(nrd))
    return 0 if nrd == 0 else 1


def _cmd_sextic(args) -> int:
    mat = load_matrix(args.matrix)
    data = schur_sextic(mat)
    print(f"e = {format_poly(data.e)}")
    print(f"f = {format_poly(data.f)}")
    print(f"g = {format_poly(data.g)}")
    print(f"h = {format_poly(data.h)}")
    print(f"sextic = {format_poly(data.sextic)}")
    return 0


def _cmd_quad2(args) -> int:
    mat = load_matrix(args.matrix)
    try:
        print(format_poly(quadratic_2x2(mat)))
    except OffDiagonalZero as exc:
        top, bottom = exc.eigenvalues
        print(f"lambda1 = {format_quat(top)}")
        print(f"lambda2 = {format_quat(bottom)}")
    return 0


def _cmd_nrd(args) -> int:
    mat = load_matrix(args.matrix)
    print(format_scalar(reduced_norm(mat)))
    return 0


def _cmd_ddet(args) -> int:
    mat = load_matrix(args.matrix)
    print(repr(dieudonne_det(mat)))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quatalg",
        description="Exact computer algebra for quaternion algebras and left eigenvalues.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--algebra", default="-1,-1", help="parameters a,b (default -1,-1)")
        p.set_defaults(func=func)
        return p

    p = add("hinv", _cmd_hinv, "print the degree-one preimage of a generator x_k")
    p.add_argument("--var", type=int, required=True, choices=(1, 2, 3, 4))

    p = add("hmap", _cmd_hmap, "map a general polynomial into the free-monoid ring")
    p.add_argument("--poly", required=True)

    p = add("eval", _cmd_eval, "substitute a point into a general polynomial")
    p.add_argument("--poly", required=True)
    p.add_argument("--at", required=True)

    p = add("charpoly", _cmd_charpoly, "characteristic polynomial of a matrix file")
    p.add_argument("--matrix", required=True)

    p = add("eigcheck", _cmd_eigcheck, "exit 0 iff the point is a left eigenvalue")
    p.add_argument("--matrix", required=True)
    p.add_argument("--lambda", dest="lam", required=True)

    p = add("sextic", _cmd_sextic, "4x4 block reduction: e, f, g, h and the sextic")
    p.add_argument("--matrix", required=True)

    p = add("quad2", _cmd_quad2, "2x2 reduction: quadratic or triangular eigenvalues")
    p.add_argument("--matrix", required=True)

    p = add("nrd", _cmd_nrd, "reduced norm of a matrix (exact rational)")
    p.add_argument("--matrix", required=True)

    p = add("ddet", _cmd_ddet, "Dieudonne determinant of a matrix (floating)")
    p.add_argument("--matrix", required=True)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except QuatAlgError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"IOError: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        # deeply nested input; exit 1 would read as eigcheck's "not an eigenvalue"
        print("RecursionError: input is nested too deeply", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
