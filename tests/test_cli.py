"""Command-line conformance: subcommands, file loading, exit codes."""

import json
import random

import pytest

from quatalg import (
    HAMILTON,
    MissingAlgebra,
    NonSquare,
    ParseError,
    Quat,
    is_left_eigenvalue,
    format_quat,
)
from quatalg.cli import load_matrix, main, save_matrix

from conftest import rand_matd, rand_quat

H = HAMILTON


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


DIAG_DOC = {"algebra": [-1, -1], "entries": [["i", "0"], ["0", "j"]]}


def test_load_matrix(tmp_path):
    path = _write(tmp_path, "diag.json", DIAG_DOC)
    mat = load_matrix(path)
    assert mat.params == H
    assert mat.rows[0][0] == Quat.basis(H, 1)
    assert mat.rows[1][1] == Quat.basis(H, 2)


def test_load_matrix_rational_algebra(tmp_path):
    from fractions import Fraction

    doc = {"algebra": ["-1/2", -3], "entries": [["1"]]}
    mat = load_matrix(_write(tmp_path, "m.json", doc))
    assert mat.params.a == Fraction(-1, 2)
    assert mat.params.b == Fraction(-3)


def test_load_matrix_errors(tmp_path):
    with pytest.raises(NonSquare):
        load_matrix(_write(tmp_path, "a.json", {"algebra": [-1, -1], "entries": [["i", "0"]]}))
    with pytest.raises(MissingAlgebra):
        load_matrix(_write(tmp_path, "b.json", {"entries": [["i"]]}))
    with pytest.raises(ParseError) as excinfo:
        load_matrix(_write(tmp_path, "c.json", {"algebra": [-1, -1], "entries": [["z"]]}))
    assert "(0,0)" in str(excinfo.value)
    bad = tmp_path / "d.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError):
        load_matrix(str(bad))


def test_save_load_round_trip(tmp_path):
    mat = rand_matd(random.Random(38), 3)
    path = str(tmp_path / "m.json")
    save_matrix(path, mat)
    assert load_matrix(path) == mat


def test_hinv_pinned_golden(capsys):
    # value-checked against the closed formula for the x2 preimage
    assert main(["hinv", "--var", "2"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "-1/4*z*i + -1/4*i*z + 1/4*j*z*k + -1/4*k*z*j"


def test_hmap_output(capsys):
    assert main(["hmap", "--poly", "z"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "1*x1 + 1*i*x2 + 1*j*x3 + 1*k*x4"


def test_eval_output(capsys):
    assert main(["eval", "--poly", "z^2 + i*z + j", "--at", "1 + i"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "-1 + 3*i + 1*j"


def test_eigcheck_exit_codes(tmp_path, capsys):
    path = _write(tmp_path, "diag.json", DIAG_DOC)
    assert main(["eigcheck", "--matrix", path, "--lambda", "i"]) == 0
    assert capsys.readouterr().out.strip() == "0"
    assert main(["eigcheck", "--matrix", path, "--lambda", "2"]) == 1
    assert capsys.readouterr().out.strip() != "0"


def test_eigcheck_corpus_matches_library(tmp_path, capsys):
    rng = random.Random(39)
    for n in range(10):
        mat = rand_matd(rng, 2)
        lam = rand_quat(rng)
        doc = {
            "algebra": [-1, -1],
            "entries": [[format_quat(q) for q in row] for row in mat.rows],
        }
        path = _write(tmp_path, f"m{n}.json", doc)
        code = main(["eigcheck", "--matrix", path, "--lambda", format_quat(lam)])
        capsys.readouterr()
        assert code == (0 if is_left_eigenvalue(mat, lam) else 1)


def test_quad2_triangular(tmp_path, capsys):
    doc = {"algebra": [-1, -1], "entries": [["i", "1"], ["0", "j"]]}
    path = _write(tmp_path, "t.json", doc)
    assert main(["quad2", "--matrix", path]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["lambda1 = 1*i", "lambda2 = 1*j"]


def test_quad2_swap(tmp_path, capsys):
    doc = {"algebra": [-1, -1], "entries": [["0", "1"], ["1", "0"]]}
    path = _write(tmp_path, "s.json", doc)
    assert main(["quad2", "--matrix", path]) == 0
    assert capsys.readouterr().out.strip() == "-1 + 1*z*z"


def test_nrd_and_ddet(tmp_path, capsys):
    path = _write(tmp_path, "diag.json", DIAG_DOC)
    assert main(["nrd", "--matrix", path]) == 0
    assert capsys.readouterr().out.strip() == "1"
    assert main(["ddet", "--matrix", path]) == 0
    assert capsys.readouterr().out.strip() == "1.0"


def test_sextic_command(tmp_path, capsys):
    zero, one = "0", "1"
    doc = {
        "algebra": [-1, -1],
        "entries": [
            [zero, zero, zero, zero],
            [zero, zero, zero, zero],
            [one, zero, zero, zero],
            [zero, one, zero, zero],
        ],
    }
    path = _write(tmp_path, "blk.json", doc)
    assert main(["sextic", "--matrix", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "e = 1*z*z"
    assert lines[1] == "f = 0"
    assert lines[2] == "g = 0"
    assert lines[3] == "h = 1*z*z"
    assert lines[4].startswith("sextic = ")


def test_charpoly_command(tmp_path, capsys):
    doc = {"algebra": [-1, -1], "entries": [["0"]]}
    path = _write(tmp_path, "z1.json", doc)
    assert main(["charpoly", "--matrix", path]) == 0
    out = capsys.readouterr().out.strip()
    # the value of the printed polynomial at any point is the reduced norm
    from quatalg import parse_poly

    poly = parse_poly(out, H)
    assert poly.degree() == 2
    rng = random.Random(40)
    for _ in range(5):
        lam = rand_quat(rng)
        assert poly.substitute(lam) == Quat.scalar(H, lam.nrd())


def test_error_reporting(tmp_path, capsys):
    code = main(["eval", "--poly", "1/0", "--at", "1"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("DivisionByZeroLiteral:")
    code = main(["charpoly", "--matrix", str(tmp_path / "missing.json")])
    assert code == 2
    assert "IOError" in capsys.readouterr().err


def test_deep_nesting_is_an_error_not_a_verdict(capsys):
    poly = "(" * 3000 + "z" + ")" * 3000
    assert main(["eval", "--poly", poly, "--at", "i"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("RecursionError:") and err.count("\n") == 1


def test_hmap_of_a_long_word_is_a_budget_error(capsys):
    poly = "*z*".join(["i", "j", "k"] * 500)
    assert main(["hmap", "--poly", poly]) == 2
    err = capsys.readouterr().err
    assert err.startswith("BudgetExceeded:") and err.count("\n") == 1


def test_algebra_flag(capsys):
    assert main(["eval", "--poly", "i*i", "--at", "0", "--algebra", "2,-3"]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_dimension_error_kinds(tmp_path, capsys):
    one = _write(tmp_path, "one.json", {"algebra": [-1, -1], "entries": [["1"]]})
    assert main(["quad2", "--matrix", one]) == 2
    assert capsys.readouterr().err.startswith("DimensionMismatch:")
    assert main(["sextic", "--matrix", one]) == 2
    assert capsys.readouterr().err.startswith("DimensionMismatch:")
    ident4 = {"algebra": [-1, -1], "entries": [["1" if r == c else "0" for c in range(4)] for r in range(4)]}
    path = _write(tmp_path, "id4.json", ident4)
    assert main(["sextic", "--matrix", path]) == 2
    assert capsys.readouterr().err.startswith("BlockNotInvertible:")
