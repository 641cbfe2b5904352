"""Seeded inputs and the operation lists of the three workloads.

A workload is a sequence of rounds.  Round r is built from its own
random stream ``(workload, seed, r)`` so the same seed always gives the
same inputs, and the library only ever sees the generated values.  A run
executes whole rounds, so every run has the same mix of operations.

Why each workload exists:

* ``charpoly``: the left-eigenvalue pipeline on symbolic polynomials.
  ``comm_det``, ``h_inv``, ``GenPoly.substitute`` and ``format_poly`` do
  nearly all the work; few operations carry very large intermediates.
* ``numeric``: exact decisions on numeric matrices with no symbolic
  polynomial.  The exponential cofactor ``reduced_norm`` dominates.
* ``polyring``: many small polynomial operations in the same layers as
  ``charpoly``, far below the size where array kernels pay off, so a
  kernel that taxes small inputs shows up here.

``INPUT_CLASSES`` records why each input class is there.  Keep every
class, also where it fails or leaves a fast path today: dropping one
would hide a defect.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from fractions import Fraction

import quatalg as Q
from quatalg import cli

from . import oracle as O
from .harness import KnownDefect, Op

INPUT_CLASSES = {
    "planted": "matrix with a planted eigenpair M v = lam v, so lam is a known root "
               "of the char poly and a known left eigenvalue",
    "small_probe": "point with coordinates in +-1..3: the common evaluation case, "
                   "with no zero coordinate to shortcut a product",
    "large_probe": "point with |coordinates| in 500..1500; in (-1,-1) its l1 norm puts "
                   "substitute off the int64 fast path onto the generic route",
    "nonH": "the (-2,-3) algebra: no numpy kernel applies, every step takes the generic route",
    "random_numeric": "matrix with coordinates in -3..3, almost always invertible",
    "singular": "a row that is a left multiple of another row: reduced norm 0, "
                "mat_inv must raise NotInvertible",
    "split": "(1,1) is split: nonzero elements of norm 0 exist, so pivots can be "
             "non-invertible",
    "rational_a": "(1/2,-5): a non-integer a sends comm_det to its Fraction path",
    "split_defect": "[[1+i, 1-i], [1-i, 1+i]] in (1,1): nrd = -16 but mat_inv raises "
                    "NotInvertible (known defect, counted as a failure)",
    "huge_entries": "Hamilton 4x4 with coordinates ~1e40: dieudonne_det raises "
                    "OverflowError (known defect, counted as a failure)",
    "fresh_algebra": "algebra parameters drawn from +-1..1e6, so preimage_generator "
                     "always runs its search instead of hitting the cache",
    "small_poly": "general polynomials of degree 4 (Hamilton) / 3 (-2,-3) with 4..24 "
                  "terms, below the 30 terms where substitute turns to numpy; the sizes "
                  "are the same for every seed and words of degree >= 1 have no unit "
                  "letter, so the latency quantiles do not move with the draw (char "
                  "polys carry the unit letters)",
    "small_probe_block": "extra non-eigen probes at k = 2, 3 in numeric: cheap decisions "
                         "that put the median op inside the block of k = 4 decisions",
}

HAM = (Fraction(-1), Fraction(-1))
NONH = (Fraction(-2), Fraction(-3))
SPLIT = (Fraction(1), Fraction(1))
RATA = (Fraction(1, 2), Fraction(-5))

WORKLOADS = ("charpoly", "numeric", "polyring")


# --- input generation -------------------------------------------------------

class Inputs:
    """Seeded values for one round; also writes the round's matrix files."""

    def __init__(self, workload: str, seed: int, rnd: int, workdir, replica: int = 0):
        self.rng = random.Random(f"{workload}:{seed}:{rnd}")
        # fresh algebras come from their own stream, so a second build of the
        # same round (the untraced baseline of a traced run) misses the cache
        self.fresh_rng = random.Random(f"{workload}:{seed}:{rnd}:fresh:{replica}")
        self.workdir = workdir
        self.prefix = f"{workload}-{seed}-{rnd}-{replica}"
        self.files = 0

    def quat(self):
        return tuple(Fraction(self.rng.randint(-3, 3)) for _ in range(4))

    def big_quat(self, lo, hi):
        return tuple(Fraction(self.rng.choice((-1, 1)) * self.rng.randint(lo, hi))
                     for _ in range(4))

    def matrix(self, k):
        return [[self.quat() for _ in range(k)] for _ in range(k)]

    def point(self):
        """Probe point with every coordinate in +-1..3, so no product is skipped."""
        return tuple(Fraction(self.rng.choice((-1, 1)) * self.rng.randint(1, 3))
                     for _ in range(4))

    def planted(self, alg, k):
        """(rows, lam) with M v = lam v; column 0 of M is solved for.

        v[0] is the fixed invertible 2 + i in every algebra used here, so
        every planted matrix carries the same denominators and costs about
        the same whatever the seed.
        """
        tab = O.table(*alg)
        vec = [_PIVOT] + [self.quat() for _ in range(k - 1)]
        lam = self.point()
        rows = self.matrix(k)
        vinv = O.qinv(_PIVOT, tab)
        for r in range(k):
            rest = (Fraction(0),) * 4
            for c in range(1, k):
                rest = _qadd(rest, O.qmul(rows[r][c], vec[c], tab))
            target = _qsub(O.qmul(lam, vec[r], tab), rest)
            rows[r][0] = O.qmul(target, vinv, tab)
        return rows, lam

    def singular(self, alg, k):
        """A k x k matrix with one row a left multiple of another: nrd = 0."""
        rows = self.matrix(k)
        q = self.quat()
        r1, r2 = self.rng.sample(range(k), 2)
        rows[r2] = [O.qmul(q, x, O.table(*alg)) for x in rows[r1]]
        return rows

    def _distinct(self, out, draw):
        """A key not in ``out`` yet, or None once its kind is used up."""
        for _ in range(64):
            key = draw()
            if key not in out:
                return key
        return None

    def genpoly(self, max_degree, terms):
        """``terms`` terms whose degrees cycle down from ``max_degree``.

        Only the letters and coefficients are drawn, so every seed gives
        polynomials of the same sizes and about the same cost; a degree
        whose words are used up (there are four of degree 0) is skipped.
        Words of degree >= 1 take their letters from i, j, k: a unit letter
        between two z merges them into z^2 and changes the size of h(P),
        and so the cost of h_inv, up to eightfold from one draw to the next.
        """
        out = {}
        for t in range(terms):
            n = max_degree - t % (max_degree + 1)
            low = 0 if n == 0 else 1
            word = self._distinct(out, lambda: tuple(self.rng.randint(low, 3)
                                                     for _ in range(n + 1)))
            if word is not None:
                out[word] = Fraction(self.rng.randint(-4, 4) or 1,
                                     self.rng.choice((1, 1, 2, 4)))
        return out

    def freepoly(self, max_degree, terms):
        """Like ``genpoly``: word lengths cycle, letters and coefficients are drawn."""
        out = {}
        for t in range(terms):
            n = max_degree - t % (max_degree + 1)
            key = self._distinct(out, lambda: (self.rng.randint(0, 3),
                                               tuple(self.rng.randint(1, 4) for _ in range(n))))
            if key is not None:
                out[key] = Fraction(self.rng.randint(-4, 4) or 1, self.rng.choice((1, 2)))
        return out

    def fresh_algebra(self):
        def draw():
            return Fraction(self.fresh_rng.choice((-1, 1)) * self.fresh_rng.randint(1, 10**6))
        return (draw(), draw())

    def write_matrix(self, alg, rows) -> str:
        path = self.workdir / f"{self.prefix}-{self.files}.json"
        self.files += 1
        doc = {"algebra": [str(alg[0]), str(alg[1])],
               "entries": [[quat_text(q) for q in row] for row in rows]}
        path.write_text(json.dumps(doc))
        return str(path)


_PIVOT = (Fraction(2), Fraction(1), Fraction(0), Fraction(0))


def _qadd(p, q):
    return tuple(x + y for x, y in zip(p, q))


def _qsub(p, q):
    return tuple(x - y for x, y in zip(p, q))


def quat_text(q) -> str:
    names = ("", "*i", "*j", "*k")
    parts = [f"({c}){n}" for c, n in zip(q, names) if c]
    return " + ".join(parts) or "0"


def params(alg):
    return Q.AlgebraParams(*alg)


def lib_quat(alg, q):
    return Q.Quat(params(alg), *q)


def lib_mat(alg, rows):
    p = params(alg)
    return Q.MatD(p, [[Q.Quat(p, *q) for q in row] for row in rows])


def describe(alg, rows) -> str:
    return f"{alg}:{rows}"


def shifted(alg, rows, x):
    """Coordinates of M - x I (x multiplies the identity on the left)."""
    return [[_qsub(q, x) if r == c else q for c, q in enumerate(row)]
            for r, row in enumerate(rows)]


def oracle_nrd_sq(alg, rows) -> Fraction:
    return O.left_mult_det(rows, *alg)


class CheckFailed(Exception):
    pass


def expect(cond: bool, what: str):
    if not cond:
        raise CheckFailed(what)


def run_cli(argv):
    """quatalg.cli.main in-process; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


# --- spans around library calls ----------------------------------------------

def staged_char_poly(tr, mat):
    """char_poly(mat) as its four stages, each in its own span."""
    with tr.span("eigen.build_symbolic"):
        sym = Q.build_symbolic(mat)
    with tr.span("freepoly.comm_det") as sp:
        det = Q.comm_det(sym)
        sp.terms = len(det.terms)
    with tr.span("freepoly.comm_to_free_lift") as sp:
        lifted = Q.comm_to_free_lift(det, mat.params)
        sp.terms = len(lifted.terms)
    with tr.span("isomorphism.h_inv") as sp:
        poly = Q.h_inv(lifted)
        sp.terms = len(poly.terms)
    return poly


def staged_reduced_norm(tr, mat):
    """reduced_norm(mat) as embedding plus determinant over K."""
    with tr.span("matquat.embed_matrix"):
        emb = Q.embed_matrix(mat)
    with tr.span("matquat.MatK.det"):
        det = emb.det()
    if det.v != 0:
        raise Q.InternalInvariant(f"embedded determinant {det!r} has a nonzero i-part")
    return det.u


# Names in quatalg.cli that a traced run wraps in spans, so a CLI op splits
# into loading its input, the library call and the formatting of the output.
CLI_SPANS = {
    "load_matrix": "cli.load_matrix",
    "parse_poly": "cli.parse_poly",
    "char_poly": "cli.call.char_poly",
    "schur_sextic": "cli.call.schur_sextic",
    "quadratic_2x2": "cli.call.quadratic_2x2",
    "reduced_norm": "cli.call.reduced_norm",
    "dieudonne_det": "cli.call.dieudonne_det",
    "h_map": "cli.call.h_map",
    "preimage_generator": "cli.call.preimage_generator",
    "format_poly": "parsing.format_poly",
    "format_free_poly": "parsing.format_free_poly",
    "format_quat": "parsing.format_quat",
    "format_scalar": "parsing.format_scalar",
}


def _spanned(tr, name, fn):
    def call(*args, **kwargs):
        with tr.span(name) as sp:
            out = fn(*args, **kwargs)
            if isinstance(out, str):
                sp.nbytes = len(out)
            elif hasattr(out, "terms"):
                sp.terms = len(out.terms)
            return out
    return call


@contextlib.contextmanager
def cli_spans(tr):
    """Wrap the CLI's module-level names in spans; restored on exit."""
    saved = {name: getattr(cli, name) for name in CLI_SPANS}
    try:
        for name, span in CLI_SPANS.items():
            setattr(cli, name, _spanned(tr, span, saved[name]))
        yield
    finally:
        for name, fn in saved.items():
            setattr(cli, name, fn)


WARM_ALGEBRAS = {"charpoly": (HAM, NONH), "numeric": (HAM, NONH, SPLIT, RATA),
                 "polyring": (HAM, NONH)}


def warm_up(workload):
    """Fill the caches and pay the first-call costs users pay once per process."""
    for alg in WARM_ALGEBRAS[workload]:
        Q.generators(params(alg))
        one = lib_quat(alg, (1, 1, 0, 0))
        mat = Q.MatD(params(alg), [[one, one.conj()], [one.conj(), one * one]])
        Q.reduced_norm(mat)
        if workload != "numeric":
            Q.char_poly(mat).substitute(one)
    run_cli(["hinv", "--var", "1"])


# --- charpoly ---------------------------------------------------------------

# Per round: counts chosen so the median op falls near the middle of the
# block of small Hamilton k=3 substitutions and the 90th percentile inside
# the block of (-2,-3) k=2 substitutions, away from any change of class.
CHARPOLY_PLAN = {"H2": 15, "H3": 10, "N2": 10, "H3_probes": 7, "N2_probes": 3}


def charpoly_round(inp: Inputs, traced: bool):
    ops = []
    state = {}

    def char_poly_op(alg, k, key, rows, mat):
        kind = f"eigen.char_poly.{'H' if alg == HAM else 'nonH'}.k{k}"

        def run(tr):
            return staged_char_poly(tr, mat) if tr.enabled else Q.char_poly(mat)

        def check(poly):
            expect(poly.degree() == 2 * k, f"degree {poly.degree()} != {2 * k}")
            if traced:
                expect(poly == Q.char_poly(mat), "staged char_poly differs from char_poly")
            state[key] = poly
            return {"terms": len(poly.terms)}

        ops.append(Op(kind, describe(alg, rows), run, check))

    def subst_op(alg, key, kind, rows, x, planted):
        point = lib_quat(alg, x)

        def run(tr):
            return state[key].substitute(point)

        def check(value):
            if planted:
                expect(not value, f"P(lam) = {value!r}, expected 0")
            else:
                want = Q.reduced_norm(lib_mat(alg, shifted(alg, rows, x)))
                expect(value == Q.Quat.scalar(params(alg), want), "P(x) != nrd(M - xI)")
            return None

        ops.append(Op(kind, f"{key}@{x}", run, check))

    def pipeline(alg, k, name, probes, large=0, cli_file=False):
        rows, lam = inp.planted(alg, k)
        if alg == HAM and k == 4:
            # schur_sextic needs an invertible lower-left 2x2 block
            while not _block_invertible(alg, [r[:2] for r in rows[2:]]):
                rows, lam = inp.planted(alg, k)
        mat = lib_mat(alg, rows)
        char_poly_op(alg, k, name, rows, mat)
        subst_op(alg, name, "genpoly.substitute.charpoly", rows, lam, True)
        for _ in range(probes):
            subst_op(alg, name, "genpoly.substitute.charpoly", rows, inp.point(), False)
        for _ in range(large):
            subst_op(alg, name, "genpoly.substitute.large_point", rows,
                     inp.big_quat(500, 1500), False)
        if cli_file:
            cli_charpoly_op(alg, rows, name)
        return rows, lam, mat

    def cli_charpoly_op(alg, rows, key):
        path = inp.write_matrix(alg, rows)

        def check(res):
            code, out = res
            expect(code == 0, f"exit {code}")
            expect(O.parse_gen_text(out) == state[key].terms, "CLI charpoly differs")
            return {"bytes": len(out)}

        ops.append(Op("cli.charpoly", describe(alg, rows),
                      lambda tr: run_cli(["charpoly", "--matrix", path]), check))

    def quad_ops(alg, rows, lam):
        mat = lib_mat(alg, rows)
        tab = O.table(*alg)
        probe = inp.point()

        def check_poly(poly_terms):
            expect(not any(O.gen_eval(poly_terms, lam, tab)), "quadratic(lam) != 0")
            value = O.gen_eval(poly_terms, probe, tab)
            singular = Q.reduced_norm(lib_mat(alg, shifted(alg, rows, probe))) == 0
            expect((not any(value)) == singular, "quadratic root test disagrees with nrd")

        def check(poly):
            check_poly(poly.terms)
            return {"terms": len(poly.terms)}

        ops.append(Op("eigen.quadratic_2x2", describe(alg, rows),
                      lambda tr: Q.quadratic_2x2(mat), check))
        path = inp.write_matrix(alg, rows)

        def check_cli(res):
            code, out = res
            expect(code == 0, f"exit {code}")
            check_poly(O.parse_gen_text(out))
            return {"bytes": len(out)}

        ops.append(Op("cli.quad2", describe(alg, rows),
                      lambda tr: run_cli(["quad2", "--matrix", path]), check_cli))

    for n in range(CHARPOLY_PLAN["H2"]):
        rows, lam = _planted_with_c(inp, HAM)
        name = f"H2.{n}"
        mat = lib_mat(HAM, rows)
        char_poly_op(HAM, 2, name, rows, mat)
        subst_op(HAM, name, "genpoly.substitute.charpoly", rows, lam, True)
        subst_op(HAM, name, "genpoly.substitute.charpoly", rows, inp.point(), False)
        quad_ops(HAM, rows, lam)
    for n in range(CHARPOLY_PLAN["H3"]):
        pipeline(HAM, 3, f"H3.{n}", CHARPOLY_PLAN["H3_probes"], cli_file=(n == 0),
                 large=int(n == 0))
    for n in range(CHARPOLY_PLAN["N2"]):
        pipeline(NONH, 2, f"N2.{n}", CHARPOLY_PLAN["N2_probes"], large=int(n == 0))
    pipeline(NONH, 3, "N3", 0)
    rows4, lam4, mat4 = pipeline(HAM, 4, "H4", 0, cli_file=True)
    sextic_ops(inp, ops, state, rows4, lam4, mat4)
    return ops


def _block_invertible(alg, rows) -> bool:
    """Whether a 2x2 block is invertible: nrd(a) nrd(d - c a^-1 b) != 0, or the
    same with the columns swapped when a has norm 0."""
    tab = O.table(*alg)
    (a, b), (c, d) = rows
    for p, q, r, s in ((a, b, c, d), (b, a, d, c), (c, d, a, b), (d, c, b, a)):
        if O.qnrd(p, tab):
            schur = _qsub(s, O.qmul(O.qmul(r, O.qinv(p, tab), tab), q, tab))
            return bool(O.qnrd(schur, tab))
    return False


def _planted_with_c(inp, alg):
    """A planted 2x2 whose lower-left entry is nonzero, as quadratic_2x2 needs."""
    while True:
        rows, lam = inp.planted(alg, 2)
        if any(rows[1][0]):
            return rows, lam


def sextic_ops(inp, ops, state, rows, lam, mat):
    alg = HAM

    def check(data):
        expect(data.sextic.degree() <= 6, "sextic degree above 6")
        state["sextic"] = data
        return {"terms": sum(len(p.terms) for p in (data.e, data.f, data.g, data.h, data.sextic))}

    ops.append(Op("eigen.schur_sextic", describe(alg, rows), lambda tr: Q.schur_sextic(mat),
                  check))
    for x in (lam, inp.point(), inp.point()):
        point = lib_quat(alg, x)

        def check_test(got, x=x):
            singular = Q.reduced_norm(lib_mat(alg, shifted(alg, rows, x))) == 0
            expect(got == singular, "sextic test disagrees with nrd(M - xI)")
            return None

        ops.append(Op("eigen.sextic_eigen_test", f"sextic@{x}",
                      lambda tr, point=point: Q.sextic_eigen_test(state["sextic"], point),
                      check_test))
    path = inp.write_matrix(alg, rows)

    def check_cli(res):
        code, out = res
        expect(code == 0, f"exit {code}")
        data = state["sextic"]
        got = dict(line.split(" = ", 1) for line in out.splitlines())
        for name in ("e", "f", "g", "h", "sextic"):
            expect(O.parse_gen_text(got[name]) == getattr(data, name).terms,
                   f"CLI sextic {name} differs")
        return {"bytes": len(out)}

    ops.append(Op("cli.sextic", describe(alg, rows),
                  lambda tr: run_cli(["sextic", "--matrix", path]), check_cli))


# --- numeric ------------------------------------------------------------------

# Non-eigen probes per planted matrix, by size.  The many cheap small-k
# probes put the median op inside the dense block of k = 4 decisions
# (about 2 ms) instead of on the steep stretch between k = 3 and k = 5,
# where the median of a run would move with every input.
NUMERIC_PROBES = {2: 6, 3: 5}


def numeric_round(inp: Inputs, traced: bool):
    ops = []
    nrd_sq_cache = {}

    def nrd_sq(alg, rows):
        key = describe(alg, rows)
        if key not in nrd_sq_cache:
            nrd_sq_cache[key] = oracle_nrd_sq(alg, rows)
        return nrd_sq_cache[key]

    def matrix_ops(alg, rows, which, size_tag):
        mat = lib_mat(alg, rows)
        text = describe(alg, rows)

        def check_nrd(value):
            expect(value * value == nrd_sq(alg, rows), "nrd(M)^2 != det of left multiplication")
            return None

        def run_nrd(tr):
            return staged_reduced_norm(tr, mat) if tr.enabled else Q.reduced_norm(mat)

        if "nrd" in which:
            ops.append(Op(f"matquat.reduced_norm.{size_tag}", text, run_nrd, check_nrd))
        if "inv?" in which:
            ops.append(Op("matquat.mat_is_invertible", text,
                          lambda tr: Q.mat_is_invertible(mat),
                          lambda got: expect(got == (nrd_sq(alg, rows) != 0),
                                             "invertibility disagrees with oracle")))
        if "inv" in which:
            ident = Q.MatD.identity(mat.params, mat.k)

            def check_inv(inv):
                expect(inv * mat == ident and mat * inv == ident,
                       "mat_inv is not a two-sided inverse")
                return None

            def inv_error(exc):
                if not isinstance(exc, Q.NotInvertible):
                    raise exc
                if nrd_sq(alg, rows) == 0:
                    return None
                if alg == SPLIT:
                    raise KnownDefect("split mat_inv: NotInvertible on an invertible matrix")
                raise CheckFailed("NotInvertible on an invertible matrix")

            ops.append(Op("matquat.mat_inv", text, lambda tr: Q.mat_inv(mat),
                          check_inv, inv_error))
        if "ddet" in which:
            def check_ddet(value):
                want = math.sqrt(O.nrd_from_square(nrd_sq(alg, rows)))
                expect(math.isclose(value, want, rel_tol=1e-12), f"ddet {value} != {want}")
                return None

            def ddet_error(exc):
                if isinstance(exc, OverflowError):
                    raise KnownDefect("dieudonne_det overflows past 1e308")
                raise exc

            ops.append(Op("matquat.dieudonne_det", text, lambda tr: Q.dieudonne_det(mat),
                          check_ddet, ddet_error))

    def eigen_ops(alg, k):
        rows, lam = inp.planted(alg, k)
        mat = lib_mat(alg, rows)
        probes = [(inp.point(), False) for _ in range(NUMERIC_PROBES.get(k, 1))]
        for x, planted in [(lam, True)] + probes:
            point = lib_quat(alg, x)

            def check(got, x=x, planted=planted):
                if planted:
                    expect(got is True, "planted eigenvalue not recognised")
                else:
                    want = oracle_nrd_sq(alg, shifted(alg, rows, x)) == 0
                    expect(got == want, "eigenvalue test disagrees with oracle")
                return None

            ops.append(Op("eigen.is_left_eigenvalue", f"{describe(alg, rows)}@{x}",
                          lambda tr, point=point: Q.is_left_eigenvalue(mat, point), check))
        return rows, lam

    cli_files = []
    for alg in (HAM, NONH, SPLIT):
        full = ("nrd", "inv?", "inv") + (("ddet",) if alg[0] < 0 and alg[1] < 0 else ())
        for k in range(2, 7):
            rows = inp.matrix(k)
            matrix_ops(alg, rows, full, f"k{k}")
            eigen_ops(alg, k)
            if k == 4:
                cli_files.append((alg, rows))
        matrix_ops(alg, inp.matrix(7), ("nrd", "inv"), "k7")
        for k in (3, 5):
            matrix_ops(alg, inp.singular(alg, k), full, f"k{k}")
    for k in range(2, 6):
        rows = inp.matrix(k)
        matrix_ops(RATA, rows, ("nrd", "inv?", "inv"), "rational_a")
        if k <= 4:
            eigen_ops(RATA, k)
        if k == 3:
            cli_files.append((RATA, rows))
    matrix_ops(HAM, inp.matrix(8), ("nrd", "inv"), "k8")

    one = Fraction(1)
    split_defect = [[(one, one, 0, 0), (one, -one, 0, 0)], [(one, -one, 0, 0), (one, one, 0, 0)]]
    split_defect = [[tuple(Fraction(c) for c in q) for q in row] for row in split_defect]
    matrix_ops(SPLIT, split_defect, ("nrd", "inv?", "inv"), "k2")
    huge = [[inp.big_quat(10**40, 10**41) for _ in range(4)] for _ in range(4)]
    matrix_ops(HAM, huge, ("nrd", "ddet"), "k4")
    cli_files.append((SPLIT, split_defect))

    for alg, rows in cli_files:
        path = inp.write_matrix(alg, rows)

        def check_nrd(res, alg=alg, rows=rows):
            code, out = res
            expect(code == 0, f"exit {code}")
            value = Fraction(out.strip())
            expect(value * value == nrd_sq(alg, rows), "CLI nrd^2 != oracle")
            return {"bytes": len(out)}

        ops.append(Op("cli.nrd", describe(alg, rows),
                      lambda tr, path=path: run_cli(["nrd", "--matrix", path]), check_nrd))
    for alg, rows in ((HAM, huge), (HAM, cli_files[0][1])):
        path = inp.write_matrix(alg, rows)

        def check_ddet(res, rows=rows):
            code, out = res
            expect(code == 0, f"exit {code}")
            want = math.sqrt(O.nrd_from_square(nrd_sq(HAM, rows)))
            expect(math.isclose(float(out), want, rel_tol=1e-12), "CLI ddet differs")
            return {"bytes": len(out)}

        def ddet_error(exc):
            if isinstance(exc, OverflowError):
                raise KnownDefect("dieudonne_det overflows past 1e308")
            raise exc

        ops.append(Op("cli.ddet", describe(alg, rows),
                      lambda tr, path=path: run_cli(["ddet", "--matrix", path]),
                      check_ddet, ddet_error))
    rows, lam = inp.planted(HAM, 3)
    path = inp.write_matrix(HAM, rows)
    for x, planted in ((lam, True), (inp.point(), False)):
        def check_eig(res, x=x, planted=planted):
            code, out = res
            value = Fraction(out.strip())
            want = oracle_nrd_sq(HAM, shifted(HAM, rows, x))
            expect(value * value == want, "CLI eigcheck value differs from oracle")
            expect(code == (0 if want == 0 else 1), f"exit {code} for nrd {value}")
            expect(not planted or code == 0, "planted eigenvalue rejected")
            return {"bytes": len(out)}

        argv = ["eigcheck", "--matrix", path, "--lambda", quat_text(x)]
        ops.append(Op("cli.eigcheck", f"{describe(HAM, rows)}@{x}",
                      lambda tr, argv=argv: run_cli(argv), check_eig))
    return ops


# --- polyring -------------------------------------------------------------------

# Per polynomial: "points" substitutions and two h_inv round trips (one
# through the CLI's hmap text).  With these counts the median op falls
# inside the block of substitutions and the 90th percentile inside the
# block of h_inv calls, not on the edge between two kinds of call.
POLYRING_PLAN = {"per_algebra": 6, "fresh": 4, "points": 3}


def polyring_round(inp: Inputs, traced: bool):
    ops = []
    for alg, max_deg in ((HAM, 4), (NONH, 3)):
        tab = O.table(*alg)
        p_ = params(alg)
        half = max_deg // 2
        for n in range(POLYRING_PLAN["per_algebra"]):
            def size(lo, hi, n=n):
                # the sizes step from lo to hi over the round, the same for every seed
                return lo + (hi - lo) * n // (POLYRING_PLAN["per_algebra"] - 1)

            a_terms = inp.genpoly(half, size(4, 12))
            b_terms = inp.genpoly(max_deg - half, size(4, 12))
            pa, pb = Q.GenPoly(p_, a_terms), Q.GenPoly(p_, b_terms)
            text = f"{alg}:{sorted(a_terms.items())}:{sorted(b_terms.items())}"

            def check_mul(prod, a_terms=a_terms, b_terms=b_terms, tab=tab):
                expect(prod.terms == O.gen_mul(a_terms, b_terms, tab), "GenPoly product differs")
                return {"terms": len(prod.terms)}

            ops.append(Op("genpoly.mul", text, lambda tr, pa=pa, pb=pb: pa * pb, check_mul))

            p_terms = inp.genpoly(max_deg, size(8, 24))
            x = inp.point()
            poly = Q.GenPoly(p_, p_terms)
            ptext = f"{alg}:{sorted(p_terms.items())}"

            def check_conj(got, p_terms=p_terms, x=x, tab=tab, poly=poly):
                expect(got.conj() == poly, "conj is not an involution")
                expect(O.gen_eval(got.terms, x, tab) == O.qconj(O.gen_eval(p_terms, x, tab)),
                       "conj(P)(x) != conj(P(x))")
                return {"terms": len(got.terms)}

            ops.append(Op("genpoly.conj", ptext, lambda tr, poly=poly: poly.conj(), check_conj))

            for y in [x] + [inp.point() for _ in range(POLYRING_PLAN["points"] - 1)]:
                point = lib_quat(alg, y)

                def check_subst(got, p_terms=p_terms, y=y, tab=tab):
                    expect(got.coords == O.gen_eval(p_terms, y, tab), "P(x) differs")
                    return None

                ops.append(Op("genpoly.substitute.small", f"{ptext}@{y}",
                              lambda tr, poly=poly, point=point: poly.substitute(point),
                              check_subst))

            state = {}

            def check_hmap(img, p_terms=p_terms, tab=tab, state=state):
                expect(img.terms == O.h_image(p_terms, tab), "h(P) differs")
                state["img"] = img
                return {"terms": len(img.terms)}

            ops.append(Op("isomorphism.h_map", ptext, lambda tr, poly=poly: Q.h_map(poly),
                          check_hmap))

            def check_hinv(back, poly=poly):
                expect(back == poly, "h_inv(h(P)) != P")
                return {"terms": len(back.terms)}

            ops.append(Op("isomorphism.h_inv.small", ptext,
                          lambda tr, state=state: Q.h_inv(state["img"]), check_hinv))

            fa = inp.freepoly(2, size(3, 10))
            fb = inp.freepoly(2, size(3, 10))
            qa, qb = Q.FreePoly(p_, fa), Q.FreePoly(p_, fb)

            def check_free(prod, fa=fa, fb=fb, tab=tab):
                expect(prod.terms == O.free_mul(fa, fb, tab), "FreePoly product differs")
                return {"terms": len(prod.terms)}

            ops.append(Op("freepoly.mul", f"{alg}:{sorted(fa.items())}:{sorted(fb.items())}",
                          lambda tr, qa=qa, qb=qb: qa * qb, check_free))

            def check_format(out, state=state, p_terms=p_terms):
                expect(O.parse_gen_text(out) == p_terms, "format_poly text differs")
                state["text"] = out
                return {"bytes": len(out)}

            ops.append(Op("parsing.format_poly.small", ptext,
                          lambda tr, poly=poly: Q.format_poly(poly), check_format))

            def check_parse(got, p_terms=p_terms):
                expect(got.terms == p_terms, "parse(format(P)) != P")
                return {"terms": len(got.terms)}

            ops.append(Op("parsing.parse_poly", ptext,
                          lambda tr, state=state, p_=p_: Q.parse_poly(state["text"], p_),
                          check_parse))

            alg_arg = f"--algebra={alg[0]},{alg[1]}"
            cli_poly = _poly_text(inp.genpoly(max_deg, size(4, 12)))
            cli_terms = Q.parse_poly(cli_poly, p_).terms

            cli_state = {}

            def check_cli_hmap(res, cli_terms=cli_terms, tab=tab, cli_state=cli_state, p_=p_):
                code, out = res
                expect(code == 0, f"exit {code}")
                image = O.parse_free_text(out)
                expect(image == O.h_image(cli_terms, tab), "CLI hmap differs")
                cli_state["img"] = Q.FreePoly(p_, image)
                return {"bytes": len(out)}

            argv = ["hmap", alg_arg, "--poly", cli_poly]
            ops.append(Op("cli.hmap", " ".join(argv), lambda tr, argv=argv: run_cli(argv),
                          check_cli_hmap))

            def check_cli_back(back, cli_terms=cli_terms):
                expect(back.terms == cli_terms, "h_inv of the CLI hmap text != P")
                return {"terms": len(back.terms)}

            ops.append(Op("isomorphism.h_inv.small", f"cli:{cli_poly}",
                          lambda tr, cli_state=cli_state: Q.h_inv(cli_state["img"]),
                          check_cli_back))
            y = inp.point()

            def check_cli_eval(res, cli_terms=cli_terms, y=y, tab=tab):
                code, out = res
                expect(code == 0, f"exit {code}")
                expect(O.parse_quat_text(out) == O.gen_eval(cli_terms, y, tab), "CLI eval differs")
                return {"bytes": len(out)}

            argv = ["eval", alg_arg, "--poly", cli_poly, "--at", quat_text(y)]
            ops.append(Op("cli.eval", " ".join(argv), lambda tr, argv=argv: run_cli(argv),
                          check_cli_eval))

    for _ in range(POLYRING_PLAN["fresh"]):
        for use_cli in (False, True):
            alg = inp.fresh_algebra()
            var = inp.rng.randint(1, 4)
            tab = O.table(*alg)
            target = {(0, (var,)): Fraction(1)}

            def check_gen(q, tab=tab, target=target):
                expect(O.h_image(q.terms, tab) == target, "h(q_k) != x_k")
                return {"terms": len(q.terms)}

            if not use_cli:
                p_ = params(alg)
                ops.append(Op("isomorphism.preimage_generator", f"{alg}:{var}",
                              lambda tr, var=var, p_=p_: Q.preimage_generator(var, p_),
                              check_gen))
                continue

            def check_cli_hinv(res, tab=tab, target=target):
                code, out = res
                expect(code == 0, f"exit {code}")
                expect(O.h_image(O.parse_gen_text(out), tab) == target, "CLI hinv: h(q_k) != x_k")
                return {"bytes": len(out)}

            argv = ["hinv", f"--algebra={alg[0]},{alg[1]}", "--var", str(var)]
            ops.append(Op("cli.hinv", " ".join(argv), lambda tr, argv=argv: run_cli(argv),
                          check_cli_hinv))
    return ops


def _poly_text(terms) -> str:
    """A general polynomial written in the CLI grammar, z between letters."""
    names = ("1", "i", "j", "k")
    parts = []
    for word, coeff in sorted(terms.items()):
        factors = [f"({coeff})"]
        for t, b in enumerate(word):
            if t:
                factors.append("z")
            factors.append(names[b])
        parts.append("*".join(factors))
    return " + ".join(parts)


ROUND_BUILDERS = {"charpoly": charpoly_round, "numeric": numeric_round,
                  "polyring": polyring_round}


def build_round(workload, seed, rnd, workdir, traced=False, replica=0):
    inp = Inputs(workload, seed, rnd, workdir, replica)
    return ROUND_BUILDERS[workload](inp, traced)


def input_digest(ops) -> str:
    """sha256 over every op's kind and inputs (file paths excluded)."""
    h = hashlib.sha256()
    for op in ops:
        h.update(f"{op.kind}|{op.inputs}\n".encode())
    return h.hexdigest()
