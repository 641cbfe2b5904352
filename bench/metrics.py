"""The metric definitions and their reductions from tallies and spans.

``END_TO_END`` and ``PER_LAYER`` are the lists BENCHMARK.json declares;
a test keeps the two in step.
"""

from __future__ import annotations

import random
import statistics
import time
import tracemalloc
from fractions import Fraction

from . import oracle as O
from .harness import layer_stats, quantile

# name, unit, better
END_TO_END = [
    ("ops_per_s", "ops/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_p90_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
    ("pass_ratio", "ratio", "higher"),
]

_STAT_UNITS = {"p50_ms": "ms", "self_s": "s", "terms_out": "count", "bytes_out": "bytes",
               "failed": "count"}


def _span_metrics():
    """(metric name, span name, stat) for every span-derived metric."""
    rows = []

    def add(span, *stats):
        rows.extend((f"{span}.{st}", span, st) for st in stats)

    for alg, k in (("H", 2), ("H", 3), ("H", 4), ("nonH", 2), ("nonH", 3)):
        add(f"eigen.char_poly.{alg}.k{k}", "p50_ms")
    add("eigen.build_symbolic", "self_s")
    add("eigen.schur_sextic", "p50_ms", "terms_out")
    add("eigen.sextic_eigen_test", "p50_ms")
    add("eigen.quadratic_2x2", "p50_ms")
    add("eigen.is_left_eigenvalue", "p50_ms")
    add("freepoly.comm_det", "self_s", "terms_out")
    add("freepoly.comm_to_free_lift", "self_s", "terms_out")
    add("freepoly.mul", "p50_ms", "terms_out")
    add("isomorphism.h_inv", "self_s", "terms_out")
    add("isomorphism.h_inv.small", "p50_ms")
    add("isomorphism.h_map", "p50_ms", "terms_out")
    rows.append(("isomorphism.preimage_generator.first_call_ms",
                 "isomorphism.preimage_generator", "p50_ms"))
    add("genpoly.substitute.charpoly", "p50_ms")
    add("genpoly.substitute.large_point", "p50_ms")
    add("genpoly.substitute.small", "p50_ms")
    add("genpoly.mul", "p50_ms", "terms_out")
    add("genpoly.conj", "p50_ms")
    for k in range(2, 9):
        add(f"matquat.reduced_norm.k{k}", "p50_ms")
    add("matquat.reduced_norm.rational_a", "p50_ms")
    add("matquat.embed_matrix", "self_s")
    add("matquat.mat_inv", "p50_ms", "failed")
    add("matquat.dieudonne_det", "p50_ms", "failed")
    add("parsing.format_poly", "self_s", "bytes_out")
    add("parsing.parse_poly", "p50_ms")
    add("cli.load_matrix", "p50_ms")
    for cmd in ("hinv", "hmap", "eval", "charpoly", "eigcheck", "sextic", "quad2", "nrd", "ddet"):
        add(f"cli.{cmd}", "p50_ms")
    add("cli.charpoly", "bytes_out")
    return rows


SPAN_METRICS = _span_metrics()

# name, unit, better
PER_LAYER = (
    [(name, _STAT_UNITS[stat], "lower") for name, _, stat in SPAN_METRICS]
    + [("freepoly.comm_det.peak_alloc_mb", "MB", "lower"),
       ("isomorphism.h_inv.peak_alloc_mb", "MB", "lower"),
       ("algebra.quat_mul.per_s", "1/s", "higher"),
       ("trace.overhead_ratio", "ratio", "lower")]
)
_UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}


def _metric(name, value):
    return {"value": value, "unit": _UNITS[name]}


def end_to_end(tally, setup_samples, rss_mb):
    """Times are scaled to the nominal host speed (see ``speed``)."""
    lat = tally.scaled_latencies()
    return {
        "ops_per_s": _metric("ops_per_s", tally.attempted / sum(lat)),
        "op_p50_ms": _metric("op_p50_ms", 1000 * statistics.median(lat)),
        "op_p90_ms": _metric("op_p90_ms", 1000 * quantile(lat, 0.9)),
        "peak_rss_mb": _metric("peak_rss_mb", rss_mb),
        "setup_s": _metric("setup_s", statistics.median(setup_samples)),
        "pass_ratio": _metric("pass_ratio", (tally.attempted - tally.failed) / tally.attempted),
    }


def per_layer(spans, peaks, quat_mul_per_s, overhead_ratio):
    stats = layer_stats(spans)
    out = {}
    for name, span, stat in SPAN_METRICS:
        st = stats[span]
        value = 1000 * statistics.median(st["durations"]) if stat == "p50_ms" else st[stat]
        out[name] = _metric(name, value)
    out["freepoly.comm_det.peak_alloc_mb"] = _metric("freepoly.comm_det.peak_alloc_mb",
                                                     peaks["comm_det"])
    out["isomorphism.h_inv.peak_alloc_mb"] = _metric("isomorphism.h_inv.peak_alloc_mb",
                                                     peaks["h_inv"])
    out["algebra.quat_mul.per_s"] = _metric("algebra.quat_mul.per_s", quat_mul_per_s)
    out["trace.overhead_ratio"] = _metric("trace.overhead_ratio", overhead_ratio)
    return out


def memory_pass(seed, workdir):
    """tracemalloc peaks of comm_det and h_inv on a planted Hamilton 4x4."""
    import quatalg as Q

    from .workloads import HAM, Inputs, lib_mat

    rows, _ = Inputs("memory", seed, 0, workdir).planted(HAM, 4)
    mat = lib_mat(HAM, rows)
    sym = Q.build_symbolic(mat)
    peaks = {}
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        det = Q.comm_det(sym)
        peaks["comm_det"] = (tracemalloc.get_traced_memory()[1] - base) / 2**20
        lifted = Q.comm_to_free_lift(det, mat.params)
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        poly = Q.h_inv(lifted)
        peaks["h_inv"] = (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        tracemalloc.stop()
    if poly.degree() != 8:
        raise AssertionError(f"memory pass: char poly degree {poly.degree()} != 8")
    return peaks


QUAT_MUL_BATCH = 4000


def quat_mul_rate(seed, tally):
    """Products per second over a seeded batch at the workloads' coordinate sizes.

    The batch mixes small integers, planted-matrix fractions, |c| ~ 1e3
    and |c| ~ 1e40; each product is checked against the reference table,
    and a mismatch is reported as a problem of the run.
    """
    import quatalg as Q

    rng = random.Random(f"quat_mul:{seed}")
    draws = (
        lambda: Fraction(rng.randint(-3, 3)),
        lambda: Fraction(rng.randint(-200, 200), rng.randint(1, 400)),
        lambda: Fraction(rng.randint(-1500, 1500)),
        lambda: Fraction(rng.randint(-10**41, 10**41)),
    )
    params = Q.HAMILTON
    tab = O.table(params.a, params.b)
    pairs = []
    for n in range(QUAT_MUL_BATCH):
        draw = draws[n % len(draws)]
        pairs.append(tuple(tuple(draw() for _ in range(4)) for _ in range(2)))
    quats = [(Q.Quat(params, *p), Q.Quat(params, *q)) for p, q in pairs]
    rates = []
    for _ in range(3):
        t0 = time.perf_counter()
        products = [p * q for p, q in quats]
        rates.append(len(quats) / (time.perf_counter() - t0))
    for (p, q), got in zip(pairs, products):
        if got.coords != O.qmul(p, q, tab):
            tally.problems.append(f"algebra.quat_mul: {p} * {q} differs from the reference")
            break
    return statistics.median(rates)
