"""Self-tests of the benchmark: determinism, declared metrics, the oracle.

The numeric and polyring rounds run in full here; the charpoly round is
only built, because one round of it takes about fifteen seconds.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from bench import harness, metrics, oracle, speed, workloads

ROOT = Path(__file__).resolve().parent.parent


def _round(workload, seed, tmp_path):
    return workloads.build_round(workload, seed, 0, tmp_path)


def _counts(workload, seed, tmp_path):
    ops = _round(workload, seed, tmp_path)
    tally = harness.Tally()
    harness.execute(ops, harness.NullTracer(), tally)
    return workloads.input_digest(ops), tally


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_fixes_the_inputs(workload, tmp_path):
    first = workloads.input_digest(_round(workload, 7, tmp_path))
    again = workloads.input_digest(_round(workload, 7, tmp_path))
    other = workloads.input_digest(_round(workload, 8, tmp_path))
    assert first == again
    assert first != other


@pytest.mark.parametrize("workload", ("numeric", "polyring"))
def test_seed_fixes_the_counts(workload, tmp_path):
    workloads.warm_up(workload)
    digest1, t1 = _counts(workload, 3, tmp_path)
    digest2, t2 = _counts(workload, 3, tmp_path)
    assert digest1 == digest2
    assert t1.problems == [] and t2.problems == []
    for field in ("attempted", "failed", "known", "terms", "nbytes"):
        assert getattr(t1, field) == getattr(t2, field), field
    assert t1.attempted >= 100
    assert len(t1.slices) == t1.attempted + 1


def test_known_defects_are_counted(tmp_path):
    _, tally = _counts("numeric", 5, tmp_path)
    # split mat_inv, dieudonne_det overflow through the API and the CLI
    assert tally.known >= 3
    assert tally.failed == tally.known
    assert tally.problems == []


def test_benchmark_json_declares_the_reported_metrics():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]]
    assert declared == metrics.END_TO_END
    declared = [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]]
    assert declared == metrics.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


def test_oracle_table_follows_the_relations():
    a, b = Fraction(-2), Fraction(-3)
    tab = oracle.table(a, b)
    i, j, k = (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)
    assert oracle.qmul(i, i, tab) == (a, 0, 0, 0)
    assert oracle.qmul(j, j, tab) == (b, 0, 0, 0)
    assert oracle.qmul(i, j, tab) == k
    assert oracle.qmul(j, i, tab) == (0, 0, 0, -1)
    assert oracle.qmul(k, k, tab) == (-a * b, 0, 0, 0)


def test_oracle_reduced_norm_of_the_split_example():
    one = Fraction(1)
    rows = [[(one, one, 0, 0), (one, -one, 0, 0)], [(one, -one, 0, 0), (one, one, 0, 0)]]
    rows = [[tuple(Fraction(c) for c in q) for q in row] for row in rows]
    assert oracle.left_mult_det(rows, one, one) == 256  # nrd = -16
    assert oracle.nrd_from_square(Fraction(256)) == 16


def test_span_self_time_subtracts_children():
    spans = []
    for name, start, end, parent in (("a", 0.0, 1.0, -1), ("b", 0.1, 0.4, 0), ("c", 0.5, 0.7, 0)):
        sp = harness.Span(name, parent, 0)
        sp.start, sp.end = start, end
        spans.append(sp)
    stats = harness.layer_stats(spans)
    assert stats["a"]["self_s"] == pytest.approx(0.5)
    assert stats["b"]["self_s"] == pytest.approx(0.3)


def test_scaling_divides_by_the_slowness_around_each_operation():
    nominal = speed.NOMINAL_SLICE_S
    latencies = [0.010, 0.020, 0.030]
    assert speed.scaled(latencies, [2 * nominal] * 4) == pytest.approx([0.005, 0.010, 0.015])
    # one slow slice among the neighbours does not move an operation
    slices = [nominal] * 10
    slices[5] = 50 * nominal
    assert speed.scaled([0.001] * 9, slices) == pytest.approx([0.001] * 9)
    with pytest.raises(ValueError):
        speed.scaled(latencies, [nominal] * 3)
