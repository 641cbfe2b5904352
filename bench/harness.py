"""Closed-loop runner, spans and metric reductions.

One caller issues each operation only after the previous one returned;
there are no threads.  Each operation is timed on its own and its result
is checked exactly afterwards, outside the timed interval.  The timed
phase is the sum of those intervals, so checks and the building of the
next round's inputs never count as work.  A reference slice
(``speed.slice_s``) runs after every operation, also outside the timed
intervals, so each interval can be scaled by the host's speed at its time.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from . import speed


class KnownDefect(Exception):
    """A failure of an input class the benchmark keeps on purpose.

    It counts in ``failed``; it does not make the run incorrect.
    """


def _reraise(exc: BaseException):
    raise exc


@dataclass
class Op:
    """One timed call.  ``kind`` names its span and its per-layer metrics.

    ``check`` receives the result and returns the output sizes
    (``terms``, ``bytes``) or raises.  ``on_error`` receives an exception
    the call raised: it returns sizes when raising was the right answer,
    raises KnownDefect for a known defect, and re-raises otherwise.
    """

    kind: str
    inputs: str
    run: Callable[["Tracer"], Any]
    check: Callable[[Any], dict | None]
    on_error: Callable[[BaseException], dict | None] = _reraise


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "terms", "nbytes", "failed")

    def __init__(self, name, parent, op):
        self.name = name
        self.parent = parent
        self.op = op
        self.terms = 0
        self.nbytes = 0
        self.failed = False
        self.start = self.end = 0.0

    def as_row(self):
        return [self.name, self.start, self.end, self.parent, self.op,
                self.terms, self.nbytes, self.failed]


class Tracer:
    """Keeps spans (name, start, end, parent, op id) in memory."""

    enabled = True

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op = -1

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        sp = Span(name, parent, self.op)
        self._stack.append(len(self.spans))
        self.spans.append(sp)
        sp.start = time.perf_counter()
        try:
            yield sp
        except BaseException:
            sp.failed = True
            raise
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()


class _NullSpan:
    terms = nbytes = 0
    failed = False


class NullTracer:
    """Tracing off: spans cost one context-manager entry and record nothing."""

    enabled = False
    op = -1

    @contextlib.contextmanager
    def span(self, name: str):
        yield _NullSpan()


@dataclass
class Tally:
    latencies: list = field(default_factory=list)
    # slices[j] ran just before operation j, slices[j + 1] just after it
    slices: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    known: int = 0
    terms: int = 0
    nbytes: int = 0
    problems: list = field(default_factory=list)

    @property
    def timed_s(self) -> float:
        return sum(self.latencies)

    def scaled_latencies(self) -> list:
        """Latencies at the nominal host speed (see ``speed``)."""
        return speed.scaled(self.latencies, self.slices)


def execute(ops, tracer, tally: Tally):
    """Run ops in order, adding their intervals, slices and results to tally."""
    if not tally.slices:
        tally.slices.append(speed.slice_s())
    for op in ops:
        tracer.op = tally.attempted
        with tracer.span(op.kind) as top:
            t0 = time.perf_counter()
            try:
                result, error = op.run(tracer), None
            except Exception as exc:  # judged below, outside the timed interval
                result, error = None, exc
            dt = time.perf_counter() - t0
        tally.latencies.append(dt)
        tally.attempted += 1
        _judge(op, result, error, top, tally)
        tally.slices.append(speed.slice_s())


def _judge(op, result, error, top, tally):
    try:
        sizes = op.check(result) if error is None else op.on_error(error)
    except KnownDefect:
        tally.failed += 1
        tally.known += 1
        top.failed = True
        return
    except Exception as exc:
        tally.failed += 1
        top.failed = True
        tally.problems.append(f"{op.kind} [{op.inputs[:120]}]: {type(exc).__name__}: {exc}")
        return
    top.failed = False
    sizes = sizes or {}
    top.terms = sizes.get("terms", 0)
    top.nbytes = sizes.get("bytes", 0)
    tally.terms += top.terms
    tally.nbytes += top.nbytes


def quantile(values, q: float) -> float:
    """Quantile with the inclusive method of the statistics module."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def layer_stats(spans):
    """Per span name: durations, self time, output sizes and failures."""
    child_time = [0.0] * len(spans)
    for sp in spans:
        if sp.parent >= 0:
            child_time[sp.parent] += sp.end - sp.start
    out: dict[str, dict] = {}
    for idx, sp in enumerate(spans):
        st = out.setdefault(sp.name, {"durations": [], "self_s": 0.0, "terms_out": 0,
                                      "bytes_out": 0, "failed": 0})
        dur = sp.end - sp.start
        st["durations"].append(dur)
        st["self_s"] += dur - child_time[idx]
        st["terms_out"] += sp.terms
        st["bytes_out"] += sp.nbytes
        st["failed"] += int(sp.failed)
    return out
