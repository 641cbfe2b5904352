"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload charpoly --seed 1 --seconds 15 --trace 0

Run it from the repository root; it imports quatalg from ``src/``.  With
``--trace 0`` it runs whole rounds of the workload until the timed
operations add up to ``--seconds`` and prints the end-to-end metrics.
With ``--trace 1`` it runs one traced round of every workload and prints
the per-layer metrics; the spans go to ``.bench-out/`` once at the end.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

SETUP_SAMPLES = 7  # this process plus six fresh ones
# Stop starting rounds once this much wall time has passed, so a much
# slower program still ends well within three minutes.
WALL_LIMIT_S = 120.0


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("charpoly", "numeric", "polyring"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up once, print the set-up time and exit")
    return parser.parse_args(argv)


def _import_package():
    import quatalg

    src = (ROOT / "src").resolve()
    if src not in Path(quatalg.__file__).resolve().parents:
        sys.exit(f"quatalg was imported from {quatalg.__file__}, not from {src}")


def _setup(workload, seed, workdir):
    """Import, build round 0 (inputs and matrix files) and warm up.

    Returns the round and the set-up time since start-up, scaled to the
    nominal host speed by reference slices taken right after it.
    """
    _import_package()
    from bench import speed, workloads

    ops = workloads.build_round(workload, seed, 0, workdir)
    workloads.warm_up(workload)
    raw_s = time.perf_counter() - _T0
    return ops, raw_s / speed.factor()


def _setup_elsewhere(workload, seed):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def _untraced(args, workdir, pending, setup_s):
    from bench import harness, workloads
    from bench.metrics import end_to_end

    samples = [setup_s]
    samples += [_setup_elsewhere(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]

    tally = harness.Tally()
    tracer = harness.NullTracer()
    rounds = 0
    while True:
        # nothing else may hold a round: its results would stay alive into
        # the next one and the peak RSS would grow with the number of rounds
        harness.execute(pending.pop(), tracer, tally)
        rounds += 1
        # scaled time, so the number of rounds does not follow the host's speed
        if (sum(tally.scaled_latencies()) >= args.seconds
                or time.perf_counter() - _T0 > WALL_LIMIT_S):
            break
        pending.append(workloads.build_round(args.workload, args.seed, rounds, workdir))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    extra = {"rounds": rounds, "unscaled_ops_per_s": tally.attempted / tally.timed_s,
             "slice_ms_median": 1000 * statistics.median(tally.slices)}
    return tally, end_to_end(tally, samples, rss_mb), extra


def _traced(args, workdir):
    from bench import harness, workloads
    from bench.metrics import per_layer, memory_pass, quat_mul_rate

    # both sides are scaled to the nominal host speed, so a drift in the
    # machine's speed over the run cancels out of the overhead ratio
    baseline = harness.Tally()
    ops = workloads.build_round(args.workload, args.seed, 0, workdir, replica=1)
    harness.execute(ops, harness.NullTracer(), baseline)
    tracer = harness.Tracer()
    tally = harness.Tally()
    batch_of = {}
    with workloads.cli_spans(tracer):
        for name in workloads.WORKLOADS:
            first = len(tally.latencies)
            ops = workloads.build_round(name, args.seed, 0, workdir, traced=True)
            harness.execute(ops, tracer, tally)
            batch_of[name] = slice(first, len(tally.latencies))
    del ops
    overhead = (sum(tally.scaled_latencies()[batch_of[args.workload]])
                / sum(baseline.scaled_latencies()))
    tally.problems += baseline.problems
    peaks = memory_pass(args.seed, workdir)
    rate = quat_mul_rate(args.seed, tally)
    metrics = per_layer(tracer.spans, peaks, rate, overhead)

    out_dir = ROOT / ".bench-out"
    out_dir.mkdir(exist_ok=True)
    trace_path = out_dir / f"trace-{args.workload}-{args.seed}.json"
    trace_path.write_text(json.dumps({
        "columns": ["name", "start", "end", "parent", "op", "terms", "bytes", "failed"],
        "spans": [sp.as_row() for sp in tracer.spans],
    }))
    return tally, metrics, {"spans": len(tracer.spans), "trace_file": str(trace_path)}


def _exit_on_sigterm(signum, frame):
    sys.exit(128 + signum)  # unwinds, so the work directory is removed


def main(argv=None):
    args = _parse_args(argv)
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    with tempfile.TemporaryDirectory(prefix=".bench-work-", dir=ROOT) as tmp:
        workdir = Path(tmp)
        first, setup_s = _setup(args.workload, args.seed, workdir)
        pending = [first]
        del first
        if args.setup_only:
            print(setup_s)
            return 0
        if args.trace:
            pending.clear()
            tally, metrics, extra = _traced(args, workdir)
        else:
            tally, metrics, extra = _untraced(args, workdir, pending, setup_s)
    for line in tally.problems:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "ops": tally.attempted,
                      "known_defects": tally.known, **extra}), file=sys.stderr)
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
