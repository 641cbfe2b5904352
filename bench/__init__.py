"""The quatalg benchmark: seeded workloads, exact checks and traced layers.

Run one workload with ``python3 bench/run.py --workload charpoly --seed 1
--seconds 15 --trace 0`` from the repository root; the last line of
standard output is one JSON object with the metrics.
"""
