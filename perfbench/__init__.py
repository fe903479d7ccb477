"""Benchmark for the normeuclid package: cold-process workloads, reference
checks and per-layer spans, all driven from outside the package.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>``; see ``perfbench/README.md`` for the design.
"""
