"""End-to-end spatial-join benchmark with per-layer tracing.

Run one workload from the repository root::

    python3 perfbench/run.py --workload core-auto-within --seed 1 --seconds 12 --trace 0

``WORKLOADS.md`` in this directory describes the workloads, the layers
each one loads and the metric each layer is predicted to move.
"""
