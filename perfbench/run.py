"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload's closed loop for about ``S`` seconds of query time,
checks every answer, writes the run's result file (and, traced, its
spans) under ``perfbench/out/`` and prints each metric as
``name value unit``.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics untraced, the per-layer metrics traced.  End-to-end times are
rescaled to a reference machine speed by ``perfbench/probe.py``; the raw
wall times are in the result file.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.harness import environment, result_line, run_workload, write_outputs
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    outcome, recorder = run_workload(workload, args.seed, args.seconds, bool(args.trace))
    env = environment(ROOT)
    path = write_outputs(ROOT / "perfbench" / "out", outcome, recorder, env)
    line = result_line(outcome)
    print(f"# {workload.name} seed={args.seed} trace={args.trace} "
          f"queries={len(outcome.queries)} nproc={env['nproc']} result={path}")
    if not args.trace:
        print(f"error_rate {outcome.error_rate:.6g} ratio")
    for name, metric in line["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
