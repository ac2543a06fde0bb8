"""Command-line entry: ``python -m repro.bench COMMAND [options]``.

One subcommand per study, each accepting only the flags it reads:
``report`` (Tables 1-2 and Figs 4-5 with the paper's numbers inline),
``optimizer`` (plan choices plus the hot-tile-splitting makespan study),
the ``kernels``/``parallel``/``cache``/``columnar``/``chaos`` wall-clock
and byte-identity studies, ``profile`` (one query as an Impala-style
profile tree, optionally with a Chrome trace, event log and profile
JSON), ``monitor`` (replay an event log) and ``regress`` (gate fresh runs
against the committed ``BENCH_*.json``).

The seven studies share :func:`run_study` and ``--json``/``--out``.  Bad
values, flags a subcommand does not read and a bare
``python -m repro.bench`` are usage errors (exit 2).
"""

import argparse
import functools
import json
import sys

from repro.bench import (
    cache_study, chaos, columnar_study, kernels, optimizer_study, parallel, report,
)
from repro.bench.harness import (
    Study, positive_float, positive_int, stamp_bench_doc, write_bench_doc,
)
from repro.bench.regress import run_regress
from repro.bench.report import DEFAULT_SCALE, WORKLOAD_ORDER
from repro.bench.runner import run_engine
from repro.obs import spans_to_chrome_trace, tracing, write_chrome_trace
from repro.runtime.config import RuntimeConfig

ENGINES = ("spatialspark", "isp-mc", "isp-standalone")
STUDIES = (report.STUDY, optimizer_study.STUDY, kernels.STUDY, parallel.STUDY,
           cache_study.STUDY, columnar_study.STUDY, chaos.STUDY)


def run_study(study: Study, args: argparse.Namespace) -> int:
    """Run, stamp, print, write ``--out`` and gate one study."""
    doc = stamp_bench_doc(study.run(args))
    if args.json:
        write_bench_doc(doc, sys.stdout)
    else:
        print(study.render(doc))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            write_bench_doc(doc, handle)
        print(f"wrote {study.name} document to {args.out}", file=sys.stderr)
    failures = [f"identity check {check} failed" for check, ok in study.identity(doc) if not ok]
    failures += study.gates(args, doc)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def _executors(text: str) -> int | None:
    if text == "serial":
        return None
    try:
        return positive_int(text)
    except argparse.ArgumentTypeError:
        raise argparse.ArgumentTypeError(
            f"expected 'serial' or an integer >= 1, got {text!r}"
        ) from None


def _profile_run(args: argparse.Namespace) -> int:
    with tracing() as tracer:
        result = run_engine(
            args.workload,
            args.engine,
            args.nodes,
            scale=args.scale,
            profile=True,
            runtime=RuntimeConfig(executors=args.executors, events_out=args.events_out),
        )
    profile = result.profile
    if args.json:
        print(json.dumps(profile.to_json(), indent=1))
    else:
        print(profile.render())
        print(
            f"\nrows={result.result_rows}  "
            f"simulated={result.simulated_seconds:.3f}s"
        )
    if args.profile_out:
        with open(args.profile_out, "w", encoding="utf-8") as handle:
            json.dump(profile.to_dict(), handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote profile JSON to {args.profile_out}", file=sys.stderr)
    if args.events_out:
        print(f"wrote event log to {args.events_out}", file=sys.stderr)
    if args.trace_out:
        write_chrome_trace(
            args.trace_out,
            profile.to_chrome_trace(),
            spans_to_chrome_trace(tracer.roots),
        )
        print(f"wrote Chrome trace to {args.trace_out}", file=sys.stderr)
    return 0


def _monitor_run(args: argparse.Namespace) -> int:
    from repro.errors import ReproError
    from repro.obs.events import read_events
    from repro.obs.monitor import monitor_report

    try:
        events = read_events(args.events)
    except (OSError, ReproError) as error:
        print(f"cannot replay {args.events}: {error}", file=sys.stderr)
        return 1
    print(monitor_report(events, k=args.straggler_k))
    return 0


def _add_profile(commands) -> None:
    parser = commands.add_parser("profile", help="one workload on one engine as a profile tree")
    parser.add_argument("--scale", type=positive_float, default=DEFAULT_SCALE,
                        help=f"dataset scale factor (default {DEFAULT_SCALE})")
    parser.add_argument("--workload", choices=WORKLOAD_ORDER, default="taxi-nycb",
                        help="workload (default taxi-nycb)")
    parser.add_argument("--engine", choices=ENGINES, default="spatialspark",
                        help="engine (default spatialspark)")
    parser.add_argument("--nodes", type=positive_int, default=1, help="cluster size (default 1)")
    parser.add_argument("--executors", type=_executors,
                        help="executor pool size: 'serial' (default) or an integer >= 1")
    parser.add_argument("--json", action="store_true", help="print the profile as JSON")
    parser.add_argument("--trace-out", metavar="PATH",
                        help="also write a Chrome trace_event JSON file to PATH "
                        "(open it at chrome://tracing or https://ui.perfetto.dev)")
    parser.add_argument("--events-out", metavar="PATH",
                        help="write the structured JSONL event log to PATH (replay it "
                        "with 'python -m repro.bench monitor PATH')")
    parser.add_argument("--profile-out", metavar="PATH",
                        help="also write the profile tree as JSON to PATH "
                        "(QueryProfile.to_dict form)")
    parser.set_defaults(handler=_profile_run)


def _add_monitor(commands) -> None:
    parser = commands.add_parser("monitor", help="replay an events.jsonl log as timelines")
    parser.add_argument("events", metavar="events.jsonl", help="the event log to replay")
    parser.add_argument("--straggler-k", type=positive_float, metavar="K", default=2.0,
                        help="flag tasks slower than K x their stage median as stragglers "
                        "(default 2.0)")
    parser.set_defaults(handler=_monitor_run)


def _add_regress(commands) -> None:
    parser = commands.add_parser(
        "regress", help="gate fresh runs against the committed BENCH_*.json baselines"
    )
    parser.add_argument("--quick", action="store_true",
                        help="skip the slower fresh benchmark runs and check the committed "
                        "artifacts' internal invariants instead (the CI configuration)")
    parser.add_argument("--baseline-dir", metavar="DIR", default=".",
                        help="directory holding the committed BENCH_*.json baselines "
                        "(default: current directory)")
    parser.add_argument("--explain-out", metavar="PATH",
                        help="write the hotspot EXPLAIN ANALYZE report produced by the live "
                        "invariant check as JSON to PATH")
    parser.add_argument("--out", metavar="PATH",
                        help="also write the regression table as JSON to PATH")
    parser.set_defaults(
        handler=lambda args: run_regress(args.baseline_dir, args.quick, args.explain_out, args.out)
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Reproduce the paper's tables and figures, run one of "
        "the wall-clock and equivalence studies, profile a single "
        "spatial-join query, or gate the committed baselines.",
    )
    commands = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--json", action="store_true",
                        help="print the document as JSON instead of text")
    shared.add_argument("--out", metavar="PATH",
                        help="also write the same stamped JSON document to PATH")
    for study in STUDIES:
        sub = commands.add_parser(
            study.name, parents=[shared], help=study.help, description=study.help
        )
        study.arguments(sub)
        sub.set_defaults(handler=functools.partial(run_study, study))
    _add_profile(commands)
    _add_monitor(commands)
    _add_regress(commands)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Parse ``argv`` and run one subcommand; returns the exit code."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as stop:  # usage errors exit 2, --help exits 0
        return stop.code
    return args.handler(args)


if __name__ == "__main__":
    raise SystemExit(main())
