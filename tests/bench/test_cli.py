"""The ``python -m repro.bench`` command line."""

import json

import pytest

from repro.bench.__main__ import build_parser, main
from repro.bench.kernels import run_kernels_benchmark
from repro.bench.parallel import run_parallel_benchmark
from repro.bench.report import DEFAULT_SCALE, experiments_json
from repro.errors import BenchError

SCALE = "0.02"


SUBCOMMANDS = (
    "report", "optimizer", "profile", "kernels", "parallel", "cache",
    "columnar", "chaos", "monitor", "regress",
)


class TestParser:
    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert all(name in out for name in SUBCOMMANDS)

    def test_defaults(self):
        args = build_parser().parse_args(["report"])
        assert args.scale == DEFAULT_SCALE
        assert not args.json and args.out is None
        args = build_parser().parse_args(["profile"])
        assert args.scale == DEFAULT_SCALE
        assert not args.json and args.executors is None
        assert args.workload == "taxi-nycb"
        assert args.engine == "spatialspark"
        assert args.nodes == 1

    def test_scale_positional(self):
        # The scale is a flag of the subcommands that read it; the old
        # bare scale positional is a usage error.
        assert build_parser().parse_args(["report", "--scale", "0.5"]).scale == 0.5
        assert main(["0.5"]) == 2

    def test_bad_engine_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["profile", "--engine", "warp"])

    def test_kernels_positional(self):
        args = build_parser().parse_args(["kernels"])
        assert args.points == 100_000
        assert args.out is None and not args.assert_not_slower

    def test_kernels_options(self):
        args = build_parser().parse_args(
            ["kernels", "--points", "5000", "--out", "k.json",
             "--assert-not-slower"]
        )
        assert args.points == 5000
        assert args.out == "k.json"
        assert args.assert_not_slower

    def test_bad_positional_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["warp-speed"])

    def test_bare_invocation_is_usage_error(self, capsys):
        assert main([]) == 2
        assert "usage:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["kernels", "--assert-speedup", "5"],
            ["optimizer", "--trace-out", "t.json"],
            ["regress", "--json"],
            ["monitor", "x.jsonl", "--points", "7"],
        ],
    )
    def test_misplaced_flags_rejected(self, argv, capsys):
        assert main(argv) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["profile", "--executors", "foo"],
            ["parallel", "--executors", "0"],
            ["chaos", "--fault-rate", "1.5"],
            # An empty rate list would run only the fault-free baselines
            # and pass --assert-identical with nothing tested.
            ["chaos", "--fault-rate", ",", "--assert-identical"],
            ["kernels", "--points", "0"],
            ["monitor", "x.jsonl", "--straggler-k", "-1"],
        ],
    )
    def test_bad_values_rejected(self, argv, capsys):
        assert main(argv) == 2
        assert "error: argument" in capsys.readouterr().err


class TestRepeat:
    def test_kernels_repeat_zero_raises(self):
        with pytest.raises(BenchError, match="repeat"):
            run_kernels_benchmark(points=50, repeat=0)

    def test_parallel_repeat_zero_raises(self):
        with pytest.raises(BenchError, match="repeat"):
            run_parallel_benchmark(points=50, repeat=0)


class TestKernelsMode:
    def test_kernels_runs_and_writes(self, tmp_path, capsys):
        path = tmp_path / "kernels.json"
        assert main(["kernels", "--points", "500", "--out", str(path)]) == 0
        out = capsys.readouterr().out
        assert "Columnar kernels microbenchmark" in out
        doc = json.loads(path.read_text())
        assert set(doc["kernels"]) == {"within", "nearestd"}
        assert all(k["identical"] for k in doc["kernels"].values())
        assert doc["equivalence"]["all_identical"]


class TestProfileMode:
    def test_profile_prints_tree(self, capsys):
        assert main(["profile", "--scale", SCALE]) == 0
        out = capsys.readouterr().out
        assert "Query Profile: SpatialSpark:taxi-nycb" in out
        assert "simulated total" in out

    def test_profile_json(self, capsys):
        assert main(["profile", "--scale", SCALE, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["total_simulated_seconds"] > 0
        assert sum(doc["phases"].values()) == pytest.approx(
            doc["total_simulated_seconds"], rel=1e-9
        )

    def test_trace_out_writes_merged_trace(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        assert main(["profile", "--scale", SCALE, "--engine", "isp-mc",
                     "--trace-out", str(path)]) == 0
        trace = json.loads(path.read_text())
        events = trace["traceEvents"]
        assert events
        # Both clocks present: the simulated profile track and the
        # wall-clock span track ride on distinct pids.
        assert len({e["pid"] for e in events}) == 2


class TestJsonReport:
    @pytest.mark.slow
    def test_experiments_json_is_dumpable_and_complete(self):
        doc = experiments_json(scale=float(SCALE))
        json.dumps(doc)
        assert set(doc) >= {"scale", "table1", "table2", "fig4", "fig5", "paper"}
        assert len(doc["table1"]) == 4
        assert all(len(series) == 4 for series in doc["fig4"].values())


class TestEventsAndMonitorMode:
    def test_profile_writes_events_and_profile_json(self, tmp_path, capsys):
        events_path = tmp_path / "events.jsonl"
        profile_path = tmp_path / "profile.json"
        assert main(["profile", "--scale", SCALE, "--nodes", "2",
                     "--events-out", str(events_path),
                     "--profile-out", str(profile_path)]) == 0
        from repro.obs.events import read_events
        from repro.obs.profile import QueryProfile

        events = read_events(str(events_path))
        assert any(e["event"] == "QueryEnd" for e in events)
        doc = json.loads(profile_path.read_text())
        rebuilt = QueryProfile.from_dict(doc)
        assert rebuilt.to_dict() == doc

    def test_monitor_replays_written_log(self, tmp_path, capsys):
        events_path = tmp_path / "events.jsonl"
        assert main(["profile", "--scale", SCALE, "--nodes", "2",
                     "--events-out", str(events_path)]) == 0
        capsys.readouterr()
        assert main(["monitor", str(events_path)]) == 0
        out = capsys.readouterr().out
        assert "stage summary (simulated seconds)" in out
        assert "wall-clock timeline" in out
        assert "stragglers (>" in out

    def test_monitor_straggler_k_knob(self, tmp_path, capsys):
        events_path = tmp_path / "events.jsonl"
        assert main(["profile", "--scale", SCALE, "--nodes", "2",
                     "--events-out", str(events_path)]) == 0
        capsys.readouterr()
        assert main(["monitor", str(events_path),
                     "--straggler-k", "50"]) == 0
        assert "stragglers (> 50x stage median)" in capsys.readouterr().out

    def test_monitor_without_target_errors(self, capsys):
        assert main(["monitor"]) == 2
        assert "events.jsonl" in capsys.readouterr().err

    def test_monitor_missing_file_errors(self, tmp_path, capsys):
        assert main(["monitor", str(tmp_path / "nope.jsonl")]) == 1
        assert "cannot replay" in capsys.readouterr().err
