"""The ``optimizer`` study and its skewed workload."""

from __future__ import annotations

import json

import pytest

from repro.bench.__main__ import build_parser, main
from repro.bench.optimizer_study import (
    SKEW_WORKLOAD,
    STUDY_WORKLOADS,
    optimizer_study,
    render_optimizer_study,
)
from repro.data.catalog import load_dataset


@pytest.fixture(scope="module")
def study() -> dict:
    return optimizer_study(scale=0.02, nodes=2)


class TestHotspotDataset:
    def test_registered_and_extremely_clustered(self):
        ds = load_dataset("hotspot", 0.02)
        assert ds.records
        # The defining property: over half the points inside the tightest
        # tenth of the extent (three spots in the lower-left quadrant).
        hot = sum(
            1
            for _, p in ds.records
            if p.x < ds.extent.width / 2 and p.y < ds.extent.height / 2
        )
        assert hot / len(ds.records) > 0.8


class TestOptimizerStudy:
    def test_covers_every_study_workload(self, study):
        assert [p["workload"] for p in study["plans"]] == list(STUDY_WORKLOADS)
        for plan in study["plans"]:
            assert plan["method"] in plan["est_seconds"]
            assert plan["est_seconds"][plan["method"]] == min(
                plan["est_seconds"].values()
            )

    def test_skew_section_shows_makespan_win(self, study):
        skew = study["skew"]
        assert skew["workload"] == SKEW_WORKLOAD
        assert skew["split_tiles_added"] > 0
        assert (
            skew["makespan_after"]["static_chunked"]
            < skew["makespan_before"]["static_chunked"]
        )
        assert skew["speedup"]["static_chunked"] > 1.0

    def test_json_safe(self, study):
        assert json.loads(json.dumps(study)) == study

    def test_render_mentions_winner_and_speedup(self, study):
        text = render_optimizer_study(study)
        assert "PLAN CHOICE" in text
        assert "Skew-aware splitting" in text
        assert "speedup" in text


class TestCli:
    def test_parser_accepts_optimizer(self):
        args = build_parser().parse_args(["optimizer", "--scale", "0.02"])
        assert args.scale == 0.02 and args.nodes == 1

    def test_optimizer_json_and_out_match(self, tmp_path, capsys):
        path = tmp_path / "optimizer.json"
        assert main(["optimizer", "--scale", "0.02", "--nodes", "2",
                     "--json", "--out", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert {"plans", "skew"} <= set(out)
        # stdout and --out carry the same stamped document
        assert out["generated_by"].startswith("repro.bench/")
        assert json.loads(path.read_text()) == out
