"""Tests for schedule serialization and the command-line interface."""

import json
import os

import pytest

from repro.cli import main
from repro.errors import ScheduleFormatError, ScheduleStaleError
from repro.fusion import dp_group
from repro.fusion.serialize import (
    grouping_from_dict,
    grouping_to_dict,
    load_grouping,
    pipeline_digest,
    save_grouping,
)
from repro.model import XEON_HASWELL

from conftest import build_blur


class TestSerialize:
    def test_round_trip(self, blur_pipeline, tmp_path):
        g = dp_group(blur_pipeline, XEON_HASWELL)
        path = str(tmp_path / "sched.json")
        save_grouping(g, path)
        loaded = load_grouping(blur_pipeline, path)
        assert loaded.group_names() == g.group_names()
        assert loaded.tile_sizes == g.tile_sizes
        assert loaded.cost == pytest.approx(g.cost)
        assert loaded.stats.strategy == "dp"

    def test_dict_is_json_serializable(self, blur_pipeline):
        g = dp_group(blur_pipeline, XEON_HASWELL)
        json.dumps(grouping_to_dict(g))

    def test_wrong_pipeline_rejected(self, blur_pipeline, updown_pipeline):
        g = dp_group(blur_pipeline, XEON_HASWELL)
        data = grouping_to_dict(g)
        with pytest.raises(ValueError):
            grouping_from_dict(updown_pipeline, data)

    def test_wrong_stage_count_rejected(self, blur_pipeline):
        g = dp_group(blur_pipeline, XEON_HASWELL)
        data = grouping_to_dict(g)
        data["num_stages"] = 99
        with pytest.raises(ValueError):
            grouping_from_dict(blur_pipeline, data)

    def test_unknown_format_rejected(self, blur_pipeline):
        g = dp_group(blur_pipeline, XEON_HASWELL)
        data = grouping_to_dict(g)
        data["format"] = 42
        with pytest.raises(ValueError):
            grouping_from_dict(blur_pipeline, data)

    def test_stats_survive(self, blur_pipeline, tmp_path):
        g = dp_group(blur_pipeline, XEON_HASWELL)
        path = str(tmp_path / "s.json")
        save_grouping(g, path)
        loaded = load_grouping(blur_pipeline, path)
        assert loaded.stats.enumerated == g.stats.enumerated


class TestDigest:
    """Satellite: the format-v2 pipeline structure digest."""

    def test_v2_files_carry_a_digest(self, blur_pipeline):
        g = dp_group(blur_pipeline, XEON_HASWELL)
        data = grouping_to_dict(g)
        assert data["format"] == 2
        assert data["digest"] == pipeline_digest(blur_pipeline, g.num_groups)

    def test_digest_round_trip(self, blur_pipeline, tmp_path):
        g = dp_group(blur_pipeline, XEON_HASWELL)
        path = str(tmp_path / "v2.json")
        save_grouping(g, path)
        loaded = load_grouping(blur_pipeline, path)
        assert loaded.group_names() == g.group_names()

    def test_digest_mismatch_is_stale(self, blur_pipeline):
        g = dp_group(blur_pipeline, XEON_HASWELL)
        data = grouping_to_dict(g)
        data["digest"] = "0" * 16
        with pytest.raises(ScheduleStaleError) as exc_info:
            grouping_from_dict(blur_pipeline, data)
        assert exc_info.value.code == "SCHEDULE_STALE"
        assert exc_info.value.context["schedule_digest"] == "0" * 16

    def test_renamed_stage_changes_digest(self, blur_pipeline):
        # A different pipeline build (same name, same stage count, renamed
        # stages) would previously load silently; the digest catches it.
        other = build_blur(rows=94, cols=130)
        for stage in other.stages:
            stage.name = stage.name + "_v2"
        assert pipeline_digest(blur_pipeline, 2) != pipeline_digest(other, 2)

    def test_v1_file_still_loads(self, blur_pipeline):
        g = dp_group(blur_pipeline, XEON_HASWELL)
        data = grouping_to_dict(g)
        data["format"] = 1
        del data["digest"]
        loaded = grouping_from_dict(blur_pipeline, data)
        assert loaded.group_names() == g.group_names()

    def test_stale_errors_are_valueerrors(self, blur_pipeline):
        # Pre-taxonomy callers caught ValueError; both new codes keep that.
        assert issubclass(ScheduleStaleError, ValueError)
        assert issubclass(ScheduleFormatError, ValueError)


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "Unsharp Mask" in out and "Pyramid Blend" in out

    def test_schedule_small(self, capsys, tmp_path):
        path = str(tmp_path / "um.json")
        rc = main(["schedule", "UM", "--scale", "0.05", "-o", path])
        assert rc == 0
        assert os.path.exists(path)
        out = capsys.readouterr().out
        assert "blurx" in out and "estimated run time" in out

    def test_run_with_verification(self, capsys):
        rc = main(["run", "UM", "--scale", "0.05", "--threads", "2",
                   "--verify"])
        assert rc == 0
        assert "verification against reference: OK" in capsys.readouterr().out

    def test_run_from_saved_schedule(self, capsys, tmp_path):
        path = str(tmp_path / "um.json")
        main(["schedule", "UM", "--scale", "0.05", "-o", path])
        rc = main(["run", "UM", "--scale", "0.05", "--schedule", path,
                   "--verify"])
        assert rc == 0

    def test_codegen_to_file(self, capsys, tmp_path):
        path = str(tmp_path / "um.c")
        rc = main(["codegen", "UM", "--scale", "0.05", "-o", path,
                   "--with-main"])
        assert rc == 0
        text = open(path).read()
        assert "\nvoid pipeline_run(" in text
        assert "int main" in text

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            main(["schedule", "XX"])

    def test_h_manual_strategy(self, capsys):
        rc = main(["schedule", "BG", "--scale", "0.1",
                   "--strategy", "h-manual"])
        assert rc == 0
        assert "h-manual" in capsys.readouterr().out

    def test_degrade_prints_schedule_report(self, capsys):
        # A tiny state budget forces the dp tier down the chain; the
        # printed ScheduleReport names the tier that actually ran.
        rc = main(["schedule", "UM", "--scale", "0.05", "--max-states", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Resilient schedule" in out and "tier=" in out
        assert "SCHED_BUDGET" in out

    def test_strict_small_budget_fails_hard(self):
        from repro.errors import GroupingBudgetExceeded

        with pytest.raises(GroupingBudgetExceeded):
            main(["schedule", "UM", "--scale", "0.05", "--strict",
                  "--max-states", "2"])

    def test_no_fusion_strategy_runs_and_verifies(self, capsys):
        rc = main(["run", "UM", "--scale", "0.05",
                   "--strategy", "no-fusion", "--verify"])
        assert rc == 0
        assert "verification against reference: OK" in capsys.readouterr().out
