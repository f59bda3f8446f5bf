"""Tests for table rendering, DOT export, and tile sweeps."""

import pytest

from repro.fusion import dp_group, manual_grouping
from repro.model import XEON_HASWELL
from repro.perfmodel import sweep_tiles
from repro.reporting import (
    format_speedup,
    format_table,
    pipeline_to_dot,
    ratio_str,
)

from conftest import build_blur, build_histogram


class TestFormatTable:
    def test_alignment_and_title(self):
        text = format_table("Title", ["a", "bb"], [[1, 2.5], [100, 0.25]])
        lines = text.splitlines()
        assert lines[0] == "Title"
        assert set(lines[1]) == {"="}
        assert "2.50" in text and "0.250" in text

    def test_note_appended(self):
        text = format_table("T", ["x"], [[1]], note="hello")
        assert text.endswith("hello")

    def test_speedup(self):
        assert format_speedup(2.0, 4.0) == "2.00x"
        assert format_speedup(0.0, 4.0) == "n/a"

    def test_ratio(self):
        assert ratio_str(2.0, 4.0) == "0.50"
        assert ratio_str(None, 4.0) == "-"


class TestDot:
    def test_plain_dag(self, blur_pipeline):
        dot = pipeline_to_dot(blur_pipeline)
        assert dot.startswith('digraph "blur"')
        assert '"blurx" -> "blury";' in dot
        assert '"img"' in dot and "style=dashed" in dot

    def test_grouping_clusters(self, blur_pipeline):
        g = manual_grouping(blur_pipeline, [["blurx", "blury"]], [[3, 16, 16]])
        dot = pipeline_to_dot(blur_pipeline, g)
        assert "subgraph cluster_0" in dot
        assert "tiles 3x16x16" in dot

    def test_reduction_double_edged(self, histogram_pipeline):
        dot = pipeline_to_dot(histogram_pipeline)
        assert "peripheries=2" in dot

    def test_output_filled(self, blur_pipeline):
        dot = pipeline_to_dot(blur_pipeline)
        assert "style=filled" in dot

    def test_wrong_grouping_rejected(self, blur_pipeline, histogram_pipeline):
        g = manual_grouping(blur_pipeline, [["blurx", "blury"]], [[3, 8, 8]])
        with pytest.raises(ValueError):
            pipeline_to_dot(histogram_pipeline, g)

    def test_valid_dot_syntax_braces(self, blur_pipeline):
        g = manual_grouping(blur_pipeline, [["blurx"], ["blury"]],
                            [[3, 8, 8], [3, 8, 8]])
        dot = pipeline_to_dot(blur_pipeline, g)
        assert dot.count("{") == dot.count("}")


class TestSweep:
    def test_points_sorted_by_time(self, blur_pipeline):
        points = sweep_tiles(
            blur_pipeline, blur_pipeline.stages, XEON_HASWELL,
            outer_sizes=(4, 16, 64),
        )
        times = [p.estimated_ms for p in points]
        assert times == sorted(times)

    def test_overlap_shrinks_with_tile_size(self, blur_pipeline):
        # blur's overlap is along y (the inner dimension): smaller inner
        # tiles mean proportionally more redundant columns.
        points = {
            p.tile_sizes: p
            for p in sweep_tiles(
                blur_pipeline, blur_pipeline.stages, XEON_HASWELL,
                outer_sizes=(16,), inner_sizes=(16, 128),
            )
        }
        small = points[(3, 16, 16)]
        big = points[(3, 16, 128)]
        assert small.overlap_fraction > big.overlap_fraction

    def test_footprint_grows_with_tile_size(self, blur_pipeline):
        points = {
            p.tile_sizes: p
            for p in sweep_tiles(
                blur_pipeline, blur_pipeline.stages, XEON_HASWELL,
                outer_sizes=(4, 64), inner_sizes=(64,),
            )
        }
        assert (
            points[(3, 64, 64)].tile_footprint_bytes
            > points[(3, 4, 64)].tile_footprint_bytes
        )

    def test_l1_fit_flag(self, blur_pipeline):
        points = sweep_tiles(
            blur_pipeline, blur_pipeline.stages, XEON_HASWELL,
            outer_sizes=(4,), inner_sizes=(32,),
        )
        assert points[0].fits_l1

    def test_l1_fit_flag_survives_replace(self, blur_pipeline):
        import dataclasses

        point = sweep_tiles(
            blur_pipeline, blur_pipeline.stages, XEON_HASWELL,
            outer_sizes=(4,), inner_sizes=(32,),
        )[0]
        copy = dataclasses.replace(point, estimated_ms=0.0)
        assert copy.fits_l1 == point.fits_l1
        assert type(point)(**dataclasses.asdict(point)) == point

    def test_reduction_group_rejected(self, histogram_pipeline):
        with pytest.raises(ValueError):
            sweep_tiles(
                histogram_pipeline, histogram_pipeline.stages, XEON_HASWELL
            )
