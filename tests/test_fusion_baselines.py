"""Tests for the baseline schedulers: PolyMage greedy, the PolyMage-A
auto-tuner, and Halide's auto-scheduler."""

import pytest

from repro.fusion import (
    halide_auto_schedule,
    polymage_autotune,
    polymage_greedy,
    uniform_tile_sizes,
)
from repro.fusion.autotune import DEFAULT_TILE_SIZES, DEFAULT_TOLERANCES
from repro.model import XEON_HASWELL
from repro.poly import compute_group_geometry

from conftest import build_blur, build_histogram, build_updown


class TestGreedy:
    def test_blur_fuses(self, blur_pipeline):
        g = polymage_greedy(blur_pipeline, XEON_HASWELL, tile_size=64,
                            overlap_tolerance=0.4)
        assert g.num_groups == 1
        assert g.is_valid()

    def test_zero_tolerance_prevents_stencil_fusion(self, blur_pipeline):
        g = polymage_greedy(blur_pipeline, XEON_HASWELL, tile_size=64,
                            overlap_tolerance=0.0)
        assert g.num_groups == 2

    def test_reduction_never_fused(self, histogram_pipeline):
        g = polymage_greedy(histogram_pipeline, XEON_HASWELL)
        hist_group = g.groups[g.group_of(
            histogram_pipeline.stage_by_name("hist"))]
        assert len(hist_group) == 1

    def test_uniform_tiles_cover_last_two_dims(self, blur_pipeline):
        geom = compute_group_geometry(blur_pipeline, blur_pipeline.stages)
        tiles = uniform_tile_sizes(geom, 64)
        assert tiles == (3, 64, 64)

    def test_invalid_parameters(self, blur_pipeline):
        with pytest.raises(ValueError):
            polymage_greedy(blur_pipeline, XEON_HASWELL, tile_size=0)
        with pytest.raises(ValueError):
            polymage_greedy(blur_pipeline, XEON_HASWELL, overlap_tolerance=-1)

    def test_strategy_label(self, blur_pipeline):
        g = polymage_greedy(blur_pipeline, XEON_HASWELL, tile_size=32,
                            overlap_tolerance=0.2)
        assert "32" in g.stats.strategy and "0.2" in g.stats.strategy


class TestAutotune:
    def test_sweeps_whole_space(self, blur_pipeline):
        result = polymage_autotune(blur_pipeline, XEON_HASWELL)
        assert len(result.trials) == len(DEFAULT_TILE_SIZES) * len(
            DEFAULT_TOLERANCES
        )

    def test_best_is_minimum(self, blur_pipeline):
        result = polymage_autotune(blur_pipeline, XEON_HASWELL)
        assert result.best.cost == min(
            t.seconds for t in result.trials
        )

    def test_best_trial_property(self, blur_pipeline):
        result = polymage_autotune(blur_pipeline, XEON_HASWELL)
        assert result.best_trial.seconds == result.best.cost

    def test_custom_space(self, blur_pipeline):
        result = polymage_autotune(
            blur_pipeline, XEON_HASWELL, tile_sizes=[32], tolerances=[0.4]
        )
        assert len(result.trials) == 1

    def test_empty_space_rejected(self, blur_pipeline):
        with pytest.raises(ValueError):
            polymage_autotune(blur_pipeline, XEON_HASWELL, tile_sizes=[])

    def test_records_best_parameters(self, blur_pipeline):
        result = polymage_autotune(blur_pipeline, XEON_HASWELL)
        assert result.best.stats.extra["best_tile_size"] in DEFAULT_TILE_SIZES


class TestHalideAuto:
    def test_blur_fuses(self, blur_pipeline):
        g = halide_auto_schedule(blur_pipeline, XEON_HASWELL)
        assert g.num_groups <= 2
        assert g.is_valid()

    def test_tile_sizes_are_powers_of_two(self, blur_pipeline):
        g = halide_auto_schedule(blur_pipeline, XEON_HASWELL)
        for tiles, group in zip(g.tile_sizes, g.groups):
            # tiled (trailing) dimensions are power-of-two sized
            for t in tiles[-2:]:
                if t not in (3,):  # untiled short dims keep their extent
                    assert t & (t - 1) == 0 or t in (
                        max(tiles),
                    ), f"non-pow2 tile {t}"

    def test_can_fuse_reduction(self, histogram_pipeline):
        # Halide's compute_at can group a reduction with consumers; our
        # fallback metrics make such merges expressible.
        g = halide_auto_schedule(histogram_pipeline, XEON_HASWELL)
        assert g.is_valid()

    def test_updown_valid(self, updown_pipeline):
        g = halide_auto_schedule(updown_pipeline, XEON_HASWELL)
        assert g.is_valid()
        covered = set()
        for group in g.groups:
            covered |= {s.name for s in group}
        assert covered == {s.name for s in updown_pipeline.stages}

    def test_stats(self, blur_pipeline):
        g = halide_auto_schedule(blur_pipeline, XEON_HASWELL)
        assert g.stats.strategy == "halide-auto"
        assert g.stats.enumerated >= 1
