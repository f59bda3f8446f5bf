"""Tests for the native (compile-and-measure) auto-tuner."""

import shutil

import pytest

from repro.fusion import have_compiler, measure_native, native_autotune
from repro.model import XEON_HASWELL

from conftest import build_blur

needs_gxx = pytest.mark.skipif(
    not have_compiler(), reason="g++ not available"
)


def test_have_compiler_matches_which():
    assert have_compiler() == (shutil.which("g++") is not None)


@needs_gxx
class TestNativeMeasure:
    def test_measure_returns_positive_ms(self, blur_pipeline):
        from repro.fusion import manual_grouping

        g = manual_grouping(blur_pipeline, [["blurx", "blury"]], [[3, 16, 64]])
        ms = measure_native(blur_pipeline, g, repeats=2)
        assert ms > 0

    def test_sweep_finds_a_best(self):
        pipe = build_blur(rows=126, cols=126)
        result = native_autotune(
            pipe, XEON_HASWELL, tile_sizes=[16, 64], tolerances=[0.4],
            repeats=2,
        )
        assert len(result.trials) == 2
        fastest = min(result.trials, key=lambda t: t.milliseconds)
        assert result.best.stats.extra["best_ms"] == fastest.milliseconds
        assert result.best.cost == fastest.milliseconds / 1e3
        assert result.best.tile_sizes == fastest.grouping.tile_sizes
        assert result.best.stats.strategy == "polymage-auto-native"
        assert result.tuning_seconds > 0

    def test_duplicate_groupings_measured_once(self):
        pipe = build_blur(rows=126, cols=126)
        # tolerance does not change the grouping here: one unique build
        result = native_autotune(
            pipe, XEON_HASWELL, tile_sizes=[32], tolerances=[0.4, 0.5],
            repeats=2,
        )
        assert len(result.trials) == 2
        assert result.best.stats.cost_evaluations == 1


def test_without_compiler_raises(monkeypatch, blur_pipeline):
    import repro.fusion.native_tune as nt

    monkeypatch.setattr(nt.shutil, "which", lambda _: None)
    with pytest.raises(RuntimeError):
        nt.native_autotune(blur_pipeline, XEON_HASWELL)
