"""The one sweep loop and its two oracles.

``polymage_autotune`` and ``calibrate_weights`` score candidates through
one per-unique-grouping memo (``repro.fusion.autotune.sweep``); the
oracle is the timing model by default and
``repro.planner.executor_oracle`` — wall time of the executor that
serves — when measuring.
"""

import hashlib
import math
import subprocess
import warnings

import pytest

import repro.runtime
from repro.fusion import (
    model_oracle,
    polymage_autotune,
    polymage_greedy,
    schedule_pipeline,
)
from repro.fusion.autotune import DEFAULT_TILE_SIZES, DEFAULT_TOLERANCES
from repro.model import XEON_HASWELL
from repro.model.calibrate import calibrate_weights
from repro.pipelines import BENCHMARKS
from repro.planner import executor_oracle, make_inputs, output_digests
from repro.runtime import KernelNativeWarning, execute_reference
from repro.runtime import native as native_mod
from repro.runtime import nativestore

from conftest import build_blur, build_updown, needs_gxx


def grouping_key(grouping):
    return (tuple(map(tuple, grouping.group_names())), grouping.tile_sizes)


class CountingOracle:
    """Clock-free: seconds are a function of the grouping alone."""

    def __init__(self):
        self.calls = []

    def __call__(self, pipeline, grouping):
        self.calls.append((pipeline.name, grouping_key(grouping)))
        return float(sum(map(sum, grouping.tile_sizes)))


# ---------------------------------------------------------------------------
# (i) one call per unique grouping
# ---------------------------------------------------------------------------


class TestSweepMemo:
    def test_duplicate_groupings_measured_once(self):
        pipe = build_blur(rows=126, cols=126)
        oracle = CountingOracle()
        # tolerance does not change the grouping here: one unique call
        result = polymage_autotune(
            pipe, XEON_HASWELL, tile_sizes=[32], tolerances=[0.4, 0.5],
            oracle=oracle,
        )
        assert len(result.trials) == 2
        assert len(oracle.calls) == 1
        assert result.best.stats.cost_evaluations == 1
        assert result.best.stats.enumerated == 2

    def test_best_is_the_minimum_seconds_trial(self):
        pipe = build_blur(rows=126, cols=126)
        oracle = CountingOracle()
        result = polymage_autotune(
            pipe, XEON_HASWELL, tile_sizes=[16, 64], tolerances=[0.4],
            oracle=oracle,
        )
        assert len(result.trials) == 2
        fastest = min(result.trials, key=lambda t: t.seconds)
        assert result.best_trial == fastest
        assert result.best.cost == fastest.seconds
        assert result.best.tile_sizes == fastest.grouping.tile_sizes
        assert result.best.stats.strategy == "polymage-auto"
        assert result.best.stats.extra["best_tile_size"] == fastest.tile_size
        assert len(set(oracle.calls)) == len(oracle.calls)

    def test_empty_grids_rejected_before_the_oracle_runs(self):
        oracle = CountingOracle()
        for kwargs in (dict(tile_sizes=[]), dict(tolerances=[])):
            with pytest.raises(ValueError):
                polymage_autotune(build_blur(), XEON_HASWELL, oracle=oracle,
                                  **kwargs)
        assert not oracle.calls

    def test_calibrate_shares_the_memo(self):
        pipes = [build_blur(62, 94), build_updown(120)]
        oracle = CountingOracle()
        # both weight vectors yield the same DP grouping on both pipelines
        result = calibrate_weights(
            pipes, XEON_HASWELL,
            w1_grid=(1.0,), w2_grid=(0.4,), w3_grid=(1.0, 3.0),
            w4_grid=(1.5,), oracle=oracle,
        )
        assert len(result.scores) == 2
        assert len(result.times) == 4
        assert sorted(name for name, _ in oracle.calls) == ["blur", "updown"]

    def test_default_oracle_is_the_timing_model(self, blur_pipeline):
        explicit = polymage_autotune(
            blur_pipeline, XEON_HASWELL,
            oracle=model_oracle(XEON_HASWELL, XEON_HASWELL.num_cores,
                                "polymage"),
        )
        default = polymage_autotune(blur_pipeline, XEON_HASWELL)
        assert [t.seconds for t in explicit.trials] == [
            t.seconds for t in default.trials
        ]


# ---------------------------------------------------------------------------
# (iv) the default oracle moves nothing
# ---------------------------------------------------------------------------

# (best tile, best tolerance, groups, sha256 of (group_names, tile_sizes))
# of ``polymage_autotune(small build, XEON_HASWELL)`` at the commit before
# the oracle parameter existed.
PARENT_PICKS = {
    "BG": (16, 0.2, 4, "bea6e8ee73402790"),
    "CP": (64, 0.2, 7, "277f9882b6b77738"),
    "HC": (64, 0.2, 1, "1bbc7e0a6b269722"),
    "MI": (64, 0.4, 2, "e45dab91efdc46ff"),
    "PB": (32, 0.2, 7, "a13c7a2ef6535e98"),
    "UM": (64, 0.2, 1, "4b4f46b759d667ee"),
}


@pytest.mark.parametrize("abbrev", sorted(BENCHMARKS))
def test_default_oracle_keeps_the_parents_picks(abbrev):
    bench = BENCHMARKS[abbrev]
    pipe = bench.build(**bench.small_kwargs)
    result = polymage_autotune(pipe, XEON_HASWELL)
    best = result.best
    assert len(result.trials) == (
        len(DEFAULT_TILE_SIZES) * len(DEFAULT_TOLERANCES)
    )
    shape = hashlib.sha256(
        repr((best.group_names(), best.tile_sizes)).encode()
    ).hexdigest()[:16]
    assert (
        int(best.stats.extra["best_tile_size"]),
        best.stats.extra["best_tolerance"],
        best.num_groups,
        shape,
    ) == PARENT_PICKS[abbrev]
    via_api = schedule_pipeline(pipe, XEON_HASWELL, strategy="polymage-auto")
    assert grouping_key(via_api) == grouping_key(best)
    assert via_api.cost == best.cost


# ---------------------------------------------------------------------------
# (ii), (iii) the measured oracle is the served path
# ---------------------------------------------------------------------------


@pytest.fixture
def served_calls(monkeypatch):
    """Every ``repro.runtime.execute_grouping`` call the oracle makes, with
    its output digests; any subprocess would be an error."""
    calls = []
    real = repro.runtime.execute_grouping

    def recording(pipeline, grouping, inputs, **kwargs):
        out = real(pipeline, grouping, inputs, **kwargs)
        calls.append((grouping_key(grouping), kwargs, output_digests(out)))
        return out

    def no_subprocess(*args, **kwargs):
        raise AssertionError(f"subprocess spawned: {args!r}")

    monkeypatch.setattr(repro.runtime, "execute_grouping", recording)
    monkeypatch.setattr(subprocess, "run", no_subprocess)
    monkeypatch.setattr(subprocess, "Popen", no_subprocess)
    return calls


def _measured_blur_sweep(served_calls, repeats=2):
    pipe = build_blur(rows=126, cols=126)
    result = polymage_autotune(
        pipe, XEON_HASWELL, tile_sizes=[16, 32], tolerances=[0.4, 0.5],
        oracle=executor_oracle(nthreads=1, repeats=repeats),
    )
    unique = {grouping_key(t.grouping) for t in result.trials}
    assert len(result.trials) == 4
    assert result.best.stats.cost_evaluations == len(unique) == 2
    assert len(served_calls) == len(unique) * (1 + repeats)
    assert all(kwargs == {"nthreads": 1} for _, kwargs, _ in served_calls)
    for trial in result.trials:
        assert math.isfinite(trial.seconds) and trial.seconds > 0
    assert result.best.cost == min(t.seconds for t in result.trials)
    expected = output_digests(execute_reference(pipe, make_inputs(pipe, 0)))
    assert all(digests == expected for _, _, digests in served_calls)
    return result


def test_executor_oracle_times_execute_grouping(served_calls):
    """Under the suite's ``REPRO_KERNELS=stage``: no compiler needed."""
    _measured_blur_sweep(served_calls)


def _forget_native_state(monkeypatch):
    """A process that has warned about nothing and loaded no artifact."""
    monkeypatch.setattr(native_mod, "_WARNED", set())
    monkeypatch.setattr(nativestore, "_LOADED", {})
    repro.runtime.clear_kernel_cache()


@pytest.fixture
def fresh_native_state(monkeypatch, native_on):
    _forget_native_state(monkeypatch)


@pytest.fixture
def warm_blur_store(monkeypatch, fresh_native_state):
    """The sweep's artifacts are in the session's store — as after any
    earlier run — and nothing of them is loaded."""
    pipe = build_blur(rows=126, cols=126)
    for ts in (16, 32):
        g = polymage_greedy(pipe, XEON_HASWELL, tile_size=ts,
                            overlap_tolerance=0.4)
        assert all(k.native
                   for k in repro.runtime.grouping_kernels(pipe, g.groups))
    _forget_native_state(monkeypatch)


@pytest.mark.native
@needs_gxx
def test_executor_oracle_on_native_kernels(warm_blur_store, served_calls):
    """On a warm artifact store the measured sweep spawns nothing, warns
    about nothing and runs every candidate on its native kernels."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", KernelNativeWarning)
        result = _measured_blur_sweep(served_calls)
    pipe = result.best.pipeline
    for trial in result.trials:
        assert all(
            k.native
            for k in repro.runtime.grouping_kernels(pipe, trial.grouping.groups)
        )


@pytest.mark.native
def test_executor_oracle_without_a_compiler(
    fresh_native_state, served_calls, monkeypatch, tmp_path
):
    """``g++`` masked from ``PATH``: the sweep still returns times (the
    generated-NumPy kernels') and warns exactly once."""
    monkeypatch.setenv("PATH", str(tmp_path))
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        _measured_blur_sweep(served_calls)
    got = [w for w in record if issubclass(w.category, KernelNativeWarning)]
    assert len(got) == 1, [str(w.message) for w in got]
    assert "[KERNEL_NATIVE_FAIL]" in str(got[0].message)
