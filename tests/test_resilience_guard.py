"""The hardened executor: input validation, TILE_FAIL propagation out of
the thread pool, and per-group reference fallback."""

import dataclasses

import numpy as np
import pytest

from repro.errors import (
    InjectedFault,
    InputDtypeError,
    InputMissingError,
    InputShapeError,
    ReproError,
    TileExecutionError,
)
from repro.fusion import dp_group
from repro.model import XEON_HASWELL
from repro.pipelines import BENCHMARKS
from repro.resilience import GuardPolicy, execute_guarded, inject_faults
from repro.resilience.guard import validate_inputs
from repro.runtime import (
    KernelTier,
    clear_kernel_cache,
    execute_grouping,
    execute_reference,
    kernelcache,
)

from conftest import random_inputs


def _raised_everywhere(pipeline, inputs, exc_type):
    """``inputs`` must be refused alike — same class, code and context —
    by :func:`validate_inputs` and by both executors, which run it as
    their first step; returns the error."""
    grouping = dp_group(pipeline, XEON_HASWELL)
    raised = []
    for entry in (
        validate_inputs,
        lambda p, i: execute_grouping(p, grouping, i),
        lambda p, i: execute_guarded(p, grouping, i),
    ):
        with pytest.raises(exc_type) as exc_info:
            entry(pipeline, inputs)
        raised.append(exc_info.value)
    for exc in raised[1:]:
        assert type(exc) is type(raised[0])
        assert exc.code == raised[0].code
        assert exc.context == raised[0].context
    return raised[0]


class TestValidateInputs:
    def test_missing_input(self, blur_pipeline):
        exc = _raised_everywhere(blur_pipeline, {}, InputMissingError)
        assert exc.code == "INPUT_MISSING"
        assert exc.context["missing"] == "img"
        assert exc.context["expected"] == ["img"]

    def test_missing_is_still_a_keyerror(self, blur_pipeline):
        # Pre-taxonomy callers caught KeyError; they must keep working.
        _raised_everywhere(blur_pipeline, {}, KeyError)

    def test_wrong_shape(self, blur_pipeline, rng):
        inputs = {"img": rng.random((2, 2), dtype=np.float32)}
        exc = _raised_everywhere(blur_pipeline, inputs, InputShapeError)
        assert exc.context["image"] == "img"
        assert exc.context["actual"] == (2, 2)

    def test_wrong_dtype(self, blur_pipeline):
        shape = blur_pipeline.image_shape(blur_pipeline.images[0])
        inputs = {"img": np.full(shape, "x", dtype=object)}
        _raised_everywhere(blur_pipeline, inputs, InputDtypeError)

    def test_extra_keys_tolerated(self, blur_pipeline, rng):
        inputs = random_inputs(blur_pipeline, rng)
        inputs["unrelated"] = np.zeros(3)
        validate_inputs(blur_pipeline, inputs)  # does not raise

    def test_executor_raises_structured_missing(self, blur_pipeline):
        # Satellite 1: the old bare-KeyError site in _input_buffers.
        g = dp_group(blur_pipeline, XEON_HASWELL)
        with pytest.raises(InputMissingError) as exc_info:
            execute_grouping(blur_pipeline, g, {})
        assert "expected" in str(exc_info.value)


class TestTileFailPropagation:
    """Satellite 3: TILE_FAIL out of the ThreadPoolExecutor carries the
    group id, tile index, and original cause; --degrade re-runs the group
    via reference execution."""

    def test_strict_error_carries_coordinates_and_cause(
        self, blur_pipeline, rng
    ):
        g = dp_group(blur_pipeline, XEON_HASWELL)
        inputs = random_inputs(blur_pipeline, rng)
        with inject_faults(tile=1.0):
            with pytest.raises(TileExecutionError) as exc_info:
                execute_grouping(blur_pipeline, g, inputs, nthreads=2)
        exc = exc_info.value
        assert exc.code == "TILE_FAIL"
        assert exc.group_index >= 0
        assert exc.tile_index >= 0
        assert exc.tile_origin is not None
        assert isinstance(exc.cause, InjectedFault)
        assert exc.__cause__ is exc.cause

    def test_guarded_strict_mode_propagates(self, blur_pipeline, rng):
        g = dp_group(blur_pipeline, XEON_HASWELL)
        inputs = random_inputs(blur_pipeline, rng)
        with inject_faults(tile=1.0):
            with pytest.raises(ReproError) as exc_info:
                execute_guarded(
                    blur_pipeline, g, inputs, nthreads=2,
                    policy=GuardPolicy(degrade=False, tile_retries=0),
                )
        assert exc_info.value.code == "TILE_FAIL"

    def test_degrade_reruns_group_via_reference(self, blur_pipeline, rng):
        g = dp_group(blur_pipeline, XEON_HASWELL)
        inputs = random_inputs(blur_pipeline, rng)
        ref = execute_reference(blur_pipeline, inputs)
        with inject_faults(tile=1.0):
            result = execute_guarded(
                blur_pipeline, g, inputs, nthreads=2,
                policy=GuardPolicy(tile_retries=1, degrade=True),
            )
        failed = [o for o in result.outcomes if o.error_code]
        assert failed, "at least one group must have hit the fault"
        for o in failed:
            assert o.mode == "reference-fallback"
            assert o.error_code == "TILE_FAIL"
        for k in ref:
            np.testing.assert_array_equal(ref[k], result.outputs[k])

    @pytest.mark.parametrize("abbrev", ["HC", "UM"])
    def test_fallback_runs_no_compiled_stage_code(self, abbrev, monkeypatch):
        """The reference fallback walks expression trees, never a stage
        kernel: with every compiled stage kernel sabotaged to write
        wrong values, a run whose every group falls back still has the
        reference's bits."""
        real = kernelcache.compile_stage_kernel

        def wrong(pipeline, stage):
            kernel = real(pipeline, stage)
            return dataclasses.replace(
                kernel, fn=lambda *args: kernel.fn(*args) + 1
            )

        monkeypatch.setattr(kernelcache, "compile_stage_kernel", wrong)
        bench = BENCHMARKS[abbrev]
        pipe = bench.build(**bench.small_kwargs)
        grouping = bench.h_manual(pipe)
        inputs = random_inputs(pipe, np.random.default_rng(7))
        ref = execute_reference(pipe, inputs)
        policy = GuardPolicy(kernels=KernelTier.STAGE)
        clear_kernel_cache()
        try:
            # the sabotage bites where stage kernels run
            clean = execute_guarded(pipe, grouping, inputs, policy=policy)
            assert not clean.degraded
            assert any(
                not np.array_equal(ref[k], clean.outputs[k]) for k in ref
            )
            with inject_faults(tile=1.0):
                report = execute_guarded(
                    pipe, grouping, inputs, nthreads=2, policy=policy,
                )
        finally:
            clear_kernel_cache()
        assert report.outcomes and all(
            o.mode == "reference-fallback" for o in report.outcomes
        )
        for k in ref:
            assert report.outputs[k].dtype == ref[k].dtype
            np.testing.assert_array_equal(ref[k], report.outputs[k])

    def test_wrong_pipeline_grouping_rejected(self, blur_pipeline):
        from conftest import build_blur

        other = build_blur()
        g = dp_group(other, XEON_HASWELL)
        with pytest.raises(ValueError):
            execute_guarded(blur_pipeline, g, {})


class TestReport:
    def test_describe_lists_every_group(self, blur_pipeline, rng):
        g = dp_group(blur_pipeline, XEON_HASWELL)
        inputs = random_inputs(blur_pipeline, rng)
        result = execute_guarded(blur_pipeline, g, inputs)
        text = result.describe()
        for o in result.outcomes:
            assert f"group {o.group_index}" in text
