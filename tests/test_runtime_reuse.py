"""Inter-tile halo reuse tests: carrying a stage's computed row window
across adjacent tiles must be bit-identical to the full per-tile
recompute on generated fused kernels and on the stage-walking adapter,
and survive fault injection without ever consuming poisoned scratch."""

import dataclasses

import numpy as np
import pytest

from repro.fusion import manual_grouping
from repro.model.machine import XEON_HASWELL
from repro.obs import METRICS
from repro.pipelines import BENCHMARKS
from repro.planner import build_benchmark, make_inputs, output_digests, plan_schedule
from repro.resilience import GuardPolicy, execute_guarded, inject_faults
from repro.runtime import ExecOptions, KernelTier, execute_grouping
from repro.serve import HostConfig, PipelineHost

from conftest import build_blur, build_updown, force_step_tiles, random_inputs

#: Clamp benchmark tiles so every pipeline runs many-tile rows — the
#: regime where carried windows actually engage (mirrors the benchmark
#: harness's MAX_TILE).
MAX_TILE = 32

REUSE = ExecOptions()
NO_REUSE = ExecOptions(reuse=False)


def clamped(bench, pipe):
    g = bench.h_manual(pipe)
    tiles = tuple(
        tuple(min(t, MAX_TILE) for t in ts) for ts in g.tile_sizes
    )
    return dataclasses.replace(g, tile_sizes=tiles)


def assert_bit_identical(ref, out):
    assert set(ref) == set(out)
    for k in sorted(ref):
        assert ref[k].dtype == out[k].dtype, k
        np.testing.assert_array_equal(ref[k], out[k], err_msg=k)


# ---------------------------------------------------------------------------
# bit-identity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("abbrev", sorted(BENCHMARKS))
def test_benchmarks_bit_identical_reuse(abbrev):
    """Reuse on == reuse off, exactly, on every registered benchmark —
    on the fused tier and the per-stage tier."""
    bench = BENCHMARKS[abbrev]
    pipe = bench.build(**bench.small_kwargs)
    inputs = random_inputs(pipe, np.random.default_rng(31))
    grouping = clamped(bench, pipe)
    for tier in (KernelTier.FUSED, KernelTier.STAGE):
        off = execute_grouping(
            pipe, grouping, inputs, options=ExecOptions(tier, reuse=False),
        )
        on = execute_grouping(
            pipe, grouping, inputs, options=ExecOptions(tier),
        )
        assert_bit_identical(off, on)


def test_reuse_engages_and_counts(monkeypatch):
    """A many-tile stencil group actually reuses carried windows, and the
    metrics record the tiles that did and the points served from carried
    windows — counted per step, with the per-tile walk's tile count: in
    every run, each tile but the seeding step's first."""
    monkeypatch.delenv("REPRO_NO_REUSE", raising=False)
    pipe = build_blur(rows=96, cols=94)
    inputs = random_inputs(pipe, np.random.default_rng(32))
    g = manual_grouping(pipe, [["blurx", "blury"]], [[3, 16, 16]])
    counts = {}
    try:
        for k in (1, 2, 6):
            # 6 rows of 6 tiles: 6 / 3 / 1 steps per row
            force_step_tiles(monkeypatch, k)
            METRICS.reset(enabled=True)
            execute_grouping(pipe, g, inputs)
            assert METRICS.value("repro_tiles_total") == 36
            assert METRICS.value("repro_tile_steps_total") == 36 // k
            assert METRICS.value("repro_halo_reuse_tiles_total") == 30
            counts[k] = METRICS.value("repro_halo_reuse_saved_points_total")
        # a run that is one step hands its windows to nobody
        assert counts[1] > counts[2] > 0 and counts[6] is None
        METRICS.reset(enabled=True)
        execute_grouping(pipe, g, inputs, options=NO_REUSE)
        assert METRICS.value("repro_halo_reuse_tiles_total") is None
        assert METRICS.value("repro_tile_steps_total") == 36
    finally:
        METRICS.reset(enabled=False)


def test_parallel_reuse_bit_identical():
    """Chunks on 4 worker threads carry independently and still produce
    the exact serial full-recompute bits."""
    pipe = build_blur(rows=96, cols=96)
    inputs = random_inputs(pipe, np.random.default_rng(33))
    g = manual_grouping(pipe, [["blurx", "blury"]], [[2, 13, 17]])
    off = execute_grouping(pipe, g, inputs, options=NO_REUSE)
    on = execute_grouping(pipe, g, inputs, options=REUSE, nthreads=4)
    assert_bit_identical(off, on)


@pytest.mark.parametrize("tiles", [[3, 32, 32], [2, 13, 29], [1, 1, 1],
                                   [64, 4096, 4096]])
def test_awkward_tiles_bit_identical(tiles):
    """Tiles that do not divide the extent, single-point tiles, and
    tiles covering the whole domain (where reuse must disable itself)."""
    pipe = build_blur(rows=46, cols=62)
    inputs = random_inputs(pipe, np.random.default_rng(34))
    g = manual_grouping(pipe, [["blurx", "blury"]], [tiles])
    off = execute_grouping(pipe, g, inputs, options=NO_REUSE)
    on = execute_grouping(pipe, g, inputs, options=REUSE)
    assert_bit_identical(off, on)


@pytest.mark.parametrize("t", [1, 17, 64])
def test_scaled_chain_bit_identical(t):
    """Fractional-scale chains: carried windows chain across rational
    region bounds or fall back, either way exactly."""
    pipe = build_updown(n=120)
    inputs = random_inputs(pipe, np.random.default_rng(35))
    g = manual_grouping(pipe, [["fine", "down", "up"]], [[t]])
    off = execute_grouping(pipe, g, inputs, options=NO_REUSE)
    on = execute_grouping(pipe, g, inputs, options=REUSE)
    assert_bit_identical(off, on)


# ---------------------------------------------------------------------------
# fault injection / retries
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("abbrev", ["HC", "UM"])
def test_full_tile_faults_bit_identical(abbrev):
    """100% tile failure under reuse degrades to the reference fallback
    with output identical to the no-reuse run."""
    bench = BENCHMARKS[abbrev]
    pipe = bench.build(**bench.small_kwargs)
    inputs = random_inputs(pipe, np.random.default_rng(36))
    grouping = clamped(bench, pipe)
    outs = {}
    for reuse in (True, False):
        with inject_faults(seed=9, tile=1.0):
            report = execute_guarded(
                pipe, grouping, inputs, nthreads=2,
                policy=GuardPolicy(tile_retries=1, degrade=True,
                                   options=ExecOptions(reuse=reuse)),
            )
        assert not any(o.mode == "tiled" for o in report.outcomes)
        outs[reuse] = report.outputs
    assert_bit_identical(outs[False], outs[True])


def _assert_partial_faults_converge():
    pipe = build_blur(rows=96, cols=96)
    inputs = random_inputs(pipe, np.random.default_rng(37))
    g = manual_grouping(pipe, [["blurx", "blury"]], [[3, 16, 16]])
    ref = execute_grouping(pipe, g, inputs, options=NO_REUSE)
    METRICS.reset(enabled=True)
    try:
        with inject_faults(seed=21, tile=0.5):
            out = execute_grouping(pipe, g, inputs, tile_retries=6,
                                   options=REUSE)
        invalidations = METRICS.value(
            "repro_halo_reuse_invalidations_total"
        )
        retries = METRICS.value("repro_tile_retries_total")
    finally:
        METRICS.reset(enabled=False)
    assert retries > 0
    assert invalidations is not None and invalidations > 0
    assert_bit_identical(ref, out)


def test_retry_never_consumes_poisoned_carry():
    """A failed step attempt invalidates the whole carry — pinned by the
    invalidation counter — and its retry recomputes fresh windows, so
    partial-fault runs converge to the exact fault-free bits."""
    _assert_partial_faults_converge()


@pytest.mark.parametrize("k", [1, 2, 4])
def test_retry_never_consumes_poisoned_carry_on_short_steps(k, monkeypatch):
    """The same with a row of six tiles cut into six, three and two steps
    (the budget alone makes it one), so failures land on steps in the
    middle of a run."""
    force_step_tiles(monkeypatch, k)
    _assert_partial_faults_converge()


# ---------------------------------------------------------------------------
# serve-layer parity
# ---------------------------------------------------------------------------


def test_serve_host_reuse_parity(monkeypatch):
    """A warm host serving with halo reuse produces the same digests as
    one warmed under ``REPRO_NO_REUSE`` and as the one-shot CLI path."""
    scale, threads = 0.05, 2
    bench, pipe = build_benchmark("UM", scale)
    grouping, _ = plan_schedule(pipe, bench, XEON_HASWELL, "dp",
                                1_200_000, strict=False)
    report = execute_guarded(
        pipe, grouping, make_inputs(pipe, 0), nthreads=threads,
        policy=GuardPolicy(tile_retries=1, degrade=True),
    )
    expected = output_digests(report.outputs)
    for reuse in (True, False):
        monkeypatch.setenv("REPRO_NO_REUSE", "0" if reuse else "1")
        host = PipelineHost("UM", HostConfig(scale=scale, threads=threads))
        host.warm()
        assert host.options == ExecOptions(reuse=reuse)
        outputs, _, tier = host.execute(make_inputs(host.pipeline, 0))
        assert tier == "compiled"
        assert output_digests(outputs) == expected
