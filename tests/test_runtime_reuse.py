"""Inter-tile halo reuse tests: carrying a stage's computed row window
across adjacent tiles must be bit-identical to the reference interpreter
on the stage-walking adapter over compiled stage kernels, and survive
fault injection without ever consuming poisoned scratch."""

import dataclasses

import numpy as np
import pytest

from repro.fusion import manual_grouping
from repro.obs import METRICS
from repro.pipelines import BENCHMARKS
from repro.resilience import GuardPolicy, execute_guarded, inject_faults
from repro.runtime import KernelTier, execute_grouping, execute_reference

from conftest import build_blur, build_updown, force_step_tiles, random_inputs

#: Clamp benchmark tiles so every pipeline runs many-tile rows — the
#: regime where carried windows actually engage (mirrors the benchmark
#: harness's MAX_TILE).
MAX_TILE = 32


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
    """The carrying walk == the reference, exactly, on every registered
    benchmark, on the per-stage tier."""
    bench = BENCHMARKS[abbrev]
    pipe = bench.build(**bench.small_kwargs)
    inputs = random_inputs(pipe, np.random.default_rng(31))
    grouping = clamped(bench, pipe)
    ref = execute_reference(pipe, inputs)
    out = execute_grouping(pipe, grouping, inputs, kernels=KernelTier.STAGE)
    assert_bit_identical(ref, out)


def test_reuse_engages_and_counts(monkeypatch):
    """A many-tile stencil group actually reuses carried windows, and the
    metrics record the tiles that did and the points served from carried
    windows — counted per step, with the per-tile walk's tile count: in
    every run, each tile but the seeding step's first."""
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
    finally:
        METRICS.reset(enabled=False)


def test_parallel_reuse_bit_identical():
    """Chunks on 4 worker threads carry independently and still produce
    the reference's bits."""
    pipe = build_blur(rows=96, cols=96)
    inputs = random_inputs(pipe, np.random.default_rng(33))
    g = manual_grouping(pipe, [["blurx", "blury"]], [[2, 13, 17]])
    ref = execute_reference(pipe, inputs)
    out = execute_grouping(pipe, g, inputs, nthreads=4)
    assert_bit_identical(ref, out)


@pytest.mark.parametrize("tiles", [[3, 32, 32], [2, 13, 29], [1, 1, 1],
                                   [64, 4096, 4096]])
def test_awkward_tiles_bit_identical(tiles):
    """Tiles that do not divide the extent, single-point tiles, and
    tiles covering the whole domain (where reuse must disable itself)."""
    pipe = build_blur(rows=46, cols=62)
    inputs = random_inputs(pipe, np.random.default_rng(34))
    g = manual_grouping(pipe, [["blurx", "blury"]], [tiles])
    ref = execute_reference(pipe, inputs)
    assert_bit_identical(ref, execute_grouping(pipe, g, inputs))


@pytest.mark.parametrize("t", [1, 17, 64])
def test_scaled_chain_bit_identical(t):
    """Fractional-scale chains: carried windows chain across rational
    region bounds or fall back, either way exactly."""
    pipe = build_updown(n=120)
    inputs = random_inputs(pipe, np.random.default_rng(35))
    g = manual_grouping(pipe, [["fine", "down", "up"]], [[t]])
    ref = execute_reference(pipe, inputs)
    assert_bit_identical(ref, execute_grouping(pipe, g, inputs))


# ---------------------------------------------------------------------------
# fault injection / retries
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("abbrev", ["HC", "UM"])
def test_full_tile_faults_bit_identical(abbrev):
    """100% tile failure on the carrying walk degrades to the reference
    fallback with output identical to the reference."""
    bench = BENCHMARKS[abbrev]
    pipe = bench.build(**bench.small_kwargs)
    inputs = random_inputs(pipe, np.random.default_rng(36))
    grouping = clamped(bench, pipe)
    with inject_faults(seed=9, tile=1.0):
        report = execute_guarded(
            pipe, grouping, inputs, nthreads=2,
            policy=GuardPolicy(tile_retries=1, degrade=True),
        )
    assert not any(o.mode == "tiled" for o in report.outcomes)
    assert_bit_identical(execute_reference(pipe, inputs), report.outputs)


def _assert_partial_faults_converge():
    pipe = build_blur(rows=96, cols=96)
    inputs = random_inputs(pipe, np.random.default_rng(37))
    g = manual_grouping(pipe, [["blurx", "blury"]], [[3, 16, 16]])
    ref = execute_reference(pipe, inputs)
    METRICS.reset(enabled=True)
    try:
        with inject_faults(seed=21, tile=0.5):
            out = execute_grouping(pipe, g, inputs, tile_retries=6)
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
