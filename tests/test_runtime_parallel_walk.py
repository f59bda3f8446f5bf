"""The parallel tile walk is reuse-aware.

A chunk's seed windows end at the run of adjacent tiles *that chunk*
walks, and ``_chunk_tiles`` hands out whole carry rows whenever a grid has
at least as many rows as workers.  Pinned here without clocks:

* **work conservation** — the region volume the executor actually
  computes does not grow with the number of chunks, and grows by at most
  one tile's worth per extra run when rows have to be cut;
* **bit identity where the change bites** — six benchmarks x threads x
  all eight ``ExecOptions`` on grids of one, two and three carry rows,
  against ``execute_reference``; a tile failing in the middle of a run re-seeds
  to that run's end, not the grid row's; the serve host at ``threads=2``
  in-process and across the worker boundary.
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from repro.dsl.function import Reduction
from repro.errors import InjectedFault
from repro.fusion import manual_grouping, schedule_pipeline
from repro.model.machine import XEON_HASWELL
from repro.pipelines import BENCHMARKS
from repro.pipelines.synth import random_pipeline
from repro.planner import build_benchmark, make_inputs, output_digests, plan_schedule
from repro.poly import compute_group_geometry, reuse_carry_dim
from repro.resilience import GuardPolicy, execute_guarded, inject_faults
from repro.resilience.faults import FaultInjector
from repro.runtime import ExecOptions, execute_grouping, execute_reference
from repro.runtime import executor as executor_mod
from repro.runtime.executor import _stage_plan, _stage_region
from repro.serve import HostConfig, PipelineHost, PipelineService, ServeConfig

from conftest import build_blur, random_inputs

THREADS = (1, 2, 4)
#: one ``ExecOptions`` per source of group kernels
TIERS = {
    "fused": ExecOptions(),
    "no-fuse": ExecOptions(fuse=False),
    "no-compile": ExecOptions(compile=False),
}
ALL_OPTIONS = [
    ExecOptions(*bits) for bits in itertools.product((True, False), repeat=3)
]


def shaped(pipe, grouping, rows, step=7):
    """``grouping`` re-tiled so every group whose grid allows it has
    ``rows`` carry rows of many awkward (``step``-wide, non-dividing)
    tiles: the carry dimension gets ``step``, the widest other dimension
    is cut into ``rows`` pieces, the rest stay whole."""
    tile_sizes = []
    for members, tiles in zip(grouping.groups, grouping.tile_sizes):
        geom = compute_group_geometry(pipe, members)
        if geom is None or not tiles:
            tile_sizes.append(tuple(tiles))
            continue
        ext = geom.grid_extents
        new = list(ext)
        cdim = reuse_carry_dim(geom, [1] * geom.ndim)
        if cdim >= 0:
            new[cdim] = step
            others = [g for g in range(geom.ndim) if g != cdim]
            if others and rows > 1:
                widest = max(others, key=lambda g: ext[g])
                new[widest] = -(-ext[widest] // rows)
        tile_sizes.append(tuple(new))
    return dataclasses.replace(grouping, tile_sizes=tuple(tile_sizes))


def walk_shapes(pipe, grouping):
    """``(rows, row_len, tile_volume)`` per group that walks under halo
    reuse: the carry rows of its grid, the tiles per row, and the largest
    volume any one tile computes over all member stages (what cutting a
    run in two can cost at most: the halo both halves now compute is
    inside one tile's expanded regions)."""
    shapes = []
    for members, tiles in zip(grouping.groups, grouping.tile_sizes):
        geom = compute_group_geometry(pipe, members)
        if geom is None or any(isinstance(s, Reduction) for s in geom.stages):
            continue
        cdim = reuse_carry_dim(geom, tiles)
        if cdim < 0:
            continue
        counts = [-(-e // t) for e, t in zip(geom.grid_extents, tiles)]
        radii = geom.expansion_radii()
        tile_volume = 0
        ranges = [
            range(lo, hi + 1, tiles[g])
            for g, (lo, hi) in enumerate(geom.grid_bounds)
        ]
        for tile_lo in itertools.product(*ranges):
            vol = 0
            for stage in geom.stages:
                region = _stage_region(
                    geom, stage, pipe, tile_lo, tiles, radii, True
                )
                if region is not None:
                    vol += _volume(region)
            tile_volume = max(tile_volume, vol)
        shapes.append(
            (math.prod(counts) // counts[cdim], counts[cdim], tile_volume)
        )
    return shapes


def _volume(bounds):
    return math.prod(hi - lo + 1 for lo, hi in bounds)


class ComputedRegions:
    """Records every region the executor hands to a stage body — the
    stage-walking adapter's through ``_compute_function_region``, a
    generated fused kernel's through its ``regions`` argument (``None``
    entries are pure carries: nothing computed)."""

    def __init__(self, monkeypatch):
        self.regions = []  # appended from worker threads; append is atomic
        real_region = executor_mod._compute_function_region
        real_resolve = executor_mod.resolve_group_kernel

        def region(pipeline, stage, bounds, *args, **kwargs):
            self.regions.append((stage.name, [tuple(b) for b in bounds]))
            return real_region(pipeline, stage, bounds, *args, **kwargs)

        def resolve(pipeline, geom, options):
            kernel = real_resolve(pipeline, geom, options)
            if not kernel.generated:
                return kernel

            def fn(regions, *args):
                for name, bounds in zip(kernel.region_names, regions):
                    if bounds is not None:
                        self.regions.append(
                            (name, [tuple(b) for b in bounds])
                        )
                return kernel.fn(regions, *args)

            return dataclasses.replace(kernel, fn=fn)

        monkeypatch.setattr(
            executor_mod, "_compute_function_region", region
        )
        monkeypatch.setattr(executor_mod, "resolve_group_kernel", resolve)

    def take(self):
        regions, self.regions = self.regions, []
        return regions

    def volume(self):
        return sum(_volume(b) for _, b in self.take())


# ---------------------------------------------------------------------------
# work conservation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("tier", ["fused", "no-fuse"])
@pytest.mark.parametrize("abbrev", sorted(BENCHMARKS))
def test_work_is_conserved_across_thread_counts(abbrev, tier, monkeypatch):
    """volume(n) <= volume(1) + (runs cut beyond the serial walk's) x
    (one tile), and volume(n) == volume(1) outright on every grid with at
    least ``n`` rows — more chunks never mean more computed points."""
    bench = BENCHMARKS[abbrev]
    pipe = bench.build(**bench.small_kwargs)
    inputs = random_inputs(pipe, np.random.default_rng(41))
    work = ComputedRegions(monkeypatch)
    seen_rows = set()
    for rows in (1, 2, 3):
        grouping = shaped(pipe, bench.h_manual(pipe), rows)
        shapes = walk_shapes(pipe, grouping)
        seen_rows.update(r for r, _, _ in shapes)
        volumes = {}
        for n in THREADS:
            execute_grouping(
                pipe, grouping, inputs, nthreads=n, options=TIERS[tier],
            )
            volumes[n] = work.volume()
        for n in THREADS[1:]:
            allowed = sum(
                min(n - r, r * (row_len - 1)) * tile_volume
                for r, row_len, tile_volume in shapes
                if r < n
            )
            assert volumes[1] <= volumes[n] <= volumes[1] + allowed, (
                rows, n, volumes, allowed
            )
            if all(r >= n for r, _, _ in shapes):
                assert volumes[n] == volumes[1]
    assert {1, 2, 3} <= seen_rows


def test_many_chunks_cost_nothing_when_rows_suffice(monkeypatch):
    """A 12-row grid at 2, 3 and 4 threads is cut into 8, 12 and 12
    chunks; every one computes exactly the serial walk's windows."""
    pipe = build_blur(rows=96, cols=96)
    inputs = random_inputs(pipe, np.random.default_rng(42))
    g = manual_grouping(pipe, [["blurx", "blury"]], [[3, 8, 7]])
    work = ComputedRegions(monkeypatch)
    execute_grouping(pipe, g, inputs, nthreads=1)
    serial = sorted(work.take())
    assert serial
    for n in (2, 3, 4):
        execute_grouping(pipe, g, inputs, nthreads=n)
        assert sorted(work.take()) == serial


# ---------------------------------------------------------------------------
# one carry-dimension rule
# ---------------------------------------------------------------------------


def _plan_carry_dim(pipe, geom, tiles):
    """The carry dimension derived from the executor's own region plans
    (first multi-tile grid dim some stage has a halo along, else the
    first multi-tile dim) — what ``reuse_carry_dim`` must agree with now
    that the executor calls it."""
    radii = geom.expansion_radii()
    plans = [_stage_plan(geom, s, pipe, radii) for s in geom.stages]
    multi = [
        g for g, (lo, hi) in enumerate(geom.grid_bounds)
        if len(range(lo, hi + 1, tiles[g])) > 1
    ]
    for g in multi:
        if any(e[0] == g and e[3] + e[4] > 0 for p in plans for e in p):
            return g
    return multi[0] if multi else -1


def _assert_carry_dims_agree(pipe, grouping):
    checked = 0
    for members, tiles in zip(grouping.groups, grouping.tile_sizes):
        geom = compute_group_geometry(pipe, members)
        if geom is None:
            continue
        for cap in (None, 1, 7, 32):
            ts = tuple(tiles if cap is None else (min(t, cap) for t in tiles))
            assert reuse_carry_dim(geom, ts) == _plan_carry_dim(
                pipe, geom, ts
            ), (pipe.name, sorted(s.name for s in members), ts)
            checked += 1
    return checked


@pytest.mark.parametrize("abbrev", sorted(BENCHMARKS))
def test_carry_dim_rule_matches_region_plans_on_benchmarks(abbrev):
    bench, pipe = build_benchmark(abbrev, 0.1)
    grouping, _ = plan_schedule(
        pipe, bench, XEON_HASWELL, "dp", 2000, strict=False
    )
    assert _assert_carry_dims_agree(pipe, grouping) > 0
    assert _assert_carry_dims_agree(pipe, bench.h_manual(pipe)) > 0


@pytest.mark.parametrize("seed", range(6))
def test_carry_dim_rule_matches_region_plans_on_synth_dags(seed):
    pipe = random_pipeline(num_stages=10, seed=seed, size=192)
    grouping = schedule_pipeline(
        pipe, XEON_HASWELL, strategy="dp", max_states=300_000
    )
    assert _assert_carry_dims_agree(pipe, grouping) > 0


# ---------------------------------------------------------------------------
# bit identity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("rows", [1, 2, 3])
@pytest.mark.parametrize("abbrev", sorted(BENCHMARKS))
def test_benchmarks_match_reference_on_few_row_grids(abbrev, rows):
    """All eight ``ExecOptions`` at 1, 2 and 4 threads, on awkward tiles
    whose grids have ``rows`` carry rows — the grids where rows are cut
    (``rows < nthreads``) and where they are not."""
    bench = BENCHMARKS[abbrev]
    pipe = bench.build(**bench.small_kwargs)
    inputs = random_inputs(pipe, np.random.default_rng(43))
    grouping = shaped(pipe, bench.h_manual(pipe), rows, step=11)
    expected = output_digests(execute_reference(pipe, inputs))
    for n in THREADS:
        for options in ALL_OPTIONS:
            out = execute_grouping(
                pipe, grouping, inputs, nthreads=n, options=options,
            )
            assert output_digests(out) == expected, (n, options)


@pytest.mark.parametrize("abbrev", ["CP", "HC"])
def test_full_tile_faults_on_cut_rows_match_reference(abbrev):
    """100 % tile failure with a retry budget, on a one-row grid cut
    across 4 threads: every group degrades and the outputs are the
    reference's."""
    bench = BENCHMARKS[abbrev]
    pipe = bench.build(**bench.small_kwargs)
    inputs = random_inputs(pipe, np.random.default_rng(44))
    grouping = shaped(pipe, bench.h_manual(pipe), 1)
    with inject_faults(seed=5, tile=1.0):
        report = execute_guarded(
            pipe, grouping, inputs, nthreads=4,
            policy=GuardPolicy(tile_retries=1, degrade=True),
        )
    assert not any(o.mode == "tiled" for o in report.outcomes)
    assert output_digests(report.outputs) == output_digests(
        execute_reference(pipe, inputs)
    )


class _FailFirstAttempt(FaultInjector):
    """Fails the first attempt of the named tiles, always."""

    def __init__(self, details):
        super().__init__()
        self.details = set(details)

    def check(self, site, detail=""):
        if site == "tile" and detail in self.details:
            raise InjectedFault(
                "injected fault", site=site, detail=detail, seed=0
            )


@pytest.mark.parametrize("tier", sorted(TIERS))
def test_mid_run_failure_reseeds_to_the_runs_end(tier, monkeypatch):
    """One row of 12 tiles on 2 threads is two runs of 6.  Tile 3 fails
    once: its retry re-seeds ``blurx`` from tile 3 to the end of the
    *first run*; no window of the first chunk reaches into the second
    chunk's tiles, and the output is still the fault-free one."""
    pipe = build_blur(rows=46, cols=94)
    inputs = random_inputs(pipe, np.random.default_rng(45))
    tiles = (3, 4096, 8)
    g = manual_grouping(pipe, [["blurx", "blury"]], [list(tiles)])
    geom = compute_group_geometry(pipe, pipe.stages)
    cdim = reuse_carry_dim(geom, tiles)
    blurx = next(s for s in geom.stages if s.name == "blurx")
    lo0, hi0 = geom.grid_bounds[cdim]
    origins = list(range(lo0, hi0 + 1, tiles[cdim]))
    assert len(origins) == 12

    def expanded(k):
        """blurx's expanded bounds along the carry dim at tile ``k``."""
        tile_lo = [lo for lo, _ in geom.grid_bounds]
        tile_lo[cdim] = origins[k]
        region = _stage_region(
            geom, blurx, pipe, tile_lo, tiles, geom.expansion_radii(), True
        )
        return region[cdim]

    work = ComputedRegions(monkeypatch)
    with inject_faults(_FailFirstAttempt({"g0t3a0"})):
        out = execute_grouping(
            pipe, g, inputs, nthreads=2, tile_retries=1,
            options=TIERS[tier],
        )
    windows = sorted(
        b[cdim] for name, b in work.take() if name == "blurx"
    )
    run1_end, run2_end = expanded(5)[1], expanded(11)[1]
    assert run1_end < run2_end
    assert windows == sorted([
        (expanded(0)[0], run1_end),   # first chunk's seed
        (expanded(3)[0], run1_end),   # re-seed after the failure
        (expanded(6)[0], run2_end),   # second chunk's seed
    ])
    assert output_digests(out) == output_digests(
        execute_reference(pipe, inputs)
    )


def test_serve_host_two_threads_in_process_and_across_workers():
    """A warm host at ``threads=2`` returns the reference digests, and so
    does a forked worker executing the same seeded request."""
    scale, seed = 0.05, 3
    _, pipe = build_benchmark("CP", scale)
    expected = output_digests(
        execute_reference(pipe, make_inputs(pipe, seed))
    )
    host_config = HostConfig(scale=scale, threads=2)
    host = PipelineHost("CP", host_config)
    host.warm()
    outputs, _, tier = host.execute(make_inputs(host.pipeline, seed))
    assert tier == "compiled"
    assert output_digests(outputs) == expected

    svc = PipelineService(ServeConfig(
        host=host_config, workers=1, heartbeat_s=0.2,
        worker_timeout_s=60.0,
    )).start()
    try:
        svc.warm(["CP"])
        svc.start_workers()
        result = svc.submit("CP", seed=seed).result(timeout=120)
        assert result.worker is not None
        assert output_digests(result.outputs) == expected
    finally:
        svc.shutdown(timeout_s=60.0)
