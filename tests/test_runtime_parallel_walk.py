"""The parallel tile walk is reuse-aware.

A chunk's seed windows end at the run of adjacent tiles *that chunk*
walks, and ``_chunk_tiles`` hands out whole carry rows whenever a grid has
at least as many rows as workers.  Pinned here without clocks:

* **work conservation** — the region volume the executor actually
  computes does not grow with the number of chunks, and grows by at most
  one tile's worth per extra run when rows have to be cut;
* **bit identity where the change bites** — six benchmarks x threads x
  every ``KernelTier`` on grids of one, two and three carry rows,
  against ``execute_reference``; a tile failing in the middle of a run re-seeds
  to that run's end, not the grid row's; the serve host at ``threads=2``
  in-process and across the worker boundary;
* **steps** — what a chunk actually walks: spans of adjacent tiles that
  partition every run, whose regions are exactly the union of their
  tiles' regions, which compute the per-tile walk's volume in fewer
  kernel calls, and which are the unit of retry and of the ``tile``
  fault site.
"""

import contextlib
import dataclasses
import gc
import itertools
import math
import weakref
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsl.function import Reduction
from repro.errors import TileExecutionError
from repro.fusion import manual_grouping, schedule_pipeline
from repro.model.machine import XEON_HASWELL
from repro.pipelines import BENCHMARKS
from repro.pipelines.synth import random_pipeline
from repro.planner import build_benchmark, make_inputs, output_digests, plan_schedule
from repro.obs import METRICS, TRACE
from repro.poly import compute_group_geometry, reuse_carry_dim
from repro.resilience import GuardPolicy, execute_guarded, inject_faults
from repro.resilience.faults import FaultSpec
from repro.runtime import (
    KernelTier,
    clear_kernel_cache,
    execute_grouping,
    execute_reference,
    grouping_kernels,
    kernelcache,
)
from repro.runtime import executor as executor_mod
from repro.runtime import native as native_mod
from repro.runtime.executor import (
    _chunk_tiles,
    _plan_steps,
    _region_from_plan,
    _stage_plan,
    _stage_region,
    _step_tiles,
    _walk_tiles,
)
from repro.serve import HostConfig, PipelineHost, PipelineService, ServeConfig

from conftest import (
    HAVE_GXX,
    FailFirstAttempt,
    build_blur,
    build_updown,
    force_step_tiles,
    needs_gxx,
    random_inputs,
    shaped,
    unmemoised_walks,
)

THREADS = (1, 2, 4)
#: the source of NumPy group kernels, by the id its parametrized tests
#: are known by (test names are pinned)
TIERS = {
    KernelTier.STAGE: "no-fuse",
}


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
    """Records every region the executor hands to a stage body (through
    the stage-walking adapter's ``_compute_function_region``) and every
    group-kernel call."""

    def __init__(self, monkeypatch):
        self.regions = []  # appended from worker threads; append is atomic
        self.calls = []    # one entry per group-kernel call, likewise
        real_region = executor_mod._compute_function_region
        real_resolve = executor_mod.resolve_group_kernel

        def region(pipeline, stage, bounds, *args, **kwargs):
            self.regions.append((stage.name, [tuple(b) for b in bounds]))
            return real_region(pipeline, stage, bounds, *args, **kwargs)

        def resolve(pipeline, geom, kernels):
            kernel = real_resolve(pipeline, geom, kernels)

            def fn(regions, *args):
                self.calls.append(kernel.group_names)
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

    def take_calls(self):
        calls, self.calls = self.calls, []
        return len(calls)


# ---------------------------------------------------------------------------
# work conservation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("tier", [KernelTier.STAGE], ids=TIERS.get)
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
                pipe, grouping, inputs, nthreads=n, kernels=tier,
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
    """A 12-row grid at 2, 3 and 4 threads is cut into 2, 3 and 4
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


@pytest.mark.native
@pytest.mark.parametrize("rows", [1, 2, 3])
@pytest.mark.parametrize("abbrev", sorted(BENCHMARKS))
def test_benchmarks_match_reference_on_few_row_grids(abbrev, rows):
    """Every ``KernelTier`` at 1, 2 and 4 threads, on awkward tiles
    whose grids have ``rows`` carry rows — the grids where rows are cut
    (``rows < nthreads``) and where they are not."""
    bench = BENCHMARKS[abbrev]
    pipe = bench.build(**bench.small_kwargs)
    inputs = random_inputs(pipe, np.random.default_rng(43))
    grouping = shaped(pipe, bench.h_manual(pipe), rows, step=11)
    expected = output_digests(execute_reference(pipe, inputs))
    for n in THREADS:
        for tier in KernelTier:
            out = execute_grouping(
                pipe, grouping, inputs, nthreads=n, kernels=tier,
            )
            assert output_digests(out) == expected, (n, tier)


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


@pytest.mark.parametrize(
    "tier", sorted(TIERS) + [KernelTier.NATIVE],
    ids=lambda t: TIERS.get(t, "native"),
)
def test_mid_run_failure_reseeds_to_the_runs_end(tier, monkeypatch):
    """One row of 12 tiles on 2 threads is two runs of 6, walked as three
    steps of 2 tiles each.  On NumPy kernels the middle step of the first
    run (tiles 2-3, keyed by its first tile) fails once: its retry
    re-seeds ``blurx`` from tile 2 to the end of the *first run*; no
    window of the first chunk reaches into the second chunk's tiles, and
    the output is still the fault-free one.  On native kernels the
    group's program checks one key per chunk: the second chunk's (from
    tile 6) fails, the program runs no C, and the group walks on the
    stage walk exactly as above — where tile 6's step fails once too and
    its retry seeds the second run as a fault-free walk would."""
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

    native = tier is KernelTier.NATIVE
    if native and not HAVE_GXX:
        pytest.skip("g++ not available")
    expected = output_digests(execute_reference(pipe, inputs))
    force_step_tiles(monkeypatch, 2)
    grouping_kernels(pipe, g.groups, tier)   # incl. a native self-check
    work = ComputedRegions(monkeypatch)
    programs = _count_calls(monkeypatch, native_mod._Program, "run")
    # "g0t3a0" is armed too: tile 3 is inside a step, not the start of
    # one, so no check is ever keyed by it; tiles 2 and 3 are inside a
    # native chunk.
    armed = {"g0t2a0", "g0t3a0"} | ({"g0t6a0"} if native else set())
    METRICS.reset(enabled=True)
    try:
        with inject_faults(FailFirstAttempt(armed)):
            out = execute_grouping(
                pipe, g, inputs, nthreads=2, tile_retries=1, kernels=tier,
            )
        assert METRICS.value("repro_tile_retries_total") == 1 + native
        assert METRICS.value(
            "repro_halo_reuse_invalidations_total"
        ) == 1 + native
        assert METRICS.value("repro_tiles_total") == 12
        assert METRICS.value("repro_tile_steps_total") == 6
    finally:
        METRICS.reset(enabled=False)
    assert output_digests(out) == expected
    assert len(programs) == native
    # six steps; each failed attempt died at the fault site, before its
    # kernel call
    assert work.take_calls() == 6
    windows = sorted(
        b[cdim] for name, b in work.take() if name == "blurx"
    )
    run1_end, run2_end = expanded(5)[1], expanded(11)[1]
    assert run1_end < run2_end
    assert windows == sorted([
        (expanded(0)[0], run1_end),   # first chunk's seed
        (expanded(2)[0], run1_end),   # re-seed after the failure
        (expanded(6)[0], run2_end),   # second chunk's seed
    ])


# ---------------------------------------------------------------------------
# steps: what a chunk actually walks
# ---------------------------------------------------------------------------


def _runs(chunk, cdim, cstep):
    """The chunk's maximal runs of tiles adjacent along ``cdim`` (each
    ``cstep`` past the previous, equal elsewhere) — derived here from the
    origins alone, not from the planner."""
    runs = []
    for item in chunk:
        lo = item[1]
        prev = runs[-1][-1][1] if runs else None
        if (
            cdim >= 0 and prev is not None
            and lo[cdim] == prev[cdim] + cstep
            and all(a == b for d, (a, b) in enumerate(zip(lo, prev))
                    if d != cdim)
        ):
            runs[-1].append(item)
        else:
            runs.append([item])
    return runs


@settings(max_examples=300, deadline=None)
@given(
    grid=st.lists(
        st.tuples(st.integers(-3, 5), st.integers(1, 45), st.integers(1, 50)),
        min_size=1, max_size=3,
    ),
    cdim=st.integers(-1, 2),
    nthreads=st.integers(1, 6),
    k=st.integers(1, 9),
)
def test_steps_partition_every_chunks_runs(grid, cdim, nthreads, k):
    """Random grids (tiles that do not divide the extent, tiles larger
    than it, single-tile rows), thread counts and step lengths: the steps
    of a chunk are its runs, in order, each run cut into ``ceil(len/k)``
    pieces no longer than ``k`` that differ by at most one tile — so no
    step crosses a run or a chunk boundary — and each carries its run's
    end; without a carry dimension every tile is its own step."""
    cdim = min(cdim, len(grid) - 1)
    dim_ranges = [range(lo, lo + ext, tile) for lo, ext, tile in grid]
    cstep = grid[cdim][2] if cdim >= 0 else 0
    tiles, row_len = _walk_tiles(dim_ranges, cdim)
    assert sorted(lo for _, lo in tiles) == sorted(
        itertools.product(*dim_ranges)
    )
    chunks = _chunk_tiles(tiles, nthreads, row_len=row_len)
    assert [t for chunk in chunks for t in chunk] == tiles
    for chunk in chunks:
        steps = _plan_steps(chunk, k, cdim, cstep)
        at = 0
        for run in _runs(chunk, cdim, cstep):
            pieces = -(-len(run) // k)
            lengths = []
            for index, lo, ntiles, run_end in steps[at:at + pieces]:
                assert (index, lo) == run[sum(lengths)]
                assert 1 <= ntiles <= k
                if cdim >= 0:
                    assert run_end == run[-1][1][cdim] + cstep
                lengths.append(ntiles)
            assert sum(lengths) == len(run)
            assert max(lengths) - min(lengths) <= 1
            at += pieces
        assert at == len(steps)
        if cdim < 0 or k == 1:
            assert [(i, lo) for i, lo, _, _ in steps] == chunk


@settings(max_examples=200, deadline=None)
@given(
    dims=st.lists(
        st.tuples(
            st.integers(1, 64),                       # tile size
            st.integers(1, 4), st.integers(1, 4),     # scale num / den
            st.integers(0, 5), st.integers(0, 5),     # left / right
            st.integers(1, 600),                      # domain extent
        ),
        min_size=1, max_size=3,
    ),
    budget=st.integers(1, 1 << 20),
    row_len=st.integers(1, 40),
)
def test_step_length_is_the_budget_over_one_tiles_points(
    dims, budget, row_len
):
    """``k = max(1, min(row, budget // points))`` where ``points`` is the
    expanded region of one interior tile of the biggest member, and
    ``k == 1`` without a carry dimension whatever the budget."""
    tile_sizes = [d[0] for d in dims]
    plan = [
        (g, num, den, left, right, 0, ext - 1)
        for g, (_, num, den, left, right, ext) in enumerate(dims)
    ]
    small = [(0, 1, 1, 0, 0, 0, 0)]
    points = math.prod(
        min(ext, math.ceil((t + left + right) * den / num))
        for t, num, den, left, right, ext in dims
    )
    with mock.patch.object(executor_mod, "_STEP_POINT_BUDGET", budget):
        k = _step_tiles([small, plan], tile_sizes, 0, row_len)
        assert k == max(1, min(row_len, budget // points))
        assert _step_tiles([small, plan], tile_sizes, -1, row_len) == 1


def _group_spans(node, out=None):
    out = [] if out is None else out
    if node["name"] == "group":
        out.append(node)
    for child in node["children"]:
        _group_spans(child, out)
    return out


def _traced_groups(pipe, grouping, inputs, **kwargs):
    TRACE.reset(enabled=True)
    try:
        execute_grouping(pipe, grouping, inputs, **kwargs)
        return _group_spans(TRACE.to_dict()["root"])
    finally:
        TRACE.reset(enabled=False)


@pytest.mark.parametrize("abbrev", sorted(BENCHMARKS))
def test_no_reuse_is_one_kernel_call_per_schedule_tile(abbrev, monkeypatch):
    """Where geometry leaves nothing to carry — every group on a
    one-tile grid (no carry dimension) — a walk is the paper's
    overlapped execution: every group's ``step_tiles`` is 1, its plan
    does not carry, and there are exactly as many kernel calls as the
    grouping has tiles."""
    bench = BENCHMARKS[abbrev]
    pipe = bench.build(**bench.small_kwargs)
    inputs = random_inputs(pipe, np.random.default_rng(46))
    grouping = bench.h_manual(pipe)
    whole = dataclasses.replace(grouping, tile_sizes=tuple(
        tuple(1 << 20 for _ in ts) for ts in grouping.tile_sizes
    ))
    work = ComputedRegions(monkeypatch)
    tiled = [
        span for span in _traced_groups(pipe, whole, inputs)
        if span["attrs"]["mode"] == "tiled"
    ]
    assert tiled
    for span in tiled:
        assert span["attrs"]["step_tiles"] == 1
        assert span["attrs"]["halo_reuse"] is False
        (chunk,) = span["children"]
        assert chunk["attrs"]["steps"] == chunk["attrs"]["tiles"] == 1
    assert work.take_calls() == len(tiled)


def _dp_grouping(abbrev, scale=0.1):
    bench, pipe = build_benchmark(abbrev, scale)
    grouping, _ = plan_schedule(
        pipe, bench, XEON_HASWELL, "dp", 2000, strict=False
    )
    return bench, pipe, grouping


@pytest.mark.native
@pytest.mark.parametrize("abbrev", ["BG", "CP", "HC"])
def test_no_kernel_stands_above_the_requested_tier(abbrev, monkeypatch):
    """The tier is a ceiling.  For both tiers, every group and every
    untiled reduction of the DP grouping: a native kernel only at
    ``NATIVE`` (whatever cannot be built runs on the stage walk), and at
    ``STAGE`` stage kernels are looked up but nothing native is built,
    at resolution or at execution.  Same digests under both."""
    _, pipe, grouping = _dp_grouping(abbrev)
    inputs = make_inputs(pipe, 1)
    expected = output_digests(execute_reference(pipe, inputs))
    called = set()
    for mod, name in (
        (kernelcache, "get_kernel"), (executor_mod, "get_kernel"),
        (native_mod, "build_group_kernels"),
    ):
        def spy(*args, _name=name, _real=getattr(mod, name)):
            called.add(_name)
            return _real(*args)

        monkeypatch.setattr(mod, name, spy)
    allowed = set()
    for tier, unlocks in zip(KernelTier, (
        "get_kernel", "build_group_kernels",
    )):
        clear_kernel_cache()
        called.clear()
        kernels = grouping_kernels(pipe, grouping.groups, tier)
        out = execute_grouping(pipe, grouping, inputs, kernels=tier)
        assert output_digests(out) == expected, tier
        for kernel in kernels:
            assert tier >= KernelTier.NATIVE or not kernel.native
        allowed.add(unlocks)
        assert unlocks in called, tier
        assert called <= allowed, tier
        if tier is KernelTier.NATIVE and HAVE_GXX:
            assert any(k.native for k in kernels)


def _assert_steps_are_unions(pipe, grouping):
    """For every stage of every group with a carry dimension and every
    span of 2, 3 or 5 adjacent tiles (and the whole row): the step's
    expanded region is the hull of the tiles' expanded regions and its
    base is their exact union — the bases tile it without gap or
    overlap."""
    checked = 0
    for members, tiles in zip(grouping.groups, grouping.tile_sizes):
        geom = compute_group_geometry(pipe, members)
        if geom is None:
            continue
        cdim = reuse_carry_dim(geom, tiles)
        if cdim < 0:
            continue
        radii = geom.expansion_radii()
        lo0, hi0 = geom.grid_bounds[cdim]
        origins = list(range(lo0, hi0 + 1, tiles[cdim]))
        corners = [
            (lo, range(lo, hi + 1, tiles[g])[-1])
            for g, (lo, hi) in enumerate(geom.grid_bounds)
        ]
        for stage in geom.stages:
            plan = _stage_plan(geom, stage, pipe, radii)
            axis = next(
                (j for j, ent in enumerate(plan) if ent[0] == cdim), None
            )
            for corner in (0, 1):
                tile_lo = [c[corner] for c in corners]
                for n in {2, 3, 5, len(origins)}:
                    sizes = list(tiles)
                    sizes[cdim] = n * tiles[cdim]
                    for first in range(0, len(origins) - n + 1):
                        tile_lo[cdim] = origins[first]
                        for expand in (True, False):
                            whole = _region_from_plan(
                                plan, tile_lo, sizes, expand
                            )
                            parts = []
                            for o in origins[first:first + n]:
                                lo = list(tile_lo)
                                lo[cdim] = o
                                part = _region_from_plan(
                                    plan, lo, tiles, expand
                                )
                                if part is not None:
                                    parts.append(part)
                            context = (stage.name, tile_lo, n, expand)
                            if not parts:
                                assert whole is None, context
                                continue
                            hull = [
                                (min(p[d][0] for p in parts),
                                 max(p[d][1] for p in parts))
                                for d in range(len(plan))
                            ]
                            assert whole == hull, context
                            if not expand and axis is not None:
                                # bases partition the step's base
                                for a, b in zip(parts, parts[1:]):
                                    assert b[axis][0] == a[axis][1] + 1
                                assert sum(map(_volume, parts)) == _volume(
                                    whole
                                ), context
                            checked += 1
    return checked


@pytest.mark.parametrize("abbrev", sorted(BENCHMARKS))
def test_step_regions_are_the_union_of_their_tiles(abbrev):
    """The integer arithmetic that makes consecutive tiles' bases
    partition a stage's domain makes a step's regions the union of its
    tiles' — on the DP schedule and on awkward 7- and 11-wide tiles,
    rational scales (UM / PB / MI / CP pyramids) included."""
    bench, pipe, grouping = _dp_grouping(abbrev)
    assert _assert_steps_are_unions(pipe, grouping) > 0
    for step in (7, 11):
        assert _assert_steps_are_unions(
            pipe, shaped(pipe, bench.h_manual(pipe), 2, step=step)
        ) > 0


@pytest.mark.parametrize("t", [1, 7, 17])
def test_step_regions_are_unions_on_a_rational_chain(t):
    pipe = build_updown(n=120)
    g = manual_grouping(pipe, [["fine", "down", "up"]], [[t]])
    assert _assert_steps_are_unions(pipe, g) > 0


def _grid_tiles(pipe, grouping):
    """Schedule tiles of the grouping's tiled groups, from the grid
    alone."""
    total = 0
    for members, tiles in zip(grouping.groups, grouping.tile_sizes):
        geom = compute_group_geometry(pipe, members)
        if geom is None or (
            len(members) == 1 and isinstance(next(iter(members)), Reduction)
        ):
            continue
        total += math.prod(
            -(-e // t) for e, t in zip(geom.grid_extents, tiles)
        )
    return total


@pytest.mark.parametrize("abbrev", ["BG", "CP"])
def test_steps_conserve_work_in_fewer_kernel_calls(abbrev, monkeypatch):
    """On the DP schedule at the benchmark's scale, at 1, 2 and 4
    threads: the budget's steps compute exactly the per-tile walk's
    region volume (``k = 1`` — what ran before steps), in as many kernel
    calls as ``repro_tile_steps_total`` says, which is fewer than the
    schedule has tiles; ``repro_tiles_total`` still counts schedule
    tiles."""
    _, pipe, grouping = _dp_grouping(abbrev)
    inputs = make_inputs(pipe, 1)
    tiles = _grid_tiles(pipe, grouping)
    work = ComputedRegions(monkeypatch)

    def run(n):
        METRICS.reset(enabled=True)
        try:
            execute_grouping(pipe, grouping, inputs, nthreads=n)
            assert METRICS.value("repro_tiles_total") == tiles
            steps = METRICS.value("repro_tile_steps_total")
            reused = METRICS.value("repro_halo_reuse_tiles_total")
        finally:
            METRICS.reset(enabled=False)
        assert work.take_calls() == steps
        return steps, reused, work.volume()

    for n in THREADS:
        with monkeypatch.context() as mp:
            unmemoised_walks(mp)
            mp.setattr(executor_mod, "_STEP_POINT_BUDGET", 1)
            per_tile = run(n)
        assert per_tile[0] == tiles
        steps, reused, volume = run(n)
        assert steps < tiles
        assert (reused, volume) == per_tile[1:]


def _count_calls(monkeypatch, owner, name):
    """Count ``owner.name`` calls (made from worker threads too)."""
    calls = []   # appended from worker threads; append is atomic
    real = getattr(owner, name)

    def counted(self, *args):
        calls.append(self)
        return real(self, *args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _walked_kernels(monkeypatch):
    """Whether each kernel the per-group walk runs a chunk on
    (``_walk_chunk``, from worker threads too) is native."""
    native = []   # appended from worker threads; append is atomic
    real = executor_mod._walk_chunk

    def walk(plan, chunk, kernel, *args):
        native.append(kernel.native)
        return real(plan, chunk, kernel, *args)

    monkeypatch.setattr(executor_mod, "_walk_chunk", walk)
    return native


@pytest.mark.native
@needs_gxx
@pytest.mark.parametrize("abbrev", ["BG", "CP", "PB"])
def test_one_native_call_per_chunk_when_warm(abbrev, monkeypatch):
    """``serve_large``'s pipelines at 1, 2 and 4 threads: once planned, a
    warm execution runs each segment of native groups as one program —
    one runner call on the walking thread and one per helper, no native
    chunk walked from Python, no region planned (``_region_from_plan``)
    — with one ``chunk`` span per chunk of every native group, as the
    per-group walk has; CP's NumPy ``curve`` runs first, by itself.  The
    digests are the reference's."""
    _, pipe, grouping = _dp_grouping(abbrev)
    inputs = make_inputs(pipe, 1)
    expected = output_digests(execute_reference(pipe, inputs))
    native = KernelTier.NATIVE
    kernels = grouping_kernels(pipe, grouping.groups, native)
    assert all(k.fn is None for k in kernels if k.tabulate is not None)
    for n in THREADS:
        execute_grouping(pipe, grouping, inputs, nthreads=n, kernels=native)

    def forbidden(*args, **kwargs):
        raise AssertionError("a warm walk re-planned a region")

    walked = _walked_kernels(monkeypatch)
    calls = _count_calls(monkeypatch, native_mod._Program, "call")
    monkeypatch.setattr(executor_mod, "_region_from_plan", forbidden)
    for n in THREADS:
        segments = executor_mod._segments(pipe, grouping, n, native)
        # CP's curve (pow) is NumPy: one segment of the other seven
        assert [
            (first, seg.stop) for first, seg in segments.items()
        ] == [(int(abbrev == "CP"), grouping.num_groups)]
        TRACE.reset(enabled=True)
        helpers = ThreadPoolExecutor(n)
        try:
            out = execute_grouping(
                pipe, grouping, inputs, nthreads=n, kernels=native,
                executor=helpers,
            )
            helpers.shutdown(wait=True)
            groups = _group_spans(TRACE.to_dict()["root"])
        finally:
            TRACE.reset(enabled=False)
        assert output_digests(out) == expected
        assert not any(walked)
        assert len(calls) == sum(
            min(n, seg.program.width) for seg in segments.values()
        ), (n, len(calls))
        assert {id(p) for p in calls} == {
            id(seg.program) for seg in segments.values()
        }
        chunks = [
            chunk for span in groups
            if span["attrs"]["mode"] == "tiled"
            and span["attrs"]["native"] is True
            for chunk in span["children"] if chunk["name"] == "chunk"
        ]
        assert len(chunks) == sum(
            len(executor_mod._walk_plan(
                pipe, compute_group_geometry(pipe, members), tiles, n, k,
            ).chunks)
            for members, tiles, k in zip(
                grouping.groups, grouping.tile_sizes, kernels
            )
            if k.native and k.tabulate is not None
        )
        if abbrev == "CP":
            # the curve ran before the segment that reads it
            assert groups[0]["attrs"]["native"] is False
            assert groups[0]["start_s"] + groups[0]["duration_s"] <= min(
                g["start_s"] for g in groups[1:]
            )
        calls.clear()


def _segment_case(abbrev, n):
    _, pipe, grouping = _dp_grouping(abbrev)
    inputs = make_inputs(pipe, 1)
    grouping_kernels(pipe, grouping.groups, KernelTier.NATIVE)
    return pipe, grouping, inputs, output_digests(
        execute_reference(pipe, inputs)
    )


@pytest.mark.native
@needs_gxx
@pytest.mark.parametrize("abbrev", ["CP", "BG"])
def test_a_helper_that_never_starts_leaves_the_work_to_the_walker(abbrev):
    """Helpers are submitted, never waited for: an executor that drops
    every program helper it is handed leaves the whole program to the
    walking thread, which completes the request with the reference's
    digests (CP's NumPy ``curve`` still walks its chunks on the pool)."""

    class Dropping:
        def __init__(self, n):
            self.pool = ThreadPoolExecutor(n)
            self.dropped = 0

        def submit(self, fn, *args):
            if getattr(fn, "__func__", None) is native_mod._Program.call:
                self.dropped += 1
                return None
            return self.pool.submit(fn, *args)

    pipe, grouping, inputs, expected = _segment_case(abbrev, 2)
    for n in (2, 4):
        dropping = Dropping(n)
        report = execute_guarded(
            pipe, grouping, inputs, nthreads=n, executor=dropping,
            policy=GuardPolicy(kernels=KernelTier.NATIVE),
        )
        dropping.pool.shutdown()
        assert output_digests(report.outputs) == expected
        assert dropping.dropped > 0
        assert not report.degraded


@pytest.mark.native
@needs_gxx
@pytest.mark.parametrize("n", [1, 2])
def test_a_runner_that_raises_falls_back_to_the_per_group_walk(
    n, monkeypatch
):
    """A program whose runner raises publishes nothing: the segment's
    groups run by themselves on the stage walk — NumPy kernels only,
    the outcomes a ``STAGE`` run has, none ``reference-fallback`` — and
    the digests are the reference's; the error is on the walk's span."""
    pipe, grouping, inputs, expected = _segment_case("BG", n)

    def broken(self, ctl, walker, keep=None):
        raise RuntimeError("runner broke")

    monkeypatch.setattr(native_mod._Program, "call", broken)
    published = []
    real_run = native_mod._Program.run

    def run(self, buffers, *args):
        before = set(buffers)
        try:
            return real_run(self, buffers, *args)
        finally:
            published.append(set(buffers) - before)

    monkeypatch.setattr(native_mod._Program, "run", run)
    walked = _walked_kernels(monkeypatch)
    TRACE.reset(enabled=True)
    try:
        report = execute_guarded(
            pipe, grouping, inputs, nthreads=n,
            policy=GuardPolicy(kernels=KernelTier.NATIVE),
        )
        (walk,) = [
            s for s in TRACE.to_dict()["root"]["children"]
            if s["name"] == "execute_guarded"
        ]
    finally:
        TRACE.reset(enabled=False)
    assert output_digests(report.outputs) == expected
    assert published == [set()]
    stage = execute_guarded(
        pipe, grouping, inputs, nthreads=n,
        policy=GuardPolicy(kernels=KernelTier.STAGE),
    )
    assert [o.mode for o in report.outcomes] == [
        o.mode for o in stage.outcomes
    ] == ["tiled", "untiled", "tiled", "tiled"]
    assert walked and not any(walked)
    assert "runner broke" in walk["attrs"]["program_error"]


@pytest.mark.native
@needs_gxx
@pytest.mark.parametrize("abbrev", ["BG", "CP", "PB"])
def test_program_counts_what_the_per_group_walk_counts(abbrev):
    """The tile, step and halo-reuse counters a program adds from plan
    constants are what the per-group walk counts for a plan: the stage
    walk's counters (``STAGE``) are its groups' planned steps, the
    program's (``NATIVE``) its groups' — both count every tile once —
    and ``repro_group_seconds`` has one observation per group, labelled
    by its index, on both paths."""
    pipe, grouping, inputs, _ = _segment_case(abbrev, 2)
    names = (
        "repro_tiles_total", "repro_tile_steps_total",
        "repro_halo_reuse_tiles_total",
        "repro_halo_reuse_saved_points_total",
    )
    totals = []
    for tier in (KernelTier.STAGE, KernelTier.NATIVE):
        METRICS.reset(enabled=True)
        try:
            execute_grouping(
                pipe, grouping, inputs, nthreads=2, kernels=tier,
            )
            counted = [METRICS.value(name) or 0 for name in names]
            for gi in range(grouping.num_groups):
                count, _ = METRICS.value(
                    "repro_group_seconds", pipeline=pipe.name, group=str(gi)
                )
                assert count == 1, (tier, gi)
        finally:
            METRICS.reset(enabled=False)
        planned = [0] * len(names)
        for members, tiles in zip(grouping.groups, grouping.tile_sizes):
            geom = executor_mod._tiled_geometry(pipe, members)
            if geom is None:
                continue
            kernel = executor_mod.resolve_group_kernel(pipe, geom, tier)
            plan = executor_mod._walk_plan(pipe, geom, tiles, 2, kernel)
            for chunk in plan.chunks:
                for step in chunk.steps:
                    for i, v in enumerate(
                        (step.ntiles, 1, step.reused, step.saved)
                    ):
                        planned[i] += v
        assert counted == planned, tier
        totals.append(counted)
    assert totals[0][0] == totals[1][0] > 0


@pytest.mark.native
@needs_gxx
@pytest.mark.parametrize("abbrev", ["CP", "BG"])
def test_faults_run_on_the_path_that_serves(abbrev, monkeypatch):
    """An armed injector does not switch the program off.  Armed but
    silent, every segment still runs as one program, checked once per
    op — the ``tile`` checks are the programs' ops and CP's NumPy
    ``curve``'s steps.  One op's key failing makes the program run no C
    and its segment walk group by group on the stage walk, where the key
    fails once more and is retried: the outcomes a ``STAGE`` run has,
    none ``reference-fallback``, and the reference's digests."""
    pipe, grouping, inputs, expected = _segment_case(abbrev, 2)
    native = KernelTier.NATIVE
    calls = _count_calls(monkeypatch, native_mod._Program, "call")
    walked = _walked_kernels(monkeypatch)
    for n in (1, 2):
        segments = executor_mod._segments(pipe, grouping, n, native)
        assert segments
        numpy_steps = 0   # of the groups no program runs: CP's curve
        for gi, (members, tiles) in enumerate(
            zip(grouping.groups, grouping.tile_sizes)
        ):
            if any(s.first <= gi < s.stop for s in segments.values()):
                continue
            geom = compute_group_geometry(pipe, members)
            kernel = executor_mod.resolve_group_kernel(pipe, geom, native)
            plan = executor_mod._walk_plan(pipe, geom, tiles, n, kernel)
            numpy_steps += sum(len(c.steps) for c in plan.chunks)
        assert (numpy_steps > 0) == (abbrev == "CP")
        helpers = ThreadPoolExecutor(n)
        with inject_faults(
            seed=5, tile=FaultSpec(rate=1.0, max_failures=0)
        ) as silent:
            report = execute_guarded(
                pipe, grouping, inputs, nthreads=n, executor=helpers,
                policy=GuardPolicy(kernels=native),
            )
        helpers.shutdown(wait=True)   # every helper has called
        assert output_digests(report.outputs) == expected
        assert len(calls) == sum(
            min(n, seg.program.width) for seg in segments.values()
        ), n
        ops = sum(len(seg.program.sites) for seg in segments.values())
        assert silent.counts["tile"].checks == ops + numpy_steps
        assert silent.counts["tile"].failures == 0
        calls.clear()

        stage = execute_guarded(
            pipe, grouping, inputs, nthreads=n,
            policy=GuardPolicy(kernels=KernelTier.STAGE),
        )
        (seg,) = segments.values()
        site = seg.program.sites[len(seg.program.sites) // 2]
        walked.clear()
        with inject_faults(FailFirstAttempt({site})):
            report = execute_guarded(
                pipe, grouping, inputs, nthreads=n,
                policy=GuardPolicy(kernels=native),
            )
        assert not calls
        assert walked and not any(walked)
        assert [o.mode for o in report.outcomes] == [
            o.mode for o in stage.outcomes
        ]
        assert not report.degraded
        assert output_digests(report.outputs) == expected


@pytest.mark.native
def test_walk_plans_die_with_their_pipeline():
    """The plan memo keeps nothing alive: once a pipeline and its
    grouping are gone so are their walk plans, native step tables
    included, and cold one-shot runs cannot accumulate them."""

    def one_shot():
        _, pipe, grouping = _dp_grouping("CP")
        grouping_kernels(pipe, grouping.groups, KernelTier.NATIVE)
        execute_grouping(
            pipe, grouping, make_inputs(pipe, 1), nthreads=2,
            kernels=KernelTier.NATIVE,
        )
        plans = [
            plan
            for members in grouping.groups
            for plan in compute_group_geometry(
                pipe, members
            )._stage_plan_cache.values()
            if isinstance(plan, executor_mod._WalkPlan)
        ]
        assert len(plans) == grouping.num_groups
        return [weakref.ref(plan) for plan in plans]

    refs = one_shot()
    gc.collect()
    assert [r() for r in refs] == [None] * len(refs)


@pytest.mark.parametrize("rate", [1.0, 0.3])
def test_tile_faults_on_steps_match_reference(rate):
    """100 % and 30 % ``tile`` faults on CP's DP schedule, where the
    budget merges tiles: the guard degrades what fails and the digests
    are the reference's; the fault site fires once per step attempt."""
    _, pipe, grouping = _dp_grouping("CP")
    inputs = make_inputs(pipe, 1)
    expected = output_digests(execute_reference(pipe, inputs))
    tiles = _grid_tiles(pipe, grouping)
    METRICS.reset(enabled=True)
    try:
        # armed but never firing: one check per step of a clean run
        with inject_faults(
            seed=5, tile=FaultSpec(rate=1.0, max_failures=0)
        ) as clean:
            execute_grouping(pipe, grouping, inputs, nthreads=2)
        steps = METRICS.value("repro_tile_steps_total")
    finally:
        METRICS.reset(enabled=False)
    assert clean.counts["tile"].checks == steps < tiles
    for n in (1, 2):
        with inject_faults(seed=5, tile=rate) as injector:
            report = execute_guarded(
                pipe, grouping, inputs, nthreads=n,
                policy=GuardPolicy(tile_retries=1, degrade=True),
            )
        assert output_digests(report.outputs) == expected
        stats = injector.counts["tile"]
        if rate == 1.0:
            assert not any(o.mode == "tiled" for o in report.outcomes)
            assert stats.checks == stats.failures
        else:
            assert 0 < stats.failures < stats.checks
        if n == 1:
            # serial: retries never exceed one per step, and a group
            # stops at the first step that fails twice
            assert stats.checks <= 2 * steps


def test_nonretryable_error_inside_a_step_fails_on_first_attempt(monkeypatch):
    """A deterministic failure in the second step of a run of 2-tile
    steps surfaces ``TILE_FAIL`` naming the step's first tile, its origin
    and tile count, with ``attempts == 1``."""
    pipe = build_blur(rows=46, cols=94)
    inputs = random_inputs(pipe, np.random.default_rng(47))
    g = manual_grouping(pipe, [["blurx", "blury"]], [[3, 4096, 8]])
    force_step_tiles(monkeypatch, 2)
    real_resolve = executor_mod.resolve_group_kernel
    calls = []

    def resolve(pipeline, geom, kernels):
        kernel = real_resolve(pipeline, geom, kernels)

        def fn(*args):
            calls.append(1)
            if len(calls) == 2:
                raise KeyError("buffer 'gone' not found")
            return kernel.fn(*args)

        return dataclasses.replace(kernel, fn=fn)

    monkeypatch.setattr(executor_mod, "resolve_group_kernel", resolve)
    with pytest.raises(TileExecutionError) as exc_info:
        execute_grouping(pipe, g, inputs, tile_retries=5)
    exc = exc_info.value
    assert len(calls) == 2
    assert exc.tile_index == 2
    assert exc.tile_origin[reuse_carry_dim(
        compute_group_geometry(pipe, pipe.stages), (3, 4096, 8)
    )] > 0
    assert exc.context["step_tiles"] == 2
    assert exc.context["attempts"] == 1
    assert exc.context["retryable"] is False


def test_failed_chunk_still_reports_its_completed_steps(monkeypatch):
    """A chunk that ends in ``TILE_FAIL`` flushes what it did: the tiles
    and steps completed before the failing step, their halo reuse and
    their pool traffic (all dropped before, when the flush sat after the
    chunk's ``with`` block)."""
    pipe = build_blur(rows=96, cols=94)
    inputs = random_inputs(pipe, np.random.default_rng(48))
    g = manual_grouping(pipe, [["blurx", "blury"]], [[3, 16, 16]])
    force_step_tiles(monkeypatch, 2)   # 6 rows x 3 steps of 2 tiles
    METRICS.reset(enabled=True)
    try:
        with inject_faults(FailFirstAttempt({"g0t34a0"})):
            with pytest.raises(TileExecutionError) as exc_info:
                execute_grouping(pipe, g, inputs)
        assert exc_info.value.tile_index == 34
        assert exc_info.value.context["step_tiles"] == 2
        assert METRICS.value("repro_tiles_total") == 34
        assert METRICS.value("repro_tile_steps_total") == 17
        # five whole rows (5 each) + the last row's seed step (1) and
        # middle step (2)
        assert METRICS.value("repro_halo_reuse_tiles_total") == 28
        acquired = (
            (METRICS.value("repro_pool_acquires_total", result="reused")
             or 0)
            + METRICS.value("repro_pool_acquires_total", result="allocated")
        )
        assert acquired > 0
        assert METRICS.value("repro_pool_reclaims_total") == acquired
        assert METRICS.value(
            "repro_tile_failures_total", code="FAULT_INJECTED"
        ) == 1
    finally:
        METRICS.reset(enabled=False)


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
    report = host.execute(make_inputs(host.pipeline, seed))
    assert not report.degraded
    assert output_digests(report.outputs) == expected

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
