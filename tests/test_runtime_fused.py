"""Fused-group kernel tests: generated fused source (one kernel per
group) must be bit-identical to the stage-walking adapter over compiled
stage kernels and over the interpreter for every benchmark pipeline, at
awkward extents, and under 100% fault injection; fusion failure must
degrade to per-stage kernels with exactly one ``KERNEL_FUSE_FAIL``
warning; and all three kernel sources obey one protocol."""

import warnings

import numpy as np
import pytest

from repro.errors import is_retryable
from repro.fusion import manual_grouping
from repro.pipelines import BENCHMARKS
from repro.poly.alignscale import compute_group_geometry
from repro.resilience import GuardPolicy, execute_guarded, inject_faults
from repro.runtime import (
    Buffer,
    BufferPool,
    ExecOptions,
    KernelFuseWarning,
    KernelTier,
    clear_kernel_cache,
    execute_grouping,
    execute_reference,
    get_group_kernel,
    warm_group_kernels,
)
from repro.runtime import kernelcache as kc_mod
from repro.runtime.executor import (
    _region_from_plan,
    _stage_plan,
    resolve_group_kernel,
)

NO_FUSE = ExecOptions(KernelTier.STAGE)
INTERPRETED = ExecOptions(KernelTier.INTERPRET)

from conftest import build_blur, build_updown, random_inputs


def assert_bit_identical(ref, out):
    assert set(ref) == set(out)
    for k in sorted(ref):
        assert ref[k].dtype == out[k].dtype, k
        np.testing.assert_array_equal(ref[k], out[k], err_msg=k)


def three_way(pipeline, grouping, inputs, nthreads=1):
    """(fused, per-stage, interpreter) outputs of one grouping."""
    fused = execute_grouping(pipeline, grouping, inputs, nthreads=nthreads)
    staged = execute_grouping(pipeline, grouping, inputs,
                              nthreads=nthreads, options=NO_FUSE)
    interp = execute_grouping(pipeline, grouping, inputs,
                              nthreads=nthreads, options=INTERPRETED)
    return fused, staged, interp


def group_kernel_for(pipeline, members):
    geom = compute_group_geometry(pipeline, members)
    assert geom is not None
    return get_group_kernel(pipeline, geom)


# ---------------------------------------------------------------------------
# bit-identity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("abbrev", sorted(BENCHMARKS))
def test_benchmarks_bit_identical(abbrev):
    """Fused == per-stage == interpreter, exactly, on every registered
    benchmark at its paper (manual) grouping."""
    bench = BENCHMARKS[abbrev]
    pipe = bench.build(**bench.small_kwargs)
    rng = np.random.default_rng(11)
    inputs = random_inputs(pipe, rng)
    grouping = bench.h_manual(pipe)
    fused, staged, interp = three_way(pipe, grouping, inputs, nthreads=2)
    assert_bit_identical(interp, staged)
    assert_bit_identical(interp, fused)


@pytest.mark.parametrize("tiles", [[3, 32, 32], [2, 13, 29], [1, 1, 1],
                                   [64, 4096, 4096]])
def test_blur_awkward_tiles(tiles):
    """Tile sizes that do not divide the extent, tiles narrower than the
    stencil overlap, and tiles wider than the whole domain."""
    pipe = build_blur(rows=46, cols=62)
    inputs = random_inputs(pipe, np.random.default_rng(3))
    g = manual_grouping(pipe, [["blurx", "blury"]], [tiles])
    fused, staged, interp = three_way(pipe, g, inputs)
    assert_bit_identical(interp, staged)
    assert_bit_identical(interp, fused)


@pytest.mark.parametrize("tiles", [[17], [1], [64], [200]])
def test_updown_awkward_tiles(tiles):
    """Sampled (scale != 1) chains with inlining at awkward tiles."""
    pipe = build_updown(n=120)
    inputs = random_inputs(pipe, np.random.default_rng(4))
    g = manual_grouping(pipe, [["fine", "down", "up"]], [tiles])
    fused, staged, interp = three_way(pipe, g, inputs)
    assert_bit_identical(interp, staged)
    assert_bit_identical(interp, fused)


def test_parallel_execution_bit_identical():
    pipe = build_blur(rows=46, cols=62)
    inputs = random_inputs(pipe, np.random.default_rng(5))
    g = manual_grouping(pipe, [["blurx", "blury"]], [[2, 13, 29]])
    serial = execute_grouping(pipe, g, inputs)
    parallel = execute_grouping(pipe, g, inputs, nthreads=4)
    assert_bit_identical(serial, parallel)


# ---------------------------------------------------------------------------
# fault injection
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("abbrev", sorted(BENCHMARKS))
def test_full_tile_faults_still_bit_identical(abbrev):
    """100% tile failure forces the reference fallback in both the fused
    and the per-stage configuration; output stays identical to the
    interpreter either way."""
    bench = BENCHMARKS[abbrev]
    pipe = bench.build(**bench.small_kwargs)
    inputs = random_inputs(pipe, np.random.default_rng(12))
    grouping = bench.h_manual(pipe)
    ref = execute_reference(pipe, inputs)
    for options in (ExecOptions(), NO_FUSE):
        with inject_faults(seed=9, tile=1.0):
            report = execute_guarded(
                pipe, grouping, inputs, nthreads=2,
                policy=GuardPolicy(tile_retries=1, degrade=True,
                                   options=options),
            )
        assert not any(o.mode == "tiled" for o in report.outcomes)
        assert_bit_identical(ref, report.outputs)


def test_retry_after_partial_faults_bit_identical():
    """A fused tile that fails retries exactly like a per-stage tile and
    converges to the same bits."""
    pipe = build_blur(rows=46, cols=62)
    inputs = random_inputs(pipe, np.random.default_rng(13))
    g = manual_grouping(pipe, [["blurx", "blury"]], [[3, 16, 16]])
    ref = execute_grouping(pipe, g, inputs, options=INTERPRETED)
    with inject_faults(seed=21, tile=0.5):
        out = execute_grouping(pipe, g, inputs, tile_retries=4)
    assert_bit_identical(ref, out)


# ---------------------------------------------------------------------------
# degradation ladder
# ---------------------------------------------------------------------------


def test_fuse_failure_degrades_to_per_stage_kernels(monkeypatch):
    """A group whose fusion fails runs on per-stage compiled kernels (not
    the interpreter), warns KERNEL_FUSE_FAIL exactly once, and stays
    silent on subsequent executions (memoized failure)."""
    clear_kernel_cache()
    pipe = build_blur(rows=46, cols=62)
    inputs = random_inputs(pipe, np.random.default_rng(6))
    g = manual_grouping(pipe, [["blurx", "blury"]], [[3, 16, 16]])
    ref = execute_grouping(pipe, g, inputs, options=INTERPRETED)

    def boom(pipeline, geom):
        raise kc_mod.KernelFuseError("synthetic failure", reason="error")

    monkeypatch.setattr(kc_mod, "compile_group_kernel", boom)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = execute_grouping(pipe, g, inputs)
    fuse_warnings = [w for w in caught
                     if issubclass(w.category, KernelFuseWarning)]
    assert len(fuse_warnings) == 1
    assert "KERNEL_FUSE_FAIL" in str(fuse_warnings[0].message)
    assert_bit_identical(ref, out)

    # memoized: the second run does not warn again
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out2 = execute_grouping(pipe, g, inputs)
    assert not [w for w in caught
                if issubclass(w.category, KernelFuseWarning)]
    assert_bit_identical(ref, out2)
    clear_kernel_cache()


# ---------------------------------------------------------------------------
# one kernel protocol
# ---------------------------------------------------------------------------

#: the three sources of a ``GroupKernel``
SOURCES = {
    "generated": ExecOptions(),
    "stage-kernels": NO_FUSE,
    "interpreted": INTERPRETED,
}


class _Tile:
    """One group's kernel plus what the executor hands it per tile."""

    def __init__(self, pipe, options, tiles):
        self.pipe = pipe
        self.tiles = tiles
        self.geom = compute_group_geometry(pipe, pipe.stages)
        self.kernel = resolve_group_kernel(pipe, self.geom, options)
        radii = self.geom.expansion_radii()
        self.plans = {
            s.name: _stage_plan(self.geom, s, pipe, radii)
            for s in self.geom.stages
        }
        self.inputs = random_inputs(pipe, np.random.default_rng(8))
        self.reference = execute_reference(pipe, self.inputs, keep_all=True)

    def buffers(self):
        buffers = {
            img.name: Buffer(
                self.inputs[img.name],
                (0,) * self.inputs[img.name].ndim,
            )
            for img in self.pipe.images
        }
        out_buffers = {
            s.name: Buffer.for_region(
                self.pipe.domain(s), s.scalar_type.np_dtype
            )
            for s in self.geom.liveouts
        }
        for buf in out_buffers.values():
            buf.data.fill(-1)
        return buffers, out_buffers

    def bounds(self, names, tile_lo, expand):
        return [
            _region_from_plan(self.plans[n], tile_lo, self.tiles, expand)
            for n in names
        ]

    def window(self, name, bounds):
        """The reference values of ``name`` over ``bounds``."""
        dom = self.pipe.domain(self.pipe.stage_by_name(name))
        index = tuple(
            slice(lo - d[0], hi - d[0] + 1)
            for (lo, hi), d in zip(bounds, dom)
        )
        return self.reference[name][index]


@pytest.mark.parametrize("source", sorted(SOURCES))
def test_group_kernel_protocol(source):
    """Generated fused source, the adapter over stage kernels and the
    adapter over the interpreter answer one call the same way: returned
    buffers follow ``region_names``; a pure-carry slot (``regions[i] is
    None`` + ``carries[i]``) skips the stage body and re-exposes the
    window; live-outs still publish their base tile; a member whose
    producer's region was empty raises the non-retryable ``KeyError``."""
    clear_kernel_cache()
    tile = _Tile(build_blur(rows=46, cols=62), SOURCES[source], (3, 16, 16))
    kernel = tile.kernel
    assert kernel.generated == (source == "generated")
    assert kernel.liveout_names == ("blury",)
    assert set(kernel.region_names) | set(kernel.inlined) == {
        "blurx", "blury"
    }
    if not kernel.generated:
        assert kernel.region_names == kernel.group_names
        assert kernel.inlined == kernel.direct_stores == ()
    x = kernel.region_names.index("blurx")
    tile_lo = (0, 16, 16)
    regions = tile.bounds(kernel.region_names, tile_lo, True)
    bases = tile.bounds(kernel.liveout_names, tile_lo, False)
    no_carries = (None,) * len(regions)
    pool = BufferPool()

    # a plain tile: one buffer per region slot, in region_names order,
    # each holding the reference values of its window
    buffers, out = tile.buffers()
    results = kernel.fn(regions, bases, buffers, out, pool, no_carries)
    assert len(results) == len(kernel.region_names)
    for name, bounds, buf in zip(kernel.region_names, regions, results):
        assert buf.origin == tuple(lo for lo, _ in bounds)
        np.testing.assert_array_equal(buf.data, tile.window(name, bounds))
    np.testing.assert_array_equal(
        out["blury"].read_region(bases[0]), tile.window("blury", bases[0])
    )
    blurx_window = results[x].data.copy()

    # pure carry of blurx: its body is skipped (the marked window comes
    # back untouched and is what blury reads), the live-out still lands
    marked = blurx_window + 1
    called = list(regions)
    called[x] = None
    carries = list(no_carries)
    carries[x] = (marked, results[x].origin)
    buffers, out = tile.buffers()
    carried = kernel.fn(called, bases, buffers, out, pool, carries)
    assert carried[x].data is marked
    np.testing.assert_array_equal(marked, blurx_window + 1)
    published = out["blury"].read_region(bases[0])
    assert not (published == -1).any()
    assert not np.array_equal(published, tile.window("blury", bases[0]))

    # an empty slot with no carry: the consumer finds no producer
    buffers, out = tile.buffers()
    with pytest.raises(KeyError) as exc_info:
        kernel.fn(called, bases, buffers, out, pool, no_carries)
    assert not is_retryable(exc_info.value)
    assert (out["blury"].data == -1).all()


# ---------------------------------------------------------------------------
# compilation decisions
# ---------------------------------------------------------------------------


def test_blur_materializes_blurx_and_stores_direct():
    """blurx feeds 3 taps of blury: above the multi-use inline budget, so
    it goes through scratch; blury (radius 0, scale 1 liveout) is written
    straight into the output buffer."""
    pipe = build_blur(rows=46, cols=62)
    gk = group_kernel_for(pipe, [s for s in pipe.stages])
    assert gk is not None
    assert "blurx" not in gk.inlined
    assert "blurx" in gk.region_names
    assert gk.liveout_names == ("blury",)
    assert "blury" in gk.direct_stores


def test_updown_inlines_fine():
    """fine is a 2-op pointwise producer read twice by down: inlined, so
    the fused kernel never materializes it."""
    pipe = build_updown(n=120)
    gk = group_kernel_for(pipe, [s for s in pipe.stages])
    assert gk is not None
    assert "fine" in gk.inlined
    assert "fine" not in gk.region_names


#: sha256[:16] over the generated source of every stage kernel, then of
#: every fused kernel of the DP grouping, per benchmark at scale 0.1 —
#: recorded before the three store epilogues became one emitter.
SOURCE_HASHES = {
    "BG": "d9e8ec3026471448",
    "CP": "18bb4b6706280ed7",
    "HC": "7ff764347b6eda0a",
    "MI": "cd113c093899368a",
    "PB": "90d3e7c8f2e3e6fb",
    "UM": "f4bc653e57dee3ca",
}


@pytest.mark.parametrize("abbrev", sorted(SOURCE_HASHES))
def test_generated_source_is_byte_identical(abbrev):
    """The store epilogue has one emitter; what it emits for each
    destination (caller ``out``, output-buffer view, pooled scratch) is
    byte for byte what the three hand-written copies emitted."""
    import hashlib

    from repro.model.machine import XEON_HASWELL
    from repro.planner import build_benchmark, plan_schedule
    from repro.runtime import stage_kernels

    bench, pipe = build_benchmark(abbrev, 0.1)
    grouping, _ = plan_schedule(
        pipe, bench, XEON_HASWELL, "dp", 1_200_000, strict=False
    )
    digest = hashlib.sha256()
    kernels = stage_kernels(pipe)
    for name in sorted(kernels):
        digest.update(kernels[name].source.encode())
    fused = warm_group_kernels(pipe, grouping.groups)
    for key in sorted(fused, key=sorted):
        digest.update(fused[key].source.encode())
    assert digest.hexdigest()[:16] == SOURCE_HASHES[abbrev]


def test_generated_source_is_inspectable():
    pipe = build_blur(rows=46, cols=62)
    gk = group_kernel_for(pipe, [s for s in pipe.stages])
    assert "def _group_kernel" in gk.source
    assert "blurx" in gk.source


# ---------------------------------------------------------------------------
# serving
# ---------------------------------------------------------------------------


def test_warm_group_kernels_compiles_multistage_groups():
    pipe = build_blur(rows=46, cols=62)
    g = manual_grouping(pipe, [["blurx", "blury"]], [[3, 16, 16]])
    warmed = warm_group_kernels(pipe, g.groups)
    assert frozenset({"blurx", "blury"}) in {
        frozenset(k) for k in warmed
    }
    assert warm_group_kernels(pipe, g.groups, NO_FUSE) == {}
    assert warm_group_kernels(pipe, g.groups, INTERPRETED) == {}


def test_host_fused_vs_unfused_bit_identical(monkeypatch):
    """A warm host with fusion on serves the same bits as one warmed
    under ``REPRO_KERNELS=stage`` (per-stage kernels only)."""
    from repro.planner import make_inputs
    from repro.serve import HostConfig
    from repro.serve.host import PipelineHost

    inputs = None
    outs = {}
    for fuse in (True, False):
        tier = KernelTier.FUSED if fuse else KernelTier.STAGE
        monkeypatch.setenv("REPRO_KERNELS", tier.name.lower())
        host = PipelineHost("UM", HostConfig(scale=0.05, threads=2)).warm()
        assert host.options == ExecOptions(tier)
        if inputs is None:
            inputs = make_inputs(host.pipeline, 123)
        outputs, report, tier = host.execute(inputs)
        assert tier == "compiled"
        outs[fuse] = outputs
    assert_bit_identical(outs[False], outs[True])
