"""Fusion-group execution on the NumPy group kernel: the stage-walking
adapter over compiled stage kernels must be bit-identical to the
reference for every benchmark pipeline, at awkward extents, and under
100% fault injection; it obeys the one ``GroupKernel`` protocol;
:func:`plan_group` makes the inlining and direct-store decisions native
kernels are printed from; and the stage kernels' generated source is
pinned byte for byte."""

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
    KernelTier,
    clear_kernel_cache,
    execute_grouping,
    execute_reference,
    warm_group_kernels,
)
from repro.runtime.kernelcache import get_kernel, plan_group
from repro.runtime.executor import (
    _region_from_plan,
    _stage_plan,
    resolve_group_kernel,
)

NO_FUSE = KernelTier.STAGE

from conftest import build_blur, build_updown, needs_gxx, random_inputs


def assert_bit_identical(ref, out):
    assert set(ref) == set(out)
    for k in sorted(ref):
        assert ref[k].dtype == out[k].dtype, k
        np.testing.assert_array_equal(ref[k], out[k], err_msg=k)


def both(pipeline, grouping, inputs, nthreads=1):
    """(reference, per-stage) outputs of one grouping."""
    ref = execute_reference(pipeline, inputs)
    staged = execute_grouping(pipeline, grouping, inputs,
                              nthreads=nthreads, kernels=NO_FUSE)
    return ref, staged


def group_plan_for(pipeline, members):
    geom = compute_group_geometry(pipeline, members)
    assert geom is not None
    return geom, plan_group(pipeline, geom)


# ---------------------------------------------------------------------------
# bit-identity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("abbrev", sorted(BENCHMARKS))
def test_benchmarks_bit_identical(abbrev):
    """Per-stage == reference, exactly, on every registered benchmark at
    its paper (manual) grouping."""
    bench = BENCHMARKS[abbrev]
    pipe = bench.build(**bench.small_kwargs)
    rng = np.random.default_rng(11)
    inputs = random_inputs(pipe, rng)
    grouping = bench.h_manual(pipe)
    assert_bit_identical(*both(pipe, grouping, inputs, nthreads=2))


@pytest.mark.parametrize("tiles", [[3, 32, 32], [2, 13, 29], [1, 1, 1],
                                   [64, 4096, 4096]])
def test_blur_awkward_tiles(tiles):
    """Tile sizes that do not divide the extent, tiles narrower than the
    stencil overlap, and tiles wider than the whole domain."""
    pipe = build_blur(rows=46, cols=62)
    inputs = random_inputs(pipe, np.random.default_rng(3))
    g = manual_grouping(pipe, [["blurx", "blury"]], [tiles])
    assert_bit_identical(*both(pipe, g, inputs))


@pytest.mark.parametrize("tiles", [[17], [1], [64], [200]])
def test_updown_awkward_tiles(tiles):
    """Sampled (scale != 1) chains at awkward tiles."""
    pipe = build_updown(n=120)
    inputs = random_inputs(pipe, np.random.default_rng(4))
    g = manual_grouping(pipe, [["fine", "down", "up"]], [tiles])
    assert_bit_identical(*both(pipe, g, inputs))


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
    """100% tile failure forces the reference fallback of every tiled
    group; output stays identical to the reference."""
    bench = BENCHMARKS[abbrev]
    pipe = bench.build(**bench.small_kwargs)
    inputs = random_inputs(pipe, np.random.default_rng(12))
    grouping = bench.h_manual(pipe)
    ref = execute_reference(pipe, inputs)
    with inject_faults(seed=9, tile=1.0):
        report = execute_guarded(
            pipe, grouping, inputs, nthreads=2,
            policy=GuardPolicy(tile_retries=1, degrade=True,
                               kernels=NO_FUSE),
        )
    assert not any(o.mode == "tiled" for o in report.outcomes)
    assert_bit_identical(ref, report.outputs)


def test_retry_after_partial_faults_bit_identical():
    """A step of a multi-stage group that fails retries and converges
    to the reference's bits."""
    pipe = build_blur(rows=46, cols=62)
    inputs = random_inputs(pipe, np.random.default_rng(13))
    g = manual_grouping(pipe, [["blurx", "blury"]], [[3, 16, 16]])
    ref = execute_reference(pipe, inputs)
    with inject_faults(seed=21, tile=0.5):
        out = execute_grouping(pipe, g, inputs, tile_retries=4)
    assert_bit_identical(ref, out)


# ---------------------------------------------------------------------------
# one kernel protocol
# ---------------------------------------------------------------------------

#: the NumPy source of a ``GroupKernel`` (native kernels run step
#: tables, not per-step calls: test_runtime_native.py)
SOURCES = {
    "stage-kernels": NO_FUSE,
}


class _Tile:
    """One group's kernel plus what the executor hands it per tile."""

    def __init__(self, pipe, kernels, tiles):
        self.pipe = pipe
        self.tiles = tiles
        self.geom = compute_group_geometry(pipe, pipe.stages)
        self.kernel = resolve_group_kernel(pipe, self.geom, kernels)
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
    """The adapter over stage kernels answers one call: returned buffers
    follow ``region_names`` (every member, none inlined or stored
    direct); a pure-carry slot (``regions[i] is None`` + ``carries[i]``)
    skips the stage body and re-exposes the window; live-outs still
    publish their base tile; a member whose producer's region was empty
    raises the non-retryable ``KeyError``."""
    clear_kernel_cache()
    tile = _Tile(build_blur(rows=46, cols=62), SOURCES[source], (3, 16, 16))
    kernel = tile.kernel
    assert kernel.liveout_names == ("blury",)
    assert kernel.region_names == kernel.group_names == ("blurx", "blury")
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
# group plans: what native kernels are printed from
# ---------------------------------------------------------------------------


def test_blur_materializes_blurx_and_stores_direct():
    """blurx feeds 3 taps of blury: above the multi-use inline budget, so
    it goes through scratch; blury (radius 0, scale 1 liveout) is written
    straight into the output buffer."""
    pipe = build_blur(rows=46, cols=62)
    geom, plan = group_plan_for(pipe, [s for s in pipe.stages])
    assert "blurx" not in plan.inlined
    assert "blurx" in plan.region_names
    assert [s.name for s in geom.liveouts] == ["blury"]
    assert "blury" in plan.direct_stores


def test_updown_inlines_fine():
    """fine is a 2-op pointwise producer read twice by down: inlined, so
    the native kernel never materializes it."""
    pipe = build_updown(n=120)
    _, plan = group_plan_for(pipe, [s for s in pipe.stages])
    assert "fine" in plan.inlined
    assert "fine" not in plan.region_names


#: sha256[:16] over the generated source of every stage kernel, per
#: benchmark at scale 0.1 — recorded with the lowerer's fused-group modes
#: (prefixed names, region-tuple grids, view and pooled stores) still in
#: place, so the pruned lowerer is pinned to emit every stage kernel
#: unchanged.
SOURCE_HASHES = {
    "BG": "f74dd07eedf3ab76",
    "CP": "b572d0e32a058d89",
    "HC": "8e7196aac0c2104e",
    "MI": "a0ebee5ab75209ec",
    "PB": "cd76b029c077a688",
    "UM": "07d9d2dc4384e632",
}


@pytest.mark.parametrize("abbrev", sorted(SOURCE_HASHES))
def test_generated_source_is_byte_identical(abbrev):
    """The stage lowerer emits, byte for byte, what it emitted before it
    lost every mode only fused NumPy group kernels used."""
    import hashlib

    from repro.planner import build_benchmark
    from repro.runtime import stage_kernels

    _, pipe = build_benchmark(abbrev, 0.1)
    digest = hashlib.sha256()
    kernels = stage_kernels(pipe)
    for name in sorted(kernels):
        digest.update(kernels[name].source.encode())
    assert digest.hexdigest()[:16] == SOURCE_HASHES[abbrev]


def test_generated_source_is_inspectable():
    pipe = build_blur(rows=46, cols=62)
    kernel = get_kernel(pipe, pipe.stage_by_name("blury"))
    assert "def _stage_kernel" in kernel.source
    assert "blurx" in kernel.source


# ---------------------------------------------------------------------------
# serving
# ---------------------------------------------------------------------------


@pytest.mark.native
@needs_gxx
def test_warm_group_kernels_compiles_multistage_groups():
    """The kernels that run a multi-stage group as one kernel are the
    native ones; below ``NATIVE`` there are none."""
    pipe = build_blur(rows=46, cols=62)
    g = manual_grouping(pipe, [["blurx", "blury"]], [[3, 16, 16]])
    warmed = warm_group_kernels(pipe, g.groups, KernelTier.NATIVE)
    assert frozenset({"blurx", "blury"}) in {
        frozenset(k) for k in warmed
    }
    assert all(k.native for k in warmed.values())
    assert warm_group_kernels(pipe, g.groups, NO_FUSE) == {}


def test_host_fused_vs_unfused_bit_identical(monkeypatch):
    """A warm host whose groups run as one (native) kernel each serves
    the same bits as one warmed under ``REPRO_KERNELS=stage`` (per-stage
    kernels only)."""
    from repro.planner import make_inputs
    from repro.serve import HostConfig
    from repro.serve.host import PipelineHost

    inputs = None
    outs = {}
    for fuse in (True, False):
        tier = KernelTier.NATIVE if fuse else KernelTier.STAGE
        monkeypatch.setenv("REPRO_KERNELS", tier.name.lower())
        host = PipelineHost("UM", HostConfig(scale=0.05, threads=2)).warm()
        assert host.kernels is tier
        if inputs is None:
            inputs = make_inputs(host.pipeline, 123)
        report = host.execute(inputs)
        assert not report.degraded
        outs[fuse] = report.outputs
    assert_bit_identical(outs[False], outs[True])
