"""Compiled stage kernels: equivalence with the interpreter and the
supporting machinery (cache, knobs, fallback, scratch pool, chunking).

The contract under test is strict: with compilation enabled, every
executor output must be *bit-identical* (``assert_array_equal`` plus
dtype) to the interpreted run of the same grouping — compiled kernels are
an implementation detail, never a numerics change.  Against the untiled
reference executor the usual float tolerance applies (tiling reorders
float reductions).
"""

import gc
import itertools
import os
import subprocess
import sys
import warnings
import weakref

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.dsl import (
    Float,
    Function,
    Image,
    Int,
    Interval,
    Pipeline,
    Variable,
)
from repro.fusion import manual_grouping, schedule_pipeline
from repro.model import XEON_HASWELL
from repro.pipelines import BENCHMARKS
from repro.pipelines.synth import random_pipeline
from repro.resilience import GuardPolicy, execute_guarded, inject_faults
from repro.runtime import (
    Buffer,
    BufferPool,
    KernelCompileWarning,
    KernelTier,
    clear_kernel_cache,
    execute_grouping,
    execute_reference,
    stage_kernels,
)
from repro.runtime import kernelcache
from repro.runtime.executor import _chunk_tiles
from repro.runtime.kernelcache import get_kernel
from repro.serve import HostConfig, PipelineHost

from conftest import build_blur, build_updown, build_histogram, random_inputs

COMPILED = KernelTier.FUSED
INTERPRETED = KernelTier.INTERPRET


def _both_modes(pipeline, grouping, inputs, nthreads=1):
    clear_kernel_cache()
    compiled = execute_grouping(
        pipeline, grouping, inputs, nthreads=nthreads, kernels=COMPILED
    )
    interpreted = execute_grouping(
        pipeline, grouping, inputs, nthreads=nthreads, kernels=INTERPRETED
    )
    return compiled, interpreted


def _assert_bit_identical(compiled, interpreted):
    assert set(compiled) == set(interpreted)
    for name in compiled:
        assert compiled[name].dtype == interpreted[name].dtype
        np.testing.assert_array_equal(compiled[name], interpreted[name])


class TestKernelEquivalence:
    """Compiled output == interpreted output, exactly."""

    @pytest.mark.parametrize("abbrev", sorted(BENCHMARKS))
    def test_registry_pipelines_bit_identical(self, abbrev, rng):
        bench = BENCHMARKS[abbrev]
        pipe = bench.build(**bench.small_kwargs)
        grouping = bench.h_manual(pipe)
        inputs = random_inputs(pipe, rng)
        compiled, interpreted = _both_modes(pipe, grouping, inputs)
        _assert_bit_identical(compiled, interpreted)

    @pytest.mark.parametrize("abbrev", sorted(BENCHMARKS))
    def test_registry_pipelines_match_reference(self, abbrev, rng):
        bench = BENCHMARKS[abbrev]
        pipe = bench.build(**bench.small_kwargs)
        grouping = bench.h_manual(pipe)
        inputs = random_inputs(pipe, rng)
        clear_kernel_cache()
        compiled = execute_grouping(
            pipe, grouping, inputs, kernels=COMPILED
        )
        ref = execute_reference(pipe, inputs)
        for name in compiled:
            np.testing.assert_allclose(
                compiled[name].astype(np.float64),
                ref[name].astype(np.float64),
                atol=1e-5, rtol=1e-5,
            )

    @pytest.mark.parametrize("seed", range(3))
    def test_synth_pipelines_bit_identical(self, seed, rng):
        pipe = random_pipeline(num_stages=10, seed=seed, size=192)
        grouping = schedule_pipeline(
            pipe, XEON_HASWELL, strategy="dp", max_states=300_000
        )
        inputs = random_inputs(pipe, rng)
        compiled, interpreted = _both_modes(pipe, grouping, inputs)
        _assert_bit_identical(compiled, interpreted)

    def test_blur_multithreaded_bit_identical(self, blur_pipeline, rng):
        g = manual_grouping(
            blur_pipeline, [["blurx", "blury"]], [[2, 16, 16]]
        )
        inputs = random_inputs(blur_pipeline, rng)
        compiled, interpreted = _both_modes(
            blur_pipeline, g, inputs, nthreads=4
        )
        _assert_bit_identical(compiled, interpreted)

    def test_updown_scaling_bit_identical(self, updown_pipeline, rng):
        # 2*x / 2*x+1 (strided windows) and x//2 / (x+1)//2 (repeat
        # windows) in one group, with tiles that don't divide the domain.
        g = manual_grouping(
            updown_pipeline, [["fine", "down", "up"]], [[23]]
        )
        inputs = random_inputs(updown_pipeline, rng)
        compiled, interpreted = _both_modes(updown_pipeline, g, inputs)
        _assert_bit_identical(compiled, interpreted)

    def test_reduction_pipeline_bit_identical(self, histogram_pipeline, rng):
        # Reductions never compile; the surrounding map stages still do.
        g = manual_grouping(
            histogram_pipeline, [["hist"], ["norm"]], [[], [4]]
        )
        inputs = random_inputs(histogram_pipeline, rng)
        compiled, interpreted = _both_modes(histogram_pipeline, g, inputs)
        _assert_bit_identical(compiled, interpreted)

    def test_prefix_dimension_access(self, rng):
        # A 3-d stage reading a 1-d producer through its *middle*
        # dimension exercises the window-reshape (non-suffix) path.
        n = 40
        x = Variable(Int, "x")
        y = Variable(Int, "y")
        c = Variable(Int, "c")
        base = Image(Float, "base", [n])
        row = Function(([x], [Interval(Int, 0, n - 1)]), Float, "row")
        row.defn = [base(x) * 2.0]
        spread = Function(
            ([c, x, y],
             [Interval(Int, 0, 2), Interval(Int, 0, n - 1),
              Interval(Int, 0, n - 1)]),
            Float, "spread",
        )
        spread.defn = [row(x) + 0.5]
        pipe = Pipeline([spread], {}, name="prefixaccess")
        g = manual_grouping(
            pipe, [["row", "spread"]], [[2, 16, 16]]
        )
        inputs = random_inputs(pipe, rng)
        compiled, interpreted = _both_modes(pipe, g, inputs)
        _assert_bit_identical(compiled, interpreted)

    def test_constant_plane_index(self, rng):
        # Literal channel selects (planes(0, x)) become extent-1 window
        # axes; the camera pipeline relies on this shape heavily.
        n = 64
        x = Variable(Int, "x")
        c = Variable(Int, "c")
        img = Image(Float, "img", [3, n])
        planes = Function(
            ([c, x], [Interval(Int, 0, 2), Interval(Int, 0, n - 1)]),
            Float, "planes",
        )
        planes.defn = [img(c, x) + 1.0]
        mix = Function(([x], [Interval(Int, 0, n - 1)]), Float, "mix")
        mix.defn = [planes(0, x) * 0.25 + planes(2, x) * 0.75]
        pipe = Pipeline([mix], {}, name="planemix")
        g = manual_grouping(pipe, [["planes"], ["mix"]], [[1, 32], [16]])
        inputs = random_inputs(pipe, rng)
        compiled, interpreted = _both_modes(pipe, g, inputs)
        _assert_bit_identical(compiled, interpreted)


class TestResilienceComposition:
    """Compilation composes with fault injection and guarded execution."""

    def test_guarded_all_tiles_fail_matches_reference(self, rng):
        pipe = build_blur(rows=46, cols=62)
        g = manual_grouping(pipe, [["blurx", "blury"]], [[2, 16, 16]])
        inputs = random_inputs(pipe, rng)
        ref = execute_reference(pipe, inputs)
        clear_kernel_cache()
        with inject_faults(seed=3, tile=1.0):
            report = execute_guarded(
                pipe, g, inputs,
                policy=GuardPolicy(
                    tile_retries=1, degrade=True, kernels=COMPILED
                ),
            )
        assert report.degraded
        for name in ref:
            np.testing.assert_array_equal(ref[name], report.outputs[name])

    def test_guarded_alloc_faults_hit_pool(self, rng):
        # The scratch pool's acquire is a fault site: 100% alloc failure
        # must degrade, not crash, and still produce reference output.
        pipe = build_blur(rows=30, cols=30)
        g = manual_grouping(pipe, [["blurx", "blury"]], [[2, 12, 12]])
        inputs = random_inputs(pipe, rng)
        ref = execute_reference(pipe, inputs)
        clear_kernel_cache()
        with inject_faults(seed=11, alloc=1.0):
            report = execute_guarded(
                pipe, g, inputs,
                policy=GuardPolicy(
                    tile_retries=0, degrade=True, kernels=COMPILED
                ),
            )
        for name in ref:
            np.testing.assert_array_equal(ref[name], report.outputs[name])

    def test_partial_tile_faults_bit_identical(self, rng):
        # Faults that retries absorb must not change compiled output.
        pipe = build_blur(rows=46, cols=62)
        g = manual_grouping(pipe, [["blurx", "blury"]], [[2, 16, 16]])
        inputs = random_inputs(pipe, rng)
        clear_kernel_cache()
        with inject_faults(seed=5, tile=0.3):
            compiled = execute_grouping(
                pipe, g, inputs, tile_retries=4, kernels=COMPILED
            )
        with inject_faults(seed=5, tile=0.3):
            interpreted = execute_grouping(
                pipe, g, inputs, tile_retries=4, kernels=INTERPRETED
            )
        _assert_bit_identical(compiled, interpreted)


class TestKnobsAndCache:
    @pytest.mark.parametrize("padded", [True, False])
    @pytest.mark.parametrize("var", [True, False])
    @pytest.mark.parametrize("flag", [True, False])
    def test_exec_options_resolution(self, flag, var, padded, monkeypatch):
        """``--kernels`` (given or not: ``flag``) beats ``REPRO_KERNELS``
        (set or not: ``var``) beats ``NATIVE``, for every pair of tiers
        the two can name — so a flag *can* raise the tier above the
        variable's — however both are spelled (``padded``: upper case
        inside blanks, else plain lower case).  ``GuardPolicy()``
        resolves the same way."""
        monkeypatch.delenv("REPRO_KERNELS", raising=False)
        assert KernelTier.resolve() is KernelTier.NATIVE
        assert GuardPolicy().kernels is KernelTier.NATIVE

        def spell(t):
            return f" {t.name} \n" if padded else t.name.lower()

        for by_flag, by_var in itertools.product(
            KernelTier if flag else [None], KernelTier if var else [None]
        ):
            kernels = None if by_flag is None else spell(by_flag)
            if by_var is not None:
                monkeypatch.setenv("REPRO_KERNELS", spell(by_var))
            tier = next(
                t for t in (by_flag, by_var, KernelTier.NATIVE)
                if t is not None
            )
            assert KernelTier.resolve(kernels) is tier
            if not flag:
                assert GuardPolicy().kernels is tier

    @pytest.mark.parametrize("spelling, tier", [
        ("native", KernelTier.NATIVE), (" FUSED ", KernelTier.FUSED),
        ("Stage", KernelTier.STAGE), ("interpret\n", KernelTier.INTERPRET),
        ("", KernelTier.NATIVE), (None, KernelTier.NATIVE),
    ], ids=["lower", "padded-upper", "mixed", "newline", "empty", "unset"])
    def test_kernels_variable_spellings(self, spelling, tier, monkeypatch):
        """Tier names in any case, blanks stripped; empty or unset is the
        default."""
        if spelling is None:
            monkeypatch.delenv("REPRO_KERNELS", raising=False)
        else:
            monkeypatch.setenv("REPRO_KERNELS", spelling)
        assert KernelTier.resolve() is tier

    @pytest.mark.parametrize(
        "value", ["bogus", "3", "nativ", "fused,stage"],
        ids=["word", "number", "prefix", "two-names"],
    )
    def test_malformed_kernels_variable_is_rejected(
        self, value, blur_pipeline, rng, monkeypatch, capsys
    ):
        """Anything else is an error naming the variable, the value and
        the four valid names — from every entry point that resolves, none
        of which runs a tier nobody asked for: ``repro run`` prints that
        one line and exits non-zero, a host refuses to warm."""
        monkeypatch.setenv("REPRO_KERNELS", value)
        message = (
            f"REPRO_KERNELS={value!r}: expected one of native, fused, "
            f"stage, interpret"
        )
        g = manual_grouping(
            blur_pipeline, [["blurx", "blury"]], [[3, 32, 32]]
        )
        for entry in (
            KernelTier.resolve,
            GuardPolicy,
            lambda: execute_grouping(
                blur_pipeline, g, random_inputs(blur_pipeline, rng)
            ),
            PipelineHost("UM", HostConfig(scale=0.05)).warm,
        ):
            with pytest.raises(ValueError) as exc_info:
                entry()
            assert str(exc_info.value) == message
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["run", "UM", "--scale", "0.05"])
        assert exit_info.value.code == message  # stderr, exit status 1
        assert capsys.readouterr().out == ""    # before any work
        # the flag decides alone: the variable is not even read
        assert KernelTier.resolve("stage") is KernelTier.STAGE

    def test_serve_refuses_to_boot_on_a_malformed_kernels_variable(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--warm", "UM",
             "--scale", "0.05", "--port", "0"],
            env=dict(
                os.environ, REPRO_KERNELS="bogus",
                PYTHONPATH=os.path.join(
                    os.path.dirname(__file__), "..", "src"
                ),
            ),
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode != 0
        assert "REPRO_KERNELS='bogus': expected one of" in proc.stderr
        assert "serving on" not in proc.stdout

    def test_stage_kernels_compiles_every_function_stage(
        self, blur_pipeline, histogram_pipeline
    ):
        clear_kernel_cache()
        assert set(stage_kernels(blur_pipeline)) == {"blurx", "blury"}
        norm = histogram_pipeline.stage_by_name("norm")
        assert set(stage_kernels(histogram_pipeline)) == {"norm"}
        assert set(stage_kernels(histogram_pipeline, [norm])) == {"norm"}

    def test_env_knob_flows_through_executor(
        self, blur_pipeline, rng, monkeypatch
    ):
        """A bare ``execute_grouping`` and a bare ``execute_guarded``
        run what the environment resolves to, at every NumPy tier —
        stage kernels are compiled at ``STAGE`` only
        (the fused source calls none, the interpreter needs none) — to
        the reference's bits."""
        g = manual_grouping(
            blur_pipeline, [["blurx", "blury"]], [[3, 32, 32]]
        )
        inputs = random_inputs(blur_pipeline, rng)
        ref = execute_reference(blur_pipeline, inputs)
        seen = []
        real = kernelcache.get_kernel
        monkeypatch.setattr(
            kernelcache, "get_kernel",
            lambda *a: seen.append(a) or real(*a),
        )
        for tier in (KernelTier.FUSED, KernelTier.STAGE, KernelTier.INTERPRET):
            monkeypatch.setenv("REPRO_KERNELS", tier.name)
            clear_kernel_cache()
            del seen[:]
            bare = execute_grouping(blur_pipeline, g, inputs, nthreads=2)
            assert bool(seen) == (tier is KernelTier.STAGE)
            guarded = execute_guarded(blur_pipeline, g, inputs, nthreads=2)
            explicit = execute_grouping(
                blur_pipeline, g, inputs, nthreads=2, kernels=tier,
            )
            for out in (bare, guarded.outputs, explicit):
                _assert_bit_identical(out, ref)
            assert not guarded.degraded

    def test_kernels_memoized_per_pipeline(self, blur_pipeline):
        clear_kernel_cache()
        k1 = get_kernel(blur_pipeline, blur_pipeline.stages[0])
        k2 = get_kernel(blur_pipeline, blur_pipeline.stages[0])
        assert k1 is k2
        clear_kernel_cache()
        k3 = get_kernel(blur_pipeline, blur_pipeline.stages[0])
        assert k3 is not k1

    @pytest.mark.parametrize("options", [
        {"kernels": COMPILED}, {"kernels": KernelTier.STAGE},
        {"kernels": INTERPRETED},
    ])
    def test_memoised_kernels_do_not_pin_the_pipeline(self, options, rng):
        """Every kernel memo is weakly keyed by the pipeline, and nothing
        it holds — the stage-walking adapter included — keeps the key
        alive: dropping the pipeline frees it."""
        pipe = build_blur(rows=30, cols=30)
        g = manual_grouping(pipe, [["blurx", "blury"]], [[2, 12, 12]])
        execute_grouping(pipe, g, random_inputs(pipe, rng), **options)
        alive = weakref.ref(pipe)
        del pipe, g
        gc.collect()
        assert alive() is None

    def test_reductions_skip_silently(self, histogram_pipeline):
        clear_kernel_cache()
        hist = histogram_pipeline.stage_by_name("hist")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert get_kernel(histogram_pipeline, hist) is None

    def test_compile_failure_warns_once_and_falls_back(
        self, blur_pipeline, rng, monkeypatch
    ):
        def boom(pipeline, stage):
            raise kernelcache.KernelCompileError("synthetic failure")

        monkeypatch.setattr(kernelcache, "compile_stage_kernel", boom)
        clear_kernel_cache()
        stage = blur_pipeline.stages[0]
        with pytest.warns(KernelCompileWarning, match="synthetic failure"):
            assert get_kernel(blur_pipeline, stage) is None
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # memoized: no second warning
            assert get_kernel(blur_pipeline, stage) is None
        # End to end the executor silently interprets the stage.
        g = manual_grouping(
            blur_pipeline, [["blurx", "blury"]], [[3, 32, 32]]
        )
        inputs = random_inputs(blur_pipeline, rng)
        with warnings.catch_warnings():
            # blury's (also-failing) first compile warns here; expected.
            warnings.simplefilter("ignore", KernelCompileWarning)
            out = execute_grouping(
                blur_pipeline, g, inputs, kernels=COMPILED
            )
        ref = execute_grouping(
            blur_pipeline, g, inputs, kernels=INTERPRETED
        )
        _assert_bit_identical(out, ref)
        clear_kernel_cache()


class TestChunking:
    def test_serial_is_one_chunk(self):
        tiles = list(range(100))
        assert _chunk_tiles(tiles, 1) == [tiles]

    def test_chunks_partition_contiguously(self):
        tiles = list(range(103))
        chunks = _chunk_tiles(tiles, 4)
        assert [t for chunk in chunks for t in chunk] == tiles
        assert len(chunks) == 4

    def test_chunk_sizes_balanced(self):
        for n in (5, 16, 17, 64, 103, 1000):
            for nthreads in (2, 3, 4, 8):
                chunks = _chunk_tiles(list(range(n)), nthreads)
                sizes = [len(c) for c in chunks]
                assert sum(sizes) == n
                assert max(sizes) - min(sizes) <= 1
                assert len(chunks) == min(n, nthreads)

    def test_fewer_tiles_than_chunks(self):
        chunks = _chunk_tiles(list(range(3)), 8)
        assert [len(c) for c in chunks] == [1, 1, 1]

    @pytest.mark.parametrize("nthreads", [2, 3, 4, 8])
    @pytest.mark.parametrize("row_len", [1, 2, 5, 26])
    @pytest.mark.parametrize("rows", [1, 2, 3, 4, 7, 16, 33])
    def test_carry_row_is_the_unit_of_work(self, rows, row_len, nthreads):
        """Chunks partition the tiles in order, one per worker; with
        enough rows to give every worker one each chunk is whole rows (the
        threaded walk seeds as often as the serial one), otherwise rows
        are cut into ``nthreads`` runs in all, at most
        ``ceil(nthreads / rows)`` per row."""
        tiles = list(range(rows * row_len))
        chunks = _chunk_tiles(tiles, nthreads, row_len=row_len)
        assert [t for chunk in chunks for t in chunk] == tiles
        assert all(chunks)
        sizes = [len(c) for c in chunks]
        if rows >= nthreads:
            assert len(chunks) == nthreads
            assert all(c[0] % row_len == 0 for c in chunks)
            assert all(n % row_len == 0 for n in sizes)
            assert max(sizes) - min(sizes) <= row_len
            return
        assert len(chunks) <= max(nthreads, rows)
        for r in range(rows):
            pieces = [
                len(c) for c in chunks if c[0] // row_len == r
            ]
            # no chunk spans two rows, and a row's runs are balanced
            assert sum(pieces) == row_len
            assert 1 <= len(pieces) <= -(-nthreads // rows)
            assert len(pieces) >= min(row_len, nthreads // rows)
            assert max(pieces) - min(pieces) <= 1


class TestBufferPool:
    def test_recycles_released_arrays(self):
        pool = BufferPool()
        a = pool.acquire((4, 5), np.float32)
        pool.release_all()
        b = pool.acquire((4, 5), np.float32)
        assert b is a

    def test_lent_arrays_are_distinct(self):
        pool = BufferPool()
        a = pool.acquire((4,), np.float64)
        b = pool.acquire((4,), np.float64)
        assert a is not b

    def test_reclaim_returns_single_array(self):
        pool = BufferPool()
        a = pool.acquire((8,), np.int32)
        pool.reclaim(a)
        assert pool.acquire((8,), np.int32) is a

    def test_keyed_by_shape_and_dtype(self):
        pool = BufferPool()
        a = pool.acquire((4,), np.float32)
        pool.release_all()
        b = pool.acquire((4,), np.float64)
        assert b is not a


class TestReadWindow:
    def test_in_bounds_view_matches_gather(self):
        buf = Buffer(np.arange(40.0).reshape(5, 8), (2, -1))
        w = buf.read_window((3, 1), (3, 4))
        assert w is not None and np.shares_memory(w, buf.data)
        grids = np.meshgrid(
            np.arange(3, 6), np.arange(1, 5), indexing="ij"
        )
        np.testing.assert_array_equal(w, buf.gather(tuple(grids)))

    def test_strided_window(self):
        buf = Buffer(np.arange(10.0), (0,))
        w = buf.read_window((1,), (4,), (2,))
        np.testing.assert_array_equal(w, [1.0, 3.0, 5.0, 7.0])

    def test_out_of_bounds_returns_none(self):
        buf = Buffer(np.zeros((5, 5)), (0, 0))
        assert buf.read_window((-1, 0), (2, 2)) is None
        assert buf.read_window((4, 0), (2, 2)) is None
        assert buf.read_window((0, 3), (1, 4)) is None
