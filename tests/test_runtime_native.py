"""Native group kernels: bit identity, eligibility, degradation.

Clock-free.  What is pinned:

* **bits** — digests equal ``execute_reference`` on the six benchmarks'
  DP groupings x threads (grids of one, two and three carry rows: the
  three-``KernelTier`` matrix of ``test_runtime_parallel_walk.py``),
  through ``PipelineHost`` in-process and a forked worker, on random
  DAGs x awkward tiles x step lengths x tiers, and under ``tile`` fault
  injection;
* **the self-check** — every native kernel those draw passes its
  first-use comparison with the stage walk (a false demotion would not
  show in the digests), and a plan bug C would share with no NumPy
  kernel — an unsafe inline — is caught by it;
* **the typed printer** — op by op against NumPy, dtype and bytes;
* **eligibility** — ``exp``/``log``/``pow`` keep their NumPy kernels
  without a warning, everything else on the benchmarks is native;
* **degradation** — no compiler, a failed build, an unusable artifact
  directory, a truncated artifact, a failed self-check: one
  ``KERNEL_NATIVE_FAIL`` warning, the NumPy kernels, equal digests;
* **reductions** — the untiled stages' native entries: bytes equal to
  ``_compute_reduction`` over ops x accumulator types x value types, the
  same degradations, and translation units of reduction-free groupings
  that did not change.
"""

import ctypes
import dataclasses
import hashlib
import itertools
import os
import stat
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.database import DirectoryBasedExampleDatabase

from repro.codegen.cexpr import (
    C_TYPES,
    CBuffer,
    ExprPrinter,
    InexactOp,
    RUNTIME_HELPERS,
    STEP_LOOP,
    ctype_for,
)
from repro.dsl import (
    Abs,
    Cast,
    Condition,
    Double,
    Exp,
    Float,
    Floor,
    Function,
    Image,
    Int,
    Interval,
    Long,
    Max,
    Min,
    Op,
    Pipeline,
    Reduce,
    Reduction,
    Select,
    Short,
    Sqrt,
    UChar,
    UShort,
    Variable,
)
from repro.errors import KernelNativeError
from repro.fusion import manual_grouping, schedule_pipeline
from repro.fusion.grouping import singleton_grouping
from repro.model.machine import XEON_HASWELL
from repro.obs import METRICS, TRACE
from repro.pipelines import BENCHMARKS
from repro.pipelines.synth import random_pipeline
from repro.planner import (
    build_benchmark,
    make_inputs,
    output_digests,
    plan_schedule,
)
from repro.poly import compute_group_geometry
from repro.resilience import GuardPolicy, execute_guarded, inject_faults
from repro.resilience.faults import FaultInjector
from repro.runtime import (
    KernelNativeWarning,
    KernelTier,
    clear_kernel_cache,
    execute_grouping,
    execute_reference,
    grouping_kernels,
)
from repro.runtime import executor as executor_mod
from repro.runtime import kernelcache
from repro.runtime import native as native_mod
from repro.runtime import nativestore
from repro.runtime.buffers import Buffer, BufferPool, PoolGroup
from repro.runtime.evalexpr import evaluate_expr
from repro.serve import HostConfig, PipelineHost, PipelineService, ServeConfig

from conftest import (
    FailFirstAttempt,
    build_blur,
    build_histogram,
    force_step_tiles,
    needs_gxx,
    random_inputs,
)

pytestmark = [pytest.mark.native, needs_gxx]

NATIVE = KernelTier.NATIVE
NUMPY = KernelTier.STAGE
THREADS = (1, 2, 4)
REGRESSIONS = os.path.join(os.path.dirname(__file__), "regressions")


@pytest.fixture(autouse=True)
def fresh_process_state(monkeypatch):
    """Each test sees a process that has warned about nothing and loaded
    no artifact yet (the session's store on disk stays)."""
    monkeypatch.setattr(native_mod, "_WARNED", set())
    monkeypatch.setattr(nativestore, "_LOADED", {})


def forget_loaded(monkeypatch):
    """Forget every resolved kernel and loaded artifact, as a new
    process would have."""
    clear_kernel_cache()
    monkeypatch.setattr(nativestore, "_LOADED", {})


def dp_grouping(abbrev):
    bench = BENCHMARKS[abbrev]
    pipe = bench.build(**bench.small_kwargs)
    grouping, _ = plan_schedule(
        pipe, bench, XEON_HASWELL, "dp", 1_200_000, strict=False
    )
    return bench, pipe, grouping


def native_warnings(record):
    return [w for w in record if issubclass(w.category, KernelNativeWarning)]


# ---------------------------------------------------------------------------
# bits
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("abbrev", sorted(BENCHMARKS))
def test_dp_groupings_are_native_and_match_reference(abbrev):
    """Threads {1, 2, 4} on the DP grouping; every group but CP's
    ``pow`` LUT is native, silently — each passed its self-check against
    the stage walk."""
    bench, pipe, grouping = dp_grouping(abbrev)
    inputs = random_inputs(pipe, np.random.default_rng(61))
    expected = output_digests(execute_reference(pipe, inputs))
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        kernels = grouping_kernels(pipe, grouping.groups, NATIVE)
    assert not native_warnings(record)
    numpy_only = [k.group_names for k in kernels if not k.native]
    assert numpy_only == ([("curve",)] if abbrev == "CP" else [])
    for n in THREADS:
        out = execute_grouping(pipe, grouping, inputs, nthreads=n,
                               kernels=NATIVE)
        assert output_digests(out) == expected, n


def test_host_in_process_and_forked_worker(native_on, monkeypatch):
    """``PipelineHost`` resolves native at warm-up and says so on
    ``/healthz`` — tiled groups and untiled reductions alike; a forked
    worker inherits the loaded artifact."""
    scale, seed = 0.05, 3
    host_config = HostConfig(scale=scale, threads=2)
    expected = {}
    # CP: the pow() LUT stays NumPy; BG: three tiled groups + ``grid``
    for key, native, numpy in (("CP", 7, 1), ("BG", 4, 0)):
        _, pipe = build_benchmark(key, scale)
        expected[key] = output_digests(
            execute_reference(pipe, make_inputs(pipe, seed))
        )
        host = PipelineHost(key, host_config).warm()
        assert host.kernels is NATIVE
        health = host.health()
        assert (health["native_groups"], health["numpy_groups"]) == (
            native, numpy
        )
        assert health["kernels"] == "native" and "reuse" not in health
        outputs, _, tier = host.execute(make_inputs(host.pipeline, seed))
        assert tier == "compiled"
        assert output_digests(outputs) == expected[key]

    svc = PipelineService(ServeConfig(
        host=host_config, workers=1, heartbeat_s=0.2,
        worker_timeout_s=60.0,
    )).start()
    try:
        svc.warm(["CP", "BG"])
        svc.start_workers()
        for key in ("CP", "BG"):
            result = svc.submit(key, seed=seed).result(timeout=120)
            assert result.worker is not None
            assert output_digests(result.outputs) == expected[key]
    finally:
        svc.shutdown(timeout_s=60.0)

    monkeypatch.setenv("REPRO_KERNELS", "stage")
    health = PipelineHost("BG", host_config).warm().health()
    assert (health["native_groups"], health["numpy_groups"]) == (0, 4)
    assert health["kernels"] == "stage"


def test_strided_and_foreign_typed_inputs_are_normalised():
    """The C side assumes C-contiguous buffers of the image's dtype; a
    caller's Fortran-ordered float64 input still gives the same bits."""
    pipe = build_blur(rows=30, cols=40)
    inputs = random_inputs(pipe, np.random.default_rng(63))
    g = manual_grouping(pipe, [["blurx", "blury"]], [[3, 8, 16]])
    odd = {
        k: np.asfortranarray(v.astype(np.float64)) for k, v in inputs.items()
    }
    expected = execute_reference(pipe, inputs)
    out = execute_grouping(pipe, g, odd, kernels=NATIVE)
    assert np.array_equal(out["blury"], expected["blury"])


# ---------------------------------------------------------------------------
# fuzz: random DAGs x awkward tiles x step lengths x tiers
# ---------------------------------------------------------------------------


@settings(
    max_examples=10, deadline=None,
    database=DirectoryBasedExampleDatabase(REGRESSIONS),
)
@given(
    seed=st.integers(0, 3),
    tile_seed=st.integers(0, 2 ** 16),
    k=st.sampled_from([1, 2, 10 ** 6]),
    nthreads=st.sampled_from(THREADS),
    kernels=st.sampled_from(KernelTier),
    fault_rate=st.sampled_from([0.0, 0.3]),
)
# The NATIVE x faults cell (and its fault-free twin) on every run: ten
# random draws land in it, one draw in six, on only ~84 % of runs.  This
# tiling checks the ``tile`` site on 46 ops and 17 of them fail.
@example(seed=0, tile_seed=11, k=2, nthreads=2, kernels=NATIVE, fault_rate=0.0)
@example(seed=0, tile_seed=11, k=2, nthreads=2, kernels=NATIVE, fault_rate=0.3)
def test_random_dags_match_reference(
    seed, tile_seed, k, nthreads, kernels, fault_rate
):
    """Few distinct DAGs (each is one translation unit), many tilings:
    non-power-of-two tiles, tiles larger than the extent, one-tile rows,
    steps of one tile, two tiles and the whole row — on every tier, and
    with ``tile`` faults at 0.3 (seeded by the tiling) under
    ``execute_guarded``: at ``NATIVE`` a program's op fails its check,
    its segment walks on the stage walk, and what fails there falls back
    to the reference.  A native kernel that fails its self-check still
    yields the reference's digests, on NumPy, so a false demotion shows
    only as a warning: at ``NATIVE`` there must be none (the session's
    fresh artifact store makes every DAG's first use self-check)."""
    pipe = random_pipeline(num_stages=8, seed=seed, size=128)
    grouping = schedule_pipeline(pipe, XEON_HASWELL, strategy="greedy")
    rng = np.random.default_rng(tile_seed)
    tile_sizes = []
    for members, tiles in zip(grouping.groups, grouping.tile_sizes):
        geom = compute_group_geometry(pipe, members)
        tile_sizes.append(tuple(tiles) if geom is None else tuple(
            int(rng.integers(3, ext + 6)) for ext in geom.grid_extents
        ))
    grouping = dataclasses.replace(grouping, tile_sizes=tuple(tile_sizes))
    inputs = random_inputs(pipe, np.random.default_rng(seed))
    expected = output_digests(execute_reference(pipe, inputs))
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings(
        record=True
    ) as record:
        warnings.simplefilter("always")
        force_step_tiles(mp, k)
        if fault_rate:
            with inject_faults(seed=tile_seed, tile=fault_rate):
                out = execute_guarded(
                    pipe, grouping, inputs, nthreads=nthreads,
                    policy=GuardPolicy(kernels=kernels),
                ).outputs
        else:
            out = execute_grouping(
                pipe, grouping, inputs, nthreads=nthreads, kernels=kernels
            )
    assert output_digests(out) == expected
    if kernels is NATIVE:
        assert not native_warnings(record), [
            str(w.message) for w in record
        ]


# ---------------------------------------------------------------------------
# reductions: the untiled stages' native entries
# ---------------------------------------------------------------------------

_RROWS, _RCOLS = 600, 8   # 600 rows: two chunks of 256 and one of 88


def _reduction_battery():
    """One pipeline — one translation unit — of hand-built reductions
    over a 600 x 8 reduction domain: ``Sum``/``Max``/``Min`` x accumulator
    ``float32``/``int32``/``uint8`` x a value of the accumulator's type,
    a Python scalar (NumPy's default dtype: wider) and an ``int64`` /
    ``float64`` load (wider), every target data-dependent and landing in
    ``[-1, 12]`` against a domain of ``[2, 11]``; plus one 2-d accumulator
    whose three rules — ``Sum``, ``Max``, ``Sum`` — hit the same cells,
    so the chunk -> rule -> point order shows in the result."""
    rx, ry, x, y = (Variable(Int, n) for n in ("rx", "ry", "x", "y"))
    f, d, i, l, u = (
        Image(t, n, [_RROWS, _RCOLS])(rx, ry) for n, t in (
            ("f", Float), ("d", Double), ("i", Int), ("l", Long),
            ("u", UChar),
        )
    )
    rdom = ([rx, ry], [
        Interval(Int, 0, _RROWS - 1), Interval(Int, 0, _RCOLS - 1)
    ])
    target = Cast(Int, f * 14.0) - 1
    values = {
        Float: {"same": f, "python": 1.0, "float64": d, "int64": l},
        Int: {"same": i, "python": 1, "int64": l},
        UChar: {"same": u, "python": 1, "int64": l},
    }
    stages = []
    for acc, vals in values.items():
        for (label, value), op in itertools.product(
            vals.items(), (Op.Sum, Op.Max, Op.Min)
        ):
            r = Reduction(
                ([x], [Interval(Int, 2, 11)]), rdom, acc,
                f"{acc.name}_{label}_{op}", default=3.0,
            )
            r.defn = [Reduce((target,), value, op)]
            stages.append(r)
    same_cell = Reduction(
        ([x, y], [Interval(Int, 1, 4), Interval(Int, -2, 3)]), rdom,
        Float, "same_cell",
    )
    cell = (Cast(Int, f * 6.0), ry - 3)
    same_cell.defn = [
        Reduce(cell, d, Op.Sum), Reduce(cell, 2.5, Op.Max),
        Reduce(cell, f, Op.Sum),
    ]
    stages.append(same_cell)
    rng = np.random.default_rng(7)
    shape = (_RROWS, _RCOLS)
    inputs = {
        "f": rng.random(shape, dtype=np.float32),
        "d": rng.random(shape) * 1e3 - 500,
        "i": rng.integers(-2 ** 31, 2 ** 31, shape).astype(np.int32),
        "l": rng.integers(-2 ** 40, 2 ** 40, shape),
        "u": rng.integers(0, 256, shape).astype(np.uint8),
    }
    return Pipeline(stages, {}, name="reductions"), stages, inputs


def test_reductions_match_compute_reduction_byte_for_byte():
    """The battery of :func:`_reduction_battery`: every native reduction
    returns ``_compute_reduction``'s bytes — wrapping ``uint8`` sums,
    ``int64`` maxima truncated into ``int32``, ``float32`` accumulators
    updated in ``float64``, targets outside the domain skipped.

    ``pipelines/synth.py`` generates no reductions, so the random-DAG
    fuzz above never reaches this path; the battery is hand-built rather
    than extending the generator here."""
    pipe, stages, inputs = _reduction_battery()
    assert _RROWS > executor_mod._REDUCTION_CHUNK
    assert _RROWS % executor_mod._REDUCTION_CHUNK
    buffers = executor_mod._input_buffers(pipe, inputs)
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        kernels = executor_mod.resolve_group_kernels(pipe, stages, NATIVE)
    assert not native_warnings(record)
    for stage, kernel in zip(stages, kernels):
        assert kernel.native and kernel.group_names == (stage.name,)
        want = executor_mod._compute_reduction(pipe, stage, buffers)
        got = kernel.fn(buffers)
        assert got.origin == want.origin, stage.name
        assert got.data.dtype == want.data.dtype, stage.name
        assert got.data.tobytes() == want.data.tobytes(), stage.name
    # what the battery claims to exercise: a uint8 sum that wrapped,
    # targets on both sides of the domain
    assert int(inputs["u"].sum()) > 255 * 10
    targets = (inputs["f"] * np.float32(14.0)).astype(np.int32) - 1
    assert targets.min() < 2 and targets.max() > 11


@pytest.mark.parametrize("case", [
    "histogram", "BG-dp", "BG-h-manual", "BG-no-fusion",
])
def test_reduction_groupings_match_reference(case):
    """Through ``execute_grouping``, threads {1, 2, 4}: a singleton
    reduction group (conftest's histogram, BG's DP and no-fusion
    groupings) and a reduction inside a geometry-less group (BG
    h-manual's ``{grid, blurz}``); every reduction ran native."""
    if case == "histogram":
        pipe = build_histogram()
        grouping = singleton_grouping(pipe)
    else:
        bench, pipe, grouping = dp_grouping("BG")
        if case == "BG-h-manual":
            grouping = bench.h_manual(pipe)
        elif case == "BG-no-fusion":
            grouping = singleton_grouping(pipe)
    inputs = random_inputs(pipe, np.random.default_rng(68))
    expected = output_digests(execute_reference(pipe, inputs))
    assert all(
        k.native for k in grouping_kernels(pipe, grouping.groups, NATIVE)
    )
    TRACE.reset(enabled=True)
    try:
        for n in THREADS:
            out = execute_grouping(
                pipe, grouping, inputs, nthreads=n, kernels=NATIVE
            )
            assert output_digests(out) == expected, n
        untiled = [
            s for s in _walk_spans(TRACE.root) if s.name == "group"
            and s.attrs.get("mode") == "untiled"
        ]
        assert [s.attrs["native"] for s in untiled] == [1] * len(THREADS)
    finally:
        TRACE.reset(enabled=False)


def test_reduction_refuses_a_buffer_it_cannot_address():
    """A non-contiguous or foreign-typed producer is refused with the
    group kernels' ``TypeError`` — never reinterpreted."""
    pipe = build_histogram()
    hist = pipe.stage_by_name("hist")
    (kernel,) = executor_mod.resolve_group_kernels(pipe, [hist], NATIVE)
    assert kernel.native
    img = random_inputs(pipe, np.random.default_rng(69))["img"]
    want = executor_mod._compute_reduction(
        pipe, hist, {"img": Buffer(img, (0, 0))}
    )
    got = kernel.fn({"img": Buffer(img, (0, 0))})
    assert got.data.tobytes() == want.data.tobytes()
    for odd in (np.asfortranarray(img), img.astype(np.float64), img[:, ::2]):
        with pytest.raises(TypeError, match="needs C-contiguous float32"):
            kernel.fn({"img": Buffer(odd, (0, 0))})


@pytest.mark.parametrize("kernels, numpy_calls", [
    (NATIVE, 0),
    (KernelTier.resolve("interpret"), 1),
    (KernelTier.resolve(), 1),          # the suite's REPRO_KERNELS=stage
    (KernelTier.INTERPRET, 1),
    (KernelTier.STAGE, 1),
], ids=["native", "--kernels=interpret", "REPRO_KERNELS=stage",
        "interpret", "stage"])
def test_reduction_follows_the_groups_predicate(
    kernels, numpy_calls, monkeypatch
):
    """One predicate — the ``NATIVE`` tier — for groups and reductions:
    every tier below runs ``_compute_reduction``, and the digests do not
    move."""
    _, pipe, grouping = dp_grouping("BG")
    inputs = make_inputs(pipe, 2)
    expected = output_digests(execute_reference(pipe, inputs))
    real = executor_mod._compute_reduction
    calls = []

    def counted(*args):
        calls.append(args[1].name)
        return real(*args)

    monkeypatch.setattr(executor_mod, "_compute_reduction", counted)
    grouping_kernels(pipe, grouping.groups, kernels)    # incl. self-check
    calls.clear()
    out = execute_grouping(pipe, grouping, inputs, nthreads=2,
                           kernels=kernels)
    assert output_digests(out) == expected
    assert calls == ["grid"] * numpy_calls


# ---------------------------------------------------------------------------
# fault injection around native steps
# ---------------------------------------------------------------------------


class _RecordingInjector(FaultInjector):
    """Never fails; remembers every ``tile`` key it was asked about."""

    def __init__(self):
        super().__init__()
        self.keys = []

    def check(self, site, detail=""):
        if site == "tile":
            self.keys.append(detail)


class _FailAndRecord(_RecordingInjector):
    """Records every ``tile`` key and fails the named ones."""

    def __init__(self, details):
        super().__init__()
        self.fail = FailFirstAttempt(details)

    def check(self, site, detail=""):
        super().check(site, detail)
        self.fail.check(site, detail)


def _keys_by_group(keys):
    by = {}
    for key in keys:
        by.setdefault(int(key[1:key.index("t")]), []).append(key)
    return by


@pytest.mark.parametrize("rate", [1.0, 0.3])
def test_tile_faults_on_native_steps_match_reference(rate):
    """A native group's program checks the ``tile`` fault site once per
    chunk, keyed by the chunk's first tile, which is a step's — while
    CP's NumPy ``curve`` group keeps one per step; a fault there sends
    the segment to the stage walk, and the guard degrades what fails
    there to the reference's digests."""
    _, pipe, grouping = dp_grouping("CP")
    inputs = make_inputs(pipe, 1)
    expected = output_digests(execute_reference(pipe, inputs))
    grouping_kernels(pipe, grouping.groups, NATIVE)
    keys = {}
    try:
        for name, kernels in (("numpy", NUMPY), ("native", NATIVE)):
            TRACE.reset(enabled=True)
            recorder = _RecordingInjector()
            with inject_faults(recorder):
                execute_grouping(pipe, grouping, inputs, nthreads=2,
                                 kernels=kernels)
            keys[name] = _keys_by_group(recorder.keys)
        groups = [s for s in _walk_spans(TRACE.root) if s.name == "group"]
    finally:
        TRACE.reset(enabled=False)
    native_groups = 0
    for span in groups:
        gi = span.attrs["index"]
        if span.attrs["native"] is not True:
            assert keys["native"].get(gi) == keys["numpy"].get(gi)
            continue
        native_groups += 1
        chunks = [c for c in span.children if c.name == "chunk"]
        assert sorted(keys["native"][gi]) == sorted(
            f"g{gi}t{c.attrs['first_tile']}a0" for c in chunks
        )
        assert set(keys["native"][gi]) <= set(keys["numpy"][gi])
    assert native_groups == 7
    for n in (1, 2):
        with inject_faults(seed=5, tile=rate) as injector:
            report = execute_guarded(
                pipe, grouping, inputs, nthreads=n,
                policy=GuardPolicy(
                    tile_retries=1, degrade=True, kernels=NATIVE
                ),
            )
        assert output_digests(report.outputs) == expected
        stats = injector.counts["tile"]
        if rate == 1.0:
            assert not any(o.mode == "tiled" for o in report.outcomes)
            assert stats.checks == stats.failures
        else:
            assert 0 < stats.failures < stats.checks


def test_mid_run_failure_reseeds_the_native_carry(monkeypatch):
    """A native group runs only inside a program, which checks its one
    op's key and runs no C when it fails: the group then walks on the
    stage walk, one key per step attempt, where the same key fails again
    and is retried (``a1``), and a failure in the middle of a run
    re-seeds the carry from that step to the run's end.  The program
    counts nothing it did not run, and the bits do not change."""
    pipe = build_blur(rows=96, cols=94)
    inputs = random_inputs(pipe, np.random.default_rng(64))
    g = manual_grouping(pipe, [["blurx", "blury"]], [[3, 16, 16]])
    force_step_tiles(monkeypatch, 2)   # 6 rows x 3 steps of 2 tiles
    assert all(k.native for k in grouping_kernels(pipe, g.groups, NATIVE))
    expected = execute_reference(pipe, inputs)
    injector = _FailAndRecord({"g0t0a0", "g0t8a0"})
    METRICS.reset(enabled=True)
    try:
        with inject_faults(injector):
            out = execute_grouping(
                pipe, g, inputs, tile_retries=1, kernels=NATIVE
            )
        walk = [f"g0t{t}a0" for t in range(0, 36, 2)]
        walk[1:1] = ["g0t0a1"]
        walk.insert(walk.index("g0t8a0") + 1, "g0t8a1")
        # the program's one op, then the stage walk's steps
        assert injector.keys == ["g0t0a0"] + walk
        assert METRICS.value("repro_halo_reuse_invalidations_total") == 2
        assert METRICS.value("repro_tile_retries_total") == 2
        # the program ran nothing; the walk ran every tile once
        assert METRICS.value("repro_tiles_total") == 36
        assert METRICS.value("repro_tile_steps_total") == 18
        # five per row of three 2-tile steps, less one for the re-seed
        # at tile 8, mid-run
        assert METRICS.value("repro_halo_reuse_tiles_total") == 29
    finally:
        METRICS.reset(enabled=False)
    assert np.array_equal(out["blury"], expected["blury"])


def test_one_row_cut_across_two_threads():
    """CP's shape at ``serve_large``'s two threads: one carry row of 12
    tiles, cut into two chunks — the walking thread runs the first, a
    worker the second, which seeds at its own start mid-row — gives the
    reference's bits."""
    pipe = build_blur(rows=46, cols=94)
    inputs = random_inputs(pipe, np.random.default_rng(70))
    g = manual_grouping(pipe, [["blurx", "blury"]], [[3, 4096, 8]])
    assert all(k.native for k in grouping_kernels(pipe, g.groups, NATIVE))
    expected = execute_reference(pipe, inputs)
    METRICS.reset(enabled=True)
    TRACE.reset(enabled=True)
    try:
        out = execute_grouping(pipe, g, inputs, nthreads=2, kernels=NATIVE)
        assert METRICS.value("repro_tiles_total") == 12
        # one seed per chunk
        assert METRICS.value("repro_halo_reuse_tiles_total") == 10
        chunks = [s for s in _walk_spans(TRACE.root) if s.name == "chunk"]
        assert sorted(c.attrs["first_tile"] for c in chunks) == [0, 6]
    finally:
        METRICS.reset(enabled=False)
        TRACE.reset(enabled=False)
    assert out["blury"].tobytes() == expected["blury"].tobytes()


class _PoisonedPool(BufferPool):
    """A pool whose request arenas come back full of ``0xFF`` bytes."""

    def take(self, shape, dtype):
        arr = super().take(shape, dtype)
        arr.view(np.uint8).fill(0xFF)
        return arr


class _PoisonedPools(PoolGroup):
    def get(self):
        pool = self._pools.get(threading.get_ident())
        if pool is None:
            pool = self._pools[threading.get_ident()] = _PoisonedPool()
        return pool


@pytest.mark.parametrize("abbrev", sorted(BENCHMARKS))
def test_poisoned_arena_carries_nothing_between_requests(
    abbrev, monkeypatch
):
    """Every request arena is ``0xFF`` bytes when a program gets it, and
    so is every pipeline output it allocates: two consecutive requests
    with different inputs, at one and two threads, still give the
    reference's digests — a reused arena carries no state from the last
    request, nothing is read before it is written, and the uninitialised
    outputs are written in full."""
    _, pipe, grouping = dp_grouping(abbrev)
    grouping_kernels(pipe, grouping.groups, NATIVE)
    real_for_region = Buffer.for_region.__func__

    def poisoned_for_region(cls, bounds, dtype, zeroed=True):
        buf = real_for_region(cls, bounds, dtype, zeroed)
        if not zeroed:
            buf.data.view(np.uint8).fill(0xFF)
        return buf

    monkeypatch.setattr(
        Buffer, "for_region", classmethod(poisoned_for_region)
    )
    programs = []
    real_call = native_mod._Program.call

    def call(self, ctl, walker, keep=None):
        programs.append(walker)
        return real_call(self, ctl, walker, keep)

    monkeypatch.setattr(native_mod._Program, "call", call)
    pools = _PoisonedPools()
    for n in (1, 2):
        for seed in (1, 2):
            inputs = make_inputs(pipe, seed)
            report = execute_guarded(
                pipe, grouping, inputs, nthreads=n, pools=pools,
                policy=GuardPolicy(kernels=NATIVE),
            )
            assert output_digests(report.outputs) == output_digests(
                execute_reference(pipe, inputs)
            ), (n, seed)
            assert not report.degraded
    # every request ran a program on its walking thread
    assert programs.count(1) == 4


# ---------------------------------------------------------------------------
# the typed printer, op by op against NumPy
# ---------------------------------------------------------------------------

_INTS = [-32768, -300, -7, -2, -1, 0, 1, 2, 7, 300, 32767]
_FLOATS = [
    np.nan, -np.inf, -1e30, -7.5, -2.5, -1.0, -0.5, 0.5, 1.0, 2.5, 3.75,
    7.0, 1e30, np.inf,
]


def _printer_cases():
    """``(label, expression)`` over images ``s`` (int16), ``u`` (uint8),
    ``w`` (uint16), ``i`` (int32), ``l`` (int64), ``f`` (float32),
    ``g`` (float32, shifted) and ``d`` (float64), all indexed by ``x``."""
    x = Variable(Int, "x")
    n = len(_INTS) * len(_FLOATS)
    s, u, w, i, l, f, g, d = (
        Image(t, name, [n])(x) for t, name in (
            (Short, "s"), (UChar, "u"), (UShort, "w"), (Int, "i"),
            (Long, "l"), (Float, "f"), (Float, "g"), (Double, "d"),
        )
    )
    cases = [
        ("int16 * python int stays int16 and wraps", s * 300),
        ("int16 + int16 wraps", s + s),
        ("uint8 - python int wraps", u - 7),
        ("uint16 * uint16 wraps", w * w),
        ("int32 * int32 wraps", i * i),
        ("negated uint8", -u),
        ("float32 * python float stays float32", f * 1.5),
        ("float32 * third stays float32", f * (1.0 / 3)),
        ("float32 * int64 grid is float64", f * x),
        ("float32 + float64", f + d),
        ("int16 + python float is float64", s + 0.5),
        ("int / int is float64", s / i),
        ("int / python int is float64", s / 7),
        ("float32 / float32", f / g),
        ("int16 // int16", s // (s - 7)),
        ("int16 // zero", s // (s - s)),
        ("int32 // negative", i // -7),
        ("int16 % int16", s % (s - 7)),
        ("int16 % zero", s % (s - s)),
        ("int64 % negative", l % -7),
        ("uint8 // uint8", u // (u - 7)),
        ("int16 // -1 (minimum overflows)", s // -1),
        ("float32 // float32", f // g),
        ("float32 % float32", f % g),
        ("float32 // zero", f // (g - g)),
        ("float64 % negative", d % -2.5),
        ("min float32 nan", Min(f, g)),
        ("max float32 nan", Max(f, g)),
        ("max float32 python float", Max(f, 0.0)),
        ("min int16 python int", Min(s, 5)),
        ("max mixed int16 int32", Max(s, i)),
        ("abs int16 (minimum wraps)", Abs(s)),
        ("abs float32", Abs(f)),
        ("floor float32", Floor(f)),
        ("floor float64", Floor(d)),
        ("floor of an integer", Floor(i)),
        ("sqrt float32", Sqrt(Abs(f))),
        ("sqrt of negative is nan", Sqrt(f)),
        ("sqrt int16 is float32", Sqrt(Abs(s))),
        ("cast float32 to int32 truncates", Cast(Int, Min(Max(f, -1e9), 1e9))),
        ("cast int32 to uint8 wraps", Cast(UChar, i)),
        ("cast int64 to float32 rounds once", Cast(Float, l * 16777217)),
        ("cast float64 to float32", Cast(Float, d * (1.0 / 3))),
        ("select float32 / python float",
         Select(Condition(f, ">", 0.25), f, 0.5)),
        ("select int16 / float32",
         Select(Condition(s, "<=", i), s, f)),
        ("compare int16 with float32",
         Select(Condition(s, "<", f) | Condition(f, "!=", f), 1, 0)),
        ("compare uint8 with negative python int",
         Select(Condition(u, ">", -1) & Condition(s, ">=", -300), u, 7)),
        ("compare int64 with float64 (lossy promotion)",
         Select(Condition(l * 9007199254740993, "==", d), 1, 2)),
        ("clamp like the benchmarks", Min(Max(f * 1.1 - 0.05, 0.0), 1.0)),
    ]
    return x, n, cases


def test_typed_printer_matches_numpy_op_by_op(tmp_path):
    """Every case: the C result has the dtype NumPy gives the expression
    and exactly its bytes, over a grid of edge values."""
    x, n, cases = _printer_cases()
    ints = np.repeat(np.array(_INTS, np.int64), len(_FLOATS))
    floats = np.tile(np.array(_FLOATS, np.float64), len(_INTS))
    arrays = {
        "s": ints.astype(np.int16), "u": ints.astype(np.uint8),
        "w": (ints * 7).astype(np.uint16), "i": (ints * 65537).astype(np.int32),
        "l": ints * 4294967311, "f": floats.astype(np.float32),
        "g": np.roll(floats, 5).astype(np.float32), "d": floats * 1.25,
    }
    buffers = {k: Buffer(v, (0,)) for k, v in arrays.items()}
    printer = ExprPrinter(
        {k: CBuffer(k, [0], [n]) for k in arrays}, {}
    )
    params = ", ".join(
        f"const {ctype_for(v.dtype)} *{k}" for k, v in arrays.items()
    )
    body, outs, expected = [], [], []
    with np.errstate(all="ignore"):
        for j, (label, e) in enumerate(cases):
            want = np.asarray(evaluate_expr(
                e, {"x": np.arange(n, dtype=np.int64)}, buffers
            ))
            val = printer.typed(e)
            assert val.dtype == want.dtype, label
            expected.append(want)
            outs.append(np.empty(n, want.dtype))
            body.append(
                f"    (({ctype_for(want.dtype)} *)out[{j}])[x] = {val.text};"
            )
    source = (
        RUNTIME_HELPERS
        + f"void table({params}, void **out) {{\n"
        + f"  for (int64_t x = 0; x < {n}; ++x) {{\n"
        + "\n".join(body) + "\n  }\n}\n"
    )
    lib, _, _ = nativestore.load(source, str(tmp_path))
    out_ptrs = (ctypes.c_void_p * len(outs))(*[o.ctypes.data for o in outs])
    lib.table.argtypes = [ctypes.c_void_p] * (len(arrays) + 1)
    lib.table.restype = None
    lib.table(*[v.ctypes.data for v in arrays.values()], out_ptrs)
    for (label, _), got, want in zip(cases, outs, expected):
        assert got.tobytes() == want.tobytes(), (
            label, got[got != want][:5], want[got != want][:5]
        )


def test_inexact_operations_are_refused_not_approximated():
    x = Variable(Int, "x")
    f = Image(Float, "f", [8])
    printer = ExprPrinter({"f": CBuffer("f", [0], [8])}, {})
    for e in (Exp(f(x)), f(x) ** 0.45):
        with pytest.raises(InexactOp):
            printer.expr(e)
    # the whole-program generator may go through libm
    assert "powf(" in ExprPrinter(
        {"f": CBuffer("f", [0], [8])}, {}, libm=True
    ).expr(f(x) ** 0.45)
    assert set(C_TYPES) >= {np.dtype(t) for t in (
        np.int8, np.uint8, np.int16, np.uint16, np.int32, np.uint32,
        np.int64, np.uint64, np.float32, np.float64,
    )}


# ---------------------------------------------------------------------------
# degradation: warn once, NumPy kernels, equal digests
# ---------------------------------------------------------------------------


def _blur_case(seed=65):
    pipe = build_blur(rows=30, cols=40)
    inputs = random_inputs(pipe, np.random.default_rng(seed))
    g = manual_grouping(pipe, [["blurx", "blury"]], [[3, 8, 16]])
    return pipe, g, inputs, execute_reference(pipe, inputs)["blury"]


def _bg_case(seed=65):
    """BG's DP grouping: three tiled groups and the untiled ``grid``."""
    _, pipe, g = dp_grouping("BG")
    inputs = make_inputs(pipe, seed)
    return pipe, g, inputs, execute_reference(pipe, inputs)["filtered"]


def _assert_degrades(reason, build=_blur_case, cache=None):
    """Two fresh pipelines resolve under the failure: NumPy kernels,
    equal bits, and exactly one warning naming ``reason``."""
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        for seed in (65, 66):
            pipe, g, inputs, expected = build(seed)
            kernels = grouping_kernels(pipe, g.groups, NATIVE, cache)
            assert not any(k.native for k in kernels)
            assert all(
                k.region_names == k.group_names
                for k in kernels if len(k.group_names) > 1
            )
            out = execute_grouping(pipe, g, inputs, kernels=NATIVE)
            (name,) = out
            assert out[name].tobytes() == expected.tobytes()
    got = native_warnings(record)
    assert len(got) == 1, [str(w.message) for w in got]
    assert "[KERNEL_NATIVE_FAIL]" in str(got[0].message)
    assert f"({reason})" in str(got[0].message)


def test_no_compiler_on_path(monkeypatch, tmp_path):
    monkeypatch.setenv("PATH", str(tmp_path))
    METRICS.reset(enabled=True)
    try:
        _assert_degrades("no-compiler")
        assert METRICS.value(
            "repro_kernel_native_total", result="failed"
        ) == 2
        assert not METRICS.value("repro_kernel_native_total", result="built")
    finally:
        METRICS.reset(enabled=False)


def test_compile_error_through_the_native_build_fault_site(tmp_path):
    with inject_faults(native_build=1.0) as injector:
        _assert_degrades("build", cache=str(tmp_path))
    assert injector.counts["native_build"].failures == 2
    # nothing half-written stays behind
    assert os.listdir(tmp_path / "native") == []


@pytest.mark.parametrize("reason", ["no-compiler", "build"])
def test_reduction_degrades_with_its_grouping(reason, monkeypatch, tmp_path):
    """BG without a compiler, and under the ``native_build`` fault: one
    ``KERNEL_NATIVE_FAIL`` for groups and reduction together, the
    reference's bits."""
    if reason == "no-compiler":
        monkeypatch.setenv("PATH", str(tmp_path))
        _assert_degrades(reason, build=_bg_case)
    else:
        with inject_faults(native_build=1.0):
            _assert_degrades(reason, build=_bg_case, cache=str(tmp_path))


def test_compiler_that_fails_reports_its_stderr(monkeypatch, tmp_path):
    monkeypatch.setattr(
        nativestore, "FLAGS", nativestore.FLAGS + ("-fno-such-flag",)
    )
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        pipe, g, inputs, expected = _blur_case()
        out = execute_grouping(pipe, g, inputs, kernels=NATIVE)
    assert np.array_equal(out["blury"], expected)
    (w,) = native_warnings(record)
    assert "fno-such-flag" in str(w.message)


@pytest.mark.parametrize("how", ["world-writable", "foreign-owned", "a-file"])
def test_unusable_artifact_directory(how, monkeypatch, tmp_path):
    store = tmp_path / "native"
    if how == "a-file":
        store.write_text("not a directory")
    else:
        store.mkdir(mode=0o700)
        if how == "world-writable":
            store.chmod(0o777)
        else:
            monkeypatch.setattr(os, "geteuid", lambda: os.getuid() + 1)
    _assert_degrades("cache-dir", cache=str(tmp_path))
    if how != "a-file":
        assert os.listdir(store) == []


@pytest.mark.skipif(os.geteuid() == 0, reason="root writes anywhere")
def test_read_only_artifact_directory(tmp_path):
    store = tmp_path / "native"
    store.mkdir(mode=0o500)
    try:
        _assert_degrades("build", cache=str(tmp_path))
    finally:
        store.chmod(0o700)


def test_store_is_created_private(tmp_path):
    pipe, g, inputs, expected = _blur_case()
    kernels = grouping_kernels(pipe, g.groups, NATIVE, str(tmp_path))
    assert all(k.native for k in kernels)
    store = tmp_path / "native"
    assert stat.S_IMODE(store.stat().st_mode) == 0o700
    names = sorted(os.listdir(store))
    assert [n.rsplit(".", 1)[1] for n in names] == ["json", "so"]
    assert len(names[1]) == 64 + 3      # sha256 + ".so"


def _translation_unit(pipe, g, monkeypatch, cache=None):
    """The source the grouping's native kernels would be built from,
    without building it."""
    seen = []

    def probe(source, _):
        seen.append(source)
        raise KernelNativeError("probe only", reason="probe")

    with monkeypatch.context() as mp:
        mp.setattr(nativestore, "load", probe)
        mp.setattr(native_mod, "_warn_once", lambda exc: None)
        grouping_kernels(pipe, g.groups, NATIVE, cache)
    clear_kernel_cache()        # the probe left NumPy kernels memoised
    (source,) = seen
    return source


def _artifact_path(pipe, g, cache, monkeypatch):
    """Where the grouping's artifact would live, without building it."""
    key = nativestore.artifact_key(
        _translation_unit(pipe, g, monkeypatch, cache),
        nativestore.compiler()[1],
    )
    return os.path.join(nativestore.store_dir(cache), key + ".so")


#: sha256 of the DP grouping's translation unit at ``small_kwargs``, as
#: the commit before native reductions emitted it
_REDUCTION_FREE_UNITS = {
    "CP": "9f671b84e236356f",
    "HC": "57b944d9f190935c",
    "MI": "babd3724e873d8b2",
    "PB": "aa8ca13463d50935",
    "UM": "caf3de1a8a41251f",
}


@pytest.mark.parametrize("abbrev", sorted(_REDUCTION_FREE_UNITS))
def test_reduction_free_translation_units_did_not_change(
    abbrev, monkeypatch
):
    """A grouping without a reduction emits the bytes it emitted before
    reductions went native, but for the one loop helper chunk calls
    added since: every step entry is byte-identical."""
    _, pipe, grouping = dp_grouping(abbrev)
    source = _translation_unit(pipe, grouping, monkeypatch)
    assert "repro_reduce_" not in source
    assert source.count(STEP_LOOP) == 1
    assert hashlib.sha256(
        source.replace(STEP_LOOP, "").encode()
    ).hexdigest()[:16] == _REDUCTION_FREE_UNITS[abbrev]


def test_store_flags_are_exact_and_portable():
    """``-O3`` with every float op rounded once in its own type and
    integer overflow wrapping, and no ``-march``: the artifact key does
    not carry the CPU's feature set."""
    flags = nativestore.FLAGS
    for flag in ("-O3", "-fwrapv", "-fno-fast-math", "-ffp-contract=off"):
        assert flag in flags
    assert not any(f.startswith("-march") for f in flags)


def test_garbage_artifact_is_rebuilt_once_then_numpy(monkeypatch, tmp_path):
    """Something that is not a library sits under the final name, and
    the compiler keeps producing the same: it is removed, rebuilt exactly
    once, removed again, and the groups run on NumPy."""
    pipe, g, inputs, expected = _blur_case()
    so = _artifact_path(pipe, g, str(tmp_path), monkeypatch)
    os.makedirs(os.path.dirname(so), mode=0o700)
    builds = []

    def garbage(cc, source, final):
        builds.append(final)
        with open(final, "wb") as fh:
            fh.write(b"\x7fELF garbage")

    garbage(None, None, so)
    builds.clear()
    monkeypatch.setattr(nativestore, "_build", garbage)
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        kernels = grouping_kernels(pipe, g.groups, NATIVE, str(tmp_path))
    assert not any(k.native for k in kernels)
    (w,) = native_warnings(record)
    assert "(load)" in str(w.message)
    assert builds == [so]
    assert not os.path.exists(so)
    out = execute_grouping(pipe, g, inputs, kernels=NATIVE)
    assert np.array_equal(out["blury"], expected)


def test_self_check_mismatch_demotes_only_that_group(monkeypatch, tmp_path):
    """Forced: the first time an artifact is used, one group 'differs'.
    It alone runs on NumPy — now, and on every later load, without the
    check running again."""
    bench, pipe, grouping = dp_grouping("UM")
    # UM's DP grouping is one group; split it so there are two
    names = [s.name for s in pipe.stages]
    g = manual_grouping(
        pipe, [names[:2], names[2:]], [[3, 16, 64], [3, 16, 64]]
    )
    inputs = random_inputs(pipe, np.random.default_rng(67))
    expected = output_digests(execute_reference(pipe, inputs))
    victim = tuple(names[:2])
    real = executor_mod._kernels_agree
    checked = []

    def disagree_on_victim(pipeline, geom, kernel):
        checked.append(kernel.group_names)
        return kernel.group_names != victim and real(pipeline, geom, kernel)

    monkeypatch.setattr(executor_mod, "_kernels_agree", disagree_on_victim)
    METRICS.reset(enabled=True)
    try:
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            kernels = grouping_kernels(pipe, g.groups, NATIVE, str(tmp_path))
        assert METRICS.value(
            "repro_kernel_native_total", result="demoted"
        ) == 1
    finally:
        METRICS.reset(enabled=False)
    assert [k.native for k in kernels] == [False, True]
    assert kernels[0].region_names == victim
    assert sorted(checked) == sorted([victim, tuple(names[2:])])
    (w,) = native_warnings(record)
    assert "(self-check)" in str(w.message)
    out = execute_grouping(pipe, g, inputs, kernels=NATIVE)
    assert output_digests(out) == expected

    # a later process: the artifact and its verdict are both on disk
    forget_loaded(monkeypatch)
    monkeypatch.setattr(
        executor_mod, "_kernels_agree",
        lambda *a: pytest.fail("self-check ran on an artifact-store hit"),
    )
    again = grouping_kernels(pipe, g.groups, NATIVE, str(tmp_path))
    assert [k.native for k in again] == [False, True]


def test_self_check_walks_a_carried_chunk(monkeypatch, tmp_path):
    """The first-use self-check runs a whole seeded chunk through the
    step table: a table whose first carried slot's origin is shifted by
    one — what only a carried window can get wrong, and what the two
    single steps never exercise — demotes the group with one
    ``KERNEL_NATIVE_FAIL``, and the outputs stay the reference's."""
    pipe, g, inputs, expected = _blur_case()
    real = native_mod._make_tabulate
    shifted = []

    def make_tabulate(cfunc, loop, layout, domains):
        tabulate = real(cfunc, loop, layout, domains)

        def shifted_tabulate(steps):
            table = tabulate(steps)
            rows = table.rows.copy()
            for m in layout.mats:
                (carried,) = np.nonzero(rows[:, m.region] == 2)
                if len(carried):
                    rows[carried[0], m.buf + m.ndim] += 1
                    shifted.append(m.name)
                    break
            table.rows = rows
            return table

        return shifted_tabulate

    monkeypatch.setattr(native_mod, "_make_tabulate", make_tabulate)
    METRICS.reset(enabled=True)
    try:
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            kernels = grouping_kernels(pipe, g.groups, NATIVE, str(tmp_path))
        assert METRICS.value(
            "repro_kernel_native_total", result="demoted"
        ) == 1
    finally:
        METRICS.reset(enabled=False)
    assert shifted == ["blurx"]
    assert not any(k.native for k in kernels)
    (w,) = native_warnings(record)
    assert "(self-check)" in str(w.message)
    out = execute_grouping(pipe, g, inputs, kernels=NATIVE)
    assert out["blury"].tobytes() == expected.tobytes()


def test_self_check_mismatch_demotes_only_the_reduction(monkeypatch, tmp_path):
    """Forced: on first use BG's ``grid`` 'differs'.  It alone goes back
    to ``_compute_reduction`` — the three groups of the same artifact
    stay native — and a later load reads the verdict and skips both the
    check and the reduction."""
    pipe, g, inputs, expected = _bg_case()
    real = executor_mod._kernels_agree
    checked = []

    def disagree_on_grid(pipeline, unit, kernel):
        checked.append(kernel.group_names)
        return kernel.group_names != ("grid",) and real(
            pipeline, unit, kernel
        )

    monkeypatch.setattr(executor_mod, "_kernels_agree", disagree_on_grid)
    METRICS.reset(enabled=True)
    try:
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            kernels = grouping_kernels(pipe, g.groups, NATIVE, str(tmp_path))
        assert METRICS.value(
            "repro_kernel_native_total", result="built"
        ) == 4
        assert METRICS.value(
            "repro_kernel_native_total", result="demoted"
        ) == 1
    finally:
        METRICS.reset(enabled=False)
    demoted = [k.group_names for k in kernels if not k.native]
    assert demoted == [("grid",)] and len(checked) == len(kernels) == 4
    (w,) = native_warnings(record)
    assert "(self-check)" in str(w.message)
    out = execute_grouping(pipe, g, inputs, kernels=NATIVE)
    assert out["filtered"].tobytes() == expected.tobytes()

    # a later process: the artifact and its verdict are both on disk
    forget_loaded(monkeypatch)
    monkeypatch.setattr(
        executor_mod, "_kernels_agree",
        lambda *a: pytest.fail("self-check ran on an artifact-store hit"),
    )
    again = grouping_kernels(pipe, g.groups, NATIVE, str(tmp_path))
    assert [k.group_names for k in again if not k.native] == [("grid",)]


def test_self_check_catches_an_unsafe_inline(monkeypatch, tmp_path):
    """A plan bug only the native kernel carries.  ``c`` reads ``p`` one
    point past each end of ``p``'s domain, where a materialised read
    clamps to ``p``'s edge, while ``p``'s input extends further.  With
    the inlining safety analysis patched to allow it, ``p`` inlines and
    the C kernel reads the input out there instead.  The self-check runs
    the stage walk, which inlines nothing, so it demotes the group with
    one ``KERNEL_NATIVE_FAIL`` (self-check) and the outputs stay the
    reference's."""
    x = Variable(Int, "x")
    n = 64
    img = Image(Float, "img", [n + 4])
    p = Function(([x], [Interval(Int, 1, n)]), Float, "p")
    p.defn = [img(x) * 2.0]
    c = Function(([x], [Interval(Int, 1, n)]), Float, "c")
    c.defn = [p(x - 1) + p(x) + p(x + 1)]
    pipe = Pipeline([c], {}, name="overread")
    g = manual_grouping(pipe, [["p", "c"]], [[16]])
    geom = compute_group_geometry(pipe, g.groups[0])
    assert kernelcache.plan_group(pipe, geom).inlined == ()
    real = kernelcache._unsafe_to_inline
    monkeypatch.setattr(
        kernelcache, "_unsafe_to_inline",
        lambda analysis, members: (real(analysis, members)[0], set()),
    )
    assert kernelcache.plan_group(pipe, geom).inlined == ("p",)
    inputs = random_inputs(pipe, np.random.default_rng(71))
    expected = execute_reference(pipe, inputs)["c"]
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        kernels = grouping_kernels(pipe, g.groups, NATIVE, str(tmp_path))
    assert [k.native for k in kernels] == [False]
    (w,) = native_warnings(record)
    assert "(self-check)" in str(w.message)
    out = execute_grouping(pipe, g, inputs, kernels=NATIVE)
    assert out["c"].tobytes() == expected.tobytes()


def _cli_env(xdg):
    """The suite's environment with native back on, a store of its own
    and ``src`` importable."""
    env = dict(os.environ)
    env.pop("REPRO_KERNELS")
    env["XDG_CACHE_HOME"] = str(xdg)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(os.path.dirname(__file__), "..", "src"),
                    env.get("PYTHONPATH")) if p
    )
    return env


def _run_cli(args, env):
    return subprocess.run(
        [sys.executable, "-m", "repro", "run", *args],
        env=env, capture_output=True, text=True, timeout=300,
    )


def _digests(stdout):
    return sorted(l for l in stdout.splitlines() if l.startswith("digest "))


def test_cli_flags_and_concurrent_builders(tmp_path):
    """``repro run`` end to end: two processes build the same key at the
    same time and both end with a loadable artifact (no partial file is
    ever loaded, nothing temporary stays behind); ``--kernels stage`` and
    ``REPRO_KERNELS=stage`` print the same digests; a third run finds the
    artifact and builds nothing; without ``g++`` the run still exits 0
    with the same digests and exactly one warning; a truncated artifact
    is rebuilt by the next process that finds it."""
    env = _cli_env(tmp_path / "xdg")
    base = ["UM", "--scale", "0.05", "--threads", "2", "--digest"]
    cmd = [sys.executable, "-m", "repro", "run", *base]
    procs = [
        subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True)
        for _ in range(2)
    ]
    outs = [p.communicate(timeout=300) for p in procs]
    assert [p.returncode for p in procs] == [0, 0], outs
    want = _digests(outs[0][0])
    assert want and _digests(outs[1][0]) == want
    assert not any("KERNEL_NATIVE_FAIL" in err for _, err in outs)
    store = tmp_path / "xdg" / "repro" / "native"
    names = sorted(os.listdir(store))
    assert [n.rsplit(".", 1)[1] for n in names] == ["json", "so"], names

    metrics = tmp_path / "m.txt"
    third = _run_cli(base + ["--metrics", str(metrics)], env)
    assert third.returncode == 0 and _digests(third.stdout) == want
    text = metrics.read_text()
    assert 'repro_kernel_native_total{result="cached"} 1' in text
    assert 'result="built"' not in text

    flag = _run_cli(
        base + ["--kernels", "stage", "--metrics", str(metrics)], env
    )
    assert flag.returncode == 0 and _digests(flag.stdout) == want
    assert "repro_kernel_native_total" not in metrics.read_text()
    var = _run_cli(base, dict(env, REPRO_KERNELS="stage"))
    assert var.returncode == 0 and _digests(var.stdout) == want

    masked = _run_cli(base, dict(env, PATH=str(tmp_path)))
    assert masked.returncode == 0 and _digests(masked.stdout) == want
    assert masked.stderr.count("KERNEL_NATIVE_FAIL") == 1, masked.stderr

    # half a file under the final name: the next process rebuilds it
    so = store / names[1]
    so.write_bytes(so.read_bytes()[:1000])
    fixed = _run_cli(base + ["--metrics", str(metrics)], env)
    assert fixed.returncode == 0 and _digests(fixed.stdout) == want
    assert "KERNEL_NATIVE_FAIL" not in fixed.stderr
    assert 'repro_kernel_native_total{result="built"} 1' in (
        metrics.read_text()
    )
    assert ctypes.CDLL(str(so)) is not None


def test_schedule_cache_flag_places_the_store(tmp_path):
    env = _cli_env(tmp_path / "unused")
    run = _run_cli(
        ["UM", "--scale", "0.05", "--digest",
         "--schedule-cache", str(tmp_path / "sched")], env,
    )
    assert run.returncode == 0, run.stderr
    assert any(
        n.endswith(".so") for n in os.listdir(tmp_path / "sched" / "native")
    )
    assert not (tmp_path / "unused").exists()


# ---------------------------------------------------------------------------
# observability
# ---------------------------------------------------------------------------


def _walk_spans(span):
    yield span
    for child in span.children:
        yield from _walk_spans(child)


def test_metrics_and_spans_name_the_native_tier(monkeypatch, tmp_path):
    """CP (seven native groups and the ineligible ``pow`` LUT) and BG
    (three native groups and one native reduction, counted alike)."""
    for abbrev, ineligible in (("CP", 1), ("BG", 0)):
        bench, pipe, grouping = dp_grouping(abbrev)
        inputs = make_inputs(pipe, 1)
        METRICS.reset(enabled=True)
        TRACE.reset(enabled=True)
        try:
            kernels = grouping_kernels(
                pipe, grouping.groups, NATIVE, str(tmp_path)
            )
            native = sum(k.native for k in kernels)
            assert METRICS.value(
                "repro_kernel_native_total", result="built"
            ) == native == len(kernels) - ineligible
            assert (METRICS.value(
                "repro_kernel_native_total", result="ineligible"
            ) or 0) == ineligible
            assert METRICS.value(
                "repro_kernel_native_build_seconds"
            )[0] == 1
            execute_grouping(pipe, grouping, inputs, kernels=NATIVE)
            spans = [
                s for s in _walk_spans(TRACE.root) if s.name == "group"
            ]
            # a tiled group says whether it ran native, an untiled one
            # how many of its reductions did
            assert sum(int(s.attrs["native"]) for s in spans) == native

            # another process, same machine: everything is found, not
            # built
            forget_loaded(monkeypatch)
            METRICS.reset(enabled=True)
            grouping_kernels(pipe, grouping.groups, NATIVE, str(tmp_path))
            assert METRICS.value(
                "repro_kernel_native_total", result="cached"
            ) == native
            assert not METRICS.value(
                "repro_kernel_native_total", result="built"
            )
        finally:
            METRICS.reset(enabled=False)
            TRACE.reset(enabled=False)
