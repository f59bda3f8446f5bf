"""The fault-injection harness, and the acceptance property it exists to
prove: under 100% failure at each injection site, the resilient scheduler
and guarded executor still produce reference-identical output for every
registered benchmark, and the reports name the tier that ran and the
faults encountered."""

import numpy as np
import pytest

from repro.errors import InjectedFault, ReproError
from repro.model import XEON_HASWELL
from repro.pipelines import BENCHMARKS
from repro.resilience import (
    FaultInjector,
    FaultSpec,
    GuardPolicy,
    ScheduleBudget,
    execute_guarded,
    inject_faults,
    maybe_fail,
    resilient_schedule,
    suspended,
)
from repro.runtime import KernelTier, execute_reference
from repro.runtime import native as native_mod

from conftest import build_blur, needs_gxx, random_inputs


class TestInjectorMechanics:
    def test_inactive_is_noop(self):
        maybe_fail("tile", detail="anything")  # no injector -> no failure

    def test_rate_one_always_fails(self):
        with inject_faults(tile=1.0):
            with pytest.raises(InjectedFault):
                maybe_fail("tile", detail="t0")

    def test_rate_zero_never_fails(self):
        with inject_faults(tile=0.0) as inj:
            for i in range(50):
                maybe_fail("tile", detail=f"t{i}")
        assert inj.counts["tile"].failures == 0

    def test_unconfigured_site_passes(self):
        with inject_faults(tile=1.0):
            maybe_fail("cost", detail="x")  # only "tile" is armed

    def test_deterministic_across_runs(self):
        def draw():
            hits = []
            with inject_faults(seed=42, tile=0.5):
                for i in range(100):
                    try:
                        maybe_fail("tile", detail=f"t{i}")
                        hits.append(False)
                    except InjectedFault:
                        hits.append(True)
            return hits

        first, second = draw(), draw()
        assert first == second
        assert any(first) and not all(first)  # rate 0.5 is neither extreme

    def test_seed_changes_plan(self):
        def plan(seed):
            out = []
            with inject_faults(seed=seed, tile=0.5):
                for i in range(64):
                    try:
                        maybe_fail("tile", detail=f"t{i}")
                        out.append(False)
                    except InjectedFault:
                        out.append(True)
            return out

        assert plan(1) != plan(2)

    def test_max_failures_bounds_injection(self):
        spec = FaultSpec(rate=1.0, max_failures=3)
        with inject_faults(FaultInjector(sites={"tile": spec})) as inj:
            failures = 0
            for i in range(10):
                try:
                    maybe_fail("tile", detail=f"t{i}")
                except InjectedFault:
                    failures += 1
        assert failures == 3
        assert inj.counts["tile"].failures == 3
        assert inj.counts["tile"].checks == 10

    def test_suspended_disables_injection(self):
        with inject_faults(tile=1.0):
            with suspended():
                maybe_fail("tile", detail="t0")  # does not raise
            with pytest.raises(InjectedFault):
                maybe_fail("tile", detail="t0")

    def test_injected_fault_is_structured(self):
        with inject_faults(alloc=1.0):
            with pytest.raises(ReproError) as exc_info:
                maybe_fail("alloc", detail="region")
        assert exc_info.value.code == "FAULT_INJECTED"
        assert exc_info.value.context["site"] == "alloc"

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(rate=1.5)

    def test_injector_xor_rates(self):
        with pytest.raises(ValueError):
            with inject_faults(FaultInjector(), tile=1.0):
                pass


class TestInstrumentedSites:
    """Each documented site actually fires."""

    def test_cost_site_fires_in_cost_model(self, blur_pipeline):
        from repro.model import CostModel

        cm = CostModel(blur_pipeline, XEON_HASWELL)
        with inject_faults(cost=1.0) as inj:
            with pytest.raises(InjectedFault):
                cm.cost(blur_pipeline.stages)
        assert inj.counts["cost"].failures == 1

    def test_alloc_site_fires_in_buffer(self):
        from repro.runtime.buffers import Buffer

        with inject_faults(alloc=1.0):
            with pytest.raises(InjectedFault):
                Buffer.for_region([(0, 7)], np.float32)

    def test_tile_site_fires_in_executor(self, blur_pipeline, rng):
        from repro.fusion import dp_group
        from repro.runtime import execute_grouping

        g = dp_group(blur_pipeline, XEON_HASWELL)
        inputs = random_inputs(blur_pipeline, rng)
        with inject_faults(tile=1.0) as inj:
            with pytest.raises(ReproError):
                execute_grouping(blur_pipeline, g, inputs)
        assert inj.counts["tile"].failures >= 1


# ---------------------------------------------------------------------------
# Acceptance: 100% failure at each site, every registered benchmark.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def bench_io():
    """Small builds + reference outputs, shared across the module."""
    rng = np.random.default_rng(7)
    data = {}
    for ab, b in BENCHMARKS.items():
        p = b.build(**b.small_kwargs)
        inputs = random_inputs(p, rng)
        data[ab] = (p, inputs, execute_reference(p, inputs))
    return data


def outputs_match(ref, out, atol=2e-3):
    return all(
        np.allclose(
            ref[k].astype(np.float64), out[k].astype(np.float64),
            atol=atol, rtol=1e-3,
        )
        for k in ref
    )


@pytest.mark.parametrize("abbrev", sorted(BENCHMARKS))
def test_dp_fault_degrades_but_output_correct(bench_io, abbrev):
    """100% cost-evaluation failure kills both DP tiers; the report names
    the surviving tier and the SCHED faults; output still matches."""
    p, inputs, ref = bench_io[abbrev]
    with inject_faults(cost=1.0):
        report = resilient_schedule(p, XEON_HASWELL)
    assert report.degraded
    assert report.tier in ("greedy", "no-fusion")
    tried = {a.tier: a for a in report.attempts}
    assert tried["dp"].status == "failed"
    assert tried["dp"].error_code == "FAULT_INJECTED"
    assert tried["dp-incremental"].status == "failed"
    assert report.grouping.is_valid()

    out = execute_guarded(p, report.grouping, inputs, nthreads=2).outputs
    assert outputs_match(ref, out)


#: every benchmark on the suite's tier, and two on native kernels, where
#: a request runs as one program (``-native``)
_FAULT_CASES = [
    pytest.param(abbrev, KernelTier.resolve(), id=abbrev)
    for abbrev in sorted(BENCHMARKS)
] + [
    pytest.param(
        abbrev, KernelTier.NATIVE, id=f"{abbrev}-native",
        marks=[pytest.mark.native, needs_gxx],
    )
    for abbrev in ("BG", "CP")
]


def _programs_run(monkeypatch, kernels):
    """Count :meth:`_Program.run` entries; returns a check that a
    ``NATIVE`` case entered it."""
    runs = []
    real = native_mod._Program.run

    def run(self, *args):
        runs.append(self)
        return real(self, *args)

    monkeypatch.setattr(native_mod._Program, "run", run)
    return lambda: bool(runs) == (kernels is KernelTier.NATIVE)


@pytest.mark.parametrize("abbrev, kernels", _FAULT_CASES)
def test_tile_fault_degrades_but_output_correct(
    bench_io, abbrev, kernels, monkeypatch
):
    """100% tile failure forces every tiled group onto the reference
    fallback; output is identical to the reference interpreter.  On
    native kernels the request's program fails its first op's check and
    its groups walk on the stage walk, where every step fails too."""
    p, inputs, ref = bench_io[abbrev]
    grouping = resilient_schedule(
        p, XEON_HASWELL,
        ScheduleBudget(dp_max_states=200_000, initial_limit=2, step=2),
    ).grouping
    entered = _programs_run(monkeypatch, kernels)
    with inject_faults(tile=1.0):
        result = execute_guarded(
            p, grouping, inputs, nthreads=2,
            policy=GuardPolicy(tile_retries=1, degrade=True, kernels=kernels),
        )
    assert entered()
    tiled_outcomes = [o for o in result.outcomes if o.error_code]
    for o in tiled_outcomes:
        assert o.mode == "reference-fallback"
        assert o.error_code == "TILE_FAIL"
    # every group that would have tiled must have degraded, not died
    assert not any(o.mode == "tiled" for o in result.outcomes)
    assert outputs_match(ref, result.outputs)


@pytest.mark.parametrize("abbrev, kernels", _FAULT_CASES)
def test_alloc_fault_degrades_but_output_correct(
    bench_io, abbrev, kernels, monkeypatch
):
    p, inputs, ref = bench_io[abbrev]
    grouping = resilient_schedule(
        p, XEON_HASWELL,
        ScheduleBudget(dp_max_states=200_000, initial_limit=2, step=2),
    ).grouping
    entered = _programs_run(monkeypatch, kernels)
    with inject_faults(alloc=1.0):
        result = execute_guarded(
            p, grouping, inputs, nthreads=2,
            policy=GuardPolicy(kernels=kernels),
        )
    assert entered()
    assert outputs_match(ref, result.outputs)


def test_retry_succeeds_after_transient_fault():
    """max_failures=1 models a transient error: the first tile attempt
    fails, the bounded retry succeeds, and no fallback is needed."""
    from repro.fusion import dp_group

    p = build_blur()
    g = dp_group(p, XEON_HASWELL)
    rng = np.random.default_rng(3)
    inputs = random_inputs(p, rng)
    ref = execute_reference(p, inputs)
    injector = FaultInjector(
        sites={"tile": FaultSpec(rate=1.0, max_failures=1)}
    )
    with inject_faults(injector):
        result = execute_guarded(
            p, g, inputs, policy=GuardPolicy(tile_retries=1, degrade=True),
        )
    assert injector.counts["tile"].failures == 1
    assert all(o.mode != "reference-fallback" for o in result.outcomes)
    assert outputs_match(ref, result.outputs)
