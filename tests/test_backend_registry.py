"""The machine table: lookup, type dispatch, digests, the JSON surface."""

import dataclasses

import pytest

from repro.model import (
    AMD_OPTERON,
    GPU_A100,
    GPU_V100,
    GpuMachine,
    Machine,
    XEON_HASWELL,
    group_cost,
)
from repro.model.machine import (
    MACHINES,
    get_machine,
    machine_digest,
    machines_json,
)

from conftest import build_blur


class TestRegistry:
    def test_machine_names_cover_both_backends(self):
        # One table holds both families: CPU and GPU presets.
        assert set(MACHINES) == {"xeon", "opteron", "gpu-v100", "gpu-a100"}
        assert isinstance(MACHINES["opteron"], Machine)
        assert isinstance(MACHINES["gpu-a100"], GpuMachine)

    def test_get_machine_resolves_across_backends(self):
        assert get_machine("xeon") is XEON_HASWELL
        assert get_machine("opteron") is AMD_OPTERON
        assert get_machine("gpu-v100") is GPU_V100
        assert get_machine("gpu-a100") is GPU_A100
        with pytest.raises(KeyError, match="unknown machine") as exc:
            get_machine("cray")
        assert "gpu-a100" in str(exc.value) and "xeon" in str(exc.value)


class TestStructuralResolution:
    """The machine description's type picks the function that prices a
    group."""

    def test_machine_type_names_its_backend(self):
        pipe = build_blur()
        gpu = group_cost(pipe, pipe.stages, GPU_V100)
        assert gpu.cache_level in {"warp", "block"}
        assert gpu.inner_tile_sizes
        for machine in (XEON_HASWELL, AMD_OPTERON):
            cpu = group_cost(pipe, pipe.stages, machine)
            assert cpu.cache_level in {"L1", "L2"}
            assert cpu.inner_tile_sizes == ()

    def test_unowned_type_is_a_type_error(self):
        pipe = build_blur()
        with pytest.raises(TypeError, match="no cost model"):
            group_cost(pipe, pipe.stages, object())

    def test_gpu_machine_is_not_a_cpu_machine(self):
        # The seam that stops a GpuMachine ever being priced by the CPU
        # cost model: structural resolution, not duck typing.
        assert not isinstance(GPU_V100, Machine)
        assert isinstance(GPU_V100, GpuMachine)


class TestMachineDigest:
    def test_digest_is_stable_within_a_process(self):
        assert machine_digest(XEON_HASWELL) == machine_digest(XEON_HASWELL)

    def test_digest_distinguishes_presets(self):
        digests = {
            machine_digest(m)
            for m in (XEON_HASWELL, AMD_OPTERON, GPU_V100, GPU_A100)
        }
        assert len(digests) == 4

    def test_digest_sees_every_field(self):
        tweaked = dataclasses.replace(GPU_V100, shared_mem_per_sm=2 ** 17)
        assert machine_digest(tweaked) != machine_digest(GPU_V100)
        cpu_tweaked = dataclasses.replace(XEON_HASWELL, l1_cache=2 ** 16)
        assert machine_digest(cpu_tweaked) != machine_digest(XEON_HASWELL)

    def test_digest_distinguishes_types_with_equal_fields(self):
        # Same name on different description types must not collide.
        assert machine_digest(XEON_HASWELL) != machine_digest(GPU_V100)

    def test_digests_are_pinned(self):
        # The schedule-cache key and the e2e envelope fold these in: a
        # change here orphans every cached schedule.
        assert {k: machine_digest(m) for k, m in MACHINES.items()} == {
            "xeon": "19dd69b00a818a07",
            "opteron": "33776309a8d3fa39",
            "gpu-v100": "1742c122dcba5ec0",
            "gpu-a100": "b3504ff90c3738f1",
        }


class TestJsonSurfaces:
    def test_machines_json_rows_carry_capacities_and_digests(self):
        rows = {r["key"]: r for r in machines_json()}
        assert set(rows) == set(MACHINES)
        assert rows["xeon"]["l1_cache"] == XEON_HASWELL.l1_cache
        assert rows["gpu-v100"]["num_sms"] == GPU_V100.num_sms
        assert rows["gpu-v100"]["warp_width"] == GPU_V100.warp_width
        for row in rows.values():
            assert "backend" not in row
            assert row["digest"] == machine_digest(get_machine(row["key"]))


class TestGpuMachineDerived:
    def test_derived_capacities(self):
        m = GPU_V100
        assert m.num_cores == m.num_sms * m.resident_blocks_per_sm
        assert m.shared_mem_per_block == \
            m.shared_mem_per_sm // m.resident_blocks_per_sm
        assert m.registers_per_warp == \
            m.register_file_per_sm // m.max_warps_per_sm

    def test_innermost_must_be_warp_aligned(self):
        with pytest.raises(ValueError):
            dataclasses.replace(GPU_V100, innermost_tile_size=100)
