"""Backend registry: resolution, digests, and the JSON surfaces."""

import dataclasses

import pytest

from repro.backend import (
    BACKENDS,
    CPU_BACKEND,
    GPU_BACKEND,
    backend_for_machine,
    backend_name_for,
    backends_json,
    get_backend,
    get_machine,
    machine_digest,
    machine_names,
    machines_json,
    resolve_machine,
)
from repro.cli import main
from repro.model import (
    AMD_OPTERON,
    GPU_A100,
    GPU_V100,
    GpuMachine,
    Machine,
    XEON_HASWELL,
)
from repro.serve import HostConfig, PipelineHost


class TestRegistry:
    def test_builtin_backends_are_registered(self):
        assert set(BACKENDS) >= {"cpu", "gpu"}
        assert get_backend("cpu") is CPU_BACKEND
        assert get_backend("gpu") is GPU_BACKEND

    def test_unknown_backend_raises_with_catalogue(self):
        with pytest.raises(KeyError, match="registered"):
            get_backend("tpu")

    def test_machine_names_cover_both_backends(self):
        names = machine_names()
        assert {"xeon", "opteron", "gpu-v100", "gpu-a100"} <= set(names)
        assert names == sorted(names)

    def test_get_machine_resolves_across_backends(self):
        assert get_machine("xeon") is XEON_HASWELL
        assert get_machine("gpu-a100") is GPU_A100
        with pytest.raises(KeyError, match="unknown machine"):
            get_machine("cray")


class TestResolveMachine:
    def test_either_name_implies_the_other(self):
        assert resolve_machine() is XEON_HASWELL
        assert resolve_machine(machine="gpu-a100") is GPU_A100
        assert resolve_machine("gpu") is GPU_V100
        assert resolve_machine("cpu", "opteron") is AMD_OPTERON
        with pytest.raises(KeyError, match="unknown backend"):
            resolve_machine("tpu")
        with pytest.raises(KeyError, match="unknown machine"):
            resolve_machine(machine="cray")

    def test_mismatched_pair_is_refused_alike_by_run_and_host(self):
        with pytest.raises(ValueError, match="does not belong") as direct:
            resolve_machine("gpu", "xeon")
        with pytest.raises(SystemExit) as cli:
            main(["run", "UM", "--backend", "gpu", "--machine", "xeon"])
        with pytest.raises(ValueError) as host:
            PipelineHost(
                "UM", HostConfig(backend="gpu", machine="xeon")
            ).warm()
        assert str(cli.value) == str(host.value) == str(direct.value)


class TestStructuralResolution:
    def test_machine_type_names_its_backend(self):
        assert backend_for_machine(XEON_HASWELL) is CPU_BACKEND
        assert backend_for_machine(AMD_OPTERON) is CPU_BACKEND
        assert backend_for_machine(GPU_V100) is GPU_BACKEND
        assert backend_name_for(GPU_A100) == "gpu"

    def test_unowned_type_is_a_type_error(self):
        with pytest.raises(TypeError, match="no registered backend"):
            backend_for_machine(object())

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


class TestJsonSurfaces:
    def test_backends_json_rows(self):
        rows = {r["name"]: r for r in backends_json()}
        assert rows["cpu"] == {
            "name": "cpu", "machines": ["opteron", "xeon"],
            "default_machine": "xeon",
        }
        assert rows["gpu"] == {
            "name": "gpu", "machines": ["gpu-a100", "gpu-v100"],
            "default_machine": "gpu-v100",
        }

    def test_machines_json_rows_carry_capacities_and_digests(self):
        rows = {r["key"]: r for r in machines_json()}
        assert rows["xeon"]["backend"] == "cpu"
        assert rows["xeon"]["l1_cache"] == XEON_HASWELL.l1_cache
        assert rows["gpu-v100"]["backend"] == "gpu"
        assert rows["gpu-v100"]["num_sms"] == GPU_V100.num_sms
        assert rows["gpu-v100"]["warp_width"] == GPU_V100.warp_width
        for row in rows.values():
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
