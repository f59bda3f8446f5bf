"""Native validation — schedules timed on the executor that serves.

The rest of the harness prices schedules with the analytic timing model.
This bench closes the loop on real hardware: every configuration is
timed by :func:`repro.planner.executor_oracle` — wall time of
``execute_grouping`` at the process's resolved ``ExecOptions`` (the
native kernels when ``g++`` is on ``PATH``, the generated-NumPy kernels
otherwise), one thread — for Unsharp Mask at the paper's image size,
comparing

1. the Table 5 tile configurations (128x256 vs the model's 9x256-class
   choice), and
2. the PolyMageDP schedule against PolyMage-A tuned *by that oracle* —
   the paper's genuine protocol: run every configuration, keep the
   fastest — with the model-tuned PolyMage-A pick beside it, so the
   regret of tuning by the model is visible.

This machine is neither of the paper's testbeds, so absolute times
differ, but the paper's claims under test — the L1 tile beats the
L2-spilling tile; the DP schedule is at least competitive with the tuned
one — are checked on real hardware.
"""

import os
import platform
import shutil
import subprocess
import sys

sys.path.insert(0, __file__.rsplit("/", 1)[0])

import pytest

from common import write_result
from repro.fusion import dp_group, manual_grouping, polymage_autotune
from repro.model import XEON_HASWELL
from repro.pipelines import unsharp
from repro.planner import executor_oracle
from repro.reporting import format_table
from repro.runtime import ExecOptions

REPEATS = 5


def _host_note() -> str:
    gxx = shutil.which("g++")
    compiler = (
        subprocess.run([gxx, "--version"], capture_output=True, text=True)
        .stdout.splitlines()[0] if gxx else "no g++ (generated-NumPy kernels)"
    )
    options = ExecOptions.resolve()
    return (
        f"{platform.machine()}, {os.cpu_count()} cpus, threads = 1, "
        f"{compiler}, kernels = {options.tier.name.lower()}, "
        f"reuse = {options.reuse}"
    )


@pytest.fixture(scope="module")
def native():
    pipe = unsharp.build()  # paper size 4256x2832x3
    oracle = executor_oracle(nthreads=1, repeats=REPEATS)
    fused = [["blurx", "blury", "sharpen", "masked"]]
    times = {}
    times["tile 128x256 (L2-spilling)"] = oracle(
        pipe, manual_grouping(pipe, fused, [[3, 128, 256]])
    )
    times["tile 16x256"] = oracle(
        pipe, manual_grouping(pipe, fused, [[3, 16, 256]])
    )
    dp = dp_group(pipe, XEON_HASWELL)
    times[f"PolyMageDP ({list(dp.tile_sizes[0])})"] = oracle(pipe, dp)
    # one measured sweep serves both PolyMage-A rows: the model's pick is
    # one of its 18 configurations
    measured = polymage_autotune(pipe, XEON_HASWELL, oracle=oracle)
    model = polymage_autotune(pipe, XEON_HASWELL)
    picked = measured.trials[model.trials.index(model.best_trial)]
    best = measured.best_trial
    times[
        "PolyMage-A, tuned by measurement "
        f"({list(best.grouping.tile_sizes[0])})"
    ] = best.seconds
    times[
        "PolyMage-A, tuned by the model "
        f"({list(picked.grouping.tile_sizes[0])})"
    ] = picked.seconds
    return {name: seconds * 1e3 for name, seconds in times.items()}


def test_native_report(native):
    rows = [[name, round(ms, 2)] for name, ms in native.items()]
    text = format_table(
        "Native validation: Unsharp Mask at paper size on this machine's "
        f"executor (min of {REPEATS} runs, ms)",
        ["configuration", "ms"],
        rows,
        note=_host_note(),
    )
    print("\n" + text)
    write_result("native_validation.txt", text)


def test_model_tile_beats_l2_spilling_tile_on_real_hardware(native):
    dp_time = min(ms for name, ms in native.items() if "PolyMageDP" in name)
    big_tile = native["tile 128x256 (L2-spilling)"]
    assert dp_time < big_tile * 1.05


def test_dp_competitive_with_autotuned_on_real_hardware(native):
    dp_time = min(ms for name, ms in native.items() if "PolyMageDP" in name)
    tuned = min(ms for name, ms in native.items() if "PolyMage-A" in name)
    # "better than or competitive with an auto-tuned approach"
    assert dp_time <= tuned * 1.25
