"""Backend smoke benchmark: CPU bit-identity + GPU two-level model.

Two halves, both runnable on CPU-only CI (no GPU):

1. **CPU bit-identity** — full-DP schedules on the six paper benchmarks
   through the backend seam must match the frozen seed baseline
   (``benchmarks/baselines/schedule_seed.json``) decision for decision:
   the backend refactor must be invisible on the CPU path.
2. **GPU two-level model** — the same pipelines scheduled for
   :data:`GPU_V100`: per final group, the block/warp tile sizes, the
   chosen mode (``warp``/``block``), and the search statistics.  The
   ``--check`` gate asserts the analytic contracts (warp divides block,
   shared-memory and register budgets respected, and the warp→block
   crossover flipping monotonically on a deepening synthetic stencil
   chain) rather than any time-based number, so it cannot flake on a
   loaded CI runner.

Results land in ``BENCH_backend.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_backend.py
    PYTHONPATH=src python benchmarks/bench_backend.py --check
    PYTHONPATH=src python benchmarks/bench_backend.py --pipelines UM BG
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import List, Optional

from repro.backend import gpu_group_cost
from repro.fusion import dp_group, inc_grouping
from repro.model import GPU_V100, XEON_HASWELL
from repro.model.cost import CostModel
from repro.model.tilesize import tile_residency_bytes
from repro.pipelines import BENCHMARKS

HERE = os.path.dirname(os.path.abspath(__file__))
BASELINE_PATH = os.path.join(HERE, "baselines", "schedule_seed.json")
DEFAULT_OUTPUT = os.path.join(os.path.dirname(HERE), "BENCH_backend.json")

MAX_STATES = 1_500_000


def _schedule(pipe, machine, abbrev: str):
    """The repo's standard full-DP dispatch (PB takes the incremental
    ramp, exactly like the CLI and bench_schedule_time.py)."""
    cm = CostModel(pipe, machine)
    if abbrev == "PB":
        g = inc_grouping(pipe, machine, initial_limit=2, step=2,
                        cost_model=cm, max_states=MAX_STATES, prune=True)
    else:
        g = dp_group(pipe, machine, cost_model=cm,
                     max_states=MAX_STATES, prune=True)
    return g, cm.evaluations


def _cpu_record(abbrev: str, base_by_key) -> dict:
    pipe = BENCHMARKS[abbrev].build()
    start = time.perf_counter()
    grouping, evals = _schedule(pipe, XEON_HASWELL, abbrev)
    seconds = time.perf_counter() - start
    rec = {
        "pipeline": abbrev,
        "machine": "xeon",
        "seconds": round(seconds, 6),
        "states": grouping.stats.enumerated,
        "cost_evaluations": evals,
        "num_groups": grouping.num_groups,
        "groups": grouping.group_names(),
        "tile_sizes": [list(t) for t in grouping.tile_sizes],
    }
    base = base_by_key.get((abbrev, "full_dp"))
    if base is not None:
        rec["bit_identical"] = (
            rec["groups"] == base["groups"]
            and rec["tile_sizes"] == base["tile_sizes"]
        )
    return rec


def _gpu_record(abbrev: str) -> dict:
    pipe = BENCHMARKS[abbrev].build()
    start = time.perf_counter()
    grouping, evals = _schedule(pipe, GPU_V100, abbrev)
    seconds = time.perf_counter() - start
    groups = []
    violations: List[str] = []
    for members, block in zip(grouping.groups, grouping.tile_sizes):
        cost = gpu_group_cost(pipe, members, GPU_V100)
        geom = cost.geom
        warp = cost.inner_tile_sizes
        names = sorted(s.name for s in members)
        groups.append({
            "stages": names,
            "block_tiles": list(cost.tile_sizes),
            "warp_tiles": list(warp),
            "level": cost.cache_level,
            "shared_bytes": round(
                tile_residency_bytes(geom, cost.tile_sizes), 1
            ),
            "register_bytes": round(tile_residency_bytes(geom, warp), 1),
        })
        for b, w in zip(cost.tile_sizes, warp):
            if b % w:
                violations.append(
                    f"{abbrev}/{names}: warp {warp} does not divide "
                    f"block {list(cost.tile_sizes)}"
                )
                break
        if (tile_residency_bytes(geom, cost.tile_sizes)
                > GPU_V100.shared_mem_per_block
                and not all(b == 1 for b in cost.tile_sizes)):
            violations.append(f"{abbrev}/{names}: block tile over budget")
        if (tile_residency_bytes(geom, warp) > GPU_V100.registers_per_warp
                and not all(w == 1 for w in warp)):
            violations.append(f"{abbrev}/{names}: warp tile over budget")
    return {
        "pipeline": abbrev,
        "machine": "gpu-v100",
        "seconds": round(seconds, 6),
        "states": grouping.stats.enumerated,
        "cost_evaluations": evals,
        "num_groups": grouping.num_groups,
        "groups": groups,
        "violations": violations,
    }


def _crossover_sweep() -> dict:
    """Warp→block crossover on a deepening synthetic stencil chain —
    the analytic shape the model must produce (deeper chains pay more
    warp-level halo until cooperative striping wins)."""
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "tests"))
    from test_gpu_tilesize import build_stencil_chain

    levels = []
    for depth in range(1, 13):
        pipe = build_stencil_chain(depth, 4)
        cost = gpu_group_cost(pipe, pipe.stages, GPU_V100)
        levels.append({"depth": depth, "level": cost.cache_level})
    flipped = False
    monotone = True
    for row in levels:
        if flipped and row["level"] != "block":
            monotone = False
        if row["level"] == "block":
            flipped = True
    return {"radius": 4, "sweep": levels,
            "crossed": flipped, "monotone": monotone}


def run(abbrevs: List[str], check: bool, output: str) -> int:
    base_by_key = {}
    if os.path.exists(BASELINE_PATH):
        with open(BASELINE_PATH) as fh:
            base_by_key = {
                (r["pipeline"], r["strategy"]): r
                for r in json.load(fh)["results"]
            }

    cpu_records, gpu_records = [], []
    for ab in abbrevs:
        rec = _cpu_record(ab, base_by_key)
        cpu_records.append(rec)
        tag = {True: "bit-identical", False: "MISMATCH"}.get(
            rec.get("bit_identical"), "no baseline"
        )
        print(f"{ab:>3} cpu  {rec['seconds']:8.3f}s  "
              f"groups={rec['num_groups']}  {tag}")
        rec = _gpu_record(ab)
        gpu_records.append(rec)
        levels = ",".join(g["level"] for g in rec["groups"])
        print(f"{ab:>3} gpu  {rec['seconds']:8.3f}s  "
              f"groups={rec['num_groups']}  levels=[{levels}]"
              + (f"  VIOLATIONS={len(rec['violations'])}"
                 if rec["violations"] else ""))

    crossover = _crossover_sweep()
    print(f"crossover sweep (radius {crossover['radius']}): "
          f"crossed={crossover['crossed']} monotone={crossover['monotone']}")

    payload = {
        "benchmark": "backend",
        "description": "CPU bit-identity through the backend seam and "
                       "GPU two-level tile model outputs",
        "cpu_cores": os.cpu_count(),
        "baseline": os.path.relpath(BASELINE_PATH, os.path.dirname(HERE)),
        "cpu": cpu_records,
        "gpu": gpu_records,
        "crossover": crossover,
    }
    with open(output, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"wrote {output}")

    if not check:
        return 0
    failed = False
    for rec in cpu_records:
        if rec.get("bit_identical") is False:
            print(f"FAIL: {rec['pipeline']} CPU schedule diverged from "
                  "the seed baseline")
            failed = True
        elif "bit_identical" not in rec:
            print(f"FAIL: no baseline row for {rec['pipeline']}/full_dp")
            failed = True
    for rec in gpu_records:
        for v in rec["violations"]:
            print(f"FAIL: {v}")
            failed = True
    if not crossover["crossed"]:
        print("FAIL: crossover sweep never reached block mode")
        failed = True
    if not crossover["monotone"]:
        print("FAIL: crossover is not monotone in chain depth")
        failed = True
    if not failed:
        print("PASS: CPU decisions bit-identical; GPU constraints and "
              "crossover shape hold")
    return 1 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--pipelines", nargs="+", choices=sorted(BENCHMARKS),
        default=sorted(BENCHMARKS),
    )
    parser.add_argument("--output", default=DEFAULT_OUTPUT)
    parser.add_argument(
        "--check", action="store_true",
        help="exit 1 on any bit-identity mismatch, capacity/divisibility "
             "violation, or a broken crossover shape",
    )
    args = parser.parse_args(argv)
    return run(args.pipelines, args.check, args.output)


if __name__ == "__main__":
    sys.exit(main())
