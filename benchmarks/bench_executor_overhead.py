"""Per-tile executor overhead: interpreted vs per-stage vs fused vs
native.

The paper's cost model reasons about locality and parallelism, but a
Python interpreter that re-walks each stage's expression tree per tile
adds per-tile overhead the model knows nothing about — the motivation for
the compiled-kernel layer in :mod:`repro.runtime.kernelcache`.  This
benchmark measures that overhead directly: every registered benchmark
pipeline is executed on its H-manual grouping with tile sizes clamped
small (so the tile count is high and per-tile dispatch dominates), at
the four tiers of :data:`MODES` — interpreter, per-stage
kernels, fused per-group kernels and native (C) group kernels, every one
on the same carrying walk — on one thread.  Reported per pipeline: total
wall time, tile count, per-tile microseconds for all four modes, the
compiled-vs-interpreted, fused-vs-per-stage and native-vs-fused
speedups, the model-predicted ``overlap_recompute_fraction`` (the
redundant-work share halo reuse claims), and — since the walk runs
*steps* of several adjacent tiles per kernel call — ``steps`` and the
fused and native modes' microseconds per step beside ``tiles``.  The
per-stage compiled path is then re-run at each ``--threads`` count
(default 1/2/4) to record the chunked tile scheduler's parallel scaling
and efficiency.

Results land in ``BENCH_executor.json`` (see ``--output``) — the repo's
executor-performance trajectory, stamped with the machine's
``cpu_count`` and the compiler's version.  ``--check`` exits nonzero when
compiled execution is slower than interpreted, fused is slower than
per-stage, any output mismatches — the ``native`` mode's digests must
equal ``fused``'s (no timing floor: without a compiler it runs the
``fused`` mode's kernels) — or the walk ran more steps than tiles, which
is how CI smoke-tests the fast path.

Usage::

    PYTHONPATH=src python benchmarks/bench_executor_overhead.py
    PYTHONPATH=src python benchmarks/bench_executor_overhead.py \
        --pipelines UM --repeats 5 --check
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.fusion.grouping import Grouping
from repro.obs import METRICS
from repro.pipelines import BENCHMARKS
from repro.planner import output_digests
from repro.poly.alignscale import compute_group_geometry
from repro.runtime import (
    KernelTier,
    clear_kernel_cache,
    execute_grouping,
    grouping_kernels,
    warm_group_kernels,
)

#: Tile sizes are clamped to this per dimension so every pipeline runs
#: hundreds of tiles — the regime where per-tile overhead, not arithmetic,
#: dominates and the interpreted/compiled difference is what's measured.
MAX_TILE = 32

#: The four measured modes, slowest first: the four tiers, each one rung
#: up from the last.
MODES = {
    "interpreted": KernelTier.INTERPRET,
    "compiled": KernelTier.STAGE,
    "fused": KernelTier.FUSED,
    "native": KernelTier.NATIVE,
}

DEFAULT_OUTPUT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_executor.json",
)


def _clamped_grouping(pipe, grouping: Grouping) -> Grouping:
    tiles = tuple(
        tuple(min(t, MAX_TILE) for t in ts) for ts in grouping.tile_sizes
    )
    return dataclasses.replace(grouping, tile_sizes=tiles)


def _count_tiles(pipe, grouping: Grouping) -> int:
    """Tiles executed across all groups (untiled groups count 1 region
    per member stage, matching what the executor actually runs)."""
    total = 0
    for members, tiles in zip(grouping.groups, grouping.tile_sizes):
        geom = compute_group_geometry(pipe, members)
        if geom is None or not tiles or len(tiles) != geom.ndim:
            total += len(members)
            continue
        n = 1
        for (lo, hi), t in zip(geom.grid_bounds, tiles):
            n *= -(-(hi - lo + 1) // t)
        total += n
    return total


def _count_steps(pipe, grouping: Grouping, inputs, kernels: KernelTier,
                 n_tiles: int) -> int:
    """Kernel steps of one execution at ``kernels``: ``n_tiles`` with the
    tiled groups' tiles replaced by the steps the executor says it ran
    (``repro_tile_steps_total`` — the counter operators read)."""
    METRICS.reset(enabled=True)
    try:
        execute_grouping(pipe, grouping, inputs, kernels=kernels)
        return n_tiles - int(
            (METRICS.value("repro_tiles_total") or 0)
            - (METRICS.value("repro_tile_steps_total") or 0)
        )
    finally:
        METRICS.reset(enabled=False)


def _inputs(pipe, seed: int = 0) -> Dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    out = {}
    for img in pipe.images:
        shape = pipe.image_shape(img)
        if img.scalar_type.np_dtype.kind in "ui":
            out[img.name] = rng.integers(0, 1024, shape).astype(
                img.scalar_type.np_dtype
            )
        else:
            out[img.name] = rng.random(shape, dtype=np.float32)
    return out


def _time_mode(pipe, grouping, inputs, kernels: KernelTier,
               repeats: int, nthreads: int = 1,
               ) -> Tuple[float, Dict[str, np.ndarray]]:
    """Best-of-``repeats`` wall time; one untimed warmup run first (the
    warmup also populates the kernel cache, so compilation cost is
    excluded — it is paid once per pipeline, not per run)."""
    out = execute_grouping(
        pipe, grouping, inputs, nthreads=nthreads, kernels=kernels
    )
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        out = execute_grouping(
            pipe, grouping, inputs, nthreads=nthreads, kernels=kernels
        )
        best = min(best, time.perf_counter() - start)
    return best, out


def _overlap_recompute_fraction(pipe, grouping: Grouping) -> float:
    """Model-predicted redundant-work share of the grouping: overlap
    points over total computed points, summed over every tiled group at
    its (clamped) tile shape — the share of execution halo reuse
    claims back."""
    from repro.poly.overlap import overlap_size, tile_volume

    ovl_total = 0.0
    vol_total = 0.0
    for members, tiles in zip(grouping.groups, grouping.tile_sizes):
        geom = compute_group_geometry(pipe, members)
        if geom is None or not tiles or len(tiles) != geom.ndim:
            continue
        n = 1
        for (lo, hi), t in zip(geom.grid_bounds, tiles):
            n *= -(-(hi - lo + 1) // t)
        ovl_total += overlap_size(geom, tiles) * n
        vol_total += tile_volume(geom, tiles) * n
    return ovl_total / vol_total if vol_total else 0.0


def run(abbrevs: List[str], repeats: int,
        threads: Optional[List[int]] = None) -> List[dict]:
    threads = threads or [1, 2, 4]
    records = []
    for ab in abbrevs:
        bench = BENCHMARKS[ab]
        pipe = bench.build(**bench.small_kwargs)
        grouping = _clamped_grouping(pipe, bench.h_manual(pipe))
        n_tiles = _count_tiles(pipe, grouping)
        inputs = _inputs(pipe)
        clear_kernel_cache()
        # Groups the fused tier actually covers; a pipeline whose
        # grouping is all singletons (or nothing fuses) runs the same
        # code in both compiled modes and its ratio is pure noise.
        n_fused = len(
            warm_group_kernels(pipe, grouping.groups, MODES["fused"])
        )

        (t_interp, out_i), (t_compiled, out_c), (t_fused, out_f) = (
            _time_mode(pipe, grouping, inputs, MODES[mode], repeats)
            for mode in ("interpreted", "compiled", "fused")
        )
        # Fourth: the same walk on native kernels (built, or found in the
        # artifact store, by the warm-up run inside _time_mode).
        t_native, out_n = _time_mode(
            pipe, grouping, inputs, MODES["native"], repeats
        )
        native_groups = sum(
            k.native
            for k in grouping_kernels(pipe, grouping.groups, MODES["native"])
        )

        # Thread sweep on the per-stage compiled path: parallel
        # efficiency of the chunked tile scheduler, normalized to its
        # own 1-thread time.
        sweep: Dict[str, Dict[str, float]] = {}
        for n in threads:
            t_n = (
                t_compiled if n == 1
                else _time_mode(
                    pipe, grouping, inputs, MODES["compiled"], repeats, n
                )[0]
            )
            sweep[str(n)] = {
                "seconds": round(t_n, 6),
                "scaling": round(t_compiled / t_n, 3),
                "efficiency": round(t_compiled / t_n / n, 3),
            }

        matches = all(
            np.allclose(
                out_i[k].astype(np.float64), out_c[k].astype(np.float64),
                atol=1e-5, rtol=1e-5,
            )
            for k in out_i
        ) and all(
            # the fused tier must be bit-identical to the per-stage tier
            np.array_equal(out_c[k], out_f[k]) for k in out_c
        )
        native_matches = output_digests(out_n) == output_digests(out_f)
        n_steps = _count_steps(
            pipe, grouping, inputs, MODES["fused"], n_tiles
        )
        rec = {
            "pipeline": ab,
            "name": bench.name,
            "stages": len(pipe.stages),
            "tiles": n_tiles,
            "steps": n_steps,
            "fused_groups": n_fused,
            "native_groups": native_groups,
            "interpreted_s": round(t_interp, 6),
            "compiled_s": round(t_compiled, 6),
            "fused_s": round(t_fused, 6),
            "native_s": round(t_native, 6),
            "interpreted_us_per_tile": round(t_interp / n_tiles * 1e6, 2),
            "compiled_us_per_tile": round(t_compiled / n_tiles * 1e6, 2),
            "fused_us_per_tile": round(t_fused / n_tiles * 1e6, 2),
            "fused_us_per_step": round(t_fused / n_steps * 1e6, 2),
            "native_us_per_tile": round(t_native / n_tiles * 1e6, 2),
            "native_us_per_step": round(t_native / n_steps * 1e6, 2),
            "speedup": round(t_interp / t_compiled, 3),
            "fused_speedup": round(t_compiled / t_fused, 3),
            "native_speedup": round(t_fused / t_native, 3),
            "overlap_recompute_fraction": round(
                _overlap_recompute_fraction(pipe, grouping), 4
            ),
            "outputs_match": bool(matches),
            "native_digests_match": bool(native_matches),
            "threads": sweep,
        }
        records.append(rec)
        scaling = "  ".join(
            f"{n}t {sweep[str(n)]['scaling']:.2f}x" for n in threads
        )
        print(
            f"{ab:>3}  {n_tiles:>5} tiles  "
            f"interp {rec['interpreted_us_per_tile']:>8.1f} us/tile  "
            f"compiled {rec['compiled_us_per_tile']:>8.1f} us/tile  "
            f"fused {rec['fused_us_per_tile']:>8.1f} us/tile "
            f"({n_steps} steps, {rec['fused_us_per_step']:.1f} us/step)  "
            f"native {rec['native_us_per_tile']:>8.1f} us/tile "
            f"({native_groups} groups, {rec['native_speedup']:.2f}x)  "
            f"speedup {rec['speedup']:>6.2f}x  "
            f"fused {rec['fused_speedup']:>5.2f}x  "
            f"ovl {rec['overlap_recompute_fraction']:.3f}  "
            f"{'OK' if matches and native_matches else 'MISMATCH'}  "
            f"[{scaling}]"
        )
    return records


def _compiler_version() -> Optional[str]:
    """First line of ``g++ --version``; ``None`` without a compiler (the
    ``native`` mode then measured the ``fused`` mode's kernels)."""
    cc = shutil.which("g++")
    if cc is None:
        return None
    out = subprocess.run([cc, "--version"], capture_output=True, text=True)
    return out.stdout.splitlines()[0] if out.stdout else None


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--pipelines", nargs="+", choices=sorted(BENCHMARKS),
        default=sorted(BENCHMARKS),
    )
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--threads", nargs="+", type=int, default=[1, 2, 4],
        help="thread counts for the compiled-path scaling sweep",
    )
    parser.add_argument("--output", default=DEFAULT_OUTPUT)
    parser.add_argument(
        "--check", action="store_true",
        help="exit 1 if compiled is slower than interpreted anywhere, "
             "any output mismatches, or the step counts are off",
    )
    args = parser.parse_args(argv)

    records = run(args.pipelines, args.repeats, args.threads)
    fusable = [r for r in records if r["fused_groups"]]
    fused_geomean = float(np.exp(np.mean(
        [np.log(max(r["fused_speedup"], 1e-9)) for r in fusable]
    ))) if fusable else 1.0
    native_geomean = float(np.exp(np.mean(
        [np.log(max(r["native_speedup"], 1e-9)) for r in records]
    ))) if records else 1.0
    payload = {
        "benchmark": "executor_overhead",
        "description": "interpreted vs per-stage vs fused vs native "
                       "per-tile (and, for fused and native, per-step) "
                       "cost (1 thread, every tier carrying halos) plus a "
                       "compiled-path thread-scaling sweep, H-manual "
                       f"grouping with tiles clamped to {MAX_TILE}",
        "max_tile": MAX_TILE,
        "repeats": args.repeats,
        "threads": args.threads,
        "cpu_count": os.cpu_count(),
        "compiler": _compiler_version(),
        "fused_speedup_geomean": round(fused_geomean, 3),
        "native_speedup_geomean": round(native_geomean, 3),
        "results": records,
    }
    with open(args.output, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.output}")
    print(f"fused-vs-per-stage geomean {fused_geomean:.2f}x "
          f"({len(fusable)}/{len(records)} pipelines with fused groups)")
    print(f"native-vs-fused geomean {native_geomean:.2f}x "
          f"({payload['compiler']})")

    if args.check:
        bad = [
            r["pipeline"] for r in records
            if r["speedup"] < 1.0
            or (r["fused_groups"] and r["fused_speedup"] < 1.0)
            or not r["outputs_match"]
            or not r["native_digests_match"]
            or r["steps"] > r["tiles"]
        ]
        if bad:
            print(f"FAIL: compiled slower than interpreted, fused slower "
                  f"than per-stage, outputs mismatched, or steps > tiles "
                  f"on {bad}")
            return 1
        print("PASS: compiled >= interpreted, fused >= per-stage, native "
              "digests == fused, steps <= tiles on all measured pipelines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
