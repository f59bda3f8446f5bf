"""Per-tile executor overhead: per-stage NumPy kernels vs native C.

The paper's cost model reasons about locality and parallelism, but every
kernel call the executor makes per tile adds overhead the model knows
nothing about — the motivation for the compiled-kernel layers in
:mod:`repro.runtime.kernelcache` and :mod:`repro.runtime.native`.  This
benchmark measures that overhead directly: every registered benchmark
pipeline is executed on its H-manual grouping with tile sizes clamped
small (so the tile count is high and per-tile dispatch dominates), at
the two tiers of :data:`MODES` — per-stage kernels and native (C) group
kernels, both on the same carrying walk — on one thread.  Reported per
pipeline: total wall time, tile count, per-tile microseconds for both
modes, the native-vs-per-stage speedup, the model-predicted
``overlap_recompute_fraction`` (the redundant-work share halo reuse
claims), and — since the walk runs *steps* of several adjacent tiles per
kernel call — each mode's ``steps`` and microseconds per step beside
``tiles``.  The per-stage compiled path is then re-run at each
``--threads`` count (default 1/2/4) to record the chunked tile
scheduler's parallel scaling and efficiency.

Results land in ``BENCH_executor.json`` (see ``--output``) — the repo's
executor-performance trajectory, stamped with the machine's
``cpu_count`` and the compiler's version.  ``--check`` exits nonzero when
the ``native`` mode's digests differ from ``compiled``'s, the walk ran
more steps than tiles, or — with ``g++`` on ``PATH`` — native execution
is slower than compiled (without a compiler the ``native`` mode runs the
``compiled`` mode's kernels, and there is no timing floor), which is how
CI smoke-tests the fast path.

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
)

#: Tile sizes are clamped to this per dimension so every pipeline runs
#: hundreds of tiles — the regime where per-tile overhead, not arithmetic,
#: dominates and the per-stage/native difference is what's measured.
MAX_TILE = 32

#: The two measured modes, slower first: the two tiers.
MODES = {
    "compiled": KernelTier.STAGE,
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
        # native last: built, or found in the artifact store, by the
        # warm-up run inside _time_mode
        (t_compiled, out_c), (t_native, out_n) = (
            _time_mode(pipe, grouping, inputs, MODES[mode], repeats)
            for mode in ("compiled", "native")
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

        native_matches = output_digests(out_n) == output_digests(out_c)
        n_steps, native_steps = (
            _count_steps(pipe, grouping, inputs, MODES[mode], n_tiles)
            for mode in ("compiled", "native")
        )
        rec = {
            "pipeline": ab,
            "name": bench.name,
            "stages": len(pipe.stages),
            "tiles": n_tiles,
            "steps": n_steps,
            "native_steps": native_steps,
            "native_groups": native_groups,
            "compiled_s": round(t_compiled, 6),
            "native_s": round(t_native, 6),
            "compiled_us_per_tile": round(t_compiled / n_tiles * 1e6, 2),
            "compiled_us_per_step": round(t_compiled / n_steps * 1e6, 2),
            "native_us_per_tile": round(t_native / n_tiles * 1e6, 2),
            "native_us_per_step": round(
                t_native / native_steps * 1e6, 2
            ),
            "native_speedup": round(t_compiled / t_native, 3),
            "overlap_recompute_fraction": round(
                _overlap_recompute_fraction(pipe, grouping), 4
            ),
            "native_digests_match": bool(native_matches),
            "threads": sweep,
        }
        records.append(rec)
        scaling = "  ".join(
            f"{n}t {sweep[str(n)]['scaling']:.2f}x" for n in threads
        )
        print(
            f"{ab:>3}  {n_tiles:>5} tiles  "
            f"compiled {rec['compiled_us_per_tile']:>8.1f} us/tile "
            f"({n_steps} steps, {rec['compiled_us_per_step']:.1f} us/step)  "
            f"native {rec['native_us_per_tile']:>8.1f} us/tile "
            f"({native_groups} groups, {rec['native_speedup']:.2f}x)  "
            f"ovl {rec['overlap_recompute_fraction']:.3f}  "
            f"{'OK' if native_matches else 'MISMATCH'}  "
            f"[{scaling}]"
        )
    return records


def _compiler_version() -> Optional[str]:
    """First line of ``g++ --version``; ``None`` without a compiler (the
    ``native`` mode then measured the ``compiled`` mode's kernels)."""
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
        help="exit 1 if native is slower than compiled anywhere (with "
             "g++ on PATH), native digests differ from compiled's, or "
             "the step counts are off",
    )
    args = parser.parse_args(argv)

    records = run(args.pipelines, args.repeats, args.threads)
    native_geomean = float(np.exp(np.mean(
        [np.log(max(r["native_speedup"], 1e-9)) for r in records]
    ))) if records else 1.0
    payload = {
        "benchmark": "executor_overhead",
        "description": "per-stage vs native per-tile "
                       "(and, for per-stage and native, per-step) cost "
                       "(1 thread, every tier carrying halos) plus a "
                       "compiled-path thread-scaling sweep, H-manual "
                       f"grouping with tiles clamped to {MAX_TILE}",
        "max_tile": MAX_TILE,
        "repeats": args.repeats,
        "threads": args.threads,
        "cpu_count": os.cpu_count(),
        "compiler": _compiler_version(),
        "native_speedup_geomean": round(native_geomean, 3),
        "results": records,
    }
    with open(args.output, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.output}")
    print(f"native-vs-per-stage geomean {native_geomean:.2f}x "
          f"({payload['compiler']})")

    if args.check:
        timed = payload["compiler"] is not None
        bad = [
            r["pipeline"] for r in records
            if (timed and r["native_speedup"] < 1.0)
            or not r["native_digests_match"]
            or r["steps"] > r["tiles"]
        ]
        if bad:
            print(f"FAIL: native slower than compiled, native digests "
                  f"mismatched, or steps > tiles on {bad}")
            return 1
        print(f"PASS: {'native >= compiled, ' if timed else ''}native "
              f"digests == compiled, steps <= tiles on all measured "
              f"pipelines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
