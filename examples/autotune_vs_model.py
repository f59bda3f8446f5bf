#!/usr/bin/env python
"""PolyMage-A's auto-tuning sweep vs. the one-shot DP model.

PolyMage-A explores 18 (tile size x overlap tolerance) configurations of
the greedy heuristic and keeps the empirically fastest; PolyMageDP derives
grouping *and* tile sizes from its cost model in a single pass — the
paper's headline workflow difference (Sec. 6.2 notes the auto-tuning takes
minutes to ~27 minutes of machine time).

This example prints the whole tuning table for Unsharp Mask under the
timing model, compares the winner against the DP schedule, and then runs
the same sweep at a small image size with both oracles side by side: the
model's estimate and the wall time of this machine's executor.

Run:  python examples/autotune_vs_model.py
"""

from repro import XEON_HASWELL
from repro.fusion import dp_group, polymage_autotune
from repro.perfmodel import estimate_runtime
from repro.pipelines import unsharp
from repro.planner import executor_oracle


def main() -> None:
    pipeline = unsharp.build()  # paper-size 4256 x 2832 x 3
    print(f"pipeline: {pipeline.name} at paper size")

    result = polymage_autotune(pipeline, XEON_HASWELL)
    print(f"\nPolyMage-A sweep ({len(result.trials)} configurations):")
    print(f"{'tile':>6s}  {'tolerance':>9s}  {'groups':>6s}  {'est. ms':>8s}")
    for t in sorted(result.trials, key=lambda t: t.seconds):
        print(
            f"{t.tile_size:>6d}  {t.overlap_tolerance:>9.1f}"
            f"  {t.grouping.num_groups:>6d}  {t.seconds * 1e3:>8.2f}"
        )

    best = result.best_trial
    print(
        f"\nPolyMage-A winner: tile {best.tile_size}, tolerance "
        f"{best.overlap_tolerance} -> {best.seconds * 1e3:.2f} ms"
    )

    dp = dp_group(pipeline, XEON_HASWELL)
    t_dp = estimate_runtime(pipeline, dp, XEON_HASWELL, 16)
    print("\nPolyMageDP (no tuning):")
    print(dp.describe())
    print(f"estimated: {t_dp * 1e3:.2f} ms")
    print(
        f"\nspeedup of model-driven DP over the tuned greedy heuristic: "
        f"{best.seconds / t_dp:.2f}x "
        f"(paper reports 2.23x for Unsharp Mask on the Xeon)"
    )

    small = unsharp.build(416, 272)
    model = polymage_autotune(small, XEON_HASWELL, nthreads=1)
    measured = polymage_autotune(small, XEON_HASWELL,
                                 oracle=executor_oracle(nthreads=1))
    print(
        f"\nThe same sweep at 416 x 272, one thread "
        f"({measured.best.stats.cost_evaluations} unique groupings run):"
    )
    print(f"{'tile':>6s}  {'tolerance':>9s}  {'est. ms':>8s}  {'meas. ms':>8s}")
    for est, run in zip(model.trials, measured.trials):
        print(
            f"{est.tile_size:>6d}  {est.overlap_tolerance:>9.1f}"
            f"  {est.seconds * 1e3:>8.2f}  {run.seconds * 1e3:>8.2f}"
        )
    picked = measured.trials[model.trials.index(model.best_trial)]
    print(
        f"model picks tile {picked.tile_size} ({picked.seconds * 1e3:.2f} ms "
        f"measured); measured best is tile {measured.best_trial.tile_size} "
        f"({measured.best_trial.seconds * 1e3:.2f} ms): regret "
        f"{picked.seconds / measured.best_trial.seconds:.2f}"
    )


if __name__ == "__main__":
    main()
