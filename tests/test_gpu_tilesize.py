"""Two-level GPU tile search: divisibility, capacity, and crossover.

These are the analytic contracts of ``compute_two_level_tile_sizes`` and
``gpu_group_cost`` — everything here runs without a GPU:

* every warp tile size divides the corresponding block tile size (no
  partial warp tiles inside a block),
* block residency fits the shared-memory slice of one resident block and
  warp residency fits the per-warp register slice, except in the
  terminal all-ones shrink state,
* the warp→block crossover (private warp halos dominating warp compute)
  flips monotonically as the stencil chain deepens.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model import gpu_group_cost
from repro.dsl import Float, Function, Image, Int, Interval, Pipeline, Variable
from repro.model import GPU_V100, GPU_A100
from repro.model.tilesize import (
    compute_two_level_tile_sizes,
    tile_residency_bytes,
)
from repro.pipelines.synth import random_pipeline
from repro.poly import compute_group_geometry
from repro.poly.reuse import dimensional_reuse

MACHINES = [GPU_V100, GPU_A100]


def build_stencil_chain(depth, radius, rows=4096, cols=512):
    """A 2D chain of ``depth`` stages, each a (2*radius+1)-tap stencil
    along the first dimension.  Deepening the chain (or widening the
    taps) grows the group's halo linearly, which is the knob the
    crossover tests turn."""
    x, y = Variable(Int, "x"), Variable(Int, "y")
    img = Image(Float, "img", [rows, cols])
    prev = img
    for k in range(1, depth + 1):
        f = Function(
            ([x, y], [Interval(Int, k * radius, rows - 1 - k * radius),
                      Interval(Int, 0, cols - 1)]),
            Float,
            "s%d" % k,
        )
        taps = prev(x - radius, y)
        for d in range(-radius + 1, radius + 1):
            taps = taps + prev(x + d, y)
        f.defn = [taps * (1.0 / (2 * radius + 1))]
        prev = f
    return Pipeline([prev], {}, name="chain_d%d_r%d" % (depth, radius))


def _groups_of(pipe):
    """The whole pipeline plus every producer-consumer pair that aligns."""
    groups = []
    geom = compute_group_geometry(pipe, pipe.stages)
    if geom is not None:
        groups.append((pipe.stages, geom))
    for s in pipe.stages:
        for t in pipe.consumers(s):
            g = compute_group_geometry(pipe, [s, t])
            if g is not None:
                groups.append(([s, t], g))
    return groups


class TestTwoLevelConstraints:
    @settings(max_examples=25, deadline=None)
    @given(
        num_stages=st.integers(min_value=2, max_value=10),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_warp_divides_block_on_random_pipelines(self, num_stages, seed):
        pipe = random_pipeline(num_stages=num_stages, seed=seed, size=256)
        for machine in MACHINES:
            for members, geom in _groups_of(pipe):
                reuse = dimensional_reuse(pipe, geom)
                block, warp = compute_two_level_tile_sizes(
                    geom, machine, reuse
                )
                assert len(block) == len(warp) == geom.ndim
                for b, w in zip(block, warp):
                    assert 1 <= w <= b
                    assert b % w == 0, (block, warp)

    @settings(max_examples=25, deadline=None)
    @given(
        num_stages=st.integers(min_value=2, max_value=10),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_capacity_constraints_on_random_pipelines(self, num_stages, seed):
        pipe = random_pipeline(num_stages=num_stages, seed=seed, size=256)
        for machine in MACHINES:
            for members, geom in _groups_of(pipe):
                reuse = dimensional_reuse(pipe, geom)
                block, warp = compute_two_level_tile_sizes(
                    geom, machine, reuse
                )
                # Fits the budget — or the search hit the terminal
                # all-ones state, in which case the cost model charges
                # the spill instead.
                assert (
                    tile_residency_bytes(geom, block)
                    <= machine.shared_mem_per_block
                    or all(b == 1 for b in block)
                )
                assert (
                    tile_residency_bytes(geom, warp)
                    <= machine.registers_per_warp
                    or all(w == 1 for w in warp)
                )

    def test_block_innermost_is_warp_aligned_when_wide(self, blur_pipeline):
        geom = compute_group_geometry(blur_pipeline, blur_pipeline.stages)
        reuse = dimensional_reuse(blur_pipeline, geom)
        block, warp = compute_two_level_tile_sizes(geom, GPU_V100, reuse)
        if block[-1] >= GPU_V100.warp_width:
            assert block[-1] % GPU_V100.warp_width == 0
        assert warp[-1] <= GPU_V100.warp_width


class TestCrossover:
    def _level(self, depth, radius, machine=GPU_V100):
        pipe = build_stencil_chain(depth, radius)
        cost = gpu_group_cost(pipe, pipe.stages, machine)
        assert cost.cache_level in ("warp", "block")
        return cost.cache_level, cost

    def test_shallow_chain_stays_in_warp_mode(self):
        level, cost = self._level(depth=2, radius=1)
        assert level == "warp"
        assert cost.details["warp_overlap"] > 0.0

    def test_deep_chain_crosses_to_block_mode(self):
        level, cost = self._level(depth=12, radius=4)
        assert level == "block"
        # Cooperative striping: warp halo term vanishes, block halo stays.
        assert cost.details["warp_overlap"] == 0.0
        assert cost.details["block_overlap"] > 0.0
        # Striped warp tile: one innermost-dim strip per warp.
        assert all(w == 1 for w in cost.inner_tile_sizes[:-1])

    def test_crossover_is_monotone_in_depth(self):
        # Once the chain is deep enough to flip, deeper never flips back.
        flipped = False
        for depth in range(1, 13):
            level, _ = self._level(depth=depth, radius=4)
            if flipped:
                assert level == "block", depth
            elif level == "block":
                flipped = True
        assert flipped, "chain never crossed to block mode"

    def test_crossover_is_monotone_in_radius(self):
        flipped = False
        for radius in range(1, 9):
            level, _ = self._level(depth=8, radius=radius)
            if flipped:
                assert level == "block", radius
            elif level == "block":
                flipped = True
        assert flipped, "radius sweep never crossed to block mode"


class TestGpuGroupCost:
    def test_blur_group_cost_is_finite_and_two_level(self, blur_pipeline):
        cost = gpu_group_cost(blur_pipeline, blur_pipeline.stages, GPU_V100)
        assert cost.cost > 0.0
        assert len(cost.tile_sizes) == len(cost.inner_tile_sizes)
        for b, w in zip(cost.tile_sizes, cost.inner_tile_sizes):
            assert b % w == 0

    def test_unalignable_group_is_infinite(self, histogram_pipeline):
        from repro.model.cost import INFINITE_COST

        p = histogram_pipeline
        assert compute_group_geometry(p, p.stages) is None
        cost = gpu_group_cost(p, p.stages, GPU_V100)
        assert cost.cost == INFINITE_COST
