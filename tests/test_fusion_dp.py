"""Tests for the DP grouping algorithm: state counts, validity, and
optimality against brute-force enumeration on small DAGs."""

import itertools

import pytest

from repro.fusion.dp import DPGrouper, GroupingBudgetExceeded, dp_group
from repro.graph import StageGraph, iter_bits, mask_of, set_partitions
from repro.model import XEON_HASWELL

from conftest import build_blur


def chain_graph(n):
    return StageGraph(n, [(i, i + 1) for i in range(n - 1)])


def brute_force_best(graph, cost_fn):
    """Minimum total cost over ALL valid groupings (connected groups,
    acyclic condensation) by exhaustive set-partition enumeration."""
    best = float("inf")
    best_groups = None
    for part in set_partitions(list(range(graph.num_nodes))):
        masks = [mask_of(block) for block in part]
        if not all(graph.is_connected(m) for m in masks):
            continue
        if not graph.condensation_is_acyclic(masks):
            continue
        total = sum(cost_fn(m) for m in masks)
        if total < best:
            best = total
            best_groups = masks
    return best, best_groups


class TestLinearChains:
    def test_state_count_is_quadratic(self):
        # n(n+1)/2 states for a linear pipeline — the paper's O(n^2) bound
        # and the Table 2 count of 10 for the 4-stage Unsharp Mask.
        for n in (2, 3, 4, 6):
            g = chain_graph(n)
            grouper = DPGrouper(g, lambda mask: float(bin(mask).count("1")))
            grouper.solve()
            assert grouper.states_evaluated == n * (n + 1) // 2

    def test_covers_all_groupings_of_chain(self):
        # With a cost that prefers exactly one specific grouping, the DP
        # must find it, whatever it is.
        g = chain_graph(5)
        target = [0b00011, 0b01100, 0b10000]

        def cost_fn(mask):
            return 0.0 if mask in target else 1.0

        result = DPGrouper(g, cost_fn).solve()
        assert result.cost == 0.0
        assert sorted(result.groups) == sorted(target)


def assert_optimal_on_random_dag(n, seed):
    """The DP's grouping of a random ``n``-node DAG under an irregular
    hash cost is valid, and costs exactly the brute-force optimum."""
    import random

    rnd = random.Random(seed)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rnd.random() < 0.4:
                edges.append((u, v))
    # ensure connectivity to a single sink-ish structure
    for u in range(n - 1):
        if not any(e[0] == u for e in edges):
            edges.append((u, u + 1))
    g = StageGraph(n, edges)

    def cost_fn(mask):
        if not g.is_connected(mask):
            return float("inf")
        # a deterministic, irregular cost landscape
        return ((mask * 2654435761) % 1000) / 7.0 + bin(mask).count("1")

    dp = DPGrouper(g, cost_fn).solve()
    best, _ = brute_force_best(g, cost_fn)
    # The ready-wavefront DP explores a subset of all valid groupings,
    # and on these DAGs that subset always holds an optimal one.
    assert dp.cost == pytest.approx(best)
    # Its result must itself be a valid grouping with the right cost.
    assert sum(cost_fn(m) for m in dp.groups) == pytest.approx(dp.cost)
    assert g.condensation_is_acyclic(list(dp.groups))
    covered = 0
    for m in dp.groups:
        covered |= m
    assert covered == g.all_mask


class TestBruteForceEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_dags_match_brute_force(self, seed):
        assert_optimal_on_random_dag(6, seed)

    @pytest.mark.parametrize("seed", range(16))
    def test_random_eight_node_dags_match_brute_force(self, seed):
        assert_optimal_on_random_dag(8, seed)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_chain_exactly_optimal(self, n):
        g = chain_graph(n)

        def cost_fn(mask):
            return ((mask * 11400714819323198485) % 97) / 3.0

        dp = DPGrouper(g, cost_fn).solve()
        best, _ = brute_force_best(g, cost_fn)
        assert dp.cost == pytest.approx(best)


class TestValidity:
    def test_never_groups_across_cycle(self):
        # 0 -> 1 -> 2 and 0 -> 2: {0, 2} without 1 would be cyclic.
        g = StageGraph(3, [(0, 1), (1, 2), (0, 2)])

        def cost_fn(mask):
            if not g.is_connected(mask):
                return float("inf")
            return 0.0 if mask == 0b101 else 10.0

        result = DPGrouper(g, cost_fn).solve()
        assert 0b101 not in result.groups

    def test_disconnected_groups_never_finalized(self):
        g = chain_graph(4)

        def cost_fn(mask):
            if not g.is_connected(mask):
                return float("inf")
            return 1.0

        result = DPGrouper(g, cost_fn).solve()
        for m in result.groups:
            assert g.is_connected(m)

    def test_group_limit_respected(self):
        g = chain_graph(8)
        grouper = DPGrouper(g, lambda m: 1.0, group_limit=3)
        result = grouper.solve()
        assert all(bin(m).count("1") <= 3 for m in result.groups)

    def test_budget_exceeded_raises(self):
        g = chain_graph(10)
        grouper = DPGrouper(g, lambda m: 1.0, max_states=5)
        with pytest.raises(GroupingBudgetExceeded):
            grouper.solve()

    def test_viable_fn_prunes(self):
        g = chain_graph(4)
        grouper = DPGrouper(
            g, lambda m: 1.0, viable_fn=lambda m: bin(m).count("1") <= 1
        )
        result = grouper.solve()
        assert all(bin(m).count("1") == 1 for m in result.groups)


class TestDpGroupApi:
    def test_blur_fully_fused(self, blur_pipeline):
        grouping = dp_group(blur_pipeline, XEON_HASWELL)
        assert grouping.num_groups == 1
        assert grouping.stats.enumerated == 3  # 2-stage chain: 2*3/2
        assert grouping.is_valid()

    def test_grouping_has_tile_sizes(self, blur_pipeline):
        grouping = dp_group(blur_pipeline, XEON_HASWELL)
        assert len(grouping.tile_sizes[0]) == 3

    def test_stats_recorded(self, blur_pipeline):
        grouping = dp_group(blur_pipeline, XEON_HASWELL)
        assert grouping.stats.strategy == "dp"
        assert grouping.stats.time_seconds > 0
        assert grouping.stats.cost_evaluations >= 1
