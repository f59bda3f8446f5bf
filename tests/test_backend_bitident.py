"""CPU bit-identity through the machine-type dispatch.

Every ``COST(H)`` evaluation goes through :class:`CostModel`, which picks
the cost function from the machine description's type.  For a CPU
machine that dispatch must be *invisible*: every scheduling decision
(grouping, tile sizes, cost) on the six paper benchmarks must match the
frozen seed baseline bit-for-bit.
``benchmarks/bench_schedule_time.py --check`` is the canonical checker;
this file pins the same contract inside the test suite, strategy by
strategy.
"""

import json
import os

import pytest

from repro.fusion import dp_group, inc_grouping, polymage_greedy
from repro.model import XEON_HASWELL
from repro.model.cost import CostModel
from repro.pipelines import BENCHMARKS

BASELINE_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "benchmarks", "baselines", "schedule_seed.json",
)

with open(BASELINE_PATH) as _fh:
    _BASELINE = json.load(_fh)

ROWS = [(r["pipeline"], r["strategy"], r) for r in _BASELINE["results"]]
MAX_STATES = 1_500_000


def _schedule(abbrev, strategy):
    """Exactly the runs the baseline froze (see bench_schedule_time.py)."""
    pipe = BENCHMARKS[abbrev].build()
    machine = XEON_HASWELL
    cm = CostModel(pipe, machine)  # dispatches on the machine's type
    if strategy == "full_dp":
        if abbrev == "PB":
            return inc_grouping(pipe, machine, initial_limit=2, step=2,
                                cost_model=cm, max_states=MAX_STATES,
                                prune=True)
        return dp_group(pipe, machine, cost_model=cm,
                        max_states=MAX_STATES, prune=True)
    if strategy == "bounded_dp":
        init, step = (2, 2) if abbrev == "PB" else (8, 4)
        return inc_grouping(pipe, machine, initial_limit=init, step=step,
                            cost_model=cm, max_states=MAX_STATES, prune=True)
    if strategy == "greedy":
        return polymage_greedy(pipe, machine)
    raise ValueError(strategy)


@pytest.mark.parametrize(
    "abbrev,strategy,base",
    ROWS,
    ids=[f"{a}-{s}" for a, s, _ in ROWS],
)
def test_schedule_matches_frozen_seed_baseline(abbrev, strategy, base):
    grouping = _schedule(abbrev, strategy)
    assert grouping.group_names() == base["groups"], (
        f"{abbrev}/{strategy}: grouping decisions changed vs the seed"
    )
    assert [list(t) for t in grouping.tile_sizes] == base["tile_sizes"], (
        f"{abbrev}/{strategy}: tile sizes changed vs the seed"
    )
    assert grouping.num_groups == base["num_groups"]
    assert grouping.cost == pytest.approx(base["cost"], rel=1e-12)
