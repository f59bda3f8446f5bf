"""Tests for the weight-calibration utility."""

import pytest

from repro.errors import GroupingBudgetExceeded
from repro.model import XEON_HASWELL
from repro.model import calibrate as calibrate_mod
from repro.model.calibrate import calibrate_weights

from conftest import build_blur, build_updown


class TestCalibrate:
    def test_small_grid_runs(self):
        pipes = [build_blur(62, 94), build_updown(120)]
        result = calibrate_weights(
            pipes, XEON_HASWELL,
            w1_grid=(1.0,), w2_grid=(0.4,), w3_grid=(1.0, 3.0),
            w4_grid=(1.5,),
        )
        assert len(result.scores) == 2
        assert result.best in [w for w, _ in result.scores]

    def test_best_has_lowest_score(self):
        pipes = [build_blur(62, 94)]
        result = calibrate_weights(
            pipes, XEON_HASWELL,
            w1_grid=(0.3, 1.0), w2_grid=(0.4,), w3_grid=(3.0,),
            w4_grid=(1.5,),
        )
        scores = [s for _, s in result.scores]
        assert scores == sorted(scores)
        assert result.scores[0][1] == pytest.approx(min(scores))

    def test_scores_are_relative_slowdowns(self):
        pipes = [build_blur(62, 94)]
        result = calibrate_weights(
            pipes, XEON_HASWELL,
            w1_grid=(1.0,), w2_grid=(0.4,), w3_grid=(1.0, 30.0),
            w4_grid=(1.5,),
        )
        # best candidate's geometric mean is exactly 1.0 by construction
        assert result.scores[0][1] == pytest.approx(1.0)
        assert all(s >= 1.0 for _, s in result.scores)

    def test_custom_oracle(self):
        pipes = [build_blur(62, 94)]
        calls = []

        def oracle(pipe, grouping):
            calls.append(grouping.num_groups)
            return float(grouping.num_groups)  # prefer maximal fusion

        result = calibrate_weights(
            pipes, XEON_HASWELL,
            w1_grid=(1.0,), w2_grid=(0.4,), w3_grid=(1.0,), w4_grid=(1.5,),
            oracle=oracle,
        )
        assert calls
        assert result.scores[0][1] == 1.0

    def test_oracle_failure_is_the_callers(self):
        """A bug in the oracle is not a candidate that failed to
        schedule."""
        def oracle(pipe, grouping):
            return 1 / 0

        with pytest.raises(ZeroDivisionError):
            calibrate_weights(
                [build_blur(62, 94)], XEON_HASWELL,
                w1_grid=(1.0,), w2_grid=(0.4,), w3_grid=(1.0,),
                w4_grid=(1.5,), oracle=oracle,
            )

    def test_budget_blowout_only_discards_the_candidate(self, monkeypatch):
        def blows_at_w3_of_3(real):
            def schedule(pipe, machine, cost_model=None, **kwargs):
                if cost_model.weights.w3 == 3.0:
                    raise GroupingBudgetExceeded("state budget exceeded")
                return real(pipe, machine, cost_model=cost_model, **kwargs)
            return schedule

        for name in ("dp_group", "inc_grouping"):
            monkeypatch.setattr(
                calibrate_mod, name,
                blows_at_w3_of_3(getattr(calibrate_mod, name)),
            )
        scored = []
        result = calibrate_weights(
            [build_blur(62, 94), build_updown(120)], XEON_HASWELL,
            w1_grid=(1.0,), w2_grid=(0.4,), w3_grid=(1.0, 3.0),
            w4_grid=(1.5,),
            oracle=lambda pipe, g: scored.append(pipe.name) or 1.0,
        )
        assert [w.w3 for w, _ in result.scores] == [1.0]
        assert scored == ["blur", "updown"]
        assert set(result.times) == {(0, "blur"), (0, "updown")}

    def test_no_candidate_within_budget(self):
        with pytest.raises(RuntimeError, match="no weight candidate"):
            calibrate_weights(
                [build_blur(62, 94)], XEON_HASWELL,
                w1_grid=(1.0,), w2_grid=(0.4,), w3_grid=(1.0, 3.0),
                w4_grid=(1.5,), max_states=1,
            )

    def test_times_recorded_per_pipeline(self):
        pipes = [build_blur(62, 94), build_updown(120)]
        result = calibrate_weights(
            pipes, XEON_HASWELL,
            w1_grid=(1.0,), w2_grid=(0.4,), w3_grid=(3.0,), w4_grid=(1.5,),
        )
        names = {name for _, name in result.times}
        assert names == {"blur", "updown"}

    def test_empty_pipelines_rejected(self):
        with pytest.raises(ValueError):
            calibrate_weights([], XEON_HASWELL)
