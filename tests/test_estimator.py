"""Seeded estimation, Wilson intervals and the enumeration budget."""

import pytest

from rmtest import algebra as alg
from rmtest.estimator import (
    estimate,
    get_budget,
    mix64,
    trial_rng,
    wilson_interval,
)


class TestEstimate:
    def test_constant_true(self):
        res = estimate(lambda rng: True, 100, 0)
        assert res.successes == 100
        assert res.p_hat == 1
        assert res.ci_high == 1.0
        assert res.ci_low < 1.0

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError):
            estimate(lambda rng: True, 0, 0)

    def test_determinism(self):
        def coin(rng):
            return bool(rng.integers(0, 2))

        a = estimate(coin, 500, 42)
        b = estimate(coin, 500, 42)
        assert a == b
        c = estimate(coin, 500, 43)
        assert a.successes != c.successes or a.seed != c.seed

    def test_trial_streams_independent_of_order(self):
        # the i-th trial stream depends only on (seed, i)
        draws_fwd = [int(trial_rng(9, i).integers(0, 1000)) for i in range(20)]
        draws_rev = [int(trial_rng(9, i).integers(0, 1000)) for i in reversed(range(20))]
        assert draws_fwd == list(reversed(draws_rev))

    def test_mix64_spreads(self):
        outs = {mix64(x) for x in range(1000)}
        assert len(outs) == 1000


DRAWS = {
    "integers_q2": lambda rng: rng.integers(0, 2, size=5).tolist(),
    "integers_q3": lambda rng: rng.integers(0, 3, size=5).tolist(),
    "integers_q5": lambda rng: rng.integers(0, 5, size=5).tolist(),
    "random": lambda rng: rng.random(3).tolist(),
    "choice": lambda rng: rng.choice(10, size=4, replace=False).tolist(),
}


class TestTrialStream:
    @pytest.mark.parametrize("name", sorted(DRAWS))
    def test_estimate_draws_what_trial_rng_draws(self, name):
        draw = DRAWS[name]
        seen = []
        estimate(lambda rng: seen.append(draw(rng)), 12, 5)
        assert seen == [draw(trial_rng(5, i)) for i in range(12)]

    @pytest.mark.parametrize("name", sorted(DRAWS))
    def test_buffered_half_word_does_not_leak_into_the_next_trial(self, name):
        draw = DRAWS[name]
        seen = []

        def event(rng):
            seen.append(draw(rng))
            # leave an odd number of 32-bit draws: half a word stays buffered
            while not rng.bit_generator.state["has_uint32"]:
                rng.integers(0, 3)

        estimate(event, 12, 6)
        assert seen == [draw(trial_rng(6, i)) for i in range(12)]

    def test_successes_equal_the_naive_loop(self):
        f = alg.Polynomial.variable(2, 3, 0) + alg.Polynomial.one(2, 3)

        def event(rng):
            return alg.mul_reduced(f, alg.random_polynomial(2, 3, 1, rng)).degree <= 1

        naive = sum(event(trial_rng(13, i)) for i in range(400))
        assert 0 < naive < 400
        assert estimate(event, 400, 13).successes == naive


class TestWilson:
    def test_bounds_ordering(self):
        for succ, n in ((0, 10), (5, 10), (10, 10), (1, 1000), (999, 1000)):
            low, high = wilson_interval(succ, n)
            assert 0.0 <= low <= succ / n <= high <= 1.0

    def test_narrows_with_trials(self):
        w1 = wilson_interval(50, 100)
        w2 = wilson_interval(500, 1000)
        assert (w2[1] - w2[0]) < (w1[1] - w1[0])

    def test_nonzero_width_at_extremes(self):
        low, high = wilson_interval(0, 50)
        assert low == 0.0 and high > 0.0


class TestDispatch:
    def test_exact_and_sampled_agree_within_interval(self):
        def coin(rng):
            return bool(rng.integers(0, 2))

        sampled = estimate(coin, 2000, 11)
        assert sampled.ci_low <= 0.5 <= sampled.ci_high

    def test_budget_env(self, monkeypatch):
        monkeypatch.setenv("RMTEST_BUDGET", "123")
        assert get_budget() == 123
        assert get_budget(999) == 999
        monkeypatch.delenv("RMTEST_BUDGET")
        assert get_budget() == 1 << 24


class TestCalibrationMini:
    def test_interval_covers_known_probability(self):
        # scaled-down version of the coverage experiment
        def biased(rng):
            return bool(rng.integers(0, 4) == 0)

        covered = 0
        for run in range(20):
            res = estimate(biased, 400, mix64(77 ^ run))
            if res.ci_low <= 0.25 <= res.ci_high:
                covered += 1
        assert covered >= 17
