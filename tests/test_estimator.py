"""Seeded estimation, Wilson intervals and the enumeration budget."""

import numpy as np
import pytest

from rmtest import algebra as alg, multtests as mt, rmcode, setmultilin as sml, sztest
from rmtest.errors import InfeasibleInstanceError
from rmtest.estimator import (
    check_budget,
    estimate,
    get_budget,
    _trial_key,
    _trial_keys,
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

    @pytest.mark.parametrize("seed", [0, 7, -3, 2**63 + 5])
    def test_one_pass_keys_equal_the_scalar_keys(self, seed):
        keys = _trial_keys(seed, 300)
        assert keys.dtype == np.uint64
        assert keys.tolist() == [_trial_key(seed, i) for i in range(300)]


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

    def test_check_budget_boundary(self, monkeypatch):
        check_budget(10, 10, "x")
        with pytest.raises(InfeasibleInstanceError):
            check_budget(11, 10, "x")
        monkeypatch.setenv("RMTEST_BUDGET", "5")
        with pytest.raises(InfeasibleInstanceError) as exc:
            check_budget(6, None, "x")
        assert exc.value.budget == 5


# f = x1 x2 over (2, 3); degree-<=1 multipliers there number 2^4 = 16
_F = alg.Polynomial.from_terms(2, 3, {(1, 1, 0): 1})
_CFG = mt.TestConfig(rmcode.CodeParams(2, 3, 0), e=1)
_H = mt.UnivariatePoly(2, (0, 1))

# (oracle at a given budget, budget, required, what)
BUDGET_PATHS = {
    # rank maps: M = 4 multiplier monomials x 2^3 cells, times 2^4 outer
    # multipliers for k = 2
    "acceptance_k1": (
        lambda b: mt.exact_acceptance_probability(_F, _CFG, b), 8, 4 * 8, "rank map cells"
    ),
    "acceptance_k2": (
        lambda b: mt.exact_acceptance_probability(_F, mt.TestConfig(_CFG.code, 1, k=2), b),
        100,
        16 * 4 * 8,
        "rank map cells",
    ),
    # M = 4 rows x the 2^1 points of the subspace
    "subspace_vanishing": (
        lambda b: mt.subspace_vanishing_probability(2, 3, 1, 1, b),
        4,
        4 * 2,
        "rank map cells",
    ),
    "corr_h": (
        lambda b: mt.exact_corr_h_probability(_F, _CFG, _H, b),
        8,
        16,
        "multiplier enumeration",
    ),
    "raw_character_average": (
        lambda b: mt.raw_character_average(_F, 1, _H, b), 8, 16, "multiplier enumeration"
    ),
    "pair_character_average": (
        lambda b: mt.pair_character_average(_F, 1, 1, b), 100, 16**2, "pair enumeration"
    ),
    # target order 1, whose dual (order 1) has 16 words
    "character_average": (
        lambda b: mt.character_average(_F, _CFG, _H, b), 100, 16 * 16, "double enumeration"
    ),
    "robust_coset": (
        lambda b: mt.robust_distance_experiment(_F, _CFG, budget=b),
        8,
        16,
        "coset enumeration",
    ),
    "robust_exact": (
        lambda b: mt.robust_distance_experiment(_F, _CFG, budget=b),
        100,
        16 * 16,
        "multiplier x coset enumeration",
    ),
    # the 7 lines through 0 of F_2^3 x 2^3 offsets
    "akklr": (
        lambda b: mt.akklr_exact_rejection_probability(_F, _CFG.code, b),
        32,
        7 * 2**3,
        "subspace enumeration",
    ),
    "degree_drop": (
        lambda b: sztest.degree_drop_probability(_F, 1, 0, budget=b),
        8,
        4 * 8,
        "rank map cells",
    ),
    "distance": (
        lambda b: rmcode.distance(_F, rmcode.CodeParams(2, 3, 1), b), 8, 16, "coset enumeration"
    ),
    "weight_distribution": (
        lambda b: rmcode.weight_distribution(rmcode.CodeParams(2, 3, 1), b),
        8,
        16,
        "code enumeration",
    ),
    # code 2^11 words, its dual (order 1 over (2, 4)) 2^5
    "min_weight": (
        lambda b: rmcode.min_weight(rmcode.CodeParams(2, 4, 2), b),
        16,
        2**5,
        "code/dual enumeration",
    ),
    "character_membership": (
        lambda b: rmcode.character_membership(_F, rmcode.CodeParams(2, 3, 1), budget=b),
        8,
        16,
        "dual enumeration",
    ),
    "setmultilin_vanishing": (
        lambda b: sml.vanishing_probability([], sml.Partition(2, ((0, 1), (2,))), b),
        4,
        2**3,
        "assignment enumeration",
    ),
}


@pytest.mark.parametrize("name", sorted(BUDGET_PATHS))
def test_budget_paths(name):
    oracle, budget, required, what = BUDGET_PATHS[name]
    with pytest.raises(InfeasibleInstanceError) as exc:
        oracle(budget)
    assert (exc.value.required, exc.value.budget, exc.value.what) == (required, budget, what)


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
