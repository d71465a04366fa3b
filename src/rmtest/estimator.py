"""Seeded Monte Carlo estimation and the enumeration budget.

Every trial draws from its own RNG stream derived from (master seed, trial
index) through a 64-bit mixing finalizer, so estimates are bit-identical
no matter how trials are scheduled.  Philox is counter-based, so a trial's
stream is a pure function of its key: a run builds one generator and
re-keys it per trial instead of building one per trial.  Intervals are
Wilson score intervals, which stay honest near p = 0 where the soundness
bounds live.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

import numpy as np

from .errors import InfeasibleInstanceError

DEFAULT_BUDGET = 1 << 24
_WILSON_Z = 1.959963984540054  # two-sided 95%
_MASK = (1 << 64) - 1


def get_budget(override: int | None = None) -> int:
    """Enumeration-count cap: explicit override, else RMTEST_BUDGET, else 2^24."""
    if override is not None:
        return int(override)
    env = os.environ.get("RMTEST_BUDGET")
    return int(env) if env else DEFAULT_BUDGET


def check_budget(required: int, budget: int | None, what: str) -> None:
    """Raise InfeasibleInstanceError when an enumeration of `required`
    items exceeds get_budget(budget)."""
    cap = get_budget(budget)
    if required > cap:
        raise InfeasibleInstanceError(required, cap, what)


def mix64(z):
    """splitmix64 finalizer of an int, or elementwise of a uint64 array
    (whose arithmetic wraps mod 2^64 exactly as the masks do)."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _trial_key(seed: int, index: int) -> int:
    """Philox key of trial `index` under master seed `seed`."""
    return mix64((seed & _MASK) ^ mix64(index & _MASK))


def _trial_keys(seed: int, trials: int) -> np.ndarray:
    """_trial_key(seed, i) for every i < trials, in one uint64 pass."""
    return mix64((seed & _MASK) ^ mix64(np.arange(trials, dtype=np.uint64)))


def trial_rng(seed: int, index: int) -> np.random.Generator:
    """Independent stream for one trial: counter-mode split of the seed."""
    return np.random.Generator(np.random.Philox(key=_trial_key(seed, index)))


def _trial_streams(seed: int, trials: int) -> Iterator[np.random.Generator]:
    """One Philox generator re-keyed for each trial i < trials of a run.

    Before trial i, counter, key, output buffer and the buffered 32-bit
    half are reset to their values in a fresh Philox(key=_trial_key(seed,
    i)), so it draws exactly what trial_rng(seed, i) draws.  Every trial
    gets the same object: it is valid only until the next one.
    """
    bitgen = np.random.Philox(key=0)
    rng = np.random.Generator(bitgen)
    fresh = bitgen.state  # counter 0, empty buffer
    for key in _trial_keys(seed, trials).tolist():
        fresh["state"]["key"][0] = key
        bitgen.state = fresh
        yield rng


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    if trials <= 0:
        raise ValueError("need at least one trial")
    z2 = _WILSON_Z**2
    phat = successes / trials
    denom = 1 + z2 / trials
    center = (phat + z2 / (2 * trials)) / denom
    half = (
        _WILSON_Z
        * ((phat * (1 - phat) / trials + z2 / (4 * trials**2)) ** 0.5)
        / denom
    )
    # at the extremes the exact endpoints are 0 and 1; keep them there
    low = 0.0 if successes == 0 else max(0.0, center - half)
    high = 1.0 if successes == trials else min(1.0, center + half)
    return (low, high)


@dataclass(frozen=True)
class EstimateResult:
    successes: int
    trials: int
    p_hat: Fraction
    ci_low: float
    ci_high: float
    seed: int


def estimate(
    event: Callable[[np.random.Generator], bool], trials: int, seed: int
) -> EstimateResult:
    """Run the sampler once per trial on its derived stream; the generator
    an event receives is valid only during its own trial."""
    if trials < 1:
        raise ValueError("need at least one trial")
    successes = 0
    for rng in _trial_streams(seed, trials):
        if event(rng):
            successes += 1
    low, high = wilson_interval(successes, trials)
    return EstimateResult(successes, trials, Fraction(successes, trials), low, high, seed)
