"""Seeded Monte Carlo walk of the booking horizon under a fixed price policy.

Each replication starts at the empty lattice state, draws one uniform per
booking step to decide whether a customer arrives and which open slot (if
any) they choose at the policy's prices, collects net revenue plus delivery
charge per sale, and finally subtracts the delivery cost of the end state.
The sample mean cross-validates the solved value at the initial state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dp import PricePolicy
from .model import Scenario, cost_values

GENERATOR = "numpy.random.Philox"
# Replications per uniform-matrix block; results are block-size invariant
# because the Philox stream is consumed in counter order.
_CHUNK = 32_768


@dataclass(frozen=True)
class SimulationResult:
    """Summary of one simulation run.

    ``std_error`` is the sample standard deviation over replications divided
    by sqrt(replications) (0.0 with a single replication). The histogram
    counts the final lattice state of every replication and sums to
    ``replications``. ``generator`` records the PRNG so the run can be
    replayed from ``seed``.
    """

    replications: int
    mean_profit: float
    std_error: float
    seed: int
    generator: str
    final_state_histogram: np.ndarray
    profits: Optional[np.ndarray] = None


def _policy_tables(
    scenario: Scenario, policy: PricePolicy, arrival_rate: float
) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative sale thresholds and revenue per (step, state, slot).

    ``cum[t - 1, ix, j]`` is the probability that the step's uniform draw
    falls on some slot <= j + 1; a draw at or above the last column means no
    sale. ``revenue`` holds net revenue plus the offered price (0 for closed
    slots, which have zero threshold mass and are never selected).
    """
    prices = policy.prices
    if not (
        np.all(np.isnan(prices) | (prices >= scenario.price_min))
        and np.all(np.isnan(prices) | (prices <= scenario.price_max))
    ):
        raise ValueError("policy prices fall outside the admissible box")
    open_mask = ~np.isnan(prices)
    if np.any(open_mask & (scenario.lattice.neighbours < 0)):
        raise ValueError("policy offers a slot that is at capacity")
    betas = np.asarray(scenario.slot_betas, dtype=float)
    weights = np.where(
        open_mask,
        np.exp(scenario.beta_const + betas + scenario.beta_price * np.where(open_mask, prices, 0.0)),
        0.0,
    )
    denom = weights.sum(axis=2, keepdims=True) + 1.0
    cum = np.cumsum(arrival_rate * weights / denom, axis=2)
    revenue = np.where(open_mask, scenario.net_revenue + np.where(open_mask, prices, 0.0), 0.0)
    return cum, revenue


def simulate(
    scenario: Scenario,
    policy: PricePolicy,
    reps: int,
    seed: int,
    *,
    arrival_rate: Optional[float] = None,
    keep_profits: bool = False,
) -> SimulationResult:
    """Estimate the expected booking-horizon profit of ``policy``.

    Bit-reproducible for a fixed ``seed``: replication i consumes exactly the
    draws ``[i * horizon, (i + 1) * horizon)`` of a single counter-based
    Philox stream keyed by ``seed``, so results do not depend on internal
    batching. ``arrival_rate`` optionally overrides the scenario's rate (0.0
    is allowed here to force arrival-free runs; the solver itself requires a
    rate strictly inside (0, 1)). Profits are summed in replication order,
    and the mean uses index-ordered pairwise summation.
    """
    if reps < 1:
        raise ValueError("at least one replication is required")
    if policy.fingerprint != scenario.fingerprint():
        raise ValueError("policy was computed for a different scenario")
    if policy.horizon != scenario.horizon:
        raise ValueError("policy horizon does not match the scenario")
    lam = scenario.arrival_rate if arrival_rate is None else float(arrival_rate)
    if not 0.0 <= lam < 1.0:
        raise ValueError("arrival rate override must lie in [0, 1)")
    lat = scenario.lattice
    t_bar = scenario.horizon
    neighbours = lat.neighbours
    costs = cost_values(scenario)
    cum, revenue = (
        _policy_tables(scenario, policy, lam)
        if t_bar > 0
        else (np.zeros((0, lat.n_states, scenario.n_slots)),) * 2
    )

    rng = np.random.Generator(np.random.Philox(key=seed))
    histogram = np.zeros(lat.n_states, dtype=np.int64)
    chunks: list[np.ndarray] = []
    done = 0
    while done < reps:
        size = min(_CHUNK, reps - done)
        u = rng.random((size, t_bar)) if t_bar > 0 else np.empty((size, 0))
        states = np.zeros(size, dtype=np.int64)
        profit = np.zeros(size)
        for t in range(t_bar):
            thresholds = cum[t, states]
            ut = u[:, t]
            sale = ut < thresholds[:, -1]
            if np.any(sale):
                slot = np.argmax(ut[sale, np.newaxis] < thresholds[sale], axis=1)
                sold_states = states[sale]
                profit[sale] += revenue[t, sold_states, slot]
                states[sale] = neighbours[sold_states, slot]
        profit -= costs[states]
        histogram += np.bincount(states, minlength=lat.n_states)
        chunks.append(profit)
        done += size
    profits = np.concatenate(chunks)
    mean = float(np.sum(profits) / reps)
    std_error = float(np.std(profits, ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0
    histogram.flags.writeable = False
    return SimulationResult(
        replications=reps,
        mean_profit=mean,
        std_error=std_error,
        seed=seed,
        generator=GENERATOR,
        final_state_histogram=histogram,
        profits=profits if keep_profits else None,
    )

