"""Seeded Monte Carlo walk of the booking horizon under a fixed price policy.

Each replication starts at the empty lattice state, draws one uniform per
booking step to decide whether a customer arrives and which open slot (if
any) they choose at the policy's prices, collects net revenue plus delivery
charge per sale, and finally subtracts the delivery cost of the end state.
The sample mean cross-validates the solved value at the initial state.

Replications run in blocks, each with its own Philox generator at the
counter offset of its first draw; two threads walk the blocks, and the
results are assembled in block order.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dp import PricePolicy
from .model import Scenario, cost_values

GENERATOR = "numpy.random.Philox"
# Replications per uniform-matrix block; each block's generator starts at
# its own Philox counter offset, so results are block-size invariant.
# _WORKERS blocks are in flight; below about 8k rows the threads mostly
# wait for the interpreter lock.
_CHUNK = 12_288
_WORKERS = 2
_STEPS = 8  # booking steps per transposed slice of a block: a cache line per row


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
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported below
        price_term = scenario.beta_price * np.where(open_mask, prices, 0.0)
        weights = np.where(open_mask, np.exp(scenario.beta_const + betas + price_term), 0.0)
        denom = weights.sum(axis=2, keepdims=True) + 1.0
        cum = np.cumsum(arrival_rate * weights / denom, axis=2)
    if not np.all(np.isfinite(cum[:, :, -1])):
        raise ValueError(
            "a sale probability is not finite (a logit utility exceeds the float range); "
            "check beta_const, the slot betas, beta_price and the price box"
        )
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
    draws ``[i * horizon, (i + 1) * horizon)`` of the counter-based Philox
    stream keyed by ``seed``. Each block of replications opens that stream
    at its own first draw (counter ``first // 4``, then ``first % 4`` draws
    skipped: Philox yields four draws per counter step). Two worker threads
    walk the blocks, and their profits and final-state counts are joined in
    block order, so results depend neither on the block size nor on which
    thread ran a block. A step tests every row's draw against its state's
    sale probability; only the rows that sell look up their slot, the number
    of cumulative thresholds at or below the draw. ``arrival_rate`` optionally
    overrides the scenario's rate (0.0 is allowed here, unlike in the
    solver). Profits are summed in replication order, and the mean uses
    index-ordered pairwise summation. ``ValueError`` is raised when ``seed``
    lies outside ``[0, 2**128)``, before any thread starts, and when a sale
    probability is not finite because a logit utility overflows.
    """
    if reps < 1:
        raise ValueError("at least one replication is required")
    if not 0 <= seed < 2**128:
        raise ValueError(f"seed must be an integer in [0, 2**128), got {seed}")
    if policy.fingerprint != scenario.fingerprint():
        raise ValueError("policy was computed for a different scenario")
    if policy.horizon != scenario.horizon:
        raise ValueError("policy horizon does not match the scenario")
    lam = scenario.arrival_rate if arrival_rate is None else float(arrival_rate)
    if not 0.0 <= lam < 1.0:
        raise ValueError("arrival rate override must lie in [0, 1)")
    lat = scenario.lattice
    costs = cost_values(scenario)
    cum, revenue = _policy_tables(scenario, policy, lam)
    thresholds = np.ascontiguousarray(cum.transpose(0, 2, 1))  # [t, -1]: sale probability

    buffers = threading.local()  # one uniform matrix per worker thread

    def walk(start: int) -> tuple[np.ndarray, np.ndarray]:
        """Profits and final-state counts of replications ``start`` onwards."""
        size = min(_CHUNK, reps - start)
        first = start * scenario.horizon  # four draws per Philox counter step
        bits = np.random.Philox(key=seed, counter=first // 4)
        bits.random_raw(first % 4)
        if not hasattr(buffers, "u"):
            buffers.u = np.empty((min(_CHUNK, reps), scenario.horizon))
        block = np.random.Generator(bits).random(out=buffers.u[:size])
        states = np.zeros(size, dtype=np.int64)
        profit = np.zeros(size)
        for t0 in range(0, scenario.horizon, _STEPS):
            for t, ut in enumerate(block[:, t0 : t0 + _STEPS].T.copy(), t0):
                sale = np.flatnonzero(ut < thresholds[t, -1][states])
                if sale.size:
                    sold = states[sale]
                    slot = (ut[sale] >= thresholds[t, :-1].take(sold, axis=1)).sum(axis=0)
                    flat = sold * scenario.n_slots + slot
                    profit[sale] += revenue[t].take(flat)
                    states[sale] = lat.neighbours.take(flat)
        profit -= costs[states]
        return profit, np.bincount(states, minlength=lat.n_states)

    from concurrent.futures import ThreadPoolExecutor  # lazy: keeps it out of the import

    with ThreadPoolExecutor(_WORKERS) as pool:
        blocks = list(pool.map(walk, range(0, reps, _CHUNK)))
    profits = np.concatenate([profit for profit, _ in blocks])
    histogram = np.sum([counts for _, counts in blocks], axis=0)
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

