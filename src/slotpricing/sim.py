"""Seeded Monte Carlo walk of the booking horizon under a fixed price policy.

Each replication starts at the empty lattice state, draws one uniform per
booking step to decide whether a customer arrives and which open slot (if
any) they choose at the policy's prices, collects net revenue plus delivery
charge per sale, and finally subtracts the delivery cost of the end state.
The sample mean cross-validates the solved value at the initial state. The
sale probabilities come from the model's logit kernel, so an overflowing
utility raises the same error here as in the solver.

Replications run in blocks, each with its own Philox generator at the
counter offset of its first draw. Two threads fill blocks with their draws,
time-major; one thread at a time walks a filled block, and each block writes
its results at its replications' indices.
"""

from __future__ import annotations

import math
import operator
import threading
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dp import PricePolicy
from .model import Scenario, _logit_weights, cost_values

GENERATOR = "numpy.random.Philox"
# Replications per block; each block's generator starts at its own Philox
# counter offset, so results are block-size invariant. _WORKERS threads fill
# blocks, and the Philox fill releases the interpreter lock, so one block
# fills while another walks. The walk is bound by the interpreter lock, and
# two concurrent walks mostly wait on each other, so a lock lets one thread
# walk at a time. Halving the block to 6,144 rows saved about 19 MiB on the
# paper example but ran 11-19% slower on a 2-core host.
_CHUNK = 12_288
_WORKERS = 2
# Replications per Philox fill: a (_TILE, horizon) tile in stream order,
# copied transposed into the block's time-major (horizon, rows) buffer.
_TILE = 256


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
    cum, total = _logit_weights(scenario, prices, open_mask)
    cum *= arrival_rate
    total += 1.0
    cum /= total[..., np.newaxis]
    np.cumsum(cum, axis=2, out=cum)
    revenue = np.add(scenario.net_revenue, prices, out=np.zeros_like(prices), where=open_mask)
    return cum, revenue


def _integer(name: str, value) -> int:
    """``value`` as an int; a bool or a non-integer raises ``ValueError``."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


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
    skipped: Philox yields four draws per counter step) and fills its draws
    in stream order, a tile of replications at a time, into a time-major
    buffer, so a booking step reads one contiguous row. Two worker threads
    fill blocks; one thread at a time walks a filled block. Each block
    writes its profits at its replications' indices and returns its
    final-state counts, which are summed as integers, so results depend
    neither on the block or tile size nor on which thread ran a block. A step
    tests every row's draw against its state's sale probability; only the
    rows that sell look up their slot, the number of cumulative thresholds
    at or below the draw. ``arrival_rate`` optionally overrides the
    scenario's rate (0.0 is allowed here, unlike in the solver). The mean
    uses index-ordered pairwise summation. ``ValueError`` is raised, before
    any allocation or thread, when ``reps`` or ``seed`` is not an integer
    (bools included), when ``reps`` is below 1 or ``seed`` lies outside
    ``[0, 2**128)``; and when a logit weight or a state's sum of weights
    overflows the float range.
    """
    reps, seed = _integer("reps", reps), _integer("seed", seed)
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
    horizon = scenario.horizon
    costs = cost_values(scenario)
    cum, revenue = _policy_tables(scenario, policy, lam)
    thresholds = np.ascontiguousarray(cum.transpose(0, 2, 1))  # [t, -1]: sale probability
    del cum

    profits = np.zeros(reps)
    buffers = threading.local()  # one time-major block and one fill tile per thread
    walking = threading.Lock()

    def walk(start: int) -> np.ndarray:
        """Write the profits of replications ``start`` onwards into
        ``profits``; return their final-state counts."""
        size = min(_CHUNK, reps - start)
        first = start * horizon  # four draws per Philox counter step
        bits = np.random.Philox(key=seed, counter=first // 4)
        bits.random_raw(first % 4)
        rng = np.random.Generator(bits)
        if not hasattr(buffers, "u"):
            rows = min(_CHUNK, reps)
            buffers.u = np.empty((horizon, rows))
            buffers.tile = np.empty((min(_TILE, rows), horizon))
        u = buffers.u[:, :size]
        for r in range(0, size, _TILE):
            tile = rng.random(out=buffers.tile[: size - r])
            u[:, r : r + len(tile)] = tile.T
        profit = profits[start : start + size]
        states = np.zeros(size, dtype=np.int64)
        with walking:
            for t, ut in enumerate(u):
                sale = np.flatnonzero(ut < thresholds[t, -1][states])
                if sale.size:
                    sold = states[sale]
                    slot = (ut[sale] >= thresholds[t, :-1].take(sold, axis=1)).sum(axis=0)
                    flat = sold * scenario.n_slots + slot
                    profit[sale] += revenue[t].take(flat)
                    states[sale] = lat.neighbours.take(flat)
            profit -= costs[states]
        return np.bincount(states, minlength=lat.n_states)

    from concurrent.futures import ThreadPoolExecutor  # lazy: keeps it out of the import

    histogram = np.zeros(lat.n_states, dtype=np.int64)
    with ThreadPoolExecutor(_WORKERS) as pool:
        for counts in pool.map(walk, range(0, reps, _CHUNK)):
            histogram += counts
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

