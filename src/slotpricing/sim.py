"""Seeded Monte Carlo walk of the booking horizon under a fixed price policy.

Each replication starts at the empty lattice state, draws one uniform per
booking step to decide whether a customer arrives and which open slot (if
any) they choose at the policy's prices, collects net revenue plus delivery
charge per sale, and finally subtracts the delivery cost of the end state.
The sample mean cross-validates the solved value at the initial state. The
sale probabilities come from the model's logit kernel, so an overflowing
utility raises the same error here as in the solver.

Replications run in near-equal lanes on two threads. Each lane reads its own
PCG64DXSM substream, one draw per drawing replication and step, so a
replication whose slots are all at capacity (where nothing can sell) retires
at the next 16-step checkpoint and stops drawing. A lane needs no draw buffer
and no lock, and writes its results at its replications' indices.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dp import PricePolicy
from .model import Scenario, _logit_weights, cost_values

GENERATOR = "numpy.random.PCG64DXSM/lanes"
# Most replications per lane. A lane holds one draw, state and profit per
# replication, so wide lanes cost little memory and spread the per-step numpy
# overhead over many rows. The lane count depends on ``reps`` alone and each
# lane reads its own substream, so results do not depend on _WORKERS, the
# threads that walk lanes at once; they do depend on this cap. On a 2-core
# host the paper example (200,000 replications) took 0.13-0.14 s in four
# lanes of 50,000 rows on two threads, 0.21 s on one thread and 0.18 s in
# lanes of 16,384 rows (best of 7).
_CHUNK = 65_536
_WORKERS = 2
# Steps between the checks that retire full replications. A check compares
# every drawing row's state and compacts the lane when some row is full;
# run at every step it cost more than it saved on workloads that rarely fill.
_RETIRE_EVERY = 16


@dataclass(frozen=True)
class SimulationResult:
    """Summary of one simulation run.

    ``std_error`` is the sample standard deviation over replications divided
    by sqrt(replications) (0.0 with a single replication). The histogram
    counts the final lattice state of every replication and sums to
    ``replications``. ``generator`` records the PRNG so the run can be
    replayed from ``seed`` and ``replications``.
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

    Bit-reproducible for a fixed ``seed`` and ``reps``. The replications
    split into ``min(reps, max(2, ceil(reps / _CHUNK)))`` near-equal
    contiguous lanes. Lane k reads the PCG64DXSM stream seeded with ``seed``,
    advanced by ``k * 2**64`` (one 64-bit output per draw); at each booking
    step the lane's drawing replications take its next draws in index order.
    At every 16th step (t > 0, counted from 0) the replications in the full
    state, where every slot is at capacity, write their profit and stop
    drawing; a lane with none left drawing stops. The full state absorbs
    under every policy, so each replication's path has the same law as
    without retirement. A replication's draws depend on ``reps`` and on the
    lane cap as well as on ``seed``. ``_WORKERS`` threads walk the lanes;
    each writes its profits at its replications' indices and returns its
    final-state counts, which are summed as integers, so results do not
    depend on which thread ran a lane. A step tests every drawing row's draw
    against its state's sale probability; only the rows that sell look up
    their slot, the number of cumulative thresholds at or below the draw.
    ``arrival_rate`` optionally overrides the scenario's rate (0.0 is
    allowed here, unlike in the solver). The mean uses index-ordered
    pairwise summation. ``ValueError`` is raised, before any allocation or
    thread, when ``reps`` or ``seed`` is not an integer (bools included),
    when ``arrival_rate`` is not a real number (str, bytes and bools
    included), when ``reps`` is below 1, ``seed`` lies
    outside ``[0, 2**128)`` or ``arrival_rate`` outside ``[0, 1)``; and when
    a logit weight or a state's sum of weights overflows the float range.
    """
    reps, seed = _integer("reps", reps), _integer("seed", seed)
    if reps < 1:
        raise ValueError("at least one replication is required")
    if not 0 <= seed < 2**128:
        raise ValueError(f"seed must be an integer in [0, 2**128), got {seed}")
    if arrival_rate is None:
        lam = scenario.arrival_rate
    elif isinstance(arrival_rate, numbers.Real) and not isinstance(arrival_rate, bool):
        lam = float(arrival_rate)
    else:
        raise ValueError(f"arrival_rate must be a real number, got {arrival_rate!r}")
    if not 0.0 <= lam < 1.0:
        raise ValueError("arrival rate override must lie in [0, 1)")
    if policy.fingerprint != scenario.fingerprint():
        raise ValueError("policy was computed for a different scenario")
    if policy.horizon != scenario.horizon:
        raise ValueError("policy horizon does not match the scenario")
    lat = scenario.lattice
    horizon = scenario.horizon
    costs = cost_values(scenario)
    cum, revenue = _policy_tables(scenario, policy, lam)
    thresholds = np.ascontiguousarray(cum.transpose(0, 2, 1))  # [t, -1]: sale probability
    del cum

    profits = np.zeros(reps)
    full = lat.index(lat.capacities)  # absorbing: no slot can sell

    def walk(lane: int, start: int, stop: int) -> np.ndarray:
        """Write the profits of replications ``start`` to ``stop`` into
        ``profits``; return their final-state counts."""
        bits = np.random.PCG64DXSM(seed)
        bits.advance(lane << 64)
        rng = np.random.Generator(bits)
        profit = profits[start:stop]
        states = np.zeros(stop - start, dtype=np.int64)
        u = np.empty(stop - start)
        rows = None  # lane positions of the drawing rows, once some retire
        for t in range(horizon):
            if t and t % _RETIRE_EVERY == 0:
                done = states == full
                if done.any():
                    live = ~done
                    if rows is None:
                        profit[done] -= costs[full]
                        rows = np.flatnonzero(live)
                    else:
                        profit[rows[done]] -= costs[full]
                        rows = rows[live]
                    states = states[live]
                    u = u[: rows.size]
                    if not rows.size:
                        break
            rng.random(out=u)
            sale = np.flatnonzero(u < thresholds[t, -1][states])
            if sale.size:
                sold = states[sale]
                slot = (u[sale] >= thresholds[t, :-1].take(sold, axis=1)).sum(axis=0)
                flat = sold * scenario.n_slots + slot
                profit[sale if rows is None else rows[sale]] += revenue[t].take(flat)
                states[sale] = lat.neighbours.take(flat)
        profit[... if rows is None else rows] -= costs[states]
        counts = np.bincount(states, minlength=lat.n_states)
        counts[full] += stop - start - states.size
        return counts

    from concurrent.futures import ThreadPoolExecutor  # lazy: keeps it out of the import

    lanes = min(reps, max(2, -(-reps // _CHUNK)))
    edges = [k * reps // lanes for k in range(lanes + 1)]
    histogram = np.zeros(lat.n_states, dtype=np.int64)
    with ThreadPoolExecutor(_WORKERS) as pool:
        for counts in pool.map(walk, range(lanes), edges[:-1], edges[1:]):
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

