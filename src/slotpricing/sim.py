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
at the next 16-step checkpoint and stops drawing. A lane needs no lock: it
walks into its own profit buffer and returns its final-state counts and
profit moments, which are combined in lane order. So memory is bounded by
the lanes in flight, not by the replication count, unless the profits of
every replication are kept.
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
# lanes of 16,384 rows (best of 7). The policy table is built in blocks of
# at most this many entries, so its temporaries are no larger than a lane's.
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
    replayed from ``seed`` and ``replications``. ``profits`` holds each
    replication's profit in index order when the run was asked to keep them,
    else None; the other fields do not depend on whether it was.
    """

    replications: int
    mean_profit: float
    std_error: float
    seed: int
    generator: str
    final_state_histogram: np.ndarray
    profits: Optional[np.ndarray] = None


def _policy_tables(scenario: Scenario, policy: PricePolicy, arrival_rate: float) -> np.ndarray:
    """Cumulative sale thresholds per (step, slot, state).

    ``table[t - 1, j, ix]`` is the probability that the step's uniform draw
    falls on some slot <= j + 1; ``table[t - 1, -1, ix]`` is the state's sale
    probability, and a draw at or above it means no sale. Closed slots add
    no mass, so they are never selected. The table is filled in blocks of
    steps of at most ``_CHUNK`` (step, state, slot) entries (one step when a
    step has more), so the logit temporaries are the size of one block.
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
    table = np.empty((scenario.horizon, scenario.n_slots, scenario.lattice.n_states))
    steps = max(1, _CHUNK // (scenario.n_slots * scenario.lattice.n_states))
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(0, scenario.horizon, steps):
            block = slice(t, t + steps)
            cum, total = _logit_weights(
                scenario, prices[block], open_mask[block], errstate_held=True
            )
            cum *= arrival_rate
            total += 1.0
            cum /= total[..., np.newaxis]
            np.cumsum(cum, axis=2, out=table[block].transpose(0, 2, 1))
    return table


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
    lane cap as well as on ``seed``. ``_WORKERS`` threads walk the lanes. A
    lane walks into a profit buffer: a view of the kept profits with
    ``keep_profits``, else an array of its own, freed when it returns. It
    returns its final-state counts, its profit sum and its sum of squared
    deviations about its own mean. The counts are summed as integers and the
    moments combined in lane order by the pairwise update of Chan, Golub &
    LeVeque, so the mean, standard error and histogram depend neither on the
    thread that ran a lane nor on ``keep_profits``, and memory grows with
    ``reps`` only when the profits are kept. A step tests every drawing
    row's draw against its state's sale probability; only the rows that
    sell look up their slot, the number of cumulative thresholds at or below
    the draw, and add the offered price plus the net revenue.
    ``arrival_rate`` optionally overrides the scenario's rate (0.0 is
    allowed here, unlike in the solver). ``ValueError`` is raised, before
    any allocation or thread, when ``reps`` or ``seed`` is not an integer
    (bools included), when ``arrival_rate`` is not a real number (str, bytes
    and bools included), when ``reps`` is below 1, ``seed`` lies outside
    ``[0, 2**128)`` or ``arrival_rate`` outside ``[0, 1)``; and when
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
    thresholds = _policy_tables(scenario, policy, lam)  # [t, -1]: sale probability
    prices = policy.prices
    profits = np.zeros(reps) if keep_profits else None
    full = lat.index(lat.capacities)  # absorbing: no slot can sell

    def walk(lane: int, start: int, stop: int) -> tuple[np.ndarray, float, float]:
        """Walk replications ``start`` to ``stop``; return their final-state
        counts, their profit sum and their profits' sum of squared deviations
        about their own mean."""
        bits = np.random.PCG64DXSM(seed)
        bits.advance(lane << 64)
        rng = np.random.Generator(bits)
        profit = np.zeros(stop - start) if profits is None else profits[start:stop]
        states = np.zeros(stop - start, dtype=np.int64)
        u = draws = np.empty(stop - start)
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
                    u = draws[: rows.size]
                    if not rows.size:
                        break
            rng.random(out=u)
            sale = np.flatnonzero(u < thresholds[t, -1].take(states))
            if sale.size:
                # each temporary is freed once spent and none outlives its
                # step, so a lane peaks at about 33 bytes a row
                flat = states.take(sale)  # the sold states, then their (state, slot) pairs
                slot = (u.take(sale) >= thresholds[t, :-1].take(flat, axis=1)).sum(axis=0)
                flat *= scenario.n_slots
                flat += slot
                del slot
                gain = prices[t].take(flat)
                gain += scenario.net_revenue
                profit[sale if rows is None else rows.take(sale)] += gain
                del gain
                states[sale] = lat.neighbours.take(flat)
                del flat
            del sale
        profit[... if rows is None else rows] -= costs[states]
        counts = np.bincount(states, minlength=lat.n_states)
        counts[full] += stop - start - states.size
        total = float(np.sum(profit))
        deviation = np.subtract(profit, total / profit.size, out=draws)  # draws are spent
        return counts, total, float(np.sum(np.square(deviation, out=deviation)))

    from concurrent.futures import ThreadPoolExecutor  # lazy: keeps it out of the import

    lanes = min(reps, max(2, -(-reps // _CHUNK)))
    edges = [k * reps // lanes for k in range(lanes + 1)]
    histogram = np.zeros(lat.n_states, dtype=np.int64)
    total = squares = 0.0  # profit sum and squared deviations of the first ``seen`` rows
    seen = 0
    with ThreadPoolExecutor(_WORKERS) as pool:
        lane_runs = pool.map(walk, range(lanes), edges[:-1], edges[1:])
        for size, (counts, lane_total, lane_squares) in zip(np.diff(edges).tolist(), lane_runs):
            histogram += counts
            if seen:  # the pairwise update of Chan, Golub & LeVeque (1979)
                delta = lane_total / size - total / seen
                lane_squares += delta * delta * seen * size / (seen + size)
            total += lane_total
            squares += lane_squares
            seen += size
    mean = total / reps
    std_error = math.sqrt(squares / (reps - 1)) / math.sqrt(reps) if reps > 1 else 0.0
    histogram.flags.writeable = False
    return SimulationResult(
        replications=reps,
        mean_profit=mean,
        std_error=std_error,
        seed=seed,
        generator=GENERATOR,
        final_state_histogram=histogram,
        profits=profits,
    )

