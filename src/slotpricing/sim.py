"""Seeded Monte Carlo walk of the booking horizon under a fixed price policy.

Each replication starts at the empty lattice state. At each booking step a
customer may arrive and choose an open slot at the policy's prices; each
sale collects net revenue plus the delivery charge, and the end state's
delivery cost is subtracted at the end. The sample mean cross-validates the
solved value at the initial state. The sale probabilities come from the
model's logit kernel, so an overflowing utility raises the same error here
as in the solver.

Replications run in near-equal lanes, each on its own PCG64DXSM substream,
walked by the calling thread and one helper, and one of two walks draws
their sales:

- the per-step walk draws one uniform per replication and step;
- the event walk samples the same law by thinning (Lewis & Shedler, Naval
  Research Logistics Quarterly 1979). A replication jumps to its next
  candidate step by a geometric gap, drawn from one exponential at the rate
  of its state's largest sale probability, and one uniform accepts or
  rejects the candidate. A replication that can sell no more draws nothing.

The event walk's work grows with the candidates, not with the horizon, so
``simulate`` runs it when the horizon is long against a replication's
expected candidates, in lanes a quarter as wide, each walked as one block.
A lane needs no lock: it walks into its own profit buffer and returns its
final-state counts and profit moments, which are combined in lane order. So
memory is bounded by the lanes in flight, one per thread, not by the
replication count, unless the profits of every replication are kept.
"""

from __future__ import annotations

import math
import numbers
import threading
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dp import PricePolicy
from .model import Scenario, _check_fit, _integral, _logit_weights, cost_values

GENERATOR = "numpy.random.PCG64DXSM"  # the label appends the walk, /steps or /events
# Most replications per lane of the per-step walk; an event lane and a block
# of the policy table take at most a quarter of it. The lane count depends on
# ``reps`` and the walk alone and each lane reads its own substream, so
# results do not depend on _WORKERS, the threads that walk lanes at once;
# they do depend on this cap. Wide lanes spread the per-step numpy overhead
# over many rows, while an event lane holds all its live rows at once, about
# 80 bytes a row. On a 2-core host, best of 7 in the quietest of six rounds:
# the paper example (200,000 replications, event walk) took 0.034 s in 13
# lanes of at most 16,384 rows on two threads, 0.046 s on one and 0.031 s in
# lanes of 65,536; open4 (500,000 replications, per-step walk) took 0.22,
# 0.34 and, in lanes of 16,384 rows, 0.31 s.
_CHUNK = 65_536
_WORKERS = 2
# The event walk runs when the horizon is at least this many times the
# expected candidate steps of a replication. Measured in one process on one
# thread, the event walk took 1.19 of the per-step walk's time at 4.5 steps
# per candidate (boxed3), 0.89 at 5.7 and 0.66 at 7.0 (boxed3 with longer
# horizons), and 1.31, 0.91 and 0.72 at 4.6, 6.9 and 8.9 (the example at
# horizons 20, 40 and 60).
_STEPS_PER_CANDIDATE = 5.5


@dataclass(frozen=True)
class SimulationResult:
    """Summary of one simulation run.

    ``std_error`` is the sample standard deviation over replications divided
    by sqrt(replications) (0.0 with a single replication). The histogram
    counts the final lattice state of every replication and sums to
    ``replications``. ``generator`` names the PRNG and the walk that drew
    from it, ``numpy.random.PCG64DXSM/steps`` or ``.../events``, so the run
    can be replayed from ``seed`` and ``replications``. ``profits`` holds
    each replication's profit in index order when the run was asked to keep
    them, else None; the other fields do not depend on whether it was.
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
    steps of at most ``ceil(_CHUNK / 4)`` (step, state, slot) entries (one
    step when a step has more), so the logit temporaries are no larger than
    an event lane's arrays.
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
    steps = max(1, -(-_CHUNK // 4) // (scenario.n_slots * scenario.lattice.n_states))
    for t in range(0, scenario.horizon, steps):
        block = slice(t, t + steps)
        cum, total = _logit_weights(scenario, prices[block], open_mask[block])
        cum *= arrival_rate
        total += 1.0
        cum /= total[..., np.newaxis]
        np.cumsum(cum, axis=2, out=table[block].transpose(0, 2, 1))
    return table


def _expected_candidates(scenario: Scenario, table: np.ndarray, bound: np.ndarray) -> float:
    """Expected candidate steps of one replication, ``sum_t E[bound(X_t)]``.

    One exact forward pass of the state distribution from the empty state:
    at each step a state's mass moves to its neighbours by the per-slot sale
    probabilities of ``table`` (``_policy_tables``) and stays otherwise.
    """
    lat = scenario.lattice
    nbr = lat.neighbours.T.reshape(-1)  # in the table's (slot, state) order
    source = np.flatnonzero(nbr >= 0)
    targets = nbr.take(source)
    dist = np.zeros(lat.n_states)
    dist[0] = 1.0
    visits = np.zeros(lat.n_states)  # expected steps spent in each state
    for cum in table:
        visits += dist
        sold = cum * dist  # mass sold to this slot or a lower one
        sold[1:] -= sold[:-1]
        dist *= 1.0 - cum[-1]
        dist += np.bincount(targets, weights=sold.reshape(-1).take(source), minlength=lat.n_states)
    return float(bound @ visits)


def _integer(name: str, value) -> int:
    """``value`` as an int; a bool or a non-integer raises ``ValueError``."""
    count = _integral(value)
    if count is None:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return count


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
    split into ``min(reps, max(2, ceil(reps / cap)))`` near-equal contiguous
    lanes, where the cap is ``_CHUNK`` rows under the per-step walk and
    ``ceil(_CHUNK / 4)`` under the event walk. Lane k reads the PCG64DXSM
    stream seeded with ``seed``, advanced by ``k * 2**64``; each uniform
    takes one 64-bit output. A replication's draws depend on ``reps``, the
    walk and the lane cap as well as on ``seed``. One of two walks runs
    every lane:

    - **steps**: at each booking step the lane's replications take its next
      uniforms in index order. A replication sells when its uniform lies
      below its state's sale probability.
    - **events**: q(x), a state's bound, is its largest sale probability
      over the steps (0 where nothing can sell). Each round, every live
      replication in index order draws one exponential E; its candidate is
      its first step not yet passed plus ``floor(E / -log1p(-q(x)))``. A
      replication whose candidate is at or past the horizon finishes, and
      one past the horizon or with q(x) = 0 finishes without drawing. The
      others then draw one uniform U each, in index order, and sell at
      their candidate when ``U * q(x)`` lies below its sale probability.

    Either way a sale goes to the slot counted by the cumulative thresholds
    at or below the draw, and adds the offered price plus the net revenue.
    The two walks sample the same law but different numbers. The event walk
    runs when ``horizon >= _STEPS_PER_CANDIDATE * C``, where C, the expected
    candidates per replication ``sum_t E[q(X_t)]``, comes from one exact
    forward pass of the state distribution; its label ends in ``/events``,
    the other's in ``/steps``.

    The calling thread and ``_WORKERS - 1`` helper threads walk the lanes,
    thread i lanes i, i + _WORKERS, ... one at a time. A lane walks into a
    profit buffer: a view of the kept profits with ``keep_profits``, else an
    array of its own, freed when it returns. It returns its final-state
    counts, its profit sum and its sum of squared deviations about its own
    mean. The counts are summed as integers and the moments combined in lane
    order by the pairwise update of Chan, Golub & LeVeque, so the mean,
    standard error and histogram depend neither on the thread that ran a
    lane nor on ``keep_profits``, and memory grows with ``reps`` only when
    the profits are kept. A lane's exception ends its thread's walk and is
    raised here, the first in lane order, once every helper has stopped.
    ``arrival_rate`` overrides the scenario's rate (0.0 is allowed here,
    unlike in the solver). ``ValueError`` is raised, before any allocation
    or thread, when ``reps`` or ``seed`` is not an integer (bools included),
    when ``arrival_rate`` is not a real number (str, bytes and bools too),
    when ``reps`` is below 1, ``seed`` lies outside ``[0, 2**128)`` or
    ``arrival_rate`` outside ``[0, 1)``; when a logit weight or a state's
    sum of weights overflows the float range; and, after the walk, when the
    mean or the standard error of the profit does.
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
    lat = scenario.lattice
    horizon = scenario.horizon
    n_slots = scenario.n_slots
    shape = (horizon, lat.n_states, n_slots)
    _check_fit(scenario, "policy", policy.fingerprint, policy.prices, shape)
    costs = cost_values(scenario)
    thresholds = _policy_tables(scenario, policy, lam)  # [t, -1]: sale probability
    bound = thresholds[:, -1].max(axis=0) if horizon else np.zeros(lat.n_states)
    use_events = horizon >= _STEPS_PER_CANDIDATE * _expected_candidates(scenario, thresholds, bound)
    prices = policy.prices
    profits = np.zeros(reps) if keep_profits else None

    def steps(rng, profit: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Walk every replication through every step; return the final-state
        counts and a spent lane-sized buffer."""
        states = np.zeros(profit.size, dtype=np.int64)
        u = np.empty(profit.size)
        for t in range(horizon):
            rng.random(out=u)
            sale = np.flatnonzero(u < thresholds[t, -1].take(states))
            if sale.size:
                # each temporary is freed once spent and none outlives its
                # step, so a lane peaks at about 33 bytes a row
                flat = states.take(sale)  # the sold states, then their (state, slot) pairs
                slot = (u.take(sale) >= thresholds[t, :-1].take(flat, axis=1)).sum(axis=0)
                flat *= n_slots
                flat += slot
                del slot
                gain = prices[t].take(flat)
                gain += scenario.net_revenue
                profit[sale] += gain
                del gain
                states[sale] = lat.neighbours.take(flat)
                del flat
            del sale
        profit -= costs.take(states)
        return np.bincount(states, minlength=lat.n_states), u

    def events(rng, profit: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Jump the lane's live rows, one block, to their next candidate steps
        round by round; return the final-state counts and a spent buffer."""
        rate = -np.log1p(-bound)  # a state's candidate steps are Bernoulli(bound)
        live = bound > 0.0  # something sells here at some step
        table = thresholds.reshape(-1)  # flat (step, slot, state) index
        price_table = prices.reshape(-1)  # flat (step, state, slot) index
        stride = n_slots * lat.n_states  # one step of either table
        last = (n_slots - 1) * lat.n_states  # the last slot's offset in a step
        targets = lat.neighbours.reshape(-1)  # by (state, slot) pair
        counts = np.zeros(lat.n_states, dtype=np.int64)
        # lane positions, states, first steps not yet passed, revenues
        rows, states = np.arange(profit.size, dtype=np.int32), np.zeros(profit.size, dtype=np.int32)
        step, gained, buf = np.zeros(profit.size), np.zeros(profit.size), np.empty(profit.size)
        while True:
            # rows past the horizon or in a state where nothing sells draw no
            # exponential and finish with the rows whose candidate is late
            draw = step < horizon
            draw &= live.take(states)
            k = np.count_nonzero(draw)
            e = rng.standard_exponential(out=buf[:k])
            if k < rows.size:
                e = np.full(rows.size, np.inf)
                e[draw] = buf[:k]
            del draw
            with np.errstate(over="ignore"):  # a tiny rate jumps past the horizon
                e /= rate.take(states)
            step += np.floor(e, out=e)  # now the candidate step
            del e
            gone = step >= horizon
            if gone.any():
                done = np.flatnonzero(gone)
                at = states.take(done)
                profit[rows.take(done)] = gained.take(done) - costs.take(at)
                counts += np.bincount(at, minlength=lat.n_states)
                keep = np.flatnonzero(~gone)
                rows, states, step, gained = (a.take(keep) for a in (rows, states, step, gained))
                del done, at, keep
            del gone
            if not rows.size:
                return counts, buf
            u = rng.random(out=buf[: rows.size])
            u *= bound.take(states)  # the candidates' draws, settled in place:
            # every row is priced as if it sold, and only the sales keep it;
            # a row that does not sell counts every threshold below the last
            at = step.astype(np.int64)
            at *= stride
            at += states
            at += last  # (candidate step, last slot, state) in the threshold table
            sold = u < table.take(at)  # the last threshold is the sale probability
            # each row's (state, slot) pair, the slot being the count of
            # thresholds at or below u
            pair = np.multiply(states, n_slots, dtype=np.int64)
            for _ in range(n_slots - 1):
                at -= lat.n_states
                pair += table.take(at) <= u
            at -= states
            at += pair  # (candidate step, state, slot) in the price table
            gain = price_table.take(at)
            del at, u
            gain += scenario.net_revenue
            np.add(gained, gain, out=gained, where=sold)
            del gain
            np.copyto(states, targets.take(pair), where=sold)
            del sold, pair
            step += 1.0

    def walk(lane: int, start: int, stop: int) -> tuple[np.ndarray, float, float]:
        """Walk replications ``start`` to ``stop``; return their final-state
        counts, their profit sum and their profits' sum of squared deviations
        about their own mean."""
        rng = np.random.Generator(np.random.PCG64DXSM(seed).advance(lane << 64))
        profit = np.zeros(stop - start) if profits is None else profits[start:stop]
        counts, spare = (events if use_events else steps)(rng, profit)
        with np.errstate(over="ignore", invalid="ignore"):  # simulate raises on a non-finite result
            total = float(np.sum(profit))
            deviation = np.subtract(profit, total / profit.size, out=spare)
            return counts, total, float(np.sum(np.square(deviation, out=deviation)))

    cap = -(-_CHUNK // 4) if use_events else _CHUNK  # most rows in a lane
    lanes = min(reps, max(2, -(-reps // cap)))
    edges = [k * reps // lanes for k in range(lanes + 1)]
    lane_runs: list = [None] * lanes

    def run(first: int) -> None:
        """Walk lanes ``first``, ``first + _WORKERS``, ... into ``lane_runs``;
        a lane that raises stores its exception there and ends the run."""
        try:
            for k in range(first, lanes, _WORKERS):
                lane_runs[k] = walk(k, edges[k], edges[k + 1])
        except BaseException as exc:  # raised by the caller, in lane order
            lane_runs[k] = exc

    helpers = [threading.Thread(target=run, args=(i,)) for i in range(1, min(_WORKERS, lanes))]
    for helper in helpers:
        helper.start()
    run(0)  # stores, never raises, so every helper is joined
    for helper in helpers:
        helper.join()
    histogram = np.zeros(lat.n_states, dtype=np.int64)
    total = squares = 0.0  # profit sum and squared deviations of the first ``seen`` rows
    seen = 0
    for size, lane_run in zip(np.diff(edges).tolist(), lane_runs):
        if isinstance(lane_run, BaseException):
            raise lane_run
        counts, lane_total, lane_squares = lane_run
        histogram += counts
        if seen:  # the pairwise update of Chan, Golub & LeVeque (1979)
            delta = lane_total / size - total / seen
            lane_squares += delta * delta * seen * size / (seen + size)
        total += lane_total
        squares += lane_squares
        seen += size
    mean = total / reps
    std_error = math.sqrt(squares / (reps - 1)) / math.sqrt(reps) if reps > 1 else 0.0
    if not (math.isfinite(mean) and math.isfinite(std_error)):
        raise ValueError("the profit's mean or standard error exceeds the float range")
    histogram.flags.writeable = False
    return SimulationResult(
        replications=reps,
        mean_profit=mean,
        std_error=std_error,
        seed=seed,
        generator=f"{GENERATOR}/{'events' if use_events else 'steps'}",
        final_state_histogram=histogram,
        profits=profits,
    )

