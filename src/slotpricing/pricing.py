"""Single-stage price optimisation.

For one state and one time step, the booking recursion maximises the expected
one-step markup

    surplus(d) = sum_s p_s(d) * (net_revenue + d_s - opportunity_cost_s)

over the admissible price box, where ``p_s`` are the arrival-choice
probabilities of the open slots. Without the box constraint the optimum has a
closed form through the Lambert W function. With the box, every slot still
charges its opportunity cost minus ``net_revenue`` plus one common markup, now
clamped to the box; the markup has a closed form once the clamped slots are
known, and those follow from where it falls among the slots' breakpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .lambertw import lambert_w0
from .model import ChoiceProbabilities, PriceVector, Scenario


@dataclass(frozen=True)
class OpportunityCosts:
    """Value foregone by accepting one more order, per offered slot.

    ``slots`` lists the 1-based slot ids the values refer to; slots already at
    capacity are excluded. Entries are non-negative whenever the underlying
    value function is non-increasing in the order counts.
    """

    slots: tuple[int, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.slots) != len(self.values):
            raise ValueError("slots and values must have equal length")
        if len(set(self.slots)) != len(self.slots):
            raise ValueError("slot ids must be unique")
        if not all(math.isfinite(v) for v in self.values):
            raise ValueError("opportunity costs must be finite")


@dataclass(frozen=True)
class StageSolution:
    """Optimal prices for one (time, state) stage problem.

    ``prices`` has one entry per slot, ``None`` for slots not offered.
    ``interior`` is True when the unconstrained optimum already lay inside the
    price box, so the closed form was used directly.
    """

    prices: tuple[Optional[float], ...]
    value: float
    interior: bool

    def open_slots(self) -> tuple[int, ...]:
        return tuple(s for s, d in enumerate(self.prices, start=1) if d is not None)


def slot_weight(scenario: Scenario, slot: int, z: float) -> float:
    """The slot's discounted utility weight at opportunity cost ``z``.

    Computed as ``exp(beta_const + slot_beta + beta_price * (z - net_revenue)
    - 1)``; strictly positive and strictly decreasing in ``z``. Sums of these
    weights are the Lambert W arguments in the closed-form price formulas.
    """
    if not 1 <= slot <= scenario.n_slots:
        raise ValueError(f"slot {slot} out of range 1..{scenario.n_slots}")
    return math.exp(
        scenario.beta_const
        + scenario.slot_betas[slot - 1]
        + scenario.beta_price * (z - scenario.net_revenue)
        - 1.0
    )


def _weight_sum(scenario: Scenario, opp_costs: OpportunityCosts) -> float:
    return sum(slot_weight(scenario, s, z) for s, z in zip(opp_costs.slots, opp_costs.values))


def unconstrained_stage_gain(scenario: Scenario, opp_costs: OpportunityCosts) -> float:
    """Optimal one-step surplus of the stage problem without the price box.

    Equals ``-arrival_rate / beta_price * W(sum of slot weights)`` over the
    slots present in ``opp_costs``; strictly positive and strictly decreasing
    in every opportunity cost. Slots not offered contribute nothing.
    """
    return -scenario.arrival_rate / scenario.beta_price * lambert_w0(
        _weight_sum(scenario, opp_costs)
    )


def markup_root(scenario: Scenario, opp_costs: OpportunityCosts) -> float:
    """The root h of ``(h - 1) * exp(h) = sum_s exp(beta_const + slot_beta_s
    + beta_price * (z_s - net_revenue))``.

    Every unconstrained optimal price is its slot's opportunity cost minus
    ``net_revenue`` minus ``h / beta_price``; h itself is
    ``1 + W(sum of slot weights)``.
    """
    return 1.0 + lambert_w0(_weight_sum(scenario, opp_costs))


def unconstrained_prices(scenario: Scenario, opp_costs: OpportunityCosts) -> tuple[float, ...]:
    """Stationary prices of the unconstrained stage problem.

    Returned in the order of ``opp_costs.slots``. All slots share a common
    markup over ``opportunity_cost - net_revenue``, so the result may lie
    outside the admissible price box.
    """
    h = markup_root(scenario, opp_costs)
    markup = -h / scenario.beta_price
    return tuple(z - scenario.net_revenue + markup for z in opp_costs.values)


def stage_surplus(
    scenario: Scenario, opp_costs: OpportunityCosts, prices: Sequence[float]
) -> float:
    """Expected one-step markup at the given prices for the offered slots.

    ``prices`` aligns with ``opp_costs.slots``. Prices are not restricted to
    the admissible box here; the function is total in d, which makes it usable
    for stationarity and finite-difference checks at unconstrained optima.
    """
    if len(prices) != len(opp_costs.slots):
        raise ValueError("one price per offered slot required")
    num = 0.0
    den = 1.0
    for slot, z, d in zip(opp_costs.slots, opp_costs.values, prices):
        w = math.exp(
            scenario.beta_const + scenario.slot_betas[slot - 1] + scenario.beta_price * d
        )
        num += w * (scenario.net_revenue + d - z)
        den += w
    return scenario.arrival_rate * num / den


def stage_objective(
    scenario: Scenario, state: Sequence[int], prices: PriceVector, v_next: np.ndarray
) -> float:
    """The booking recursion's inner expression at explicit prices.

    ``sum_s p_s(d) * (net_revenue + d_s + v_next(state + 1_s) - v_next(state))
    + v_next(state)`` with the sum over open slots. Open slots must be
    feasible and priced inside the box; with every slot closed the result is
    ``v_next(state)``.
    """
    ix = scenario.lattice.index(state)
    nbr = scenario.lattice.neighbours[ix]
    v_next = np.asarray(v_next, dtype=float)
    if len(prices) != scenario.n_slots:
        raise ValueError(f"expected {scenario.n_slots} prices, got {len(prices)}")
    open_slots = []
    open_prices = []
    for s, d in enumerate(prices, start=1):
        if d is None:
            continue
        if nbr[s - 1] < 0:
            raise ValueError(f"slot {s} is at capacity and cannot be offered")
        d = float(d)
        if not scenario.price_min <= d <= scenario.price_max:
            raise ValueError(
                f"slot {s} price {d} outside [{scenario.price_min}, {scenario.price_max}]"
            )
        open_slots.append(s)
        open_prices.append(d)
    if not open_slots:
        return float(v_next[ix])
    oc = OpportunityCosts(
        slots=tuple(open_slots),
        values=tuple(float(v_next[ix] - v_next[nbr[s - 1]]) for s in open_slots),
    )
    return float(v_next[ix]) + stage_surplus(scenario, oc, open_prices)


class _StageSolver:
    """Reusable stage optimiser with per-scenario constants precomputed.

    The backward sweep calls ``solve`` once per state per time step, so the
    hot path is scalar math on plain floats.
    """

    def __init__(self, scenario: Scenario):
        self.lam = scenario.arrival_rate
        self.bd = scenario.beta_price
        self.r = scenario.net_revenue
        self.lo = scenario.price_min
        self.hi = scenario.price_max
        # Per-slot utility constants, indexed by 0-based slot.
        self.cs = tuple(scenario.beta_const + b for b in scenario.slot_betas)

    def solve(
        self, slots: Sequence[int], opp: Sequence[float]
    ) -> tuple[tuple[float, ...], float, bool]:
        """Optimal in-box prices for the offered ``slots`` (1-based).

        Returns ``(prices, surplus, interior)`` with prices aligned to
        ``slots``.
        """
        lam, bd, r = self.lam, self.bd, self.r
        cs = [self.cs[s - 1] for s in slots]
        a = [r - z for z in opp]

        total = sum(math.exp(c + bd * (z - r) - 1.0) for c, z in zip(cs, opp))
        w = lambert_w0(total)
        markup = -(1.0 + w) / bd
        d_unc = [z - r + markup for z in opp]
        if all(self.lo <= d <= self.hi for d in d_unc):
            return tuple(d_unc), -lam / bd * w, True

        # Off the box the optimum is still d_j = clamp(m - a_j) for one markup
        # m: the unique root of g(m) = surplus/lam - 1/bd - m, positive to its
        # left and negative to its right. Walking the breakpoints lo + a_j
        # (slot j leaves lo) and hi + a_j (slot j reaches hi) while g >= 0
        # finds the interval holding the root, which fixes the clamped slots.
        lo, hi = self.lo, self.hi
        breaks = sorted(
            [(lo + ak, j, None) for j, ak in enumerate(a)]
            + [(hi + ak, j, hi) for j, ak in enumerate(a)],
            key=lambda b: b[0],
        )
        fixed: list[Optional[float]] = [lo] * len(a)
        for m, j, d in breaks:
            if self._value(cs, a, self._clamp(a, m)) / lam - 1.0 / bd - m < 0.0:
                break
            fixed[j] = d
        # For this clamped set, with K = 1 + sum u_k and A = sum u_k (a_k + d_k)
        # over the clamped slots and y the free slots' weights at markup A/K,
        # the root is m = A/K - (1 + W(y/K)) / bd.
        k_sum, a_sum = 1.0, 0.0
        for c, ak, d in zip(cs, a, fixed):
            if d is not None:
                u = math.exp(c + bd * d)
                k_sum += u
                a_sum += u * (ak + d)
        shift = a_sum / k_sum
        y = sum(
            math.exp(c + bd * (shift - ak) - 1.0) for c, ak, d in zip(cs, a, fixed) if d is None
        )
        prices = self._clamp(a, shift - (1.0 + lambert_w0(y / k_sum)) / bd)
        return prices, self._value(cs, a, prices), False

    def _clamp(self, a, m) -> tuple[float, ...]:
        return tuple(min(max(m - ak, self.lo), self.hi) for ak in a)

    def _value(self, cs, a, d) -> float:
        num = 0.0
        den = 1.0
        for c, ak, dk in zip(cs, a, d):
            u = math.exp(c + self.bd * dk)
            num += u * (ak + dk)
            den += u
        return self.lam * num / den


def solve_stage(scenario: Scenario, state: Sequence[int], v_next: np.ndarray) -> StageSolution:
    """Optimal stage prices and value for one state against next-step values.

    With no feasible slot everything is closed and the value is
    ``v_next(state)``. Otherwise every feasible slot is offered: at the
    closed-form prices when those fall inside the box, else at the unique
    constrained optimum, where every slot charges its opportunity cost minus
    ``net_revenue`` plus one common markup, clamped to the box.
    """
    ix = scenario.lattice.index(state)
    nbr = scenario.lattice.neighbours[ix]
    v_next = np.asarray(v_next, dtype=float)
    cols = np.flatnonzero(nbr >= 0)
    if not np.all(np.isfinite(v_next[[ix, *nbr[cols]]])):
        raise ValueError("next-step values must be finite")
    if not cols.size:
        return StageSolution(prices=(None,) * scenario.n_slots, value=float(v_next[ix]), interior=False)
    slots = tuple((cols + 1).tolist())
    opp = (v_next[ix] - v_next[nbr[cols]]).tolist()
    prices, surplus, interior = _StageSolver(scenario).solve(slots, opp)
    full: list[Optional[float]] = [None] * scenario.n_slots
    for s, d in zip(slots, prices):
        full[s - 1] = d
    return StageSolution(prices=tuple(full), value=float(v_next[ix]) + surplus, interior=interior)


def prices_from_probabilities(
    scenario: Scenario, choice: ChoiceProbabilities
) -> tuple[Optional[float], ...]:
    """Invert the logit choice model: recover prices from slot probabilities.

    ``d_s = (ln(pi_s / pi_0) - beta_const - slot_beta_s) / beta_price`` for
    slots with positive probability; zero-probability slots map to ``None``.
    """
    if choice.no_purchase <= 0.0:
        raise ValueError("no-purchase probability must be positive")
    out: list[Optional[float]] = []
    for s, p in enumerate(choice.per_slot, start=1):
        if p <= 0.0:
            out.append(None)
            continue
        out.append(
            (math.log(p / choice.no_purchase) - scenario.beta_const - scenario.slot_betas[s - 1])
            / scenario.beta_price
        )
    return tuple(out)


def revenue_of_probabilities(
    scenario: Scenario, p: Sequence[float], p0: Optional[float] = None
) -> float:
    """Expected one-step revenue in purchase-probability coordinates.

    ``sum_s p_s * (net_revenue + (ln(p_s / p_0) - beta_const - slot_beta_s)
    / beta_price)`` where ``p_s`` is the probability that a customer arrives
    and books slot s. When ``p0`` is omitted it is ``arrival_rate - sum(p)``,
    the arrive-but-not-purchase probability. The function is concave on its
    domain (positive p, positive p0).
    """
    if len(p) != scenario.n_slots:
        raise ValueError(f"expected {scenario.n_slots} probabilities, got {len(p)}")
    if p0 is None:
        p0 = scenario.arrival_rate - sum(p)
    if p0 <= 0.0 or any(ps <= 0.0 for ps in p):
        raise ValueError("probabilities must be strictly positive")
    total = 0.0
    for s, ps in enumerate(p, start=1):
        total += ps * (
            scenario.net_revenue
            + (math.log(ps / p0) - scenario.beta_const - scenario.slot_betas[s - 1])
            / scenario.beta_price
        )
    return total


def revenue_probability_hessian(
    scenario: Scenario, p: Sequence[float], p0: float
) -> np.ndarray:
    """Closed-form Hessian of ``revenue_of_probabilities`` in (p, p0).

    The (n_slots + 1) square matrix has ``1 / (beta_price * p_s)`` on the slot
    diagonal, ``sum(p) / (beta_price * p0**2)`` in the final diagonal entry and
    ``-1 / (beta_price * p0)`` on the final row and column; it is negative
    semi-definite everywhere on the domain.
    """
    if len(p) != scenario.n_slots:
        raise ValueError(f"expected {scenario.n_slots} probabilities, got {len(p)}")
    if p0 <= 0.0 or any(ps <= 0.0 for ps in p):
        raise ValueError("probabilities must be strictly positive")
    n = scenario.n_slots
    bd = scenario.beta_price
    h = np.zeros((n + 1, n + 1))
    for i, ps in enumerate(p):
        h[i, i] = 1.0 / (bd * ps)
        h[i, n] = h[n, i] = -1.0 / (bd * p0)
    h[n, n] = sum(p) / (bd * p0 * p0)
    return h
