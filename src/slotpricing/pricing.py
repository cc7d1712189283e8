"""Single-stage price optimisation.

For one state and one time step, the booking recursion maximises the expected
one-step markup

    surplus(d) = sum_s p_s(d) * (net_revenue + d_s - opportunity_cost_s)

over the open slots and the admissible price box, where ``p_s`` are the
arrival-choice probabilities of the open slots. Without the box constraint
the optimum has a closed form through the Lambert W function. With the box,
every open slot still charges its opportunity cost minus ``net_revenue``
plus one common markup, now clamped to the box; the markup has a closed form
once the clamped slots are known, and those follow from where it falls among
the slots' breakpoints. Which slots to close is settled by their margins
(see ``solve_stage``).

One solver prices a whole layer of states at once, in numpy arrays over the
states and slots; the backward induction builds the layer's fixed geometry
once and hands it every state of each layer, and ``solve_stage`` a single
state. Lambert W stays the scalar ``lambert_w0``. The rows are settled in
order. First the interior rows, found without W and priced by the closed
form, one W call each; a screen on the box's upper edge comes first, and
only the rows that pass it get W arguments. Then the capped rows, where
every offered slot charges ``price_max``: the markup's first-order condition
at the cap decides them, and they are priced and closed in closed form with
no W call; their weights at ``price_max`` depend on the layer's geometry
alone, so a solve builds them once. Then the breakpoint walk over the rest,
with one W call per walk that has a free slot; a row where closing pays is
walked again over its nested closures. Every logit weight, in the solver and
in the scalar formulas, comes from the model's logit kernel; the Lambert W
arguments pass their ``-1`` as its log offset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .lambertw import lambert_w0
from .model import _OVERFLOW, PriceVector, Scenario
from .model import _logit_weights, _offered_prices


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


def _slot_weights(scenario: Scenario, slots, prices, log_offset: float = 0.0):
    """The weights of the distinct ``slots`` at ``prices``, in order, and their sum."""
    for slot in slots:
        if not 1 <= slot <= scenario.n_slots:
            raise ValueError(f"slot {slot} out of range 1..{scenario.n_slots}")
    ix = np.asarray(slots, dtype=int) - 1
    row, offered = np.zeros(scenario.n_slots), np.zeros(scenario.n_slots, dtype=bool)
    row[ix], offered[ix] = prices, True
    weights, total = _logit_weights(scenario, row, offered, log_offset)
    return weights[ix], float(total)


def slot_weight(scenario: Scenario, slot: int, z: float) -> float:
    """The slot's discounted utility weight at opportunity cost ``z``.

    Computed as ``exp(beta_const + slot_beta + beta_price * (z - net_revenue)
    - 1)``; strictly positive and strictly decreasing in ``z``. Sums of these
    weights are the Lambert W arguments in the closed-form price formulas.
    """
    return _slot_weights(scenario, [slot], [z - scenario.net_revenue], -1.0)[1]


def unconstrained_stage_gain(scenario: Scenario, opp_costs: OpportunityCosts) -> float:
    """Optimal one-step surplus of the stage problem without the price box.

    Equals ``-arrival_rate / beta_price * W(sum of slot weights)`` over the
    slots present in ``opp_costs``; strictly positive and strictly decreasing
    in every opportunity cost. Slots not offered contribute nothing.
    """
    z = np.subtract(opp_costs.values, scenario.net_revenue)
    _, total = _slot_weights(scenario, opp_costs.slots, z, -1.0)
    return -scenario.arrival_rate / scenario.beta_price * lambert_w0(total)


def markup_root(scenario: Scenario, opp_costs: OpportunityCosts) -> float:
    """The root h of ``(h - 1) * exp(h) = sum_s exp(beta_const + slot_beta_s
    + beta_price * (z_s - net_revenue))``.

    Every unconstrained optimal price is its slot's opportunity cost minus
    ``net_revenue`` minus ``h / beta_price``; h itself is
    ``1 + W(sum of slot weights)``.
    """
    z = np.subtract(opp_costs.values, scenario.net_revenue)
    return 1.0 + lambert_w0(_slot_weights(scenario, opp_costs.slots, z, -1.0)[1])


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
    d = np.asarray(prices, dtype=float)
    w, total = _slot_weights(scenario, opp_costs.slots, d)
    num = (w * (scenario.net_revenue + d - np.asarray(opp_costs.values))).sum()
    return float(scenario.arrival_rate * num / (1.0 + total))


def stage_objective(
    scenario: Scenario, state: Sequence[int], prices: PriceVector, v_next: np.ndarray
) -> float:
    """The booking recursion's inner expression at explicit prices.

    ``sum_s p_s(d) * (net_revenue + d_s + v_next(state + 1_s) - v_next(state))
    + v_next(state)`` with the sum over open slots. Open slots must be
    feasible and priced inside the box; a feasible slot may be closed
    (``None``), and with every slot closed the result is ``v_next(state)``.
    ``solve_stage``'s value is at least this at every such vector, up to its
    tie allowance.
    """
    ix = scenario.lattice.index(state)
    nbr = scenario.lattice.neighbours[ix]
    v_next = np.asarray(v_next, dtype=float)
    d, offered = _offered_prices(scenario, prices)
    full = offered & (nbr < 0)
    if full.any():
        raise ValueError(f"slot {full.argmax() + 1} is at capacity and cannot be offered")
    z = np.where(offered, v_next[ix] - v_next[nbr], 0.0)  # closed slots weigh 0
    if not np.isfinite(z).all():
        raise ValueError("opportunity costs must be finite")
    w, total = _logit_weights(scenario, d, offered)
    num = (w * (scenario.net_revenue + d - z)).sum()
    return float(v_next[ix]) + float(scenario.arrival_rate * num / (1.0 + total))


@dataclass
class _Layer:
    """What stays fixed about a layer of states from one time step to the next.

    ``rows`` are the states of ``scenario``; ``live`` indexes the rows with a
    slot to offer, ``nbr_live`` and ``o_live`` are those rows' neighbours and
    offered slots, and ``nan_prices`` is the layer's price table before any
    row is priced.
    """

    scenario: Scenario
    rows: np.ndarray
    live: np.ndarray
    nbr_live: np.ndarray
    o_live: np.ndarray
    nan_prices: np.ndarray

    @cached_property
    def cap(self) -> tuple[np.ndarray, np.ndarray]:
        """The weights at ``price_max`` of the live rows' offered slots, and
        one plus each row's sum of them. They depend on the geometry alone, so
        a solve builds them once, the first time a row is not interior; read
        inside the solver's ``np.errstate``. Where they do not fit a float the
        overflow error is raised, as the first capped test would."""
        scenario = self.scenario
        u, u_sum = _logit_weights(scenario, scenario.price_max, self.o_live, errstate_held=True)
        k = 1.0 + u_sum
        u.flags.writeable = k.flags.writeable = False  # shared by every solve of the layer
        return u, k


def _layer(scenario: Scenario, rows: np.ndarray) -> _Layer:
    """The fixed geometry of the layer of states ``rows``. Its weights at the
    cap are left to ``_Layer.cap``, so a layer whose rows are all interior,
    as a lone interior stage is, never builds them."""
    nbr = scenario.lattice.neighbours[rows]
    offered = nbr >= 0
    live = offered.any(axis=1).nonzero()[0]
    return _Layer(scenario, rows, live, nbr[live], offered[live], np.full(nbr.shape, np.nan))


def _take(ix: np.ndarray, n: int, *arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """Rows ``ix`` (sorted and distinct) of arrays of ``n`` rows; the arrays
    themselves, not copies, when ``ix`` takes every row."""
    return arrays if len(ix) == n else tuple(a[ix] for a in arrays)


def _walk(scenario: Scenario, ac: np.ndarray, oc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The breakpoint walk: optimal prices (meaningless off ``oc``) and surplus
    rate of rows with open slots ``oc`` and margins ``ac + d`` at prices d.
    Runs inside the caller's ``np.errstate``; one W per row with a free slot."""
    lo, hi, bd, n = scenario.price_min, scenario.price_max, scenario.beta_price, scenario.n_slots
    # The root's interval starts at left = max{b : g(b) >= 0} over the
    # unsorted breakpoints lo + a_j (slot j leaves lo) and hi + a_j (slot j
    # reaches hi), +inf on closed slots. Slot j sits at hi iff hi + a_j <=
    # left, and is free iff lo + a_j <= left and it is not at hi.
    ends = np.where(oc, ac, np.inf)
    breaks = np.concatenate([lo + ends, hi + ends], axis=1)
    d = np.minimum(np.maximum(breaks[:, :, np.newaxis] - ac[:, np.newaxis], lo), hi)
    u, u_sum = _logit_weights(scenario, d, oc[:, np.newaxis], errstate_held=True)
    s = (u * (ac[:, np.newaxis] + d)).sum(axis=2) / (1.0 + u_sum)  # surplus/lam
    if not np.isfinite(s).all():
        raise ValueError(_OVERFLOW)
    left = breaks.max(axis=1, where=s - 1.0 / bd >= breaks, initial=-np.inf)
    passed = breaks <= left[:, np.newaxis]  # never a closed slot's +inf
    at_hi = passed[:, n:]
    free = passed[:, :n] ^ at_hi  # lo + a_j <= hi + a_j
    fixed = np.where(at_hi, hi, lo)
    # For this clamped set, with K = 1 + sum u_k and A = sum u_k (a_k + d_k)
    # over the clamped slots and y the free slots' weights at markup A/K, the
    # root is m = A/K - (1 + W(y/K)) / bd. g is zero there, so the surplus
    # rate is m + 1/bd = A/K - W/bd.
    u, u_sum = _logit_weights(scenario, fixed, oc & ~free, errstate_held=True)
    k_sum = 1.0 + u_sum
    shift = (u * (ac + fixed)).sum(axis=1) / k_sum
    d_shift = shift[:, np.newaxis] - ac
    y = _logit_weights(scenario, d_shift, free, -1.0, errstate_held=True)[1] / k_sum
    # y is 0 when no slot is free, and W(0) = 0: only free rows call W.
    w = np.array([lambert_w0(x) if x else 0.0 for x in y.tolist()])
    markup = shift - (1.0 + w) / bd
    return np.minimum(np.maximum(markup[:, np.newaxis] - ac, lo), hi), shift - w / bd


def _below(margin: np.ndarray, rate: np.ndarray) -> np.ndarray:
    """Margins below their surplus rate by more than ``1e-12 * (1 + |rate|)``."""
    return margin < rate - 1e-12 * (1.0 + np.abs(rate))


def _close_capped(u, margin, open_, rate):
    """The open slots and surplus rate of capped rows after closing, round by
    round, the slots whose margin lies below the rate; ``u`` are the weights
    at ``price_max``. The rate only rises, so the rows stay capped."""
    while True:
        shut = open_ & _below(margin, rate[:, np.newaxis])
        if not shut.any():
            return open_, rate
        open_ = open_ & ~shut
        u = np.where(open_, u, 0.0)
        rate = (u * margin).sum(axis=1) / (1.0 + u.sum(axis=1))


def _best_closure(scenario, ac, oc, prices, rate):
    """The prices, NaN where closed, and surplus rate of walked rows after
    trying their nested closures: candidate k closes the offered slots whose
    ``a_j`` is at most the k-th least, k = 1 .. n_slots; all closed is worth
    0. A row keeps its all-open ``prices`` and ``rate`` unless its best
    candidate beats the rate by more than the tie allowance."""
    rows, n = oc.shape
    kth = np.sort(np.where(oc, ac, np.inf), axis=1)[:, :, np.newaxis]  # tied slots close together
    keep = (oc[:, np.newaxis] & (ac[:, np.newaxis] > kth)).reshape(rows * n, n)
    some = keep.any(axis=1)
    closures, rates = np.full(keep.shape, np.nan), np.zeros(rows * n)
    walked, rates[some] = _walk(scenario, np.repeat(ac, n, axis=0)[some], keep[some])
    closures[some] = np.where(keep[some], walked, np.nan)
    best = rates.reshape(rows, n).argmax(axis=1) + np.arange(0, rows * n, n)
    better = _below(rate, rates[best])
    return np.where(better[:, np.newaxis], closures[best], prices), np.where(better, rates[best], rate)


def _layer_solve(
    scenario: Scenario, v_next: np.ndarray, layer: _Layer
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stage values, prices and interior flags of the states ``layer.rows``, as arrays.

    ``v_next`` holds the finite next-step values of every state. Row i of the
    result belongs to state ``layer.rows[i]``: its stage value, its prices
    (NaN on full and closed slots) and whether the closed-form prices fell
    inside the box. A state with every slot full keeps ``v_next`` and is not
    interior. The rows are settled in three passes: the interior rows by the
    closed form, one Lambert W each; then the capped rows, where every
    offered slot charges ``price_max``, in closed form with no Lambert W; then
    the breakpoint walk on the rest, with one Lambert W per walk that has a
    price strictly inside the box. A screen on the box's upper edge comes
    first, and only the rows that pass it get Lambert W arguments; the capped
    test reads the layer's weights at the cap. A pass that takes every live
    row works on the layer's own arrays, not on copies. Capped and walked
    rows close slots where that pays (see ``solve_stage``).
    """
    lam, bd, r = scenario.arrival_rate, scenario.beta_price, scenario.net_revenue
    lo, hi = scenario.price_min, scenario.price_max
    live, o_live = layer.live, layer.o_live
    n_live = len(live)
    values = v_next[layer.rows]
    # net_revenue - z
    a_live = np.where(o_live, r - (values[live][:, np.newaxis] - v_next[layer.nbr_live]), 0.0)
    prices, gain = np.empty(a_live.shape), np.empty(n_live)
    inside = np.zeros(n_live, dtype=bool)

    with np.errstate(over="ignore", invalid="ignore"):
        # The closed-form prices -(1 + W(y))/bd - a_j lie in the box exactly
        # when c_lo <= W(y) <= c_hi, with c = -bd * (edge + a_j) - 1 at the
        # largest a_j for lo and the smallest for hi. W is increasing, at
        # least 0, and W(c e^c) = c for c >= 0, so the test needs no W:
        # c_hi >= 0, y <= c_hi e^c_hi and y >= c_lo e^c_lo. The first is the
        # screen: it needs no y, and it keeps a y that underflowed to 0 from
        # passing a c_hi < 0, where c e^c is -0.0 or below; the last always
        # holds for c_lo <= 0. Exact ties count as inside: the example prices
        # a lone slot exactly at price_max. An e^c that overflows to inf reads
        # as no bound. fmin and fmax skip the NaN of closed slots; the
        # slot-major copy keeps their reductions over each row's few slots fast.
        ends = np.asfortranarray(np.where(o_live, a_live, np.nan))
        a_min, a_max = np.fmin.reduce(ends, axis=1), np.fmax.reduce(ends, axis=1)
        c_hi = -bd * a_min - (bd * hi + 1.0)
        cand = (c_hi >= 0.0).nonzero()[0]
        if len(cand):
            ac, oc, c_top, a_top = _take(cand, n_live, a_live, o_live, c_hi, a_max)
            y = _logit_weights(scenario, -ac, oc, -1.0, errstate_held=True)[1]
            c_lo = -bd * a_top - (bd * lo + 1.0)
            ins = (y <= c_top * np.exp(c_top)) & (y >= c_lo * np.exp(c_lo))
            if ins.any():
                w = np.zeros(len(cand))
                w[ins] = [lambert_w0(x) for x in y[ins].tolist()]
                # the candidates that are not interior are priced again below
                p_cand, g_cand = (-(1.0 + w) / bd)[:, np.newaxis] - ac, -lam / bd * w
                if len(cand) == n_live:
                    prices, gain, inside = p_cand, g_cand, ins
                else:
                    prices[cand], gain[cand], inside[cand] = p_cand, g_cand, ins
        out = (~inside).nonzero()[0]
        if len(out):
            # Off the box the optimum is still d_j = clamp(m - a_j) for one
            # markup m, the unique root of g(m) = surplus/lam - 1/bd - m; g is
            # positive left of it and negative right of it. Every slot sits
            # at hi iff m >= hi + max_j a_j, that is iff g >= 0 there, where
            # all prices are hi and surplus/lam is s_hi. Then the clamped-set
            # formulas of the walk have no free slot and W = 0, and the gain
            # is lam * s_hi. An s_hi that overflows to inf fails the final
            # finiteness check; a NaN one is not capped, and the walk raises.
            # A capped row closes a slot only if its least margin a_j + hi does.
            ac, oc, u, k_hi, a_top = _take(out, n_live, a_live, o_live, *layer.cap, a_max)
            s_hi = (u * (ac + hi)).sum(axis=1) / k_hi
            capped = s_hi - 1.0 / bd >= hi + a_top
            top, s_top = out[capped], s_hi[capped]
            prices[top] = hi
            near = a_min[top] + hi < s_top - 1e-12  # the tie allowance is at least 1e-12
            if near.any():
                u, ac, oc = u[capped][near], ac[capped][near], oc[capped][near]
                open_, s_top[near] = _close_capped(u, ac + hi, oc, s_top[near])
                prices[top[near]] = np.where(open_, hi, np.nan)
            gain[top] = lam * s_top
            out = out[~capped]
        if len(out):
            prices[out], rate = _walk(scenario, a_live[out], o_live[out])
            shut = _below(a_min[out] + hi, rate)
            if shut.any():
                rows = out[shut]
                prices[rows], rate[shut] = _best_closure(
                    scenario, a_live[rows], o_live[rows], prices[rows], rate[shut]
                )
            gain[out] = lam * rate
        values[live] += gain
    if not np.isfinite(values).all():
        raise ValueError(_OVERFLOW)
    layer_prices = layer.nan_prices.copy()
    layer_prices[live] = np.where(o_live, prices, np.nan)
    interior = np.zeros(len(values), dtype=bool)
    interior[live] = inside
    return values, layer_prices, interior


def solve_stage(scenario: Scenario, state: Sequence[int], v_next: np.ndarray) -> StageSolution:
    """Optimal stage prices and value for one state against next-step values.

    The state is solved as a one-row layer. With no feasible slot everything
    is closed and the value is ``v_next(state)``. Otherwise the optimum runs
    over the open sets of feasible slots and the in-box prices of the open
    ones. Within an open set every slot charges its opportunity cost minus
    ``net_revenue`` plus one common markup, clamped to the box. Under
    multinomial logit, opening slot j raises the surplus rate R (surplus per
    arrival) iff its margin ``net_revenue + d_j - z_j`` exceeds R (Talluri
    and van Ryzin, 2004). Only a slot at ``price_max`` can fall below R, so
    the best set closes the k feasible slots of least ``net_revenue - z_j``,
    for some k. A capped stage (every slot at the cap) closes the slots
    below R and repeats with the raised R; a walked stage with a slot at the
    cap below R compares the closures k = 1 .. n, all closed worth 0. Ties
    stay open: a margin must lie below R by more than ``1e-12 * (1 + |R|)``,
    and a closure's rate R' must top R by more than ``1e-12 * (1 + |R'|)``,
    so the stationary hyperplane, where margins at the cap equal R, closes
    nothing. Closed feasible slots are ``None``; such a stage is not interior.
    """
    ix = scenario.lattice.index(state)
    nbr = scenario.lattice.neighbours[ix]
    v_next = np.asarray(v_next, dtype=float)
    if not (math.isfinite(v_next[ix]) and np.isfinite(v_next[nbr[nbr >= 0]]).all()):
        raise ValueError("next-step values must be finite")
    layer = _layer(scenario, np.array([ix]))
    values, prices, interior = _layer_solve(scenario, v_next, layer)
    return StageSolution(
        prices=tuple(None if math.isnan(d) else d for d in prices[0].tolist()),
        value=float(values[0]),
        interior=bool(interior[0]),
    )


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
