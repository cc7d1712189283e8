"""Scenario definition, order-state lattice, delivery cost, and the customer
choice model.

Slots are numbered from 1 to the slot count; slot 0 denotes the no-purchase
alternative and never appears in slot collections. A booking state is a tuple
of per-slot order counts, and the lattice X is the box product of
``range(capacity + 1)`` over the slots. Every logit weight of the package
comes from the private kernel ``_logit_weights``, with its one overflow error.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence, Union

import numpy as np

State = tuple[int, ...]
# One entry per slot; None marks a slot that is not offered.
PriceVector = Sequence[Optional[float]]


class ScenarioError(ValueError):
    """A scenario file failed to parse or violates a model invariant."""


def _require_number(value, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{field} must be a number")
    # false for NaN and inf; an int compares exactly, before float() could overflow
    if not -sys.float_info.max <= value <= sys.float_info.max:
        raise ScenarioError(f"{field} must be finite")
    return float(value)


def _require_count(value, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{field} must be an integer")
    return value


@dataclass(frozen=True)
class AffineCost:
    """Delivery cost that is linear in the per-slot order counts."""

    intercept: float
    coefficients: tuple[float, ...]


@dataclass(frozen=True)
class TableCost:
    """Delivery cost tabulated per lattice state, in state-index order."""

    values: tuple[float, ...]


CostSpec = Union[AffineCost, TableCost]


class StateLattice:
    """Mixed-radix indexing of the order lattice.

    The first slot is the fastest-varying digit:
    ``index(x) = sum_s x[s] * strides[s]`` with
    ``strides[s] = prod_{k < s} (capacity[k] + 1)``. Adding one order in slot
    s therefore moves the index by ``strides[s]``; ``neighbours`` tabulates
    those moves for every state.
    """

    def __init__(self, capacities: Sequence[int]):
        self.capacities: State = tuple(int(c) for c in capacities)
        strides = []
        n = 1
        for cap in self.capacities:
            strides.append(n)
            n *= cap + 1
        self.strides: State = tuple(strides)
        self.n_states: int = n

    def contains(self, state: Sequence[int]) -> bool:
        return len(state) == len(self.capacities) and all(
            0 <= x <= cap for x, cap in zip(state, self.capacities)
        )

    def check(self, state: Sequence[int]) -> State:
        """Return the state as a tuple, raising if it lies outside the lattice."""
        state = tuple(int(x) for x in state)
        if not self.contains(state):
            raise ValueError(f"state {state} lies outside the lattice with capacities {self.capacities}")
        return state

    def index(self, state: Sequence[int]) -> int:
        state = self.check(state)
        return sum(x * k for x, k in zip(state, self.strides))

    def state(self, index: int) -> State:
        if not 0 <= index < self.n_states:
            raise ValueError(f"state index {index} out of range 0..{self.n_states - 1}")
        digits = []
        for cap in self.capacities:
            digits.append(index % (cap + 1))
            index //= cap + 1
        return tuple(digits)

    def states(self) -> list[State]:
        return [self.state(i) for i in range(self.n_states)]

    @cached_property
    def states_array(self) -> np.ndarray:
        """All states as an (n_states, n_slots) int64 array in index order."""
        arr = np.array(self.states(), dtype=np.int64).reshape(self.n_states, len(self.capacities))
        arr.flags.writeable = False
        return arr

    @cached_property
    def neighbours(self) -> np.ndarray:
        """Index of ``x + 1_s`` for every state x and slot s, -1 where s is full.

        An (n_states, n_slots) int64 array in index order; column s - 1 holds
        slot s. The -1 entries are sentinels: mask them (``neighbours >= 0``
        marks the feasible slots) before indexing with the array.
        """
        ix = np.arange(self.n_states, dtype=np.int64)[:, np.newaxis]
        open_ = self.states_array < np.asarray(self.capacities, dtype=np.int64)
        arr = np.where(open_, ix + np.asarray(self.strides, dtype=np.int64), -1)
        arr.flags.writeable = False
        return arr


@dataclass(frozen=True)
class Scenario:
    """All model parameters for one delivery sub-area.

    ``arrival_rate`` is the per-step probability that a customer shows up
    (the file key is ``lambda``). A customer offered prices d chooses slot s
    with multinomial-logit probability proportional to
    ``exp(beta_const + slot_betas[s] + beta_price * d[s])``, with the
    no-purchase utility normalised to zero.
    """

    arrival_rate: float
    horizon: int
    price_min: float
    price_max: float
    net_revenue: float
    beta_const: float
    beta_price: float
    slot_betas: tuple[float, ...]
    capacities: tuple[int, ...]
    cost: CostSpec

    def __post_init__(self):
        if not 0.0 < self.arrival_rate < 1.0:
            raise ScenarioError("lambda must lie strictly between 0 and 1")
        if self.horizon < 0:
            raise ScenarioError("horizon must be non-negative")
        if not self.price_max >= self.price_min:
            raise ScenarioError("price_max must be at least price_min")
        if not self.beta_price < 0.0:
            raise ScenarioError("beta_price must be negative")
        if len(self.slot_betas) < 1:
            raise ScenarioError("at least one slot is required")
        if len(self.slot_betas) != len(self.capacities):
            raise ScenarioError("slot_betas and capacities must have equal length")
        if any(c < 1 for c in self.capacities):
            raise ScenarioError("every capacity must be at least 1")
        for name in ("price_min", "price_max", "net_revenue", "beta_const", "beta_price"):
            if not math.isfinite(getattr(self, name)):
                raise ScenarioError(f"{name} must be finite")
        if not all(math.isfinite(b) for b in self.slot_betas):
            raise ScenarioError("slot betas must be finite")
        n_states = 1
        for c in self.capacities:
            n_states *= c + 1
        if isinstance(self.cost, AffineCost):
            if len(self.cost.coefficients) != len(self.capacities):
                raise ScenarioError("affine cost needs one coefficient per slot")
            if not math.isfinite(self.cost.intercept) or not all(
                math.isfinite(c) for c in self.cost.coefficients
            ):
                raise ScenarioError("affine cost values must be finite")
        elif isinstance(self.cost, TableCost):
            if len(self.cost.values) != n_states:
                raise ScenarioError(
                    f"table cost needs one value per state ({n_states}), got {len(self.cost.values)}"
                )
            if not all(math.isfinite(v) for v in self.cost.values):
                raise ScenarioError("table cost values must be finite")
        else:
            raise ScenarioError("cost must be an AffineCost or a TableCost")

    @property
    def n_slots(self) -> int:
        return len(self.slot_betas)

    @cached_property
    def lattice(self) -> StateLattice:
        return StateLattice(self.capacities)

    @cached_property
    def _slot_utility(self) -> np.ndarray:
        """``beta_const + slot_betas``, each slot's logit utility at price 0."""
        return self.beta_const + np.asarray(self.slot_betas, dtype=float)

    def to_json(self) -> str:
        """Canonical single-line JSON rendering (also the fingerprint input)."""
        if isinstance(self.cost, AffineCost):
            cost = {
                "type": "affine",
                "intercept": self.cost.intercept,
                "coefficients": list(self.cost.coefficients),
            }
        else:
            cost = {"type": "table", "values": list(self.cost.values)}
        doc = {
            "lambda": self.arrival_rate,
            "horizon": self.horizon,
            "price_min": self.price_min,
            "price_max": self.price_max,
            "net_revenue": self.net_revenue,
            "beta_const": self.beta_const,
            "beta_price": self.beta_price,
            "slots": [
                {"beta": b, "capacity": c}
                for b, c in zip(self.slot_betas, self.capacities)
            ],
            "cost": cost,
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    def fingerprint(self) -> str:
        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()


_TOP_KEYS = {
    "lambda",
    "horizon",
    "price_min",
    "price_max",
    "net_revenue",
    "beta_const",
    "beta_price",
    "slots",
    "cost",
}
_SLOT_KEYS = {"beta", "capacity"}
_COST_KEYS = {"affine": {"type", "intercept", "coefficients"}, "table": {"type", "values"}}


def load_scenario(text: str) -> Scenario:
    """Parse and validate a scenario document.

    The document is a JSON object with keys ``lambda``, ``horizon``,
    ``price_min``, ``price_max``, ``net_revenue``, ``beta_const``,
    ``beta_price``, ``slots`` (list of ``{"beta", "capacity"}``) and ``cost``
    (either ``{"type": "affine", "intercept", "coefficients"}`` or
    ``{"type": "table", "values"}`` with one value per lattice state in
    index order). Unknown keys are an error.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"scenario parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise ScenarioError("scenario must be a JSON object")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise ScenarioError(f"unknown scenario key(s): {', '.join(sorted(unknown))}")
    missing = _TOP_KEYS - set(doc)
    if missing:
        raise ScenarioError(f"missing scenario key(s): {', '.join(sorted(missing))}")

    slots = doc["slots"]
    if not isinstance(slots, list) or not slots:
        raise ScenarioError("slots must be a non-empty list")
    betas, caps = [], []
    for i, slot in enumerate(slots, start=1):
        if not isinstance(slot, dict):
            raise ScenarioError(f"slot {i} must be an object")
        unknown = set(slot) - _SLOT_KEYS
        if unknown:
            raise ScenarioError(f"unknown key(s) in slot {i}: {', '.join(sorted(unknown))}")
        if set(slot) != _SLOT_KEYS:
            raise ScenarioError(f"slot {i} needs keys beta and capacity")
        betas.append(_require_number(slot["beta"], f"slot {i} beta"))
        caps.append(_require_count(slot["capacity"], f"slot {i} capacity"))

    cost_doc = doc["cost"]
    if not isinstance(cost_doc, dict) or "type" not in cost_doc:
        raise ScenarioError("cost must be an object with a type key")
    kind = cost_doc["type"]
    if kind not in _COST_KEYS:
        raise ScenarioError(f"cost type must be 'affine' or 'table', got {kind!r}")
    unknown = set(cost_doc) - _COST_KEYS[kind]
    if unknown:
        raise ScenarioError(f"unknown key(s) in cost: {', '.join(sorted(unknown))}")
    missing = _COST_KEYS[kind] - set(cost_doc)
    if missing:
        raise ScenarioError(f"missing cost key(s): {', '.join(sorted(missing))}")
    if kind == "affine":
        if not isinstance(cost_doc["coefficients"], list):
            raise ScenarioError("cost coefficients must be a list")
        cost: CostSpec = AffineCost(
            intercept=_require_number(cost_doc["intercept"], "cost intercept"),
            coefficients=tuple(
                _require_number(v, f"cost coefficient {i + 1}")
                for i, v in enumerate(cost_doc["coefficients"])
            ),
        )
    else:
        if not isinstance(cost_doc["values"], list):
            raise ScenarioError("cost values must be a list")
        cost = TableCost(
            values=tuple(
                _require_number(v, f"cost value {i}") for i, v in enumerate(cost_doc["values"])
            )
        )

    return Scenario(
        arrival_rate=_require_number(doc["lambda"], "lambda"),
        horizon=_require_count(doc["horizon"], "horizon"),
        price_min=_require_number(doc["price_min"], "price_min"),
        price_max=_require_number(doc["price_max"], "price_max"),
        net_revenue=_require_number(doc["net_revenue"], "net_revenue"),
        beta_const=_require_number(doc["beta_const"], "beta_const"),
        beta_price=_require_number(doc["beta_price"], "beta_price"),
        slot_betas=tuple(betas),
        capacities=tuple(caps),
        cost=cost,
    )


def enumerate_states(scenario: Scenario) -> list[State]:
    """All lattice states in mixed-radix index order (first slot fastest)."""
    return scenario.lattice.states()


def cost(scenario: Scenario, state: Sequence[int]) -> float:
    """Delivery cost of fulfilling the orders in ``state``.

    Callers must stay inside the lattice; a state outside it raises.
    """
    lat = scenario.lattice
    state = lat.check(state)
    if isinstance(scenario.cost, AffineCost):
        return scenario.cost.intercept + sum(
            c * x for c, x in zip(scenario.cost.coefficients, state)
        )
    return scenario.cost.values[lat.index(state)]


def cost_values(scenario: Scenario) -> np.ndarray:
    """Delivery cost for every lattice state, in index order."""
    lat = scenario.lattice
    if isinstance(scenario.cost, AffineCost):
        coeff = np.asarray(scenario.cost.coefficients, dtype=float)
        out = scenario.cost.intercept + lat.states_array @ coeff
    else:
        out = np.asarray(scenario.cost.values, dtype=float)
    out = np.asarray(out, dtype=float)
    out.flags.writeable = False
    return out


def marginal_profit_violations(scenario: Scenario) -> list[tuple[State, int]]:
    """State/slot pairs whose marginal delivery cost exceeds the maximum profit.

    Every additional order collects at most ``price_max + net_revenue``. The
    returned list holds each ``(state, slot)`` with
    ``cost(state + 1_slot) - cost(state) > price_max + net_revenue``; an empty
    list certifies that offering any feasible slot can be profitable.
    """
    lat = scenario.lattice
    ceiling = scenario.price_max + scenario.net_revenue
    costs = cost_values(scenario)
    nbr = lat.neighbours
    ix, s = np.nonzero((nbr >= 0) & (costs[nbr] - costs[:, np.newaxis] > ceiling))
    states = lat.states_array[ix].tolist()
    return [(tuple(x), slot + 1) for x, slot in zip(states, s.tolist())]


@dataclass(frozen=True)
class ChoiceProbabilities:
    """Multinomial-logit slot-choice probabilities for one price vector.

    ``per_slot`` has one entry per slot (0.0 exactly for closed slots) and
    sums with ``no_purchase`` to 1. ``no_purchase`` is always positive.
    """

    per_slot: tuple[float, ...]
    no_purchase: float


_OVERFLOW = (
    "a logit utility exceeds the float range; check beta_const, the slot betas, "
    "beta_price and the price box"
)


def _logit_weights(
    scenario: Scenario, prices, offered, log_offset: float = 0.0, *, errstate_held: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Logit weights ``exp(beta_const + slot_betas + beta_price * prices +
    log_offset)`` where ``offered``, else 0.0, and their sums over the slots.

    ``prices`` and ``offered`` broadcast against the slots, the last axis.
    Raises ``ValueError`` unless every sum, and so every weight, is finite.
    Runs under ``np.errstate(over="ignore", invalid="ignore")``; a caller
    already inside one (the layer solver) passes ``errstate_held``.
    """
    if not errstate_held:
        with np.errstate(over="ignore", invalid="ignore"):
            return _logit_weights(scenario, prices, offered, log_offset, errstate_held=True)
    utility = scenario._slot_utility + scenario.beta_price * prices
    if log_offset:
        utility = utility + log_offset
    weights = np.where(offered, np.exp(utility), 0.0)
    total = weights.sum(axis=-1)
    if not math.isfinite(total.max(initial=0.0)):  # max carries a NaN through
        raise ValueError(_OVERFLOW)
    return weights, total


def _offered_prices(scenario: Scenario, prices: PriceVector) -> tuple[np.ndarray, np.ndarray]:
    """A price vector as floats (0.0 where closed) and its open mask; every
    open price must lie in the box, which NaN does not."""
    if len(prices) != scenario.n_slots:
        raise ValueError(f"expected {scenario.n_slots} prices, got {len(prices)}")
    for s, d in enumerate(prices, start=1):
        if d is not None and not scenario.price_min <= float(d) <= scenario.price_max:
            raise ValueError(
                f"slot {s} price {float(d)} outside [{scenario.price_min}, {scenario.price_max}]"
            )
    offered = np.array([d is not None for d in prices])
    return np.array([0.0 if d is None else float(d) for d in prices]), offered


def choice_probabilities(scenario: Scenario, prices: PriceVector) -> ChoiceProbabilities:
    """Slot-choice probabilities at the offered prices.

    Closed slots (``None``) are dropped from both the numerator and the
    denominator, which is the infinite-price limit of the logit model and
    avoids any overflow-prone sentinel price.
    """
    weights, total = _logit_weights(scenario, *_offered_prices(scenario, prices))
    denom = 1.0 + total
    return ChoiceProbabilities(
        per_slot=tuple((weights / denom).tolist()),
        no_purchase=float(1.0 / denom),
    )

