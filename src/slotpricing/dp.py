"""Backward induction of the booking recursion over the full order lattice.

Layers are indexed by the time step t: layer t_bar + 1 is the terminal
condition (minus the delivery cost) and layer t - 1 arises from layer t by
solving the stage price problem in every state, all states of a layer at once
in numpy arrays by the pricing module's layer solver. The recursion also has a
closed-form stationary solution, a hyperplane in the order counts, which is
exposed for verification and as an upper envelope.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import Scenario, cost_values, marginal_profit_violations
from .pricing import OpportunityCosts, StageSolution, _layer, _layer_solve

# solve_horizon refuses lattices above this many states rather than thrashing.
MAX_STATES = 10_000_000


@dataclass(frozen=True)
class ValueFunction:
    """Dense value table, one row per time step t = 1 .. horizon + 1.

    Row ``horizon + 1`` is the terminal layer, equal to minus the delivery
    cost; every earlier row comes from one application of the stage
    optimisation. ``fingerprint`` ties the table to the scenario it was
    computed from.
    """

    values: np.ndarray
    fingerprint: str

    @property
    def horizon(self) -> int:
        return self.values.shape[0] - 1

    def layer(self, t: int) -> np.ndarray:
        """Values at time step t, for t in 1 .. horizon + 1."""
        if not 1 <= t <= self.values.shape[0]:
            raise ValueError(f"time step {t} out of range 1..{self.values.shape[0]}")
        return self.values[t - 1]


@dataclass(frozen=True)
class PricePolicy:
    """Per (time step, state) slot prices, stored dense.

    ``prices[t - 1, state_index, slot - 1]`` is the offered price, NaN when
    the slot is closed. ``values`` records the stage value attained (NaN for
    hand-built policies). Open slots are always feasible and priced inside the
    admissible box.
    """

    prices: np.ndarray
    values: np.ndarray
    interior: np.ndarray
    fingerprint: str

    @property
    def horizon(self) -> int:
        return self.prices.shape[0]

    def stage(self, scenario: Scenario, t: int, state: Sequence[int]) -> StageSolution:
        """The stored stage solution for (t, state)."""
        if not 1 <= t <= self.horizon:
            raise ValueError(f"time step {t} out of range 1..{self.horizon}")
        ix = scenario.lattice.index(state)
        row = self.prices[t - 1, ix]
        return StageSolution(
            prices=tuple(None if math.isnan(d) else float(d) for d in row),
            value=float(self.values[t - 1, ix]),
            interior=bool(self.interior[t - 1, ix]),
        )

    @classmethod
    def all_closed(cls, scenario: Scenario) -> "PricePolicy":
        """A policy that never offers any slot (useful as a degenerate baseline)."""
        shape = (scenario.horizon, scenario.lattice.n_states)
        prices = np.full(shape + (scenario.n_slots,), np.nan)
        values = np.full(shape, np.nan)
        interior = np.zeros(shape, dtype=bool)
        return cls._frozen(prices, values, interior, scenario.fingerprint())

    @classmethod
    def constant_price(cls, scenario: Scenario, price: float) -> "PricePolicy":
        """A static policy offering every feasible slot at one price."""
        if not scenario.price_min <= price <= scenario.price_max:
            raise ValueError(
                f"price {price} outside [{scenario.price_min}, {scenario.price_max}]"
            )
        lat = scenario.lattice
        feasible = lat.states_array < np.asarray(scenario.capacities, dtype=np.int64)
        grid = np.where(feasible, float(price), np.nan)
        prices = np.repeat(grid[np.newaxis, :, :], scenario.horizon, axis=0)
        shape = (scenario.horizon, lat.n_states)
        values = np.full(shape, np.nan)
        interior = np.zeros(shape, dtype=bool)
        return cls._frozen(prices, values, interior, scenario.fingerprint())

    @classmethod
    def _frozen(cls, prices, values, interior, fingerprint) -> "PricePolicy":
        for arr in (prices, values, interior):
            arr.flags.writeable = False
        return cls(prices=prices, values=values, interior=interior, fingerprint=fingerprint)


def terminal_values(scenario: Scenario) -> np.ndarray:
    """The terminal layer: minus the delivery cost, per state."""
    return -cost_values(scenario)


def fixed_point(scenario: Scenario) -> np.ndarray:
    """The stationary values ``(price_max + net_revenue) * remaining_capacity
    - cost(full_lattice)``, per state.

    This hyperplane is invariant under the stage recursion whenever no
    marginal delivery cost exceeds ``price_max + net_revenue``; a warning is
    emitted if that condition fails, in which case the formula still evaluates
    but need not be stationary.
    """
    violations = marginal_profit_violations(scenario)
    if violations:
        warnings.warn(
            f"{len(violations)} state/slot pairs have marginal cost above "
            "price_max + net_revenue; the stationary-value formula may not be "
            "invariant under the recursion",
            RuntimeWarning,
            stacklevel=2,
        )
    lat = scenario.lattice
    caps = np.asarray(scenario.capacities, dtype=np.int64)
    remaining = (caps - lat.states_array).sum(axis=1).astype(float)
    full_cost = cost_values(scenario)[-1]
    out = (scenario.price_max + scenario.net_revenue) * remaining - full_cost
    out.flags.writeable = False
    return out


def bellman_apply(scenario: Scenario, v: np.ndarray) -> np.ndarray:
    """One backward step: the stage-optimal value in every state.

    The whole lattice is solved as one layer. States at full capacity are
    left unchanged (nothing can be offered), so the full-lattice corner is
    invariant.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (scenario.lattice.n_states,):
        raise ValueError(f"expected {scenario.lattice.n_states} values, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("values must be finite")
    return _layer_solve(scenario, v, _layer(scenario, np.arange(scenario.lattice.n_states)))[0]


def bellman_residual(scenario: Scenario, v: np.ndarray) -> float:
    """Sup-norm distance between one backward step of ``v`` and ``v`` itself."""
    return float(np.max(np.abs(bellman_apply(scenario, v) - np.asarray(v, dtype=float))))


def solve_horizon(scenario: Scenario) -> tuple[ValueFunction, PricePolicy]:
    """Backward induction over the whole booking horizon.

    Produces the dense value table for t = 1 .. horizon + 1 together with the
    optimal prices chosen at every (t, state). Deterministic: identical inputs
    give bit-identical tables. Dense storage needs
    ``8 * (horizon + 1) * n_states`` bytes for the values,
    ``8 * horizon * n_states * n_slots`` for the prices and
    ``horizon * n_states`` for the ``interior`` flags; the policy's stage
    values are a read-only view of the value table's first ``horizon`` rows.
    Lattices above ``MAX_STATES`` (10,000,000) states are refused up front.
    """
    lat = scenario.lattice
    if lat.n_states > MAX_STATES:
        raise ValueError(f"lattice has {lat.n_states} states, above the limit of {MAX_STATES}")
    t_bar = scenario.horizon
    try:
        values = np.empty((t_bar + 1, lat.n_states))
    except MemoryError as exc:
        raise MemoryError(
            f"out of memory for the value table of horizon {t_bar} and {lat.n_states} "
            f"states ({exc})"
        ) from exc
    values[t_bar] = terminal_values(scenario)
    policy = _backward(scenario, values, values[:t_bar])
    values.flags.writeable = False
    return ValueFunction(values=values, fingerprint=policy.fingerprint), policy


def _backward(scenario: Scenario, values: np.ndarray, stage_values: np.ndarray) -> PricePolicy:
    """Solve layers t = horizon .. 1 against ``values[t]`` into ``stage_values[t - 1]``."""
    t_bar, n = scenario.horizon, scenario.lattice.n_states
    prices = np.full((t_bar, n, scenario.n_slots), np.nan)
    interior = np.zeros((t_bar, n), dtype=bool)
    layer = _layer(scenario, np.arange(n))
    for t in range(t_bar, 0, -1):
        stage_values[t - 1], prices[t - 1], interior[t - 1] = _layer_solve(
            scenario, values[t], layer
        )
    return PricePolicy._frozen(prices, stage_values, interior, scenario.fingerprint())


def policy_from_values(scenario: Scenario, values: ValueFunction) -> PricePolicy:
    """Extract the stage-optimal prices implied by a value table.

    For each booking step t the stage problem is solved against layer t + 1,
    exactly as the backward induction would; feeding in a solved table
    reproduces its policy.
    """
    if values.fingerprint != scenario.fingerprint():
        raise ValueError("value function was computed for a different scenario")
    if values.horizon != scenario.horizon:
        raise ValueError("value function horizon does not match the scenario")
    stage_values = np.empty((scenario.horizon, scenario.lattice.n_states))
    return _backward(scenario, values.values, stage_values)


def opportunity_costs(
    scenario: Scenario, v: np.ndarray, state: Sequence[int]
) -> OpportunityCosts:
    """Value foregone per feasible slot: ``v(state) - v(state + 1_slot)``."""
    lat = scenario.lattice
    ix = lat.index(state)
    v = np.asarray(v, dtype=float)
    nbr = lat.neighbours[ix]
    slots = np.flatnonzero(nbr >= 0)
    return OpportunityCosts(
        slots=tuple((slots + 1).tolist()),
        values=tuple((v[ix] - v[nbr[slots]]).tolist()),
    )
