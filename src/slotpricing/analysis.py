"""Discrete-concavity diagnostics for lattice value functions.

A lattice function is concave-extensible exactly when it never falls below a
convex-combination interpolation of its own values. The enumeration here
builds, once per scenario, every affinely independent support of 2 to
``n_slots + 1`` lattice points whose convex hull contains a given state (by
Caratheodory that size suffices), together with the unique convex weights.
The worst interpolation margin over all such combinations is then a cheap
per-layer sweep, and its sign certifies concave-extensibility on lattice
supports.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Optional, Sequence

import numpy as np

from .lambertw import lambert_w0
from .model import Scenario, State, cost_values
from .dp import ValueFunction, solve_horizon

DEFAULT_MAX_ENUM_STATES = 10_000
# Margins this far below zero count as genuine concavity violations; smaller
# dips are indistinguishable from float roundoff in the layer values.
NONNEGATIVITY_TOL = 1e-9


@dataclass(frozen=True)
class EnclosingCombination:
    """Lattice points enclosing a target state, with their convex weights.

    The support excludes the target, is affinely independent, and the weights
    are the unique convex coefficients reproducing the target:
    ``sum_q weights[q] * support[q] == target`` and the weights sum to 1.
    """

    support: tuple[State, ...]
    weights: tuple[float, ...]


Witness = tuple[State, EnclosingCombination]


def _solve_convex_weights(
    support: Sequence[State], target: Sequence[int]
) -> Optional[tuple[Fraction, ...]]:
    """Exact convex weights writing ``target`` over ``support``, or None.

    Solves the affine system in rational arithmetic. Returns None when the
    support is affinely dependent (weights would not be unique), when the
    target lies outside the affine hull, or when any weight is negative.
    """
    m = len(support)
    dim = len(target)
    rows = [[Fraction(pt[i]) for pt in support] + [Fraction(target[i])] for i in range(dim)]
    rows.append([Fraction(1)] * m + [Fraction(1)])
    pivot_rows: list[int] = []
    row_used = [False] * len(rows)
    for col in range(m):
        pivot = next(
            (ri for ri in range(len(rows)) if not row_used[ri] and rows[ri][col] != 0), None
        )
        if pivot is None:
            return None  # affinely dependent support
        row_used[pivot] = True
        pivot_rows.append(pivot)
        pr = rows[pivot]
        inv = 1 / pr[col]
        rows[pivot] = pr = [x * inv for x in pr]
        for ri in range(len(rows)):
            if ri != pivot and rows[ri][col] != 0:
                factor = rows[ri][col]
                rows[ri] = [x - factor * y for x, y in zip(rows[ri], pr)]
    for ri in range(len(rows)):
        if not row_used[ri] and rows[ri][m] != 0:
            return None  # inconsistent: target outside the affine hull
    weights = [Fraction(0)] * m
    for col, ri in enumerate(pivot_rows):
        weights[col] = rows[ri][m]
    if any(w < 0 for w in weights):
        return None
    return tuple(weights)


class EnclosingSets(Mapping):
    """All enclosing combinations per state, with packed arrays for sweeps.

    Mapping interface: ``sets[state]`` is the tuple of combinations enclosing
    that state (possibly empty, e.g. at lattice corners). The packed arrays
    group combinations by support size so that a whole layer's margins reduce
    to a few vectorised products.
    """

    def __init__(self, scenario: Scenario, by_state: dict[State, tuple[EnclosingCombination, ...]]):
        self._by_state = by_state
        self.scenario_fingerprint = scenario.fingerprint()
        lat = scenario.lattice
        groups: dict[int, list[tuple[State, EnclosingCombination]]] = {}
        for state in lat.states():
            for combo in by_state[state]:
                groups.setdefault(len(combo.support), []).append((state, combo))
        # flat order must match the packed margin order exactly
        flat: list[tuple[State, EnclosingCombination]] = []
        self._packed = []
        for m in sorted(groups):
            rows = groups[m]
            targets = np.array([lat.index(state) for state, _ in rows], dtype=np.intp)
            idx = np.array([[lat.index(q) for q in combo.support] for _, combo in rows], dtype=np.intp)
            wts = np.array([combo.weights for _, combo in rows], dtype=float)
            self._packed.append((len(flat), targets, idx, wts))
            flat.extend(rows)
        self._flat = flat
        self.n_combinations = len(flat)

    def __getitem__(self, state: State) -> tuple[EnclosingCombination, ...]:
        return self._by_state[tuple(state)]

    def __iter__(self) -> Iterator[State]:
        return iter(self._by_state)

    def __len__(self) -> int:
        return len(self._by_state)

    def margins(self, values: np.ndarray) -> np.ndarray:
        """Interpolation margin of every stored combination, in flat order."""
        values = np.asarray(values, dtype=float)
        out = np.empty(self.n_combinations)
        for offset, targets, idx, wts in self._packed:
            interp = (wts * values[idx]).sum(axis=1)
            out[offset : offset + len(targets)] = values[targets] - interp
        return out

    def combination(self, flat_index: int) -> Witness:
        return self._flat[flat_index]


def enumerate_enclosings(
    scenario: Scenario, *, max_states: int = DEFAULT_MAX_ENUM_STATES
) -> EnclosingSets:
    """Every enclosing combination of every lattice state.

    For each state x this enumerates all supports of 2 to ``n_slots + 1``
    points drawn from the lattice minus x, keeps those that are affinely
    independent with x in their convex hull, and attaches the unique convex
    weights (solved exactly, then stored as floats). The geometry depends only
    on the capacities, so one enumeration serves every value-function layer.
    The candidate count grows combinatorially with the lattice; the state
    count is capped at ``max_states``.
    """
    lat = scenario.lattice
    if lat.n_states > max_states:
        raise ValueError(
            f"lattice has {lat.n_states} states, above the enumeration limit of {max_states}"
        )
    states = lat.states()
    by_state: dict[State, tuple[EnclosingCombination, ...]] = {}
    max_size = scenario.n_slots + 1
    for x in states:
        others = [q for q in states if q != x]
        found: list[EnclosingCombination] = []
        for m in range(2, max_size + 1):
            for support in itertools.combinations(others, m):
                inside_box = all(
                    min(q[i] for q in support) <= x[i] <= max(q[i] for q in support)
                    for i in range(len(x))
                )
                if not inside_box:
                    continue
                weights = _solve_convex_weights(support, x)
                if weights is None:
                    continue
                found.append(
                    EnclosingCombination(
                        support=support, weights=tuple(float(w) for w in weights)
                    )
                )
        by_state[x] = tuple(found)
    return EnclosingSets(scenario, by_state)


def concavity_margin(
    scenario: Scenario, values: np.ndarray, enclosings: EnclosingSets
) -> tuple[float, Optional[Witness]]:
    """Worst interpolation margin of one value layer, with its witness.

    The margin of a combination is ``values[x] - sum_q weights[q] * values[q]``;
    the minimum over all combinations is non-negative exactly when the layer
    is concave-extensible on lattice supports. The scan runs in floats; the
    reported margin re-evaluates the minimising combination in exact rational
    arithmetic, so affine layers yield exactly 0.0. States without enclosing
    combinations contribute nothing; a lattice with none at all returns
    ``(inf, None)``.
    """
    if enclosings.scenario_fingerprint != scenario.fingerprint():
        raise ValueError("enclosing sets were built for a different scenario")
    if enclosings.n_combinations == 0:
        return math.inf, None
    values = np.asarray(values, dtype=float)
    margins = enclosings.margins(values)
    flat = int(np.argmin(margins))
    state, combo = enclosings.combination(flat)
    lat = scenario.lattice
    exact_weights = _solve_convex_weights(combo.support, state)
    margin = Fraction(float(values[lat.index(state)]))
    for w, q in zip(exact_weights, combo.support):
        margin -= w * Fraction(float(values[lat.index(q)]))
    return float(margin), (state, combo)


@dataclass(frozen=True)
class ConcavityReport:
    """Per-time-step concavity margins over the booking horizon.

    ``epsilon[i]`` is the margin of the layer at time step ``ts[i]`` and
    ``witnesses[i]`` the minimising combination. ``all_nonnegative`` is True
    when every margin clears ``-NONNEGATIVITY_TOL``.
    """

    ts: tuple[int, ...]
    epsilon: tuple[float, ...]
    witnesses: tuple[Optional[Witness], ...]
    all_nonnegative: bool


def concavity_report(
    scenario: Scenario,
    values: Optional[ValueFunction] = None,
    enclosings: Optional[EnclosingSets] = None,
) -> ConcavityReport:
    """Concavity margins of every booking-step layer t = 1 .. horizon.

    Solves the horizon when ``values`` is omitted and enumerates the enclosing
    geometry when ``enclosings`` is omitted.
    """
    if values is None:
        values, _ = solve_horizon(scenario)
    if values.fingerprint != scenario.fingerprint():
        raise ValueError("value function was computed for a different scenario")
    if enclosings is None:
        enclosings = enumerate_enclosings(scenario)
    ts = tuple(range(1, scenario.horizon + 1))
    eps: list[float] = []
    wits: list[Optional[Witness]] = []
    for t in ts:
        margin, witness = concavity_margin(scenario, values.layer(t), enclosings)
        eps.append(margin)
        wits.append(witness)
    all_nonneg = all(e >= -NONNEGATIVITY_TOL for e in eps)
    return ConcavityReport(
        ts=ts, epsilon=tuple(eps), witnesses=tuple(wits), all_nonnegative=all_nonneg
    )


def _opportunity_cost_increases(scenario: Scenario, values: np.ndarray):
    """How much booking slot s' raises slot s's opportunity cost, per state.

    Returns ``(increase, valid)``, both of shape (n_states, n_slots, n_slots):
    ``increase[x, s, s']`` is ``(v(x + 1_s') - v(x + 1_s' + 1_s)) - (v(x) -
    v(x + 1_s))`` with 0-based slots, and ``valid`` marks the entries where s
    and s' are distinct slots feasible at x.
    """
    nbr = scenario.lattice.neighbours
    feasible = nbr >= 0
    opp = values[:, np.newaxis] - values[nbr]
    increase = opp[nbr].transpose(0, 2, 1) - opp[:, :, np.newaxis]
    valid = feasible[:, :, np.newaxis] & feasible[:, np.newaxis, :]
    valid &= ~np.eye(feasible.shape[1], dtype=bool)
    return increase, valid


def increasing_opportunity_cost_violations(
    scenario: Scenario, values: np.ndarray
) -> list[tuple[State, int, int]]:
    """Triples where an extra order elsewhere fails to raise a slot's cost.

    For each state x and ordered pair of distinct feasible slots (s, s') the
    opportunity cost of slot s should strictly increase after booking one
    order in slot s'. Returned are all ``(x, s, s')`` whose increase is at
    most 1e-12 (the float-tolerant reading of strictness); an empty list
    certifies strictly increasing opportunity costs of ``values``.
    """
    increase, valid = _opportunity_cost_increases(scenario, np.asarray(values, dtype=float))
    ix, s, sp = np.nonzero(valid & (increase <= 1e-12))
    states = scenario.lattice.states_array[ix].tolist()
    return [(tuple(x), a + 1, b + 1) for x, a, b in zip(states, s.tolist(), sp.tolist())]


def arrival_rate_bound(scenario: Scenario) -> float:
    """Largest certified arrival rate for increasing opportunity costs.

    Evaluates, over all states and ordered pairs of distinct feasible slots,
    the minimum of

        -beta_price * terminal_gap / (horizon * W(sum of slot weights at 0))

    where ``terminal_gap`` is the increase of the terminal opportunity cost.
    Any arrival rate strictly below the bound keeps opportunity costs
    increasing at every time step. Returns 0.0 as soon as some terminal gap
    fails to be positive (nothing is certified), and ``inf`` when the scenario
    has no cross-slot pair or no booking step to constrain.
    """
    increase, valid = _opportunity_cost_increases(scenario, -cost_values(scenario))
    if not valid.any() or scenario.horizon == 0:
        return math.inf
    min_gap = float(increase[valid].min())
    if min_gap <= 0.0:
        return 0.0
    weight_sum = sum(
        math.exp(
            scenario.beta_const + b - scenario.beta_price * scenario.net_revenue - 1.0
        )
        for b in scenario.slot_betas
    )
    return -scenario.beta_price * min_gap / (scenario.horizon * lambert_w0(weight_sum))
