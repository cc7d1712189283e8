"""Discrete-concavity diagnostics for lattice value functions.

A lattice function is concave-extensible exactly when it never falls below a
convex-combination interpolation of its own values. The enumeration here
builds, once per scenario, every ``n_slots + 1``-point lattice simplex that
contains another lattice state, with that state's exact convex weights. Every
capacity is at least 1, so the lattice is full-dimensional and a smaller
affinely independent support (Caratheodory) extends to a simplex by
zero-weight vertices. The worst interpolation margin is then a cheap
per-layer sweep, and its sign certifies concave-extensibility on lattice
supports.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Optional

import numpy as np

from .lambertw import lambert_w0
from .model import Scenario, State, _logit_weights, cost_values
from .dp import ValueFunction, solve_horizon

# Largest comb(n_states, n_slots + 1) * n_states, the (simplex, state) pairs
# the enumeration tests in one batch. Below it Hadamard's bound keeps every
# determinant and Cramer numerator under 2e5, exact in int64 and float64.
MAX_ENUM_CANDIDATES = 8_000_000
# Margins this far below zero count as genuine concavity violations; smaller
# dips are indistinguishable from float roundoff in the layer values.
NONNEGATIVITY_TOL = 1e-9
# The margin sweep takes as many layers at a time as keep each of its
# temporary arrays near this size, 1 MiB.
_SWEEP_BYTES = 1 << 20


@dataclass(frozen=True)
class EnclosingCombination:
    """Lattice points enclosing a target state, with their convex weights.

    The support is an ``n_slots + 1``-point lattice simplex excluding the
    target, and the weights are its unique convex coefficients:
    ``sum_q weights[q] * support[q] == target`` and the weights sum to 1. A
    weight is zero where the target lies on the opposite face.
    """

    support: tuple[State, ...]
    weights: tuple[float, ...]


Witness = tuple[State, EnclosingCombination]


def _det(a: np.ndarray) -> np.ndarray:
    """Determinants of a stack of square int64 matrices, by Laplace expansion."""
    if a.shape[-1] == 1:
        return a[..., 0, 0]
    return sum(
        (-1) ** k * a[..., 0, k] * _det(np.delete(a[..., 1:, :], k, axis=-1))
        for k in range(a.shape[-1])
    )


def _cofactors(a: np.ndarray) -> np.ndarray:
    """Cofactor matrices of a stack of square int64 matrices."""
    cof = np.empty_like(a)
    for i, k in np.ndindex(a.shape[-2:]):
        minor = np.delete(np.delete(a, i, axis=-2), k, axis=-1)
        cof[..., i, k] = (-1) ** (i + k) * _det(minor)
    return cof


class EnclosingSets(Mapping):
    """All enclosing combinations of a lattice, packed for vectorised sweeps.

    Row r writes state index ``targets[r]`` over the simplex of state indices
    ``support[r]`` with exact weights ``numerators[r] / denominators[r]``
    (non-negative integers over the simplex's absolute determinant);
    ``weights[r]`` holds them as floats. Rows run by target, then by support
    in lexicographic index order. Mapping interface: ``sets[state]`` is the
    tuple of combinations enclosing that state (empty at lattice corners).
    """

    def __init__(self, scenario: Scenario, targets, support, numerators, denominators):
        self.scenario_fingerprint = scenario.fingerprint()
        self._lattice = scenario.lattice
        self.targets = targets
        self.support = support
        self.numerators = numerators
        self.denominators = denominators
        self.weights = numerators / denominators[:, np.newaxis]
        self._row_bounds = np.searchsorted(targets, np.arange(self._lattice.n_states + 1))
        self.n_combinations = len(targets)

    def __getitem__(self, state: State) -> tuple[EnclosingCombination, ...]:
        if not self._lattice.contains(state):
            raise KeyError(state)
        ix = self._lattice.index(state)
        return tuple(self.combination(r)[1] for r in range(*self._row_bounds[ix : ix + 2]))

    def __iter__(self) -> Iterator[State]:
        return iter(self._lattice.states())

    def __len__(self) -> int:
        return self._lattice.n_states

    def margins(self, values: np.ndarray) -> np.ndarray:
        """Interpolation margin of every stored combination, in row order, of
        one value layer or of each layer of a stack (the last axis the states).

        Each support column is gathered slot-major across the layers and the
        products are added in support order, the order of a row-wise sum over
        the few columns, so a layer's margins are the same bit for bit however
        many layers are stacked with it."""
        values = np.asarray(values, dtype=float)
        interp = self.weights[:, 0] * values[..., self.support[:, 0]]
        for k in range(1, self.support.shape[1]):
            interp += self.weights[:, k] * values[..., self.support[:, k]]
        return values[..., self.targets] - interp

    def combination(self, row: int) -> Witness:
        states = self._lattice.states_array
        combo = EnclosingCombination(
            support=tuple(map(tuple, states[self.support[row]].tolist())),
            weights=tuple(self.weights[row].tolist()),
        )
        return tuple(states[self.targets[row]].tolist()), combo


def enumerate_enclosings(scenario: Scenario) -> EnclosingSets:
    """Every enclosing combination of every lattice state.

    One pass over the lattice's ``n_slots + 1``-point simplices. Each gets the
    exact int64 determinant and cofactors of its rows ``(q, 1)``; the Cramer
    numerators of all states at once are ``cofactors @ [x | 1]``. A state
    other than a vertex is enclosed when its numerators all share the
    determinant's sign (degenerate simplices enclose nothing). Smaller
    supports are left out: a zero-weight vertex extends each to a simplex
    with the same interpolation, so no state's worst margin changes. The
    geometry depends only on the capacities, so one enumeration serves every
    layer. Lattices above ``MAX_ENUM_CANDIDATES`` (8,000,000) (simplex,
    state) pairs are refused up front; every lattice above 252 states is
    among them.
    """
    lat = scenario.lattice
    n_states, dim = lat.n_states, scenario.n_slots + 1
    candidates = math.comb(n_states, dim) * n_states
    if candidates > MAX_ENUM_CANDIDATES:
        raise ValueError(
            f"lattice has {candidates} (simplex, state) pairs, above the enumeration "
            f"limit of {MAX_ENUM_CANDIDATES}"
        )
    points = np.hstack([lat.states_array, np.ones((n_states, 1), dtype=np.int64)])
    simplices = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(n_states), dim)),
        dtype=np.intp,
    ).reshape(-1, dim)
    corners = points[simplices]
    cof = _cofactors(corners)
    det = (corners[:, 0, :] * cof[:, 0, :]).sum(axis=1)
    # Orient every simplex positively: enclosed states then have numerators >= 0.
    cof *= np.sign(det)[:, np.newaxis, np.newaxis]
    numerators = cof @ points.T
    enclosed = (numerators >= 0).all(axis=1) & (det != 0)[:, np.newaxis]
    enclosed[np.arange(len(simplices))[:, np.newaxis], simplices] = False
    targets, rows = np.nonzero(enclosed.T)
    return EnclosingSets(
        scenario, targets, simplices[rows], numerators[rows, :, targets], np.abs(det[rows])
    )


def concavity_margin(
    scenario: Scenario, values: np.ndarray, enclosings: EnclosingSets
) -> tuple[float, Optional[Witness]]:
    """Worst interpolation margin of one value layer, with its witness.

    The margin of a combination is ``values[x] - sum_q weights[q] * values[q]``;
    the minimum over all combinations is non-negative exactly when the layer
    is concave-extensible on lattice supports. The scan runs in floats; the
    reported margin re-evaluates the minimising combination in exact rational
    arithmetic from its integer weights, so affine layers yield exactly 0.0.
    States without enclosing combinations contribute nothing; a lattice with
    none at all returns ``(inf, None)``.
    """
    return _worst_margins(scenario, np.asarray(values, dtype=float)[np.newaxis], enclosings)[0]


def _worst_margins(
    scenario: Scenario, layers: np.ndarray, enclosings: EnclosingSets
) -> list[tuple[float, Optional[Witness]]]:
    """``concavity_margin`` of each row of ``layers``, swept in blocks of layers
    whose margins take about ``_SWEEP_BYTES`` per temporary array."""
    if enclosings.scenario_fingerprint != scenario.fingerprint():
        raise ValueError("enclosing sets were built for a different scenario")
    if enclosings.n_combinations == 0:
        return [(math.inf, None)] * len(layers)
    worst = []
    step = max(1, _SWEEP_BYTES // (8 * enclosings.n_combinations))
    for start in range(0, len(layers), step):
        block = layers[start : start + step]
        for values, row in zip(block, enclosings.margins(block).argmin(axis=1).tolist()):
            den = int(enclosings.denominators[row])
            margin = Fraction(float(values[enclosings.targets[row]]))
            nums = enclosings.numerators[row].tolist()
            for q, num in zip(enclosings.support[row].tolist(), nums):
                margin -= Fraction(num, den) * Fraction(float(values[q]))
            worst.append((float(margin), enclosings.combination(row)))
    return worst


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
    geometry when ``enclosings`` is omitted. Each layer's margin and witness
    are its ``concavity_margin``: the layers are swept in blocks of about
    1 MiB per temporary array, by the same arithmetic.
    """
    if values is None:
        values, _ = solve_horizon(scenario)
    if values.fingerprint != scenario.fingerprint():
        raise ValueError("value function was computed for a different scenario")
    if enclosings is None:
        enclosings = enumerate_enclosings(scenario)
    ts = tuple(range(1, scenario.horizon + 1))
    worst = _worst_margins(scenario, values.values[: scenario.horizon], enclosings)
    eps = tuple(margin for margin, _ in worst)
    wits = tuple(witness for _, witness in worst)
    all_nonneg = all(e >= -NONNEGATIVITY_TOL for e in eps)
    return ConcavityReport(ts=ts, epsilon=eps, witnesses=wits, all_nonnegative=all_nonneg)


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
    # every slot offered at zero opportunity cost, as in ``slot_weight``
    _, total = _logit_weights(scenario, -scenario.net_revenue, True, -1.0)
    return -scenario.beta_price * min_gap / (scenario.horizon * lambert_w0(float(total)))
