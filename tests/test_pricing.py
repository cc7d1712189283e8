import dataclasses
import itertools
import math

import numpy as np
import pytest

import slotpricing as sp
from slotpricing import OpportunityCosts

from oracles import (
    best_open_set,
    fd_gradient,
    fd_hessian,
    grid_stage_value,
    lambert_bisect,
    stage_w_calls,
)


def _affine_values(scenario, slope):
    """State-indexed values -sum_s slope[s] * x_s (zero intercept)."""
    states = scenario.lattice.states_array
    return -(states * np.asarray(slope, dtype=float)).sum(axis=1)


# ---------------------------------------------------------------------------
# slot weights, stage gain, markup root
# ---------------------------------------------------------------------------


def test_slot_weight_hand_values(table1):
    assert sp.slot_weight(table1, 1, 0.0) == pytest.approx(math.e**2, rel=1e-15)
    assert sp.slot_weight(table1, 2, 0.0) == pytest.approx(1.0, rel=1e-15)
    # exponent-zero case: beta_const + slot_beta + beta_price*(z - r) == 1
    z = table1.net_revenue + (1.0 - table1.beta_const - table1.slot_betas[0]) / table1.beta_price
    assert sp.slot_weight(table1, 1, z) == pytest.approx(1.0, rel=1e-15)
    with pytest.raises(ValueError, match="slot 3"):
        sp.slot_weight(table1, 3, 0.0)


def test_slot_weight_strictly_decreasing(table1):
    zs = np.linspace(-3, 6, 50)
    ws = [sp.slot_weight(table1, 1, z) for z in zs]
    assert all(w > 0 for w in ws)
    assert all(a > b for a, b in zip(ws, ws[1:]))


def test_stage_gain_at_zero_costs(table1):
    opp = OpportunityCosts((1, 2), (0.0, 0.0))
    gain = sp.unconstrained_stage_gain(table1, opp)
    assert gain == pytest.approx(0.5 * lambert_bisect(math.e**2 + 1.0), abs=1e-12)
    # cross-check: dense grid maximisation of the markup around the optimum
    d_star = sp.unconstrained_prices(table1, opp)
    d1 = np.linspace(d_star[0] - 1.0, d_star[0] + 1.0, 2001)[:, None]
    d2 = np.linspace(d_star[1] - 1.0, d_star[1] + 1.0, 2001)[None, :]
    u1 = np.exp(table1.beta_const + table1.slot_betas[0] + table1.beta_price * d1)
    u2 = np.exp(table1.beta_const + table1.slot_betas[1] + table1.beta_price * d2)
    surplus = 0.5 * (u1 * (1.0 + d1) + u2 * (1.0 + d2)) / (u1 + u2 + 1.0)
    assert gain == pytest.approx(float(surplus.max()), abs=1e-5)
    assert gain == pytest.approx(sp.stage_surplus(table1, opp, d_star), abs=1e-12)


def test_stage_gain_single_slot_matches_brute_force(table1):
    opp = OpportunityCosts((2,), (0.7,))
    gain = sp.unconstrained_stage_gain(table1, opp)
    grid = np.linspace(-2.0, 8.0, 200_001)
    brute = max(sp.stage_surplus(table1, opp, (d,)) for d in grid)
    assert gain == pytest.approx(brute, abs=1e-8)


def test_stage_gain_decreasing(table1):
    base = OpportunityCosts((1, 2), (1.0, 2.0))
    g0 = sp.unconstrained_stage_gain(table1, base)
    assert sp.unconstrained_stage_gain(table1, OpportunityCosts((1, 2), (1.5, 2.0))) < g0
    assert sp.unconstrained_stage_gain(table1, OpportunityCosts((1, 2), (1.0, 2.5))) < g0


def test_markup_root_residual(table1):
    opp = OpportunityCosts((1, 2), (1.0, 2.0))
    h = sp.markup_root(table1, opp)
    total = sum(
        math.exp(
            table1.beta_const
            + table1.slot_betas[s - 1]
            + table1.beta_price * (z - table1.net_revenue)
        )
        for s, z in zip(opp.slots, opp.values)
    )
    assert abs((h - 1.0) * math.exp(h) - total) <= 1e-10 * max(1.0, total)

    # huge opportunity costs push the root to 1
    far = OpportunityCosts((1, 2), (1e6, 1e6))
    assert sp.markup_root(table1, far) == pytest.approx(1.0, abs=1e-10)

    # single slot with weight sum e: root is exactly 2
    assert sp.markup_root(table1, OpportunityCosts((1,), (1.0,))) == pytest.approx(2.0, abs=1e-13)


# ---------------------------------------------------------------------------
# unconstrained prices
# ---------------------------------------------------------------------------


def test_unconstrained_prices_closed_form(table1):
    opp = OpportunityCosts((1, 2), (1.0, 2.0))
    d_star = sp.unconstrained_prices(table1, opp)
    w = lambert_bisect(math.e + math.exp(-2.0))
    assert d_star[0] == pytest.approx(1.0 + w, abs=1e-12)
    assert d_star[1] == pytest.approx(2.0 + w, abs=1e-12)
    grad = fd_gradient(lambda d: sp.stage_surplus(table1, opp, d), d_star)
    assert max(abs(g) for g in grad) <= 1e-6


def test_unconstrained_prices_shift_damps(table1):
    c, delta = 1.0, 0.5
    base = sp.unconstrained_prices(table1, OpportunityCosts((1, 2), (c, c)))
    shifted = sp.unconstrained_prices(table1, OpportunityCosts((1, 2), (c + delta, c + delta)))
    for d0, d1 in zip(base, shifted):
        assert 0.0 < d1 - d0 < delta


def test_unconstrained_prices_single_slot_anchor():
    scenario = sp.Scenario(
        arrival_rate=0.4,
        horizon=1,
        price_min=0.0,
        price_max=10.0,
        net_revenue=0.0,
        beta_const=2.0,
        beta_price=-1.0,
        slot_betas=(0.0,),
        capacities=(2,),
        cost=sp.AffineCost(intercept=0.0, coefficients=(0.0,)),
    )
    # weight at zero cost is exp(2 - 1) = e, so the markup root is 2
    (d,) = sp.unconstrained_prices(scenario, OpportunityCosts((1,), (0.0,)))
    assert d == pytest.approx(2.0, abs=1e-13)


def test_stage_gain_identity_random(table1):
    rng = np.random.default_rng(31)
    for _ in range(200):
        opp = OpportunityCosts((1, 2), tuple(rng.uniform(0.0, 10.0, 2)))
        d_star = sp.unconstrained_prices(table1, opp)
        gain = sp.unconstrained_stage_gain(table1, opp)
        assert abs(sp.stage_surplus(table1, opp, d_star) - gain) <= 1e-10


# ---------------------------------------------------------------------------
# stage objective
# ---------------------------------------------------------------------------


def test_stage_objective_all_closed(table1):
    v = sp.terminal_values(table1)
    assert sp.stage_objective(table1, (4, 4), (None, None), v) == v[-1]
    assert sp.stage_objective(table1, (0, 0), (None, None), v) == v[0]


def test_stage_objective_at_stationary_values(table1):
    v_star = sp.fixed_point(table1)
    for state in [(0, 0), (1, 2), (3, 3), (4, 0)]:
        got = sp.stage_objective(table1, state, (2.0, 2.0) if state[0] < 4 else (None, 2.0), v_star)
        assert got == v_star[table1.lattice.index(state)]


def test_stage_objective_terminal_hand_value(table1):
    v = sp.terminal_values(table1)
    got = sp.stage_objective(table1, (0, 0), (2.0, 2.0), v)
    # independent re-derivation: probabilities times margins plus base value
    u1, u2 = math.exp(1.0 + 1.0 - 2.0), math.exp(1.0 - 1.0 - 2.0)
    den = u1 + u2 + 1.0
    p1, p2 = 0.5 * u1 / den, 0.5 * u2 / den
    expected = p1 * (1.0 + 2.0 + v[1] - v[0]) + p2 * (1.0 + 2.0 + v[5] - v[0]) + v[0]
    assert expected == pytest.approx(-1.5, abs=1e-12)
    assert got == pytest.approx(expected, abs=1e-12)


def test_stage_objective_contract_errors(table1):
    v = sp.terminal_values(table1)
    with pytest.raises(ValueError, match="at capacity"):
        sp.stage_objective(table1, (4, 0), (1.0, 1.0), v)
    with pytest.raises(ValueError, match="outside"):
        sp.stage_objective(table1, (0, 0), (3.0, 1.0), v)
    with pytest.raises(ValueError, match="slot 1 price nan"):
        sp.stage_objective(table1, (0, 0), (math.nan, None), v)


_ZERO_COSTS = OpportunityCosts((1, 2), (0.0, 0.0))
# Each entry point at offered price d. Zero opportunity costs put the Lambert W
# arguments at the weights of price 0 (beta_price -1, net revenue 1).
_LOGIT_ENTRY_POINTS = {
    "slot_weight": lambda s, d: sp.slot_weight(s, 1, 0.0),
    "stage_surplus": lambda s, d: sp.stage_surplus(s, _ZERO_COSTS, (d, d)),
    "stage_objective": lambda s, d: sp.stage_objective(s, (0, 0), (d, d), sp.terminal_values(s)),
    "choice_probabilities": lambda s, d: sp.choice_probabilities(s, (d, d)),
    "unconstrained_stage_gain": lambda s, d: sp.unconstrained_stage_gain(s, _ZERO_COSTS),
    "markup_root": lambda s, d: sp.markup_root(s, _ZERO_COSTS),
    "unconstrained_prices": lambda s, d: sp.unconstrained_prices(s, _ZERO_COSTS),
    # a table cost (x1 + x2)**2 has positive terminal gaps, so the bound
    # reaches the slot weights (an affine cost returns 0.0 before them)
    "arrival_rate_bound": lambda s, d: sp.arrival_rate_bound(
        dataclasses.replace(
            s, cost=sp.TableCost(tuple(float(sum(x)) ** 2 for x in s.lattice.states()))
        )
    ),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call", _LOGIT_ENTRY_POINTS.values(), ids=_LOGIT_ENTRY_POINTS.keys())
def test_overflowing_utility_names_beta_const(table1, call):
    with pytest.raises(ValueError, match="beta_const"):
        call(dataclasses.replace(table1, beta_const=720.0), 1.0)
    if call is not _LOGIT_ENTRY_POINTS["slot_weight"]:  # one weight alone stays finite here
        # at 708.7 and price 0 the weights e**709.7 and e**707.7 are finite, their sum is not
        with pytest.raises(ValueError, match="beta_const"):
            call(dataclasses.replace(table1, beta_const=708.7), 0.0)


def test_stage_objective_terminal_neighbor_indexing(table1):
    # v[5] is (0,1) in mixed-radix order, v[1] is (1,0)
    v = sp.terminal_values(table1)
    assert v[1] == -3.0 and v[5] == -4.0


# ---------------------------------------------------------------------------
# solve_stage
# ---------------------------------------------------------------------------


def test_solve_stage_full_state(table1):
    v = sp.terminal_values(table1)
    sol = sp.solve_stage(table1, (4, 4), v)
    assert sol.prices == (None, None)
    assert sol.value == v[-1]
    assert sol.open_slots() == ()


def test_solve_stage_at_stationary_values(table1):
    v_star = sp.fixed_point(table1)
    sol = sp.solve_stage(table1, (0, 0), v_star)
    assert sol.prices == (2.0, 2.0)
    assert sol.value == pytest.approx(10.0, abs=1e-8)
    assert not sol.interior


def test_solve_stage_terminal_vs_grid(table1):
    v = sp.terminal_values(table1)
    sol = sp.solve_stage(table1, (0, 0), v)
    assert sol.value == pytest.approx(grid_stage_value(table1, (0, 0), v), abs=1e-4)
    assert sol.value == pytest.approx(-1.5, abs=1e-9)


def test_solve_stage_dominates_probe_grid(table1):
    v = sp.terminal_values(table1)
    grid = np.linspace(table1.price_min, table1.price_max, 21)
    for state in [(0, 0), (2, 3)]:
        sol = sp.solve_stage(table1, state, v)
        for d1 in grid:
            for d2 in grid:
                probe = sp.stage_objective(table1, state, (float(d1), float(d2)), v)
                assert sol.value >= probe - 1e-8
    sol = sp.solve_stage(table1, (4, 1), v)
    for d2 in grid:
        probe = sp.stage_objective(table1, (4, 1), (None, float(d2)), v)
        assert sol.value >= probe - 1e-8


def test_solve_stage_interior_case(table1):
    # affine next-step values with slope 0.5 per order put the optimum inside the box
    v = _affine_values(table1, (0.5, 0.5))
    sol = sp.solve_stage(table1, (1, 1), v)
    assert sol.interior
    opp = sp.opportunity_costs(table1, v, (1, 1))
    assert opp.values == (0.5, 0.5)
    expected = v[table1.lattice.index((1, 1))] + sp.unconstrained_stage_gain(table1, opp)
    assert sol.value == pytest.approx(expected, abs=1e-12)
    assert all(table1.price_min <= d <= table1.price_max for d in sol.prices)


def test_closed_form_price_on_the_cap_is_interior(table1, table1_solution):
    # at the last step with slot 2 full, slot 1's opportunity cost is 1: its
    # W argument is e, W(e) = 1, and the closed-form price is exactly price_max
    sol = sp.solve_stage(table1, (0, 4), sp.terminal_values(table1))
    assert sol.interior and sol.prices == (2.0, None)
    # the solved horizon has ten such stages, all at the end, all on the cap
    _, policy = table1_solution
    t, ix = np.nonzero(policy.interior)
    assert len(t) == 10 and np.all(t >= table1.horizon - 4)
    assert np.all(policy.prices[t, ix, 0] == table1.price_max)


def test_solve_stage_rejects_nonfinite(table1):
    v = sp.terminal_values(table1).copy()
    v[1] = math.nan
    with pytest.raises(ValueError, match="finite"):
        sp.solve_stage(table1, (0, 0), v)


def _random_stage(rng):
    """A 1- to 4-slot stage at the empty state with random box and costs."""
    n = int(rng.integers(1, 5))
    price_min = float(rng.uniform(-1.0, 1.0))
    scenario = sp.Scenario(
        arrival_rate=float(rng.uniform(0.05, 0.95)),
        horizon=1,
        price_min=price_min,
        price_max=price_min + float(rng.uniform(0.1, 3.0)),
        net_revenue=float(rng.uniform(0.0, 2.0)),
        beta_const=float(rng.uniform(-2.0, 2.0)),
        beta_price=float(-rng.uniform(0.3, 3.0)),
        slot_betas=tuple(float(b) for b in rng.uniform(-2.0, 2.0, n)),
        capacities=(1,) * n,
        cost=sp.AffineCost(intercept=0.0, coefficients=(0.0,) * n),
    )
    v_next = np.zeros(scenario.lattice.n_states)
    v_next[list(scenario.lattice.strides)] = -rng.uniform(-1.0, 4.0, n)
    return scenario, v_next


def test_solve_stage_constrained_up_to_four_slots(monkeypatch):
    calls = []
    kernel = sp.pricing.lambert_w0
    monkeypatch.setattr(sp.pricing, "lambert_w0", lambda y: calls.append(y) or kernel(y))
    rng = np.random.default_rng(5151)
    mixed = fully_clamped = closing = ties = 0
    for _ in range(150):
        scenario, v_next = _random_stage(rng)
        state = (0,) * scenario.n_slots
        calls.clear()
        sol = sp.solve_stage(scenario, state, v_next)
        ties += not _assert_matches_best_open_set(scenario, state, v_next, sol)
        offered = [d for d in sol.prices if d is not None]
        closing += len(offered) < scenario.n_slots
        at_bound = [d in (scenario.price_min, scenario.price_max) for d in offered]
        mixed += any(at_bound) and not all(at_bound)
        owed = stage_w_calls(scenario, state, v_next, sol.interior)
        assert owed is None or len(calls) == owed
        fully_clamped += not sol.interior and all(at_bound)
        for _ in range(200):
            probe = rng.uniform(scenario.price_min, scenario.price_max, scenario.n_slots)
            shut = rng.random(scenario.n_slots) < 0.25
            probe = tuple(None if c else float(d) for d, c in zip(probe, shut))
            assert sol.value >= sp.stage_objective(scenario, state, probe, v_next) - 1e-10
    assert mixed >= 30
    assert fully_clamped > 0
    assert closing > 0
    assert ties <= 3


def _assert_matches_best_open_set(scenario, state, v_next, sol):
    """The stage value equals the oracle's best over every open set to 1e-10;
    unless the runner-up is within 1e-9 of it, so do the prices and which
    slots are closed. Returns False for such a near tie, else True."""
    (value, prices), *rest = best_open_set(scenario, state, v_next)
    assert sol.value == pytest.approx(value, abs=1e-10)
    if rest and value - rest[0][0] <= 1e-9:
        return False
    for d, oracle in zip(sol.prices, prices):
        assert (d is None) == (oracle is None)
        assert d is None or abs(d - oracle) <= 1e-10
    return True


def _assert_stage_matches_oracle_and_layer(scenario, state, v_next):
    """solve_stage agrees with the oracle's best open set and, bit for bit,
    with its row of the whole-lattice layer; returns the stage solution."""
    sol = sp.solve_stage(scenario, state, v_next)
    _assert_matches_best_open_set(scenario, state, v_next, sol)
    assert sol.value == sp.bellman_apply(scenario, v_next)[scenario.lattice.index(state)]
    return sol


@pytest.mark.filterwarnings("error")
def test_solve_stage_interior_test_beyond_the_float_range(table1):
    # The interior test compares the W argument y with c e^c at the box's
    # edges. With beta_price -1 and price_max 800, c is near 800 and e^c
    # overflows to inf, which must read as no bound; a box above 710 cannot
    # hold 1 + W - a_j, so there every slot clamps at price_min.
    v = sp.terminal_values(table1)
    for lo, hi, interior in ((0.0, 800.0, True), (750.0, 800.0, False)):
        scenario = dataclasses.replace(table1, price_min=lo, price_max=hi)
        for state in [(0, 0), (2, 3), (4, 1)]:
            sol = _assert_stage_matches_oracle_and_layer(scenario, state, v)
            assert sol.interior is interior
            offered = [d for d in sol.prices if d is not None]
            if interior:
                opp = sp.opportunity_costs(scenario, v, state)
                assert offered == pytest.approx(sp.unconstrained_prices(scenario, opp), abs=1e-12)
            else:
                assert offered == [lo] * len(offered)
    # Opportunity costs of 1000 underflow every weight, so y is 0 and c e^c
    # is -0.0; W(0) = 0 would put the closed-form prices near 1000. Every
    # margin is then near -1000, so the stage closes both slots.
    v = _affine_values(table1, (1000.0, 1000.0))
    sol = _assert_stage_matches_oracle_and_layer(table1, (0, 0), v)
    assert not sol.interior
    assert sol.prices == (None, None) and sol.value == v[0]


def test_layer_of_interior_capped_and_walked_rows_matches_each_stage(table1):
    # A layer where every pass of the layer solver takes a strict subset of
    # the rows: 19 of the 24 live rows pass the screen on the box's upper
    # edge (c_hi >= 0) and 3 of those are interior; the other 21 split into
    # 16 capped and 5 walked rows, and 4 rows close a slot. Every row of the
    # layer must be its stage solved alone, bit for bit, and the best open
    # set to 1e-10.
    scenario = dataclasses.replace(table1, horizon=1)
    lat = scenario.lattice
    states = lat.states_array
    v_next = -(states @ np.array([0.5, 1.0])) - 0.2 * (states**2).sum(axis=1)
    policy = sp.policy_from_values(
        scenario, sp.ValueFunction(np.stack([v_next, v_next]), scenario.fingerprint())
    )
    bd, hi = scenario.beta_price, scenario.price_max
    kinds = dict.fromkeys(["screened", "interior", "capped", "walked", "closing"], 0)
    for state in lat.states():
        sol = sp.solve_stage(scenario, state, v_next)
        assert sol == policy.stage(scenario, 1, state)
        opp = sp.opportunity_costs(scenario, v_next, state)
        if not opp.slots:
            continue
        _assert_matches_best_open_set(scenario, state, v_next, sol)
        c_hi = -bd * (scenario.net_revenue - max(opp.values) + hi) - 1.0
        kinds["screened"] += c_hi >= 0.0
        offered = [d for d in sol.prices if d is not None]
        capped = not sol.interior and all(d == hi for d in offered)
        kinds["interior"] += sol.interior
        kinds["capped"] += capped
        kinds["walked"] += not (sol.interior or capped)
        kinds["closing"] += len(offered) < len(opp.slots)
    assert kinds == {"screened": 19, "interior": 3, "capped": 16, "walked": 5, "closing": 4}


def test_solve_stage_breakpoint_tie_between_lo_and_hi():
    # box [0, 2] with net_revenue - z = (1, -1): slot 1 leaves the floor at
    # markup 1, exactly where slot 2 reaches the cap
    def stage(beta_const):
        scenario = sp.Scenario(
            arrival_rate=0.5,
            horizon=1,
            price_min=0.0,
            price_max=2.0,
            net_revenue=1.0,
            beta_const=beta_const,
            beta_price=-10.0,
            slot_betas=(0.0, 0.0),
            capacities=(1, 1),
            cost=sp.AffineCost(intercept=0.0, coefficients=(0.0, 0.0)),
        )
        v_next = np.zeros(scenario.lattice.n_states)
        v_next[scenario.lattice.index((0, 1))] = -2.0
        return scenario, v_next

    # at this beta_const the root sits on the tie: both margins are 1 there,
    # and the weights sum to 9, so g(1) = 9/10 + 1/10 - 1 = 0 and the optimum
    # is (0, 2), on both edges of the box
    on_tie = math.log(9.0) - math.log1p(math.exp(-20.0))
    sides = set()
    for beta_const in [*np.linspace(-3.0, 6.0, 19).tolist(), on_tie]:
        scenario, v_next = stage(beta_const)
        sol = _assert_stage_matches_oracle_and_layer(scenario, (0, 0), v_next)
        sides.add((sol.prices[0] == 0.0, "closed" if sol.prices[1] is None else sol.prices[1] == 2.0))
    # once the surplus rate tops slot 2's margin at the cap, 1, slot 2 closes
    assert sides == {(True, False), (False, True), (True, True), (False, "closed")}


def test_solve_stage_all_slots_share_one_opportunity_cost(table1):
    # values linear in the order count give every slot of a state the same
    # breakpoints; slope 3 = price_max + net_revenue is the stationary
    # hyperplane's, where the optimum sits exactly on the cap
    for slope in (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 6.0):
        v_next = _affine_values(table1, (slope, slope))
        for state in table1.lattice.states():
            if state != table1.capacities:
                _assert_stage_matches_oracle_and_layer(table1, state, v_next)


def _boxed3(slot_betas):
    """Three slots of capacity 6 under a price box [0, 2], horizon 60."""
    return sp.Scenario(
        arrival_rate=0.5,
        horizon=60,
        price_min=0.0,
        price_max=2.0,
        net_revenue=1.0,
        beta_const=1.0,
        beta_price=-1.0,
        slot_betas=slot_betas,
        capacities=(6, 6, 6),
        cost=sp.AffineCost(intercept=2.0, coefficients=(1.0, 1.5, 2.0)),
    )


# slot betas of two seeds where all-open pricing lost to a closed slot
_BOXED3_SEED_11 = (0.966474483724474, -0.031292083099748444, -0.9457151728282932)
_BOXED3_SEED_168 = (1.093575041908724, -0.06830714573278798, -1.030288600196865)


def test_closing_a_slot_beats_every_all_open_price():
    # At the last step, state (5, 0, 1) prices all three slots at the cap when
    # all stay open; slot 3's opportunity cost 2.0 gives it margin 1 at the
    # cap, below the surplus rate, so closing it earns 1.81e-3 more.
    scenario = _boxed3(_BOXED3_SEED_11)
    v_next = sp.terminal_values(scenario)
    sol = sp.solve_stage(scenario, (5, 0, 1), v_next)
    closed = sp.stage_objective(scenario, (5, 0, 1), (2.0, 2.0, None), v_next)
    all_open = sp.stage_objective(scenario, (5, 0, 1), (2.0, 2.0, 2.0), v_next)
    assert closed - all_open == pytest.approx(1.81e-3, abs=1e-5)
    assert sol.value >= closed
    assert sol.prices == (2.0, 2.0, None) and not sol.interior
    _assert_stage_matches_oracle_and_layer(scenario, (5, 0, 1), v_next)


@pytest.mark.parametrize("betas", [_BOXED3_SEED_11, _BOXED3_SEED_168], ids=["seed11", "seed168"])
def test_stage_values_dominate_sampled_open_and_closed_prices(betas):
    # At sampled stages the solved value is at least the objective of every
    # vector whose slots are each closed, at price_min or at price_max, and
    # of random in-box vectors with about a fifth of the slots closed.
    scenario = _boxed3(betas)
    values, _ = sp.solve_horizon(scenario)
    lat, caps = scenario.lattice, np.asarray(scenario.capacities)
    lo, hi = scenario.price_min, scenario.price_max
    rng = np.random.default_rng(4321)
    worst = math.inf
    for _ in range(200):
        t = int(rng.integers(1, scenario.horizon + 1))
        state = lat.state(int(rng.integers(lat.n_states)))
        feasible = np.asarray(state) < caps
        v_next = values.layer(t + 1)
        vectors = [
            [d if f else None for d, f in zip(corner, feasible)]
            for corner in itertools.product((None, lo, hi), repeat=scenario.n_slots)
        ]
        for _ in range(20):
            draw = rng.uniform(lo, hi, scenario.n_slots)
            open_ = feasible & (rng.random(scenario.n_slots) < 0.8)
            vectors.append([float(d) if o else None for d, o in zip(draw, open_)])
        best = max(sp.stage_objective(scenario, state, vector, v_next) for vector in vectors)
        worst = min(worst, values.layer(t)[lat.index(state)] - best)
    assert worst >= -1e-9


def test_solve_stage_deterministic(table1):
    v = sp.terminal_values(table1)
    a = sp.solve_stage(table1, (1, 2), v)
    b = sp.solve_stage(table1, (1, 2), v)
    assert a == b


# ---------------------------------------------------------------------------
# probability-space form
# ---------------------------------------------------------------------------


def _random_probability_point(rng, scenario):
    shares = rng.dirichlet(np.ones(scenario.n_slots + 1))
    p = scenario.arrival_rate * shares
    return p[:-1], p[-1]


def test_revenue_midpoint_concavity(table1):
    rng = np.random.default_rng(271828)
    for _ in range(1000):
        pa, _ = _random_probability_point(rng, table1)
        pb, _ = _random_probability_point(rng, table1)
        fa = sp.revenue_of_probabilities(table1, pa)
        fb = sp.revenue_of_probabilities(table1, pb)
        fm = sp.revenue_of_probabilities(table1, 0.5 * (pa + pb))
        assert fm >= 0.5 * (fa + fb) - 1e-12


def test_revenue_hessian_negative_semidefinite(table1):
    rng = np.random.default_rng(828)
    for _ in range(100):
        p = rng.uniform(0.05, 1.0, table1.n_slots)
        p0 = float(rng.uniform(0.05, 1.0))
        h = sp.revenue_probability_hessian(table1, p, p0)
        assert np.max(np.linalg.eigvalsh(h)) <= 1e-8


def test_revenue_hessian_matches_finite_differences(table1):
    def f(z):
        return sp.revenue_of_probabilities(table1, z[:-1], float(z[-1]))

    rng = np.random.default_rng(5)
    for _ in range(5):
        p = rng.uniform(0.2, 0.8, table1.n_slots)
        p0 = float(rng.uniform(0.2, 0.8))
        analytic = sp.revenue_probability_hessian(table1, p, p0)
        numeric = fd_hessian(f, np.concatenate([p, [p0]]), h=1e-4)
        assert np.max(np.abs(analytic - numeric)) <= 1e-4


# ---------------------------------------------------------------------------
# exchange inequality and monotone gain (the pairwise bound behind the
# increasing-opportunity-cost recursion)
# ---------------------------------------------------------------------------


def test_gain_strictly_decreasing_random(table1):
    rng = np.random.default_rng(1001)
    for _ in range(1000):
        base = rng.uniform(0.0, 10.0, 2)
        bump = float(rng.uniform(1e-6, 1.0))
        slot = int(rng.integers(0, 2))
        bumped = base.copy()
        bumped[slot] += bump
        g0 = sp.unconstrained_stage_gain(table1, OpportunityCosts((1, 2), tuple(base)))
        g1 = sp.unconstrained_stage_gain(table1, OpportunityCosts((1, 2), tuple(bumped)))
        assert g1 < g0


def test_gain_exchange_inequality_random(table1):
    rng = np.random.default_rng(1002)
    for _ in range(1000):
        a = rng.uniform(0.0, 10.0, 2)
        b = rng.uniform(0.0, 10.0, 2)
        hi = np.maximum(a, b)
        lo = np.minimum(a, b)
        phi = lambda z: sp.unconstrained_stage_gain(table1, OpportunityCosts((1, 2), tuple(z)))
        assert phi(a) - phi(hi) + phi(b) >= phi(lo) - 1e-12
