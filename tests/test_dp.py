import dataclasses
import math

import numpy as np
import pytest

import slotpricing as sp
from slotpricing.cli import EXAMPLE_SCENARIO

from oracles import (
    best_open_set,
    clamped_three_slot_scenario,
    grid_stage_value,
    random_scenario,
    random_table_cost_scenario,
    stage_w_calls,
)


def test_terminal_values(table1):
    term = sp.terminal_values(table1)
    lat = table1.lattice
    assert term[lat.index((0, 0))] == -2.0
    assert term[lat.index((1, 1))] == -5.0
    assert term[lat.index((4, 4))] == -14.0


def test_fixed_point_closed_form(table1):
    v_star = sp.fixed_point(table1)
    lat = table1.lattice
    assert v_star[lat.index((0, 0))] == 10.0
    assert v_star[lat.index((4, 4))] == -14.0
    assert v_star[lat.index((1, 2))] == 1.0
    for ix, state in enumerate(lat.states()):
        assert v_star[ix] == 10.0 - 3.0 * (state[0] + state[1])


def test_fixed_point_warns_when_margins_unprofitable():
    steep = sp.Scenario(
        arrival_rate=0.5,
        horizon=5,
        price_min=0.0,
        price_max=2.0,
        net_revenue=1.0,
        beta_const=1.0,
        beta_price=-1.0,
        slot_betas=(1.0, -1.0),
        capacities=(2, 2),
        cost=sp.AffineCost(intercept=2.0, coefficients=(1.0, 5.0)),
    )
    with pytest.warns(RuntimeWarning, match="marginal cost"):
        v = sp.fixed_point(steep)
    assert v.shape == (9,)


def test_bellman_apply_examples(table1):
    v_star = sp.fixed_point(table1)
    applied = sp.bellman_apply(table1, v_star)
    assert np.max(np.abs(applied - v_star)) <= 1e-8

    term = sp.terminal_values(table1)
    applied = sp.bellman_apply(table1, term)
    assert applied[-1] == -14.0
    assert applied[0] == pytest.approx(grid_stage_value(table1, (0, 0), term), abs=1e-4)
    assert np.all(applied >= term - 1e-12)


def test_bellman_apply_validates_input(table1):
    with pytest.raises(ValueError, match="expected 25 values"):
        sp.bellman_apply(table1, np.zeros(7))
    bad = np.zeros(25)
    bad[3] = math.inf
    with pytest.raises(ValueError, match="finite"):
        sp.bellman_apply(table1, bad)


def test_layer_matches_bisection_oracle_in_every_state(monkeypatch):
    calls = []
    kernel = sp.pricing.lambert_w0
    monkeypatch.setattr(sp.pricing, "lambert_w0", lambda y: calls.append(y) or kernel(y))
    rng = np.random.default_rng(2718)
    scenarios = [dataclasses.replace(clamped_three_slot_scenario(), horizon=2)]
    scenarios += [random_table_cost_scenario(rng) for _ in range(10)]
    partly_full = mixed_layers = fully_clamped = capped_and_walked = 0
    closed_at_cap = closed_below_cap = rewalked = checked = skipped = 0
    for scenario in scenarios:
        values, policy = sp.solve_horizon(scenario)
        lat = scenario.lattice
        feasible = lat.neighbours >= 0
        offered = feasible.any(axis=1)
        partly_full += int(np.sum(offered & ~feasible.all(axis=1)))
        lo, hi = scenario.price_min, scenario.price_max
        for t in range(1, scenario.horizon + 1):
            v_next = values.layer(t + 1)
            calls.clear()
            applied = sp.bellman_apply(scenario, v_next)
            assert np.array_equal(applied, values.layer(t))
            layer_calls = len(calls)
            interior = policy.interior[t - 1]
            clamped = offered & ~interior
            prices = policy.prices[t - 1]
            free = ((lo < prices) & (prices < hi)).any(axis=1)
            fully_clamped += int(np.sum(clamped & ~free))
            mixed_layers += bool(interior.any() and clamped.any())
            # capped rows price every open slot at hi in closed form; the
            # breakpoint walk prices the other clamped rows, some slot below hi
            at_hi = np.all(np.isnan(prices) | (prices == hi), axis=1)
            capped_and_walked += bool((clamped & at_hi).any() and (clamped & ~at_hi).any())
            # full slots are NaN; a feasible slot is NaN only if it is closed
            assert np.all(np.isnan(prices[~feasible]))
            closed = (np.isnan(prices) & feasible).any(axis=1)
            assert not (closed & interior).any()
            closed_at_cap += int(np.sum(closed & at_hi))
            closed_below_cap += int(np.sum(closed & ~at_hi))
            stage_calls = 0
            for ix, state in enumerate(lat.states()):
                if not offered[ix]:
                    assert applied[ix] == v_next[ix] and not interior[ix]
                    continue
                calls.clear()
                alone = sp.solve_stage(scenario, state, v_next)
                stage_calls += len(calls)
                owed = stage_w_calls(scenario, state, v_next, interior[ix])
                if owed is not None:
                    assert len(calls) == owed
                    rewalked += owed > int(interior[ix] or free[ix])
                assert alone.value == applied[ix] and alone.interior == interior[ix]
                assert alone.prices == tuple(None if math.isnan(d) else d for d in prices[ix])
                (best, best_prices), *rest = best_open_set(scenario, state, v_next)
                assert applied[ix] == pytest.approx(best, abs=1e-10)
                if rest and best - rest[0][0] <= 1e-9:
                    skipped += 1
                    continue
                checked += 1
                for d, oracle in zip(alone.prices, best_prices):
                    assert (d is None) == (oracle is None)
                    assert d is None or abs(d - oracle) <= 1e-10
            assert layer_calls == stage_calls
    assert partly_full > 0
    assert mixed_layers > 0
    assert fully_clamped > 0
    assert capped_and_walked > 0
    assert closed_at_cap > 0 and closed_below_cap > 0 and rewalked > 0
    assert skipped <= checked // 20, (skipped, checked)


def test_capped_stages_are_the_non_interior_stages_at_the_cap():
    # A stage is capped when g(m) = surplus/lam - 1/bd - m is still >= 0 at
    # the markup m = price_max + max_j (net_revenue - z_j) where the last slot
    # reaches the cap; then every offered slot charges price_max. The stage's
    # prices are optimal for the slots it keeps open, so g is taken over
    # those, from stage_surplus at the cap; stages within 1e-9 of the tie are
    # skipped, and so are stages that close every slot.
    rng = np.random.default_rng(9090)
    scenarios = [sp.load_scenario(EXAMPLE_SCENARIO)]
    scenarios += [random_table_cost_scenario(rng, horizon=4) for _ in range(20)]
    checked = skipped = capped = closing = 0
    for scenario in scenarios:
        values, policy = sp.solve_horizon(scenario)
        lam, bd, r = scenario.arrival_rate, scenario.beta_price, scenario.net_revenue
        hi = scenario.price_max
        for t in range(1, scenario.horizon + 1):
            v_next = values.layer(t + 1)
            for ix, state in enumerate(scenario.lattice.states()):
                opp = sp.opportunity_costs(scenario, v_next, state)
                offered = policy.prices[t - 1, ix, np.asarray(opp.slots, dtype=int) - 1]
                kept = ~np.isnan(offered)
                closing += bool(opp.slots) and not kept.all()
                if not kept.any():
                    continue
                opp = sp.OpportunityCosts(
                    tuple(np.asarray(opp.slots)[kept].tolist()),
                    tuple(np.asarray(opp.values)[kept].tolist()),
                )
                s_hi = sp.stage_surplus(scenario, opp, [hi] * len(opp.slots)) / lam
                g = s_hi - 1.0 / bd - (hi + r - min(opp.values))
                if abs(g) <= 1e-9:
                    skipped += 1
                    continue
                checked += 1
                capped += bool(g > 0.0)
                at_cap = not policy.interior[t - 1, ix] and bool(np.all(offered[kept] == hi))
                assert at_cap == (g > 0.0), (t, state)
    assert 0 < capped < checked, (capped, checked)
    assert closing > 0
    assert skipped <= checked // 100, f"skipped {skipped} of {checked + skipped} stages"


def test_interior_flag_matches_unconstrained_prices_in_box():
    # interior means the scalar closed form's prices all lie in the box;
    # states within 1e-9 of an edge are skipped, as rounding may go either way
    rng = np.random.default_rng(4242)
    checked = skipped = inside = 0
    for _ in range(20):
        scenario = random_table_cost_scenario(rng, horizon=4)
        values, policy = sp.solve_horizon(scenario)
        lo, hi = scenario.price_min, scenario.price_max
        for t in range(1, scenario.horizon + 1):
            v_next = values.layer(t + 1)
            for ix, state in enumerate(scenario.lattice.states()):
                opp = sp.opportunity_costs(scenario, v_next, state)
                if not opp.slots:
                    continue
                d = np.array(sp.unconstrained_prices(scenario, opp))
                margin = min(np.min(d - lo), np.min(hi - d))
                if abs(margin) <= 1e-9:
                    skipped += 1
                    continue
                checked += 1
                inside += bool(margin > 0.0)
                assert policy.interior[t - 1, ix] == (margin > 0.0), (t, state)
    assert 0 < inside < checked
    assert skipped <= checked // 100, f"skipped {skipped} of {checked + skipped} states"


# Where the 12-step example starts to raise the overflow error as beta_const
# rises, per pair of cost coefficients. These outcomes predate the layer
# solver's screen, which builds Lambert W arguments only for the rows that
# pass it, and its weights at the cap, built once per solve: neither may move
# a scenario between solving and raising.
_FIRST_OVERFLOWING_BETA_CONST = {
    (1.0, 2.0): 709.75,
    (0.0, 0.0): 708.75,
    (3.0, 3.0): 710.75,
    (5.0, 0.5): 707.5,
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("coefficients", _FIRST_OVERFLOWING_BETA_CONST, ids=str)
def test_overflow_outcomes_over_a_beta_const_sweep(table1, coefficients):
    first = _FIRST_OVERFLOWING_BETA_CONST[coefficients]
    for beta_const in np.arange(700.0, 722.125, 0.25).tolist():
        scenario = dataclasses.replace(
            table1,
            horizon=12,
            beta_const=beta_const,
            cost=sp.AffineCost(table1.cost.intercept, coefficients),
        )
        if beta_const >= first:
            with pytest.raises(ValueError, match="beta_const"):
                sp.solve_horizon(scenario)
        else:
            values, _ = sp.solve_horizon(scenario)
            assert np.isfinite(values.values).all(), beta_const


def test_bellman_residual_values(table1):
    v_star = sp.fixed_point(table1)
    assert sp.bellman_residual(table1, v_star) <= 1e-8
    term_residual = sp.bellman_residual(table1, sp.terminal_values(table1))
    assert term_residual > 0.1
    assert term_residual == pytest.approx(0.5, abs=1e-12)
    # constant shifts do not change the increments, hence not the residual
    assert sp.bellman_residual(table1, v_star + 3.75) <= 1e-8


def test_solve_horizon_shapes_and_boundaries(table1, table1_solution):
    values, policy = table1_solution
    assert values.values.shape == (201, 25)
    assert values.horizon == 200
    assert policy.horizon == 200
    assert np.array_equal(values.layer(201), sp.terminal_values(table1))
    # the full-lattice corner is invariant across all time steps
    assert np.all(values.values[:, -1] == -14.0)
    assert values.fingerprint == table1.fingerprint()
    # the policy's stage values are the table's first 200 rows, shared, read only
    assert np.shares_memory(policy.values, values.values)
    assert np.array_equal(policy.values, values.values[:200])
    assert not policy.values.flags.writeable


def test_solve_horizon_value_invariants(table1, table1_solution):
    values, _ = table1_solution
    term = sp.terminal_values(table1)
    v_star = sp.fixed_point(table1)
    # sandwich between the terminal condition and the stationary values
    assert np.all(values.values >= term[np.newaxis, :] - 1e-10)
    assert np.all(values.values <= v_star[np.newaxis, :] + 1e-10)
    # one more booking step never hurts
    assert np.all(np.diff(values.values, axis=0) <= 1e-12)
    # the sweep contracts toward the stationary values as steps remain grow
    dist = np.max(np.abs(values.values - v_star[np.newaxis, :]), axis=1)
    assert np.all(np.diff(dist) >= -1e-12)


def test_solve_horizon_policy_invariants(table1, table1_solution):
    _, policy = table1_solution
    caps = np.asarray(table1.capacities)
    feasible = table1.lattice.states_array < caps
    open_mask = ~np.isnan(policy.prices)
    # open slots are exactly the feasible ones, at prices inside the box
    assert np.array_equal(open_mask, np.broadcast_to(feasible, open_mask.shape))
    offered = policy.prices[open_mask]
    assert offered.min() >= table1.price_min and offered.max() <= table1.price_max


def test_solve_horizon_deterministic(table1):
    small = dataclasses.replace(table1, horizon=12)
    v1, p1 = sp.solve_horizon(small)
    v2, p2 = sp.solve_horizon(small)
    assert np.array_equal(v1.values, v2.values)
    assert np.array_equal(p1.prices, p2.prices, equal_nan=True)


def test_solve_horizon_zero_horizon(table1):
    empty = dataclasses.replace(table1, horizon=0)
    values, policy = sp.solve_horizon(empty)
    assert values.values.shape == (1, 25)
    assert np.array_equal(values.layer(1), sp.terminal_values(empty))
    assert policy.horizon == 0


def test_solve_horizon_state_limit(table1, monkeypatch):
    monkeypatch.setattr(sp.dp, "MAX_STATES", 10)
    with pytest.raises(ValueError, match="above the limit"):
        sp.solve_horizon(table1)


def test_policy_at_stationary_values(table1):
    v_star = sp.fixed_point(table1)
    for state in [(0, 0), (2, 1), (0, 4)]:
        sol = sp.solve_stage(table1, state, v_star)
        for slot in sol.open_slots():
            assert sol.prices[slot - 1] == pytest.approx(2.0, abs=1e-12)


def test_opportunity_costs(table1, table1_solution):
    term = sp.terminal_values(table1)
    for state in [(0, 0), (2, 3), (3, 0)]:
        opp = sp.opportunity_costs(table1, term, state)
        assert opp.slots == (1, 2)
        assert opp.values == (1.0, 2.0)
    v_star = sp.fixed_point(table1)
    opp = sp.opportunity_costs(table1, v_star, (1, 1))
    assert opp.values == (3.0, 3.0)
    assert sp.opportunity_costs(table1, term, (4, 4)).slots == ()


def test_value_function_layer_accessor(table1_solution):
    values, _ = table1_solution
    with pytest.raises(ValueError, match="out of range"):
        values.layer(0)
    with pytest.raises(ValueError, match="out of range"):
        values.layer(202)
    assert values.layer(1).shape == (25,)


def test_policy_stage_accessor(table1, table1_solution):
    values, policy = table1_solution
    sol = policy.stage(table1, 200, (0, 0))
    assert sol.prices == (2.0, 2.0)
    assert sol.value == pytest.approx(-1.5, abs=1e-9)
    sol = policy.stage(table1, 1, (4, 4))
    assert sol.prices == (None, None)
    with pytest.raises(ValueError, match="out of range"):
        policy.stage(table1, 0, (0, 0))


def test_policy_factories(table1):
    closed = sp.PricePolicy.all_closed(table1)
    assert closed.horizon == 200
    assert np.all(np.isnan(closed.prices))
    const = sp.PricePolicy.constant_price(table1, 2.0)
    sol = const.stage(table1, 7, (4, 1))
    assert sol.prices == (None, 2.0)
    with pytest.raises(ValueError, match="outside"):
        sp.PricePolicy.constant_price(table1, 2.5)


@pytest.mark.parametrize(
    "call, table, message",
    [
        (sp.policy_from_values, "narrow values", r"value function has shape \(201, 20\), expected \(201, 25\)"),
        (sp.concavity_report, "narrow values", r"value function has shape \(201, 20\)"),
        (sp.policy_from_values, "nan values", "value function holds a value that is not finite"),
        (sp.concavity_report, "nan values", "value function holds a value that is not finite"),
        (lambda s, p: sp.simulate(s, p, 10, seed=1), "narrow policy", r"policy has shape \(200, 20, 2\)"),
    ],
    ids=["extract-shape", "concavity-shape", "extract-nan", "concavity-nan", "simulate-shape"],
)
def test_tables_handed_in_must_fit_the_scenario(table1, call, table, message):
    # the fingerprint matches; the shape or a NaN must still be refused by name
    fingerprint = table1.fingerprint()
    nan = np.zeros((201, 25))
    nan[3, 4] = np.nan
    tables = {
        "narrow values": sp.ValueFunction(np.zeros((201, 20)), fingerprint),
        "nan values": sp.ValueFunction(nan, fingerprint),
        "narrow policy": sp.PricePolicy(
            np.full((200, 20, 2), np.nan), np.zeros((200, 20)), np.zeros((200, 20), bool), fingerprint
        ),
    }
    with pytest.raises(ValueError, match=f"^{message}"):
        call(table1, tables[table])


def test_closure_certificate_in_every_solved_stage():
    # Under multinomial logit the best open set closes exactly the feasible
    # slots whose margin at the cap, a_j + price_max with a_j = net_revenue
    # - z_j, lies below the stage's surplus rate R = (V_t - V_{t+1}) / lam.
    # So a closed slot sits at most at R and an open slot at the cap at
    # least at R, up to the solver's tie allowance 1e-12 * (1 + |R|) plus
    # the rounding of recovering R and a_j from the value table.
    rng = np.random.default_rng(6060)
    closed_seen = capped_seen = 0
    for k in range(200):
        if k % 2:
            scenario = random_scenario(rng, horizon=4)
        else:
            scenario = random_table_cost_scenario(rng, horizon=4)
        values, policy = sp.solve_horizon(scenario)
        nbr = scenario.lattice.neighbours
        feasible = nbr >= 0
        lam, hi = scenario.arrival_rate, scenario.price_max
        for t in range(1, scenario.horizon + 1):
            v, v_next = values.layer(t)[:, np.newaxis], values.layer(t + 1)[:, np.newaxis]
            v_nbr = np.where(feasible, values.layer(t + 1)[nbr], 0.0)
            rate = (v - v_next) / lam
            margin = scenario.net_revenue - (v_next - v_nbr) + hi
            rounding = np.finfo(float).eps * ((abs(v) + abs(v_next) + abs(v_nbr)) / lam + abs(margin))
            allowance = 1e-12 * (1.0 + abs(rate)) + 8 * rounding
            prices = policy.prices[t - 1]
            closed, capped = feasible & np.isnan(prices), prices == hi
            assert np.all((margin - rate)[closed] <= allowance[closed])
            assert np.all((rate - margin)[capped] <= allowance[capped])
            closed_seen += int(closed.sum())
            capped_seen += int(capped.sum())
    assert closed_seen > 1000 and capped_seen > 1000, (closed_seen, capped_seen)
