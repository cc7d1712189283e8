import dataclasses
import json
import math

import numpy as np
import pytest

import slotpricing as sp
from slotpricing.cli import EXAMPLE_SCENARIO

from oracles import brute_marginal_violations, random_scenario, random_table_cost_scenario


def _doc(**overrides):
    doc = json.loads(EXAMPLE_SCENARIO)
    doc.update(overrides)
    return json.dumps(doc)


def test_load_example_scenario(table1):
    assert table1.arrival_rate == 0.5
    assert table1.horizon == 200
    assert (table1.price_min, table1.price_max) == (0.0, 2.0)
    assert table1.net_revenue == 1.0
    assert table1.beta_const == 1.0
    assert table1.beta_price == -1.0
    assert table1.slot_betas == (1.0, -1.0)
    assert table1.capacities == (4, 4)
    assert isinstance(table1.cost, sp.AffineCost)
    assert table1.cost.intercept == 2.0
    assert table1.cost.coefficients == (1.0, 2.0)


def test_lambda_out_of_range_message():
    with pytest.raises(sp.ScenarioError, match="lambda must lie strictly between 0 and 1"):
        sp.load_scenario(_doc(**{"lambda": 1.0}))
    with pytest.raises(sp.ScenarioError, match="lambda must lie strictly between 0 and 1"):
        sp.load_scenario(_doc(**{"lambda": 0.0}))


def test_positive_beta_price_rejected():
    with pytest.raises(sp.ScenarioError, match="beta_price must be negative"):
        sp.load_scenario(_doc(beta_price=1.0))


def test_unknown_keys_rejected():
    with pytest.raises(sp.ScenarioError, match="unknown scenario key"):
        sp.load_scenario(_doc(extra=1))
    doc = json.loads(EXAMPLE_SCENARIO)
    doc["slots"][0]["color"] = "red"
    with pytest.raises(sp.ScenarioError, match="unknown key\\(s\\) in slot 1"):
        sp.load_scenario(json.dumps(doc))
    doc = json.loads(EXAMPLE_SCENARIO)
    doc["cost"]["surcharge"] = 1.0
    with pytest.raises(sp.ScenarioError, match="unknown key\\(s\\) in cost"):
        sp.load_scenario(json.dumps(doc))


def test_parse_error_reports_position():
    with pytest.raises(sp.ScenarioError, match="line 2"):
        sp.load_scenario('{\n  "lambda": oops\n}')


def test_cost_validation():
    doc = json.loads(EXAMPLE_SCENARIO)
    doc["cost"] = {"type": "affine", "intercept": 2.0, "coefficients": [1.0]}
    with pytest.raises(sp.ScenarioError, match="one coefficient per slot"):
        sp.load_scenario(json.dumps(doc))
    doc["cost"] = {"type": "table", "values": [0.0] * 24}
    with pytest.raises(sp.ScenarioError, match="one value per state"):
        sp.load_scenario(json.dumps(doc))
    doc["cost"] = {"type": "spline"}
    with pytest.raises(sp.ScenarioError, match="cost type"):
        sp.load_scenario(json.dumps(doc))


def test_other_field_invariants():
    with pytest.raises(sp.ScenarioError, match="price_max"):
        sp.load_scenario(_doc(price_max=-1.0))
    with pytest.raises(sp.ScenarioError, match="capacity"):
        sp.load_scenario(
            _doc(slots=[{"beta": 1.0, "capacity": 0}, {"beta": -1.0, "capacity": 4}])
        )
    with pytest.raises(sp.ScenarioError, match="horizon"):
        sp.load_scenario(_doc(horizon=-1))
    with pytest.raises(sp.ScenarioError, match="slots"):
        sp.load_scenario(_doc(slots=[]))
    with pytest.raises(sp.ScenarioError, match="missing scenario key"):
        sp.load_scenario('{"lambda": 0.5}')


def test_state_indexing(table1):
    lat = table1.lattice
    assert lat.index((0, 0)) == 0
    assert lat.index((4, 4)) == 24
    assert lat.index((1, 2)) == 1 + 2 * 5
    states = sp.enumerate_states(table1)
    assert len(states) == 25
    for i, state in enumerate(states):
        assert lat.index(state) == i
        assert lat.state(i) == state
    with pytest.raises(ValueError, match="outside the lattice"):
        lat.index((5, 0))


def test_cost_evaluation(table1):
    assert sp.cost(table1, (0, 0)) == 2.0
    assert sp.cost(table1, (4, 4)) == 14.0
    assert sp.cost(table1, (1, 1)) == 5.0
    with pytest.raises(ValueError, match="outside the lattice"):
        sp.cost(table1, (9, 9))
    table = sp.Scenario(
        arrival_rate=0.5,
        horizon=2,
        price_min=0.0,
        price_max=2.0,
        net_revenue=1.0,
        beta_const=1.0,
        beta_price=-1.0,
        slot_betas=(0.5,),
        capacities=(2,),
        cost=sp.TableCost((3.0, 4.5, 7.0)),
    )
    assert sp.cost(table, (1,)) == 4.5
    assert np.array_equal(sp.cost_values(table), [3.0, 4.5, 7.0])


def test_choice_probabilities_hand_values(table1):
    probs = sp.choice_probabilities(table1, (2.0, 2.0))
    denom = 2.0 + math.exp(-2.0)
    assert probs.per_slot[0] == pytest.approx(1.0 / denom, abs=1e-15)
    assert probs.per_slot[1] == pytest.approx(math.exp(-2.0) / denom, abs=1e-15)
    assert probs.no_purchase == pytest.approx(1.0 / denom, abs=1e-15)
    assert probs.per_slot[0] == pytest.approx(0.468311, abs=5e-7)

    both_closed = sp.choice_probabilities(table1, (None, None))
    assert both_closed.no_purchase == 1.0
    assert both_closed.per_slot == (0.0, 0.0)

    one_open = sp.choice_probabilities(table1, (2.0, None))
    assert one_open.per_slot == (0.5, 0.0)
    assert one_open.no_purchase == 0.5


def test_choice_probabilities_price_box(table1):
    with pytest.raises(ValueError, match="slot 1 price 2.5"):
        sp.choice_probabilities(table1, (2.5, 1.0))
    with pytest.raises(ValueError, match="expected 2 prices"):
        sp.choice_probabilities(table1, (1.0,))
    with pytest.raises(ValueError, match="slot 2 price nan"):
        sp.choice_probabilities(table1, (1.0, math.nan))


def test_probabilities_sum_to_one(table1):
    rng = np.random.default_rng(1234)
    for _ in range(100):
        prices = rng.uniform(table1.price_min, table1.price_max, 2)
        probs = sp.choice_probabilities(table1, tuple(prices))
        assert abs(sum(probs.per_slot) + probs.no_purchase - 1.0) <= 1e-12
        assert probs.no_purchase > 0.0


def test_own_and_cross_price_monotonicity(table1):
    rng = np.random.default_rng(99)
    h = 1e-6
    for _ in range(100):
        prices = rng.uniform(table1.price_min + h, table1.price_max - h, 2)
        base = sp.choice_probabilities(table1, tuple(prices))
        for s in range(2):
            up = prices.copy()
            up[s] += h
            bumped = sp.choice_probabilities(table1, tuple(up))
            assert bumped.per_slot[s] < base.per_slot[s]
            other = 1 - s
            assert bumped.per_slot[other] > base.per_slot[other]


def test_marginal_profit_violations(table1):
    assert sp.marginal_profit_violations(table1) == []

    steep = sp.Scenario(
        arrival_rate=0.5,
        horizon=200,
        price_min=0.0,
        price_max=2.0,
        net_revenue=1.0,
        beta_const=1.0,
        beta_price=-1.0,
        slot_betas=(1.0, -1.0),
        capacities=(4, 4),
        cost=sp.AffineCost(intercept=2.0, coefficients=(1.0, 5.0)),
    )
    violations = sp.marginal_profit_violations(steep)
    assert violations == [(x, 2) for x in sp.enumerate_states(steep) if x[1] < 4]
    assert violations == brute_marginal_violations(steep)

    flat = sp.Scenario(
        arrival_rate=0.3,
        horizon=5,
        price_min=0.0,
        price_max=1.0,
        net_revenue=0.5,
        beta_const=0.0,
        beta_price=-1.0,
        slot_betas=(0.0,),
        capacities=(3,),
        cost=sp.AffineCost(intercept=4.0, coefficients=(0.0,)),
    )
    assert sp.marginal_profit_violations(flat) == []


def test_marginal_profit_scan_matches_brute_force():
    rng = np.random.default_rng(7)
    for _ in range(5):
        scenario = random_scenario(rng)
        assert sp.marginal_profit_violations(scenario) == brute_marginal_violations(scenario)
    non_empty = 0
    for _ in range(30):
        scenario = random_table_cost_scenario(rng)
        violations = sp.marginal_profit_violations(scenario)
        assert violations == brute_marginal_violations(scenario)
        non_empty += bool(violations)
    assert non_empty >= 1


def test_neighbours_match_bumped_states():
    rng = np.random.default_rng(3)
    for _ in range(20):
        caps = tuple(int(c) for c in rng.integers(1, 5, int(rng.integers(1, 5))))
        lat = sp.StateLattice(caps)
        nbr = lat.neighbours
        assert nbr.shape == (lat.n_states, len(caps)) and nbr.dtype == np.int64
        assert not nbr.flags.writeable
        for ix, x in enumerate(lat.states()):
            for s, cap in enumerate(caps):
                if x[s] == cap:
                    assert nbr[ix, s] == -1
                else:
                    bumped = tuple(v + (k == s) for k, v in enumerate(x))
                    assert nbr[ix, s] == lat.index(bumped)


def test_fingerprint_stability(table1):
    again = sp.load_scenario(EXAMPLE_SCENARIO)
    assert table1.fingerprint() == again.fingerprint()
    other = sp.load_scenario(_doc(horizon=100))
    assert table1.fingerprint() != other.fingerprint()


def test_fractional_capacity_is_refused(table1):
    # a truncated capacity would build a lattice that the fingerprint,
    # which keeps the float, does not describe
    for caps in ((2.5, 4), (4, True), (np.float64(4.0), 4)):
        with pytest.raises(sp.ScenarioError, match=r"^capacities\[\d\] must be an integer"):
            dataclasses.replace(table1, capacities=caps)
    same = dataclasses.replace(table1, capacities=(np.int32(4), np.int64(4)))
    assert same.capacities == (4, 4) and all(type(c) is int for c in same.capacities)
    assert same.fingerprint() == table1.fingerprint()


def test_fractional_horizon_is_refused(table1):
    # a float horizon must fail here, naming the field, not later in the solver
    for horizon in (2.0, 2.5, True, np.True_):
        with pytest.raises(sp.ScenarioError, match="^horizon must be an integer"):
            dataclasses.replace(table1, horizon=horizon)
    same = dataclasses.replace(table1, horizon=np.int64(200))
    assert type(same.horizon) is int and same.fingerprint() == table1.fingerprint()


def test_integer_numbers_keep_the_fingerprint(table1, table1_solution):
    # ints are stored as floats, so the scenario is table1 and takes its policy
    same = dataclasses.replace(table1, beta_price=-1, price_min=0)
    assert type(same.beta_price) is float and type(same.price_min) is float
    assert same == table1 and same.fingerprint() == table1.fingerprint()
    result = sp.simulate(same, table1_solution[1], 10, seed=1)
    assert result.replications == 10


def test_list_slot_betas_are_stored_as_a_tuple(table1):
    same = dataclasses.replace(table1, slot_betas=[1, -1.0])
    assert same.slot_betas == (1.0, -1.0) and type(same.slot_betas[0]) is float
    assert hash(same) == hash(table1) and same == table1


def test_string_number_is_refused(table1):
    with pytest.raises(sp.ScenarioError, match="^price_max must be a number"):
        dataclasses.replace(table1, price_max="2.0")
    with pytest.raises(sp.ScenarioError, match="^slot 2 beta must be a number"):
        dataclasses.replace(table1, slot_betas=(1.0, "-1"))
    with pytest.raises(sp.ScenarioError, match="^cost coefficient 1 must be a number"):
        sp.AffineCost(2.0, ("1", 2.0))


def test_numpy_float_is_stored_as_float(table1):
    same = dataclasses.replace(table1, arrival_rate=np.float32(0.5), beta_const=np.float64(1.0))
    assert type(same.arrival_rate) is float and type(same.beta_const) is float
    assert same.fingerprint() == table1.fingerprint()
    with pytest.raises(sp.ScenarioError, match="^lambda must be finite"):
        dataclasses.replace(table1, arrival_rate=np.float32("nan"))


def test_bool_number_is_refused(table1):
    for value in (True, np.True_):
        with pytest.raises(sp.ScenarioError, match="^price_min must be a number"):
            dataclasses.replace(table1, price_min=value)
    with pytest.raises(sp.ScenarioError, match="^cost value 0 must be a number"):
        sp.TableCost((False,))


def test_fractional_state_is_refused(table1, table1_solution):
    # a fractional coordinate must not be read as the state below it
    values, _ = table1_solution
    lat = table1.lattice
    with pytest.raises(ValueError, match="integer coordinates"):
        sp.cost(table1, (0.5, 0.5))
    with pytest.raises(ValueError, match="integer coordinates"):
        lat.index((np.float64(2.9), 1))
    with pytest.raises(ValueError, match="integer coordinates"):
        sp.solve_stage(table1, (0.7, 0.2), values.layer(2))
    with pytest.raises(ValueError, match="integer coordinates"):
        lat.check((True, 0))
    assert lat.index((np.int64(2), np.int32(1))) == lat.index((2, 1)) == 7
    assert sp.cost(table1, (np.int64(1), 1)) == sp.cost(table1, (1, 1))
