import dataclasses
import math

import numpy as np
import pytest

import slotpricing as sp

from oracles import (
    brute_arrival_rate_bound,
    brute_opportunity_cost_violations,
    clamped_three_slot_scenario,
    exact_interpolation_margin,
    first_enclosing_simplices,
    lambert_bisect,
    lp_concavity_margin,
    lp_hull_margin,
    random_table_cost_scenario,
    supermodular_scenario,
)


def _single_slot_scenario(capacity=2):
    return sp.Scenario(
        arrival_rate=0.4,
        horizon=4,
        price_min=0.0,
        price_max=2.0,
        net_revenue=1.0,
        beta_const=0.5,
        beta_price=-1.0,
        slot_betas=(0.0,),
        capacities=(capacity,),
        cost=sp.AffineCost(intercept=1.0, coefficients=(1.0,)),
    )


# ---------------------------------------------------------------------------
# enclosing-set enumeration
# ---------------------------------------------------------------------------


def test_enclosing_examples(table1_enclosings):
    enc = table1_enclosings

    def positive(combo):
        return {q: w for q, w in zip(combo.support, combo.weights) if w > 0.0}

    # midpoint on an axis
    assert {(0, 0): 0.5, (2, 0): 0.5} in [positive(c) for c in enc[(1, 0)]]
    # lattice corners are extreme points of the hull: nothing encloses them
    assert enc[(0, 0)] == ()
    assert enc[(4, 4)] == ()
    # both diagonal midpoints around (1,1)
    mids = [positive(c) for c in enc[(1, 1)]]
    assert {(0, 0): 0.5, (2, 2): 0.5} in mids
    assert {(0, 2): 0.5, (2, 0): 0.5} in mids


def test_enclosing_weights_reproduce_targets(table1, table1_enclosings):
    for state in sp.enumerate_states(table1):
        for combo in table1_enclosings[state]:
            assert len(combo.support) == table1.n_slots + 1
            assert state not in combo.support
            assert abs(sum(combo.weights) - 1.0) <= 1e-12
            assert all(0.0 <= w <= 1.0 + 1e-12 for w in combo.weights)
            recon = np.zeros(len(state))
            for w, q in zip(combo.weights, combo.support):
                recon += w * np.asarray(q, dtype=float)
            assert np.max(np.abs(recon - np.asarray(state, dtype=float))) <= 1e-10


def test_enclosing_state_limit(table1):
    # 10,201 states: the candidate count alone refuses it, before any allocation
    large = dataclasses.replace(table1, capacities=(100, 100))
    assert large.lattice.n_states == 10_201
    with pytest.raises(ValueError, match="enumeration limit"):
        sp.enumerate_enclosings(large)


def test_enclosing_candidate_limit(table1, monkeypatch):
    # 441 states give too many simplex-state pairs
    large = dataclasses.replace(table1, capacities=(20, 20))
    with pytest.raises(ValueError, match="enumeration limit"):
        sp.enumerate_enclosings(large)
    pairs = math.comb(table1.lattice.n_states, 3) * table1.lattice.n_states
    monkeypatch.setattr(sp.analysis, "MAX_ENUM_CANDIDATES", pairs - 1)
    with pytest.raises(ValueError, match="enumeration limit"):
        sp.enumerate_enclosings(table1)
    monkeypatch.setattr(sp.analysis, "MAX_ENUM_CANDIDATES", pairs)
    assert sp.enumerate_enclosings(table1).n_combinations > 0


def test_enclosing_supports_affinely_independent(table1_enclosings):
    # a size-3 support in the plane is affinely independent iff not collinear
    for state in [(1, 1), (2, 2), (3, 1)]:
        for combo in table1_enclosings[state]:
            if len(combo.support) == 3:
                a, b, c = combo.support
                det = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
                assert det != 0


def test_enclosing_rows_are_distinct_combinations(table1):
    # one row per target and set of positive-weight vertices, the rows in
    # target-then-support order; duplicates differ only in zero-weight vertices
    three = dataclasses.replace(clamped_three_slot_scenario(), capacities=(2, 2, 2))
    for scenario, n_rows in ((table1, 2252), (three, 861)):
        enc = sp.enumerate_enclosings(scenario)
        assert enc.n_combinations == n_rows
        targets, support = enc.targets.tolist(), enc.support.tolist()
        positive = [
            (t, frozenset(q for q, num in zip(sup, nums) if num > 0))
            for t, sup, nums in zip(targets, support, enc.numerators.tolist())
        ]
        assert len(set(positive)) == len(positive)
        order = list(zip(targets, support))
        assert order == sorted(order)


@pytest.mark.parametrize("capacities", [(3, 3), (1, 1, 2)])
def test_enclosing_rows_are_the_first_simplex_of_each_combination(capacities):
    n = len(capacities)
    scenario = dataclasses.replace(
        clamped_three_slot_scenario(),
        capacities=capacities,
        slot_betas=(1.0, 0.0, -1.0)[:n],
        cost=sp.AffineCost(2.0, (1.0, 1.5, 2.0)[:n]),
    )
    enc = sp.enumerate_enclosings(scenario)
    rows = list(zip(enc.targets.tolist(), map(tuple, enc.support.tolist())))
    assert rows == first_enclosing_simplices(scenario)


@pytest.mark.parametrize("capacities", [(1,), (1, 1), (1, 1, 1)])
def test_all_ones_lattice_has_no_combinations(capacities):
    # every state is a corner: nothing is enclosed, every margin is (inf, None)
    n = len(capacities)
    scenario = dataclasses.replace(
        clamped_three_slot_scenario(),
        capacities=capacities,
        slot_betas=(1.0, 0.0, -1.0)[:n],
        cost=sp.AffineCost(2.0, (1.0, 1.5, 2.0)[:n]),
    )
    enc = sp.enumerate_enclosings(scenario)
    assert enc.n_combinations == 0
    assert all(enc[state] == () for state in scenario.lattice.states())
    report = sp.concavity_report(scenario, enclosings=enc)
    assert report.epsilon == (math.inf,) * scenario.horizon
    assert report.witnesses == (None,) * scenario.horizon
    assert report.all_nonnegative


# ---------------------------------------------------------------------------
# concavity margin
# ---------------------------------------------------------------------------


def test_margin_zero_on_affine_layers(table1, table1_enclosings):
    term = sp.terminal_values(table1)
    margin, witness = sp.concavity_margin(table1, term, table1_enclosings)
    assert margin == 0.0
    assert witness is not None
    v_star = sp.fixed_point(table1)
    margin, _ = sp.concavity_margin(table1, v_star, table1_enclosings)
    assert margin == 0.0


def test_margin_one_dimensional_examples():
    scenario = _single_slot_scenario(capacity=2)
    enc = sp.enumerate_enclosings(scenario)
    # only the midpoint combination at x=1 exists on {0,1,2}
    assert len(enc[(1,)]) == 1 and enc[(0,)] == () and enc[(2,)] == ()
    margin, witness = sp.concavity_margin(scenario, np.array([0.0, 2.0, 1.0]), enc)
    assert margin == 1.5
    assert witness[0] == (1,)
    margin, _ = sp.concavity_margin(scenario, np.array([0.0, -2.0, 0.0]), enc)
    assert margin == -2.0


def test_margin_affine_invariance(table1, table1_solution, table1_enclosings):
    values, _ = table1_solution
    layer = values.layer(150)
    base, _ = sp.concavity_margin(table1, layer, table1_enclosings)
    states = table1.lattice.states_array
    shifted = layer + states @ np.array([0.7, -1.3]) + 4.2
    got, _ = sp.concavity_margin(table1, shifted, table1_enclosings)
    assert got == pytest.approx(base, abs=1e-10)


def test_margin_witness_reproduces_value(table1, table1_solution, table1_enclosings):
    values, _ = table1_solution
    lat = table1.lattice
    for t in (1, 97, 200):
        layer = values.layer(t)
        margin, (state, combo) = sp.concavity_margin(table1, layer, table1_enclosings)
        interp = sum(w * layer[lat.index(q)] for w, q in zip(combo.weights, combo.support))
        assert margin == pytest.approx(layer[lat.index(state)] - interp, abs=1e-10)


def test_margin_matches_lp_oracle_one_dimensional():
    scenario = dataclasses.replace(_single_slot_scenario(), capacities=(5,))
    enc = sp.enumerate_enclosings(scenario)
    rng = np.random.default_rng(123)
    for _ in range(5):
        values = rng.normal(size=6)
        margin, _ = sp.concavity_margin(scenario, values, enc)
        assert margin == pytest.approx(lp_concavity_margin(scenario, values), abs=1e-8)


def test_margin_matches_lp_oracle_two_dimensional():
    scenario = supermodular_scenario()
    enc = sp.enumerate_enclosings(scenario)
    rng = np.random.default_rng(321)
    for _ in range(3):
        values = rng.normal(size=9)
        margin, _ = sp.concavity_margin(scenario, values, enc)
        assert margin == pytest.approx(lp_concavity_margin(scenario, values), abs=1e-8)


@pytest.mark.parametrize("capacities", [(2, 2, 1), (2, 1, 1, 1)])
def test_margin_matches_lp_hull_oracle(capacities):
    n = len(capacities)
    scenario = dataclasses.replace(
        _single_slot_scenario(),
        capacities=capacities,
        slot_betas=tuple(np.linspace(0.5, -0.5, n).tolist()),
        cost=sp.AffineCost(intercept=1.0, coefficients=tuple(1.0 + 0.5 * k for k in range(n))),
    )
    enc = sp.enumerate_enclosings(scenario)
    values, _ = sp.solve_horizon(scenario)
    rng = np.random.default_rng(sum(capacities))
    layers = [values.layer(1)] + [rng.normal(size=scenario.lattice.n_states) for _ in range(3)]
    for layer in layers:
        margin, _ = sp.concavity_margin(scenario, layer, enc)
        assert margin == pytest.approx(lp_hull_margin(scenario, layer), abs=1e-8)


def test_margin_detects_corruption(table1, table1_solution, table1_enclosings):
    values, _ = table1_solution
    layer = values.layer(100).copy()
    layer[table1.lattice.index((2, 2))] += 10.0
    margin, witness = sp.concavity_margin(table1, layer, table1_enclosings)
    assert margin < 0.0
    # the bumped point now dominates interpolations through its neighbours
    assert witness is not None


def test_stacked_margins_match_row_sums_bit_for_bit(table1_enclosings):
    # margins gathers slot-major over a stack of layers; each layer's margins
    # must be the row-wise sums over its combinations, alone or stacked
    enc = table1_enclosings
    layers = np.random.default_rng(99).normal(size=(7, len(enc))) * 1e3
    stacked = enc.margins(layers)
    for layer, got in zip(layers, stacked):
        expected = layer[enc.targets] - (enc.weights * layer[enc.support]).sum(axis=1)
        assert np.array_equal(got, expected)
        assert np.array_equal(enc.margins(layer), expected)


@pytest.mark.parametrize("block_layers", [1, 7, 200])
def test_report_is_each_layers_margin(
    table1, table1_solution, table1_enclosings, monkeypatch, block_layers
):
    # the report sweeps the layers in blocks (7 leaves a short last block);
    # every block size gives each layer its own concavity_margin exactly
    block_bytes = 8 * table1_enclosings.n_combinations * block_layers
    monkeypatch.setattr(sp.analysis, "_SWEEP_BYTES", block_bytes)
    values, _ = table1_solution
    report = sp.concavity_report(table1, values, table1_enclosings)
    for t, eps, witness in zip(report.ts, report.epsilon, report.witnesses):
        assert (eps, witness) == sp.concavity_margin(table1, values.layer(t), table1_enclosings)


def test_witness_margin_is_the_exact_margin_rounded_once(table1, table1_enclosings):
    # layers from 1e-300 to 1e300 in magnitude, of mixed signs: the reported
    # margin is the witness's exact rational margin, rounded once
    rng = np.random.default_rng(17)
    n = table1.lattice.n_states
    rows = set()
    for _ in range(300):
        layer = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-300, 300, n)
        margin, (state, combo) = sp.concavity_margin(table1, layer, table1_enclosings)
        assert margin == exact_interpolation_margin(table1, layer, state, combo.support)
        rows.add((state, combo.support))
    assert len(rows) > 50


def test_margin_fingerprint_guard(table1, table1_enclosings):
    other = dataclasses.replace(table1, horizon=10)
    with pytest.raises(ValueError, match="different scenario"):
        sp.concavity_margin(other, sp.terminal_values(other), table1_enclosings)


# ---------------------------------------------------------------------------
# report over the horizon
# ---------------------------------------------------------------------------


def test_concavity_report(table1, table1_solution, table1_enclosings):
    values, _ = table1_solution
    report = sp.concavity_report(table1, values, table1_enclosings)
    assert report.ts == tuple(range(1, 201))
    assert len(report.epsilon) == 200
    assert report.all_nonnegative
    assert min(report.epsilon) >= -1e-9


# ---------------------------------------------------------------------------
# increasing opportunity costs
# ---------------------------------------------------------------------------


def test_affine_layer_violates_everywhere(table1, table1_solution):
    term = sp.terminal_values(table1)
    violations = sp.increasing_opportunity_cost_violations(table1, term)
    both_feasible = [x for x in sp.enumerate_states(table1) if x[0] < 4 and x[1] < 4]
    assert len(violations) == 2 * len(both_feasible) == 32
    assert {(x, s, sp_) for x, s, sp_ in violations} == {
        (x, s, 3 - s) for x in both_feasible for s in (1, 2)
    }


def test_solved_layer_has_increasing_costs(table1, table1_solution):
    values, _ = table1_solution
    assert sp.increasing_opportunity_cost_violations(table1, values.layer(190)) == []


def test_supermodular_cost_is_clean():
    lat = sp.StateLattice((2, 2))
    table = [float(x1 * x2) for ix in range(lat.n_states) for x1, x2 in [lat.state(ix)]]
    scenario = sp.Scenario(
        arrival_rate=0.5,
        horizon=3,
        price_min=0.0,
        price_max=2.0,
        net_revenue=1.0,
        beta_const=1.0,
        beta_price=-1.0,
        slot_betas=(1.0, -1.0),
        capacities=(2, 2),
        cost=sp.TableCost(tuple(table)),
    )
    assert sp.increasing_opportunity_cost_violations(scenario, sp.terminal_values(scenario)) == []


# ---------------------------------------------------------------------------
# arrival-rate bound
# ---------------------------------------------------------------------------


def test_bound_zero_for_affine_cost(table1):
    assert sp.arrival_rate_bound(table1) == 0.0


def test_bound_supermodular_hand_value():
    scenario = supermodular_scenario()
    bound = sp.arrival_rate_bound(scenario)
    assert bound == pytest.approx(1.0 / (10.0 * lambert_bisect(math.e**2 + 1.0)), abs=1e-10)
    doubled = dataclasses.replace(scenario, horizon=20)
    assert sp.arrival_rate_bound(doubled) == pytest.approx(bound / 2.0, abs=1e-12)


def test_bound_certifies_increasing_costs():
    base = supermodular_scenario()
    bound = sp.arrival_rate_bound(base)
    certified = dataclasses.replace(base, arrival_rate=bound / 2.0)
    values, _ = sp.solve_horizon(certified)
    for t in range(1, certified.horizon + 1):
        assert sp.increasing_opportunity_cost_violations(certified, values.layer(t)) == []


def test_bound_degenerate_cases():
    single = _single_slot_scenario()
    assert sp.arrival_rate_bound(single) == math.inf
    zero_horizon = dataclasses.replace(supermodular_scenario(), horizon=0)
    assert sp.arrival_rate_bound(zero_horizon) == math.inf


def test_lattice_scans_match_brute_force():
    rng = np.random.default_rng(21)
    listed = zero_bound = positive_bound = 0
    for _ in range(30):
        scenario = random_table_cost_scenario(rng)
        values, _ = sp.solve_horizon(scenario)
        layers = [values.layer(1), sp.terminal_values(scenario),
                  rng.normal(size=scenario.lattice.n_states)]
        for layer in layers:
            found = sp.increasing_opportunity_cost_violations(scenario, layer)
            assert found == brute_opportunity_cost_violations(scenario, layer)
            listed += bool(found)
        bound = sp.arrival_rate_bound(scenario)
        assert bound == brute_arrival_rate_bound(scenario)
        zero_bound += bound == 0.0
        positive_bound += 0.0 < bound < math.inf
    assert listed >= 1 and zero_bound >= 1 and positive_bound >= 1


def test_a_micro_bump_breaks_concavity(table1, table1_solution, table1_enclosings):
    # the interior state (2, 3) of the last layer has a rounding-level
    # margin; lowering it by 1e-6 makes that margin about -1e-6, which a
    # nonnegativity tolerance as loose as 1e-3 would pass
    values, _ = table1_solution
    t, ix = 200, table1.lattice.index((2, 3))
    margins = table1_enclosings.margins(values.layer(t)[np.newaxis])[0]
    assert abs(margins[table1_enclosings.targets == ix].min()) < 1e-12
    bumped = values.values.copy()
    bumped[t - 1, ix] -= 1e-6
    report = sp.concavity_report(
        table1, sp.ValueFunction(bumped, table1.fingerprint()), table1_enclosings
    )
    assert not report.all_nonnegative
    assert -1.5e-6 < report.epsilon[t - 1] < -0.5e-6
    assert min(report.epsilon[: t - 1]) >= -sp.analysis.NONNEGATIVITY_TOL


def test_opportunity_cost_increase_of_1e_9_is_strict(table1):
    # v(x) = -1e-9 x1 x2 raises each slot's opportunity cost by exactly 1e-9
    # per order in the other slot: strict, though a strictness bound as
    # loose as 1e-6 would call every pair a violation
    x = table1.lattice.states_array
    values = -1e-9 * (x[:, 0] * x[:, 1]).astype(float)
    increase, valid = sp.analysis._opportunity_cost_increases(table1, values)
    assert valid.any() and np.allclose(increase[valid], 1e-9, rtol=1e-6, atol=0.0)
    assert sp.increasing_opportunity_cost_violations(table1, values) == []
    assert len(sp.increasing_opportunity_cost_violations(table1, -values)) == valid.sum()
