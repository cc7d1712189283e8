import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

import slotpricing as sp
from slotpricing import sim
from slotpricing.sim import _policy_tables

from oracles import (
    clamped_three_slot_scenario,
    exact_policy_value,
    grid_stage_value,
    random_policy,
    reference_simulation,
)


def test_all_closed_policy_is_deterministic(table1):
    policy = sp.PricePolicy.all_closed(table1)
    result = sp.simulate(table1, policy, 500, seed=9)
    assert result.mean_profit == -2.0
    assert result.std_error == 0.0
    assert result.final_state_histogram[0] == 500
    assert result.final_state_histogram.sum() == 500
    assert result.generator == "numpy.random.PCG64DXSM/lanes"


def test_seeded_reproducibility(table1, table1_solution):
    _, policy = table1_solution
    a = sp.simulate(table1, policy, 3000, seed=42, keep_profits=True)
    b = sp.simulate(table1, policy, 3000, seed=42, keep_profits=True)
    c = sp.simulate(table1, policy, 3000, seed=43)
    assert np.array_equal(a.profits, b.profits)
    assert a.mean_profit == b.mean_profit and a.std_error == b.std_error
    assert a.mean_profit != c.mean_profit


def test_single_replication(table1, table1_solution):
    _, policy = table1_solution
    a = sp.simulate(table1, policy, 1, seed=77, keep_profits=True)
    b = sp.simulate(table1, policy, 1, seed=77, keep_profits=True)
    assert a.profits[0] == b.profits[0]
    assert a.std_error == 0.0
    assert a.replications == 1


def test_mean_matches_solved_value(table1, table1_solution):
    values, policy = table1_solution
    result = sp.simulate(table1, policy, 30_000, seed=5)
    v1 = values.layer(1)[0]
    assert abs(result.mean_profit - v1) <= 3.0 * result.std_error


def test_arrival_rate_override_zero(table1, table1_solution):
    _, policy = table1_solution
    result = sp.simulate(table1, policy, 100, seed=3, arrival_rate=0.0)
    assert result.mean_profit == -2.0 and result.std_error == 0.0
    with pytest.raises(ValueError, match="arrival rate"):
        sp.simulate(table1, policy, 10, seed=3, arrival_rate=1.0)


def test_arrival_rate_must_be_a_real_number(table1, table1_solution, monkeypatch):
    _, policy = table1_solution
    expected = sp.simulate(table1, policy, 50, seed=3, arrival_rate=0.25, keep_profits=True)
    # ints, floats and numpy floats are real numbers
    for rate in (0.25, np.float64(0.25), np.float32(0.25)):
        result = sp.simulate(table1, policy, 50, seed=3, arrival_rate=rate, keep_profits=True)
        assert result.profits.tobytes() == expected.profits.tobytes()
    assert sp.simulate(table1, policy, 50, seed=3, arrival_rate=0).mean_profit == -2.0

    def no_tables(*args):
        raise AssertionError("argument checks must come before any table is built")

    monkeypatch.setattr(sim, "_policy_tables", no_tables)
    for rate in ("0.25", b"0.25", False, True, np.False_):
        with pytest.raises(ValueError, match="^arrival_rate must be a real number"):
            sp.simulate(table1, policy, 50, seed=3, arrival_rate=rate)


def test_histogram_stays_inside_lattice(table1, table1_solution):
    _, policy = table1_solution
    result = sp.simulate(table1, policy, 5000, seed=21)
    assert result.final_state_histogram.sum() == 5000
    assert result.final_state_histogram.shape == (25,)
    assert np.all(result.final_state_histogram >= 0)


def test_zero_horizon_simulation(table1):
    empty = dataclasses.replace(table1, horizon=0)
    _, policy = sp.solve_horizon(empty)
    result = sp.simulate(empty, policy, 25, seed=4)
    assert result.mean_profit == -2.0 and result.std_error == 0.0
    assert result.final_state_histogram[0] == 25


def test_policy_scenario_guards(table1, table1_solution):
    _, policy = table1_solution
    other = dataclasses.replace(table1, horizon=10)
    with pytest.raises(ValueError, match="different scenario"):
        sp.simulate(other, policy, 10, seed=1)
    with pytest.raises(ValueError, match="at least one replication"):
        sp.simulate(table1, policy, 0, seed=1)


def test_seed_outside_the_128_bit_range_is_rejected(table1):
    policy = sp.PricePolicy.all_closed(table1)
    for seed in (-1, 2**128):
        with pytest.raises(ValueError, match="seed must be an integer"):
            sp.simulate(table1, policy, 10, seed=seed)
    for seed in (0, 2**128 - 1):
        assert sp.simulate(table1, policy, 10, seed=seed).seed == seed


def test_reps_and_seed_must_be_integers(table1, monkeypatch):
    policy = sp.PricePolicy.all_closed(table1)
    expected = sp.simulate(table1, policy, 10, seed=1)
    # numpy integers are integers
    result = sp.simulate(table1, policy, np.int32(10), seed=np.uint64(1))
    assert result.seed == 1 and type(result.seed) is int and result.replications == 10
    assert result.final_state_histogram.tobytes() == expected.final_state_histogram.tobytes()

    def no_tables(*args):
        raise AssertionError("argument checks must come before any table is built")

    monkeypatch.setattr(sim, "_policy_tables", no_tables)
    for reps, seed, name in [
        (10, 1.5, "seed"),
        (10, 1.9, "seed"),
        (10, True, "seed"),
        (10, np.True_, "seed"),
        (10, "1", "seed"),
        (10.0, 1, "reps"),
        (1.5, 1, "reps"),
        (True, 1, "reps"),
    ]:
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            sp.simulate(table1, policy, reps, seed=seed)


def test_step_frequencies_match_choice_model(table1, table1_solution):
    _, policy = table1_solution
    table = _policy_tables(table1, policy, table1.arrival_rate)
    thresholds = table[0, :, 0]  # first booking step, empty state
    prices = tuple(policy.prices[0, 0])
    lam = table1.arrival_rate
    expected = [lam * p for p in sp.choice_probabilities(table1, prices).per_slot]
    n = 1_000_000
    u = np.random.Generator(np.random.Philox(key=2718)).random(n)
    counts = [
        int(np.count_nonzero((u < thresholds[0]))),
        int(np.count_nonzero((u >= thresholds[0]) & (u < thresholds[1]))),
    ]
    for count, p in zip(counts, expected):
        sigma = math.sqrt(n * p * (1.0 - p))
        assert abs(count - n * p) <= 4.0 * sigma


def test_optimal_policy_dominates_static(table1, table1_solution):
    _, policy = table1_solution
    static = sp.PricePolicy.constant_price(table1, table1.price_max)
    a = sp.simulate(table1, policy, 30_000, seed=11)
    b = sp.simulate(table1, static, 30_000, seed=11)
    combined = math.hypot(a.std_error, b.std_error)
    assert a.mean_profit >= b.mean_profit - 3.0 * combined


def test_policy_from_values_reproduces_solve(table1):
    for small in (dataclasses.replace(table1, horizon=6), clamped_three_slot_scenario()):
        values, policy = sp.solve_horizon(small)
        extracted = sp.policy_from_values(small, values)
        assert np.array_equal(extracted.prices, policy.prices, equal_nan=True)
        assert np.array_equal(extracted.values, policy.values)
        assert np.array_equal(extracted.interior, policy.interior)
    with pytest.raises(ValueError, match="different scenario"):
        sp.policy_from_values(table1, values)


def test_policy_offering_a_full_slot_is_rejected(table1):
    closed = sp.PricePolicy.all_closed(table1)
    prices = closed.prices.copy()
    prices[0, table1.lattice.index((4, 0)), 0] = 1.0
    bad = sp.PricePolicy(prices, closed.values, closed.interior, closed.fingerprint)
    with pytest.raises(ValueError, match="at capacity"):
        sp.simulate(table1, bad, 10, seed=1)


def test_policy_from_stationary_values(table1):
    small = dataclasses.replace(table1, horizon=4)
    v_star = sp.fixed_point(small)
    stacked = np.repeat(v_star[np.newaxis, :], 5, axis=0)
    stacked.flags.writeable = False
    values = sp.ValueFunction(values=stacked, fingerprint=small.fingerprint())
    policy = sp.policy_from_values(small, values)
    feasible = small.lattice.states_array < np.asarray(small.capacities)
    open_prices = policy.prices[:, feasible]
    assert np.allclose(open_prices, 2.0, atol=1e-12)
    closed = policy.prices[:, ~feasible]
    assert np.all(np.isnan(closed))


def test_policy_prices_near_terminal_match_grid(table1, table1_solution):
    values, policy = table1_solution
    term = values.layer(201)
    sol = policy.stage(table1, 200, (0, 0))
    assert sol.value == pytest.approx(grid_stage_value(table1, (0, 0), term), abs=1e-4)
    # grid-oracle pins (step 1e-3, one refinement): boundary optimum at (2, 2)
    assert sol.prices[0] == pytest.approx(2.0, abs=1e-3)
    assert sol.prices[1] == pytest.approx(2.0, abs=1e-3)


def test_overflowing_logit_is_rejected(table1):
    # At 720 a slot weight overflows; at 708.7 and price 0 both weights are
    # finite but their sum is not.
    for beta_const, price in [(720.0, 2.0), (708.7, 0.0)]:
        big = dataclasses.replace(table1, beta_const=beta_const)
        policy = sp.PricePolicy.constant_price(big, price)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="beta_const"):
                sp.simulate(big, policy, 1000, seed=1)


def _lane_edges(reps, chunk):
    """Edges of the near-equal lanes that ``simulate`` splits ``reps`` into."""
    lanes = min(reps, max(2, -(-reps // chunk)))
    return [k * reps // lanes for k in range(lanes + 1)]


def test_lanes_match_reference_walk_at_any_cap(monkeypatch):
    longer = dataclasses.replace(clamped_three_slot_scenario(), horizon=21)
    _, policy = sp.solve_horizon(longer)
    # at rate 0.9 over 400 rows are full by step 16 and retire there; caps
    # of 3,000 and 4,096 rows make uneven lanes (10,001 at 4,096 into 3,333 +
    # 3,334 + 3,334), and 7 rows make 1,429 lanes
    for chunk in (7, 3000, 4096):
        monkeypatch.setattr(sim, "_CHUNK", chunk)
        profits, histogram = reference_simulation(
            longer, policy, 10_001, 12, _lane_edges(10_001, chunk), arrival_rate=0.9
        )
        result = sp.simulate(longer, policy, 10_001, seed=12, arrival_rate=0.9, keep_profits=True)
        assert np.array_equal(result.final_state_histogram, histogram)
        assert np.max(np.abs(result.profits - profits)) <= 1e-12


def test_lane_that_fills_stops_walking(monkeypatch):
    # one slot of capacity 1 sells with probability above 0.94 per step at
    # any price in the box, so every replication is full by step 16 and every
    # lane retires whole there; prices drawn per step make profits differ
    scenario = sp.Scenario(
        arrival_rate=0.99,
        horizon=200,
        price_min=0.0,
        price_max=2.0,
        net_revenue=1.0,
        beta_const=5.0,
        beta_price=-1.0,
        slot_betas=(0.0,),
        capacities=(1,),
        cost=sp.AffineCost(2.0, (1.0,)),
    )
    closed = sp.PricePolicy.all_closed(scenario)
    prices = closed.prices.copy()
    prices[:, scenario.lattice.index((0,)), 0] = np.random.default_rng(4).uniform(0.0, 2.0, 200)
    policy = sp.PricePolicy(prices, closed.values, closed.interior, closed.fingerprint)
    fills = []

    class Counting(np.random.Generator):
        def random(self, *args, out=None, **kwargs):
            fills.append(out.size)
            return super().random(*args, out=out, **kwargs)

    monkeypatch.setattr(np.random, "Generator", Counting)
    result = sp.simulate(scenario, policy, 5_000, seed=3, keep_profits=True)
    monkeypatch.undo()
    # two lanes of 2,500 rows, 16 fills each, then none
    assert fills == [2_500] * 32
    full = scenario.lattice.index((1,))
    assert result.final_state_histogram[full] == 5_000
    profits, histogram = reference_simulation(scenario, policy, 5_000, 3, _lane_edges(5_000, sim._CHUNK))
    assert np.array_equal(result.final_state_histogram, histogram)
    assert np.max(np.abs(result.profits - profits)) <= 1e-12
    exact, _ = exact_policy_value(scenario, policy)
    assert abs(result.mean_profit - exact[0, 0]) <= 3.0 * result.std_error


def test_results_do_not_depend_on_worker_count(table1, table1_solution, monkeypatch):
    _, policy = table1_solution
    # the default cap makes 2 lanes of 3,050 rows; 500 makes 13 of 469 or 470
    for chunk in (sim._CHUNK, 500):
        monkeypatch.setattr(sim, "_CHUNK", chunk)
        runs = []
        for workers in (1, 2):
            monkeypatch.setattr(sim, "_WORKERS", workers)
            runs.append(sp.simulate(table1, policy, 6_100, seed=3, keep_profits=True))
        one, two = runs
        assert one.profits.tobytes() == two.profits.tobytes()
        assert one.final_state_histogram.tobytes() == two.final_state_histogram.tobytes()
        assert one.mean_profit == two.mean_profit and one.std_error == two.std_error


def test_simulation_memory_stays_small(table1, table1_solution):
    # per replication the walk keeps one draw, state and profit, not a
    # (horizon, rows) buffer of draws per block
    _, policy = table1_solution
    tracemalloc.start()
    try:
        sp.simulate(table1, policy, 200_000, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20


def test_statistics_do_not_depend_on_keeping_profits(table1, table1_solution, monkeypatch):
    _, policy = table1_solution
    # lane moments are combined in lane order, so kept and lane-local profit
    # buffers give the same bits: 2 lanes at the default cap, 3 of 333 or 334
    # rows at 500 and 143 of 7 at 7
    for chunk in (sim._CHUNK, 500, 7):
        monkeypatch.setattr(sim, "_CHUNK", chunk)
        runs = []
        for workers in (1, 2):
            monkeypatch.setattr(sim, "_WORKERS", workers)
            for keep in (True, False):
                runs.append(sp.simulate(table1, policy, 1_001, seed=6, keep_profits=keep))
        profits = runs[0].profits
        assert all(run.profits is None for run in runs[1::2])
        for run in runs:
            assert run.mean_profit == runs[0].mean_profit
            assert run.std_error == runs[0].std_error
            assert run.final_state_histogram.tobytes() == runs[0].final_state_histogram.tobytes()
        assert math.isclose(runs[0].mean_profit, np.mean(profits), rel_tol=1e-12)
        std_error = np.std(profits, ddof=1) / math.sqrt(profits.size)
        assert math.isclose(runs[0].std_error, std_error, rel_tol=1e-12)


def test_simulation_memory_does_not_grow_with_reps(table1, monkeypatch):
    # without kept profits a run holds the lanes in flight, not an array per
    # replication; ten times the replications only widen the lanes from
    # 50,000 rows to 64,516. One thread, so the peak does not depend on how
    # two threads' steps happen to interleave.
    short = dataclasses.replace(table1, horizon=12)
    _, policy = sp.solve_horizon(short)
    monkeypatch.setattr(sim, "_WORKERS", 1)
    peaks = []
    for reps in (200_000, 2_000_000):
        tracemalloc.start()
        try:
            sp.simulate(short, policy, reps, seed=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 2**20


def test_simulation_matches_scalar_reference_walk(table1, table1_solution, monkeypatch):
    _, optimal = table1_solution
    clamped = clamped_three_slot_scenario()
    longer = dataclasses.replace(clamped, horizon=21)
    rng = np.random.default_rng(5)
    cases = [
        (table1, optimal, None, 300, 17),
        (table1, sp.PricePolicy.constant_price(table1, 1.0), None, 300, 17),
        (table1, optimal, 0.9, 300, 17),
        (table1, random_policy(table1, rng), 0.9, 300, 17),
        (clamped, sp.solve_horizon(clamped)[1], None, 3000, 17),
        (longer, random_policy(longer, rng), None, 3000, 17),
        (table1, optimal, 0.9, 300, 2**128 - 1),  # the top of the seed range
    ]
    for scenario, policy, rate, reps, seed in cases:
        # small caps put many lanes, each on its own advanced stream, on both
        # workers; horizon 200 crosses 12 retirement checkpoints
        for chunk in (sim._CHUNK, 7, 64):
            edges = _lane_edges(reps, chunk)
            profits, histogram = reference_simulation(
                scenario, policy, reps, seed, edges, arrival_rate=rate
            )
            monkeypatch.setattr(sim, "_CHUNK", chunk)
            result = sp.simulate(
                scenario, policy, reps, seed=seed, arrival_rate=rate, keep_profits=True
            )
            assert np.array_equal(result.final_state_histogram, histogram)
            assert np.max(np.abs(result.profits - profits)) <= 1e-12
        monkeypatch.undo()


def test_exact_policy_value_reproduces_solved_layer(table1, table1_solution):
    clamped = clamped_three_slot_scenario()
    for scenario, (values, policy) in (
        (table1, table1_solution),
        (clamped, sp.solve_horizon(clamped)),
    ):
        exact, final = exact_policy_value(scenario, policy)
        assert np.max(np.abs(exact[0] - values.layer(1))) <= 1e-12
        assert abs(final.sum() - 1.0) <= 1e-12


def test_simulated_mean_matches_exact_policy_value():
    scenario = clamped_three_slot_scenario()
    _, optimal = sp.solve_horizon(scenario)
    for policy in (optimal, sp.PricePolicy.constant_price(scenario, scenario.price_max)):
        exact, _ = exact_policy_value(scenario, policy)
        result = sp.simulate(scenario, policy, 40_000, seed=8)
        assert abs(result.mean_profit - exact[0, 0]) <= 3.0 * result.std_error


def test_final_state_frequencies_match_exact_distribution():
    scenario = clamped_three_slot_scenario()
    _, policy = sp.solve_horizon(scenario)
    _, final = exact_policy_value(scenario, policy)
    n = 40_000
    counts = sp.simulate(scenario, policy, n, seed=31).final_state_histogram
    assert np.all(counts[final == 0.0] == 0)
    # a state expected fewer than 5 times would break the 4 sigma bound
    # whenever it is seen once, so such states share one pooled bin
    small = n * final < 5.0
    assert small.sum() > 1 and n * final[small].sum() >= 5.0
    binned = np.append(counts[~small], counts[small].sum())
    p = np.append(final[~small], final[small].sum())
    sigma = np.sqrt(n * p * (1.0 - p))
    assert np.all(np.abs(binned - n * p) <= 4.0 * sigma)
