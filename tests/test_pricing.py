import math

import numpy as np
import pytest

import slotpricing as sp
from slotpricing import OpportunityCosts

from oracles import (
    bisect_stage_markup,
    fd_gradient,
    fd_hessian,
    grid_stage_value,
    lambert_bisect,
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
    mixed = 0
    for _ in range(150):
        scenario, v_next = _random_stage(rng)
        state = (0,) * scenario.n_slots
        calls.clear()
        sol = sp.solve_stage(scenario, state, v_next)
        assert len(calls) == (1 if sol.interior else 2)
        prices, value = bisect_stage_markup(scenario, state, v_next)
        assert sol.value == pytest.approx(value, abs=1e-10)
        assert max(abs(a - b) for a, b in zip(sol.prices, prices)) <= 1e-10
        at_bound = [d in (scenario.price_min, scenario.price_max) for d in sol.prices]
        mixed += any(at_bound) and not all(at_bound)
        for _ in range(200):
            probe = tuple(rng.uniform(scenario.price_min, scenario.price_max, scenario.n_slots))
            assert sol.value >= sp.stage_objective(scenario, state, probe, v_next) - 1e-10
    assert mixed >= 30


def test_solve_stage_deterministic(table1):
    v = sp.terminal_values(table1)
    a = sp.solve_stage(table1, (1, 2), v)
    b = sp.solve_stage(table1, (1, 2), v)
    assert a == b


# ---------------------------------------------------------------------------
# probability-space form and the logit inversion
# ---------------------------------------------------------------------------


def test_price_probability_round_trip(table1):
    rng = np.random.default_rng(4711)
    for _ in range(1000):
        prices = tuple(rng.uniform(table1.price_min, table1.price_max, 2))
        probs = sp.choice_probabilities(table1, prices)
        back = sp.prices_from_probabilities(table1, probs)
        assert max(abs(b - d) for b, d in zip(back, prices)) <= 1e-10
    probs = sp.choice_probabilities(table1, (1.0, None))
    back = sp.prices_from_probabilities(table1, probs)
    assert back[0] == pytest.approx(1.0, abs=1e-12) and back[1] is None


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
