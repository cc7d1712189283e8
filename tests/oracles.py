"""Independent oracles used by the test suite.

Everything here is deliberately implemented without touching the library's
own solution paths: bisection instead of Halley or the breakpoint walk, dense
grids instead of the stage solver, linear programming instead of the simplex
enumeration, finite differences instead of closed-form gradients, loops
over bumped states instead of the lattice's neighbour table, and a scalar
walk and an exact policy evaluation instead of the vectorised simulator.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

import numpy as np

import slotpricing as sp


def lambert_bisect(y: float) -> float:
    """Solve w * exp(w) = y by bisection to ~1e-14 relative."""
    if y == 0.0:
        return 0.0
    lo, hi = 0.0, 1.0
    while hi * math.exp(hi) < y:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid * math.exp(mid) < y:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def fd_gradient(fn, x, h=1e-6):
    """Central finite-difference gradient."""
    x = [float(v) for v in x]
    grad = []
    for i in range(len(x)):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        grad.append((fn(xp) - fn(xm)) / (2.0 * h))
    return grad


def fd_hessian(fn, x, h=1e-5):
    """Central finite-difference Hessian."""
    n = len(x)
    out = np.empty((n, n))
    x = np.asarray(x, dtype=float)
    f0 = fn(x)
    for i in range(n):
        for j in range(i, n):
            if i == j:
                xp = x.copy(); xp[i] += h
                xm = x.copy(); xm[i] -= h
                out[i, i] = (fn(xp) - 2.0 * f0 + fn(xm)) / (h * h)
            else:
                xpp = x.copy(); xpp[i] += h; xpp[j] += h
                xpm = x.copy(); xpm[i] += h; xpm[j] -= h
                xmp = x.copy(); xmp[i] -= h; xmp[j] += h
                xmm = x.copy(); xmm[i] -= h; xmm[j] -= h
                out[i, j] = out[j, i] = (fn(xpp) - fn(xpm) - fn(xmp) + fn(xmm)) / (4.0 * h * h)
    return out


def _feasible(scenario, state):
    """1-based ids of the slots below capacity at ``state``, from the capacities."""
    return [s for s, (x, cap) in enumerate(zip(state, scenario.capacities), start=1) if x < cap]


def _surplus_grid(scenario, slots, gamma, grids):
    """Expected markup on a price grid, one axis per offered slot."""
    parts_u, parts_a = [], []
    for k, (s, g) in enumerate(zip(slots, grids)):
        u = np.exp(scenario.beta_const + scenario.slot_betas[s - 1] + scenario.beta_price * g)
        a = scenario.net_revenue + g - gamma[k]
        shape = [1] * len(slots)
        shape[k] = -1
        parts_u.append(u.reshape(shape))
        parts_a.append(a.reshape(shape))
    num = sum(u * a for u, a in zip(parts_u, parts_a))
    den = sum(np.broadcast_to(u, num.shape).copy() for u in parts_u) + 1.0
    return scenario.arrival_rate * num / den


def grid_stage_value(scenario, state, v_next, step=1e-3):
    """Stage value by dense grid search over the price box, refined once."""
    lat = scenario.lattice
    ix = lat.index(state)
    slots = _feasible(scenario, state)
    if not slots:
        return float(v_next[ix])
    assert len(slots) <= 2, "grid oracle is built for at most two open slots"
    gamma = [float(v_next[ix] - v_next[ix + lat.strides[s - 1]]) for s in slots]
    lo, hi = scenario.price_min, scenario.price_max
    npts = round((hi - lo) / step) + 1
    coarse = [np.linspace(lo, hi, npts) for _ in slots]
    surf = _surplus_grid(scenario, slots, gamma, coarse)
    best_idx = np.unravel_index(np.argmax(surf), surf.shape)
    best = [coarse[k][best_idx[k]] for k in range(len(slots))]
    fine = [np.linspace(max(lo, b - step), min(hi, b + step), 201) for b in best]
    surf = _surplus_grid(scenario, slots, gamma, fine)
    return float(v_next[ix]) + float(surf.max())


def bisect_stage_markup(scenario, state, v_next, slots=None):
    """Stage optimum by bisection on the common markup, any number of slots.

    Every open slot, by default every feasible one, is priced ``clip(z_s -
    net_revenue + m, price_min, price_max)``, where m is the root of ``g(m)
    = surplus / arrival_rate - 1 / beta_price - m``. g is positive at the
    lower bracket and negative at the upper one (``|surplus / arrival_rate|``
    is at most ``bound - 1 - |1 / beta_price|``), and the bisection
    evaluates g directly, with no breakpoints and no Lambert W. Returns the
    prices of the open slots and the stage value; with no open slot, the
    value is ``v_next(state)``.
    """
    lat = scenario.lattice
    ix = lat.index(state)
    slots = _feasible(scenario, state) if slots is None else list(slots)
    if not slots:
        return (), float(v_next[ix])
    z = [float(v_next[ix] - v_next[ix + lat.strides[s - 1]]) for s in slots]
    c = [scenario.beta_const + scenario.slot_betas[s - 1] for s in slots]
    r, bd, lam = scenario.net_revenue, scenario.beta_price, scenario.arrival_rate
    lo, hi = scenario.price_min, scenario.price_max

    def prices(m):
        return [min(max(zs - r + m, lo), hi) for zs in z]

    def surplus(d):
        u = [math.exp(cs + bd * ds) for cs, ds in zip(c, d)]
        return lam * sum(us * (r + ds - zs) for us, ds, zs in zip(u, d, z)) / (1.0 + sum(u))

    bound = max(abs(lo), abs(hi)) + max(abs(r - zs) for zs in z) + abs(1.0 / bd) + 1.0
    left, right = -bound, bound
    for _ in range(200):
        mid = 0.5 * (left + right)
        if mid in (left, right):  # adjacent floats: no later step moves either end
            break
        if surplus(prices(mid)) / lam - 1.0 / bd - mid >= 0.0:
            left = mid
        else:
            right = mid
    d = prices(0.5 * (left + right))
    return tuple(d), float(v_next[ix]) + surplus(d)


def best_open_set(scenario, state, v_next):
    """The stage optimum over every open set of the feasible slots.

    Each of the 2^n subsets of the n feasible slots is priced by
    ``bisect_stage_markup``; the empty one is worth ``v_next(state)``.
    Returns ``(value, prices)`` for every subset, best first (ties in
    subset order, larger sets first), with ``prices`` one entry per slot,
    ``None`` where closed.
    """
    feasible = _feasible(scenario, state)
    solved = []
    for k in range(len(feasible), -1, -1):
        for subset in itertools.combinations(feasible, k):
            offered, value = bisect_stage_markup(scenario, state, v_next, subset)
            prices = [None] * scenario.n_slots
            for s, d in zip(subset, offered):
                prices[s - 1] = d
            solved.append((value, tuple(prices)))
    return sorted(solved, key=lambda pair: -pair[0])


def stage_w_calls(scenario, state, v_next, interior):
    """Lambert W calls the layer solver owes one stage, or None near a tie.

    An interior stage makes one. Otherwise the solver settles the all-open
    set: a capped set, every slot at ``price_max``, owes none, and any other
    owes one call if its optimum has a price strictly inside the box. When
    a slot's margin ``a_j + price_max``, with ``a_j = net_revenue - z_j``,
    lies below the set's surplus rate, the slots whose margin is not below
    it are settled again the same way, and so on; an empty set owes none.
    The sets are priced by ``bisect_stage_markup``; a price or margin within
    1e-9 of the decision gives None.
    """
    if interior:
        return 1
    lat = scenario.lattice
    ix = lat.index(state)
    lo, hi = scenario.price_min, scenario.price_max
    feasible = _feasible(scenario, state)
    a = {s: scenario.net_revenue - float(v_next[ix] - v_next[ix + lat.strides[s - 1]]) for s in feasible}

    def settle(subset):
        """Calls owed by one open set and the sets it keeps, or None near a tie."""
        if not subset:
            return 0
        prices, value = bisect_stage_markup(scenario, state, v_next, subset)
        if any(0.0 < min(d - lo, hi - d) <= 1e-9 for d in prices):
            return None
        if all(d == hi for d in prices):
            return 0
        rate = (value - float(v_next[ix])) / scenario.arrival_rate
        if any(abs(a[s] + hi - rate) <= 1e-9 for s in subset):
            return None
        kept = [s for s in subset if a[s] + hi >= rate]
        rest = settle(kept) if len(kept) < len(subset) else 0
        return None if rest is None else int(any(lo < d < hi for d in prices)) + rest

    return settle(feasible)


def lp_concavity_margin(scenario, values) -> float:
    """Worst interpolation margin by brute force.

    Enumerates every support of size 2 to n_slots + 1 without any
    affine-independence pruning and maximises the interpolated value over all
    admissible weights with an LP. Only sensible on tiny lattices.
    """
    from scipy.optimize import linprog

    lat = scenario.lattice
    states = lat.states()
    values = np.asarray(values, dtype=float)
    best = math.inf
    for x in states:
        vx = values[lat.index(x)]
        others = [q for q in states if q != x]
        for m in range(2, scenario.n_slots + 2):
            for support in itertools.combinations(others, m):
                c = [-values[lat.index(q)] for q in support]
                a_eq = [[float(q[i]) for q in support] for i in range(len(x))]
                a_eq.append([1.0] * m)
                b_eq = [float(v) for v in x] + [1.0]
                res = linprog(c, A_eq=a_eq, b_eq=b_eq, bounds=[(0.0, None)] * m, method="highs")
                if res.status == 0:
                    best = min(best, vx + res.fun)
    return best


def _convex_weights(support, x):
    """The exact weights w with ``sum_q w_q * (q, 1) == (x, 1)``, by
    Gauss-Jordan elimination over Fractions; None for a degenerate support."""
    m = len(support)
    rows = [[Fraction(q[i]) for q in support] + [Fraction(x[i])] for i in range(len(x))]
    rows.append([Fraction(1)] * (m + 1))
    for col in range(m):
        pivot = next((r for r in range(col, m) if rows[r][col] != 0), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [a / rows[col][col] for a in rows[col]]
        for r in range(m):
            if r != col and rows[r][col] != 0:
                rows[r] = [a - rows[r][col] * b for a, b in zip(rows[r], rows[col])]
    return [row[m] for row in rows]


def exact_interpolation_margin(scenario, values, state, support) -> float:
    """``v(state) - sum_q w_q * v(q)`` over the convex weights of the
    ``n_slots + 1`` lattice points ``support``, in exact rationals rounded
    once by ``float(Fraction)``."""
    lat = scenario.lattice
    margin = Fraction(float(values[lat.index(state)]))
    for q, w in zip(support, _convex_weights(support, state)):
        margin -= w * Fraction(float(values[lat.index(q)]))
    return float(margin)


def first_enclosing_simplices(scenario) -> list[tuple[int, tuple[int, ...]]]:
    """``(target, simplex)`` state-index pairs: for each target and each set of
    lattice points that hold it with positive weights on some
    ``n_slots + 1``-point simplex, the lexicographically first such simplex.
    In target order, then simplex order; by brute force over all simplices."""
    states = scenario.lattice.states()
    first = {}
    for target, x in enumerate(states):
        for simplex in itertools.combinations(range(len(states)), scenario.n_slots + 1):
            if target in simplex:
                continue
            weights = _convex_weights([states[q] for q in simplex], x)
            if weights is None or min(weights) < 0:
                continue
            key = (target, frozenset(q for q, w in zip(simplex, weights) if w > 0))
            first.setdefault(key, (target, simplex))
    return sorted(first.values())


def lp_hull_margin(scenario, values) -> float:
    """Worst interpolation margin from one LP per state, with no supports.

    For each state x, maximises ``sum_q lam_q * v(q)`` over all other lattice
    points q subject to ``sum_q lam_q * (q, 1) == (x, 1)`` and ``lam >= 0``.
    States outside the hull of the others (an infeasible LP) contribute
    nothing; with none inside, the result is ``inf``.
    """
    from scipy.optimize import linprog

    lat = scenario.lattice
    points = np.array([list(q) + [1] for q in lat.states()], dtype=float)
    values = np.asarray(values, dtype=float)
    best = math.inf
    for ix in range(lat.n_states):
        others = np.arange(lat.n_states) != ix
        res = linprog(
            -values[others], A_eq=points[others].T, b_eq=points[ix], bounds=(0.0, None), method="highs"
        )
        if res.status == 0:
            best = min(best, values[ix] + res.fun)
    return best


def _bump(state, slot):
    """``state + 1_slot`` for a 1-based slot."""
    return tuple(v + (1 if k == slot - 1 else 0) for k, v in enumerate(state))


def brute_marginal_violations(scenario):
    """Double loop over the lattice and slots, straight off the definitions."""
    ceiling = scenario.price_max + scenario.net_revenue
    out = []
    for x in sp.enumerate_states(scenario):
        for s in _feasible(scenario, x):
            if sp.cost(scenario, _bump(x, s)) - sp.cost(scenario, x) > ceiling:
                out.append((x, s))
    return out


def _cross_pairs(scenario):
    """Every state with an ordered pair of distinct feasible slots, in order."""
    for x in sp.enumerate_states(scenario):
        slots = _feasible(scenario, x)
        for s in slots:
            for s2 in slots:
                if s2 != s:
                    yield x, s, s2


def brute_opportunity_cost_violations(scenario, values):
    """``(x, s, s')`` where booking s' raises the opportunity cost of s by at
    most 1e-12, by a triple loop over bumped states."""
    idx = scenario.lattice.index
    out = []
    for x, s, s2 in _cross_pairs(scenario):
        base = values[idx(x)] - values[idx(_bump(x, s))]
        shifted = values[idx(_bump(x, s2))] - values[idx(_bump(_bump(x, s2), s))]
        if shifted - base <= 1e-12:
            out.append((x, s, s2))
    return out


def brute_arrival_rate_bound(scenario):
    """The certified arrival-rate bound from its definition.

    The smallest terminal gap ``(cost(x + 1_s' + 1_s) - cost(x + 1_s')) -
    (cost(x + 1_s) - cost(x))`` over all cross pairs, scaled by
    ``-beta_price / (horizon * W(sum of slot weights at 0))``. W comes from
    the library because only the lattice scan is under test here.
    """
    def c(x):
        return sp.cost(scenario, x)

    gaps = [
        (c(_bump(_bump(x, s2), s)) - c(_bump(x, s2))) - (c(_bump(x, s)) - c(x))
        for x, s, s2 in _cross_pairs(scenario)
    ]
    if not gaps or scenario.horizon == 0:
        return math.inf
    if min(gaps) <= 0.0:
        return 0.0
    weight_sum = sum(
        math.exp(scenario.beta_const + b - scenario.beta_price * scenario.net_revenue - 1.0)
        for b in scenario.slot_betas
    )
    return -scenario.beta_price * min(gaps) / (scenario.horizon * sp.lambert_w0(weight_sum))


def _slot_probabilities(scenario, prices, rate):
    """Logit sale probability of each slot at ``prices``; 0 where closed (NaN)."""
    weights = [
        0.0 if math.isnan(d) else math.exp(scenario.beta_const + b + scenario.beta_price * d)
        for b, d in zip(scenario.slot_betas, prices)
    ]
    denom = 1.0 + sum(weights)
    return [rate * w / denom for w in weights]


def _lane_walks(scenario, policy, reps, seed, edges, arrival_rate, walk):
    """Run ``walk(rng, start, stop, stage, states, profits)`` on each lane and
    return the profits net of the final delivery cost and the final-state
    histogram. Lane k holds replications ``edges[k]`` to ``edges[k + 1]`` and
    reads the PCG64DXSM stream seeded with ``seed``, advanced by
    ``k * 2**64``; ``stage(t, state)`` gives the prices and the running sums
    of the slot sale probabilities at a step."""
    rate = scenario.arrival_rate if arrival_rate is None else arrival_rate
    lat = scenario.lattice

    @functools.lru_cache(maxsize=None)
    def stage(t, state):
        prices = policy.prices[t, lat.index(state)].tolist()
        return prices, list(itertools.accumulate(_slot_probabilities(scenario, prices, rate)))

    states = [(0,) * scenario.n_slots] * reps
    profits = [0.0] * reps
    for k, (start, stop) in enumerate(zip(edges[:-1], edges[1:])):
        bits = np.random.PCG64DXSM(seed)
        bits.advance(k * 2**64)
        walk(np.random.Generator(bits), start, stop, stage, states, profits)
    histogram = np.zeros(lat.n_states, dtype=np.int64)
    for state in states:
        histogram[lat.index(state)] += 1
    return np.array([p - sp.cost(scenario, x) for p, x in zip(profits, states)]), histogram


def _sell(scenario, i, t, u, stage, states, profits):
    """Sell to replication ``i`` at step ``t`` if ``u`` lies below the sale
    probability, to the first slot whose running sum exceeds ``u``."""
    prices, running = stage(t, states[i])
    if u < running[-1]:
        s = next(j for j, c in enumerate(running) if u < c)
        profits[i] += scenario.net_revenue + prices[s]
        states[i] = _bump(states[i], s + 1)


def reference_simulation(scenario, policy, reps, seed, edges, arrival_rate=None):
    """Profits and final-state histogram of a scalar per-step walk, lane by lane.

    At each step the lane's replications, in index order, take its next
    ``random()`` draws, one each.
    """

    def walk(rng, start, stop, stage, states, profits):
        for t in range(scenario.horizon):
            for i in range(start, stop):
                _sell(scenario, i, t, rng.random(), stage, states, profits)

    return _lane_walks(scenario, policy, reps, seed, edges, arrival_rate, walk)


def reference_event_simulation(scenario, policy, reps, seed, edges, arrival_rate=None):
    """Profits and final-state histogram of a scalar thinned walk, lane by lane.

    A state's bound q is its largest sale probability over the steps. Each
    replication keeps the first step it has yet to pass, from 0. In each
    round the lane's live replications, in index order, first draw one
    ``standard_exponential()`` E each; the candidate is that step plus
    ``floor(E / -log1p(-q))``. A replication past the horizon or with q = 0
    draws nothing and finishes, as does one whose candidate is at or past the
    horizon. Then the others, in index order, draw one ``random()`` U each,
    sell at the candidate step as the per-step walk would at the draw
    ``U * q``, and move past it.
    """
    horizon = scenario.horizon
    bounds = {}

    def walk(rng, start, stop, stage, states, profits):
        def bound(state):
            if state not in bounds:
                bounds[state] = max((stage(t, state)[1][-1] for t in range(horizon)), default=0.0)
            return bounds[state]

        step = dict.fromkeys(range(start, stop), 0)
        live = list(step)
        while live:
            live = [i for i in live if step[i] < horizon and bound(states[i]) > 0.0]
            candidates = []
            for i in live:
                gap = rng.standard_exponential() / -math.log1p(-bound(states[i]))
                if gap < horizon - step[i]:
                    step[i] += math.floor(gap)
                    candidates.append(i)
            for i in candidates:
                _sell(scenario, i, step[i], rng.random() * bound(states[i]), stage, states, profits)
                step[i] += 1
            live = candidates

    return _lane_walks(scenario, policy, reps, seed, edges, arrival_rate, walk)


def exact_policy_value(scenario, policy, arrival_rate=None):
    """Exact value layers and final-state distribution of a fixed policy.

    Backward from ``V_{T+1} = -cost``: ``V_t(x) = V_{t+1}(x) + sum_s p_s(d)
    (r + d_s + V_{t+1}(x + e_s) - V_{t+1}(x))`` at the policy's prices d.
    Forward from the empty state, the distribution moves to ``x + e_s`` with
    probability ``p_s`` and stays otherwise. Returns ``(values, final)``,
    where ``values[t - 1]`` is V_t for t = 1 .. horizon + 1.
    """
    rate = scenario.arrival_rate if arrival_rate is None else arrival_rate
    lat = scenario.lattice
    states = sp.enumerate_states(scenario)
    horizon = scenario.horizon
    steps = [
        [
            (prices, _slot_probabilities(scenario, prices, rate))
            for prices in (policy.prices[t, lat.index(x)].tolist() for x in states)
        ]
        for t in range(horizon)
    ]
    values = np.empty((horizon + 1, len(states)))
    values[horizon] = [-sp.cost(scenario, x) for x in states]
    for t in reversed(range(horizon)):
        nxt = values[t + 1]
        for ix, (x, (prices, probs)) in enumerate(zip(states, steps[t])):
            values[t, ix] = nxt[ix] + sum(
                p * (scenario.net_revenue + prices[s] + nxt[lat.index(_bump(x, s + 1))] - nxt[ix])
                for s, p in enumerate(probs)
                if p > 0.0
            )
    final = np.zeros(len(states))
    final[lat.index((0,) * scenario.n_slots)] = 1.0
    for t in range(horizon):
        moved = np.zeros(len(states))
        for ix, (x, (_, probs)) in enumerate(zip(states, steps[t])):
            moved[ix] += final[ix] * (1.0 - sum(probs))
            for s, p in enumerate(probs):
                if p > 0.0:
                    moved[lat.index(_bump(x, s + 1))] += final[ix] * p
        final = moved
    return values, final


def random_table_cost_scenario(rng: np.random.Generator, horizon: int = 2) -> sp.Scenario:
    """A random 1- to 4-slot scenario with a tabulated delivery cost.

    The table is an affine cost plus nonnegative pairwise products, plus, on
    about half the draws, noise large enough to break both the marginal
    profit ceiling and supermodularity; so some draws have violations and a
    zero arrival-rate bound, and others a positive bound.
    """
    n_slots = int(rng.integers(1, 5))
    caps = tuple(int(c) for c in rng.integers(1, 4, n_slots))
    x = sp.StateLattice(caps).states_array.astype(float)
    pairs = np.triu(rng.uniform(0.0, 1.0, (n_slots, n_slots)), 1)
    table = 2.0 + x @ rng.uniform(0.0, 1.5, n_slots) + np.einsum("ij,ni,nj->n", pairs, x, x)
    if rng.random() < 0.5:
        table += rng.uniform(0.0, 8.0, len(table))
    return sp.Scenario(
        arrival_rate=0.5,
        horizon=horizon,
        price_min=0.0,
        price_max=2.0,
        net_revenue=1.0,
        beta_const=1.0,
        beta_price=-1.0,
        slot_betas=tuple(float(b) for b in rng.uniform(-1.0, 1.0, n_slots)),
        capacities=caps,
        cost=sp.TableCost(tuple(table.tolist())),
    )


def clamped_three_slot_scenario() -> sp.Scenario:
    """Three slots of capacity 3 whose stages mostly clamp to the price box."""
    return sp.Scenario(
        arrival_rate=0.5,
        horizon=8,
        price_min=0.0,
        price_max=2.0,
        net_revenue=1.0,
        beta_const=1.0,
        beta_price=-1.0,
        slot_betas=(1.0, 0.0, -1.0),
        capacities=(3, 3, 3),
        cost=sp.AffineCost(intercept=2.0, coefficients=(1.0, 1.5, 2.0)),
    )


def random_policy(scenario: sp.Scenario, rng: np.random.Generator) -> sp.PricePolicy:
    """A hand-built policy: uniform in-box prices per (step, state, slot),
    with about a quarter of the feasible slots closed at random."""
    closed = sp.PricePolicy.all_closed(scenario)
    feasible = scenario.lattice.states_array < np.asarray(scenario.capacities)
    shape = closed.prices.shape
    prices = rng.uniform(scenario.price_min, scenario.price_max, shape)
    prices[~feasible[np.newaxis] | (rng.random(shape) < 0.25)] = np.nan
    return sp.PricePolicy(prices, closed.values, closed.interior, closed.fingerprint)


def random_scenario(rng: np.random.Generator, horizon: int = 3) -> sp.Scenario:
    """A random small scenario whose marginal costs never exceed the ceiling."""
    n_slots = int(rng.integers(1, 4))
    caps = tuple(int(c) for c in rng.integers(1, 4, n_slots))
    price_min = float(rng.uniform(0.0, 0.5))
    price_max = price_min + float(rng.uniform(0.5, 2.5))
    net_revenue = float(rng.uniform(0.3, 2.0))
    ceiling = price_max + net_revenue
    return sp.Scenario(
        arrival_rate=float(rng.uniform(0.05, 0.9)),
        horizon=horizon,
        price_min=price_min,
        price_max=price_max,
        net_revenue=net_revenue,
        beta_const=float(rng.uniform(-1.5, 1.5)),
        beta_price=float(-rng.uniform(0.3, 2.0)),
        slot_betas=tuple(float(b) for b in rng.uniform(-1.5, 1.5, n_slots)),
        capacities=caps,
        cost=sp.AffineCost(
            intercept=float(rng.uniform(0.0, 3.0)),
            coefficients=tuple(float(c) for c in rng.uniform(0.0, ceiling, n_slots)),
        ),
    )


def supermodular_scenario(arrival_rate: float = 0.5, horizon: int = 10) -> sp.Scenario:
    """Two slots, capacities (2, 2), table cost x1*x2 + x1 + 2*x2 + 2."""
    lat = sp.StateLattice((2, 2))
    values = []
    for ix in range(lat.n_states):
        x1, x2 = lat.state(ix)
        values.append(float(x1 * x2 + x1 + 2 * x2 + 2))
    return sp.Scenario(
        arrival_rate=arrival_rate,
        horizon=horizon,
        price_min=0.0,
        price_max=2.0,
        net_revenue=1.0,
        beta_const=1.0,
        beta_price=-1.0,
        slot_betas=(1.0, -1.0),
        capacities=(2, 2),
        cost=sp.TableCost(tuple(values)),
    )
