"""One benchmark process: set up, run a workload's command sequence, check it.

Started by ``run.py`` in a fresh interpreter whose ``PYTHONPATH`` is the
absolute ``src`` directory and whose working directory holds the workload's
``scenario.json``. Modes:

* ``setup``: import slotpricing, load the scenario, time the first
  ``states_array`` access, exit.
* ``pass``: run the command sequence once with tracing off, then check the
  outputs (untimed). ``reference_seconds`` runs before every step and after
  the last one, so the driver can tell how fast the machine ran.
* ``trace``: as ``pass``, but every name ``slotpricing.cli`` imports from
  ``model``, ``dp``, ``analysis`` and ``sim`` is wrapped in a span and
  ``slotpricing.pricing.lambert_w0`` is counted; afterwards public functions
  are timed directly to give the per-layer metrics.

The last line of stdout is one JSON object for ``run.py``. ``setup_done`` is
read from CLOCK_MONOTONIC, which every process on the host shares, so the
driver can subtract its own spawn time from it.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import inspect
import io
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
import warnings
from array import array

import workloads as wl

import numpy as np

import slotpricing as sp
from slotpricing import cli

# Layers whose functions the CLI imports; their spans give the per-layer times.
TRACED_MODULES = ("model", "dp", "analysis", "sim")
STAGE_SAMPLE = 2000
LAMBERTW_SAMPLE = 20_000
CHECK_STAGES = 20
CHECK_PRICES_PER_STAGE = 50
Z_LIMIT = 4.0
SANDWICH_TOL = 1e-9


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


_REF_IN = np.linspace(0.0, 1.0, 32768 * 8).reshape(32768, 8)
_REF_OUT = np.empty_like(_REF_IN)


def reference_seconds() -> float:
    """Time a fixed piece of work that does not use slotpricing.

    It mixes what the program does: scalar float math with dict traffic, as
    in the stage solver, and whole-array numpy passes, as in the simulator. The arrays are preallocated, so the time does not depend on
    what the allocator kept from earlier steps. Its duration tracks how fast
    the machine runs at the moment.
    """
    t0 = time.perf_counter()
    acc, table = 0.0, {}
    for i in range(80_000):
        x = math.exp(-(i % 50) * 0.01) * (1.0 + i % 7)
        table[i % 997] = x
        acc += math.log1p(x)
    for _ in range(20):
        np.multiply(_REF_IN, 0.5, out=_REF_OUT)
        np.cumsum(_REF_OUT, axis=1, out=_REF_OUT)
        acc += float(_REF_OUT[:, -1].sum())
    return time.perf_counter() - t0


class Tracer:
    """In-memory spans: (name, start_ns, end_ns, parent index, run id)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.last: dict[str, object] = {}

    def call(self, name: str, fn, *args, **kwargs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter_ns(), None, parent, self.run_id]
        self.spans.append(record)
        self._stack.append(index)
        try:
            out = fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter_ns()
            self._stack.pop()
        self.last[name] = out
        return out

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def total_s(self, name: str, parent: str | None = None) -> float:
        """Summed duration of spans ``name``, optionally only those directly under ``parent``."""
        return sum(
            s[2] - s[1]
            for s in self.spans
            if s[0] == name and (parent is None or (s[3] is not None and self.spans[s[3]][0] == parent))
        ) / 1e9

    def self_s(self, name: str) -> float:
        """Span time of ``name`` minus the part its child spans cover."""
        total = 0
        for i, (n, start, end, _, _) in enumerate(self.spans):
            if n != name:
                continue
            covered, reach = 0, start
            children = sorted((s[1], s[2]) for s in self.spans if s[3] == i)
            for c_start, c_end in children:
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            total += end - start - covered
        return total / 1e9

    def dump(self, path: str) -> None:
        keys = ("name", "start_ns", "end_ns", "parent", "run_id")
        with open(path, "w") as f:
            json.dump([dict(zip(keys, s)) for s in self.spans], f)


def _install_tracing(tracer: Tracer) -> array:
    """Wrap the CLI's layer imports in spans; count pricing's Lambert W calls."""
    for name, obj in list(vars(cli).items()):
        module = getattr(obj, "__module__", "") or ""
        layer = module.rpartition(".")[2]
        if inspect.isfunction(obj) and module.startswith("slotpricing.") and layer in TRACED_MODULES:
            setattr(cli, name, tracer.wrap(f"{layer}.{name}", obj))
    recorded = array("d")
    inner = getattr(sp.pricing, "lambert_w0", None)
    if inner is not None:
        def counted(y):
            recorded.append(y)
            return inner(y)

        sp.pricing.lambert_w0 = counted
    return recorded


def _load_values(scenario) -> np.ndarray:
    """values.csv as a (horizon + 1, n_states) table in lattice index order."""
    data = np.loadtxt(wl.VALUES_CSV, delimiter=",", skiprows=1, ndmin=2)
    return data[:, -1].reshape(scenario.horizon + 1, scenario.lattice.n_states)


def _load_policy(scenario) -> np.ndarray:
    """policy.csv as a dense (horizon, n_states, n_slots) table, NaN when closed."""
    lat = scenario.lattice
    prices = np.full((scenario.horizon, lat.n_states, scenario.n_slots), np.nan)
    data = np.loadtxt(wl.POLICY_CSV, delimiter=",", skiprows=1, ndmin=2)
    if len(data):
        cols = data.astype(np.int64)
        t, slot = cols[:, 0], cols[:, -2]
        ix = cols[:, 1:-2] @ np.asarray(lat.strides, dtype=np.int64)
        prices[t - 1, ix, slot - 1] = data[:, -1]
    return prices


def _push_policy_out_of_box(scenario) -> None:
    """Negative control: rewrite the first policy row's price above price_max."""
    with open(wl.POLICY_CSV) as f:
        lines = f.readlines()
    head, _, _ = lines[1].rstrip("\n").rpartition(",")
    lines[1] = f"{head},{scenario.price_max + 1.0!r}\n"
    with open(wl.POLICY_CSV, "w") as f:
        f.writelines(lines)


def _field(text: str, key: str) -> str:
    """The token after ``key`` in captured command output."""
    return text.split(key, 1)[1].split()[0]


def _run_step(label, argv, scenario, tracer, corrupt):
    """Run one step; return its seconds, exit code and output.

    The output of a CLI command is its captured stdout; the library step
    returns its PricePolicy.
    """
    out, err = io.StringIO(), io.StringIO()
    if argv is None:
        table = _load_values(scenario)
        vf = sp.ValueFunction(values=table, fingerprint=scenario.fingerprint())
        call = functools.partial(sp.policy_from_values, scenario, vf)
        name = f"sim.{label}"
    else:
        if label == "concavity" and corrupt == "concavity":
            argv = argv + wl.CORRUPT_CONCAVITY
        call = functools.partial(cli.main, argv)
        name = f"cli.{label.replace('-', '_')}"
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            result = tracer.call(name, call) if tracer else call()
        code = 0 if argv is None else result
    except Exception:
        traceback.print_exc(file=sys.stderr)
        code, result = -1, None
    seconds = time.perf_counter() - t0
    if label == "solve" and corrupt == "policy":
        _push_policy_out_of_box(scenario)
    return seconds, code, (result if argv is None else out.getvalue())


def _checks(name, seed, scenario, stdout) -> list:
    """Correctness checks on the pass's outputs; each is (name, ok, detail)."""
    results = []

    def check(label, fn):
        try:
            ok, detail = fn()
        except Exception as exc:
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        results.append([label, bool(ok), str(detail)])

    lo, hi = scenario.price_min, scenario.price_max
    try:
        values = _load_values(scenario)
        prices = _load_policy(scenario)
    except (OSError, ValueError) as exc:
        return [["outputs_parse", False, f"{type(exc).__name__}: {exc}"]]

    def in_box():
        offered = prices[~np.isnan(prices)]
        ok = bool(np.all((offered >= lo) & (offered <= hi)) and np.all(np.isfinite(values)))
        return ok, f"{offered.size} prices in [{lo}, {hi}], values finite"

    def sandwich():
        terminal = sp.terminal_values(scenario)
        stationary = sp.fixed_point(scenario)
        tol = SANDWICH_TOL * np.maximum(1.0, np.abs(stationary))
        ok = bool(np.all(values >= terminal - tol) and np.all(values <= stationary + tol))
        return ok, "terminal <= V_t <= fixed_point on every layer"

    def monte_carlo():
        z = float(_field(stdout["simulate"], "z="))
        return z <= Z_LIMIT, f"z={z!r}"

    def stage_dominates_sample():
        rng = np.random.default_rng(seed)
        lat = scenario.lattice
        caps = np.asarray(scenario.capacities)
        worst = np.inf
        for _ in range(CHECK_STAGES):
            t = int(rng.integers(1, scenario.horizon + 1))
            ix = int(rng.integers(lat.n_states))
            state = lat.state(ix)
            feasible = np.asarray(state) < caps
            best = -np.inf
            for _ in range(CHECK_PRICES_PER_STAGE):
                draw = rng.uniform(lo, hi, scenario.n_slots)
                open_ = feasible & (rng.random(scenario.n_slots) < 0.8)
                vector = [float(d) if o else None for d, o in zip(draw, open_)]
                best = max(best, sp.stage_objective(scenario, state, vector, values[t]))
            worst = min(worst, values[t - 1, ix] - best)
        return worst >= -SANDWICH_TOL, f"min(V - best sampled) = {worst!r}"

    def residual():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            r = sp.bellman_residual(scenario, sp.fixed_point(scenario))
        return r <= 1e-12, f"residual {r!r}"

    check("outputs_in_box_and_finite", in_box)
    if not sp.marginal_profit_violations(scenario):
        check("values_between_terminal_and_fixed_point", sandwich)
    check("simulate_mean_within_4_std_errors", monte_carlo)
    check("stage_value_dominates_sampled_prices", stage_dominates_sample)
    check("fixed_point_residual", residual)
    if name == "example":
        builtin = sp.load_scenario(cli.EXAMPLE_SCENARIO)
        check("example_is_builtin",
              lambda: (builtin.fingerprint() == scenario.fingerprint(), "fingerprints"))

        def seed_commit():
            v1 = float(values[0, 0])
            eps = float(_field(stdout["concavity"], "min epsilon:"))
            nonneg = _field(stdout["concavity"], "all nonnegative:") == "true"
            ok = (abs(v1 - wl.EXAMPLE_V1) <= 1e-9
                  and abs(eps - wl.EXAMPLE_MIN_EPSILON) <= 1e-9 and nonneg)
            return ok, f"v1={v1!r} min_epsilon={eps!r} all_nonnegative={nonneg}"

        check("example_matches_seed_commit", seed_commit)

        def reproduces():
            again = stdout["policy_from_values"].prices
            return np.array_equal(again, prices, equal_nan=True), "prices equal to policy.csv"

        check("policy_from_values_reproduces_solve", reproduces)
    return results


def _percentile(samples, q):
    return float(np.percentile(np.asarray(samples), q))


def _time_direct(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _layers(seed, scenario, tracer, recorded, solve_calls, stdout):
    """Per-layer metrics from the traced pass plus direct timings of public functions."""
    values, policy = tracer.last["dp.solve_horizon"]
    notes = {}
    horizon = scenario.horizon
    stages = ~np.all(np.isnan(policy.prices), axis=2)
    n_stages = int(stages.sum())
    interior = policy.interior[stages]

    lo, hi = solve_calls
    calls = hi - lo
    sample = np.asarray(recorded[lo:hi])
    if sample.size == 0:  # the solver no longer calls the scalar function
        sample = np.logspace(-6, 6, LAMBERTW_SAMPLE)
    rng = np.random.default_rng(seed)
    if sample.size > LAMBERTW_SAMPLE:
        sample = rng.choice(sample, LAMBERTW_SAMPLE, replace=False)
    args = sample.tolist()
    lw = sp.lambert_w0
    per_call = _time_direct(lambda: [lw(y) for y in args], 5) / len(args)

    t_idx, s_idx = np.nonzero(stages)
    pick = rng.choice(n_stages, min(STAGE_SAMPLE, n_stages), replace=False)
    stage_us, kinds = [], []
    lat = scenario.lattice
    for k in pick:
        t, ix = int(t_idx[k]) + 1, int(s_idx[k])
        state = lat.state(ix)
        v_next = values.layer(t + 1)
        t0 = time.perf_counter_ns()
        sp.solve_stage(scenario, state, v_next)
        stage_us.append((time.perf_counter_ns() - t0) / 1e3)
        kinds.append(bool(policy.interior[t - 1, ix]))
    for kind, flag in (("interior", True), ("clamped", False)):
        subset = [u for u, k in zip(stage_us, kinds) if k == flag]
        if subset:
            notes[f"pricing.{kind}_stage_us_p50"] = (_percentile(subset, 50), "us")

    layer_ms = []
    for t in range(1, horizon + 1):
        v = values.layer(t + 1)
        t0 = time.perf_counter()
        sp.bellman_apply(scenario, v)
        layer_ms.append((time.perf_counter() - t0) * 1e3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        fixed_ms = _time_direct(lambda: sp.fixed_point(scenario), 5) * 1e3
        stationary = sp.fixed_point(scenario)
    residual_ms = _time_direct(lambda: sp.bellman_residual(scenario, stationary), 3) * 1e3
    pfv_s = _time_direct(lambda: sp.policy_from_values(scenario, values), 1)

    solve_horizon_s = tracer.total_s("dp.solve_horizon", parent="cli.solve")
    csv_rows = sum(_data_rows(f) for f in (wl.VALUES_CSV, wl.POLICY_CSV))
    reps = int(_field(stdout["simulate"], "reps="))
    sim_s = tracer.total_s("sim.simulate", parent="cli.simulate")
    solve_self = tracer.self_s("cli.solve")

    layers = {
        "lambertw.calls": (calls, "count"),
        "lambertw.ns_per_call": (per_call * 1e9, "ns"),
        "pricing.stages": (n_stages, "count"),
        "pricing.interior_share": (float(interior.mean()) if n_stages else 0.0, "ratio"),
        "pricing.lambertw_per_stage": (calls / n_stages if n_stages else 0.0, "ratio"),
        "pricing.stage_us_p50": (_percentile(stage_us, 50), "us"),
        "pricing.stage_us_p99": (_percentile(stage_us, 99), "us"),
        "dp.solve_horizon_s": (solve_horizon_s, "s"),
        "dp.layer_ms_p50": (_percentile(layer_ms, 50), "ms"),
        "dp.layer_ms_p95": (_percentile(layer_ms, 95), "ms"),
        "dp.stages_per_s": (n_stages / solve_horizon_s, "1/s"),
        "dp.fixed_point_ms": (fixed_ms, "ms"),
        "dp.bellman_residual_ms": (residual_ms, "ms"),
        "sim.simulate_s": (sim_s, "s"),
        "sim.step_ns": (sim_s / (reps * horizon) * 1e9, "ns"),
        "sim.policy_from_values_s": (pfv_s, "s"),
        "cli.solve_self_s": (solve_self, "s"),
        "cli.simulate_self_s": (tracer.self_s("cli.simulate"), "s"),
        "cli.csv_rows": (csv_rows, "count"),
        "cli.write_us_per_row": (solve_self / csv_rows * 1e6, "us"),
    }
    if "analysis.enumerate_enclosings" in tracer.last:
        enum_s = tracer.total_s("analysis.enumerate_enclosings")
        sweep_s = tracer.total_s("analysis.concavity_report")
        notes.update({
            "analysis.enumerate_s": (enum_s, "s"),
            "analysis.combinations": (tracer.last["analysis.enumerate_enclosings"].n_combinations,
                                      "count"),
            "analysis.sweep_s": (sweep_s, "s"),
            "analysis.sweep_layer_us": (sweep_s / horizon * 1e6, "us"),
            "cli.concavity_self_s": (tracer.self_s("cli.concavity"), "s"),
        })
    return layers, notes


def _data_rows(path: str) -> int:
    with open(path, "rb") as f:
        return sum(1 for _ in f) - 1


def _hashes() -> dict:
    out = {}
    for path in wl.DETERMINISTIC_OUTPUTS:
        if os.path.exists(path):
            with open(path, "rb") as f:
                out[path] = hashlib.sha256(f.read()).hexdigest()
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "pass", "trace"))
    parser.add_argument("--corrupt", choices=("concavity", "policy"))
    parser.add_argument("--spans", help="trace mode: write the spans here as JSON")
    args = parser.parse_args(argv)

    with open(wl.SCENARIO_FILE) as f:
        text = f.read()
    t0 = time.perf_counter()
    scenario = sp.load_scenario(text)
    load_ms = (time.perf_counter() - t0) * 1e3
    report = {"mode": args.mode, "setup_done": _now(), "load_scenario_ms": load_ms}
    if args.mode == "setup":
        t0 = time.perf_counter()
        scenario.lattice.states_array
        report["states_array_ms"] = (time.perf_counter() - t0) * 1e3
        print(json.dumps(report))
        return 0

    tracer = recorded = None
    if args.mode == "trace":
        tracer = Tracer(run_id=f"{args.workload}:{args.seed}:{os.getpid()}")
        recorded = _install_tracing(tracer)
    seconds, codes, stdout = {}, {}, {}
    solve_calls = None  # slice of the recorded Lambert W arguments made by `solve`
    reference = []
    for label, argv in wl.WORKLOADS[args.workload]["steps"](args.seed):
        reference.append(reference_seconds())
        before = len(recorded) if recorded is not None else 0
        seconds[label], codes[label], stdout[label] = _run_step(
            label, argv, scenario, tracer, args.corrupt)
        if label == "solve" and recorded is not None:
            solve_calls = (before, len(recorded))
    reference.append(reference_seconds())
    report["rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report["reference"] = reference
    report.update(seconds=seconds, codes=codes, wall_s=sum(seconds.values()))
    report["hashes"] = _hashes()
    # A failed command is already counted; its outputs are not checked.
    commands_ok = all(code == 0 for code in codes.values())
    report["checks"] = _checks(args.workload, args.seed, scenario, stdout) if commands_ok else []
    if tracer is not None:
        if commands_ok:
            layers, notes = _layers(args.seed, scenario, tracer, recorded, solve_calls, stdout)
            report["layers"], report["notes"] = layers, notes
            spec = wl.WORKLOADS[args.workload]
            low, high = spec["interior_share"]
            share = layers["pricing.interior_share"][0]
            report["checks"].append(["interior_share_in_workload_range", low <= share <= high,
                                     f"{share!r} in [{low}, {high}]"])
            if "lambertw_per_stage" in spec:
                ratio = layers["pricing.lambertw_per_stage"][0]
                report["checks"].append(["lambertw_per_stage_as_expected",
                                         ratio == spec["lambertw_per_stage"], f"{ratio!r}"])
        if args.spans:
            tracer.dump(args.spans)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
