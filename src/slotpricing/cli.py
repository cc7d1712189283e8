"""Command-line front end.

Commands: example | solve | fixed-point | concavity | lambda-bound | prices |
simulate. Primary results go to stdout or the requested CSV files and are
byte-identical across runs with the same inputs; a JSON run manifest (command,
scenario hash, tool version, elapsed time, output paths) goes to stderr.
Exit codes: 0 success, 1 validation or solver error, 2 I/O error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
import warnings
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .analysis import arrival_rate_bound, concavity_report, enumerate_enclosings
from .dp import ValueFunction, bellman_residual, fixed_point, opportunity_costs, solve_horizon
from .model import Scenario, ScenarioError, load_scenario, marginal_profit_violations
from .pricing import solve_stage, unconstrained_stage_gain
from .sim import simulate

EXAMPLE_SCENARIO = """\
{
  "lambda": 0.5,
  "horizon": 200,
  "price_min": 0.0,
  "price_max": 2.0,
  "net_revenue": 1.0,
  "beta_const": 1.0,
  "beta_price": -1.0,
  "slots": [
    {"beta": 1.0, "capacity": 4},
    {"beta": -1.0, "capacity": 4}
  ],
  "cost": {"type": "affine", "intercept": 2.0, "coefficients": [1.0, 2.0]}
}
"""


def _fmt(value: float) -> str:
    """Shortest decimal that round-trips to the same float."""
    return repr(float(value))


def _read_scenario(path: str) -> tuple[bytes, Scenario]:
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(f"scenario file not found: {path}")
    raw = p.read_bytes()
    return raw, load_scenario(raw.decode("utf-8"))


def _emit_manifest(
    command: str,
    t0: float,
    scenario_path: Optional[str] = None,
    scenario_bytes: Optional[bytes] = None,
    outputs: Sequence[str] = (),
) -> None:
    manifest = {
        "command": command,
        "scenario": scenario_path,
        "scenario_sha256": hashlib.sha256(scenario_bytes).hexdigest()
        if scenario_bytes is not None
        else None,
        "tool_version": __version__,
        "elapsed_seconds": round(time.perf_counter() - t0, 6),
        "outputs": list(outputs),
    }
    print(json.dumps(manifest, sort_keys=True), file=sys.stderr)


def _state_header(n_slots: int) -> str:
    return ",".join(f"x_{s}" for s in range(1, n_slots + 1))


def _state_labels(scenario: Scenario) -> list[str]:
    """The CSV state columns of every lattice state, in index order."""
    return [",".join(map(str, x)) for x in scenario.lattice.states_array.tolist()]


def _write_values_csv(path: str, scenario: Scenario, values: ValueFunction) -> int:
    labels = _state_labels(scenario)
    with open(path, "w", newline="") as f:
        f.write(f"t,{_state_header(scenario.n_slots)},value\n")
        for t in range(1, scenario.horizon + 2):
            f.writelines(f"{t},{x},{_fmt(v)}\n" for x, v in zip(labels, values.layer(t).tolist()))
    return (scenario.horizon + 1) * len(labels)


def _write_policy_csv(path: str, scenario: Scenario, policy) -> int:
    labels = _state_labels(scenario)
    rows = 0
    with open(path, "w", newline="") as f:
        f.write(f"t,{_state_header(scenario.n_slots)},slot,price\n")
        # One time layer at a time keeps the temporaries one layer in size.
        for t, layer in enumerate(policy.prices, start=1):
            ix, slot = np.nonzero(~np.isnan(layer))
            prices = layer[ix, slot].tolist()
            f.writelines(
                f"{t},{labels[i]},{s + 1},{_fmt(d)}\n"
                for i, s, d in zip(ix.tolist(), slot.tolist(), prices)
            )
            rows += len(prices)
    return rows


def _serialize_state(state) -> str:
    return "|".join(str(x) for x in state)


def _parse_state(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"state must be comma-separated integers, got {text!r}") from exc


def _cmd_example(args) -> int:
    t0 = time.perf_counter()
    outputs = []
    if args.out:
        Path(args.out).write_text(EXAMPLE_SCENARIO)
        print(f"wrote {args.out}")
        outputs.append(args.out)
    else:
        sys.stdout.write(EXAMPLE_SCENARIO)
    _emit_manifest("example", t0, outputs=outputs)
    return 0


def _cmd_solve(args) -> int:
    t0 = time.perf_counter()
    raw, scenario = _read_scenario(args.scenario)
    values, policy = solve_horizon(scenario)
    n_values = _write_values_csv(args.out_values, scenario, values)
    n_policy = _write_policy_csv(args.out_policy, scenario, policy)
    print(f"wrote {args.out_values} ({n_values} rows)")
    print(f"wrote {args.out_policy} ({n_policy} rows)")
    _emit_manifest(
        "solve", t0, args.scenario, raw, outputs=[args.out_values, args.out_policy]
    )
    return 0


def _cmd_fixed_point(args) -> int:
    t0 = time.perf_counter()
    raw, scenario = _read_scenario(args.scenario)
    violations = marginal_profit_violations(scenario)
    if violations:
        print(
            f"warning: {len(violations)} state/slot pairs have marginal cost above "
            "price_max + net_revenue; the emitted values may not be stationary"
        )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        stationary = fixed_point(scenario)
    residual = bellman_residual(scenario, stationary)
    labels = _state_labels(scenario)
    with open(args.out, "w", newline="") as f:
        f.write(f"{_state_header(scenario.n_slots)},value\n")
        f.writelines(f"{x},{_fmt(v)}\n" for x, v in zip(labels, stationary.tolist()))
    print(f"fixed-point residual sup-norm: {_fmt(residual)}")
    print(f"wrote {args.out} ({len(labels)} rows)")
    _emit_manifest("fixed-point", t0, args.scenario, raw, outputs=[args.out])
    return 0


def _cmd_concavity(args) -> int:
    t0 = time.perf_counter()
    raw, scenario = _read_scenario(args.scenario)
    corrupt = (args.corrupt_t, args.corrupt_state, args.corrupt_delta)
    corrupt_ix = None
    if any(v is not None for v in corrupt):
        if any(v is None for v in corrupt):
            raise ValueError("--corrupt-t, --corrupt-state and --corrupt-delta go together")
        if not 1 <= args.corrupt_t <= scenario.horizon:
            raise ValueError(f"--corrupt-t must lie in 1..{scenario.horizon}")
        corrupt_ix = scenario.lattice.index(_parse_state(args.corrupt_state))
    # Enumerate before solving, so that a lattice above the limit fails fast.
    enclosings = enumerate_enclosings(scenario)
    values, _ = solve_horizon(scenario)
    if corrupt_ix is not None:
        bumped = values.values.copy()
        bumped[args.corrupt_t - 1, corrupt_ix] += args.corrupt_delta
        bumped.flags.writeable = False
        values = ValueFunction(values=bumped, fingerprint=values.fingerprint)
    report = concavity_report(scenario, values, enclosings)
    with open(args.out, "w", newline="") as f:
        f.write("t,epsilon,witness_state,witness_support\n")
        for t, eps, witness in zip(report.ts, report.epsilon, report.witnesses):
            if witness is None:
                f.write(f"{t},{_fmt(eps)},,\n")
            else:
                state, combo = witness
                support = ";".join(_serialize_state(q) for q in combo.support)
                f.write(f"{t},{_fmt(eps)},{_serialize_state(state)},{support}\n")
    n = len(report.ts)
    print(f"wrote {args.out} ({n} rows)")
    if n:
        worst = min(range(n), key=lambda i: report.epsilon[i])
        print(f"min epsilon: {_fmt(report.epsilon[worst])} at t={report.ts[worst]}")
    print(f"all nonnegative: {'true' if report.all_nonnegative else 'false'}")
    _emit_manifest("concavity", t0, args.scenario, raw, outputs=[args.out])
    return 0


def _cmd_lambda_bound(args) -> int:
    t0 = time.perf_counter()
    raw, scenario = _read_scenario(args.scenario)
    bound = arrival_rate_bound(scenario)
    print(f"arrival-rate bound: {_fmt(bound) if bound != float('inf') else 'inf'}")
    lam = scenario.arrival_rate
    if bound == float("inf") or lam < bound:
        print(f"scenario lambda {_fmt(lam)}: certified (below the bound)")
    elif bound == 0.0:
        print(f"scenario lambda {_fmt(lam)}: not certified (no positive bound)")
    else:
        print(f"scenario lambda {_fmt(lam)}: not certified (at or above the bound)")
    _emit_manifest("lambda-bound", t0, args.scenario, raw)
    return 0


def _cmd_prices(args) -> int:
    t0 = time.perf_counter()
    raw, scenario = _read_scenario(args.scenario)
    state = _parse_state(args.state)
    scenario.lattice.check(state)
    if not 1 <= args.t <= scenario.horizon:
        raise ValueError(f"--t must lie in 1..{scenario.horizon}")
    values, _ = solve_horizon(scenario)
    v_next = values.layer(args.t + 1)
    solution = solve_stage(scenario, state, v_next)
    state_txt = ",".join(str(x) for x in state)
    if not solution.open_slots():
        print(f"state {state_txt} at t={args.t}: all slots closed")
        print(f"stage value: {_fmt(solution.value)}")
        _emit_manifest("prices", t0, args.scenario, raw)
        return 0
    print(f"stage prices at t={args.t}, state {state_txt}:")
    for slot, price in enumerate(solution.prices, start=1):
        print(f"  slot {slot}: {'closed' if price is None else _fmt(price)}")
    opp = opportunity_costs(scenario, v_next, state)
    gaps = ", ".join(f"slot {s}: {_fmt(z)}" for s, z in zip(opp.slots, opp.values))
    print(f"opportunity costs: {gaps}")
    print(f"unconstrained stage gain: {_fmt(unconstrained_stage_gain(scenario, opp))}")
    print(f"interior: {'true' if solution.interior else 'false'}")
    print(f"stage value: {_fmt(solution.value)}")
    _emit_manifest("prices", t0, args.scenario, raw)
    return 0


def _cmd_simulate(args) -> int:
    t0 = time.perf_counter()
    raw, scenario = _read_scenario(args.scenario)
    values, policy = solve_horizon(scenario)
    result = simulate(
        scenario, policy, args.reps, args.seed, keep_profits=args.profits_csv is not None
    )
    outputs = []
    if args.profits_csv is not None:
        with open(args.profits_csv, "w", newline="") as f:
            f.write("replication,profit\n")
            for i, p in enumerate(result.profits):
                f.write(f"{i},{_fmt(p)}\n")
        outputs.append(args.profits_csv)
    print(
        f"simulate reps={result.replications} seed={result.seed} "
        f"mean={_fmt(result.mean_profit)} std_error={_fmt(result.std_error)} "
        f"generator={result.generator}"
    )
    v1 = float(values.layer(1)[0])
    gap = abs(result.mean_profit - v1)
    z = gap / result.std_error if result.std_error > 0 else float("inf") if gap > 0 else 0.0
    print(f"value at start v1={_fmt(v1)} |mean - v1|={_fmt(gap)} z={_fmt(z)}")
    _emit_manifest("simulate", t0, args.scenario, raw, outputs=outputs)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slotpricing",
        description="Finite-horizon delivery slot pricing: solve, verify, simulate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--scenario", required=True, help="path to a scenario JSON file")

    p = sub.add_parser("example", help="print the built-in two-slot example scenario")
    p.add_argument("--out", help="write the scenario here instead of stdout")
    p.set_defaults(func=_cmd_example)

    p = sub.add_parser("solve", help="backward induction; write value and policy CSVs")
    add_common(p)
    p.add_argument("--out-values", default="values.csv")
    p.add_argument("--out-policy", default="policy.csv")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("fixed-point", help="emit the stationary values and their residual")
    add_common(p)
    p.add_argument("--out", default="fixed_point.csv")
    p.set_defaults(func=_cmd_fixed_point)

    p = sub.add_parser("concavity", help="solve and emit the per-step concavity margins")
    add_common(p)
    p.add_argument("--out", default="epsilon.csv")
    p.add_argument("--corrupt-t", type=int, help="test hook: bump one value at this step")
    p.add_argument("--corrupt-state", help="test hook: state to bump, comma-separated")
    p.add_argument("--corrupt-delta", type=float, help="test hook: size of the bump")
    p.set_defaults(func=_cmd_concavity)

    p = sub.add_parser("lambda-bound", help="largest certified arrival rate")
    add_common(p)
    p.set_defaults(func=_cmd_lambda_bound)

    p = sub.add_parser("prices", help="stage prices for one time step and state")
    add_common(p)
    p.add_argument("--t", type=int, required=True, help="booking step, 1-based")
    p.add_argument("--state", required=True, help="comma-separated order counts")
    p.set_defaults(func=_cmd_prices)

    p = sub.add_parser("simulate", help="solve, then Monte Carlo the optimal policy")
    add_common(p)
    p.add_argument("--reps", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--profits-csv", help="also write per-replication profits here")
    p.set_defaults(func=_cmd_simulate)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ScenarioError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OverflowError:
        print(
            "error: a logit utility exceeds the float range (exp argument above "
            f"{math.log(sys.float_info.max):.2f}); check beta_const, the slot betas, "
            "beta_price and the price box",
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
