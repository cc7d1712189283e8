"""Command-line front end.

Commands: example | solve | fixed-point | concavity | lambda-bound | prices |
simulate. Primary results go to stdout or the requested CSV files and are
byte-identical across runs with the same inputs. ``main`` reads the scenario,
runs the command and, on exit 0 only, prints a one-line JSON run manifest to
stderr with the fields ``command``, ``scenario``, ``scenario_sha256``,
``tool_version``, ``elapsed_seconds`` and ``outputs``. Each command takes the
parsed arguments and scenario and returns the paths it wrote.
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
from .model import Scenario, load_scenario, marginal_profit_violations
from .pricing import unconstrained_stage_gain
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

# --profits-csv formats this many rows at a time, so that the Python floats of
# a large run never exist all at once.
_PROFIT_ROWS = 65_536


def _fmt(value: float) -> str:
    """Shortest decimal that round-trips to the same float."""
    return repr(float(value))


def _state_header(n_slots: int) -> str:
    return ",".join(f"x_{s}" for s in range(1, n_slots + 1))


def _state_labels(scenario: Scenario) -> list[str]:
    """The CSV state columns of every lattice state, in index order."""
    return [",".join(map(str, x)) for x in scenario.lattice.states_array.tolist()]


def _csv_rows(head: str, keys: Sequence, values: list) -> str:
    """The CSV lines ``{head}{key},{value!r}`` of paired keys and Python floats.

    ``repr`` of a float is its shortest round-trip decimal, as in ``_fmt``.
    """
    return "".join([f"{head}{key},{v!r}\n" for key, v in zip(keys, values)])


def _write_values_csv(path: str, scenario: Scenario, values: ValueFunction) -> int:
    labels = _state_labels(scenario)
    with open(path, "w", newline="") as f:
        f.write(f"t,{_state_header(scenario.n_slots)},value\n")
        for t in range(1, scenario.horizon + 2):
            f.write(_csv_rows(f"{t},", labels, values.layer(t).tolist()))
    return (scenario.horizon + 1) * len(labels)


def _write_policy_csv(path: str, scenario: Scenario, policy) -> int:
    # One key per (state, slot), state-major like the flattened price layer.
    keys = np.array(
        [f"{x},{s}" for x in _state_labels(scenario) for s in range(1, scenario.n_slots + 1)],
        dtype=object,
    )
    rows = 0
    with open(path, "w", newline="") as f:
        f.write(f"t,{_state_header(scenario.n_slots)},slot,price\n")
        # One time layer at a time keeps the temporaries one layer in size.
        for t, layer in enumerate(policy.prices, start=1):
            flat = layer.ravel()
            offered = np.flatnonzero(~np.isnan(flat))
            f.write(_csv_rows(f"{t},", keys[offered].tolist(), flat[offered].tolist()))
            rows += len(offered)
    return rows


def _serialize_state(state) -> str:
    return "|".join(str(x) for x in state)


def _parse_state(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"state must be comma-separated integers, got {text!r}") from exc


def _cmd_example(args, scenario: None) -> list[str]:
    if not args.out:
        sys.stdout.write(EXAMPLE_SCENARIO)
        return []
    Path(args.out).write_text(EXAMPLE_SCENARIO)
    print(f"wrote {args.out}")
    return [args.out]


def _cmd_solve(args, scenario: Scenario) -> list[str]:
    values, policy = solve_horizon(scenario)
    n_values = _write_values_csv(args.out_values, scenario, values)
    n_policy = _write_policy_csv(args.out_policy, scenario, policy)
    print(f"wrote {args.out_values} ({n_values} rows)")
    print(f"wrote {args.out_policy} ({n_policy} rows)")
    return [args.out_values, args.out_policy]


def _cmd_fixed_point(args, scenario: Scenario) -> list[str]:
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
        f.write(_csv_rows("", labels, stationary.tolist()))
    print(f"fixed-point residual sup-norm: {_fmt(residual)}")
    print(f"wrote {args.out} ({len(labels)} rows)")
    return [args.out]


def _cmd_concavity(args, scenario: Scenario) -> list[str]:
    corrupt = (args.corrupt_t, args.corrupt_state, args.corrupt_delta)
    corrupt_ix = None
    if any(v is not None for v in corrupt):
        if any(v is None for v in corrupt):
            raise ValueError("--corrupt-t, --corrupt-state and --corrupt-delta go together")
        if not 1 <= args.corrupt_t <= scenario.horizon:
            raise ValueError(f"--corrupt-t must lie in 1..{scenario.horizon}")
        if not math.isfinite(args.corrupt_delta):
            raise ValueError(f"--corrupt-delta must be finite, got {args.corrupt_delta!r}")
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
    return [args.out]


def _cmd_lambda_bound(args, scenario: Scenario) -> list[str]:
    bound = arrival_rate_bound(scenario)
    print(f"arrival-rate bound: {_fmt(bound) if bound != float('inf') else 'inf'}")
    lam = scenario.arrival_rate
    if bound == float("inf") or lam < bound:
        print(f"scenario lambda {_fmt(lam)}: certified (below the bound)")
    elif bound == 0.0:
        print(f"scenario lambda {_fmt(lam)}: not certified (no positive bound)")
    else:
        print(f"scenario lambda {_fmt(lam)}: not certified (at or above the bound)")
    return []


def _cmd_prices(args, scenario: Scenario) -> list[str]:
    state = _parse_state(args.state)
    scenario.lattice.check(state)
    if not 1 <= args.t <= scenario.horizon:
        raise ValueError(f"--t must lie in 1..{scenario.horizon}")
    values, policy = solve_horizon(scenario)
    solution = policy.stage(scenario, args.t, state)
    state_txt = ",".join(str(x) for x in state)
    if not solution.open_slots():
        print(f"state {state_txt} at t={args.t}: all slots closed")
        print(f"stage value: {_fmt(solution.value)}")
        return []
    print(f"stage prices at t={args.t}, state {state_txt}:")
    for slot, price in enumerate(solution.prices, start=1):
        print(f"  slot {slot}: {'closed' if price is None else _fmt(price)}")
    opp = opportunity_costs(scenario, values.layer(args.t + 1), state)
    gaps = ", ".join(f"slot {s}: {_fmt(z)}" for s, z in zip(opp.slots, opp.values))
    print(f"opportunity costs: {gaps}")
    print(f"unconstrained stage gain: {_fmt(unconstrained_stage_gain(scenario, opp))}")
    print(f"interior: {'true' if solution.interior else 'false'}")
    print(f"stage value: {_fmt(solution.value)}")
    return []


def _cmd_simulate(args, scenario: Scenario) -> list[str]:
    values, policy = solve_horizon(scenario)
    result = simulate(
        scenario, policy, args.reps, args.seed, keep_profits=args.profits_csv is not None
    )
    outputs = []
    if args.profits_csv is not None:
        with open(args.profits_csv, "w", newline="") as f:
            f.write("replication,profit\n")
            for start in range(0, len(result.profits), _PROFIT_ROWS):
                block = result.profits[start : start + _PROFIT_ROWS].tolist()
                f.write(_csv_rows("", range(start, start + len(block)), block))
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
    return outputs


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
    path = getattr(args, "scenario", None)
    t0 = time.perf_counter()
    raw = scenario = None
    try:
        if path is not None:
            if not Path(path).is_file():
                raise FileNotFoundError(f"scenario file not found: {path}")
            raw = Path(path).read_bytes()
            scenario = load_scenario(raw.decode("utf-8"))
        outputs = args.func(args, scenario)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    manifest = {
        "command": args.command,
        "scenario": path,
        "scenario_sha256": None if raw is None else hashlib.sha256(raw).hexdigest(),
        "tool_version": __version__,
        "elapsed_seconds": round(time.perf_counter() - t0, 6),
        "outputs": outputs,
    }
    print(json.dumps(manifest, sort_keys=True), file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
