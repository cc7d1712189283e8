import csv
import hashlib
import io
import json
import math

import numpy as np
import pytest

import slotpricing as sp
from slotpricing import cli
from slotpricing.cli import EXAMPLE_SCENARIO, main

from oracles import clamped_three_slot_scenario, supermodular_scenario


@pytest.fixture()
def scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(EXAMPLE_SCENARIO)
    return str(path)


@pytest.fixture()
def short_scenario_file(tmp_path):
    doc = json.loads(EXAMPLE_SCENARIO)
    doc["horizon"] = 12
    path = tmp_path / "short.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _read_csv(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def test_example_round_trip(capsys):
    assert main(["example"]) == 0
    out = capsys.readouterr().out
    scenario = sp.load_scenario(out)
    assert scenario.horizon == 200 and scenario.arrival_rate == 0.5
    assert main(["example"]) == 0
    again = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == hashlib.sha256(again.encode()).hexdigest()


def test_example_writes_file(tmp_path, capsys):
    out = tmp_path / "tab.json"
    assert main(["example", "--out", str(out)]) == 0
    capsys.readouterr()
    assert sp.load_scenario(out.read_text()).capacities == (4, 4)


def test_solve_outputs(scenario_file, tmp_path, capsys):
    values_csv = str(tmp_path / "values.csv")
    policy_csv = str(tmp_path / "policy.csv")
    code = main(
        ["solve", "--scenario", scenario_file, "--out-values", values_csv, "--out-policy", policy_csv]
    )
    assert code == 0
    capsys.readouterr()
    rows = _read_csv(values_csv)
    assert len(rows) == 201 * 25 == 5025
    terminal_origin = [r for r in rows if r["t"] == "201" and r["x_1"] == "0" and r["x_2"] == "0"]
    assert terminal_origin[0]["value"] == "-2.0"
    policy_rows = _read_csv(policy_csv)
    # every (t, state) with a feasible slot appears once per open slot
    assert len(policy_rows) == 200 * (25 * 2 - 5 - 5)
    assert {r["slot"] for r in policy_rows} == {"1", "2"}


def test_solve_csvs_parse_back_to_the_tables(tmp_path, capsys):
    scenario = clamped_three_slot_scenario()
    path = tmp_path / "clamped.json"
    path.write_text(scenario.to_json())
    values_csv, policy_csv = str(tmp_path / "values.csv"), str(tmp_path / "policy.csv")
    assert main(["solve", "--scenario", str(path), "--out-values", values_csv,
                 "--out-policy", policy_csv]) == 0
    capsys.readouterr()
    values, policy = sp.solve_horizon(scenario)
    lat = scenario.lattice
    n = scenario.n_slots

    rows = _read_csv(values_csv)
    keys = [(int(r["t"]), lat.index([int(r[f"x_{s}"]) for s in range(1, n + 1)])) for r in rows]
    assert keys == [(t, ix) for t in range(1, scenario.horizon + 2) for ix in range(lat.n_states)]
    parsed = np.array([float(r["value"]) for r in rows]).reshape(values.values.shape)
    assert np.array_equal(parsed, values.values)

    rows = _read_csv(policy_csv)
    keys = [
        (int(r["t"]), lat.index([int(r[f"x_{s}"]) for s in range(1, n + 1)]), int(r["slot"]))
        for r in rows
    ]
    assert keys == sorted(set(keys))
    dense = np.full(policy.prices.shape, np.nan)
    for (t, ix, slot), r in zip(keys, rows):
        dense[t - 1, ix, slot - 1] = float(r["price"])
    assert np.array_equal(dense, policy.prices, equal_nan=True)


def _csv_module_text(header, rows):
    """CSV text written by the csv module, which formats floats with repr."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


@pytest.mark.parametrize(
    "scenario",
    [sp.load_scenario(EXAMPLE_SCENARIO), clamped_three_slot_scenario()],
    ids=["example", "clamped"],
)
def test_csv_bytes_match_the_csv_module(scenario, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    # Seven profit rows per write, so that 40 replications span six writes.
    monkeypatch.setattr(cli, "_PROFIT_ROWS", 7)
    (tmp_path / "s.json").write_text(scenario.to_json())
    assert main(["solve", "--scenario", "s.json"]) == 0
    assert main(["fixed-point", "--scenario", "s.json"]) == 0
    argv = ["simulate", "--scenario", "s.json", "--reps", "40", "--seed", "3"]
    assert main(argv + ["--profits-csv", "profits.csv"]) == 0
    stdout = capsys.readouterr().out

    values, policy = sp.solve_horizon(scenario)
    states = scenario.lattice.states_array.tolist()
    xs = [f"x_{s}" for s in range(1, scenario.n_slots + 1)]
    value_rows = [
        [t, *x, float(v)]
        for t, layer in enumerate(values.values, start=1)
        for x, v in zip(states, layer)
    ]
    policy_rows = [
        [t, *x, slot, float(d)]
        for t, layer in enumerate(policy.prices, start=1)
        for x, row in zip(states, layer)
        for slot, d in enumerate(row, start=1)
        if not math.isnan(d)
    ]
    fixed_rows = [[*x, float(v)] for x, v in zip(states, sp.fixed_point(scenario))]
    profits = sp.simulate(scenario, policy, 40, 3, keep_profits=True).profits
    expected = {
        "values.csv": _csv_module_text(["t", *xs, "value"], value_rows),
        "policy.csv": _csv_module_text(["t", *xs, "slot", "price"], policy_rows),
        "fixed_point.csv": _csv_module_text([*xs, "value"], fixed_rows),
        "profits.csv": _csv_module_text(
            ["replication", "profit"], [[i, float(p)] for i, p in enumerate(profits)]
        ),
    }
    for name, text in expected.items():
        assert (tmp_path / name).read_bytes() == text.encode(), name
    for name, rows in [("values.csv", value_rows), ("policy.csv", policy_rows),
                       ("fixed_point.csv", fixed_rows)]:
        assert f"wrote {name} ({len(rows)} rows)" in stdout


def test_fixed_point_output(scenario_file, tmp_path, capsys):
    out = str(tmp_path / "fp.csv")
    assert main(["fixed-point", "--scenario", scenario_file, "--out", out]) == 0
    stdout = capsys.readouterr().out
    assert "fixed-point residual sup-norm: 0.0" in stdout
    rows = _read_csv(out)
    assert len(rows) == 25
    for row in rows:
        expected = 10.0 - 3.0 * (int(row["x_1"]) + int(row["x_2"]))
        assert float(row["value"]) == expected


def test_fixed_point_warns_on_unprofitable_margins(tmp_path, capsys):
    doc = json.loads(EXAMPLE_SCENARIO)
    doc["cost"]["coefficients"] = [1.0, 5.0]
    doc["horizon"] = 3
    path = tmp_path / "steep.json"
    path.write_text(json.dumps(doc))
    out = str(tmp_path / "fp.csv")
    assert main(["fixed-point", "--scenario", str(path), "--out", out]) == 0
    stdout = capsys.readouterr().out
    assert "warning:" in stdout
    assert len(_read_csv(out)) == 25


def test_concavity_output_and_witnesses(short_scenario_file, tmp_path, capsys):
    out = str(tmp_path / "eps.csv")
    assert main(["concavity", "--scenario", short_scenario_file, "--out", out]) == 0
    capsys.readouterr()
    rows = _read_csv(out)
    assert len(rows) == 12
    scenario = sp.load_scenario(open(short_scenario_file).read())
    values, _ = sp.solve_horizon(scenario)
    lat = scenario.lattice
    enclosings = sp.enumerate_enclosings(scenario)
    for row in rows:
        assert float(row["epsilon"]) >= -1e-9
        state = tuple(int(v) for v in row["witness_state"].split("|"))
        support = [tuple(int(v) for v in q.split("|")) for q in row["witness_support"].split(";")]
        layer = values.layer(int(row["t"]))
        # unique convex weights of the support reproduce the reported margin
        combos = [c for c in enclosings[state] if set(c.support) == set(support)]
        assert combos
        interp = sum(w * layer[lat.index(q)] for w, q in zip(combos[0].weights, combos[0].support))
        assert float(row["epsilon"]) == pytest.approx(layer[lat.index(state)] - interp, abs=1e-10)


def test_concavity_corruption_hook(short_scenario_file, tmp_path, capsys):
    out = str(tmp_path / "eps.csv")
    code = main(
        [
            "concavity",
            "--scenario",
            short_scenario_file,
            "--out",
            out,
            "--corrupt-t",
            "6",
            "--corrupt-state",
            "2,2",
            "--corrupt-delta",
            "10.0",
        ]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    rows = _read_csv(out)
    assert any(float(r["epsilon"]) < 0.0 for r in rows)
    assert "all nonnegative: false" in stdout


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("delta", ["inf", "nan"])
def test_concavity_rejects_a_non_finite_corruption(short_scenario_file, tmp_path, capsys, delta):
    out = str(tmp_path / "eps.csv")
    argv = ["concavity", "--scenario", short_scenario_file, "--out", out,
            "--corrupt-t", "6", "--corrupt-state", "2,2", "--corrupt-delta", delta]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"error: --corrupt-delta must be finite, got {float(delta)!r}" in err
    assert "Traceback" not in err


def test_lambda_bound_command(scenario_file, tmp_path, capsys):
    assert main(["lambda-bound", "--scenario", scenario_file]) == 0
    stdout = capsys.readouterr().out
    assert "arrival-rate bound: 0.0" in stdout
    assert "not certified" in stdout

    sup = supermodular_scenario()
    sup_path = tmp_path / "sup.json"
    sup_path.write_text(sup.to_json())
    assert main(["lambda-bound", "--scenario", str(sup_path)]) == 0
    stdout = capsys.readouterr().out
    bound = sp.arrival_rate_bound(sup)
    assert f"arrival-rate bound: {bound!r}" in stdout
    assert "not certified" in stdout  # 0.5 is above the bound

    certified = sup_path.read_text().replace('"lambda":0.5', f'"lambda":{bound / 2.0!r}')
    sup_path.write_text(certified)
    assert main(["lambda-bound", "--scenario", str(sup_path)]) == 0
    assert "certified (below the bound)" in capsys.readouterr().out


def test_prices_command(scenario_file, capsys):
    assert main(["prices", "--scenario", scenario_file, "--t", "1", "--state", "4,4"]) == 0
    stdout = capsys.readouterr().out
    assert "all slots closed" in stdout

    assert main(["prices", "--scenario", scenario_file, "--t", "1", "--state", "0,0"]) == 0
    stdout = capsys.readouterr().out
    # at t=1 the next-step values are close to stationary, so prices sit at the cap
    assert "slot 1: 2.0" in stdout and "slot 2: 2.0" in stdout
    assert "interior: false" in stdout

    assert main(["prices", "--scenario", scenario_file, "--t", "200", "--state", "0,0"]) == 0
    stdout = capsys.readouterr().out
    assert "slot 1: 2.0" in stdout
    assert "opportunity costs: slot 1: 1.0, slot 2: 2.0" in stdout
    assert "stage value: -1.5" in stdout


def test_prices_command_validation(scenario_file, capsys):
    assert main(["prices", "--scenario", scenario_file, "--t", "0", "--state", "0,0"]) == 1
    assert main(["prices", "--scenario", scenario_file, "--t", "1", "--state", "9,9"]) == 1
    assert main(["prices", "--scenario", scenario_file, "--t", "1", "--state", "a,b"]) == 1
    capsys.readouterr()


def test_simulate_command(short_scenario_file, tmp_path, capsys):
    profits = str(tmp_path / "profits.csv")
    code = main(
        [
            "simulate",
            "--scenario",
            short_scenario_file,
            "--reps",
            "400",
            "--seed",
            "42",
            "--profits-csv",
            profits,
        ]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "simulate reps=400 seed=42" in stdout
    # 12 steps against about 3 expected candidates: the per-step walk
    assert "generator=numpy.random.PCG64DXSM/steps" in stdout
    assert len(_read_csv(profits)) == 400


def test_missing_scenario_exits_two(capsys):
    assert main(["solve", "--scenario", "no/such/file.json"]) == 2
    err = capsys.readouterr().err
    assert "no/such/file.json" in err


def test_invalid_scenario_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"lambda": 2.0}')
    assert main(["lambda-bound", "--scenario", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err


_OVERFLOW_ARGS = [
    ["solve", "--out-values", "v.csv", "--out-policy", "p.csv"],
    ["fixed-point", "--out", "f.csv"],
]


def _example_with(tmp_path, beta_const, coefficients=None):
    doc = json.loads(EXAMPLE_SCENARIO)
    doc["beta_const"] = beta_const
    doc["horizon"] = 5
    if coefficients is not None:
        doc["cost"]["coefficients"] = coefficients
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    return path


# At 708.5 every weight and weight sum at the solution stays finite: the price
# of every stage is price_max, where the weights are e^707.5 and e^705.5.
# (At price_min they are e^709.5 and e^707.5, whose sum, 1.54e308, is finite
# too, but the surplus there overflows.)
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("args", _OVERFLOW_ARGS)
def test_large_but_finite_utility_solves(tmp_path, monkeypatch, capsys, args):
    path = _example_with(tmp_path, 708.5)
    monkeypatch.chdir(tmp_path)
    assert main(args + ["--scenario", str(path)]) == 0
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    scenario = sp.load_scenario(path.read_text())
    if args[0] == "fixed-point":
        residual = out.split("fixed-point residual sup-norm: ")[1].split()[0]
        assert math.isfinite(float(residual))
        assert all(math.isfinite(float(r["value"])) for r in _read_csv("f.csv"))
        return
    values, policy = sp.solve_horizon(scenario)
    parsed = np.array([float(r["value"]) for r in _read_csv("v.csv")])
    assert np.array_equal(parsed, values.values.ravel())
    assert np.isfinite(values.values).all()
    open_prices = policy.prices[~np.isnan(policy.prices)]
    assert len(open_prices) == len(_read_csv("p.csv"))
    assert np.all((scenario.price_min <= open_prices) & (open_prices <= scenario.price_max))
    for t in range(1, scenario.horizon + 1):
        for state in scenario.lattice.states():
            stage = policy.stage(scenario, t, state)
            objective = sp.stage_objective(scenario, state, stage.prices, values.layer(t + 1))
            assert stage.value == objective


# At 720 one weight overflows wherever it is priced. With marginal costs of
# 2.5, 711 keeps the closed form's weights finite but not those at price_max,
# so the stage surplus with every slot at the cap overflows.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "beta_const, coefficients",
    [pytest.param(720.0, None, id="720.0"), pytest.param(711.0, [2.5, 2.5], id="711.0-cap")],
)
@pytest.mark.parametrize("args", _OVERFLOW_ARGS)
def test_overflowing_scenario_exits_one(
    tmp_path, monkeypatch, capsys, args, beta_const, coefficients
):
    path = _example_with(tmp_path, beta_const, coefficients)
    monkeypatch.chdir(tmp_path)
    assert main(args + ["--scenario", str(path)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err
    assert "beta_const" in err
    assert "Traceback" not in err


@pytest.mark.filterwarnings("error")
def test_overflowing_lambda_bound_exits_one(tmp_path, capsys):
    doc = json.loads(EXAMPLE_SCENARIO)
    doc["beta_const"] = 720.0
    # a table cost (x1 + x2)**2 leads the bound past its early 0.0 to the slot weights
    doc["cost"] = {
        "type": "table",
        "values": [float((x1 + x2) ** 2) for x2 in range(5) for x1 in range(5)],
    }
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    assert main(["lambda-bound", "--scenario", str(path)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err
    assert "beta_const" in err
    assert "Traceback" not in err


@pytest.mark.filterwarnings("error")
def test_simulate_overflowing_profit_moments_exits_one(tmp_path, capsys):
    # a price box up to 1e300 against beta_price -1e-300 is valid and solves,
    # with prices near 1e300, but the squared deviations of the profits
    # overflow the float range
    doc = json.loads(EXAMPLE_SCENARIO)
    doc.update(horizon=5, slots=[{"beta": 1.0, "capacity": 2}], price_max=1e300, beta_price=-1e-300)
    doc["cost"] = {"type": "affine", "intercept": 2.0, "coefficients": [1.0]}
    path = tmp_path / "huge_prices.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", "--scenario", str(path), "--reps", "1000", "--seed", "1"]) == 1
    out, err = capsys.readouterr()
    assert "std_error" not in out
    lines = err.splitlines()
    assert sum(line.startswith("error:") for line in lines) == 1
    assert "float range" in err
    assert "Warning" not in err and "Traceback" not in err


def test_integer_beyond_float_range_exits_one(tmp_path, capsys):
    doc = json.loads(EXAMPLE_SCENARIO)
    doc["beta_const"] = 10**400  # json.loads keeps it an int, too large for float()
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", "--scenario", str(path)]) == 1
    err = capsys.readouterr().err
    assert "beta_const must be finite" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("args", [["solve"], ["simulate"]])
def test_horizon_beyond_memory_exits_one(tmp_path, monkeypatch, capsys, args):
    doc = json.loads(EXAMPLE_SCENARIO)
    doc["horizon"] = 10**12  # a value table of about 182 TiB
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)
    assert main(args + ["--scenario", str(path)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err
    assert "horizon 1000000000000 and 25 states" in err
    assert "Traceback" not in err


def test_negative_seed_exits_one(short_scenario_file, capsys):
    argv = ["simulate", "--scenario", short_scenario_file, "--reps", "10", "--seed", "-1"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "error: seed must be an integer" in err
    assert "got -1" in err
    assert "Traceback" not in err


def test_concavity_on_a_lattice_without_combinations(tmp_path, capsys):
    doc = json.loads(EXAMPLE_SCENARIO)
    doc["horizon"] = 5
    for slot in doc["slots"]:
        slot["capacity"] = 1
    path = tmp_path / "ones.json"
    path.write_text(json.dumps(doc))
    out = str(tmp_path / "eps.csv")
    assert main(["concavity", "--scenario", str(path), "--out", out]) == 0
    assert "Traceback" not in capsys.readouterr().err
    rows = _read_csv(out)
    assert [float(row["epsilon"]) for row in rows] == [math.inf] * 5
    assert all(row["witness_state"] == row["witness_support"] == "" for row in rows)


def test_concavity_refuses_large_lattice_before_solving(tmp_path, monkeypatch, capsys):
    doc = json.loads(EXAMPLE_SCENARIO)
    for slot in doc["slots"]:
        slot["capacity"] = 20
    path = tmp_path / "large.json"
    path.write_text(json.dumps(doc))

    def no_solve(*args, **kwargs):
        raise AssertionError("concavity solved before enumerating")

    monkeypatch.setattr(cli, "solve_horizon", no_solve)
    out = str(tmp_path / "eps.csv")
    assert main(["concavity", "--scenario", str(path), "--out", out]) == 1
    assert "enumeration limit" in capsys.readouterr().err


# Each command with its arguments and the files it writes, at horizon 12.
COMMANDS = {
    "example": (["--out", "ex.json"], ["ex.json"]),
    "solve": (["--out-values", "v.csv", "--out-policy", "p.csv"], ["v.csv", "p.csv"]),
    "fixed-point": (["--out", "f.csv"], ["f.csv"]),
    "concavity": (["--out", "e.csv"], ["e.csv"]),
    "lambda-bound": ([], []),
    "prices": (["--t", "6", "--state", "1,2"], []),
    "simulate": (["--reps", "50", "--seed", "4", "--profits-csv", "r.csv"], ["r.csv"]),
}


@pytest.mark.parametrize("command", list(COMMANDS))
def test_manifest_on_stderr(command, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    doc = json.loads(EXAMPLE_SCENARIO)
    doc["horizon"] = 12
    scenario_bytes = json.dumps(doc).encode()
    (tmp_path / "s.json").write_bytes(scenario_bytes)
    (tmp_path / "bad.json").write_text('{"lambda": 2.0}')
    args, written = COMMANDS[command]
    if command == "example":
        failures = [(["example", "--out", "no/dir/ex.json"], 2)]
    else:
        failures = [([command, "--scenario", path, *args], code)
                    for path, code in [("missing.json", 2), ("bad.json", 1)]]
    # A failed run prints one error line, no manifest, and writes nothing.
    for argv, code in failures:
        assert main(argv) == code
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json", "s.json"]

    scenario_args = [] if command == "example" else ["--scenario", "s.json"]
    assert main([command, *scenario_args, *args]) == 0
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    manifest = json.loads(lines[0])
    assert set(manifest) == {
        "command", "scenario", "scenario_sha256", "tool_version", "elapsed_seconds", "outputs"
    }
    assert manifest["command"] == command
    assert manifest["tool_version"] == sp.__version__
    assert manifest["elapsed_seconds"] >= 0.0
    assert manifest["outputs"] == written
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(written + ["bad.json", "s.json"])
    if command == "example":
        assert manifest["scenario"] is None and manifest["scenario_sha256"] is None
    else:
        assert manifest["scenario"] == "s.json"
        assert manifest["scenario_sha256"] == hashlib.sha256(scenario_bytes).hexdigest()
