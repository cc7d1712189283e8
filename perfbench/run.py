"""Benchmark of the slotpricing CLI, end to end and per layer.

    python3 perfbench/run.py --workload example --seed 1 --seconds 40 --trace 0

Runs from any working directory: it finds ``src`` next to its own directory
and hands its absolute path to every worker process. Each worker is a fresh,
single-threaded interpreter (see ``worker.py``); workers run one after
another, so the load is one process on one thread.

``--trace 0`` repeats the workload's command sequence in fresh processes
until ``--seconds`` are used up (at least ``MIN_PASSES`` times) and reports
the end-to-end metrics as medians over passes; the gated timings are scaled
to a fixed machine speed (see ``REFERENCE_NOMINAL_S``) and the raw seconds
are printed beside them. ``--trace 1`` alternates untraced and traced passes
and reports the per-layer metrics; spans of the traced passes go to
``perfbench/out``. ``setup_s`` is the median of at least ``SETUP_SAMPLES``
process starts spread over the run.

Every pass checks its outputs; ``failed`` counts failed commands and checks
out of ``attempted``. ``--corrupt concavity|policy`` is the negative control:
it bumps one value layer before the concavity sweep, or pushes one policy
price out of the box, and must make ``failed`` positive.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. The exit code is 0 when every check held, 1 when
one failed and 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402

MIN_PASSES = 2
# Setup-only processes run between passes, so their samples span the run.
SETUPS_PER_PASS = 2
SETUP_SAMPLES = 8
TIMEOUT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# The host's speed drifts by tens of percent over minutes, so raw seconds from
# runs minutes apart disagree. The *_norm_s metrics scale a run's seconds by
# REFERENCE_NOMINAL_S over the median time of the worker's fixed reference
# work (worker.reference_seconds) in the same run: seconds at a fixed machine
# speed. The raw seconds are printed next to them.
REFERENCE_NOMINAL_S = 0.08
# Printed for the workloads that run the command, not part of the JSON result:
# every JSON metric must exist on every workload.
COMMAND_ONLY = {"concavity": "concavity_cmd_s", "fixed-point": "fixed_point_cmd_s"}


class BenchError(RuntimeError):
    pass


def _worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"  # the same dict layouts in every worker
    env["NUMPY_MADVISE_HUGEPAGE"] = "0"  # peak RSS must not depend on huge page luck
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # installed packages run from cached bytecode
    for var in THREAD_VARS:
        env[var] = "1"
    return env


class Runner:
    def __init__(self, workload: str, seed: int, corrupt, run_dir: Path, deadline: float):
        self.workload, self.seed, self.corrupt = workload, seed, corrupt
        self.run_dir, self.deadline = run_dir, deadline
        self.spans = OUT / f"spans-{workload}-{seed}.json"
        self.env = _worker_env()

    def spawn(self, mode: str) -> dict:
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--mode", mode]
        if self.corrupt and mode != "setup":
            cmd += ["--corrupt", self.corrupt]
        if mode == "trace":
            cmd += ["--spans", str(self.spans)]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("time limit reached before the run finished")
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        try:
            proc = subprocess.run(cmd, cwd=self.run_dir, env=self.env, capture_output=True,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} worker exceeded the time limit") from exc
        if proc.returncode != 0 or not proc.stdout.strip():
            raise BenchError(f"{mode} worker failed (exit {proc.returncode}):\n{proc.stderr}")
        sys.stderr.write(proc.stderr)
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        report["setup_s"] = report["setup_done"] - start
        return report


def _collect_passes(runner: Runner, modes, seconds: float) -> tuple[list, list]:
    """Spawn passes cycling through ``modes`` while another fits in ``seconds``.

    Returns the pass reports and the setup-only reports taken between them.
    """
    minimum = MIN_PASSES if len(modes) == 1 else len(modes)
    passes, setups, started = [], [], time.monotonic()
    while True:
        mode = modes[len(passes) % len(modes)]
        passes.append(runner.spawn(mode))
        setups += [runner.spawn("setup") for _ in range(SETUPS_PER_PASS)]
        used = time.monotonic() - started
        if len(passes) >= minimum and used * (len(passes) + 1) / len(passes) > seconds:
            break
    while len(setups) < SETUP_SAMPLES:
        setups.append(runner.spawn("setup"))
    return passes, setups


def _check_repeats(passes) -> list:
    """Outputs and exact counts must repeat between passes of one seed."""
    checks = []
    first = passes[0]["hashes"]
    for p in passes[1:]:
        for path, digest in first.items():
            checks.append([f"{path}_bytes_repeat", p["hashes"].get(path) == digest, path])
    traced = [p for p in passes if p["mode"] == "trace"]
    for p in traced[1:]:
        for name, (value, unit) in traced[0]["layers"].items():
            if unit == "count":
                checks.append([f"{name}_repeats", p["layers"][name][0] == value, name])
    return checks


def _samples(values) -> str:
    return f"n={len(values)}: " + " ".join(f"{v:.6g}" for v in values)


def _machine() -> dict:
    import importlib.metadata as md

    try:
        numpy_version = md.version("numpy")
    except md.PackageNotFoundError:
        numpy_version = "absent"
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "threads": {var: "1" for var in THREAD_VARS},
    }


def run(args) -> int:
    if not (SRC / "slotpricing" / "__init__.py").is_file():
        print(f"error: no slotpricing sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    run_dir = OUT / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir()
    try:
        (run_dir / wl.SCENARIO_FILE).write_text(wl.scenario_text(args.workload, args.seed))
        runner = Runner(args.workload, args.seed, args.corrupt, run_dir,
                        time.monotonic() + TIMEOUT_S)
        runner.spawn("setup")  # warm the bytecode and file caches; not counted
        modes = ("pass", "trace") if args.trace else ("pass",)
        passes, setups = _collect_passes(runner, modes, args.seconds)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    untraced = [p for p in passes if p["mode"] == "pass"]
    traced = [p for p in passes if p["mode"] == "trace"]
    if any("layers" not in p for p in traced):
        raise BenchError("a command of the traced pass failed, so it has no per-layer metrics")

    checks = [c for p in passes for c in p["checks"]] + _check_repeats(passes)
    commands = [code for p in passes for code in p["codes"].values()]
    attempted = len(commands) + len(checks)
    failed = sum(code != 0 for code in commands) + sum(not ok for _, ok, _ in checks)
    for label, ok, detail in checks:
        if not ok:
            print(f"check failed: {label}: {detail}", file=sys.stderr)

    lines, metrics = [], {}

    def report(name, values, unit, into_json):
        value = statistics.median(values)
        lines.append(f"{name:32s} {value:.6g} {unit}  ({_samples(values)})")
        if into_json:
            metrics[name] = {"value": value, "unit": unit}

    if not args.trace:
        reference = [r for p in untraced for r in p["reference"]]
        scale = REFERENCE_NOMINAL_S / statistics.median(reference)
        report("reference_s", reference, "s", False)
        timed = {
            "wall": [p["wall_s"] for p in untraced],
            "solve_cmd": [p["seconds"]["solve"] for p in untraced],
            "simulate_cmd": [p["seconds"]["simulate"] for p in untraced],
        }
        for stem, values in timed.items():
            report(f"{stem}_s", values, "s", False)
            report(f"{stem}_norm_s", [v * scale for v in values], "s", True)
        for command, name in COMMAND_ONLY.items():
            if command in untraced[0]["seconds"]:
                report(name, [p["seconds"][command] for p in untraced], "s", False)
        report("setup_s", [p["setup_s"] for p in untraced + setups], "s", True)
        report("peak_rss_mib", [p["rss_mib"] for p in untraced], "MiB", True)
    else:
        report("model.load_scenario_ms", [s["load_scenario_ms"] for s in setups], "ms", True)
        report("model.states_array_ms", [s["states_array_ms"] for s in setups], "ms", True)
        for name, (_, unit) in traced[0]["layers"].items():
            report(name, [p["layers"][name][0] for p in traced], unit, True)
        overhead = (statistics.median([p["wall_s"] for p in traced])
                    - statistics.median([p["wall_s"] for p in untraced]))
        report("trace.overhead_s", [overhead], "s", True)
        for name, (_, unit) in traced[0]["notes"].items():
            report(name, [p["notes"][name][0] for p in traced if name in p["notes"]], unit, False)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(passes)} passes, {json.dumps(_machine(), sort_keys=True)}")
    for line in lines:
        print(line)
    print(f"{'failed_ops':32s} {failed / attempted:.6g} share  "
          f"({failed} of {attempted} operations: commands and correctness checks)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark the slotpricing CLI.")
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", choices=("concavity", "policy"),
                        help="negative control: break one output; the checks must fail")
    args = parser.parse_args(argv)
    try:
        return run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
