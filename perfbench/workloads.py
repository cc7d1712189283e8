"""Workload definitions: scenario documents, the seed rule and command sequences.

Imported by both the driver (``run.py``) and the worker (``worker.py``); it
depends on the standard library only, so the driver never imports numpy or
slotpricing itself.

Every workload shares the scenario family ``net_revenue 1``, ``beta_const 1``,
``beta_price -1``, ``lambda 0.5`` and an affine delivery cost with intercept 2.
The seed keys the simulator seed and the stage sample on every workload; on
``boxed3`` and ``open4`` it also jitters each slot beta uniformly within
+-0.1. ``example`` stays the exact paper instance.
"""

from __future__ import annotations

import json
import random

BETA_JITTER = 0.1

# The paper's Table 1 instance, identical to ``slotpricing example``; a
# correctness check compares the two fingerprints.
_EXAMPLE = {
    "capacities": (4, 4),
    "horizon": 200,
    "price_max": 2.0,
    "betas": (1.0, -1.0),
    "coefficients": (1.0, 2.0),
}
_BOXED3 = {
    "capacities": (6, 6, 6),
    "horizon": 60,
    "price_max": 2.0,
    "betas": (1.0, 0.0, -1.0),
    "coefficients": (1.0, 1.5, 2.0),
}
_OPEN4 = {
    "capacities": (4, 4, 4, 4),
    "horizon": 100,
    "price_max": 10.0,
    "betas": (1.0, 0.5, 0.0, -0.5),
    "coefficients": (1.0, 1.5, 2.0, 2.5),
}

SCENARIO_FILE = "scenario.json"
VALUES_CSV = "values.csv"
POLICY_CSV = "policy.csv"
EPSILON_CSV = "epsilon.csv"
FIXED_POINT_CSV = "fixed_point.csv"

# Output files whose bytes must repeat exactly between passes of one seed.
DETERMINISTIC_OUTPUTS = (VALUES_CSV, POLICY_CSV, EPSILON_CSV, FIXED_POINT_CSV)

# Seed-commit outputs of the paper example, checked to 1e-9.
EXAMPLE_V1 = 9.996332331603751
EXAMPLE_MIN_EPSILON = -1.2212453270876722e-15

# The negative control's bump: large enough to break concavity at one layer
# of the paper example.
CORRUPT_CONCAVITY = ["--corrupt-t", "100", "--corrupt-state", "2,2", "--corrupt-delta", "-1.0"]


def _solve():
    return ("solve", ["solve", "--scenario", SCENARIO_FILE,
                      "--out-values", VALUES_CSV, "--out-policy", POLICY_CSV])


def _simulate(reps: int, seed: int):
    return ("simulate", ["simulate", "--scenario", SCENARIO_FILE,
                         "--reps", str(reps), "--seed", str(seed)])


WORKLOADS = {
    "example": {
        "why": "the paper's 25-state instance: tiny layers, so per-layer overhead, "
               "enclosing enumeration and the simulator carry the time",
        "base": _EXAMPLE,
        "jitter": False,
        "interior_share": (0.0, 1.0),
        "steps": lambda seed: [
            _solve(),
            ("concavity", ["concavity", "--scenario", SCENARIO_FILE, "--out", EPSILON_CSV]),
            _simulate(200_000, seed),
            # library call, not a CLI command: re-extract the policy from values.csv
            ("policy_from_values", None),
        ],
    },
    "boxed3": {
        "why": "343 states where over 99% of stages clamp to the price box, so "
               "pricing, Lambert W and dp dominate; analysis is bypassed",
        "base": _BOXED3,
        "jitter": True,
        "interior_share": (0.0, 0.05),
        "steps": lambda seed: [_solve(), _simulate(200_000, seed)],
    },
    "open4": {
        "why": "625 states where every stage is interior (one Lambert W call each), "
               "so the simulator and the largest policy table dominate",
        "base": _OPEN4,
        "jitter": True,
        "interior_share": (0.95, 1.0),
        "lambertw_per_stage": 1.0,
        "steps": lambda seed: [
            ("fixed-point", ["fixed-point", "--scenario", SCENARIO_FILE,
                             "--out", FIXED_POINT_CSV]),
            _solve(),
            _simulate(500_000, seed),
        ],
    },
}


def scenario_doc(name: str, seed: int) -> dict:
    """The scenario document of workload ``name`` under ``seed``."""
    spec = WORKLOADS[name]
    base = spec["base"]
    betas = list(base["betas"])
    if spec["jitter"]:
        rng = random.Random(f"{name}:{seed}")
        betas = [b + rng.uniform(-BETA_JITTER, BETA_JITTER) for b in betas]
    return {
        "lambda": 0.5,
        "horizon": base["horizon"],
        "price_min": 0.0,
        "price_max": base["price_max"],
        "net_revenue": 1.0,
        "beta_const": 1.0,
        "beta_price": -1.0,
        "slots": [{"beta": b, "capacity": c} for b, c in zip(betas, base["capacities"])],
        "cost": {"type": "affine", "intercept": 2.0,
                 "coefficients": list(base["coefficients"])},
    }


def scenario_text(name: str, seed: int) -> str:
    return json.dumps(scenario_doc(name, seed), indent=2) + "\n"
