"""Exact dynamic-programming toolkit for delivery time-slot pricing.

Solves the finite-horizon booking problem of attended home delivery exactly:
backward induction over the order lattice with closed-form stage pricing
through the Lambert W function, the stationary (infinite-horizon) value
hyperplane, discrete-concavity diagnostics of every layer, and seeded Monte
Carlo validation of the resulting policy.
"""

from .model import (
    AffineCost,
    ArrivalProbabilities,
    ChoiceProbabilities,
    CostSpec,
    Scenario,
    ScenarioError,
    State,
    StateLattice,
    TableCost,
    arrival_probabilities,
    choice_probabilities,
    cost,
    cost_values,
    enumerate_states,
    feasible_slots,
    load_scenario,
    marginal_profit_violations,
)
from .lambertw import lambert_w0, lambert_w0_derivative
from .pricing import (
    OpportunityCosts,
    StageSolution,
    markup_root,
    prices_from_probabilities,
    revenue_of_probabilities,
    revenue_probability_hessian,
    slot_weight,
    solve_stage,
    stage_objective,
    stage_surplus,
    unconstrained_prices,
    unconstrained_stage_gain,
)
from .dp import (
    PricePolicy,
    ValueFunction,
    bellman_apply,
    bellman_residual,
    fixed_point,
    opportunity_costs,
    policy_from_values,
    solve_horizon,
    terminal_values,
)
from .analysis import (
    ConcavityReport,
    EnclosingCombination,
    EnclosingSets,
    arrival_rate_bound,
    concavity_margin,
    concavity_report,
    enumerate_enclosings,
    increasing_opportunity_cost_violations,
)
from .sim import SimulationResult, simulate

__version__ = "0.1.0"

__all__ = [
    "AffineCost",
    "ArrivalProbabilities",
    "ChoiceProbabilities",
    "ConcavityReport",
    "CostSpec",
    "EnclosingCombination",
    "EnclosingSets",
    "OpportunityCosts",
    "PricePolicy",
    "Scenario",
    "ScenarioError",
    "SimulationResult",
    "StageSolution",
    "State",
    "StateLattice",
    "TableCost",
    "ValueFunction",
    "arrival_probabilities",
    "arrival_rate_bound",
    "bellman_apply",
    "bellman_residual",
    "choice_probabilities",
    "concavity_margin",
    "concavity_report",
    "cost",
    "cost_values",
    "enumerate_enclosings",
    "enumerate_states",
    "feasible_slots",
    "fixed_point",
    "increasing_opportunity_cost_violations",
    "lambert_w0",
    "lambert_w0_derivative",
    "load_scenario",
    "marginal_profit_violations",
    "markup_root",
    "opportunity_costs",
    "policy_from_values",
    "prices_from_probabilities",
    "revenue_of_probabilities",
    "revenue_probability_hessian",
    "simulate",
    "slot_weight",
    "solve_horizon",
    "solve_stage",
    "stage_objective",
    "stage_surplus",
    "terminal_values",
    "unconstrained_prices",
    "unconstrained_stage_gain",
    "__version__",
]
