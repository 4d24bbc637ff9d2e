"""STRIPS planning frontend: PDDL parsing, grounding, bounded CNF
encoding, optimal-plan search, and model-degradation scenarios."""

from .encode import (
    BoundedEncoding,
    ClauseOrigin,
    FeasibilityResult,
    OptimalityQuery,
    check_feasibility,
    encode_bounded,
    optimality_query,
    write_var_map,
)
from .ground import DEFAULT_ACTION_CAP, GroundingCapError, ground
from .model import (
    GroundAction,
    GroundAtom,
    Plan,
    PlanningError,
    PlanningProblem,
    parse_plan_text,
    write_plan_text,
)
from .pddl import (
    ActionSchema,
    LiftedTask,
    PddlParseError,
    parse_domain,
    parse_pddl,
    parse_problem,
)
from .search import (
    DEFAULT_STATE_CAP,
    GoalUnreachableError,
    StateCapError,
    optimal_plan_search,
    validate_plan,
)
from .tweaks import SCENARIOS, TweakRecord, TweakedModel, tweak_model

__all__ = [
    "ActionSchema",
    "BoundedEncoding",
    "ClauseOrigin",
    "DEFAULT_ACTION_CAP",
    "DEFAULT_STATE_CAP",
    "FeasibilityResult",
    "GoalUnreachableError",
    "GroundAction",
    "GroundAtom",
    "GroundingCapError",
    "LiftedTask",
    "OptimalityQuery",
    "Plan",
    "PlanningError",
    "PlanningProblem",
    "PddlParseError",
    "SCENARIOS",
    "StateCapError",
    "TweakRecord",
    "TweakedModel",
    "check_feasibility",
    "encode_bounded",
    "ground",
    "optimal_plan_search",
    "optimality_query",
    "parse_domain",
    "parse_pddl",
    "parse_plan_text",
    "parse_problem",
    "tweak_model",
    "validate_plan",
    "write_plan_text",
    "write_var_map",
]
