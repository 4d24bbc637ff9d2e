"""mrex: cardinality-minimal explanations that reconcile propositional
knowledge bases, plus a classical-planning frontend for explaining plan
optimality."""

from .formula import (
    Clause,
    CnfFormula,
    DegenerateQueryError,
    DimacsParseError,
    FormulaError,
    Literal,
    QueryNegation,
    TautologyError,
    intersect_kbs,
    negate_query,
    normalize_clause,
    parse_dimacs,
    parse_literal_list,
    parse_query_text,
    write_dimacs,
)
from .solver import SatSession, SolveResult
from .backbone import UnsatisfiableError, compute_backbone
from .minsets import Budget
from .reconcile import (
    GENERAL,
    RESTRICTED,
    Explanation,
    PremiseError,
    ReconcileError,
    ReconcileProblem,
    ReconcileTimeout,
    VerificationReport,
    preprocess_consistency,
    serialize_explanation,
    smallest_support,
    verify_explanation,
)

__all__ = [
    "Budget",
    "Clause",
    "Explanation",
    "GENERAL",
    "PremiseError",
    "ReconcileError",
    "ReconcileProblem",
    "ReconcileTimeout",
    "RESTRICTED",
    "UnsatisfiableError",
    "VerificationReport",
    "compute_backbone",
    "preprocess_consistency",
    "serialize_explanation",
    "smallest_support",
    "verify_explanation",
    "CnfFormula",
    "DegenerateQueryError",
    "DimacsParseError",
    "FormulaError",
    "Literal",
    "QueryNegation",
    "SatSession",
    "SolveResult",
    "TautologyError",
    "intersect_kbs",
    "negate_query",
    "normalize_clause",
    "parse_dimacs",
    "parse_literal_list",
    "parse_query_text",
    "write_dimacs",
]
