"""Cardinality-minimal supports that reconcile two knowledge bases.

Given kb_a |= query and kb_h not |= query, find a support: a subset of
kb_a ∪ kb_h that is consistent with kb_h and entails the query, minimizing
the number of clauses the human side is missing (the update = support \\
kb_h).  The search alternates minimum hitting sets over the corrections
found so far with correction-set extraction, stopping at the first seed
whose clauses close the entailment gap; a final unsatisfiable-subset pass
trims the kb_h-side contribution.

In restricted mode (used by the planning frontend) the support may draw its
kb_h-side clauses only from kb_a ∩ kb_h, so the whole support lies within
kb_a.  Kept kb_h ∪ update is then satisfiable with no further solve:
consistency repair leaves kb_a ∪ kept kb_h satisfiable, and the update is a
subset of kb_a.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .formula import (Clause, CnfFormula, intersect_kbs, negate_query, normalize_clause,
                      parse_literal)
from .hitting import HittingSetInstance, min_hitting_set
from .minsets import Budget, Rotation, _OutOfTime, extract_mcs, extract_mus, workspace

GENERAL = "general"
RESTRICTED = "restricted"


class ReconcileError(ValueError):
    pass


class PremiseError(ReconcileError):
    """kb_a does not entail the query (or is itself unsatisfiable)."""


class ReconcileTimeout(Exception):
    """Deadline hit; carries whatever statistics were gathered."""

    def __init__(self, message: str, *, mcs_count: int, oracle_calls: int,
                 elapsed: float):
        super().__init__(message)
        self.mcs_count = mcs_count
        self.oracle_calls = oracle_calls
        self.elapsed = elapsed

    @property
    def iterations(self) -> int:
        """Completed iterations: each one found an MCS."""
        return self.mcs_count


@dataclass(frozen=True)
class ReconcileProblem:
    kb_a: CnfFormula
    kb_h: CnfFormula
    query: CnfFormula
    mode: str = GENERAL


@dataclass(frozen=True)
class Explanation:
    """Support plus run statistics.  Clause tuples are canonically sorted."""

    support: tuple[Clause, ...]
    update: tuple[Clause, ...]
    removed_from_kb_h: tuple[Clause, ...]
    mcs_count: int
    oracle_calls: int
    mode: str = GENERAL

    @property
    def iterations(self) -> int:
        """Every iteration but the last, which closed the gap, found an MCS."""
        return self.mcs_count + 1


@dataclass(frozen=True)
class VerificationReport:
    entailed: bool
    minimal: bool
    consistent: bool
    failures: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return self.entailed and self.minimal and self.consistent

    def record(self) -> str:
        """The `verify` record line."""
        return format_record("verify", entailed=self.entailed, minimal=self.minimal,
                             consistent=self.consistent, ok=self.ok)


def _env_vars(*formulas: CnfFormula) -> int:
    return max((f.num_vars for f in formulas), default=0)


def _check_premises(kb_a: CnfFormula, neg_clauses: Sequence[Clause], num_vars: int,
                    budget: Budget) -> None:
    """kb_a must be satisfiable and entail the query."""
    ws = workspace(num_vars, kb_a.clauses, neg_clauses, budget=budget)
    if not ws.solve_ids(()).satisfiable:
        raise PremiseError("kb_a is unsatisfiable")
    if ws.solve_ids(range(len(ws.soft))).satisfiable:
        raise PremiseError("kb_a does not entail the query")


def preprocess_consistency(
    kb_a: CnfFormula, kb_h: CnfFormula, num_vars: int, budget: Budget,
) -> tuple[tuple[Clause, ...], tuple[Clause, ...]]:
    """Restore mutual consistency by removing a minimal correction set of
    kb_h-only clauses.  Returns (kb_h clauses kept, clauses removed).

    num_vars must cover both KBs' variables.  When kb_h adds no clause to
    kb_a, no solve is made, so an unsatisfiable kb_a goes unnoticed; else
    an unsatisfiable kb_a raises PremiseError.  Every solve draws on the
    budget."""
    in_a = kb_a.clause_set()
    diff = [c for c in kb_h.clauses if c not in in_a]
    if not diff:
        return kb_h.clauses, ()
    ws = workspace(num_vars, kb_a.clauses, diff, budget=budget)
    if ws.solve_ids(range(len(diff))).satisfiable:
        return kb_h.clauses, ()
    mcs = extract_mcs(ws)
    if mcs is None:
        raise PremiseError("kb_a is unsatisfiable")
    removed = {diff[i] for i in mcs.ids}
    kept = tuple(c for c in kb_h.clauses if c not in removed)
    return kept, tuple(sorted(removed))


def reconcile(problem: ReconcileProblem, *, timeout: float | None = None) -> Explanation:
    """Smallest-update support reconciling problem.kb_h with problem.kb_a.

    Premise check, consistency repair, then the hitting-set loop: take a
    minimum hitting set of the MCSes found so far as the seed and stop at
    the first seed whose candidate clauses, with the context, entail the
    query; a MUS pass then adds the context clauses the seed needs.

    Raises PremiseError when kb_a is unsatisfiable or does not entail the
    query, and ReconcileTimeout once the deadline has passed: it is polled
    before every oracle call, every 256 conflicts inside one, and at every
    hitting-set search node.  When kb_h already entails the query the
    update comes out empty.
    """
    if problem.mode not in (GENERAL, RESTRICTED):
        raise ReconcileError(f"unknown mode {problem.mode!r}")
    budget = Budget(timeout)
    kb_a, kb_h, query = problem.kb_a, problem.kb_h, problem.query
    env = _env_vars(kb_a, kb_h, query)
    neg = negate_query(query, env + 1)
    neg_clauses = list(neg.clauses)
    total_vars = env + len(neg.aux_vars)

    instance = HittingSetInstance()
    try:
        _check_premises(kb_a, neg_clauses, total_vars, budget)

        hard_ids, soft_ids = intersect_kbs(kb_a, kb_h)
        shared = [kb_a.clauses[i] for i in sorted(hard_ids)]
        candidates = [kb_a.clauses[i] for i in sorted(soft_ids)]

        kept_h, removed = preprocess_consistency(kb_a, kb_h, env, budget)

        context = shared if problem.mode == RESTRICTED else list(kept_h)
        ws = workspace(total_vars, context + neg_clauses, candidates, budget=budget)
        while True:
            seed = min_hitting_set(instance, cancel=budget.check)
            mcs = extract_mcs(ws, seed=seed)
            if mcs is None:
                break
            instance.add_set(mcs.ids)
        epsilon = [candidates[i] for i in sorted(seed)]
        mus = extract_mus(workspace(total_vars, epsilon + neg_clauses, context,
                                    budget=budget))
        support = tuple(sorted(set(epsilon) | {context[i] for i in mus.ids}))
        # The context lies inside kb_h and the candidates outside it.
        update = tuple(sorted(epsilon))
    except _OutOfTime:
        raise ReconcileTimeout(
            f"reconciliation exceeded {timeout} seconds",
            mcs_count=len(instance),
            oracle_calls=budget.calls,
            elapsed=time.monotonic() - budget.start,
        ) from None
    return Explanation(
        support=support,
        update=update,
        removed_from_kb_h=tuple(removed),
        mcs_count=len(instance),
        oracle_calls=budget.calls,
        mode=problem.mode,
    )


def smallest_support(kb: CnfFormula, query: CnfFormula, *,
                     timeout: float | None = None) -> Explanation:
    """Cardinality-minimal subset of kb entailing the query (single KB).

    reconcile with an empty kb_h: the whole kb is the candidate set, the
    first seed that closes the entailment gap is the support, and the update
    equals it.
    """
    return reconcile(ReconcileProblem(kb, CnfFormula.from_clauses(()), query),
                     timeout=timeout)


def verify_explanation(
    kb_h: Iterable[Clause],
    support: Iterable[Clause],
    query: CnfFormula,
) -> VerificationReport:
    """Check a support against the knowledge base it should update.

    entailed: kb_h ∪ support ∪ ¬query unsatisfiable;
    minimal: every proper subset of the support fails to entail the query on
    its own; consistent: kb_h ∪ support satisfiable.

    The minimality probe visits the support clauses in order.  A clause is
    necessary when ¬query and the other support clauses are satisfiable;
    each SAT answer proves that, and model rotation proves it for more
    clauses from the same model, which the probe then skips.  Each UNSAT
    answer names a redundant clause.
    """
    kb_h_clauses = tuple(kb_h)
    support = tuple(sorted(set(tuple(c) for c in support)))
    env = max(
        [query.num_vars]
        + [abs(l) for c in kb_h_clauses for l in c]
        + [abs(l) for c in support for l in c]
    )
    neg = negate_query(query, env + 1)
    total = env + len(neg.aux_vars)
    failures: list[str] = []

    # each clause once: kb_h in order, then the support clauses not in it
    ws = workspace(total, dict.fromkeys(kb_h_clauses + support), neg.clauses)
    entailed = not ws.solve_ids(range(len(ws.soft))).satisfiable
    if not entailed:
        failures.append("support with kb_h does not entail the query")
    consistent = ws.solve_ids(()).satisfiable
    if not consistent:
        failures.append("support conflicts with kb_h")

    minimal = True
    probe = workspace(total, neg.clauses, support)
    rotation = Rotation(probe)
    everything = range(len(support))
    necessary: set[int] = set()
    for i in everything:
        if i in necessary:
            continue
        r = probe.solve_ids(j for j in everything if j != i)
        if r.satisfiable:
            rotation.mark(r.model, i, everything, necessary)
        else:
            minimal = False
            failures.append(f"support clause {support[i]} is redundant")
    return VerificationReport(entailed, minimal, consistent, tuple(failures))


def serialize_explanation(expl: Explanation,
                          verification: VerificationReport | None = None,
                          names: Callable[[int], str] | None = None) -> str:
    """Line-delimited records; parse_explanation_records inverts it.

    With names, each clause record also lists its literals' names.
    """
    lines = [format_record("explanation", mode=expl.mode)]
    for role, clauses in (
        ("support", expl.support),
        ("update", expl.update),
        ("removed", expl.removed_from_kb_h),
    ):
        for c in clauses:
            fields: dict[str, object] = {"role": role, "lits": format_lits(c)}
            if names is not None:
                fields["names"] = [names(l) for l in c]
            lines.append(format_record("clause", **fields))
    lines.append(format_record(
        "stat",
        support_size=len(expl.support),
        update_size=len(expl.update),
        removed_size=len(expl.removed_from_kb_h),
        iterations=expl.iterations,
        mcs_count=expl.mcs_count,
        oracle_calls=expl.oracle_calls,
    ))
    if verification is not None:
        lines.append(verification.record())
    return "\n".join(lines) + "\n"


def format_record(kind: str, /, **fields: object) -> str:
    """One `kind key=value ...` record line: booleans true/false, floats to
    three decimals, lists and tuples `;`-joined.  `kind` is positional-only
    because some records have a `kind=` field."""
    return " ".join([kind, *(f"{key}={_format_value(value)}"
                             for key, value in fields.items())])


def _format_value(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.3f}"
    if isinstance(value, (list, tuple)):
        return ";".join(str(v) for v in value)
    return str(value)


def format_lits(clause: Clause) -> str:
    """A clause's literals, comma-separated; `-` for the empty clause."""
    return ",".join(str(l) for l in clause) if clause else "-"


def parse_explanation_records(text: str) -> dict[str, list[Clause]]:
    """Clause sections of a serialized explanation, keyed by role.

    Raises ValueError, FormulaError among them, on a malformed clause.
    """
    out: dict[str, list[Clause]] = {"support": [], "update": [], "removed": []}
    for line in text.splitlines():
        parts = line.split()
        if not parts or parts[0] != "clause":
            continue
        fields = dict(p.split("=", 1) for p in parts[1:] if "=" in p)
        role = fields.get("role")
        if role not in out:
            continue
        if "lits" not in fields:
            raise ValueError(f"clause record without lits: {line.strip()!r}")
        lits = fields["lits"]
        clause = () if lits == "-" else normalize_clause(map(parse_literal, lits.split(",")))
        out[role].append(clause)
    return out
