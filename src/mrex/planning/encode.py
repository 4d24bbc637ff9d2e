"""Bounded planning-as-SAT encoding.

Per step t: action variables imply their preconditions at t and effects at
t+1; explanatory frame clauses make every fluent change name a cause; an
at-least-one clause plus pairwise at-most-one clauses force exactly one
action per step.  Step 0 carries the closed-world initial state; the goal
can be emitted as units at the horizon.

Two encodings share one variable space when built with the same
fluent_order/action_order, which is how an agent's knowledge base and a
degraded user model stay comparable clause-for-clause: an action or fluent
missing from the weaker model keeps its variable but contributes no
clauses.

The encoder keeps no per-clause origins.  One helper, _step_clauses, writes
an action step's pre/add/del clauses; encode_bounded emits through it, and
check_feasibility derives its repair clauses from the plan's steps with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from ..formula import Clause, CnfFormula
from .model import GroundAction, GroundAtom, Plan, PlanningError, PlanningProblem
from .search import validate_plan


@dataclass(frozen=True)
class ClauseOrigin:
    """Where a repair clause comes from: its kind (pre|add|del), the plan
    step and the action taken there."""

    kind: str
    t: int
    action: str


@dataclass
class BoundedEncoding:
    problem: PlanningProblem
    horizon: int
    cnf: CnfFormula
    # `<name>@<t>` -> variable, apart for fluents and actions: a 0-ary
    # predicate and a 0-ary action may share a name
    fluent_vars: dict[str, int]
    action_vars: dict[str, int]
    # `<name>@<t>` of variable v at names[v - 1]; an action that shares a
    # fluent's name shows as `do:<name>@<t>`
    names: tuple[str, ...]
    fluent_order: tuple[GroundAtom, ...]
    action_order: tuple[str, ...]
    notes: tuple[str, ...] = ()

    def fluent_var(self, name: str, t: int) -> int:
        return _lookup(self.fluent_vars, name, t)

    def action_var(self, label: str, t: int) -> int:
        return _lookup(self.action_vars, label, t)

    def name_of(self, var: int) -> str:
        return self.names[var - 1] if 0 < var <= len(self.names) else f"aux{var}"


def _lookup(table: dict[str, int], name: str, t: int) -> int:
    try:
        return table[f"{name}@{t}"]
    except KeyError:
        raise PlanningError(f"unknown name {name!r} at step {t}") from None


def _normal(clause: Sequence[int]) -> Clause:
    return tuple(sorted(set(clause), key=abs))


def _step_clauses(
    action: GroundAction,
    t: int,
    fvar: Callable[[GroundAtom, int], int],
    avar: Callable[[str, int], int],
) -> Iterator[tuple[str, tuple[int, ...]]]:
    """(kind, clause) for the action's pre, add and del clauses at step t."""
    av = avar(action.label, t)
    for p in sorted(action.pre):
        yield "pre", (-av, fvar(p, t))
    for e in sorted(action.add):
        yield "add", (-av, fvar(e, t + 1))
    for e in sorted(action.delete):
        yield "del", (-av, -fvar(e, t + 1))


def encode_bounded(
    problem: PlanningProblem,
    n: int,
    include_goal: bool,
    *,
    fluent_order: Sequence[GroundAtom] | None = None,
    action_order: Sequence[str] | None = None,
) -> BoundedEncoding:
    """CNF whose models are exactly the length-n executions of `problem`
    (reaching the goal when include_goal).

    fluent_order/action_order fix the variable numbering; they default to
    the problem's own universe and must cover it.
    """
    if n < 0:
        raise PlanningError("horizon must be nonnegative")
    fluents = tuple(fluent_order) if fluent_order is not None else problem.fluents
    if action_order is not None:
        act_labels = tuple(action_order)
    else:
        act_labels = tuple(a.label for a in problem.actions)
    fl_index = {f: i for i, f in enumerate(fluents)}
    act_index = {lbl: j for j, lbl in enumerate(act_labels)}
    if not set(problem.fluents) <= set(fl_index):
        raise PlanningError("fluent_order does not cover the problem's fluents")
    if not {a.label for a in problem.actions} <= set(act_index):
        raise PlanningError("action_order does not cover the problem's actions")

    nf, na = len(fluents), len(act_labels)
    num_vars = (n + 1) * nf + n * na

    def fvar(atom: GroundAtom, t: int) -> int:
        return t * nf + fl_index[atom] + 1

    def avar(label: str, t: int) -> int:
        return (n + 1) * nf + t * na + act_index[label] + 1

    fl_names = [f"{f}@{t}" for t in range(n + 1) for f in fluents]
    act_names = [f"{lbl}@{t}" for t in range(n) for lbl in act_labels]
    # an action labelled like a fluent is shown with a prefix that no PDDL
    # name can carry, so every variable keeps a name of its own
    clashes = set(act_labels) & set(map(str, fluents))
    act_shown = [f"do:{name}" if lbl in clashes else name
                 for name, lbl in zip(act_names, act_labels * n)]

    own_actions = problem.actions  # already canonically sorted
    adders: dict[GroundAtom, list[GroundAction]] = {f: [] for f in fluents}
    deleters: dict[GroundAtom, list[GroundAction]] = {f: [] for f in fluents}
    for a in own_actions:
        for f in sorted(a.add):
            adders[f].append(a)
        for f in sorted(a.delete):
            deleters[f].append(a)

    clauses: dict[Clause, None] = {}  # insertion-ordered set
    notes: list[str] = []

    def emit(clause: tuple[int, ...], kind: str, t: int) -> None:
        clause = _normal(clause)
        if clause in clauses:
            notes.append(f"duplicate clause suppressed: {kind}@{t}")
        else:
            clauses[clause] = None

    own_fluents = set(problem.fluents)
    for f in fluents:
        if f in own_fluents:
            emit((fvar(f, 0) if f in problem.init else -fvar(f, 0),), "init", 0)

    for t in range(n):
        for a in own_actions:
            for kind, clause in _step_clauses(a, t, fvar, avar):
                emit(clause, kind, t)
        for f in fluents:
            if f not in own_fluents:
                continue
            causes_on = tuple(avar(a.label, t) for a in adders[f])
            emit((fvar(f, t), -fvar(f, t + 1)) + causes_on, "frame_on", t)
            causes_off = tuple(avar(a.label, t) for a in deleters[f])
            emit((-fvar(f, t), fvar(f, t + 1)) + causes_off, "frame_off", t)
        if own_actions:
            emit(tuple(avar(a.label, t) for a in own_actions), "alo", t)
        else:
            notes.append(f"at-least-one omitted at step {t}: no actions")
        for i in range(len(own_actions)):
            for j in range(i + 1, len(own_actions)):
                emit((-avar(own_actions[i].label, t),
                      -avar(own_actions[j].label, t)), "amo", t)

    if include_goal:
        for g in sorted(problem.goal):
            emit((fvar(g, n),), "goal", n)

    return BoundedEncoding(
        problem=problem,
        horizon=n,
        cnf=CnfFormula(tuple(clauses), num_vars),
        fluent_vars={name: v for v, name in enumerate(fl_names, 1)},
        action_vars={name: v for v, name in enumerate(act_names, len(fl_names) + 1)},
        names=tuple(fl_names + act_shown),
        fluent_order=fluents,
        action_order=act_labels,
        notes=tuple(notes),
    )


@dataclass(frozen=True)
class OptimalityQuery:
    """The claim that no execution reaches the goal before the horizon.

    query: conjunction of units ¬g_t for t < n.  For multi-fluent goals the
    g_t are fresh aggregate variables with definition clauses g_t ↔ ⋀ f@t,
    which must be added to every knowledge base involved; singleton goals
    use the goal fluent's own variable and need no definitions.
    """

    query: CnfFormula
    definitions: tuple[Clause, ...]
    new_names: tuple[tuple[int, str], ...]


def optimality_query(encoding: BoundedEncoding) -> OptimalityQuery:
    n = encoding.horizon
    goal = tuple(sorted(encoding.problem.goal))
    if n < 1:
        raise PlanningError("optimality needs horizon >= 1")
    if not goal:
        raise PlanningError("optimality needs a nonempty goal")
    if len(goal) == 1:
        g = goal[0]
        lits = tuple(encoding.fluent_var(str(g), t) for t in range(n))
        query = CnfFormula.from_clauses([(-v,) for v in lits], encoding.cnf.num_vars)
        return OptimalityQuery(query, (), ())

    base = encoding.cnf.num_vars
    defs: list[Clause] = []
    names: list[tuple[int, str]] = []
    lits: list[int] = []
    for t in range(n):
        gv = base + t + 1
        names.append((gv, f"goal@{t}"))
        lits.append(gv)
        back: list[int] = [gv]
        for f in goal:
            fv = encoding.fluent_var(str(f), t)
            defs.append((-gv, fv))
            back.append(-fv)
        defs.append(tuple(back))
    query = CnfFormula.from_clauses([(-v,) for v in lits], base + n)
    return OptimalityQuery(query, tuple(defs), tuple(names))


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    missing_clauses: tuple[Clause, ...] = ()
    missing_origins: tuple[ClauseOrigin, ...] = ()


def check_feasibility(
    encoding: BoundedEncoding,
    plan: Plan,
    reference: BoundedEncoding,
) -> FeasibilityResult:
    """Can the encoded model execute `plan` and end in the goal?

    Simulates the plan, each step taken by the model's action of the same
    label, or by a no-op where the model lacks it.  That is the encoding's
    answer: its at-most-one and frame clauses make an own action's next
    state (s - del) | add, and with no actions the frame keeps every fluent.
    For a model lacking some but not all of the plan's actions, the encoding
    would let any of its actions take such a step; tweak_model builds none.
    When infeasible, reports the pre/add/del clauses that the reference
    problem's action of each step's label has at that step, in the
    reference's variables, and that the checked encoding lacks.
    """
    n = encoding.horizon
    if len(plan) != n:
        raise PlanningError(f"plan length {len(plan)} differs from horizon {n}")
    own = {a.label: a for a in encoding.problem.actions}
    steps = []
    for t, a in enumerate(plan):
        encoding.action_var(a.label, t)  # a name outside the encoding is an error
        steps.append(own.get(a.label, GroundAction(a.name, a.args)))
    if validate_plan(encoding.problem, steps):
        return FeasibilityResult(True)
    have = encoding.cnf.clause_set()
    by_label = {a.label: a for a in reference.problem.actions}

    def fvar(atom: GroundAtom, t: int) -> int:
        return reference.fluent_var(str(atom), t)

    missing: list[Clause] = []
    origins: list[ClauseOrigin] = []
    for t, a in enumerate(plan):
        action = by_label.get(a.label)
        if action is None:
            continue
        for kind, clause in _step_clauses(action, t, fvar, reference.action_var):
            clause = _normal(clause)
            if clause not in have:
                missing.append(clause)
                origins.append(ClauseOrigin(kind, t, a.label))
    return FeasibilityResult(False, tuple(missing), tuple(origins))


def decode_model(encoding: BoundedEncoding, model: Sequence[bool]) -> Plan:
    """Plan named by the model's true action variables, one per step."""
    by_label = {a.label: a for a in encoding.problem.actions}
    steps: list[GroundAction] = []
    for t in range(encoding.horizon):
        chosen = [
            lbl for lbl in by_label
            if model[encoding.action_var(lbl, t)]
        ]
        if len(chosen) != 1:
            raise PlanningError(
                f"model selects {len(chosen)} actions at step {t}, expected 1"
            )
        steps.append(by_label[chosen[0]])
    return tuple(steps)


def write_var_map(encoding: BoundedEncoding) -> str:
    """Sidecar text: `<variable> <name>@<t>` per line, variable-sorted."""
    return "\n".join(f"{v} {name}" for v, name in enumerate(encoding.names, 1)) + "\n"
