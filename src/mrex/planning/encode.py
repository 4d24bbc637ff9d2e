"""Bounded planning-as-SAT encoding.

Per step t: action variables imply their preconditions at t and effects at
t+1; explanatory frame clauses make every fluent change name a cause; an
at-least-one clause plus pairwise at-most-one clauses force exactly one
action per step.  Step 0 carries the closed-world initial state; the goal
can be emitted as units at the horizon.

Variables are numbered from the problem's fluents F, the action_order A and
the horizon h alone: fluent F[i] at step t (0 <= t <= h) is t·|F| + i + 1,
and action A[j] at step t (0 <= t < h) is (h+1)·|F| + t·|A| + j + 1.
BoundedEncoding.fluent_var and action_var compute that numbering and
name_of inverts it; nothing else maps a fluent or action step to a variable.

A tweaked model keeps the agent's fluents, so two encodings built with one
action_order share one variable space, which is how an agent's knowledge
base and a degraded user model stay comparable clause-for-clause: an action
missing from the weaker model keeps its variable but contributes no clauses.

The encoder keeps no per-clause origins.  One helper, _step_clauses, writes
an action step's pre/add/del clauses; encode_bounded emits through it, and
check_feasibility derives its repair clauses from the plan's steps with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

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
    action_order: tuple[str, ...]
    notes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        self._fluent_index = {f: i for i, f in enumerate(self.problem.fluents)}
        self._action_index = {lbl: j for j, lbl in enumerate(self.action_order)}
        # action labels that are also fluent names, shown as `do:<label>`
        self._clashes = set(self.action_order) & set(map(str, self.problem.fluents))

    def fluent_var(self, atom: GroundAtom, t: int) -> int:
        i = self._fluent_index.get(atom)
        if i is None or not 0 <= t <= self.horizon:
            raise PlanningError(f"unknown name {str(atom)!r} at step {t}")
        return t * len(self.problem.fluents) + i + 1

    def action_var(self, label: str, t: int) -> int:
        j = self._action_index.get(label)
        if j is None or not 0 <= t < self.horizon:
            raise PlanningError(f"unknown name {label!r} at step {t}")
        nf, na = len(self.problem.fluents), len(self.action_order)
        return (self.horizon + 1) * nf + t * na + j + 1

    def name_of(self, var: int) -> str:
        """`<name>@<t>` of a fluent or action variable, `aux<var>` for any
        other.  An action labelled like a fluent shows as `do:<label>@<t>`,
        a prefix no PDDL name can carry, so every variable keeps a name of
        its own."""
        nf, na = len(self.problem.fluents), len(self.action_order)
        offset = (self.horizon + 1) * nf
        if 0 < var <= offset:
            t, i = divmod(var - 1, nf)
            return f"{self.problem.fluents[i]}@{t}"
        if 0 < var - offset <= self.horizon * na:
            t, j = divmod(var - offset - 1, na)
            label = self.action_order[j]
            return f"do:{label}@{t}" if label in self._clashes else f"{label}@{t}"
        return f"aux{var}"


def _normal(clause: Sequence[int]) -> Clause:
    return tuple(sorted(set(clause), key=abs))


def _step_clauses(
    action: GroundAction, t: int, encoding: BoundedEncoding,
) -> Iterator[tuple[str, tuple[int, ...]]]:
    """(kind, clause) for the action's pre, add and del clauses at step t."""
    av = encoding.action_var(action.label, t)
    for p in sorted(action.pre):
        yield "pre", (-av, encoding.fluent_var(p, t))
    for e in sorted(action.add):
        yield "add", (-av, encoding.fluent_var(e, t + 1))
    for e in sorted(action.delete):
        yield "del", (-av, -encoding.fluent_var(e, t + 1))


def encode_bounded(
    problem: PlanningProblem,
    n: int,
    include_goal: bool,
    *,
    action_order: Sequence[str] | None = None,
) -> BoundedEncoding:
    """CNF whose models are exactly the length-n executions of `problem`
    (reaching the goal when include_goal).

    Fluents are numbered in the problem's order; action_order numbers the
    actions, defaults to the problem's own and must cover them.
    """
    if n < 0:
        raise PlanningError("horizon must be nonnegative")
    if action_order is not None:
        act_labels = tuple(action_order)
    else:
        act_labels = tuple(a.label for a in problem.actions)
    if not {a.label for a in problem.actions} <= set(act_labels):
        raise PlanningError("action_order does not cover the problem's actions")
    fluents = problem.fluents
    num_vars = (n + 1) * len(fluents) + n * len(act_labels)
    enc = BoundedEncoding(problem, n, CnfFormula((), num_vars), act_labels)
    fluent_var, action_var = enc.fluent_var, enc.action_var

    own_actions = problem.actions  # already canonically sorted
    adders: dict[GroundAtom, list[str]] = {f: [] for f in fluents}
    deleters: dict[GroundAtom, list[str]] = {f: [] for f in fluents}
    for a in own_actions:
        for f in sorted(a.add):
            adders[f].append(a.label)
        for f in sorted(a.delete):
            deleters[f].append(a.label)

    clauses: dict[Clause, None] = {}  # insertion-ordered set
    notes: list[str] = []

    def emit(clause: tuple[int, ...], kind: str, t: int) -> None:
        clause = _normal(clause)
        if clause in clauses:
            notes.append(f"duplicate clause suppressed: {kind}@{t}")
        else:
            clauses[clause] = None

    for f in fluents:
        v = fluent_var(f, 0)
        emit((v if f in problem.init else -v,), "init", 0)

    for t in range(n):
        for a in own_actions:
            for kind, clause in _step_clauses(a, t, enc):
                emit(clause, kind, t)
        act_at = {a.label: action_var(a.label, t) for a in own_actions}
        for f in fluents:
            now, nxt = fluent_var(f, t), fluent_var(f, t + 1)
            emit((now, -nxt) + tuple(act_at[a] for a in adders[f]), "frame_on", t)
            emit((-now, nxt) + tuple(act_at[a] for a in deleters[f]), "frame_off", t)
        vs = tuple(act_at.values())
        if vs:
            emit(vs, "alo", t)
        else:
            notes.append(f"at-least-one omitted at step {t}: no actions")
        for i in range(len(vs)):
            for j in range(i + 1, len(vs)):
                emit((-vs[i], -vs[j]), "amo", t)

    if include_goal:
        for g in sorted(problem.goal):
            emit((fluent_var(g, n),), "goal", n)

    enc.cnf = CnfFormula(tuple(clauses), num_vars)
    enc.notes = tuple(notes)
    return enc


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
        lits = tuple(encoding.fluent_var(g, t) for t in range(n))
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
            fv = encoding.fluent_var(f, t)
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
    missing: list[Clause] = []
    origins: list[ClauseOrigin] = []
    for t, a in enumerate(plan):
        action = by_label.get(a.label)
        if action is None:
            continue
        for kind, clause in _step_clauses(action, t, reference):
            clause = _normal(clause)
            if clause not in have:
                missing.append(clause)
                origins.append(ClauseOrigin(kind, t, a.label))
    return FeasibilityResult(False, tuple(missing), tuple(origins))


def write_var_map(encoding: BoundedEncoding) -> str:
    """Sidecar text: `<variable> <name>@<t>` per line, variable-sorted."""
    return "\n".join(f"{v} {encoding.name_of(v)}"
                     for v in range(1, encoding.cnf.num_vars + 1)) + "\n"
