"""Ground STRIPS model: atoms, actions, problems, plans."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence


class PlanningError(ValueError):
    pass


@dataclass(frozen=True, order=True)
class GroundAtom:
    """A predicate applied to object names, e.g. on(a,b)."""

    predicate: str
    args: tuple[str, ...] = ()

    def __str__(self) -> str:
        if not self.args:
            return self.predicate
        return f"{self.predicate}({','.join(self.args)})"

    @classmethod
    def parse(cls, text: str) -> "GroundAtom":
        text = text.strip()
        if text.startswith("(") and text.endswith(")"):
            parts = text[1:-1].split()
            if not parts:
                raise PlanningError("empty atom")
            return cls(parts[0], tuple(parts[1:]))
        if "(" in text:
            head, _, rest = text.partition("(")
            if not rest.endswith(")"):
                raise PlanningError(f"malformed atom {text!r}")
            args = tuple(a for a in map(str.strip, rest[:-1].split(",")) if a)
            return cls(head, args)
        return cls(text)


@dataclass(frozen=True, order=True)
class GroundAction:
    """An instantiated operator with precondition/add/delete atom sets.

    Delete effects are normalized to exclude add effects (add wins when an
    operator lists an atom in both, matching the usual STRIPS semantics).
    """

    name: str
    args: tuple[str, ...] = ()
    pre: frozenset[GroundAtom] = frozenset()
    add: frozenset[GroundAtom] = frozenset()
    delete: frozenset[GroundAtom] = frozenset()

    def __post_init__(self):
        if self.add & self.delete:
            object.__setattr__(self, "delete", self.delete - self.add)

    @cached_property  # set once per action; eq, hash and order use the fields
    def label(self) -> str:
        return str(GroundAtom(self.name, self.args))

    def __str__(self) -> str:
        return self.label

    def atoms(self) -> frozenset[GroundAtom]:
        return self.pre | self.add | self.delete


@dataclass(frozen=True)
class PlanningProblem:
    """Ground task: fluent universe, actions, initial state, goal.

    fluents and actions are canonically sorted; init and goal must be drawn
    from the fluent universe and every action must mention only universe
    atoms.
    """

    fluents: tuple[GroundAtom, ...]
    actions: tuple[GroundAction, ...]
    init: frozenset[GroundAtom]
    goal: frozenset[GroundAtom]

    def __post_init__(self):
        universe = set(self.fluents)
        if len(universe) != len(self.fluents):
            raise PlanningError("duplicate fluents")
        if not self.init <= universe:
            raise PlanningError("initial state mentions unknown fluents")
        if not self.goal <= universe:
            raise PlanningError("goal mentions unknown fluents")
        for a in self.actions:
            if not a.atoms() <= universe:
                raise PlanningError(f"action {a.label} mentions unknown fluents")

    @classmethod
    def build(
        cls,
        actions: Iterable[GroundAction],
        init: Iterable[GroundAtom],
        goal: Iterable[GroundAtom],
    ) -> "PlanningProblem":
        """Problem over the atom universe induced by its parts."""
        init = frozenset(init)
        goal = frozenset(goal)
        actions = tuple(sorted(actions, key=lambda a: a.label))
        universe = set(init) | set(goal)
        for a in actions:
            universe |= a.atoms()
        return cls(tuple(sorted(universe)), actions, init, goal)

    def replace_actions(self, actions: Iterable[GroundAction]) -> "PlanningProblem":
        """Same universe/init/goal with a different action set."""
        return PlanningProblem(
            self.fluents, tuple(sorted(actions, key=lambda a: a.label)),
            self.init, self.goal,
        )

    def replace_init(self, init: Iterable[GroundAtom]) -> "PlanningProblem":
        return PlanningProblem(self.fluents, self.actions, frozenset(init), self.goal)


Plan = tuple[GroundAction, ...]


def parse_plan_text(text: str, problem: PlanningProblem) -> Plan:
    """One action per line, `(stack a b)` or `stack(a, b)`, in any case."""
    by_label: Mapping[str, GroundAction] = {a.label: a for a in problem.actions}
    steps: list[GroundAction] = []
    for raw in text.splitlines():
        line = raw.split(";")[0].strip()
        if not line:
            continue
        label = str(GroundAtom.parse(line.lower()))
        if label not in by_label:
            raise PlanningError(f"plan references unknown action {label!r}")
        steps.append(by_label[label])
    return tuple(steps)


def write_plan_text(plan: Sequence[GroundAction]) -> str:
    lines = []
    for a in plan:
        lines.append("(" + " ".join((a.name,) + a.args) + ")")
    return "\n".join(lines) + ("\n" if lines else "")
