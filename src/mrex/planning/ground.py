"""Instantiate a lifted task into a ground PlanningProblem."""

from __future__ import annotations

from itertools import product

from .model import GroundAction, GroundAtom, PlanningError, PlanningProblem
from .pddl import ActionSchema, LiftedTask, ROOT_TYPE

DEFAULT_ACTION_CAP = 100_000


class GroundingCapError(PlanningError):
    pass


def _ancestors(types: dict[str, str], t: str) -> set[str]:
    out = {t}
    while t != types.get(t, ROOT_TYPE):
        t = types.get(t, ROOT_TYPE)
        out.add(t)
    out.add(ROOT_TYPE)
    return out


def objects_of_type(task: LiftedTask, wanted: str) -> list[str]:
    """Objects whose declared type is `wanted` or a descendant of it."""
    return sorted(
        name for name, t in task.objects.items()
        if wanted in _ancestors(task.types, t)
    )


def _instantiate(schema: ActionSchema, binding: dict[str, str]) -> GroundAction:
    def sub(terms: tuple[str, ...]) -> tuple[str, ...]:
        return tuple(binding.get(t, t) for t in terms)

    return GroundAction(
        name=schema.name,
        args=tuple(binding[v] for v, _t in schema.parameters),
        pre=frozenset(GroundAtom(a.predicate, sub(a.terms)) for a in schema.pre),
        add=frozenset(GroundAtom(a.predicate, sub(a.terms)) for a in schema.add),
        delete=frozenset(GroundAtom(a.predicate, sub(a.terms)) for a in schema.delete),
    )


def ground(task: LiftedTask) -> PlanningProblem:
    """All type-consistent instantiations of every schema that bind
    distinct objects to distinct parameters (stack(a,a)-style
    instantiations are never useful in the benchmark domains and bloat the
    encoding).  The fluent universe is the set of atoms in init, goal, and
    the ground actions.  Raises GroundingCapError past DEFAULT_ACTION_CAP
    actions.
    """
    actions: list[GroundAction] = []
    for schema in task.schemas:
        domains = [objects_of_type(task, t) for _v, t in schema.parameters]
        names = [v for v, _t in schema.parameters]
        for combo in product(*domains):
            if len(set(combo)) != len(combo):
                continue
            actions.append(_instantiate(schema, dict(zip(names, combo))))
            if len(actions) > DEFAULT_ACTION_CAP:
                raise GroundingCapError(
                    f"grounding exceeds the action cap ({DEFAULT_ACTION_CAP})"
                )
    return PlanningProblem.build(actions, task.init, task.goal)
