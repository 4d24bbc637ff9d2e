"""Seeded degradations of a ground planning model (scenarios 1-8).

Each scenario deletes parts of the model — preconditions, effects, initial
atoms, or whole actions — to fabricate an incomplete user model.  All
choices are drawn from a seeded RNG over canonically sorted candidates, so
a (problem, scenario, seed) triple always yields the same result.  The
fluent universe is preserved so encodings of the original and tweaked
problems stay variable-aligned.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import TypeVar

from .model import GroundAction, PlanningError, PlanningProblem

T = TypeVar("T")

SCENARIOS = {
    1: "one random precondition removed from every action",
    2: "one random effect removed from every action",
    3: "one random precondition and one random effect removed from every action",
    4: "several random preconditions and effects removed from every action",
    5: "all preconditions removed from every action",
    6: "several random atoms removed from the initial state",
    7: "all effects removed from every action",
    8: "all actions removed",
}


@dataclass(frozen=True)
class TweakRecord:
    scenario: int
    kind: str  # pre|add|del|init|action|skip
    action: str | None = None
    atom: str | None = None


@dataclass(frozen=True)
class TweakedModel:
    problem: PlanningProblem
    log: tuple[TweakRecord, ...]


def draw(rng: random.Random, pool: list[T], k: int) -> list[T]:
    """Pop min(k, len(pool)) items from pool at seeded random positions, in
    draw order.  Keeping this call sequence keeps seeded outputs stable."""
    return [pool.pop(rng.randrange(len(pool))) for _ in range(min(k, len(pool)))]


def _drop_pre(action: GroundAction, rng: random.Random, count: int,
              scenario: int, log: list[TweakRecord]) -> GroundAction:
    chosen = draw(rng, sorted(action.pre), count)
    if not chosen:
        log.append(TweakRecord(scenario, "skip", action.label, "no-preconditions"))
        return action
    for atom in chosen:
        log.append(TweakRecord(scenario, "pre", action.label, str(atom)))
    return replace(action, pre=action.pre - set(chosen))


def _drop_effects(action: GroundAction, rng: random.Random, count: int,
                  scenario: int, log: list[TweakRecord]) -> GroundAction:
    pool = sorted([("add", a) for a in action.add] + [("del", d) for d in action.delete])
    chosen = draw(rng, pool, count)
    if not chosen:
        log.append(TweakRecord(scenario, "skip", action.label, "no-effects"))
        return action
    add, delete = set(action.add), set(action.delete)
    for kind, atom in chosen:
        log.append(TweakRecord(scenario, kind, action.label, str(atom)))
        (add if kind == "add" else delete).discard(atom)
    return replace(action, add=frozenset(add), delete=frozenset(delete))


def tweak_model(
    problem: PlanningProblem,
    scenario: int,
    seed: int,
    *,
    count: int,
) -> TweakedModel:
    """Apply one scenario's deletions; see SCENARIOS for the catalogue.

    `count` parameterizes the "several" scenarios: per-action precondition
    and effect removals in scenario 4 and initial-state removals in
    scenario 6.
    """
    if scenario not in SCENARIOS:
        raise PlanningError(f"unknown scenario {scenario}; expected 1..8")
    rng = random.Random(seed)
    log: list[TweakRecord] = []
    actions: list[GroundAction] = []

    if scenario == 6:
        removed = draw(rng, sorted(problem.init), count)
        for atom in removed:
            log.append(TweakRecord(6, "init", atom=str(atom)))
        tweaked = problem.replace_init(problem.init - set(removed))
        return TweakedModel(tweaked, tuple(log))

    if scenario == 8:
        for a in problem.actions:
            log.append(TweakRecord(8, "action", a.label))
        return TweakedModel(problem.replace_actions(()), tuple(log))

    for action in problem.actions:
        a = action
        if scenario == 1:
            a = _drop_pre(a, rng, 1, scenario, log)
        elif scenario == 2:
            a = _drop_effects(a, rng, 1, scenario, log)
        elif scenario == 3:
            a = _drop_pre(a, rng, 1, scenario, log)
            a = _drop_effects(a, rng, 1, scenario, log)
        elif scenario == 4:
            a = _drop_pre(a, rng, count, scenario, log)
            a = _drop_effects(a, rng, count, scenario, log)
        elif scenario == 5:
            for atom in sorted(a.pre):
                log.append(TweakRecord(5, "pre", a.label, str(atom)))
            a = replace(a, pre=frozenset())
        elif scenario == 7:
            for atom in sorted(a.add):
                log.append(TweakRecord(7, "add", a.label, str(atom)))
            for atom in sorted(a.delete):
                log.append(TweakRecord(7, "del", a.label, str(atom)))
            a = replace(a, add=frozenset(), delete=frozenset())
        actions.append(a)
    return TweakedModel(problem.replace_actions(actions), tuple(log))
