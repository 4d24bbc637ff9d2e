"""State-space plan validation and breadth-first optimal planning."""

from __future__ import annotations

from collections import deque
from typing import Sequence

from .model import GroundAction, PlanningError, PlanningProblem

DEFAULT_STATE_CAP = 100_000


class GoalUnreachableError(PlanningError):
    pass


class StateCapError(PlanningError):
    pass


def apply_action(state: frozenset, action: GroundAction) -> frozenset:
    return (state - action.delete) | action.add


def validate_plan(problem: PlanningProblem, plan: Sequence[GroundAction]) -> bool:
    """Simulate: preconditions hold at each step and the final state ⊇ goal."""
    state = frozenset(problem.init)
    for action in plan:
        if not action.pre <= state:
            return False
        state = apply_action(state, action)
    return problem.goal <= state


def optimal_plan_search(problem: PlanningProblem) -> tuple[GroundAction, ...]:
    """Shortest plan by breadth-first search over reachable states.

    Deterministic: actions are expanded in the problem's canonical order.
    Raises StateCapError past DEFAULT_STATE_CAP visited states and
    GoalUnreachableError when the search space is exhausted.
    """
    start = frozenset(problem.init)
    if problem.goal <= start:
        return ()
    visited = {start}
    queue: deque[tuple[frozenset, tuple[GroundAction, ...]]] = deque([(start, ())])
    while queue:
        state, plan = queue.popleft()
        for action in problem.actions:
            if not action.pre <= state:
                continue
            nxt = apply_action(state, action)
            if nxt in visited:
                continue
            if problem.goal <= nxt:
                return plan + (action,)
            visited.add(nxt)
            if len(visited) > DEFAULT_STATE_CAP:
                raise StateCapError(
                    f"state space exceeds the cap ({DEFAULT_STATE_CAP})")
            queue.append((nxt, plan + (action,)))
    raise GoalUnreachableError("goal is unreachable from the initial state")
