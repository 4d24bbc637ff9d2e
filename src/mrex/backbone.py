"""Backbone literals: literals true in every model of a formula."""

from __future__ import annotations

from .formula import CnfFormula, FormulaError
from .minsets import workspace


class UnsatisfiableError(FormulaError):
    """The formula has no models, so every literal is vacuously entailed."""


def compute_backbone(kb: CnfFormula) -> tuple[int, ...]:
    """All literals entailed by kb, sorted by variable.

    Model refinement: each model rules out candidates it falsifies, and
    variables absent from every clause can never be backbone.  A survivor
    that the session holds true at level 0 is backbone with no solve; a
    solve there would refute its assumption at once and learn nothing, so
    skipping it leaves every later model as it was.  Each other survivor
    is confirmed by one solve under the opposing assumption.
    """
    session = workspace(kb.num_vars, kb.clauses)
    first = session.solve()
    if not first.satisfiable:
        raise UnsatisfiableError("formula is unsatisfiable; backbone is undefined")

    occurring = {abs(l) for c in kb.clauses for l in c}
    candidates = {
        v if first.model[v] else -v
        for v in range(1, kb.num_vars + 1)
        if v in occurring
    }
    backbone: list[int] = []
    for lit in sorted(candidates, key=abs):
        if lit not in candidates:
            continue
        if session.fixed(lit):
            backbone.append(lit)
            continue
        res = session.solve([-lit])
        if res.satisfiable:
            candidates.discard(lit)
            for other in list(candidates):
                if res.model[abs(other)] != (other > 0):
                    candidates.discard(other)
        else:
            backbone.append(lit)
    return tuple(sorted(backbone, key=abs))
