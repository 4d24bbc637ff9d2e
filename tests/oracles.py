"""Truth-table oracles and seeded instance generators used across the tests.

Everything here decides satisfiability by exhaustive assignment enumeration
encoded as bitmasks (assignment index bit v-1 holds variable v), completely
independent of the package's CDCL search, linear MCS scans, and deletion MUS
loops.  Practical only for small variable counts, which is what the
randomized test families use.

parse_dimacs_reference is parse_dimacs's token-by-token reference; every
clause goes through the package's one normaliser.

Four exceptions use the package's SAT solver.  brute_force_min_update
takes the package's consistency repair as given, and above 20 variables it
falls back to the solver.  verify_by_probing is the verifier's plain
reference: one solve per support clause, no model rotation.
extract_mcs_by_lists is the MCS search's reference: the same probes, each
handing the session its whole assumption list.  feasible_by_sat decides
plan feasibility on the bounded encoding instead of simulating the plan.
All four import mrex inside the function, so importing this module stays
solver-free.  decode_model reads the plan off a
model of the bounded encoding for the encoder's own tests.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Sequence

Clause = tuple[int, ...]


@lru_cache(maxsize=None)
def _var_pattern(num_vars: int, var: int) -> int:
    """Bitmask over all 2^num_vars assignments where `var` is true.

    Assignment index a has the bit set iff a >> (var-1) & 1, i.e. the mask
    is the block pattern (2^(var-1) zeros, 2^(var-1) ones) repeated; built
    arithmetically so large variable counts stay cheap."""
    half = 1 << (var - 1)  # half the period, in assignments
    block = ((1 << half) - 1) << half  # ones in the upper half of one period
    repeats = (1 << num_vars) // (2 * half)
    # Replicate the period across all assignments: multiply by a comb of
    # ones spaced one period apart.
    comb = ((1 << (repeats * 2 * half)) - 1) // ((1 << (2 * half)) - 1)
    return block * comb


def clause_mask(clause: Sequence[int], num_vars: int) -> int:
    """Assignments satisfying the clause."""
    full = (1 << (1 << num_vars)) - 1
    mask = 0
    for lit in clause:
        p = _var_pattern(num_vars, abs(lit))
        mask |= p if lit > 0 else full ^ p
    return mask


def formula_mask(clauses: Iterable[Sequence[int]], num_vars: int) -> int:
    mask = (1 << (1 << num_vars)) - 1
    for c in clauses:
        mask &= clause_mask(c, num_vars)
    return mask


def tt_satisfiable(clauses: Iterable[Sequence[int]], num_vars: int) -> bool:
    return formula_mask(clauses, num_vars) != 0


def tt_entails(kb: Iterable[Sequence[int]], query: Iterable[Sequence[int]], num_vars: int) -> bool:
    """kb |= query iff every kb model satisfies every query clause."""
    kb_mask = formula_mask(kb, num_vars)
    return kb_mask & ~formula_mask(query, num_vars) == 0


def tt_models(clauses: Iterable[Sequence[int]], num_vars: int) -> list[dict[int, bool]]:
    mask = formula_mask(clauses, num_vars)
    out = []
    for a in range(1 << num_vars):
        if mask >> a & 1:
            out.append({v: bool(a >> (v - 1) & 1) for v in range(1, num_vars + 1)})
    return out


def tt_backbone(clauses: Iterable[Sequence[int]], num_vars: int) -> frozenset[int]:
    """Literals true in every model (empty if unsatisfiable input slips in).

    Intersection over the model set, computed on the assignment bitmask:
    v is backbone-positive iff no model lies in the v-false half."""
    mask = formula_mask(clauses, num_vars)
    if mask == 0:
        return frozenset()
    full = (1 << (1 << num_vars)) - 1
    out = set()
    for v in range(1, num_vars + 1):
        pattern = _var_pattern(num_vars, v)
        if mask & (full ^ pattern) == 0:
            out.add(v)
        elif mask & pattern == 0:
            out.add(-v)
    return frozenset(out)


def tt_min_support_size(
    kb: Sequence[Clause], query: Sequence[Clause], num_vars: int
) -> int | None:
    """Smallest subset of kb entailing the query, by cardinality sweep."""
    ids = range(len(kb))
    for size in range(len(kb) + 1):
        for subset in combinations(ids, size):
            if tt_entails([kb[i] for i in subset], query, num_vars):
                return size
    return None


def tt_min_update_size(
    context: Sequence[Clause],
    candidates: Sequence[Clause],
    query: Sequence[Clause],
    num_vars: int,
) -> int | None:
    """Smallest candidate subset U with context ∪ U |= query."""
    ids = range(len(candidates))
    for size in range(len(candidates) + 1):
        for subset in combinations(ids, size):
            chosen = list(context) + [candidates[i] for i in subset]
            if tt_entails(chosen, query, num_vars):
                return size
    return None


_TT_LIMIT_VARS = 20


def brute_force_min_update(problem, *, max_candidates: int = 14):
    """Smallest update of a ReconcileProblem by exhaustive subset sweep.

    Enumerates subsets of kb_a \\ kb_h in ascending cardinality (id-ordered
    within each size) and returns (size, clauses) for the first whose union
    with the mode's context entails the query.  Satisfiability is decided by
    truth-table bitmasks up to 20 variables, otherwise by fresh selector
    sessions; neither path shares state with reconcile's search.
    """
    from mrex.formula import intersect_kbs, negate_query
    from mrex.minsets import Budget, workspace
    from mrex.reconcile import (
        RESTRICTED,
        PremiseError,
        ReconcileError,
        preprocess_consistency,
    )

    kb_a, kb_h, query = problem.kb_a, problem.kb_h, problem.query
    env = max(kb_a.num_vars, kb_h.num_vars, query.num_vars)
    hard_ids, soft_ids = intersect_kbs(kb_a, kb_h)
    candidates = [kb_a.clauses[i] for i in sorted(soft_ids)]
    if len(candidates) > max_candidates:
        raise ReconcileError(
            f"{len(candidates)} candidate clauses exceed the exhaustive sweep limit"
        )
    kept_h, _removed = preprocess_consistency(kb_a, kb_h, env, Budget(None))
    if problem.mode == RESTRICTED:
        context = [kb_a.clauses[i] for i in sorted(hard_ids)]
    else:
        context = list(kept_h)

    if env <= _TT_LIMIT_VARS:
        ctx_mask = formula_mask(context, env)
        query_mask = formula_mask(query.clauses, env)
        cand_masks = [clause_mask(c, env) for c in candidates]

        def entails(subset: tuple[int, ...]) -> bool:
            m = ctx_mask
            for i in subset:
                m &= cand_masks[i]
            return m & ~query_mask == 0

    else:
        neg = negate_query(query, env + 1)
        ws = workspace(env + len(neg.aux_vars), context + list(neg.clauses), candidates)

        def entails(subset: tuple[int, ...]) -> bool:
            return not ws.solve_ids(subset).satisfiable

    ids = range(len(candidates))
    for size in range(len(candidates) + 1):
        for subset in combinations(ids, size):
            if entails(subset):
                return size, tuple(candidates[i] for i in subset)
    raise PremiseError("no candidate subset closes the entailment gap")


def verify_by_probing(kb_h: Iterable[Clause], support: Iterable[Clause], query):
    """verify_explanation's report with one minimality solve per support
    clause: clause i is redundant when ¬query and the other support clauses
    are unsatisfiable."""
    from mrex.formula import negate_query
    from mrex.minsets import workspace
    from mrex.reconcile import VerificationReport

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

    ws = workspace(total, kb_h_clauses + support, neg.clauses)
    entailed = not ws.solve_ids(range(len(ws.soft))).satisfiable
    if not entailed:
        failures.append("support with kb_h does not entail the query")
    consistent = ws.solve_ids(()).satisfiable
    if not consistent:
        failures.append("support conflicts with kb_h")

    minimal = True
    probe = workspace(total, neg.clauses, support)
    for i in range(len(support)):
        rest = set(range(len(support))) - {i}
        if not probe.solve_ids(rest).satisfiable:
            minimal = False
            failures.append(f"support clause {support[i]} is redundant")
    return VerificationReport(entailed, minimal, consistent, tuple(failures))


def extract_mcs_by_lists(ws, seed: Iterable[int] = ()):
    """extract_mcs with no assumption stack: every probe passes the session
    the kept clauses in the order they joined and the probe last, and every
    model's admitted clauses come from a scan of all soft clauses.  Prefix
    matching makes these the same solves, in the same order, from the same
    levels as extract_mcs."""
    from mrex.minsets import McsResult, NothingToCorrectError

    order = sorted(seed)
    kept = set(order)
    res = ws.solve_ids(order)
    if not res.satisfiable:
        return None
    admitted = ws.satisfied_ids(res.model, kept, 0)
    order += admitted
    kept.update(admitted)
    for i in range(len(ws.soft)):
        if i in kept:
            continue
        probe = order + [i]
        r = ws.solve_ids(probe)
        if r.satisfiable:
            kept.add(i)
            admitted = ws.satisfied_ids(r.model, kept, 0)
            order = probe + admitted
            kept.update(admitted)
    mcs = frozenset(range(len(ws.soft))) - kept
    if not mcs:
        raise NothingToCorrectError("hard and soft clauses are jointly satisfiable")
    return McsResult(mcs)


def _dimacs_int(tok: str) -> int | None:
    """tok's value when it is an ASCII decimal integer, `-?[0-9]+`."""
    digits = tok[1:] if tok.startswith("-") else tok
    if not digits or any(ch not in "0123456789" for ch in digits):
        return None
    try:
        return int(tok)
    except ValueError:  # more digits than int() converts
        return None


def parse_dimacs_reference(text: str):
    """parse_dimacs's plain reference: one token at a time, every clause
    through CnfFormula.from_clauses, so the same clauses, num_vars,
    warnings and errors (type and message) in the same file order."""
    from mrex.formula import MAX_VARIABLE, CnfFormula, DimacsParseError

    header: tuple[int, int] | None = None
    tokens: list[str] = []
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped[0] == "c":
            continue
        if stripped.startswith("p"):
            if header is not None:
                raise DimacsParseError("duplicate `p cnf` header")
            parts = stripped.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise DimacsParseError(f"malformed header: {stripped!r}")
            vars_, count = _dimacs_int(parts[2]), _dimacs_int(parts[3])
            if vars_ is None or count is None:
                raise DimacsParseError(f"malformed header: {stripped!r}")
            header = (vars_, count)
            if header[0] < 0 or header[1] < 0:
                raise DimacsParseError(f"negative counts in header: {stripped!r}")
            continue
        tokens.extend(stripped.split())
    if header is None:
        raise DimacsParseError("missing `p cnf` header")

    clauses: list[list[int]] = []
    current: list[int] = []
    top = 0
    for tok in tokens:
        lit = _dimacs_int(tok)
        if lit is None:
            raise DimacsParseError(f"bad token {tok!r}")
        if lit == 0:
            clauses.append(current)
            current = []
            continue
        if abs(lit) > MAX_VARIABLE:
            raise DimacsParseError(f"variable {abs(lit)} exceeds supported range")
        top = max(top, abs(lit))
        current.append(lit)
    if current:
        raise DimacsParseError("clause missing its 0 terminator at end of input")

    formula = CnfFormula.from_clauses(clauses, num_vars=header[0], drop_tautologies=True)
    warnings = list(formula.warnings)
    if top > header[0]:
        warnings.append(f"header announced {header[0]} variables, found variable {top}")
    if len(clauses) != header[1]:
        warnings.append(f"header announced {header[1]} clauses, found {len(clauses)}")
    return CnfFormula(formula.clauses, formula.num_vars, tuple(warnings))


def feasible_by_sat(encoding, plan) -> bool:
    """check_feasibility's verdict from the encoding itself: one solve
    assuming each step's action variable and the goal fluents at the
    horizon."""
    from mrex.minsets import workspace

    n = encoding.horizon
    assumptions = [encoding.action_var(a.label, t) for t, a in enumerate(plan)]
    assumptions += [encoding.fluent_var(g, n) for g in sorted(encoding.problem.goal)]
    session = workspace(encoding.cnf.num_vars, encoding.cnf.clauses)
    return session.solve(assumptions).satisfiable


def decode_model(encoding, model: Sequence[bool]) -> tuple:
    """Plan named by the model's true action variables, one per step."""
    from mrex.planning import PlanningError

    by_label = {a.label: a for a in encoding.problem.actions}
    steps = []
    for t in range(encoding.horizon):
        chosen = [lbl for lbl in by_label if model[encoding.action_var(lbl, t)]]
        if len(chosen) != 1:
            raise PlanningError(
                f"model selects {len(chosen)} actions at step {t}, expected 1"
            )
        steps.append(by_label[chosen[0]])
    return tuple(steps)


def plan_dynamics_clauses(encoding, plan) -> list[Clause]:
    """Each plan step's pre, add and del clauses, in that order and each
    sorted by atom, under the encoding's variables: built from the step
    action's atom sets and the encoding's fluent_var and action_var alone."""
    out: list[Clause] = []
    for t, a in enumerate(plan):
        act = encoding.action_var(a.label, t)
        lits = [encoding.fluent_var(p, t) for p in sorted(a.pre)]
        lits += [encoding.fluent_var(e, t + 1) for e in sorted(a.add)]
        lits += [-encoding.fluent_var(e, t + 1) for e in sorted(a.delete)]
        out += [tuple(sorted((-act, lit), key=abs)) for lit in lits]
    return out


def subset_sat_table(
    soft: Sequence[Clause], hard: Sequence[Clause], num_vars: int
) -> list[bool]:
    """sat[mask] = is hard ∪ {soft[i] : mask bit i} satisfiable."""
    base = formula_mask(hard, num_vars)
    masks = [clause_mask(c, num_vars) for c in soft]
    k = len(soft)
    table = [0] * (1 << k)
    table[0] = base
    for m in range(1, 1 << k):
        low = m & -m
        table[m] = table[m ^ low] & masks[low.bit_length() - 1]
    return [t != 0 for t in table]


def tt_all_muses(soft: Sequence[Clause], hard: Sequence[Clause], num_vars: int) -> set[frozenset[int]]:
    sat = subset_sat_table(soft, hard, num_vars)
    k = len(soft)
    out = set()
    for m in range(1 << k):
        if sat[m]:
            continue
        if all(sat[m ^ (1 << b)] for b in range(k) if m >> b & 1):
            out.add(frozenset(b for b in range(k) if m >> b & 1))
    return out


def tt_all_mcses(soft: Sequence[Clause], hard: Sequence[Clause], num_vars: int) -> set[frozenset[int]]:
    sat = subset_sat_table(soft, hard, num_vars)
    k = len(soft)
    full = (1 << k) - 1
    out = set()
    for m in range(1 << k):  # m = candidate removal set
        if not sat[full ^ m]:
            continue
        if all(not sat[(full ^ m) | (1 << b)] for b in range(k) if m >> b & 1):
            out.add(frozenset(b for b in range(k) if m >> b & 1))
    return out


def no_cancel() -> None:
    """The `cancel` of a hitting-set search that has no deadline."""


def hitting_instance(sets: Iterable[Iterable[int]] = ()):
    """A HittingSetInstance holding the given sets, added in order."""
    from mrex.hitting import HittingSetInstance

    instance = HittingSetInstance()
    for s in sets:
        instance.add_set(s)
    return instance


def mask_ids(instance, mask: int) -> frozenset[int]:
    """Element ids of a HittingSetInstance mask, through its bit -> id list."""
    return frozenset(instance.ids[b] for b in range(mask.bit_length()) if mask >> b & 1)


def instance_sets(instance) -> list[frozenset[int]]:
    """The element-id sets of a HittingSetInstance, read from its masks."""
    return [mask_ids(instance, m) for m in instance.masks]


def all_minimal_hitting_sets(sets: Iterable[frozenset[int]]) -> set[frozenset[int]]:
    """Brute force over subsets of the union universe."""
    sets = list(sets)
    universe = sorted(set().union(*sets)) if sets else []
    hits: list[frozenset[int]] = []
    for size in range(len(universe) + 1):
        for combo in combinations(universe, size):
            cand = frozenset(combo)
            if all(cand & s for s in sets):
                if not any(h <= cand for h in hits):
                    hits.append(cand)
    return set(hits)


def brute_min_hitting_set_size(sets: Iterable[frozenset[int]]) -> int:
    sets = list(sets)
    if not sets:
        return 0
    universe = sorted(set().union(*sets))
    for size in range(len(universe) + 1):
        for combo in combinations(universe, size):
            cand = frozenset(combo)
            if all(cand & s for s in sets):
                return size
    raise AssertionError("unhittable collection")


def random_clause(rng: random.Random, num_vars: int, width: int) -> Clause:
    vs = rng.sample(range(1, num_vars + 1), min(width, num_vars))
    return tuple(sorted((v if rng.random() < 0.5 else -v for v in vs), key=abs))


def random_cnf(
    rng: random.Random, num_vars: int, num_clauses: int, max_width: int = 3
) -> list[Clause]:
    out: list[Clause] = []
    seen: set[Clause] = set()
    attempts = 0
    while len(out) < num_clauses and attempts < 100 * (num_clauses + 1):
        attempts += 1
        width = rng.randint(1, max_width)
        c = random_clause(rng, num_vars, width)
        if c in seen:
            continue
        seen.add(c)
        out.append(c)
    return out


def random_unsat_soft(
    rng: random.Random,
    num_vars: int,
    num_soft: int,
    num_hard: int = 0,
    max_width: int = 3,
) -> tuple[list[Clause], list[Clause]]:
    """Soft/hard pair with hard satisfiable but hard ∪ soft unsatisfiable.

    Rejection sampling; callers should keep the clause count high enough
    relative to num_vars for unsatisfiable draws to be likely.
    """
    for _ in range(20000):
        hard = random_cnf(rng, num_vars, num_hard, max_width) if num_hard else []
        if num_hard and not tt_satisfiable(hard, num_vars):
            continue
        soft = random_cnf(rng, num_vars, num_soft, max_width)
        if set(soft) & set(hard):
            continue
        if not tt_satisfiable(soft + hard, num_vars):
            return soft, hard
    raise AssertionError(
        f"no unsatisfiable draw in 20000 tries (vars={num_vars}, soft={num_soft})"
    )


def random_reconcile_instance(
    rng: random.Random,
    num_vars: int = 8,
    kb_a_size: int = 10,
    max_diff: int = 12,
) -> tuple[list[Clause], list[Clause], list[Clause]]:
    """(kb_a, kb_h, query) with kb_a |= query, kb_h consistent, kb_h not |= query,
    and |kb_a \\ kb_h| <= max_diff.  Query is a conjunction of unit clauses."""
    while True:
        kb_a = random_cnf(rng, num_vars, kb_a_size)
        if not tt_satisfiable(kb_a, num_vars):
            continue
        backbone = tt_backbone(kb_a, num_vars)
        if not backbone:
            continue
        k = rng.randint(1, min(2, len(backbone)))
        query = [(l,) for l in rng.sample(sorted(backbone, key=abs), k)]
        shared = [c for c in kb_a if rng.random() < 0.4]
        extra = random_cnf(rng, num_vars, rng.randint(0, 3))
        kb_h = shared + [c for c in extra if c not in set(shared)]
        if not tt_satisfiable(kb_h, num_vars):
            continue
        if tt_entails(kb_h, query, num_vars):
            continue
        if len(set(kb_a) - set(kb_h)) > max_diff:
            continue
        return kb_a, kb_h, query
