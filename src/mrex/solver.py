"""Incremental CDCL SAT sessions with assumption-based solving.

A session owns a growing list of hard clauses plus a list of soft clauses
guarded by selector variables, so callers can switch clause subsets on and
off between solves without rebuilding (MiniSat's assumption interface).  Its
problem variables are fixed at construction (1..num_vars); soft clause i is
guarded by selector num_vars + 1 + i, and a clause naming a variable above
num_vars is a usage error, so it can never alias a selector.  Callers
address soft clauses by position: solve_ids, core_ids and satisfied_ids
translate to and from selectors.  Solving is deterministic: identical
session histories produce identical answers, models, and conflict subsets.

The session owns an assumption stack, bottom first, and each entry takes one
decision level, in stack order (Een & Sorensson, "An Extensible SAT-solver",
SAT 2003; Nadel & Ryvchin, "Efficient SAT Solving under Assumptions", SAT
2012).  push_ids checks each soft clause position once, when it is pushed,
and raises before the stack changes; pop drops entries and backtracks below
the levels it drops; solve(None) solves under the stack as it stands.  Trail
levels 1..k hold the stack's first k entries, for k the smaller of the
trail's level count and the stack's length; a level above the stack is a
decision that the last answer left, and a push backtracks over those before
it appends.  An answer leaves the trail at the level it was found on, so the
next solve keeps the stack's levels and opens levels only for the entries
pushed since (van der Tak, Ramos & Heule, "Reusing the Assignment Trail in
CDCL Solvers", JSAT 2011).  solve(assumptions) is prefix matching on top of
the stack: it keeps the longest prefix of the stack's levels whose entries
it still assumes, pops the rest and pushes the remaining literals in the
order the caller lists them; only the pushed literals are checked.  So a
caller that grows one assumption set pays one level per new literal, not one
per literal.  A conflict reached while the trail holds only assumption levels
is learnt and backjumped over as usual, and then answers UNSAT at once: the
assumptions that propagation used to reach it are the conflict subset, and
the learnt clause's asserting literal waits on the trail for the next solve
to propagate.  So a caller that pushes the literal it tests last keeps, when
the test fails, every level up to the backjump.  One walk over a clause's
literals both checks and loads it, so a malformed clause raises before the
session changes.  Adding a clause, and reducing the learnt clauses, start
from level 0.

Each decision branches on the unassigned problem variable of largest VSIDS
activity, the smallest variable among ties.  Selectors are never decided
(MiniSat's non-decision variables; Een & Sorensson, "An Extensible
SAT-solver", SAT 2003).  A selector occurs only as -s: in its guarded
clause, hence in every learnt clause, hence in every literal that
propagation forces.  So a selector that no assumption sets true is never
true; if it is still unassigned once every problem variable is assigned, it
reads false in the model, which satisfies every clause that holds it.

The variable order is one list of the problem variables sorted by
(-activity, var) with a cursor below which every variable is assigned, in
the spirit of MiniSat's order: backtracking only lowers the cursor, and
bumping an activity marks the list for one re-sort before the next
decision, so the order holds exactly num_vars entries.  Restarts follow the
Luby sequence in units of 256 conflicts.

Binary clauses, problem and learnt alike, are not watched: each literal
keeps the list of literals that a binary clause implies once it is false
(MiniSat's binary implication lists), and propagation runs those before the
watched long clauses at each trail literal.  A literal implied by a binary
clause gets the reason [implied, other], the same shape as a long clause
whose first literal is the implied one, so conflict analysis and the learnt
reduction treat both alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import neg
from typing import TYPE_CHECKING, Container, Iterable

if TYPE_CHECKING:
    from .minsets import Budget

# When True every SAT answer is audited clause-by-clause against the
# registered hard clauses and the assumed soft clauses (test builds).
check_models = False

_RESTART_BASE = 256
_POLL_CONFLICTS = 256  # a budgeted solve polls its deadline this often
_MIN_LEARNTS = 5000  # reduce past max(this, 2 * problem clauses) learnts


class SolverUsageError(ValueError):
    """Malformed clause or assumption handed to a session."""


@dataclass(frozen=True)
class SolveResult:
    """Outcome of one solve call.

    model is a total assignment indexed by variable (entry 0 unused) on SAT;
    a selector that no assumption set true reads False.  conflict_subset on
    UNSAT names assumption literals that, together with the hard clauses
    and the soft clauses whose selectors appear among them, are jointly
    unsatisfiable.
    """

    satisfiable: bool
    model: tuple[bool, ...] | None = None
    conflict_subset: frozenset[int] | None = None

    def value(self, lit: int) -> bool:
        v = self.model[lit if lit > 0 else -lit]
        return v if lit > 0 else not v


def _luby(i: int) -> int:
    """Luby restart sequence 1,1,2,1,1,2,4,... (1-indexed)."""
    k = 1
    while (1 << (k + 1)) - 1 <= i:
        k += 1
    while (1 << k) - 1 != i:
        i = i - (1 << k) + 1
        k = 1
        while (1 << (k + 1)) - 1 <= i:
            k += 1
    return 1 << (k - 1)


class SatSession:
    """One incremental solver instance; operations own their sessions.

    With a budget, every solve_ids first polls its deadline and then counts
    against it, and every solve polls the deadline again each
    _POLL_CONFLICTS conflicts, so one hard solve stops soon after the
    deadline instead of running to its answer.  The session starts empty:
    add_hard and add_soft load it.
    """

    def __init__(self, num_vars: int, budget: Budget | None = None):
        # CPython 3.11 keeps at most 29 instance attributes inline, and a
        # 30th slows every attribute access of the session; it holds 28.
        # Per-variable arrays, entry 0 unused, one entry per problem
        # variable and selector; _assign holds +1 true, -1 false, 0
        # unassigned.
        self._assign: list[int] = [0] * (num_vars + 1)
        self._level: list[int] = [0] * (num_vars + 1)
        self._reason: list[list[int] | None] = [None] * (num_vars + 1)
        self._phase: list[bool] = [False] * (num_vars + 1)
        self._activity: list[float] = [0.0] * (num_vars + 1)
        # Variables sorted by (-activity, var); _rank[v] is v's position and
        # every variable ranked below _next is assigned.  _bump only marks
        # the order stale and the next _pick_branch re-sorts it.
        self._order: list[int] = list(range(1, num_vars + 1))
        self._rank: list[int] = [0, *range(num_vars)]
        self._next = 0
        self._stale = False
        # _watches[l] holds the long clauses that watch literal l; a binary
        # clause (a, b) lives only in _bins, as b in _bins[a] and a in
        # _bins[b]: once a is false, b is implied with reason [b, a].
        self._watches: dict[int, list[list[int]]] = {}
        self._bins: dict[int, list[int]] = {}
        self._learnts: list[list[int]] = []
        self._n_problem_clauses = 0
        self._trail: list[int] = []
        self._trail_lim: list[int] = []
        # The assumption stack, bottom first, and the set of its literals.
        self._assumed: list[int] = []
        self._on_stack: set[int] = set()
        self._qhead = 0
        self._var_inc = 1.0
        self._ok = True
        self.num_vars = num_vars
        self.budget = budget
        self.hard: list[tuple[int, ...]] = []
        self.soft: list[tuple[int, ...]] = []
        self.conflicts = 0
        self.decisions = 0
        self.assumption_levels = 0
        self.propagations = 0

    def _new_var(self) -> int:
        v = len(self._assign)
        self._assign.append(0)
        self._level.append(0)
        self._reason.append(None)
        self._phase.append(False)
        self._activity.append(0.0)
        # a selector is never decided: it stays out of the order, ranked at
        # its end so that unassigning it never lowers the cursor
        self._rank.append(self.num_vars)
        return v

    def add_hard(self, clause: Iterable[int]) -> None:
        lits = tuple(clause)
        self._load(lits, soft=False)
        self.hard.append(lits)

    def add_soft(self, clause: Iterable[int]) -> int:
        """Register clause behind a fresh selector; assuming the selector
        activates the clause.  Returns the selector variable."""
        lits = tuple(clause)
        s = self._load(lits, soft=True)
        self.soft.append(lits)
        return s

    def _selectors(self, ids: Iterable[int]) -> list[int]:
        """The selectors of the soft clauses at these positions; a position
        outside range(len(self.soft)) is a usage error."""
        base = self.num_vars + 1
        selectors = list(map(base.__add__, ids))
        if selectors:
            low, high = min(selectors), max(selectors)
            if low < base or high >= base + len(self.soft):
                bad = low - base if low < base else high - base
                raise SolverUsageError(f"soft clause id {bad} is out of range")
        return selectors

    def solve_ids(self, ids: Iterable[int] | None) -> SolveResult:
        """Solve with the soft clauses at these positions switched on, or,
        for None, under the assumption stack as it stands."""
        selectors = None if ids is None else self._selectors(ids)
        if self.budget is not None:
            self.budget.check()
            self.budget.calls += 1
        return self.solve(selectors)

    def push_ids(self, ids: Iterable[int]) -> None:
        """Push the selectors of the soft clauses at these positions onto
        the assumption stack, in order.  A position out of range or already
        on the stack is a usage error, raised before the stack changes."""
        selectors = self._selectors(ids)
        on = self._on_stack
        size = len(on)
        on.update(selectors)
        if len(on) - size < len(selectors):  # a position twice, or pushed before
            self._on_stack = set(self._assumed)
            seen = set(self._on_stack)
            bad = next(x for x in selectors if x in seen or seen.add(x))
            raise SolverUsageError(
                f"soft clause id {bad - self.num_vars - 1} is pushed twice")
        self._backtrack(len(self._assumed))
        self._assumed += selectors

    def pop(self, k: int) -> None:
        """Drop the top k entries of the assumption stack, and the trail
        levels above the entries left."""
        stack = self._assumed
        n = len(stack) - k
        if k < 0 or n < 0:
            raise SolverUsageError(f"cannot pop {k} of {len(stack)} assumptions")
        self._on_stack.difference_update(stack[n:])
        del stack[n:]
        self._backtrack(n)

    def core_ids(self, result: SolveResult) -> set[int]:
        """Positions of the soft clauses in an UNSAT answer's conflict subset."""
        base = self.num_vars + 1
        return {x - base for x in result.conflict_subset if x >= base}

    def fixed(self, lit: int) -> bool:
        """Whether lit is assigned true at level 0, where only the hard
        clauses and the learnt clauses they entail assign: then every
        model of the hard clauses makes lit true."""
        v = lit if lit > 0 else -lit
        a = self._assign[v]
        return a != 0 and self._level[v] == 0 and (a == 1) == (lit > 0)

    def satisfied_ids(self, model: tuple[bool, ...], skip: Container[int],
                      start: int) -> list[int]:
        """Positions from start on, outside skip, whose soft clause the
        model satisfies."""
        out = []
        for i, clause in enumerate(self.soft[start:], start):
            if i in skip:
                continue
            for l in clause:
                if model[l] if l > 0 else not model[-l]:
                    out.append(i)
                    break
        return out

    def _load(self, lits: tuple[int, ...], soft: bool) -> int:
        """Check lits and add them at level 0, when soft behind a fresh
        selector s as -s ∨ lits; returns s, or 0 when hard.  Each literal
        is checked and read at the root, where a variable assigned above
        level 0 counts as unassigned."""
        assign = self._assign
        level = self._level
        nvars = self.num_vars
        seen: set[int] = set()
        out: list[int] = []
        satisfied = False
        for l in lits:
            if not isinstance(l, int) or l == 0:
                raise SolverUsageError(f"bad literal {l!r}")
            v = l if l > 0 else -l
            if v > nvars:
                raise SolverUsageError(
                    f"literal {l} is beyond the session's {nvars} variables")
            if -l in seen:
                raise SolverUsageError(f"tautological clause {lits}")
            if l in seen:
                raise SolverUsageError(f"duplicate literal in clause {lits}")
            seen.add(l)
            a = assign[v]
            if a == 0 or level[v] > 0:
                out.append(l)
            elif (a == 1) == (l > 0):
                satisfied = True  # at the root, forever
        s = 0
        if soft:
            s = self._new_var()
            out.insert(0, -s)
        if self._trail_lim:
            self._backtrack(0)
        if satisfied or not self._ok:
            return s
        if not out:
            self._ok = False
        elif len(out) == 1:
            self._enqueue(out[0], None)
            if self._propagate() is not None:
                self._ok = False
        else:
            self._n_problem_clauses += 1
            self._attach(out)
        return s

    def _attach(self, clause: list[int]) -> None:
        a, b = clause[0], clause[1]
        if len(clause) == 2:
            self._bins.setdefault(a, []).append(b)
            self._bins.setdefault(b, []).append(a)
        else:
            self._watches.setdefault(a, []).append(clause)
            self._watches.setdefault(b, []).append(clause)

    def _enqueue(self, lit: int, reason: list[int] | None) -> None:
        v = lit if lit > 0 else -lit
        self._assign[v] = 1 if lit > 0 else -1
        self._level[v] = len(self._trail_lim)
        self._reason[v] = reason
        self._trail.append(lit)

    def _propagate(self) -> list[int] | None:
        """Propagate the trail from _qhead to a fixpoint or a conflict; each
        trail literal's binary implications go before its long clauses."""
        trail = self._trail
        assign = self._assign
        level = self._level
        reason = self._reason
        watches = self._watches
        bins = self._bins
        push = trail.append
        lvl = len(self._trail_lim)
        start = qhead = self._qhead
        while qhead < len(trail):
            p = trail[qhead]
            qhead += 1
            np = -p
            imps = bins.get(np)
            if imps:
                for q in imps:
                    v = q if q > 0 else -q
                    a = assign[v]
                    if a == 0:
                        assign[v] = 1 if q > 0 else -1
                        level[v] = lvl
                        reason[v] = [q, np]
                        push(q)
                    elif (a == 1) != (q > 0):
                        self.propagations += qhead - start
                        self._qhead = len(trail)
                        return [q, np]
            wl = watches.get(np)
            if not wl:
                continue
            keep: list[list[int]] = []
            it = iter(wl)
            for c in it:
                if c[0] == np:
                    c[0] = c[1]
                    c[1] = np
                first = c[0]
                v0 = assign[first] if first > 0 else -assign[-first]
                if v0 == 1:
                    keep.append(c)
                    continue
                for k in range(2, len(c)):
                    lk = c[k]
                    if (assign[lk] if lk > 0 else -assign[-lk]) != -1:
                        c[1] = lk
                        c[k] = np
                        watches.setdefault(lk, []).append(c)
                        break
                else:
                    keep.append(c)
                    if v0 == -1:
                        keep.extend(it)
                        watches[np] = keep
                        self.propagations += qhead - start
                        self._qhead = len(trail)
                        return c
                    v = first if first > 0 else -first
                    assign[v] = 1 if first > 0 else -1
                    level[v] = lvl
                    reason[v] = c
                    push(first)
            watches[np] = keep
        self.propagations += qhead - start
        self._qhead = qhead
        return None

    def _backtrack(self, level: int) -> None:
        if len(self._trail_lim) <= level:
            return
        bound = self._trail_lim[level]
        trail = self._trail
        assign = self._assign
        phase = self._phase
        reason = self._reason
        rank = self._rank
        nxt = self._next
        for idx in range(len(trail) - 1, bound - 1, -1):
            lit = trail[idx]
            v = lit if lit > 0 else -lit
            phase[v] = lit > 0
            assign[v] = 0
            reason[v] = None
            if rank[v] < nxt:
                nxt = rank[v]
        self._next = nxt
        del trail[bound:]
        del self._trail_lim[level:]
        self._qhead = bound

    def _bump(self, v: int) -> None:
        activity = self._activity
        activity[v] += self._var_inc
        self._stale = True
        if activity[v] > 1e100:
            scale = 1e-100
            for u in range(1, len(activity)):
                activity[u] *= scale
            self._var_inc *= scale

    def _analyze(self, confl: list[int]) -> tuple[list[int], int]:
        """1UIP conflict analysis; returns (learnt clause, backtrack level)."""
        seen = bytearray(len(self._assign))
        learnt: list[int] = [0]
        level = self._level
        reason = self._reason
        trail = self._trail
        cur = len(self._trail_lim)
        counter = 0
        p = 0
        idx = len(trail) - 1
        c: list[int] | None = confl
        while True:
            start = 0 if p == 0 else 1
            for j in range(start, len(c)):
                q = c[j]
                v = q if q > 0 else -q
                if not seen[v] and level[v] > 0:
                    seen[v] = 1
                    self._bump(v)
                    if level[v] >= cur:
                        counter += 1
                    else:
                        learnt.append(q)
            while True:
                p = trail[idx]
                idx -= 1
                v = p if p > 0 else -p
                if seen[v]:
                    break
            counter -= 1
            seen[v] = 0
            if counter == 0:
                break
            c = reason[v]
        learnt[0] = -p
        if len(learnt) == 1:
            return learnt, 0
        # move the highest-level tail literal into the second watch slot
        best = 1
        for j in range(2, len(learnt)):
            if level[abs(learnt[j])] > level[abs(learnt[best])]:
                best = j
        learnt[1], learnt[best] = learnt[best], learnt[1]
        return learnt, level[abs(learnt[1])]

    def _analyze_final(self, lits: Iterable[int]) -> set[int]:
        """The assumptions whose propagation made every literal of lits
        false.  Called with only assumption levels on the trail, so every
        literal above level 0 that has no reason is an assumption."""
        level = self._level
        reason = self._reason
        trail = self._trail
        seen = bytearray(len(self._assign))
        pending = 0
        for q in lits:
            v = q if q > 0 else -q
            if level[v] > 0 and not seen[v]:
                seen[v] = 1
                pending += 1
        out: set[int] = set()
        if not pending:
            return out
        for lit in reversed(trail):
            u = lit if lit > 0 else -lit
            if not seen[u]:
                continue
            r = reason[u]
            if r is None:
                out.add(lit)
            else:
                for q in r[1:]:
                    w = q if q > 0 else -q
                    if level[w] > 0 and not seen[w]:
                        seen[w] = 1
                        pending += 1
            pending -= 1
            if not pending:
                break
        return out

    def _pick_branch(self) -> int:
        """The unassigned variable of largest activity, the smallest one
        among ties; 0 when every variable is assigned."""
        order = self._order
        if self._stale:
            # a stable sort keeps tied activities in ascending variable order
            order[:] = sorted(range(1, self.num_vars + 1),
                              key=self._activity.__getitem__, reverse=True)
            rank = self._rank
            for i, v in enumerate(order):
                rank[v] = i
            self._stale = False
            self._next = 0
        assign = self._assign
        i = self._next
        n = len(order)
        while i < n and assign[order[i]] != 0:
            i += 1
        self._next = i
        return order[i] if i < n else 0

    def _record_learnt(self, learnt: list[int]) -> None:
        if len(learnt) == 1:
            self._enqueue(learnt[0], None)
            return
        self._learnts.append(learnt)
        self._attach(learnt)
        self._enqueue(learnt[0], learnt)

    def _reduce_db(self) -> None:
        """Drop the longer half of the learnt clauses.  Called at level 0
        only, so which clauses survive does not depend on the trail: solve
        gives up its kept assumption levels when a reduction is due."""
        ranked = sorted(range(len(self._learnts)), key=lambda i: (len(self._learnts[i]), i))
        kept_ids = set(ranked[: len(ranked) // 2])
        new_learnts: list[list[int]] = []
        for i, c in enumerate(self._learnts):
            v0 = c[0] if c[0] > 0 else -c[0]
            locked = self._assign[v0] != 0 and self._reason[v0] is c
            # a binary learnt stays: its implications in _bins are never pruned
            if i in kept_ids or len(c) <= 2 or locked:
                new_learnts.append(c)
            else:
                c.clear()
        self._learnts = new_learnts
        # dropped clauses leave the watch lists here; _propagate never
        # tests for them
        for wl in self._watches.values():
            wl[:] = [c for c in wl if c]

    def _assume(self, assumptions: Iterable[int], depth: int) -> int:
        """Make the stack hold the assumption literals, matching a prefix of
        its first depth entries, the levels the trail still holds.  The
        literals it pushes are checked first, so a bad one raises before the
        stack changes.  Returns the smallest literal whose complement is
        also assumed, or 0."""
        assumps = list(assumptions)
        aset = set(assumps)  # also the stack's literals once this returns
        if len(aset) < len(assumps):
            assumps = list(dict.fromkeys(assumps))
        stack = self._assumed
        k = 0
        while k < depth and stack[k] in aset:
            k += 1
        rest = assumps
        if k:
            kept = set(stack[:k])
            rest = [a for a in assumps if a not in kept]
        nvars = len(self._assign) - 1
        if rest and (min(rest) < -nvars or max(rest) > nvars or 0 in rest):
            bad = next(a for a in rest if a == 0 or abs(a) > nvars)
            raise SolverUsageError(f"assumption {bad} references an unregistered variable")
        del stack[k:]
        stack += rest
        self._on_stack = aset
        self._backtrack(k)
        # the kept prefix is clash-free: its literals are true on the trail
        if aset.isdisjoint(map(neg, rest)):
            return 0
        return -max(abs(a) for a in rest if -a in aset)

    def solve(self, assumptions: Iterable[int] | None = ()) -> SolveResult:
        """Solve under the assumption literals, matched against the stack's
        prefix, or, for None, under the assumption stack as it stands."""
        # Reduce here too, or solves that never restart keep every learnt.
        max_learnts = max(_MIN_LEARNTS, 2 * self._n_problem_clauses)
        reduce = len(self._learnts) > max_learnts
        # a due reduction keeps no level: _reduce_db runs at level 0
        keep = 0 if reduce else min(len(self._trail_lim), len(self._assumed))
        clash = 0 if assumptions is None else self._assume(assumptions, keep)
        self._backtrack(keep)
        if not self._ok:
            return SolveResult(False, conflict_subset=frozenset())
        if clash:
            return SolveResult(False, conflict_subset=frozenset((clash, -clash)))
        assumps = self._assumed

        if reduce:
            self._reduce_db()
        conflicts = 0
        restarts = 0
        limit = _RESTART_BASE * _luby(1)
        trail = self._trail
        trail_lim = self._trail_lim
        assign = self._assign
        levels = self._level
        phase = self._phase
        watches = self._watches
        bins = self._bins
        while True:
            # A decision or assumption whose negation nothing watches has
            # already stepped _qhead past itself; only real work calls here.
            confl = self._propagate() if self._qhead < len(trail) else None
            if confl is not None:
                self.conflicts += 1
                if not self._trail_lim:
                    self._ok = False
                    return SolveResult(False, conflict_subset=frozenset())
                # with only assumption levels on the trail, the conflict
                # refutes the assumptions that propagation used to reach it
                core = (self._analyze_final(confl) if len(trail_lim) <= len(assumps)
                        else None)
                learnt, back = self._analyze(confl)
                self._backtrack(back)
                self._record_learnt(learnt)
                self._var_inc /= 0.95
                if self.budget is not None and self.conflicts % _POLL_CONFLICTS == 0:
                    self.budget.check()
                if core is not None:
                    return SolveResult(False, conflict_subset=frozenset(core))
                conflicts += 1
                if conflicts >= limit:
                    conflicts = 0
                    restarts += 1
                    limit = _RESTART_BASE * _luby(restarts + 1)
                    self._backtrack(0)
                    if len(self._learnts) > max_learnts:
                        self._reduce_db()
                continue
            level = len(trail_lim)
            if level < len(assumps):
                lit = assumps[level]
                v = lit if lit > 0 else -lit
                a = assign[v]
                if a and (a == 1) != (lit > 0):
                    core = self._analyze_final((lit,))
                    core.add(lit)
                    return SolveResult(False, conflict_subset=frozenset(core))
                self.assumption_levels += 1
                if a:  # already true: the level stays empty
                    trail_lim.append(len(trail))
                    continue
            else:
                v = self._pick_branch()
                if v == 0:
                    model = tuple(map((1).__eq__, assign))
                    if check_models:
                        self._audit(model, self._on_stack)
                    return SolveResult(True, model=model)
                self.decisions += 1
                lit = v if phase[v] else -v
            # an unassigned variable's reason is already None
            trail_lim.append(len(trail))
            assign[v] = 1 if lit > 0 else -1
            levels[v] = level + 1
            trail.append(lit)
            if not watches.get(-lit) and not bins.get(-lit):
                self._qhead += 1

    def _audit(self, model: tuple[bool, ...], assumed: set[int]) -> None:
        def holds(clause: tuple[int, ...]) -> bool:
            return any(model[l] if l > 0 else not model[-l] for l in clause)

        for clause in self.hard:
            if not holds(clause):
                raise AssertionError(f"model violates hard clause {clause}")
        for s, clause in enumerate(self.soft, self.num_vars + 1):
            if s in assumed and not holds(clause):
                raise AssertionError(f"model violates assumed soft clause {clause}")
        for a in assumed:
            v = a if a > 0 else -a
            if model[v] != (a > 0):
                raise AssertionError(f"model violates assumption {a}")
