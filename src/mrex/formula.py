"""Propositional CNF data model: literals, clauses, formulas, DIMACS I/O.

Literals follow the DIMACS convention: a positive integer v is the positive
literal of variable v, -v its negation.  Clauses are duplicate-free tuples
sorted by variable, which makes syntactic comparison of clauses (and thereby
knowledge-base intersection) well defined.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from operator import ge
from typing import Iterable, Iterator

Literal = int
Clause = tuple[int, ...]

MAX_VARIABLE = 2**31 - 1

_DECIMAL = re.compile(r"-?[0-9]+")
_EMPTY_CLAUSE = "empty clause present (formula is unsatisfiable)"


class FormulaError(ValueError):
    """Base class for CNF construction and parse failures."""


class TautologyError(FormulaError):
    """A clause contains some literal together with its negation."""


class DimacsParseError(FormulaError):
    """The DIMACS input violates the expected format."""


class DegenerateQueryError(FormulaError):
    """The query is empty, contains an empty clause, or is unsatisfiable."""


def normalize_clause(lits: Iterable[int]) -> Clause:
    """Canonical clause form: sorted by variable, duplicates removed.

    Raises TautologyError when both polarities of a variable occur, and
    FormulaError for 0 or out-of-range literals.  The empty clause is legal
    (it denotes falsum).
    """
    seen: set[int] = set()
    for lit in lits:
        if not isinstance(lit, int) or lit == 0:
            raise FormulaError(f"bad literal {lit!r}")
        if not -MAX_VARIABLE <= lit <= MAX_VARIABLE:
            raise FormulaError(f"literal {lit} out of range")
        if -lit in seen:
            raise TautologyError(f"clause contains {lit} and {-lit}")
        seen.add(lit)
    return tuple(sorted(seen, key=abs))


@dataclass(frozen=True)
class CnfFormula:
    """Immutable CNF formula with dense, stable clause ids (list positions)."""

    clauses: tuple[Clause, ...] = ()
    num_vars: int = 0
    warnings: tuple[str, ...] = field(default=(), compare=False)

    @classmethod
    def from_clauses(
        cls,
        clauses: Iterable[Iterable[int]],
        num_vars: int = 0,
        *,
        drop_tautologies: bool = False,
    ) -> "CnfFormula":
        """Normalize, merge duplicates, and compute the variable envelope."""
        return cls()._append(clauses, num_vars, drop_tautologies)

    def _append(
        self, clauses: Iterable[Iterable[int]], num_vars: int, drop_tautologies: bool
    ) -> "CnfFormula":
        """This formula plus the normalised new clauses, duplicates merged."""
        out = list(self.clauses)
        index = {c: i for i, c in enumerate(out)}
        warnings = list(self.warnings)
        max_var = num_vars
        for raw in clauses:
            try:
                clause = normalize_clause(raw)
            except TautologyError:
                if not drop_tautologies:
                    raise
                warnings.append(f"tautological clause {tuple(raw)} dropped")
                continue
            if clause in index:
                warnings.append(
                    f"clause {clause} at position {len(out)} duplicates id {index[clause]}; merged"
                )
                continue
            if not clause:
                warnings.append(_EMPTY_CLAUSE)
            index[clause] = len(out)
            out.append(clause)
            if clause:
                max_var = max(max_var, abs(clause[-1]))
        return type(self)(tuple(out), max_var, tuple(warnings))

    def __len__(self) -> int:
        return len(self.clauses)

    def __iter__(self) -> Iterator[Clause]:
        return iter(self.clauses)

    def clause_set(self) -> frozenset[Clause]:
        return frozenset(self.clauses)

    def extended(self, clauses: Iterable[Iterable[int]]) -> "CnfFormula":
        """New formula with extra clauses appended; existing ids are unchanged.

        Only the new clauses are normalised: the existing ones already are.
        A new clause equal to an existing one merges into it."""
        return self._append(clauses, self.num_vars, drop_tautologies=False)


def _integer(tok: str) -> int | None:
    """tok's value when it is a DIMACS integer, `-?[0-9]+`, else None.
    int() alone also reads `+`, `_` and non-ASCII digits."""
    if _DECIMAL.fullmatch(tok) is None:
        return None
    try:
        return int(tok)
    except ValueError:  # more digits than int() converts
        return None


def parse_literal(tok: str) -> int:
    """tok's value as a literal token, `-?[0-9]+`; DimacsParseError otherwise."""
    lit = _integer(tok)
    if lit is None:
        raise DimacsParseError(f"bad literal token {tok!r}")
    return lit


def _first_bad_token(tokens: Iterable[str]) -> DimacsParseError:
    """The error for the first token, in file order, that is no DIMACS
    integer or names a variable out of range."""
    for tok in tokens:
        lit = _integer(tok)
        if lit is None:
            return DimacsParseError(f"bad token {tok!r}")
        if abs(lit) > MAX_VARIABLE:
            return DimacsParseError(f"variable {abs(lit)} exceeds supported range")
    raise AssertionError("every token is a DIMACS integer in range")


def parse_dimacs(text: str) -> CnfFormula:
    """Parse DIMACS CNF: comment lines `c ...`, one `p cnf V C` header, then
    zero-terminated clauses (which may span or share lines).  Every number
    is an ASCII decimal integer, `-?[0-9]+`.

    Duplicate clauses are merged and tautologies dropped, both recorded in
    formula warnings, as are a variable above the header's count and a
    clause count other than the header's.  num_vars is the max of the
    header value and the largest variable used.

    A file whose clauses are all already normal (strictly increasing in
    variable) and distinct, as write_dimacs writes them, becomes a
    CnfFormula at once; any other goes through CnfFormula.from_clauses.
    """
    header: tuple[int, int] | None = None
    body: list[str] = []
    for line in text.splitlines():
        stripped = line.strip()
        # "" is in "cp" too: blank lines go with the comments
        if stripped[:1] not in "cp":
            body.append(stripped)
        elif stripped[:1] == "p":
            if header is not None:
                raise DimacsParseError("duplicate `p cnf` header")
            parts = stripped.split()
            counts = [_integer(x) for x in parts[2:]]
            if len(parts) != 4 or parts[1] != "cnf" or None in counts:
                raise DimacsParseError(f"malformed header: {stripped!r}")
            header = (counts[0], counts[1])
            if header[0] < 0 or header[1] < 0:
                raise DimacsParseError(f"negative counts in header: {stripped!r}")
    if header is None:
        raise DimacsParseError("missing `p cnf` header")

    tokens = " ".join(body).split()
    joined = "".join(tokens)
    # beyond `-?[0-9]+`, int() reads only tokens with `+`, `_` or a
    # non-ASCII digit
    if not joined.isascii() or "_" in joined or "+" in joined:
        raise _first_bad_token(tokens)
    try:
        lits = tuple(map(int, tokens))
    except ValueError:
        raise _first_bad_token(tokens) from None
    sizes = list(map(abs, lits))
    top = max(sizes, default=0)
    if top > MAX_VARIABLE:
        raise _first_bad_token(tokens)
    if lits and lits[-1] != 0:
        raise DimacsParseError("clause missing its 0 terminator at end of input")

    clauses: list[Clause] = []
    start = 0
    find = lits.index
    for _ in range(lits.count(0)):
        end = find(0, start)
        clauses.append(lits[start:end])
        start = end + 1
    # Every clause is normal, its variables strictly increasing, exactly
    # when neighbouring tokens fail to increase in variable only where the
    # second one is a terminator.
    terminators = len(clauses) - (lits[:1] == (0,))
    normal = sum(map(ge, sizes, sizes[1:])) == terminators
    distinct = set(clauses)
    if normal and len(distinct) == len(clauses):
        formula = CnfFormula(tuple(clauses), max(header[0], top),
                             (_EMPTY_CLAUSE,) if () in distinct else ())
    else:
        formula = CnfFormula.from_clauses(clauses, num_vars=header[0], drop_tautologies=True)
    warnings = list(formula.warnings)
    if top > header[0]:
        warnings.append(f"header announced {header[0]} variables, found variable {top}")
    if len(clauses) != header[1]:
        warnings.append(f"header announced {header[1]} clauses, found {len(clauses)}")
    return CnfFormula(formula.clauses, formula.num_vars, tuple(warnings))


def write_dimacs(formula: CnfFormula) -> str:
    """Serialize to DIMACS; parse_dimacs(write_dimacs(f)) == f."""
    lines = [f"p cnf {formula.num_vars} {len(formula.clauses)}"]
    for clause in formula.clauses:
        lines.append(" ".join(str(l) for l in clause) + " 0")
    return "\n".join(lines) + "\n"


def parse_literal_list(text: str) -> CnfFormula:
    """Parse a conjunction of literals, one or more per line, as unit clauses."""
    lits: list[int] = []
    for line in text.splitlines():
        stripped = line.split("#", 1)[0].strip()
        if not stripped or stripped.startswith("c "):
            continue
        for tok in stripped.split():
            lit = parse_literal(tok)
            if lit == 0:
                continue
            lits.append(lit)
    if not lits:
        raise DegenerateQueryError("query has no literals")
    return CnfFormula.from_clauses([(l,) for l in lits])


def parse_query_text(text: str) -> CnfFormula:
    """Accept either DIMACS CNF or a bare literal list as a query."""
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.startswith("p "):
            return parse_dimacs(text)
    return parse_literal_list(text)


def intersect_kbs(kb_a: CnfFormula, kb_h: CnfFormula) -> tuple[frozenset[int], frozenset[int]]:
    """Split kb_a's clause ids by syntactic membership in kb_h.

    Returns (hard_ids, soft_ids): hard ids are the shared clauses
    (kb_a ∩ kb_h), soft ids the kb_a-only ones.  The union is every kb_a id.
    """
    in_h = kb_h.clause_set()
    hard = frozenset(i for i, c in enumerate(kb_a.clauses) if c in in_h)
    soft = frozenset(range(len(kb_a.clauses))) - hard
    return hard, soft


@dataclass(frozen=True)
class QueryNegation:
    """CNF of ¬query, equisatisfiable over the original variables."""

    clauses: tuple[Clause, ...]
    aux_vars: range


def negate_query(query: CnfFormula, next_free_var: int) -> QueryNegation:
    """Negate a CNF query.

    All-unit queries negate to one clause over the same variables.  Otherwise
    each query clause D_i gets a selector s_i with clauses {(-s_i, -l) : l in
    D_i} plus the disjunction (s_1 ... s_k): any model of the negation
    falsifies some D_i and any assignment falsifying the query extends to a
    model of the negation.
    """
    if not query.clauses:
        raise DegenerateQueryError("query has no clauses")
    if any(not c for c in query.clauses):
        raise DegenerateQueryError("query contains the empty clause")
    if next_free_var <= query.num_vars:
        raise FormulaError("aux variables would collide with query variables")
    if all(len(c) == 1 for c in query.clauses):
        try:
            clause = normalize_clause(-c[0] for c in query.clauses)
        except TautologyError as exc:
            raise DegenerateQueryError(
                "query contains complementary unit clauses; its negation is valid"
            ) from exc
        return QueryNegation((clause,), range(next_free_var, next_free_var))
    k = len(query.clauses)
    selectors = range(next_free_var, next_free_var + k)
    clauses: list[Clause] = []
    for s, disjunct in zip(selectors, query.clauses):
        for lit in disjunct:
            clauses.append(normalize_clause((-s, -lit)))
    clauses.append(tuple(selectors))
    return QueryNegation(tuple(clauses), selectors)
