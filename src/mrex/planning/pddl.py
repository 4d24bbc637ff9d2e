"""PDDL reader for the STRIPS fragment (:strips, optional :typing).

Rejects anything outside positive-conjunctive STRIPS: other requirement
flags, negative or compound preconditions/goals, conditional effects,
undefined predicates or types, arity mismatches.  A predicate or action
name holding ':' is rejected too (PDDL names cannot carry one), so the
encoder's `do:` prefix for an action named like a fluent stays unique.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .model import GroundAtom, PlanningError


class PddlParseError(PlanningError):
    pass


SUPPORTED_REQUIREMENTS = {":strips", ":typing"}
ROOT_TYPE = "object"

Sexp = list | str


def _tokenize(text: str) -> list[str]:
    lines = [line.split(";")[0] for line in text.splitlines()]
    cleaned = "\n".join(lines).replace("(", " ( ").replace(")", " ) ")
    return cleaned.lower().split()


def _read_sexp(tokens: list[str], pos: int) -> tuple[Sexp, int]:
    if pos >= len(tokens):
        raise PddlParseError("unexpected end of input")
    tok = tokens[pos]
    if tok == "(":
        out: list[Sexp] = []
        pos += 1
        while pos < len(tokens) and tokens[pos] != ")":
            node, pos = _read_sexp(tokens, pos)
            out.append(node)
        if pos >= len(tokens):
            raise PddlParseError("unbalanced parentheses")
        return out, pos + 1
    if tok == ")":
        raise PddlParseError("unexpected ')'")
    return tok, pos + 1


def parse_sexp(text: str) -> Sexp:
    tokens = _tokenize(text)
    node, pos = _read_sexp(tokens, 0)
    if pos != len(tokens):
        raise PddlParseError("trailing tokens after top-level form")
    return node


def _typed_list(items: list[str], what: str) -> list[tuple[str, str]]:
    """`?x ?y - block ?z` style lists; untyped entries get the root type."""
    out: list[tuple[str, str]] = []
    pending: list[str] = []
    i = 0
    while i < len(items):
        tok = items[i]
        if tok == "-":
            if i + 1 >= len(items):
                raise PddlParseError(f"dangling '-' in {what} list")
            if not pending:
                raise PddlParseError(f"type with no names in {what} list")
            t = items[i + 1]
            if not isinstance(t, str):
                raise PddlParseError(f"compound type in {what} list unsupported")
            out.extend((name, t) for name in pending)
            pending = []
            i += 2
        else:
            if not isinstance(tok, str):
                raise PddlParseError(f"nested form in {what} list")
            pending.append(tok)
            i += 1
    out.extend((name, ROOT_TYPE) for name in pending)
    return out


@dataclass(frozen=True)
class LiftedAtom:
    predicate: str
    terms: tuple[str, ...]  # `?var` or constant names


@dataclass(frozen=True)
class ActionSchema:
    name: str
    parameters: tuple[tuple[str, str], ...]  # (variable, type)
    pre: tuple[LiftedAtom, ...]
    add: tuple[LiftedAtom, ...]
    delete: tuple[LiftedAtom, ...]


@dataclass
class LiftedTask:
    domain_name: str = ""
    problem_name: str = ""
    requirements: tuple[str, ...] = ()
    types: dict[str, str] = field(default_factory=dict)  # type -> parent
    predicates: dict[str, tuple[str, ...]] = field(default_factory=dict)
    schemas: tuple[ActionSchema, ...] = ()
    objects: dict[str, str] = field(default_factory=dict)  # name -> type
    init: frozenset[GroundAtom] = frozenset()
    goal: frozenset[GroundAtom] = frozenset()


def _expect_header(node: Sexp, kind: str) -> str:
    if (
        not isinstance(node, list)
        or not node
        or node[0] != "define"
        or not isinstance(node[1], list)
        or len(node[1]) != 2
        or node[1][0] != kind
    ):
        raise PddlParseError(f"not a PDDL {kind} file")
    return node[1][1]


def _atom_list(node: Sexp, what: str) -> list[LiftedAtom]:
    """Positive conjunction: `(and (p ...) ...)`, a single atom, or `(and)`."""
    if not isinstance(node, list):
        raise PddlParseError(f"{what} must be a form")
    if not node:
        return []
    if node[0] == "and":
        items = node[1:]
    else:
        items = [node]
    out = []
    for item in items:
        if not isinstance(item, list) or not item:
            raise PddlParseError(f"malformed atom in {what}")
        head = item[0]
        if head in ("not", "or", "exists", "forall", "when", "imply", "="):
            raise PddlParseError(
                f"{what} supports positive conjunctions only; found ({head} ...)"
            )
        if not all(isinstance(t, str) for t in item[1:]):
            raise PddlParseError(f"nested term in {what}")
        out.append(LiftedAtom(head, tuple(item[1:])))
    return out


def _effect_lists(node: Sexp) -> tuple[list[LiftedAtom], list[LiftedAtom]]:
    if not isinstance(node, list):
        raise PddlParseError("effect must be a form")
    items = node[1:] if node and node[0] == "and" else [node] if node else []
    add: list[LiftedAtom] = []
    delete: list[LiftedAtom] = []
    for item in items:
        if not isinstance(item, list) or not item:
            raise PddlParseError("malformed effect")
        if item[0] == "not":
            if len(item) != 2 or not isinstance(item[1], list) or not item[1]:
                raise PddlParseError("malformed delete effect")
            inner = item[1]
            if not all(isinstance(t, str) for t in inner):
                raise PddlParseError("nested term in delete effect")
            delete.append(LiftedAtom(inner[0], tuple(inner[1:])))
        elif item[0] in ("when", "forall", "or", "exists"):
            raise PddlParseError(f"effects support literals only; found ({item[0]} ...)")
        else:
            if not all(isinstance(t, str) for t in item):
                raise PddlParseError("nested term in add effect")
            add.append(LiftedAtom(item[0], tuple(item[1:])))
    return add, delete


def parse_domain(text: str) -> LiftedTask:
    node = parse_sexp(text)
    task = LiftedTask(domain_name=_expect_header(node, "domain"))
    task.types[ROOT_TYPE] = ROOT_TYPE
    schemas: list[ActionSchema] = []
    for section in node[2:]:
        if not isinstance(section, list) or not section:
            raise PddlParseError("malformed domain section")
        head = section[0]
        if head == ":requirements":
            reqs = tuple(section[1:])
            bad = [r for r in reqs if r not in SUPPORTED_REQUIREMENTS]
            if bad:
                raise PddlParseError(f"unsupported requirement flags: {', '.join(bad)}")
            task.requirements = reqs
        elif head == ":types":
            for name, parent in _typed_list(section[1:], "types"):
                task.types[name] = parent
            for parent in list(task.types.values()):
                task.types.setdefault(parent, ROOT_TYPE)
        elif head == ":constants":
            for name, t in _typed_list(section[1:], "constants"):
                task.objects[name] = t
        elif head == ":predicates":
            for p in section[1:]:
                if not isinstance(p, list) or not p or not isinstance(p[0], str):
                    raise PddlParseError("malformed predicate declaration")
                if ":" in p[0]:
                    raise PddlParseError(f"predicate name {p[0]!r} holds ':'")
                params = _typed_list(p[1:], f"predicate {p[0]}")
                task.predicates[p[0]] = tuple(t for _v, t in params)
        elif head == ":action":
            schemas.append(_parse_action(section, task))
        elif head in (":functions", ":derived", ":axiom", ":constraints"):
            raise PddlParseError(f"unsupported domain section {head}")
        else:
            raise PddlParseError(f"unknown domain section {head}")
    task.schemas = tuple(schemas)
    _check_schema_arities(task)
    return task


def _parse_action(section: list, task: LiftedTask) -> ActionSchema:
    if len(section) < 2 or not isinstance(section[1], str):
        raise PddlParseError("action needs a name")
    name = section[1]
    if ":" in name:
        raise PddlParseError(f"action name {name!r} holds ':'")
    fields: dict[str, Sexp] = {}
    i = 2
    while i < len(section):
        key = section[i]
        if not isinstance(key, str) or not key.startswith(":"):
            raise PddlParseError(f"expected keyword in action {name}")
        if i + 1 >= len(section):
            raise PddlParseError(f"missing value for {key} in action {name}")
        fields[key] = section[i + 1]
        i += 2
    params_node = fields.get(":parameters", [])
    if not isinstance(params_node, list):
        raise PddlParseError(f"parameters of {name} must be a list")
    parameters = tuple(_typed_list(params_node, f"parameters of {name}"))
    for v, _t in parameters:
        if not v.startswith("?"):
            raise PddlParseError(f"parameter {v!r} of {name} must start with '?'")
    pre = tuple(_atom_list(fields.get(":precondition", []), f"precondition of {name}"))
    add, delete = _effect_lists(fields.get(":effect", []))
    unknown = set(fields) - {":parameters", ":precondition", ":effect"}
    if unknown:
        raise PddlParseError(f"unsupported action fields in {name}: {sorted(unknown)}")
    return ActionSchema(name, parameters, pre, tuple(add), tuple(delete))


def _check_schema_arities(task: LiftedTask) -> None:
    for schema in task.schemas:
        scope = {v for v, _t in schema.parameters}
        for atom in schema.pre + schema.add + schema.delete:
            if atom.predicate not in task.predicates:
                raise PddlParseError(
                    f"undefined predicate {atom.predicate!r} in action {schema.name}"
                )
            if len(atom.terms) != len(task.predicates[atom.predicate]):
                raise PddlParseError(
                    f"arity mismatch for {atom.predicate!r} in action {schema.name}"
                )
            for term in atom.terms:
                if term.startswith("?") and term not in scope:
                    raise PddlParseError(
                        f"unbound variable {term!r} in action {schema.name}"
                    )
        for _v, t in schema.parameters:
            if t not in task.types:
                raise PddlParseError(f"undefined type {t!r} in action {schema.name}")


def parse_problem(text: str, task: LiftedTask) -> LiftedTask:
    """Fills the problem half of a parsed domain (objects, init, goal)."""
    node = parse_sexp(text)
    task.problem_name = _expect_header(node, "problem")
    init: set[GroundAtom] = set()
    goal: set[GroundAtom] = set()
    seen_goal = False
    for section in node[2:]:
        if not isinstance(section, list) or not section:
            raise PddlParseError("malformed problem section")
        head = section[0]
        if head == ":domain":
            if len(section) != 2 or section[1] != task.domain_name:
                raise PddlParseError(
                    f"problem targets domain {section[1:]!r}, expected {task.domain_name!r}"
                )
        elif head == ":objects":
            for name, t in _typed_list(section[1:], "objects"):
                if t not in task.types:
                    raise PddlParseError(f"undefined type {t!r} for object {name}")
                task.objects[name] = t
        elif head == ":init":
            for item in section[1:]:
                if not isinstance(item, list) or not item:
                    raise PddlParseError("malformed init atom")
                if item[0] == "not":
                    raise PddlParseError("negative init atoms unsupported (closed world)")
                if not all(isinstance(t, str) for t in item):
                    raise PddlParseError("nested term in init atom")
                init.add(GroundAtom(item[0], tuple(item[1:])))
        elif head == ":goal":
            if len(section) != 2:
                raise PddlParseError("goal takes one form")
            goal.update(
                GroundAtom(a.predicate, a.terms)
                for a in _atom_list(section[1], "goal")
            )
            seen_goal = True
        else:
            raise PddlParseError(f"unknown problem section {head}")
    if not seen_goal:
        raise PddlParseError("problem has no goal")
    for atom in init | goal:
        if atom.predicate not in task.predicates:
            raise PddlParseError(f"undefined predicate {atom.predicate!r} in problem")
        if len(atom.args) != len(task.predicates[atom.predicate]):
            raise PddlParseError(f"arity mismatch for {atom.predicate!r} in problem")
        for arg in atom.args:
            if arg not in task.objects:
                raise PddlParseError(f"unknown object {arg!r} in problem")
    task.init = frozenset(init)
    task.goal = frozenset(goal)
    return task


def parse_pddl(domain_text: str, problem_text: str) -> LiftedTask:
    return parse_problem(problem_text, parse_domain(domain_text))
