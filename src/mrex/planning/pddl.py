"""PDDL reader for the STRIPS fragment (:strips, optional :typing).

Rejects anything outside positive-conjunctive STRIPS: other requirement
flags, negative or compound preconditions/goals, conditional effects,
undefined predicates or types, arity mismatches, a type that is its own
ancestor, and forms nested deeper than the fragment needs.  A predicate or
action name holding ':' is rejected too (PDDL names cannot carry one), so
the encoder's `do:` prefix for an action named like a fluent stays unique.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .model import GroundAtom, PlanningError


class PddlParseError(PlanningError):
    pass


SUPPORTED_REQUIREMENTS = (":strips", ":typing")  # a tuple: a flag may be a form
ROOT_TYPE = "object"
# define > :action > (and > (not > atom: no construct of the fragment nests
# deeper, so nothing that walks or prints a parsed node meets deep input
MAX_DEPTH = 5
# heads that make a form a formula rather than an atom
CONNECTIVES = ("or", "exists", "forall", "when", "imply", "=")

Sexp = list | str


def _tokenize(text: str) -> list[str]:
    lines = [line.split(";")[0] for line in text.splitlines()]
    cleaned = "\n".join(lines).replace("(", " ( ").replace(")", " ) ")
    return cleaned.lower().split()


def parse_sexp(text: str) -> Sexp:
    """The one top-level form of text, nested at most MAX_DEPTH deep."""
    stack: list[list[Sexp]] = [[]]  # the open forms, outermost first
    for tok in _tokenize(text):
        if tok == "(":
            if len(stack) > MAX_DEPTH:
                raise PddlParseError(f"form nested deeper than {MAX_DEPTH} levels")
            stack.append([])
        elif tok == ")":
            if len(stack) == 1:
                raise PddlParseError("unexpected ')'")
            form = stack.pop()
            stack[-1].append(form)
        else:
            stack[-1].append(tok)
    if len(stack) > 1:
        raise PddlParseError("unbalanced parentheses")
    if not stack[0]:
        raise PddlParseError("unexpected end of input")
    if len(stack[0]) > 1:
        raise PddlParseError("trailing tokens after top-level form")
    return stack[0][0]


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
    requirements: tuple[str, ...] = ()
    types: dict[str, str] = field(default_factory=dict)  # type -> parent
    predicates: dict[str, tuple[str, ...]] = field(default_factory=dict)
    schemas: tuple[ActionSchema, ...] = ()
    objects: dict[str, str] = field(default_factory=dict)  # name -> type
    init: frozenset[GroundAtom] = frozenset()
    goal: frozenset[GroundAtom] = frozenset()


def _sections(text: str, kind: str) -> tuple[str, list[list]]:
    """The name and the sections of `(define (kind name) (:section ...) ...)`."""
    node = parse_sexp(text)
    if (
        not isinstance(node, list)
        or len(node) < 2
        or node[0] != "define"
        or not isinstance(node[1], list)
        or len(node[1]) != 2
        or node[1][0] != kind
        or not isinstance(node[1][1], str)
    ):
        raise PddlParseError(f"not a PDDL {kind} file")
    for section in node[2:]:
        if not isinstance(section, list) or not section:
            raise PddlParseError(f"malformed {kind} section")
    return node[1][1], node[2:]


def _literals(node: Sexp, what: str) -> list[tuple[bool, LiftedAtom]]:
    """(positive, atom) for each literal of a conjunction: `(and l ...)`, a
    single literal or `()`, where a literal is `(p name ...)` or
    `(not (p name ...))`."""
    if not isinstance(node, list):
        raise PddlParseError(f"{what} must be a form")
    items = node[1:] if node[:1] == ["and"] else [node] if node else []
    out = []
    for item in items:
        positive = not (isinstance(item, list) and item and item[0] == "not")
        if not positive:
            if len(item) != 2:
                raise PddlParseError(f"malformed negation in {what}")
            item = item[1]
        if not isinstance(item, list) or not item:
            raise PddlParseError(f"malformed atom in {what}")
        if positive and item[0] in CONNECTIVES:
            raise PddlParseError(f"{what} supports literals only; found ({item[0]} ...)")
        if not all(isinstance(t, str) for t in item):
            raise PddlParseError(f"nested term in {what}")
        out.append((positive, LiftedAtom(item[0], tuple(item[1:]))))
    return out


def _positive(node: Sexp, what: str) -> list[LiftedAtom]:
    """The atoms of a conjunction that may not negate (preconditions, goals
    and the closed-world init)."""
    literals = _literals(node, what)
    if not all(sign for sign, _atom in literals):
        raise PddlParseError(f"{what} supports positive conjunctions only; found (not ...)")
    return [atom for _sign, atom in literals]


def _check_arity(task: LiftedTask, atom: LiftedAtom, where: str) -> None:
    arity = task.predicates.get(atom.predicate)
    if arity is None:
        raise PddlParseError(f"undefined predicate {atom.predicate!r} in {where}")
    if len(atom.terms) != len(arity):
        raise PddlParseError(f"arity mismatch for {atom.predicate!r} in {where}")


def _check_acyclic(types: dict[str, str]) -> None:
    """Every parent chain ends at a type that is its own parent (the root),
    which is where grounding stops walking up from an object's type."""
    rooted: set[str] = set()
    for t in types:
        path: set[str] = set()
        while t not in rooted and types[t] != t:
            if t in path:
                raise PddlParseError(f"type {t!r} is its own ancestor")
            path.add(t)
            t = types[t]
        rooted |= path


def parse_domain(text: str) -> LiftedTask:
    name, sections = _sections(text, "domain")
    task = LiftedTask(domain_name=name)
    task.types[ROOT_TYPE] = ROOT_TYPE
    schemas: list[ActionSchema] = []
    for section in sections:
        head = section[0]
        if head == ":requirements":
            reqs = tuple(section[1:])
            bad = [str(r) for r in reqs if r not in SUPPORTED_REQUIREMENTS]
            if bad:
                raise PddlParseError(f"unsupported requirement flags: {', '.join(bad)}")
            task.requirements = reqs
        elif head == ":types":
            for t, parent in _typed_list(section[1:], "types"):
                task.types[t] = parent
            for parent in list(task.types.values()):
                task.types.setdefault(parent, ROOT_TYPE)
            _check_acyclic(task.types)
        elif head == ":constants":
            for obj, t in _typed_list(section[1:], "constants"):
                task.objects[obj] = t
        elif head == ":predicates":
            for p in section[1:]:
                if not isinstance(p, list) or not p or not isinstance(p[0], str):
                    raise PddlParseError("malformed predicate declaration")
                if ":" in p[0]:
                    raise PddlParseError(f"predicate name {p[0]!r} holds ':'")
                params = _typed_list(p[1:], f"predicate {p[0]}")
                task.predicates[p[0]] = tuple(t for _v, t in params)
        elif head == ":action":
            schemas.append(_parse_action(section))
        elif head in (":functions", ":derived", ":axiom", ":constraints"):
            raise PddlParseError(f"unsupported domain section {head}")
        else:
            raise PddlParseError(f"unknown domain section {head}")
    for obj, t in task.objects.items():
        if t not in task.types:
            raise PddlParseError(f"undefined type {t!r} for constant {obj}")
    task.schemas = tuple(schemas)
    for schema in task.schemas:
        where = f"action {schema.name}"
        scope = {v for v, _t in schema.parameters}
        for atom in schema.pre + schema.add + schema.delete:
            _check_arity(task, atom, where)
            for term in atom.terms:
                if term.startswith("?") and term not in scope:
                    raise PddlParseError(f"unbound variable {term!r} in {where}")
        for _v, t in schema.parameters:
            if t not in task.types:
                raise PddlParseError(f"undefined type {t!r} in {where}")
    return task


def _parse_action(section: list) -> ActionSchema:
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
        if key in fields:
            raise PddlParseError(f"repeated {key} in action {name}")
        fields[key] = section[i + 1]
        i += 2
    params_node = fields.get(":parameters", [])
    if not isinstance(params_node, list):
        raise PddlParseError(f"parameters of {name} must be a list")
    parameters = tuple(_typed_list(params_node, f"parameters of {name}"))
    for v, _t in parameters:
        if not v.startswith("?"):
            raise PddlParseError(f"parameter {v!r} of {name} must start with '?'")
    pre = _positive(fields.get(":precondition", []), f"precondition of {name}")
    effect = _literals(fields.get(":effect", []), f"effect of {name}")
    unknown = set(fields) - {":parameters", ":precondition", ":effect"}
    if unknown:
        raise PddlParseError(f"unsupported action fields in {name}: {sorted(unknown)}")
    return ActionSchema(
        name, parameters, tuple(pre),
        add=tuple(atom for positive, atom in effect if positive),
        delete=tuple(atom for positive, atom in effect if not positive),
    )


def parse_problem(text: str, task: LiftedTask) -> LiftedTask:
    """A new task: the parsed domain's task with the problem half (objects,
    init, goal) filled in; the domain's task is left as it was."""
    _, sections = _sections(text, "problem")
    objects = dict(task.objects)
    init: list[LiftedAtom] = []
    goal: list[LiftedAtom] = []
    seen_goal = False
    for section in sections:
        head = section[0]
        if head == ":domain":
            if len(section) != 2 or section[1] != task.domain_name:
                raise PddlParseError(
                    f"problem targets domain {section[1:]!r}, expected {task.domain_name!r}"
                )
        elif head == ":objects":
            for obj, t in _typed_list(section[1:], "objects"):
                if t not in task.types:
                    raise PddlParseError(f"undefined type {t!r} for object {obj}")
                objects[obj] = t
        elif head == ":init":
            init += _positive(["and", *section[1:]], "init")
        elif head == ":goal":
            if len(section) != 2:
                raise PddlParseError("goal takes one form")
            goal += _positive(section[1], "goal")
            seen_goal = True
        else:
            raise PddlParseError(f"unknown problem section {head}")
    if not seen_goal:
        raise PddlParseError("problem has no goal")
    for atom in init + goal:
        _check_arity(task, atom, "problem")
        for arg in atom.terms:
            if arg not in objects:
                raise PddlParseError(f"unknown object {arg!r} in problem")
    return replace(
        task, objects=objects,
        init=frozenset(GroundAtom(a.predicate, a.terms) for a in init),
        goal=frozenset(GroundAtom(a.predicate, a.terms) for a in goal),
    )


def parse_pddl(domain_text: str, problem_text: str) -> LiftedTask:
    return parse_problem(problem_text, parse_domain(domain_text))
