"""Planning frontend: PDDL parsing, grounding, encoding, search, tweaks."""

import importlib
import itertools
import random
import re
from pathlib import Path

import pytest

from mrex.cli import _build_parser, run_explain_plan
from mrex.formula import CnfFormula, normalize_clause
from mrex.reconcile import (
    RESTRICTED,
    ReconcileProblem,
    reconcile,
)
from mrex.solver import SatSession
from mrex.planning import (
    GroundAction,
    GroundAtom,
    GroundingCapError,
    GoalUnreachableError,
    PlanningError,
    PlanningProblem,
    PddlParseError,
    StateCapError,
    check_feasibility,
    encode_bounded,
    ground,
    optimal_plan_search,
    optimality_query,
    parse_domain,
    parse_pddl,
    parse_plan_text,
    parse_problem,
    tweak_model,
    validate_plan,
    write_plan_text,
    write_var_map,
)
from mrex.planning.ground import objects_of_type

from oracles import (
    brute_force_min_update, decode_model, feasible_by_sat, plan_dynamics_clauses,
)

DATA = Path(__file__).parent / "data"
BLOCKS = (DATA / "blocksworld.pddl").read_text()
SUSSMAN = (DATA / "sussman.pddl").read_text()
TWO_BLOCKS = (DATA / "two-blocks.pddl").read_text()

CHAIN_DOMAIN = """
(define (domain chain)
  (:requirements :strips)
  (:predicates (p) (g))
  (:action set-p :parameters () :precondition (and) :effect (p))
  (:action finish :parameters () :precondition (p) :effect (g)))
"""
CHAIN_PROBLEM = """
(define (problem chain-2) (:domain chain) (:objects) (:init) (:goal (g)))
"""


def _solve(cnf: CnfFormula, assumptions=()):
    session = SatSession(cnf.num_vars)
    for c in cnf.clauses:
        session.add_hard(c)
    return session.solve(assumptions)


class TestParsing:
    def test_blocksworld_domain(self):
        task = parse_domain(BLOCKS)
        assert len(task.schemas) == 4
        assert set(task.predicates) == {"clear", "on-table", "arm-empty", "holding", "on"}
        assert task.requirements == (":strips",)

    def test_one_action_domain(self):
        task = parse_domain(CHAIN_DOMAIN)
        assert [s.name for s in task.schemas] == ["set-p", "finish"]
        assert task.schemas[0].pre == ()

    def test_adl_rejected(self):
        bad = "(define (domain x) (:requirements :adl) (:predicates (p)))"
        with pytest.raises(PddlParseError, match="unsupported requirement"):
            parse_domain(bad)

    def test_negative_precondition_rejected(self):
        bad = """(define (domain x) (:requirements :strips) (:predicates (p) (q))
                 (:action a :parameters () :precondition (not (p)) :effect (q)))"""
        with pytest.raises(PddlParseError, match="positive conjunctions"):
            parse_domain(bad)

    def test_conditional_effect_rejected(self):
        bad = """(define (domain x) (:requirements :strips) (:predicates (p) (q))
                 (:action a :parameters () :precondition (p)
                  :effect (when (p) (q))))"""
        with pytest.raises(PddlParseError, match="literals only"):
            parse_domain(bad)

    def test_negative_goal_rejected(self):
        prob = """(define (problem x) (:domain blocksworld) (:objects a b)
                  (:init (on-table a)) (:goal (not (on a b))))"""
        with pytest.raises(PddlParseError, match="positive conjunctions"):
            parse_pddl(BLOCKS, prob)

    def test_arity_mismatch_rejected(self):
        bad = """(define (domain x) (:requirements :strips) (:predicates (p ?a))
                 (:action a :parameters () :precondition (and) :effect (p)))"""
        with pytest.raises(PddlParseError, match="arity"):
            parse_domain(bad)

    def test_undefined_predicate_rejected(self):
        bad = """(define (domain x) (:requirements :strips) (:predicates (p))
                 (:action a :parameters () :precondition (q) :effect (p)))"""
        with pytest.raises(PddlParseError, match="undefined predicate"):
            parse_domain(bad)

    def test_unbalanced_input_rejected(self):
        with pytest.raises(PddlParseError):
            parse_domain("(define (domain x)")

    def test_problem_domain_name_checked(self):
        with pytest.raises(PddlParseError, match="targets domain"):
            parse_pddl(BLOCKS, "(define (problem p) (:domain other) (:goal (arm-empty)))")

    def test_unknown_object_rejected(self):
        prob = """(define (problem p) (:domain blocksworld) (:objects a)
                  (:init (on-table z)) (:goal (on-table a)))"""
        with pytest.raises(PddlParseError, match="unknown object"):
            parse_pddl(BLOCKS, prob)

    def test_typing(self):
        dom = """(define (domain t) (:requirements :strips :typing)
                 (:types truck plane - vehicle vehicle place - object)
                 (:predicates (at ?v - vehicle ?p - place))
                 (:action move :parameters (?v - vehicle ?src - place ?dst - place)
                  :precondition (at ?v ?src)
                  :effect (and (at ?v ?dst) (not (at ?v ?src)))))"""
        prob = """(define (problem tp) (:domain t)
                  (:objects t1 - truck p1 p2 - place)
                  (:init (at t1 p1)) (:goal (at t1 p2)))"""
        task = parse_pddl(dom, prob)
        assert objects_of_type(task, "vehicle") == ["t1"]
        assert objects_of_type(task, "place") == ["p1", "p2"]
        assert objects_of_type(task, "object") == ["p1", "p2", "t1"]
        problem = ground(task)
        assert len(problem.actions) == 2  # move(t1,p1,p2) and move(t1,p2,p1)
        plan = optimal_plan_search(problem)
        assert [a.label for a in plan] == ["move(t1,p1,p2)"]

    def test_problems_leave_the_domain_task_unchanged(self):
        domain = parse_domain(BLOCKS)
        before = repr(domain)
        first = parse_problem(SUSSMAN, domain)
        second = parse_problem(TWO_BLOCKS, domain)
        assert repr(domain) == before
        assert domain is not first and domain is not second
        assert sorted(first.objects) == ["a", "b", "c"]
        assert sorted(second.objects) == ["a", "b"]
        assert ground(second) == ground(parse_pddl(BLOCKS, TWO_BLOCKS))


def _domain(body: str) -> str:
    return f"(define (domain d) (:requirements :strips) (:predicates (p ?x) (q)) {body})"


def _problem(body: str) -> str:
    return f"(define (problem x) (:domain d) (:objects a) {body})"


def _action(fields: str) -> str:
    return _domain(f"(:action a {fields})")


GOAL = "(:goal (q))"


@pytest.mark.parametrize("domain, problem, message", [
    # the s-expression reader
    ("(define " + "(" * 3000 + ")" * 3000 + ")", None, "nested deeper than 5"),
    (_action(":effect (and (not ((p)))))"), None, "nested deeper than 5"),
    (")", None, "unexpected ')'"),
    ("(define (domain d)", None, "unbalanced parentheses"),
    ("; a comment alone", None, "unexpected end of input"),
    ("(define (domain d)) (q)", None, "trailing tokens"),
    # typed lists, :types and :constants
    (_domain("(:types a -)"), None, "dangling '-' in types list"),
    (_domain("(:types - a)"), None, "type with no names in types list"),
    (_domain("(:types a - (either b c))"), None, "compound type in types list"),
    (_domain("(:constants (c))"), None, "nested form in constants list"),
    (_domain("(:constants x - car)"), None, "undefined type 'car' for constant x"),
    (_domain("(:types a - b b - a) (:action go :parameters (?x) :effect (p ?x))"),
     _problem("(:objects x - a)" + GOAL), "type 'a' is its own ancestor"),
    # headers and sections
    ("(define)", None, "not a PDDL domain file"),
    ("(define (domain (x)))", None, "not a PDDL domain file"),
    (_domain(""), "(define (problem (x)) (:domain d) (:goal (q)))", "not a PDDL problem file"),
    (_domain(""), "(define (domain d))", "not a PDDL problem file"),
    (_domain("q"), None, "malformed domain section"),
    (_domain("(:requirements :adl)"), None, "unsupported requirement flags: :adl"),
    (_domain("(:requirements (:strips))"), None, "unsupported requirement flags"),
    (_domain("(:predicates q)"), None, "malformed predicate declaration"),
    (_domain("(:predicates (a:b))"), None, "predicate name 'a:b' holds ':'"),
    (_domain("(:functions)"), None, "unsupported domain section :functions"),
    (_domain("(:foo)"), None, "unknown domain section :foo"),
    # actions
    (_domain("(:action)"), None, "action needs a name"),
    (_domain("(:action a:b)"), None, "action name 'a:b' holds ':'"),
    (_action("foo"), None, "expected keyword in action a"),
    (_action(":effect"), None, "missing value for :effect in action a"),
    (_action(":parameters ?x"), None, "parameters of a must be a list"),
    (_action(":parameters (x)"), None, "parameter 'x' of a must start with '?'"),
    (_action(":effect (q) :cost 1"), None, "unsupported action fields in a"),
    (_action(":precondition (q) :precondition (p)"), None, "repeated :precondition in action a"),
    (_action(":parameters (?x - car)"), None, "undefined type 'car' in action a"),
    (_action(":precondition (p ?y)"), None, "unbound variable '?y' in action a"),
    (_action(":precondition (r)"), None, "undefined predicate 'r' in action a"),
    (_action(":effect (p)"), None, "arity mismatch for 'p' in action a"),
    # literals
    (_action(":precondition q"), None, "precondition of a must be a form"),
    (_action(":effect (not (q) (q))"), None, "malformed negation in effect of a"),
    (_action(":effect (and q)"), None, "malformed atom in effect of a"),
    (_action(":precondition (= ?x ?x)"), None, "precondition of a supports literals only"),
    (_action(":precondition (and ((q)))"), None, "nested term in precondition of a"),
    (_domain(""), _problem("(:init (not (q)))" + GOAL),
     "init supports positive conjunctions only"),
    # problems
    (_domain(""), "(define (problem x) (:domain d) q)", "malformed problem section"),
    (_domain(""), "(define (problem x) (:domain e) (:goal (q)))", "targets domain"),
    (_domain(""), _problem("(:objects b - car)" + GOAL), "undefined type 'car' for object b"),
    (_domain(""), _problem("(:goal (q) (q))"), "goal takes one form"),
    (_domain(""), _problem("(:requirements :strips)" + GOAL), "unknown problem section"),
    (_domain(""), _problem(""), "problem has no goal"),
    (_domain(""), _problem("(:goal (r))"), "undefined predicate 'r' in problem"),
    (_domain(""), _problem("(:goal (p))"), "arity mismatch for 'p' in problem"),
    (_domain(""), _problem("(:goal (p b))"), "unknown object 'b' in problem"),
])
def test_every_rejection_raises_a_parse_error(domain, problem, message):
    """Malformed inputs that together reach every rejection in the PDDL
    reader: each raises PddlParseError naming what is wrong, the 3 000-deep
    form without recursing and the cyclic types before grounding walks
    them."""
    with pytest.raises(PddlParseError, match=re.escape(message)):
        if problem is None:
            parse_domain(domain)
        else:
            parse_pddl(domain, problem)


class TestGrounding:
    def test_sussman_counts(self):
        problem = ground(parse_pddl(BLOCKS, SUSSMAN))
        by_name = {}
        for a in problem.actions:
            by_name.setdefault(a.name, []).append(a)
        assert len(by_name["pick-up"]) == 3
        assert len(by_name["put-down"]) == 3
        assert len(by_name["stack"]) == 6
        assert len(by_name["unstack"]) == 6
        assert len(problem.actions) == 18
        # 3 each of clear/on-table/holding, 6 ordered on pairs, arm-empty.
        assert len(problem.fluents) == 16

    def test_two_block_counts(self):
        problem = ground(parse_pddl(BLOCKS, TWO_BLOCKS))
        stacks = [a for a in problem.actions if a.name == "stack"]
        assert [a.label for a in stacks] == ["stack(a,b)", "stack(b,a)"]
        assert len(problem.actions) == 8
        assert len(problem.fluents) == 9

    def test_zero_objects_empty_actions(self):
        prob = """(define (problem empty) (:domain blocksworld) (:objects)
                  (:init (arm-empty)) (:goal (arm-empty)))"""
        problem = ground(parse_pddl(BLOCKS, prob))
        assert problem.actions == ()
        assert problem.fluents == (GroundAtom("arm-empty"),)

    def test_repeated_parameters_skipped_by_default(self):
        task = parse_pddl(BLOCKS, TWO_BLOCKS)
        default = ground(task)
        assert all(len(set(a.args)) == len(a.args) for a in default.actions)

    def test_action_cap(self, monkeypatch):
        # mrex.planning.ground names the function; the module holds the cap
        monkeypatch.setattr(importlib.import_module("mrex.planning.ground"),
                            "DEFAULT_ACTION_CAP", 5)
        with pytest.raises(GroundingCapError):
            ground(parse_pddl(BLOCKS, SUSSMAN))

    def test_delete_normalization(self):
        a = GroundAction("x", (), add=frozenset({GroundAtom("f")}),
                         delete=frozenset({GroundAtom("f"), GroundAtom("h")}))
        assert a.delete == frozenset({GroundAtom("h")})


class TestSearch:
    def test_goal_already_satisfied(self):
        prob = """(define (problem done) (:domain blocksworld) (:objects a)
                  (:init (on-table a) (clear a) (arm-empty)) (:goal (on-table a)))"""
        problem = ground(parse_pddl(BLOCKS, prob))
        assert optimal_plan_search(problem) == ()
        assert validate_plan(problem, ())

    def test_empty_plan_fails_unmet_goal(self):
        problem = ground(parse_pddl(BLOCKS, TWO_BLOCKS))
        assert not validate_plan(problem, ())

    def test_two_block_optimum(self):
        problem = ground(parse_pddl(BLOCKS, TWO_BLOCKS))
        plan = optimal_plan_search(problem)
        assert [a.label for a in plan] == ["pick-up(a)", "stack(a,b)"]
        assert validate_plan(problem, plan)

    def test_sussman_optimum_is_six(self):
        problem = ground(parse_pddl(BLOCKS, SUSSMAN))
        plan = optimal_plan_search(problem)
        assert len(plan) == 6
        assert validate_plan(problem, plan)

    def test_swapped_steps_rejected(self):
        problem = ground(parse_pddl(BLOCKS, TWO_BLOCKS))
        plan = optimal_plan_search(problem)
        assert not validate_plan(problem, plan[::-1])

    def test_state_cap(self, monkeypatch):
        monkeypatch.setattr(importlib.import_module("mrex.planning.search"),
                            "DEFAULT_STATE_CAP", 5)
        with pytest.raises(StateCapError, match=r"cap \(5\)"):
            optimal_plan_search(ground(parse_pddl(BLOCKS, SUSSMAN)))

    def test_unreachable_goal(self):
        task = parse_pddl(CHAIN_DOMAIN, CHAIN_PROBLEM)
        problem = ground(task).replace_actions(())
        with pytest.raises(GoalUnreachableError):
            optimal_plan_search(problem)

    def test_plan_text_round_trip(self):
        problem = ground(parse_pddl(BLOCKS, TWO_BLOCKS))
        plan = optimal_plan_search(problem)
        assert parse_plan_text(write_plan_text(plan), problem) == plan
        with pytest.raises(PlanningError, match="unknown action"):
            parse_plan_text("(fly a b)", problem)

    def test_plan_text_spellings(self):
        """Names are case-blind and arguments may carry spaces, as the PDDL
        reader lowercases every name."""
        problem = ground(parse_pddl(BLOCKS, SUSSMAN))
        plan = optimal_plan_search(problem)
        assert plan[0].label == "unstack(c,a)"
        spellings = [
            write_plan_text(plan),
            "".join(f"{a.name}({', '.join(a.args)})\n" for a in plan),
            write_plan_text(plan).upper(),
        ]
        assert spellings[1].startswith("unstack(c, a)\n")
        assert spellings[2].startswith("(UNSTACK C A)\n")
        for text in spellings:
            assert parse_plan_text(text, problem) == plan
        for text in ("(FLY A B)", "unstack(c, z)"):
            with pytest.raises(PlanningError, match="unknown action"):
                parse_plan_text(text, problem)

    @pytest.mark.parametrize("fields, message", [
        ({"fluents": ("p", "p")}, "duplicate fluents"),
        ({"init": ("q",)}, "initial state mentions unknown fluents"),
        ({"goal": ("q",)}, "goal mentions unknown fluents"),
        ({"add": ("q",)}, "action go mentions unknown fluents"),
    ])
    def test_problem_rejects_atoms_outside_its_universe(self, fields, message):
        atoms = {key: tuple(map(GroundAtom, names)) for key, names in fields.items()}
        action = GroundAction("go", add=frozenset(atoms.get("add", ())))
        with pytest.raises(PlanningError, match=message):
            PlanningProblem(atoms.get("fluents", (GroundAtom("p"),)), (action,),
                            frozenset(atoms.get("init", ())),
                            frozenset(atoms.get("goal", ())))

    def test_cached_label_leaves_identity_to_the_fields(self):
        a = GroundAction("stack", ("a", "b"))
        assert a.label == "stack(a,b)" and a.label is a.label
        b = GroundAction("stack", ("a", "b"))  # its label not computed yet
        assert a == b and hash(a) == hash(b) and not a < b and not b < a
        assert GroundAction("noop").label == "noop"


def _brute_plan_exists(problem: PlanningProblem, n: int) -> bool:
    """Is there a length-n action sequence that executes and reaches the goal?"""
    for seq in itertools.product(problem.actions, repeat=n):
        if validate_plan(problem, seq):
            return True
    return False


class TestEncoding:
    def test_zero_horizon_goal_satisfied(self):
        prob = """(define (problem done) (:domain blocksworld) (:objects a)
                  (:init (on-table a) (clear a) (arm-empty)) (:goal (on-table a)))"""
        problem = ground(parse_pddl(BLOCKS, prob))
        enc = encode_bounded(problem, 0, include_goal=True)
        res = _solve(enc.cnf)
        assert res.satisfiable
        assert decode_model(enc, res.model) == ()
        assert any("duplicate" in s for s in enc.notes)  # goal unit == init unit

    def test_zero_horizon_goal_unsatisfied(self):
        problem = ground(parse_pddl(BLOCKS, TWO_BLOCKS))
        enc = encode_bounded(problem, 0, include_goal=True)
        assert not _solve(enc.cnf).satisfiable

    def test_one_action_toy(self):
        g = GroundAtom("g")
        act = GroundAction("win", (), pre=frozenset(), add=frozenset({g}))
        problem = PlanningProblem.build([act], init=(), goal=[g])
        enc = encode_bounded(problem, 1, include_goal=True)
        res = _solve(enc.cnf)
        assert res.satisfiable
        assert [a.label for a in decode_model(enc, res.model)] == ["win"]

    @pytest.mark.parametrize("n", range(5))
    def test_exact_length_semantics_two_blocks(self, n):
        problem = ground(parse_pddl(BLOCKS, TWO_BLOCKS))
        enc = encode_bounded(problem, n, include_goal=True)
        assert _solve(enc.cnf).satisfiable == _brute_plan_exists(problem, n)

    @pytest.mark.parametrize("n", range(4))
    def test_exact_length_semantics_chain(self, n):
        problem = ground(parse_pddl(CHAIN_DOMAIN, CHAIN_PROBLEM))
        enc = encode_bounded(problem, n, include_goal=True)
        assert _solve(enc.cnf).satisfiable == _brute_plan_exists(problem, n)

    def test_decoded_models_validate(self):
        problem = ground(parse_pddl(BLOCKS, TWO_BLOCKS))
        for n in (2, 4):
            enc = encode_bounded(problem, n, include_goal=True)
            res = _solve(enc.cnf)
            assert res.satisfiable
            plan = decode_model(enc, res.model)
            assert validate_plan(problem, plan)

    def test_var_map_alignment(self):
        problem = ground(parse_pddl(BLOCKS, TWO_BLOCKS))
        enc_a = encode_bounded(problem, 2, include_goal=False)
        tweaked = tweak_model(problem, 1, seed=11, count=2)
        enc_h = encode_bounded(
            tweaked.problem, 2, include_goal=False,
            action_order=enc_a.action_order,
        )
        assert write_var_map(enc_h) == write_var_map(enc_a)
        # Scenario 1 only drops precondition clauses: KB_h ⊂ KB_a exactly
        # by the logged removals, at every step.
        diff = set(enc_a.cnf.clauses) - set(enc_h.cnf.clauses)
        assert set(enc_h.cnf.clauses) <= set(enc_a.cnf.clauses)
        expected = set()
        for rec in tweaked.log:
            if rec.kind != "pre":
                continue
            for t in range(2):
                av = enc_a.action_var(rec.action, t)
                fv = enc_a.fluent_var(GroundAtom.parse(rec.atom), t)
                expected.add(tuple(sorted((-av, fv), key=abs)))
        assert diff == expected

    def test_order_must_cover_problem(self):
        problem = ground(parse_pddl(BLOCKS, TWO_BLOCKS))
        with pytest.raises(PlanningError, match="does not cover"):
            encode_bounded(problem, 1, include_goal=False, action_order=("pick-up(a)",))

    def test_var_map_sidecar(self):
        problem = ground(parse_pddl(CHAIN_DOMAIN, CHAIN_PROBLEM))
        enc = encode_bounded(problem, 2, include_goal=False)
        text = write_var_map(enc)
        assert text.endswith("\n") and not text.endswith("\n\n")
        parsed = [l.split(" ", 1) for l in text.splitlines()]
        assert [int(v) for v, _ in parsed] == list(range(1, enc.cnf.num_vars + 1))
        named = {f"{f}@{t}": enc.fluent_var(f, t)
                 for t in range(3) for f in enc.problem.fluents}
        named.update({f"{a}@{t}": enc.action_var(a, t)
                      for t in range(2) for a in enc.action_order})
        assert {int(v): name for v, name in parsed} == {v: k for k, v in named.items()}

    def test_numbering_rejects_steps_and_names_outside_the_encoding(self):
        problem = ground(parse_pddl(BLOCKS, SUSSMAN))
        enc = encode_bounded(problem, 3, include_goal=False)
        atom, label = enc.problem.fluents[0], enc.action_order[0]
        assert enc.fluent_var(atom, 3) and enc.action_var(label, 2)
        for bad in (lambda: enc.fluent_var(atom, -1),
                    lambda: enc.fluent_var(atom, enc.horizon + 1),
                    lambda: enc.action_var(label, -1),
                    lambda: enc.action_var(label, enc.horizon),
                    lambda: enc.fluent_var(GroundAtom("on", ("a", "z")), 0),
                    lambda: enc.fluent_var(str(atom), 0),
                    lambda: enc.action_var("fly(a)", 0)):
            with pytest.raises(PlanningError, match="unknown name"):
                bad()

    def test_numbering_names_every_sussman_variable_once(self):
        problem = ground(parse_pddl(BLOCKS, SUSSMAN))
        enc = encode_bounded(problem, 3, include_goal=True)
        fluents = [enc.fluent_var(f, t) for t in range(4) for f in enc.problem.fluents]
        actions = [enc.action_var(a, t) for t in range(3) for a in enc.action_order]
        assert sorted(fluents + actions) == list(range(1, enc.cnf.num_vars + 1))
        assert [enc.name_of(v) for v in fluents] == [
            f"{f}@{t}" for t in range(4) for f in enc.problem.fluents]
        assert [enc.name_of(v) for v in actions] == [
            f"{a}@{t}" for t in range(3) for a in enc.action_order]
        assert enc.name_of(0) == "aux0"
        assert enc.name_of(enc.cnf.num_vars + 1) == f"aux{enc.cnf.num_vars + 1}"


class TestOptimalityQuery:
    def test_singleton_goal_uses_fluent_variable(self):
        problem = ground(parse_pddl(BLOCKS, TWO_BLOCKS))
        enc = encode_bounded(problem, 2, include_goal=False)
        oq = optimality_query(enc)
        gv = [enc.fluent_var(GroundAtom("on", ("a", "b")), t) for t in range(2)]
        assert list(oq.query.clauses) == [(-gv[0],), (-gv[1],)]
        assert oq.definitions == ()

    def test_aggregate_definitions(self):
        problem = ground(parse_pddl(BLOCKS, SUSSMAN))
        enc = encode_bounded(problem, 2, include_goal=False)
        oq = optimality_query(enc)
        assert len(oq.new_names) == 2
        assert len(oq.definitions) == 6  # (1 + |G|) clauses per step, |G| = 2
        assert list(oq.query.clauses) == [(-v,) for v, _ in oq.new_names]
        # Definitional equivalence: g_t true exactly when both goal fluents are.
        goal = sorted(problem.goal)
        for (gv, _name), t in zip(oq.new_names, range(2)):
            fvs = [enc.fluent_var(f, t) for f in goal]
            step_defs = [c for c in oq.definitions if gv in c or -gv in c]
            for bits in itertools.product([False, True], repeat=3):
                value = dict(zip([gv] + fvs, bits))
                ok = all(
                    any(value.get(abs(l), False) == (l > 0) for l in c
                        if abs(l) in value)
                    for c in step_defs
                )
                assert ok == (bits[0] == (bits[1] and bits[2]))

    def test_optimality_entailed_at_optimum(self):
        problem = ground(parse_pddl(BLOCKS, TWO_BLOCKS))
        enc = encode_bounded(problem, 2, include_goal=False)
        oq = optimality_query(enc)
        negated = tuple(-c[0] for c in oq.query.clauses)
        assert not _solve(enc.cnf, negated).satisfiable

    def test_fluent_and_action_of_one_name_stay_apart(self):
        """A 0-ary predicate (done) and a 0-ary action done share the name
        done@t; the query still negates the goal fluent's variables, the
        optimal plan decodes through the action's, and the action's
        variables are named do:done@t, so every name and .map line is
        distinct.  A ':' in a predicate or action name, which could
        forge that prefix, is rejected."""
        domain = """
        (define (domain clash)
          (:requirements :strips)
          (:predicates (p) (done))
          (:action set-p :parameters () :precondition (and) :effect (p))
          (:action done :parameters () :precondition (p) :effect (done)))
        """
        problem = ground(parse_pddl(domain, """
        (define (problem clash-2) (:domain clash) (:objects) (:init) (:goal (done)))
        """))
        enc = encode_bounded(problem, 2, include_goal=False)
        fluent = [enc.fluent_var(GroundAtom("done"), t) for t in range(2)]
        action = [enc.action_var("done", t) for t in range(2)]
        assert fluent == [1, 3] and action == [7, 9]
        assert [enc.name_of(v) for v in fluent + action] == [
            "done@0", "done@1", "do:done@0", "do:done@1"]
        assert enc.name_of(2) == "p@0" and enc.name_of(8) == "set-p@0"
        lines = write_var_map(enc).splitlines()
        names = [line.split(" ", 1)[1] for line in lines]
        assert len(set(names)) == len(lines) == 10
        assert list(optimality_query(enc).query.clauses) == [(-1,), (-3,)]
        res = _solve(encode_bounded(problem, 2, include_goal=True).cnf)
        assert [a.label for a in decode_model(enc, res.model)] == ["set-p", "done"]
        for forged in ("(:predicates (p) (done) (do:done))",
                       "(:predicates (p) (done)) (:action do:set-p :parameters ()"
                       " :precondition (and) :effect (p))"):
            with pytest.raises(PddlParseError, match="holds ':'"):
                parse_domain(domain.replace("(:predicates (p) (done))", forged))

    def test_horizon_zero_rejected(self):
        problem = ground(parse_pddl(BLOCKS, TWO_BLOCKS))
        enc = encode_bounded(problem, 0, include_goal=False)
        with pytest.raises(PlanningError, match="horizon"):
            optimality_query(enc)


class TestFeasibility:
    def test_bfs_plan_feasible(self):
        problem = ground(parse_pddl(BLOCKS, TWO_BLOCKS))
        plan = optimal_plan_search(problem)
        enc = encode_bounded(problem, len(plan), include_goal=False)
        assert check_feasibility(enc, plan, reference=enc).feasible

    def test_swapped_plan_infeasible(self):
        problem = ground(parse_pddl(BLOCKS, TWO_BLOCKS))
        plan = optimal_plan_search(problem)
        enc = encode_bounded(problem, 2, include_goal=False)
        res = check_feasibility(enc, plan[::-1], reference=enc)
        assert not res.feasible
        assert res.missing_clauses == ()  # nothing absent; the order is wrong

    def test_missing_dynamics_reported(self):
        problem = ground(parse_pddl(BLOCKS, TWO_BLOCKS))
        plan = optimal_plan_search(problem)
        enc_a = encode_bounded(problem, 2, include_goal=False)
        empty = tweak_model(problem, 8, seed=0, count=2)
        enc_h = encode_bounded(
            empty.problem, 2, include_goal=False,
            action_order=enc_a.action_order,
        )
        res = check_feasibility(enc_h, plan, reference=enc_a)
        assert not res.feasible
        per_step = [len(a.pre) + len(a.add) + len(a.delete) for a in plan]
        assert len(res.missing_clauses) == sum(per_step) == 14
        assert all(o.kind in ("pre", "add", "del") for o in res.missing_origins)

    def test_repair_comes_from_the_reference_actions(self):
        """The repair holds the reference problem's clauses for each step's
        label, whatever atom sets the plan's action carries; a label the
        reference problem lacks contributes none."""
        problem = ground(parse_pddl(BLOCKS, TWO_BLOCKS))
        plan = optimal_plan_search(problem)
        enc_a = encode_bounded(problem, 2, include_goal=False)
        empty = tweak_model(problem, 8, seed=0, count=2)
        enc_h = encode_bounded(
            empty.problem, 2, include_goal=False,
            action_order=enc_a.action_order,
        )
        bare = tuple(GroundAction(a.name, a.args) for a in plan)
        res = check_feasibility(enc_h, bare, reference=enc_a)
        assert res == check_feasibility(enc_h, plan, reference=enc_a)
        assert len(res.missing_clauses) == 14
        res = check_feasibility(enc_h, plan, reference=enc_h)
        assert (res.feasible, res.missing_clauses) == (False, ())

    def test_wrong_plan_length_rejected(self):
        problem = ground(parse_pddl(BLOCKS, TWO_BLOCKS))
        enc = encode_bounded(problem, 2, include_goal=False)
        with pytest.raises(PlanningError, match="plan length"):
            check_feasibility(enc, (), reference=enc)

    def test_unknown_action_rejected(self):
        problem = ground(parse_pddl(BLOCKS, TWO_BLOCKS))
        enc = encode_bounded(problem, 1, include_goal=False)
        ghost = GroundAction("fly", ("a",))
        with pytest.raises(PlanningError, match="unknown name"):
            check_feasibility(enc, (ghost,), reference=enc)


def _same_length_plans(problem, plan, rng, count):
    """The plan, its reverse, and `count` random sequences of the
    problem's actions of the same length."""
    yield plan
    yield plan[::-1]
    for _ in range(count):
        yield tuple(rng.choice(problem.actions) for _ in plan)


@pytest.mark.parametrize("domain, task", [
    (BLOCKS, SUSSMAN), (CHAIN_DOMAIN, CHAIN_PROBLEM), (BLOCKS, TWO_BLOCKS),
], ids=["sussman", "chain", "two-blocks"])
def test_simulated_feasibility_matches_the_sat_check(domain, task):
    """Simulating the plan gives the bounded encoding's verdict, and with it
    the same repair clauses, for every scenario's model."""
    problem = ground(parse_pddl(domain, task))
    plan = optimal_plan_search(problem)
    enc_a = encode_bounded(problem, len(plan), include_goal=False)
    rng = random.Random(len(plan))
    verdicts = set()
    for scenario in range(1, 9):
        for seed in range(3):
            for count in (1, 2, 3) if scenario in (4, 6) else (1,):
                tweaked = tweak_model(problem, scenario, seed, count=count).problem
                enc_h = encode_bounded(
                    tweaked, len(plan), include_goal=False,
                    action_order=enc_a.action_order,
                )
                have = enc_h.cnf.clause_set()
                for steps in _same_length_plans(problem, plan, rng, 3):
                    res = check_feasibility(enc_h, steps, reference=enc_a)
                    feasible = feasible_by_sat(enc_h, steps)
                    verdicts.add(feasible)
                    missing = () if feasible else tuple(
                        clause for clause in plan_dynamics_clauses(enc_a, steps)
                        if clause not in have
                    )
                    assert (res.feasible, res.missing_clauses) == (feasible, missing)
    assert verdicts == {True, False}


@pytest.fixture(scope="module")
def sussman():
    return ground(parse_pddl(BLOCKS, SUSSMAN))


@pytest.mark.parametrize("scenario", [None, *range(1, 9)])
def test_encoding_clauses_are_normal(sussman, scenario):
    """encode_bounded builds its formula without normalising it again, so
    each clause it emits must already be sorted, duplicate-free and in range."""
    problem = sussman
    if scenario is not None:
        problem = tweak_model(sussman, scenario, seed=0, count=2).problem
    for n in range(8):
        for include_goal in (False, True):
            cnf = encode_bounded(
                problem, n, include_goal,
                action_order=tuple(a.label for a in sussman.actions),
            ).cnf
            assert all(normalize_clause(c) == c for c in cnf.clauses)
            assert len(set(cnf.clauses)) == len(cnf.clauses)
            assert all(abs(l) <= cnf.num_vars for c in cnf.clauses for l in c)


class TestTweaks:
    def test_scenario5_removes_all_preconditions(self, sussman):
        tweaked = tweak_model(sussman, 5, seed=3, count=2)
        assert all(a.pre == frozenset() for a in tweaked.problem.actions)
        assert len(tweaked.log) == sum(len(a.pre) for a in sussman.actions)

    def test_scenario8_removes_all_actions(self, sussman):
        tweaked = tweak_model(sussman, 8, seed=3, count=2)
        assert tweaked.problem.actions == ()
        assert len(tweaked.log) == 18

    def test_scenario1_one_precondition_per_action(self, sussman):
        tweaked = tweak_model(sussman, 1, seed=7, count=2)
        removed = [r for r in tweaked.log if r.kind == "pre"]
        assert len(removed) == 18
        for orig, new in zip(sussman.actions, tweaked.problem.actions):
            assert len(new.pre) == len(orig.pre) - 1
            assert new.add == orig.add and new.delete == orig.delete

    def test_scenario2_one_effect_per_action(self, sussman):
        tweaked = tweak_model(sussman, 2, seed=7, count=2)
        for orig, new in zip(sussman.actions, tweaked.problem.actions):
            assert len(new.add) + len(new.delete) == len(orig.add) + len(orig.delete) - 1
            assert new.pre == orig.pre

    def test_scenario3_one_of_each(self, sussman):
        tweaked = tweak_model(sussman, 3, seed=7, count=2)
        for orig, new in zip(sussman.actions, tweaked.problem.actions):
            assert len(new.pre) == len(orig.pre) - 1
            assert len(new.add) + len(new.delete) == len(orig.add) + len(orig.delete) - 1

    def test_scenario4_count_parameter(self, sussman):
        tweaked = tweak_model(sussman, 4, seed=7, count=2)
        for orig, new in zip(sussman.actions, tweaked.problem.actions):
            assert len(new.pre) == max(0, len(orig.pre) - 2)
            assert len(new.add) + len(new.delete) == max(
                0, len(orig.add) + len(orig.delete) - 2
            )

    def test_scenario6_removes_init_atoms(self, sussman):
        tweaked = tweak_model(sussman, 6, seed=7, count=2)
        assert len(tweaked.problem.init) == len(sussman.init) - 2
        assert tweaked.problem.fluents == sussman.fluents

    def test_scenario7_removes_all_effects(self, sussman):
        tweaked = tweak_model(sussman, 7, seed=7, count=2)
        assert all(not a.add and not a.delete for a in tweaked.problem.actions)

    def test_determinism(self, sussman):
        def tweak(seed):
            return tweak_model(sussman, 3, seed=seed, count=2)

        assert tweak(99) == tweak(99)
        assert tweak(99) != tweak(100)

    def test_universe_preserved(self, sussman):
        for scenario in range(1, 9):
            tweaked = tweak_model(sussman, scenario, seed=13, count=2)
            assert tweaked.problem.fluents == sussman.fluents

    def test_skip_logged_when_nothing_to_remove(self):
        problem = ground(parse_pddl(CHAIN_DOMAIN, CHAIN_PROBLEM))
        tweaked = tweak_model(problem, 1, seed=0, count=2)
        kinds = {(r.action, r.kind) for r in tweaked.log}
        assert ("set-p", "skip") in kinds  # set-p has no preconditions
        assert ("finish", "pre") in kinds

    def test_unknown_scenario_rejected(self, sussman):
        with pytest.raises(PlanningError, match="unknown scenario"):
            tweak_model(sussman, 9, seed=0, count=2)


class TestEndToEnd:
    """The CLI's explain-plan pipeline, in process, on the two-action chain
    problem."""

    def _pipeline(self, scenario: int, seed: int):
        config = _build_parser().parse_args([
            "explain-plan", str(DATA / "chain-domain.pddl"),
            str(DATA / "chain-problem.pddl"), "--mode", RESTRICTED,
            "--seed", str(seed), "--scenario", str(scenario)])
        result = run_explain_plan(config)
        assert result.explanation is not None, result.report.records
        return result

    def test_missing_precondition_explained(self):
        result = self._pipeline(scenario=1, seed=0)
        # dropping preconditions cannot break the plan
        assert "feasibility feasible=true missing=0" in result.report.records
        enc_a, expl, problem = result.encoding, result.explanation, result.problem
        pre_clause = tuple(sorted(
            (-enc_a.action_var("finish", 0), enc_a.fluent_var(GroundAtom("p"), 0)), key=abs
        ))
        assert expl.update == (pre_clause,)
        size, _ = brute_force_min_update(problem)
        assert size == 1
        assert result.verification.ok

    def test_no_actions_scenario_explained(self):
        result = self._pipeline(scenario=8, seed=0)
        # set-p contributes 1 dynamics clause (its add), finish 2 (pre + add).
        assert "feasibility feasible=false missing=3" in result.report.records
        expl, problem = result.explanation, result.problem
        assert len(expl.removed_from_kb_h) >= 1  # over-strong frame clauses
        size, _ = brute_force_min_update(problem, max_candidates=20)
        assert len(expl.update) == size
        assert result.verification.ok

    def test_clean_model_needs_no_update(self):
        problem = ground(parse_pddl(CHAIN_DOMAIN, CHAIN_PROBLEM))
        plan = optimal_plan_search(problem)
        enc_a = encode_bounded(problem, len(plan), include_goal=False)
        oq = optimality_query(enc_a)
        kb = enc_a.cnf.extended(oq.definitions)
        expl = reconcile(ReconcileProblem(kb, kb, oq.query, mode=RESTRICTED))
        assert expl.update == ()
