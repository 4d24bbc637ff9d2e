from __future__ import annotations

import random

import pytest

from mrex.formula import (
    CnfFormula,
    DegenerateQueryError,
    DimacsParseError,
    FormulaError,
    TautologyError,
    intersect_kbs,
    negate_query,
    normalize_clause,
    parse_dimacs,
    parse_literal_list,
    parse_query_text,
    write_dimacs,
)

from oracles import formula_mask, parse_dimacs_reference, random_cnf


def test_normalize_sorts_and_dedups():
    assert normalize_clause([3, -1, 3]) == (-1, 3)
    assert normalize_clause([-2, 1]) == (1, -2)
    assert normalize_clause([]) == ()


def test_normalize_rejects_tautology_and_zero():
    with pytest.raises(TautologyError):
        normalize_clause([1, -1])
    with pytest.raises(FormulaError):
        normalize_clause([0])
    with pytest.raises(FormulaError):
        normalize_clause([2**31])


def test_normalize_is_idempotent():
    rng = random.Random(7)
    for _ in range(200):
        width = rng.randint(0, 5)
        lits = [rng.choice([1, -1]) * rng.randint(1, 6) for _ in range(width)]
        try:
            once = normalize_clause(lits)
        except TautologyError:
            continue
        assert normalize_clause(once) == once


def test_from_clauses_merges_duplicates_with_warning():
    f = CnfFormula.from_clauses([(1, 2), (2, 1), (-3,)])
    assert f.clauses == ((1, 2), (-3,))
    assert f.num_vars == 3
    assert any("merged" in w for w in f.warnings)


def test_clause_ids_stable_under_extension():
    f = CnfFormula.from_clauses([(1,), (2, 3)])
    g = f.extended([(4,), (1,)])
    assert g.clauses[:2] == f.clauses
    assert g.clauses == ((1,), (2, 3), (4,))
    assert g.num_vars == 4


def test_extended_warns_of_the_empty_clause_once():
    f = CnfFormula.from_clauses([(), (1,)])
    g = f.extended([(2,)])
    assert g.warnings == f.warnings
    assert sum("empty clause" in w for w in g.warnings) == 1


def test_extended_equals_from_clauses_of_the_concatenation():
    rng = random.Random(16)
    for _ in range(300):
        num_vars = rng.randint(1, 6)
        old = random_cnf(rng, num_vars, rng.randint(0, 8))
        f = CnfFormula.from_clauses(old, rng.randint(0, 8))
        def some(clauses, most):
            return rng.choices(clauses, k=rng.randint(0, most)) if clauses else []

        new = [tuple(rng.sample(c, len(c))) for c in some(old, 3)]  # repeats, unsorted
        new += random_cnf(rng, num_vars + 2, rng.randint(0, 6))
        new += [c[::-1] for c in some(new, 3)]  # duplicates among the new
        new += [c + c[:1] for c in some(new, 2)]  # a repeated literal
        rng.shuffle(new)
        if rng.random() < 0.2:
            v = rng.randint(1, num_vars + 2)
            new.insert(rng.randint(0, len(new)), (v, rng.randint(1, num_vars), -v))
            with pytest.raises(TautologyError):
                f.extended(new)
            continue
        g = f.extended(new)
        want = CnfFormula.from_clauses(f.clauses + tuple(new), f.num_vars)
        assert g.clauses == want.clauses
        assert g.num_vars == want.num_vars
        assert g.clauses[: len(f)] == f.clauses


def test_parse_dimacs_basic():
    text = "c a comment\np cnf 4 3\n1 -2 0\n-3\n4 0\n2 0\n"
    f = parse_dimacs(text)
    assert f.clauses == ((1, -2), (-3, 4), (2,))
    assert f.num_vars == 4


def test_parse_dimacs_flags_empty_clause_and_duplicates():
    f = parse_dimacs("p cnf 2 3\n0\n1 2 0\n2 1 0\n")
    assert () in f.clauses
    assert any("empty clause" in w for w in f.warnings)
    assert any("merged" in w for w in f.warnings)


def test_parse_dimacs_drops_tautologies_with_warning():
    f = parse_dimacs("p cnf 2 2\n1 -1 0\n2 0\n")
    assert f.clauses == ((2,),)
    assert any("tautological" in w for w in f.warnings)


def test_parse_dimacs_errors():
    with pytest.raises(DimacsParseError):
        parse_dimacs("1 2 0\n")  # no header
    with pytest.raises(DimacsParseError):
        parse_dimacs("p cnf x y\n")
    with pytest.raises(DimacsParseError):
        parse_dimacs("p cnf 2 1\n1 2\n")  # missing terminator
    with pytest.raises(DimacsParseError):
        parse_dimacs("p cnf 2 1\n1 foo 0\n")
    with pytest.raises(DimacsParseError):
        parse_dimacs(f"p cnf 2 1\n{2**31} 0\n")


def test_parse_dimacs_header_checks():
    with pytest.raises(DimacsParseError, match="duplicate"):
        parse_dimacs("p cnf 2 1\n1 0\np cnf 2 1\n")
    for counts in ("-1 1", "2 -1"):
        with pytest.raises(DimacsParseError, match="negative"):
            parse_dimacs(f"p cnf {counts}\n")
    f = parse_dimacs("p cnf 2 3\n1 0\n-2 0\n")
    assert f.clauses == ((1,), (-2,))
    assert f.warnings == ("header announced 3 clauses, found 2",)


def test_parse_dimacs_num_vars_envelope():
    """num_vars is the larger of the header's count and the largest
    variable; a variable above the header's count warns, before a wrong
    clause count does."""
    f = parse_dimacs("p cnf 9 1\n1 0\n")
    assert f.num_vars == 9
    assert f.warnings == ()
    g = parse_dimacs("p cnf 1 1\n7 0\n")
    assert g.num_vars == 7
    assert g.warnings == ("header announced 1 variables, found variable 7",)
    h = parse_dimacs("p cnf 2 2\n2 0\n-1 -5 0\n1 0\n")
    assert h.num_vars == 5
    assert h.warnings == ("header announced 2 variables, found variable 5",
                          "header announced 2 clauses, found 3")


@pytest.mark.parametrize("token", ["1_0", "+1", "\uff11", "\u0663", "1" * 5000])
def test_integer_tokens_are_ascii_decimals(token):
    """int() also reads `_`, `+` and non-ASCII digits, and refuses an
    integer of more than 4300 digits; each is a bad token, wherever it
    stands."""
    with pytest.raises(DimacsParseError, match="^bad token"):
        parse_dimacs(f"p cnf 20 2\n{token} 2 0\n-3 0\n")
    with pytest.raises(DimacsParseError, match="^malformed header"):
        parse_dimacs(f"p cnf {token} 1\n1 0\n")
    with pytest.raises(DimacsParseError, match="^malformed header"):
        parse_dimacs(f"p cnf 3 {token}\n1 0\n")
    with pytest.raises(DimacsParseError, match="^bad literal token"):
        parse_literal_list(f"1\n{token} -2\n")


def test_parse_dimacs_reports_the_first_fault_in_file_order():
    with pytest.raises(DimacsParseError, match="bad token '1_0'"):
        parse_dimacs(f"p cnf 20 2\n1_0 {2**31} 0\nfoo 0\n")
    with pytest.raises(DimacsParseError, match=f"variable {2**31} exceeds"):
        parse_dimacs(f"p cnf 20 2\n1 -{2**31} 0\nfoo 1_0 0\n")
    with pytest.raises(DimacsParseError, match="bad token 'foo'"):
        parse_dimacs("p cnf 20 2\n1 2 0\nfoo 3\n")


def _random_dimacs(rng: random.Random) -> str:
    """DIMACS-like text: normal or shuffled clauses with repeated literals,
    tautologies, duplicates and empty clauses, comments and blank lines,
    header counts that may miss, and sometimes a bad or out-of-range token
    or a missing terminator."""
    num_vars = rng.randint(1, 8)
    clauses = [list(c) for c in random_cnf(rng, num_vars, rng.randint(0, 10))]
    normal = rng.random() < 0.4
    if not normal:
        for c in clauses:
            rng.shuffle(c)
        for _ in range(rng.randint(0, 3)):
            c = rng.choice(clauses) if clauses else []
            kind = rng.randrange(4)
            if kind == 0:
                clauses.append(c + c[:1])  # a repeated literal
            elif kind == 1:
                v = rng.randint(1, num_vars + 2)
                clauses.append(c + [v, -v])  # a tautology
            elif kind == 2:
                clauses.append(c[::-1])  # a duplicate
            else:
                clauses.append([])
            rng.shuffle(clauses)
    tokens = [str(l) for c in clauses for l in (*c, 0)]
    if rng.random() < 0.2:
        bad = rng.choice(["x", "1_0", "+2", "\uff13", "-", "2.0", "--1",
                          str(2**31), str(-(2**31)), str(2**40)])
        tokens.insert(rng.randint(0, len(tokens)), bad)
        if rng.random() < 0.5:  # a second fault, before or after the first
            tokens.insert(rng.randint(0, len(tokens)), rng.choice(["y", str(2**32)]))
    if tokens and rng.random() < 0.1:
        tokens.pop()  # the last clause loses its terminator
    lines: list[str] = []
    while tokens:
        take = rng.randint(1, 6)
        lines.append(" ".join(tokens[:take]))
        del tokens[:take]
    for _ in range(rng.randint(0, 3)):
        lines.insert(rng.randint(0, len(lines)), rng.choice(["c note", "", "  c", "c 1 2 0"]))
    header_vars = num_vars + rng.choice([0, 0, 0, -1, 2])
    header_count = len(clauses) + rng.choice([0, 0, 0, 1, -1])
    lines.insert(rng.randint(0, len(lines) // 3), f"p cnf {header_vars} {header_count}")
    return "\n".join(lines) + "\n"


def _outcome(parse, text):
    try:
        f = parse(text)
    except FormulaError as exc:
        return type(exc), str(exc)
    return f.clauses, f.num_vars, f.warnings


def test_parse_dimacs_matches_the_reference_parser():
    rng = random.Random(27)
    kinds = set()
    for _ in range(600):
        text = _random_dimacs(rng)
        got = _outcome(parse_dimacs, text)
        assert got == _outcome(parse_dimacs_reference, text), text
        kinds.add(got[0] if isinstance(got[0], type) else bool(got[2]))
    assert kinds == {DimacsParseError, True, False}


def test_written_dimacs_bypasses_from_clauses(monkeypatch):
    """write_dimacs writes clauses that are normal and distinct, so
    parse_dimacs builds their formula without the normaliser."""
    rng = random.Random(11)
    formulas = [CnfFormula.from_clauses(random_cnf(rng, n, rng.randint(0, 15)), n)
                for n in rng.choices(range(1, 10), k=100)]
    formulas.append(CnfFormula.from_clauses([(1, -3), (), (2,)]))

    def refuse(*args, **kwargs):
        raise AssertionError("from_clauses called")

    monkeypatch.setattr(CnfFormula, "from_clauses", refuse)
    for f in formulas:
        g = parse_dimacs(write_dimacs(f))
        assert (g.clauses, g.num_vars, g.warnings) == (f.clauses, f.num_vars, f.warnings)


def test_dimacs_round_trip_random():
    rng = random.Random(13)
    for _ in range(50):
        clauses = random_cnf(rng, rng.randint(1, 9), rng.randint(1, 15))
        f = CnfFormula.from_clauses(clauses)
        assert parse_dimacs(write_dimacs(f)) == f


def test_parse_literal_list_and_query_dispatch():
    q = parse_literal_list("1 -3\n2\n")
    assert q.clauses == ((1,), (-3,), (2,))
    assert parse_literal_list("1 -3 0\n2 0\n").clauses == q.clauses  # a 0 token is skipped
    assert parse_query_text("p cnf 2 1\n1 2 0\n").clauses == ((1, 2),)
    assert parse_query_text("-4\n").clauses == ((-4,),)
    with pytest.raises(DegenerateQueryError):
        parse_literal_list("\n")


def test_intersect_is_syntactic():
    kb_a = CnfFormula.from_clauses([(1, 2), (-2, 3), (-3,)])
    kb_h = CnfFormula.from_clauses([(-3,), (5,), (2, 1)])
    hard, soft = intersect_kbs(kb_a, kb_h)
    assert hard == {0, 2}  # (1,2) and (-3,) are shared syntactically
    assert soft == {1}
    assert hard | soft == set(range(len(kb_a.clauses)))
    # logically equivalent but syntactically different clauses do not intersect
    kb_h2 = CnfFormula.from_clauses([(2, 1, 4), (-3, -3)])
    hard2, _ = intersect_kbs(kb_a, kb_h2)
    assert hard2 == {2}


def test_negate_unit_conjunction_single_clause():
    q = CnfFormula.from_clauses([(-5,), (-6,)])
    neg = negate_query(q, 7)
    assert neg.clauses == ((5, 6),)
    assert len(neg.aux_vars) == 0


def test_negate_general_query_structure():
    q = CnfFormula.from_clauses([(1, 2), (3, 4)])
    neg = negate_query(q, 5)
    assert neg.aux_vars == range(5, 7)
    assert len(neg.clauses) == 5
    expected = {(-1, -5), (-2, -5), (-3, -6), (-4, -6), (5, 6)}
    assert set(neg.clauses) == expected


def test_negation_equisatisfiability_random():
    # models of the negation restricted to original vars = assignments
    # falsifying the query, for both encodings
    rng = random.Random(23)
    for _ in range(60):
        n = rng.randint(1, 6)
        clauses = random_cnf(rng, n, rng.randint(1, 4))
        q = CnfFormula.from_clauses(clauses)
        try:
            neg = negate_query(q, n + 1)
        except DegenerateQueryError:
            continue
        total = n + len(neg.aux_vars)
        full = (1 << (1 << n)) - 1
        fals = full ^ formula_mask(q.clauses, n)
        neg_mask = formula_mask(neg.clauses, total)
        # project the negation's models down to the first n variables
        projected = 0
        for a in range(1 << total):
            if neg_mask >> a & 1:
                projected |= 1 << (a & ((1 << n) - 1))
        assert projected == fals


def test_negate_query_degenerate_cases():
    with pytest.raises(DegenerateQueryError):
        negate_query(CnfFormula.from_clauses([]), 1)
    with pytest.raises(DegenerateQueryError):
        negate_query(CnfFormula.from_clauses([()]), 1)
    with pytest.raises(DegenerateQueryError):
        negate_query(CnfFormula.from_clauses([(1,), (-1,)]), 2)
    with pytest.raises(FormulaError):
        negate_query(CnfFormula.from_clauses([(1, 2), (3,)]), 2)
