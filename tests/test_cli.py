"""Command-line interface: subcommands, exit codes, records, determinism."""

import hashlib
import importlib
from pathlib import Path

import pytest

import mrex.cli
from mrex.cli import (
    EXIT_CAP,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_PREMISE,
    EXIT_TIMEOUT,
    EXIT_USAGE,
    EXIT_VERIFY,
    main,
)
from mrex.reconcile import VerificationReport

DATA = Path(__file__).parent / "data"
BLOCKS = str(DATA / "blocksworld.pddl")
SUSSMAN = str(DATA / "sussman.pddl")
TWO_BLOCKS = str(DATA / "two-blocks.pddl")
CHAIN_DOMAIN = str(DATA / "chain-domain.pddl")
CHAIN_PROBLEM = str(DATA / "chain-problem.pddl")
TRIVIAL = str(DATA / "trivial.pddl")

# sha256 of each Sussman scenario's `clause role=repair` lines (seed 0), each
# line ending in a newline, as `grep '^clause role=repair' | sha256sum` reads.
REPAIR_SHA256 = {
    1: "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    2: "3809a1f8e40be3f4be75d4553595475dc3d3893b9d9c664b900ab6574a04b7c6",
    3: "0ef9e06856f22ce5fa2d3187cab88348bf526296f997511fc9a4b5154f2410f6",
    7: "a10cff23157f475e90db256f15a3f7107a63000ca048fc843fe121946b1d86a7",
    8: "2a294ff7c829ddf8db6e9fcf47eb727fa291b35b0bb5d93b3400bfeb646e37e4",
}

KB_A_TEXT = "p cnf 5 5\n1 2 0\n-2 3 0\n-3 0\n-2 4 0\n-4 0\n"
KB_H_TEXT = "p cnf 5 2\n-3 0\n5 0\n"


@pytest.fixture
def worked(tmp_path):
    kb_a = tmp_path / "kb_a.cnf"
    kb_h = tmp_path / "kb_h.cnf"
    query = tmp_path / "query.txt"
    kb_a.write_text(KB_A_TEXT)
    kb_h.write_text(KB_H_TEXT)
    query.write_text("1\n")
    return kb_a, kb_h, query


def run(capsys, *argv) -> tuple[int, str]:
    try:
        code = main([str(a) for a in argv])
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    return code, capsys.readouterr().out


def stable(output: str) -> list[str]:
    """Records with wall-clock lines dropped, for determinism comparisons."""
    return [l for l in output.splitlines() if not l.startswith("time ")]


class TestReconcileCommand:
    def test_worked_example(self, worked, capsys):
        kb_a, kb_h, query = worked
        code, out = run(capsys, "reconcile", kb_a, kb_h, "--query", query,
                        "--format", "records")
        assert code == EXIT_OK
        assert "stat support_size=3 update_size=2 removed_size=0" in out
        assert "clause role=update lits=-2,3" in out
        assert "clause role=update lits=1,2" in out
        assert "verify entailed=true minimal=true consistent=true ok=true" in out

    def test_text_format(self, worked, capsys):
        kb_a, kb_h, query = worked
        code, out = run(capsys, "reconcile", kb_a, kb_h, "--query", query)
        assert code == EXIT_OK
        assert "support size 3, update size 2" in out

    def test_entailed_query_empty_update(self, worked, capsys):
        kb_a, kb_h, query = worked
        query.write_text("-3\n")
        code, out = run(capsys, "reconcile", kb_a, kb_h, "--query", query,
                        "--format", "records")
        assert code == EXIT_OK
        assert "stat support_size=1 update_size=0" in out

    def test_premise_violation(self, worked, capsys):
        kb_a, kb_h, query = worked
        query.write_text("5\n")  # kb_a says nothing about variable 5
        code, out = run(capsys, "reconcile", kb_a, kb_h, "--query", query,
                        "--format", "records")
        assert code == EXIT_PREMISE
        assert "error kind=premise" in out

    def test_parse_error(self, worked, capsys):
        kb_a, kb_h, query = worked
        for content in (b"p cnf nonsense\n", b"\xff\xfe"):  # bad header, not UTF-8
            kb_a.write_bytes(content)
            code, _ = run(capsys, "reconcile", kb_a, kb_h, "--query", query)
            assert code == EXIT_PARSE

    def test_missing_file(self, worked, capsys):
        kb_a, kb_h, query = worked
        code, _ = run(capsys, "reconcile", kb_a.parent / "absent.cnf", kb_h,
                      "--query", query)
        assert code == EXIT_PARSE

    def test_timeout_partial_stats(self, tmp_path, capsys):
        code, _ = run(capsys, "encode-plan", BLOCKS, SUSSMAN, "--horizon", "3",
                      "--out", tmp_path / "kb.cnf")
        assert code == EXIT_OK
        code, _ = run(capsys, "tweak-cnf", tmp_path / "kb.cnf", "--scenario",
                      "9", "--seed", "5", "--out", tmp_path / "kb_h.cnf")
        assert code == EXIT_OK
        query = tmp_path / "query.txt"
        query.write_text("4\n")
        code, out = run(capsys, "reconcile", tmp_path / "kb.cnf",
                        tmp_path / "kb_h.cnf", "--query", query,
                        "--timeout", "1e-9", "--format", "records")
        assert code == EXIT_TIMEOUT
        assert "error kind=timeout" in out
        assert any(l.startswith("stat iterations=") for l in out.splitlines())

    def test_verify_failure_exits_13(self, worked, capsys, monkeypatch):
        """A support that fails its check is still reported, followed by an
        `error kind=verify` record naming the failures, and the run exits 13."""
        failed = VerificationReport(True, False, True, ("clause 1,2 is redundant",
                                                        "clause -2,3 is redundant"))
        monkeypatch.setattr(mrex.cli, "verify_explanation", lambda *args: failed)
        kb_a, kb_h, query = worked
        code, out = run(capsys, "reconcile", kb_a, kb_h, "--query", query,
                        "--format", "records", "--out", kb_a.parent / "expl.records")
        assert code == EXIT_VERIFY
        lines = stable(out)
        assert lines[-2:] == [
            "verify entailed=true minimal=false consistent=true ok=false",
            "error kind=verify msg=clause 1,2 is redundant;clause -2,3 is redundant",
        ]
        assert "stat support_size=3 update_size=2 removed_size=0" in out
        written = (kb_a.parent / "expl.records").read_text()
        assert "verify entailed=true minimal=false" in written

    def test_rejects_nonpositive_timeout(self, worked, capsys):
        kb_a, kb_h, query = worked
        for timeout in ("0", "nan"):
            code, _ = run(capsys, "reconcile", kb_a, kb_h, "--query", query,
                          "--timeout", timeout)
            assert code == 2

    def test_records_deterministic(self, worked, capsys):
        kb_a, kb_h, query = worked
        args = ("reconcile", kb_a, kb_h, "--query", query, "--format", "records")
        _, first = run(capsys, *args)
        _, second = run(capsys, *args)
        assert stable(first) == stable(second)
        assert any(l.startswith("time ") for l in first.splitlines())


class TestVerifyCommand:
    def test_round_trip(self, worked, tmp_path, capsys):
        kb_a, kb_h, query = worked
        out_file = tmp_path / "expl.records"
        code, _ = run(capsys, "reconcile", kb_a, kb_h, "--query", query,
                      "--out", out_file)
        assert code == EXIT_OK
        code, out = run(capsys, "verify", kb_h, out_file, "--query", query,
                        "--format", "records")
        assert code == EXIT_OK
        assert "verify entailed=true minimal=true consistent=true ok=true" in out

    def test_out_writes_verify_and_failure_records(self, worked, tmp_path, capsys):
        kb_a, kb_h, query = worked
        expl = tmp_path / "expl.records"
        run(capsys, "reconcile", kb_a, kb_h, "--query", query, "--out", expl)
        padded = tmp_path / "padded.records"
        padded.write_text(expl.read_text() + "clause role=support lits=-2,4\n")
        for name, code_wanted in ((expl, EXIT_OK), (padded, EXIT_VERIFY)):
            out_file = tmp_path / "verify" / (name.name + ".out")
            code, out = run(capsys, "verify", kb_h, name, "--query", query,
                            "--out", out_file, "--format", "records")
            assert code == code_wanted
            written = out_file.read_text().splitlines()
            assert written[0].startswith("verify ")
            assert written == [l for l in out.splitlines()
                               if l.startswith(("verify ", "failure "))]
        assert any(l.startswith("failure ") for l in written)

    def test_dropped_clause_fails_entailment(self, worked, tmp_path, capsys):
        kb_a, kb_h, query = worked
        out_file = tmp_path / "expl.records"
        run(capsys, "reconcile", kb_a, kb_h, "--query", query, "--out", out_file)
        lines = [l for l in out_file.read_text().splitlines()
                 if l != "clause role=support lits=1,2"]
        corrupted = tmp_path / "corrupted.records"
        corrupted.write_text("\n".join(lines) + "\n")
        code, out = run(capsys, "verify", kb_h, corrupted, "--query", query,
                        "--format", "records")
        assert code == EXIT_VERIFY
        assert "entailed=false" in out

    def test_padded_explanation_fails_minimality(self, worked, tmp_path, capsys):
        kb_a, kb_h, query = worked
        out_file = tmp_path / "expl.records"
        run(capsys, "reconcile", kb_a, kb_h, "--query", query, "--out", out_file)
        padded = tmp_path / "padded.records"
        padded.write_text(out_file.read_text()
                          + "clause role=support lits=-2,4\n")
        code, out = run(capsys, "verify", kb_h, padded, "--query", query,
                        "--format", "records")
        assert code == EXIT_VERIFY
        assert "minimal=false" in out

    @pytest.mark.parametrize("lits", ["0", "1,-1", "1_0", "-1_0", "+1", "\u0662", None])
    def test_malformed_clause_rejected(self, worked, tmp_path, capsys, lits):
        """A clause record needs lits= (once read as the empty clause), and a
        literal is -?[0-9]+ (int() reads 1_0 as 10 and the Arabic-Indic
        digit as 2); the one error line names the offending token."""
        _, kb_h, query = worked
        bad = tmp_path / "bad.records"
        field = "" if lits is None else f" lits={lits}"
        bad.write_text(f"explanation mode=general\nclause role=support{field}\n",
                       encoding="utf-8")
        code = main(["verify", str(kb_h), str(bad), "--query", str(query)])
        err = capsys.readouterr().err
        assert code == EXIT_PARSE
        assert err.startswith("error: explanation: ") and err.count("\n") == 1
        assert (lits or "without lits").split(",")[-1] in err

    def test_explain_plan_records_verify_without_their_repair_lines(self, tmp_path,
                                                                     capsys):
        """explain-plan's full records carry `clause role=repair` lines,
        which verify passes over."""
        outdir = tmp_path / "run"
        code, out = run(capsys, "explain-plan", CHAIN_DOMAIN, CHAIN_PROBLEM,
                        "--scenario", "8", "--seed", "0", "--format", "records",
                        "--out", outdir)
        assert code == EXIT_OK and "clause role=repair " in out
        records = tmp_path / "all.records"
        records.write_text(out)
        code, out = run(capsys, "verify", outdir / "kb_h.cnf", records,
                        "--query", outdir / "query.txt", "--format", "records")
        assert code == EXIT_OK
        assert "verify entailed=true minimal=true consistent=true ok=true" in out


@pytest.mark.parametrize("query_text, msg", [
    ("2 2\n", "clause (2,) at position 1 duplicates id 0; merged"),
    ("p cnf 3 2\n1 -1 0\n3 0\n", "tautological clause (1, -1) dropped"),
])
def test_query_warnings_reported(tmp_path, capsys, query_text, msg):
    """A query file that loses a clause to parsing says so under reconcile
    and under verify, as a kb does, but gets no `kb` record."""
    kb_a, kb_h, query = tmp_path / "kb_a.cnf", tmp_path / "kb_h.cnf", tmp_path / "q"
    kb_a.write_text("p cnf 3 2\n2 0\n3 0\n")
    kb_h.write_text("p cnf 3 1\n1 0\n")
    query.write_text(query_text)
    expl = tmp_path / "expl.records"
    for argv in (["reconcile", kb_a, kb_h, "--query", query, "--out", expl],
                 ["verify", kb_h, expl, "--query", query]):
        code, out = run(capsys, *argv, "--format", "records")
        assert code == EXIT_OK
        assert f"warn kb=query msg={msg}" in out.splitlines()
        assert "kb name=query" not in out
        code, out = run(capsys, *argv)
        assert code == EXIT_OK and f"warning: query: {msg}" in out.splitlines()


class TestBackboneCommand:
    def test_all_literals(self, worked, capsys):
        kb_a, _, _ = worked
        code, out = run(capsys, "backbone", kb_a, "--format", "records")
        assert code == EXIT_OK
        assert "stat backbone_size=4 sampled=4" in out
        values = [l.split("value=")[1] for l in out.splitlines()
                  if l.startswith("literal ")]
        assert values == ["1", "-2", "-3", "-4"]

    def test_sample_and_query_file(self, worked, tmp_path, capsys):
        kb_a, _, _ = worked
        out_file = tmp_path / "query.txt"
        code, out = run(capsys, "backbone", kb_a, "--k", "2", "--seed", "3",
                        "--out", out_file, "--format", "records")
        assert code == EXIT_OK
        assert "sampled=2" in out
        lits = [int(l) for l in out_file.read_text().split()]
        assert len(lits) == 2 and set(lits) <= {1, -2, -3, -4}
        # the sidecar log is the run's records, starting with the run record
        assert (tmp_path / "query.txt.log").read_text() == out

    def test_k_larger_than_backbone_warns(self, worked, capsys):
        kb_a, _, _ = worked
        code, out = run(capsys, "backbone", kb_a, "--k", "99",
                        "--format", "records")
        assert code == EXIT_OK
        assert "warn msg=k exceeds backbone size" in out
        assert "sampled=4" in out

    def test_unsat_kb_rejected(self, tmp_path, capsys):
        kb = tmp_path / "kb.cnf"
        kb.write_text("p cnf 1 2\n1 0\n-1 0\n")
        code, out = run(capsys, "backbone", kb, "--format", "records")
        assert code == EXIT_PREMISE

    def test_empty_backbone_rejected(self, tmp_path, capsys):
        kb = tmp_path / "kb.cnf"
        kb.write_text("p cnf 2 2\n1 2 0\n-1 -2 0\n")
        code, out = run(capsys, "backbone", kb, "--format", "records")
        assert code == EXIT_PREMISE
        assert "no backbone query derivable" in out

    def test_parse_warnings_reported(self, worked, tmp_path, capsys):
        """A merged duplicate, a dropped tautology and a wrong header count
        each give a warn record and a text line; a clean input gives none."""
        kb = tmp_path / "kb.cnf"
        kb.write_text("p cnf 3 5\n1 2 0\n1 2 0\n1 -1 3 0\n-3 0\n")
        code, out = run(capsys, "backbone", kb, "--format", "records")
        assert code == EXIT_OK
        assert [l for l in out.splitlines() if l.startswith("warn ")] == [
            "warn kb=kb msg=clause (1, 2) at position 1 duplicates id 0; merged",
            "warn kb=kb msg=tautological clause (1, -1, 3) dropped",
            "warn kb=kb msg=header announced 5 clauses, found 4",
        ]
        code, out = run(capsys, "backbone", kb)
        assert code == EXIT_OK
        assert "warning: kb: header announced 5 clauses, found 4" in out.splitlines()
        code, out = run(capsys, "backbone", worked[0], "--format", "records")
        assert code == EXIT_OK
        assert not [l for l in out.splitlines() if l.startswith("warn ")]

    def test_variable_above_header_warns(self, tmp_path, capsys):
        kb = tmp_path / "kb.cnf"
        kb.write_text("p cnf 1 1\n7 0\n")
        code, out = run(capsys, "backbone", kb, "--format", "records")
        assert code == EXIT_OK
        assert "kb name=kb vars=7 clauses=1" in out.splitlines()
        assert [l for l in out.splitlines() if l.startswith("warn ")] == [
            "warn kb=kb msg=header announced 1 variables, found variable 7"]
        code, out = run(capsys, "backbone", kb)
        assert code == EXIT_OK
        assert "warning: kb: header announced 1 variables, found variable 7" in out.splitlines()

    def test_non_decimal_token_is_a_parse_error(self, tmp_path, capsys):
        """int() reads `1_0` as 10; DIMACS does not."""
        kb = tmp_path / "kb.cnf"
        kb.write_text("p cnf 20 2\n1_0 2 0\n-1_0 0\n")
        code, _ = run(capsys, "backbone", kb, "--format", "records")
        assert code == EXIT_PARSE


class TestTweakCnfCommand:
    def _kb(self, tmp_path) -> Path:
        clauses = [f"{i} {i + 1} {i + 2} 0" for i in range(1, 11)]
        kb = tmp_path / "kb.cnf"
        kb.write_text("p cnf 12 10\n" + "\n".join(clauses) + "\n")
        return kb

    def test_scenario9_counts(self, tmp_path, capsys):
        kb = self._kb(tmp_path)
        out_file = tmp_path / "kb_h.cnf"
        code, out = run(capsys, "tweak-cnf", kb, "--scenario", "9",
                        "--seed", "1", "--out", out_file, "--format", "records")
        assert code == EXIT_OK
        assert "removed=1 trimmed=1 skipped=0" in out
        assert out_file.exists()
        assert (tmp_path / "kb_h.cnf.log").read_text() == out
        assert "clauses_after=9" in out

    def test_merged_trims_counted(self, tmp_path, capsys):
        """Seed 0 trims (1 2) and (1 4) both to (1); the stat line counts the
        merge, and clauses_after is the count of clauses written."""
        kb = tmp_path / "kb.cnf"
        kb.write_text("p cnf 4 5\n1 2 0\n1 3 0\n1 4 0\n2 3 0\n-1 2 0\n")
        out_file = tmp_path / "kb_h.cnf"
        code, out = run(capsys, "tweak-cnf", kb, "--scenario", "12", "--seed", "0",
                        "--out", out_file, "--format", "records")
        assert code == EXIT_OK
        lines = out.splitlines()
        stat = dict(f.split("=") for f in lines[-2].removeprefix("stat ").split())
        assert stat["merged"] == "1"
        assert (int(stat["clauses_before"]) - int(stat["removed"])
                - int(stat["merged"]) == int(stat["clauses_after"]))
        assert lines[-1] == f"kb name=kb_h vars=4 clauses={stat['clauses_after']}"
        assert out_file.read_text() == "p cnf 4 2\n1 0\n1 3 0\n"

    def test_same_seed_identical_output(self, tmp_path, capsys):
        kb = self._kb(tmp_path)
        a, b = tmp_path / "a.cnf", tmp_path / "b.cnf"
        run(capsys, "tweak-cnf", kb, "--scenario", "10", "--seed", "7",
            "--out", a)
        run(capsys, "tweak-cnf", kb, "--scenario", "10", "--seed", "7",
            "--out", b)
        assert a.read_bytes() == b.read_bytes()

    def test_unit_clauses_skipped(self, tmp_path, capsys):
        kb = tmp_path / "kb.cnf"
        kb.write_text("p cnf 3 3\n1 0\n2 0\n3 0\n")
        code, out = run(capsys, "tweak-cnf", kb, "--scenario", "12",
                        "--seed", "0", "--format", "records")
        assert code == EXIT_OK
        assert "trimmed=0" in out and "skipped=" in out
        assert "skip" in out

    def test_empty_clause_logged_as_dash(self, tmp_path, capsys):
        kb = tmp_path / "kb.cnf"
        kb.write_text("p cnf 2 3\n1 2 0\n0\n-1 2 0\n")
        code, out = run(capsys, "tweak-cnf", kb, "--scenario", "12",
                        "--seed", "1", "--format", "records")
        assert code == EXIT_OK
        assert "remove index=1 lits=-" in out.splitlines()

    def test_scenario_out_of_range(self, tmp_path, capsys):
        kb = self._kb(tmp_path)
        code, _ = run(capsys, "tweak-cnf", kb, "--scenario", "13")
        assert code == 2


class TestExplainPlanCommand:
    def test_chain_missing_precondition(self, capsys):
        code, out = run(capsys, "explain-plan", CHAIN_DOMAIN, CHAIN_PROBLEM,
                        "--scenario", "1", "--seed", "0", "--format", "records")
        assert code == EXIT_OK
        assert "plan source=search length=2" in out
        assert "tweak scenario=1 kind=pre action=finish atom=p" in out
        assert "stat support_size=" in out and "update_size=1" in out
        assert "clause role=update lits=" in out
        assert "names=holding" not in out  # chain domain has its own fluents
        assert "names=p@0;-finish@0" in out or "names=-finish@0;p@0" in out
        assert "verify entailed=true minimal=true consistent=true ok=true" in out

    def test_artifacts_written_and_verifiable(self, tmp_path, capsys):
        outdir = tmp_path / "run"
        code, _ = run(capsys, "explain-plan", CHAIN_DOMAIN, CHAIN_PROBLEM,
                      "--scenario", "8", "--seed", "0", "--out", outdir)
        assert code == EXIT_OK
        for name in ("kb_a.cnf", "kb_h.cnf", "kb_a.cnf.map", "kb_a.cnf.log",
                     "kb_h.cnf.log", "plan.txt", "query.txt",
                     "explanation.records"):
            assert (outdir / name).exists(), name
        code, out = run(capsys, "verify", outdir / "kb_h.cnf",
                        outdir / "explanation.records",
                        "--query", outdir / "query.txt", "--format", "records")
        assert code == EXIT_OK

    @pytest.mark.parametrize("scenario,missing,kb_h_digest", [
        (1, 0, "0c5c770fbabca6a28e4728370c46162a48ce648b2b758519a515ab1c999abbdc"),
        (2, 6, "768e042c5437fda9cf74d70bd09a893cada0271f186993e8a4667c0280dd3538"),
        (3, 12, "606c0999eba87c989c29ad83b5d3bc3a207c477f42611b26b2528c32ed0d5b02"),
        (7, 27, "a67325aacd3b945cb445879c5868edcf718110419e59280714484e5cf6196a2b"),
        (8, 41, "3e00a0ba5d105daffc42b22ec8887568937516f0781395dce18aaac68c1cfd5d"),
    ])
    def test_sussman_knowledge_bases_golden(self, tmp_path, capsys, scenario,
                                            missing, kb_h_digest):
        """kb_a.cnf, kb_h.cnf and kb_a.cnf.map are pinned byte for byte: the
        clause order and ids of both knowledge bases are part of every
        explanation, and the map names each variable of kb_a.cnf once, the
        query's goal@t variables too.  Scenarios 2, 3, 7 and 8 take the feasibility repair, so
        their kb_h gains the repair clauses ahead of the goal definitions;
        the `clause role=repair` lines are pinned too, as they carry each
        repair clause's kind, step, action and order.  Scenario 8's model has
        no actions, so no step gets an at-least-one clause."""
        outdir = tmp_path / "run"
        code, out = run(capsys, "explain-plan", BLOCKS, SUSSMAN, "--scenario",
                        str(scenario), "--seed", "0", "--format", "records",
                        "--out", outdir)
        assert code == EXIT_OK
        assert f"feasibility feasible={str(not missing).lower()} missing={missing}" in out
        digest = {name: hashlib.sha256((outdir / name).read_bytes()).hexdigest()
                  for name in ("kb_a.cnf", "kb_h.cnf", "kb_a.cnf.map")}
        assert digest == {
            "kb_a.cnf": "49c4fe3c02d15f3e30e7f214a5328c407e0ed36d32c62543eae24b209ec9de70",
            "kb_h.cnf": kb_h_digest,
            "kb_a.cnf.map": "a96d04f7e9127234bee422da594392acfc955e33a117f72d701b27ded06b5d39",
        }
        num_vars = int((outdir / "kb_a.cnf").read_text().split()[2])
        mapped = [int(line.split()[0])
                  for line in (outdir / "kb_a.cnf.map").read_text().splitlines()]
        assert mapped == list(range(1, num_vars + 1))
        repair = [l for l in out.splitlines() if l.startswith("clause role=repair ")]
        assert len(repair) == missing
        lines = "".join(l + "\n" for l in repair).encode()
        assert hashlib.sha256(lines).hexdigest() == REPAIR_SHA256[scenario]
        notes = [l for l in out.splitlines() if l.startswith("note ")]
        assert notes == [
            f"note kb=human msg=at-least-one omitted at step {t}: no actions"
            for t in range(6 if scenario == 8 else 0)
        ]

    def test_repair_clauses_reported(self, capsys):
        code, out = run(capsys, "explain-plan", CHAIN_DOMAIN, CHAIN_PROBLEM,
                        "--scenario", "8", "--seed", "0", "--format", "records")
        assert code == EXIT_OK
        repair = [l for l in out.splitlines() if "role=repair" in l]
        assert len(repair) == 3  # set-p's add, finish's pre and add
        assert "feasibility feasible=false missing=3" in out

    def test_goal_already_satisfied(self, capsys):
        code, out = run(capsys, "explain-plan", BLOCKS, TRIVIAL,
                        "--scenario", "1", "--seed", "0", "--format", "records")
        assert code == EXIT_OK
        assert "plan source=search length=0" in out
        assert "update_size=0" in out

    def test_unreachable_goal(self, tmp_path, capsys):
        problem = tmp_path / "impossible.pddl"
        problem.write_text(
            "(define (problem impossible) (:domain blocksworld)\n"
            "  (:objects a)\n"
            "  (:init (on-table a) (clear a) (arm-empty))\n"
            "  (:goal (on a a)))\n"
        )
        code, _ = run(capsys, "explain-plan", BLOCKS, problem,
                      "--scenario", "1", "--seed", "0")
        assert code == EXIT_CAP

    def test_state_cap_exceeded(self, capsys, monkeypatch):
        monkeypatch.setattr(importlib.import_module("mrex.planning.search"),
                            "DEFAULT_STATE_CAP", 5)
        code = main(["explain-plan", BLOCKS, SUSSMAN, "--scenario", "1"])
        assert code == EXIT_CAP
        assert capsys.readouterr().err == "error: state space exceeds the cap (5)\n"

    def test_provided_plan(self, tmp_path, capsys):
        plan = tmp_path / "plan.txt"
        plan.write_text("(pick-up a)\n(stack a b)\n")
        code, out = run(capsys, "explain-plan", BLOCKS, TWO_BLOCKS,
                        "--scenario", "1", "--seed", "3", "--plan", plan,
                        "--format", "records")
        assert code == EXIT_OK
        assert "plan source=file length=2" in out
        digest = hashlib.sha256(plan.read_bytes()).hexdigest()
        assert f"input path={plan} sha256={digest}" in out.splitlines()

    def test_invalid_provided_plan(self, tmp_path, capsys):
        plan = tmp_path / "plan.txt"
        plan.write_text("(pick-up a)\n(put-down a)\n")
        code, _ = run(capsys, "explain-plan", BLOCKS, TWO_BLOCKS,
                      "--scenario", "1", "--seed", "3", "--plan", plan)
        assert code == EXIT_PARSE

    def test_plan_file_blank_comment_and_bare_lines(self, tmp_path, capsys):
        """Blank lines and `;` comments are skipped; an action with no
        arguments may be written bare."""
        plan = tmp_path / "plan.txt"
        plan.write_text("; the optimal plan\n\nset-p  ; first\n   \nFINISH\n")
        code, out = run(capsys, "explain-plan", CHAIN_DOMAIN, CHAIN_PROBLEM,
                        "--scenario", "1", "--seed", "0", "--plan", plan,
                        "--format", "records")
        assert code == EXIT_OK
        assert "plan source=file length=2" in out
        assert "step t=0 action=set-p" in out and "step t=1 action=finish" in out

    @pytest.mark.parametrize("plan_text, message", [
        ("()\n", "empty atom"),
        ("stack(a,b\n", "malformed atom 'stack(a,b'"),
    ])
    def test_malformed_plan_atom(self, tmp_path, capsys, plan_text, message):
        plan = tmp_path / "plan.txt"
        plan.write_text(plan_text)
        code = main(["explain-plan", BLOCKS, TWO_BLOCKS, "--scenario", "1",
                     "--plan", str(plan)])
        err = capsys.readouterr().err
        assert code == EXIT_PARSE
        assert err.startswith("error: ") and message in err and "Traceback" not in err

    @pytest.mark.parametrize("plan_text", ["(fly a)\n", None])
    def test_plan_file_error(self, tmp_path, capsys, plan_text):
        """An unknown action and a missing plan file each end in one error
        line on stderr, not a traceback."""
        plan = tmp_path / "plan.txt"
        if plan_text is not None:
            plan.write_text(plan_text)
        code = main(["explain-plan", BLOCKS, TWO_BLOCKS, "--scenario", "1",
                     "--plan", str(plan)])
        err = capsys.readouterr().err
        assert code == EXIT_PARSE
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_bad_pddl(self, tmp_path, capsys):
        bad = tmp_path / "bad.pddl"
        bad.write_text("(define (domain broken)")
        code, _ = run(capsys, "explain-plan", bad, CHAIN_PROBLEM,
                      "--scenario", "1", "--seed", "0")
        assert code == EXIT_PARSE

    def test_records_deterministic(self, capsys):
        args = ("explain-plan", CHAIN_DOMAIN, CHAIN_PROBLEM, "--scenario", "8",
                "--seed", "2", "--format", "records")
        _, first = run(capsys, *args)
        _, second = run(capsys, *args)
        assert stable(first) == stable(second)

    def test_general_mode_allowed(self, capsys):
        code, out = run(capsys, "explain-plan", CHAIN_DOMAIN, CHAIN_PROBLEM,
                        "--scenario", "1", "--seed", "0", "--mode", "general",
                        "--format", "records")
        assert code == EXIT_OK
        assert "explanation mode=general" in out


class TestTweakModelCommand:
    def test_sussman_scenario1(self, tmp_path, capsys):
        out_file = tmp_path / "model.txt"
        code, out = run(capsys, "tweak-model", BLOCKS, SUSSMAN,
                        "--scenario", "1", "--seed", "4", "--out", out_file,
                        "--format", "records")
        assert code == EXIT_OK
        tweaks = [l for l in out.splitlines() if l.startswith("tweak ")]
        assert len(tweaks) == 18 and all("kind=pre" in l for l in tweaks)
        assert out_file.exists() and (tmp_path / "model.txt.log").exists()
        assert "action stack(a,b)" in out_file.read_text()


class TestEncodePlanCommand:
    def test_writes_cnf_map_log(self, tmp_path, capsys):
        out_file = tmp_path / "enc.cnf"
        code, out = run(capsys, "encode-plan", BLOCKS, TWO_BLOCKS,
                        "--horizon", "2", "--include-goal", "--out", out_file,
                        "--format", "records")
        assert code == EXIT_OK
        assert "encode horizon=2" in out and "include_goal=true" in out
        assert out_file.exists()
        assert (tmp_path / "enc.cnf.map").exists()
        assert (tmp_path / "enc.cnf.log").exists()
        map_lines = (tmp_path / "enc.cnf.map").read_text().splitlines()
        assert any(line.endswith("on(a,b)@2") for line in map_lines)

    def test_no_actions_noted(self, tmp_path, capsys):
        """A problem with no objects grounds no blocksworld action, so no
        step gets an at-least-one clause, and each step says so."""
        empty = tmp_path / "empty.pddl"
        empty.write_text("(define (problem empty) (:domain blocksworld) (:objects)\n"
                         "  (:init (arm-empty)) (:goal (arm-empty)))\n")
        code, out = run(capsys, "encode-plan", BLOCKS, empty, "--horizon", "2",
                        "--format", "records")
        assert code == EXIT_OK
        assert [l for l in out.splitlines() if l.startswith("note ")] == [
            f"note msg=at-least-one omitted at step {t}: no actions" for t in range(2)
        ]


def test_parser_is_built_once_and_reused(worked, capsys):
    """Every main call parses with the same parser; a usage error in one
    call does not leak into the next."""
    kb_a, kb_h, query = worked
    parser = mrex.cli._build_parser()
    assert run(capsys, "backbone", kb_a, "--k", "-1")[0] == EXIT_USAGE
    assert run(capsys, "backbone", kb_a, "--mode", "general")[0] == EXIT_USAGE
    code, out = run(capsys, "reconcile", kb_a, kb_h, "--query", query,
                    "--format", "records")
    assert code == EXIT_OK and "run command=reconcile seed=0 mode=general" in out
    assert mrex.cli._build_parser() is parser


def _single_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    return err


@pytest.mark.parametrize("command", ["tweak-cnf", "explain-plan"])
def test_unwritable_out_is_usage_error(tmp_path, capsys, monkeypatch, command):
    """An --out path below a regular file ends in one error line, exit 2,
    before any search, tweak or reconcile starts."""
    def work(*args, **kwargs):
        raise AssertionError("work started before --out was checked")

    for name in ("optimal_plan_search", "tweak_model", "reconcile", "tweak_cnf"):
        monkeypatch.setattr(mrex.cli, name, work)
    blocker = tmp_path / "file"
    blocker.write_text("")
    kb = tmp_path / "kb.cnf"
    kb.write_text("p cnf 3 2\n1 2 3 0\n-1 2 0\n")
    inputs = {"tweak-cnf": [str(kb), "--scenario", "9"],
              "explain-plan": [CHAIN_DOMAIN, CHAIN_PROBLEM, "--scenario", "1"]}
    code = main([command, *inputs[command], "--out", str(blocker / "x")])
    assert code == EXIT_USAGE
    assert "cannot write" in _single_error_line(capsys)


@pytest.mark.parametrize("command", ["tweak-model", "explain-plan"])
@pytest.mark.parametrize("count", ["0", "-1"])
def test_count_below_one_rejected(capsys, command, count):
    code = main([command, BLOCKS, SUSSMAN, "--scenario", "4", "--count", count])
    assert code == EXIT_USAGE
    _single_error_line(capsys)


@pytest.mark.parametrize("argv", [
    ["backbone", "kb.cnf", "--k", "-3"],
    ["encode-plan", BLOCKS, SUSSMAN, "--horizon", "-1"],
])
def test_negative_k_or_horizon_rejected(capsys, argv):
    assert main(argv) == EXIT_USAGE
    _single_error_line(capsys)


_ARGS = {
    "reconcile": ["kb_a.cnf", "kb_h.cnf", "--query", "query.txt"],
    "explain-plan": [CHAIN_DOMAIN, CHAIN_PROBLEM, "--scenario", "1"],
    "tweak-cnf": ["kb_a.cnf", "--scenario", "9"],
    "tweak-model": [BLOCKS, TWO_BLOCKS, "--scenario", "1"],
    "backbone": ["kb_a.cnf"],
    "verify": ["kb_h.cnf", "expl.records", "--query", "query.txt"],
    "encode-plan": [BLOCKS, TWO_BLOCKS, "--horizon", "1"],
}

# What each subcommand's required arguments parse to, beside its command,
# its handler and the --format and --out that every subcommand takes.
_PARSED = {
    "reconcile": {"kb_a": "kb_a.cnf", "kb_h": "kb_h.cnf", "query": "query.txt",
                  "seed": 0, "mode": "general", "timeout": 1500.0},
    "explain-plan": {"domain": CHAIN_DOMAIN, "problem": CHAIN_PROBLEM, "scenario": 1,
                     "seed": 0, "mode": "restricted", "timeout": 1500.0,
                     "count": 2, "plan": None},
    "tweak-cnf": {"kb": "kb_a.cnf", "scenario": 9, "seed": 0},
    "tweak-model": {"domain": BLOCKS, "problem": TWO_BLOCKS, "scenario": 1,
                    "seed": 0, "count": 2},
    "backbone": {"kb": "kb_a.cnf", "seed": 0, "k": 0},
    "verify": {"kb_h": "kb_h.cnf", "explanation": "expl.records", "query": "query.txt"},
    "encode-plan": {"domain": BLOCKS, "problem": TWO_BLOCKS, "horizon": 1,
                    "include_goal": False},
}


@pytest.mark.parametrize("command", sorted(_ARGS))
def test_parser_holds_defaults_and_handler(command):
    """The parser alone declares the CLI: parsing only the required
    arguments gives every option the subcommand takes its default, names
    the handler, and holds nothing the subcommand does not take."""
    config = mrex.cli._build_parser().parse_args([command, *_ARGS[command]])
    handler = getattr(mrex.cli, "cmd_" + command.replace("-", "_"))
    assert vars(config) == {"command": command, "run": handler, "fmt": "text",
                            "out": None, **_PARSED[command]}


# The fields of each subcommand's `run` record: its command and the
# options it accepts among --seed, --mode, --timeout, --scenario, --horizon.
_RUN_FIELDS = {
    "reconcile": ["command", "seed", "mode", "timeout"],
    "explain-plan": ["command", "seed", "mode", "timeout", "scenario"],
    "tweak-cnf": ["command", "seed", "scenario"],
    "tweak-model": ["command", "seed", "scenario"],
    "backbone": ["command", "seed"],
    "verify": ["command"],
    "encode-plan": ["command", "horizon"],
}


@pytest.mark.parametrize("command, flag", [
    *((command, flag) for command in ("tweak-cnf", "tweak-model", "backbone",
                                      "verify", "encode-plan")
      for flag in ("--mode", "--timeout")),
    ("verify", "--seed"),
    ("encode-plan", "--seed"),
])
def test_option_of_another_subcommand_rejected(capsys, command, flag):
    value = {"--mode": "general", "--timeout": "5", "--seed": "1"}[flag]
    with pytest.raises(SystemExit) as exc:
        main([command, *_ARGS[command], flag, value])
    assert exc.value.code == EXIT_USAGE
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


@pytest.mark.parametrize("command", sorted(_RUN_FIELDS))
def test_run_record_names_only_accepted_options(worked, monkeypatch, capsys, command):
    kb_a, kb_h, query = worked
    monkeypatch.chdir(kb_a.parent)
    run(capsys, "reconcile", kb_a, kb_h, "--query", query, "--out", "expl.records")
    code, out = run(capsys, command, *_ARGS[command], "--format", "records")
    assert code == EXIT_OK
    kind, *fields = out.splitlines()[0].split()
    assert kind == "run"
    assert [field.split("=")[0] for field in fields] == _RUN_FIELDS[command]


@pytest.mark.parametrize("timeout, shown", [
    (None, "1500.000"),  # the default
    ("0.25", "0.250"),
    ("0.0004", "0.0004"),
    ("1e-9", "1e-09"),
])
def test_run_record_keeps_the_time_limit(worked, capsys, timeout, shown):
    """The `run` record's timeout keeps three decimals when they read back as
    the limit, and is written in full when they would round it away."""
    kb_a, kb_h, query = worked
    flags = ("--timeout", timeout) if timeout else ()
    _, out = run(capsys, "reconcile", kb_a, kb_h, "--query", query, *flags,
                 "--format", "records")
    assert out.splitlines()[0] == f"run command=reconcile seed=0 mode=general timeout={shown}"
