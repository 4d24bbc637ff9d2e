"""Command-line front end.

Subcommands cover clause-level reconciliation (``reconcile``, ``verify``,
``backbone``, ``tweak-cnf``) and the planning pipeline (``explain-plan``,
``tweak-model``, ``encode-plan``).  Output comes in two formats: ``text``
for humans and ``records`` — line-delimited ``kind key=value ...`` rows —
for harnesses.  Records are deterministic for a fixed (inputs, seed,
config) triple; wall-clock readings appear only on lines starting with
``time ``.

Exit codes:
  0   success
  2   command-line usage error (argparse, a non-positive --timeout or
      --count, a negative --k or --horizon, an unwritable --out path)
  10  input could not be parsed (DIMACS, PDDL, query, plan, explanation)
  11  premise violation (kb_a unsatisfiable / does not entail the query,
      unsatisfiable backbone input, empty backbone)
  12  time limit exceeded (partial statistics are still reported)
  13  verification failure
  14  resource cap exceeded or goal unreachable
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import math
import random
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Sequence

from .backbone import UnsatisfiableError, compute_backbone
from .formula import (
    Clause,
    CnfFormula,
    FormulaError,
    parse_dimacs,
    parse_query_text,
    write_dimacs,
)
from .planning import (
    BoundedEncoding,
    GoalUnreachableError,
    GroundingCapError,
    PddlParseError,
    PlanningError,
    StateCapError,
    check_feasibility,
    encode_bounded,
    ground,
    optimal_plan_search,
    optimality_query,
    parse_pddl,
    parse_plan_text,
    tweak_model,
    validate_plan,
    write_plan_text,
    write_var_map,
)
from .planning.tweaks import draw
from .reconcile import (
    GENERAL,
    RESTRICTED,
    Explanation,
    PremiseError,
    ReconcileProblem,
    ReconcileTimeout,
    VerificationReport,
    format_lits,
    format_record,
    parse_explanation_records,
    reconcile,
    serialize_explanation,
    verify_explanation,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 10
EXIT_PREMISE = 11
EXIT_TIMEOUT = 12
EXIT_VERIFY = 13
EXIT_CAP = 14

TWEAK_CNF_RATES = {9: 0.1, 10: 0.2, 11: 0.3, 12: 0.4}
TRIM_RATE = 0.2

@dataclass
class Report:
    """Accumulates structured records and a parallel human-readable view."""

    records: list[str] = field(default_factory=list)
    text_lines: list[str] = field(default_factory=list)

    def record(self, kind: str, /, **fields: object) -> None:
        self.records.append(format_record(kind, **fields))

    def raw_record(self, line: str) -> None:
        self.records.append(line)

    def text(self, line: str) -> None:
        self.text_lines.append(line)

    def render(self, fmt: str) -> str:
        lines = self.records if fmt == "records" else self.text_lines
        return "\n".join(lines) + ("\n" if lines else "")


def _read_input(path: str, report: Report) -> str:
    """Read a UTF-8 file and log its digest on an `input` record."""
    try:
        data = Path(path).read_bytes()
        text = data.decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(EXIT_PARSE, f"cannot read {path}: {exc}") from exc
    report.record("input", path=path, sha256=hashlib.sha256(data).hexdigest())
    return text


class CliError(Exception):
    """Carries a CLI exit code together with the failure message."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _start(config: argparse.Namespace) -> Report:
    if config.out:
        # explain-plan's --out names a directory, every other one a file;
        # a location that cannot hold it fails here, before any work.
        out = Path(config.out)
        _make_dir(config.out, out if config.command == "explain-plan" else out.parent)
    report = Report()
    fields: dict[str, object] = {"command": config.command}
    for key in ("seed", "mode", "timeout", "scenario", "horizon"):
        if key in config:  # the subcommand takes this option
            fields[key] = getattr(config, key)
    timeout = fields.get("timeout")
    if timeout is not None and float(f"{timeout:.3f}") != timeout:
        fields["timeout"] = repr(timeout)  # three decimals would lose it
    report.record("run", **fields)
    report.text(f"{config.command}:" + "".join(
        f" {key}={fields[key]}" for key in ("seed", "mode") if key in fields))
    return report


def _make_dir(path: str, directory: Path) -> None:
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CliError(EXIT_USAGE, f"cannot write {path}: {exc}") from exc


def _write_out(path: str, content: str) -> None:
    _make_dir(path, Path(path).parent)
    try:
        Path(path).write_text(content)
    except OSError as exc:
        raise CliError(EXIT_USAGE, f"cannot write {path}: {exc}") from exc


def _write_artifact(path: str, content: str, report: Report) -> None:
    """Write an artifact, and the run's records so far without `time `
    lines to `<path>.log` as its provenance."""
    _write_out(path, content)
    log = [r for r in report.records if not r.startswith("time ")]
    _write_out(path + ".log", "\n".join(log) + "\n")


# ---------------------------------------------------------------------------
# reconcile / verify


def _parse_cnf(path: str, report: Report, label: str) -> CnfFormula:
    """Parse a DIMACS kb, or with label "query" a query file, and report
    its warnings; a kb also gets a `kb` record."""
    query = label == "query"
    try:
        formula = (parse_query_text if query else parse_dimacs)(_read_input(path, report))
    except FormulaError as exc:
        raise CliError(EXIT_PARSE, f"{label}: {exc}") from exc
    if not query:
        report.record(
            "kb", name=label, vars=formula.num_vars, clauses=len(formula.clauses)
        )
    for msg in formula.warnings:
        report.record("warn", kb=label, msg=msg)
        report.text(f"warning: {label}: {msg}")
    return formula


def _reconcile_stage(
    report: Report, problem: ReconcileProblem, timeout: float, names=None
) -> tuple[int, Explanation | None, VerificationReport | None, str]:
    """Reconcile, verify against the kept kb_h clauses, and report.

    Returns (exit code, explanation, verification, explanation records);
    the last three are None/None/"" when reconciliation itself failed.
    """
    started = time.monotonic()
    try:
        expl = reconcile(problem, timeout=timeout)
    except PremiseError as exc:
        report.record("error", kind="premise", msg=str(exc))
        report.text(f"premise violation: {exc}")
        return EXIT_PREMISE, None, None, ""
    except ReconcileTimeout as exc:
        report.record(
            "stat",
            iterations=exc.iterations,
            mcs_count=exc.mcs_count,
            oracle_calls=exc.oracle_calls,
        )
        report.record("error", kind="timeout", msg=str(exc))
        report.record("time", elapsed=exc.elapsed)
        report.text(f"timeout after {exc.elapsed:.3f}s ({exc.iterations} iterations)")
        return EXIT_TIMEOUT, None, None, ""
    removed = set(expl.removed_from_kb_h)
    kept = [c for c in problem.kb_h.clauses if c not in removed]
    verification = verify_explanation(kept, expl.support, problem.query)
    records = serialize_explanation(expl, verification, names)
    for line in records.splitlines():
        report.raw_record(line)
    report.record("time", elapsed=time.monotonic() - started)

    def show(clause: Clause) -> str:
        return format_lits(clause) if names is None else " ∨ ".join(map(names, clause))

    report.text(
        f"support size {len(expl.support)}, update size {len(expl.update)}, "
        f"removed {len(expl.removed_from_kb_h)} clause(s) from kb_h"
    )
    for clause in expl.update:
        report.text(f"  add to kb_h: {show(clause)}")
    for clause in expl.removed_from_kb_h:
        report.text(f"  remove from kb_h: {show(clause)}")
    report.text(f"verification: {'ok' if verification.ok else 'FAILED'}")
    if not verification.ok:
        report.record("error", kind="verify", msg=";".join(verification.failures))
        return EXIT_VERIFY, expl, verification, records
    return EXIT_OK, expl, verification, records


def cmd_reconcile(config: argparse.Namespace) -> tuple[Report, int]:
    report = _start(config)
    kb_a = _parse_cnf(config.kb_a, report, "kb_a")
    kb_h = _parse_cnf(config.kb_h, report, "kb_h")
    query = _parse_cnf(config.query, report, "query")
    problem = ReconcileProblem(kb_a, kb_h, query, mode=config.mode)
    code, expl, _verification, records = _reconcile_stage(report, problem, config.timeout)
    if expl is not None and config.out:
        _write_out(config.out, records)
    return report, code


def cmd_verify(config: argparse.Namespace) -> tuple[Report, int]:
    report = _start(config)
    kb_h = _parse_cnf(config.kb_h, report, "kb_h")
    try:
        roles = parse_explanation_records(_read_input(config.explanation, report))
    except ValueError as exc:
        raise CliError(EXIT_PARSE, f"explanation: {exc}") from exc
    query = _parse_cnf(config.query, report, "query")
    support = roles.get("support", [])
    removed = set(roles.get("removed", []))
    kept = [c for c in kb_h.clauses if c not in removed]
    verification = verify_explanation(kept, support, query)
    first = len(report.records)
    report.raw_record(verification.record())
    for failure in verification.failures:
        report.record("failure", check=failure)
        report.text(f"failed: {failure}")
    report.text(f"verification: {'ok' if verification.ok else 'FAILED'}")
    if config.out:
        _write_out(config.out, "\n".join(report.records[first:]) + "\n")
    return report, EXIT_OK if verification.ok else EXIT_VERIFY


# ---------------------------------------------------------------------------
# backbone


def cmd_backbone(config: argparse.Namespace) -> tuple[Report, int]:
    report = _start(config)
    kb = _parse_cnf(config.kb, report, "kb")
    try:
        backbone = compute_backbone(kb)
    except UnsatisfiableError as exc:
        report.record("error", kind="premise", msg=str(exc))
        report.text(f"premise violation: {exc}")
        return report, EXIT_PREMISE
    if not backbone:
        report.record("error", kind="premise", msg="no backbone query derivable")
        report.text("kb has an empty backbone; no query derivable")
        return report, EXIT_PREMISE
    chosen = list(backbone)
    if config.k > 0:
        if config.k >= len(backbone):
            report.record("warn", msg="k exceeds backbone size; using all literals")
            report.text(f"warning: k={config.k} >= backbone size {len(backbone)}")
        else:
            rng = random.Random(config.seed)
            chosen = sorted(draw(rng, list(backbone), config.k), key=abs)
    report.record("stat", backbone_size=len(backbone), sampled=len(chosen))
    for lit in chosen:
        report.record("literal", value=lit)
    report.text(f"backbone size {len(backbone)}; query literals: "
                + " ".join(str(l) for l in chosen))
    if config.out:
        _write_artifact(config.out, "\n".join(str(l) for l in chosen) + "\n", report)
    return report, EXIT_OK


# ---------------------------------------------------------------------------
# tweak-cnf


def tweak_cnf(
    formula: CnfFormula, scenario: int, seed: int
) -> tuple[CnfFormula, list[str]]:
    """Remove ⌈p·m⌉ clauses, then trim ⌈0.2·len⌉ literals from ⌈p·m⌉ of the
    surviving multi-literal clauses (unit clauses are skipped and logged).
    Survivors that trimming made equal are merged into one clause."""
    if scenario not in TWEAK_CNF_RATES:
        raise CliError(EXIT_USAGE, f"unknown CNF scenario {scenario}")
    rate = TWEAK_CNF_RATES[scenario]
    rng = random.Random(seed)
    m = len(formula.clauses)
    quota = math.ceil(rate * m)
    log: list[str] = []

    removed: set[int] = set()
    for idx in draw(rng, list(range(m)), quota):
        removed.add(idx)
        log.append(format_record("remove", index=idx,
                                 lits=format_lits(formula.clauses[idx])))

    survivors = {i: list(formula.clauses[i]) for i in range(m) if i not in removed}
    trim_pool = sorted(survivors)
    trimmed = skipped = 0
    while trimmed < quota and trim_pool:
        idx = trim_pool.pop(rng.randrange(len(trim_pool)))
        clause = survivors[idx]
        if len(clause) < 2:
            skipped += 1
            log.append(format_record("skip", index=idx, reason="unit"))
            continue
        before = len(clause)
        gone = draw(rng, clause, math.ceil(TRIM_RATE * before))
        trimmed += 1
        log.append(format_record("trim", index=idx, removed=sorted(gone, key=abs),
                                 before=before, after=len(clause)))
    out = CnfFormula.from_clauses(
        (survivors[i] for i in sorted(survivors)), num_vars=formula.num_vars
    )
    log.append(format_record("stat", clauses_before=m, clauses_after=len(out.clauses),
                             removed=len(removed), trimmed=trimmed, skipped=skipped,
                             merged=len(survivors) - len(out.clauses)))
    return out, log


def cmd_tweak_cnf(config: argparse.Namespace) -> tuple[Report, int]:
    report = _start(config)
    kb = _parse_cnf(config.kb, report, "kb")
    tweaked, log = tweak_cnf(kb, config.scenario, config.seed)
    for line in log:
        report.raw_record(line)
        report.text(line)
    report.record("kb", name="kb_h", vars=tweaked.num_vars,
                  clauses=len(tweaked.clauses))
    if config.out:
        _write_artifact(config.out, write_dimacs(tweaked), report)
        report.text(f"wrote {config.out} (+.log)")
    return report, EXIT_OK


# ---------------------------------------------------------------------------
# planning commands


def _parse_planning_inputs(config: argparse.Namespace, report: Report):
    domain_text = _read_input(config.domain, report)
    problem_text = _read_input(config.problem, report)
    problem = ground(parse_pddl(domain_text, problem_text))
    report.record("ground", fluents=len(problem.fluents),
                  actions=len(problem.actions))
    return problem


def cmd_tweak_model(config: argparse.Namespace) -> tuple[Report, int]:
    report = _start(config)
    problem = _parse_planning_inputs(config, report)
    tweaked = tweak_model(problem, config.scenario, config.seed,
                          count=config.count)
    for rec in tweaked.log:
        line = format_record("tweak", **_tweak_fields(rec))
        report.raw_record(line)
        report.text(line.removeprefix("tweak "))
    listing = _model_listing(tweaked.problem)
    report.record("model", actions=len(tweaked.problem.actions),
                  init=len(tweaked.problem.init))
    if config.out:
        _write_artifact(config.out, listing, report)
        report.text(f"wrote {config.out} (+.log)")
    return report, EXIT_OK


def _tweak_fields(rec) -> dict[str, object]:
    return {key: value for key, value in asdict(rec).items() if value is not None}


def _model_listing(problem) -> str:
    lines = [f"init {' '.join(str(a) for a in sorted(problem.init))}".rstrip()]
    lines.append(f"goal {' '.join(str(a) for a in sorted(problem.goal))}".rstrip())
    for action in problem.actions:
        parts = {"pre": action.pre, "add": action.add, "del": action.delete}
        lines.append(format_record(
            f"action {action.label}",
            **{key: sorted(map(str, atoms)) for key, atoms in parts.items()},
        ))
    return "\n".join(lines) + "\n"


def cmd_encode_plan(config: argparse.Namespace) -> tuple[Report, int]:
    report = _start(config)
    problem = _parse_planning_inputs(config, report)
    enc = encode_bounded(problem, config.horizon, include_goal=config.include_goal)
    report.record("encode", horizon=config.horizon, vars=enc.cnf.num_vars,
                  clauses=len(enc.cnf.clauses), include_goal=config.include_goal)
    for note in enc.notes:
        report.record("note", msg=note)
    report.text(
        f"horizon {config.horizon}: {enc.cnf.num_vars} variables, "
        f"{len(enc.cnf.clauses)} clauses"
    )
    if config.out:
        _write_artifact(config.out, write_dimacs(enc.cnf), report)
        _write_out(config.out + ".map", write_var_map(enc))
        report.text(f"wrote {config.out} (+.map, +.log)")
    return report, EXIT_OK


@dataclass
class ExplainPlanResult:
    """Everything the explain-plan pipeline produced, for tests and output."""

    report: Report
    exit_code: int
    explanation: Explanation | None = None
    verification: VerificationReport | None = None
    problem: ReconcileProblem | None = None
    encoding: BoundedEncoding | None = None


def run_explain_plan(config: argparse.Namespace) -> ExplainPlanResult:
    report = _start(config)
    problem = _parse_planning_inputs(config, report)

    if config.plan is not None:
        plan = parse_plan_text(_read_input(config.plan, report), problem)
        if not validate_plan(problem, plan):
            raise CliError(EXIT_PARSE, "provided plan does not reach the goal")
        source = "file"
    else:
        plan = optimal_plan_search(problem)
        source = "search"
    n = len(plan)
    report.record("plan", source=source, length=n)
    for t, action in enumerate(plan):
        report.record("step", t=t, action=action.label)
    report.text(f"optimal plan ({n} steps): "
                + (" ".join(a.label for a in plan) or "<empty>"))

    tweaked = tweak_model(problem, config.scenario, config.seed,
                          count=config.count)
    for rec in tweaked.log:
        report.record("tweak", **_tweak_fields(rec))

    if n == 0:
        report.record("stat", support_size=0, update_size=0, removed_size=0,
                      iterations=0, mcs_count=0, oracle_calls=0)
        report.record("note", msg="empty optimal plan; optimality is vacuous")
        report.text("the goal already holds initially; nothing to explain")
        return ExplainPlanResult(report, EXIT_OK)

    enc_a = encode_bounded(problem, n, include_goal=False)
    enc_h = encode_bounded(tweaked.problem, n, include_goal=False,
                           action_order=enc_a.action_order)
    report.record("encode", kb="agent", vars=enc_a.cnf.num_vars,
                  clauses=len(enc_a.cnf.clauses))
    report.record("encode", kb="human", vars=enc_h.cnf.num_vars,
                  clauses=len(enc_h.cnf.clauses))
    for note in enc_h.notes:
        report.record("note", kb="human", msg=note)

    feas = check_feasibility(enc_h, plan, reference=enc_a)
    report.record("feasibility", feasible=feas.feasible,
                  missing=len(feas.missing_clauses))
    oq = optimality_query(enc_a)
    aggregate_names = dict(oq.new_names)

    def name_of(lit: int) -> str:
        var = abs(lit)
        base = aggregate_names.get(var) or enc_a.name_of(var)
        return ("-" + base) if lit < 0 else base

    if feas.missing_clauses:
        for clause, origin in zip(feas.missing_clauses, feas.missing_origins):
            report.record(
                "clause", role="repair", lits=format_lits(clause),
                names=[name_of(l) for l in clause],
                kind=origin.kind, t=origin.t, action=origin.action,
            )
        report.text(f"feasibility repair: restored {len(feas.missing_clauses)} "
                    "action-dynamics clause(s) missing from the human model")
    kb_a = enc_a.cnf.extended(oq.definitions)
    kb_h = enc_h.cnf.extended(feas.missing_clauses + oq.definitions)
    rec_problem = ReconcileProblem(kb_a, kb_h, oq.query, mode=config.mode)
    code, expl, verification, records = _reconcile_stage(
        report, rec_problem, config.timeout, names=name_of
    )
    if expl is not None and config.out:
        outdir = Path(config.out)
        _write_artifact(str(outdir / "kb_a.cnf"), write_dimacs(kb_a), report)
        _write_artifact(str(outdir / "kb_h.cnf"), write_dimacs(kb_h), report)
        _write_out(str(outdir / "kb_a.cnf.map"),
                   "".join(f"{v} {name_of(v)}\n" for v in range(1, kb_a.num_vars + 1)))
        _write_out(str(outdir / "plan.txt"), write_plan_text(plan))
        _write_out(
            str(outdir / "query.txt"),
            "\n".join(str(c[0]) for c in oq.query.clauses) + "\n",
        )
        _write_out(str(outdir / "explanation.records"), records)
        report.text(f"wrote artifacts under {outdir}/")
    return ExplainPlanResult(report, code, explanation=expl,
                             verification=verification, problem=rec_problem,
                             encoding=enc_a)


def cmd_explain_plan(config: argparse.Namespace) -> tuple[Report, int]:
    result = run_explain_plan(config)
    return result.report, result.exit_code


# ---------------------------------------------------------------------------
# argument parsing


@functools.cache  # built once per process; parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mrex",
        description="Minimal-update explanations for clause-level and "
                    "planning-level model reconciliation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, run, *, mode: str | None = None, seeded: bool = True,
            **kwargs) -> argparse.ArgumentParser:
        # A subcommand that searches takes --mode (default `mode`) and
        # --timeout; one that draws at random, and reconcile, takes --seed.
        p = sub.add_parser(name, **kwargs)
        if mode is not None:
            p.add_argument("--mode", choices=[GENERAL, RESTRICTED], default=mode,
                           help="where support clauses may come from")
            p.add_argument("--timeout", type=float, default=1500.0,
                           help="time limit in seconds (default %(default)g)")
        if seeded:
            p.add_argument("--seed", type=int, default=0)
        p.add_argument("--format", dest="fmt", choices=["text", "records"],
                       default="text")
        p.add_argument("--out", help="output path")
        p.set_defaults(run=run)
        return p

    def perturbed_model(p: argparse.ArgumentParser, count_help: str | None = None) -> None:
        p.add_argument("domain")
        p.add_argument("problem")
        p.add_argument("--scenario", type=int, choices=range(1, 9), required=True)
        p.add_argument("--count", type=int, default=2, help=count_help)

    p = add("reconcile", cmd_reconcile, mode=GENERAL,
            help="explain a query to a CNF kb_h")
    p.add_argument("kb_a")
    p.add_argument("kb_h")
    p.add_argument("--query", required=True)

    p = add("explain-plan", cmd_explain_plan, mode=RESTRICTED,
            help="explain plan optimality to a perturbed model")
    perturbed_model(p, "removals per action/state for scenarios 4 and 6")
    p.add_argument("--plan", help="plan file (default: search for an optimal plan)")

    p = add("tweak-cnf", cmd_tweak_cnf, help="perturb a CNF knowledge base")
    p.add_argument("kb")
    p.add_argument("--scenario", type=int, choices=range(9, 13), required=True)

    p = add("tweak-model", cmd_tweak_model, help="perturb a grounded planning model")
    perturbed_model(p)

    p = add("backbone", cmd_backbone, help="derive a backbone-literal query")
    p.add_argument("kb")
    p.add_argument("--k", type=int, default=0,
                   help="sample size (0 = all backbone literals)")

    p = add("verify", cmd_verify, seeded=False, help="check an explanation file")
    p.add_argument("kb_h")
    p.add_argument("explanation")
    p.add_argument("--query", required=True)

    p = add("encode-plan", cmd_encode_plan, seeded=False,
            help="write a bounded planning encoding")
    p.add_argument("domain")
    p.add_argument("problem")
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--include-goal", action="store_true")
    return parser


# The option values argparse lets through, checked in this order.
_RANGES = (
    ("timeout", lambda v: v > 0, "time limit must be positive"),  # NaN fails too
    ("count", lambda v: v >= 1, "removal count must be at least 1"),
    ("k", lambda v: v >= 0, "sample size k must be nonnegative"),
    ("horizon", lambda v: v >= 0, "horizon must be nonnegative"),
)


def _check_ranges(config: argparse.Namespace) -> None:
    for name, ok, message in _RANGES:
        if name in config and not ok(getattr(config, name)):
            raise CliError(EXIT_USAGE, message)


def main(argv: Sequence[str] | None = None) -> int:
    config = _build_parser().parse_args(argv)
    try:
        _check_ranges(config)
        report, code = config.run(config)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (GroundingCapError, StateCapError, GoalUnreachableError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (PddlParseError, FormulaError, PlanningError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    out = report.render(config.fmt)
    if out:
        sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
