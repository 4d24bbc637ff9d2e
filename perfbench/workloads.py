"""The benchmark's four workloads: inputs, one timed instance, and its check.

The plan and CNF workloads run a fixed instance list, each instance at its
own mrex seed, and the workload seed shuffles the order of the list.  Their
instance costs vary up to 2x with the mrex seed (explain-plan passes over
scenarios 1-3, 6, 7 at one seed take 6.3-11.7 s for seeds 0-15), and a run
holds too few instances to average that out.  Every one of these instances
has a known answer in reference.json.  random-small draws its 5000
instances from the workload seed and checks each against the truth-table
oracle.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import random
from dataclasses import dataclass
from pathlib import Path

DOMAIN = "perfbench/data/blocksworld.pddl"
PROBLEM = "perfbench/data/sussman.pddl"
WORK = "perfbench/_work"

RANDOM_INSTANCES = 5000
RANDOM_VARS = 8
RANDOM_TIMEOUT = 5.0


@dataclass
class Outcome:
    """What one instance produced, gathered inside the timed region."""

    codes: tuple[int, ...] = ()
    records: str = ""
    update_size: int | None = None
    verify_ok: bool | None = None
    removed: tuple = ()


def records_digest(records: str) -> str:
    """sha256 of the records without their wall-clock (`time `) lines."""
    kept = [line for line in records.splitlines() if not line.startswith("time ")]
    return hashlib.sha256("\n".join(kept).encode()).hexdigest()


def _record_fields(records: str, kind: str) -> dict[str, str]:
    """Fields of the last record of this kind."""
    fields: dict[str, str] = {}
    for line in records.splitlines():
        parts = line.split()
        if parts and parts[0] == kind:
            fields = dict(p.split("=", 1) for p in parts[1:] if "=" in p)
    return fields


class CliInstance:
    """One or more `mrex` invocations through `mrex.cli.main`, in process."""

    def __init__(self, key: str, steps: list[list[str]]):
        self.key = key
        self.steps = steps

    def run(self) -> Outcome:
        cli = importlib.import_module("mrex.cli")
        codes, chunks = [], []
        for argv in self.steps:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                codes.append(cli.main(argv))
            chunks.append(out.getvalue())
            if codes[-1] != 0:
                break
        records = "".join(chunks)
        stat = _record_fields(records, "stat")
        verify = _record_fields(records, "verify")
        return Outcome(
            codes=tuple(codes),
            records=records,
            update_size=int(stat["update_size"]) if "update_size" in stat else None,
            verify_ok=verify.get("ok") == "true" if verify else None,
        )


class RandomInstance:
    """One library-API `reconcile` plus `verify_explanation` call."""

    def __init__(self, key: str, problem):
        self.key = key
        self.problem = problem

    def run(self) -> Outcome:
        api = importlib.import_module("mrex.reconcile")
        expl = api.reconcile(self.problem, timeout=RANDOM_TIMEOUT)
        removed = set(expl.removed_from_kb_h)
        kept = [c for c in self.problem.kb_h.clauses if c not in removed]
        report = api.verify_explanation(kept, expl.support, self.problem.query)
        return Outcome(update_size=len(expl.update), verify_ok=report.ok,
                       removed=expl.removed_from_kb_h)


def _explain_plan(scenario: int, mode: str, seed: int, timeout: float) -> CliInstance:
    argv = ["explain-plan", DOMAIN, PROBLEM, "--scenario", str(scenario),
            "--mode", mode, "--seed", str(seed), "--timeout", str(timeout),
            "--format", "records"]
    return CliInstance(f"explain-plan scenario={scenario} mode={mode} seed={seed}",
                       [argv])


def _shuffled(instances: list, seed: int) -> list:
    random.Random(seed).shuffle(instances)
    return instances


def plan_hitting(seed: int) -> list[CliInstance]:
    """Restricted scenario 4, and scenario 5 in both modes."""
    return _shuffled([_explain_plan(4, "restricted", 0, 45.0),
                      _explain_plan(5, "restricted", 0, 45.0),
                      _explain_plan(5, "general", 0, 45.0)], seed)


def plan_extract(seed: int) -> list[CliInstance]:
    """Scenarios 1, 2, 3, 6 and 7 in both modes, at mrex seeds 0-9."""
    combos = [(scenario, mode) for scenario in (1, 2, 3, 6, 7)
              for mode in ("restricted", "general")]
    return _shuffled([_explain_plan(scenario, mode, i, 15.0)
                      for i, (scenario, mode) in enumerate(combos)], seed)


def _mrex_cli(argv: list[str]) -> None:
    """Run one set-up command; any nonzero exit aborts the benchmark."""
    cli = importlib.import_module("mrex.cli")
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"set-up command failed with exit {code}: {argv}")


def cnf_reconcile(seed: int) -> list[CliInstance]:
    """Horizon-3 and horizon-6 encodings under tweak-cnf scenarios 9-12, two
    mrex seeds each (0-31); each instance samples a backbone query of k=5 or
    k=20 literals, then reconciles in general mode."""
    work = f"{WORK}/cnf"
    Path(work).mkdir(parents=True, exist_ok=True)
    instances = []
    for horizon in (3, 6):
        kb_a = f"{work}/h{horizon}.cnf"
        _mrex_cli(["encode-plan", DOMAIN, PROBLEM, "--horizon", str(horizon),
                   "--out", kb_a])
        for scenario in (9, 10, 11, 12):
            for k in (5, 20):
                for _copy in range(2):
                    s = str(len(instances))
                    kb_h = f"{work}/h{horizon}-s{scenario}-seed{s}.cnf"
                    _mrex_cli(["tweak-cnf", kb_a, "--scenario", str(scenario),
                               "--seed", s, "--out", kb_h])
                    query = f"{work}/h{horizon}-k{k}-seed{s}.query"
                    backbone = ["backbone", kb_a, "--k", str(k), "--seed", s,
                                "--format", "records", "--out", query]
                    rec = ["reconcile", kb_a, kb_h, "--query", query, "--mode",
                           "general", "--seed", s, "--timeout", "30",
                           "--format", "records"]
                    instances.append(CliInstance(
                        f"cnf horizon={horizon} scenario={scenario} k={k} seed={s}",
                        [backbone, rec]))
    return _shuffled(instances, seed)


def _random_cnf(rng: random.Random, count: int) -> list[tuple[int, ...]]:
    """Up to `count` distinct clauses of width 1-3 over RANDOM_VARS variables."""
    out: list[tuple[int, ...]] = []
    for _ in range(100 * (count + 1)):
        if len(out) == count:
            break
        variables = rng.sample(range(1, RANDOM_VARS + 1), rng.randint(1, 3))
        clause = tuple(sorted((v if rng.random() < 0.5 else -v for v in variables),
                              key=abs))
        if clause not in out:
            out.append(clause)
    return out


def _random_instance(rng: random.Random, oracles):
    """(kb_a, kb_h, query) with kb_a |= query, kb_h satisfiable, kb_h not |=
    query and at most 12 candidate clauses: acceptance criterion 2's
    distribution (10-clause kb_a, a 1- or 2-literal backbone query, 40 % of
    kb_a shared plus up to 3 extra kb_h clauses)."""
    n = RANDOM_VARS
    while True:
        kb_a = _random_cnf(rng, 10)
        backbone = oracles.tt_backbone(kb_a, n)
        if not backbone:  # also rejects an unsatisfiable kb_a
            continue
        k = rng.randint(1, min(2, len(backbone)))
        query = [(l,) for l in rng.sample(sorted(backbone, key=abs), k)]
        shared = [c for c in kb_a if rng.random() < 0.4]
        kb_h = shared + [c for c in _random_cnf(rng, rng.randint(0, 3))
                         if c not in shared]
        if (oracles.tt_satisfiable(kb_h, n) and not oracles.tt_entails(kb_h, query, n)
                and len(set(kb_a) - set(kb_h)) <= 12):
            return kb_a, kb_h, query


def random_small(seed: int) -> list[RandomInstance]:
    """RANDOM_INSTANCES random 8-variable instances from the workload seed."""
    oracles = importlib.import_module("tests.oracles")
    mrex = importlib.import_module("mrex")
    rng = random.Random(seed)

    def formula(clauses):
        return mrex.CnfFormula.from_clauses(clauses, num_vars=RANDOM_VARS)

    instances = []
    for i in range(RANDOM_INSTANCES):
        kb_a, kb_h, query = _random_instance(rng, oracles)
        problem = mrex.ReconcileProblem(formula(kb_a), formula(kb_h), formula(query))
        instances.append(RandomInstance(f"random seed={seed} index={i}", problem))
    return instances


def oracle_update_size(instance: RandomInstance, removed) -> int | None:
    """Smallest update over the kb_h clauses the run kept, by the
    truth-table sweep of tests/oracles.py (as in acceptance criterion 2)."""
    oracles = importlib.import_module("tests.oracles")
    in_h = instance.problem.kb_h.clause_set()
    candidates = [c for c in instance.problem.kb_a.clauses if c not in in_h]
    kept = [c for c in instance.problem.kb_h.clauses if c not in set(removed)]
    query = [tuple(c) for c in instance.problem.query.clauses]
    return oracles.tt_min_update_size(kept, candidates, query, RANDOM_VARS)


WORKLOADS = {
    "plan-hitting": plan_hitting,
    "plan-extract": plan_extract,
    "cnf-reconcile": cnf_reconcile,
    "random-small": random_small,
}
