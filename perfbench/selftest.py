"""Benchmark self-test: one small instance per workload, traced.

    python3 perfbench/run.py --selftest

Checks that each workload's instance fires every layer wrapper it is
documented to exercise, that together they fire every declared wrapper, that
answers check out, that uninstalling the tracer restores every binding, that
the speed sampler samples while an instance runs, and that BENCHMARK.json
declares exactly the metrics run.py prints.
A refactor that moves a call site then fails here instead of reporting a
layer as 0 s.
"""

from __future__ import annotations

import importlib
import json
import time

import run
import speed
import tracing
import workloads

PLANNING = {"cli.main", "parse_pddl", "ground", "optimal_plan_search",
            "tweak_model", "encode_bounded", "optimality_query", "check_feasibility"}
LOOP = {"reconcile", "verify_explanation", "preprocess_consistency", "negate_query",
        "intersect_kbs", "min_hitting_set", "extract_mcs", "extract_mus",
        "SatSession", "solve", "add_hard", "add_soft"}

# workload -> (key of a small instance, wrappers it must fire)
CASES = {
    "plan-hitting": ("explain-plan scenario=4 mode=restricted seed=0", PLANNING | LOOP),
    "plan-extract": ("explain-plan scenario=1 mode=restricted seed=0", PLANNING | LOOP),
    "cnf-reconcile": ("cnf horizon=3 scenario=9 k=5 seed=0",
                      LOOP | {"cli.main", "parse_dimacs", "parse_query_text",
                              "compute_backbone"}),
    "random-small": ("random seed=0 index=0", LOOP),
}


def require(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest failed: {message}")


def declared_metrics(reported: list[dict]) -> None:
    """BENCHMARK.json declares exactly the metrics run.py prints, in its units."""
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for metrics in reported:
        printed = {name: run.layer_unit(name) for name in metrics}
        require(printed == layer, f"per_layer differs from the traced metrics: "
                f"{sorted(set(printed.items()) ^ set(layer.items()))}")
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    require(end_to_end == run.END_TO_END_UNITS,
            f"end_to_end differs from run.END_TO_END_UNITS: {end_to_end}")
    workload_names = [w["name"] for w in spec["workloads"]]
    require(workload_names == list(workloads.WORKLOADS),
            f"workloads differ: {workload_names}")


def sampled_instance() -> None:
    """The sampler takes samples while an instance runs, and the scaled
    time of the instance is positive."""
    instance = workloads.WORKLOADS["plan-extract"](0)[0]
    sampler = speed.Sampler()
    sampler.start()
    try:
        started = time.perf_counter()
        instance.run()
        ended = time.perf_counter()
    finally:
        sampler.stop()
    require(len(sampler.probes) >= 2, f"{len(sampler.probes)} speed samples")
    scaled = sampler.scaled(started, ended)
    require(scaled > 0, f"scaled time {scaled}")
    print(f"selftest speed: {len(sampler.probes)} samples in {ended - started:.3f} s, "
          f"scaled {scaled:.3f} s")


def main() -> int:
    declared = set(tracing.LAYER_OF)
    covered = set().union(*(names for _key, names in CASES.values()))
    require(covered == declared, f"wrappers no case covers: {declared - covered}")
    cli = importlib.import_module("mrex.cli")
    original_main = cli.main
    reported = []
    for name, (key, required) in CASES.items():
        instance = next(i for i in workloads.WORKLOADS[name](0) if i.key == key)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            outcome = instance.run()
        finally:
            tracer.uninstall()
        require(cli.main is original_main, "uninstall left a wrapper behind")
        missing = required - tracer.fired()
        require(not missing, f"{name}: wrappers that never fired: {sorted(missing)}")
        checker = run.Checker(name)
        checker.add([instance], [outcome])
        require(checker.attempted == 1 and checker.failed == 0,
                f"{name}: {checker.problems}")
        metrics, _calls = run.layer_report(tracer, [1.0], [1.0], 0)
        reported.append(metrics)
        print(f"selftest {name}: {instance.key}: {len(tracer.spans)} spans, "
              f"{len(tracer.fired())} wrappers fired, "
              f"reconcile.s={metrics['reconcile.s']:.3f}")
    sampled_instance()
    declared_metrics(reported)
    print("selftest ok")
    return 0
