"""End-to-end benchmark of mrex: one workload per invocation.

    python3 perfbench/run.py --workload plan-hitting --seed 0 --seconds 22 --trace 0

Run from the root of a source checkout.  The workload runs in this process,
single-threaded, as a closed loop with one client: each instance starts when
the previous one has its verified verdict.  One pass runs the workload's
instance list once; passes repeat until the next one would end after
`--seconds` (at least one always runs), so that a run measures at most
`--seconds` or one pass.  Each pass's answers are checked after its clock
stops.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced and
traced passes (see tracing.py) and reports the per-layer metrics, including
the tracing overhead.  The last stdout line is one JSON object; the lines
before it name every metric with its unit, the environment and the program.
`--selftest` runs one small traced instance per workload (see selftest.py).

The end-to-end times are *scaled*: each is the wall time it measures,
rescaled to a reference CPU speed by the probe samples taken while it ran
(see speed.py), because on a shared host the CPU speed drifts more than a
bound can absorb.  The raw wall times are printed too, on the `raw` line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# Set-up processes per run: at least SETUP_MIN, then more until SETUP_SECONDS
# have passed, at most SETUP_MAX.  Cheap set-ups get many samples, and the
# costly ones (cnf-reconcile, random-small) do not eat the run's time.
SETUP_MIN, SETUP_MAX, SETUP_SECONDS = 3, 15, 4.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_scaled_s": "s",
    "verdict_p50_scaled_s": "s",
    "verdict_tail_scaled_s": "s",
    "peak_rss_mb": "MiB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("_frac", ".share")):
        return "ratio"
    return "count"


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_program() -> None:
    """Import mrex from this checkout's src/, with the audit flags off."""
    if not (ROOT / "src" / "mrex" / "__init__.py").is_file():
        fail(f"no src/mrex under {ROOT}; run from a source checkout")
    if not (ROOT / "tests" / "oracles.py").is_file():
        fail(f"no tests/oracles.py under {ROOT}")
    os.chdir(ROOT)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import mrex

    if Path(mrex.__file__).resolve().parent != ROOT / "src" / "mrex":
        fail(f"imported mrex from {mrex.__file__}, not from this checkout")
    if sys.modules["mrex.solver"].check_models or sys.modules["mrex.minsets"].check_minimality:
        fail("solver.check_models or minsets.check_minimality is on; "
             "an auditing build measures a different program")


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "none (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        path = ROOT / ".git" / ref[5:]
        if path.is_file():
            return path.read_text().strip()
        packed = ROOT / ".git" / "packed-refs"
        if packed.is_file():
            for line in packed.read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
        return "unknown"
    return ref


def program_digest() -> str:
    """sha256 over src/mrex/**/*.py, so a checkout without git is identified."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "mrex").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def cpu_probe_ms() -> float:
    """Median time of a fixed pure-Python loop: how fast the CPU ran for this
    process just now.  Printed next to the metrics, never mixed into them."""
    samples = []
    for _ in range(5):
        started = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        samples.append((time.perf_counter() - started) * 1e3)
    return round(statistics.median(samples), 2)


def environment(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "load_start": os.getloadavg()[0],
        "probe_start_ms": cpu_probe_ms(),
        "commit": git_commit(),
        "program": program_digest(),
    }


def measure_setup(args) -> tuple[float, float]:
    """Median over fresh processes (see SETUP_MIN), each timed from spawn
    until it reports its inputs built: (scaled, raw).  Each process samples
    its own speed (the host's cores differ) and reports its samples' total
    time and their mean factor REFERENCE_PROBE_S / probe."""
    times, scaled = [], []
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only"]
    first = time.perf_counter()
    while len(times) < SETUP_MIN or (len(times) < SETUP_MAX and
                                     time.perf_counter() - first < SETUP_SECONDS):
        started = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            ready = time.perf_counter()
            rest = child.stdout.read()
            code = child.wait()
        if code != 0 or not line.startswith("ready "):
            fail(f"set-up process failed (exit {code}): {line}{rest}")
        probes, factor = map(float, line.split()[1:])
        times.append(ready - started)
        scaled.append((times[-1] - probes) * factor)
    return statistics.median(scaled), statistics.median(times)


def run_pass(instances, checker: Checker) -> tuple[tuple, list[tuple]]:
    """One timed pass: its (start, end) and each instance's.  Its answers
    are checked after the clock stops."""
    spans, outcomes = [], []
    clock = time.perf_counter
    started = clock()
    for instance in instances:
        t0 = clock()
        try:
            outcome = instance.run()
        except Exception as exc:  # counted as a failed instance
            outcome = exc
        spans.append((t0, clock()))
        outcomes.append(outcome)
    whole = (started, clock())
    checker.add(instances, outcomes)
    return whole, spans


def run_passes(instances, budget: float, checker: Checker):
    """Whole passes, sampled for speed, until the next one, judged by the
    last, would end after the budget; at least one.  Returns the passes'
    raw and scaled walls and each pass's scaled instance times."""
    walls, scaled_walls, scaled_times = [], [], []
    sampler = speed.Sampler()
    sampler.start()
    try:
        while True:
            whole, spans = run_pass(instances, checker)
            walls.append(whole[1] - whole[0])
            scaled_walls.append(sampler.scaled(*whole))
            scaled_times.append([sampler.scaled(*span) for span in spans])
            if sum(walls) + walls[-1] > budget:
                return walls, scaled_walls, scaled_times
    finally:
        sampler.stop()


def run_traced_pairs(instances, budget: float, checker: Checker):
    """Alternate an untraced and a traced pass, so that both see the same
    machine state, until the next pair would end after the budget; at
    least one pair.  All traced passes share a tracer."""
    tracer = tracing.Tracer()
    walls, traced_walls = [], []
    while True:
        start, end = run_pass(instances, checker)[0]
        walls.append(end - start)
        tracer.install()
        try:
            start, end = run_pass(instances, checker)[0]
            traced_walls.append(end - start)
        finally:
            tracer.uninstall()
        pair = walls[-1] + traced_walls[-1]
        if sum(walls) + sum(traced_walls) + pair > budget:
            return walls, traced_walls, tracer


def tail(values: list[float]) -> float:
    """Value at the highest percentile of one pass with at least ten
    instances beyond it; the maximum in a pass of fewer than 11."""
    ordered = sorted(values)
    return ordered[-11] if len(ordered) >= 11 else ordered[-1]


class Checker:
    """Checks each pass's answers right after the pass, outside the timed
    region, so that no outcome outlives its pass and memory does not grow
    with the number of passes."""

    def __init__(self, workload: str):
        self.workload = workload
        self.reference = {}
        if workload != "random-small":
            self.reference = json.loads((BENCH / "reference.json").read_text())
        self.attempted = self.failed = self.changed = 0
        self.problems: list[str] = []
        self._oracle: dict[tuple, int | None] = {}

    def add(self, instances, outcomes) -> None:
        for instance, outcome in zip(instances, outcomes):
            self.attempted += 1
            problem = self._problem(instance, outcome)
            if problem is not None:
                self.failed += 1
                self.problems.append(f"{instance.key}: {problem}")

    def _problem(self, instance, outcome) -> str | None:
        if isinstance(outcome, Exception):
            return f"raised {type(outcome).__name__}: {outcome}"
        if any(outcome.codes):
            return f"exit codes {outcome.codes}"
        if outcome.verify_ok is not True:
            return f"verify ok={outcome.verify_ok}"
        if self.workload == "random-small":
            key = (instance.key, outcome.removed)
            if key not in self._oracle:
                self._oracle[key] = workloads.oracle_update_size(instance, outcome.removed)
            if outcome.update_size != self._oracle[key]:
                return f"update size {outcome.update_size}, oracle {self._oracle[key]}"
            return None
        known = self.reference.get(instance.key)
        if known is None:
            return "no known answer in reference.json"
        if outcome.update_size != known["update_size"]:
            return f"update size {outcome.update_size}, known minimum {known['update_size']}"
        if workloads.records_digest(outcome.records) != known["digest"]:
            self.changed += 1
        return None


def layer_report(tracer, walls, traced_walls, changed) -> tuple[dict, list]:
    """Per-layer metrics of the traced passes, with the tracing overhead:
    median traced pass minus median untraced pass."""
    traced_wall = statistics.median(traced_walls)
    metrics, hitting_calls = tracing.layer_metrics(tracer, len(traced_walls),
                                           statistics.fmean(traced_walls))
    metrics["trace.untraced_wall_s"] = statistics.median(walls)
    metrics["trace.traced_wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - statistics.median(walls)
    metrics["check.records_changed"] = changed
    return metrics, hitting_calls


def write_trace(path: Path, env: dict, metrics: dict, tracer, hitting_calls) -> None:
    """Spans as TSV (index, name, start, end, parent, info) plus a summary."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path.with_suffix(".spans.tsv"), "w") as f:
        for i, (name, start, end, parent, info) in enumerate(tracer.spans):
            f.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{info}\n")
    summary = {
        "environment": env,
        "metrics": metrics,
        "hitting_calls": [
            {"reconcile_span": r, "iteration": i, "seed_size": size, "sets": sets,
             "seconds": s} for r, i, size, sets, s in hitting_calls],
    }
    path.with_suffix(".json").write_text(json.dumps(summary, indent=1) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the inputs, print 'ready <probe s> <speed factor>' "
                             "and exit")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.setup_only:
        sampler = speed.Sampler()
        sampler.start()
    load_program()
    if args.selftest:
        import selftest

        return selftest.main()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    if args.setup_only:
        workloads.WORKLOADS[args.workload](args.seed)
        sampler.stop()
        probes, factor = sampler.overall()
        print(f"ready {probes!r} {factor!r}", flush=True)
        return 0

    env = environment(args)
    if not args.trace:
        setup_s, setup_raw_s = measure_setup(args)
    instances = workloads.WORKLOADS[args.workload](args.seed)

    checker = Checker(args.workload)
    if args.trace:
        walls, traced_walls, tracer = run_traced_pairs(instances, args.seconds, checker)
    else:
        walls, scaled_walls, times = run_passes(instances, args.seconds, checker)

    env["load_end"] = os.getloadavg()[0]
    env["probe_end_ms"] = cpu_probe_ms()
    env["instances_per_pass"] = len(instances)
    env["pass_walls_s"] = [round(w, 3) for w in walls]
    if args.trace:
        env["traced_pass_walls_s"] = [round(w, 3) for w in traced_walls]
    for problem in checker.problems[:20]:
        print(f"failed: {problem}")
    print("environment " + " ".join(f"{k}={json.dumps(v)}" for k, v in env.items()))
    print(f"check attempted={checker.attempted} failed={checker.failed} "
          f"fail_frac={checker.failed / checker.attempted:.4f} "
          f"records_changed={checker.changed}")

    if args.trace:
        metrics, hitting_calls = layer_report(tracer, walls, traced_walls,
                                              checker.changed)
        units = {name: layer_unit(name) for name in metrics}
        write_trace(BENCH / "_work" / f"trace-{args.workload}-seed{args.seed}",
                    env, metrics, tracer, hitting_calls)
    else:
        # Each instance's median over the passes: the run's typical pass.
        per_instance = [statistics.median(column) for column in zip(*times)]
        metrics = {
            "setup_s": setup_s,
            "wall_scaled_s": statistics.median(scaled_walls),
            "verdict_p50_scaled_s": statistics.median(per_instance),
            "verdict_tail_scaled_s": tail(per_instance),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        print(f"raw setup_s={setup_raw_s:.6g} wall_s={statistics.median(walls):.6g} "
              f"(unscaled medians, s)")
        units = END_TO_END_UNITS
    for name, value in metrics.items():
        print(f"metric {name}={value:.6g} {units[name]}")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
