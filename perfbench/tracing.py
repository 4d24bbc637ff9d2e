"""In-memory span tracer for the benchmark's traced passes.

Tracing wraps mrex's layer functions where their callers look them up:
`mrex.cli.<name>` for the CLI pipeline, the `mrex.reconcile` *module*
(reached through importlib, because `mrex/__init__.py` rebinds the package
attribute of that name to the function) for the reconciliation loop, and
the `SatSession` class for the solver.  Every wrapped call records a span
(name, start, end, parent, info); spans stay in memory until the run ends.
A span's self time is its duration minus the time of its direct children,
so the self times of all spans in a pass add up to the pass's traced time
spent inside mrex.

`add_hard`/`add_soft` run tens of thousands of times per instance: they are
timed and counted like the others but not kept as individual spans.
"""

from __future__ import annotations

import importlib
import statistics
import time

# (module, attribute, span name, layer).  The layer names the per-layer
# metric a span feeds; several call sites may feed one layer.
FUNCTIONS = (
    ("mrex.cli", "main", "cli.main", "cli"),
    ("mrex.cli", "parse_pddl", "parse_pddl", "planning.parse"),
    ("mrex.cli", "ground", "ground", "planning.ground"),
    ("mrex.cli", "optimal_plan_search", "optimal_plan_search", "planning.search"),
    ("mrex.cli", "tweak_model", "tweak_model", "planning.tweak"),
    ("mrex.cli", "encode_bounded", "encode_bounded", "planning.encode"),
    ("mrex.cli", "optimality_query", "optimality_query", "planning.encode"),
    ("mrex.cli", "check_feasibility", "check_feasibility", "planning.encode"),
    ("mrex.cli", "parse_dimacs", "parse_dimacs", "formula.parse"),
    ("mrex.cli", "parse_query_text", "parse_query_text", "formula.parse"),
    ("mrex.cli", "compute_backbone", "compute_backbone", "backbone"),
    ("mrex.cli", "reconcile", "reconcile", "reconcile"),
    ("mrex.cli", "verify_explanation", "verify_explanation", "reconcile.verify"),
    ("mrex.reconcile", "reconcile", "reconcile", "reconcile"),
    ("mrex.reconcile", "verify_explanation", "verify_explanation", "reconcile.verify"),
    ("mrex.reconcile", "preprocess_consistency", "preprocess_consistency",
     "reconcile.consistency"),
    ("mrex.reconcile", "negate_query", "negate_query", "formula.prep"),
    ("mrex.reconcile", "intersect_kbs", "intersect_kbs", "formula.prep"),
    ("mrex.reconcile", "min_hitting_set", "min_hitting_set", "hitting"),
    ("mrex.reconcile", "extract_mcs", "extract_mcs", "minsets.mcs"),
    ("mrex.reconcile", "extract_mus", "extract_mus", "minsets.mus"),
)

# SatSession methods: (method, span name, keep each span).
SOLVER_METHODS = (
    ("__init__", "SatSession", True),
    ("solve", "solve", True),
    ("add_hard", "add_hard", False),
    ("add_soft", "add_soft", False),
)

LAYER_OF = {span: layer for _m, _a, span, layer in FUNCTIONS}
LAYER_OF.update({span: "solver" for _m, span, _k in SOLVER_METHODS})


def _solve_info(args, result):
    return result.satisfiable


def _hitting_info(args, result):
    return (len(args[0]), len(result))


def _ids_info(args, result):
    return len(result.ids)


def _reconcile_info(args, result):
    problem = args[0]
    return (result.iterations, result.mcs_count, result.oracle_calls,
            len(result.update), len(problem.kb_a.clauses),
            len(problem.kb_h.clauses))


INFO = {
    "solve": _solve_info,
    "min_hitting_set": _hitting_info,
    "extract_mcs": _ids_info,
    "extract_mus": _ids_info,
    "reconcile": _reconcile_info,
}


class Tracer:
    """Records spans while installed; `uninstall` restores every binding."""

    def __init__(self) -> None:
        self.spans: list = []  # (name, start, end, parent index, info)
        self.totals: dict[str, list] = {}  # name -> [calls, seconds, self seconds]
        self._stack: list[list] = []  # [span index, child seconds, parent index]
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Wrap every declared call site; a missing one raises AttributeError."""
        for module_name, attr, span, _layer in FUNCTIONS:
            module = importlib.import_module(module_name)
            self._replace(module, attr, self._wrap(getattr(module, attr), span, True))
        session = importlib.import_module("mrex.solver").SatSession
        for method, span, keep in SOLVER_METHODS:
            self._replace(session, method,
                          self._wrap(getattr(session, method), span, keep))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _replace(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, fn, name: str, keep: bool):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        info_of = INFO.get(name)
        totals = self.totals.setdefault(name, [0, 0.0, 0.0])

        def close(index, frame, start, result, args):
            end = clock()
            stack.pop()
            duration = end - start
            totals[0] += 1
            totals[1] += duration
            totals[2] += duration - frame[1]
            if stack:
                stack[-1][1] += duration
            if keep:
                info = info_of(args, result) if info_of and result is not None else None
                spans[index] = (name, start, end, frame[2], info)

        def wrapper(*args, **kwargs):
            index = -1
            if keep:
                index = len(spans)
                spans.append(None)
            frame = [index, 0.0, stack[-1][0] if stack else -1]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                close(index, frame, start, None, args)
                raise
            close(index, frame, start, result, args)
            return result

        return wrapper

    def fired(self) -> set[str]:
        return {name for name, t in self.totals.items() if t[0]}


def layer_metrics(tracer: Tracer, passes: int, traced_wall: float) -> tuple[dict, list]:
    """Per-pass layer metrics from the spans of `passes` traced passes, and
    the per-call hitting-set trace (reconcile span, iteration, seed size,
    sets, seconds)."""
    spans = tracer.spans
    tot = tracer.totals

    def seconds(*names, own=False):
        return sum(tot.get(n, (0, 0.0, 0.0))[2 if own else 1] for n in names) / passes

    def calls(*names):
        return sum(tot.get(n, (0,))[0] for n in names) / passes

    solves_under: dict[str, list[int]] = {}  # parent layer -> [solves, sat]
    solve_ms = []
    hitting_calls = []  # (reconcile span, iteration, seed size, sets, seconds)
    iteration_of: dict[int, int] = {}
    mcs_sizes, mus_sizes, explanations = [], [], []
    kb_sizes = []
    for name, start, end, parent, info in spans:
        if name == "solve":
            layer = LAYER_OF[spans[parent][0]] if parent >= 0 else "none"
            slot = solves_under.setdefault(layer, [0, 0])
            slot[0] += 1
            slot[1] += bool(info)
            solve_ms.append((end - start) * 1e3)
        elif name == "min_hitting_set" and info is not None:
            iteration_of[parent] = iteration_of.get(parent, 0) + 1
            hitting_calls.append((parent, iteration_of[parent], info[1], info[0],
                                  end - start))
        elif name == "extract_mcs" and info is not None:
            mcs_sizes.append(info)
        elif name == "extract_mus" and info is not None:
            mus_sizes.append(info)
        elif name == "reconcile" and info is not None:
            explanations.append(info)
            if parent >= 0 and spans[parent][0] == "cli.main":
                kb_sizes.append(info[4:])

    def under(layer, sat=False):
        return solves_under.get(layer, [0, 0])[1 if sat else 0]

    def frac(layer):
        n = under(layer)
        return under(layer, sat=True) / n if n else 0.0

    def mean(values):
        return statistics.fmean(values) if values else 0.0

    final_seed = {h[0]: h[2] for h in hitting_calls}  # reconcile span -> last seed
    all_solves = sum(v[0] for v in solves_under.values())
    all_sat = sum(v[1] for v in solves_under.values())
    plan_kbs = kb_sizes if calls("parse_pddl") else []
    reconcile_s = seconds("reconcile")
    hitting_s = seconds("min_hitting_set")
    self_sum = sum(t[2] for t in tot.values()) / passes
    solver_names = [span for _m, span, _k in SOLVER_METHODS]
    m = {
        "planning.parse_s": seconds("parse_pddl"),
        "planning.ground_s": seconds("ground"),
        "planning.search_s": seconds("optimal_plan_search"),
        "planning.tweak_s": seconds("tweak_model"),
        "planning.encode_s": seconds("encode_bounded", "optimality_query",
                                     "check_feasibility"),
        "planning.kb_a_clauses": mean([k[0] for k in plan_kbs]),
        "planning.kb_h_clauses": mean([k[1] for k in plan_kbs]),
        "formula.parse_s": seconds("parse_dimacs", "parse_query_text"),
        "formula.prep_s": seconds("negate_query", "intersect_kbs"),
        "formula.prep_calls": calls("negate_query", "intersect_kbs"),
        "backbone.s": seconds("compute_backbone"),
        "backbone.solves": under("backbone") / passes,
        "reconcile.s": reconcile_s,
        "reconcile.self_s": seconds("reconcile", own=True),
        "reconcile.consistency_s": seconds("preprocess_consistency"),
        "reconcile.verify_s": seconds("verify_explanation"),
        "reconcile.verify_solves": under("reconcile.verify") / passes,
        "reconcile.iterations": sum(e[0] for e in explanations) / passes,
        "reconcile.mcs_count": sum(e[1] for e in explanations) / passes,
        "reconcile.oracle_calls": sum(e[2] for e in explanations) / passes,
        "reconcile.update_size": sum(e[3] for e in explanations) / passes,
        "hitting.s": hitting_s,
        "hitting.calls": calls("min_hitting_set"),
        "hitting.share": hitting_s / reconcile_s if reconcile_s else 0.0,
        "hitting.last_size": max(final_seed.values(), default=0),
        "hitting.max_sets": max((h[3] for h in hitting_calls), default=0),
        "minsets.mcs_s": seconds("extract_mcs"),
        "minsets.mcs_self_s": seconds("extract_mcs", own=True),
        "minsets.mcs_calls": calls("extract_mcs"),
        "minsets.mcs_solves": under("minsets.mcs") / passes,
        "minsets.mcs_mean_size": mean(mcs_sizes),
        "minsets.mcs_sat_frac": frac("minsets.mcs"),
        "minsets.mus_s": seconds("extract_mus"),
        "minsets.mus_self_s": seconds("extract_mus", own=True),
        "minsets.mus_solves": under("minsets.mus") / passes,
        "minsets.mus_size": mean(mus_sizes),
        "minsets.mus_sat_frac": frac("minsets.mus"),
        "solver.s": seconds(*solver_names),
        "solver.solve_s": seconds("solve"),
        "solver.solves": all_solves / passes,
        "solver.sat_frac": all_sat / all_solves if all_solves else 0.0,
        "solver.solve_p50_ms": statistics.median(solve_ms) if solve_ms else 0.0,
        "solver.solve_max_ms": max(solve_ms, default=0.0),
        "solver.sessions": calls("SatSession"),
        "solver.hard_clauses": calls("add_hard"),
        "solver.soft_clauses": calls("add_soft"),
        "cli.self_s": seconds("cli.main", own=True),
        "trace.self_sum_s": self_sum,
        "trace.unattributed_s": traced_wall - self_sum,
    }
    return m, hitting_calls
