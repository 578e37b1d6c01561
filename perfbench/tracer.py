"""Outside-in span tracer for sqvi.

The tracer replaces public sqvi functions with timing wrappers at the name
their caller looks up: ``sqvi.solvers`` imports ``inexact_project``,
``sample_batch`` and ``evaluate_mean`` by name, so those are patched in
``sqvi.solvers`` (and ``inexact_project``/``reference_project`` separately in
``sqvi.diagnostics``), never in the module that defines them. Spans stay in
memory until the run ends; ``layer_metrics`` folds them into per-layer
times and counters.
"""
from __future__ import annotations

import functools
from collections import Counter, defaultdict
from time import perf_counter


class Span:
    __slots__ = ("name", "start", "end", "parent", "run_id")

    def __init__(self, name: str, parent: int, run_id: str):
        self.name = name
        self.start = 0.0
        self.end = 0.0
        self.parent = parent  # index into Tracer.spans, -1 for a root span
        self.run_id = run_id


class Tracer:
    """Records nested spans and work counters of one process."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.last: dict = {}
        self.run_id = ""
        self._stack: list = []

    def wrap(self, fn, name: str, on_return=None):
        """``fn`` timed as a span called ``name``; ``on_return(tracer, args, kwargs, result)`` counts work."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else -1, self.run_id)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
            if on_return is not None:
                on_return(self, args, kwargs, result)
            return result

        return traced

    def times(self):
        """(total, self) seconds per span name; self time excludes child spans."""
        total = defaultdict(float)
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            dur = span.end - span.start
            total[span.name] += dur
            if span.parent >= 0:
                covered[span.parent] += dur
        own = defaultdict(float)
        for span, child in zip(self.spans, covered):
            own[span.name] += span.end - span.start - child
        return total, own


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_build(tracer, args, kwargs, result):
    tracer.counts["problems.build_calls"] += 1


def _count_rows(tracer, args, kwargs, trace):
    tracer.counts["solvers.outer_iters"] += len(trace.rows)


def _count_projection(tracer, args, kwargs, res):
    tracer.counts["projection.calls"] += 1
    tracer.counts["projection.inner_iters"] += res.inner_iterations
    tracer.counts["projection.inner_scheduled"] += _arg(args, kwargs, 3, "t")
    tracer.last["projection.last_error_bound"] = res.error_bound


def _count_batch(tracer, args, kwargs, batch):
    tracer.counts["operators.calls"] += 1
    tracer.counts["operators.draws"] += _arg(args, kwargs, 2, "n")


def _count_mean(tracer, args, kwargs, value):
    # the solvers count an exact mean evaluation as one draw
    tracer.counts["operators.calls"] += 1
    tracer.counts["operators.draws"] += 1


def _count_metric(tracer, args, kwargs, value):
    tracer.counts["diagnostics.calls"] += 1


def _count_residual_inner(tracer, args, kwargs, res):
    tracer.counts["diagnostics.residual_inner_iters"] += res.inner_iterations


def install(tracer: Tracer):
    """Patch the traced sqvi names; returns a function that restores them."""
    import sqvi.diagnostics as diagnostics
    import sqvi.problems as problems
    import sqvi.runner as runner
    import sqvi.solvers as solvers

    patches = [
        (runner, "build_problem", "problems.build", _count_build),
        (problems, "contractivity_audit", "maps.contractivity_audit", None),
        (problems, "estimate_qg", "operators.estimate_qg", None),
        (runner, "run_ieg_sqvi", "solvers.run", _count_rows),
        (runner, "run_ig_sqvi", "solvers.run", _count_rows),
        (runner, "trace_to_csv", "runner.format", None),
        (runner, "mean_csv", "runner.format", None),
        (solvers, "schedule_values", "solvers.schedule", None),
        (solvers, "inexact_project", "projection", _count_projection),
        (solvers, "sample_batch", "operators", _count_batch),
        (solvers, "evaluate_mean", "operators", _count_mean),
        (diagnostics, "dist_to_solution", "diagnostics", _count_metric),
        (diagnostics, "natural_residual", "diagnostics", _count_metric),
        (diagnostics, "lower_level_subopt", "diagnostics", _count_metric),
        (diagnostics, "inexact_project", "diagnostics.residual_projection", _count_residual_inner),
        (diagnostics, "reference_project", "diagnostics.residual_projection", None),
    ]
    saved = []
    for module, attr, name, on_return in patches:
        original = getattr(module, attr)
        saved.append((module, attr, original))
        setattr(module, attr, tracer.wrap(original, name, on_return))

    def restore():
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)

    return restore


def layer_metrics(tracer: Tracer, bytes_written: int) -> dict:
    """Per-layer numbers of one traced process, keyed by BENCHMARK.json names."""
    total, own = tracer.times()
    c = tracer.counts
    inner = c["projection.inner_iters"]
    return {
        "problems.build_calls": c["problems.build_calls"],
        "problems.build_s": total["problems.build"],
        "maps.contractivity_audit_s": total["maps.contractivity_audit"],
        "operators.estimate_qg_s": total["operators.estimate_qg"],
        "projection.calls": c["projection.calls"],
        "projection.self_s": own["projection"],
        "projection.inner_iters": inner,
        "projection.inner_scheduled": c["projection.inner_scheduled"],
        # 0 when every projection was closed-form
        "projection.us_per_inner_iter": 1e6 * own["projection"] / inner if inner else 0.0,
        "projection.last_error_bound": tracer.last.get("projection.last_error_bound", 0.0),
        "diagnostics.calls": c["diagnostics.calls"],
        "diagnostics.self_s": own["diagnostics"],
        "diagnostics.residual_inner_iters": c["diagnostics.residual_inner_iters"],
        "diagnostics.residual_projection_s": total["diagnostics.residual_projection"],
        "operators.calls": c["operators.calls"],
        "operators.draws": c["operators.draws"],
        "operators.self_s": own["operators"],
        "operators.us_per_call": 1e6 * own["operators"] / max(c["operators.calls"], 1),
        "solvers.outer_iters": c["solvers.outer_iters"],
        "solvers.self_s": own["solvers.run"],
        "solvers.schedule_s": total["solvers.schedule"],
        "runner.io_s": total["runner.format"] + own["runner.run_experiment"],
        "runner.bytes_written": bytes_written,
    }
