"""Span and count recording around the package's public functions.

The benchmark traces from its own files: `installed(tracer)` replaces each
traced function with a wrapper in every `transit_equity` module that binds
it. Callers import these names with `from .x import y`, so wrapping only the
defining module would miss them (`experiment.uniform`, `rounding.evaluate`,
`baselines.evaluate`, ...). Spans are (name, start, end, parent) and live in
memory until the run ends. A layer's self time is its span's duration minus
the durations of its child spans.
"""

from __future__ import annotations

import functools
import statistics
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Iterator


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    children: list[int] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans and counts of one benchmark run, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[int, dict[str, int]] = {}  # root span index -> counter
        self.solutions: list[tuple[object, object]] = []  # (instance, FractionalSolution)
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(Span(name=name, start=perf_counter(), parent=parent))
        if parent is not None:
            self.spans[parent].children.append(index)
        else:
            self.counts[index] = {}
        self._stack.append(index)
        try:
            yield index
        finally:
            self._stack.pop()
            self.spans[index].end = perf_counter()

    def count(self, name: str, amount: int = 1) -> None:
        counter = self.counts[self._stack[0]]
        counter[name] = counter.get(name, 0) + int(amount)

    def self_time(self, index: int) -> float:
        span = self.spans[index]
        return span.duration - sum(self.spans[c].duration for c in span.children)

    def roots(self) -> list[int]:
        return list(self.counts)

    def descendants(self, root: int) -> Iterator[int]:
        todo = [root]
        while todo:
            index = todo.pop()
            yield index
            todo.extend(self.spans[index].children)


def _fractional(solution) -> int:
    x = solution.x_star
    return int(((x > 0.0) & (x < 1.0)).sum())


def _picks(outcome) -> int:
    return sum(outcome.strategy.selected)


# (defining module, function, span name or None for a count only, counter, count of the result)
TRACED: tuple[tuple[str, str, str | None, str | None, Callable | None], ...] = (
    ("geo", "synthetic_city", "geo.synthetic_city", None, None),
    ("geo", "eligibility_filter", "geo.eligibility_filter", "geo.eligible", len),
    ("geo", "cluster_stops", "geo.cluster_stops", "geo.sites", len),
    ("geo", "generate_routes", "geo.generate_routes", None, None),
    ("geo", "build_instance", "geo.build_instance", "geo.programs", lambda r: len(r.programs)),
    ("instance_io", "read_instance", "instance_io.read_instance", None, None),
    ("instance_io", "write_instance", "instance_io.write_instance", None, None),
    ("model", "normalize", "model.normalize", None, None),
    ("model", "evaluate", "model.evaluate", None, None),
    ("lp", "build_lp", "lp.build_lp", None, None),
    ("lp", "solve_lp", "lp.solve_lp", "lp.fractional_x", _fractional),
    ("simplex", "solve", "simplex.solve", None, None),
    ("rounding", "ras", "rounding.ras", None, None),
    ("rounding", "exact_expectation", "rounding.exact_expectation", None, None),
    ("baselines", "uniform", "baselines.uniform", "baselines.uniform.picks", _picks),
    ("baselines", "greedy", "baselines.greedy", "baselines.greedy.picks", _picks),
    ("oracles", "enumerate_feasible", None, "oracles.feasible", lambda r: r.count),
    ("oracles", "opt_deterministic", "oracles.opt_deterministic", None, None),
    ("oracles", "opt_randomized", "oracles.opt_randomized", None, None),
    ("experiment", "run_experiment", "experiment.run_experiment", None, None),
    ("experiment", "emit", "experiment.emit", None, None),
)

# The per-layer metrics a traced run reports, by module. `.s` is inclusive
# seconds, `.self_s` excludes child spans, `.calls` and the other counts are
# exact, `.call_ms.p50` is the median call; all but the last are per pass.
PER_LAYER = (
    "geo.synthetic_city.s", "geo.eligibility_filter.s", "geo.cluster_stops.s",
    "geo.generate_routes.s", "geo.build_instance.s", "geo.eligible", "geo.sites", "geo.programs",
    "instance_io.read_instance.s", "instance_io.write_instance.s",
    "model.normalize.s", "model.evaluate.self_s", "model.evaluate.calls",
    "lp.build_lp.s", "lp.solve_lp.self_s", "lp.solve_lp.calls", "lp.fractional_x",
    "simplex.solve.s", "simplex.solve.calls",
    "rounding.ras.self_s", "rounding.ras.calls", "rounding.ras.call_ms.p50",
    "rounding.exact_expectation.self_s", "rounding.leaves",
    "baselines.uniform.self_s", "baselines.uniform.calls", "baselines.uniform.call_ms.p50",
    "baselines.uniform.picks",
    "baselines.greedy.self_s", "baselines.greedy.calls", "baselines.greedy.call_ms.p50",
    "baselines.greedy.picks",
    "oracles.opt_deterministic.self_s", "oracles.opt_randomized.self_s", "oracles.feasible",
    "experiment.run_experiment.self_s", "experiment.cell.s.p50", "experiment.cell.s.max",
    "experiment.emit.s",
)


def unit(metric: str) -> str:
    if metric.endswith((".s", "_s", ".s.p50", ".s.max")):
        return "s"
    return "ms" if ".call_ms." in metric else "count"


def _wrap(tracer: Tracer, fn, name: str | None, counter: str | None, measure: Callable | None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if name is None:
            result = fn(*args, **kwargs)
        else:
            with tracer.span(name):
                result = fn(*args, **kwargs)
        if counter is not None:
            tracer.count(counter, measure(result))
        if name == "lp.solve_lp":
            tracer.solutions.append((args[0].instance, result))
        return result

    return wrapper


def _wrap_leaves(tracer: Tracer, fn):
    """trajectory_leaves is a generator: count its leaves, leave its time to the caller."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        for leaf in fn(*args, **kwargs):
            tracer.count("rounding.leaves")
            yield leaf

    return wrapper


@contextmanager
def installed(tracer: Tracer) -> Iterator[None]:
    """Wrap every traced function wherever a package module binds it; restore on exit."""
    modules = [m for n, m in list(sys.modules.items()) if n.startswith("transit_equity")]
    package = sys.modules["transit_equity"]
    plan = []
    for module_name, fn_name, *rest in TRACED:
        original = getattr(getattr(package, module_name), fn_name)
        plan.append((original, _wrap(tracer, original, *rest)))
    leaves = package.rounding.trajectory_leaves
    plan.append((leaves, _wrap_leaves(tracer, leaves)))
    replaced: list[tuple[object, str, object]] = []
    for original, wrapper in plan:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    replaced.append((module, attr, original))
    try:
        yield
    finally:
        for module, attr, original in replaced:
            setattr(module, attr, original)


def layer_metrics(tracer: Tracer, roots: list[int]) -> dict[str, float]:
    """The PER_LAYER metrics over the given root spans (set-up and passes).

    A per-pass figure is the median, over the roots that called the function,
    of its total in that root (a function that only set-up calls reports its
    set-up figure); a function never called reports 0.
    """
    per_root: list[dict[str, float]] = []
    call_ms: dict[str, list[float]] = {}
    cells: list[float] = []
    for root in roots:
        totals: dict[str, float] = dict(tracer.counts[root])
        for index in tracer.descendants(root):
            span = tracer.spans[index]
            if index == root:
                continue
            for suffix, amount in (("s", span.duration), ("self_s", tracer.self_time(index)),
                                   ("calls", 1)):
                key = f"{span.name}.{suffix}"
                totals[key] = totals.get(key, 0) + amount
            call_ms.setdefault(span.name, []).append(span.duration * 1e3)
            if span.name == "experiment.run_experiment":
                cells.extend(_cell_durations(tracer, index))
        per_root.append(totals)

    out: dict[str, float] = {}
    for metric in PER_LAYER:
        if ".call_ms." in metric:
            values = call_ms.get(metric.split(".call_ms.")[0], [])
        elif metric.startswith("experiment.cell.s."):
            values = cells
        else:
            values = [t[metric] for t in per_root if metric in t]
        if not values:
            out[metric] = 0
        elif metric.endswith(".max"):
            out[metric] = max(values)
        elif unit(metric) == "count":
            out[metric] = statistics.median_low(values)
        else:
            out[metric] = statistics.median(values)
    return out


def _cell_durations(tracer: Tracer, run: int) -> list[float]:
    """A cell runs from one `normalize` call of run_experiment to the next, or to its end."""
    starts = [
        tracer.spans[c].start
        for c in tracer.spans[run].children
        if tracer.spans[c].name == "model.normalize"
    ]
    ends = starts[1:] + [tracer.spans[run].end]
    return [end - start for start, end in zip(starts, ends)]
