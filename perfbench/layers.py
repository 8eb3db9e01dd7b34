"""Per-layer tracing installed from outside the ``puhda`` package.

A traced pass replaces the module attributes that callers look up --
``puhda.trainers.loss_and_grads``, ``puhda.experiment.retrain_selected``,
``puhda.cli.run_experiment`` and so on -- with wrappers. Every public function
of a layer module gets a span per call (name, start, end, parent span); the
numerics layer and the per-batch model methods only get a call count, because
a span would cost more than the call it measures. Leaving the ``active``
block puts every original back, so one process can run untraced and traced
passes of the same workload. Nothing under ``src/`` changes.

Spans stay in memory; :meth:`Tracer.metrics` turns them into the per-layer
metrics and :meth:`Tracer.summary` into a per-span table.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import statistics
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "experiment", "trainers", "objectives", "models", "numerics", "data", "metrics")
METHODS = ("COM_P", "DIST", "DSFT_P_linear", "PADA", "PADA_S", "PADA_F")
OBJECTIVES = ("pan", "pada", "pada_s", "domain_adv", "classifier_pair", "distill", "supervised")

# Layers whose public functions are counted, not spanned.
COUNTED_LAYERS = ("numerics",)
# (module, class, method) counted per call.
COUNTED_METHODS = (
    ("models", "LinearSoftmaxModel", "logits"),
    ("models", "LinearTransform", "transform"),
)
# Private functions and methods some metrics need, as (module, attribute path, span name).
EXTRA_SPANS = (
    ("experiment", "_write_standard_reports", "experiment.report_write"),
    ("experiment", "_write_checkpoint", "experiment.report_write"),
    ("trainers", "TrainTrace.write", "trainers.TrainTrace.write"),
)
REPORT_WRITE_SPANS = ("experiment.report_write", "trainers.TrainTrace.write")
# The mini-batch draw is timed and counted without a span.
DRAW = ("trainers", "_draw")

# Default published grid and budget, for the projected cost.
DEFAULT_SEEDS = 3
DEFAULT_STEPS = 5000

# Span record fields.
NAME, START, END, PARENT, PHASE, INFO = range(6)


def objective_of(terms) -> str:
    """Which objective builder produced a term list, read from its term names."""
    names = {term.name for term in terms}
    if "kl_pos" in names:
        if "kl_soft" in names:
            return "pada_s"
        aligned = any(hasattr(getattr(term.right, "batch", None), "transform") for term in terms)
        return "pada" if aligned else "pan"
    for marker, objective in (("kl_adv_src", "domain_adv"), ("kl_distill", "distill"),
                              ("ce_pos", "supervised"), ("kl_dc", "classifier_pair")):
        if marker in names:
            return objective
    return "other"


def cell_record(method: str, config, artifacts) -> dict:
    """Step units and identity of one trained (method, cell, seed).

    A step unit is one step of one training run; a soft-label cell counts
    ``steps * rounds_run``, its base run included in the cost.
    """
    rounds = artifacts.rounds_run if method == "PADA_S" else 1
    return {
        "units": config.steps * rounds,
        "rounds": rounds,
        "key": (method, config.learning_rate, config.lam, config.eta, config.seed),
    }


class NullTracer:
    """Stand-in for untraced passes: same interface, records nothing."""

    def active(self):
        return contextlib.nullcontext()

    def cell(self, method):
        return contextlib.nullcontext({})


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.phase = "run"
        self._open: list[int] = []
        self._method = None
        self.counts: dict = defaultdict(lambda: defaultdict(int))   # (phase, method) -> name -> calls
        self._counts_now = self.counts[(self.phase, None)]
        self.draws = [0, 0.0]                                         # calls, seconds
        self.passes = 0                                               # active blocks entered
        self._patches: list[tuple] = []

    # ---------------------------------------------------------------- install

    @contextlib.contextmanager
    def active(self):
        """Trace every call into ``puhda`` made inside the block."""
        self._install()
        self.passes += 1
        self._set_method(None)
        try:
            yield self
        finally:
            self._uninstall()

    def _install(self):
        import puhda.cli  # noqa: F401  -- imports every layer module

        modules = [m for n, m in sys.modules.items() if n == "puhda" or n.startswith("puhda.")]
        for layer in LAYERS:
            module = sys.modules[f"puhda.{layer}"]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapper = self._count(name, obj) if layer in COUNTED_LAYERS else self._wrap(name, obj)
                self._replace_everywhere(modules, obj, wrapper)
        for layer, cls_name, method in COUNTED_METHODS:
            cls = getattr(sys.modules[f"puhda.{layer}"], cls_name)
            self._patch(cls, method, self._count(f"{layer}.{method}", vars(cls)[method]))
        for layer, path, name in EXTRA_SPANS:
            owner = sys.modules[f"puhda.{layer}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            self._patch(owner, attr, self._span(name, vars(owner)[attr]))
        module = sys.modules[f"puhda.{DRAW[0]}"]
        self._patch(module, DRAW[1], self._timed_draw(getattr(module, DRAW[1])))

    def _uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _replace_everywhere(self, modules, obj, wrapper):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is obj:
                    self._patch(module, attr, wrapper)

    # ---------------------------------------------------------------- wrappers

    def _wrap(self, name, fn):
        if name == "experiment.train_method":
            return self._cell_span(name, fn)
        if name == "models.loss_and_grads":
            return self._span(name, fn, lambda args, kwargs, result: objective_of(
                kwargs["terms"] if "terms" in kwargs else args[1]))
        if name == "trainers.train_dsft":
            return self._span(name, fn, lambda args, kwargs, result: int(
                (result[0].trace.value_column("step_size") > 0).sum()))
        if name == "data.load_csv":
            return self._span(name, fn, lambda args, kwargs, result: result.n)
        return self._span(name, fn)

    def _span(self, name, fn, tagger=None):
        spans, open_, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, clock(), 0.0, open_[-1] if open_ else -1, self.phase, None]
            open_.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = clock()
                open_.pop()
            if tagger is not None:
                record[INFO] = tagger(args, kwargs, result)
            return result

        return wrapper

    def _cell_span(self, name, fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs).arguments
            with self.cell(bound["method"], name) as info:
                result = fn(*args, **kwargs)
                info.update(cell_record(bound["method"], bound["config"], result))
            return result

        return wrapper

    def _count(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts = self._counts_now
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _timed_draw(self, fn):
        draws, clock = self.draws, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            result = fn(*args, **kwargs)
            draws[1] += clock() - start
            draws[0] += 1
            return result

        return wrapper

    def _set_method(self, method):
        previous = self._method
        self._method = method
        self._counts_now = self.counts[(self.phase, method)]
        return previous

    @contextlib.contextmanager
    def cell(self, method, name="bench.cell"):
        """One trained (method, cell, seed); the caller fills in :func:`cell_record`."""
        info = {"method": method, "pass": self.passes}
        record = [name, time.perf_counter(), 0.0, self._open[-1] if self._open else -1,
                  self.phase, info]
        self._open.append(len(self.spans))
        self.spans.append(record)
        previous = self._set_method(method)
        try:
            yield info
        finally:
            record[END] = time.perf_counter()
            self._open.pop()
            self._set_method(previous)

    # ---------------------------------------------------------------- metrics

    def _self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for record in self.spans:
            if record[PARENT] >= 0:
                child[record[PARENT]] += record[END] - record[START]
        return [r[END] - r[START] - c for r, c in zip(self.spans, child)]

    def summary(self) -> list[tuple[str, int, float, float]]:
        """(span name, calls, total seconds, self seconds), slowest self time first."""
        table: dict = defaultdict(lambda: [0, 0.0, 0.0])
        for record, own in zip(self.spans, self._self_times()):
            row = table[record[NAME]]
            row[0] += 1
            row[1] += record[END] - record[START]
            row[2] += own
        return sorted(((n, *v) for n, v in table.items()), key=lambda r: -r[3])

    def metrics(self, n_setups: int, n_runs: int, overhead_ratio: float) -> dict[str, float]:
        """Per-layer metrics; seconds are per workload pass (one set-up plus one timed call)."""
        weight = {"setup": 1.0 / max(n_setups, 1), "run": 1.0 / max(n_runs, 1)}
        self_times = self._self_times()
        spans = self.spans

        def per_pass(select, own=False):
            return sum((weight[r[PHASE]] * (s if own else r[END] - r[START])
                        for r, s in zip(spans, self_times) if select(r[NAME])), 0.0)

        def named(*names):
            return lambda n: n in names

        def layer(prefix, exclude=()):
            return lambda n: n.startswith(prefix + ".") and n not in exclude

        cells = [r for r in spans if r[NAME] in ("experiment.train_method", "bench.cell")
                 and r[PHASE] == "run" and "units" in r[INFO]]
        units = defaultdict(int)
        cell_time = defaultdict(float)
        rounds = []
        for r in cells:
            units[r[INFO]["method"]] += r[INFO]["units"]
            cell_time[r[INFO]["method"]] += r[END] - r[START]
            if r[INFO]["method"] == "PADA_S":
                rounds.append(r[INFO]["rounds"])
        all_units = sum(units.values())

        out: dict[str, float] = {}
        out["cli.self_s"] = per_pass(layer("cli"), own=True)
        for stage in ("prepare_data", "run_grid", "retrain_selected", "evaluate_on_test"):
            out[f"experiment.{stage}_s"] = per_pass(named(f"experiment.{stage}"))
        out["experiment.report_write_s"] = per_pass(named(*REPORT_WRITE_SPANS))

        train_calls = [r for r in cells if r[NAME] == "experiment.train_method"]
        out["experiment.train_method.calls"] = len(train_calls) / max(n_runs, 1)
        out["experiment.train_method.unique_ratio"] = (
            len({(r[INFO]["pass"], r[INFO]["key"]) for r in train_calls}) / len(train_calls)
            if train_calls else 0.0)
        durations = sorted(r[END] - r[START] for r in train_calls)
        out["experiment.cell_s.count"] = float(len(durations))
        out["experiment.cell_s.p50"] = statistics.median(durations) if durations else 0.0
        # Highest percentile with ten samples beyond it.
        if len(durations) > 10:
            out["experiment.cell_s.tail"] = durations[len(durations) - 11]
            out["experiment.cell_s.tail_pct"] = 100.0 * (len(durations) - 10) / len(durations)
        else:
            out["experiment.cell_s.tail"] = 0.0
            out["experiment.cell_s.tail_pct"] = 0.0

        us_per_step = {m: (1e6 * cell_time[m] / units[m] if units[m] else 0.0) for m in METHODS}
        mean_rounds = statistics.fmean(rounds) if rounds else 0.0
        out["experiment.default_grid_projected_h"] = _projected_hours(us_per_step, mean_rounds)
        for m in METHODS:
            out[f"trainers.us_per_step.{m}"] = us_per_step[m]
        out["trainers.self_s"] = per_pass(layer("trainers"), own=True)
        out["trainers.draw_us"] = 1e6 * self.draws[1] / self.draws[0] if self.draws[0] else 0.0
        out["trainers.pada_s.rounds_run"] = mean_rounds

        build = [s for r, s in zip(spans, self_times) if r[PHASE] == "run"
                 and layer("objectives", ("objectives.dsft_loss", "objectives.mmd2"))(r[NAME])]
        out["objectives.term_build_us_per_step"] = 1e6 * sum(build) / all_units if all_units else 0.0
        dsft = [r for r in spans if r[NAME] == "objectives.dsft_loss" and r[PHASE] == "run"]
        out["objectives.dsft_loss.us_per_call"] = (
            1e6 * sum(r[END] - r[START] for r in dsft) / len(dsft) if dsft else 0.0)
        accepted = sum(r[INFO] for r in spans if r[NAME] == "trainers.train_dsft" and r[PHASE] == "run")
        out["objectives.dsft_loss.accept_ratio"] = accepted / len(dsft) if dsft else 0.0

        by_objective = defaultdict(list)
        for r in spans:
            if r[NAME] == "models.loss_and_grads" and r[PHASE] == "run":
                by_objective[r[INFO]].append(r[END] - r[START])
        for objective in OBJECTIVES:
            calls = by_objective.get(objective, [])
            out[f"models.loss_and_grads.us_per_call.{objective}"] = (
                1e6 * sum(calls) / len(calls) if calls else 0.0)
        out["models.loss_and_grads.self_s"] = per_pass(named("models.loss_and_grads"), own=True)
        pada = self.counts[("run", "PADA")]
        for name in ("models.logits", "models.transform", "numerics.require_finite"):
            out[f"{name}.calls_per_step.PADA"] = pada[name] / units["PADA"] if units["PADA"] else 0.0
        out["numerics.clamp_probs.calls"] = sum(
            c["numerics.clamp_probs"] * weight[phase] for (phase, _), c in self.counts.items())

        out["data.generate_synthetic_s"] = per_pass(named("data.generate_synthetic"))
        out["data.split_standardize_s"] = per_pass(named("data.split", "data.standardize_splits"))
        out["data.save_domain_matrix_s"] = per_pass(named("data.save_domain_matrix"))
        out["data.load_csv_s"] = per_pass(named("data.load_csv"))
        loads = [r for r in spans if r[NAME] == "data.load_csv"]
        load_s = sum(r[END] - r[START] for r in loads)
        out["data.load_csv.rows_per_s"] = sum(r[INFO] for r in loads) / load_s if load_s else 0.0
        out["metrics.discrimination_accuracy_s"] = per_pass(named("metrics.discrimination_accuracy"))
        out["metrics.eval_s"] = per_pass(layer("metrics", ("metrics.discrimination_accuracy",)),
                                         own=True)
        out["trace.overhead_ratio"] = overhead_ratio
        return out


def _projected_hours(us_per_step: dict[str, float], pada_s_rounds: float) -> float:
    """Single-process cost of the default published grid, from measured step costs.

    Covers only the methods this workload measured; a soft-label cell costs
    its measured rounds.
    """
    from puhda.trainers import GRID_LEARNING_RATE, GRID_WEIGHT

    cells = len(GRID_LEARNING_RATE) * len(GRID_WEIGHT)
    seconds = 0.0
    for method, us in us_per_step.items():
        if method == "PADA_S":
            seconds += us * 1e-6 * cells * len(GRID_WEIGHT) * DEFAULT_STEPS * pada_s_rounds
        else:
            seconds += us * 1e-6 * cells * DEFAULT_STEPS
    return seconds * DEFAULT_SEEDS / 3600.0
