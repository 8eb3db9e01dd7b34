"""Config-driven experiment pipeline.

A single structured config document describes the dataset, the method list,
the hyperparameter grids, the seeds, and the split. Running an experiment
trains every method over its grid once, selects one cell per method by mean
validation accuracy, writes the selected cell's grid artifacts per seed as
telemetry and checkpoints (nothing is retrained), and evaluates once on the
held-out test split. A work item is a stack, up to ``STACK_CAP`` (cell, seed)
runs of one method trained as one stacked run, each seed drawing its own
batches; stacks can run in parallel, and a dead worker fails its whole stack.
Each stack is folded as it arrives, in a fixed (method, cell, seed) order,
and every report is written with round-trip float formatting and no
timestamps, making reruns byte-identical; wall times go only to the log, one
INFO line per stack.

A config is checked as it loads, by the sections' own field annotations (a
number by its kind, ``numerics.check_number``); a rejection names the field
by its config path, such as ``dataset.synthetic.common``.

The test split is kept inside a sealed handle that training and selection
code never receives; it is opened exactly once, after selection.
"""

from __future__ import annotations

import json
import logging
import os
import re
import shutil
import time
from collections import deque
from dataclasses import MISSING, asdict, astuple, dataclass, fields, is_dataclass
from functools import partial
from itertools import chain, groupby, product
from pathlib import Path
from typing import NewType, get_args, get_type_hints

import numpy as np
import yaml

from . import __version__
from .data import (
    DomainMatrix,
    FeatureSchema,
    SplitSpec,
    SyntheticSpec,
    aggregate_ratings,
    column_positions,
    format_cell,
    generate_synthetic,
    load_csv,
    load_genre_file,
    load_ratings_file,
    parse_float,
    read_table,
    save_domain_matrix,
    split_rows,
    standardize_splits,
    write_table,
)
from .errors import ConfigurationError, DataError, PuhdaError
from .metrics import (
    EvalReport,
    accuracy,
    auc,
    correlation_analytics,
    discrimination_accuracy,
    improvement_metrics,
)
from .models import save_checkpoint
from .numerics import (
    NUMBER_KINDS,
    NonNegativeFloat,
    NonNegativeInt,
    PositiveFloat,
    PositiveInt,
    check_fields,
    check_number,
)
from .trainers import (
    GRID_LEARNING_RATE,
    GRID_WEIGHT,
    METHOD_TABLE,
    RunBudget,
    TrainConfig,
    TrainedArtifacts,
    align_features,
    predict,
)

logger = logging.getLogger(__name__)

METHODS = tuple(METHOD_TABLE)
OUTPUT_ENV_VAR = "PUHDA_OUT"


# --------------------------------------------------------------------------
# Config document


def _require_mapping(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigurationError(f"{where}: expected a key-value section")
    return value


def _reject_unknown(mapping: dict, allowed, where: str) -> None:
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise ConfigurationError(f"{where}: unknown field {unknown[0]!r}")


def _string(value, where: str, what: str = "a string") -> str:
    if not isinstance(value, str):
        raise ConfigurationError(f"{where}: expected {what}, got {value!r}")
    return value


def _label_value(value, where: str) -> str:
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise ConfigurationError(f"{where}: expected a label value, got {value!r}")
    return str(value)


# A csv label cell; an unquoted integer such as ``1`` stands for its digits.
LabelValue = NewType("LabelValue", str)
# The output directory.
Directory = NewType("Directory", Path)

# Value rule per annotated field type (a number kind's is ``check_number``), and
# what a list of each base type is called.
_SCALARS = {str: _string, LabelValue: _label_value,
            Path: lambda value, where: Path(_string(value, where)),
            Directory: lambda value, where: Path(_string(value, where, "a directory path")),
            **{kind: partial(check_number, kind) for kind in NUMBER_KINDS}}
_LISTS = {int: "list of integers", float: "non-empty list of numbers", str: "list of names"}
# Config-grammar names that differ from the dataclass field names.
_GRAMMAR_NAMES = {"c": "common", "s": "source_specific", "t": "target_specific",
                  "label_column": "label", "split_spec": "split"}


def _value(hint, value, where: str):
    """Check one config value against a field's annotated type."""
    if hint in _SCALARS:
        return _SCALARS[hint](value, where)
    if is_dataclass(hint):
        return _section(hint, value, where)
    item, *rest = get_args(hint)
    if rest == [type(None)]:   # ``item | None``; a null value never gets here
        return _value(item, value, where)
    # ``tuple[item, ...]``, from a list; a number axis may not be empty
    base = getattr(item, "__supertype__", item)
    if not isinstance(value, list) or (base is float and not value):
        raise ConfigurationError(f"{where}: expected a {_LISTS[base]}")
    return tuple(_value(item, v, where) for v in value)


def _section(cls, doc, where: str):
    """Build a section dataclass from its document, driven by the class's own
    fields: the annotated types check the values, a field without a default
    is required, and a field given as null reads as absent. The document's
    own keys, under ``where == "config"``, are named without a prefix."""
    doc = _require_mapping(doc, where)
    by_key = {_GRAMMAR_NAMES.get(f.name, f.name): f for f in fields(cls)}
    _reject_unknown(doc, by_key, where)
    hints = get_type_hints(cls)
    kwargs = {}
    for key, f in by_key.items():
        if doc.get(key) is not None:
            path = key if where == "config" else f"{where}.{key}"
            kwargs[f.name] = _value(hints[f.name], doc[key], path)
        elif f.default is MISSING:
            raise ConfigurationError(f"{where}: missing field {key!r}")
    return cls(**kwargs)


def _echo(value):
    """JSON-ready form of a section, in config-grammar names, that parses back.
    A dataset section is written under its kind, and an unset output is left out."""
    if is_dataclass(value):
        doc = {_GRAMMAR_NAMES.get(f.name, f.name): _echo(getattr(value, f.name))
               for f in fields(value) if (f.name, getattr(value, f.name)) != ("output", None)}
        kind = _KINDS.get(type(value))
        return doc if kind is None else {"kind": kind, kind: doc}
    if isinstance(value, tuple):
        return [_echo(v) for v in value]
    if isinstance(value, Path):
        return str(value)
    return value


@dataclass(frozen=True)
class CsvDataset:
    source: Path
    target: Path
    schema: FeatureSchema
    positive_value: LabelValue = "1"


@dataclass(frozen=True)
class RatingsDataset:
    ratings: Path
    genres: Path
    common_genres: tuple[str, ...]
    source_genres: tuple[str, ...]
    target_genres: tuple[str, ...]
    label_genre: str


# One section per dataset kind, under the kind's name.
_DATASET_SECTIONS = {"synthetic": SyntheticSpec, "csv": CsvDataset, "ratings": RatingsDataset}
_KINDS = {cls: kind for kind, cls in _DATASET_SECTIONS.items()}
Dataset = SyntheticSpec | CsvDataset | RatingsDataset


def _dataset(doc, where: str) -> Dataset:
    """The section of the kind that the dataset document's ``kind`` names."""
    doc = _require_mapping(doc, where)
    if "kind" not in doc:
        raise ConfigurationError(f"{where}: missing field 'kind'")
    kind = doc["kind"]
    if not isinstance(kind, str) or kind not in _DATASET_SECTIONS:
        raise ConfigurationError(
            f"{where}.kind: expected synthetic, csv, or ratings, got {kind!r}")
    _reject_unknown(doc, ("kind", kind), where)
    if kind not in doc:
        raise ConfigurationError(f"{where}: missing section {kind!r} for kind {kind!r}")
    return _section(_DATASET_SECTIONS[kind], doc[kind], f"{where}.{kind}")


_SCALARS[Dataset] = _dataset


@dataclass(frozen=True)
class GridSpec:
    """Hyperparameter axes; the defaults are the full published grids."""

    learning_rate: tuple[PositiveFloat, ...] = GRID_LEARNING_RATE
    lam: tuple[NonNegativeFloat, ...] = GRID_WEIGHT
    eta: tuple[NonNegativeFloat, ...] = GRID_WEIGHT

    def __post_init__(self):
        check_fields(self)
        for name, axis in vars(self).items():
            if len(set(axis)) != len(axis):
                raise ConfigurationError(f"grid.{name}: duplicate entries")


@dataclass(frozen=True)
class TrainingSpec(RunBudget):
    """The run budget every grid cell shares, plus the ablation probe's settings."""

    probe_learning_rate: PositiveFloat = 0.05
    probe_steps: PositiveInt = 2000


@dataclass(frozen=True)
class ExperimentConfig:
    """The whole config document; ``split_spec`` is its ``split`` section."""

    dataset: Dataset
    methods: tuple[str, ...]
    seeds: tuple[NonNegativeInt, ...] = (0, 1, 2)
    split_spec: SplitSpec = SplitSpec(train=0.6, val=0.2, test=0.2, seed=0)
    grid: GridSpec = GridSpec()
    training: TrainingSpec = TrainingSpec()
    output: Directory | None = None

    def __post_init__(self):
        check_fields(self)
        if not self.methods:
            raise ConfigurationError("methods: the list is empty")
        for m in self.methods:
            if m not in METHODS:
                raise ConfigurationError(
                    f"methods: unknown method {m!r}; expected a subset of {list(METHODS)}"
                )
        if len(set(self.methods)) != len(self.methods):
            raise ConfigurationError("methods: duplicate entries")
        if not self.seeds:
            raise ConfigurationError("seeds: the list is empty")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigurationError("seeds: duplicate entries")


def build_config(doc: dict) -> ExperimentConfig:
    """Validate a parsed config document; errors name the offending field."""
    return _section(ExperimentConfig, doc, "config")


class _ConfigLoader(yaml.SafeLoader):
    """The safe loader, reading ``1e-3`` (an exponent, no dot) as a float, as YAML 1.2 does."""


_ConfigLoader.add_implicit_resolver("tag:yaml.org,2002:float", re.compile(
    r"^[-+]?(?:[0-9]+(?:\.[0-9]+)?|\.[0-9]+)[eE][-+]?[0-9]+$"), list("-+0123456789."))


def load_config(path) -> ExperimentConfig:
    """Parse the config document at ``path``."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from None
    try:
        doc = yaml.load(text, Loader=_ConfigLoader)
    except yaml.YAMLError as exc:
        raise ConfigurationError(f"{path}: not a valid config document: {exc}") from None
    if doc is None:
        raise ConfigurationError(f"{path}: config document is empty")
    return build_config(doc)


def config_to_dict(config: ExperimentConfig) -> dict:
    """JSON-ready echo of a config, written into run metadata."""
    return _echo(config)


# --------------------------------------------------------------------------
# Dataset preparation


class SealedMatrix:
    """Holds the test split away from training code.

    Training, grid search, and selection never see the matrix; ``open`` hands
    it out for final evaluation and records that it happened, so the pipeline
    can assert nothing touched the test rows earlier.
    """

    def __init__(self, dm: DomainMatrix):
        self._dm = dm
        self.opened = False

    def open(self) -> DomainMatrix:
        self.opened = True
        return self._dm


@dataclass
class PreparedData:
    """The standardized splits, plus the analytics row of the whole target
    matrix (``ANALYTICS_HEADER``), computed before anything trains so that
    data it cannot describe stops a run at once."""

    source: DomainMatrix
    train: DomainMatrix
    val: DomainMatrix
    sealed_test: SealedMatrix
    analytics: tuple


def load_domains(config: ExperimentConfig) -> tuple[DomainMatrix, DomainMatrix]:
    """Materialize the source and target matrices the config describes."""
    ds = config.dataset
    if isinstance(ds, SyntheticSpec):
        source, target, _ = generate_synthetic(ds)
        return source, target
    if isinstance(ds, CsvDataset):
        source = load_csv(ds.source, ds.schema, "source", ds.positive_value)
        target = load_csv(ds.target, ds.schema, "target", ds.positive_value)
        return source, target
    triples = load_ratings_file(ds.ratings)
    genres = load_genre_file(ds.genres)
    args = (triples, genres, ds.common_genres, ds.target_genres,
            ds.source_genres, ds.label_genre)
    return aggregate_ratings(*args, role="source"), aggregate_ratings(*args, role="target")


def prepare_data(config: ExperimentConfig) -> PreparedData:
    """Load both domains, then split and standardize the target. Its checks (hidden labels,
    both classes in the test rows, the whole target's analytics) run in that order, before
    anything trains; the whole target is dropped before its splits are standardized."""
    source, target = load_domains(config)
    if target.labels is None:
        raise ConfigurationError(
            "the target data carries no hidden labels, so validation selection "
            "and test evaluation are impossible")
    rows = split_rows(target, config.split_spec)
    # Only the class set of the test rows is read here, so a grid is never
    # trained for a split whose AUC cannot be computed.
    test_labels = target.labels[rows[2]]
    if len(np.unique(test_labels)) < 2:
        raise ConfigurationError(
            f"the test split holds only class {int(test_labels[0])}; "
            "test evaluation needs both classes")
    analytics = astuple(correlation_analytics(target))
    train, val, test = (target.select(idx) for idx in rows)
    del target
    source, train, val, test = standardize_splits(source, train, val, test)
    return PreparedData(source=source, train=train, val=val, sealed_test=SealedMatrix(test),
                        analytics=analytics)


# --------------------------------------------------------------------------
# Grid phase


@dataclass(frozen=True, order=True)
class GridCell:
    learning_rate: float
    lam: float
    eta: float


@dataclass(frozen=True)
class CellResult:
    method: str
    cell: GridCell
    seed: int
    status: str  # "ok" | "failed"
    val_accuracy: float
    error: str


def grid_cells(method: str, grid: GridSpec) -> list[GridCell]:
    """Every hyperparameter combination a method searches, sorted ascending."""
    etas = grid.eta if METHOD_TABLE[method].searches_eta else (0.0,)
    cells = [GridCell(lr, lam, eta)
             for lr, lam, eta in product(grid.learning_rate, grid.lam, etas)]
    return sorted(cells)


def _cell_config(cell: GridCell, seed: int, training: TrainingSpec) -> TrainConfig:
    return TrainConfig(learning_rate=cell.learning_rate, lam=cell.lam, eta=cell.eta, seed=seed,
                       **dict(training.budget))


@np.errstate(over="ignore", invalid="ignore")   # a diverging cell fails its finite checks
def train_group(method: str, source: DomainMatrix, train: DomainMatrix, val: DomainMatrix,
                configs: list[TrainConfig]) -> list:
    """Train one stack of cells the way the method-table entry says: each
    cell's artifacts, or the error that cell failed with."""
    return METHOD_TABLE[method].group(source, train, val, configs)


# The most (cell, seed) runs one stack holds. Past a few dozen cells a stack's
# cost per cell-step stops falling, and smaller stacks keep workers balanced.
STACK_CAP = 64


def _groups(config: ExperimentConfig) -> list[tuple]:
    """The grid's work items, ``(method, ((cell, seed), ...), training)``: each
    method's cells times seeds in (cell, seed) order, cut into stacks of at
    most ``STACK_CAP``. A cell's bits do not depend on its stack mates, so the
    cut changes wall time and memory, never output."""
    items = []
    for method in config.methods:
        runs = tuple(product(grid_cells(method, config.grid), sorted(config.seeds)))
        items += [(method, runs[i:i + STACK_CAP], config.training)
                  for i in range(0, len(runs), STACK_CAP)]
    return items


# (source, train, val) in a pool worker process, set once by the pool initializer.
_worker_data: tuple | None = None


def _set_worker_data(data: tuple) -> None:
    global _worker_data
    _worker_data = data


def _group_worker(item, data: tuple | None = None) -> tuple[list[tuple], float]:
    """Train one work item (see ``_groups``) as one stack: each run's result, an
    ok one with its artifacts, and the stack's wall seconds."""
    start = time.perf_counter()
    method, runs, training = item
    source, train, val = data or _worker_data
    try:
        outcomes = train_group(method, source, train, val,
                               [_cell_config(cell, seed, training) for cell, seed in runs])
    except Exception as exc:  # a failed stack, expected or not, must not lose the grid
        outcomes = [exc] * len(runs)
    results = [_cell_result(method, cell, seed, outcome, val)
               for (cell, seed), outcome in zip(runs, outcomes)]
    return results, time.perf_counter() - start


def _seeds(runs) -> str:
    return ",".join(map(str, sorted({seed for _, seed in runs})))


@np.errstate(over="ignore", invalid="ignore")
def _cell_result(method, cell, seed, outcome, val) -> tuple[CellResult, TrainedArtifacts | None]:
    if not isinstance(outcome, Exception):
        try:
            val_acc = accuracy(predict(outcome, val), val.labels)
            return CellResult(method, cell, seed, "ok", val_acc, ""), outcome
        except Exception as exc:  # a failed cell, expected or not, must not lose the grid
            outcome = exc
    expected = isinstance(outcome, PuhdaError)
    error = str(outcome) if expected else f"{type(outcome).__name__}: {outcome}"
    logger.warning("%s %s seed %d failed: %s", method, cell, seed, error,
                   exc_info=None if expected else outcome)
    return CellResult(method, cell, seed, "failed", float("nan"), error), None


WORKER_DIED = "worker process died"


def _pool_outputs(items, shared: tuple, workers: int):
    """Each stack's ``_group_worker`` output, in item order, from a pool of ``workers``.
    Once a worker dies, every stack not yet finished reruns alone in a fresh
    one-worker pool; a stack that kills that worker too fails with WORKER_DIED."""
    from concurrent.futures import ProcessPoolExecutor   # slow to import; only --jobs pays
    from concurrent.futures.process import BrokenProcessPool

    def pool(n):
        return ProcessPoolExecutor(max_workers=n, initializer=_set_worker_data, initargs=(shared,))

    def alone(item):
        start = time.perf_counter()
        with pool(1) as single:
            try:
                return single.submit(_group_worker, item).result()
            except BrokenProcessPool:
                method, runs, _ = item
                logger.warning("%s seeds %s: %s", method, _seeds(runs), WORKER_DIED)
                return [(CellResult(method, cell, seed, "failed", float("nan"), WORKER_DIED), None)
                        for cell, seed in runs], time.perf_counter() - start

    with pool(workers) as many:
        futures = deque(many.submit(_group_worker, item) for item in items)
        for item in items:
            try:   # a read future is dropped, so only the fold keeps a stack's artifacts
                output = futures.popleft().result()
            except BrokenProcessPool:
                output = alone(item)
            yield output


def _logged(items, outputs):
    """Each stack's cell results as it arrives, after one INFO line saying how it went."""
    for number, ((method, runs, _), (results, seconds)) in enumerate(zip(items, outputs), 1):
        ok = sum(result.status == "ok" for result, _ in results)
        logger.info("stack %d/%d: %s seeds %s, %d cells ok, %d failed, %.2f s", number,
                    len(items), method, _seeds(runs), ok, len(results) - ok, seconds)
        yield results


@dataclass(frozen=True)
class Selection:
    method: str
    cell: GridCell | None
    mean_val_accuracy: float
    status: str  # "ok" | "failed"


def _select(config: ExperimentConfig, outcomes):
    """The selection rule, as one fold over ``(CellResult, payload)`` pairs in
    order: method, then ascending cell, then seed.

    A cell is complete when every seed is present and ok. A later complete
    cell replaces a method's kept one only with a strictly higher mean
    validation accuracy, so ties go to the smallest learning rate, then lam,
    then eta. Only one cell is pending at a time. Returns every result, each
    method's selection, and the selected cells' payloads by (method, seed).
    """
    results, best, kept = [], {}, {}
    for (method, cell), group in groupby(outcomes, key=lambda o: (o[0].method, o[0].cell)):
        group = list(group)
        results += [r for r, _ in group]
        if len(group) != len(config.seeds) or any(r.status != "ok" for r, _ in group):
            continue
        mean = float(np.mean([r.val_accuracy for r, _ in group]))
        if method not in best or mean > best[method].mean_val_accuracy:
            best[method] = Selection(method, cell, mean, "ok")
            kept.update(((method, r.seed), payload) for r, payload in group)
    failed = {m: Selection(m, None, float("nan"), "failed") for m in config.methods}
    return results, {m: best.get(m, failed[m]) for m in config.methods}, kept


def run_grid(config: ExperimentConfig, data: PreparedData, jobs: int = 1):
    """Train every method x cell x seed once, in the stacks ``_groups`` cuts;
    failures are recorded, not raised.

    Returns every cell result in (method, cell, seed) order, each method's
    selection, and the selected cells' artifacts by (method, seed). Stacks
    are spread over ``jobs`` processes (never more than there are stacks).
    Each stack is a slice of that order, so it is folded as it arrives and
    only each method's best cell keeps its artifacts after that.
    """
    items = _groups(config)
    shared = (data.source, data.train, data.val)
    workers = min(jobs, len(items))
    if workers <= 1:
        outputs = (_group_worker(item, shared) for item in items)
    else:
        outputs = _pool_outputs(items, shared, workers)
    return _select(config, chain.from_iterable(_logged(items, outputs)))


def evaluate_on_test(
    config: ExperimentConfig,
    data: PreparedData,
    artifacts: dict[tuple[str, int], TrainedArtifacts],
) -> dict[str, EvalReport]:
    """Open the sealed test split (exactly once) and score every method."""
    if data.sealed_test.opened:
        raise ConfigurationError("the test split was already opened before evaluation")
    test = data.sealed_test.open()
    reports = {}
    for method in config.methods:
        accs, aucs = [], []
        for seed in config.seeds:
            art = artifacts.get((method, seed))
            if art is None:
                break
            probs = predict(art, test)
            accs.append(accuracy(probs, test.labels))
            aucs.append(auc(probs[:, 1], test.labels))
        if accs:
            reports[method] = EvalReport(method, tuple(accs), tuple(aucs))
    return reports


# --------------------------------------------------------------------------
# Report files


def _write_aligned(path: Path, header: tuple[str, ...], rows) -> None:
    """Space-aligned text table for humans: the delimited file's cells, except
    that a float shows four decimals."""
    cells = [list(header)] + [
        [format_cell(v) if v is None or isinstance(v, (str, int)) else f"{float(v):.4f}"
         for v in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(header))]
    lines = ["  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() for row in cells]
    lines.insert(1, "  ".join("-" * w for w in widths))
    path.write_text("\n".join(lines) + "\n")


def _write_checkpoint(path: Path, artifacts: TrainedArtifacts) -> None:
    save_checkpoint(path, artifacts.method, artifacts.models())


ANALYTICS_HEADER = ("corr_tar_lab", "corr_com_lab", "r_tar_com", "corr_tar_sou")


def _write_standard_reports(
    out: Path,
    config: ExperimentConfig,
    data: PreparedData,
    results: list[CellResult],
    selections: dict[str, Selection],
    reports: dict[str, EvalReport],
) -> None:
    """The reports of ``run`` and ``ablate``, replacing any telemetry and
    checkpoint trees an earlier command left, which this selection does not own."""
    for tree in (out / "telemetry", out / "checkpoints"):
        if tree.is_dir():
            shutil.rmtree(tree)
    write_table(
        out / "grid.csv",
        ("method", "learning_rate", "lam", "eta", "seed", "status",
         "val_accuracy", "error"),
        [(r.method, r.cell.learning_rate, r.cell.lam, r.cell.eta, r.seed,
          r.status, None if r.status != "ok" else r.val_accuracy, r.error)
         for r in results],
    )
    write_table(
        out / "selection.csv",
        ("method", "learning_rate", "lam", "eta", "mean_val_accuracy", "status"),
        [(m, *(("", "", "") if s.cell is None else
               (s.cell.learning_rate, s.cell.lam, s.cell.eta)),
          None if s.status != "ok" else s.mean_val_accuracy, s.status)
         for m, s in ((m, selections[m]) for m in config.methods)],
    )
    write_table(
        out / "eval.csv",
        ("method", "seed", "accuracy", "auc"),
        [(m, seed, acc, auc_val)
         for m in config.methods if m in reports
         for seed, acc, auc_val in zip(
             config.seeds, reports[m].seed_accuracies, reports[m].seed_aucs)],
    )
    write_table(out / "analytics.csv", ANALYTICS_HEADER, [data.analytics])

    comparison_rows = []
    for m in config.methods:
        sel = selections[m]
        rep = reports.get(m)
        comparison_rows.append((
            m,
            *(("", "", "") if sel.cell is None else
              map(format_cell, (sel.cell.learning_rate, sel.cell.lam, sel.cell.eta))),
            None if sel.status != "ok" else sel.mean_val_accuracy,
            None if rep is None else rep.accuracy,
            None if rep is None else rep.auc,
        ))
    _write_aligned(
        out / "comparison.txt",
        ("method", "learning_rate", "lam", "eta", "mean_val", "test_accuracy", "test_auc"),
        comparison_rows,
    )

    meta = {"version": __version__, "config": config_to_dict(config)}
    (out / "run_meta.json").write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")


def _make_dir(path: Path) -> Path:
    """Create an output directory, parents included; a path that cannot be one
    is a configuration error naming it."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(
            f"{path}: cannot create the output directory: {exc.strerror or exc}") from None
    return path


def _resolve_out(config: ExperimentConfig, out_dir) -> Path:
    """The output directory, created: ``out_dir``, then the environment
    variable, then the config's ``output`` field."""
    out = out_dir if out_dir is not None else os.environ.get(OUTPUT_ENV_VAR) or config.output
    if out is None:
        raise ConfigurationError(
            "no output directory: set output in the config, pass --out, "
            f"or set {OUTPUT_ENV_VAR}")
    return _make_dir(Path(out))


# --------------------------------------------------------------------------
# Entry points


def run_experiment(config: ExperimentConfig, out_dir=None, jobs: int = 1) -> Path:
    """Full protocol: grid search and selection, test evaluation, reports; the
    reports are written before the per-seed telemetry and checkpoints, which
    replace any an earlier run left in the output directory."""
    out = _resolve_out(config, out_dir)

    data = prepare_data(config)
    results, selections, artifacts = run_grid(config, data, jobs=jobs)
    reports = evaluate_on_test(config, data, artifacts)
    _write_standard_reports(out, config, data, results, selections, reports)

    for (method, seed), art in sorted(artifacts.items(), key=lambda kv: kv[0]):
        art.trace.write(out / "telemetry" / method / f"seed-{seed}.csv")
        _write_checkpoint(out / "checkpoints" / method / f"seed-{seed}.json", art)
    return out


def _read_rows(path: Path, columns) -> list[tuple[int, dict]]:
    """Numbered data rows keyed by header name; the header must hold ``columns``."""
    header, rows = read_table(path)
    column_positions(path, header, columns)
    return [(i, dict(zip(header, row))) for i, row in rows]


def _read_overrides(path: Path) -> dict[str, float]:
    """Method-accuracy pairs under an optional ``method,accuracy`` header; values
    above 1 are read as percentages. An empty file holds no overrides."""
    if path.is_file() and path.stat().st_size == 0:
        return {}
    header, rows = read_table(path)
    if header[:2] != ["method", "accuracy"]:
        rows = chain([(0, header)], rows)
    overrides = {}
    for i, row in rows:
        parts = [p.strip() for p in row]
        if not any(parts):
            continue
        if len(parts) != 2:
            raise DataError(f"{path}: line {i + 1}: expected method,accuracy")
        try:
            value = float(parts[1])
        except ValueError:
            raise DataError(
                f"{path}: line {i + 1}: cannot parse accuracy {parts[1]!r}") from None
        if value > 1.0:
            value /= 100.0
        if not 0.0 <= value <= 1.0:
            raise DataError(f"{path}: line {i + 1}: accuracy {parts[1]} out of range")
        overrides[parts[0]] = value
    return overrides


ANALYSIS_METHODS = ("COM_P", "DIST", "PADA_S")


def analyze_experiment(exp_dir, overrides_path=None, out_dir=None) -> Path:
    """Feature analytics plus improvement ratios from a completed experiment.

    Mean test accuracy per method comes from the experiment's evaluation
    file unless an override file replaces it. The output is one table row:
    the correlation analytics next to the two improvement ratios.
    """
    exp_dir = Path(exp_dir)
    eval_path = exp_dir / "eval.csv"
    if not eval_path.exists():
        raise ConfigurationError(f"{exp_dir} is not a completed experiment: missing eval.csv")
    overrides = {} if overrides_path is None else _read_overrides(Path(overrides_path))

    means: dict[str, float] = {}
    by_method: dict[str, list[float]] = {}
    for i, row in _read_rows(eval_path, ("method", "accuracy")):
        by_method.setdefault(row["method"], []).append(
            parse_float(eval_path, i, "accuracy", row["accuracy"]))
    for method, accs in by_method.items():
        means[method] = float(np.mean(accs))
    means.update(overrides)

    for method in ANALYSIS_METHODS:
        if method not in means:
            raise ConfigurationError(
                f"the analysis needs {method} results, but the experiment has none")

    p_dist, p_pada_s = improvement_metrics(
        means["COM_P"], means["DIST"], means["PADA_S"])

    analytics_path = exp_dir / "analytics.csv"
    analytics = {name: None for name in ANALYTICS_HEADER}
    if analytics_path.exists():
        rows = _read_rows(analytics_path, ANALYTICS_HEADER)
        if rows:
            i, row = rows[0]
            analytics = {k: parse_float(analytics_path, i, k, row[k]) if row[k] else None
                         for k in ANALYTICS_HEADER}

    out = exp_dir if out_dir is None else _make_dir(Path(out_dir))
    header = ANALYTICS_HEADER + ("acc_com", "acc_dist", "acc_pada_s", "p_dist", "p_pada_s")
    row = tuple(analytics[name] for name in ANALYTICS_HEADER) + (
        means["COM_P"], means["DIST"], means["PADA_S"], p_dist, p_pada_s)
    write_table(out / "analysis.csv", header, [row])
    _write_aligned(out / "analysis.txt", header, [row])
    return out / "analysis.csv"


ABLATION_SPACES = ("common", "PADA", "PADA_F")


def ablate_experiment(config: ExperimentConfig, out_dir=None, jobs: int = 1) -> Path:
    """Alignment-quality study: how separable do the domains stay per space.

    For the raw common space and for each trained transform's aligned space,
    a fresh probe discriminator is trained to tell source rows from the true
    positive and true negative target training rows; its held-out accuracies
    (and their gap) land in a per-seed table with an average row per space.
    """
    missing = [m for m in ("PADA", "PADA_F") if m not in config.methods]
    if missing:
        raise ConfigurationError(f"the ablation study needs {missing[0]} in methods")
    out = _resolve_out(config, out_dir)

    data = prepare_data(config)
    train_dm = data.train
    if len(np.unique(train_dm.labels)) < 2:
        raise ConfigurationError("ablation needs both classes in the target training rows")
    results, selections, artifacts = run_grid(config, data, jobs=jobs)
    for m in ("PADA", "PADA_F"):
        if selections[m].status != "ok":
            raise ConfigurationError(f"every {m} grid cell failed; cannot ablate")
    reports = evaluate_on_test(config, data, artifacts)

    pos_mask = train_dm.labels == 1
    probe_cfg = TrainConfig(
        learning_rate=config.training.probe_learning_rate,
        steps=config.training.probe_steps,
        batch_size=config.training.batch_size,
        seed=config.split_spec.seed,
    )

    def space_rows(space: str, seed: int):
        if space == "common":
            src, tgt = data.source.common, train_dm.common
        else:
            src = data.source.features()
            tgt = align_features(artifacts[(space, seed)].models()["F"], train_dm)
        return src, tgt[pos_mask], tgt[~pos_mask]

    rows = []
    averages = []
    for space in ABLATION_SPACES:
        per_seed = []
        rep = reports.get("COM_P" if space == "common" else space)
        for seed_idx, seed in enumerate(config.seeds):
            # the rows live only for the call: a space's rows are freed before the next's
            with np.errstate(over="ignore", invalid="ignore"):
                acc_pp, acc_pn = discrimination_accuracy(
                    *space_rows(space, seed), config.split_spec, probe_cfg)
            method_acc = None if rep is None else rep.seed_accuracies[seed_idx]
            rows.append((space, seed, acc_pp, acc_pn, acc_pn - acc_pp, method_acc))
            per_seed.append((acc_pp, acc_pn, acc_pn - acc_pp, method_acc))
        mean = [
            float(np.mean([r[i] for r in per_seed]))
            if all(r[i] is not None for r in per_seed) else None
            for i in range(4)
        ]
        averages.append((space, "average", *mean))

    header = ("space", "seed", "acc_pp", "acc_pn", "gap", "method_accuracy")
    write_table(out / "ablation.csv", header, rows + averages)
    _write_aligned(out / "ablation.txt", header, rows + averages)
    _write_standard_reports(out, config, data, results, selections, reports)
    return out


def generate_files(config: ExperimentConfig, out_dir=None) -> Path:
    """Write a synthetic dataset to domain-matrix files."""
    if not isinstance(config.dataset, SyntheticSpec):
        raise ConfigurationError("generate needs dataset.kind = synthetic")
    out = _resolve_out(config, out_dir)
    source, target, oracle = generate_synthetic(config.dataset)
    return _save_domains(out, source, target, "generation_meta.json",
                         {"oracle_accuracy": oracle, "spec": asdict(config.dataset)})


def aggregate_files(config: ExperimentConfig, out_dir=None) -> Path:
    """Aggregate rating triples into saved source and target matrices."""
    if not isinstance(config.dataset, RatingsDataset):
        raise ConfigurationError("aggregate needs dataset.kind = ratings")
    out = _resolve_out(config, out_dir)
    source, target = load_domains(config)
    return _save_domains(out, source, target, "aggregation_meta.json",
                         {"label_genre": config.dataset.label_genre})


def _save_domains(out: Path, source, target, meta_name: str, meta: dict) -> Path:
    """Both matrices as domain-matrix files, plus a metadata document."""
    save_domain_matrix(source, out / "source.csv")
    save_domain_matrix(target, out / "target.csv")
    meta = {"version": __version__, "rows": {"source": source.n, "target": target.n}, **meta}
    (out / meta_name).write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")
    return out
