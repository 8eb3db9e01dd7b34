"""Config-driven experiment pipeline.

A single structured config document describes the dataset, the method list,
the hyperparameter grids, the seeds, and the split. Running an experiment
trains every method over its grid, selects one cell per method by mean
validation accuracy, retrains the selected cell per seed for telemetry and
checkpoints, and evaluates once on the held-out test split. Grid cells and
seeds are independent work items, so they can run in parallel; results are
merged in a fixed order, and every report is written with round-trip float
formatting and no timestamps, making reruns byte-identical.

The test split is kept inside a sealed handle that training and selection
code never receives; it is opened exactly once, after selection.
"""

from __future__ import annotations

import csv
import json
import logging
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace
from itertools import product
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .data import (
    DomainMatrix,
    FeatureSchema,
    SplitSpec,
    SyntheticSpec,
    aggregate_ratings,
    generate_synthetic,
    load_csv,
    load_genre_file,
    load_ratings_file,
    save_domain_matrix,
    split,
    standardize_splits,
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
from .trainers import (
    GRID_LEARNING_RATE,
    GRID_WEIGHT,
    TrainConfig,
    TrainedArtifacts,
    align_features,
    predict,
    train_com_p,
    train_dist,
    train_dsft_p,
    train_pada,
    train_pada_f,
    train_pada_s,
)

logger = logging.getLogger(__name__)

METHODS = ("COM_P", "DIST", "DSFT_P_linear", "PADA", "PADA_S", "PADA_F")
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


def _get(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise ConfigurationError(f"{where}: missing field {key!r}")
    return mapping[key]


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(f"{where}: expected a number, got {value!r}")
    return float(value)


def _integer(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(f"{where}: expected an integer, got {value!r}")
    return value


def _string_list(value, where: str) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ConfigurationError(f"{where}: expected a list of names")
    return tuple(value)


@dataclass(frozen=True)
class CsvDataset:
    source: Path
    target: Path
    schema: FeatureSchema
    positive_value: str = "1"


@dataclass(frozen=True)
class RatingsDataset:
    ratings: Path
    genres: Path
    common_genres: tuple[str, ...]
    source_genres: tuple[str, ...]
    target_genres: tuple[str, ...]
    label_genre: str


@dataclass(frozen=True)
class GridSpec:
    """Hyperparameter axes; the defaults are the full published grids."""

    learning_rate: tuple[float, ...] = GRID_LEARNING_RATE
    lam: tuple[float, ...] = GRID_WEIGHT
    eta: tuple[float, ...] = GRID_WEIGHT

    def __post_init__(self):
        for name, axis in (("learning_rate", self.learning_rate),
                           ("lam", self.lam), ("eta", self.eta)):
            if not axis:
                raise ConfigurationError(f"grid.{name}: axis is empty")
            if any(v <= 0 for v in axis) and name == "learning_rate":
                raise ConfigurationError(f"grid.{name}: values must be positive")
            if any(v < 0 for v in axis):
                raise ConfigurationError(f"grid.{name}: values must be >= 0")


@dataclass(frozen=True)
class TrainingSpec:
    """Fixed per-run budget shared by every grid cell."""

    steps: int = 5000
    batch_size: int = 128
    max_soft_rounds: int = 5
    val_patience: int = 1
    gamma_mmd: float = 1.0
    probe_learning_rate: float = 0.05
    probe_steps: int = 2000

    def __post_init__(self):
        if self.steps < 1 or self.batch_size < 1 or self.probe_steps < 1:
            raise ConfigurationError("training: steps and batch sizes must be >= 1")
        if self.probe_learning_rate <= 0:
            raise ConfigurationError("training.probe_learning_rate: must be positive")


@dataclass(frozen=True)
class ExperimentConfig:
    dataset_kind: str
    synthetic: SyntheticSpec | None
    csv: CsvDataset | None
    ratings: RatingsDataset | None
    methods: tuple[str, ...]
    seeds: tuple[int, ...]
    split_spec: SplitSpec
    grid: GridSpec
    training: TrainingSpec
    output: Path | None

    def __post_init__(self):
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
        if any(s < 0 for s in self.seeds):
            raise ConfigurationError("seeds: values must be >= 0")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigurationError("seeds: duplicate entries")


def _parse_schema(doc: dict, where: str) -> FeatureSchema:
    doc = _require_mapping(doc, where)
    _reject_unknown(doc, ("common", "source_specific", "target_specific", "label"), where)
    label = doc.get("label")
    if label is not None and not isinstance(label, str):
        raise ConfigurationError(f"{where}.label: expected a column name")
    return FeatureSchema(
        common=_string_list(_get(doc, "common", where), f"{where}.common"),
        source_specific=_string_list(
            _get(doc, "source_specific", where), f"{where}.source_specific"),
        target_specific=_string_list(
            _get(doc, "target_specific", where), f"{where}.target_specific"),
        label_column=label,
    )


_SYNTHETIC_FIELDS = {
    "common": "c",
    "source_specific": "s",
    "target_specific": "t",
    "n_source": "n_source",
    "n_target": "n_target",
    "positive_ratio": "positive_ratio",
    "signal_common": "signal_common",
    "signal_source": "signal_source",
    "signal_target": "signal_target",
    "coupling": "coupling",
    "noise_scale": "noise_scale",
    "label_separation": "label_separation",
    "latent_noise_dim": "latent_noise_dim",
    "seed": "seed",
}


def _parse_synthetic(doc: dict, where: str) -> SyntheticSpec:
    doc = _require_mapping(doc, where)
    _reject_unknown(doc, _SYNTHETIC_FIELDS, where)
    kwargs = {}
    for field_name, spec_name in _SYNTHETIC_FIELDS.items():
        if field_name in doc:
            value = doc[field_name]
            loc = f"{where}.{field_name}"
            if spec_name in ("c", "s", "t", "n_source", "n_target",
                             "latent_noise_dim", "seed"):
                kwargs[spec_name] = _integer(value, loc)
            else:
                kwargs[spec_name] = _number(value, loc)
    for required in ("common", "source_specific", "target_specific",
                     "n_source", "n_target"):
        if required not in doc:
            raise ConfigurationError(f"{where}: missing field {required!r}")
    return SyntheticSpec(**kwargs)


def _parse_dataset(doc: dict) -> tuple[str, SyntheticSpec | None, CsvDataset | None, RatingsDataset | None]:
    doc = _require_mapping(doc, "dataset")
    _reject_unknown(doc, ("kind", "synthetic", "csv", "ratings"), "dataset")
    kind = _get(doc, "kind", "dataset")
    if kind not in ("synthetic", "csv", "ratings"):
        raise ConfigurationError(
            f"dataset.kind: expected synthetic, csv, or ratings, got {kind!r}")
    if kind not in doc:
        raise ConfigurationError(f"dataset: missing section {kind!r} for kind {kind!r}")

    synthetic = csv_ds = ratings = None
    if kind == "synthetic":
        synthetic = _parse_synthetic(doc["synthetic"], "dataset.synthetic")
    elif kind == "csv":
        section = _require_mapping(doc["csv"], "dataset.csv")
        _reject_unknown(section, ("source", "target", "schema", "positive_value"),
                        "dataset.csv")
        csv_ds = CsvDataset(
            source=Path(_get(section, "source", "dataset.csv")),
            target=Path(_get(section, "target", "dataset.csv")),
            schema=_parse_schema(_get(section, "schema", "dataset.csv"),
                                 "dataset.csv.schema"),
            positive_value=str(section.get("positive_value", "1")),
        )
    else:
        section = _require_mapping(doc["ratings"], "dataset.ratings")
        _reject_unknown(
            section,
            ("ratings", "genres", "common_genres", "source_genres",
             "target_genres", "label_genre"),
            "dataset.ratings",
        )
        label_genre = _get(section, "label_genre", "dataset.ratings")
        if not isinstance(label_genre, str):
            raise ConfigurationError("dataset.ratings.label_genre: expected a genre name")
        ratings = RatingsDataset(
            ratings=Path(_get(section, "ratings", "dataset.ratings")),
            genres=Path(_get(section, "genres", "dataset.ratings")),
            common_genres=_string_list(
                _get(section, "common_genres", "dataset.ratings"),
                "dataset.ratings.common_genres"),
            source_genres=_string_list(
                _get(section, "source_genres", "dataset.ratings"),
                "dataset.ratings.source_genres"),
            target_genres=_string_list(
                _get(section, "target_genres", "dataset.ratings"),
                "dataset.ratings.target_genres"),
            label_genre=label_genre,
        )
    return kind, synthetic, csv_ds, ratings


def _parse_grid(doc: dict | None) -> GridSpec:
    if doc is None:
        return GridSpec()
    doc = _require_mapping(doc, "grid")
    _reject_unknown(doc, ("learning_rate", "lam", "eta"), "grid")

    def axis(name, default):
        if name not in doc:
            return default
        values = doc[name]
        if not isinstance(values, list) or not values:
            raise ConfigurationError(f"grid.{name}: expected a non-empty list of numbers")
        return tuple(_number(v, f"grid.{name}") for v in values)

    return GridSpec(
        learning_rate=axis("learning_rate", GRID_LEARNING_RATE),
        lam=axis("lam", GRID_WEIGHT),
        eta=axis("eta", GRID_WEIGHT),
    )


def _parse_training(doc: dict | None) -> TrainingSpec:
    if doc is None:
        return TrainingSpec()
    doc = _require_mapping(doc, "training")
    allowed = ("steps", "batch_size", "max_soft_rounds", "val_patience",
               "gamma_mmd", "probe_learning_rate", "probe_steps")
    _reject_unknown(doc, allowed, "training")
    kwargs = {}
    for name in allowed:
        if name in doc:
            loc = f"training.{name}"
            if name in ("gamma_mmd", "probe_learning_rate"):
                kwargs[name] = _number(doc[name], loc)
            else:
                kwargs[name] = _integer(doc[name], loc)
    return TrainingSpec(**kwargs)


def _parse_split(doc: dict | None) -> SplitSpec:
    if doc is None:
        return SplitSpec(train=0.6, val=0.2, test=0.2, seed=0)
    doc = _require_mapping(doc, "split")
    _reject_unknown(doc, ("train", "val", "test", "seed"), "split")
    return SplitSpec(
        train=_number(_get(doc, "train", "split"), "split.train"),
        val=_number(_get(doc, "val", "split"), "split.val"),
        test=_number(_get(doc, "test", "split"), "split.test"),
        seed=_integer(doc.get("seed", 0), "split.seed"),
    )


def build_config(doc: dict) -> ExperimentConfig:
    """Validate a parsed config document; errors name the offending field."""
    doc = _require_mapping(doc, "config")
    _reject_unknown(
        doc, ("dataset", "methods", "seeds", "split", "grid", "training", "output"),
        "config")
    kind, synthetic, csv_ds, ratings = _parse_dataset(_get(doc, "dataset", "config"))
    methods = _string_list(_get(doc, "methods", "config"), "methods")
    seeds_doc = doc.get("seeds", [0, 1, 2])
    if not isinstance(seeds_doc, list):
        raise ConfigurationError("seeds: expected a list of integers")
    seeds = tuple(_integer(s, "seeds") for s in seeds_doc)
    output = doc.get("output")
    if output is not None and not isinstance(output, str):
        raise ConfigurationError("output: expected a directory path")
    return ExperimentConfig(
        dataset_kind=kind,
        synthetic=synthetic,
        csv=csv_ds,
        ratings=ratings,
        methods=methods,
        seeds=seeds,
        split_spec=_parse_split(doc.get("split")),
        grid=_parse_grid(doc.get("grid")),
        training=_parse_training(doc.get("training")),
        output=None if output is None else Path(output),
    )


def load_config(path) -> ExperimentConfig:
    """Parse the config document at ``path``."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from None
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigurationError(f"{path}: not a valid config document: {exc}") from None
    if doc is None:
        raise ConfigurationError(f"{path}: config document is empty")
    return build_config(doc)


def config_to_dict(config: ExperimentConfig) -> dict:
    """JSON-ready echo of a config, written into run metadata."""
    doc: dict = {
        "dataset": {"kind": config.dataset_kind},
        "methods": list(config.methods),
        "seeds": list(config.seeds),
        "split": {
            "train": config.split_spec.train,
            "val": config.split_spec.val,
            "test": config.split_spec.test,
            "seed": config.split_spec.seed,
        },
        "grid": {
            "learning_rate": list(config.grid.learning_rate),
            "lam": list(config.grid.lam),
            "eta": list(config.grid.eta),
        },
        "training": asdict(config.training),
    }
    if config.synthetic is not None:
        # Echo with config-grammar field names so the document parses back.
        doc["dataset"]["synthetic"] = {
            field_name: getattr(config.synthetic, spec_name)
            for field_name, spec_name in _SYNTHETIC_FIELDS.items()
        }
    if config.csv is not None:
        schema = config.csv.schema
        doc["dataset"]["csv"] = {
            "source": str(config.csv.source),
            "target": str(config.csv.target),
            "positive_value": config.csv.positive_value,
            "schema": {
                "common": list(schema.common),
                "source_specific": list(schema.source_specific),
                "target_specific": list(schema.target_specific),
                "label": schema.label_column,
            },
        }
    if config.ratings is not None:
        doc["dataset"]["ratings"] = {
            "ratings": str(config.ratings.ratings),
            "genres": str(config.ratings.genres),
            "common_genres": list(config.ratings.common_genres),
            "source_genres": list(config.ratings.source_genres),
            "target_genres": list(config.ratings.target_genres),
            "label_genre": config.ratings.label_genre,
        }
    if config.output is not None:
        doc["output"] = str(config.output)
    return doc


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
    source: DomainMatrix
    train: DomainMatrix
    val: DomainMatrix
    sealed_test: SealedMatrix
    target_full: DomainMatrix


def load_domains(config: ExperimentConfig) -> tuple[DomainMatrix, DomainMatrix]:
    """Materialize the source and target matrices the config describes."""
    if config.dataset_kind == "synthetic":
        source, target, _ = generate_synthetic(config.synthetic)
        return source, target
    if config.dataset_kind == "csv":
        ds = config.csv
        source = load_csv(ds.source, ds.schema, "source", ds.positive_value)
        target = load_csv(ds.target, ds.schema, "target", ds.positive_value)
        return source, target
    ds = config.ratings
    triples = load_ratings_file(ds.ratings)
    genres = load_genre_file(ds.genres)
    args = (triples, genres, ds.common_genres, ds.target_genres,
            ds.source_genres, ds.label_genre)
    return aggregate_ratings(*args, role="source"), aggregate_ratings(*args, role="target")


def prepare_data(config: ExperimentConfig) -> PreparedData:
    source, target = load_domains(config)
    if target.labels is None:
        raise ConfigurationError(
            "the target data carries no hidden labels, so validation selection "
            "and test evaluation are impossible")
    train, val, test = split(target, config.split_spec)
    source, train, val, test = standardize_splits(source, train, val, test)
    return PreparedData(
        source=source, train=train, val=val,
        sealed_test=SealedMatrix(test), target_full=target,
    )


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
    etas = grid.eta if method == "PADA_S" else (0.0,)
    cells = [GridCell(lr, lam, eta)
             for lr, lam, eta in product(grid.learning_rate, grid.lam, etas)]
    return sorted(cells)


def _cell_config(cell: GridCell, seed: int, training: TrainingSpec) -> TrainConfig:
    return TrainConfig(
        learning_rate=cell.learning_rate,
        lam=cell.lam,
        eta=cell.eta,
        steps=training.steps,
        batch_size=training.batch_size,
        seed=seed,
        max_soft_rounds=training.max_soft_rounds,
        val_patience=training.val_patience,
        gamma_mmd=training.gamma_mmd,
    )


def train_method(
    method: str,
    source: DomainMatrix,
    train: DomainMatrix,
    val: DomainMatrix,
    config: TrainConfig,
) -> TrainedArtifacts:
    """Train one method end to end; the distillation baseline trains its
    common-features teacher inside the same cell."""
    if method == "COM_P":
        return train_com_p(source, train, config)
    if method == "PADA":
        return train_pada(source, train, config)
    if method == "PADA_F":
        return train_pada_f(source, train, config)
    if method == "PADA_S":
        return train_pada_s(source, train, config, val_target=val)
    if method == "DSFT_P_linear":
        return train_dsft_p(source, train, config)
    if method == "DIST":
        teacher = train_com_p(source, train, config)
        return train_dist(train, teacher.classifier, config)
    raise ConfigurationError(f"unknown method {method!r}")


def _grid_worker(payload) -> CellResult:
    method, cell, seed, training, source, train, val = payload
    try:
        art = train_method(method, source, train, val, _cell_config(cell, seed, training))
        val_acc = accuracy(predict(art, val), val.labels)
        return CellResult(method, cell, seed, "ok", val_acc, "")
    except Exception as exc:  # a failed cell, expected or not, must not lose the grid
        expected = isinstance(exc, PuhdaError)
        error = str(exc) if expected else f"{type(exc).__name__}: {exc}"
        logger.warning("%s %s seed %d failed: %s", method, cell, seed, error,
                       exc_info=not expected)
        return CellResult(method, cell, seed, "failed", float("nan"), error)


def run_grid(config: ExperimentConfig, data: PreparedData, jobs: int = 1) -> list[CellResult]:
    """Train every method x cell x seed; failures are recorded, not raised."""
    items = [
        (method, cell, seed, config.training, data.source, data.train, data.val)
        for method in config.methods
        for cell in grid_cells(method, config.grid)
        for seed in config.seeds
    ]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_grid_worker, items))
    else:
        results = [_grid_worker(item) for item in items]
    order = {m: i for i, m in enumerate(config.methods)}
    return sorted(results, key=lambda r: (order[r.method], r.cell, r.seed))


@dataclass(frozen=True)
class Selection:
    method: str
    cell: GridCell | None
    mean_val_accuracy: float
    status: str  # "ok" | "failed"


def select_cells(config: ExperimentConfig, results: list[CellResult]) -> dict[str, Selection]:
    """Argmax of mean validation accuracy per method.

    A cell is eligible only when every seed finished. Ties go to the smallest
    learning rate, then the smallest lam, then the smallest eta, which falls
    out of scanning cells in ascending order with a strict improvement test.
    """
    by_method: dict[str, dict[GridCell, list[CellResult]]] = {}
    for res in results:
        by_method.setdefault(res.method, {}).setdefault(res.cell, []).append(res)

    selections = {}
    for method in config.methods:
        best_cell = None
        best_mean = -np.inf
        for cell in grid_cells(method, config.grid):
            cell_results = by_method.get(method, {}).get(cell, [])
            if len(cell_results) != len(config.seeds):
                continue
            if any(r.status != "ok" for r in cell_results):
                continue
            mean_val = float(np.mean([r.val_accuracy for r in cell_results]))
            if mean_val > best_mean:
                best_mean = mean_val
                best_cell = cell
        if best_cell is None:
            selections[method] = Selection(method, None, float("nan"), "failed")
        else:
            selections[method] = Selection(method, best_cell, best_mean, "ok")
    return selections


def retrain_selected(
    config: ExperimentConfig,
    data: PreparedData,
    selections: dict[str, Selection],
) -> dict[tuple[str, int], TrainedArtifacts]:
    """Rerun each method's selected cell per seed; training is deterministic,
    so this reproduces the grid-phase models while keeping their artifacts."""
    artifacts = {}
    for method in config.methods:
        sel = selections[method]
        if sel.status != "ok":
            continue
        for seed in config.seeds:
            cfg = _cell_config(sel.cell, seed, config.training)
            artifacts[(method, seed)] = train_method(
                method, data.source, data.train, data.val, cfg)
    return artifacts


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


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    v = float(value)
    return "nan" if np.isnan(v) else repr(v)


def _write_rows(path: Path, header: tuple[str, ...], rows) -> None:
    """Comma-separated rows; a cell holding a comma, quote or newline is quoted."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_fmt(v) for v in row] for row in rows)


def _write_aligned(path: Path, header: tuple[str, ...], rows) -> None:
    """Space-aligned text table for humans; same cells as the delimited file."""
    cells = [list(header)] + [[_fmt(v) for v in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(header))]
    lines = ["  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() for row in cells]
    lines.insert(1, "  ".join("-" * w for w in widths))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


def _write_checkpoint(path: Path, artifacts: TrainedArtifacts) -> None:
    doc = {"version": __version__, "method": artifacts.method, "models": {}}
    for name, model in sorted(artifacts.models().items()):
        doc["models"][name] = {
            "weights": model.weights.tolist(),
            "bias": model.bias.tolist(),
        }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _analytics_row(data: PreparedData) -> tuple:
    fa = correlation_analytics(data.target_full)
    return (fa.corr_tar_lab, fa.corr_com_lab, fa.r_tar_com, fa.corr_tar_sou)


ANALYTICS_HEADER = ("corr_tar_lab", "corr_com_lab", "r_tar_com", "corr_tar_sou")


def _write_standard_reports(
    out: Path,
    config: ExperimentConfig,
    data: PreparedData,
    results: list[CellResult],
    selections: dict[str, Selection],
    reports: dict[str, EvalReport],
) -> None:
    _write_rows(
        out / "grid.csv",
        ("method", "learning_rate", "lam", "eta", "seed", "status",
         "val_accuracy", "error"),
        [(r.method, r.cell.learning_rate, r.cell.lam, r.cell.eta, r.seed,
          r.status, None if r.status != "ok" else r.val_accuracy, r.error)
         for r in results],
    )
    _write_rows(
        out / "selection.csv",
        ("method", "learning_rate", "lam", "eta", "mean_val_accuracy", "status"),
        [(m, *(("", "", "") if s.cell is None else
               (s.cell.learning_rate, s.cell.lam, s.cell.eta)),
          None if s.status != "ok" else s.mean_val_accuracy, s.status)
         for m, s in ((m, selections[m]) for m in config.methods)],
    )
    _write_rows(
        out / "eval.csv",
        ("method", "seed", "accuracy", "auc"),
        [(m, seed, acc, auc_val)
         for m in config.methods if m in reports
         for seed, acc, auc_val in zip(
             config.seeds, reports[m].seed_accuracies, reports[m].seed_aucs)],
    )
    _write_rows(out / "analytics.csv", ANALYTICS_HEADER, [_analytics_row(data)])

    comparison_rows = []
    for m in config.methods:
        sel = selections[m]
        rep = reports.get(m)
        comparison_rows.append((
            m,
            "" if sel.cell is None else _fmt(sel.cell.learning_rate),
            "" if sel.cell is None else _fmt(sel.cell.lam),
            "" if sel.cell is None else _fmt(sel.cell.eta),
            "" if sel.status != "ok" else f"{sel.mean_val_accuracy:.4f}",
            "" if rep is None else f"{rep.accuracy:.4f}",
            "" if rep is None or rep.auc is None else f"{rep.auc:.4f}",
        ))
    _write_aligned(
        out / "comparison.txt",
        ("method", "learning_rate", "lam", "eta", "mean_val", "test_accuracy", "test_auc"),
        comparison_rows,
    )

    meta = {"version": __version__, "config": config_to_dict(config)}
    (out / "run_meta.json").write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")


def _resolve_out(config: ExperimentConfig, out_dir) -> Path:
    if out_dir is not None:
        return Path(out_dir)
    env = os.environ.get(OUTPUT_ENV_VAR)
    if env:
        return Path(env)
    if config.output is not None:
        return config.output
    raise ConfigurationError(
        "no output directory: set output in the config, pass --out, "
        f"or set {OUTPUT_ENV_VAR}")


def _apply_overrides(config: ExperimentConfig, seeds) -> ExperimentConfig:
    if seeds is None:
        return config
    return replace(config, seeds=tuple(seeds))


# --------------------------------------------------------------------------
# Entry points


def run_experiment(
    config: ExperimentConfig,
    out_dir=None,
    seeds=None,
    jobs: int = 1,
) -> Path:
    """Full protocol: grid search, selection, retrain, test evaluation, reports."""
    config = _apply_overrides(config, seeds)
    out = _resolve_out(config, out_dir)
    out.mkdir(parents=True, exist_ok=True)

    data = prepare_data(config)
    results = run_grid(config, data, jobs=jobs)
    selections = select_cells(config, results)
    artifacts = retrain_selected(config, data, selections)

    for (method, seed), art in sorted(artifacts.items(), key=lambda kv: kv[0]):
        art.trace.write(out / "telemetry" / method / f"seed-{seed}.csv")
        _write_checkpoint(out / "checkpoints" / method / f"seed-{seed}.json", art)

    reports = evaluate_on_test(config, data, artifacts)
    _write_standard_reports(out, config, data, results, selections, reports)
    return out


def _read_rows(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise DataError(f"{path}: file is empty")
    return [dict(zip(rows[0], row)) for row in rows[1:] if row]


def _read_overrides(path: Path) -> dict[str, float]:
    """Method-accuracy pairs; values above 1 are read as percentages."""
    overrides = {}
    for idx, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split(",")]
        if idx == 1 and parts[:2] == ["method", "accuracy"]:
            continue
        if len(parts) != 2:
            raise DataError(f"{path}: line {idx}: expected method,accuracy")
        try:
            value = float(parts[1])
        except ValueError:
            raise DataError(
                f"{path}: line {idx}: cannot parse accuracy {parts[1]!r}") from None
        if value > 1.0:
            value /= 100.0
        if not 0.0 <= value <= 1.0:
            raise DataError(f"{path}: line {idx}: accuracy {parts[1]} out of range")
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
    for row in _read_rows(eval_path):
        by_method.setdefault(row["method"], []).append(float(row["accuracy"]))
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
        rows = _read_rows(analytics_path)
        if rows:
            analytics = {k: (float(v) if v else None) for k, v in rows[0].items()}

    out = Path(out_dir) if out_dir is not None else exp_dir
    out.mkdir(parents=True, exist_ok=True)
    header = ANALYTICS_HEADER + ("acc_com", "acc_dist", "acc_pada_s", "p_dist", "p_pada_s")
    row = tuple(analytics[name] for name in ANALYTICS_HEADER) + (
        means["COM_P"], means["DIST"], means["PADA_S"], p_dist, p_pada_s)
    _write_rows(out / "analysis.csv", header, [row])
    _write_aligned(
        out / "analysis.txt", header,
        [tuple("" if v is None else f"{float(v):.4f}" for v in row)],
    )
    return out / "analysis.csv"


ABLATION_SPACES = ("common", "PADA", "PADA_F")


def ablate_experiment(
    config: ExperimentConfig,
    out_dir=None,
    seeds=None,
    jobs: int = 1,
) -> Path:
    """Alignment-quality study: how separable do the domains stay per space.

    For the raw common space and for each trained transform's aligned space,
    a fresh probe discriminator is trained to tell source rows from the true
    positive and true negative target training rows; its held-out accuracies
    (and their gap) land in a per-seed table with an average row per space.
    """
    config = _apply_overrides(config, seeds)
    missing = [m for m in ("PADA", "PADA_F") if m not in config.methods]
    if missing:
        raise ConfigurationError(f"the ablation study needs {missing[0]} in methods")
    out = _resolve_out(config, out_dir)
    out.mkdir(parents=True, exist_ok=True)

    data = prepare_data(config)
    results = run_grid(config, data, jobs=jobs)
    selections = select_cells(config, results)
    for m in ("PADA", "PADA_F"):
        if selections[m].status != "ok":
            raise ConfigurationError(f"every {m} grid cell failed; cannot ablate")
    artifacts = retrain_selected(config, data, selections)
    reports = evaluate_on_test(config, data, artifacts)

    train_dm = data.train
    if len(np.unique(train_dm.labels)) < 2:
        raise ConfigurationError("ablation needs both classes in the target training rows")
    pos_mask = train_dm.labels == 1
    probe_cfg = TrainConfig(
        learning_rate=config.training.probe_learning_rate,
        steps=config.training.probe_steps,
        batch_size=config.training.batch_size,
        seed=config.split_spec.seed,
    )

    def space_rows(space: str, seed: int):
        if space == "common":
            src = data.source.common
            tgt = train_dm.common
        else:
            art = artifacts[(space, seed)]
            src = data.source.features()
            tgt = align_features(art.transformer, train_dm)
        return src, tgt[pos_mask], tgt[~pos_mask]

    acc_of = {
        "common": reports.get("COM_P"),
        "PADA": reports.get("PADA"),
        "PADA_F": reports.get("PADA_F"),
    }

    rows = []
    averages = []
    for space in ABLATION_SPACES:
        per_seed = []
        for seed_idx, seed in enumerate(config.seeds):
            src, pos, neg = space_rows(space, seed)
            acc_pp, acc_pn = discrimination_accuracy(
                src, pos, neg, config.split_spec, probe_cfg)
            rep = acc_of[space]
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
    _write_rows(out / "ablation.csv", header, rows + averages)
    _write_aligned(
        out / "ablation.txt", header,
        [tuple(r[:2]) + tuple("" if v is None else f"{float(v):.4f}" for v in r[2:])
         for r in rows + averages],
    )
    _write_standard_reports(out, config, data, results, selections, reports)
    return out


def generate_files(config: ExperimentConfig, out_dir=None) -> Path:
    """Write a synthetic dataset to domain-matrix files."""
    if config.dataset_kind != "synthetic":
        raise ConfigurationError("generate needs dataset.kind = synthetic")
    out = _resolve_out(config, out_dir)
    out.mkdir(parents=True, exist_ok=True)
    source, target, oracle = generate_synthetic(config.synthetic)
    save_domain_matrix(source, out / "source.csv")
    save_domain_matrix(target, out / "target.csv")
    meta = {
        "version": __version__,
        "oracle_accuracy": oracle,
        "spec": asdict(config.synthetic),
        "rows": {"source": source.n, "target": target.n},
    }
    (out / "generation_meta.json").write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")
    return out


def aggregate_files(config: ExperimentConfig, out_dir=None) -> Path:
    """Aggregate rating triples into saved source and target matrices."""
    if config.dataset_kind != "ratings":
        raise ConfigurationError("aggregate needs dataset.kind = ratings")
    out = _resolve_out(config, out_dir)
    out.mkdir(parents=True, exist_ok=True)
    source, target = load_domains(config)
    save_domain_matrix(source, out / "source.csv")
    save_domain_matrix(target, out / "target.csv")
    meta = {
        "version": __version__,
        "rows": {"source": source.n, "target": target.n},
        "label_genre": config.ratings.label_genre,
    }
    (out / "aggregation_meta.json").write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")
    return out
