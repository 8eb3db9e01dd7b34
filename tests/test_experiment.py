"""End-to-end tests for the experiment pipeline and its command line."""

import csv
import gc
import json
import logging
import os
import re
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest
import yaml

from conftest import load_saved
from puhda.cli import main
from puhda.data import SyntheticSpec, generate_synthetic
from puhda.errors import ConfigurationError, DataError, InvalidInputError, PuhdaError
from puhda.experiment import (
    ABLATION_SPACES,
    METHODS,
    OUTPUT_ENV_VAR,
    CellResult,
    GridCell,
    GridSpec,
    _read_overrides,
    ablate_experiment,
    aggregate_files,
    analyze_experiment,
    build_config,
    config_to_dict,
    evaluate_on_test,
    generate_files,
    grid_cells,
    load_config,
    prepare_data,
    run_experiment,
)
from puhda.metrics import improvement_metrics
from puhda.models import LinearSoftmaxModel, LinearTransform, load_checkpoint
from puhda.trainers import GRID_LEARNING_RATE, GRID_WEIGHT, TrainConfig

import puhda.experiment as experiment_module


def base_doc() -> dict:
    """A small synthetic config document; tests mutate copies of it."""
    return {
        "dataset": {
            "kind": "synthetic",
            "synthetic": {
                "common": 2,
                "source_specific": 2,
                "target_specific": 2,
                "n_source": 150,
                "n_target": 300,
                "signal_common": 0.5,
                "coupling": 0.9,
                "seed": 7,
            },
        },
        "methods": ["COM_P", "DIST", "PADA", "PADA_S"],
        "seeds": [0, 1],
        "split": {"train": 0.6, "val": 0.2, "test": 0.2, "seed": 0},
        "grid": {"learning_rate": [0.02, 0.05], "lam": [0.1], "eta": [0.01]},
        "training": {"steps": 60, "batch_size": 32, "max_soft_rounds": 2,
                     "probe_steps": 200},
    }


def csv_dataset(**fields) -> dict:
    """A csv-kind dataset section; keyword arguments replace its fields."""
    section = {
        "source": "s.csv",
        "target": "t.csv",
        "positive_value": "yes",
        "schema": {"common": ["a", "b"], "source_specific": ["c"],
                   "target_specific": ["d"], "label": "y"},
    }
    return {"kind": "csv", "csv": {**section, **fields}}


def ratings_dataset(**fields) -> dict:
    """A ratings-kind dataset section; keyword arguments replace its fields."""
    section = {
        "ratings": "r.csv",
        "genres": "g.csv",
        "common_genres": ["drama", "comedy"],
        "source_genres": ["action"],
        "target_genres": ["scifi"],
        "label_genre": "horror",
    }
    return {"kind": "ratings", "ratings": {**section, **fields}}


def read_table(path) -> list[dict]:
    with path.open(newline="") as fh:
        header, *rows = list(csv.reader(fh))
    return [dict(zip(header, row)) for row in rows if row]


# --------------------------------------------------------------------------
# Config parsing


def test_build_config_happy_path():
    cfg = build_config(base_doc())
    assert isinstance(cfg.dataset, SyntheticSpec)
    assert cfg.dataset.c == 2
    assert cfg.dataset.s == 2
    assert cfg.dataset.t == 2
    assert cfg.dataset.n_source == 150
    assert cfg.methods == ("COM_P", "DIST", "PADA", "PADA_S")
    assert cfg.seeds == (0, 1)
    assert cfg.grid.learning_rate == (0.02, 0.05)
    assert cfg.grid.eta == (0.01,)
    assert cfg.training.steps == 60
    assert cfg.training.max_soft_rounds == 2
    assert cfg.split_spec.train == 0.6
    assert cfg.output is None


def test_build_config_defaults():
    doc = base_doc()
    del doc["seeds"], doc["grid"], doc["training"], doc["split"]
    cfg = build_config(doc)
    assert cfg.seeds == (0, 1, 2)
    assert cfg.grid.learning_rate == GRID_LEARNING_RATE
    assert cfg.grid.lam == GRID_WEIGHT
    assert cfg.grid.eta == GRID_WEIGHT
    assert cfg.training.steps == 5000
    assert (cfg.split_spec.train, cfg.split_spec.val, cfg.split_spec.test) == (0.6, 0.2, 0.2)


def _set(doc, path, value):
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value is ...:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return doc


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("bogus",), 1, "config: unknown field 'bogus'"),
        (("dataset",), ..., "config: missing field 'dataset'"),
        (("methods",), ..., "config: missing field 'methods'"),
        (("methods",), [], "methods: the list is empty"),
        (("methods",), ["COM_P", "PAN"], "unknown method 'PAN'"),
        (("methods",), ["COM_P", "COM_P"], "methods: duplicate entries"),
        (("seeds",), 3, "seeds: expected a list"),
        (("seeds",), [-1], "seeds: must be >= 0, got -1"),
        (("seeds",), [1, 1], "seeds: duplicate entries"),
        (("seeds",), [], "seeds: the list is empty"),
        (("dataset", "kind"), "parquet", "expected synthetic, csv, or ratings"),
        (("dataset", "synthetic"), ..., "missing section 'synthetic'"),
        (("dataset", "synthetic", "n_source"), ..., "missing field 'n_source'"),
        (("dataset", "synthetic", "warp"), 3, "dataset.synthetic: unknown field 'warp'"),
        (("dataset", "synthetic", "common"), "two", "dataset.synthetic.common"),
        (("grid", "learning_rate"), [], "grid.learning_rate: expected a non-empty list"),
        (("grid", "learning_rate"), [-0.1], "grid.learning_rate: must be > 0, got -0.1"),
        (("grid", "mu"), [0.1], "grid: unknown field 'mu'"),
        (("training", "steps"), 0, "training.steps: must be >= 1, got 0"),
        (("training", "momentum"), 0.9, "training: unknown field 'momentum'"),
        (("split", "test"), ..., "split: missing field 'test'"),
        (("output",), 7, "output: expected a directory path"),
        (("dataset", "kind"), ..., "dataset: missing field 'kind'"),
        (("dataset",), csv_dataset(source=3), "dataset.csv.source: expected a string"),
        (("dataset",), ratings_dataset(genres=["x"]),
         "dataset.ratings.genres: expected a string"),
        (("dataset",), ratings_dataset(label_genre=3), "dataset.ratings.label_genre"),
        (("dataset",), csv_dataset(positive_value=True), "dataset.csv.positive_value"),
        (("dataset",), csv_dataset(positive_value=[1]), "dataset.csv.positive_value"),
        (("training", "max_soft_rounds"), 0, "training.max_soft_rounds: must be >= 1"),
        (("training", "val_patience"), 0, "training.val_patience: must be >= 1"),
        (("training", "gamma_mmd"), -1, "training.gamma_mmd: must be >= 0"),
        (("grid", "learning_rate"), [0.05, 0.05], "grid.learning_rate: duplicate entries"),
        (("grid", "lam"), [0.1, 0.2, 0.1], "grid.lam: duplicate entries"),
        (("grid", "eta"), [0.01, 0.01], "grid.eta: duplicate entries"),
        (("dataset", "csv"), {"bogus": 1}, "dataset: unknown field 'csv'"),
        (("dataset", "synthetic", "latent_noise_dim"), -1,
         "dataset.synthetic.latent_noise_dim: must be >= 0"),
        (("dataset", "synthetic", "seed"), -1, "dataset.synthetic.seed: must be >= 0"),
        (("split", "seed"), -1, "split.seed: must be >= 0"),
        (("dataset", "synthetic", "noise_scale"), float("nan"),
         "dataset.synthetic.noise_scale: expected a finite number, got nan"),
        (("grid", "learning_rate"), [float("inf")],
         "grid.learning_rate: expected a finite number, got inf"),
        (("training", "gamma_mmd"), float("nan"),
         "training.gamma_mmd: expected a finite number, got nan"),
        # one value just outside the range of each number field, named at load
        (("dataset", "synthetic", "common"), 0, "dataset.synthetic.common: must be >= 1, got 0"),
        (("dataset", "synthetic", "source_specific"), 0,
         "dataset.synthetic.source_specific: must be >= 1, got 0"),
        (("dataset", "synthetic", "target_specific"), 0,
         "dataset.synthetic.target_specific: must be >= 1, got 0"),
        (("dataset", "synthetic", "n_source"), 0,
         "dataset.synthetic.n_source: must be >= 1, got 0"),
        (("dataset", "synthetic", "n_target"), 0,
         "dataset.synthetic.n_target: must be >= 1, got 0"),
        (("dataset", "synthetic", "positive_ratio"), 1,
         "dataset.synthetic.positive_ratio: must be in (0, 1), got 1"),
        (("dataset", "synthetic", "coupling"), 1.5,
         "dataset.synthetic.coupling: must be in [0, 1], got 1.5"),
        (("dataset", "synthetic", "noise_scale"), -0.1,
         "dataset.synthetic.noise_scale: must be >= 0, got -0.1"),
        (("split", "train"), 0, "split.train: must be > 0, got 0"),
        (("split", "val"), 0.0, "split.val: must be > 0, got 0.0"),
        (("split", "test"), -0.2, "split.test: must be > 0, got -0.2"),
        (("grid", "lam"), [0.1, -0.1], "grid.lam: must be >= 0, got -0.1"),
        (("grid", "eta"), [-0.01], "grid.eta: must be >= 0, got -0.01"),
        (("training", "batch_size"), 0, "training.batch_size: must be >= 1, got 0"),
        (("training", "probe_learning_rate"), 0,
         "training.probe_learning_rate: must be > 0, got 0"),
        (("training", "probe_steps"), 0, "training.probe_steps: must be >= 1, got 0"),
        (("training", "steps"), 2.0, "training.steps: expected an integer, got 2.0"),
        pytest.param(("dataset", "synthetic", "n_target"), 10 ** 399,
                     f"n_target: too large, got {10 ** 399}", id="n_target-of-400-digits"),
        pytest.param(("dataset", "synthetic", "n_source"), 10 ** 399,
                     f"n_source: too large, got {10 ** 399}", id="n_source-of-400-digits"),
    ],
)
def test_build_config_rejects_bad_documents(path, value, message):
    doc = _set(base_doc(), path, value)
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        build_config(doc)


def test_config_echo_parses_back_to_the_same_config():
    cfg = build_config(base_doc())
    assert build_config(config_to_dict(cfg)) == cfg


def test_sections_given_as_null_read_as_absent():
    doc = base_doc()
    doc.update(split=None, grid=None, training=None)
    del doc["seeds"]
    bare = base_doc()
    del bare["split"], bare["grid"], bare["training"], bare["seeds"]
    assert build_config(doc) == build_config(bare)


def test_unquoted_positive_value_reads_as_its_digits():
    doc = base_doc()
    doc["dataset"] = csv_dataset(positive_value=1)
    assert build_config(doc).dataset.positive_value == "1"


def _echo_text(doc: dict) -> str:
    # the run metadata's serialization, so the echo is pinned to its bytes
    return json.dumps(config_to_dict(build_config(doc)), sort_keys=True)


def test_config_echo_is_pinned():
    expected = {
        "dataset": {"kind": "synthetic", "synthetic": {
            "common": 2, "source_specific": 2, "target_specific": 2,
            "n_source": 150, "n_target": 300, "positive_ratio": 0.5,
            "signal_common": 0.5, "signal_source": 1.0, "signal_target": 1.0,
            "coupling": 0.9, "noise_scale": 0.5, "seed": 7, "latent_noise_dim": 3,
            "label_separation": 1.0}},
        "methods": ["COM_P", "DIST", "PADA", "PADA_S"],
        "seeds": [0, 1],
        "split": {"train": 0.6, "val": 0.2, "test": 0.2, "seed": 0},
        "grid": {"learning_rate": [0.02, 0.05], "lam": [0.1], "eta": [0.01]},
        "training": {"steps": 60, "batch_size": 32, "max_soft_rounds": 2,
                     "val_patience": 1, "gamma_mmd": 1.0, "probe_learning_rate": 0.05,
                     "probe_steps": 200},
    }
    assert _echo_text(base_doc()) == json.dumps(expected, sort_keys=True)


def test_config_echo_of_an_unlabeled_csv_schema_is_pinned():
    dataset = csv_dataset(positive_value=1)
    dataset["csv"]["schema"]["label"] = None
    doc = {"dataset": dataset, "methods": ["COM_P"], "output": "out"}
    expected = {
        "dataset": {"kind": "csv", "csv": {
            "source": "s.csv", "target": "t.csv", "positive_value": "1",
            "schema": {"common": ["a", "b"], "source_specific": ["c"],
                       "target_specific": ["d"], "label": None}}},
        "methods": ["COM_P"],
        "seeds": [0, 1, 2],
        "split": {"train": 0.6, "val": 0.2, "test": 0.2, "seed": 0},
        "grid": {"learning_rate": list(GRID_LEARNING_RATE), "lam": list(GRID_WEIGHT),
                 "eta": list(GRID_WEIGHT)},
        "training": {"steps": 5000, "batch_size": 128, "max_soft_rounds": 5,
                     "val_patience": 1, "gamma_mmd": 1.0, "probe_learning_rate": 0.05,
                     "probe_steps": 2000},
        "output": "out",
    }
    assert _echo_text(doc) == json.dumps(expected, sort_keys=True)


def test_config_echo_round_trips_ratings():
    doc = {
        "dataset": {
            "kind": "ratings",
            "ratings": {
                "ratings": "r.csv",
                "genres": "g.csv",
                "common_genres": ["drama", "comedy"],
                "source_genres": ["action"],
                "target_genres": ["scifi"],
                "label_genre": "horror",
            },
        },
        "methods": ["COM_P"],
        "output": "out",
    }
    cfg = build_config(doc)
    assert cfg.dataset.label_genre == "horror"
    assert build_config(config_to_dict(cfg)) == cfg


def test_config_echo_round_trips_csv():
    doc = {
        "dataset": {
            "kind": "csv",
            "csv": {
                "source": "s.csv",
                "target": "t.csv",
                "positive_value": "yes",
                "schema": {
                    "common": ["a", "b"],
                    "source_specific": ["c"],
                    "target_specific": ["d"],
                    "label": "y",
                },
            },
        },
        "methods": ["COM_P"],
    }
    cfg = build_config(doc)
    assert cfg.dataset.schema.common == ("a", "b")
    assert cfg.dataset.positive_value == "yes"
    assert build_config(config_to_dict(cfg)) == cfg


def test_load_config_reads_yaml(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(base_doc()))
    assert load_config(path) == build_config(base_doc())


def test_load_config_rejects_empty_file(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text("")
    with pytest.raises(ConfigurationError, match="empty"):
        load_config(path)


def test_load_config_rejects_malformed_document(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text("dataset: [unclosed\n  nested: {")
    with pytest.raises(ConfigurationError, match="not a valid config"):
        load_config(path)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigurationError, match="cannot read config"):
        load_config(tmp_path / "nope.yaml")


def _with_section(tmp_path, name: str, text: str):
    """A config file of ``base_doc`` whose ``name`` section is written as ``text``."""
    doc = base_doc()
    del doc[name]
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(doc) + f"{name}: {text}\n")
    return path


def test_load_config_reads_an_exponent_without_a_dot_as_a_number(tmp_path):
    config = load_config(_with_section(
        tmp_path, "grid", "{learning_rate: [1e-3, 5E-4], lam: [1e3], eta: [.5e-1, -0e+0]}"))
    assert config.grid == GridSpec(learning_rate=(0.001, 0.0005), lam=(1000.0,),
                                   eta=(0.05, 0.0))
    assert all(type(v) is float for axis in vars(config.grid).values() for v in axis)
    assert config_to_dict(config)["grid"] == {
        "learning_rate": [0.001, 0.0005], "lam": [1000.0], "eta": [0.05, 0.0]}


def test_load_config_keeps_a_quoted_exponent_a_string(tmp_path):
    with pytest.raises(ConfigurationError, match=re.escape(
            "grid.learning_rate: expected a number, got '1e-3'")):
        load_config(_with_section(tmp_path, "grid", "{learning_rate: ['1e-3']}"))


_CSV_SECTION = ("{kind: csv, csv: {source: s.csv, target: t.csv, positive_value: %s, "
                "schema: {common: [%s], source_specific: [c], target_specific: [d], "
                "label: y}}}")


def test_load_config_reads_exponent_lookalikes_as_names(tmp_path):
    config = load_config(_with_section(
        tmp_path, "dataset", _CSV_SECTION % ("'1e3'", "e3, 1e, 1e+, E-4")))
    assert config.dataset.schema.common == ("e3", "1e", "1e+", "E-4")
    assert config.dataset.positive_value == "1e3"


@pytest.mark.parametrize("positive_value, common, message", [
    ("1e3", "a, b", "dataset.csv.positive_value: expected a label value, got 1000.0"),
    ("yes", "a, 1e3", "dataset.csv.schema.common: expected a string, got 1000.0"),
], ids=["label-value", "column-name"])
def test_load_config_rejects_an_unquoted_exponent_name(tmp_path, positive_value, common,
                                                       message):
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        load_config(_with_section(tmp_path, "dataset", _CSV_SECTION % (positive_value, common)))


# --------------------------------------------------------------------------
# Grid enumeration and selection


def test_grid_cells_eta_axis_only_for_soft_labeling():
    grid = GridSpec(learning_rate=(0.02, 0.05), lam=(0.1,), eta=(0.01, 0.1))
    soft = grid_cells("PADA_S", grid)
    assert len(soft) == 4
    assert {c.eta for c in soft} == {0.01, 0.1}
    for method in (m for m in METHODS if m != "PADA_S"):
        cells = grid_cells(method, grid)
        assert len(cells) == 2
        assert all(c.eta == 0.0 for c in cells)


def test_grid_cells_sorted_ascending():
    grid = GridSpec(learning_rate=(0.05, 0.02), lam=(0.2, 0.1), eta=(0.1, 0.01))
    cells = grid_cells("PADA_S", grid)
    keys = [(c.learning_rate, c.lam, c.eta) for c in cells]
    assert keys == sorted(keys)
    assert keys[0] == (0.02, 0.1, 0.01)


@pytest.mark.parametrize("axis", ["learning_rate", "lam", "eta"])
def test_a_grid_built_with_an_empty_axis_is_rejected(run_config, tmp_path, axis):
    # the loader rejects an empty list first; a grid built in code has no loader
    with pytest.raises(ConfigurationError, match=re.escape(f"grid.{axis}: the list is empty")):
        run_experiment(replace(run_config, grid=GridSpec(**{axis: ()})), out_dir=tmp_path)


def test_stacks_cover_every_run_once_and_hold_at_most_the_cap():
    doc = base_doc()
    doc["methods"] = list(METHODS)
    doc["seeds"] = [0, 1, 2]
    doc["grid"] = {"learning_rate": [0.02, 0.05, 0.1], "lam": [0.1, 0.5, 1.0],
                   "eta": [0.01, 0.2, 0.5]}
    config = build_config(doc)
    for grid in (config.grid, GridSpec()):
        items = experiment_module._groups(replace(config, grid=grid))
        runs = [(method, cell, seed) for method, stack, _ in items for cell, seed in stack]
        assert len(runs) == len(set(runs))
        assert set(runs) == {(method, cell, seed) for method in METHODS
                             for cell in grid_cells(method, grid) for seed in config.seeds}
        for _, stack, _ in items:
            assert 1 <= len(stack) <= experiment_module.STACK_CAP == 64
        for method in METHODS:   # each method's stacks cut its runs in (cell, seed) order
            runs = [run for m, stack, _ in items if m == method for run in stack]
            assert runs == sorted(runs)
        stacks = {method: sum(m == method for m, _, _ in items) for method in METHODS}
        cut = [len(stack) for m, stack, _ in items if m == "PADA_S"]
        if grid == GridSpec():
            assert stacks["PADA_S"] == 27   # 567 cells x 3 seeds
            assert stacks["DSFT_P_linear"] == 3   # 63 cells x 3 seeds
        else:
            assert cut == [64, 17]          # 27 cells x 3 seeds
            assert stacks == {**{m: 1 for m in METHODS}, "PADA_S": 2}


def _config_for_selection(grid: GridSpec, seeds=(0, 1)):
    doc = base_doc()
    doc["methods"] = ["PADA"]
    doc["seeds"] = list(seeds)
    doc["grid"] = {
        "learning_rate": list(grid.learning_rate),
        "lam": list(grid.lam),
        "eta": list(grid.eta),
    }
    return build_config(doc)


def _result(cell, seed, val, status="ok"):
    return CellResult("PADA", cell, seed, status, val, "" if status == "ok" else "boom")


def _selections(config, results):
    # the grid's selection fold over results already in item order
    return experiment_module._select(config, ((r, None) for r in results))[1]


def test_select_cells_picks_highest_mean_validation_accuracy():
    grid = GridSpec(learning_rate=(0.01, 0.02, 0.05), lam=(0.1,), eta=(0.1,))
    config = _config_for_selection(grid)
    cells = grid_cells("PADA", grid)
    results = [
        _result(cells[0], 0, 0.60), _result(cells[0], 1, 0.62),
        _result(cells[1], 0, 0.70), _result(cells[1], 1, 0.74),
        _result(cells[2], 0, 0.68), _result(cells[2], 1, 0.69),
    ]
    sel = _selections(config, results)["PADA"]
    assert sel.status == "ok"
    assert sel.cell == cells[1]
    assert sel.mean_val_accuracy == pytest.approx(0.72)


def test_select_cells_breaks_ties_toward_smaller_hyperparameters():
    grid = GridSpec(learning_rate=(0.01, 0.05), lam=(0.1,), eta=(0.1,))
    config = _config_for_selection(grid)
    low, high = grid_cells("PADA", grid)
    results = [
        _result(low, 0, 0.70), _result(low, 1, 0.70),
        _result(high, 0, 0.72), _result(high, 1, 0.68),
    ]
    sel = _selections(config, results)["PADA"]
    assert sel.cell == low


def test_select_cells_skips_cells_with_a_failed_seed():
    grid = GridSpec(learning_rate=(0.01, 0.05), lam=(0.1,), eta=(0.1,))
    config = _config_for_selection(grid)
    low, high = grid_cells("PADA", grid)
    results = [
        _result(low, 0, 0.60), _result(low, 1, 0.60),
        _result(high, 0, 0.99), _result(high, 1, float("nan"), status="failed"),
    ]
    sel = _selections(config, results)["PADA"]
    assert sel.cell == low


def test_select_cells_skips_cells_missing_a_seed():
    grid = GridSpec(learning_rate=(0.01, 0.05), lam=(0.1,), eta=(0.1,))
    config = _config_for_selection(grid)
    low, high = grid_cells("PADA", grid)
    results = [
        _result(low, 0, 0.60), _result(low, 1, 0.60),
        _result(high, 0, 0.99),
    ]
    sel = _selections(config, results)["PADA"]
    assert sel.cell == low


def test_select_cells_reports_failure_when_nothing_is_eligible():
    grid = GridSpec(learning_rate=(0.01,), lam=(0.1,), eta=(0.1,))
    config = _config_for_selection(grid)
    (cell,) = grid_cells("PADA", grid)
    results = [
        _result(cell, 0, float("nan"), status="failed"),
        _result(cell, 1, float("nan"), status="failed"),
    ]
    sel = _selections(config, results)["PADA"]
    assert sel.status == "failed"
    assert sel.cell is None
    assert np.isnan(sel.mean_val_accuracy)


# --------------------------------------------------------------------------
# Full pipeline


@pytest.fixture(scope="module")
def run_config():
    return build_config(base_doc())


@pytest.fixture(scope="module")
def run_dir(run_config, tmp_path_factory):
    out = tmp_path_factory.mktemp("exp") / "run"
    return run_experiment(run_config, out_dir=out)


def test_run_writes_the_full_report_layout(run_config, run_dir):
    for name in ("grid.csv", "selection.csv", "eval.csv", "analytics.csv",
                 "comparison.txt", "run_meta.json"):
        assert (run_dir / name).is_file(), name
    for method in run_config.methods:
        for seed in run_config.seeds:
            assert (run_dir / "telemetry" / method / f"seed-{seed}.csv").is_file()
            assert (run_dir / "checkpoints" / method / f"seed-{seed}.json").is_file()


def test_run_grid_report_covers_every_cell_and_seed(run_config, run_dir):
    rows = read_table(run_dir / "grid.csv")
    expected = sum(
        len(grid_cells(m, run_config.grid)) * len(run_config.seeds)
        for m in run_config.methods)
    assert len(rows) == expected
    assert all(row["status"] == "ok" for row in rows)
    assert {row["method"] for row in rows} == set(run_config.methods)


def test_run_selection_report_has_one_ok_row_per_method(run_config, run_dir):
    rows = read_table(run_dir / "selection.csv")
    assert [row["method"] for row in rows] == list(run_config.methods)
    for row in rows:
        assert row["status"] == "ok"
        assert float(row["learning_rate"]) in run_config.grid.learning_rate
        assert 0.0 <= float(row["mean_val_accuracy"]) <= 1.0


def test_run_eval_report_scores_every_method_and_seed(run_config, run_dir):
    rows = read_table(run_dir / "eval.csv")
    assert len(rows) == len(run_config.methods) * len(run_config.seeds)
    for row in rows:
        assert 0.0 <= float(row["accuracy"]) <= 1.0
        assert 0.0 <= float(row["auc"]) <= 1.0


def test_run_meta_echo_reproduces_the_config(run_config, run_dir):
    meta = json.loads((run_dir / "run_meta.json").read_text())
    assert build_config(meta["config"]) == run_config


def test_run_checkpoints_hold_finite_parameters(run_config, run_dir):
    path = run_dir / "checkpoints" / "PADA" / "seed-0.json"
    doc = json.loads(path.read_text())
    assert doc["method"] == "PADA"
    assert set(doc["models"]) == {"C", "D", "F"}
    for params in doc["models"].values():
        assert np.all(np.isfinite(np.asarray(params["weights"])))
        assert np.all(np.isfinite(np.asarray(params["bias"])))
    method, models = load_checkpoint(path)
    assert method == "PADA"
    assert isinstance(models["C"], LinearSoftmaxModel)
    assert isinstance(models["D"], LinearSoftmaxModel)
    assert isinstance(models["F"], LinearTransform)
    for name, params in doc["models"].items():
        assert models[name].weights.tolist() == params["weights"]
        assert models[name].bias.tolist() == params["bias"]


def test_rerun_is_byte_identical(run_config, run_dir, tmp_path):
    again = run_experiment(run_config, out_dir=tmp_path / "again")
    first = sorted(p.relative_to(run_dir) for p in run_dir.rglob("*") if p.is_file())
    second = sorted(p.relative_to(again) for p in again.rglob("*") if p.is_file())
    assert first == second
    for rel in first:
        assert (run_dir / rel).read_bytes() == (again / rel).read_bytes(), rel


def test_parallel_run_matches_serial_byte_for_byte(run_config, run_dir, tmp_path):
    par = run_experiment(run_config, out_dir=tmp_path / "par", jobs=2)
    for rel in sorted(p.relative_to(run_dir) for p in run_dir.rglob("*") if p.is_file()):
        assert (run_dir / rel).read_bytes() == (par / rel).read_bytes(), rel


def test_the_stack_cut_never_changes_output(tmp_path, monkeypatch):
    doc = base_doc()
    doc["methods"] = list(METHODS)
    doc["grid"]["lam"] = [0.1, 0.5]
    config = build_config(doc)
    outs = []
    for cap in (1, 5, 64):
        monkeypatch.setattr(experiment_module, "STACK_CAP", cap)
        if cap == 5:   # one completion fit's cells land in two stacks
            fits = [{(cell.learning_rate, seed) for cell, seed in stack}
                    for method, stack, _ in experiment_module._groups(config)
                    if method == "DSFT_P_linear"]
            assert len(fits) == 2 and fits[0] & fits[1]
        outs.append(run_experiment(config, out_dir=tmp_path / f"cap-{cap}"))
    files = sorted(p.relative_to(outs[0]) for p in outs[0].rglob("*") if p.is_file())
    assert {rel.parts[0] for rel in files} >= {"telemetry", "checkpoints", "run_meta.json"}
    for out in outs[1:]:
        assert files == sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file())
        for rel in files:
            assert (outs[0] / rel).read_bytes() == (out / rel).read_bytes(), rel


def _files(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_a_run_replaces_the_artifacts_an_earlier_run_left(tmp_path):
    doc = base_doc()
    doc["methods"] = ["COM_P", "PADA"]
    doc["grid"]["learning_rate"] = [0.05]
    out = run_experiment(build_config(doc), out_dir=tmp_path / "out")
    assert len(list((out / "checkpoints").rglob("*.json"))) == 4
    doc["seeds"] = [0]
    run_experiment(build_config(doc), out_dir=out)
    assert _files(out) == _files(run_experiment(build_config(doc), out_dir=tmp_path / "fresh"))
    doc["grid"]["learning_rate"] = [1.0e308]
    run_experiment(build_config(doc), out_dir=out)
    assert {row["status"] for row in read_table(out / "selection.csv")} == {"failed"}
    assert not (out / "checkpoints").exists() and not (out / "telemetry").exists()


def test_a_run_that_fails_leaves_the_earlier_tree_whole(tmp_path):
    doc = base_doc()
    doc["methods"] = ["COM_P"]
    doc["seeds"] = [0]
    doc["grid"]["learning_rate"] = [0.05]
    out = run_experiment(build_config(doc), out_dir=tmp_path / "out")
    assert (out / "checkpoints" / "COM_P" / "seed-0.json").is_file()
    before = _files(out)
    doc["dataset"] = csv_dataset(source=str(tmp_path / "missing.csv"))
    with pytest.raises(DataError, match=re.escape(f"{tmp_path / 'missing.csv'}: cannot read")):
        run_experiment(build_config(doc), out_dir=out)
    assert _files(out) == before


def test_an_ablation_replaces_an_earlier_run_only_once_it_succeeds(tmp_path):
    doc = base_doc()
    doc["methods"] = ["PADA", "PADA_F"]
    doc["seeds"] = [0]
    doc["grid"]["learning_rate"] = [0.05]
    out = run_experiment(build_config(doc), out_dir=tmp_path / "out")
    before = _files(out)
    failing = base_doc() | {"methods": doc["methods"], "seeds": doc["seeds"]}
    failing["grid"]["learning_rate"] = [1.0e308]
    with pytest.raises(ConfigurationError, match="every PADA grid cell failed"):
        ablate_experiment(build_config(failing), out_dir=out)
    assert _files(out) == before
    ablate_experiment(build_config(doc), out_dir=out)
    assert not (out / "checkpoints").exists() and not (out / "telemetry").exists()
    assert _files(out) == _files(ablate_experiment(build_config(doc), out_dir=tmp_path / "fresh"))


def _generated_csv(doc, gen, columns):
    """``doc`` with a csv dataset read from files generated into ``gen``, the
    target file's ``columns`` (name -> value) set to one value on every row."""
    gen = generate_files(build_config(doc), out_dir=gen)
    with (gen / "target.csv").open(newline="") as fh:
        header, *rows = list(csv.reader(fh))
    for name, value in columns.items():
        for row in rows:
            row[header.index(name)] = value
    with (gen / "target.csv").open("w", newline="") as fh:
        csv.writer(fh).writerows([header] + rows)
    schema = json.loads((gen / "target.csv.schema.json").read_text())["schema"]
    doc["dataset"] = {"kind": "csv", "csv": {
        "source": str(gen / "source.csv"), "target": str(gen / "target.csv"),
        "schema": {"common": schema["common"], "source_specific": schema["source_specific"],
                   "target_specific": schema["target_specific"], "label": "label"}}}
    return doc


def _untouchable(*args):
    raise AssertionError("trained before the target was checked")


def test_single_class_target_is_rejected_before_training(tmp_path, monkeypatch):
    doc = _generated_csv(base_doc(), tmp_path / "gen", {"label": "1"})
    monkeypatch.setattr(experiment_module, "train_group", _untouchable)
    out = tmp_path / "run"
    with pytest.raises(ConfigurationError, match="test split holds only class 1"):
        run_experiment(build_config(doc), out_dir=out)
    assert not (out / "telemetry").exists() and not (out / "checkpoints").exists()


@pytest.mark.parametrize("entry", [run_experiment, ablate_experiment], ids=["run", "ablate"])
@pytest.mark.parametrize("case", ["no_common_columns", "constant_common_columns"])
def test_data_the_analytics_cannot_describe_stops_before_anything_trains(
        tmp_path, monkeypatch, entry, case):
    doc = base_doc()
    doc["methods"] = ["COM_P", "PADA", "PADA_F"]
    constant = {"com_0": "0.5", "com_1": "0.5"} if case == "constant_common_columns" else {}
    doc = _generated_csv(doc, tmp_path / "gen", constant)
    if case == "no_common_columns":
        doc["dataset"]["csv"]["schema"]["common"] = []
    monkeypatch.setattr(experiment_module, "train_group", _untouchable)
    out = tmp_path / "out"
    with pytest.raises(InvalidInputError, match="common vs label: no feature with nonzero variance"):
        entry(build_config(doc), out_dir=out)
    assert list(out.iterdir()) == []


def test_test_split_opens_exactly_once(run_config):
    data = prepare_data(run_config)
    data.sealed_test.open()
    with pytest.raises(ConfigurationError, match="already opened"):
        evaluate_on_test(run_config, data, {})


def test_failing_method_is_recorded_and_the_run_continues(tmp_path, monkeypatch):
    doc = base_doc()
    doc["methods"] = ["COM_P", "PADA"]
    doc["grid"]["learning_rate"] = [0.05]
    config = build_config(doc)

    real = experiment_module.train_group

    def sabotaged(method, source, train, val, configs):
        if method == "PADA":
            raise DataError("boom")
        return real(method, source, train, val, configs)

    monkeypatch.setattr(experiment_module, "train_group", sabotaged)
    out = run_experiment(config, out_dir=tmp_path / "broken")

    grid_rows = read_table(out / "grid.csv")
    pada_rows = [r for r in grid_rows if r["method"] == "PADA"]
    assert pada_rows and all(r["status"] == "failed" for r in pada_rows)
    assert all("boom" in r["error"] for r in pada_rows)
    sel = {r["method"]: r for r in read_table(out / "selection.csv")}
    assert sel["COM_P"]["status"] == "ok"
    assert sel["PADA"]["status"] == "failed"
    eval_methods = {r["method"] for r in read_table(out / "eval.csv")}
    assert eval_methods == {"COM_P"}


def test_failing_cell_falls_back_to_a_surviving_one(tmp_path, monkeypatch):
    doc = base_doc()
    doc["methods"] = ["PADA"]
    config = build_config(doc)

    real = experiment_module.train_group

    def sabotaged(method, source, train, val, configs):
        outcomes = real(method, source, train, val, configs)
        return [DataError("boom") if method == "PADA" and cfg.learning_rate == 0.05 else outcome
                for cfg, outcome in zip(configs, outcomes)]

    monkeypatch.setattr(experiment_module, "train_group", sabotaged)
    out = run_experiment(config, out_dir=tmp_path / "partial")
    sel = {r["method"]: r for r in read_table(out / "selection.csv")}
    assert sel["PADA"]["status"] == "ok"
    assert float(sel["PADA"]["learning_rate"]) == 0.02


def test_error_text_with_comma_and_quote_round_trips(tmp_path, monkeypatch):
    doc = base_doc()
    doc["methods"] = ["COM_P", "DIST", "PADA_S", "PADA"]
    doc["grid"]["learning_rate"] = [0.05]
    config = build_config(doc)
    message = 'got s=0, t=1 and a "quoted" name'

    real = experiment_module.train_group

    def sabotaged(method, source, train, val, configs):
        if method == "PADA":
            raise DataError(message)
        return real(method, source, train, val, configs)

    monkeypatch.setattr(experiment_module, "train_group", sabotaged)
    out = run_experiment(config, out_dir=tmp_path / "quoted")

    with (out / "grid.csv").open(newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert all(len(row) == len(header) for row in rows)
    by_method = {}
    for row in rows:
        by_method.setdefault(row[header.index("method")], []).append(dict(zip(header, row)))
    assert [r["error"] for r in by_method["PADA"]] == [message] * len(config.seeds)
    assert all(r["status"] == "ok" and r["error"] == "" for r in by_method["COM_P"])
    (row,) = read_table(analyze_experiment(out))
    assert 0.0 <= float(row["acc_pada_s"]) <= 1.0


def test_a_cell_whose_validation_scoring_fails_is_recorded_and_the_grid_goes_on(
        tmp_path, monkeypatch):
    doc = base_doc()
    doc["methods"] = ["COM_P", "PADA"]
    config = build_config(doc)

    real = experiment_module.predict

    def sabotaged(art, dm):
        if art.method == "PADA" and art.config.learning_rate == 0.05:
            raise DataError("cannot score")
        return real(art, dm)

    monkeypatch.setattr(experiment_module, "predict", sabotaged)
    out = run_experiment(config, out_dir=tmp_path / "unscored")

    pada_rows = [r for r in read_table(out / "grid.csv") if r["method"] == "PADA"]
    assert [(r["learning_rate"], r["status"], r["error"]) for r in pada_rows] == [
        ("0.02", "ok", ""), ("0.02", "ok", ""),
        ("0.05", "failed", "cannot score"), ("0.05", "failed", "cannot score")]
    sel = {r["method"]: r for r in read_table(out / "selection.csv")}
    assert (sel["PADA"]["status"], sel["PADA"]["learning_rate"]) == ("ok", "0.02")
    assert sel["COM_P"]["status"] == "ok"
    assert {r["method"] for r in read_table(out / "eval.csv")} == {"COM_P", "PADA"}


def test_unexpected_exception_fails_only_its_cells(tmp_path, monkeypatch):
    doc = base_doc()
    doc["methods"] = ["COM_P", "PADA"]
    doc["grid"]["learning_rate"] = [0.05]
    config = build_config(doc)

    real = experiment_module.train_group

    def crashing(method, source, train, val, configs):
        if method == "PADA":
            raise RuntimeError("worker bug")
        return real(method, source, train, val, configs)

    monkeypatch.setattr(experiment_module, "train_group", crashing)
    out = run_experiment(config, out_dir=tmp_path / "crashed")

    grid_rows = read_table(out / "grid.csv")
    pada_rows = [r for r in grid_rows if r["method"] == "PADA"]
    assert pada_rows and all(r["status"] == "failed" for r in pada_rows)
    assert all(r["error"] == "RuntimeError: worker bug" for r in pada_rows)
    sel = {r["method"]: r for r in read_table(out / "selection.csv")}
    assert sel["COM_P"]["status"] == "ok"
    assert {r["method"] for r in read_table(out / "eval.csv")} == {"COM_P"}
    assert (out / "checkpoints" / "COM_P" / "seed-0.json").is_file()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_a_diverging_cell_fails_alone_while_its_stack_finishes(tmp_path):
    doc = base_doc()
    doc["methods"] = ["PADA"]
    doc["grid"]["learning_rate"] = [0.05, 1e308]
    config = build_config(doc)
    out = run_experiment(config, out_dir=tmp_path / "diverged")

    error = "logits of 'D': values must be finite"
    rows = read_table(out / "grid.csv")
    assert [(r["learning_rate"], r["seed"], r["status"], r["error"]) for r in rows] == [
        ("0.05", "0", "ok", ""), ("0.05", "1", "ok", ""),
        ("1e+308", "0", "failed", error), ("1e+308", "1", "failed", error)]
    (sel,) = read_table(out / "selection.csv")
    assert (sel["learning_rate"], sel["status"]) == ("0.05", "ok")
    data = prepare_data(config)
    for seed in config.seeds:
        art = _fresh(config, data, "PADA", GridCell(0.05, 0.1, 0.0), seed)
        _assert_written_artifacts_are(out, "PADA", seed, art, tmp_path)
        with pytest.raises(InvalidInputError, match=re.escape(error)):
            _fresh(config, data, "PADA", GridCell(1e308, 0.1, 0.0), seed)


def test_a_diverging_cell_fails_by_its_finite_check_and_numpy_warns_nothing(tiny_data):
    source, train, val, _ = tiny_data
    config = TrainConfig(learning_rate=1e308, lam=0.1, steps=20, batch_size=32, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (outcome,) = experiment_module.train_group("PADA", source, train, val, [config])
    assert str(outcome) == "logits of 'D': values must be finite"


@pytest.mark.parametrize("method", METHODS)
def test_a_diverging_stack_reports_the_same_errors_with_numpy_warnings_as_errors(
        tiny_data, method):
    # the worker also scores each finished cell on the validation rows, where
    # a cell that trained to huge finite weights overflows and fails
    source, train, val, _ = tiny_data
    runs = tuple((GridCell(1e308, lam, 0.01), seed) for lam in (0.1, 1.0) for seed in (0, 1, 2))
    item = (method, runs, build_config(base_doc()).training)

    def errors(action):
        with warnings.catch_warnings():
            warnings.simplefilter(action)
            results, _ = experiment_module._group_worker(item, (source, train, val))
        return [result.error for result, _ in results]

    quiet = errors("ignore")
    assert any(quiet) and errors("error") == quiet


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_each_finished_stack_logs_one_info_line(tmp_path, caplog):
    doc = base_doc()
    doc["methods"] = ["COM_P", "PADA"]
    doc["grid"]["learning_rate"] = [0.05, 1e308]
    config = build_config(doc)
    with caplog.at_level(logging.INFO, logger="puhda.experiment"):
        out = run_experiment(config, out_dir=tmp_path / "logged")
    lines = [r.getMessage() for r in caplog.records if r.levelno == logging.INFO]
    assert len(lines) == len(experiment_module._groups(config)) == 2
    com_p = re.fullmatch(r"stack 1/2: COM_P seeds 0,1, (\d) cells ok, (\d) failed, \d+\.\d\d s",
                         lines[0])
    assert com_p and int(com_p[1]) + int(com_p[2]) == 4
    assert re.fullmatch(r"stack 2/2: PADA seeds 0,1, 2 cells ok, 2 failed, \d+\.\d\d s",
                        lines[1])
    files = {p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()}
    assert files == {"grid.csv", "selection.csv", "eval.csv", "analytics.csv",
                     "comparison.txt", "run_meta.json"} | {
        f"{kind}/{method}/seed-{seed}.{ext}" for method in config.methods
        for seed in config.seeds for kind, ext in (("telemetry", "csv"), ("checkpoints", "json"))}


def _run_with_a_dying_worker(tmp_path, monkeypatch, jobs):
    """A run in stacks of one whose completion-baseline run at learning rate
    0.05 and seed 0 kills the worker process that trains it."""
    doc = base_doc()
    doc["methods"] = ["COM_P", "DSFT_P_linear"]
    config = build_config(doc)
    real = experiment_module.train_group
    monkeypatch.setattr(experiment_module, "STACK_CAP", 1)

    def dying(method, source, train, val, configs):
        if method == "DSFT_P_linear" and (configs[0].learning_rate, configs[0].seed) == (0.05, 0):
            os._exit(1)
        return real(method, source, train, val, configs)

    monkeypatch.setattr(experiment_module, "train_group", dying)
    return run_experiment(config, out_dir=tmp_path / f"jobs-{jobs}", jobs=jobs)


def test_a_dead_worker_fails_only_its_group(tmp_path, monkeypatch):
    outs = [_run_with_a_dying_worker(tmp_path, monkeypatch, jobs) for jobs in (2, 3)]
    for out in outs:
        for name in ("grid.csv", "selection.csv", "eval.csv", "analytics.csv",
                     "comparison.txt", "run_meta.json"):
            assert (out / name).is_file(), name
        rows = read_table(out / "grid.csv")
        failed = [(r["method"], r["learning_rate"], r["seed"], r["error"])
                  for r in rows if r["status"] != "ok"]
        assert failed == [("DSFT_P_linear", "0.05", "0", "worker process died")]
        sel = {r["method"]: r for r in read_table(out / "selection.csv")}
        assert sel["DSFT_P_linear"]["learning_rate"] == "0.02"
    files = sorted(p.relative_to(outs[0]) for p in outs[0].rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(outs[1]) for p in outs[1].rglob("*") if p.is_file())
    for rel in files:
        assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes(), rel


def test_the_pool_keeps_no_stack_the_fold_has_read(monkeypatch):
    """At --jobs 2, a stack's artifacts live only until the fold has read it."""
    doc = base_doc()
    doc["methods"] = ["PADA"]
    doc["grid"]["lam"] = [0.1, 0.2, 0.3, 0.4]
    doc["training"]["steps"] = 5
    config = build_config(doc)
    monkeypatch.setattr(experiment_module, "STACK_CAP", 2)   # 8 stacks of 2 runs
    data = prepare_data(config)
    items = experiment_module._groups(config)
    read = []
    for results, _ in experiment_module._pool_outputs(
            items, (data.source, data.train, data.val), 2):
        gc.collect()
        assert [ref for ref in read if ref() is not None] == []
        read += [weakref.ref(art) for _, art in results]
    assert len(items) == 8 and len(read) == 16


def _count_trained_cells(monkeypatch) -> list[tuple]:
    """Record every (method, learning_rate, lam, eta, seed) that gets trained."""
    calls = []
    real = experiment_module.train_group

    def counted(method, source, train, val, configs):
        calls.extend((method, cfg.learning_rate, cfg.lam, cfg.eta, cfg.seed) for cfg in configs)
        return real(method, source, train, val, configs)

    monkeypatch.setattr(experiment_module, "train_group", counted)
    return calls


def test_run_trains_each_cell_once(run_config, tmp_path, monkeypatch):
    calls = _count_trained_cells(monkeypatch)
    run_experiment(run_config, out_dir=tmp_path / "once")
    assert len(calls) == len(set(calls)) == 16


def _assert_written_artifacts_are(out, method, seed, art, tmp_path):
    saved_method, models = load_checkpoint(out / "checkpoints" / method / f"seed-{seed}.json")
    assert saved_method == art.method
    assert set(models) == set(art.models())
    for slot, model in art.models().items():
        assert models[slot].weights.tobytes() == model.weights.tobytes(), (method, seed, slot)
        assert models[slot].bias.tobytes() == model.bias.tobytes(), (method, seed, slot)
    art.trace.write(tmp_path / "trace.csv")
    written = out / "telemetry" / method / f"seed-{seed}.csv"
    assert written.read_bytes() == (tmp_path / "trace.csv").read_bytes(), (method, seed)


def _fresh(config, data, method, cell, seed):
    """One cell trained afresh, as a group of one; its error raised."""
    cfg = experiment_module._cell_config(cell, seed, config.training)
    (outcome,) = experiment_module.train_group(method, data.source, data.train, data.val, [cfg])
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def test_written_artifacts_are_a_fresh_training_of_the_selected_cell(
        run_config, run_dir, tmp_path):
    data = prepare_data(run_config)
    for row in read_table(run_dir / "selection.csv"):
        cell = GridCell(float(row["learning_rate"]), float(row["lam"]), float(row["eta"]))
        for seed in run_config.seeds:
            art = _fresh(run_config, data, row["method"], cell, seed)
            _assert_written_artifacts_are(run_dir, row["method"], seed, art, tmp_path)


def test_tied_cells_keep_and_write_the_smallest_learning_rate(tmp_path, monkeypatch):
    doc = base_doc()
    doc["methods"] = ["COM_P", "PADA"]
    config = build_config(doc)
    monkeypatch.setattr(experiment_module, "accuracy", lambda probs, labels: 0.5)
    out = run_experiment(config, out_dir=tmp_path / "tied")
    data = prepare_data(config)
    for row in read_table(out / "selection.csv"):
        low, high = grid_cells(row["method"], config.grid)
        assert float(row["learning_rate"]) == low.learning_rate
        for seed in config.seeds:
            art = _fresh(config, data, row["method"], low, seed)
            _assert_written_artifacts_are(out, row["method"], seed, art, tmp_path)
            other = _fresh(config, data, row["method"], high, seed)
            assert other.classifier.weights.tobytes() != art.classifier.weights.tobytes()


# --------------------------------------------------------------------------
# Analysis


def test_analyze_reports_means_and_improvement_ratios(run_dir):
    out_path = analyze_experiment(run_dir)
    (row,) = read_table(out_path)
    eval_rows = read_table(run_dir / "eval.csv")
    means = {}
    for method in ("COM_P", "DIST", "PADA_S"):
        accs = [float(r["accuracy"]) for r in eval_rows if r["method"] == method]
        means[method] = float(np.mean(accs))
    assert float(row["acc_com"]) == pytest.approx(means["COM_P"], abs=1e-12)
    assert float(row["acc_dist"]) == pytest.approx(means["DIST"], abs=1e-12)
    assert float(row["acc_pada_s"]) == pytest.approx(means["PADA_S"], abs=1e-12)
    p_dist, p_pada_s = improvement_metrics(
        means["COM_P"], means["DIST"], means["PADA_S"])
    assert float(row["p_dist"]) == pytest.approx(p_dist, abs=1e-12)
    assert float(row["p_pada_s"]) == pytest.approx(p_pada_s, abs=1e-12)
    analytics_row = read_table(run_dir / "analytics.csv")[0]
    assert float(row["corr_tar_lab"]) == float(analytics_row["corr_tar_lab"])


def test_analyze_override_accepts_percentages(run_dir, tmp_path):
    ov = tmp_path / "ov.csv"
    ov.write_text("method,accuracy\nPADA_S,71.5\n")
    out_path = analyze_experiment(run_dir, overrides_path=ov, out_dir=tmp_path)
    (row,) = read_table(out_path)
    assert float(row["acc_pada_s"]) == pytest.approx(0.715)


def test_analyze_requires_a_completed_experiment(tmp_path):
    with pytest.raises(ConfigurationError, match="not a completed experiment"):
        analyze_experiment(tmp_path)


def test_analyze_names_the_missing_method(tmp_path):
    exp = tmp_path / "exp"
    exp.mkdir()
    (exp / "eval.csv").write_text(
        "method,seed,accuracy,auc\n"
        "COM_P,0,0.6,0.6\n"
        "PADA_S,0,0.7,0.7\n")
    with pytest.raises(ConfigurationError, match="needs DIST results"):
        analyze_experiment(exp)


@pytest.mark.parametrize(
    "text, message",
    [
        ("PADA_S,0.7,extra\n", "expected method,accuracy"),
        ("PADA_S,wat\n", "cannot parse accuracy"),
        ("PADA_S,150\n", "out of range"),
        ("PADA_S,-0.2\n", "out of range"),
        ("PADA-S,0.99\n", "ov.csv: line 1: unknown method 'PADA-S'"),
        ("method,accuracy\nCOM_P,0.6\nDIST_P,0.7\n", "ov.csv: line 3: unknown method 'DIST_P'"),
        # a method a config can name, which the analysis does not read
        ("PADA,0.9\n",
         "ov.csv: line 1: unknown method 'PADA'; analyze reads COM_P, DIST, PADA_S"),
    ],
)
def test_override_file_diagnostics(tmp_path, text, message):
    path = tmp_path / "ov.csv"
    path.write_text(text)
    with pytest.raises(DataError, match=re.escape(message)):
        _read_overrides(path)


def test_override_file_reads_quoted_fields(tmp_path):
    path = tmp_path / "ov.csv"
    path.write_text('method,accuracy\n"PADA_S", 0.7\n\n"COM_P","61"\n')
    assert _read_overrides(path) == {"PADA_S": 0.7, "COM_P": 0.61}


def test_empty_override_file_means_no_overrides(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    blank = tmp_path / "blank.csv"
    blank.write_text("\n  \n")
    assert _read_overrides(empty) == {}
    assert _read_overrides(blank) == {}


GOOD_EVAL = "method,seed,accuracy,auc\nCOM_P,0,0.6,0.6\nDIST,0,0.65,0.6\nPADA_S,0,0.7,0.7\n"


@pytest.mark.parametrize(
    "eval_text, analytics_text, bad_file, message",
    [
        pytest.param("method,seed,accuracy,auc\nCOM_P,0,0.6\n", None, "eval.csv",
                     "row 1 has 3 cells, header has 4", id="short-eval-row"),
        pytest.param(GOOD_EVAL + "DIST,1,high,0.5\n", None, "eval.csv",
                     "row 4, column 'accuracy': cannot parse 'high'", id="non-numeric-accuracy"),
        pytest.param(GOOD_EVAL + "DIST,1,nan,0.5\n", None, "eval.csv",
                     "row 4, column 'accuracy': 'nan' is not a finite number", id="nan-accuracy"),
        pytest.param("method,seed,auc\nCOM_P,0,0.6\n", None, "eval.csv",
                     "missing column 'accuracy'", id="missing-accuracy-column"),
        pytest.param(GOOD_EVAL, "corr_tar_lab,corr_com_lab,r_tar_com,corr_tar_sou\n0.5,0.2\n",
                     "analytics.csv", "row 1 has 2 cells, header has 4", id="short-analytics-row"),
    ],
)
def test_analyze_rejects_malformed_inputs_naming_the_file(
        tmp_path, capsys, eval_text, analytics_text, bad_file, message):
    exp = tmp_path / "exp"
    exp.mkdir()
    (exp / "eval.csv").write_text(eval_text)
    if analytics_text is not None:
        (exp / "analytics.csv").write_text(analytics_text)
    with pytest.raises(PuhdaError, match=re.escape(f"{exp / bad_file}: {message}")):
        analyze_experiment(exp, out_dir=tmp_path / "out")
    assert main(["analyze", str(exp), "--out", str(tmp_path / "out")]) == 2
    assert f"{exp / bad_file}: {message}" in capsys.readouterr().err


def test_missing_override_file_is_an_error_not_a_traceback(tmp_path, capsys):
    (tmp_path / "eval.csv").write_text(GOOD_EVAL)
    missing = tmp_path / "nope.csv"
    assert main(["analyze", str(tmp_path), "--overrides", str(missing)]) == 2
    assert f"error: {missing}: cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("dataset, missing", [(csv_dataset(), "s.csv"),
                                              (ratings_dataset(), "r.csv")])
def test_run_with_a_missing_data_file_is_an_error_not_a_traceback(
        tmp_path, capsys, monkeypatch, dataset, missing):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump({"dataset": dataset, "methods": ["COM_P"]}))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert f"error: {missing}: cannot read" in capsys.readouterr().err


def test_run_on_a_source_file_with_a_negative_label_names_the_file(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "s.csv").write_text("a,b,c,y\n0.1,0.2,0.3,yes\n0.4,0.5,0.6,no\n")
    (tmp_path / "t.csv").write_text("a,b,d,y\n0.1,0.2,0.3,yes\n0.4,0.5,0.6,no\n")
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump({"dataset": csv_dataset(), "methods": ["COM_P"]}))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "error: s.csv: a source matrix can only carry positive labels\n")


@pytest.mark.parametrize("field", ["n_source", "n_target"])
def test_run_with_a_size_too_large_for_any_array_is_an_error_not_a_traceback(
        tmp_path, capsys, field):
    doc = base_doc()
    doc["dataset"]["synthetic"][field] = 10 ** 399
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(doc))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {field}: too large, got {10 ** 399}\n"


def test_override_file_header_is_optional(tmp_path):
    bare = tmp_path / "bare.csv"
    bare.write_text("COM_P,0.61\n")
    headed = tmp_path / "headed.csv"
    headed.write_text("method,accuracy\nCOM_P,61\n")
    assert _read_overrides(bare) == {"COM_P": 0.61}
    assert _read_overrides(headed) == {"COM_P": 0.61}


# --------------------------------------------------------------------------
# Ablation


@pytest.fixture(scope="module")
def ablation_config():
    doc = base_doc()
    doc["methods"] = ["COM_P", "PADA", "PADA_F"]
    doc["grid"]["learning_rate"] = [0.05]
    return build_config(doc)


@pytest.fixture(scope="module")
def ablation_dir(ablation_config, tmp_path_factory):
    out = tmp_path_factory.mktemp("abl") / "run"
    return ablate_experiment(ablation_config, out_dir=out)


def test_ablate_requires_both_alignment_methods():
    doc = base_doc()
    with pytest.raises(ConfigurationError, match="PADA_F"):
        ablate_experiment(build_config(doc), out_dir="unused")
    doc["methods"] = ["COM_P", "PADA_F"]
    with pytest.raises(ConfigurationError, match="PADA"):
        ablate_experiment(build_config(doc), out_dir="unused")


def test_ablate_trains_each_cell_once(tmp_path, monkeypatch):
    doc = base_doc()
    doc["methods"] = ["COM_P", "PADA", "PADA_F"]
    calls = _count_trained_cells(monkeypatch)
    ablate_experiment(build_config(doc), out_dir=tmp_path / "once")
    assert len(calls) == len(set(calls)) == 3 * 2 * 2


def test_ablation_report_shape(ablation_config, ablation_dir):
    rows = read_table(ablation_dir / "ablation.csv")
    n_seeds = len(ablation_config.seeds)
    assert len(rows) == len(ABLATION_SPACES) * (n_seeds + 1)
    assert {row["space"] for row in rows} == set(ABLATION_SPACES)
    for space in ABLATION_SPACES:
        seeds = [row["seed"] for row in rows if row["space"] == space]
        assert seeds == [str(s) for s in ablation_config.seeds] + ["average"]


def test_ablation_gap_is_the_accuracy_difference(ablation_dir):
    for row in read_table(ablation_dir / "ablation.csv"):
        gap = float(row["acc_pn"]) - float(row["acc_pp"])
        assert float(row["gap"]) == pytest.approx(gap, abs=1e-12)


def test_ablation_common_space_ignores_the_training_seed(ablation_config, ablation_dir):
    rows = [row for row in read_table(ablation_dir / "ablation.csv")
            if row["space"] == "common" and row["seed"] != "average"]
    probes = {(row["acc_pp"], row["acc_pn"]) for row in rows}
    assert len(probes) == 1


def test_ablation_average_rows_are_means(ablation_config, ablation_dir):
    rows = read_table(ablation_dir / "ablation.csv")
    for space in ABLATION_SPACES:
        per_seed = [r for r in rows if r["space"] == space and r["seed"] != "average"]
        (avg,) = [r for r in rows if r["space"] == space and r["seed"] == "average"]
        for col in ("acc_pp", "acc_pn", "gap", "method_accuracy"):
            mean = float(np.mean([float(r[col]) for r in per_seed]))
            assert float(avg[col]) == pytest.approx(mean, abs=1e-12)


def test_ablation_method_accuracy_matches_the_evaluation(ablation_config, ablation_dir):
    eval_rows = read_table(ablation_dir / "eval.csv")
    acc = {(r["method"], r["seed"]): float(r["accuracy"]) for r in eval_rows}
    for row in read_table(ablation_dir / "ablation.csv"):
        if row["seed"] == "average":
            continue
        method = "COM_P" if row["space"] == "common" else row["space"]
        assert float(row["method_accuracy"]) == pytest.approx(
            acc[(method, row["seed"])], abs=1e-12)


def test_ablation_writes_the_standard_reports_too(ablation_dir):
    for name in ("grid.csv", "selection.csv", "eval.csv", "comparison.txt"):
        assert (ablation_dir / name).is_file()


def test_parallel_ablation_matches_serial_byte_for_byte(ablation_config, ablation_dir, tmp_path):
    par = ablate_experiment(ablation_config, out_dir=tmp_path / "par", jobs=2)
    files = sorted(p.relative_to(ablation_dir) for p in ablation_dir.rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(par) for p in par.rglob("*") if p.is_file())
    assert {rel.parts[0] for rel in files} >= {"ablation.csv", "ablation.txt", "grid.csv"}
    for rel in files:
        assert (ablation_dir / rel).read_bytes() == (par / rel).read_bytes(), rel


# --------------------------------------------------------------------------
# Data file generation


def test_generate_round_trips_the_synthetic_matrices(tmp_path):
    doc = base_doc()
    config = build_config(doc)
    out = generate_files(config, out_dir=tmp_path / "gen")
    source, target, oracle = generate_synthetic(config.dataset)
    loaded_source, _ = load_saved(out / "source.csv")
    loaded_target, _ = load_saved(out / "target.csv")
    assert np.array_equal(loaded_source.common, source.common)
    assert np.array_equal(loaded_source.specific, source.specific)
    assert np.array_equal(loaded_target.specific, target.specific)
    assert np.array_equal(loaded_target.labels, target.labels)
    meta = json.loads((out / "generation_meta.json").read_text())
    assert meta["oracle_accuracy"] == pytest.approx(oracle)
    assert meta["rows"] == {"source": source.n, "target": target.n}


def test_generate_requires_a_synthetic_dataset(tmp_path):
    doc = base_doc()
    doc["dataset"] = {
        "kind": "ratings",
        "ratings": {
            "ratings": "r.csv", "genres": "g.csv",
            "common_genres": ["a"], "source_genres": ["b"],
            "target_genres": ["c"], "label_genre": "d",
        },
    }
    with pytest.raises(ConfigurationError, match="synthetic"):
        generate_files(build_config(doc), out_dir=tmp_path)


def write_ratings_fixture(tmp_path):
    rng = np.random.default_rng(3)
    genres = ["drama", "comedy", "action", "thriller", "romance", "scifi", "horror"]
    lines = ["item,genres"]
    for item in range(1, 41):
        picks = rng.choice(genres, size=rng.integers(1, 4), replace=False)
        lines.append(f"{item},{'|'.join(picks)}")
    (tmp_path / "genres.csv").write_text("\n".join(lines) + "\n")
    rows = ["user,item,rating"]
    for user in range(1, 61):
        for item in rng.choice(np.arange(1, 41), size=rng.integers(5, 15), replace=False):
            rows.append(f"{user},{item},{rng.integers(1, 6)}")
    (tmp_path / "ratings.csv").write_text("\n".join(rows) + "\n")
    return {
        "kind": "ratings",
        "ratings": {
            "ratings": str(tmp_path / "ratings.csv"),
            "genres": str(tmp_path / "genres.csv"),
            "common_genres": ["drama", "comedy"],
            "source_genres": ["action", "thriller"],
            "target_genres": ["romance", "scifi"],
            "label_genre": "horror",
        },
    }


def test_aggregate_writes_loadable_matrices(tmp_path):
    doc = base_doc()
    doc["dataset"] = write_ratings_fixture(tmp_path)
    out = aggregate_files(build_config(doc), out_dir=tmp_path / "agg")
    source, source_doc = load_saved(out / "source.csv")
    target, target_doc = load_saved(out / "target.csv")
    assert source_doc["role"] == "source"
    assert target_doc["role"] == "target"
    assert source_doc["schema"]["common"] == ["drama", "comedy"]
    assert target_doc["schema"]["target_specific"] == ["romance", "scifi"]
    assert set(np.unique(target.labels)) <= {0, 1}
    meta = json.loads((out / "aggregation_meta.json").read_text())
    assert meta["label_genre"] == "horror"


def test_aggregate_requires_a_ratings_dataset(tmp_path):
    with pytest.raises(ConfigurationError, match="ratings"):
        aggregate_files(build_config(base_doc()), out_dir=tmp_path)


# --------------------------------------------------------------------------
# Output directory resolution


def test_output_directory_precedence(tmp_path, monkeypatch):
    doc = base_doc()
    doc["output"] = str(tmp_path / "from-config")
    config = build_config(doc)

    monkeypatch.setenv(OUTPUT_ENV_VAR, str(tmp_path / "from-env"))
    out = generate_files(config, out_dir=tmp_path / "from-arg")
    assert out == tmp_path / "from-arg"

    out = generate_files(config)
    assert out == tmp_path / "from-env"

    monkeypatch.delenv(OUTPUT_ENV_VAR)
    out = generate_files(config)
    assert out == tmp_path / "from-config"


def test_missing_output_directory_is_an_error(monkeypatch):
    monkeypatch.delenv(OUTPUT_ENV_VAR, raising=False)
    config = build_config(base_doc())
    with pytest.raises(ConfigurationError, match="no output directory"):
        generate_files(config)


def _tree(root):
    return {p: p.read_bytes() if p.is_file() else None for p in sorted(root.rglob("*"))}


@pytest.mark.parametrize("blocked", ["file", "under-file"])
@pytest.mark.parametrize("command", ["run", "ablate", "generate", "aggregate", "analyze"])
def test_output_path_that_cannot_be_a_directory_is_an_error(tmp_path, capsys, command,
                                                            blocked):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    out = taken if blocked == "file" else taken / "sub"
    doc = base_doc()
    if command == "ablate":
        doc["methods"] = ["PADA", "PADA_F"]
    if command == "aggregate":
        doc["dataset"] = write_ratings_fixture(tmp_path)
    if command == "analyze":
        (tmp_path / "exp").mkdir()
        (tmp_path / "exp" / "eval.csv").write_text(GOOD_EVAL)
        argv = ["analyze", str(tmp_path / "exp")]
    else:
        (tmp_path / "config.yaml").write_text(yaml.safe_dump(doc))
        argv = [command, "--config", str(tmp_path / "config.yaml")]
    before = _tree(tmp_path)
    assert main(argv + ["--out", str(out)]) == 2
    assert f"error: {out}: cannot create the output directory" in capsys.readouterr().err
    assert _tree(tmp_path) == before


# --------------------------------------------------------------------------
# Command line


@pytest.fixture()
def config_file(tmp_path):
    doc = base_doc()
    doc["methods"] = ["COM_P"]
    doc["grid"]["learning_rate"] = [0.05]
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(doc))
    return path


def test_cli_run_prints_the_output_directory(config_file, tmp_path, capsys):
    out = tmp_path / "exp"
    assert main(["run", "--config", str(config_file), "--out", str(out)]) == 0
    assert capsys.readouterr().out.strip() == str(out)
    assert (out / "eval.csv").is_file()


def test_failed_telemetry_write_is_an_error_after_the_reports(config_file, tmp_path, capsys):
    out = tmp_path / "exp"
    out.mkdir()
    (out / "telemetry").write_text("not a directory\n")
    assert main(["run", "--config", str(config_file), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "telemetry" in err
    for name in ("grid.csv", "selection.csv", "eval.csv", "analytics.csv",
                 "comparison.txt", "run_meta.json"):
        assert (out / name).is_file()


def test_cli_seeds_flag_narrows_the_run(config_file, tmp_path, capsys):
    out = tmp_path / "exp"
    assert main(["run", "--config", str(config_file), "--out", str(out),
                 "--seeds", "1"]) == 0
    rows = read_table(out / "eval.csv")
    assert {row["seed"] for row in rows} == {"1"}


def test_cli_run_reads_an_exponent_grid(config_file, tmp_path, capsys):
    doc = yaml.safe_load(config_file.read_text())
    del doc["grid"]
    config_file.write_text(
        yaml.safe_dump(doc) + "grid: {learning_rate: [2e-2, 5e-2], lam: [1e-1]}\n")
    out = tmp_path / "exp"
    assert main(["run", "--config", str(config_file), "--out", str(out)]) == 0
    rows = read_table(out / "grid.csv")
    assert {(row["learning_rate"], row["lam"]) for row in rows} == {
        ("0.02", "0.1"), ("0.05", "0.1")}
    assert {row["status"] for row in rows} == {"ok"}


def test_cli_seeds_flag_goes_through_the_config_checks(config_file, tmp_path, capsys):
    assert main(["run", "--config", str(config_file), "--out", str(tmp_path / "exp"),
                 "--seeds", "0,-1"]) == 2
    assert "error: seeds: must be >= 0, got -1" in capsys.readouterr().err
    assert not (tmp_path / "exp").exists()
    assert main(["run", "--config", str(config_file), "--out", str(tmp_path / "exp"),
                 "--seeds", ","]) == 2
    assert "error: seeds: the list is empty" in capsys.readouterr().err
    assert not (tmp_path / "exp").exists()


def test_cli_analyze_and_overrides(run_dir, tmp_path, capsys):
    ov = tmp_path / "ov.csv"
    ov.write_text("PADA_S,0.9\n")
    assert main(["analyze", str(run_dir), "--overrides", str(ov),
                 "--out", str(tmp_path / "an")]) == 0
    (row,) = read_table(tmp_path / "an" / "analysis.csv")
    assert float(row["acc_pada_s"]) == pytest.approx(0.9)


def test_cli_generate(config_file, tmp_path, capsys):
    out = tmp_path / "gen"
    assert main(["generate", "--config", str(config_file), "--out", str(out)]) == 0
    assert (out / "source.csv").is_file()


def test_cli_reports_domain_errors_on_stderr(tmp_path, capsys):
    assert main(["analyze", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "not a completed experiment" in err


@pytest.mark.parametrize("command", ["run", "ablate"])
@pytest.mark.parametrize("jobs", ["0", "-3", "two"])
def test_cli_rejects_jobs_below_one(command, jobs, capsys):
    with pytest.raises(SystemExit) as exc_info:
        main([command, "--config", "c.yaml", "--jobs", jobs])
    assert exc_info.value.code == 2
    assert "--jobs" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["run"],
        ["run", "--config", "c.yaml", "--seeds", "0,x"],
        ["frobnicate"],
        [],
    ],
)
def test_cli_rejects_malformed_invocations(argv, capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(argv)
    assert exc_info.value.code == 2
