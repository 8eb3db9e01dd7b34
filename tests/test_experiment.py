"""End-to-end tests for the experiment pipeline and its command line."""

import csv
import json
import re

import numpy as np
import pytest
import yaml

from puhda.cli import main
from puhda.data import generate_synthetic, load_domain_matrix
from puhda.errors import ConfigurationError, DataError, PuhdaError
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
    select_cells,
)
from puhda.metrics import improvement_metrics
from puhda.trainers import GRID_LEARNING_RATE, GRID_WEIGHT

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


def read_table(path) -> list[dict]:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:] if line]


# --------------------------------------------------------------------------
# Config parsing


def test_build_config_happy_path():
    cfg = build_config(base_doc())
    assert cfg.dataset_kind == "synthetic"
    assert cfg.synthetic.c == 2
    assert cfg.synthetic.s == 2
    assert cfg.synthetic.t == 2
    assert cfg.synthetic.n_source == 150
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
        (("seeds",), [-1], "seeds: values must be >= 0"),
        (("seeds",), [1, 1], "seeds: duplicate entries"),
        (("seeds",), [], "seeds: the list is empty"),
        (("dataset", "kind"), "parquet", "expected synthetic, csv, or ratings"),
        (("dataset", "synthetic"), ..., "missing section 'synthetic'"),
        (("dataset", "synthetic", "n_source"), ..., "missing field 'n_source'"),
        (("dataset", "synthetic", "warp"), 3, "dataset.synthetic: unknown field 'warp'"),
        (("dataset", "synthetic", "common"), "two", "dataset.synthetic.common"),
        (("grid", "learning_rate"), [], "grid.learning_rate: expected a non-empty list"),
        (("grid", "learning_rate"), [-0.1], "grid.learning_rate: values must be positive"),
        (("grid", "mu"), [0.1], "grid: unknown field 'mu'"),
        (("training", "steps"), 0, "training: steps and batch sizes must be >= 1"),
        (("training", "momentum"), 0.9, "training: unknown field 'momentum'"),
        (("split", "test"), ..., "split: missing field 'test'"),
        (("output",), 7, "output: expected a directory path"),
    ],
)
def test_build_config_rejects_bad_documents(path, value, message):
    doc = _set(base_doc(), path, value)
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        build_config(doc)


def test_config_echo_parses_back_to_the_same_config():
    cfg = build_config(base_doc())
    assert build_config(config_to_dict(cfg)) == cfg


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
    assert cfg.ratings.label_genre == "horror"
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
    assert cfg.csv.schema.common == ("a", "b")
    assert cfg.csv.positive_value == "yes"
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


def test_select_cells_picks_highest_mean_validation_accuracy():
    grid = GridSpec(learning_rate=(0.01, 0.02, 0.05), lam=(0.1,), eta=(0.1,))
    config = _config_for_selection(grid)
    cells = grid_cells("PADA", grid)
    results = [
        _result(cells[0], 0, 0.60), _result(cells[0], 1, 0.62),
        _result(cells[1], 0, 0.70), _result(cells[1], 1, 0.74),
        _result(cells[2], 0, 0.68), _result(cells[2], 1, 0.69),
    ]
    sel = select_cells(config, results)["PADA"]
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
    sel = select_cells(config, results)["PADA"]
    assert sel.cell == low


def test_select_cells_skips_cells_with_a_failed_seed():
    grid = GridSpec(learning_rate=(0.01, 0.05), lam=(0.1,), eta=(0.1,))
    config = _config_for_selection(grid)
    low, high = grid_cells("PADA", grid)
    results = [
        _result(low, 0, 0.60), _result(low, 1, 0.60),
        _result(high, 0, 0.99), _result(high, 1, float("nan"), status="failed"),
    ]
    sel = select_cells(config, results)["PADA"]
    assert sel.cell == low


def test_select_cells_skips_cells_missing_a_seed():
    grid = GridSpec(learning_rate=(0.01, 0.05), lam=(0.1,), eta=(0.1,))
    config = _config_for_selection(grid)
    low, high = grid_cells("PADA", grid)
    results = [
        _result(low, 0, 0.60), _result(low, 1, 0.60),
        _result(high, 0, 0.99),
    ]
    sel = select_cells(config, results)["PADA"]
    assert sel.cell == low


def test_select_cells_reports_failure_when_nothing_is_eligible():
    grid = GridSpec(learning_rate=(0.01,), lam=(0.1,), eta=(0.1,))
    config = _config_for_selection(grid)
    (cell,) = grid_cells("PADA", grid)
    results = [
        _result(cell, 0, float("nan"), status="failed"),
        _result(cell, 1, float("nan"), status="failed"),
    ]
    sel = select_cells(config, results)["PADA"]
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


def test_seed_override_restricts_the_run(run_config, tmp_path):
    out = run_experiment(run_config, out_dir=tmp_path / "one-seed", seeds=[1])
    rows = read_table(out / "eval.csv")
    assert {row["seed"] for row in rows} == {"1"}


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

    real = experiment_module.train_method

    def sabotaged(method, source, train, val, cfg):
        if method == "PADA":
            raise DataError("boom")
        return real(method, source, train, val, cfg)

    monkeypatch.setattr(experiment_module, "train_method", sabotaged)
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

    real = experiment_module.train_method

    def sabotaged(method, source, train, val, cfg):
        if method == "PADA" and cfg.learning_rate == 0.05:
            raise DataError("boom")
        return real(method, source, train, val, cfg)

    monkeypatch.setattr(experiment_module, "train_method", sabotaged)
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

    real = experiment_module.train_method

    def sabotaged(method, source, train, val, cfg):
        if method == "PADA":
            raise DataError(message)
        return real(method, source, train, val, cfg)

    monkeypatch.setattr(experiment_module, "train_method", sabotaged)
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


def test_unexpected_exception_fails_only_its_cells(tmp_path, monkeypatch):
    doc = base_doc()
    doc["methods"] = ["COM_P", "PADA"]
    doc["grid"]["learning_rate"] = [0.05]
    config = build_config(doc)

    real = experiment_module.train_method

    def crashing(method, source, train, val, cfg):
        if method == "PADA":
            raise RuntimeError("worker bug")
        return real(method, source, train, val, cfg)

    monkeypatch.setattr(experiment_module, "train_method", crashing)
    out = run_experiment(config, out_dir=tmp_path / "crashed")

    grid_rows = read_table(out / "grid.csv")
    pada_rows = [r for r in grid_rows if r["method"] == "PADA"]
    assert pada_rows and all(r["status"] == "failed" for r in pada_rows)
    assert all(r["error"] == "RuntimeError: worker bug" for r in pada_rows)
    sel = {r["method"]: r for r in read_table(out / "selection.csv")}
    assert sel["COM_P"]["status"] == "ok"
    assert {r["method"] for r in read_table(out / "eval.csv")} == {"COM_P"}
    assert (out / "checkpoints" / "COM_P" / "seed-0.json").is_file()


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
    ],
)
def test_override_file_diagnostics(tmp_path, text, message):
    path = tmp_path / "ov.csv"
    path.write_text(text)
    with pytest.raises(DataError, match=re.escape(message)):
        _read_overrides(path)


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


# --------------------------------------------------------------------------
# Data file generation


def test_generate_round_trips_the_synthetic_matrices(tmp_path):
    doc = base_doc()
    config = build_config(doc)
    out = generate_files(config, out_dir=tmp_path / "gen")
    source, target, oracle = generate_synthetic(config.synthetic)
    loaded_source = load_domain_matrix(out / "source.csv")
    loaded_target = load_domain_matrix(out / "target.csv")
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
    source = load_domain_matrix(out / "source.csv")
    target = load_domain_matrix(out / "target.csv")
    assert source.role == "source"
    assert target.role == "target"
    assert source.schema.common == ("drama", "comedy")
    assert target.schema.target_specific == ("romance", "scifi")
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


def test_cli_seeds_flag_narrows_the_run(config_file, tmp_path, capsys):
    out = tmp_path / "exp"
    assert main(["run", "--config", str(config_file), "--out", str(out),
                 "--seeds", "1"]) == 0
    rows = read_table(out / "eval.csv")
    assert {row["seed"] for row in rows} == {"1"}


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
