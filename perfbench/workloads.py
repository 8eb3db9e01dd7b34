"""The benchmark's three workloads.

Every workload is a closed loop: one caller runs the timed call, waits for
it, checks its outputs, and only then starts the next one. Everything runs in
one process with ``jobs=1``. The workload seed sets the synthetic-data and
split seeds; ``puhda`` receives only the generated config documents and files.

Each workload has three parts: ``setup`` (untimed by ``wall_s``, timed by
``setup_s``), ``call`` (the timed call) and ``check`` (untimed output checks,
returning the cell counts, test accuracies and a digest of the deterministic
outputs).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

import puhda.cli
import puhda.data
import puhda.metrics
import puhda.trainers

from checks import Checker, check_ablation, check_reports, read_tables, tree_digest
from layers import METHODS, cell_record

# Knobs of the frozen benchmark in tests/conftest.py, in config-grammar names.
SIGNAL = {
    "positive_ratio": 0.5,
    "signal_common": 0.2,
    "signal_source": 1.4,
    "signal_target": 2.0,
    "coupling": 0.98,
    "noise_scale": 0.5,
    "label_separation": 1.4,
}
SPLIT = {"train": 0.6, "val": 0.2, "test": 0.2}


@dataclass(frozen=True)
class Sizes:
    narrow: tuple[int, int, int, int, int]   # c, s, t, source rows, target rows
    wide: tuple[int, int, int, int, int]
    narrow_batch: int
    wide_batch: int
    grid_steps: int
    loop_steps: int
    ablate_steps: int
    probe_steps: int


# ``full`` is what the benchmark measures; ``tiny`` only exercises the plumbing.
SIZES = {
    "full": Sizes(narrow=(4, 6, 6, 1500, 4000), wide=(16, 48, 48, 6000, 20000),
                  narrow_batch=128, wide_batch=1024,
                  grid_steps=40, loop_steps=150, ablate_steps=60, probe_steps=60),
    "tiny": Sizes(narrow=(2, 3, 3, 150, 300), wide=(4, 8, 8, 200, 500),
                  narrow_batch=32, wide_batch=64,
                  grid_steps=3, loop_steps=3, ablate_steps=3, probe_steps=3),
}
# Soft-label rounds run to the cap (patience = cap), so the work per cell does
# not depend on which seed the data came from.
SOFT_ROUNDS = 3


@dataclass
class Outcome:
    cells: int
    ok_cells: int
    accuracy: dict[str, float]   # mean sealed-test accuracy per method
    digest: str                  # fingerprint of the deterministic outputs


def _synthetic(shape, seed: int) -> dict:
    c, s, t, n_source, n_target = shape
    return {"common": c, "source_specific": s, "target_specific": t,
            "n_source": n_source, "n_target": n_target, **SIGNAL, "seed": seed}


def _write_yaml(path: Path, doc: dict) -> Path:
    path.write_text(yaml.safe_dump(doc, sort_keys=True))
    return path


def _cli(argv) -> int:
    """``puhda.cli.main`` in-process, its printed output path discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return puhda.cli.main(argv)


def _combine(digests: dict[str, str]) -> str:
    return hashlib.sha256(json.dumps(digests, sort_keys=True).encode()).hexdigest()


class GridNarrow:
    name = "grid_narrow"
    why = ("This is what users run: `puhda run` with all six methods on narrow data, "
           "where per-step interpreter overhead dominates and retrain_selected only "
           "repeats cells the grid already trained.")
    methods = METHODS
    seeds = (0, 1)
    learning_rates = (0.3, 0.6)

    def __init__(self, sizes: Sizes, seed: int, work: Path):
        self.sizes, self.seed, self.work = sizes, seed, work

    def setup(self, tag: str) -> Path:
        doc = {
            "dataset": {"kind": "synthetic", "synthetic": _synthetic(self.sizes.narrow, self.seed)},
            "methods": list(self.methods),
            "seeds": list(self.seeds),
            "split": {**SPLIT, "seed": self.seed},
            "grid": {"learning_rate": list(self.learning_rates), "lam": [0.1], "eta": [0.01]},
            "training": {"steps": self.sizes.grid_steps, "batch_size": self.sizes.narrow_batch,
                         "max_soft_rounds": SOFT_ROUNDS, "val_patience": SOFT_ROUNDS},
        }
        return _write_yaml(self.work / f"run-{tag}.yaml", doc)

    def fingerprint(self, state: Path) -> str:
        return hashlib.sha256(state.read_bytes()).hexdigest()

    def call(self, state: Path, out: Path, tracer) -> int:
        return _cli(["run", "--config", str(state), "--out", str(out), "--jobs", "1"])

    def check(self, checker: Checker, state, out: Path, code: int) -> Outcome:
        checker.check(code == 0, f"puhda run exited with {code}")
        tables = read_tables(checker, out)
        grid_rows = len(self.methods) * len(self.learning_rates) * len(self.seeds)
        cells, ok_cells, accuracy = check_reports(checker, tables, self.methods, self.seeds,
                                                  grid_rows)
        return Outcome(cells, ok_cells, accuracy, _combine(tree_digest(out)))


@dataclass
class Prepared:
    source: object
    train: object
    val: object
    test: object


# The six trainer calls, in the order the trainer loop makes them; ``t`` is
# the trainers module, looked up at call time so a traced pass sees wrappers.
TRAINER_CALLS = {
    "COM_P": lambda t, d, c: t.train_com_p(d.source, d.train, c),
    "DIST": lambda t, d, c: t.train_dist(d.train, t.train_com_p(d.source, d.train, c).classifier, c),
    "PADA": lambda t, d, c: t.train_pada(d.source, d.train, c),
    "PADA_F": lambda t, d, c: t.train_pada_f(d.source, d.train, c),
    "PADA_S": lambda t, d, c: t.train_pada_s(d.source, d.train, c, val_target=d.val),
    "DSFT_P_linear": lambda t, d, c: t.train_dsft_p(d.source, d.train, c),
}


class TrainerLoop:
    name = "trainer_loop"
    why = ("Isolates the hot path trainers -> objectives -> models -> numerics: the six "
           "trainers called directly at seed 0, no experiment layer and no files, so a "
           "change to experiment must read as no change here.")
    methods = tuple(TRAINER_CALLS)

    def __init__(self, sizes: Sizes, seed: int, work: Path):
        self.sizes, self.seed, self.work = sizes, seed, work
        self.config = puhda.trainers.TrainConfig(
            learning_rate=0.3, lam=0.1, eta=0.01, steps=sizes.loop_steps,
            batch_size=sizes.narrow_batch, seed=0,
            max_soft_rounds=SOFT_ROUNDS, val_patience=SOFT_ROUNDS)

    def setup(self, tag: str) -> Prepared:
        data = puhda.data
        c, s, t, n_source, n_target = self.sizes.narrow
        spec = data.SyntheticSpec(c=c, s=s, t=t, n_source=n_source, n_target=n_target,
                                  seed=self.seed, **SIGNAL)
        source, target, _ = data.generate_synthetic(spec)
        train, val, test = data.split(target, data.SplitSpec(**SPLIT, seed=self.seed))
        return Prepared(*data.standardize_splits(source, train, val, test))

    def fingerprint(self, state: Prepared) -> str:
        h = hashlib.sha256()
        for dm in (state.source, state.train, state.val, state.test):
            h.update(dm.features().tobytes())
            h.update(dm.labels.tobytes())
        return h.hexdigest()

    def call(self, state: Prepared, out: Path, tracer) -> dict:
        trained = {}
        for method, train in TRAINER_CALLS.items():
            with tracer.cell(method) as info:
                trained[method] = train(puhda.trainers, state, self.config)
                info.update(cell_record(method, self.config, trained[method]))
        return trained

    def check(self, checker: Checker, state: Prepared, out: Path, trained: dict) -> Outcome:
        h = hashlib.sha256()
        ok_cells = 0
        accuracy = {}
        for method in self.methods:
            art = trained[method]
            models = art.models()
            finite = all(np.isfinite(m.weights).all() and np.isfinite(m.bias).all()
                         for m in models.values())
            ok = checker.check(finite, f"{method}: non-finite parameters")
            ok &= checker.check(len(art.trace) == self.config.steps,
                                f"{method}: {len(art.trace)} trace rows, expected {self.config.steps}")
            if method == "PADA_S":
                ok &= checker.check(art.rounds_run == SOFT_ROUNDS,
                                    f"PADA_S ran {art.rounds_run} rounds, expected {SOFT_ROUNDS}")
            acc = puhda.metrics.accuracy(puhda.trainers.predict(art, state.test), state.test.labels)
            ok &= checker.check(0.0 <= acc <= 1.0, f"{method}: test accuracy {acc}")
            ok_cells += ok
            accuracy[method] = acc
            h.update(method.encode())
            for name, model in sorted(models.items()):
                h.update(name.encode() + model.weights.tobytes() + model.bias.tobytes())
            h.update(np.asarray(art.trace.rows, dtype=np.float64).tobytes())
        return Outcome(len(self.methods), ok_cells, accuracy, h.hexdigest())


@dataclass
class AblateInputs:
    config: Path
    data: Path   # the generated csv files the config points at


class AblateWide:
    name = "ablate_wide"
    why = ("Matrix arithmetic dominates on wide features (batch 1024), so an overhead-only "
           "change should show no gain here, while work proportional to data size shows "
           "its cost; the only workload that reads csv files and runs the probe.")
    methods = ("COM_P", "PADA", "PADA_F")
    seeds = (0,)
    spaces = ("common", "PADA", "PADA_F")

    def __init__(self, sizes: Sizes, seed: int, work: Path):
        self.sizes, self.seed, self.work = sizes, seed, work

    def setup(self, tag: str) -> AblateInputs:
        data = self.work / f"data-{tag}"
        generate = _write_yaml(self.work / f"generate-{tag}.yaml", {
            "dataset": {"kind": "synthetic", "synthetic": _synthetic(self.sizes.wide, self.seed)},
            "methods": list(self.methods),
        })
        code = _cli(["generate", "--config", str(generate), "--out", str(data)])
        if code != 0:
            raise RuntimeError(f"puhda generate exited with {code}")
        sidecar = json.loads((data / "source.csv.schema.json").read_text())["schema"]
        schema = {"common": sidecar["common"], "source_specific": sidecar["source_specific"],
                  "target_specific": sidecar["target_specific"], "label": sidecar["label_column"]}
        config = _write_yaml(self.work / f"ablate-{tag}.yaml", {
            "dataset": {"kind": "csv", "csv": {"source": str(data / "source.csv"),
                                               "target": str(data / "target.csv"),
                                               "schema": schema}},
            "methods": list(self.methods),
            "seeds": list(self.seeds),
            "split": {**SPLIT, "seed": self.seed},
            "grid": {"learning_rate": [0.1], "lam": [0.1], "eta": [0.01]},
            "training": {"steps": self.sizes.ablate_steps, "batch_size": self.sizes.wide_batch,
                         "probe_steps": self.sizes.probe_steps, "probe_learning_rate": 0.3},
        })
        return AblateInputs(config, data)

    def fingerprint(self, state: AblateInputs) -> str:
        return _combine(tree_digest(state.data))

    def call(self, state: AblateInputs, out: Path, tracer) -> int:
        return _cli(["ablate", "--config", str(state.config), "--out", str(out), "--jobs", "1"])

    def check(self, checker: Checker, state, out: Path, code: int) -> Outcome:
        checker.check(code == 0, f"puhda ablate exited with {code}")
        tables = read_tables(checker, out)
        cells, ok_cells, accuracy = check_reports(checker, tables, self.methods, self.seeds,
                                                  len(self.methods))
        check_ablation(checker, tables, self.spaces, self.seeds)
        return Outcome(cells, ok_cells, accuracy, _combine(tree_digest(out)))


WORKLOADS = {w.name: w for w in (GridNarrow, TrainerLoop, AblateWide)}
