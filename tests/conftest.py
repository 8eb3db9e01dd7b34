"""Shared fixtures: one frozen benchmark and a small fast variant.

The benchmark knobs live here so the behavioral tests and the acceptance
suite exercise the same data. They were chosen so the target-specific block
carries clearly more label signal than the shared block (R well above 1)
while the shared block still separates the classes enough for the
common-features baseline to train.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from puhda.data import (
    FeatureSchema,
    SplitSpec,
    SyntheticSpec,
    generate_synthetic,
    load_csv,
    split,
    standardize_splits,
)
from puhda.experiment import train_group
from puhda.trainers import TrainConfig

BENCH_SPEC = SyntheticSpec(
    c=4,
    s=6,
    t=6,
    n_source=1500,
    n_target=4000,
    positive_ratio=0.5,
    signal_common=0.2,
    signal_source=1.4,
    signal_target=2.0,
    coupling=0.98,
    noise_scale=0.5,
    label_separation=1.4,
    seed=0,
)
BENCH_SPLIT = SplitSpec(train=0.6, val=0.2, test=0.2, seed=0)
BENCH_SEEDS = (0, 1, 2)


def bench_config(seed: int, **overrides) -> TrainConfig:
    """The training configuration the benchmark numbers are quoted at."""
    params = dict(learning_rate=0.02, lam=0.1, steps=5000, batch_size=128, seed=seed)
    params.update(overrides)
    return TrainConfig(**params)


def train_stack(method, source, train, val, configs) -> list:
    """Each config's artifacts, trained as one stack of ``method`` through the
    pipeline's entry; the first failed cell's error is raised."""
    outcomes = train_group(method, source, train, val, configs)
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
    return outcomes


def load_saved(path):
    """A matrix ``save_domain_matrix`` wrote, read back with ``load_csv`` by the
    schema (its label column the file's ``label_header``) and role its sidecar
    records: ``(matrix, sidecar document)``."""
    doc = json.loads(Path(f"{path}.schema.json").read_text())
    schema = FeatureSchema(**{**doc["schema"], "label_column": doc["label_header"]})
    return load_csv(path, schema, doc["role"]), doc


def _prepare(spec, split_spec):
    source, target, _ = generate_synthetic(spec)
    train, val, test = split(target, split_spec)
    return standardize_splits(source, train, val, test)


@pytest.fixture(scope="session")
def bench_data():
    """Standardized (source, target train, val, test) at the frozen knobs."""
    return _prepare(BENCH_SPEC, BENCH_SPLIT)


@pytest.fixture(scope="session")
def tiny_data():
    """A small heterogeneous pair for unit tests that only need plumbing."""
    spec = SyntheticSpec(
        c=2,
        s=3,
        t=3,
        n_source=200,
        n_target=400,
        positive_ratio=0.5,
        signal_common=0.5,
        signal_source=1.0,
        signal_target=1.0,
        coupling=0.9,
        noise_scale=0.5,
        seed=7,
    )
    return _prepare(spec, SplitSpec(train=0.6, val=0.2, test=0.2, seed=0))


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(1234)
