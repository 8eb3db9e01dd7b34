"""Training-loop contracts: determinism, phase separation, update directions.

The single-step tests replay one loop iteration by hand with the documented
random sequence and check the trained parameters bit-for-bit, which pins both
the batch order and which player each phase updates.
"""

import csv
import functools
import re
from dataclasses import replace

import numpy as np
import pytest

from puhda.data import DomainMatrix, FeatureSchema
from puhda.errors import ConfigurationError, InvalidInputError, NonFiniteCells, SchemaError
from puhda.metrics import accuracy
from puhda.models import (
    _SLOT_KINDS,
    ConstTarget,
    LinearSoftmaxModel,
    LinearTransform,
    RawBatch,
    TransformedBatch,
    frozen_teacher,
    load_checkpoint,
    loss_and_grads,
    save_checkpoint,
)
from puhda.numerics import derive_seed, make_rng, softmax2
from puhda.objectives import classifier_terms, domain_adv_terms, pu_terms
from puhda.trainers import (
    METHOD_TABLE,
    TrainConfig,
    TrainTrace,
    align_features,
    complete_features,
    predict,
    train_com_p,
    train_discriminator,
    train_dist,
    train_dsft,
    train_dsft_p,
    train_pada,
    train_pada_f,
    train_pada_s,
)

import puhda.models as models_module
import puhda.trainers as trainers_module


def models_equal(a, b) -> bool:
    return np.array_equal(a.weights, b.weights) and np.array_equal(a.bias, b.bias)


def pu_blocks(data):
    source, train, _, _ = data
    return source.common, train.common


def train_pu(x_pos, x_unl, config):
    """Plain PU training: the common-features baseline on a source of positive
    rows and a target of unlabeled rows that have only common columns."""
    schema = FeatureSchema(tuple(f"x{j}" for j in range(x_pos.shape[1])), (), ())
    source = DomainMatrix(schema, "source", x_pos, np.empty((len(x_pos), 0)))
    target = DomainMatrix(schema, "target", x_unl, np.empty((len(x_unl), 0)))
    return train_com_p(source, target, config)


# --------------------------------------------------------------------------
# Configuration and telemetry plumbing


@pytest.mark.parametrize(
    "bad",
    [
        dict(learning_rate=0.0),
        dict(learning_rate=-0.1),
        dict(learning_rate=0.1, lam=-1e-9),
        dict(learning_rate=0.1, eta=-0.5),
        dict(learning_rate=0.1, gamma_mmd=-1.0),
        dict(learning_rate=0.1, steps=0),
        dict(learning_rate=0.1, batch_size=0),
        dict(learning_rate=0.1, seed=-1),
        dict(learning_rate=0.1, max_soft_rounds=0),
        dict(learning_rate=0.1, val_patience=0),
        dict(learning_rate=0.1, steps=2.5),
        dict(learning_rate=0.1, steps=True),
        dict(learning_rate=0.1, batch_size=8.5),
        dict(learning_rate=0.1, seed=1.0),
        dict(learning_rate=0.1, max_soft_rounds=False),
        dict(learning_rate=0.1, val_patience=2.0),
        dict(learning_rate=float("nan")),
        dict(learning_rate=float("inf")),
        dict(learning_rate=0.1, lam=float("inf")),
        dict(learning_rate=0.1, eta=float("nan")),
        dict(learning_rate=0.1, gamma_mmd=float("inf")),
    ],
)
def test_train_config_rejects_bad_values(bad):
    with pytest.raises(ConfigurationError, match=f"^{list(bad)[-1]}: "):   # the bad field alone
        TrainConfig(**bad)


@pytest.mark.parametrize("field", ["learning_rate", "lam", "eta", "gamma_mmd"])
def test_train_config_takes_numbers_only_in_its_number_fields(field):
    for bad in (True, np.True_, "0.5", None, [1.0]):
        with pytest.raises(ConfigurationError,
                           match=re.escape(f"{field}: expected a number, got {bad!r}")):
            TrainConfig(**{"learning_rate": 0.1, field: bad})
    for good in (1, 0.5, np.float32(0.5), np.int64(2)):
        assert getattr(TrainConfig(**{"learning_rate": 0.1, field: good}), field) == good


def test_trace_records_and_reads_back():
    values = [(1.5, -2.0), (0.25, 3.0)]
    trace = TrainTrace(("value", "aux"), values)
    assert len(trace) == 2
    assert trace.columns == ("step", "value", "aux")
    assert trace.rows == [(0, 1.5, -2.0), (1, 0.25, 3.0)]
    np.testing.assert_array_equal(trace.value_column("aux"), [-2.0, 3.0])
    np.testing.assert_array_equal(trace.value_column("step"), [0.0, 1.0])


def test_trace_rejects_wrong_arity():
    with pytest.raises(InvalidInputError, match=r"shape \(1, 2\), expected \(steps, 1\)"):
        TrainTrace(("value",), [(1.0, 2.0)])


def test_trace_write_round_trips_exact(tmp_path):
    trace = TrainTrace(("value", "aux"), [(1.0 / 3.0, 1e-17), (-0.1, 2.0**-40)])
    path = tmp_path / "sub" / "trace.csv"
    trace.write(path)
    with path.open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["step", "value", "aux"]
    parsed = [[float(v) for v in row[1:]] for row in rows[1:]]
    for got, (_, *want) in zip(parsed, trace.rows):
        assert got == list(want)


# --------------------------------------------------------------------------
# PU-only loop


def test_pan_trace_has_one_row_per_step(tiny_data):
    x_pos, x_unl = pu_blocks(tiny_data)
    cfg = TrainConfig(learning_rate=0.05, lam=0.1, steps=17, batch_size=32, seed=3)
    art = train_pu(x_pos, x_unl, cfg)
    assert len(art.trace) == cfg.steps
    assert art.trace.columns == ("step", "value", "kl_pos", "kl_unl", "kl_dc", "kl_dc_swap")
    assert art.method == "COM_P"


def test_pan_rerun_is_bit_identical(tiny_data):
    x_pos, x_unl = pu_blocks(tiny_data)
    cfg = TrainConfig(learning_rate=0.05, lam=0.1, steps=60, batch_size=32, seed=5)
    a = train_pu(x_pos, x_unl, cfg)
    b = train_pu(x_pos, x_unl, cfg)
    assert models_equal(a.classifier, b.classifier)
    assert models_equal(a.models()["D"], b.models()["D"])
    assert a.trace.rows == b.trace.rows


def test_pan_seed_changes_the_run(tiny_data):
    x_pos, x_unl = pu_blocks(tiny_data)
    cfg = TrainConfig(learning_rate=0.05, lam=0.1, steps=30, batch_size=32, seed=5)
    a = train_pu(x_pos, x_unl, cfg)
    b = train_pu(x_pos, x_unl, TrainConfig(
        learning_rate=0.05, lam=0.1, steps=30, batch_size=32, seed=6))
    assert not models_equal(a.classifier, b.classifier)


def test_pan_lambda_zero_leaves_classifier_at_init(tiny_data):
    x_pos, x_unl = pu_blocks(tiny_data)
    cfg = TrainConfig(learning_rate=0.05, lam=0.0, steps=40, batch_size=32, seed=9)
    art = train_pu(x_pos, x_unl, cfg)
    rng = make_rng(cfg.seed)
    d0 = LinearSoftmaxModel.initialize(x_pos.shape[1], rng)
    c0 = LinearSoftmaxModel.initialize(x_pos.shape[1], rng)
    assert models_equal(art.classifier, c0)
    assert not models_equal(art.models()["D"], d0)


@pytest.mark.parametrize("steps", [1, 2])
def test_pan_single_step_matches_manual_replay(tiny_data, steps):
    """Each iteration replayed by hand: batch order, update targets, signs. The
    second step is the first that refills the batches the phases made."""
    x_pos, x_unl = pu_blocks(tiny_data)
    cfg = TrainConfig(learning_rate=1e-3, lam=0.2, steps=steps, batch_size=48, seed=11)
    art = train_pu(x_pos, x_unl, cfg)

    rng = make_rng(cfg.seed)
    d = LinearSoftmaxModel.initialize(x_pos.shape[1], rng)
    c = LinearSoftmaxModel.initialize(x_pos.shape[1], rng)
    models = {"D": d, "C": c}
    for _ in range(steps):
        bp = RawBatch(x_pos[rng.integers(0, x_pos.shape[0], size=cfg.batch_size)])
        bu = RawBatch(x_unl[rng.integers(0, x_unl.shape[0], size=cfg.batch_size)])
        terms_d = pu_terms(bp, bu, cfg.lam)
        before_d = loss_and_grads(models, terms_d, wrt=()).value
        res_d = loss_and_grads(models, terms_d, wrt=("D",))
        d.apply_step(res_d.grads["D"], cfg.learning_rate)
        after_d = loss_and_grads(models, terms_d, wrt=()).value

        bu2 = RawBatch(x_unl[rng.integers(0, x_unl.shape[0], size=cfg.batch_size)])
        terms_c = classifier_terms(bu2, cfg.lam)
        before_c = loss_and_grads(models, terms_c, wrt=()).value
        res_c = loss_and_grads(models, terms_c, wrt=("C",))
        c.apply_step(res_c.grads["C"], -cfg.learning_rate)
        after_c = loss_and_grads(models, terms_c, wrt=()).value
        assert after_d >= before_d
        assert after_c <= before_c

    assert models_equal(art.models()["D"], d)
    assert models_equal(art.classifier, c)


def test_pan_rejects_bad_inputs(tiny_data):
    x_pos, x_unl = pu_blocks(tiny_data)
    cfg = TrainConfig(learning_rate=0.05, steps=1)
    with pytest.raises(InvalidInputError, match="column mismatch"):
        train_discriminator(x_pos, x_unl[:, :-1], cfg)
    with pytest.raises(InvalidInputError):
        train_discriminator(np.empty((0, 3)), x_unl[:, :3], cfg)


# --------------------------------------------------------------------------
# Common-features baseline


def test_com_p_is_pu_training_on_common_columns(tiny_data):
    source, train, _, _ = tiny_data
    cfg = TrainConfig(learning_rate=0.05, lam=0.1, steps=50, batch_size=32, seed=2)
    com = train_com_p(source, train, cfg)
    pan = train_pu(source.common, train.common, cfg)   # the same rows, no specific columns
    assert com.method == "COM_P"
    assert models_equal(com.classifier, pan.classifier)
    assert models_equal(com.models()["D"], pan.models()["D"])
    assert com.trace.rows == pan.trace.rows


def test_com_p_requires_source_and_target_roles(tiny_data):
    source, train, _, _ = tiny_data
    cfg = TrainConfig(learning_rate=0.05, steps=1)
    with pytest.raises(ConfigurationError, match="roles"):
        train_com_p(train, train, cfg)


# --------------------------------------------------------------------------
# Joint alignment loop


def test_pada_artifact_shapes(tiny_data):
    source, train, _, _ = tiny_data
    schema = source.schema
    cfg = TrainConfig(learning_rate=0.02, lam=0.1, steps=25, batch_size=32, seed=0)
    art = train_pada(source, train, cfg)
    assert art.method == "PADA"
    assert art.classifier.input_dim == schema.c + schema.s
    assert art.models()["D"].input_dim == schema.c + schema.s
    assert art.models()["F"].input_dim == schema.c + schema.t
    assert art.models()["F"].weights.shape == (schema.c + schema.t, schema.s)
    assert len(art.trace) == cfg.steps
    assert art.trace.columns == ("step", "value", "kl_pos", "kl_unl", "kl_dc", "kl_dc_swap")
    assert set(art.models()) == {"C", "D", "F"}


def test_pada_rerun_is_bit_identical(tiny_data):
    source, train, _, _ = tiny_data
    cfg = TrainConfig(learning_rate=0.02, lam=0.1, steps=40, batch_size=32, seed=4)
    a = train_pada(source, train, cfg)
    b = train_pada(source, train, cfg)
    assert models_equal(a.classifier, b.classifier)
    assert models_equal(a.models()["D"], b.models()["D"])
    assert models_equal(a.models()["F"], b.models()["F"])
    assert a.trace.rows == b.trace.rows


def test_pada_lambda_zero_leaves_classifier_at_init(tiny_data):
    source, train, _, _ = tiny_data
    schema = source.schema
    cfg = TrainConfig(learning_rate=0.02, lam=0.0, steps=30, batch_size=32, seed=8)
    art = train_pada(source, train, cfg)
    rng = make_rng(cfg.seed)
    LinearSoftmaxModel.initialize(schema.c + schema.s, rng)
    c0 = LinearSoftmaxModel.initialize(schema.c + schema.s, rng)
    f0 = LinearTransform.initialize(schema.c + schema.t, schema.s, rng)
    assert models_equal(art.classifier, c0)
    assert not np.array_equal(art.models()["F"].weights, f0.weights)


@pytest.mark.parametrize("steps", [1, 2])
def test_pada_single_step_matches_manual_replay(tiny_data, steps):
    source, train, _, _ = tiny_data
    schema = source.schema
    x_s, x_t = source.features(), train.features()
    cfg = TrainConfig(learning_rate=1e-3, lam=0.2, steps=steps, batch_size=48, seed=13)
    art = train_pada(source, train, cfg)

    rng = make_rng(cfg.seed)
    d = LinearSoftmaxModel.initialize(x_s.shape[1], rng)
    c = LinearSoftmaxModel.initialize(x_s.shape[1], rng)
    f = LinearTransform.initialize(x_t.shape[1], schema.s, rng)
    models = {"D": d, "C": c, "F": f}

    def draw(x):
        return x[rng.integers(0, x.shape[0], size=cfg.batch_size)]

    for _ in range(steps):
        bs, bt = RawBatch(draw(x_s)), TransformedBatch(draw(x_t), schema.c)
        res_d = loss_and_grads(models, pu_terms(bs, bt, cfg.lam), wrt=("D",))
        d.apply_step(res_d.grads["D"], cfg.learning_rate)

        bs2, bt2 = RawBatch(draw(x_s)), TransformedBatch(draw(x_t), schema.c)
        terms_f = pu_terms(bs2, bt2, cfg.lam)
        before_f = loss_and_grads(models, terms_f, wrt=()).value
        res_f = loss_and_grads(models, terms_f, wrt=("F",))
        f.apply_step(res_f.grads["F"], -cfg.learning_rate)
        after_f = loss_and_grads(models, terms_f, wrt=()).value

        bt3 = TransformedBatch(draw(x_t), schema.c)
        res_c = loss_and_grads(models, classifier_terms(bt3, cfg.lam), wrt=("C",))
        c.apply_step(res_c.grads["C"], -cfg.learning_rate)
        assert after_f <= before_f

    assert models_equal(art.models()["D"], d)
    assert models_equal(art.classifier, c)
    assert np.array_equal(art.models()["F"].weights, f.weights)
    assert np.array_equal(art.models()["F"].bias, f.bias)


def test_pada_rejects_swapped_roles_and_schema_mismatch(tiny_data):
    source, train, _, _ = tiny_data
    cfg = TrainConfig(learning_rate=0.02, steps=1)
    with pytest.raises(ConfigurationError, match="roles"):
        train_pada(train, source, cfg)


def test_pada_requires_both_specific_blocks():
    schema = FeatureSchema(common=("c0",), source_specific=("s0",), target_specific=())
    rng = np.random.default_rng(0)
    source = DomainMatrix(schema, "source", rng.normal(size=(20, 1)),
                          rng.normal(size=(20, 1)), labels=np.ones(20, dtype=np.int8))
    target = DomainMatrix(schema, "target", rng.normal(size=(30, 1)),
                          np.empty((30, 0)))
    cfg = TrainConfig(learning_rate=0.02, steps=1)
    with pytest.raises(SchemaError):
        train_pada(source, target, cfg)


def test_pada_survives_constant_target_column(tiny_data):
    source, train, _, _ = tiny_data
    specific = train.specific.copy()
    specific[:, 0] = 2.5
    flat = DomainMatrix(train.schema, "target", train.common, specific, labels=train.labels)
    cfg = TrainConfig(learning_rate=0.02, lam=0.1, steps=40, batch_size=32, seed=0)
    art = train_pada(source, flat, cfg)
    assert np.all(np.isfinite(art.models()["F"].weights))
    assert np.all(np.isfinite(art.trace.value_column("value")))


# --------------------------------------------------------------------------
# Soft-label rounds


def test_soft_round_one_with_zero_eta_reproduces_joint_run(tiny_data):
    source, train, val, _ = tiny_data
    cfg = TrainConfig(learning_rate=0.02, lam=0.1, eta=0.0, steps=40, batch_size=32,
                      seed=6, max_soft_rounds=1)
    plain = train_pada(source, train, cfg)
    soft = train_pada_s(source, train, cfg, val_target=val)
    assert soft.rounds_run == 1
    assert models_equal(soft.classifier, plain.classifier)
    assert np.array_equal(soft.models()["F"].weights, plain.models()["F"].weights)


def test_soft_rounds_return_best_round_and_stop_early(tiny_data):
    source, train, val, _ = tiny_data
    cfg = TrainConfig(learning_rate=0.02, lam=0.1, eta=0.05, steps=60, batch_size=32,
                      seed=1, max_soft_rounds=4, val_patience=1)
    art = train_pada_s(source, train, cfg, val_target=val)
    vals = art.round_val_accuracy
    assert 1 <= art.rounds_run <= cfg.max_soft_rounds
    assert len(vals) == art.rounds_run
    returned_val = accuracy(predict(art, val), val.labels)
    assert returned_val == max(vals)
    if art.rounds_run < cfg.max_soft_rounds:
        assert vals[-1] <= max(vals[:-1])


def test_no_teacher_is_built_after_the_last_round(tiny_data, monkeypatch):
    source, train, val, _ = tiny_data
    built = []

    def counted_teacher(*args):
        built.append(args)
        return frozen_teacher(*args)

    monkeypatch.setattr(trainers_module, "frozen_teacher", counted_teacher)
    configs = [TrainConfig(learning_rate=lr, lam=0.1, eta=0.05, steps=10, batch_size=32, seed=3,
                           max_soft_rounds=3, val_patience=3) for lr in (0.01, 0.02)]
    outcomes = METHOD_TABLE["PADA_S"].group(source, train, val, configs)
    assert [art.rounds_run for art in outcomes] == [3, 3]
    assert len(built) == 3   # the base run's teacher, then one for each of rounds 2 and 3


@pytest.mark.parametrize("steps", [1, 2])
def test_pada_s_single_step_matches_manual_replay(tiny_data, steps):
    """Round one with a live teacher pair: the base run, the teacher on every
    phase's target batch, and the classifier phase's teacher terms."""
    source, train, val, _ = tiny_data
    schema = source.schema
    x_s, x_t = source.features(), train.features()
    cfg = TrainConfig(learning_rate=1e-3, lam=0.2, eta=0.3, steps=steps, batch_size=48,
                      seed=19, max_soft_rounds=1)
    art = train_pada_s(source, train, cfg, val_target=val)

    base = train_com_p(source, train, replace(cfg, seed=derive_seed(cfg.seed, "soft-base")))

    def teacher(bt):
        return base.classifier.classify(bt.rows[:, :schema.c])

    rng = make_rng(cfg.seed)
    d = LinearSoftmaxModel.initialize(x_s.shape[1], rng)
    c = LinearSoftmaxModel.initialize(x_s.shape[1], rng)
    f = LinearTransform.initialize(x_t.shape[1], schema.s, rng)
    models = {"D": d, "C": c, "F": f}

    def draw(x):
        return x[rng.integers(0, x.shape[0], size=cfg.batch_size)]

    for step in range(steps):
        bs, bt = RawBatch(draw(x_s)), TransformedBatch(draw(x_t), schema.c)
        terms_d = pu_terms(bs, bt, cfg.lam, teacher_probs=teacher(bt), eta=cfg.eta)
        res_d = loss_and_grads(models, terms_d, wrt=("D",))
        d.apply_step(res_d.grads["D"], cfg.learning_rate)

        bs2, bt2 = RawBatch(draw(x_s)), TransformedBatch(draw(x_t), schema.c)
        terms_f = pu_terms(bs2, bt2, cfg.lam, teacher_probs=teacher(bt2), eta=cfg.eta)
        res_f = loss_and_grads(models, terms_f, wrt=("F",))
        f.apply_step(res_f.grads["F"], -cfg.learning_rate)

        bt3 = TransformedBatch(draw(x_t), schema.c)
        terms_c = classifier_terms(bt3, cfg.lam, teacher_probs=teacher(bt3), eta=cfg.eta)
        assert [t.name for t in terms_c] == ["kl_dc", "kl_dc_swap", "kl_soft", "kl_soft_swap"]
        res_c = loss_and_grads(models, terms_c, wrt=("C",))
        c.apply_step(res_c.grads["C"], -cfg.learning_rate)
        assert art.trace.rows[step][1:] == (res_d.value, *res_d.term_values)

    assert art.rounds_run == 1
    assert art.trace.columns == ("step", "value", "kl_pos", "kl_unl", "kl_dc", "kl_dc_swap",
                                 "kl_soft", "kl_soft_swap")
    assert models_equal(art.models()["D"], d)
    assert models_equal(art.classifier, c)
    assert models_equal(art.models()["F"], f)


def test_soft_rounds_need_labeled_validation(tiny_data):
    source, train, val, _ = tiny_data
    cfg = TrainConfig(learning_rate=0.02, lam=0.1, eta=0.05, steps=5, batch_size=32)
    with pytest.raises(ConfigurationError, match="validation"):
        unlabeled = DomainMatrix(val.schema, val.role, val.common, val.specific)
        train_pada_s(source, train, cfg, val_target=unlabeled)


# --------------------------------------------------------------------------
# Two-discriminator ablation


@pytest.mark.parametrize("steps", [1, 2])
def test_pada_f_single_step_matches_manual_replay(tiny_data, steps):
    source, train, _, _ = tiny_data
    schema = source.schema
    x_s, x_t = source.features(), train.features()
    cfg = TrainConfig(learning_rate=1e-3, lam=0.2, steps=steps, batch_size=48, seed=17)
    art = train_pada_f(source, train, cfg)

    rng = make_rng(cfg.seed)
    d = LinearSoftmaxModel.initialize(x_s.shape[1], rng)
    c = LinearSoftmaxModel.initialize(x_s.shape[1], rng)
    f = LinearTransform.initialize(x_t.shape[1], schema.s, rng)
    df = LinearSoftmaxModel.initialize(x_s.shape[1], rng)
    models = {"D": d, "C": c, "F": f, "Df": df}

    def draw(x):
        return x[rng.integers(0, x.shape[0], size=cfg.batch_size)]

    def pair():
        return RawBatch(draw(x_s)), TransformedBatch(draw(x_t), schema.c)

    for _ in range(steps):
        res_d = loss_and_grads(models, pu_terms(*pair(), cfg.lam), wrt=("D",))
        d.apply_step(res_d.grads["D"], cfg.learning_rate)

        res_df = loss_and_grads(models, domain_adv_terms(*pair()), wrt=("Df",))
        df.apply_step(res_df.grads["Df"], cfg.learning_rate)

        res_f = loss_and_grads(models, domain_adv_terms(*pair()), wrt=("F",))
        f.apply_step(res_f.grads["F"], -cfg.learning_rate)

        bt = TransformedBatch(draw(x_t), schema.c)
        res_c = loss_and_grads(models, classifier_terms(bt, cfg.lam), wrt=("C",))
        c.apply_step(res_c.grads["C"], -cfg.learning_rate)

    assert models_equal(art.models()["D"], d)
    assert models_equal(art.models()["Df"], df)
    assert models_equal(art.classifier, c)
    assert np.array_equal(art.models()["F"].weights, f.weights)


def test_pada_f_trace_and_slots(tiny_data):
    source, train, _, _ = tiny_data
    cfg = TrainConfig(learning_rate=0.02, lam=0.1, steps=20, batch_size=32, seed=0)
    art = train_pada_f(source, train, cfg)
    assert art.method == "PADA_F"
    assert set(art.models()) == {"C", "D", "F", "Df"}
    assert art.trace.columns == (
        "step", "value", "kl_pos", "kl_unl", "kl_dc", "kl_dc_swap",
        "adv_value", "kl_adv_src", "kl_adv_tgt",
    )


def test_pada_f_transform_ignores_classifier_pressure(tiny_data):
    """The two trainers share init but their transforms diverge immediately."""
    source, train, _, _ = tiny_data
    cfg = TrainConfig(learning_rate=0.02, lam=0.5, steps=30, batch_size=32, seed=3)
    joint = train_pada(source, train, cfg)
    split_game = train_pada_f(source, train, cfg)
    assert not np.array_equal(joint.models()["F"].weights, split_game.models()["F"].weights)


# --------------------------------------------------------------------------
# Feature completion


def test_completion_gamma_zero_reaches_least_squares_optimum(tiny_data):
    source, train, _, _ = tiny_data
    cfg = TrainConfig(learning_rate=0.1, gamma_mmd=0.0, steps=300, batch_size=1, seed=0)
    art, _, _ = train_dsft(source, train, cfg)

    def ls_loss(x, y):
        a = np.hstack([x, np.ones((x.shape[0], 1))])
        w, *_ = np.linalg.lstsq(a, y, rcond=None)
        return float(np.sum((a @ w - y) ** 2)) / x.shape[0]

    best = ls_loss(train.common, train.specific) + ls_loss(source.common, source.specific)
    final = art.trace.value_column("value")[-1]
    assert final <= best * (1 + 1e-3) + 1e-12


def test_completion_trace_never_increases(tiny_data):
    source, train, _, _ = tiny_data
    cfg = TrainConfig(learning_rate=0.05, gamma_mmd=1.0, steps=120, batch_size=1, seed=0)
    art, _, _ = train_dsft(source, train, cfg)
    values = art.trace.value_column("value")
    assert np.all(np.diff(values) <= 0)
    assert art.trace.columns == ("step", "value", "rec_source", "rec_target", "mmd", "step_size")


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("seed", [0, 1])
def test_completion_rejects_an_overflowing_step_like_a_worse_one(tiny_data, seed):
    source, train, _, _ = tiny_data
    cfg = TrainConfig(learning_rate=1e308, gamma_mmd=1.0, steps=20, batch_size=1, seed=seed)
    art, xs_hat, xt_hat = train_dsft(source, train, cfg)
    for model in art.models().values():
        assert np.isfinite(model.weights).all() and np.isfinite(model.bias).all()
    assert np.isfinite(xs_hat).all() and np.isfinite(xt_hat).all()


def test_completed_rows_have_the_documented_layout(tiny_data):
    source, train, _, _ = tiny_data
    schema = source.schema
    cfg = TrainConfig(learning_rate=0.05, gamma_mmd=0.5, steps=30, batch_size=1, seed=0)
    art, xs_hat, xt_hat = train_dsft(source, train, cfg)
    assert xs_hat.shape == (source.n, schema.c + schema.s + schema.t)
    assert xt_hat.shape == (train.n, schema.c + schema.s + schema.t)
    np.testing.assert_array_equal(xs_hat[:, :schema.c], source.common)
    np.testing.assert_array_equal(xs_hat[:, schema.c:schema.c + schema.s], source.specific)
    np.testing.assert_allclose(
        xs_hat[:, schema.c + schema.s:], art.models()["psi_t"].transform(source.common))
    np.testing.assert_array_equal(xt_hat[:, :schema.c], train.common)
    np.testing.assert_allclose(
        xt_hat[:, schema.c:schema.c + schema.s], art.models()["psi_s"].transform(train.common))
    np.testing.assert_array_equal(xt_hat[:, schema.c + schema.s:], train.specific)


def test_completion_baseline_routes_predictions_through_completed_rows(tiny_data):
    source, train, _, test = tiny_data
    cfg = TrainConfig(learning_rate=0.05, lam=0.1, gamma_mmd=0.5, steps=40,
                      batch_size=32, seed=0)
    art = train_dsft_p(source, train, cfg)
    assert art.method == "DSFT_P_linear"
    expected = art.classifier.classify(
        complete_features(art.models()["psi_s"], art.models()["psi_t"], test))
    np.testing.assert_array_equal(predict(art, test), expected)


# --------------------------------------------------------------------------
# Distillation


def test_distilled_student_matches_its_teacher(tiny_data):
    source, train, _, test = tiny_data
    teacher_cfg = TrainConfig(learning_rate=0.05, lam=0.1, steps=300, batch_size=32, seed=0)
    teacher = train_com_p(source, train, teacher_cfg)
    cfg = TrainConfig(learning_rate=0.1, steps=3000, batch_size=64, seed=0)
    art = train_dist(train, teacher.classifier, cfg)
    assert art.method == "DIST"
    assert art.trace.columns == ("step", "value", "kl_distill")
    student_p = predict(art, test)[:, 1]
    teacher_p = teacher.classifier.classify(test.common)[:, 1]
    assert np.mean(np.abs(student_p - teacher_p)) < 0.02


def test_distilling_a_uniform_teacher_yields_uniform_outputs(tiny_data):
    _, train, _, test = tiny_data
    n_common = train.schema.c
    teacher = LinearSoftmaxModel(np.zeros((n_common, 2)), np.zeros(2))
    cfg = TrainConfig(learning_rate=0.1, steps=2000, batch_size=64, seed=0)
    art = train_dist(train, teacher, cfg)
    probs = predict(art, test)
    assert np.max(np.abs(probs - 0.5)) < 0.03


def test_distillation_checks_teacher_width(tiny_data):
    _, train, _, _ = tiny_data
    teacher = LinearSoftmaxModel(np.zeros((train.schema.c + 1, 2)), np.zeros(2))
    cfg = TrainConfig(learning_rate=0.1, steps=1)
    with pytest.raises(ConfigurationError, match="common"):
        train_dist(train, teacher, cfg)


# --------------------------------------------------------------------------
# Supervised probe


def test_probe_separates_shifted_blobs(rng):
    a = rng.normal(size=(300, 4)) + 3.0
    b = rng.normal(size=(300, 4)) - 3.0
    cfg = TrainConfig(learning_rate=0.1, steps=400, batch_size=64, seed=0)
    art = train_discriminator(a, b, cfg)
    p_a = art.models()["D"].classify(a)[:, 1]
    p_b = art.models()["D"].classify(b)[:, 1]
    acc = 0.5 * (np.mean(p_a > 0.5) + np.mean(p_b <= 0.5))
    assert acc > 0.95
    assert art.method == "D_PRIME"
    assert art.trace.columns == ("step", "value", "ce_pos", "ce_neg")


def test_probe_rejects_column_mismatch(rng):
    cfg = TrainConfig(learning_rate=0.1, steps=1)
    with pytest.raises(InvalidInputError, match="column mismatch"):
        train_discriminator(rng.normal(size=(10, 3)), rng.normal(size=(10, 4)), cfg)


# --------------------------------------------------------------------------
# Prediction routing


def test_predict_routes_by_method(tiny_data):
    source, train, _, test = tiny_data
    cfg = TrainConfig(learning_rate=0.05, lam=0.1, steps=20, batch_size=32, seed=0)
    com = train_com_p(source, train, cfg)
    np.testing.assert_array_equal(
        predict(com, test), com.classifier.classify(test.common))
    pada = train_pada(source, train, cfg)
    np.testing.assert_array_equal(
        predict(pada, test),
        pada.classifier.classify(align_features(pada.models()["F"], test)))


def test_predict_rejects_unknown_method(tiny_data):
    _, _, _, test = tiny_data
    art = train_discriminator(test.common, test.common, TrainConfig(learning_rate=0.1, steps=1))
    with pytest.raises(ConfigurationError, match="no prediction rule"):
        predict(art, test)


# --------------------------------------------------------------------------
# Checkpoints

def _alone(method, source, train, val, config):
    """One cell of a method-table entry, trained as a stack of one; its error raised."""
    (outcome,) = METHOD_TABLE[method].group(source, train, val, [config])
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


# Every trainer, called as the method table calls them.
ALL_TRAINERS = {
    **{method: functools.partial(_alone, method) for method in METHOD_TABLE},
    "D_PRIME": lambda s, t, v, c: train_discriminator(s.common, t.common, c),
    "DSFT": lambda s, t, v, c: train_dsft(s, t, c)[0],
}


@pytest.mark.parametrize("method", sorted(ALL_TRAINERS))
def test_trained_models_round_trip_through_a_checkpoint(tiny_data, tmp_path, method):
    source, train, val, _ = tiny_data
    cfg = TrainConfig(learning_rate=0.02, lam=0.1, eta=0.05, steps=5, batch_size=32, seed=0,
                      max_soft_rounds=2)
    art = ALL_TRAINERS[method](source, train, val, cfg)
    models = art.models()
    assert models and set(models) <= set(_SLOT_KINDS)
    save_checkpoint(tmp_path / "ckpt.json", art.method, models)
    saved_method, back = load_checkpoint(tmp_path / "ckpt.json")
    assert saved_method == art.method
    assert set(back) == set(models)
    for slot, model in models.items():
        assert type(model) is type(back[slot]) is _SLOT_KINDS[slot]
        assert back[slot].weights.tobytes() == model.weights.tobytes()
        assert back[slot].bias.tobytes() == model.bias.tobytes()
        assert back[slot].weights.shape == model.weights.shape


# --------------------------------------------------------------------------
# Pair arithmetic and the frozen teacher


def _side_pairs(models, side):
    """(probs, log probs) of a term side, with the swap applied after the log."""
    if isinstance(side, ConstTarget):
        return side.probs, np.log(side.probs)
    batch = side.batch
    if isinstance(batch, TransformedBatch):
        f = models[batch.transform]
        rows = batch.rows
        x = np.concatenate([rows[:, :batch.n_common], rows @ f.weights + f.bias], axis=1)
    else:
        x = batch.rows
    probs = models[side.model].classify(x)
    log_probs = np.log(probs)
    if side.swapped:
        return probs[:, ::-1], log_probs[:, ::-1]
    return probs, log_probs


def test_term_values_match_the_reduction_formula(tiny_data):
    """Each term value equals the class-axis reduction on the same pairs, bit for bit."""
    source, train, _, _ = tiny_data
    x_s, x_t = source.features(), train.features()
    rng = make_rng(3)
    models = {name: LinearSoftmaxModel.initialize(x_s.shape[1], rng) for name in ("D", "C")}
    models["F"] = LinearTransform.initialize(x_t.shape[1], source.schema.s, rng)
    teacher_probs = softmax2(rng.normal(scale=3.0, size=(64, 2)))
    terms = pu_terms(RawBatch(x_s[:64]), TransformedBatch(x_t[:64], source.schema.c), 0.3,
                     teacher_probs=teacher_probs, eta=0.2)
    res = loss_and_grads(models, terms, wrt=("D", "C", "F"))
    for term, got in zip(terms, res.term_values):
        (a, log_a), (_, log_b) = _side_pairs(models, term.left), _side_pairs(models, term.right)
        assert got == term.weight * float((a * (log_a - log_b)).sum(axis=-1).sum()), term.name


@pytest.mark.parametrize("with_transform", [False, True])
def test_frozen_teacher_pairs_equal_classify(tiny_data, with_transform):
    source, train, _, _ = tiny_data
    c, x_t = train.schema.c, train.features()
    rng = make_rng(5)
    if with_transform:
        models = {"C": LinearSoftmaxModel.initialize(c + source.schema.s, rng),
                  "F": LinearTransform.initialize(x_t.shape[1], source.schema.s, rng)}
        rows = align_features(models["F"], train)
    else:
        models = {"C": LinearSoftmaxModel.initialize(c, rng)}
        rows = train.common
    teacher = frozen_teacher(models, c, x_t)
    pairs = teacher(x_t)
    assert isinstance(pairs, ConstTarget)
    assert np.array_equal(pairs.probs, models["C"].classify(rows))
    bad = x_t[:5].copy()
    bad[0, 0] = np.nan
    with pytest.raises(InvalidInputError, match="teacher logits"):
        teacher(bad)


# --------------------------------------------------------------------------
# Stacked groups


def _same_run(got, want):
    """Two runs agree bit for bit: parameters, telemetry and soft-label rounds."""
    assert (got.method, got.config) == (want.method, want.config)
    assert set(got.models()) == set(want.models())
    for slot, model in want.models().items():
        assert got.models()[slot].weights.shape == model.weights.shape, slot
        assert got.models()[slot].weights.tobytes() == model.weights.tobytes(), slot
        assert got.models()[slot].bias.tobytes() == model.bias.tobytes(), slot
    assert got.trace.columns == want.trace.columns
    assert (np.asarray(got.trace.rows).tobytes() == np.asarray(want.trace.rows).tobytes()
            and len(got.trace) == len(want.trace))
    assert got.rounds_run == want.rounds_run
    assert got.round_val_accuracy == want.round_val_accuracy


@pytest.mark.parametrize("method", sorted(METHOD_TABLE))
def test_a_stacked_group_equals_its_cells_trained_alone(tiny_data, method):
    source, train, val, _ = tiny_data
    entry = METHOD_TABLE[method]
    base = TrainConfig(learning_rate=1.0, steps=30, batch_size=32, seed=0,
                       max_soft_rounds=4, val_patience=1)
    etas = (0.05, 0.5) if entry.searches_eta else (0.0,)
    configs = [replace(base, learning_rate=rate, lam=lam, eta=eta)
               for rate in (0.02, 0.3) for lam in (0.1, 1.0) for eta in etas]
    outcomes = entry.group(source, train, val, configs)
    assert len(outcomes) == len(configs)
    for config, got in zip(configs, outcomes):
        _same_run(got, _alone(method, source, train, val, config))
    if method == "PADA_S":
        assert len({art.rounds_run for art in outcomes}) > 1   # cells stop at different rounds


@pytest.mark.parametrize("method", ["COM_P", "DIST", "DSFT_P_linear", "PADA", "PADA_F",
                                    "PADA_S"])
def test_a_stack_across_seeds_equals_its_cells_trained_alone(tiny_data, method):
    source, train, val, _ = tiny_data
    base = TrainConfig(learning_rate=1.0, lam=0.5, eta=0.5, steps=30, batch_size=32,
                       max_soft_rounds=4, val_patience=1)
    configs = [replace(base, learning_rate=rate, seed=seed)
               for rate in (0.02, 0.3) for seed in (0, 3)]
    outcomes = METHOD_TABLE[method].group(source, train, val, configs)
    assert len(outcomes) == len(configs)
    for config, got in zip(configs, outcomes):
        _same_run(got, _alone(method, source, train, val, config))
    if method == "PADA_S":   # at learning rate 0.02 the two seeds stop at different rounds
        assert outcomes[0].rounds_run != outcomes[1].rounds_run


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("method", ["DIST", "PADA", "PADA_F", "PADA_S"])
def test_a_diverging_cell_fails_alone_in_a_stack_across_seeds(tiny_data, method):
    source, train, val, _ = tiny_data
    base = TrainConfig(learning_rate=0.3, lam=0.5, eta=0.5, steps=30, batch_size=32,
                       max_soft_rounds=3, val_patience=1)
    configs = [base, replace(base, seed=3), replace(base, learning_rate=1e308, seed=3),
               replace(base, lam=0.1), replace(base, lam=0.1, seed=3)]
    outcomes = METHOD_TABLE[method].group(source, train, val, configs)
    with pytest.raises(InvalidInputError, match="values must be finite") as alone:
        _alone(method, source, train, val, configs[2])
    assert type(outcomes[2]) is InvalidInputError
    assert str(outcomes[2]) == str(alone.value)
    for i in (0, 1, 3, 4):
        _same_run(outcomes[i], _alone(method, source, train, val, configs[i]))


@pytest.mark.parametrize("method", ["PADA", "PADA_S"])
def test_each_cell_of_a_stack_owns_its_trace(tiny_data, method):
    source, train, val, _ = tiny_data
    base = TrainConfig(learning_rate=1.0, eta=0.5, steps=5, batch_size=32, seed=0,
                       max_soft_rounds=2)
    configs = [replace(base, learning_rate=rate, lam=lam) for rate in (0.02, 0.3)
               for lam in (0.1, 1.0)]
    outcomes = METHOD_TABLE[method].group(source, train, val, configs)
    assert len(outcomes) == 4
    for art in outcomes:
        assert art.trace.values.base is None
        assert art.trace.values.shape == (5, len(art.trace.columns) - 1)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("method", ["DIST", "PADA", "PADA_F", "PADA_S"])
def test_a_diverging_cell_fails_alone_and_its_stack_goes_on(tiny_data, method):
    source, train, val, _ = tiny_data
    entry = METHOD_TABLE[method]
    base = TrainConfig(learning_rate=0.3, lam=0.5, eta=0.5, steps=30, batch_size=32, seed=3,
                       max_soft_rounds=3, val_patience=1)
    configs = [base, replace(base, learning_rate=1e308), replace(base, lam=0.1)]
    outcomes = entry.group(source, train, val, configs)
    with pytest.raises(InvalidInputError, match="values must be finite") as alone:
        _alone(method, source, train, val, configs[1])
    assert type(outcomes[1]) is InvalidInputError
    assert str(outcomes[1]) == str(alone.value)
    for i in (0, 2):
        _same_run(outcomes[i], _alone(method, source, train, val, configs[i]))


def test_a_failed_completion_fit_fails_only_its_cells(tiny_data, monkeypatch):
    source, train, val, _ = tiny_data
    base = TrainConfig(learning_rate=1.0, steps=30, batch_size=32)
    configs = [replace(base, learning_rate=rate, lam=lam, seed=seed)
               for rate in (0.02, 0.3) for lam in (0.1, 1.0) for seed in (0, 3)]
    real = trainers_module.train_dsft

    def failing(source, target, config):
        if config.learning_rate == 0.3:
            raise ConfigurationError("no completion fit at learning rate 0.3")
        return real(source, target, config)

    monkeypatch.setattr(trainers_module, "train_dsft", failing)
    outcomes = METHOD_TABLE["DSFT_P_linear"].group(source, train, val, configs)
    assert len(outcomes) == len(configs)
    for config, got in zip(configs, outcomes):
        if config.learning_rate == 0.3:
            with pytest.raises(ConfigurationError) as alone:
                _alone("DSFT_P_linear", source, train, val, config)
            assert type(got) is ConfigurationError
            assert str(got) == str(alone.value) == "no completion fit at learning rate 0.3"
        else:
            _same_run(got, _alone("DSFT_P_linear", source, train, val, config))


def _completion_grid():
    """Two learning rates x two ``lam`` x two seeds: eight cells over four fits."""
    base = TrainConfig(learning_rate=1.0, steps=30, batch_size=32)
    return [replace(base, learning_rate=rate, lam=lam, seed=seed)
            for rate in (0.02, 0.3) for lam in (0.1, 1.0) for seed in (0, 3)]


def test_a_completion_stack_fits_once_per_rate_and_seed_and_trains_one_pu_stage(
        tiny_data, monkeypatch):
    source, train, val, _ = tiny_data
    configs = _completion_grid()
    fits, stages = [], []
    real_fit, real_stage = trainers_module.train_dsft, trainers_module._pan_stack

    def counted_fit(source, target, config):
        fits.append((config.learning_rate, config.seed))
        return real_fit(source, target, config)

    def counted_stage(stack, *args):
        stages.append(stack.cells.tolist())
        return real_stage(stack, *args)

    monkeypatch.setattr(trainers_module, "train_dsft", counted_fit)
    monkeypatch.setattr(trainers_module, "_pan_stack", counted_stage)
    outcomes = METHOD_TABLE["DSFT_P_linear"].group(source, train, val, configs)
    assert sorted(fits) == sorted((rate, derive_seed(seed, "completion-fit"))
                                  for rate in (0.02, 0.3) for seed in (0, 3))
    assert stages == [list(range(len(configs)))]
    for config, got in zip(configs, outcomes):
        twin = outcomes[configs.index(replace(config, lam=1.0 if config.lam == 0.1 else 0.1))]
        assert got.models()["psi_s"] is twin.models()["psi_s"]   # the cells of a fit share its maps


def test_a_fit_with_non_finite_rows_fails_only_its_cells(tiny_data, monkeypatch):
    source, train, val, _ = tiny_data
    configs = _completion_grid()
    real = trainers_module.train_dsft
    # (learning rate, seed) -> the side of the completed rows that gets an inf
    broken = {(0.3, 0): 0, (0.02, 3): 1}
    broken = {(rate, derive_seed(seed, "completion-fit")): side
              for (rate, seed), side in broken.items()}

    def non_finite(source, target, config):
        fit, *rows = real(source, target, config)
        side = broken.get((config.learning_rate, config.seed))
        if side is not None:
            rows[side] = rows[side].copy()
            rows[side][5, 2] = np.inf
        return (fit, *rows)

    monkeypatch.setattr(trainers_module, "train_dsft", non_finite)
    outcomes = METHOD_TABLE["DSFT_P_linear"].group(source, train, val, configs)
    texts = {(0.3, 0): "positive rows: values must be finite",
             (0.02, 3): "unlabeled rows: values must be finite"}
    for config, got in zip(configs, outcomes):
        text = texts.get((config.learning_rate, config.seed))
        if text is None:
            _same_run(got, _alone("DSFT_P_linear", source, train, val, config))
            continue
        with pytest.raises(InvalidInputError) as alone:
            _alone("DSFT_P_linear", source, train, val, config)
        assert type(got) is type(alone.value)
        assert str(got) == str(alone.value) == text


def test_a_stack_holds_cells_of_one_budget(tiny_data):
    source, train, val, _ = tiny_data
    base = TrainConfig(learning_rate=0.3, steps=3, batch_size=32)
    with pytest.raises(ConfigurationError, match="differ only in learning_rate, lam, eta and seed"):
        METHOD_TABLE["PADA"].group(source, train, val, [base, replace(base, steps=4)])
    with pytest.raises(ConfigurationError, match="differ only in learning_rate, lam, eta and seed"):
        METHOD_TABLE["DSFT_P_linear"].group(
            source, train, val, [base, replace(base, learning_rate=0.1, steps=4)])


# --------------------------------------------------------------------------
# Planned moves and the teacher table


@pytest.mark.parametrize("cells", [1, 4])
def test_each_pada_move_computes_only_what_its_update_and_trace_read(tiny_data, monkeypatch,
                                                                     cells):
    """D's traced move runs its three softmax forwards, the untraced F and C moves
    two each and no term values, and each phase builds its terms once per stack."""
    source, train, val, _ = tiny_data
    forwards = [0]
    moves = []
    builds = {"pu_terms": 0, "classifier_terms": 0}
    real_softmax, real_loss = models_module._softmax_columns, trainers_module.loss_and_grads

    def counted_softmax(*args, **kwargs):
        forwards[0] += 1
        return real_softmax(*args, **kwargs)

    def counted_loss(models, terms, wrt=(), values=True):
        before = forwards[0]
        res = real_loss(models, terms, wrt=wrt, values=values)
        moves.append((wrt, forwards[0] - before, res.value is None and res.term_values is None))
        return res

    def counted_builder(name):
        real = getattr(trainers_module, name)

        def build(*args, **kwargs):
            builds[name] += 1
            return real(*args, **kwargs)
        return build

    monkeypatch.setattr(models_module, "_softmax_columns", counted_softmax)
    monkeypatch.setattr(trainers_module, "loss_and_grads", counted_loss)
    for name in builds:
        monkeypatch.setattr(trainers_module, name, counted_builder(name))
    base = TrainConfig(learning_rate=0.02, lam=0.1, steps=4, batch_size=32)
    configs = [replace(base, lam=lam, seed=seed) for lam in (0.1, 1.0) for seed in (0, 3)][:cells]
    outcomes = METHOD_TABLE["PADA"].group(source, train, val, configs)
    assert all(not isinstance(art, Exception) for art in outcomes)
    assert moves == [(("D",), 3, False), (("F",), 2, True), (("C",), 2, True)] * 4
    assert builds == {"pu_terms": 2, "classifier_terms": 1}


def _same_labels(got: ConstTarget, want: ConstTarget) -> None:
    for a, b in zip(got.columns[0] + got.columns[1], want.columns[0] + want.columns[1]):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("with_transform", [False, True], ids=["DIST", "PADA_S"])
def test_the_teacher_table_gathers_the_batch_forward_bit_for_bit(bench_data, with_transform):
    """At the benchmark's 2,400 target rows and batch 128: one cell, a stack whose
    cells share one seed's rows or hold their own, and the stack after a cell left."""
    source, train, _, _ = bench_data
    c, x_t = train.schema.c, train.features()
    rng = make_rng(9)
    width = c + source.schema.s if with_transform else c
    heads = [LinearSoftmaxModel.initialize(width, rng) for _ in range(4)]
    maps = [LinearTransform.initialize(x_t.shape[1], source.schema.s, rng) for _ in range(4)]

    def teacher(cells):
        models = {"C": heads[0] if cells is None else LinearSoftmaxModel.stack(heads, cells)}
        if with_transform:
            models["F"] = maps[0] if cells is None else LinearTransform.stack(maps, cells)
        return frozen_teacher(models, c, x_t)

    def index(*shape):
        return rng.integers(0, len(x_t), size=shape + (128,))

    one, stack = teacher(None), teacher(np.arange(4))
    left = stack.take(np.array([True, False, True, True]))
    for t, idx in ((one, index()), (stack, index()), (stack, index(4)), (left, index()),
                   (left, index(3))):
        _same_labels(t.gather(idx), t(x_t.take(idx, axis=0)))
    into = one.gather(index())
    idx = index()
    assert one.gather(idx, into=into) is into
    _same_labels(into, one(x_t.take(idx, axis=0)))


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_a_teacher_row_with_non_finite_logits_fails_only_the_cells_that_draw_it(tiny_data):
    _, train, _, _ = tiny_data
    c, x_t = train.schema.c, train.features()
    weights = np.zeros((2, c, 2))
    weights[1, 0, 0] = 1e308   # cell 1 overflows on rows with a large first column
    teacher = frozen_teacher({"C": LinearSoftmaxModel(weights, np.zeros((2, 2)))}, c, x_t)
    big = np.flatnonzero(np.abs(x_t[:, 0]) > 2.0)
    small = np.flatnonzero(np.abs(x_t[:, 0]) < 1.0)
    _same_labels(teacher.gather(small[:8]), teacher(x_t[small[:8]]))
    rows = np.concatenate([small[:4], big[:1]])
    with pytest.raises(InvalidInputError) as batch:
        teacher(x_t[rows])
    with pytest.raises(InvalidInputError) as gathered:
        teacher.gather(rows)
    assert str(gathered.value) == str(batch.value) == "teacher logits: values must be finite"
    assert gathered.value.cells.tolist() == batch.value.cells.tolist() == [False, True]
    # each cell's own rows: the row fails cell 1 when it draws it, and no cell otherwise
    with pytest.raises(InvalidInputError) as own:
        teacher.gather(np.stack([small[:5], rows]))
    assert own.value.cells.tolist() == [False, True]
    own_rows = np.stack([rows, small[:5]])
    _same_labels(teacher.gather(own_rows), teacher(x_t[own_rows]))


@pytest.mark.parametrize("method", ["DIST", "PADA_S"])
@pytest.mark.parametrize("case", ["alone", "across_seeds", "a_cell_leaves"])
def test_every_step_reads_the_teacher_labels_of_its_batch(tiny_data, monkeypatch, method, case):
    """Each gather during training equals the teacher's forward on the drawn rows,
    also after a cell fails mid-run and the stack takes the teacher of the rest."""
    source, train, val, _ = tiny_data
    x_t = train.features()
    base = TrainConfig(learning_rate=0.3, lam=0.5, eta=0.5, steps=6, batch_size=32,
                       max_soft_rounds=2)
    configs = {"alone": [base],
               "across_seeds": [base, replace(base, seed=3), replace(base, lam=0.1, seed=3)],
               "a_cell_leaves": [base, replace(base, seed=3), replace(base, lam=0.1)]}[case]
    real_gather, real_step = models_module.FrozenTeacher.gather, LinearSoftmaxModel.apply_step
    cells_seen = []

    def checked_gather(self, index, into=None):
        got = real_gather(self, index, into)
        _same_labels(got, self(x_t.take(index, axis=0)))
        cells_seen.append(self.classifier.weights.shape[:-2])
        return got

    def failing_step(self, grads, scale):   # the second cell fails once the teacher has run
        if case == "a_cell_leaves" and len(cells_seen) >= 5 and self.weights.shape[:-2] == (3,):
            raise NonFiniteCells("forced", np.array([False, True, False]))
        return real_step(self, grads, scale)

    monkeypatch.setattr(models_module.FrozenTeacher, "gather", checked_gather)
    monkeypatch.setattr(LinearSoftmaxModel, "apply_step", failing_step)
    outcomes = METHOD_TABLE[method].group(source, train, val, configs)
    assert cells_seen
    if case == "a_cell_leaves":
        assert str(outcomes[1]) == "forced"
        assert (3,) in cells_seen and cells_seen[-1] == (2,)
    else:
        assert not any(isinstance(art, Exception) for art in outcomes)
