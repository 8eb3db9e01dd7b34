"""Acceptance suite: the package's headline guarantees, one test each.

Every test prints a single PASS line with the measured numbers once its
assertions hold, so a verbose run reads as a checklist. The benchmark
fixtures come from conftest; training happens lazily and is shared across
the tests that compare methods.
"""

import os
import time
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import BENCH_SEEDS, BENCH_SPEC, BENCH_SPLIT, bench_config
from _oracles import (
    finite_difference,
    kl_pair,
    mmd_linear,
    pack_grads,
    pack_params,
    relative_error,
    set_params,
)

from puhda import numerics
from puhda.data import (
    DomainMatrix,
    FeatureSchema,
    SplitSpec,
    generate_synthetic,
    split,
    standardize_splits,
)
from puhda.metrics import (
    accuracy,
    auc,
    correlation_analytics,
    discrimination_accuracy,
    improvement_metrics,
)
from puhda.models import LinearSoftmaxModel, LinearTransform, loss_and_grads
from puhda.objectives import (
    CompletionBlocks,
    domain_adv_terms,
    dsft_loss,
    pada_s_terms,
    pada_terms,
    pan_terms,
)
from puhda.trainers import (
    TrainConfig,
    align_features,
    predict,
    train_com_p,
    train_pada,
    train_pada_f,
    train_pada_s,
)

PROBE_CONFIG = TrainConfig(learning_rate=0.05, steps=2000, batch_size=128, seed=0)
SOFT_ETA = 0.01


def _report(detail: str) -> None:
    print(f"PASS {detail}")


# --------------------------------------------------------------------------
# Shared lazy training on the frozen benchmark


@pytest.fixture(scope="module")
def bench(bench_data):
    source, train, val, test = bench_data
    cache: dict = {}
    timings: dict = {}

    trainers = {
        "COM_P": lambda seed: train_com_p(source, train, bench_config(seed)),
        "PADA": lambda seed: train_pada(source, train, bench_config(seed)),
        "PADA_F": lambda seed: train_pada_f(source, train, bench_config(seed)),
        "PADA_S": lambda seed: train_pada_s(
            source, train, bench_config(seed, eta=SOFT_ETA), val),
    }

    def get(method):
        if method not in cache:
            t0 = time.perf_counter()
            cache[method] = tuple(trainers[method](seed) for seed in BENCH_SEEDS)
            timings[method] = time.perf_counter() - t0
        return cache[method]

    def test_accuracies(method):
        return [accuracy(predict(art, test), test.labels) for art in get(method)]

    return SimpleNamespace(
        get=get, timings=timings, test_accuracies=test_accuracies,
        source=source, train=train, val=val, test=test,
    )


# --------------------------------------------------------------------------
# 1. Analytic gradients


def _gradient_instances(rng):
    """Random small instances of every trainable objective."""
    c = int(rng.integers(1, 4))
    s = int(rng.integers(1, 4))
    t = int(rng.integers(1, 4))
    n1 = int(rng.integers(1, 5))
    n2 = int(rng.integers(1, 5))

    def softmax_model(dim):
        return LinearSoftmaxModel(rng.normal(size=(dim, 2)), rng.normal(size=2))

    def transform(din, dout):
        return LinearTransform(rng.normal(size=(din, dout)), rng.normal(size=dout))

    lam = float(rng.uniform(0.05, 1.0))
    eta = float(rng.uniform(0.05, 1.0))
    gamma = float(rng.uniform(0.0, 2.0))
    bs = rng.normal(size=(n1, c + s))
    bt = rng.normal(size=(n2, c + t))
    u = rng.uniform(size=n2)
    teacher = numerics.clamp_probs(np.stack([1.0 - u, u], axis=1))

    yield "pu", {
        "C": softmax_model(c), "D": softmax_model(c),
    }, lambda: pan_terms(rng.normal(size=(n1, c)), rng.normal(size=(n2, c)), lam)

    def hetero_models():
        return {"C": softmax_model(c + s), "D": softmax_model(c + s),
                "F": transform(c + t, s)}

    yield "joint", hetero_models(), lambda: pada_terms(bs, bt, c, lam)
    yield "soft", hetero_models(), lambda: pada_s_terms(bs, bt, c, lam, eta, teacher)
    yield "domain", {"Df": softmax_model(c + s), "F": transform(c + t, s)}, (
        lambda: domain_adv_terms(bs, bt, c))

    maps = {"psi_s": transform(c, s), "psi_t": transform(c, t)}
    s_c = rng.normal(size=(n1, c))
    s_s = rng.normal(size=(n1, s))
    t_c = rng.normal(size=(n2, c))
    t_t = rng.normal(size=(n2, t))
    yield "completion", maps, CompletionBlocks(s_c, s_s, t_c, t_t, gamma)


def test_analytic_gradients_match_finite_differences():
    rng = np.random.default_rng(2024)
    instances = 100
    worst: dict[str, float] = {}
    t0 = time.perf_counter()
    for _ in range(instances):
        for name, models, problem in _gradient_instances(rng):
            names = tuple(sorted(models))
            if name == "completion":
                res = dsft_loss(problem, models["psi_s"], models["psi_t"])

                def value_fn(vec):
                    set_params(models, names, vec)
                    return dsft_loss(problem, models["psi_s"], models["psi_t"]).value
            else:
                terms = problem()
                res = loss_and_grads(models, terms, wrt=names)

                def value_fn(vec):
                    set_params(models, names, vec)
                    return loss_and_grads(models, terms).value

            start = pack_params(models, names)
            fd = finite_difference(value_fn, start, h=1e-5)
            set_params(models, names, start)
            err = relative_error(pack_grads(res.grads, names), fd)
            worst[name] = max(worst.get(name, 0.0), err)
            assert err < 1e-4, f"{name}: relative error {err:.2e}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    summary = ", ".join(f"{k}={v:.1e}" for k, v in sorted(worst.items()))
    _report(
        f"analytic gradients: {instances} instances per objective, "
        f"worst relative errors {summary}, {elapsed:.1f}s")


# --------------------------------------------------------------------------
# 2. Paired divergence terms


def _pairs(p1: np.ndarray) -> np.ndarray:
    return numerics.clamp_probs(np.stack([1.0 - p1, p1], axis=1))


def test_paired_divergence_terms_collapse_to_closed_form():
    rng = np.random.default_rng(99)
    d = _pairs(np.concatenate([rng.uniform(size=997), [0.0, 1.0, 0.5]]))
    c = _pairs(np.concatenate([[1.0, 0.0, 0.5], rng.uniform(size=997)]))
    lhs = np.array([kl_pair(di, ci) - kl_pair(di, ci[::-1]) for di, ci in zip(d, c)])
    rhs = (d[:, 1] - d[:, 0]) * np.log(c[:, 0] / c[:, 1])
    worst = float(np.max(np.abs(lhs - rhs)))
    assert worst <= 1e-9
    _report(f"paired divergence identity: worst deviation {worst:.1e} over 1000 pairs")


# --------------------------------------------------------------------------
# 3. Improvement ratios


REFERENCE_IMPROVEMENTS = [
    ("A", 0.5993, 0.6264, 0.6613, 0.068, 0.155),
    ("B", 0.5999, 0.6250, 0.6314, 0.063, 0.079),
    ("C", 0.6264, 0.6507, 0.6893, 0.065, 0.168),
    ("D", 0.6549, 0.6685, 0.6970, 0.040, 0.122),
    ("E", 0.6661, 0.6659, 0.6672, -0.001, 0.003),
]


def test_improvement_ratios_reproduce_the_reference_table():
    worst = 0.0
    for name, acc_com, acc_dist, acc_soft, want_dist, want_soft in REFERENCE_IMPROVEMENTS:
        p_dist, p_soft = improvement_metrics(acc_com, acc_dist, acc_soft)
        worst = max(worst, abs(p_dist - want_dist), abs(p_soft - want_soft))
        assert p_dist == pytest.approx(want_dist, abs=1e-3), name
        assert p_soft == pytest.approx(want_soft, abs=1e-3), name
    _report(
        f"improvement ratios: 5 reference settings within 0.001 "
        f"(worst deviation {worst:.1e})")


# --------------------------------------------------------------------------
# 4. PU training sanity


def test_pu_training_separates_gaussian_blobs():
    t0 = time.perf_counter()
    accs = []
    for seed in BENCH_SEEDS:
        rng = np.random.default_rng(seed)
        mean = np.array([2.0, 2.0])
        x_pos = rng.normal(size=(1000, 2)) + mean
        x_neg = rng.normal(size=(1000, 2)) - mean
        half = rng.permutation(1000)[:500]
        x_unl = np.vstack([x_pos[half], x_neg[half]])
        schema = FeatureSchema(("x0", "x1"), (), ())
        art = train_com_p(
            DomainMatrix(schema, "source", x_pos, np.empty((1000, 0))),
            DomainMatrix(schema, "target", x_unl, np.empty((1000, 0))),
            TrainConfig(learning_rate=0.01, lam=0.5, steps=2000, batch_size=128, seed=seed))
        test_x = np.vstack([rng.normal(size=(500, 2)) + mean,
                            rng.normal(size=(500, 2)) - mean])
        test_y = np.concatenate([np.ones(500, dtype=int), np.zeros(500, dtype=int)])
        accs.append(accuracy(art.classifier.classify(test_x), test_y))
    elapsed = time.perf_counter() - t0
    mean_acc = float(np.mean(accs))
    assert mean_acc >= 0.90
    assert elapsed < 60.0
    _report(
        f"PU sanity: mean accuracy {mean_acc:.4f} >= 0.90 on two Gaussian blobs "
        f"({len(BENCH_SEEDS)} seeds, {elapsed:.1f}s)")


# --------------------------------------------------------------------------
# 5. Alignment vs the common-features baseline


def test_alignment_beats_the_common_features_baseline(bench):
    target_raw = generate_synthetic(BENCH_SPEC)[1]
    analytics = correlation_analytics(target_raw)
    assert analytics.r_tar_com > 1.0
    assert BENCH_SPEC.coupling >= 0.7

    com_accs = bench.test_accuracies("COM_P")
    pada_accs = bench.test_accuracies("PADA")
    gap = float(np.mean(pada_accs)) - float(np.mean(com_accs))
    elapsed = bench.timings["COM_P"] + bench.timings["PADA"]
    assert gap >= 0.03
    assert elapsed < 300.0
    _report(
        f"alignment gain: mean accuracy {np.mean(pada_accs):.4f} vs baseline "
        f"{np.mean(com_accs):.4f} (+{gap:.4f} >= 0.03; R={analytics.r_tar_com:.2f}, "
        f"coupling={BENCH_SPEC.coupling}; training {elapsed:.0f}s)")


# --------------------------------------------------------------------------
# 6. Joint training vs the decoupled ablation


def test_joint_training_beats_the_decoupled_ablation(bench):
    pada_accs = bench.test_accuracies("PADA")
    pada_f_accs = bench.test_accuracies("PADA_F")
    assert float(np.mean(pada_accs)) > float(np.mean(pada_f_accs))

    pos_mask = bench.train.labels == 1
    gaps = {}
    for method in ("PADA", "PADA_F"):
        per_seed = []
        for art in bench.get(method):
            aligned = align_features(art.models()["F"], bench.train)
            acc_pp, acc_pn = discrimination_accuracy(
                bench.source.features(), aligned[pos_mask], aligned[~pos_mask],
                BENCH_SPLIT, PROBE_CONFIG)
            per_seed.append(acc_pn - acc_pp)
        gaps[method] = float(np.mean(per_seed))
    assert gaps["PADA"] > gaps["PADA_F"]
    _report(
        f"ablation ordering: accuracy {np.mean(pada_accs):.4f} > "
        f"{np.mean(pada_f_accs):.4f} and separability gap {gaps['PADA']:.4f} > "
        f"{gaps['PADA_F']:.4f} (positive-vs-negative probe)")


# --------------------------------------------------------------------------
# 7. Soft-label rounds


def test_soft_label_rounds_do_not_degrade_validation_accuracy(bench):
    pada_vals = [
        accuracy(predict(art, bench.val), bench.val.labels)
        for art in bench.get("PADA")
    ]
    soft_arts = bench.get("PADA_S")
    round1_vals = [art.round_val_accuracy[0] for art in soft_arts]
    diff = float(np.mean(round1_vals)) - float(np.mean(pada_vals))
    assert diff >= -0.01
    for art in soft_arts:
        assert 1 <= art.rounds_run <= art.config.max_soft_rounds
    rounds = [art.rounds_run for art in soft_arts]
    _report(
        f"soft labeling: first-round validation {np.mean(round1_vals):.4f} vs "
        f"plain joint {np.mean(pada_vals):.4f} ({diff:+.4f} >= -0.01), "
        f"rounds run {rounds} within budget")


# --------------------------------------------------------------------------
# 8. Determinism


def test_training_is_deterministic(tiny_data, tmp_path):
    source, train, _, _ = tiny_data
    config = TrainConfig(learning_rate=0.05, lam=0.1, steps=300, batch_size=32, seed=3)
    first = train_pada(source, train, config)
    second = train_pada(source, train, config)
    for name, model in first.models().items():
        twin = second.models()[name]
        assert np.array_equal(model.weights, twin.weights), name
        assert np.array_equal(model.bias, twin.bias), name
    first.trace.write(tmp_path / "first.csv")
    second.trace.write(tmp_path / "second.csv")
    assert (tmp_path / "first.csv").read_bytes() == (tmp_path / "second.csv").read_bytes()
    _report(
        "determinism: repeated training gives identical parameters and "
        "byte-identical telemetry")


# --------------------------------------------------------------------------
# 9. Metric unit checks


def test_metric_unit_checks():
    assert auc(np.array([0.9, 0.8, 0.2, 0.1]), np.array([1, 1, 0, 0])) == 1.0
    assert auc(np.array([0.4, 0.4, 0.4, 0.4]), np.array([1, 0, 1, 0])) == 0.5
    assert auc(np.array([0.35, 0.8, 0.1, 0.4]), np.array([1, 1, 0, 0])) == 0.75

    tie = np.array([[0.5, 0.5]])
    assert accuracy(tie, np.array([0])) == 1.0
    assert accuracy(tie, np.array([1])) == 0.0

    a = np.random.default_rng(5).normal(size=(40, 3))
    assert mmd_linear(a.tolist(), a.tolist()) == 0.0

    rng = np.random.default_rng(8)
    n = 60
    schema = FeatureSchema(("c0", "c1"), ("s0",), ("t0", "t1"))
    labels = (rng.uniform(size=n) < 0.5).astype(int)
    shift = labels[:, None] * 0.8
    common = rng.normal(size=(n, 2)) + shift
    specific = rng.normal(size=(n, 2)) + shift
    aux = rng.normal(size=(n, 1)) + 0.5 * specific[:, :1]
    dm = DomainMatrix(schema, "target", common, specific, labels=labels,
                      aux_specific=aux)
    scaled = DomainMatrix(
        schema, "target",
        common * np.array([2.0, -3.0]) + np.array([1.0, -4.0]),
        specific * np.array([-0.5, 5.0]) + np.array([0.25, 2.0]),
        labels=labels,
        aux_specific=aux * np.array([7.0]) - 1.0,
    )
    base = correlation_analytics(dm)
    moved = correlation_analytics(scaled)
    for field in ("corr_tar_lab", "corr_com_lab", "r_tar_com", "corr_tar_sou"):
        assert getattr(moved, field) == pytest.approx(getattr(base, field), abs=1e-12)
    _report(
        "metric units: ranking scores 1.0/0.5/0.75, ties predict negative, "
        "self-distance 0, correlations affine-invariant")


# --------------------------------------------------------------------------
# 10. External credit-default data (optional)


CREDIT_ENV_VAR = "PUHDA_CREDIT_CSV"


def _credit_schema():
    demographics = ("SEX", "EDUCATION", "MARRIAGE", "AGE")
    history = tuple(f"PAY_{i}" for i in (0, 2, 3, 4, 5, 6))
    bills = tuple(f"BILL_AMT{i}" for i in range(1, 7))
    payments = tuple(f"PAY_AMT{i}" for i in range(1, 7))
    return FeatureSchema(
        common=demographics,
        source_specific=bills + history[:3],
        target_specific=payments + history[3:],
        label_column="default payment next month",
    )


def _load_credit_domains(path):
    """Best-effort preparation of the public credit-default csv.

    Male rows that defaulted form the positive source domain; female rows
    form the unlabeled target, subsampled to an even class balance.
    Demographics are the shared block; billing columns plus the older half
    of the payment history are source-specific, payment amounts plus the
    newer half are target-specific.
    """
    import csv as csv_module

    schema = _credit_schema()
    with open(path, newline="") as fh:
        rows = list(csv_module.DictReader(fh))
    label_keys = [k for k in rows[0]
                  if k.strip().lower().replace(".", " ") == "default payment next month"]
    if not label_keys:
        raise KeyError("no default-payment label column in the csv")
    label_key = label_keys[0]

    def block(subset, columns):
        return np.array([[float(r[col]) for col in columns] for r in subset])

    males = [r for r in rows if r["SEX"].strip() == "1" and r[label_key].strip() == "1"]
    females = [r for r in rows if r["SEX"].strip() == "2"]
    rng = np.random.default_rng(0)
    pos = [r for r in females if r[label_key].strip() == "1"]
    neg = [r for r in females if r[label_key].strip() != "1"]
    keep = min(len(pos), len(neg))
    females = [pos[i] for i in rng.permutation(len(pos))[:keep]]
    females += [neg[i] for i in rng.permutation(len(neg))[:keep]]
    females = [females[i] for i in rng.permutation(len(females))]

    source = DomainMatrix(
        schema, "source",
        block(males, schema.common), block(males, schema.source_specific),
        labels=np.ones(len(males), dtype=int))
    target = DomainMatrix(
        schema, "target",
        block(females, schema.common), block(females, schema.target_specific),
        labels=np.array([int(r[label_key]) for r in females]),
        aux_specific=block(females, schema.source_specific))
    return source, target


@pytest.mark.skipif(
    CREDIT_ENV_VAR not in os.environ,
    reason=f"optional: set {CREDIT_ENV_VAR} to the UCI credit-default csv to run",
)
@pytest.mark.xfail(
    strict=False,
    reason="band check on external data; informational, never blocking",
)
def test_credit_default_accuracy_band():
    source, target = _load_credit_domains(os.environ[CREDIT_ENV_VAR])
    train, val, test = split(target, SplitSpec(train=0.6, val=0.2, test=0.2, seed=0))
    source, train, val, test = standardize_splits(source, train, val, test)
    accs = []
    for seed in BENCH_SEEDS:
        art = train_pada_s(source, train, bench_config(seed, eta=SOFT_ETA), val)
        accs.append(accuracy(predict(art, test), test.labels))
    mean_acc = float(np.mean(accs))
    assert 0.58 <= mean_acc <= 0.69
    _report(f"credit default: mean accuracy {mean_acc:.4f} inside [0.58, 0.69]")
