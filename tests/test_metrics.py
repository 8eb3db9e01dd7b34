"""Metric definitions: threshold rule, rank statistic, improvement ratios,
correlation analytics, and the domain-discrimination probe."""

from types import SimpleNamespace

import numpy as np
import pytest

from puhda import trainers
from puhda.data import DomainMatrix, FeatureSchema, SplitSpec
from puhda.errors import InvalidInputError, UndefinedMetricError
from puhda.metrics import (
    EvalReport,
    accuracy,
    auc,
    correlation_analytics,
    discrimination_accuracy,
    improvement_metrics,
)
from puhda.models import LinearSoftmaxModel, LinearTransform
from puhda.objectives import CompletionBlocks, dsft_loss
from puhda.trainers import TrainConfig


# --------------------------------------------------------------------------
# Accuracy


def test_accuracy_counts_threshold_matches():
    probs = np.array([[0.2, 0.8], [0.9, 0.1], [0.4, 0.6], [0.3, 0.7]])
    labels = np.array([1, 0, 0, 1])
    assert accuracy(probs, labels) == 0.75


def test_accuracy_breaks_ties_toward_negative():
    half = np.array([[0.5, 0.5]])
    assert accuracy(half, np.array([0])) == 1.0
    assert accuracy(half, np.array([1])) == 0.0


@pytest.mark.parametrize(
    "probs, labels",
    [
        (np.array([0.5, 0.5]), np.array([1, 0])),
        (np.array([[0.5, 0.5]]), np.array([2])),
        (np.array([[0.5, 0.5]]), np.array([0, 1])),
        (np.empty((0, 2)), np.empty(0)),
        (np.array([[np.nan, 0.5]]), np.array([0])),
    ],
)
def test_accuracy_rejects_malformed_inputs(probs, labels):
    with pytest.raises(InvalidInputError):
        accuracy(probs, labels)


# --------------------------------------------------------------------------
# Ranking quality


def test_auc_perfect_separation_is_one():
    scores = np.array([0.9, 0.8, 0.2, 0.1])
    labels = np.array([1, 1, 0, 0])
    assert auc(scores, labels) == 1.0


def test_auc_all_ties_is_half():
    scores = np.full(6, 0.3)
    labels = np.array([1, 0, 1, 0, 1, 0])
    assert auc(scores, labels) == 0.5


def test_auc_four_pair_case():
    scores = np.array([0.9, 0.4, 0.6, 0.1])
    labels = np.array([1, 1, 0, 0])
    assert auc(scores, labels) == 0.75


def test_auc_gives_half_credit_per_tied_pair():
    scores = np.array([0.5, 0.5, 0.2])
    labels = np.array([1, 0, 0])
    assert auc(scores, labels) == 0.75


def test_auc_matches_pair_counting_oracle(rng):
    for scores in (rng.integers(0, 5, size=40).astype(np.float64),   # many ties
                   rng.normal(size=40).round(1)):                    # rounded, some ties
        labels = rng.integers(0, 2, size=40)
        labels[:2] = (0, 1)
        pos = scores[labels == 1]
        neg = scores[labels == 0]
        wins = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
        expected = wins / (pos.size * neg.size)
        assert auc(scores, labels) == pytest.approx(expected, abs=1e-12)


def test_auc_needs_both_classes():
    with pytest.raises(InvalidInputError, match="both classes"):
        auc(np.array([0.1, 0.2]), np.array([1, 1]))


# --------------------------------------------------------------------------
# Improvement ratios


def test_improvement_metrics_exact_fractions():
    p_dist, p_soft = improvement_metrics(0.2, 0.6, 0.4)
    assert p_dist == pytest.approx(0.5, abs=1e-15)
    assert p_soft == pytest.approx(0.25, abs=1e-15)


PUBLISHED_IMPROVEMENTS = [
    ("A", 0.5993, 0.6264, 0.6613, 0.068, 0.155),
    ("B", 0.5999, 0.6250, 0.6314, 0.063, 0.079),
    ("C", 0.6264, 0.6507, 0.6893, 0.065, 0.168),
    ("D", 0.6549, 0.6685, 0.6970, 0.040, 0.122),
    ("E", 0.6661, 0.6659, 0.6672, -0.001, 0.003),
]


@pytest.mark.parametrize("setting", PUBLISHED_IMPROVEMENTS, ids=lambda s: s[0])
def test_improvement_metrics_reproduce_published_table(setting):
    _, acc_com, acc_dist, acc_soft, want_dist, want_soft = setting
    p_dist, p_soft = improvement_metrics(acc_com, acc_dist, acc_soft)
    assert p_dist == pytest.approx(want_dist, abs=1e-3)
    assert p_soft == pytest.approx(want_soft, abs=1e-3)


def test_improvement_metrics_rejects_out_of_range():
    with pytest.raises(InvalidInputError, match="acc_dist"):
        improvement_metrics(0.5, 1.2, 0.5)


def test_improvement_metrics_undefined_at_perfect_baseline():
    with pytest.raises(UndefinedMetricError, match="headroom"):
        improvement_metrics(1.0, 0.9, 0.9)


# --------------------------------------------------------------------------
# Distribution distance: the MMD between completed domains


def test_mmd2_identical_samples_is_zero(rng):
    # the same common rows in both domains, each missing block filled with its mean
    a = rng.normal(size=(50, 4))
    s_s, t_t = rng.normal(size=(50, 2)), rng.normal(size=(50, 3))
    psi_s = LinearTransform(np.zeros((4, 2)), s_s.mean(axis=0))
    psi_t = LinearTransform(np.zeros((4, 3)), t_t.mean(axis=0))
    assert dsft_loss(CompletionBlocks(a, s_s, a, t_t, 1.0), psi_s, psi_t).mmd == 0.0


def test_mmd2_hand_value():
    # completed source rows [[0, 0, 1, 5], [2, 0, 1, 5]], target row [4, 3, 0, 5]
    blocks = CompletionBlocks(np.array([[0.0, 0.0], [2.0, 0.0]]), np.ones((2, 1)),
                              np.array([[4.0, 3.0]]), np.array([[5.0]]), 1.0)
    psi_s = LinearTransform(np.zeros((2, 1)), np.zeros(1))
    psi_t = LinearTransform(np.zeros((2, 1)), np.array([5.0]))
    got = dsft_loss(blocks, psi_s, psi_t).mmd
    assert got == pytest.approx(19.0, abs=1e-12)  # ||(1,0,1,5)-(4,3,0,5)||^2


def test_mmd2_rejects_column_mismatch(rng):
    with pytest.raises(InvalidInputError, match="column mismatch"):
        CompletionBlocks(rng.normal(size=(5, 3)), rng.normal(size=(5, 1)),
                         rng.normal(size=(5, 4)), rng.normal(size=(5, 1)), 1.0)


# --------------------------------------------------------------------------
# Correlation analytics


def make_target(rng, n=400, aux=True, labels=None):
    schema = FeatureSchema(
        common=("c0", "c1"),
        source_specific=("s0", "s1", "s2"),
        target_specific=("t0", "t1"),
    )
    if labels is None:
        labels = rng.integers(0, 2, size=n).astype(np.int8)
        labels[:2] = (0, 1)
    n = labels.shape[0]
    y = labels.astype(np.float64).reshape(-1, 1)
    common = 0.3 * y + rng.normal(size=(n, 2))
    specific = 0.9 * y + rng.normal(size=(n, 2))
    aux_block = 0.5 * y + rng.normal(size=(n, 3)) if aux else None
    return DomainMatrix(schema, "target", common, specific,
                        labels=labels, aux_specific=aux_block)


def test_correlation_analytics_matches_pairwise_oracle(rng):
    dm = make_target(rng)
    fa = correlation_analytics(dm)

    def mean_abs_corr(a, b):
        vals = []
        for i in range(a.shape[1]):
            for j in range(b.shape[1]):
                vals.append(abs(np.corrcoef(a[:, i], b[:, j])[0, 1]))
        return float(np.mean(vals))

    y = dm.labels.astype(np.float64).reshape(-1, 1)
    assert fa.corr_tar_lab == pytest.approx(mean_abs_corr(dm.specific, y), abs=1e-12)
    assert fa.corr_com_lab == pytest.approx(mean_abs_corr(dm.common, y), abs=1e-12)
    assert fa.corr_tar_sou == pytest.approx(
        mean_abs_corr(dm.specific, dm.aux_specific), abs=1e-12)
    assert fa.r_tar_com == pytest.approx(fa.corr_tar_lab / fa.corr_com_lab, abs=1e-15)


def test_correlation_analytics_is_affine_invariant(rng):
    dm = make_target(rng)
    scales_c = np.array([2.0, -0.5])
    scales_t = np.array([-3.0, 0.25])
    shifted = DomainMatrix(
        dm.schema, "target",
        dm.common * scales_c + np.array([10.0, -4.0]),
        dm.specific * scales_t + np.array([0.5, 100.0]),
        labels=dm.labels, aux_specific=dm.aux_specific,
    )
    a = correlation_analytics(dm)
    b = correlation_analytics(shifted)
    assert b.corr_tar_lab == pytest.approx(a.corr_tar_lab, abs=1e-12)
    assert b.corr_com_lab == pytest.approx(a.corr_com_lab, abs=1e-12)
    assert b.r_tar_com == pytest.approx(a.r_tar_com, abs=1e-9)


def test_correlation_analytics_ignores_row_order(rng):
    dm = make_target(rng)
    perm = rng.permutation(dm.n)
    shuffled = dm.select(perm)
    a = correlation_analytics(dm)
    b = correlation_analytics(shuffled)
    assert b.corr_tar_lab == pytest.approx(a.corr_tar_lab, abs=1e-12)
    assert b.corr_tar_sou == pytest.approx(a.corr_tar_sou, abs=1e-12)


def test_correlation_analytics_skips_constant_columns(rng, caplog):
    dm = make_target(rng)
    specific = dm.specific.copy()
    specific[:, 1] = 7.0
    flat = DomainMatrix(dm.schema, "target", dm.common, specific, labels=dm.labels)
    with caplog.at_level("WARNING"):
        fa = correlation_analytics(flat)
    y = dm.labels.astype(np.float64)
    only_live = abs(np.corrcoef(specific[:, 0], y)[0, 1])
    assert fa.corr_tar_lab == pytest.approx(only_live, abs=1e-12)
    assert "zero-variance" in caplog.text


def test_correlation_analytics_fails_when_every_column_is_constant(rng):
    dm = make_target(rng)
    flat = DomainMatrix(dm.schema, "target", dm.common,
                        np.full_like(dm.specific, 3.0), labels=dm.labels)
    with pytest.raises(InvalidInputError, match="nonzero variance"):
        correlation_analytics(flat)


def test_correlation_analytics_undefined_without_common_signal():
    schema = FeatureSchema(common=("c0",), source_specific=("s0",),
                           target_specific=("t0",))
    labels = np.array([0, 1, 0, 1], dtype=np.int8)
    common = np.array([[1.0], [-1.0], [-1.0], [1.0]])  # exactly uncorrelated
    specific = labels.reshape(-1, 1).astype(np.float64)
    dm = DomainMatrix(schema, "target", common, specific, labels=labels)
    with pytest.raises(UndefinedMetricError, match="ratio undefined"):
        correlation_analytics(dm)


def test_correlation_analytics_requires_labeled_two_class_target(rng):
    dm = make_target(rng)
    with pytest.raises(InvalidInputError, match="labels"):
        correlation_analytics(DomainMatrix(dm.schema, dm.role, dm.common, dm.specific))
    ones = make_target(rng, labels=np.ones(100, dtype=np.int8))
    with pytest.raises(InvalidInputError, match="both classes"):
        correlation_analytics(ones)


def test_correlation_analytics_without_aux_block(rng):
    dm = make_target(rng, aux=False)
    assert correlation_analytics(dm).corr_tar_sou is None


# --------------------------------------------------------------------------
# Discrimination probe


PROBE_SPLIT = SplitSpec(train=0.7, val=0.15, test=0.15, seed=0)
PROBE_CFG = TrainConfig(learning_rate=0.05, steps=300, batch_size=64, seed=0)


def test_probe_separates_only_the_shifted_pairing(rng):
    src = rng.normal(size=(400, 3))
    pos = rng.normal(size=(300, 3))          # same distribution as source
    neg = rng.normal(size=(300, 3)) + 4.0    # far away
    acc_pp, acc_pn = discrimination_accuracy(src, pos, neg, PROBE_SPLIT, PROBE_CFG)
    assert acc_pn > 0.95
    assert abs(acc_pp - 0.5) < 0.15
    assert acc_pn - acc_pp > 0.3


def test_probe_is_deterministic(rng):
    src = rng.normal(size=(200, 3))
    pos = rng.normal(size=(150, 3)) + 1.0
    neg = rng.normal(size=(150, 3)) + 2.0
    first = discrimination_accuracy(src, pos, neg, PROBE_SPLIT, PROBE_CFG)
    second = discrimination_accuracy(src, pos, neg, PROBE_SPLIT, PROBE_CFG)
    assert first == second


def test_probe_scores_its_held_out_rows_by_the_accuracy_rule(rng, monkeypatch):
    # A fixed probe whose p1 is 0.5 exactly on a third of the rows: its held-out
    # accuracy is the count of source rows with p1 > 0.5 plus other rows without,
    # over all held-out rows, to the bit.
    seen = []

    class Probe(LinearSoftmaxModel):
        def classify(self, x):
            seen.append(probs := super().classify(x))
            return probs

    probe = Probe(np.array([[1.0, 2.0], [0.0, 0.0], [0.5, 0.5]]), np.array([0.0, 0.0]))
    monkeypatch.setattr(trainers, "train_discriminator",
                        lambda x_a, x_b, config: SimpleNamespace(models=lambda: {"D": probe}))

    def rows(n):
        x = rng.normal(size=(n, 3))
        x[::3, 0] = 0.0
        return x

    result = discrimination_accuracy(rows(120), rows(90), rows(75), PROBE_SPLIT, PROBE_CFG)
    assert len(seen) == 4
    want = []
    for p_src, p_oth in (seen[:2], seen[2:]):
        correct = int((p_src[:, 1] > 0.5).sum()) + int((~(p_oth[:, 1] > 0.5)).sum())
        want.append(correct / (p_src.shape[0] + p_oth.shape[0]))
    assert result == tuple(want)
    assert 0.0 < min(want) and max(want) < 1.0


def test_probe_rejects_column_mismatch(rng):
    src = rng.normal(size=(50, 3))
    with pytest.raises(InvalidInputError, match="columns"):
        discrimination_accuracy(src, rng.normal(size=(50, 4)),
                                rng.normal(size=(50, 3)), PROBE_SPLIT, PROBE_CFG)


# --------------------------------------------------------------------------
# Evaluation summaries


def test_eval_report_means():
    report = EvalReport("PADA", (0.7, 0.8), (0.9, 0.6))
    assert report.accuracy == pytest.approx(0.75)
    assert report.auc == pytest.approx(0.75)


def test_eval_report_validation():
    with pytest.raises(InvalidInputError):
        EvalReport("PADA", (), ())
    with pytest.raises(InvalidInputError):
        EvalReport("PADA", (1.5,), (0.5,))
    with pytest.raises(InvalidInputError):
        EvalReport("PADA", (0.5, 0.6), (0.7,))
