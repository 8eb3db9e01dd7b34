"""Accuracy, ranking quality, improvement ratios, correlation analytics, and
domain-discrimination diagnostics.

Everything here is a pure computation except :func:`discrimination_accuracy`,
which trains a fresh probe discriminator for a fixed budget and reports its
held-out accuracy on the two domain pairings.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, UndefinedMetricError
from .numerics import derive_rng, require_finite

logger = logging.getLogger(__name__)


def _check_probs_labels(probs, labels):
    p = require_finite("predictions", probs)
    y = np.asarray(labels)
    if p.ndim != 2 or p.shape[1] != 2:
        raise InvalidInputError(f"predictions must be probability pairs, got shape {p.shape}")
    if p.shape[0] == 0:
        raise InvalidInputError("predictions are empty")
    if y.shape != (p.shape[0],):
        raise InvalidInputError(f"labels shape {y.shape} does not match {p.shape[0]} predictions")
    if not np.all(np.isin(y, (0, 1))):
        raise InvalidInputError("labels must be 0 or 1")
    return p, y.astype(np.int8)


def accuracy(probs, labels) -> float:
    """Fraction of rows where the thresholded prediction matches the label.

    Positive is predicted only when p1 is strictly above 0.5, so an exactly
    uncertain (0.5, 0.5) output counts as a negative prediction.
    """
    p, y = _check_probs_labels(probs, labels)
    pred = (p[:, 1] > 0.5).astype(np.int8)
    return float(np.mean(pred == y))


def error_rate(probs, labels) -> float:
    """Complement of accuracy; the two sum to 1 exactly."""
    return 1.0 - accuracy(probs, labels)


def auc(scores, labels) -> float:
    """Probability that a random positive outscores a random negative.

    Rank statistic with half credit for ties, equal to the trapezoidal area
    under the ROC curve. Needs both classes present.
    """
    s = require_finite("scores", scores)
    if s.ndim != 1 or s.shape[0] == 0:
        raise InvalidInputError(f"scores must be a non-empty vector, got shape {s.shape}")
    y = np.asarray(labels)
    if y.shape != s.shape:
        raise InvalidInputError(f"labels shape {y.shape} does not match scores {s.shape}")
    if not np.all(np.isin(y, (0, 1))):
        raise InvalidInputError("labels must be 0 or 1")
    n_pos = int(y.sum())
    n_neg = y.shape[0] - n_pos
    if n_pos == 0 or n_neg == 0:
        raise InvalidInputError("auc needs both classes present")
    order = np.argsort(s, kind="mergesort")
    sorted_scores = s[order]
    ranks = np.empty(s.shape[0], dtype=np.float64)
    i = 0
    while i < s.shape[0]:
        j = i
        while j + 1 < s.shape[0] and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0  # average 1-based rank over the tie run
        i = j + 1
    rank_sum_pos = float(ranks[y == 1].sum())
    return (rank_sum_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def improvement_metrics(acc_com: float, acc_dist: float, acc_pada_s: float) -> tuple[float, float]:
    """Relative accuracy gains of the two feature-using methods over the
    common-features baseline, each scaled by the baseline's headroom."""
    for name, v in (("acc_com", acc_com), ("acc_dist", acc_dist), ("acc_pada_s", acc_pada_s)):
        if not 0.0 <= v <= 1.0:
            raise InvalidInputError(f"{name} must be in [0, 1], got {v}")
    if acc_com >= 1.0:
        raise UndefinedMetricError("baseline accuracy 1 leaves no headroom to normalize by")
    headroom = 1.0 - acc_com
    return (acc_dist - acc_com) / headroom, (acc_pada_s - acc_com) / headroom


# --------------------------------------------------------------------------
# Correlation analytics


@dataclass(frozen=True)
class FeatureAnalytics:
    """Feature-usefulness summary for one dataset.

    ``corr_tar_lab`` and ``corr_com_lab`` are mean absolute Pearson
    correlations between the hidden label and the target-specific / common
    feature blocks; ``r_tar_com`` is their ratio. ``corr_tar_sou`` is the
    mean absolute correlation over all target-specific x source-specific
    feature pairs (requires jointly observed blocks).
    """

    corr_tar_lab: float
    corr_com_lab: float
    r_tar_com: float
    corr_tar_sou: float | None


def _abs_corr_mean(a: np.ndarray, b: np.ndarray, what: str) -> float:
    """Mean |Pearson| over all column pairs of a and b, skipping zero-variance
    columns (with a warning) and adjusting the divisor."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    a_c = a - a.mean(axis=0)
    b_c = b - b.mean(axis=0)
    a_norm = np.sqrt((a_c * a_c).sum(axis=0))
    b_norm = np.sqrt((b_c * b_c).sum(axis=0))
    a_keep = a_norm > 0
    b_keep = b_norm > 0
    dropped = int((~a_keep).sum() + (~b_keep).sum())
    if dropped:
        logger.warning("%s: excluded %d zero-variance feature(s)", what, dropped)
    if not a_keep.any() or not b_keep.any():
        raise InvalidInputError(f"{what}: no feature with nonzero variance")
    corr = (a_c[:, a_keep].T @ b_c[:, b_keep]) / np.outer(a_norm[a_keep], b_norm[b_keep])
    return float(np.mean(np.abs(corr)))


def correlation_analytics(target, source=None) -> FeatureAnalytics:
    """Label-correlation and cross-block-correlation summary of a dataset.

    ``target`` must carry hidden labels. The cross-domain correlation uses
    the target matrix's auxiliary source-specific block when present (the
    two blocks are never jointly observed otherwise) and is omitted without
    it. ``source``, when given, is only checked for schema consistency.
    """
    if target.labels is None:
        raise InvalidInputError("correlation analytics needs hidden labels on the target matrix")
    if len(np.unique(target.labels)) < 2:
        raise InvalidInputError("correlation analytics needs both classes present")
    if source is not None and source.schema != target.schema:
        raise InvalidInputError("source and target matrices disagree on the feature schema")
    y = target.labels.astype(np.float64).reshape(-1, 1)
    corr_tar_lab = _abs_corr_mean(target.specific, y, "target-specific vs label")
    corr_com_lab = _abs_corr_mean(target.common, y, "common vs label")
    if corr_com_lab == 0.0:
        raise UndefinedMetricError("common block has zero label correlation; ratio undefined")
    corr_tar_sou = None
    if target.aux_specific is not None:
        corr_tar_sou = _abs_corr_mean(
            target.specific, target.aux_specific, "target-specific vs source-specific"
        )
    return FeatureAnalytics(
        corr_tar_lab=corr_tar_lab,
        corr_com_lab=corr_com_lab,
        r_tar_com=corr_tar_lab / corr_com_lab,
        corr_tar_sou=corr_tar_sou,
    )


# --------------------------------------------------------------------------
# Discrimination probe


def discrimination_accuracy(
    source_features: np.ndarray,
    target_pos_features: np.ndarray,
    target_neg_features: np.ndarray,
    split_spec,
    config,
) -> tuple[float, float]:
    """How separable the source rows remain from each target class.

    Trains one fresh probe discriminator on source rows vs positive-target
    rows and another on source rows vs negative-target rows (source in the
    positive slot both times), each on that pairing's training fraction, and
    reports the two held-out accuracies ``(acc_pp, acc_pn)``. All three
    feature sets must live in the same space. Small held-out accuracy means
    the pairing is hard to tell apart, i.e. the distributions align.
    """
    from .trainers import train_discriminator  # local import breaks the module cycle

    src = require_finite("source features", source_features)
    pos = require_finite("positive-target features", target_pos_features)
    neg = require_finite("negative-target features", target_neg_features)
    for name, x in (("source", src), ("positive-target", pos), ("negative-target", neg)):
        if x.ndim != 2 or x.shape[0] == 0:
            raise InvalidInputError(f"{name} features must be a non-empty matrix")
        if x.shape[1] != src.shape[1]:
            raise InvalidInputError(
                f"{name} features have {x.shape[1]} columns, source has {src.shape[1]}"
            )

    def holdout(x, tag):
        rng = derive_rng(split_spec.seed, "discrimination-split", tag)
        perm = rng.permutation(x.shape[0])
        n_train = int(np.floor(split_spec.train * x.shape[0]))
        if n_train == 0 or n_train == x.shape[0]:
            raise InvalidInputError(f"{tag}: split fraction leaves an empty side")
        return x[perm[:n_train]], x[perm[n_train:]]

    def probe(other, tag):
        src_train, src_test = holdout(src, f"source-{tag}")
        oth_train, oth_test = holdout(other, tag)
        probe_art = train_discriminator(src_train, oth_train, config)
        model = probe_art.discriminator
        pred_src = model.classify(src_test)[:, 1] > 0.5
        pred_oth = model.classify(oth_test)[:, 1] > 0.5
        correct = int(pred_src.sum()) + int((~pred_oth).sum())
        return correct / (src_test.shape[0] + oth_test.shape[0])

    return probe(pos, "positive-target"), probe(neg, "negative-target")


# --------------------------------------------------------------------------
# Per-method evaluation summaries


@dataclass(frozen=True)
class EvalReport:
    """One method's test results across seeds."""

    method: str
    seed_accuracies: tuple[float, ...]
    seed_aucs: tuple[float | None, ...] = ()

    def __post_init__(self):
        if not self.seed_accuracies:
            raise InvalidInputError("a report needs at least one seed result")
        if any(not 0.0 <= a <= 1.0 for a in self.seed_accuracies):
            raise InvalidInputError("accuracies must be in [0, 1]")
        if self.seed_aucs and len(self.seed_aucs) != len(self.seed_accuracies):
            raise InvalidInputError("per-seed auc list must match the accuracy list")

    @property
    def accuracy(self) -> float:
        return float(np.mean(self.seed_accuracies))

    @property
    def auc(self) -> float | None:
        vals = [a for a in self.seed_aucs if a is not None]
        if not vals:
            return None
        return float(np.mean(vals))
