"""Objective assembly for every training method.

All adversarial objectives are built as lists of :class:`~puhda.models.KLTerm`
over mini-batches and share one value convention: the term list spells out the
quantity V that the discriminator maximizes and the classifier (and
transformer, when present) minimizes. Trainers pick the sign per player.

The adversarial PU objective over positives ``x_p`` and unlabeled ``x_u``:

    V = -mean kl2(P1, D(x_p)) - mean kl2(P0, D(x_u))
        + lam * (mean kl2(D(x_u), C(x_u)) - mean kl2(D(x_u), swap(C(x_u))))

The heterogeneous variant replaces ``x_p`` with source rows and ``x_u`` with
aligned target rows ``[t_common ; F(x_target)]``. The soft-label variant adds
a teacher pair with weight ``eta``:

    + eta * (mean kl2(C0, C(x_hat)) - mean kl2(C0, swap(C(x_hat))))

where the teacher output C0 enters as a constant, so no gradient can reach it.
Sums over a mini-batch are divided by that batch's size, which rescales the
whole-sum formulation without changing any argmin or argmax.

The reconstruction-plus-MMD loss for the naive feature-completion baseline is
a separate closed-form objective, `dsft_loss`, with its own analytic
gradients.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, InvalidInputError
from .models import (
    ConstTarget,
    GradientBundle,
    KLTerm,
    LinearTransform,
    ModelOutput,
    RawBatch,
    TransformedBatch,
)
from .numerics import P0, P1, require_finite

METHODS = ("PAN", "PADA", "PADA_S", "PADA_F", "DSFT", "DIST", "COM_P")


@dataclass(frozen=True)
class ObjectiveSpec:
    """Which objective to assemble, with its method-specific weights."""

    method: str
    lam: float = 0.0
    eta: float | None = None
    gamma_mmd: float | None = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigurationError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if self.lam < 0:
            raise ConfigurationError("lam must be >= 0")
        if self.eta is not None and self.method != "PADA_S":
            raise ConfigurationError("eta applies only to PADA_S")
        if self.gamma_mmd is not None and self.method != "DSFT":
            raise ConfigurationError("gamma_mmd applies only to DSFT")


# The one-hot targets, validated once when the module loads.
_REAL = ConstTarget(P1)
_FAKE = ConstTarget(P0)


def _classifier_pair(batch, lam: float, n: int, classifier: str, discriminator: str):
    d = ModelOutput(discriminator, batch)
    return [
        KLTerm(lam / n, d, ModelOutput(classifier, batch), name="kl_dc"),
        KLTerm(-lam / n, d, ModelOutput(classifier, batch, swapped=True), name="kl_dc_swap"),
    ]


def _teacher(teacher_probs, n: int) -> ConstTarget:
    teacher = ConstTarget(teacher_probs)
    if teacher.probs.ndim != 2 or teacher.probs.shape[0] != n:
        raise ConfigurationError(
            f"teacher probabilities must cover the batch: expected {n} rows, "
            f"got shape {teacher.probs.shape}"
        )
    return teacher


def _teacher_pair(teacher_probs, batch: TransformedBatch, eta: float, classifier: str):
    n_t = batch.raw.shape[0]
    teacher = _teacher(teacher_probs, n_t)
    return [
        KLTerm(eta / n_t, teacher, ModelOutput(classifier, batch), name="kl_soft"),
        KLTerm(-eta / n_t, teacher, ModelOutput(classifier, batch, swapped=True),
               name="kl_soft_swap"),
    ]


def pan_terms(
    batch_pos: np.ndarray,
    batch_unl: np.ndarray,
    lam: float,
    classifier: str = "C",
    discriminator: str = "D",
) -> list[KLTerm]:
    """Adversarial PU objective on a homogeneous feature space.

    ``batch_pos`` holds labeled-positive rows, ``batch_unl`` unlabeled rows;
    both must share the column count the models expect.
    """
    bp = RawBatch(batch_pos)
    bu = RawBatch(batch_unl)
    n_u = bu.x.shape[0]
    return [
        KLTerm(-1.0 / bp.x.shape[0], _REAL, ModelOutput(discriminator, bp), name="kl_pos"),
        KLTerm(-1.0 / n_u, _FAKE, ModelOutput(discriminator, bu), name="kl_unl"),
        *_classifier_pair(bu, lam, n_u, classifier, discriminator),
    ]


def classifier_terms(
    batch_unl: np.ndarray,
    lam: float,
    classifier: str = "C",
    discriminator: str = "D",
) -> list[KLTerm]:
    """Only the classifier-dependent pair, on one unlabeled batch.

    This is the classifier's whole gradient surface, so a classifier update
    phase can evaluate just these two terms on its own fresh batch.
    """
    bu = RawBatch(batch_unl)
    return _classifier_pair(bu, lam, bu.x.shape[0], classifier, discriminator)


def aligned_classifier_terms(
    batch_target: np.ndarray,
    n_common: int,
    lam: float,
    classifier: str = "C",
    discriminator: str = "D",
    *,
    teacher_probs: np.ndarray | None = None,
    eta: float = 0.0,
) -> list[KLTerm]:
    """Only the classifier-dependent pair, on one aligned target batch.

    With ``teacher_probs`` the frozen-teacher pair (weight ``eta``) follows on
    the same batch, which is the soft-label classifier's whole surface.
    """
    tgt = TransformedBatch.aligned(batch_target, n_common, "F")
    terms = _classifier_pair(tgt, lam, tgt.raw.shape[0], classifier, discriminator)
    if teacher_probs is not None:
        terms.extend(_teacher_pair(teacher_probs, tgt, eta, classifier))
    return terms


def _pada_terms(bs: RawBatch, tgt: TransformedBatch, lam: float) -> list[KLTerm]:
    n_t = tgt.raw.shape[0]
    return [
        KLTerm(-1.0 / bs.x.shape[0], _REAL, ModelOutput("D", bs), name="kl_pos"),
        KLTerm(-1.0 / n_t, _FAKE, ModelOutput("D", tgt), name="kl_unl"),
        *_classifier_pair(tgt, lam, n_t, "C", "D"),
    ]


def pada_terms(
    batch_source: np.ndarray,
    batch_target: np.ndarray,
    n_common: int,
    lam: float,
) -> list[KLTerm]:
    """Heterogeneous objective: source rows vs aligned target rows.

    Target rows are laid out ``[common | target-specific]``; the first
    ``n_common`` columns pass through and the transform F fills the
    source-specific slots, so D and C operate in the source feature space.
    """
    bs = RawBatch(batch_source)
    return _pada_terms(bs, TransformedBatch.aligned(batch_target, n_common, "F"), lam)


def pada_s_terms(
    batch_source: np.ndarray,
    batch_target: np.ndarray,
    n_common: int,
    lam: float,
    eta: float,
    teacher_probs: np.ndarray,
) -> list[KLTerm]:
    """Soft-label objective: the heterogeneous terms plus a frozen-teacher pair.

    ``teacher_probs`` are the base classifier's outputs on the target batch.
    They enter as constants, which is what keeps the teacher frozen; with
    ``eta = 0`` the result is bit-identical in value and gradients to
    :func:`pada_terms`.
    """
    bs = RawBatch(batch_source)
    tgt = TransformedBatch.aligned(batch_target, n_common, "F")
    return _pada_terms(bs, tgt, lam) + _teacher_pair(teacher_probs, tgt, eta, "C")


def domain_adv_terms(
    batch_source: np.ndarray,
    batch_target: np.ndarray,
    n_common: int,
    discriminator: str = "Df",
) -> list[KLTerm]:
    """Plain domain-adversarial pairing on the aligned space.

    The feature discriminator maximizes this value (separating source rows
    from aligned target rows); the transform minimizes it, pulling the whole
    target distribution toward the source regardless of class.
    """
    bs = RawBatch(batch_source)
    tgt = TransformedBatch.aligned(batch_target, n_common, "F")
    return [
        KLTerm(-1.0 / bs.x.shape[0], _REAL, ModelOutput(discriminator, bs), name="kl_adv_src"),
        KLTerm(-1.0 / tgt.raw.shape[0], _FAKE, ModelOutput(discriminator, tgt),
               name="kl_adv_tgt"),
    ]


def distillation_terms(
    teacher_probs: np.ndarray, batch_target: np.ndarray, classifier: str = "C"
) -> list[KLTerm]:
    """Match a frozen teacher's soft labels on full target rows."""
    bt = RawBatch(batch_target)
    n = bt.x.shape[0]
    return [KLTerm(1.0 / n, _teacher(teacher_probs, n), ModelOutput(classifier, bt),
                   name="kl_distill")]


def supervised_terms(
    batch_pos: np.ndarray, batch_neg: np.ndarray, discriminator: str = "D"
) -> list[KLTerm]:
    """Two-class cross entropy, written as the value the model maximizes."""
    bp = RawBatch(batch_pos)
    bn = RawBatch(batch_neg)
    return [
        KLTerm(-1.0 / bp.x.shape[0], _REAL, ModelOutput(discriminator, bp), name="ce_pos"),
        KLTerm(-1.0 / bn.x.shape[0], _FAKE, ModelOutput(discriminator, bn), name="ce_neg"),
    ]


# --------------------------------------------------------------------------
# Feature-completion baseline objective


def mmd2(a: np.ndarray, b: np.ndarray) -> float:
    """Squared linear-kernel maximum mean discrepancy: ||mean(A) - mean(B)||^2."""
    a = require_finite("a", a)
    b = require_finite("b", b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[0] == 0 or b.shape[0] == 0:
        raise InvalidInputError("mmd2 needs two non-empty 2-D matrices")
    if a.shape[1] != b.shape[1]:
        raise InvalidInputError(
            f"mmd2 column mismatch: {a.shape[1]} vs {b.shape[1]}"
        )
    delta = a.mean(axis=0) - b.mean(axis=0)
    return float(delta @ delta)


@dataclass
class DsftLoss:
    """One evaluation of :func:`dsft_loss`. ``grads`` is derived on first
    access, so a line search pays for gradients only on the step it accepts."""

    value: float
    rec_source: float
    rec_target: float
    mmd: float
    _parts: tuple = field(repr=False, compare=False)
    _grads: dict | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def grads(self) -> dict[str, GradientBundle]:
        if self._grads is None:
            self._grads = _dsft_grads(*self._parts)
        return self._grads


def dsft_loss(
    source_common: np.ndarray,
    source_specific: np.ndarray,
    target_common: np.ndarray,
    target_specific: np.ndarray,
    psi_s: LinearTransform,
    psi_t: LinearTransform,
    gamma_mmd: float,
) -> DsftLoss:
    """Reconstruction-plus-alignment loss for the two completion maps.

    psi_s predicts source-specific columns from common ones, psi_t predicts
    target-specific columns from common ones. The loss is

        ||psi_t(T_c) - T_t||^2 / n_t + ||psi_s(S_c) - S_s||^2 / n_s
        + gamma_mmd * mmd2(X_s_hat, X_t_hat)

    with the augmented matrices laid out ``[common | source-spec | target-spec]``
    where each domain's missing block is filled by the corresponding map.
    The linear-kernel MMD needs only block means, and an affine map commutes
    with the mean, so the augmented matrices are never built. Gradients for
    both maps are returned in closed form.
    """
    s_c = require_finite("source common", source_common)
    s_s = require_finite("source specific", source_specific)
    t_c = require_finite("target common", target_common)
    t_t = require_finite("target specific", target_specific)
    if gamma_mmd < 0:
        raise InvalidInputError("gamma_mmd must be >= 0")
    if s_c.shape[0] != s_s.shape[0] or t_c.shape[0] != t_t.shape[0]:
        raise InvalidInputError("row counts differ between common and specific blocks")
    if s_c.shape[0] == 0 or t_c.shape[0] == 0:
        raise InvalidInputError("dsft_loss needs non-empty domains")
    if not psi_s.input_dim == psi_t.input_dim == s_c.shape[1] == t_c.shape[1]:
        raise InvalidInputError("common blocks and completion maps disagree on the common width")

    resid_s = s_c @ psi_s.weights + psi_s.bias - s_s   # source-specific reconstruction
    resid_t = t_c @ psi_t.weights + psi_t.bias - t_t   # target-specific reconstruction
    rec_source = float(np.sum(resid_s * resid_s)) / s_c.shape[0]
    rec_target = float(np.sum(resid_t * resid_t)) / t_c.shape[0]

    mean_s_c = s_c.mean(axis=0)
    mean_t_c = t_c.mean(axis=0)
    delta_c = mean_s_c - mean_t_c
    # source-specific slots, filled by psi_s on target rows; target-specific, by psi_t on source
    delta_s = s_s.mean(axis=0) - (mean_t_c @ psi_s.weights + psi_s.bias)
    delta_t = (mean_s_c @ psi_t.weights + psi_t.bias) - t_t.mean(axis=0)
    mmd_val = float(delta_c @ delta_c + delta_s @ delta_s + delta_t @ delta_t)

    return DsftLoss(
        value=rec_source + rec_target + gamma_mmd * mmd_val,
        rec_source=rec_source,
        rec_target=rec_target,
        mmd=mmd_val,
        _parts=(s_c, t_c, resid_s, resid_t, mean_s_c, mean_t_c, delta_s, delta_t, gamma_mmd),
    )


def _dsft_grads(s_c, t_c, resid_s, resid_t, mean_s_c, mean_t_c, delta_s, delta_t, gamma_mmd):
    n_s = s_c.shape[0]
    n_t = t_c.shape[0]
    g_psi_s_w = (2.0 / n_s) * (s_c.T @ resid_s)
    g_psi_s_b = (2.0 / n_s) * resid_s.sum(axis=0)
    g_psi_t_w = (2.0 / n_t) * (t_c.T @ resid_t)
    g_psi_t_b = (2.0 / n_t) * resid_t.sum(axis=0)
    if gamma_mmd > 0:
        g_psi_t_w += gamma_mmd * np.outer(mean_s_c, 2.0 * delta_t)
        g_psi_t_b += gamma_mmd * 2.0 * delta_t
        g_psi_s_w += gamma_mmd * np.outer(mean_t_c, -2.0 * delta_s)
        g_psi_s_b += gamma_mmd * -2.0 * delta_s
    return {
        "psi_s": GradientBundle(g_psi_s_w, g_psi_s_b),
        "psi_t": GradientBundle(g_psi_t_w, g_psi_t_b),
    }
