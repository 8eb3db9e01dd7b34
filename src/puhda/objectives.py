"""Objective assembly for every training method.

All adversarial objectives are built as lists of :class:`~puhda.models.KLTerm`
over mini-batches and share one value convention: the term list spells out the
quantity V that the discriminator maximizes and the classifier (and
transformer, when present) minimizes. Trainers pick the sign per player.

The adversarial PU objective over positives ``x_p`` and unlabeled ``x_u``,
with ``KL`` the divergence between two-class probability pairs and ``swap``
exchanging a pair's components:

    V = -mean KL(P1, D(x_p)) - mean KL(P0, D(x_u))
        + lam * (mean KL(D(x_u), C(x_u)) - mean KL(D(x_u), swap(C(x_u))))

The heterogeneous variant (:func:`pada_terms`) replaces ``x_p`` with source
rows and ``x_u`` with aligned target rows ``[t_common ; F(x_target)]``. Given
a teacher's outputs, the same builder adds the soft-label teacher pair with
weight ``eta``:

    + eta * (mean KL(C0, C(x_hat)) - mean KL(C0, swap(C(x_hat))))

where the teacher output C0 enters as a constant, so no gradient can reach it.
Sums over a mini-batch are divided by that batch's size, which rescales the
whole-sum formulation without changing any argmin or argmax.

The reconstruction-plus-MMD loss for the naive feature-completion baseline is
a separate closed-form objective with its own analytic gradients: one fit
checks its data once as :class:`CompletionBlocks` (the two common blocks as
one pair, ``numerics.check_pair``), and :func:`dsft_loss`
evaluates the loss of two maps on them.
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
from .numerics import P0, P1, check_pair, require_finite

# The one-hot targets, validated once when the module loads.
_REAL = ConstTarget(P1)
_FAKE = ConstTarget(P0)


def _rows(batch) -> int:
    return (batch.x if isinstance(batch, RawBatch) else batch.rows).shape[-2]


def _real_fake(model: str, real, fake, names: tuple[str, str]) -> list[KLTerm]:
    """A discriminator's pair: ``real`` rows scored toward P1, ``fake`` rows toward P0."""
    return [
        KLTerm(-1.0 / _rows(real), _REAL, ModelOutput(model, real), name=names[0]),
        KLTerm(-1.0 / _rows(fake), _FAKE, ModelOutput(model, fake), name=names[1]),
    ]


def _classifier_pair(batch, lam: float) -> list[KLTerm]:
    n = _rows(batch)
    d = ModelOutput("D", batch)
    return [
        KLTerm(lam / n, d, ModelOutput("C", batch), name="kl_dc"),
        KLTerm(-lam / n, d, ModelOutput("C", batch, swapped=True), name="kl_dc_swap"),
    ]


def _pu_terms(real, unl, lam: float) -> list[KLTerm]:
    return _real_fake("D", real, unl, ("kl_pos", "kl_unl")) + _classifier_pair(unl, lam)


def _teacher(teacher_probs, n: int) -> ConstTarget:
    """Teacher pairs as a constant side; a ``ConstTarget`` was checked when made."""
    teacher = (teacher_probs if isinstance(teacher_probs, ConstTarget)
               else ConstTarget(teacher_probs))
    p1 = teacher.columns[0][1]   # the class column, so a teacher's pairs are never stacked
    if p1.ndim < 1 or p1.shape[-1] != n:
        raise ConfigurationError(
            f"teacher probabilities must cover the batch: expected {n} rows, "
            f"got shape {teacher.probs.shape}"
        )
    return teacher


def _teacher_pair(teacher_probs, batch: TransformedBatch, eta: float) -> list[KLTerm]:
    """The frozen-teacher pair on an aligned batch; none without a teacher."""
    if teacher_probs is None:
        return []
    n_t = _rows(batch)
    teacher = _teacher(teacher_probs, n_t)
    return [
        KLTerm(eta / n_t, teacher, ModelOutput("C", batch), name="kl_soft"),
        KLTerm(-eta / n_t, teacher, ModelOutput("C", batch, swapped=True), name="kl_soft_swap"),
    ]


def pan_terms(batch_pos: np.ndarray, batch_unl: np.ndarray, lam: float) -> list[KLTerm]:
    """Adversarial PU objective on a homogeneous feature space.

    ``batch_pos`` holds labeled-positive rows, ``batch_unl`` unlabeled rows;
    both must share the column count the models expect.
    """
    return _pu_terms(RawBatch(batch_pos), RawBatch(batch_unl), lam)


def classifier_terms(batch_unl: np.ndarray, lam: float) -> list[KLTerm]:
    """Only the classifier-dependent pair, on one unlabeled batch.

    This is the classifier's whole gradient surface, so a classifier update
    phase can evaluate just these two terms on its own fresh batch.
    """
    return _classifier_pair(RawBatch(batch_unl), lam)


def aligned_classifier_terms(
    batch_target: np.ndarray,
    n_common: int,
    lam: float,
    *,
    teacher_probs: np.ndarray | ConstTarget | None = None,
    eta: float = 0.0,
) -> list[KLTerm]:
    """Only the classifier-dependent pair, on one aligned target batch.

    With ``teacher_probs`` the frozen-teacher pair (weight ``eta``) follows on
    the same batch, which is the soft-label classifier's whole surface.
    """
    tgt = TransformedBatch(batch_target, n_common)
    return _classifier_pair(tgt, lam) + _teacher_pair(teacher_probs, tgt, eta)


def pada_terms(
    batch_source: np.ndarray,
    batch_target: np.ndarray,
    n_common: int,
    lam: float,
    *,
    teacher_probs: np.ndarray | ConstTarget | None = None,
    eta: float = 0.0,
) -> list[KLTerm]:
    """Heterogeneous objective: source rows vs aligned target rows.

    Target rows are laid out ``[common | target-specific]``; the first
    ``n_common`` columns pass through and the transform F fills the
    source-specific slots, so D and C operate in the source feature space.

    With ``teacher_probs`` (a teacher's outputs on the target batch, as pairs
    or a ``ConstTarget``) the frozen-teacher pair, weight ``eta``, follows the
    four PU terms: the soft-label objective. The teacher enters as a constant,
    which keeps it frozen; ``eta = 0`` gives the plain value and gradients.
    """
    bs = RawBatch(batch_source)
    tgt = TransformedBatch(batch_target, n_common)
    return _pu_terms(bs, tgt, lam) + _teacher_pair(teacher_probs, tgt, eta)


def domain_adv_terms(
    batch_source: np.ndarray,
    batch_target: np.ndarray,
    n_common: int,
) -> list[KLTerm]:
    """Plain domain-adversarial pairing on the aligned space.

    The feature discriminator Df maximizes this value (separating source rows
    from aligned target rows); the transform minimizes it, pulling the whole
    target distribution toward the source regardless of class.
    """
    bs = RawBatch(batch_source)
    tgt = TransformedBatch(batch_target, n_common)
    return _real_fake("Df", bs, tgt, ("kl_adv_src", "kl_adv_tgt"))


def distillation_terms(teacher_probs: np.ndarray | ConstTarget,
                       batch_target: np.ndarray) -> list[KLTerm]:
    """Match a frozen teacher's soft labels on full target rows."""
    bt = RawBatch(batch_target)
    n = _rows(bt)
    return [KLTerm(1.0 / n, _teacher(teacher_probs, n), ModelOutput("C", bt), name="kl_distill")]


def supervised_terms(batch_pos: np.ndarray, batch_neg: np.ndarray) -> list[KLTerm]:
    """Two-class cross entropy, written as the value the model D maximizes."""
    return _real_fake("D", RawBatch(batch_pos), RawBatch(batch_neg), ("ce_pos", "ce_neg"))


# --------------------------------------------------------------------------
# Feature-completion baseline objective


class CompletionBlocks:
    """The data of one completion fit: the four blocks, checked once, and the
    block means the alignment part reads, taken once."""

    def __init__(self, source_common, source_specific, target_common, target_specific,
                 gamma_mmd: float):
        self.s_c, self.t_c = check_pair("source common", source_common,
                                        "target common", target_common)
        self.s_s = require_finite("source specific", source_specific)
        self.t_t = require_finite("target specific", target_specific)
        if gamma_mmd < 0:
            raise InvalidInputError("gamma_mmd must be >= 0")
        if self.s_c.shape[0] != self.s_s.shape[0] or self.t_c.shape[0] != self.t_t.shape[0]:
            raise InvalidInputError("row counts differ between common and specific blocks")
        self.gamma_mmd = gamma_mmd
        self.mean_s_c, self.mean_t_c = self.s_c.mean(axis=0), self.t_c.mean(axis=0)
        self.mean_s_s, self.mean_t_t = self.s_s.mean(axis=0), self.t_t.mean(axis=0)
        delta_c = self.mean_s_c - self.mean_t_c
        self.mmd_c = delta_c @ delta_c


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


def dsft_loss(blocks: CompletionBlocks, psi_s: LinearTransform,
              psi_t: LinearTransform) -> DsftLoss:
    """Reconstruction-plus-alignment loss for the two completion maps.

    psi_s predicts source-specific columns from common ones, psi_t predicts
    target-specific columns from common ones. The loss is

        ||psi_t(T_c) - T_t||^2 / n_t + ||psi_s(S_c) - S_s||^2 / n_s
        + gamma_mmd * ||mean(X_s_hat) - mean(X_t_hat)||^2

    with the augmented matrices laid out ``[common | source-spec | target-spec]``
    where each domain's missing block is filled by the corresponding map.
    The linear-kernel MMD needs only block means, and an affine map commutes
    with the mean, so the augmented matrices are never built. Gradients for
    both maps are returned in closed form.
    """
    b = blocks
    resid_s = psi_s(b.s_c) - b.s_s   # source-specific reconstruction
    resid_t = psi_t(b.t_c) - b.t_t   # target-specific reconstruction
    rec_source = float(np.sum(resid_s * resid_s)) / b.s_c.shape[0]
    rec_target = float(np.sum(resid_t * resid_t)) / b.t_c.shape[0]
    # source-specific slots, filled by psi_s on target rows; target-specific, by psi_t
    delta_s = b.mean_s_s - psi_s(b.mean_t_c)
    delta_t = psi_t(b.mean_s_c) - b.mean_t_t
    mmd_val = float(b.mmd_c + delta_s @ delta_s + delta_t @ delta_t)
    return DsftLoss(
        value=rec_source + rec_target + b.gamma_mmd * mmd_val,
        rec_source=rec_source,
        rec_target=rec_target,
        mmd=mmd_val,
        _parts=(b, resid_s, resid_t, delta_s, delta_t),
    )


def _dsft_grads(b: CompletionBlocks, resid_s, resid_t, delta_s, delta_t):
    n_s = b.s_c.shape[0]
    n_t = b.t_c.shape[0]
    g_psi_s_w = (2.0 / n_s) * (b.s_c.T @ resid_s)
    g_psi_s_b = (2.0 / n_s) * resid_s.sum(axis=0)
    g_psi_t_w = (2.0 / n_t) * (b.t_c.T @ resid_t)
    g_psi_t_b = (2.0 / n_t) * resid_t.sum(axis=0)
    if b.gamma_mmd > 0:
        g_psi_t_w += b.gamma_mmd * np.outer(b.mean_s_c, 2.0 * delta_t)
        g_psi_t_b += b.gamma_mmd * 2.0 * delta_t
        g_psi_s_w += b.gamma_mmd * np.outer(b.mean_t_c, -2.0 * delta_s)
        g_psi_s_b += b.gamma_mmd * -2.0 * delta_s
    return {
        "psi_s": GradientBundle(g_psi_s_w, g_psi_s_b),
        "psi_t": GradientBundle(g_psi_t_w, g_psi_t_b),
    }
