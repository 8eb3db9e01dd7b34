"""Objective assembly for every training method.

All adversarial objectives are built as lists of :class:`~puhda.models.KLTerm`
over batches (``models.RawBatch`` or ``models.TransformedBatch``, checked
when the caller makes them) and share one value convention: the term list
spells out the quantity V that the discriminator maximizes and the
classifier (and transformer, when present) minimizes. Trainers pick the sign
per player.

The adversarial PU objective (:func:`pu_terms`) over positives ``real`` and
unlabeled rows ``unl``, with ``KL`` the divergence between two-class
probability pairs and ``swap`` exchanging a pair's components:

    V = -mean KL(P1, D(real)) - mean KL(P0, D(unl))
        + lam * (mean KL(D(unl), C(unl)) - mean KL(D(unl), swap(C(unl))))

It is written once. PU-HDA is the same objective with source rows as
``real`` and aligned target rows ``[t_common ; F(x_target)]`` as ``unl``: the
batch, raw or aligned, says how the rows are read. Given a teacher's
outputs on ``unl``, the soft-label teacher pair with weight ``eta`` follows:

    + eta * (mean KL(C0, C(unl)) - mean KL(C0, swap(C(unl))))

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
from .models import Batch, ConstTarget, GradientBundle, KLTerm, LinearTransform, ModelOutput
from .numerics import P0, P1, check_pair, require_finite

# The one-hot targets, validated once when the module loads.
_REAL = ConstTarget(P1)
_FAKE = ConstTarget(P0)

# A teacher's outputs on a batch: pairs, a ``ConstTarget``, or no teacher.
Teacher = np.ndarray | ConstTarget | None


def _rows(batch) -> int:
    return batch.rows.shape[-2]


def _real_fake(model: str, real: Batch, fake: Batch, names: tuple[str, str]) -> list[KLTerm]:
    """A discriminator's pair: ``real`` rows scored toward P1, ``fake`` rows toward P0."""
    return [
        KLTerm(-1.0 / _rows(real), _REAL, ModelOutput(model, real), name=names[0]),
        KLTerm(-1.0 / _rows(fake), _FAKE, ModelOutput(model, fake), name=names[1]),
    ]


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


def _against_c(weight, left, batch: Batch, name: str) -> list[KLTerm]:
    return [KLTerm(weight, left, ModelOutput("C", batch), name=name),
            KLTerm(-weight, left, ModelOutput("C", batch, swapped=True), name=name + "_swap")]


def classifier_terms(batch: Batch, lam: float, *, teacher_probs: Teacher = None,
                     eta: float = 0.0) -> list[KLTerm]:
    """The classifier-dependent pair ``kl_dc`` (D, weight ``lam``) on one unlabeled batch, raw
    or aligned, then the frozen-teacher pair ``kl_soft`` (weight ``eta``) when ``teacher_probs``
    are given, each one :func:`_against_c`. This is the classifier's whole gradient surface,
    so a classifier update phase can evaluate just these terms on its own fresh batch."""
    n = _rows(batch)
    terms = _against_c(lam / n, ModelOutput("D", batch), batch, "kl_dc")
    if teacher_probs is not None:
        terms += _against_c(eta / n, _teacher(teacher_probs, n), batch, "kl_soft")
    return terms


def pu_terms(real: Batch, unl: Batch, lam: float, *, teacher_probs: Teacher = None,
             eta: float = 0.0) -> list[KLTerm]:
    """The adversarial PU objective V: positive rows ``real`` against unlabeled
    rows ``unl``, then :func:`classifier_terms` on ``unl``. PU training passes
    two ``RawBatch``es; the heterogeneous methods pass source rows and a
    ``TransformedBatch`` of target rows, which D and C read in the source
    feature space. With a teacher, ``eta = 0`` gives the plain value and
    gradients."""
    return (_real_fake("D", real, unl, ("kl_pos", "kl_unl"))
            + classifier_terms(unl, lam, teacher_probs=teacher_probs, eta=eta))


def domain_adv_terms(real: Batch, fake: Batch) -> list[KLTerm]:
    """Plain domain-adversarial pairing: source rows against aligned target rows.

    The feature discriminator Df maximizes this value (separating the two);
    the transform minimizes it, pulling the whole target distribution toward
    the source regardless of class.
    """
    return _real_fake("Df", real, fake, ("kl_adv_src", "kl_adv_tgt"))


def distillation_terms(teacher_probs: np.ndarray | ConstTarget, batch: Batch) -> list[KLTerm]:
    """Match a frozen teacher's soft labels on full target rows."""
    n = _rows(batch)
    return [KLTerm(1.0 / n, _teacher(teacher_probs, n), ModelOutput("C", batch), name="kl_distill")]


def supervised_terms(pos: Batch, neg: Batch) -> list[KLTerm]:
    """Two-class cross entropy, written as the value the model D maximizes."""
    return _real_fake("D", pos, neg, ("ce_pos", "ce_neg"))


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
