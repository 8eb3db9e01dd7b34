"""Linear models and analytic gradients for weighted KL-term objectives.

Two affine pieces, each called as ``model(x)`` (``_Linear.__call__``), cover every method:

* ``LinearSoftmaxModel`` - a two-class linear head, ``probs = softmax2(x W + b)``,
  used for classifiers and discriminators.
* ``LinearTransform`` - an affine map ``y = x W + b`` that projects one
  feature block into another block's space; ``align(rows, n_common)`` is the
  one builder of target rows in the source layout ``[common ; F(rows)]``.

Objectives are lists of :class:`KLTerm`. Each term is
``weight * sum_i KL(left_i, right_i)`` where a side is either a constant
probability batch or a model applied to a batch. A batch is either raw
features (``RawBatch``) or target rows ``[common | specific]`` that a model
reads as ``[common ; F(rows)]`` (``TransformedBatch(rows, n_common)``): the
first ``n_common`` columns untouched, next to the transform's output on the
whole rows. :func:`frozen_teacher` reads target batches the same way for
soft labels. :func:`loss_and_grads` evaluates the sum of terms and returns
hand-derived gradients for the requested models, with the chain rule flowing
through softmax, clamping, swapping, concatenation, and the transform, and
``GradientBundle.add`` as the one gradient product. No autodiff is involved.

Gradient notes. For ``p = softmax(z)`` strictly inside the clamp interval the
Jacobian gives ``dL/dz_j = p_j * (g_j - sum_k g_k p_k)`` where ``g = dL/dp``;
rows whose raw softmax output left the clamp interval are locally constant,
so their gradient is zero. For a term ``KL(a, b)`` the local derivatives are
``dKL/da = log(a/b) + 1`` and ``dKL/db = -a/b`` (the constant offset is
annihilated by the softmax Jacobian).

The cell axis. A model holds one cell's parameters, weights ``(in, out)`` and
bias ``(out,)``, or a stack of K cells' (a grid stack trained in lockstep),
weights ``(K, in, out)`` and bias ``(K, out)``. A stack maps rows ``(n, in)``
that every cell shares, or its cells' own rows ``(K, n, in)``, to
``(K, n, out)``; a term weight is a number or one per cell ``(K,)``; a loss
value is a number or ``(K,)`` and the term values ``(T,)`` or ``(K, T)``;
gradients have the parameters' shapes. Every operation works slice by slice
(broadcast ``matmul``, reductions over the batch axis, elementwise pair
arithmetic), so each cell of a stack gets the bits a stack of one gets. A
non-finite logit (``numerics.require_finite``) or update raises
``NonFiniteCells`` marking only the cells that produced it, before any
parameter changes, so the caller can fail those cells and rerun the phase
for the rest.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence, Union

import numpy as np

from . import __version__
from .errors import ConfigurationError, InvalidInputError, NonFiniteCells
from .numerics import _softmax2, prob_pairs, require_finite, softmax2


def _init_params(rng: np.random.Generator, in_dim: int, out_dim: int):
    # weights uniform in [-r, r] with r = 1/sqrt(in_dim), biases zero
    r = 1.0 / np.sqrt(in_dim)
    return rng.uniform(-r, r, size=(in_dim, out_dim)), np.zeros(out_dim)


@dataclass
class GradientBundle:
    """Gradients for one model's weights and bias."""

    d_weights: np.ndarray
    d_bias: np.ndarray

    def add(self, x: np.ndarray, d_out: np.ndarray) -> None:
        """Accumulate an affine map's gradients from its inputs and dL/d outputs."""
        self.d_weights += x.swapaxes(-1, -2) @ d_out
        self.d_bias += d_out.sum(axis=-2)


class _Linear:
    """What the two affine pieces share: the parameter check, the one affine map
    ``self(x) = x @ weights + bias`` with its width check (callers check finiteness),
    and its updates. The parameters are one cell's or a stack's (see the module
    docstring). ``outputs`` fixes the output width of a kind that has one,
    ``shapes`` says what the check wants and ``kind`` names the piece."""

    outputs = None
    shapes = "linear transform: need weights (in, out) and bias (out,)"
    kind = "transform"

    def __post_init__(self):
        self.weights = require_finite("weights", self.weights)
        self.bias = require_finite("bias", self.bias)
        w, b = self.weights, self.bias
        if (w.ndim not in (2, 3) or b.shape != w.shape[:-2] + w.shape[-1:]
                or self.outputs not in (None, w.shape[-1])):
            raise InvalidInputError(f"{self.shapes}, got {w.shape} and {b.shape}")

    @property
    def input_dim(self) -> int:
        return self.weights.shape[-2]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        if x.shape[-1] != self.input_dim:
            raise InvalidInputError(
                f"inputs have {x.shape[-1]} columns, {self.kind} expects {self.input_dim}"
            )
        return x @ self.weights + (self.bias if self.bias.ndim == 1 else self.bias[:, None])

    def apply_step(self, grads: GradientBundle, scale) -> None:
        """In-place parameter update ``theta += scale * grad``, where ``scale`` is a
        number or one per cell. If any cell's update is not finite, nothing changes
        and ``NonFiniteCells`` marks those cells."""
        scale = np.asarray(scale)
        weights = self.weights + scale[..., None, None] * grads.d_weights
        bias = self.bias + scale[..., None] * grads.d_bias
        if not (np.isfinite(weights).all() and np.isfinite(bias).all()):
            bad = ~(np.isfinite(weights).all(axis=(-2, -1)) & np.isfinite(bias).all(axis=-1))
            raise NonFiniteCells("parameter update produced non-finite values", bad)
        self.weights, self.bias = weights, bias

    def copy(self):
        return type(self)(self.weights.copy(), self.bias.copy())

    @classmethod
    def stack(cls, models, cells):
        """The stack whose cell ``i`` holds the parameters of ``models[cells[i]]``."""
        return cls(np.stack([m.weights for m in models])[cells],
                   np.stack([m.bias for m in models])[cells])

    def take(self, cells):
        """The given cells of a stack (an index array or a mask) as a stack, or
        with an integer, that cell's own model."""
        return type(self)(self.weights[cells].copy(), self.bias[cells].copy())


@dataclass
class LinearSoftmaxModel(_Linear):
    """Two-class linear head: ``classify(x) = softmax2(x @ weights + bias)``."""

    weights: np.ndarray  # (input_dim, 2)
    bias: np.ndarray     # (2,)
    outputs = 2
    shapes = "linear softmax model: need weights (d, 2) and bias (2,)"
    kind = "model"

    @classmethod
    def initialize(cls, input_dim: int, rng: np.random.Generator) -> "LinearSoftmaxModel":
        if input_dim < 1:
            raise InvalidInputError(f"input_dim must be >= 1, got {input_dim}")
        return cls(*_init_params(rng, input_dim, 2))

    def logits(self, x) -> np.ndarray:
        return self(require_finite("inputs", x))

    def classify(self, x) -> np.ndarray:
        """Probability pairs for a batch (n, d) -> (n, 2), or one row (d,) -> (2,); a
        stack gives (K, n, 2), and ``NonFiniteCells`` marks the cells it cannot score."""
        return softmax2(self.logits(x))


@dataclass
class LinearTransform(_Linear):
    """Affine block map: ``transform(x) = x @ weights + bias``."""

    weights: np.ndarray  # (in_dim, out_dim)
    bias: np.ndarray     # (out_dim,)

    @classmethod
    def initialize(cls, in_dim: int, out_dim: int, rng: np.random.Generator) -> "LinearTransform":
        if in_dim < 1 or out_dim < 1:
            raise InvalidInputError(f"transform dims must be >= 1, got {in_dim} -> {out_dim}")
        return cls(*_init_params(rng, in_dim, out_dim))

    def transform(self, x) -> np.ndarray:
        return self(require_finite("inputs", x))

    def align(self, rows: np.ndarray, n_common: int) -> np.ndarray:
        """Target rows in the source layout ``[common ; F(rows)]``: the first
        ``n_common`` columns pass through, next to the map of the whole rows.
        ``rows`` are finite already, so only their width is checked. A stack
        aligns shared rows ``(n, in)``, or its cells' own ``(K, n, in)``, into
        ``(K, n, n_common + out)``."""
        mapped = self(rows)
        aligned = np.empty(mapped.shape[:-1] + (n_common + mapped.shape[-1],))
        aligned[..., :n_common] = rows[..., :n_common]
        aligned[..., n_common:] = mapped
        return aligned


Model = Union[LinearSoftmaxModel, LinearTransform]


# --------------------------------------------------------------------------
# Loss terms


@dataclass(frozen=True)
class RawBatch:
    """Feature rows fed to a softmax model unchanged."""

    x: np.ndarray  # (n, d), or a stack's per-cell (K, n, d)

    def __post_init__(self):
        x = require_finite("batch", self.x)
        if x.ndim not in (2, 3) or x.shape[-2] < 1:
            raise InvalidInputError(f"batch must be non-empty and 2-D or 3-D, got shape {x.shape}")
        object.__setattr__(self, "x", x)


@dataclass(frozen=True)
class TransformedBatch:
    """Target rows ``[common | specific]`` read as ``[common ; F(rows)]``: the
    first ``n_common`` columns pass through and the transform maps whole rows."""

    rows: np.ndarray  # (n, in_dim of the transform) or (K, n, in_dim), n_common < in_dim
    n_common: int
    transform = "F"   # the slot of the transform, not a field

    def __post_init__(self):
        rows = require_finite("target batch", self.rows)
        if rows.ndim not in (2, 3) or rows.shape[-2] < 1 or rows.shape[-1] <= self.n_common:
            raise InvalidInputError(f"target batch must be non-empty and 2-D or 3-D with more than "
                                    f"{self.n_common} columns, got shape {rows.shape}")
        object.__setattr__(self, "rows", rows)


Batch = Union[RawBatch, TransformedBatch]


def _columns(probs: np.ndarray) -> tuple[tuple, tuple]:
    """``(p0, p1)`` and ``(log p0, log p1)``: the two class columns of clamped
    pairs (one pair, one cell's ``(n, 2)`` or a stack's ``(K, n, 2)``), each
    contiguous, so the loss works in pair arithmetic."""
    columns = (probs.T if probs.ndim < 3 else probs.transpose(2, 0, 1)).copy()
    return tuple(columns), tuple(np.log(columns))


@dataclass(frozen=True)
class ConstTarget:
    """A constant probability batch; no gradient flows into it."""

    probs: np.ndarray  # (2,), (n, 2) or a stack's (K, n, 2), already clamped
    columns: tuple = field(init=False, repr=False, compare=False)   # see _columns

    def __post_init__(self):
        object.__setattr__(self, "probs", prob_pairs(self.probs))
        object.__setattr__(self, "columns", _columns(self.probs))

    @classmethod
    def _of_logits(cls, logits) -> "ConstTarget":
        """The softmax pairs of ``logits``, with one finite check on the logits;
        the pairs are clamped by construction, so ``prob_pairs`` is skipped."""
        probs = _softmax2(require_finite("teacher logits", logits))[0]
        target = object.__new__(cls)   # skips __post_init__, which would check the pairs
        target.__dict__.update(probs=probs, columns=_columns(probs))
        return target


class FrozenTeacher:
    """Soft labels for target batches from a frozen classifier and, when there is
    one, a frozen transform (one cell's or a stack's): the classifier scores a
    batch's common columns, or its rows aligned by the transform. The affine
    steps are the loss's own, and one finite check on the logits covers the
    batch too."""

    def __init__(self, classifier: LinearSoftmaxModel, transform: LinearTransform | None,
                 n_common: int):
        self.classifier, self.transform, self.n_common = classifier, transform, n_common

    def __call__(self, batch_target: np.ndarray) -> ConstTarget:
        if self.transform is None:
            x = batch_target[..., :self.n_common]
        else:
            x = self.transform.align(batch_target, self.n_common)
        return ConstTarget._of_logits(self.classifier(x))

    def take(self, cells) -> "FrozenTeacher":
        """The teacher of the given cells of a stack."""
        transform = None if self.transform is None else self.transform.take(cells)
        return FrozenTeacher(self.classifier.take(cells), transform, self.n_common)


def frozen_teacher(models: Mapping[str, Model], n_common: int) -> FrozenTeacher:
    """The teacher of frozen copies of ``models["C"]`` and, if bound, ``models["F"]``."""
    transform = models["F"].copy() if "F" in models else None
    return FrozenTeacher(models["C"].copy(), transform, n_common)


@dataclass(frozen=True)
class ModelOutput:
    """A named softmax model applied to a batch, optionally with swapped outputs."""

    model: str
    batch: Batch
    swapped: bool = False


Side = Union[ConstTarget, ModelOutput]


@dataclass(frozen=True)
class KLTerm:
    """``weight * sum_i KL(left_i, right_i)``; the weight carries sign and 1/batch,
    and is one number or one per cell of a stack."""

    weight: float | np.ndarray
    left: Side
    right: Side
    name: str = ""


@dataclass
class LossResult:
    value: float | np.ndarray  # a number, or one per cell (K,)
    term_values: np.ndarray    # weighted contribution of each term, in order: (T,) or (K, T)
    grads: dict[str, GradientBundle] = field(default_factory=dict)


class _Forward:
    """One distinct (model, batch) forward of a call, shared by every side that
    reads it, swapped or not; ``grad`` sums dL/dprobs over those sides, per class."""

    __slots__ = ("model", "batch", "x_in", "columns", "clamped", "grad")

    def __init__(self, model, batch, x_in, probs, clamped):
        self.model, self.batch, self.x_in, self.clamped = model, batch, x_in, clamped
        self.columns = _columns(probs)
        self.grad = None


def _bound(models: Mapping[str, Model], name: str, kind: type, what: str):
    if name not in models:
        raise ConfigurationError(f"loss term references unbound model {name!r}")
    model = models[name]
    if not isinstance(model, kind):
        raise ConfigurationError(f"model {name!r} is not a {what}")
    return model


def _model_inputs(models: Mapping[str, Model], batch: Batch, aligned: dict) -> np.ndarray:
    """The rows a model reads; a transform runs once per batch in a call."""
    if isinstance(batch, RawBatch):
        return batch.x
    x_in = aligned.get(id(batch))
    if x_in is None:
        t = _bound(models, batch.transform, LinearTransform, "transform")
        x_in = aligned[id(batch)] = t.align(batch.rows, batch.n_common)
    return x_in


def _forward(models: Mapping[str, Model], side: ModelOutput, forwards: dict, aligned: dict):
    key = (side.model, id(side.batch))
    fwd = forwards.get(key)
    if fwd is None:
        model = _bound(models, side.model, LinearSoftmaxModel, "two-class head")
        x_in = _model_inputs(models, side.batch, aligned)
        # a non-finite input or transform output leaves every logit of its row non-finite
        z = require_finite(f"logits of {side.model!r}", model(x_in))
        fwd = _Forward(side.model, side.batch, x_in, *_softmax2(z))
        forwards[key] = fwd
    return fwd


def _side_columns(models, side: Side, forwards: dict, aligned: dict):
    """Effective ((p0, p1), (log p0, log p1), forward or None for constants) of one side."""
    if isinstance(side, ConstTarget):
        return (*side.columns, None)
    fwd = _forward(models, side, forwards, aligned)
    probs, logs = fwd.columns
    if side.swapped:
        return probs[::-1], logs[::-1], fwd
    return probs, logs, fwd


def _needs_grad(fwd: _Forward, wrt: frozenset[str]) -> bool:
    batch = fwd.batch
    return fwd.model in wrt or (isinstance(batch, TransformedBatch) and batch.transform in wrt)


def _add_grad(fwd: _Forward, side: ModelOutput, g0: np.ndarray, g1: np.ndarray) -> None:
    if side.swapped:
        g0, g1 = g1, g0
    fwd.grad = (g0, g1) if fwd.grad is None else (fwd.grad[0] + g0, fwd.grad[1] + g1)


def loss_and_grads(
    models: Mapping[str, Model],
    terms: Sequence[KLTerm],
    wrt: Sequence[str] = (),
) -> LossResult:
    """Evaluate a weighted KL-term objective with analytic gradients.

    Parameters
    ----------
    models : mapping of name to model; every name referenced by a term must
        be bound here. Either every model is one cell's or every model is a
        stack of the same K cells (see the module docstring).
    terms : the objective, as emitted by the ``objectives`` module.
    wrt : names whose gradients are wanted. Gradients chain through a
        transform whenever its name appears here, even if it only occurs
        inside another model's input batch.

    Returns
    -------
    LossResult with the total value, each term's weighted contribution, and
    one GradientBundle per requested name. Each distinct (model, batch)
    forward and transform output runs once per call, keyed by batch
    identity; each forward sums the probability gradients of the sides that
    read it, then runs one softmax Jacobian and one backward product. Term
    values and the Jacobian work on the two class columns in pair arithmetic;
    ``dz`` goes back to ``(n, 2)`` rows (``(K, n, 2)`` for a stack) only for
    the products and batch sums. A non-finite logit raises ``NonFiniteCells``.
    """
    wrt_set = frozenset(wrt)
    for name in wrt_set:
        if name not in models:
            raise ConfigurationError(f"gradient requested for unbound model {name!r}")
    grads = {name: GradientBundle(np.zeros_like(models[name].weights),
                                  np.zeros_like(models[name].bias)) for name in wrt_set}
    forwards: dict = {}
    aligned: dict = {}
    total = 0.0
    values = []
    for term in terms:
        (a0, a1), (log_a0, log_a1), fwd_a = _side_columns(models, term.left, forwards, aligned)
        (b0, b1), (log_b0, log_b1), fwd_b = _side_columns(models, term.right, forwards, aligned)
        ratio0, ratio1 = log_a0 - log_b0, log_a1 - log_b1
        value = term.weight * (a0 * ratio0 + a1 * ratio1).sum(axis=-1)
        values.append(value)
        total = total + value
        grad_a = fwd_a is not None and _needs_grad(fwd_a, wrt_set)
        grad_b = fwd_b is not None and _needs_grad(fwd_b, wrt_set)
        if grad_a or grad_b:
            w = np.asarray(term.weight)[..., None]   # broadcasts over a cell's rows
        if grad_a:
            _add_grad(fwd_a, term.left, w * (ratio0 + 1.0), w * (ratio1 + 1.0))
        if grad_b:
            _add_grad(fwd_b, term.right, w * (-(a0 / b0)), w * (-(a1 / b1)))

    d_aligned: dict = {}   # id(batch) -> (batch, dL/d transform output)
    for fwd in forwards.values():
        if fwd.grad is None:
            continue
        (p0, p1), _ = fwd.columns
        g0, g1 = fwd.grad
        s = g0 * p0 + g1 * p1
        dz = np.empty(s.shape + (2,))
        dz[..., 0] = p0 * (g0 - s)
        dz[..., 1] = p1 * (g1 - s)
        if fwd.clamped.any():
            dz[fwd.clamped] = 0.0
        if fwd.model in wrt_set:
            grads[fwd.model].add(fwd.x_in, dz)
        batch = fwd.batch
        if isinstance(batch, TransformedBatch) and batch.transform in wrt_set:
            d_out = dz @ models[fwd.model].weights[..., batch.n_common:, :].swapaxes(-1, -2)
            prev = d_aligned.get(id(batch))
            d_aligned[id(batch)] = (batch, d_out if prev is None else prev[1] + d_out)
    for batch, d_out in d_aligned.values():
        grads[batch.transform].add(batch.rows, d_out)
    return LossResult(value=total, term_values=np.array(values).T, grads=grads)


# --------------------------------------------------------------------------
# Checkpoints

# A slot's name fixes its kind: a transform with two output columns has a head's shape.
_SLOT_KINDS = {
    "C": LinearSoftmaxModel, "D": LinearSoftmaxModel, "Df": LinearSoftmaxModel,
    "F": LinearTransform, "psi_s": LinearTransform, "psi_t": LinearTransform,
}


def save_checkpoint(path, method: str, models: Mapping[str, Model]) -> None:
    """Write one run's models as JSON; float reprs round-trip every parameter exactly."""
    doc = {
        "version": __version__,
        "method": method,
        "models": {name: {"weights": model.weights.tolist(), "bias": model.bias.tolist()}
                   for name, model in models.items()},
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def load_checkpoint(path) -> tuple[str, dict[str, Model]]:
    """The method name and the models, by slot name, of a :func:`save_checkpoint` file."""
    try:
        text = Path(path).read_bytes()
    except OSError as exc:
        raise InvalidInputError(f"{path}: cannot read: {exc.strerror or exc}") from None
    try:
        doc = json.loads(text)
        method, slots = doc["method"], doc["models"]
        params = {name: (np.array(p["weights"], dtype=np.float64),
                         np.array(p["bias"], dtype=np.float64)) for name, p in slots.items()}
    except (ValueError, KeyError, TypeError, AttributeError):
        raise InvalidInputError(f"{path}: not a model checkpoint") from None
    unknown = sorted(set(params) - set(_SLOT_KINDS))
    if unknown:
        raise InvalidInputError(f"{path}: unknown model slot {unknown[0]!r}")
    try:
        return method, {name: _SLOT_KINDS[name](*p) for name, p in params.items()}
    except InvalidInputError as exc:
        raise InvalidInputError(f"{path}: {exc}") from None
