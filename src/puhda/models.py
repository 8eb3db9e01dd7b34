"""Linear models and analytic gradients for weighted KL-term objectives.

Two parametric pieces cover every method in the package:

* ``LinearSoftmaxModel`` - a two-class linear head, ``probs = softmax2(x W + b)``,
  used for classifiers and discriminators.
* ``LinearTransform`` - an affine map ``y = x W + b`` that projects one
  feature block into another block's space.

Objectives are lists of :class:`KLTerm`. Each term is
``weight * sum_i kl2(left_i, right_i)`` where a side is either a constant
probability batch or a model applied to a batch. A batch is either raw
features or the concatenation ``[common ; T(raw)]`` of untouched common
columns with a transform's output. :func:`loss_and_grads` evaluates the sum
of terms and returns hand-derived gradients for the requested models, with
the chain rule flowing through softmax, clamping, swapping, concatenation,
and the transform. No autodiff is involved anywhere.

Gradient notes. For ``p = softmax(z)`` strictly inside the clamp interval the
Jacobian gives ``dL/dz_j = p_j * (g_j - sum_k g_k p_k)`` where ``g = dL/dp``;
rows whose raw softmax output left the clamp interval are locally constant,
so their gradient is zero. For a term ``kl2(a, b)`` the local derivatives are
``dKL/da = log(a/b) + 1`` and ``dKL/db = -a/b`` (the constant offset is
annihilated by the softmax Jacobian).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Mapping, Sequence, Union

import numpy as np

from . import __version__
from .errors import ConfigurationError, InvalidInputError
from .numerics import _softmax2, prob_pairs, require_finite, softmax2

CHECKPOINT_FORMAT = 1


def _init_weights(rng: np.random.Generator, in_dim: int, out_dim: int) -> np.ndarray:
    # uniform in [-r, r] with r = 1/sqrt(in_dim); biases start at zero
    r = 1.0 / np.sqrt(in_dim)
    return rng.uniform(-r, r, size=(in_dim, out_dim))


@dataclass
class GradientBundle:
    """Gradients for one model's weights and bias."""

    d_weights: np.ndarray
    d_bias: np.ndarray


class _Linear:
    """What the two affine pieces share: ``x @ weights + bias`` and its updates."""

    @property
    def input_dim(self) -> int:
        return self.weights.shape[0]

    def _affine(self, x, what: str) -> np.ndarray:
        x = require_finite("inputs", x)
        if x.shape[-1] != self.input_dim:
            raise InvalidInputError(
                f"inputs have {x.shape[-1]} columns, {what} expects {self.input_dim}"
            )
        return x @ self.weights + self.bias

    def apply_step(self, grads: GradientBundle, scale: float) -> None:
        """In-place parameter update ``theta += scale * grad``; rejects non-finite results."""
        self.weights = self.weights + scale * grads.d_weights
        self.bias = self.bias + scale * grads.d_bias
        if not (np.isfinite(self.weights).all() and np.isfinite(self.bias).all()):
            raise InvalidInputError("parameter update produced non-finite values")

    def copy(self):
        return type(self)(self.weights.copy(), self.bias.copy())


@dataclass
class LinearSoftmaxModel(_Linear):
    """Two-class linear head: ``classify(x) = softmax2(x @ weights + bias)``."""

    weights: np.ndarray  # (input_dim, 2)
    bias: np.ndarray     # (2,)

    def __post_init__(self):
        self.weights = require_finite("weights", self.weights)
        self.bias = require_finite("bias", self.bias)
        if self.weights.ndim != 2 or self.weights.shape[1] != 2 or self.bias.shape != (2,):
            raise InvalidInputError(
                f"linear softmax model: need weights (d, 2) and bias (2,), "
                f"got {self.weights.shape} and {self.bias.shape}"
            )

    @classmethod
    def initialize(cls, input_dim: int, rng: np.random.Generator) -> "LinearSoftmaxModel":
        if input_dim < 1:
            raise InvalidInputError(f"input_dim must be >= 1, got {input_dim}")
        return cls(weights=_init_weights(rng, input_dim, 2), bias=np.zeros(2))

    def logits(self, x) -> np.ndarray:
        return self._affine(x, "model")

    def classify(self, x) -> np.ndarray:
        """Probability pairs for a batch (n, d) -> (n, 2), or one row (d,) -> (2,)."""
        return softmax2(self.logits(x))


@dataclass
class LinearTransform(_Linear):
    """Affine block map: ``transform(x) = x @ weights + bias``."""

    weights: np.ndarray  # (in_dim, out_dim)
    bias: np.ndarray     # (out_dim,)

    def __post_init__(self):
        self.weights = require_finite("weights", self.weights)
        self.bias = require_finite("bias", self.bias)
        if self.weights.ndim != 2 or self.bias.shape != (self.weights.shape[1],):
            raise InvalidInputError(
                f"linear transform: need weights (in, out) and bias (out,), "
                f"got {self.weights.shape} and {self.bias.shape}"
            )

    @classmethod
    def initialize(cls, in_dim: int, out_dim: int, rng: np.random.Generator) -> "LinearTransform":
        if in_dim < 1 or out_dim < 1:
            raise InvalidInputError(f"transform dims must be >= 1, got {in_dim} -> {out_dim}")
        return cls(weights=_init_weights(rng, in_dim, out_dim), bias=np.zeros(out_dim))

    @property
    def output_dim(self) -> int:
        return self.weights.shape[1]

    def transform(self, x) -> np.ndarray:
        return self._affine(x, "transform")


Model = Union[LinearSoftmaxModel, LinearTransform]


# --------------------------------------------------------------------------
# Loss terms


@dataclass(frozen=True)
class RawBatch:
    """Feature rows fed to a softmax model unchanged."""

    x: np.ndarray  # (n, d)

    def __post_init__(self):
        x = require_finite("batch", self.x)
        if x.ndim != 2 or x.shape[0] < 1:
            raise InvalidInputError(f"batch must be a non-empty 2-D array, got shape {x.shape}")
        object.__setattr__(self, "x", x)


@dataclass(frozen=True)
class TransformedBatch:
    """Rows ``[common ; T(raw)]``: common columns pass through, a transform fills the rest."""

    common: np.ndarray  # (n, c)
    raw: np.ndarray     # (n, in_dim of the transform)
    transform: str = "F"

    def __post_init__(self):
        common = require_finite("common block", self.common)
        raw = require_finite("raw block", self.raw)
        if common.ndim != 2 or raw.ndim != 2 or common.shape[0] != raw.shape[0]:
            raise InvalidInputError(
                f"transformed batch blocks must be 2-D with equal rows, "
                f"got {common.shape} and {raw.shape}"
            )
        if common.shape[0] < 1:
            raise InvalidInputError("transformed batch must be non-empty")
        object.__setattr__(self, "common", common)
        object.__setattr__(self, "raw", raw)

    @classmethod
    def aligned(cls, rows, n_common: int, transform: str = "F") -> "TransformedBatch":
        """Rows ``[common | specific]`` as ``[common ; T(rows)]``; one check covers both blocks."""
        rows = require_finite("target batch", rows)
        if rows.ndim != 2 or rows.shape[0] < 1 or rows.shape[1] <= n_common:
            raise InvalidInputError(f"target batch must be non-empty and 2-D with more than "
                                    f"{n_common} columns, got shape {rows.shape}")
        batch = object.__new__(cls)   # skips __post_init__, which would check the rows again
        batch.__dict__.update(common=rows[:, :n_common], raw=rows, transform=transform)
        return batch


Batch = Union[RawBatch, TransformedBatch]


@dataclass(frozen=True)
class ConstTarget:
    """A constant probability batch; no gradient flows into it."""

    probs: np.ndarray  # (2,) or (n, 2), already clamped
    log_probs: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        probs = prob_pairs(self.probs)
        log_probs = np.log(probs)
        log_probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "log_probs", log_probs)


@dataclass(frozen=True)
class ModelOutput:
    """A named softmax model applied to a batch, optionally with swapped outputs."""

    model: str
    batch: Batch
    swapped: bool = False


Side = Union[ConstTarget, ModelOutput]


@dataclass(frozen=True)
class KLTerm:
    """``weight * sum_i kl2(left_i, right_i)``; the weight carries sign and 1/batch."""

    weight: float
    left: Side
    right: Side
    name: str = ""


@dataclass
class LossResult:
    value: float
    term_values: np.ndarray  # weighted contribution of each term, in order
    grads: dict[str, GradientBundle] = field(default_factory=dict)


class _Forward:
    """One distinct (model, batch) forward of a call, shared by every side that
    reads it, swapped or not; ``grad`` sums dL/dprobs over those sides."""

    __slots__ = ("model", "batch", "x_in", "probs", "log_probs", "clamped", "grad")

    def __init__(self, model, batch, x_in, probs, clamped):
        self.model, self.batch, self.x_in = model, batch, x_in
        self.probs, self.log_probs, self.clamped = probs, np.log(probs), clamped
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
        if batch.raw.shape[1] != t.input_dim:
            raise InvalidInputError(f"raw block has {batch.raw.shape[1]} columns, "
                                    f"transform {batch.transform!r} expects {t.input_dim}")
        x_in = np.concatenate([batch.common, batch.raw @ t.weights + t.bias], axis=1)
        aligned[id(batch)] = x_in
    return x_in


def _forward(models: Mapping[str, Model], side: ModelOutput, forwards: dict, aligned: dict):
    key = (side.model, id(side.batch))
    fwd = forwards.get(key)
    if fwd is None:
        model = _bound(models, side.model, LinearSoftmaxModel, "two-class head")
        x_in = _model_inputs(models, side.batch, aligned)
        if x_in.shape[1] != model.input_dim:
            raise InvalidInputError(f"inputs have {x_in.shape[1]} columns, "
                                    f"model {side.model!r} expects {model.input_dim}")
        # a non-finite input or transform output leaves every logit of its row non-finite
        z = require_finite(f"logits of {side.model!r}", x_in @ model.weights + model.bias)
        fwd = _Forward(side.model, side.batch, x_in, *_softmax2(z))
        forwards[key] = fwd
    return fwd


def _side_probs(models, side: Side, forwards: dict, aligned: dict):
    """Effective (probs, log probs, forward or None for constants) of one side."""
    if isinstance(side, ConstTarget):
        return side.probs, side.log_probs, None
    fwd = _forward(models, side, forwards, aligned)
    if side.swapped:
        return fwd.probs[:, ::-1], fwd.log_probs[:, ::-1], fwd
    return fwd.probs, fwd.log_probs, fwd


def _needs_grad(fwd: _Forward, wrt: frozenset[str]) -> bool:
    batch = fwd.batch
    return fwd.model in wrt or (isinstance(batch, TransformedBatch) and batch.transform in wrt)


def _add_grad(fwd: _Forward, side: ModelOutput, g: np.ndarray) -> None:
    if side.swapped:
        g = g[:, ::-1]
    fwd.grad = g if fwd.grad is None else fwd.grad + g


def loss_and_grads(
    models: Mapping[str, Model],
    terms: Sequence[KLTerm],
    wrt: Sequence[str] = (),
) -> LossResult:
    """Evaluate a weighted KL-term objective with analytic gradients.

    Parameters
    ----------
    models : mapping of name to model; every name referenced by a term must
        be bound here.
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
    read it, then runs one softmax Jacobian and one backward product.
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
    term_values = np.zeros(len(terms))
    for idx, term in enumerate(terms):
        a, log_a, fwd_a = _side_probs(models, term.left, forwards, aligned)
        b, log_b, fwd_b = _side_probs(models, term.right, forwards, aligned)
        log_ratio = log_a - log_b
        value = term.weight * float((a * log_ratio).sum(axis=-1).sum())
        term_values[idx] = value
        total += value
        if fwd_a is not None and _needs_grad(fwd_a, wrt_set):
            _add_grad(fwd_a, term.left, term.weight * (log_ratio + 1.0))
        if fwd_b is not None and _needs_grad(fwd_b, wrt_set):
            _add_grad(fwd_b, term.right, term.weight * (-(a / b)))

    d_aligned: dict = {}   # id(batch) -> (batch, dL/d transform output)
    for fwd in forwards.values():
        if fwd.grad is None:
            continue
        p, g = fwd.probs, fwd.grad
        dz = p * (g - (g * p).sum(axis=-1, keepdims=True))
        if fwd.clamped.any():
            dz = np.where(fwd.clamped[:, None], 0.0, dz)
        if fwd.model in wrt_set:
            bundle = grads[fwd.model]
            bundle.d_weights += fwd.x_in.T @ dz
            bundle.d_bias += dz.sum(axis=0)
        batch = fwd.batch
        if isinstance(batch, TransformedBatch) and batch.transform in wrt_set:
            d_out = dz @ models[fwd.model].weights[batch.common.shape[1]:].T
            prev = d_aligned.get(id(batch))
            d_aligned[id(batch)] = (batch, d_out if prev is None else prev[1] + d_out)
    for batch, d_out in d_aligned.values():
        bundle = grads[batch.transform]
        bundle.d_weights += batch.raw.T @ d_out
        bundle.d_bias += d_out.sum(axis=0)
    return LossResult(value=total, term_values=term_values, grads=grads)


# --------------------------------------------------------------------------
# Checkpoints

_MODEL_KINDS = {"LinearSoftmaxModel": LinearSoftmaxModel, "LinearTransform": LinearTransform}


def save_checkpoint(path, models: Mapping[str, Model], meta: Mapping | None = None) -> None:
    """Write models to a versioned ``.npz``; parameters round-trip bit-exactly."""
    arrays = {}
    kinds = {}
    for name, model in models.items():
        kinds[name] = type(model).__name__
        arrays[f"{name}.weights"] = model.weights
        arrays[f"{name}.bias"] = model.bias
    header = {
        "format": CHECKPOINT_FORMAT,
        "version": __version__,
        "kinds": kinds,
        "meta": dict(meta or {}),
    }
    arrays["__header__"] = np.frombuffer(
        json.dumps(header, sort_keys=True).encode("utf-8"), dtype=np.uint8
    )
    np.savez(path, **arrays)


def load_checkpoint(path) -> tuple[dict[str, Model], dict]:
    """Load a checkpoint written by :func:`save_checkpoint`."""
    with np.load(path) as data:
        try:
            header = json.loads(bytes(data["__header__"]).decode("utf-8"))
        except KeyError:
            raise InvalidInputError(f"{path}: not a model checkpoint") from None
        if header.get("format") != CHECKPOINT_FORMAT:
            raise InvalidInputError(
                f"{path}: unsupported checkpoint format {header.get('format')!r}"
            )
        models: dict[str, Model] = {}
        for name, kind in header["kinds"].items():
            cls = _MODEL_KINDS[kind]
            models[name] = cls(
                weights=data[f"{name}.weights"].copy(), bias=data[f"{name}.bias"].copy()
            )
    return models, header["meta"]
