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
whole rows. :func:`frozen_teacher` reads target rows the same way for soft
labels, once for every row a run draws from. :func:`loss_and_grads`
evaluates the sum of terms and returns hand-derived gradients for the
requested models, with the chain rule flowing through softmax, clamping,
swapping, concatenation, and the transform, and ``GradientBundle.add`` as
the one gradient product. No autodiff is involved.

Planned evaluation. A ``LossPlan`` holds a term list and resolves, once per
kind of call, which forwards, alignments, logs and gradients the call needs.
A trainer builds each phase's terms once and, every step, binds the drawn
rows into its batches (``bind``, which checks them as the constructors do)
and a teacher's labels into its constant side (``FrozenTeacher.gather``).
An untraced call (``values=False``) computes only what its gradients read:
no term values, no forward or alignment that only such values read, logs
only where a gradient reads the log ratio, and clamp masks only where a
gradient flows. Each piece it skips adds nothing to a gradient, so the
gradients keep their bits.

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

import copy
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence, Union

import numpy as np

from . import __version__
from .errors import ConfigurationError, InvalidInputError, NonFiniteCells
from .numerics import _softmax_columns, prob_pairs, require_finite, softmax2


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
    docstring); no array is written in place (an update rebinds them), so
    ``copy.copy(model)`` is a snapshot. ``outputs`` fixes the output width of a
    kind that has one, ``shapes`` says what the check wants and ``kind`` names
    the piece."""

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


class RawBatch:
    """Feature rows fed to a softmax model unchanged. ``bind`` checks new rows
    and holds them, so the terms built on a batch serve every step."""

    def __init__(self, x):
        self.bind(x)

    def bind(self, x) -> None:
        x = require_finite("batch", x)
        if x.ndim not in (2, 3) or x.shape[-2] < 1:
            raise InvalidInputError(f"batch must be non-empty and 2-D or 3-D, got shape {x.shape}")
        self.x = x   # (n, d), or a stack's per-cell (K, n, d)

    @property
    def rows(self) -> np.ndarray:
        return self.x


class TransformedBatch:
    """Target rows ``[common | specific]`` read as ``[common ; F(rows)]``: the
    first ``n_common`` columns pass through and the transform maps whole rows.
    ``bind`` checks new rows and holds them, as ``RawBatch.bind`` does."""

    transform = "F"   # the slot of the transform

    def __init__(self, rows, n_common: int):
        self.n_common = n_common
        self.bind(rows)

    def bind(self, rows) -> None:
        rows = require_finite("target batch", rows)
        if rows.ndim not in (2, 3) or rows.shape[-2] < 1 or rows.shape[-1] <= self.n_common:
            raise InvalidInputError(f"target batch must be non-empty and 2-D or 3-D with more than "
                                    f"{self.n_common} columns, got shape {rows.shape}")
        self.rows = rows   # (n, in_dim of the transform) or (K, n, in_dim), n_common < in_dim


Batch = Union[RawBatch, TransformedBatch]


class ConstTarget:
    """A constant probability batch; no gradient flows into it. ``columns`` are
    the class columns ``(p0, p1)`` of its clamped pairs and their logs
    ``(log p0, log p1)``, which the loss reads; ``probs`` stacks the pairs,
    ``(2,)``, ``(n, 2)`` or a stack's ``(K, n, 2)``."""

    def __init__(self, probs):
        p = prob_pairs(probs)
        self.columns = (p[..., 0], p[..., 1]), (np.log(p[..., 0]), np.log(p[..., 1]))

    @property
    def probs(self) -> np.ndarray:
        return np.stack(self.columns[0], axis=-1)


# Rows a teacher labels at a time: as many as a large batch, so that building
# its table takes no more memory than a training step does.
_TABLE_ROWS = 1024


class FrozenTeacher:
    """Soft labels for target rows from a frozen classifier and, when there is
    one, a frozen transform (one cell's or a stack's): the classifier scores
    the rows' common columns, or the rows aligned by the transform, with the
    loss's own affine steps and softmax.

    ``teacher(batch)`` labels one batch, with one finite check on its logits.
    Given ``rows`` (every target row a run draws from), the teacher labels
    them all once into ``table``, the class columns and their logs stacked
    ``(4, n)``, or ``(4, K, n)`` for a stack, ``_TABLE_ROWS`` rows at a time,
    and :meth:`gather` reads a batch's labels from it at the batch's row
    positions. These are the labels of the batch forward as long as a matmul
    gives each row the same bits whatever other rows it holds, which the
    tests check. A row whose logits are not finite fails a cell only when the
    cell's batch draws it, with the batch forward's error.
    """

    def __init__(self, classifier: LinearSoftmaxModel, transform: LinearTransform | None,
                 n_common: int, rows: np.ndarray | None = None):
        self.classifier, self.transform, self.n_common = classifier, transform, n_common
        self.table = self.bad_rows = None
        if rows is not None:
            self.table = np.empty((4,) + classifier.weights.shape[:-2] + (len(rows),))
            finite = np.empty(self.table.shape[1:], dtype=bool)
            for start in range(0, len(rows), _TABLE_ROWS):
                part = slice(start, start + _TABLE_ROWS)
                z = self._logits(rows[part])
                finite[..., part] = ok = np.isfinite(z).all(axis=-1)
                probs, logs, _ = _softmax_columns(np.where(ok[..., None], z, 0.0), clamped=False)
                self.table[:, ..., part] = probs + logs
            if not finite.all():
                self.bad_rows = ~finite

    def _logits(self, rows: np.ndarray) -> np.ndarray:
        if self.transform is None:
            return self.classifier(rows[..., :self.n_common])
        return self.classifier(self.transform.align(rows, self.n_common))

    def __call__(self, batch_target: np.ndarray) -> ConstTarget:
        target = object.__new__(ConstTarget)   # skips __init__: the columns are clamped already
        probs, logs, _ = _softmax_columns(
            require_finite("teacher logits", self._logits(batch_target)), clamped=False)
        target.columns = probs, logs
        return target

    def gather(self, index: np.ndarray, into: ConstTarget | None = None) -> ConstTarget:
        """The labels of the rows at ``index``, positions ``(b,)`` that every
        cell shares or each cell's own ``(K, b)``, as a constant side, written
        into ``into`` when given. A cell whose logits are not finite on one of
        those rows raises ``NonFiniteCells``."""
        table, bad = self.table, self.bad_rows
        if index.ndim > 1:   # each cell's own rows: positions in the flattened cell axis
            index = index + np.arange(index.shape[0])[:, None] * table.shape[-1]
            table = table.reshape(4, -1)
            bad = None if bad is None else bad.reshape(-1)
        if bad is not None:
            cells = bad.take(index, axis=-1).any(axis=-1)
            if cells.any():
                raise NonFiniteCells("teacher logits: values must be finite", cells)
        g = table.take(index, axis=-1)
        target = object.__new__(ConstTarget) if into is None else into
        target.columns = (g[0], g[1]), (g[2], g[3])
        return target

    def take(self, cells) -> "FrozenTeacher":
        """The teacher of the given cells of a stack, its table included."""
        transform = None if self.transform is None else self.transform.take(cells)
        taken = FrozenTeacher(self.classifier.take(cells), transform, self.n_common)
        if self.table is not None:
            taken.table = self.table[:, cells]
            taken.bad_rows = None if self.bad_rows is None else self.bad_rows[cells]
        return taken


def frozen_teacher(models: Mapping[str, Model], n_common: int,
                   rows: np.ndarray | None = None) -> FrozenTeacher:
    """The teacher of frozen copies of ``models["C"]`` and, if bound,
    ``models["F"]``, with its table over ``rows`` when given."""
    transform = copy.copy(models["F"]) if "F" in models else None
    return FrozenTeacher(copy.copy(models["C"]), transform, n_common, rows)


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
    value: float | np.ndarray | None   # a number, or one per cell (K,); None untraced
    term_values: np.ndarray | None     # each term's weighted value, in order: (T,) or (K, T)
    grads: dict[str, GradientBundle] = field(default_factory=dict)


class LossPlan:
    """A term list whose structure is resolved once for each (wanted
    gradients, values or not) it is evaluated with, so a caller that rebinds
    its batches (``bind``) and constants (``FrozenTeacher.gather``) between
    evaluations pays for its structure once. Iterating it gives the terms."""

    def __init__(self, terms: Sequence[KLTerm]):
        self.terms = tuple(terms)
        self._schedules: dict = {}

    def __iter__(self):
        return iter(self.terms)

    def schedule(self, wrt: tuple, values: bool) -> "_Schedule":
        key = (wrt, values)
        schedule = self._schedules.get(key)
        if schedule is None:
            schedule = self._schedules[key] = _Schedule(self.terms, frozenset(wrt), values)
        return schedule


class _Schedule:
    """What one kind of evaluation computes, in order.

    ``forwards`` lists each distinct (model, batch) forward that some kept
    term reads, in the order of first reference over all terms, as ``(slot,
    model, batch, logits label, logs wanted, gradient wanted)``. A term is
    kept when its value is wanted or a gradient flows through one of its
    sides; ``terms`` lists them as ``(term, left, right, grad left, grad
    right, weight column)`` with each side ``(constant or None, forward slot,
    swapped)``. A forward's logs are taken when a kept term's value or
    left-side gradient reads the log ratio, and its clamp mask when a
    gradient flows through it.
    """

    def __init__(self, terms, wrt: frozenset, values: bool):
        self.wrt = wrt
        slots: dict = {}   # (model, id(batch)) -> forward slot
        specs = []         # (model, batch) per slot

        def side(s):
            if isinstance(s, ConstTarget):
                return s, None, False
            key = (s.model, id(s.batch))
            if key not in slots:
                slots[key] = len(specs)
                specs.append((s.model, s.batch))
            return None, slots[key], s.swapped

        sides = [(side(term.left), side(term.right)) for term in terms]
        grad = [model in wrt or (isinstance(batch, TransformedBatch) and batch.transform in wrt)
                for model, batch in specs]
        read, logs = [False] * len(specs), [False] * len(specs)
        self.terms = []
        for term, (a, b) in zip(terms, sides):
            grad_a, grad_b = a[1] is not None and grad[a[1]], b[1] is not None and grad[b[1]]
            if not (values or grad_a or grad_b):
                continue
            for slot in (a[1], b[1]):
                if slot is not None:
                    read[slot] = True
                    logs[slot] = logs[slot] or values or grad_a
            weight = np.asarray(term.weight)[..., None] if grad_a or grad_b else None
            self.terms.append((term, a, b, grad_a, grad_b, weight))   # weight broadcasts over rows
        self.forwards = [(slot, model, batch, f"logits of {model!r}", logs[slot], grad[slot])
                         for slot, (model, batch) in enumerate(specs) if read[slot]]
        self.slots = len(specs)


class _Forward:
    """One forward of a call: its input rows, class columns, logs (or None) and
    clamp mask (or None), and ``grad``, dL/dprobs per class summed over the
    sides that read it."""

    __slots__ = ("x_in", "probs", "logs", "clamped", "grad")

    def __init__(self, x_in, probs, logs, clamped):
        self.x_in, self.probs, self.logs, self.clamped = x_in, probs, logs, clamped
        self.grad = None

    def columns(self, swapped: bool):
        if swapped:
            return self.probs[::-1], None if self.logs is None else self.logs[::-1]
        return self.probs, self.logs

    def add_grad(self, swapped: bool, g0: np.ndarray, g1: np.ndarray) -> None:
        if swapped:
            g0, g1 = g1, g0
        self.grad = (g0, g1) if self.grad is None else (self.grad[0] + g0, self.grad[1] + g1)


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


def _side_columns(side, forwards: list):
    const, slot, swapped = side
    return const.columns if const is not None else forwards[slot].columns(swapped)


def loss_and_grads(
    models: Mapping[str, Model],
    terms: Sequence[KLTerm] | LossPlan,
    wrt: Sequence[str] = (),
    values: bool = True,
) -> LossResult:
    """Evaluate a weighted KL-term objective with analytic gradients.

    Parameters
    ----------
    models : mapping of name to model; every name referenced by a term must
        be bound here. Either every model is one cell's or every model is a
        stack of the same K cells (see the module docstring).
    terms : the objective, as emitted by the ``objectives`` module, or a
        ``LossPlan`` of it, whose structure is resolved once.
    wrt : names whose gradients are wanted. Gradients chain through a
        transform whenever its name appears here, even if it only occurs
        inside another model's input batch.
    values : whether the value and term values are wanted (a traced step).

    Returns
    -------
    LossResult with the total value, each term's weighted contribution, and
    one GradientBundle per requested name. Each distinct (model, batch)
    forward and transform output runs once per call, keyed by batch
    identity; each forward sums the probability gradients of the sides that
    read it, then runs one softmax Jacobian and one backward product. Term
    values and the Jacobian work on the class columns the softmax gives (no
    pairs are built); ``dz`` becomes ``(n, 2)`` rows (``(K, n, 2)`` for a
    stack) only for the products and batch sums. A non-finite logit raises
    ``NonFiniteCells``.

    Without ``values`` (an untraced step) the value and term values are
    None and only what the gradients read is computed: a term no gradient
    flows through, and a forward or alignment only such terms read, are
    skipped (their logits are not checked either), logs are taken only where
    a gradient reads the log ratio, and clamp masks only where a gradient
    flows. The gradients keep their bits: each skipped piece added nothing.
    """
    plan = terms if isinstance(terms, LossPlan) else LossPlan(terms)
    schedule = plan.schedule(tuple(wrt), values)
    for name in schedule.wrt:
        if name not in models:
            raise ConfigurationError(f"gradient requested for unbound model {name!r}")
    grads = {name: GradientBundle(np.zeros_like(models[name].weights),
                                  np.zeros_like(models[name].bias)) for name in schedule.wrt}
    forwards: list = [None] * schedule.slots
    aligned: dict = {}
    for slot, name, batch, label, logs, grad in schedule.forwards:
        model = _bound(models, name, LinearSoftmaxModel, "two-class head")
        x_in = _model_inputs(models, batch, aligned)
        # a non-finite input or transform output leaves every logit of its row non-finite
        z = require_finite(label, model(x_in))
        forwards[slot] = _Forward(x_in, *_softmax_columns(z, logs, grad))
    total = 0.0
    term_values = []
    for term, a, b, grad_a, grad_b, w in schedule.terms:
        (a0, a1), log_a = _side_columns(a, forwards)
        (b0, b1), log_b = _side_columns(b, forwards)
        if values or grad_a:
            ratio0, ratio1 = log_a[0] - log_b[0], log_a[1] - log_b[1]
        if values:
            value = term.weight * (a0 * ratio0 + a1 * ratio1).sum(axis=-1)
            term_values.append(value)
            total = total + value
        if grad_a:
            forwards[a[1]].add_grad(a[2], w * (ratio0 + 1.0), w * (ratio1 + 1.0))
        if grad_b:
            forwards[b[1]].add_grad(b[2], w * (-(a0 / b0)), w * (-(a1 / b1)))

    d_aligned: dict = {}   # id(batch) -> (batch, dL/d transform output)
    for slot, name, batch, _, _, grad in schedule.forwards:
        fwd = forwards[slot]
        if not grad or fwd.grad is None:
            continue
        p0, p1 = fwd.probs
        g0, g1 = fwd.grad
        s = g0 * p0 + g1 * p1
        dz = np.empty(s.shape + (2,))
        dz[..., 0] = p0 * (g0 - s)
        dz[..., 1] = p1 * (g1 - s)
        if fwd.clamped.any():
            dz[fwd.clamped] = 0.0
        if name in schedule.wrt:
            grads[name].add(fwd.x_in, dz)
        if isinstance(batch, TransformedBatch) and batch.transform in schedule.wrt:
            d_out = dz @ models[name].weights[..., batch.n_common:, :].swapaxes(-1, -2)
            prev = d_aligned.get(id(batch))
            d_aligned[id(batch)] = (batch, d_out if prev is None else prev[1] + d_out)
    for batch, d_out in d_aligned.values():
        grads[batch.transform].add(batch.rows, d_out)
    if not values:
        return LossResult(value=None, term_values=None, grads=grads)
    return LossResult(value=total, term_values=np.array(term_values).T, grads=grads)


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
    for name, (weights, _) in params.items():
        if weights.ndim != 2:   # a stack's (K, in, out) is many models, not one
            raise InvalidInputError(f"{path}: slot {name!r}: weights must be one model's "
                                    f"2-D matrix, got shape {weights.shape}")
    try:
        return method, {name: _SLOT_KINDS[name](*p) for name, p in params.items()}
    except InvalidInputError as exc:
        raise InvalidInputError(f"{path}: {exc}") from None
