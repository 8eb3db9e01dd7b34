"""Numeric primitives: stable two-class softmax, probability-pair clamping and
validation, the finite check, the range rule of every config number, and
seeded random generators.

A probability pair is a float64 array whose last axis has length 2 and holds
(p0, p1), the negative/fake and positive/real class probabilities. Every
public operation that makes pairs clamps them into [EPS, 1 - EPS] and
renormalizes, so the KL terms of ``models`` stay finite for any finite
logits. Batched inputs are arrays of shape (n, 2), or a stack's (K, n, 2);
single pairs are shape (2,). The loss reads class columns, not pairs, from
``_softmax_columns``; ``softmax2`` stacks the same columns into pairs.
Every input is checked finite by one function, ``require_finite``: its
``NonFiniteCells`` error marks the cells of a stack that hold NaN or infinity,
so a stacked run can fail those cells alone. Two matrices that must share
their columns are checked as a pair by one function, ``check_pair``.

Config numbers: each number field of a config section or of ``TrainConfig``
is annotated with a kind from ``NUMBER_KINDS`` (``int``, ``float`` or a
ranged kind), and ``check_number`` is the one rule for every kind. The loader
runs it under the field's config path, ``check_fields`` (from each
``__post_init__``) under the field's name: ``where: must be >= 1, got 0``.

Reproducibility: all randomness flows through numpy Generators created by
`make_rng` / `derive_rng`, and reductions use numpy's deterministic summation
(a fixed reduction order for fixed shapes), so identical seeds give
bit-identical results on the same platform.
"""

from __future__ import annotations

import hashlib
import math
import sys
from functools import cache
from typing import NewType, get_args, get_origin, get_type_hints

import numpy as np

from .errors import ConfigurationError, InvalidInputError, NonFiniteCells

# Probabilities are clamped into [EPS, 1 - EPS] before any log is taken.
EPS = 1e-7


def require_finite(name: str, values) -> np.ndarray:
    """``values`` as a float64 array, or ``NonFiniteCells`` if it holds NaN or
    infinity. An array of more than two axes is a stack of cells, cell axis
    first, and the error marks the cells that hold them; anything smaller is
    one cell, marked by a 0-d mask."""
    arr = np.asarray(values, dtype=np.float64)
    if not np.isfinite(arr).all():
        bad = ~np.isfinite(arr).all(axis=tuple(range(1 if arr.ndim > 2 else 0, arr.ndim)))
        raise NonFiniteCells(f"{name}: values must be finite", bad)
    return arr


def check_pair(name_a: str, x_a, name_b: str, x_b) -> tuple[np.ndarray, np.ndarray]:
    """Two non-empty finite 2-D matrices with the same column count."""
    x_a, x_b = require_finite(name_a, x_a), require_finite(name_b, x_b)
    for name, x in ((name_a, x_a), (name_b, x_b)):
        if x.ndim != 2 or x.shape[0] == 0:
            raise InvalidInputError(f"{name} must be a non-empty 2-D matrix, got shape {x.shape}")
    if x_a.shape[1] != x_b.shape[1]:
        raise InvalidInputError(
            f"column mismatch: {name_a} have {x_a.shape[1]} columns, {name_b} {x_b.shape[1]}"
        )
    return x_a, x_b


def _clamp(p0: np.ndarray, p1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The one clamp, in place on class columns the caller owns: into [EPS, 1 - EPS]
    and renormalized."""
    for p in (p0, p1):
        np.minimum(np.maximum(p, EPS, out=p), 1.0 - EPS, out=p)   # np.clip, without its overhead
    total = p0 + p1
    return np.divide(p0, total, out=p0), np.divide(p1, total, out=p1)


def prob_pairs(values) -> np.ndarray:
    """Validate probability pairs: clamped range and components summing to 1."""
    p = require_finite("prob pair", values)
    if p.shape[-1] != 2:
        raise InvalidInputError(f"prob pair: last axis must have length 2, got shape {p.shape}")
    if np.any(p < EPS - 1e-12) or np.any(p > 1.0 - EPS + 1e-12):
        raise InvalidInputError("prob pair: components must lie in [EPS, 1 - EPS]")
    if np.any(np.abs(p.sum(axis=-1) - 1.0) > 1e-9):
        raise InvalidInputError("prob pair: components must sum to 1 within 1e-9")
    return p


def softmax2(logits) -> np.ndarray:
    """Two-class softmax with max-subtraction, clamped to valid pairs.

    Accepts shape (2,), (n, 2) or a stack's (K, n, 2) finite logits; magnitudes up to +-1e4 are
    safe because the larger logit is subtracted before exponentiation.
    """
    z = require_finite("logits", logits)
    if z.shape[-1] != 2:
        raise InvalidInputError(f"logits: last axis must have length 2, got shape {z.shape}")
    probs, _, _ = _softmax_columns(z.reshape(-1, 2), logs=False, clamped=False)
    return np.stack(probs, axis=-1).reshape(z.shape)


def _softmax_columns(z: np.ndarray, logs: bool = True, clamped: bool = True) -> tuple:
    """The one softmax-and-clamp, elementwise on the class columns of finite
    logits ``(..., n, 2)``, in place on its own temporaries: the clamped
    ``(p0, p1)``, their logs, and the mask of rows whose raw output left the
    clamp interval (locally constant rows). The logs and the mask are None
    when not asked for."""
    z0, z1 = z[..., 0], z[..., 1]
    top = np.maximum(z0, z1)
    p0, p1 = z0 - top, np.subtract(z1, top, out=top)
    total = np.exp(p0, out=p0) + np.exp(p1, out=p1)
    np.divide(p0, total, out=p0)
    np.divide(p1, total, out=p1)
    mask = (p1 <= EPS) | (p1 >= 1.0 - EPS) if clamped else None
    p0, p1 = _clamp(p0, p1)
    return (p0, p1), (np.log(p0), np.log(p1)) if logs else None, mask   # logs of the clamped columns


def _one_hot(positive: bool) -> np.ndarray:
    p0, p1 = (0.0, 1.0) if positive else (1.0, 0.0)
    out = np.concatenate(_clamp(np.array([p0]), np.array([p1])))
    out.setflags(write=False)
    return out


# One-hot targets, stored clamped so they are valid KL arguments.
P1 = _one_hot(True)   # real / positive
P0 = _one_hot(False)  # fake / negative


PositiveInt = NewType("PositiveInt", int)              # integer >= 1
NonNegativeInt = NewType("NonNegativeInt", int)        # integer >= 0
PositiveFloat = NewType("PositiveFloat", float)        # number > 0
NonNegativeFloat = NewType("NonNegativeFloat", float)  # number >= 0
OpenUnitFloat = NewType("OpenUnitFloat", float)        # number in (0, 1)
UnitFloat = NewType("UnitFloat", float)                # number in [0, 1]

# Every number kind: its base type, its range test and how the range reads.
NUMBER_KINDS = {
    int: (int, None, ""), float: (float, None, ""),
    PositiveInt: (int, lambda v: v >= 1, ">= 1"),
    NonNegativeInt: (int, lambda v: v >= 0, ">= 0"),
    PositiveFloat: (float, lambda v: v > 0, "> 0"),
    NonNegativeFloat: (float, lambda v: v >= 0, ">= 0"),
    OpenUnitFloat: (float, lambda v: 0 < v < 1, "in (0, 1)"),
    UnitFloat: (float, lambda v: 0 <= v <= 1, "in [0, 1]"),
}


def check_number(kind, value, where: str):
    """``value`` if it is a number of ``kind``, a float kind's as a float; else a
    ``ConfigurationError`` naming ``where``."""
    base, in_range, text = NUMBER_KINDS[kind]
    if base is int:
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ConfigurationError(f"{where}: expected an integer, got {value!r}")
    elif isinstance(value, bool) or not isinstance(value, (int, float, np.number)):
        raise ConfigurationError(f"{where}: expected a number, got {value!r}")
    elif (isinstance(value, int) and abs(value) > sys.float_info.max  # past every float
          or not math.isfinite(value)):
        raise ConfigurationError(f"{where}: expected a finite number, got {value!r}")
    if in_range is not None and not in_range(value):
        raise ConfigurationError(f"{where}: must be {text}, got {value!r}")
    return value if base is int else float(value)


@cache
def _number_fields(cls) -> tuple:
    """``(field, kind, whether a tuple of it)`` for each number field of a
    dataclass, its annotations resolved once per class."""
    table = []
    for name, hint in get_type_hints(cls).items():
        many = get_origin(hint) is tuple
        if (kind := get_args(hint)[0] if many else hint) in NUMBER_KINDS:
            table.append((name, kind, many))
    return tuple(table)


def check_fields(obj) -> None:
    """``check_number`` on every number field of a dataclass instance, under the
    field's name; a tuple field item by item."""
    for name, kind, many in _number_fields(type(obj)):
        value = getattr(obj, name)
        for item in value if many else (value,):
            check_number(kind, item, name)


def make_rng(seed: int) -> np.random.Generator:
    """Seeded generator; identical seeds yield identical streams."""
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise InvalidInputError(f"seed: must be a non-negative integer, got {seed!r}")
    return np.random.default_rng(int(seed))


def _tag_to_int(tag) -> int:
    if isinstance(tag, (int, np.integer)):
        if tag < 0:
            raise InvalidInputError(f"rng tag: integers must be non-negative, got {tag}")
        return int(tag)
    digest = hashlib.sha256(str(tag).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def derive_seed(seed: int, *tags) -> int:
    """Stable child seed from a base seed and string/int tags."""
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise InvalidInputError(f"seed: must be a non-negative integer, got {seed!r}")
    entropy = [int(seed)] + [_tag_to_int(t) for t in tags]
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


def derive_rng(seed: int, *tags) -> np.random.Generator:
    """Generator seeded from a stable derivation of (seed, tags)."""
    return np.random.default_rng(derive_seed(seed, *tags))
