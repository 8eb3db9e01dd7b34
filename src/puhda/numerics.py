"""Numeric primitives: stable two-class softmax, KL divergence on probability
pairs, and seeded random generators.

A probability pair is a float64 array whose last axis has length 2 and holds
(p0, p1), the negative/fake and positive/real class probabilities. Every
public operation clamps probabilities into [EPS, 1 - EPS] and renormalizes,
so downstream KL terms stay finite for any finite logits. Batched inputs are
arrays of shape (n, 2), or a stack's (K, n, 2); single pairs are shape (2,).
Every input is checked finite by one function, ``require_finite``: its
``NonFiniteCells`` error marks the cells of a stack that hold NaN or infinity,
so a stacked run can fail those cells alone.

Reproducibility: all randomness flows through numpy Generators created by
`make_rng` / `derive_rng`, and reductions use numpy's deterministic summation
(a fixed reduction order for fixed shapes), so identical seeds give
bit-identical results on the same platform.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import InvalidInputError, NonFiniteCells

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


def clamp_probs(probs) -> np.ndarray:
    """Clamp probabilities to [EPS, 1 - EPS] and renormalize along the last axis."""
    p = require_finite("probs", probs)
    if p.shape[-1] != 2:
        raise InvalidInputError(f"probs: last axis must have length 2, got shape {p.shape}")
    return _clamp(p)


def _clamp(p: np.ndarray) -> np.ndarray:
    q = np.minimum(np.maximum(p, EPS), 1.0 - EPS)   # np.clip, without its call overhead
    return q / (q[..., :1] + q[..., 1:])   # the pair sum, without a reduction's overhead


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
    return _softmax2(z)[0]


def _softmax2(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The one softmax-and-clamp: clamped pairs for finite logits, plus the mask
    of rows whose raw output left the clamp interval (locally constant rows).
    Max and sum over the two class columns are plain pair arithmetic."""
    e = np.exp(z - np.maximum(z[..., :1], z[..., 1:]))
    p = e / (e[..., :1] + e[..., 1:])
    return _clamp(p), (p[..., 1] <= EPS) | (p[..., 1] >= 1.0 - EPS)


def kl2(p, q) -> np.ndarray:
    """KL divergence between two-class probability pairs, elementwise over batches.

    Both arguments must already be valid (clamped) pairs; broadcasting between
    a single pair and a batch is allowed. Returns a scalar for two single
    pairs, else an array of per-row divergences.
    """
    a = prob_pairs(p)
    b = prob_pairs(q)
    out = np.sum(a * (np.log(a) - np.log(b)), axis=-1)
    return out


def swap_probs(p) -> np.ndarray:
    """Swap the two components, turning confidence in one class into the other."""
    a = prob_pairs(p)
    return np.ascontiguousarray(a[..., ::-1])


def _one_hot(positive: bool) -> np.ndarray:
    raw = np.array([0.0, 1.0]) if positive else np.array([1.0, 0.0])
    out = clamp_probs(raw)
    out.setflags(write=False)
    return out


# One-hot targets, stored clamped so they are valid KL arguments.
P1 = _one_hot(True)   # real / positive
P0 = _one_hot(False)  # fake / negative


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
