"""Training loops for every method.

All loops are plain SGD with one gradient step per player per iteration and
mini-batches drawn uniformly with replacement (so inputs smaller than the
batch size still work). Randomness follows one documented sequence per run:
models initialize in a fixed order from the config seed, then each step draws
its phase batches in phase order. Nothing else consumes randomness, so a rerun
with identical inputs and config reproduces every parameter bit-for-bit.

The adversarial loops alternate per step:

* PU-only: discriminator ascends the full objective on fresh positive and
  unlabeled batches, then the classifier descends its own term pair on a
  fresh unlabeled batch.
* Heterogeneous: discriminator ascends on fresh source+target batches, the
  transform descends the full objective on fresh batches, then the classifier
  descends its term pair on a fresh target batch.
* Soft-label rounds: same loop with a frozen teacher's term pair added; the
  round-1 random sequence is identical to the plain heterogeneous loop, so
  a zero teacher weight reproduces it exactly.
* Two-discriminator ablation: the main discriminator ascends the full
  objective, a separate feature discriminator ascends the domain pairing
  terms, the transform descends only those, and the classifier is unchanged.

The feature-completion fit is deterministic full-batch descent with a
backtracking step size, so its loss trace never increases.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .data import DomainMatrix
from .errors import ConfigurationError, InvalidInputError
from .metrics import accuracy
from .models import (
    LinearSoftmaxModel,
    LinearTransform,
    loss_and_grads,
)
from .numerics import derive_seed, make_rng, require_finite
from .objectives import (
    aligned_classifier_terms,
    classifier_terms,
    distillation_terms,
    domain_adv_terms,
    dsft_loss,
    pada_s_terms,
    pada_terms,
    pan_terms,
    supervised_terms,
)

GRID_LEARNING_RATE = (1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 1e-1)
GRID_WEIGHT = (1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 1e-1, 5e-1, 1.0)


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters shared by every trainer.

    ``lam`` weights the classifier term pair, ``eta`` the frozen-teacher pair
    (soft-label rounds only), ``gamma_mmd`` the mean-alignment part of the
    completion fit. ``steps`` is the per-run step budget; soft-label training
    runs up to ``max_soft_rounds`` such budgets and stops early once
    validation accuracy fails to improve ``val_patience`` rounds in a row.
    """

    learning_rate: float
    lam: float = 0.0
    eta: float = 0.0
    steps: int = 5000
    batch_size: int = 128
    seed: int = 0
    max_soft_rounds: int = 5
    val_patience: int = 1
    gamma_mmd: float = 1.0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ConfigurationError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.lam < 0 or self.eta < 0 or self.gamma_mmd < 0:
            raise ConfigurationError("lam, eta, gamma_mmd must be >= 0")
        if self.steps < 1 or self.batch_size < 1:
            raise ConfigurationError("steps and batch_size must be >= 1")
        if self.seed < 0:
            raise ConfigurationError("seed must be >= 0")
        if self.max_soft_rounds < 1 or self.val_patience < 1:
            raise ConfigurationError("max_soft_rounds and val_patience must be >= 1")


class TrainTrace:
    """Per-step objective telemetry: one row per training step."""

    def __init__(self, columns):
        self.columns = ("step",) + tuple(columns)
        self.rows: list[tuple] = []

    def record(self, step: int, values) -> None:
        values = tuple(float(v) for v in values)
        if 1 + len(values) != len(self.columns):
            raise InvalidInputError(
                f"trace row has {len(values)} values, expected {len(self.columns) - 1}"
            )
        self.rows.append((step,) + values)

    def __len__(self) -> int:
        return len(self.rows)

    def value_column(self, name: str) -> np.ndarray:
        idx = self.columns.index(name)
        return np.array([row[idx] for row in self.rows], dtype=np.float64)

    def write(self, path) -> None:
        """Delimited text with shortest round-trip float formatting."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(self.columns)
            for row in self.rows:
                writer.writerow([str(row[0])] + [repr(float(v)) for v in row[1:]])


@dataclass
class TrainedArtifacts:
    """Frozen models plus telemetry from one training run."""

    method: str
    config: TrainConfig
    classifier: LinearSoftmaxModel | None = None
    discriminator: LinearSoftmaxModel | None = None
    transformer: LinearTransform | None = None
    feature_discriminator: LinearSoftmaxModel | None = None
    source_map: LinearTransform | None = None
    target_map: LinearTransform | None = None
    trace: TrainTrace | None = None
    rounds_run: int = 0
    round_val_accuracy: tuple[float, ...] = ()

    def models(self) -> dict:
        """Non-empty model slots under their canonical checkpoint names."""
        named = {
            "C": self.classifier,
            "D": self.discriminator,
            "F": self.transformer,
            "Df": self.feature_discriminator,
            "psi_s": self.source_map,
            "psi_t": self.target_map,
        }
        return {k: v for k, v in named.items() if v is not None}


def _draw(rng: np.random.Generator, x: np.ndarray, batch_size: int) -> np.ndarray:
    return x[rng.integers(0, x.shape[0], size=batch_size)]


def _check_matrix(name: str, x) -> np.ndarray:
    x = require_finite(name, x)
    if x.ndim != 2 or x.shape[0] == 0:
        raise InvalidInputError(f"{name} must be a non-empty 2-D matrix, got shape {x.shape}")
    return x


def _check_domains(source: DomainMatrix, target: DomainMatrix) -> None:
    if source.role != "source" or target.role != "target":
        raise ConfigurationError(
            f"expected a source and a target matrix, got roles "
            f"{source.role!r} and {target.role!r}"
        )
    if source.schema != target.schema:
        raise ConfigurationError("source and target matrices disagree on the feature schema")
    source.schema.require_heterogeneous()


# --------------------------------------------------------------------------
# PU-only training


def train_pan(x_pos, x_unl, config: TrainConfig) -> TrainedArtifacts:
    """Adversarial PU training on a single feature space.

    Per step the discriminator ascends the full objective on fresh positive
    and unlabeled batches, then the classifier descends its term pair on a
    fresh unlabeled batch. With ``lam = 0`` the classifier's gradient is a
    zero matrix every step, so its parameters never leave initialization.
    """
    x_pos = _check_matrix("positive rows", x_pos)
    x_unl = _check_matrix("unlabeled rows", x_unl)
    if x_pos.shape[1] != x_unl.shape[1]:
        raise InvalidInputError(
            f"column mismatch: positives have {x_pos.shape[1]}, unlabeled {x_unl.shape[1]}"
        )
    rng = make_rng(config.seed)
    dim = x_pos.shape[1]
    d = LinearSoftmaxModel.initialize(dim, rng)
    c = LinearSoftmaxModel.initialize(dim, rng)
    models = {"D": d, "C": c}
    trace = TrainTrace(("value", "kl_pos", "kl_unl", "kl_dc", "kl_dc_swap"))
    for step in range(config.steps):
        bp = _draw(rng, x_pos, config.batch_size)
        bu = _draw(rng, x_unl, config.batch_size)
        res_d = loss_and_grads(models, pan_terms(bp, bu, config.lam), wrt=("D",))
        d.apply_step(res_d.grads["D"], config.learning_rate)
        bu2 = _draw(rng, x_unl, config.batch_size)
        res_c = loss_and_grads(models, classifier_terms(bu2, config.lam), wrt=("C",))
        c.apply_step(res_c.grads["C"], -config.learning_rate)
        trace.record(step, (res_d.value, *res_d.term_values))
    return TrainedArtifacts(
        method="PAN", config=config, classifier=c, discriminator=d, trace=trace
    )


def train_com_p(source: DomainMatrix, target: DomainMatrix, config: TrainConfig) -> TrainedArtifacts:
    """The common-features baseline: PU training on the shared columns only."""
    if source.role != "source" or target.role != "target":
        raise ConfigurationError("expected a source and a target matrix")
    if source.schema.c < 1:
        raise ConfigurationError("the common-features baseline needs at least one common column")
    art = train_pan(source.common, target.common, config)
    art.method = "COM_P"
    return art


# --------------------------------------------------------------------------
# Heterogeneous training


def _pada_loop(x_s, x_t, n_common, s_dim, config, seed, teacher_fn, eta):
    """One full adversarial run; ``teacher_fn`` adds the frozen-teacher pair.

    Random sequence per run: initialize D, C, F in that order, then per step
    draw source+target batches for the D phase, source+target batches for the
    F phase, and one target batch for the C phase. A run with a teacher draws
    exactly the same sequence, so eta = 0 reproduces the plain run bit-for-bit.
    """
    rng = make_rng(seed)
    d = LinearSoftmaxModel.initialize(x_s.shape[1], rng)
    c = LinearSoftmaxModel.initialize(x_s.shape[1], rng)
    f = LinearTransform.initialize(x_t.shape[1], s_dim, rng)
    models = {"D": d, "C": c, "F": f}
    soft = teacher_fn is not None
    columns = ("value", "kl_pos", "kl_unl", "kl_dc", "kl_dc_swap")
    if soft:
        columns += ("kl_soft", "kl_soft_swap")
    trace = TrainTrace(columns)

    def full_terms(bs, bt):
        if soft:
            return pada_s_terms(bs, bt, n_common, config.lam, eta, teacher_fn(bt))
        return pada_terms(bs, bt, n_common, config.lam)

    for step in range(config.steps):
        bs = _draw(rng, x_s, config.batch_size)
        bt = _draw(rng, x_t, config.batch_size)
        res_d = loss_and_grads(models, full_terms(bs, bt), wrt=("D",))
        d.apply_step(res_d.grads["D"], config.learning_rate)

        bs2 = _draw(rng, x_s, config.batch_size)
        bt2 = _draw(rng, x_t, config.batch_size)
        res_f = loss_and_grads(models, full_terms(bs2, bt2), wrt=("F",))
        f.apply_step(res_f.grads["F"], -config.learning_rate)

        bt3 = _draw(rng, x_t, config.batch_size)
        teacher = teacher_fn(bt3) if soft else None
        c_terms = aligned_classifier_terms(bt3, n_common, config.lam, teacher_probs=teacher, eta=eta)
        res_c = loss_and_grads(models, c_terms, wrt=("C",))
        c.apply_step(res_c.grads["C"], -config.learning_rate)

        trace.record(step, (res_d.value, *res_d.term_values))
    return c, d, f, trace


def train_pada(source: DomainMatrix, target: DomainMatrix, config: TrainConfig) -> TrainedArtifacts:
    """Joint alignment-plus-PU training.

    The transform fills the source-specific slots of target rows, the
    discriminator scores source rows against aligned target rows, and the
    classifier learns from the discriminator on aligned target rows.
    """
    _check_domains(source, target)
    schema = source.schema
    c, d, f, trace = _pada_loop(
        source.features(), target.features(), schema.c, schema.s,
        config, config.seed, teacher_fn=None, eta=0.0,
    )
    return TrainedArtifacts(
        method="PADA", config=config, classifier=c, discriminator=d,
        transformer=f, trace=trace,
    )


def _common_teacher(base: LinearSoftmaxModel, n_common: int):
    frozen = base.copy()

    def teacher_fn(batch_target: np.ndarray) -> np.ndarray:
        return frozen.classify(batch_target[:, :n_common])

    return teacher_fn


def _aligned_teacher(classifier: LinearSoftmaxModel, transform: LinearTransform, n_common: int):
    frozen_c = classifier.copy()
    frozen_f = transform.copy()

    def teacher_fn(batch_target: np.ndarray) -> np.ndarray:
        aligned = np.hstack([batch_target[:, :n_common], frozen_f.transform(batch_target)])
        return frozen_c.classify(aligned)

    return teacher_fn


def train_pada_s(
    source: DomainMatrix,
    target: DomainMatrix,
    config: TrainConfig,
    val_target: DomainMatrix,
) -> TrainedArtifacts:
    """Soft-label rounds on top of the joint training.

    The first teacher is a PU classifier trained on common features alone;
    each round trains the joint objective against that frozen teacher, the
    round's classifier (composed with its frozen transform) becomes the next
    teacher, and rounds stop once validation accuracy fails to improve for
    ``val_patience`` rounds or ``max_soft_rounds`` is reached. Returns the
    best round by validation accuracy. Round 1 consumes exactly the same
    random sequence as the plain joint trainer under the same config. The
    discriminator and transform restart fresh each round; only the teacher
    carries over.
    """
    _check_domains(source, target)
    if val_target.labels is None:
        raise ConfigurationError("soft-label rounds need a labeled validation matrix")
    schema = source.schema
    x_s = source.features()
    x_t = target.features()

    base_config = replace(config, seed=derive_seed(config.seed, "soft-base"))
    base = train_pan(source.common, target.common, base_config)
    teacher_fn = _common_teacher(base.classifier, schema.c)

    best = None
    best_acc = -np.inf
    val_accs: list[float] = []
    stale = 0
    rounds_run = 0
    for round_idx in range(1, config.max_soft_rounds + 1):
        seed = config.seed if round_idx == 1 else derive_seed(config.seed, "soft-round", round_idx)
        c, d, f, trace = _pada_loop(
            x_s, x_t, schema.c, schema.s, config, seed, teacher_fn, config.eta
        )
        rounds_run = round_idx
        probs = predict_aligned(c, f, val_target)
        val_acc = accuracy(probs, val_target.labels)
        val_accs.append(val_acc)
        if val_acc > best_acc:
            best_acc = val_acc
            best = (c, d, f, trace)
            stale = 0
        else:
            stale += 1
            if stale >= config.val_patience:
                break
        teacher_fn = _aligned_teacher(c, f, schema.c)

    c, d, f, trace = best
    return TrainedArtifacts(
        method="PADA_S", config=config, classifier=c, discriminator=d,
        transformer=f, trace=trace, rounds_run=rounds_run,
        round_val_accuracy=tuple(val_accs),
    )


def train_pada_f(source: DomainMatrix, target: DomainMatrix, config: TrainConfig) -> TrainedArtifacts:
    """Two-discriminator ablation.

    The transform is trained only against a separate feature discriminator on
    the plain domain pairing, so it aligns target rows to source rows without
    any class pressure; the main discriminator and the classifier train as in
    the joint method on whatever the transform produces.
    """
    _check_domains(source, target)
    schema = source.schema
    x_s = source.features()
    x_t = target.features()
    rng = make_rng(config.seed)
    d = LinearSoftmaxModel.initialize(x_s.shape[1], rng)
    c = LinearSoftmaxModel.initialize(x_s.shape[1], rng)
    f = LinearTransform.initialize(x_t.shape[1], schema.s, rng)
    df = LinearSoftmaxModel.initialize(x_s.shape[1], rng)
    models = {"D": d, "C": c, "F": f, "Df": df}
    trace = TrainTrace(
        ("value", "kl_pos", "kl_unl", "kl_dc", "kl_dc_swap",
         "adv_value", "kl_adv_src", "kl_adv_tgt")
    )
    for step in range(config.steps):
        bs = _draw(rng, x_s, config.batch_size)
        bt = _draw(rng, x_t, config.batch_size)
        res_d = loss_and_grads(models, pada_terms(bs, bt, schema.c, config.lam), wrt=("D",))
        d.apply_step(res_d.grads["D"], config.learning_rate)

        bs2 = _draw(rng, x_s, config.batch_size)
        bt2 = _draw(rng, x_t, config.batch_size)
        res_df = loss_and_grads(models, domain_adv_terms(bs2, bt2, schema.c), wrt=("Df",))
        df.apply_step(res_df.grads["Df"], config.learning_rate)

        bs3 = _draw(rng, x_s, config.batch_size)
        bt3 = _draw(rng, x_t, config.batch_size)
        res_f = loss_and_grads(models, domain_adv_terms(bs3, bt3, schema.c), wrt=("F",))
        f.apply_step(res_f.grads["F"], -config.learning_rate)

        bt4 = _draw(rng, x_t, config.batch_size)
        res_c = loss_and_grads(
            models, aligned_classifier_terms(bt4, schema.c, config.lam), wrt=("C",)
        )
        c.apply_step(res_c.grads["C"], -config.learning_rate)

        trace.record(step, (res_d.value, *res_d.term_values, res_df.value, *res_df.term_values))
    return TrainedArtifacts(
        method="PADA_F", config=config, classifier=c, discriminator=d,
        transformer=f, feature_discriminator=df, trace=trace,
    )


# --------------------------------------------------------------------------
# Feature completion and its composite baseline


def train_dsft(
    source: DomainMatrix, target: DomainMatrix, config: TrainConfig
) -> tuple[TrainedArtifacts, np.ndarray, np.ndarray]:
    """Fit the two completion maps and return them with the completed rows.

    Full-batch descent with a backtracking step size on a convex objective:
    a step is only taken when it does not increase the loss, so the recorded
    loss trace is non-increasing. Returns the artifacts plus the completed
    source and target feature matrices for the training rows, each laid out
    ``[common | source-specific | target-specific]``.
    """
    if source.role != "source" or target.role != "target":
        raise ConfigurationError("expected a source and a target matrix")
    if source.schema != target.schema:
        raise ConfigurationError("source and target matrices disagree on the feature schema")
    schema = source.schema
    if schema.c < 1:
        raise ConfigurationError("feature completion needs at least one common column")
    schema.require_heterogeneous()

    rng = make_rng(config.seed)
    psi_s = LinearTransform.initialize(schema.c, schema.s, rng)
    psi_t = LinearTransform.initialize(schema.c, schema.t, rng)
    s_c, s_s = source.common, source.specific
    t_c, t_t = target.common, target.specific

    trace = TrainTrace(("value", "rec_source", "rec_target", "mmd", "step_size"))
    step_size = config.learning_rate
    res = dsft_loss(s_c, s_s, t_c, t_t, psi_s, psi_t, config.gamma_mmd)
    for step in range(config.steps):
        taken = 0.0
        for _ in range(40):
            cand_s = psi_s.copy()
            cand_t = psi_t.copy()
            cand_s.apply_step(res.grads["psi_s"], -step_size)
            cand_t.apply_step(res.grads["psi_t"], -step_size)
            cand = dsft_loss(s_c, s_s, t_c, t_t, cand_s, cand_t, config.gamma_mmd)
            if cand.value <= res.value:
                psi_s, psi_t = cand_s, cand_t
                taken = step_size
                step_size = min(step_size * 2.0, 1e3)
                res = cand
                break
            step_size *= 0.5
        trace.record(step, (res.value, res.rec_source, res.rec_target, res.mmd, taken))

    art = TrainedArtifacts(
        method="DSFT", config=config, source_map=psi_s, target_map=psi_t, trace=trace
    )
    xs_hat = complete_features(psi_s, psi_t, source)
    xt_hat = complete_features(psi_s, psi_t, target)
    return art, xs_hat, xt_hat


def complete_features(
    psi_s: LinearTransform, psi_t: LinearTransform, dm: DomainMatrix
) -> np.ndarray:
    """Rows in the completed ``[common | source-spec | target-spec]`` layout,
    with the domain's missing block filled by the corresponding map."""
    if dm.role == "source":
        return np.hstack([dm.common, dm.specific, psi_t.transform(dm.common)])
    return np.hstack([dm.common, psi_s.transform(dm.common), dm.specific])


def train_dsft_p(
    source: DomainMatrix, target: DomainMatrix, config: TrainConfig
) -> TrainedArtifacts:
    """Completion-then-PU composite baseline.

    Fits the completion maps first (own derived seed), then runs PU training
    on the completed rows under the config seed. The returned trace is the
    PU stage's.
    """
    fit_config = replace(config, seed=derive_seed(config.seed, "completion-fit"))
    maps, xs_hat, xt_hat = train_dsft(source, target, fit_config)
    pu = train_pan(xs_hat, xt_hat, config)
    return TrainedArtifacts(
        method="DSFT_P_linear", config=config,
        classifier=pu.classifier, discriminator=pu.discriminator,
        source_map=maps.source_map, target_map=maps.target_map,
        trace=pu.trace,
    )


# --------------------------------------------------------------------------
# Distillation and probe training


def train_dist(
    target: DomainMatrix, base_classifier: LinearSoftmaxModel, config: TrainConfig
) -> TrainedArtifacts:
    """Distill a frozen common-features teacher into a full-feature student.

    Per step: draw a target batch, read the teacher's output on its common
    columns, descend the student on the matching divergence over the full
    rows.
    """
    if target.role != "target":
        raise ConfigurationError("distillation trains on the target matrix")
    n_common = target.schema.c
    if base_classifier.input_dim != n_common:
        raise ConfigurationError(
            f"teacher expects {base_classifier.input_dim} columns, schema has {n_common} common"
        )
    teacher = base_classifier.copy()
    x_t = target.features()
    rng = make_rng(config.seed)
    student = LinearSoftmaxModel.initialize(x_t.shape[1], rng)
    trace = TrainTrace(("value", "kl_distill"))
    for step in range(config.steps):
        bt = _draw(rng, x_t, config.batch_size)
        probs = teacher.classify(bt[:, :n_common])
        res = loss_and_grads(
            {"C": student}, distillation_terms(probs, bt), wrt=("C",)
        )
        student.apply_step(res.grads["C"], -config.learning_rate)
        trace.record(step, (res.value, *res.term_values))
    return TrainedArtifacts(method="DIST", config=config, classifier=student, trace=trace)


def train_discriminator(x_a, x_b, config: TrainConfig) -> TrainedArtifacts:
    """Plain supervised two-class probe: rows of ``x_a`` are the positive
    class. Used for the post-hoc domain-separability diagnostics."""
    x_a = _check_matrix("class-a rows", x_a)
    x_b = _check_matrix("class-b rows", x_b)
    if x_a.shape[1] != x_b.shape[1]:
        raise InvalidInputError(
            f"column mismatch: {x_a.shape[1]} vs {x_b.shape[1]}"
        )
    rng = make_rng(config.seed)
    d = LinearSoftmaxModel.initialize(x_a.shape[1], rng)
    trace = TrainTrace(("value", "ce_pos", "ce_neg"))
    for step in range(config.steps):
        ba = _draw(rng, x_a, config.batch_size)
        bb = _draw(rng, x_b, config.batch_size)
        res = loss_and_grads({"D": d}, supervised_terms(ba, bb), wrt=("D",))
        d.apply_step(res.grads["D"], config.learning_rate)
        trace.record(step, (res.value, *res.term_values))
    return TrainedArtifacts(method="D_PRIME", config=config, discriminator=d, trace=trace)


# --------------------------------------------------------------------------
# Prediction


def align_features(transform: LinearTransform, dm: DomainMatrix) -> np.ndarray:
    """Target rows mapped into the source layout: ``[common | F(full row)]``."""
    x = dm.features()
    return np.hstack([dm.common, transform.transform(x)])


def predict_aligned(
    classifier: LinearSoftmaxModel, transform: LinearTransform, dm: DomainMatrix
) -> np.ndarray:
    return classifier.classify(align_features(transform, dm))


def predict(artifacts: TrainedArtifacts, dm: DomainMatrix) -> np.ndarray:
    """Probability pairs for a matrix, routed by what the method trained on."""
    method = artifacts.method
    if method in ("PAN", "COM_P"):
        return artifacts.classifier.classify(dm.common)
    if method in ("PADA", "PADA_S", "PADA_F"):
        return predict_aligned(artifacts.classifier, artifacts.transformer, dm)
    if method == "DIST":
        return artifacts.classifier.classify(dm.features())
    if method == "DSFT_P_linear":
        completed = complete_features(artifacts.source_map, artifacts.target_map, dm)
        return artifacts.classifier.classify(completed)
    raise ConfigurationError(f"method {method!r} has no prediction rule")
