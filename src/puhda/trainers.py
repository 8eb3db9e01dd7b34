"""Training loops for every method.

Every SGD trainer declares its game as a list of phases. A phase names the
player it updates, the sign of its step (+1 ascends the objective, -1
descends it), the matrices it draws one mini-batch from, in order, and its
term builder. One loop, ``_run_phases``, plays the phases of every step in
order. Mini-batches are drawn uniformly with replacement (so inputs smaller
than the batch size still work). Randomness follows one documented sequence
per run: models initialize in a fixed order from the config seed, then each
step draws its phase batches in phase order. Nothing else consumes
randomness, so a rerun with identical inputs and config reproduces every
parameter bit-for-bit. Each step records one telemetry row from the phases
marked as traced, in columns named after their terms.

The phases per step:

* PU-only: discriminator ascends the full objective on fresh positive and
  unlabeled batches, then the classifier descends its own term pair on a
  fresh unlabeled batch.
* Heterogeneous: discriminator ascends on fresh source+target batches, the
  transform descends the full objective on fresh batches, then the classifier
  descends its term pair on a fresh target batch.
* Soft-label rounds: same phases with a frozen teacher's term pair added; the
  round-1 random sequence is identical to the plain heterogeneous game, so a
  zero teacher weight reproduces it exactly.
* Two-discriminator ablation: the main discriminator ascends the full
  objective, a separate feature discriminator ascends the domain pairing
  terms, the transform descends only those, and the classifier is unchanged.
* Distillation and the probe: one phase each, on one or two fresh batches.

The feature-completion fit is deterministic full-batch descent with a
backtracking step size, so its loss trace never increases. Every trainer
returns its models in one dict keyed by checkpoint slot name.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from .data import DomainMatrix, write_table
from .errors import ConfigurationError, InvalidInputError
from .metrics import accuracy
from .models import (
    LinearSoftmaxModel,
    LinearTransform,
    Model,
    frozen_teacher,
    loss_and_grads,
)
from .numerics import derive_seed, make_rng, require_finite
from .objectives import (
    _dsft_fit,
    aligned_classifier_terms,
    classifier_terms,
    distillation_terms,
    domain_adv_terms,
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
        write_table(path, self.columns, self.rows)


@dataclass
class TrainedArtifacts:
    """The models one run trained, keyed by checkpoint slot name, plus its telemetry."""

    method: str
    config: TrainConfig
    slots: dict[str, Model]
    trace: TrainTrace
    rounds_run: int = 0
    round_val_accuracy: tuple[float, ...] = ()

    def models(self) -> dict[str, Model]:
        """The trained models under their checkpoint slot names."""
        return self.slots

    @property
    def classifier(self) -> LinearSoftmaxModel | None:
        return self.slots.get("C")


def _draw(rng: np.random.Generator, x: np.ndarray, batch_size: int) -> np.ndarray:
    return x[rng.integers(0, x.shape[0], size=batch_size)]


def _check_pair(name_a: str, x_a, name_b: str, x_b) -> tuple[np.ndarray, np.ndarray]:
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


def _check_roles(source: DomainMatrix, target: DomainMatrix) -> None:
    if source.role != "source" or target.role != "target":
        raise ConfigurationError(
            f"expected a source and a target matrix, got roles "
            f"{source.role!r} and {target.role!r}"
        )


def _check_domains(source: DomainMatrix, target: DomainMatrix) -> None:
    _check_roles(source, target)
    if source.schema != target.schema:
        raise ConfigurationError("source and target matrices disagree on the feature schema")
    source.schema.require_heterogeneous()


# --------------------------------------------------------------------------
# The phase loop


class Phase(NamedTuple):
    """One player's move in every step of a game.

    ``player`` steps by ``sign * learning_rate`` (+1 ascends, -1 descends)
    along the gradient of ``terms(*batches)``, with one batch drawn from each
    matrix of ``draws`` in order. A phase with a ``trace`` prefix adds its
    value and term values to the step's telemetry row, under the columns
    ``prefix + "value"`` and its term names.
    """

    player: str
    sign: int
    draws: tuple[np.ndarray, ...]
    terms: Callable[..., list]
    trace: str | None = None


def _run_phases(models: dict[str, Model], phases: list[Phase], config: TrainConfig,
                rng: np.random.Generator) -> TrainTrace:
    """Play ``phases`` in order for ``config.steps`` steps, updating ``models`` in place."""
    trace = None
    columns: list[str] = []
    for step in range(config.steps):
        row: list[float] = []
        for phase in phases:
            terms = phase.terms(*[_draw(rng, x, config.batch_size) for x in phase.draws])
            res = loss_and_grads(models, terms, wrt=(phase.player,))
            models[phase.player].apply_step(res.grads[phase.player],
                                            phase.sign * config.learning_rate)
            if phase.trace is not None:
                row += (res.value, *res.term_values)
                if trace is None:
                    columns += (phase.trace + "value", *(term.name for term in terms))
        if trace is None:
            trace = TrainTrace(columns)
        trace.record(step, row)
    return trace


# --------------------------------------------------------------------------
# PU-only training


def train_pan(x_pos, x_unl, config: TrainConfig) -> TrainedArtifacts:
    """Adversarial PU training on a single feature space.

    Models initialize D then C. Per step the discriminator ascends the full
    objective on fresh positive and unlabeled batches, then the classifier
    descends its term pair on a fresh unlabeled batch. With ``lam = 0`` the
    classifier's gradient is a zero matrix every step, so its parameters
    never leave initialization.
    """
    x_pos, x_unl = _check_pair("positive rows", x_pos, "unlabeled rows", x_unl)
    rng = make_rng(config.seed)
    models = {name: LinearSoftmaxModel.initialize(x_pos.shape[1], rng) for name in ("D", "C")}
    phases = [
        Phase("D", +1, (x_pos, x_unl), lambda bp, bu: pan_terms(bp, bu, config.lam),
              trace=""),
        Phase("C", -1, (x_unl,), lambda bu: classifier_terms(bu, config.lam)),
    ]
    return TrainedArtifacts("PAN", config, models, _run_phases(models, phases, config, rng))


def train_com_p(source: DomainMatrix, target: DomainMatrix, config: TrainConfig) -> TrainedArtifacts:
    """The common-features baseline: PU training on the shared columns only."""
    _check_roles(source, target)
    if source.schema.c < 1:
        raise ConfigurationError("the common-features baseline needs at least one common column")
    art = train_pan(source.common, target.common, config)
    art.method = "COM_P"
    return art


# --------------------------------------------------------------------------
# Heterogeneous training


def _pada_loop(x_s, x_t, n_common, s_dim, config, seed, teacher=None):
    """One full joint run; ``teacher`` adds the frozen-teacher pair (weight eta).

    Random sequence per run: initialize D, C, F in that order, then per step
    draw source+target batches for the D phase, source+target batches for the
    F phase, and one target batch for the C phase. A run with a teacher draws
    exactly the same sequence, so eta = 0 reproduces the plain run bit-for-bit.
    """
    rng = make_rng(seed)
    models = {name: LinearSoftmaxModel.initialize(x_s.shape[1], rng) for name in ("D", "C")}
    models["F"] = LinearTransform.initialize(x_t.shape[1], s_dim, rng)
    lam, eta = config.lam, config.eta

    def full_terms(bs, bt):
        if teacher is None:
            return pada_terms(bs, bt, n_common, lam)
        return pada_s_terms(bs, bt, n_common, lam, eta, teacher(bt))

    def c_terms(bt):
        probs = None if teacher is None else teacher(bt)
        return aligned_classifier_terms(bt, n_common, lam, teacher_probs=probs, eta=eta)

    phases = [
        Phase("D", +1, (x_s, x_t), full_terms, trace=""),
        Phase("F", -1, (x_s, x_t), full_terms),
        Phase("C", -1, (x_t,), c_terms),
    ]
    return models, _run_phases(models, phases, config, rng)


def train_pada(source: DomainMatrix, target: DomainMatrix, config: TrainConfig) -> TrainedArtifacts:
    """Joint alignment-plus-PU training.

    The transform fills the source-specific slots of target rows, the
    discriminator scores source rows against aligned target rows, and the
    classifier learns from the discriminator on aligned target rows.
    """
    _check_domains(source, target)
    schema = source.schema
    models, trace = _pada_loop(
        source.features(), target.features(), schema.c, schema.s, config, config.seed
    )
    return TrainedArtifacts("PADA", config, models, trace)


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
    teacher = frozen_teacher(base.models(), schema.c)

    val_accs: list[float] = []
    for round_idx in range(1, config.max_soft_rounds + 1):
        seed = config.seed if round_idx == 1 else derive_seed(config.seed, "soft-round", round_idx)
        models, trace = _pada_loop(x_s, x_t, schema.c, schema.s, config, seed, teacher)
        probs = models["C"].classify(align_features(models["F"], val_target))
        val_accs.append(accuracy(probs, val_target.labels))
        best = int(np.argmax(val_accs))   # the first round with the top accuracy
        if best == round_idx - 1:
            best_run = (models, trace)
        elif round_idx - 1 - best >= config.val_patience:
            break
        teacher = frozen_teacher(models, schema.c)

    return TrainedArtifacts("PADA_S", config, *best_run, rounds_run=len(val_accs),
                            round_val_accuracy=tuple(val_accs))


def train_pada_f(source: DomainMatrix, target: DomainMatrix, config: TrainConfig) -> TrainedArtifacts:
    """Two-discriminator ablation.

    The transform is trained only against a separate feature discriminator on
    the plain domain pairing, so it aligns target rows to source rows without
    any class pressure; the main discriminator and the classifier train as in
    the joint method on whatever the transform produces. Models initialize
    D, C, F, Df; per step the phases run D, Df, F, C, each on fresh batches.
    """
    _check_domains(source, target)
    schema = source.schema
    x_s = source.features()
    x_t = target.features()
    rng = make_rng(config.seed)
    models = {name: LinearSoftmaxModel.initialize(x_s.shape[1], rng) for name in ("D", "C")}
    models["F"] = LinearTransform.initialize(x_t.shape[1], schema.s, rng)
    models["Df"] = LinearSoftmaxModel.initialize(x_s.shape[1], rng)

    def pairing(bs, bt):
        return domain_adv_terms(bs, bt, schema.c)

    phases = [
        Phase("D", +1, (x_s, x_t), lambda bs, bt: pada_terms(bs, bt, schema.c, config.lam),
              trace=""),
        Phase("Df", +1, (x_s, x_t), pairing, trace="adv_"),
        Phase("F", -1, (x_s, x_t), pairing),
        Phase("C", -1, (x_t,), lambda bt: aligned_classifier_terms(bt, schema.c, config.lam)),
    ]
    return TrainedArtifacts("PADA_F", config, models, _run_phases(models, phases, config, rng))


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
    _check_domains(source, target)
    schema = source.schema
    if schema.c < 1:
        raise ConfigurationError("feature completion needs at least one common column")

    rng = make_rng(config.seed)
    psi_s = LinearTransform.initialize(schema.c, schema.s, rng)
    psi_t = LinearTransform.initialize(schema.c, schema.t, rng)
    s_c, s_s = source.common, source.specific
    t_c, t_t = target.common, target.specific

    loss = _dsft_fit(s_c, s_s, t_c, t_t, config.gamma_mmd)   # blocks checked once per fit
    trace = TrainTrace(("value", "rec_source", "rec_target", "mmd", "step_size"))
    step_size = config.learning_rate
    res = loss(psi_s, psi_t)
    for step in range(config.steps):
        taken = 0.0
        for _ in range(40):
            cand_s = psi_s.copy()
            cand_t = psi_t.copy()
            cand_s.apply_step(res.grads["psi_s"], -step_size)
            cand_t.apply_step(res.grads["psi_t"], -step_size)
            cand = loss(cand_s, cand_t)
            if cand.value <= res.value:
                psi_s, psi_t = cand_s, cand_t
                taken = step_size
                step_size = min(step_size * 2.0, 1e3)
                res = cand
                break
            step_size *= 0.5
        trace.record(step, (res.value, res.rec_source, res.rec_target, res.mmd, taken))

    art = TrainedArtifacts("DSFT", config, {"psi_s": psi_s, "psi_t": psi_t}, trace)
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
    return TrainedArtifacts("DSFT_P_linear", config, {**pu.models(), **maps.models()}, pu.trace)


# --------------------------------------------------------------------------
# Distillation and probe training


def train_dist(
    target: DomainMatrix, base_classifier: LinearSoftmaxModel, config: TrainConfig
) -> TrainedArtifacts:
    """Distill a frozen common-features teacher into a full-feature student.

    Per step: draw a target batch, read the teacher's output on its common
    columns, descend the student on the matching divergence over the full
    rows. The student is the run's only model, slot C.
    """
    if target.role != "target":
        raise ConfigurationError("distillation trains on the target matrix")
    n_common = target.schema.c
    if base_classifier.input_dim != n_common:
        raise ConfigurationError(
            f"teacher expects {base_classifier.input_dim} columns, schema has {n_common} common"
        )
    teacher = frozen_teacher({"C": base_classifier}, n_common)
    x_t = target.features()
    rng = make_rng(config.seed)
    models = {"C": LinearSoftmaxModel.initialize(x_t.shape[1], rng)}
    phases = [Phase("C", -1, (x_t,), lambda bt: distillation_terms(teacher(bt), bt),
                    trace="")]
    return TrainedArtifacts("DIST", config, models, _run_phases(models, phases, config, rng))


def train_discriminator(x_a, x_b, config: TrainConfig) -> TrainedArtifacts:
    """Plain supervised two-class probe: rows of ``x_a`` are the positive
    class. Used for the post-hoc domain-separability diagnostics."""
    x_a, x_b = _check_pair("class-a rows", x_a, "class-b rows", x_b)
    rng = make_rng(config.seed)
    models = {"D": LinearSoftmaxModel.initialize(x_a.shape[1], rng)}
    phases = [Phase("D", +1, (x_a, x_b), supervised_terms, trace="")]
    return TrainedArtifacts("D_PRIME", config, models, _run_phases(models, phases, config, rng))


# --------------------------------------------------------------------------
# Prediction


def align_features(transform: LinearTransform, dm: DomainMatrix) -> np.ndarray:
    """Target rows mapped into the source layout: ``[common | F(full row)]``."""
    return transform.align(dm.features(), dm.schema.c)


def _aligned_rows(artifacts: TrainedArtifacts, dm: DomainMatrix) -> np.ndarray:
    return align_features(artifacts.models()["F"], dm)


@dataclass(frozen=True)
class Method:
    """One pipeline method: how it trains from ``(source, train, val, config)``,
    which rows its classifier scores, and whether its grid has an ``eta`` axis."""

    train: Callable[..., TrainedArtifacts]
    rows: Callable[[TrainedArtifacts, DomainMatrix], np.ndarray]
    searches_eta: bool = False


# The methods a config can name, in report order. Entries look trainers up by
# module name at call time, so a replaced module attribute is what runs.
METHOD_TABLE = {
    "COM_P": Method(lambda s, t, v, c: train_com_p(s, t, c), lambda art, dm: dm.common),
    # the distillation baseline trains its common-features teacher in the same cell
    "DIST": Method(lambda s, t, v, c: train_dist(t, train_com_p(s, t, c).classifier, c),
                   lambda art, dm: dm.features()),
    "DSFT_P_linear": Method(lambda s, t, v, c: train_dsft_p(s, t, c),
                            lambda art, dm: complete_features(art.models()["psi_s"],
                                                              art.models()["psi_t"], dm)),
    "PADA": Method(lambda s, t, v, c: train_pada(s, t, c), _aligned_rows),
    "PADA_S": Method(lambda s, t, v, c: train_pada_s(s, t, c, val_target=v), _aligned_rows,
                     searches_eta=True),
    "PADA_F": Method(lambda s, t, v, c: train_pada_f(s, t, c), _aligned_rows),
}


def predict(artifacts: TrainedArtifacts, dm: DomainMatrix) -> np.ndarray:
    """Probability pairs for a matrix, routed by the method table."""
    entry = METHOD_TABLE.get(artifacts.method)
    if entry is None:
        raise ConfigurationError(f"method {artifacts.method!r} has no prediction rule")
    return artifacts.classifier.classify(entry.rows(artifacts, dm))
