"""Training loops for every method.

Every SGD trainer declares its game as a list of phases. A phase names the
player it updates, the sign of its step (+1 ascends the objective, -1
descends it), the matrices it draws one mini-batch from, in order, its term
builder, and whether its last batch is read as aligned target rows. One
loop, ``_run_phases``, plays the phases of every step in order. Mini-batches
are drawn uniformly with replacement (so inputs smaller than the batch size
still work). Randomness follows one documented sequence per run: models
initialize in a fixed order from the config seed, then each step draws its
phase batches in phase order. Nothing else consumes randomness, so a rerun
with identical inputs and config reproduces every parameter bit-for-bit.
Each step records one telemetry row from the phases marked as traced, in
columns named after their terms.

The per-step work. A phase makes its batches and term list once per stack,
on the first rows it plays, and plans its loss once (``models.LossPlan``);
it makes them again only when a cell leaves the stack. Every step then fills
its gathered rows into those batches by position, without a second check
(they are taken from matrices checked when they entered), and makes one
``loss_and_grads`` call. An untraced phase asks for its gradient alone, so
no term value is computed for it. A frozen teacher (``PADA_S`` rounds,
``DIST``) labels every target training row once, when it is made, and each
step gathers its batch's labels from that table by row position
(``models.FrozenTeacher``).

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

The cell axis. A method's group trainer (``pada_group`` and its siblings in
``METHOD_TABLE``) trains K configs of one ``RunBudget``, which differ only
in ``learning_rate``, ``lam``, ``eta`` and ``seed``, as one stack: every
model holds weights ``(K, in, out)`` and bias ``(K, out)``, the per-cell
scalars are ``(K,)`` arrays, each traced phase fills a ``(steps, K, terms)``
block, and a stacked ``(K, n, 2)`` forward serves every cell (see the
``models`` docstring for the shapes). Each seed keeps its own generators
(derived seeds are derived per seed) and draws in the order above; the
cells of one seed share ``(n, d)`` rows, and a stack across seeds gathers
each cell's own ``(K, n, d)`` rows, from its own fit's rows when it draws
from a ``(fits, n, d)`` block.
Each cell ends as its own 2-D models and telemetry (a ``TrainTrace`` owning
its ``(steps, columns)`` values), or as the error it failed with: a cell whose
logits or update turn non-finite fails, and ``_Stack.attempt`` replays the
phase on the same batches for the others. A single trainer call
(``train_pada`` and the rest) is a stack of one through the same code; a
stack of one carries no cell axis, so it runs on one cell's arrays.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, fields, replace
from typing import Callable, NamedTuple

import numpy as np

from .data import DomainMatrix, write_table
from .errors import ConfigurationError, InvalidInputError, NonFiniteCells, PuhdaError
from .metrics import accuracy
from .models import (
    FrozenTeacher,
    LinearSoftmaxModel,
    LinearTransform,
    LossPlan,
    Model,
    RawBatch,
    TransformedBatch,
    frozen_teacher,
    loss_and_grads,
)
from .numerics import (
    NonNegativeFloat,
    NonNegativeInt,
    PositiveFloat,
    PositiveInt,
    check_fields,
    check_pair,
    derive_seed,
    make_rng,
)
from .objectives import (
    CompletionBlocks,
    classifier_terms,
    distillation_terms,
    domain_adv_terms,
    dsft_loss,
    pu_terms,
    supervised_terms,
)

GRID_LEARNING_RATE = (1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 1e-1)
GRID_WEIGHT = (1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 1e-1, 5e-1, 1.0)


@dataclass(frozen=True)
class RunBudget:
    """The per-run budget, the same for every cell of a stack.

    ``steps`` is the step budget of one run; soft-label training runs up to
    ``max_soft_rounds`` such budgets and stops early once validation accuracy
    fails to improve ``val_patience`` rounds in a row. ``gamma_mmd`` weights
    the mean-alignment part of the completion fit.
    """

    steps: PositiveInt = 5000
    batch_size: PositiveInt = 128
    max_soft_rounds: PositiveInt = 5
    val_patience: PositiveInt = 1
    gamma_mmd: NonNegativeFloat = 1.0

    def __post_init__(self):
        check_fields(self)

    @property
    def budget(self) -> tuple:
        """The budget's ``(field, value)`` pairs."""
        return tuple((f.name, getattr(self, f.name)) for f in fields(RunBudget))


@dataclass(frozen=True, kw_only=True)
class TrainConfig(RunBudget):
    """One run: the budget plus what the cells of a stack may vary. ``lam`` weights
    the classifier term pair, ``eta`` the frozen-teacher pair (soft-label rounds)."""

    learning_rate: PositiveFloat
    lam: NonNegativeFloat = 0.0
    eta: NonNegativeFloat = 0.0
    seed: NonNegativeInt = 0


class TrainTrace:
    """Per-step objective telemetry: ``values`` holds one row per training step,
    ``(steps, columns)``, as a float64 copy the trace owns."""

    def __init__(self, columns, values):
        self.columns = ("step",) + tuple(columns)
        self.values = np.array(values, dtype=np.float64)
        if self.values.shape[1:] != (len(self.columns) - 1,):
            raise InvalidInputError(f"trace values have shape {self.values.shape}, "
                                    f"expected (steps, {len(self.columns) - 1})")

    @property
    def rows(self) -> list[tuple]:
        return [(step, *row) for step, row in enumerate(self.values.tolist())]

    def __len__(self) -> int:
        return len(self.values)

    def value_column(self, name: str) -> np.ndarray:
        idx = self.columns.index(name)
        return self.values[:, idx - 1].copy() if idx else np.arange(len(self), dtype=np.float64)

    def write(self, path) -> None:
        """Delimited text with shortest round-trip float formatting."""
        write_table(path, self.columns, self.rows)


@dataclass
class TrainedArtifacts:
    """The models one run trained, keyed by checkpoint slot name, plus its telemetry;
    a soft-label run adds each round's validation accuracy, one per round it ran."""

    method: str
    config: TrainConfig
    slots: dict[str, Model]
    trace: TrainTrace
    round_val_accuracy: tuple[float, ...] = ()

    def models(self) -> dict[str, Model]:
        """The trained models under their checkpoint slot names."""
        return self.slots

    @property
    def rounds_run(self) -> int:
        return len(self.round_val_accuracy)

    @property
    def classifier(self) -> LinearSoftmaxModel | None:
        return self.slots.get("C")


# What a group trainer returns per cell: its artifacts, or the error it failed with.
Outcome = TrainedArtifacts | PuhdaError


def _draw(rngs: list[np.random.Generator], x: np.ndarray, batch_size: int) -> np.ndarray:
    """The row positions of one batch of ``x``, rows ``(n, d)`` or a ``(fits, n, d)``
    block: ``(batch,)`` from one generator, else ``(seeds, batch)``."""
    if len(rngs) == 1:
        return rngs[0].integers(0, x.shape[-2], size=batch_size)
    return np.array([rng.integers(0, x.shape[-2], size=batch_size) for rng in rngs])


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
# Stacks and the phase loop


class _Stack:
    """The cells of one stacked run: configs that differ only in learning_rate,
    lam, eta and seed, trained in lockstep.

    Each seed has its own generators (:meth:`rngs`): a cell's models start
    from its seed's draws (:meth:`init`), and each phase draws a batch per
    seed (``_draw``) that :meth:`rows` gathers for the live cells. ``cells``
    holds the group positions of the live cells; the per-cell scalars
    (``learning_rate``, ``lam``, ``eta``, each ``(K,)``), ``models`` and
    ``teacher`` follow it, and the phases' terms (``moves``) are dropped, to
    be built again for the cells left. A cell leaves by failing
    (:meth:`attempt`) or by finishing (:meth:`finish`), and ``outcomes``
    keeps what it left with. A stack of one carries no cell axis
    (``stacked`` is False): its models are one cell's and its scalars
    numbers, so it runs on the arrays an unstacked run would, and it ends
    when its cell leaves.
    """

    def __init__(self, configs):
        self.configs = tuple(configs)
        if len({c.budget for c in self.configs}) != 1:
            raise ConfigurationError(
                "the cells of a stack may differ only in learning_rate, lam, eta and seed")
        self.config = self.configs[0]   # the shared budget and round rules
        self.seeds = tuple(dict.fromkeys(c.seed for c in self.configs))
        self._seed_of = np.array([self.seeds.index(c.seed) for c in self.configs])
        self.stacked = len(self.configs) > 1
        self.outcomes: list = [None] * len(self.configs)
        self.cells = np.arange(len(self.configs))
        self.models: dict[str, Model] = {}
        self.teacher: FrozenTeacher | None = None
        self.moves: dict = {}   # phase position -> _Move, for the live cells
        self.fit_of: np.ndarray | None = None   # each cell's fit, if it draws from blocks
        self._keep(slice(None))

    def _keep(self, keep) -> None:
        self.cells = self.cells[keep]
        self.moves = {}
        self._seed_at = self._seed_of[self.cells]   # each live cell's seed position
        if self.stacked:
            self.models = {name: model.take(keep) for name, model in self.models.items()}
            if self.teacher is not None:
                self.teacher = self.teacher.take(keep)
        for name in ("learning_rate", "lam", "eta"):
            setattr(self, name, np.array([getattr(self.configs[i], name) for i in self.cells])
                    if self.stacked else getattr(self.config, name))

    def rngs(self, *tags) -> list[np.random.Generator]:
        """One generator per seed, from the seed or, given tags, ``derive_seed(seed, *tags)``."""
        return [make_rng(derive_seed(seed, *tags) if tags else seed) for seed in self.seeds]

    def init(self, rngs, initialize, *dims) -> Model:
        """``initialize(*dims, rng)`` on each seed's generator in turn: one cell's
        model, or the live cells' stack, each cell starting from its seed's draw."""
        per_seed = [initialize(*dims, rng) for rng in rngs]
        return type(per_seed[0]).stack(per_seed, self._seed_at) if self.stacked else per_seed[0]

    def index(self, draw: np.ndarray) -> np.ndarray:
        """A ``_draw`` as the live cells' row positions: one seed's ``(n,)``, which
        every cell shares, else each cell's own ``(K, n)``."""
        return draw if draw.ndim == 1 else draw.take(self._seed_at, axis=0)

    def rows(self, matrices, index) -> list[np.ndarray]:
        """A phase's batches at the live cells' row positions (one :meth:`index` per
        matrix): shared ``(n, d)`` rows, else each cell's own ``(K, n, d)``, its
        fit's from a ``(fits, n, d)`` block."""
        if self.fit_of is None:
            return [x.take(i, axis=0) for x, i in zip(matrices, index)]
        fits = self.fit_of[self.cells, None]
        return [x.reshape(-1, x.shape[-1]).take(i + fits * x.shape[-2], axis=0)
                for x, i in zip(matrices, index)]

    def cell_models(self, j) -> dict[str, Model]:
        """Live cell ``j``'s own models."""
        if not self.stacked:
            return dict(self.models)
        return {name: model.take(j) for name, model in self.models.items()}

    def attempt(self, compute: Callable[[], object]):
        """``compute()`` for the live cells, or None once no cell is left. When it
        raises ``NonFiniteCells``, the cells it marks fail with its message and it
        reruns for the rest, so it must change nothing before it raises."""
        while self.cells.size:
            try:
                return compute()
            except NonFiniteCells as exc:
                bad = np.broadcast_to(exc.cells, self.cells.shape)
                for i in self.cells[bad]:
                    self.outcomes[i] = InvalidInputError(str(exc))
                self._keep(~bad)
        return None

    def finish(self, done: np.ndarray, artifacts: Callable[[int, int], TrainedArtifacts]) -> None:
        """End the live cells ``done`` marks with ``artifacts(group position, live position)``."""
        for j in np.flatnonzero(done):
            self.outcomes[self.cells[j]] = artifacts(self.cells[j], j)
        self._keep(~done)

    def results(self, method: str, columns, values, shared=None) -> list[Outcome]:
        """Every cell's outcome, the live cells ending with their own slice of
        ``models`` and of the trace ``values``, plus cell ``i``'s ``shared[i]`` slots."""
        def artifacts(i, j):
            slots = {**self.cell_models(j), **(shared[i] if shared else {})}
            return TrainedArtifacts(method, self.configs[i], slots,
                                    TrainTrace(columns, values[:, i]))

        self.finish(np.ones(len(self.cells), dtype=bool), artifacts)
        return self.outcomes


def _one(outcomes: list[Outcome]) -> TrainedArtifacts:
    """The artifacts of a stack of one, or its error raised."""
    (outcome,) = outcomes
    if isinstance(outcome, PuhdaError):
        raise outcome
    return outcome


class Phase(NamedTuple):
    """One player's move in every step of a game.

    ``player`` steps by ``sign * learning_rate`` (+1 ascends, -1 descends)
    along the gradient of ``terms(*batches)``, with one batch drawn from each
    matrix of ``draws`` in order. Every batch is a ``RawBatch`` but the last,
    which ``n_common`` reads as aligned target rows (a ``TransformedBatch``)
    when given; the last batch is also the one a stack's teacher labels, and
    ``terms`` then takes those labels as ``teacher_probs``. A phase with a
    ``trace`` prefix adds its value and term values to the step's telemetry
    row, under the columns ``prefix + "value"`` and its term names; an
    untraced phase computes only its gradient.
    """

    player: str
    sign: int
    draws: tuple[np.ndarray, ...]
    terms: Callable[..., list]
    trace: str | None = None
    n_common: int | None = None


class _Move:
    """A phase's batches and terms for the live cells of a stack, made once on
    the first rows it plays (the batch constructors check them) and planned
    once (``LossPlan``). Every later step fills each batch's ``rows`` with its
    draw's gathered rows, by position, and the teacher's labels into the
    constant side; those rows are taken from matrices checked when they
    entered, so they are not checked again."""

    def __init__(self, stack: _Stack, phase: Phase, rows, index):
        *raw, last = rows
        self.batches = [RawBatch(r) for r in raw] + [
            RawBatch(last) if phase.n_common is None else TransformedBatch(last, phase.n_common)]
        self.labels = None if stack.teacher is None else stack.teacher.gather(index)
        self.loss = LossPlan(phase.terms(*self.batches) if self.labels is None
                             else phase.terms(*self.batches, teacher_probs=self.labels))

    def fill(self, stack: _Stack, rows, index) -> None:
        if self.labels is not None:
            stack.teacher.gather(index, into=self.labels)
        for batch, r in zip(self.batches, rows):
            batch.rows = r


def _play(stack: _Stack, key: int, phase: Phase, draws):
    """One phase on drawn batches (a ``_draw`` per matrix) for every live cell:
    its planned terms and loss, or None once no cell is left. Cells whose
    loss or update is not finite fail, and the phase replays on the same
    batches, gathered again, for the rest, with its terms built again."""
    def play():
        index = [stack.index(draw) for draw in draws]
        rows = stack.rows(phase.draws, index)
        move = stack.moves.get(key)
        if move is None:
            move = stack.moves[key] = _Move(stack, phase, rows, index[-1])
        else:
            move.fill(stack, rows, index[-1])
        res = loss_and_grads(stack.models, move.loss, wrt=(phase.player,),
                             values=phase.trace is not None)
        stack.models[phase.player].apply_step(res.grads[phase.player],
                                              phase.sign * stack.learning_rate)
        return move.loss.terms, res

    return stack.attempt(play)


def _run_phases(stack: _Stack, phases: list[Phase], rngs: list[np.random.Generator]):
    """Play ``phases`` in order for ``steps`` steps, drawing from each seed's
    generator in ``rngs``, updating ``stack.models`` in place. Returns the trace
    columns and the values of every cell of the group, ``(steps, cells,
    columns)``; the rows of a dropped cell are not filled."""
    steps = stack.config.steps
    columns: list[str] = []
    blocks: list[np.ndarray] = []   # one per traced phase: (steps, cells, 1 + terms)
    stack.moves = {}
    for step in range(steps):
        traced = 0
        for key, phase in enumerate(phases):
            played = _play(stack, key, phase, [_draw(rngs, x, stack.config.batch_size)
                                               for x in phase.draws])
            if played is None:
                return columns, None
            terms, res = played
            if phase.trace is not None:
                if step == 0:
                    blocks.append(np.full((steps, len(stack.configs), 1 + len(terms)), np.nan))
                    columns += (phase.trace + "value", *(term.name for term in terms))
                blocks[traced][step, stack.cells, 0] = res.value
                blocks[traced][step, stack.cells, 1:] = res.term_values
                traced += 1
    return columns, np.concatenate(blocks, axis=-1)


# --------------------------------------------------------------------------
# PU-only training


def _pan_stack(stack: _Stack, x_pos, x_unl, rngs):
    """Adversarial PU training on a single feature space.

    Models initialize D then C. Per step the discriminator ascends the full
    objective on fresh positive and unlabeled batches, then the classifier
    descends its term pair on a fresh unlabeled batch. With ``lam = 0`` the
    classifier's gradient is a zero matrix every step, so its parameters
    never leave initialization. The caller checks the rows (``check_pair``).
    """
    stack.models = {name: stack.init(rngs, LinearSoftmaxModel.initialize, x_pos.shape[-1])
                    for name in ("D", "C")}
    phases = [
        Phase("D", +1, (x_pos, x_unl), lambda bp, bu: pu_terms(bp, bu, stack.lam), trace=""),
        Phase("C", -1, (x_unl,), lambda bu: classifier_terms(bu, stack.lam)),
    ]
    return _run_phases(stack, phases, rngs)


def _com_p_stack(stack: _Stack, source: DomainMatrix, target: DomainMatrix, rngs):
    """PU training on the common columns, drawing from ``rngs``: the ``COM_P`` baseline,
    ``DIST``'s teacher and the first teacher of ``PADA_S``'s soft-label rounds."""
    _check_roles(source, target)
    if source.schema.c < 1:
        raise ConfigurationError("the common-features baseline needs at least one common column")
    return _pan_stack(stack, *check_pair("positive rows", source.common,
                                         "unlabeled rows", target.common), rngs)


def com_p_group(source: DomainMatrix, target: DomainMatrix, configs) -> list[Outcome]:
    """The common-features baseline: PU training on the shared columns only."""
    stack = _Stack(configs)
    return stack.results("COM_P", *_com_p_stack(stack, source, target, stack.rngs()))


def train_com_p(source: DomainMatrix, target: DomainMatrix, config: TrainConfig) -> TrainedArtifacts:
    return _one(com_p_group(source, target, (config,)))


# --------------------------------------------------------------------------
# Heterogeneous training


def _pada_loop(stack: _Stack, x_s, x_t, n_common, s_dim, rngs):
    """One full joint run; a stack with a teacher adds its pair (weight eta).

    Random sequence per run: initialize D, C, F in that order, then per step
    draw source+target batches for the D phase, source+target batches for the
    F phase, and one target batch for the C phase. A taught run draws exactly
    the same sequence, so eta = 0 reproduces the plain run bit-for-bit.
    """
    stack.models = {name: stack.init(rngs, LinearSoftmaxModel.initialize, x_s.shape[1])
                    for name in ("D", "C")}
    stack.models["F"] = stack.init(rngs, LinearTransform.initialize, x_t.shape[1], s_dim)

    def full_terms(bs, bt, teacher_probs=None):
        return pu_terms(bs, bt, stack.lam, teacher_probs=teacher_probs, eta=stack.eta)

    def classifier_pair(bt, teacher_probs=None):
        return classifier_terms(bt, stack.lam, teacher_probs=teacher_probs, eta=stack.eta)

    phases = [
        Phase("D", +1, (x_s, x_t), full_terms, trace="", n_common=n_common),
        Phase("F", -1, (x_s, x_t), full_terms, n_common=n_common),
        Phase("C", -1, (x_t,), classifier_pair, n_common=n_common),
    ]
    return _run_phases(stack, phases, rngs)


def pada_group(source: DomainMatrix, target: DomainMatrix, configs) -> list[Outcome]:
    """Joint alignment-plus-PU training.

    The transform fills the source-specific slots of target rows, the
    discriminator scores source rows against aligned target rows, and the
    classifier learns from the discriminator on aligned target rows.
    """
    _check_domains(source, target)
    schema = source.schema
    stack = _Stack(configs)
    trace = _pada_loop(stack, source.features(), target.features(), schema.c, schema.s,
                       stack.rngs())
    return stack.results("PADA", *trace)


def train_pada(source: DomainMatrix, target: DomainMatrix, config: TrainConfig) -> TrainedArtifacts:
    return _one(pada_group(source, target, (config,)))


def pada_s_group(source: DomainMatrix, target: DomainMatrix, val_target: DomainMatrix,
                 configs) -> list[Outcome]:
    """Soft-label rounds on top of the joint training.

    The first teacher is a PU classifier trained on common features alone;
    each round trains the joint objective against that frozen teacher, the
    round's classifier (composed with its frozen transform) becomes the next
    teacher, and rounds stop once validation accuracy fails to improve for
    ``val_patience`` rounds or ``max_soft_rounds`` is reached. Returns the
    best round by validation accuracy. Round 1 consumes exactly the same
    random sequence as the plain joint trainer under the same config. The
    discriminator and transform restart fresh each round; only the teacher
    carries over. Every round of a stack runs its live cells in lockstep; a
    cell whose rounds stop leaves the stack with its best round.
    """
    _check_domains(source, target)
    if val_target.labels is None:
        raise ConfigurationError("soft-label rounds need a labeled validation matrix")
    schema = source.schema
    x_s = source.features()
    x_t = target.features()
    stack = _Stack(configs)
    config = stack.config

    _com_p_stack(stack, source, target, stack.rngs("soft-base"))
    stack.teacher = frozen_teacher(stack.models, schema.c, x_t)
    val_accs = {i: [] for i in stack.cells}
    best_run = {}

    def artifacts(i, j):
        return TrainedArtifacts("PADA_S", stack.configs[i], *best_run[i],
                                round_val_accuracy=tuple(val_accs[i]))

    for round_idx in range(1, config.max_soft_rounds + 1):
        rngs = stack.rngs() if round_idx == 1 else stack.rngs("soft-round", round_idx)
        columns, values = _pada_loop(stack, x_s, x_t, schema.c, schema.s, rngs)
        accs = _val_accuracies(stack, val_target)
        stop = np.zeros(len(stack.cells), dtype=bool)
        for j, acc in enumerate(accs):
            i = stack.cells[j]
            val_accs[i].append(acc)
            best = int(np.argmax(val_accs[i]))   # the first round with the top accuracy
            if best == round_idx - 1:
                best_run[i] = (stack.cell_models(j), TrainTrace(columns, values[:, i]))
            elif round_idx - 1 - best >= config.val_patience:
                stop[j] = True
        stack.finish(stop, artifacts)
        if not stack.cells.size or round_idx == config.max_soft_rounds:
            break   # no round follows, so no teacher is built
        stack.teacher = frozen_teacher(stack.models, schema.c, x_t)
    stack.finish(np.ones(len(stack.cells), dtype=bool), artifacts)
    return stack.outcomes


def _val_accuracies(stack: _Stack, val_target: DomainMatrix) -> list[float]:
    """Each live cell's validation accuracy; a cell it cannot score fails."""
    def score():
        probs = stack.models["C"].classify(METHOD_TABLE["PADA_S"].rows(stack.models, val_target))
        return [accuracy(p, val_target.labels) for p in (probs if stack.stacked else [probs])]

    return stack.attempt(score) or []


def train_pada_s(
    source: DomainMatrix,
    target: DomainMatrix,
    config: TrainConfig,
    val_target: DomainMatrix,
) -> TrainedArtifacts:
    return _one(pada_s_group(source, target, val_target, (config,)))


def pada_f_group(source: DomainMatrix, target: DomainMatrix, configs) -> list[Outcome]:
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
    stack = _Stack(configs)
    rngs = stack.rngs()
    stack.models = {name: stack.init(rngs, LinearSoftmaxModel.initialize, x_s.shape[1])
                    for name in ("D", "C")}
    stack.models["F"] = stack.init(rngs, LinearTransform.initialize, x_t.shape[1], schema.s)
    stack.models["Df"] = stack.init(rngs, LinearSoftmaxModel.initialize, x_s.shape[1])

    c = schema.c
    phases = [
        Phase("D", +1, (x_s, x_t), lambda bs, bt: pu_terms(bs, bt, stack.lam), trace="",
              n_common=c),
        Phase("Df", +1, (x_s, x_t), domain_adv_terms, trace="adv_", n_common=c),
        Phase("F", -1, (x_s, x_t), domain_adv_terms, n_common=c),
        Phase("C", -1, (x_t,), lambda bt: classifier_terms(bt, stack.lam), n_common=c),
    ]
    return stack.results("PADA_F", *_run_phases(stack, phases, rngs))


def train_pada_f(source: DomainMatrix, target: DomainMatrix, config: TrainConfig) -> TrainedArtifacts:
    return _one(pada_f_group(source, target, (config,)))


# --------------------------------------------------------------------------
# Feature completion and its composite baseline


def train_dsft(
    source: DomainMatrix, target: DomainMatrix, config: TrainConfig
) -> tuple[TrainedArtifacts, np.ndarray, np.ndarray]:
    """Fit the two completion maps and return them with the completed rows.

    Full-batch descent with a backtracking step size on a convex objective:
    a step is only taken when it does not increase the loss, so the recorded
    loss trace is non-increasing; a step whose update overflows is halved
    like one that increases it. Returns the artifacts plus the completed
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
    blocks = CompletionBlocks(source.common, source.specific, target.common, target.specific,
                              config.gamma_mmd)
    values = np.empty((config.steps, 5))
    step_size = config.learning_rate
    res = dsft_loss(blocks, psi_s, psi_t)
    for step in range(config.steps):
        taken = 0.0
        for _ in range(40):
            cand_s, cand_t = copy.copy(psi_s), copy.copy(psi_t)
            try:
                cand_s.apply_step(res.grads["psi_s"], -step_size)
                cand_t.apply_step(res.grads["psi_t"], -step_size)
                cand = dsft_loss(blocks, cand_s, cand_t)
                better = cand.value <= res.value
            except NonFiniteCells:   # an overflowing step is rejected like a worse one
                better = False
            if better:
                psi_s, psi_t = cand_s, cand_t
                taken = step_size
                step_size = min(step_size * 2.0, 1e3)
                res = cand
                break
            step_size *= 0.5
        values[step] = (res.value, res.rec_source, res.rec_target, res.mmd, taken)

    trace = TrainTrace(("value", "rec_source", "rec_target", "mmd", "step_size"), values)
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


def dsft_p_group(source: DomainMatrix, target: DomainMatrix, configs) -> list[Outcome]:
    """Completion-then-PU composite baseline.

    Fits the completion maps first (own derived seed), then runs PU training
    on the completed rows under the config seed. The returned trace is the
    PU stage's. The fit reads the learning rate and the seed, so the maps are
    fitted once per (learning rate, seed) of the stack into a ``(fits, n, d)``
    block of completed rows per side, and one stacked PU stage trains every
    cell on its fit's rows. A fit that raises, or whose rows are not finite,
    fails only its cells, as it would fail a stack of one.
    """
    stack = _Stack(configs)   # the whole stack shares one budget
    fits: dict[tuple, int] = {}   # (learning rate, seed) -> position on the fit axis
    fit_of = np.array([fits.setdefault((c.learning_rate, c.seed), len(fits))
                       for c in stack.configs])
    maps: list = [None] * len(fits)
    schema = source.schema   # every fit's completed rows, [common | source-spec | target-spec]
    blocks = [np.empty((len(fits), d.n, schema.c + schema.s + schema.t)) for d in (source, target)]
    for (rate, seed), f in fits.items():
        try:
            fit, xs_hat, xt_hat = train_dsft(source, target, replace(
                stack.config, learning_rate=rate, seed=derive_seed(seed, "completion-fit")))
            check_pair("positive rows", xs_hat, "unlabeled rows", xt_hat)
        except PuhdaError as exc:
            for i in np.flatnonzero(fit_of == f):
                stack.outcomes[i] = exc
            continue
        blocks[0][f], blocks[1][f], maps[f] = xs_hat, xt_hat, fit.models()
        del xs_hat, xt_hat   # only the blocks hold completed rows while the next fit runs
    stack._keep(np.array([maps[f] is not None for f in fit_of]))
    if not stack.cells.size:
        return stack.outcomes
    stack.fit_of = fit_of if len(fits) > 1 else None   # one fit's rows are shared
    trace = _pan_stack(stack, *(block if len(fits) > 1 else block[0] for block in blocks),
                       stack.rngs())
    return stack.results("DSFT_P_linear", *trace, shared=[maps[f] for f in fit_of])


def train_dsft_p(
    source: DomainMatrix, target: DomainMatrix, config: TrainConfig
) -> TrainedArtifacts:
    return _one(dsft_p_group(source, target, (config,)))


# --------------------------------------------------------------------------
# Distillation and probe training


def _dist_stack(stack: _Stack, target: DomainMatrix, base_classifier: LinearSoftmaxModel):
    """Distill a frozen common-features teacher into a full-feature student.

    Per step: draw a target batch, read the teacher's output on its common
    columns, descend the student on the matching divergence over the full
    rows. The student is the run's only model, slot C. ``base_classifier``
    holds one teacher per live cell, stacked as the stack is.
    """
    if target.role != "target":
        raise ConfigurationError("distillation trains on the target matrix")
    n_common = target.schema.c
    if base_classifier.input_dim != n_common:
        raise ConfigurationError(
            f"teacher expects {base_classifier.input_dim} columns, schema has {n_common} common"
        )
    x_t = target.features()
    stack.teacher = frozen_teacher({"C": base_classifier}, n_common, x_t)
    rngs = stack.rngs()
    stack.models = {"C": stack.init(rngs, LinearSoftmaxModel.initialize, x_t.shape[1])}
    phases = [Phase("C", -1, (x_t,),
                    lambda bt, teacher_probs: distillation_terms(teacher_probs, bt), trace="")]
    return _run_phases(stack, phases, rngs)


def dist_group(source: DomainMatrix, target: DomainMatrix, configs) -> list[Outcome]:
    """The distillation baseline, its common-features teacher trained in the same stack."""
    stack = _Stack(configs)
    _com_p_stack(stack, source, target, stack.rngs())
    return stack.results("DIST", *_dist_stack(stack, target, stack.models["C"]))


def train_dist(
    target: DomainMatrix, base_classifier: LinearSoftmaxModel, config: TrainConfig
) -> TrainedArtifacts:
    """One cell of distillation from the given teacher (see ``_dist_stack``)."""
    stack = _Stack((config,))
    return _one(stack.results("DIST", *_dist_stack(stack, target, base_classifier)))


def train_discriminator(x_a, x_b, config: TrainConfig) -> TrainedArtifacts:
    """Plain supervised two-class probe: rows of ``x_a`` are the positive
    class. Used for the post-hoc domain-separability diagnostics."""
    x_a, x_b = check_pair("class-a rows", x_a, "class-b rows", x_b)
    stack = _Stack((config,))
    rngs = stack.rngs()
    stack.models = {"D": stack.init(rngs, LinearSoftmaxModel.initialize, x_a.shape[1])}
    phases = [Phase("D", +1, (x_a, x_b), supervised_terms, trace="")]
    return _one(stack.results("D_PRIME", *_run_phases(stack, phases, rngs)))


# --------------------------------------------------------------------------
# Prediction


def align_features(transform: LinearTransform, dm: DomainMatrix) -> np.ndarray:
    """Target rows mapped into the source layout: ``[common | F(full row)]``."""
    return transform.align(dm.features(), dm.schema.c)


def _aligned_rows(slots: dict[str, Model], dm: DomainMatrix) -> np.ndarray:
    return align_features(slots["F"], dm)


@dataclass(frozen=True)
class Method:
    """One pipeline method: how it trains a stack of cells from
    ``(source, train, val, configs)``, which rows its classifier scores, and
    whether its grid has an ``eta`` axis. ``rows(slots, dm)`` reads a matrix
    through trained models under their slot names, one cell's or a stack's."""

    group: Callable[..., list[Outcome]]
    rows: Callable[[dict[str, Model], DomainMatrix], np.ndarray]
    searches_eta: bool = False


# The methods a config can name, in report order. Entries look trainers up by
# module name at call time, so a replaced module attribute is what runs.
METHOD_TABLE = {
    "COM_P": Method(lambda s, t, v, cs: com_p_group(s, t, cs), lambda slots, dm: dm.common),
    "DIST": Method(lambda s, t, v, cs: dist_group(s, t, cs), lambda slots, dm: dm.features()),
    "DSFT_P_linear": Method(lambda s, t, v, cs: dsft_p_group(s, t, cs),
                            lambda slots, dm: complete_features(slots["psi_s"], slots["psi_t"], dm)),
    "PADA": Method(lambda s, t, v, cs: pada_group(s, t, cs), _aligned_rows),
    "PADA_S": Method(lambda s, t, v, cs: pada_s_group(s, t, v, cs), _aligned_rows,
                     searches_eta=True),
    "PADA_F": Method(lambda s, t, v, cs: pada_f_group(s, t, cs), _aligned_rows),
}


def predict(artifacts: TrainedArtifacts, dm: DomainMatrix) -> np.ndarray:
    """Probability pairs for a matrix: the classifier scores the rows its
    method's ``Method.rows`` reads through the run's slots."""
    entry = METHOD_TABLE.get(artifacts.method)
    if entry is None:
        raise ConfigurationError(f"method {artifacts.method!r} has no prediction rule")
    return artifacts.classifier.classify(entry.rows(artifacts.slots, dm))
