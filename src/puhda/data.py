"""Feature schemas, domain matrices, loading, splitting, aggregation, and the
synthetic benchmark generator.

A :class:`FeatureSchema` names three disjoint column groups: features shared
by both domains, features only the source domain observes, and features only
the target domain observes. A :class:`DomainMatrix` holds one domain's rows
as two blocks, ``[common | own-specific]``, plus hidden labels when the data
construction knows them. Hidden labels are evaluation-only: trainers never
see them, the harness uses them for validation, final scoring, and
analytics. Source matrices are positive-only by construction, which is the
defining constraint of the setting.

Matrices are float64 and immutable once built; a saved matrix reads back
bit-exactly through :func:`load_csv` with the schema its JSON sidecar records.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, DataError, InvalidInputError, SchemaError
from .numerics import (
    NonNegativeFloat,
    NonNegativeInt,
    OpenUnitFloat,
    PositiveFloat,
    PositiveInt,
    UnitFloat,
    check_fields,
    derive_rng,
    require_finite,
)

ROLES = ("source", "target")


@dataclass(frozen=True)
class FeatureSchema:
    """Named, disjoint feature groups shared between the two domains."""

    common: tuple[str, ...]
    source_specific: tuple[str, ...]
    target_specific: tuple[str, ...]
    label_column: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "common", tuple(self.common))
        object.__setattr__(self, "source_specific", tuple(self.source_specific))
        object.__setattr__(self, "target_specific", tuple(self.target_specific))
        groups = [self.common, self.source_specific, self.target_specific]
        flat = [name for g in groups for name in g]
        if len(set(flat)) != len(flat):
            raise SchemaError("feature groups must be disjoint with no duplicates")
        if self.label_column is not None and self.label_column in flat:
            raise SchemaError(f"label column {self.label_column!r} cannot also be a feature")

    @property
    def c(self) -> int:
        return len(self.common)

    @property
    def s(self) -> int:
        return len(self.source_specific)

    @property
    def t(self) -> int:
        return len(self.target_specific)

    def specific_for(self, role: str) -> tuple[str, ...]:
        _check_role(role)
        return self.source_specific if role == "source" else self.target_specific

    def require_heterogeneous(self) -> None:
        """Adaptation across feature spaces needs both specific blocks non-empty."""
        if self.s < 1 or self.t < 1:
            raise SchemaError(
                f"heterogeneous methods need source- and target-specific features, "
                f"got s={self.s}, t={self.t}"
            )


def _check_role(role: str) -> None:
    if role not in ROLES:
        raise InvalidInputError(f"role must be one of {ROLES}, got {role!r}")


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr, dtype=np.float64)
    out.setflags(write=False)
    return out


class DomainMatrix:
    """One domain's rows: a common block plus that domain's specific block.

    ``labels`` (0/1, 1 = positive) are hidden evaluation-only labels; a source
    matrix may only carry positive ones. ``aux_specific`` optionally holds the
    other domain's specific features for the same rows, when the data
    construction makes them observable; it exists purely for analytics and is
    never fed to a trainer.
    """

    def __init__(self, schema, role, common, specific, labels=None, aux_specific=None):
        _check_role(role)
        self.schema = schema
        self.role = role
        self.common = _readonly(require_finite("common block", common))
        self.specific = _readonly(require_finite("specific block", specific))
        if self.common.ndim != 2 or self.specific.ndim != 2:
            raise InvalidInputError("domain matrix blocks must be 2-D")
        if self.common.shape[0] != self.specific.shape[0]:
            raise InvalidInputError(
                f"block row mismatch: {self.common.shape[0]} vs {self.specific.shape[0]}"
            )
        if self.common.shape[1] != schema.c:
            raise SchemaError(
                f"common block has {self.common.shape[1]} columns, schema says {schema.c}"
            )
        own = len(schema.specific_for(role))
        if self.specific.shape[1] != own:
            raise SchemaError(
                f"{role}-specific block has {self.specific.shape[1]} columns, schema says {own}"
            )
        if labels is not None:
            lab = np.asarray(labels)
            if lab.shape != (self.common.shape[0],):
                raise InvalidInputError(
                    f"labels must be one per row, got shape {lab.shape}"
                )
            if not np.all(np.isin(lab, (0, 1))):
                raise InvalidInputError("labels must be 0 (negative) or 1 (positive)")
            lab = np.ascontiguousarray(lab, dtype=np.int8)
            if role == "source" and np.any(lab == 0):
                raise InvalidInputError("a source matrix can only carry positive labels")
            lab.setflags(write=False)
            self.labels = lab
        else:
            self.labels = None
        if aux_specific is not None:
            aux = _readonly(require_finite("aux block", aux_specific))
            other = len(schema.specific_for("target" if role == "source" else "source"))
            if aux.shape != (self.common.shape[0], other):
                raise SchemaError(
                    f"aux block shape {aux.shape} does not match ({self.common.shape[0]}, {other})"
                )
            self.aux_specific = aux
        else:
            self.aux_specific = None

    @property
    def n(self) -> int:
        return self.common.shape[0]

    def features(self) -> np.ndarray:
        """Rows in ``[common | own-specific]`` layout."""
        return np.hstack([self.common, self.specific])

    def select(self, indices) -> "DomainMatrix":
        idx = np.asarray(indices)
        return DomainMatrix(
            self.schema,
            self.role,
            self.common[idx],
            self.specific[idx],
            labels=None if self.labels is None else self.labels[idx],
            aux_specific=None if self.aux_specific is None else self.aux_specific[idx],
        )


# --------------------------------------------------------------------------
# Delimited text: the one table writer and the one table reader


def format_cell(value) -> str:
    """One table cell: a float in shortest round-trip form, None as empty."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def write_table(path, header, rows) -> None:
    """Comma-separated rows under ``header``, every cell through :func:`format_cell`: a
    row of Python floats and ints is joined as its cells' ``repr`` (never quoted), and the
    csv writer quotes a cell of any other row holding a comma, quote or newline."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            if {float, int}.issuperset(map(type, row)):
                fh.write(",".join(map(repr, row)) + "\n")
            else:
                writer.writerow([format_cell(v) for v in row])


def read_table(path):
    """A headered comma-separated file as ``(header, rows)``.

    The header's names come trimmed. ``rows`` yields ``(row number, cells)``
    per data row, numbered from 1 after the header, and closes the file when
    exhausted or dropped. A row with fewer cells than the header is skipped
    if blank (nothing but whitespace), keeping its number, and otherwise is
    a DataError naming the file, as are an empty file and one that cannot be
    opened.
    """
    rows = _table_rows(Path(path))
    return next(rows), rows


def _table_rows(path: Path):
    try:
        fh = path.open(newline="")
    except OSError as exc:
        raise DataError(f"{path}: cannot read: {exc.strerror or exc}") from None
    with fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DataError(f"{path}: file is empty")
        yield [h.strip() for h in header]
        width = len(header)
        for i, row in enumerate(reader, start=1):
            if len(row) < width:
                if not "".join(row).strip():
                    continue
                raise DataError(f"{path}: row {i} has {len(row)} cells, header has {width}")
            yield i, row


def parse_float(path, row: int, column: str, cell: str) -> float:
    """``cell`` as a finite float; otherwise a DataError naming file, row and column."""
    try:
        value = float(cell)
    except ValueError:
        raise DataError(
            f"{path}: row {row}, column {column!r}: cannot parse {cell.strip()!r}") from None
    if not math.isfinite(value):
        raise DataError(
            f"{path}: row {row}, column {column!r}: {cell.strip()!r} is not a finite number")
    return value


def column_positions(path, header, names) -> list[int]:
    """Where each of ``names`` sits in ``header``; a missing one is a SchemaError."""
    for name in names:
        if name not in header:
            raise SchemaError(f"{path}: missing column {name!r}")
    return [header.index(name) for name in names]


def load_csv(path, schema: FeatureSchema, role: str, positive_value: str = "1") -> DomainMatrix:
    """Load one domain's rows from a delimited text file.

    The header must contain every common column and every ``role``-specific
    column; the label column is parsed when the schema declares it and the
    file has it (values equal to ``positive_value`` after trimming are
    positive). If the file also carries all of the other domain's specific
    columns they are loaded into the auxiliary analytics block. A value cell
    that is not a finite number is a DataError naming the file, row and column,
    and a negative label in a source file an InvalidInputError naming the file.
    """
    _check_role(role)
    header, rows = read_table(path)
    columns = list(schema.common) + list(schema.specific_for(role))
    own = len(columns)
    positions = column_positions(path, header, columns)
    other_cols = schema.specific_for("target" if role == "source" else "source")
    if other_cols and all(col in header for col in other_cols):
        columns += other_cols
        positions += column_positions(path, header, other_cols)
    label_pos = header.index(schema.label_column) if schema.label_column in header else None

    values, labels = (_numpy_pass(path, len(header), positions, label_pos, positive_value)
                      or _row_scan(path, rows, columns, positions, label_pos, positive_value))
    aux = values[:, own:] if len(columns) > own else None
    try:
        return DomainMatrix(schema, role, values[:, :schema.c], values[:, schema.c:own],
                            labels=labels, aux_specific=aux)
    except InvalidInputError as exc:   # a negative label in a source file
        raise InvalidInputError(f"{path}: {exc}") from None


def _numpy_pass(path, width, positions, label_pos, positive_value):
    """A domain file's body as ``(values, labels)`` in one ``np.loadtxt`` pass, or None for a
    file it cannot read as the row scan does (README "Where inputs are validated" lists them)."""
    converters = {j: (lambda cell: 0.0) for j in range(width) if j not in positions}
    if label_pos is not None:
        converters[label_pos] = lambda cell: cell.strip() == positive_value
    try:
        with Path(path).open(newline="") as fh:
            header_line, body_at = fh.readline(), fh.tell()
            body = iter(lambda: fh.read(1 << 20), "")
            first = next(body, "")
            # no data row (loadtxt would warn), the csv reader's quoting, line ends and NUL
            # (an error before Python 3.11), or a separator NumPy strips and float does not
            if not first.strip("\n") or any(c in chunk for chunk in chain((header_line, first), body)
                                            for c in '"\r\x00\x1c\x1d\x1e\x1f'):
                return None
            fh.seek(body_at)
            table = np.loadtxt(fh, dtype=np.float64, delimiter=",", comments=None,
                               converters=converters, ndmin=2)
    except ValueError:  # an unparsed cell, a row of another width, or undecodable text
        return None
    if table.shape[1] != width or not np.isfinite(values := table[:, positions]).all():
        return None
    return values, None if label_pos is None else table[:, label_pos].astype(np.int8)


def _row_scan(path, rows, columns, positions, label_pos, positive_value):
    """A domain file's body cell by cell through ``float``, as ``(values, labels)``;
    the first cell it rejects, in file order, is a DataError naming its row and column."""
    values, labels = [], []
    for i, row in rows:
        try:
            cells = [float(row[p]) for p in positions]
            fast = math.isfinite(sum(cells))   # a sum that overflows is parsed cell by cell too
        except ValueError:
            fast = False
        if not fast:
            cells = [parse_float(path, i, c, row[p]) for c, p in zip(columns, positions)]
        values.append(cells)
        if label_pos is not None:
            labels.append(1 if row[label_pos].strip() == positive_value else 0)
    if not values:
        raise DataError(f"{path}: no data rows")
    return (np.array(values, dtype=np.float64),
            np.array(labels, dtype=np.int8) if label_pos is not None else None)


# --------------------------------------------------------------------------
# Serialization


_SAVE_ROWS = 1024   # rows joined and formatted at a time, so no whole-matrix copy is made


def save_domain_matrix(dm: DomainMatrix, path) -> None:
    """Write a matrix as delimited text plus a JSON schema sidecar.

    Floats are written with shortest round-trip formatting, so reloading
    gives bit-identical values through :func:`load_csv` with the sidecar's schema
    and role (``label_header`` names the label column); no package code reads it.
    """
    path = Path(path)
    header = list(dm.schema.common) + list(dm.schema.specific_for(dm.role))
    blocks = [dm.common, dm.specific]
    if dm.aux_specific is not None:
        header += dm.schema.specific_for("target" if dm.role == "source" else "source")
        blocks.append(dm.aux_specific)
    rows = (row for start in range(0, dm.n, _SAVE_ROWS)
            for row in np.hstack([b[start:start + _SAVE_ROWS] for b in blocks]).tolist())
    if dm.labels is not None:
        header.append(dm.schema.label_column or "label")
        rows = (cells + [label] for cells, label in zip(rows, dm.labels.tolist()))
    write_table(path, header, rows)
    sidecar = {
        "format": 1,
        "role": dm.role,
        "schema": asdict(dm.schema),
        "has_labels": dm.labels is not None,
        "has_aux": dm.aux_specific is not None,
        "label_header": (dm.schema.label_column or "label") if dm.labels is not None else None,
    }
    Path(str(path) + ".schema.json").write_text(json.dumps(sidecar, indent=2, sort_keys=True))


# --------------------------------------------------------------------------
# Splitting


@dataclass(frozen=True)
class SplitSpec:
    """Deterministic train/val/test fractions; stratified when labels exist."""

    train: PositiveFloat
    val: PositiveFloat
    test: PositiveFloat
    seed: NonNegativeInt = 0

    def __post_init__(self):
        check_fields(self)
        total = self.train + self.val + self.test
        if abs(total - 1.0) > 1e-9:
            raise ConfigurationError(f"split fractions must sum to 1, got {total}")


def split(dm: DomainMatrix, spec: SplitSpec) -> tuple[DomainMatrix, DomainMatrix, DomainMatrix]:
    """Partition rows into train/val/test, at the positions :func:`split_rows` picks."""
    return tuple(dm.select(idx) for idx in split_rows(dm, spec))


def split_rows(dm: DomainMatrix, spec: SplitSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sorted row positions of the train/val/test partition.

    With hidden labels the shuffle is stratified per class so split label
    proportions track the full matrix; row order inside each split keeps the
    original ordering. Identical spec and matrix give identical splits.
    """
    rng = derive_rng(spec.seed, "split")
    if dm.labels is not None and len(np.unique(dm.labels)) > 1:
        class_pools = [np.flatnonzero(dm.labels == v) for v in (0, 1)]
    else:
        class_pools = [np.arange(dm.n)]
    picks: list[list[np.ndarray]] = [[], [], []]
    for pool in class_pools:
        perm = pool[rng.permutation(len(pool))]
        n_train = int(np.floor(spec.train * len(pool)))
        n_val = int(np.floor(spec.val * len(pool)))
        picks[0].append(perm[:n_train])
        picks[1].append(perm[n_train : n_train + n_val])
        picks[2].append(perm[n_train + n_val :])
    parts = tuple(np.sort(np.concatenate(groups)) for groups in picks)
    for name, idx in zip(("train", "val", "test"), parts):
        if idx.size == 0:
            raise ConfigurationError(f"split produced an empty {name} set (n={dm.n})")
    return parts


# --------------------------------------------------------------------------
# Standardization


@dataclass(frozen=True)
class ColumnStats:
    mean: np.ndarray
    std: np.ndarray

    def apply(self, values: np.ndarray) -> np.ndarray:
        return (values - self.mean) / self.std


def _fit_stats(values: np.ndarray) -> ColumnStats:
    mean = values.mean(axis=0)
    std = values.std(axis=0)
    std = np.where(std == 0.0, 1.0, std)  # constant columns stay centered
    return ColumnStats(mean, std)


def standardize_splits(
    source: DomainMatrix,
    target_train: DomainMatrix,
    target_val: DomainMatrix,
    target_test: DomainMatrix,
) -> tuple[DomainMatrix, DomainMatrix, DomainMatrix, DomainMatrix]:
    """Z-score all matrices using training statistics only.

    Common columns pool source and target-train rows (the alignment methods
    compare domains on these columns, so both get the same affine map);
    specific columns use their own domain's training rows. Validation and
    test reuse the training statistics.
    """
    common_stats = _fit_stats(np.vstack([source.common, target_train.common]))
    source_spec_stats = _fit_stats(source.specific)
    target_spec_stats = _fit_stats(target_train.specific)

    def rebuild(dm: DomainMatrix) -> DomainMatrix:
        spec_stats = source_spec_stats if dm.role == "source" else target_spec_stats
        aux = None
        if dm.aux_specific is not None:
            aux_stats = target_spec_stats if dm.role == "source" else source_spec_stats
            aux = aux_stats.apply(dm.aux_specific)
        return DomainMatrix(
            dm.schema,
            dm.role,
            common_stats.apply(dm.common),
            spec_stats.apply(dm.specific),
            labels=dm.labels,
            aux_specific=aux,
        )

    return rebuild(source), rebuild(target_train), rebuild(target_val), rebuild(target_test)


# --------------------------------------------------------------------------
# Ratings aggregation


def load_ratings_file(path) -> list[tuple[str, str, float]]:
    """Read (user, item, rating) triples from a headered delimited file."""
    header, rows = read_table(path)
    header = [h.lower() for h in header]
    u_pos, i_pos, r_pos = column_positions(path, header, ("user", "item", "rating"))
    return [(row[u_pos].strip(), row[i_pos].strip(), parse_float(path, i, "rating", row[r_pos]))
            for i, row in rows]


def load_genre_file(path) -> dict[str, tuple[str, ...]]:
    """Read an item-to-genres map; genres are pipe-separated in column two."""
    header, rows = read_table(path)
    if len(header) < 2:
        raise SchemaError(f"{path}: header must name an item and a genres column")
    return {row[0].strip(): tuple(g.strip() for g in row[1].split("|") if g.strip())
            for _, row in rows}


def aggregate_ratings(
    ratings,
    genres: dict,
    common_genres,
    target_genres,
    source_genres,
    label_genre: str,
    role: str,
) -> DomainMatrix:
    """Turn rating triples into per-user genre-preference features.

    A user's feature for genre g is the mean rating of their items carrying g
    minus their overall mean rating; users who rated no item of g get 0. The
    hidden label is positive when the user's label-genre feature is strictly
    above 0 (a tie is negative); the label genre is excluded from every
    feature block. Source-role output keeps only positive users, matching the
    positive-only source construction. Output row order is sorted by user id,
    so it does not depend on the order of the input triples. Both specific
    blocks are computed, the off-role one landing in the auxiliary analytics
    block.
    """
    _check_role(role)
    common_genres = tuple(common_genres)
    target_genres = tuple(target_genres)
    source_genres = tuple(source_genres)
    schema = FeatureSchema(common_genres, source_genres, target_genres, label_column=label_genre)
    if label_genre in common_genres + target_genres + source_genres:
        raise SchemaError(f"label genre {label_genre!r} must be excluded from the feature genres")

    by_user: dict[str, list[tuple[str, float]]] = {}
    for user, item, rating in ratings:
        if item not in genres:
            raise DataError(f"item {item!r} has no genre entry")
        if not genres[item]:
            raise DataError(f"item {item!r} has an empty genre list")
        by_user.setdefault(user, []).append((item, float(rating)))

    needed = common_genres + source_genres + target_genres + (label_genre,)
    feature_rows = []
    for user in sorted(by_user):
        entries = by_user[user]
        overall = sum(r for _, r in entries) / len(entries)
        sums: dict[str, float] = {}
        counts: dict[str, int] = {}
        for item, rating in entries:
            for g in genres[item]:
                sums[g] = sums.get(g, 0.0) + rating
                counts[g] = counts.get(g, 0) + 1
        feature_rows.append(
            {g: (sums[g] / counts[g] - overall) if counts.get(g) else 0.0 for g in needed})
    if not feature_rows:
        raise DataError("no users with ratings to aggregate")
    if role == "source":
        feature_rows = [row for row in feature_rows if row[label_genre] > 0.0]
        if not feature_rows:
            raise DataError("no positive users for the source domain")

    def block(names):
        return np.array([[r[g] for g in names] for r in feature_rows], dtype=np.float64)

    own, other = ((source_genres, target_genres) if role == "source"
                  else (target_genres, source_genres))
    return DomainMatrix(
        schema, role, block(common_genres), block(own),
        labels=np.array([1 if r[label_genre] > 0.0 else 0 for r in feature_rows], dtype=np.int8),
        aux_specific=block(other) if other else None,
    )


# --------------------------------------------------------------------------
# Synthetic benchmark generator


# No float64 array holds more elements than this (its byte count must fit
# np.intp), so a larger size field is rejected before anything is allocated.
_MAX_ARRAY_SIZE = np.iinfo(np.intp).max // np.dtype(np.float64).itemsize


@dataclass(frozen=True)
class SyntheticSpec:
    """Controls for the synthetic two-domain benchmark.

    A latent vector carries one label coordinate (mean ``+-label_separation``)
    plus ``latent_noise_dim`` label-free coordinates shared by all blocks.
    Block signal weights scale how strongly each block loads on the latent
    label coordinate; ``coupling`` interpolates the target-specific block
    between a copy of its latent loading (1.0) and independent noise (0.0),
    which directly controls how much target-specific structure the source
    side can explain. ``noise_scale`` adds per-feature Gaussian noise.
    """

    c: PositiveInt
    s: PositiveInt
    t: PositiveInt
    n_source: PositiveInt
    n_target: PositiveInt
    positive_ratio: OpenUnitFloat = 0.5
    signal_common: float = 0.5
    signal_source: float = 1.0
    signal_target: float = 1.0
    coupling: UnitFloat = 0.9
    noise_scale: NonNegativeFloat = 0.5
    seed: NonNegativeInt = 0
    latent_noise_dim: NonNegativeInt = 3   # 0: no latent noise
    label_separation: float = 1.0

    def __post_init__(self):
        check_fields(self)
        for name in ("c", "s", "t", "n_source", "n_target", "latent_noise_dim"):
            if getattr(self, name) > _MAX_ARRAY_SIZE:
                raise ConfigurationError(f"{name}: too large, got {getattr(self, name)!r}")
        n_pos = round(self.positive_ratio * self.n_target)
        if n_pos < 10 or self.n_target - n_pos < 10:
            raise ConfigurationError(
                f"positive_ratio {self.positive_ratio} with n_target {self.n_target} "
                f"leaves a class under 10 samples"
            )


def _structure(spec: SyntheticSpec):
    """Fixed loading matrices, drawn independently of sample counts."""
    rng = derive_rng(spec.seed, "structure")
    k = spec.latent_noise_dim

    def unit(dim):
        v = rng.normal(size=dim)
        return v / np.linalg.norm(v)

    d_c = unit(spec.c)
    d_s = unit(spec.s)
    d_t = unit(spec.t)
    q_c = rng.normal(size=(k, spec.c)) / np.sqrt(k)
    q_s = rng.normal(size=(k, spec.s)) / np.sqrt(k)
    q_t = rng.normal(size=(k, spec.t)) / np.sqrt(k)
    return d_c, d_s, d_t, q_c, q_s, q_t


def _draw_blocks(spec: SyntheticSpec, u: np.ndarray, rng) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Common, source-specific, and target-specific blocks for labels u in {-1,+1}, built in
    place with the bits of ``signal * (outer + z_rest @ q) + noise_scale * noise``."""
    d_c, d_s, d_t, q_c, q_s, q_t = _structure(spec)
    n = u.shape[0]
    k = spec.latent_noise_dim
    z0 = u * spec.label_separation + rng.normal(size=n)
    z_rest = rng.normal(size=(n, k))
    h = rng.normal(size=(n, spec.t))
    noise_c = rng.normal(size=(n, spec.c))
    noise_s = rng.normal(size=(n, spec.s))
    noise_t = rng.normal(size=(n, spec.t))

    def latent(d, q, signal):   # one buffer; IEEE + and * commute, so the bits are kept
        out = np.outer(z0, d)
        out += z_rest @ q
        return np.multiply(out, signal, out=out)

    rho = spec.coupling
    h *= np.sqrt(1.0 - rho * rho)
    h += rho * latent(d_t, q_t, spec.signal_target)
    for noise in (noise_c, noise_s, noise_t):
        noise *= spec.noise_scale
    noise_c += latent(d_c, q_c, spec.signal_common)
    noise_s += latent(d_s, q_s, spec.signal_source)
    noise_t += h
    return noise_c, noise_s, noise_t


def _draw_labels(spec: SyntheticSpec, n: int, rng) -> np.ndarray:
    y = np.zeros(n, dtype=np.int8)
    y[:round(spec.positive_ratio * n)] = 1
    return y[rng.permutation(n)]


def generate_synthetic(spec: SyntheticSpec) -> tuple[DomainMatrix, DomainMatrix, float]:
    """Draw both domains plus the exact-rule oracle accuracy on held-out rows.

    The source matrix holds only positive rows. The target matrix carries
    hidden labels at exactly ``round(positive_ratio * n_target)`` positives
    and includes the auxiliary source-specific block for analytics. The
    returned float is :func:`oracle_accuracy`, measured on an independent draw.
    """
    schema = FeatureSchema(
        common=tuple(f"com_{i}" for i in range(spec.c)),
        source_specific=tuple(f"src_{i}" for i in range(spec.s)),
        target_specific=tuple(f"tar_{i}" for i in range(spec.t)),
        label_column="label",
    )
    src_rng = derive_rng(spec.seed, "source-rows")
    u_src = np.ones(spec.n_source)
    common_s, spec_s, aux_t = _draw_blocks(spec, u_src, src_rng)
    source = DomainMatrix(
        schema, "source", common_s, spec_s,
        labels=np.ones(spec.n_source, dtype=np.int8),
        aux_specific=aux_t,
    )

    tgt_rng = derive_rng(spec.seed, "target-rows")
    y = _draw_labels(spec, spec.n_target, tgt_rng)
    u_tgt = 2.0 * y - 1.0
    common_t, aux_s, spec_t = _draw_blocks(spec, u_tgt, tgt_rng)
    target = DomainMatrix(
        schema, "target", common_t, spec_t, labels=y, aux_specific=aux_s
    )

    return source, target, oracle_accuracy(spec)


def _oracle_moments(spec: SyntheticSpec):
    """Class-conditional mean (for u=+1) and shared covariance of the target's
    columns, common then target-specific."""
    d_c, _, d_t, q_c, _, q_t = _structure(spec)
    rho = spec.coupling
    m = np.concatenate([spec.signal_common * spec.label_separation * d_c,
                        rho * spec.signal_target * spec.label_separation * d_t])
    b = np.concatenate([spec.signal_common * d_c, rho * spec.signal_target * d_t])
    q = np.hstack([spec.signal_common * q_c, rho * spec.signal_target * q_t])
    noise = np.concatenate([np.full(spec.c, spec.noise_scale**2),
                            np.full(spec.t, spec.noise_scale**2 + (1.0 - rho * rho))])
    sigma = np.outer(b, b) + q.T @ q + np.diag(noise)
    return m, sigma


ORACLE_ROWS = 4000   # fresh target rows the oracle's accuracy is measured on


def oracle_accuracy(spec: SyntheticSpec) -> float:
    """Accuracy of the exact generative Bayes rule, which reads every target
    feature (common plus target-specific), on ``ORACLE_ROWS`` fresh target rows."""
    m, sigma = _oracle_moments(spec)
    beta = np.linalg.solve(sigma, m)
    prior = np.log(spec.positive_ratio / (1.0 - spec.positive_ratio))
    rng = derive_rng(spec.seed, "oracle-eval", "full")   # another tag would move every value
    y = _draw_labels(spec, ORACLE_ROWS, rng)
    common, _, target_spec = _draw_blocks(spec, 2.0 * y - 1.0, rng)
    x = np.hstack([common, target_spec])
    scores = 2.0 * (x @ beta) + prior
    pred = (scores > 0).astype(np.int8)
    return float(np.mean(pred == y))
