"""Tabular survey data: schema-validated loading, integer encoding, splitting, SMOTE."""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

__all__ = [
    "ColumnSchema",
    "Dataset",
    "EncoderMap",
    "EncodedMatrix",
    "ClassBalance",
    "DataError",
    "SchemaError",
    "load_schema",
    "load_dataset",
    "label_encode",
    "positive_category",
    "stratified_split",
    "smote",
    "SmoteSettings",
    "class_distribution",
]


class DataError(ValueError):
    """Raised for malformed input data; `row` is the table row at fault, if any."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


class SchemaError(ValueError):
    """Raised for invalid schema declarations."""


CATEGORICAL = "categorical"
BINARY = "binary"
CONTINUOUS = "continuous"
_KINDS = (CATEGORICAL, BINARY, CONTINUOUS)


@dataclass(frozen=True)
class ColumnSchema:
    name: str
    kind: str
    categories: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise SchemaError(f"unknown column kind {self.kind!r} for {self.name!r}")
        if self.kind == BINARY and len(self.categories) != 2:
            raise SchemaError(f"binary column {self.name!r} must declare exactly 2 categories")
        if self.kind == CONTINUOUS and self.categories:
            raise SchemaError(f"continuous column {self.name!r} must not declare categories")
        if self.kind == CATEGORICAL and not self.categories:
            raise SchemaError(f"categorical column {self.name!r} declares no categories")
        if len(set(self.categories)) != len(self.categories):
            raise SchemaError(f"duplicate categories in column {self.name!r}")
        if "" in self.categories:  # an empty cell is a missing value
            raise SchemaError(f"empty category in column {self.name!r}")
        object.__setattr__(self, "categories", tuple(self.categories))

    @property
    def codes(self) -> dict[str, int]:
        """Each category's integer code: its index in lexicographic order, so
        that encoding is the same on every run and platform."""
        return {cat: i for i, cat in enumerate(sorted(self.categories))}


@dataclass(frozen=True)
class Dataset:
    """String rows validated against a schema and parsed once, a column at a
    time: parsed[i, j] is a continuous cell's float, any other cell's code in
    ColumnSchema.codes. Of several faults the one in the lowest row is
    reported, and of several in that row the leftmost."""

    schema: tuple[ColumnSchema, ...]
    rows: tuple[tuple[str, ...], ...]
    target: str
    parsed: np.ndarray = field(init=False, repr=False, compare=False)  # read-only (n, d)

    def __post_init__(self):
        schema, rows = tuple(self.schema), tuple(map(tuple, self.rows))
        object.__setattr__(self, "schema", schema)
        object.__setattr__(self, "rows", rows)
        n_whole = next((i for i, row in enumerate(rows) if len(row) != len(schema)), len(rows))
        whole, faults = rows[:n_whole], []
        parsed = np.empty((n_whole, len(schema)))
        for j, col in enumerate(schema):
            try:
                parsed[:, j] = _parse_column(col, tuple(map(itemgetter(j), whole)))
            except DataError as fault:
                faults.append(fault)
        if faults:
            raise min(faults, key=lambda fault: fault.row)
        if n_whole < len(rows):
            raise DataError(f"row {n_whole}: expected {len(schema)} cells, "
                            f"got {len(rows[n_whole])}", n_whole)
        if not rows:
            raise DataError("empty dataset")
        parsed.flags.writeable = False
        object.__setattr__(self, "parsed", parsed)
        names = [c.name for c in self.schema]
        if len(set(names)) != len(names):
            raise SchemaError("column names must be unique")
        if self.target not in names:
            raise SchemaError(f"target column {self.target!r} not in schema")
        tcol = self.column(self.target)
        if tcol.kind == CONTINUOUS:
            raise SchemaError("target column must be categorical or binary with 2 categories")
        if len(tcol.categories) != 2:
            raise SchemaError("target column must have exactly 2 categories")

    def column(self, name: str) -> ColumnSchema:
        for c in self.schema:
            if c.name == name:
                return c
        raise KeyError(name)

    @property
    def n_rows(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class EncoderMap:
    """Per categorical/binary column, its ColumnSchema.codes."""

    mappings: dict[str, dict[str, int]]

    def decode(self, column: str, code: int) -> str:
        inverse = {v: k for k, v in self.mappings[column].items()}
        return inverse[code]


@dataclass(frozen=True)
class EncodedMatrix:
    values: np.ndarray  # (n, d) float64
    target: np.ndarray  # (n,) int, {0,1}
    column_names: tuple[str, ...]
    row_ids: np.ndarray  # (n,) int; synthetic rows carry fresh negative ids

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        object.__setattr__(self, "target", np.asarray(self.target, dtype=np.int64))
        object.__setattr__(self, "row_ids", np.asarray(self.row_ids, dtype=np.int64))
        if self.values.ndim != 2:
            raise DataError("values must be a 2-D matrix")
        n = self.values.shape[0]
        if self.target.shape != (n,) or self.row_ids.shape != (n,):
            raise DataError("target/row_ids length must match the row count")
        if self.values.shape[1] != len(self.column_names):
            raise DataError("column_names length must match the column count")

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_features(self) -> int:
        return self.values.shape[1]

    def take(self, indices) -> "EncodedMatrix":
        idx = np.asarray(indices)
        return EncodedMatrix(self.values[idx], self.target[idx], self.column_names, self.row_ids[idx])


@dataclass(frozen=True)
class ClassBalance:
    count_class0: int
    count_class1: int

    @property
    def total(self) -> int:
        return self.count_class0 + self.count_class1


def _not_utf8(path, exc: UnicodeDecodeError) -> DataError:
    return DataError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}")


def load_schema(path) -> list[ColumnSchema]:
    """Read a schema JSON document (UTF-8, with or without a BOM): a list of
    {name, kind, categories} objects."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            raw = json.load(fh)
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from None
    except json.JSONDecodeError as exc:
        raise SchemaError(f"schema {path} is not valid JSON: {exc}") from None
    if not isinstance(raw, list):
        raise SchemaError("schema document must be a JSON list")
    columns = []
    for entry in raw:
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)
                and isinstance(entry.get("kind"), str)):
            raise SchemaError(f"schema entry {entry!r} needs 'name' and 'kind' strings")
        categories = entry.get("categories", [])
        if not (isinstance(categories, list) and all(isinstance(c, str) for c in categories)):
            raise SchemaError(f"categories of column {entry['name']!r} must be a list of strings")
        columns.append(ColumnSchema(entry["name"], entry["kind"], tuple(categories)))
    return columns


def _validate_cell(col: ColumnSchema, value: str, row_idx: int):
    if value == "":
        fault = "missing value in column"
    elif col.kind != CONTINUOUS:
        fault = None if value in col.categories else f"unknown category {value!r} in column"
    else:
        try:
            finite = math.isfinite(float(value))
        except (TypeError, ValueError):
            fault = f"non-numeric value {value!r} in continuous column"
        else:
            fault = None if finite else f"non-finite value {value!r} in continuous column"
    if fault:
        raise DataError(f"row {row_idx}: {fault} {col.name!r}", row_idx)


def _parse_column(col: ColumnSchema, cells) -> np.ndarray:
    """One column of cells as float64: a continuous cell is its float, any
    other cell its code in col.codes. The first bad cell raises the DataError
    that _validate_cell words for it."""
    try:
        parse = float if col.kind == CONTINUOUS else col.codes.__getitem__
        values = np.fromiter(map(parse, cells), np.float64, len(cells))
        if np.isfinite(values).all():
            return values
    except (KeyError, TypeError, ValueError):
        pass
    for i, cell in enumerate(cells):
        _validate_cell(col, cell, i)


def load_dataset(path, schema, target: str) -> Dataset:
    """Load a CSV file (UTF-8 with or without a BOM, RFC 4180, header row)
    under a declared schema.

    The header must name each of the schema's columns exactly once; column
    order in the file is free and gets normalized to schema order.
    """
    schema = tuple(schema)
    names = [c.name for c in schema]
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise DataError("empty file")
            repeated = {n for n in header if header.count(n) > 1}
            if repeated:
                raise DataError(f"repeated columns in header: {sorted(repeated)}")
            missing = set(names) - set(header)
            if missing:
                raise DataError(f"missing columns in header: {sorted(missing)}")
            extra = set(header) - set(names)
            if extra:
                raise DataError(f"unexpected columns in header: {sorted(extra)}")
            order = [header.index(n) for n in names]
            # a row of the wrong length stays as read, for Dataset to report
            rows = [tuple(map(raw.__getitem__, order)) if len(raw) == len(order) else tuple(raw)
                    for raw in reader if raw]
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from None
    except csv.Error as exc:
        raise DataError(f"{path} is not a CSV file: {exc}") from None
    return Dataset(schema, rows, target)


def label_encode(dataset: Dataset) -> tuple[EncodedMatrix, EncoderMap]:
    """The dataset's parsed cells as a feature matrix, in schema order, and a
    {0,1} target. The positive class is the category matching a recognized
    "positive" word (abused/yes/true/...) or, failing that, the
    lexicographically larger one."""
    tcol = dataset.column(dataset.target)
    t = dataset.schema.index(tcol)
    values = np.delete(dataset.parsed, t, axis=1)
    target = dataset.parsed[:, t] == tcol.codes[positive_category(tcol)]
    names = tuple(c.name for c in dataset.schema if c is not tcol)
    mappings = {c.name: c.codes for c in dataset.schema if c.kind != CONTINUOUS}
    matrix = EncodedMatrix(values, target, names, np.arange(dataset.n_rows, dtype=np.int64))
    return matrix, EncoderMap(mappings)


_POSITIVE_WORDS = {"abused", "yes", "positive", "true", "1"}


def positive_category(tcol: ColumnSchema) -> str:
    """The category of a target column that label_encode maps to class 1."""
    hits = [c for c in tcol.categories if c.strip().lower() in _POSITIVE_WORDS]
    if len(hits) == 1:
        return hits[0]
    # fall back to lexicographic: the larger category string is class 1
    return sorted(tcol.categories)[1]


def child_rng(seed: int, *stream: int) -> np.random.Generator:
    """Counter-style seed derivation so parallel and serial runs agree."""
    return np.random.default_rng(np.random.SeedSequence([int(seed) & (2**63 - 1), *stream]))


def stratified_split(matrix: EncodedMatrix, test_fraction: float, seed: int
                     ) -> tuple[EncodedMatrix, EncodedMatrix]:
    """Seeded stratified train/test split.

    Per-class test counts are round(class_count * test_fraction); the shuffle
    is driven only by the seed. A class left without test or training rows is
    a DataError.
    """
    if not 0.0 < test_fraction < 1.0:
        raise DataError("test_fraction must lie strictly between 0 and 1")
    rng = child_rng(seed, 1)
    test_idx, train_idx = [], []
    for cls in (0, 1):
        cls_idx = np.flatnonzero(matrix.target == cls)
        n_test = int(np.floor(cls_idx.size * test_fraction + 0.5))
        if not 0 < n_test < cls_idx.size:
            raise DataError(f"test_fraction {test_fraction} leaves class {cls} "
                            f"with no {'test' if n_test == 0 else 'training'} rows")
        perm = rng.permutation(cls_idx)
        test_idx.append(perm[:n_test])
        train_idx.append(perm[n_test:])
    test_idx = np.sort(np.concatenate(test_idx))
    train_idx = np.sort(np.concatenate(train_idx))
    return matrix.take(train_idx), matrix.take(test_idx)


# Query rows whose distances are held at once: smote and k-NN keep a few
# (_NN_BLOCK, n) float arrays, never an n x n one; at 256 rows, SMOTE of 1,920
# minority rows raised a run's peak RSS by 4 MB through heap fragmentation.
_NN_BLOCK = 64


def _sq_distance_blocks(queries: np.ndarray, X: np.ndarray):
    """Yield (start, d2) per block of _NN_BLOCK query rows: d2[i, j] is the
    squared distance from queries[start + i] to X[j], clamped at 0. Every
    block is written into one buffer, so d2 is valid only until the next one.
    One matrix-vector product per row keeps its bits free of the block size."""
    sq = np.sum(X * X, axis=1)
    buffer = np.empty((min(_NN_BLOCK, queries.shape[0]), X.shape[0]))
    for start in range(0, queries.shape[0], _NN_BLOCK):
        rows = queries[start:start + _NN_BLOCK]
        d2 = buffer[:rows.shape[0]]
        for i, x in enumerate(rows):
            d2[i] = sq - 2.0 * (X @ x) + x @ x
        if np.isnan(d2).any():
            raise DataError("squared distances overflow; rescale the features")
        yield start, np.maximum(d2, 0.0, out=d2)


def _ball(d2: np.ndarray, k: int) -> np.ndarray:
    """Per row, the columns at or below its k-th smallest entry: every column
    tied with the k-th distance is in the ball, so a ball holds k or more."""
    return d2 <= np.partition(d2, k - 1, axis=1)[:, k - 1:k]


def _ball_groups(ball: np.ndarray):
    """Yield (rows, cols) per ball size m: the rows whose ball holds m columns,
    and as cols (rows.size, m) their ball columns in ascending order."""
    sizes = np.count_nonzero(ball, axis=1)
    for m in np.unique(sizes):
        rows = np.flatnonzero(sizes == m)
        yield rows, ball[rows].nonzero()[1].reshape(-1, m)


def _nearest_neighbors(X: np.ndarray, k: int) -> np.ndarray:
    """Indices of each row's k Euclidean nearest other rows, 0 < k < len(X),
    ties to the lower index: np.argsort(d2, axis=1, kind="stable")[:, :k] with
    d2's diagonal at +inf, sorted from the ball alone: no other row is nearer."""
    nn = np.empty((X.shape[0], k), dtype=np.intp)
    for start, d2 in _sq_distance_blocks(X, X):
        np.fill_diagonal(d2[:, start:], np.inf)
        for rows, cols in _ball_groups(_ball(d2, k)):
            order = np.argsort(d2[rows[:, None], cols], axis=1, kind="stable")[:, :k]
            nn[start + rows] = np.take_along_axis(cols, order, axis=1)
    return nn


def smote_classes(target: np.ndarray) -> tuple[int, int, int]:
    """(minority label, minority count, majority count) of the rows smote
    resamples; DataError for a class balance it cannot resample."""
    counts = np.bincount(target, minlength=2)
    minority = int(counts.argmin()) if counts[0] != counts[1] else 1
    n_min, n_maj = int(counts[minority]), int(counts[1 - minority])
    if n_min == 0:
        raise DataError("minority class is empty")
    if n_min < 2 and n_min != n_maj:  # a balanced partition passes through
        raise DataError("minority class needs at least 2 rows for SMOTE")
    return minority, n_min, n_maj


def smote(train: EncodedMatrix, k_neighbors: int = 5, seed: int = 0) -> EncodedMatrix:
    """Oversample the minority class to a 1:1 ratio by neighbor interpolation.

    Each synthetic row is x_i + u * (x_nn - x_i) with u ~ Uniform(0,1) and
    x_nn one of the k Euclidean nearest minority neighbors of x_i. Majority
    rows pass through untouched; synthetic rows get fresh negative row ids.
    Categorical codes are interpolated like any other feature, so synthetic
    rows may carry fractional codes. A non-finite feature value raises
    DataError.
    """
    if not np.isfinite(train.values).all():
        raise DataError("SMOTE needs finite feature values")
    minority, n_min, n_maj = smote_classes(train.target)
    if n_min == n_maj:
        return train
    if k_neighbors < 1:
        raise DataError("k_neighbors must be >= 1")
    k = min(k_neighbors, n_min - 1)
    if k < k_neighbors:
        warnings.warn(f"k_neighbors clamped from {k_neighbors} to {k} (minority size {n_min})",
                      stacklevel=2)

    rng = child_rng(seed, 2)
    X = train.values[train.target == minority]
    nn = _nearest_neighbors(X, k)

    n_new = n_maj - n_min
    base = np.arange(n_new) % n_min
    pick = rng.integers(0, k, size=n_new)
    u = rng.uniform(0.0, 1.0, size=n_new)
    synth = X[base] + u[:, None] * (X[nn[base, pick]] - X[base])
    values = np.vstack([train.values, synth])
    target = np.concatenate([train.target, np.full(n_new, minority, dtype=np.int64)])
    new_ids = -(np.arange(n_new, dtype=np.int64) + 1)
    row_ids = np.concatenate([train.row_ids, new_ids])
    return EncodedMatrix(values, target, train.column_names, row_ids)


@dataclass(frozen=True)
class SmoteSettings:
    k_neighbors: int = 5

    def apply(self, data: EncodedMatrix, seed: int) -> EncodedMatrix:
        """SMOTE with these settings: every resampling path goes through here."""
        return smote(data, k_neighbors=self.k_neighbors, seed=seed)


def class_distribution(matrix: EncodedMatrix) -> ClassBalance:
    counts = np.bincount(matrix.target, minlength=2) if matrix.n_rows else np.zeros(2, int)
    return ClassBalance(int(counts[0]), int(counts[1]))
