"""Tabular survey data: schema-validated loading, integer encoding, splitting, SMOTE."""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass

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
    "dataset_from_rows",
    "label_encode",
    "decode_row",
    "stratified_split",
    "smote",
    "class_distribution",
    "ROUNDING_MODES",
]


class DataError(ValueError):
    """Raised for malformed input data."""


class SchemaError(ValueError):
    """Raised for invalid schema declarations."""


CATEGORICAL = "categorical"
BINARY = "binary"
CONTINUOUS = "continuous"
_KINDS = (CATEGORICAL, BINARY, CONTINUOUS)
ROUNDING_MODES = ("continuous", "nearest-code")  # how smote treats categorical codes


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
        object.__setattr__(self, "categories", tuple(self.categories))


@dataclass(frozen=True)
class Dataset:
    schema: tuple[ColumnSchema, ...]
    rows: tuple[tuple[str, ...], ...]
    target: str

    def __post_init__(self):
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

    def class_counts(self) -> dict[str, int]:
        tcol = self.column(self.target)
        idx = [c.name for c in self.schema].index(self.target)
        counts = {cat: 0 for cat in tcol.categories}
        for row in self.rows:
            counts[row[idx]] += 1
        return counts


@dataclass(frozen=True)
class EncoderMap:
    """Per categorical/binary column, bijective category -> integer code maps.

    Codes are assigned by lexicographic order of the category strings so
    encoding is deterministic across runs and platforms.
    """

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


def load_schema(path) -> list[ColumnSchema]:
    """Read a schema JSON document: a list of {name, kind, categories} objects."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, list):
        raise SchemaError("schema document must be a JSON list")
    return [
        ColumnSchema(entry["name"], entry["kind"], tuple(entry.get("categories", ())))
        for entry in raw
    ]


def _validate_cell(col: ColumnSchema, value: str, row_idx: int):
    if col.kind == CONTINUOUS:
        try:
            number = float(value)
        except ValueError:
            raise DataError(
                f"row {row_idx}: non-numeric value {value!r} in continuous column {col.name!r}"
            ) from None
        if not math.isfinite(number):
            raise DataError(
                f"row {row_idx}: non-finite value {value!r} in continuous column {col.name!r}"
            )
    else:
        if value not in col.categories:
            raise DataError(
                f"row {row_idx}: unknown category {value!r} in column {col.name!r}"
            )


def dataset_from_rows(schema, rows, target: str) -> Dataset:
    """Build and validate a Dataset from already-parsed string rows."""
    schema = tuple(schema)
    checked = []
    for i, row in enumerate(rows):
        row = tuple(row)
        if len(row) != len(schema):
            raise DataError(f"row {i}: expected {len(schema)} cells, got {len(row)}")
        for col, cell in zip(schema, row):
            if cell == "":
                raise DataError(f"row {i}: missing value in column {col.name!r}")
            _validate_cell(col, cell, i)
        checked.append(row)
    if not checked:
        raise DataError("empty dataset")
    return Dataset(schema, tuple(checked), target)


def load_dataset(path, schema, target: str) -> Dataset:
    """Load a CSV file (UTF-8, RFC 4180, header row) under a declared schema.

    The header must contain exactly the schema's column names; column order in
    the file is free and gets normalized to schema order.
    """
    schema = tuple(schema)
    names = [c.name for c in schema]
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError("empty file") from None
        missing = set(names) - set(header)
        if missing:
            raise DataError(f"missing columns in header: {sorted(missing)}")
        extra = set(header) - set(names)
        if extra:
            raise DataError(f"unexpected columns in header: {sorted(extra)}")
        order = [header.index(n) for n in names]
        rows = [tuple(raw[j] for j in order) for raw in reader if raw]
    return dataset_from_rows(schema, rows, target)


def label_encode(dataset: Dataset) -> tuple[EncodedMatrix, EncoderMap]:
    """Encode categorical/binary cells to integer codes, parse continuous cells.

    Codes follow lexicographic category order. The target maps to {0,1}; the
    positive class is the category matching a recognized "positive" word
    (abused/yes/true/...) or, failing that, the lexicographically larger one.
    """
    mappings = {}
    feature_cols = [c for c in dataset.schema if c.name != dataset.target]
    tcol = dataset.column(dataset.target)
    tidx = [c.name for c in dataset.schema].index(dataset.target)

    for col in dataset.schema:
        if col.kind != CONTINUOUS:
            mappings[col.name] = {cat: i for i, cat in enumerate(sorted(col.categories))}

    positive = _positive_category(tcol)
    target_map = {cat: (1 if cat == positive else 0) for cat in tcol.categories}

    n, d = dataset.n_rows, len(feature_cols)
    values = np.empty((n, d), dtype=np.float64)
    target = np.empty(n, dtype=np.int64)
    col_positions = [[c.name for c in dataset.schema].index(c.name) for c in feature_cols]
    for i, row in enumerate(dataset.rows):
        for j, (col, pos) in enumerate(zip(feature_cols, col_positions)):
            cell = row[pos]
            if col.kind == CONTINUOUS:
                values[i, j] = float(cell)
            else:
                values[i, j] = mappings[col.name][cell]
        target[i] = target_map[row[tidx]]

    matrix = EncodedMatrix(
        values, target, tuple(c.name for c in feature_cols), np.arange(n, dtype=np.int64)
    )
    return matrix, EncoderMap(mappings)


_POSITIVE_WORDS = {"abused", "yes", "positive", "true", "1"}


def _positive_category(tcol: ColumnSchema) -> str:
    hits = [c for c in tcol.categories if c.strip().lower() in _POSITIVE_WORDS]
    if len(hits) == 1:
        return hits[0]
    # fall back to lexicographic: the larger category string is class 1
    return sorted(tcol.categories)[1]


def decode_row(matrix: EncodedMatrix, encoder: EncoderMap, row: int,
               schema) -> dict[str, str]:
    """Invert label_encode for one row (round-trip check helper)."""
    out = {}
    by_name = {c.name: c for c in schema}
    for j, name in enumerate(matrix.column_names):
        col = by_name[name]
        v = matrix.values[row, j]
        if col.kind == CONTINUOUS:
            out[name] = repr(float(v))
        else:
            out[name] = encoder.decode(name, int(round(v)))
    return out


def stratified_split(matrix: EncodedMatrix, test_fraction: float, seed: int
                     ) -> tuple[EncodedMatrix, EncodedMatrix]:
    """Seeded stratified train/test split.

    Per-class test counts are round(class_count * test_fraction); the shuffle
    is driven only by the seed. A class left without test or training rows is
    a DataError.
    """
    if not 0.0 < test_fraction < 1.0:
        raise DataError("test_fraction must lie strictly between 0 and 1")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed) & (2**63 - 1), 1]))
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


# Query rows whose distances are held at once: the neighbour searches of
# smote and k-NN keep a few (_NN_BLOCK, n) float arrays, never an n x n one.
_NN_BLOCK = 256


def _sq_distance_blocks(queries: np.ndarray, X: np.ndarray):
    """Yield (start, d2) per block of _NN_BLOCK query rows: d2[i, j] is the
    squared distance from queries[start + i] to X[j], clamped at 0. One
    matrix-vector product per row keeps its bits free of the block size."""
    sq = np.sum(X * X, axis=1)
    for start in range(0, queries.shape[0], _NN_BLOCK):
        rows = queries[start:start + _NN_BLOCK]
        d2 = np.empty((rows.shape[0], X.shape[0]))
        for i, x in enumerate(rows):
            d2[i] = sq - 2.0 * (X @ x) + x @ x
        if np.isnan(d2).any():
            raise DataError("squared distances overflow; rescale the features")
        yield start, np.maximum(d2, 0.0, out=d2)


def _nearest_neighbors(X: np.ndarray, k: int) -> np.ndarray:
    """Indices of each row's k Euclidean nearest other rows, 0 < k < len(X):
    np.argsort(d2, axis=1, kind="stable")[:, :k] with the diagonal of d2 at
    +inf, i.e. by distance, ties to the lower index."""
    nn = np.empty((X.shape[0], k), dtype=np.intp)
    for start, d2 in _sq_distance_blocks(X, X):
        rows = np.arange(d2.shape[0])
        d2[rows, start + rows] = np.inf
        nn[start:start + rows.size] = _k_smallest(d2, k)
    return nn


def _k_smallest(d2: np.ndarray, k: int) -> np.ndarray:
    """Per row, the columns of the k smallest entries, ordered by value and
    then by column: np.argsort(d2, axis=1, kind="stable")[:, :k]."""
    kth = np.partition(d2, k - 1, axis=1)[:, k - 1:k]
    take = d2 <= kth
    crowded = np.flatnonzero(np.count_nonzero(take, axis=1) > k)
    if crowded.size:  # more ties at the k-th value than places: lowest columns win
        sub, cut = d2[crowded], kth[crowded]
        below, tied = sub < cut, sub == cut
        places = k - np.count_nonzero(below, axis=1)
        take[crowded] = below | (tied & (np.cumsum(tied, axis=1) <= places[:, None]))
    cols = np.nonzero(take)[1].reshape(-1, k)
    order = np.argsort(np.take_along_axis(d2, cols, axis=1), axis=1, kind="stable")
    return np.take_along_axis(cols, order, axis=1)


def smote(train: EncodedMatrix, k_neighbors: int = 5, seed: int = 0,
          rounding: str = "continuous",
          categorical_columns: tuple[int, ...] | None = None,
          category_sizes: dict[int, int] | None = None) -> EncodedMatrix:
    """Oversample the minority class to a 1:1 ratio by neighbor interpolation.

    Each synthetic row is x_i + u * (x_nn - x_i) with u ~ Uniform(0,1) and
    x_nn one of the k Euclidean nearest minority neighbors of x_i. Majority
    rows pass through untouched; synthetic rows get fresh negative row ids.

    rounding="nearest-code" snaps the listed categorical columns back to the
    nearest valid integer code (clipped to [0, n_categories) when sizes are
    given); the default leaves fractional codes in place. A non-finite
    feature value raises DataError.
    """
    if rounding not in ROUNDING_MODES:
        raise DataError(f"unknown rounding mode {rounding!r}")
    if not np.isfinite(train.values).all():
        raise DataError("SMOTE needs finite feature values")
    counts = np.bincount(train.target, minlength=2)
    minority = int(counts.argmin()) if counts[0] != counts[1] else 1
    majority = 1 - minority
    n_min, n_maj = int(counts[minority]), int(counts[majority])
    if n_min == 0:
        raise DataError("minority class is empty")
    if n_min == n_maj:
        return train
    if n_min < 2:
        raise DataError("minority class needs at least 2 rows for SMOTE")
    if k_neighbors < 1:
        raise DataError("k_neighbors must be >= 1")
    k = min(k_neighbors, n_min - 1)
    if k < k_neighbors:
        warnings.warn(f"k_neighbors clamped from {k_neighbors} to {k} (minority size {n_min})",
                      stacklevel=2)

    rng = np.random.default_rng(np.random.SeedSequence([int(seed) & (2**63 - 1), 2]))
    X = train.values[train.target == minority]
    nn = _nearest_neighbors(X, k)

    n_new = n_maj - n_min
    base = np.arange(n_new) % n_min
    pick = rng.integers(0, k, size=n_new)
    u = rng.uniform(0.0, 1.0, size=n_new)
    synth = X[base] + u[:, None] * (X[nn[base, pick]] - X[base])

    if rounding == "nearest-code" and categorical_columns:
        for j in categorical_columns:
            col = np.rint(synth[:, j])
            if category_sizes and j in category_sizes:
                col = np.clip(col, 0, category_sizes[j] - 1)
            synth[:, j] = col

    values = np.vstack([train.values, synth])
    target = np.concatenate([train.target, np.full(n_new, minority, dtype=np.int64)])
    new_ids = -(np.arange(n_new, dtype=np.int64) + 1)
    row_ids = np.concatenate([train.row_ids, new_ids])
    return EncodedMatrix(values, target, train.column_names, row_ids)


def class_distribution(matrix: EncodedMatrix) -> ClassBalance:
    counts = np.bincount(matrix.target, minlength=2) if matrix.n_rows else np.zeros(2, int)
    return ClassBalance(int(counts[0]), int(counts[1]))
