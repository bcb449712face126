"""Bundled synthetic imbalanced survey generator (runs the pipeline without
any external dataset)."""

from __future__ import annotations

import csv
import json

import numpy as np

from .data import ColumnSchema, Dataset
from .learners.base import child_rng

__all__ = ["synthetic_dataset", "write_dataset_csv", "write_schema_json"]

TARGET = "outcome"


def _categories(k: int) -> tuple[str, ...]:
    return tuple(f"level_{chr(ord('a') + i)}" for i in range(k))


def synthetic_schema() -> list[ColumnSchema]:
    cols: list[ColumnSchema] = []
    for i in range(14):
        cols.append(ColumnSchema(f"cat_{i:02d}", "categorical", _categories(3 + i % 4)))
    for i in range(4):
        cols.append(ColumnSchema(f"bin_{i:02d}", "binary", ("no", "yes")))
    for i in range(4):
        cols.append(ColumnSchema(f"num_{i:02d}", "continuous"))
    cols.append(ColumnSchema(TARGET, "binary", ("absent", "present")))
    return cols


def synthetic_dataset(n: int = 2000, seed: int = 7, imbalance: float = 5.0) -> Dataset:
    """n-row survey-style table, 22 mixed-type features, ~imbalance:1 class
    ratio, with an injected nonlinear signal."""
    rng = child_rng(seed, 50)
    schema = synthetic_schema()

    cat_codes = np.column_stack([
        rng.integers(0, 3 + i % 4, size=n) for i in range(14)
    ])
    bin_codes = np.column_stack([rng.integers(0, 2, size=n) for _ in range(4)])
    cont = np.column_stack([
        rng.normal(40, 12, size=n),
        rng.normal(0, 1, size=n),
        rng.gamma(2.0, 1.5, size=n),
        rng.uniform(-2, 2, size=n),
    ])

    # signal mixes smooth monotone terms (learnable by linear/neural models)
    # with mild nonlinearity and categorical effects (favoring trees), so
    # different model families are competitive rather than degenerate
    z = (
        1.1 * np.tanh(cont[:, 1])
        + 0.8 * np.sin(cont[:, 1] * 2.0)
        + 0.9 * cont[:, 3]
        + 0.05 * (cont[:, 0] - 40.0)
        + 0.25 * (cont[:, 2] - 3.0)
        + 1.0 * (cat_codes[:, 2] == 1)
        + 0.7 * (cat_codes[:, 5] >= 2) * bin_codes[:, 0]
        - 0.7 * bin_codes[:, 1]
        + 0.6 * rng.standard_normal(n)
    )
    threshold = np.quantile(z, imbalance / (imbalance + 1.0))
    y = (z > threshold).astype(int)

    levels = [_categories(3 + i % 4) for i in range(14)]  # built once, not per cell
    columns = [[levels[i][c] for c in cat_codes[:, i].tolist()] for i in range(14)]
    columns += [[("no", "yes")[c] for c in bin_codes[:, i].tolist()] for i in range(4)]
    columns += [[f"{v:.6f}" for v in cont[:, i].tolist()] for i in range(4)]
    columns.append([("absent", "present")[c] for c in y.tolist()])
    rows = list(zip(*columns))
    return Dataset(schema, rows, TARGET)


def write_dataset_csv(dataset: Dataset, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([c.name for c in dataset.schema])
        writer.writerows(dataset.rows)


def write_schema_json(schema, path):
    doc = [
        {"name": c.name, "kind": c.kind, "categories": list(c.categories)}
        for c in schema
    ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
