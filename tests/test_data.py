import csv
import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imbalkit.data import (
    ColumnSchema,
    DataError,
    Dataset,
    EncodedMatrix,
    SchemaError,
    class_distribution,
    label_encode,
    load_dataset,
    smote,
    stratified_split,
)
from imbalkit import data as data_module
from imbalkit.data import _NN_BLOCK, _nearest_neighbors
from imbalkit.synth import synthetic_dataset, write_dataset_csv, write_schema_json
from imbalkit import load_schema

from conftest import grouping_peak, tied_grid


def tiny_schema():
    return (
        ColumnSchema("color", "categorical", ("red", "blue", "green")),
        ColumnSchema("employed", "binary", ("no", "yes")),
        ColumnSchema("age", "continuous"),
        ColumnSchema("abuse", "binary", ("not abused", "abused")),
    )


def tiny_rows():
    return [
        ("red", "yes", "25.5", "abused"),
        ("blue", "no", "40", "not abused"),
        ("green", "yes", "31", "not abused"),
        ("red", "no", "29", "abused"),
    ]


class TestSchema:
    def test_binary_needs_two_categories(self):
        with pytest.raises(SchemaError):
            ColumnSchema("x", "binary", ("only",))

    def test_continuous_rejects_categories(self):
        with pytest.raises(SchemaError):
            ColumnSchema("x", "continuous", ("a",))

    def test_unknown_kind(self):
        with pytest.raises(SchemaError):
            ColumnSchema("x", "ordinal")

    def test_duplicate_categories(self):
        with pytest.raises(SchemaError):
            ColumnSchema("x", "categorical", ("a", "a"))

    @pytest.mark.parametrize("kind, categories", [("categorical", ("a", "")), ("binary", ("", "b"))])
    def test_empty_category(self, kind, categories):
        # an empty cell is a missing value, so "" cannot name a category
        with pytest.raises(SchemaError, match="empty category in column 'x'"):
            ColumnSchema("x", kind, categories)


class TestLoading:
    def test_unknown_category_names_row_and_column(self):
        rows = tiny_rows()
        rows[2] = ("purple", "yes", "31", "not abused")
        with pytest.raises(DataError, match=r"row 2.*'purple'.*'color'"):
            Dataset(tiny_schema(), rows, "abuse")

    def test_missing_value_reported(self):
        rows = tiny_rows()
        rows[1] = ("blue", "", "40", "not abused")
        with pytest.raises(DataError, match=r"row 1.*'employed'"):
            Dataset(tiny_schema(), rows, "abuse")

    def test_non_numeric_continuous(self):
        rows = tiny_rows()
        rows[0] = ("red", "yes", "old", "abused")
        with pytest.raises(DataError, match="non-numeric"):
            Dataset(tiny_schema(), rows, "abuse")

    @pytest.mark.parametrize("cell", [None, [1.0], object], ids=["none", "list", "type"])
    def test_non_string_continuous_cell_is_a_data_error(self, cell):
        rows = tiny_rows()
        rows[3] = ("red", "no", cell, "abused")
        with pytest.raises(DataError, match=r"row 3: non-numeric value .* in continuous "
                                            r"column 'age'") as fault:
            Dataset(tiny_schema(), rows, "abuse")
        assert fault.value.row == 3

    @pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "-inf", "Infinity"])
    def test_non_finite_continuous(self, cell):
        rows = tiny_rows()
        rows[3] = ("red", "no", cell, "abused")
        with pytest.raises(DataError, match=r"row 3: non-finite .*'age'"):
            Dataset(tiny_schema(), rows, "abuse")

    def test_header_order_insensitive(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text(
            "age,abuse,color,employed\r\n"
            "25.5,abused,red,yes\r\n"
            "40,not abused,blue,no\r\n",
            encoding="utf-8",
        )
        ds = load_dataset(p, tiny_schema(), "abuse")
        assert ds.rows[0] == ("red", "yes", "25.5", "abused")

    def test_missing_column_in_header(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("age,abuse,color\r\n25.5,abused,red\r\n", encoding="utf-8")
        with pytest.raises(DataError, match="missing columns"):
            load_dataset(p, tiny_schema(), "abuse")

    def test_extra_column_in_header(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text(
            "age,abuse,color,employed,zz\r\n25.5,abused,red,yes,1\r\n", encoding="utf-8"
        )
        with pytest.raises(DataError, match="unexpected columns"):
            load_dataset(p, tiny_schema(), "abuse")

    @pytest.mark.parametrize("rows", [
        tiny_rows() + [("purple", "yes", "31", "abused")],
        tiny_rows() + [("red", "", "31", "abused")],
        tiny_rows() + [("red", "yes", "inf", "abused")],
        tiny_rows() + [("red", "yes")],
        [],
    ], ids=["unknown-category", "missing-value", "non-finite", "short-row", "no-rows"])
    def test_a_dataset_built_directly_is_validated_like_a_csv(self, tmp_path, rows):
        path = tmp_path / "d.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerows([[c.name for c in tiny_schema()]] + rows)
        with pytest.raises(DataError) as from_csv:
            load_dataset(path, tiny_schema(), "abuse")
        with pytest.raises(DataError) as direct:
            Dataset(tiny_schema(), rows, "abuse")
        assert str(direct.value) == str(from_csv.value)
        assert direct.value.row == from_csv.value.row == (len(rows) - 1 if rows else None)

    def test_synth_roundtrip_through_files(self, tmp_path):
        ds = synthetic_dataset(60, seed=5)
        csv_path = tmp_path / "synth.csv"
        schema_path = tmp_path / "schema.json"
        write_dataset_csv(ds, csv_path)
        write_schema_json(ds.schema, schema_path)
        loaded = load_dataset(csv_path, load_schema(schema_path), ds.target)
        assert loaded.rows == ds.rows

    def test_synthetic_csv_is_pinned(self, tmp_path):
        # sha256 recorded when every cell still rebuilt its category tuple
        path = tmp_path / "synth.csv"
        write_dataset_csv(synthetic_dataset(200, seed=7), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "c5c8a373589a1d21cfaeb16f7cb1736596d57dc0d699cf78492b951f1d53096b")


class TestEncoding:
    def test_lexicographic_codes(self):
        ds = Dataset(tiny_schema(), tiny_rows(), "abuse")
        _, enc = label_encode(ds)
        assert enc.mappings["color"] == {"blue": 0, "green": 1, "red": 2}
        assert enc.mappings["employed"] == {"no": 0, "yes": 1}

    def test_positive_target_class(self):
        ds = Dataset(tiny_schema(), tiny_rows(), "abuse")
        matrix, _ = label_encode(ds)
        # "abused" is the positive class even though it sorts first
        assert matrix.target.tolist() == [1, 0, 0, 1]

    def test_lexicographic_fallback_for_unrecognized_labels(self):
        schema = (
            ColumnSchema("x", "continuous"),
            ColumnSchema("grp", "binary", ("alpha", "beta")),
        )
        rows = [("1", "alpha"), ("2", "beta")]
        matrix, _ = label_encode(Dataset(schema, rows, "grp"))
        assert matrix.target.tolist() == [0, 1]

    def test_roundtrip_decode(self):
        ds = Dataset(tiny_schema(), tiny_rows(), "abuse")
        matrix, enc = label_encode(ds)
        row = dict(zip(matrix.column_names, matrix.values[0]))
        assert enc.decode("color", int(row["color"])) == "red"
        assert enc.decode("employed", int(row["employed"])) == "yes"
        assert row["age"] == 25.5

    def test_encoding_deterministic(self):
        ds = synthetic_dataset(80, seed=11)
        m1, _ = label_encode(ds)
        m2, _ = label_encode(ds)
        assert np.array_equal(m1.values, m2.values)
        assert np.array_equal(m1.target, m2.target)

    def test_each_column_is_parsed_once_when_the_dataset_is_built(self, monkeypatch):
        calls = []
        parse = data_module._parse_column

        def counted(col, cells):
            calls.append(col.name)
            return parse(col, cells)

        monkeypatch.setattr(data_module, "_parse_column", counted)
        ds = Dataset(tiny_schema(), tiny_rows(), "abuse")
        assert calls == ["color", "employed", "age", "abuse"]
        matrix, _ = label_encode(ds)
        assert len(calls) == 4  # label_encode parses nothing
        assert np.array_equal(matrix.values, [[2, 1, 25.5], [0, 0, 40], [1, 1, 31], [2, 0, 29]])

    def test_parsed_cells_are_read_only_and_not_compared(self):
        ds = Dataset(tiny_schema(), tiny_rows(), "abuse")
        assert ds.parsed.shape == (4, 4) and not ds.parsed.flags.writeable
        assert ds == Dataset(tiny_schema(), [list(row) for row in tiny_rows()], "abuse")
        assert "parsed" not in repr(ds)

    def test_row_ids_are_original_positions(self):
        ds = Dataset(tiny_schema(), tiny_rows(), "abuse")
        matrix, _ = label_encode(ds)
        assert matrix.row_ids.tolist() == [0, 1, 2, 3]


class TestStratifiedSplit:
    def test_per_class_test_counts(self):
        # 30/70 at fraction 0.2 -> 6 and 14 test rows
        values = np.arange(100, dtype=float).reshape(-1, 1)
        target = np.r_[np.zeros(30, int), np.ones(70, int)]
        m = EncodedMatrix(values, target, ("x",), np.arange(100))
        train, test = stratified_split(m, 0.2, seed=0)
        assert int((test.target == 0).sum()) == 6
        assert int((test.target == 1).sum()) == 14
        assert train.n_rows == 80

    def test_partition_is_exact(self, small_matrix):
        train, test = stratified_split(small_matrix, 0.25, seed=9)
        ids = np.concatenate([train.row_ids, test.row_ids])
        assert sorted(ids.tolist()) == sorted(small_matrix.row_ids.tolist())

    def test_seed_determinism(self, small_matrix):
        a = stratified_split(small_matrix, 0.2, seed=123)
        b = stratified_split(small_matrix, 0.2, seed=123)
        assert np.array_equal(a[1].row_ids, b[1].row_ids)
        c = stratified_split(small_matrix, 0.2, seed=124)
        assert not np.array_equal(a[1].row_ids, c[1].row_ids)

    def test_rejects_bad_fraction(self, small_matrix):
        for frac in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(DataError):
                stratified_split(small_matrix, frac, seed=0)

    @pytest.mark.parametrize("frac, side", [(0.05, "test"), (0.95, "training")])
    def test_rejects_a_class_left_empty(self, frac, side):
        # 4 class-1 rows: round(4 * 0.05) = 0 test rows, round(4 * 0.95) = 4
        target = np.r_[np.zeros(36, int), np.ones(4, int)]
        m = EncodedMatrix(np.arange(40.0).reshape(-1, 1), target, ("x",), np.arange(40))
        with pytest.raises(DataError, match=f"class 1 with no {side} rows"):
            stratified_split(m, frac, seed=0)


def imbalanced_matrix(n_min=20, n_maj=80, d=4, seed=2):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(n_min + n_maj, d))
    target = np.r_[np.ones(n_min, int), np.zeros(n_maj, int)]
    return EncodedMatrix(values, target, tuple(f"f{j}" for j in range(d)),
                         np.arange(n_min + n_maj))


class TestSmote:
    def test_exact_balance(self):
        m = imbalanced_matrix()
        out = smote(m, seed=0)
        bal = class_distribution(out)
        assert bal.count_class0 == bal.count_class1 == 80

    def test_majority_rows_untouched(self):
        m = imbalanced_matrix()
        out = smote(m, seed=0)
        maj_in = m.values[m.target == 0]
        maj_out = out.values[(out.target == 0)]
        assert np.array_equal(np.sort(maj_in, axis=0), np.sort(maj_out, axis=0))

    def test_synthetic_ids_fresh_and_negative(self):
        m = imbalanced_matrix()
        out = smote(m, seed=0)
        new = out.row_ids[m.n_rows:]
        assert np.all(new < 0)
        assert len(set(new.tolist())) == new.size

    def test_segment_membership_two_point_minority(self):
        # with exactly two minority rows every synthetic point lies on the
        # segment joining them
        values = np.array([[0.0, 0.0], [1.0, 2.0]] + [[5.0, 5.0]] * 6)
        target = np.r_[np.ones(2, int), np.zeros(6, int)]
        m = EncodedMatrix(values, target, ("a", "b"), np.arange(8))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            out = smote(m, k_neighbors=5, seed=3)
        synth = out.values[8:]
        # each row is (1-u)*p + u*q for u in [0,1]
        u = synth[:, 1] / 2.0
        assert np.all((u >= 0) & (u <= 1))
        np.testing.assert_allclose(synth[:, 0], u * 1.0, atol=1e-12)

    def test_interpolant_within_minority_bounding_box(self):
        m = imbalanced_matrix(n_min=15, n_maj=60)
        out = smote(m, seed=7)
        minority = m.values[m.target == 1]
        synth = out.values[m.n_rows:]
        lo, hi = minority.min(axis=0), minority.max(axis=0)
        assert np.all(synth >= lo - 1e-12)
        assert np.all(synth <= hi + 1e-12)

    def test_k_clamped_with_warning(self):
        m = imbalanced_matrix(n_min=3, n_maj=30)
        with pytest.warns(UserWarning, match="clamped"):
            out = smote(m, k_neighbors=10, seed=0)
        bal = class_distribution(out)
        assert bal.count_class0 == bal.count_class1

    def test_balanced_input_is_noop(self):
        m = imbalanced_matrix(n_min=20, n_maj=20)
        out = smote(m, seed=0)
        assert out is m

    def test_single_minority_row_rejected(self):
        m = imbalanced_matrix(n_min=1, n_maj=10)
        with pytest.raises(DataError):
            smote(m, seed=0)

    def test_continuous_mode_leaves_fractional_codes(self):
        m = imbalanced_matrix()
        out = smote(m, seed=1)
        synth = out.values[m.n_rows:]
        assert not np.array_equal(synth, np.rint(synth))

    def test_seed_determinism(self):
        m = imbalanced_matrix()
        a = smote(m, seed=9)
        b = smote(m, seed=9)
        assert np.array_equal(a.values, b.values)
        c = smote(m, seed=10)
        assert not np.array_equal(c.values, a.values)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_matrix_rejected(self, value):
        m = imbalanced_matrix()
        m.values[30, 1] = value  # a majority row
        with pytest.raises(DataError, match="finite"):
            smote(m, seed=0)

    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value")
    def test_distance_overflow_rejected(self):
        m = imbalanced_matrix()
        m.values[:2, 0] = 1e200  # finite, but the squared distances are inf - inf
        with pytest.raises(DataError, match="overflow"):
            smote(m, seed=0)


def _reference_neighbors(X, k):
    """The full-matrix neighbour search: all n x n squared distances, one stable argsort."""
    sq = np.sum(X * X, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (X @ X.T)
    np.fill_diagonal(d2, np.inf)
    return np.argsort(d2, axis=1, kind="stable")[:, :k]


def _reference_smote(train, k_neighbors, seed):
    """smote at its defaults, written with _reference_neighbors."""
    counts = np.bincount(train.target, minlength=2)
    minority = int(counts.argmin())
    n_min, n_maj = int(counts[minority]), int(counts[1 - minority])
    k = min(k_neighbors, n_min - 1)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    X = train.values[train.target == minority]
    nn = _reference_neighbors(X, k)
    n_new = n_maj - n_min
    base = np.arange(n_new) % n_min
    pick = rng.integers(0, k, size=n_new)
    u = rng.uniform(0.0, 1.0, size=n_new)
    return X[base] + u[:, None] * (X[nn[base, pick]] - X[base])


_BLOCK_SIZES = (_NN_BLOCK, 1, 3)  # the default, one row, and blocks with a ragged tail


@st.composite
def _tied_minorities(draw, max_rows):
    """Small-integer matrices: many equal distances, and duplicate rows."""
    n = draw(st.integers(2, max_rows))
    d = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.integers(0, draw(st.integers(1, 4)), size=(n, d)).astype(float)
    if draw(st.booleans()):  # a few real-valued columns too
        X = np.hstack([X, rng.normal(size=(n, 1))])
    return X


class TestNeighbourSearch:
    @given(_tied_minorities(max_rows=_NN_BLOCK + 40), st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_matches_stable_argsort(self, X, k):
        k = min(k, X.shape[0] - 1)
        for block in _BLOCK_SIZES:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(data_module, "_NN_BLOCK", block)
                assert np.array_equal(_nearest_neighbors(X, k), _reference_neighbors(X, k))

    def test_spans_several_blocks(self, monkeypatch):
        X = np.random.default_rng(0).integers(0, 3, size=(2 * _NN_BLOCK + 7, 2)).astype(float)
        for block in _BLOCK_SIZES:
            monkeypatch.setattr(data_module, "_NN_BLOCK", block)
            assert np.array_equal(_nearest_neighbors(X, 5), _reference_neighbors(X, 5))

    def test_memory_is_bounded_by_the_block(self, monkeypatch):
        monkeypatch.setattr(data_module, "_NN_BLOCK", 16)
        X = np.random.default_rng(0).normal(size=(600, 4))
        tracemalloc.start()
        try:
            _nearest_neighbors(X, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < X.shape[0] ** 2 * 8 / 4  # a quarter of the n x n float matrix

    def test_tied_groups_copy_no_rows_of_the_distances(self, monkeypatch):
        monkeypatch.setattr(data_module, "_NN_BLOCK", 16)
        X = tied_grid()  # every ball: the 99 copies of its row, one group of 99 columns
        # a group's masks, indices and gathered distances; a copy of the block's
        # distance rows would take 16 * n * 8 bytes on its own
        assert grouping_peak(monkeypatch, _nearest_neighbors, X, 5) < 16 * len(X) * 8 / 2

    @given(_tied_minorities(max_rows=30), st.integers(1, 8), st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_smote_matches_reference(self, X, k_neighbors, seed):
        n_min = X.shape[0]
        majority = np.zeros((n_min + 3, X.shape[1]))
        values = np.vstack([X, majority])
        target = np.r_[np.ones(n_min, int), np.zeros(n_min + 3, int)]
        m = EncodedMatrix(values, target, tuple(f"f{j}" for j in range(X.shape[1])),
                          np.arange(target.size))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the k clamp warns when k_neighbors >= n_min
            out = smote(m, k_neighbors=k_neighbors, seed=seed)
        assert np.array_equal(out.values[m.n_rows:], _reference_smote(m, k_neighbors, seed))


def _reference_validate_cell(col, value, row_idx):
    if col.kind == "continuous":
        try:
            number = float(value)
        except ValueError:
            raise DataError(
                f"row {row_idx}: non-numeric value {value!r} in continuous column {col.name!r}"
            ) from None
        if not math.isfinite(number):
            raise DataError(
                f"row {row_idx}: non-finite value {value!r} in continuous column {col.name!r}")
    elif value not in col.categories:
        raise DataError(f"row {row_idx}: unknown category {value!r} in column {col.name!r}")


def _reference_dataset_from_rows(schema, rows, target):
    """dataset_from_rows as a row-by-row, cell-by-cell loop."""
    schema = tuple(schema)
    checked = []
    for i, row in enumerate(rows):
        row = tuple(row)
        if len(row) != len(schema):
            raise DataError(f"row {i}: expected {len(schema)} cells, got {len(row)}")
        for col, cell in zip(schema, row):
            if cell == "":
                raise DataError(f"row {i}: missing value in column {col.name!r}")
            _reference_validate_cell(col, cell, i)
        checked.append(row)
    if not checked:
        raise DataError("empty dataset")
    return data_module.Dataset(schema, tuple(checked), target)


def _reference_label_encode(dataset):
    """label_encode as a loop over rows and cells."""
    mappings = {c.name: {cat: i for i, cat in enumerate(sorted(c.categories))}
                for c in dataset.schema if c.kind != "continuous"}
    names = [c.name for c in dataset.schema]
    feature_cols = [c for c in dataset.schema if c.name != dataset.target]
    tcol = dataset.column(dataset.target)
    positive = data_module.positive_category(tcol)
    values = np.empty((dataset.n_rows, len(feature_cols)))
    target = np.empty(dataset.n_rows, dtype=np.int64)
    for i, row in enumerate(dataset.rows):
        for j, col in enumerate(feature_cols):
            cell = row[names.index(col.name)]
            values[i, j] = float(cell) if col.kind == "continuous" else mappings[col.name][cell]
        target[i] = 1 if row[names.index(dataset.target)] == positive else 0
    return values, target, tuple(c.name for c in feature_cols), mappings


_NUMBERS = ["1e3", " 12 ", "1_000", "-0.0", "0", "3.25", "-7", "+.5", "\t5\n", "1e-320"]
_NOT_NUMBERS = ["nan", "", "-inf", "Infinity", "1e400", "abc", "1__0", "0x10", "1,5"]
_CATEGORIES = ["a", "b", "B", " a", "é", "10", "yes"]
_NOT_CATEGORIES = ["", "zz", "A", "a "]


@st.composite
def _tables(draw):
    """A schema and string rows: categorical and binary columns whose declared
    categories may go unobserved, continuous cells in the forms
    float() accepts, and up to three bad cells of any kind and a row of the
    wrong length."""
    schema = []
    for j in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["categorical", "binary", "continuous"]))
        size = 2 if kind == "binary" else draw(st.integers(1, 4))
        categories = () if kind == "continuous" else tuple(draw(st.lists(
            st.sampled_from(_CATEGORIES), min_size=size, max_size=size, unique=True)))
        schema.append(ColumnSchema(f"f{j}", kind, categories))
    labels = draw(st.sampled_from([("not abused", "abused"), ("no", "yes"), ("beta", "alpha")]))
    schema.insert(draw(st.integers(0, len(schema))), ColumnSchema("t", "binary", labels))
    rows = [[draw(st.sampled_from(col.categories or _NUMBERS)) for col in schema]
            for _ in range(draw(st.integers(1, 8)))]
    for _ in range(draw(st.integers(0, 3))):  # bad cells
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(schema) - 1))
        rows[i][j] = draw(st.sampled_from(
            _NOT_NUMBERS if schema[j].kind == "continuous" else _NOT_CATEGORIES))
    if draw(st.integers(0, 3)) == 0:  # a row of the wrong length
        i = draw(st.integers(0, len(rows) - 1))
        rows[i] = rows[i][:-1] if draw(st.booleans()) else rows[i] + ["x"]
    return schema, rows


def _outcome(build, encode, schema, rows):
    """What validating and encoding a table gives: the error message, or the
    dataset and the encoded bits."""
    try:
        dataset = build(schema, rows, "t")
    except DataError as exc:
        return str(exc)
    return dataset, encode(dataset)


def _encoded(dataset):
    matrix, encoder = label_encode(dataset)
    assert np.array_equal(matrix.row_ids, np.arange(dataset.n_rows))
    return matrix.values.tobytes(), matrix.target.tolist(), matrix.column_names, encoder.mappings


def _reference_encoded(dataset):
    values, target, names, mappings = _reference_label_encode(dataset)
    return values.tobytes(), target.tolist(), names, mappings


class TestColumnParser:
    @given(_tables())
    @settings(max_examples=400, deadline=None)
    def test_matches_the_per_cell_code(self, table):
        """Column-at-a-time validation and encoding accept and reject the
        tables the per-cell loops do, with the same message, and give the
        same bits (-0.0 and 1e-320 included)."""
        schema, rows = table
        assert _outcome(Dataset, _encoded, schema, rows) == _outcome(
            _reference_dataset_from_rows, _reference_encoded, schema, rows)

    def test_several_faults_report_the_lowest_row_then_the_leftmost_column(self):
        rows = tiny_rows()
        rows[1] = ("blue", "no", "old", "")            # non-numeric age, missing target
        rows[2] = ("purple", "maybe", "nan", "abused")  # three faults, lower row first
        rows[3] = ("red", "no")                         # too short
        with pytest.raises(DataError) as caught:
            Dataset(tiny_schema(), rows, "abuse")
        assert str(caught.value) == "row 1: non-numeric value 'old' in continuous column 'age'"
        assert caught.value.row == 1
        rows[1] = tiny_rows()[1]
        with pytest.raises(DataError, match=r"^row 2: unknown category 'purple' in column 'color'$"):
            Dataset(tiny_schema(), rows, "abuse")
        rows[2] = ("red", "maybe", "nan", "abused")
        rows[0] = ("red", "yes", "25.5", "abused", "extra")  # a long row above every cell fault
        with pytest.raises(DataError, match=r"^row 0: expected 4 cells, got 5$"):
            Dataset(tiny_schema(), rows, "abuse")
