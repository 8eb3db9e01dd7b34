"""Schema, matrix, loading, splitting, aggregation, and generator tests."""

import csv
import io
import json
import re
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from puhda import data
from puhda.data import (
    ColumnStats,
    DomainMatrix,
    FeatureSchema,
    SplitSpec,
    SyntheticSpec,
    _MAX_ARRAY_SIZE,
    _draw_blocks,
    _oracle_moments,
    aggregate_ratings,
    format_cell,
    generate_synthetic,
    load_csv,
    load_domain_matrix,
    load_genre_file,
    load_ratings_file,
    oracle_accuracy,
    parse_float,
    read_table,
    save_domain_matrix,
    split,
    standardize_splits,
    write_table,
)
from puhda.errors import ConfigurationError, DataError, InvalidInputError, SchemaError
from puhda.numerics import derive_rng


def small_schema():
    return FeatureSchema(
        common=("c0", "c1"),
        source_specific=("s0", "s1", "s2"),
        target_specific=("t0",),
        label_column="y",
    )


# --------------------------------------------------------------------------
# FeatureSchema


class TestFeatureSchema:
    def test_group_sizes(self):
        sch = small_schema()
        assert (sch.c, sch.s, sch.t) == (2, 3, 1)

    def test_duplicate_across_groups_rejected(self):
        with pytest.raises(SchemaError):
            FeatureSchema(("a", "b"), ("b",), ("c",))

    def test_duplicate_within_group_rejected(self):
        with pytest.raises(SchemaError):
            FeatureSchema(("a", "a"), ("b",), ("c",))

    def test_label_cannot_be_feature(self):
        with pytest.raises(SchemaError):
            FeatureSchema(("a",), ("b",), ("c",), label_column="b")

    def test_specific_for(self):
        sch = small_schema()
        assert sch.specific_for("source") == ("s0", "s1", "s2")
        assert sch.specific_for("target") == ("t0",)

    def test_heterogeneous_requirement(self):
        FeatureSchema(("a",), ("b",), ("c",)).require_heterogeneous()
        with pytest.raises(SchemaError):
            FeatureSchema(("a",), (), ("c",)).require_heterogeneous()

    def test_dict_round_trip(self):
        sch = small_schema()
        assert FeatureSchema(**asdict(sch)) == sch


# --------------------------------------------------------------------------
# DomainMatrix


class TestDomainMatrix:
    def test_features_layout(self):
        sch = small_schema()
        common = np.array([[1.0, 2.0], [3.0, 4.0]])
        spec = np.array([[5.0], [6.0]])
        dm = DomainMatrix(sch, "target", common, spec)
        assert np.array_equal(dm.features(), [[1.0, 2.0, 5.0], [3.0, 4.0, 6.0]])

    def test_bad_role(self):
        sch = small_schema()
        with pytest.raises(InvalidInputError):
            DomainMatrix(sch, "middle", np.zeros((1, 2)), np.zeros((1, 1)))

    def test_source_rejects_negative_labels(self):
        sch = small_schema()
        with pytest.raises(InvalidInputError):
            DomainMatrix(
                sch, "source", np.zeros((2, 2)), np.zeros((2, 3)), labels=[1, 0]
            )

    def test_target_allows_both_labels(self):
        sch = small_schema()
        dm = DomainMatrix(sch, "target", np.zeros((2, 2)), np.zeros((2, 1)), labels=[1, 0])
        assert dm.labels.tolist() == [1, 0]

    def test_wrong_specific_width(self):
        sch = small_schema()
        with pytest.raises(SchemaError):
            DomainMatrix(sch, "target", np.zeros((2, 2)), np.zeros((2, 3)))

    def test_row_mismatch(self):
        sch = small_schema()
        with pytest.raises(InvalidInputError):
            DomainMatrix(sch, "target", np.zeros((2, 2)), np.zeros((3, 1)))

    def test_aux_width_checked_against_other_domain(self):
        sch = small_schema()
        with pytest.raises(SchemaError):
            DomainMatrix(
                sch, "target", np.zeros((2, 2)), np.zeros((2, 1)),
                aux_specific=np.zeros((2, 1)),
            )
        dm = DomainMatrix(
            sch, "target", np.zeros((2, 2)), np.zeros((2, 1)),
            aux_specific=np.zeros((2, 3)),
        )
        assert dm.aux_specific.shape == (2, 3)

    def test_nonfinite_rejected(self):
        sch = small_schema()
        common = np.array([[1.0, np.nan]])
        with pytest.raises(InvalidInputError):
            DomainMatrix(sch, "target", common, np.zeros((1, 1)))

    def test_select_carries_everything(self):
        sch = small_schema()
        dm = DomainMatrix(
            sch, "target",
            np.arange(8.0).reshape(4, 2),
            np.arange(4.0).reshape(4, 1),
            labels=[0, 1, 0, 1],
            aux_specific=np.arange(12.0).reshape(4, 3),
        )
        sub = dm.select([2, 0])
        assert np.array_equal(sub.common, [[4.0, 5.0], [0.0, 1.0]])
        assert sub.labels.tolist() == [0, 0]
        assert np.array_equal(sub.aux_specific, [[6.0, 7.0, 8.0], [0.0, 1.0, 2.0]])

    def test_blocks_read_only(self):
        sch = small_schema()
        dm = DomainMatrix(sch, "target", np.zeros((2, 2)), np.zeros((2, 1)))
        with pytest.raises(ValueError):
            dm.common[0, 0] = 1.0


# --------------------------------------------------------------------------
# CSV loading


class TestLoadCsv:
    def write(self, tmp_path, text, name="data.csv"):
        p = tmp_path / name
        p.write_text(text)
        return p

    def test_basic_load_with_labels(self, tmp_path):
        p = self.write(
            tmp_path,
            "c0,c1,t0,y\n"
            "1.0,2.0,3.0,1\n"
            "4.0,5.0,6.0,0\n",
        )
        dm = load_csv(p, small_schema(), "target")
        assert np.array_equal(dm.common, [[1.0, 2.0], [4.0, 5.0]])
        assert np.array_equal(dm.specific, [[3.0], [6.0]])
        assert dm.labels.tolist() == [1, 0]
        assert dm.aux_specific is None

    def test_header_order_does_not_matter(self, tmp_path):
        p = self.write(tmp_path, "t0,c1,y,c0\n9.0,2.0,1,1.0\n")
        dm = load_csv(p, small_schema(), "target")
        assert np.array_equal(dm.common, [[1.0, 2.0]])
        assert np.array_equal(dm.specific, [[9.0]])

    def test_missing_column_named_in_error(self, tmp_path):
        p = self.write(tmp_path, "c0,t0\n1.0,2.0\n")
        with pytest.raises(SchemaError, match="'c1'"):
            load_csv(p, small_schema(), "target")

    def test_bad_cell_names_row_and_column(self, tmp_path):
        p = self.write(tmp_path, "c0,c1,t0\n1.0,2.0,3.0\n1.0,oops,3.0\n")
        with pytest.raises(DataError, match="row 2.*'c1'"):
            load_csv(p, small_schema(), "target")

    def test_ragged_row_rejected(self, tmp_path):
        p = self.write(tmp_path, "c0,c1,t0\n1.0,2.0\n")
        with pytest.raises(DataError, match="row 1"):
            load_csv(p, small_schema(), "target")

    def test_empty_file(self, tmp_path):
        p = self.write(tmp_path, "")
        with pytest.raises(DataError):
            load_csv(p, small_schema(), "target")

    def test_header_only(self, tmp_path):
        p = self.write(tmp_path, "c0,c1,t0\n")
        with pytest.raises(DataError, match="no data rows"):
            load_csv(p, small_schema(), "target")

    def test_positive_value_option(self, tmp_path):
        p = self.write(tmp_path, "c0,c1,t0,y\n1,2,3,yes\n4,5,6,no\n")
        dm = load_csv(p, small_schema(), "target", positive_value="yes")
        assert dm.labels.tolist() == [1, 0]

    def test_no_label_column_in_file(self, tmp_path):
        p = self.write(tmp_path, "c0,c1,t0\n1,2,3\n")
        dm = load_csv(p, small_schema(), "target")
        assert dm.labels is None

    def test_source_load_rejects_negatives(self, tmp_path):
        p = self.write(tmp_path, "c0,c1,s0,s1,s2,y\n1,2,3,4,5,0\n")
        with pytest.raises(InvalidInputError):
            load_csv(p, small_schema(), "source")

    def test_aux_block_loaded_when_all_columns_present(self, tmp_path):
        p = self.write(
            tmp_path,
            "c0,c1,t0,s0,s1,s2,y\n1,2,3,4,5,6,1\n",
        )
        dm = load_csv(p, small_schema(), "target")
        assert np.array_equal(dm.aux_specific, [[4.0, 5.0, 6.0]])

    def test_aux_block_skipped_when_partial(self, tmp_path):
        p = self.write(tmp_path, "c0,c1,t0,s0,y\n1,2,3,4,1\n")
        dm = load_csv(p, small_schema(), "target")
        assert dm.aux_specific is None


# --------------------------------------------------------------------------
# The NumPy pass and the row scan read the same bits

# name -> (file text, positive_value, whether the NumPy pass takes the file)
READER_CORPUS = {
    "plain": ("c0,c1,t0,y\n1.5,2,3,1\n4,5,6,0\n", "1", True),
    "no final newline": ("c0,c1,t0,y\n1.5,2,3,1\n4,5,6,0", "1", True),
    "aux columns and an unused numeric column": (
        "c0,c1,t0,s0,s1,s2,extra,y\n1,2,3,4,5,6,7,1\n8,9,10,11,12,13,14,0\n", "1", True),
    "quoted cells": ('c0,c1,t0,y\n"1.5",2,"3",1\n4,5,6,"0"\n', "1", False),
    "doubled quotes in an unused cell": (
        'c0,c1,t0,note,y\n1,2,3,"say ""hi"", twice",1\n4,5,6,x,0\n', "1", False),
    "quoted label": ('c0,c1,t0,y\n1,2,3," 1 "\n4,5,6,0\n', "1", False),
    "a quote inside a number": ('c0,c1,t0,y\n1,2"5,3,1\n', "1", False),
    "quote in the header": ('"c0",c1,t0,y\n1,2,3,1\n', "1", False),
    "crlf line ends": ("c0,c1,t0,y\r\n1,2,3,1\r\n4,5,6,0\r\n", "1", False),
    "lone cr line ends": ("c0,c1,t0,y\r1,2,3,1\r4,5,6,0\r", "1", False),
    "cr only after the header": ("c0,c1,t0,y\r\n1,2,3,1\n", "1", False),
    "blank lines": ("c0,c1,t0,y\n\n1,2,3,1\n\n\n4,5,6,0\n\n", "1", True),
    "whitespace-only lines": ("c0,c1,t0,y\n  \n1,2,3,1\n\t\n4,5,6,0\n", "1", False),
    "blank row of commas": ("c0,c1,t0,y\n1,2,3,1\n, ,\n", "1", False),
    "row of empty cells as wide as the header": ("c0,c1,t0,y\n1,2,3,1\n,,,\n", "1", False),
    "narrow row": ("c0,c1,t0,y\n1,2,3,1\n4,5\n", "1", False),
    "every row narrow": ("c0,c1,t0,y\n1,2,3\n4,5,6\n", "1", False),
    "wide row": ("c0,c1,t0,y\n1,2,3,1,9\n4,5,6,0\n", "1", False),
    "every row wide": ("c0,c1,t0,y\n1,2,3,1,9\n4,5,6,0,9\n", "1", False),
    "hash in a value cell": ("c0,c1,t0,y\n1,#2,3,1\n", "1", False),
    "hash in an unused cell": ("c0,c1,t0,note,y\n1,2,3,# x,1\n4,5,6,#,0\n", "1", True),
    "hash in the label": ("c0,c1,t0,y\n1,2,3,#1\n4,5,6,1\n", "1", True),
    "underscore digits": ("c0,c1,t0,y\n1_0,2,3,1\n", "1", False),
    "padded, signed and negative-zero cells": (
        "c0,c1,t0,y\n 4 ,+1e5,-0.0,1\n\t-.5\t,1E-5 ,+0,0\n", "1", True),
    "unicode digits": ("c0,c1,t0,y\n\u0661\u0662,2,3,1\n", "1", False),
    "unicode digit after an ascii one": ("c0,c1,t0,y\n1\u0661,2,3,1\n", "1", False),
    "unicode spaces around a number": ("c0,c1,t0,y\n\u20031.5\u00a0,2\x85,3\x0c,1\n", "1", True),
    "separator after a number": ("c0,c1,t0,y\n1,2\x1c,3,1\n", "1", False),
    "separator in an unused cell": ("c0,c1,t0,note,y\n1,2,3,a\x1fb,1\n", "1", False),
    "unparseable cell": ("c0,c1,t0,y\n1,2,3,1\n1,oops,3,1\n", "1", False),
    "empty cell": ("c0,c1,t0,y\n1,,3,1\n", "1", False),
    "hex cell": ("c0,c1,t0,y\n0x10,2,3,1\n", "1", False),
    "nul in a cell": ("c0,c1,t0,y\n1,2\x00,3,1\n", "1", False),
    "nul in an unused cell": ("c0,c1,t0,note,y\n1,2,3,a\x00,1\n", "1", False),
    "header only": ("c0,c1,t0,y\n", "1", False),
    "header only, no newline": ("c0,c1,t0,y", "1", False),
    "header and blank lines": ("c0,c1,t0,y\n\n\n", "1", False),
    "header and whitespace-only lines": ("c0,c1,t0,y\n \n\t\n", "1", False),
    "unused non-numeric columns": (
        "id,c0,c1,note,t0,y\nu1,1,2,hello world,3,1\nu2,4,5,\u00e9t\u00e9,6,0\n", "1", True),
    "duplicate column name": ("c0,c1,c0,t0,y\n1,2,x,3,1\n", "1", True),
    "labels with surrounding spaces": ("c0,c1,t0,y\n1,2,3, 1 \n4,5,6,\t0\n7,8,9,11\n", "1", True),
    "non-default positive value": (
        "c0,c1,t0,y\n1,2,3, yes \n4,5,6,no\n7,8,9,Yes\n", "yes", True),
    "positive value never matched": ("c0,c1,t0,y\n1,2,3,1\n", "pos", True),
    "no label column": ("c0,c1,t0\n1,2,3\n", "1", True),
    "missing column": ("c0,t0,y\n1,2,1\n", "1", False),
    "not a finite number": ("c0,c1,t0,y\n1,2,3,1\n\n4,nan,6,0\n", "1", False),
    "finite cell after an overflowing sum": ("c0,c1,t0,y\n1e308,1e308,1,1\n", "1", True),
    "bad cell before a non-finite one": ("c0,c1,t0,y\nx,inf,3,1\n", "1", False),
    "non-finite cell before a bad one": ("c0,c1,t0,y\n1,inf,3,1\n1,x,3,1\n", "1", False),
    "non-finite cell in an unused column": ("c0,c1,t0,extra,y\n1,2,3,nan,1\n", "1", True),
}


def _outcome(path, positive_value):
    """What ``load_csv`` gives for a target file: its blocks' bits, or the
    error it raises."""
    try:
        dm = load_csv(path, small_schema(), "target", positive_value)
    except (DataError, SchemaError, UnicodeDecodeError, csv.Error) as exc:
        return type(exc).__name__, str(exc)
    return [None if a is None else (a.dtype.str, a.shape, a.tobytes())
            for a in (dm.common, dm.specific, dm.aux_specific, dm.labels)]


def _read_both(monkeypatch, path, positive_value="1"):
    """``(whether the NumPy pass took the file, load_csv's outcome, the row
    scan's outcome)``."""
    numpy_pass, taken = data._numpy_pass, []

    def spy(*args):
        result = numpy_pass(*args)
        taken.append(result is not None)
        return result

    monkeypatch.setattr(data, "_numpy_pass", spy)
    loaded = _outcome(path, positive_value)
    monkeypatch.setattr(data, "_numpy_pass", lambda *args: None)
    scanned = _outcome(path, positive_value)
    return any(taken), loaded, scanned


class TestReaderEquivalence:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name", READER_CORPUS)
    def test_numpy_pass_and_row_scan_agree(self, tmp_path, monkeypatch, name):
        text, positive_value, taken = READER_CORPUS[name]
        path = tmp_path / "d.csv"
        with path.open("w", newline="") as fh:
            fh.write(text)
        took, loaded, scanned = _read_both(monkeypatch, path, positive_value)
        assert loaded == scanned
        assert took == taken

    def test_undecodable_bytes_give_the_row_scans_error(self, tmp_path, monkeypatch):
        path = tmp_path / "d.csv"
        path.write_bytes(b"c0,c1,t0,y\n1,2,3,1\n4,5,\xff,0\n")
        took, loaded, scanned = _read_both(monkeypatch, path)
        assert not took
        assert loaded == scanned
        assert loaded[0] == "UnicodeDecodeError"

    def test_accepted_cells_follow_float(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("c0,c1,t0,y\n1_0,\u0661\u0662, 4 ,1\n+1e5,-0.0,1e-320,0\n")
        dm = load_csv(path, small_schema(), "target")
        assert dm.common.tolist() == [[10.0, 12.0], [1e5, -0.0]]
        assert np.signbit(dm.common[1, 1])
        assert dm.specific.tolist() == [[4.0], [1e-320]]

    @pytest.mark.parametrize("column, cell", [
        ("c1", "nan"), ("c0", "-Infinity"), ("t0", "inf"), ("t0", "1e400"), ("s2", "-1e999"),
    ])
    def test_a_nonfinite_cell_is_rejected_with_its_row_and_column(
            self, tmp_path, monkeypatch, column, cell):
        header = ["c0", "c1", "t0", "s0", "s1", "s2", "y"]
        bad = ["1", "2", "3", "4", "5", "6", "0"]
        bad[header.index(column)] = cell
        path = tmp_path / "d.csv"
        path.write_text(",".join(header) + "\n1,2,3,4,5,6,1\n\n" + ",".join(bad) + "\n")
        took, loaded, scanned = _read_both(monkeypatch, path)
        assert loaded == scanned == (
            "DataError", f"{path}: row 3, column {column!r}: {cell!r} is not a finite number")
        assert not took

    def test_the_first_rejected_cell_in_file_order_is_named(self, tmp_path, monkeypatch):
        path = tmp_path / "d.csv"
        path.write_text("c0,c1,t0,y\nnan,abc,3,1\n")
        took, loaded, scanned = _read_both(monkeypatch, path)
        assert loaded == scanned == (
            "DataError", f"{path}: row 1, column 'c0': 'nan' is not a finite number")
        assert not took


class TestMatrixSerialization:
    def test_round_trip_bit_identical(self, tmp_path):
        rng = derive_rng(7, "serialize-test")
        sch = small_schema()
        dm = DomainMatrix(
            sch, "target",
            rng.normal(size=(20, 2)),
            rng.normal(size=(20, 1)),
            labels=(rng.random(20) < 0.5).astype(np.int8),
            aux_specific=rng.normal(size=(20, 3)),
        )
        path = tmp_path / "m.csv"
        save_domain_matrix(dm, path)
        back = load_domain_matrix(path)
        assert back.role == "target"
        assert np.array_equal(back.common, dm.common)
        assert np.array_equal(back.specific, dm.specific)
        assert np.array_equal(back.aux_specific, dm.aux_specific)
        assert np.array_equal(back.labels, dm.labels)
        assert back.schema == dm.schema

    def test_wide_round_trip_is_bit_identical(self, tmp_path, monkeypatch):
        n, c, s, t = 1000, 40, 30, 30
        sch = FeatureSchema(tuple(f"c{j}" for j in range(c)), tuple(f"s{j}" for j in range(s)),
                            tuple(f"t{j}" for j in range(t)), label_column="y")
        rng = derive_rng(11, "serialize-test")
        values = rng.integers(0, 2**64, size=(n, c + s + t), dtype=np.uint64).view(np.float64)
        values[~np.isfinite(values)] = 0.0
        subnormals = rng.integers(1, 2**52, size=n, dtype=np.uint64).view(np.float64)
        values[:, 5] = np.where(rng.random(n) < 0.5, subnormals, -subnormals)
        values[:, 6] = rng.normal(size=n)
        special = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
                   1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1 / 3]
        values[:len(special), :] = np.array(special)[:, None]
        dm = DomainMatrix(sch, "target", values[:, :c], values[:, c:c + t],
                          labels=(rng.random(n) < 0.5).astype(np.int8),
                          aux_specific=values[:, c + t:])
        path = tmp_path / "wide.csv"
        save_domain_matrix(dm, path)
        took, loaded, scanned = _read_both(monkeypatch, path)
        assert took
        assert loaded == scanned
        back = load_domain_matrix(path)
        for got, want in [(back.common, dm.common), (back.specific, dm.specific),
                          (back.aux_specific, dm.aux_specific), (back.labels, dm.labels)]:
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_round_trip_without_labels_or_aux(self, tmp_path):
        rng = derive_rng(8, "serialize-test")
        sch = small_schema()
        dm = DomainMatrix(sch, "source", rng.normal(size=(5, 2)), rng.normal(size=(5, 3)))
        path = tmp_path / "m.csv"
        save_domain_matrix(dm, path)
        back = load_domain_matrix(path)
        assert back.labels is None
        assert back.aux_specific is None
        assert np.array_equal(back.specific, dm.specific)

    def test_missing_sidecar(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("c0,c1,t0\n1,2,3\n")
        with pytest.raises(DataError, match="sidecar"):
            load_domain_matrix(path)

    @pytest.mark.parametrize("spoil", [
        pytest.param(lambda doc: doc.pop("role"), id="missing-role"),
        pytest.param(lambda doc: doc.pop("has_labels"), id="missing-has_labels"),
        pytest.param(lambda doc: doc["schema"].update(extra=["x"]), id="extra-schema-key"),
        pytest.param(lambda doc: doc.update(schema=["c0", "c1"]), id="schema-not-a-mapping"),
        pytest.param(lambda doc: doc.update(role="middle"), id="unknown-role"),
        pytest.param(lambda doc: doc["schema"].update(target_specific=["c0"]),
                     id="overlapping-groups"),
        pytest.param(None, id="not-json"),
    ])
    def test_bad_sidecar_is_a_data_error_naming_the_file(self, tmp_path, spoil):
        rng = derive_rng(9, "serialize-test")
        dm = DomainMatrix(small_schema(), "source", rng.normal(size=(5, 2)),
                          rng.normal(size=(5, 3)))
        path = tmp_path / "m.csv"
        save_domain_matrix(dm, path)
        sidecar = tmp_path / "m.csv.schema.json"
        if spoil is None:
            sidecar.write_text("{not json")
        else:
            doc = json.loads(sidecar.read_text())
            spoil(doc)
            sidecar.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="m.csv.schema.json: not a schema sidecar"):
            load_domain_matrix(path)

    def test_unreadable_files_are_data_errors_naming_them(self, tmp_path):
        rng = derive_rng(9, "serialize-test")
        dm = DomainMatrix(small_schema(), "source", rng.normal(size=(5, 2)),
                          rng.normal(size=(5, 3)))
        path = tmp_path / "m.csv"
        save_domain_matrix(dm, path)
        path.unlink()
        with pytest.raises(DataError, match=re.escape(f"{path}: cannot read")):
            load_domain_matrix(path)
        sidecar = tmp_path / "m.csv.schema.json"
        sidecar.unlink()
        sidecar.mkdir()
        with pytest.raises(DataError, match="m.csv.schema.json: not a schema sidecar"):
            load_domain_matrix(path)


# --------------------------------------------------------------------------
# Splitting


class TestSplit:
    def make_target(self, n=200, pos=80):
        sch = small_schema()
        rng = derive_rng(3, "split-fixture")
        labels = np.zeros(n, dtype=np.int8)
        labels[:pos] = 1
        labels = labels[rng.permutation(n)]
        return DomainMatrix(
            sch, "target", rng.normal(size=(n, 2)), rng.normal(size=(n, 1)), labels=labels
        )

    def test_fraction_validation(self):
        with pytest.raises(ConfigurationError, match="^split fractions must sum to 1"):
            SplitSpec(0.5, 0.5, 0.2)
        with pytest.raises(ConfigurationError, match=r"^test: must be > 0, got 0\.0$"):
            SplitSpec(0.8, 0.2, 0.0)

    def test_partition_covers_all_rows_once(self):
        dm = self.make_target()
        tr, va, te = split(dm, SplitSpec(0.6, 0.2, 0.2, seed=11))
        assert tr.n + va.n + te.n == dm.n
        # splits are disjoint: every original row appears in exactly one part
        seen = np.vstack([tr.features(), va.features(), te.features()])
        original = dm.features()
        assert sorted(map(tuple, seen)) == sorted(map(tuple, original))

    def test_stratified_proportions(self):
        dm = self.make_target(n=500, pos=200)
        tr, va, te = split(dm, SplitSpec(0.6, 0.2, 0.2, seed=5))
        # floor-based stratified counts: 0.6*200=120 and 0.6*300=180 positives/negatives
        assert int(tr.labels.sum()) == 120
        assert tr.n == 300
        assert int(va.labels.sum()) == 40

    def test_deterministic(self):
        dm = self.make_target()
        a = split(dm, SplitSpec(0.6, 0.2, 0.2, seed=9))
        b = split(dm, SplitSpec(0.6, 0.2, 0.2, seed=9))
        for x, y in zip(a, b):
            assert np.array_equal(x.features(), y.features())

    def test_seed_changes_assignment(self):
        dm = self.make_target()
        a = split(dm, SplitSpec(0.6, 0.2, 0.2, seed=1))
        b = split(dm, SplitSpec(0.6, 0.2, 0.2, seed=2))
        assert not np.array_equal(a[0].features(), b[0].features())

    def test_empty_split_rejected(self):
        dm = self.make_target(n=20, pos=10)
        with pytest.raises(ConfigurationError, match="empty"):
            split(dm, SplitSpec(0.98, 0.01, 0.01, seed=0))

    def test_unlabeled_split_works(self):
        sch = small_schema()
        rng = derive_rng(4, "split-fixture")
        dm = DomainMatrix(sch, "source", rng.normal(size=(50, 2)), rng.normal(size=(50, 3)))
        tr, va, te = split(dm, SplitSpec(0.6, 0.2, 0.2, seed=0))
        assert tr.n + va.n + te.n == 50


# --------------------------------------------------------------------------
# Standardization


class TestStandardize:
    def build(self):
        sch = small_schema()
        rng = derive_rng(12, "standardize-fixture")
        src = DomainMatrix(
            sch, "source",
            3.0 + 2.0 * rng.normal(size=(40, 2)),
            1.0 + 0.5 * rng.normal(size=(40, 3)),
            labels=np.ones(40, dtype=np.int8),
        )
        def tgt(n):
            return DomainMatrix(
                sch, "target",
                -1.0 + 4.0 * rng.normal(size=(n, 2)),
                5.0 + rng.normal(size=(n, 1)),
                labels=(rng.random(n) < 0.5).astype(np.int8),
            )
        return src, tgt(60), tgt(20), tgt(20)

    def test_pooled_common_statistics(self):
        src, tr, va, te = self.build()
        s2, t2, v2, e2 = standardize_splits(src, tr, va, te)
        pooled = np.vstack([s2.common, t2.common])
        assert np.allclose(pooled.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(pooled.std(axis=0), 1.0, atol=1e-12)

    def test_specific_per_domain(self):
        src, tr, va, te = self.build()
        s2, t2, v2, e2 = standardize_splits(src, tr, va, te)
        assert np.allclose(s2.specific.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(t2.specific.std(axis=0), 1.0, atol=1e-12)
        # val/test reuse train statistics, so they are not themselves centered
        assert not np.allclose(v2.specific.mean(axis=0), 0.0, atol=1e-3)

    def test_transform_is_affine_from_train_stats(self):
        src, tr, va, te = self.build()
        _, t2, v2, _ = standardize_splits(src, tr, va, te)
        # recover the map from train block and check it on val rows
        mean = np.vstack([src.common, tr.common]).mean(axis=0)
        std = np.vstack([src.common, tr.common]).std(axis=0)
        assert np.allclose(v2.common, (va.common - mean) / std)

    def test_zero_variance_column_stays_centered(self):
        stats_in = np.array([[2.0, 1.0], [2.0, 3.0]])
        stats = ColumnStats(stats_in.mean(axis=0), np.where(stats_in.std(axis=0) == 0, 1.0, stats_in.std(axis=0)))
        out = stats.apply(stats_in)
        assert np.array_equal(out[:, 0], [0.0, 0.0])

    def test_labels_preserved(self):
        src, tr, va, te = self.build()
        _, t2, _, e2 = standardize_splits(src, tr, va, te)
        assert np.array_equal(t2.labels, tr.labels)
        assert np.array_equal(e2.labels, te.labels)


# --------------------------------------------------------------------------
# Ratings aggregation


GENRES = {
    "A": ("g1",),
    "B": ("g1", "g2"),
    "C": ("lab",),
    "D": ("g3",),
}


def ratings_fixture():
    return [
        ("u1", "A", 5.0), ("u1", "B", 3.0), ("u1", "C", 4.0), ("u1", "D", 1.0),
        ("u2", "A", 2.0), ("u2", "C", 1.0),
        ("u3", "B", 4.0), ("u3", "C", 4.0), ("u3", "D", 5.0),
    ]


class TestAggregateRatings:
    def test_target_features_hand_computed(self):
        # per-user means computed by hand:
        #   u1: overall 3.25; g1 (A,B) 4.0-3.25=0.75; g2 (B) -0.25; g3 (D) -2.25; lab 0.75 -> 1
        #   u2: overall 1.5;  g1 (A) 0.5; g2 none -> 0; g3 none -> 0; lab -0.5 -> 0
        #   u3: overall 13/3; g1 (B) -1/3; g2 (B) -1/3; g3 (D) 2/3; lab -1/3 -> 0
        dm = aggregate_ratings(
            ratings_fixture(), GENRES,
            common_genres=("g1",), target_genres=("g3",),
            source_genres=("g2",), label_genre="lab", role="target",
        )
        assert dm.n == 3
        assert np.allclose(dm.common[:, 0], [0.75, 0.5, -1.0 / 3.0])
        assert np.allclose(dm.specific[:, 0], [-2.25, 0.0, 2.0 / 3.0])
        assert np.allclose(dm.aux_specific[:, 0], [-0.25, 0.0, -1.0 / 3.0])
        assert dm.labels.tolist() == [1, 0, 0]

    def test_source_keeps_only_positive_users(self):
        dm = aggregate_ratings(
            ratings_fixture(), GENRES,
            common_genres=("g1",), target_genres=("g3",),
            source_genres=("g2",), label_genre="lab", role="source",
        )
        assert dm.n == 1
        assert np.allclose(dm.common[:, 0], [0.75])
        assert np.allclose(dm.specific[:, 0], [-0.25])  # source block is g2
        assert dm.labels.tolist() == [1]
        assert np.allclose(dm.aux_specific[:, 0], [-2.25])

    def test_label_tie_is_negative(self):
        ratings = [("u4", "C", 3.0), ("u4", "A", 3.0)]
        dm = aggregate_ratings(
            ratings, GENRES,
            common_genres=("g1",), target_genres=("g3",),
            source_genres=("g2",), label_genre="lab", role="target",
        )
        assert dm.labels.tolist() == [0]

    def test_row_order_sorted_by_user(self):
        shuffled = list(reversed(ratings_fixture()))
        a = aggregate_ratings(
            ratings_fixture(), GENRES, ("g1",), ("g3",), ("g2",), "lab", "target"
        )
        b = aggregate_ratings(shuffled, GENRES, ("g1",), ("g3",), ("g2",), "lab", "target")
        assert np.array_equal(a.features(), b.features())

    def test_unknown_item_rejected(self):
        with pytest.raises(DataError, match="'Z'"):
            aggregate_ratings(
                [("u1", "Z", 3.0)], GENRES, ("g1",), ("g3",), ("g2",), "lab", "target"
            )

    def test_label_genre_must_be_excluded(self):
        with pytest.raises(SchemaError):
            aggregate_ratings(
                ratings_fixture(), GENRES, ("g1", "lab"), ("g3",), ("g2",), "lab", "target"
            )

    def test_no_positive_source_users(self):
        ratings = [("u2", "A", 2.0), ("u2", "C", 1.0)]
        with pytest.raises(DataError, match="positive"):
            aggregate_ratings(
                ratings, GENRES, ("g1",), ("g3",), ("g2",), "lab", "source"
            )


class TestRatingsFiles:
    def test_load_ratings(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("user,item,rating\nu1,A,5\nu2,B,3.5\n")
        assert load_ratings_file(p) == [("u1", "A", 5.0), ("u2", "B", 3.5)]

    def test_ratings_header_required(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("a,b,c\nu1,A,5\n")
        with pytest.raises(SchemaError):
            load_ratings_file(p)

    def test_bad_rating_cell(self, tmp_path):
        p = tmp_path / "r.csv"
        for cell, problem in (("high", "cannot parse 'high'"),
                              ("nan", "'nan' is not a finite number"),
                              ("inf", "'inf' is not a finite number")):
            p.write_text(f"user,item,rating\nu1,A,{cell}\n")
            with pytest.raises(DataError, match=re.escape(f"{p}: row 1, column 'rating': {problem}")):
                load_ratings_file(p)

    def test_load_genres(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text("item,genres\nA,g1|g2\nB,g3\n")
        assert load_genre_file(p) == {"A": ("g1", "g2"), "B": ("g3",)}

    @pytest.mark.parametrize("load, text", [
        pytest.param(load_ratings_file, "user,item,rating\nu1,A,5\n\nu2,B\n", id="ratings"),
        pytest.param(load_genre_file, "item,genres\nA,g1\n\nB\n", id="genres"),
    ])
    def test_short_row_is_a_data_error_naming_the_file(self, tmp_path, load, text):
        p = tmp_path / "short.csv"
        p.write_text(text)
        message = re.escape(f"{p}: row 3 has ") + r"\d cells, header has \d"
        with pytest.raises(DataError, match=message):
            load(p)


# --------------------------------------------------------------------------
# Synthetic generator


def bench_spec(**overrides):
    base = dict(
        c=4, s=6, t=6, n_source=400, n_target=400,
        positive_ratio=0.5, coupling=0.9, seed=0,
    )
    base.update(overrides)
    return SyntheticSpec(**base)


class TestSyntheticSpec:
    def test_validation(self):
        with pytest.raises(ConfigurationError, match=r"^c: must be >= 1, got 0$"):
            bench_spec(c=0)
        with pytest.raises(ConfigurationError,
                           match=r"^positive_ratio: must be in \(0, 1\), got 1\.5$"):
            bench_spec(positive_ratio=1.5)
        with pytest.raises(ConfigurationError, match=r"^coupling: must be in \[0, 1\], got 1\.1$"):
            bench_spec(coupling=1.1)
        with pytest.raises(ConfigurationError, match="leaves a class under 10 samples"):
            bench_spec(n_target=12)  # leaves a class under 10 rows

    @pytest.mark.parametrize("field", ["c", "s", "t", "n_source", "n_target", "latent_noise_dim"])
    @pytest.mark.parametrize("size", [_MAX_ARRAY_SIZE + 1, 10 ** 399], ids=["past-bound", "400-digits"])
    def test_a_size_too_large_for_any_array_is_rejected_before_anything_is_drawn(self, field, size):
        # both sizes are past the bound, so the spec is rejected before generate_synthetic runs
        with pytest.raises(ConfigurationError, match=rf"^{field}: too large, got {size}$"):
            bench_spec(**{field: size})


class TestGenerateSynthetic:
    def test_shapes_and_schema(self):
        src, tgt, oracle = generate_synthetic(bench_spec())
        assert src.common.shape == (400, 4)
        assert src.specific.shape == (400, 6)
        assert src.aux_specific.shape == (400, 6)
        assert tgt.common.shape == (400, 4)
        assert tgt.specific.shape == (400, 6)
        assert tgt.aux_specific.shape == (400, 6)
        assert tgt.schema.label_column == "label"

    def test_source_all_positive(self):
        src, _, _ = generate_synthetic(bench_spec())
        assert np.all(src.labels == 1)

    def test_exact_positive_count(self):
        _, tgt, _ = generate_synthetic(bench_spec(positive_ratio=0.3, n_target=250))
        assert int(tgt.labels.sum()) == round(0.3 * 250)

    def test_deterministic(self):
        a_src, a_tgt, a_oracle = generate_synthetic(bench_spec(seed=5))
        b_src, b_tgt, b_oracle = generate_synthetic(bench_spec(seed=5))
        assert np.array_equal(a_src.features(), b_src.features())
        assert np.array_equal(a_tgt.features(), b_tgt.features())
        assert np.array_equal(a_tgt.labels, b_tgt.labels)
        assert a_oracle == b_oracle

    def test_seed_matters(self):
        a_src, _, _ = generate_synthetic(bench_spec(seed=1))
        b_src, _, _ = generate_synthetic(bench_spec(seed=2))
        assert not np.array_equal(a_src.features(), b_src.features())

    def test_source_and_target_rows_independent(self):
        src, tgt, _ = generate_synthetic(bench_spec(n_source=400, n_target=400))
        assert not np.array_equal(src.common[:5], tgt.common[:5])

    def test_moments_match_analytic_form(self):
        # Dual route: the closed-form class mean and covariance used by the
        # exact rule must match sample moments of the actual draw.
        spec = bench_spec(n_target=60000)
        m, sigma, _ = _oracle_moments(spec, "full")
        rng = derive_rng(spec.seed, "moment-check")
        u = np.ones(60000)
        common, _, target_spec = _draw_blocks(spec, u, rng)
        x = np.hstack([common, target_spec])
        assert np.allclose(x.mean(axis=0), m, atol=0.05)
        assert np.allclose(np.cov(x, rowvar=False), sigma, atol=0.08)

    def test_negative_class_mean_is_mirrored(self):
        spec = bench_spec(n_target=60000)
        m, _, _ = _oracle_moments(spec, "full")
        rng = derive_rng(spec.seed, "moment-check-neg")
        common, _, target_spec = _draw_blocks(spec, -np.ones(60000), rng)
        x = np.hstack([common, target_spec])
        assert np.allclose(x.mean(axis=0), -m, atol=0.05)


class TestOracleAccuracy:
    def test_better_than_chance_and_valid(self):
        acc = oracle_accuracy(bench_spec(), "full")
        assert 0.5 < acc <= 1.0

    def test_full_beats_common_only(self):
        # the benchmark design puts most label signal in the specific blocks
        spec = bench_spec(signal_common=0.4, signal_target=1.2)
        assert oracle_accuracy(spec, "full") > oracle_accuracy(spec, "common")

    def test_separation_increases_accuracy(self):
        lo = oracle_accuracy(bench_spec(label_separation=0.3), "full")
        hi = oracle_accuracy(bench_spec(label_separation=2.0), "full")
        assert hi > lo

    def test_unknown_subset(self):
        with pytest.raises(InvalidInputError):
            oracle_accuracy(bench_spec(), "source_specific")

    def test_rule_optimality_on_sample(self):
        # the exact rule should not lose to a learned logistic fit by more
        # than sampling noise; compare against a ridge least-squares probe
        spec = bench_spec(n_target=4000)
        _, tgt, oracle = generate_synthetic(spec)
        x = tgt.features()
        y = tgt.labels.astype(np.float64)
        reg = 1e-3 * np.eye(x.shape[1] + 1)
        xb = np.hstack([x, np.ones((x.shape[0], 1))])
        w = np.linalg.solve(xb.T @ xb / x.shape[0] + reg, xb.T @ (2 * y - 1) / x.shape[0])
        probe_acc = float(np.mean(((xb @ w) > 0).astype(np.int8) == tgt.labels))
        assert oracle >= probe_acc - 0.03


# --------------------------------------------------------------------------
# Delimited text


class TestTables:
    def test_reader_numbers_rows_and_skips_blank_ones(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text(" a , b\n1,2\n\n  \n3,4,5\n")
        header, rows = read_table(p)
        assert header == ["a", "b"]
        assert list(rows) == [(1, ["1", "2"]), (4, ["3", "4", "5"])]

    def test_reader_rejects_an_empty_file(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("")
        with pytest.raises(DataError, match=re.escape(f"{p}: file is empty")):
            read_table(p)

    def test_float_parser_names_file_row_and_column(self):
        assert parse_float("f.csv", 3, "x", " 2.5 ") == 2.5
        with pytest.raises(DataError, match=re.escape("f.csv: row 3, column 'x': cannot parse 'n/a'")):
            parse_float("f.csv", 3, "x", " n/a")
        with pytest.raises(DataError, match=re.escape(
                "f.csv: row 3, column 'x': '-inf' is not a finite number")):
            parse_float("f.csv", 3, "x", "-inf ")

    def test_writer_round_trips_floats_and_quotes_delimiters(self, tmp_path):
        p = tmp_path / "out" / "t.csv"
        write_table(p, ("a", "b", "c"), [(0.1, None, "x,y"), (np.float64(1 / 3), 7, float("nan"))])
        assert p.read_text() == 'a,b,c\n0.1,,"x,y"\n0.3333333333333333,7,nan\n'
        header, rows = read_table(p)
        assert [parse_float(p, i, "a", row[0]) for i, row in rows] == [0.1, 1 / 3]

    def test_writer_joins_number_rows_as_the_csv_writer_would(self, tmp_path):
        rows = [(0.1, -0.0, 5e-324, 1.7976931348623157e308, float("inf"), float("nan"), 7, -12),
                (np.float64(0.5), np.int64(3), True, None, "a,b", 'q"', 2.5),
                (1, 2.0), (1.5, True), (np.float64(2.5), 3), (None,), (None, 2.0), (), ("",),
                (10**30, -1e-300)]
        path = tmp_path / "t.csv"
        write_table(path, ("a", "b"), rows)
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(("a", "b"))
        writer.writerows([format_cell(v) for v in row] for row in rows)
        assert path.read_text() == expected.getvalue()


def test_only_the_data_module_reads_or_writes_delimited_text():
    src = Path(__file__).resolve().parents[1] / "src" / "puhda"
    users = sorted(f.name for f in src.glob("*.py")
                   if re.search(r"\bcsv\.(reader|writer)\b|^import csv\b", f.read_text(), re.M))
    assert users == ["data.py"]
