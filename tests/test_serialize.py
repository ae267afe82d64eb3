"""Deterministic serialization tests: shortest round-trip floats, CSV rules."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from relaysec.serialize import csv_cell, csv_line, dumps, write_csv


class TestDumps:
    def test_float_shortest_round_trip_text(self):
        assert dumps(0.1) == "0.1"
        assert dumps(1.0) == "1.0"
        assert dumps(0.5) == "0.5"
        assert dumps(np.float64(0.025)) == "0.025"
        assert dumps(0.1 + 0.2) == "0.30000000000000004"
        for x in (0.1, 0.025, 0.1 + 0.2, 5e-324, 1.7976931348623157e308):
            assert json.loads(dumps(x)) == x

    def test_special_floats(self):
        assert dumps(math.inf) == "Infinity"
        assert dumps(-math.inf) == "-Infinity"
        assert json.loads(dumps(math.inf)) == math.inf

    def test_sorted_keys(self):
        assert dumps({"b": 1, "a": 2}) == '{"a": 2, "b": 1}'

    def test_numpy_scalars_and_arrays(self):
        doc = {"x": np.float64(0.25), "k": np.int64(3), "flag": np.bool_(True),
               "arr": np.array([1.5, 2.5])}
        assert json.loads(dumps(doc)) == {"x": 0.25, "k": 3, "flag": True, "arr": [1.5, 2.5]}

    def test_round_trip_identity(self):
        doc = {"a": [0.1, 1e-17, 3], "b": {"c": None, "d": True, "e": "s"},
               "f": 0.6141566796135837}
        once = dumps(doc)
        assert json.loads(once) == doc
        assert dumps(json.loads(once)) == once

    def test_parse_recovers_exact_float64(self):
        rng = np.random.default_rng(1)
        for x in rng.exponential(size=200):
            assert json.loads(dumps(float(x))) == float(x)

    def test_indent_matches_flat_content(self):
        doc = {"a": [1, 2], "b": {"c": 0.5}}
        assert json.loads(dumps(doc, indent=2)) == json.loads(dumps(doc))

    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            dumps(object())


class TestCsv:
    def test_cells(self):
        assert csv_cell(None) == ""
        assert csv_cell(True) == "true"
        assert csv_cell(0.1) == "0.1"
        assert csv_cell(np.float64(0.025)) == "0.025"
        assert csv_cell(-math.inf) == "-Infinity"
        for x in (0.1, 0.1 + 0.2, 1.0, 5e-324, np.float64(0.025), math.inf):
            assert csv_cell(x) == dumps(x)  # one float text for JSON and CSV
            assert float(csv_cell(x)) == x
        assert csv_cell(7) == "7"
        assert csv_line([1, None, "ok"]) == "1,,ok"
        assert csv_line(["f(a, b)", 'say "hi"', "two\nlines"]) == \
            '"f(a, b)","say ""hi""","two\nlines"'

    def test_write_and_append(self, tmp_path):
        path = str(tmp_path / "t.csv")
        write_csv(path, ["a", "b"], [[1, 2]])
        write_csv(path, ["a", "b"], [[3, 4]], append=True)
        lines = Path(path).read_text().splitlines()
        assert lines == ["a,b", "1,2", "3,4"]

    def test_append_header_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "t.csv")
        write_csv(path, ["a", "b"], [[1, 2]])
        with pytest.raises(ValueError):
            write_csv(path, ["a", "c"], [[3, 4]], append=True)

    def test_overwrite_by_default(self, tmp_path):
        path = str(tmp_path / "t.csv")
        write_csv(path, ["a"], [[1]])
        write_csv(path, ["a"], [[2]])
        assert Path(path).read_text().splitlines() == ["a", "2"]
