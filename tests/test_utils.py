"""Unit tests for ASCII rendering utilities."""

import numpy as np

from repro.utils import render_histogram, render_table, to_csv


class TestRenderTable:
    def test_alignment_and_title(self):
        out = render_table(["name", "value"], [["a", 1.5], ["bb", 22.125]],
                           title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1]
        assert "1.500" in out
        assert "22.125" in out

    def test_empty_rows(self):
        out = render_table(["x"], [])
        assert "x" in out

    def test_numpy_floats_formatted(self):
        out = render_table(["v"], [[np.float64(0.123456)]])
        assert "0.123" in out


class TestRenderHistogram:
    def test_counts_sum(self):
        values = np.arange(100.0)
        out = render_histogram(values, bins=5)
        counts = [int(line.split("|")[0].split()[-1])
                  for line in out.splitlines()]
        assert sum(counts) == 100

    def test_fixed_range(self):
        out = render_histogram([0.5], bins=2, value_range=(0.0, 1.0))
        assert "[  0.00,  0.50)" in out


class TestToCsv:
    def test_roundtrip_shape(self):
        csv = to_csv(["a", "b"], [[1, 2.5], ["x", 3]])
        lines = csv.strip().splitlines()
        assert lines[0] == "a,b"
        assert lines[1] == "1,2.5"
        assert lines[2] == "x,3"

    def test_trailing_newline(self):
        assert to_csv(["a"], [[1]]).endswith("\n")
