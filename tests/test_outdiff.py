"""The output-diff tool: its parser, its ulp count and its report on two runs."""

import importlib.util
import math
import subprocess
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commutator_bounds import matrix_to_pairs

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def outdiff():
    spec = importlib.util.spec_from_file_location("outdiff", ROOT / "tools" / "outdiff.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestParseRows:
    def test_json_lines(self, outdiff):
        text = '{"dim": 3, "ratio": 1.5, "trace": [1.0, 2.0]}\n\n{"summary": true}\n'
        assert outdiff.parse_rows(text) == [
            {"dim": 3, "ratio": 1.5, "trace": [1.0, 2.0]},
            {"summary": True},
        ]

    def test_csv_cells_become_numbers(self, outdiff):
        text = "name,mean,samples,target\nrobertson,0.25,300,\nbound1,1e-300,7,0.5\n"
        assert outdiff.parse_rows(text) == [
            {"name": "robertson", "mean": 0.25, "samples": 300, "target": ""},
            {"name": "bound1", "mean": 1e-300, "samples": 7, "target": 0.5},
        ]

    def test_empty_output(self, outdiff):
        assert outdiff.parse_rows("\n") == []


class TestUlpDistance:
    @pytest.mark.parametrize(
        "a, b, ulps",
        [
            (1.0, 1.0, 0),
            (0.0, -0.0, 0),
            (1.0, math.nextafter(1.0, 2.0), 1),
            (2.0, math.nextafter(2.0, 0.0), 1),
            (1.0, 2.0, 2**52),
            (5e-324, -5e-324, 2),
            (-1.0, math.nextafter(-1.0, -2.0), 1),
            (math.inf, math.inf, 0),
            (math.nan, math.nan, 0),
            (1.0, math.inf, math.inf),
            (1.0, math.nan, math.inf),
        ],
    )
    def test_known_distances(self, outdiff, a, b, ulps):
        assert outdiff.ulp_distance(a, b) == ulps
        assert outdiff.ulp_distance(b, a) == ulps

    @settings(max_examples=200, deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False), st.integers(1, 5))
    def test_counts_nextafter_steps(self, outdiff, x, steps):
        y = x
        for _ in range(steps):
            y = math.nextafter(y, math.inf)
        if math.isfinite(y):
            assert outdiff.ulp_distance(x, y) == steps


class TestCompareRows:
    M = np.array([[1.0, 2.0 - 1.0j], [2.0 + 1.0j, -3.0]])

    def test_fields_by_kind(self, outdiff):
        old = [{"k": 1, "x": 1.0, "t": [1.0, 4.0], "w": matrix_to_pairs(self.M)}]
        new = [
            {"k": 2, "x": math.nextafter(1.0, 2.0), "t": [1.0, 4.5],
             "w": matrix_to_pairs(-3j * self.M)},
            {"extra": True},
        ]
        diff = outdiff.compare_rows(old, new)
        assert diff["rows"] == (1, 2)
        assert diff["keys"] == ({"k", "x", "t", "w"}, {"k", "x", "t", "w", "extra"})
        assert diff["rows_with_other_keys"] == []
        assert diff["differing"] == [(0, "k", 1, 2)]
        eps = 2.0**-52
        assert diff["floats"]["x"] == (eps / (1.0 + eps), 1, eps)
        assert diff["floats"]["t"] == (0.5 / 4.5, 2**49, 0.5)
        assert diff["matrices"]["w"] < 1e-15

    def test_orthogonal_matrices_and_other_shapes(self, outdiff):
        a = matrix_to_pairs(np.diag([1.0, 0.0]))
        b = matrix_to_pairs(np.diag([0.0, 1.0]))
        diff = outdiff.compare_rows(
            [{"w": a, "t": [1.0], "s": "x"}], [{"w": b, "t": [1.0, 2.0], "y": 1}]
        )
        assert diff["matrices"]["w"] == pytest.approx(math.sqrt(2.0))
        assert diff["differing"] == [(0, "t", [1.0], [1.0, 2.0])]
        assert diff["rows_with_other_keys"] == [0]
        assert outdiff.matrix_distance(a, matrix_to_pairs(np.eye(3))) == math.inf


class TestReport:
    def test_equal_runs(self, outdiff):
        proc = outdiff.run_command(ROOT / "src", ["fig1", "--points", "3"])
        assert proc.returncode == 0
        text = outdiff.report("REV", proc, proc)
        assert "stdout bytes: equal" in text
        assert "rows: 3 vs 3" in text
        assert "non-float fields that differ: none" in text
        assert "  bound1                   0  0  0" in text

    def test_moved_value(self, outdiff):
        old = subprocess.CompletedProcess([], 0, b'{"r": 1.0, "n": 1}\n', b"")
        new = subprocess.CompletedProcess([], 1, b'{"r": 1.0000000000000002, "n": 2}\n', b"")
        text = outdiff.report("REV", old, new)
        assert "exit codes: REV 0, working tree 1" in text
        assert "stdout bytes: differ" in text
        assert "  row 0 n: 1 -> 2" in text
        assert "  r                        2.22e-16  1  2.22e-16" in text

    def test_usage(self, outdiff, capsys):
        assert outdiff.main(["HEAD", "verify-conjecture"]) == 2
        assert "usage" in capsys.readouterr().err
