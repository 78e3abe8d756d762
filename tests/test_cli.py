"""CLI contract: exit codes, output schemas, byte-level determinism."""

import argparse
import ctypes
import dataclasses
import gc
import hashlib
import importlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from commutator_bounds import (
    BOUND_NAMES,
    FIG1_HEADER,
    FIG2_HEADER,
    NumericalConsistencyError,
    averaged_bounds_qubit,
    batch_bounds,
    matrix_from_pairs,
    maximize_ratio,
    mc_mub_average,
    monte_carlo_qubit_average,
    mub_column_averages,
)
from commutator_bounds.averages import chunk_rows
from commutator_bounds.cli import _compare_lines, _mub_samples, build_parser, main
from commutator_bounds.mub import MUB_COLUMN_NAMES, mub_samples


SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(*args, cwd=None):
    # The children run in tmp_path, where a relative PYTHONPATH does not resolve, so
    # this checkout's src goes first by its absolute path, installed or not.
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "commutator_bounds", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
        timeout=600,
    )


def assert_exit(proc, code):
    """Assert the child's exit code, naming its stderr if it differs."""
    assert proc.returncode == code, f"exit {proc.returncode}, stderr:\n{proc.stderr}"


def ok_stdout(proc):
    """The stdout of a child that exited 0 and wrote something."""
    assert_exit(proc, 0)
    assert proc.stdout, "exit 0 with empty stdout"
    return proc.stdout


class TestCompare:
    def test_emits_one_line_per_sample_with_flags(self, tmp_path):
        proc = run_cli("compare", "--dim", "2", "--samples", "50", "--seed", "7", cwd=tmp_path)
        assert_exit(proc, 0)
        lines = proc.stdout.strip().splitlines()
        assert len(lines) == 50
        for i, line in enumerate(lines):
            record = json.loads(line)
            assert record["index"] == i
            assert record["dim"] == 2
            for name in ("robertson", "schrodinger", "luo_park", "bound1", "bound2"):
                assert record[f"pass_{name}"] is True
                assert record[name] >= 0.0
            assert record["product"] >= 0.0

    def test_invalid_dim_is_usage_error(self, tmp_path):
        proc = run_cli("compare", "--dim", "0", "--samples", "10", cwd=tmp_path)
        assert_exit(proc, 2)

    def test_deterministic_bytes(self, tmp_path):
        args = ("compare", "--dim", "3", "--samples", "200", "--seed", "11", "--workers", "1")
        first = run_cli(*args, cwd=tmp_path)
        second = run_cli(*args, cwd=tmp_path)
        assert ok_stdout(first) == ok_stdout(second)

    def test_worker_count_does_not_change_values(self, tmp_path):
        base = ("compare", "--dim", "2", "--samples", "300", "--seed", "3")
        one = run_cli(*base, "--workers", "1", cwd=tmp_path)
        two = run_cli(*base, "--workers", "2", cwd=tmp_path)
        assert ok_stdout(one) == ok_stdout(two)

    def test_no_state_is_decomposed(self, monkeypatch, tmp_path):
        """compare reads each triple in its state's eigenbasis from the spectrum alone."""

        def refuse(*args, **kwargs):
            raise AssertionError("compare called np.linalg.eigh")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        out = tmp_path / "compare.jsonl"
        code = main(["compare", "--dim", "3", "--samples", "5000", "--seed", "2", "--workers", "1",
                     "--out", str(out), "--counterexample-dir", str(tmp_path / "cx")])
        assert code == 0
        assert len(out.read_text(encoding="utf-8").splitlines()) == 5000


COMPARE_VALUES = ("purity", "product", "robertson", "schrodinger", "luo_park", "bound1", "bound2")
COMPARE_FLAGS = ("robertson", "schrodinger", "luo_park", "bound1", "bound2")


def reference_compare_lines(dim, start, cols, masks):
    """compare's former line builder: one dict per row, through json.dumps with sorted keys."""
    lines = []
    for i in range(cols["product"].shape[0]):
        record = {"dim": dim, "index": start + i}
        for name in COMPARE_VALUES:
            record[name] = float(cols[name][i])
        for name in COMPARE_FLAGS:
            record[f"pass_{name}"] = not bool(masks[name][i])
        lines.append(json.dumps(record, sort_keys=True) + "\n")
    return lines


# floats whose repr takes each of its forms: signed zero, subnormal, tiny, exponent
# switch-over at 1e16, and integers too large for a double to hold exactly
EDGE_FLOATS = (-0.0, 5e-324, 1e-300, 1.0, 0.1, 1e16, 1e22)
FINITE = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))


def compare_columns(values, flags):
    cols = {name: values[:, k] for k, name in enumerate(COMPARE_VALUES)}
    masks = {name: flags[:, k] for k, name in enumerate(COMPARE_FLAGS)}
    return cols, masks


class TestCompareLines:
    @given(
        dim=st.integers(2, 64),
        start=st.integers(0, 2**40),
        rows=st.lists(
            st.tuples(st.lists(FINITE, min_size=7, max_size=7),
                      st.lists(st.booleans(), min_size=5, max_size=5)),
            min_size=1, max_size=40,
        ),
    )
    @example(dim=64, start=2**40, rows=[(list(EDGE_FLOATS), [True, False, True, False, True])])
    def test_matches_json_dumps_line_for_line(self, dim, start, rows):
        cols, masks = compare_columns(
            np.array([v for v, _ in rows], dtype=float), np.array([f for _, f in rows], dtype=bool)
        )
        got = "".join(_compare_lines(dim, start, cols, masks)).splitlines(keepends=True)
        assert got == reference_compare_lines(dim, start, cols, masks)

    def test_pieces_join_into_the_batch(self):
        # a full batch of 4096 rows and a ragged one, across several pieces of text
        rng = np.random.default_rng(5)
        for n in (4096, 1000):
            cols, masks = compare_columns(rng.standard_normal((n, 7)), rng.random((n, 5)) < 0.1)
            pieces = _compare_lines(5, 12288, cols, masks)
            assert len(pieces) > 1
            got = "".join(pieces).splitlines(keepends=True)
            assert got == reference_compare_lines(5, 12288, cols, masks)


class TestCompareViolations:
    """Exit codes, pass flags, counterexample files and warnings of flagged rows.

    Random triples never violate a bound, so ``violation_masks`` is patched to
    flag fixed global indices: row 7 and row 4100 sit in the first and second
    batch of 4096, and row 4500 is the conjectured-bound row.  Row 0 is flagged
    by two campaigns writing into one directory.
    """

    HARD = {(7, "robertson"), (4100, "luo_park")}
    CONJECTURE = {(4500, "bound2")}

    def run_flagged(self, flagged, monkeypatch, tmp_path, seed=9):
        from commutator_bounds import bounds, cli

        real = bounds.violation_masks  # unpatched, also on a second run in one test
        batches = iter(range(10))

        def flagging(cols):
            masks = real(cols)
            start = next(batches) * chunk_rows(4 * 4)
            for index, name in flagged:
                if start <= index < start + len(masks[name]):
                    masks[name][index - start] = True
            return masks

        monkeypatch.setattr(cli, "violation_masks", flagging)
        out = tmp_path / "compare.jsonl"
        code = cli.main([
            "compare", "--dim", "4", "--samples", "5000", "--seed", str(seed), "--workers", "1",
            "--out", str(out), "--counterexample-dir", str(tmp_path / "cx"),
        ])
        records = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
        assert [r["index"] for r in records] == list(range(5000))
        for record in records:
            for name in ("robertson", "schrodinger", "luo_park", "bound1", "bound2"):
                assert record[f"pass_{name}"] is ((record["index"], name) not in flagged)
        return code

    def test_hard_rows_exit_1(self, monkeypatch, tmp_path):
        assert self.run_flagged(self.HARD, monkeypatch, tmp_path) == 1
        assert not (tmp_path / "cx").exists()

    def test_bound2_row_exits_3_and_writes_its_counterexample(self, monkeypatch, tmp_path):
        assert self.run_flagged(self.HARD | self.CONJECTURE, monkeypatch, tmp_path) == 3
        files = sorted(p.name for p in (tmp_path / "cx").iterdir())
        assert files == ["compare_d4_s9_4500.json"]
        payload = json.loads((tmp_path / "cx" / files[0]).read_text(encoding="utf-8"))
        assert payload["index"] == 4500 and payload["dim"] == 4
        # rho is diag(spectrum): the triple as compare evaluated it, in the state's eigenbasis
        spectrum = np.array(payload["spectrum"])
        rho = matrix_from_pairs(payload["rho"])
        np.testing.assert_array_equal(rho, np.diag(spectrum))
        assert np.all(np.diff(spectrum) >= 0.0)
        assert spectrum.sum() == pytest.approx(1.0, abs=1e-12)
        a, b = (matrix_from_pairs(payload[name])[None] for name in ("a", "b"))
        cols = batch_bounds(a, b, rho[None])
        for name in ("product", "bound2"):
            assert cols[name][0] == pytest.approx(payload[name], rel=1e-12, abs=0.0)

    PROVEN = "proven bounds violated: robertson 1, luo_park 1"

    @pytest.mark.parametrize(
        "flagged, code, logged",
        [(HARD, 1, [PROVEN]), (HARD | CONJECTURE, 3, [PROVEN]), (set(), 0, [])],
        ids=["hard", "hard-and-conjecture", "none"],
    )
    def test_proven_bound_violations_are_logged(
        self, flagged, code, logged, monkeypatch, tmp_path, caplog
    ):
        with caplog.at_level("WARNING", logger="commutator_bounds.cli"):
            assert self.run_flagged(flagged, monkeypatch, tmp_path) == code
        proven = [r for r in caplog.records if r.getMessage().startswith("proven")]
        assert [r.getMessage() for r in proven] == logged
        assert all(r.levelname == "WARNING" for r in proven)

    ROW_ZERO = {(0, "bound2")}

    def test_two_seeds_keep_two_records(self, monkeypatch, tmp_path):
        for seed in (1, 2):
            assert self.run_flagged(self.ROW_ZERO, monkeypatch, tmp_path, seed) == 3
        files = sorted(p.name for p in (tmp_path / "cx").iterdir())
        assert files == ["compare_d4_s1_0.json", "compare_d4_s2_0.json"]
        spectra = [json.loads((tmp_path / "cx" / f).read_text())["spectrum"] for f in files]
        assert spectra[0] != spectra[1]

    def test_rerun_adds_a_suffix_and_leaves_the_record(self, monkeypatch, tmp_path):
        first = tmp_path / "cx" / "compare_d4_s1_0.json"
        assert self.run_flagged(self.ROW_ZERO, monkeypatch, tmp_path, 1) == 3
        recorded = first.read_bytes()
        assert self.run_flagged(self.ROW_ZERO, monkeypatch, tmp_path, 1) == 3
        files = sorted(p.name for p in (tmp_path / "cx").iterdir())
        assert files == ["compare_d4_s1_0.json", "compare_d4_s1_0_1.json"]
        assert first.read_bytes() == recorded
        # the same seed draws the same row, so the second record holds the same bytes
        assert (tmp_path / "cx" / files[1]).read_bytes() == recorded

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_numerical_failure_exits_6_not_1(self, workers, monkeypatch, tmp_path, capsys):
        # exit 1 means a hard inequality failed; a failed check of the kernel's own
        # arithmetic is no such verdict.  Three tasks of 4096, so 2 workers use the pool,
        # whose forked workers see the patch.
        from commutator_bounds import cli

        def failing(a, b, lam):
            raise NumericalConsistencyError("variance of A is below its round-off floor")

        monkeypatch.setattr(cli, "batch_bounds", failing)
        code = cli.main(["compare", "--dim", "2", "--samples", "9000", "--seed", "1",
                         "--workers", workers, "--out", str(tmp_path / "out.jsonl")])
        assert code == cli.EXIT_NUMERICAL == 6
        assert capsys.readouterr().err == "error: variance of A is below its round-off floor\n"
        assert (tmp_path / "out.jsonl").read_text(encoding="utf-8") == ""


class TestCompareTasks:
    """compare's task layout.  A task holds ``averages.chunk_rows(d * d)`` triples,
    floor(2^16 / d^2) above d = 4, so its (n, d, d) stacks stay at 2^16 entries and a
    worker's memory does not grow with ``--dim``; each task's first row index follows
    from that size alone."""

    def planned(self, dim, samples, monkeypatch, tmp_path):
        """The task function and the chunks that compare maps over its workers."""
        from commutator_bounds import cli

        plans = []

        def capture(fn, tasks, workers):
            plans.append((fn, list(tasks)))
            return iter(())

        monkeypatch.setattr(cli, "map_ordered", capture)
        argv = ["compare", "--dim", str(dim), "--samples", str(samples), "--workers", "1",
                "--out", str(tmp_path / "out")]
        assert main(argv) == 0
        ((fn, tasks),) = plans
        return fn, tasks

    @pytest.mark.parametrize("dim", [4, 8, 16, 32])
    def test_one_task_peaks_under_10_mib(self, dim, monkeypatch, tmp_path):
        fn, tasks = self.planned(dim, 100_000, monkeypatch, tmp_path)
        tracemalloc.start()
        try:
            fn(tasks[0])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20, f"{peak / 2**20:.1f} MiB"

    def test_worker_count_does_not_change_small_tasks(self, monkeypatch, tmp_path):
        base = ("compare", "--dim", "32", "--samples", "300", "--seed", "3")
        assert len(self.planned(32, 300, monkeypatch, tmp_path)[1]) == 5
        one = run_cli(*base, "--workers", "1", cwd=tmp_path)
        two = run_cli(*base, "--workers", "2", cwd=tmp_path)
        assert ok_stdout(one) == ok_stdout(two)

    def test_counterexample_index_names_its_line(self, monkeypatch, tmp_path):
        """Each task flags its largest product: the file's index must be that row's line."""
        from commutator_bounds import bounds, cli

        real = bounds.violation_masks

        def flag_largest(cols):
            masks = real(cols)
            masks["bound2"][np.argmax(cols["product"])] = True
            return masks

        monkeypatch.setattr(cli, "violation_masks", flag_largest)
        out = tmp_path / "compare.jsonl"
        code = main(["compare", "--dim", "16", "--samples", "600", "--seed", "4", "--workers", "1",
                     "--out", str(out), "--counterexample-dir", str(tmp_path / "cx")])
        assert code == 3
        lines = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
        payloads = [json.loads(p.read_text(encoding="utf-8")) for p in (tmp_path / "cx").iterdir()]
        assert len(payloads) == 3  # tasks of 256, 256 and 88 triples
        for payload in payloads:
            line = lines[payload["index"]]
            assert line["product"] == payload["product"] and line["pass_bound2"] is False

    @pytest.mark.parametrize("dim", [8, 16])
    def test_mean_purity_is_hilbert_schmidt(self, dim, tmp_path):
        """E[Tr rho^2] = 2d / (d^2 + 1) under the Hilbert-Schmidt measure, to |z| <= 4."""
        out = tmp_path / "compare.jsonl"
        assert main(["compare", "--dim", str(dim), "--samples", "4000", "--seed", "11",
                     "--workers", "1", "--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        purity = np.array([json.loads(line)["purity"] for line in lines])
        std_error = purity.std(ddof=1) / math.sqrt(purity.size)
        z = (purity.mean() - 2 * dim / (dim**2 + 1)) / std_error
        assert abs(z) <= 4.0, z


class TestFigures:
    def test_fig1_values_and_header(self, tmp_path):
        out = tmp_path / "fig1.csv"
        proc = run_cli("fig1", "--points", "3", "--out", str(out), cwd=tmp_path)
        assert_exit(proc, 0)
        lines = out.read_text().splitlines()
        assert lines[0] == FIG1_HEADER
        for text, purity in zip(lines[1:], (0.5, 0.75, 1.0)):
            row = [float(tok) for tok in text.split(",")]
            av = averaged_bounds_qubit(purity)
            np.testing.assert_allclose(
                row,
                [purity, av.robertson, av.schrodinger, av.luo_park, av.bound1, av.bound2],
                atol=1e-15,
            )

    def test_fig1_round_trips_exactly(self, tmp_path):
        out = tmp_path / "fig1.csv"
        assert_exit(run_cli("fig1", "--points", "7", "--out", str(out), cwd=tmp_path), 0)
        for text in out.read_text().splitlines()[1:]:
            purity = float(text.split(",")[0])
            av = averaged_bounds_qubit(purity)
            assert text.split(",")[1] == repr(av.robertson)

    def test_fig2_endpoints_and_header(self, tmp_path):
        proc = run_cli("fig2", "--points", "3", cwd=tmp_path)
        assert_exit(proc, 0)
        lines = proc.stdout.splitlines()
        assert lines[0] == FIG2_HEADER
        first = [float(tok) for tok in lines[1].split(",")]
        last = [float(tok) for tok in lines[-1].split(",")]
        np.testing.assert_allclose(first, [0.5, 1 / 16, 1 / 16], atol=1e-15)
        np.testing.assert_allclose(last, [1.0, 0.0, 0.0], atol=1e-15)

    def test_unwritable_path_is_io_error(self, tmp_path):
        proc = run_cli(
            "fig1", "--points", "3", "--out", str(tmp_path / "missing" / "fig1.csv"), cwd=tmp_path
        )
        assert_exit(proc, 4)

    def test_points_validated(self, tmp_path):
        assert_exit(run_cli("fig1", "--points", "1", cwd=tmp_path), 2)


def _mub_estimate(dim: int, lams, samples: int, seed: int):
    """(name, estimate, target) of each column of ``mc_mub_average``."""
    lams = np.asarray(lams, dtype=float)
    result = mc_mub_average(dim, lams, samples, seed)
    ests = [getattr(result, name) for name in MUB_COLUMN_NAMES]
    return zip(MUB_COLUMN_NAMES, ests, mub_column_averages(lams))


#: mc-average argv and the library call that must give its rows, bit for bit.  The library
#: and ``--spectrum`` both read ``checked_spectrum`` of the values, divided by their sum.
LIBRARY_ESTIMATES = {
    "mub-d2": (
        ["--mub", "--dim", "2", "--samples", "150003", "--seed", "11"],
        lambda: _mub_estimate(2, [0.5, 0.5], 150_003, 11),
    ),
    "mub-d3": (
        ["--mub", "--dim", "3", "--samples", "150003", "--seed", "12"],
        lambda: _mub_estimate(3, np.full(3, 1 / 3), 150_003, 12),
    ),
    "mub-d4": (
        ["--mub", "--dim", "4", "--samples", "300000", "--seed", "101"],
        lambda: _mub_estimate(4, np.full(4, 1 / 4), 300_000, 101),
    ),
    "mub-d3-spectrum": (
        ["--mub", "--dim", "3", "--spectrum", "0.2,0.3,0.5", "--samples", "70000", "--seed", "3"],
        lambda: _mub_estimate(3, [0.2, 0.3, 0.5], 70_000, 3),
    ),
    # 0.7 + 0.2 + 0.1 is 0.9999999999999999 in floats, so the division by the sum shows
    "mub-d3-spectrum-sum-below-1": (
        ["--mub", "--dim", "3", "--spectrum", "0.7,0.2,0.1", "--samples", "20000", "--seed", "7"],
        lambda: _mub_estimate(3, [0.7, 0.2, 0.1], 20_000, 7),
    ),
    "purity": (
        ["--purity", "0.75", "--samples", "300000", "--seed", "7"],
        lambda: zip(
            BOUND_NAMES,
            monte_carlo_qubit_average(0.75, 300_000, 7),
            averaged_bounds_qubit(0.75).as_array(),
        ),
    ),
}


class TestMCAverage:
    def test_purity_report_within_tolerance(self, tmp_path):
        proc = run_cli(
            "mc-average", "--purity", "0.75", "--samples", "20000", "--seed", "5", cwd=tmp_path
        )
        assert_exit(proc, 0)
        rows = [json.loads(line) for line in proc.stdout.strip().splitlines()]
        assert [row["name"] for row in rows] == [
            "robertson",
            "schrodinger",
            "luo_park",
            "bound1",
            "bound2",
        ]
        for row in rows:
            assert abs(row["z"]) < 4.0
            assert row["samples"] == 20000

    def test_too_few_samples_rejected(self, tmp_path):
        proc = run_cli("mc-average", "--purity", "0.75", "--samples", "500", cwd=tmp_path)
        assert_exit(proc, 2)

    def test_too_few_mub_samples_rejected(self, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["mc-average", "--mub", "--samples", "9999", "--out", str(out)]
        assert main(argv) == 2
        assert "error: --mub averaging needs --samples >= 10000" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags",
        [("--dim", "7"), ("--spectrum", "0.1,0.9"), ("--dim", "7", "--spectrum", "0.1,0.9")],
        ids=["dim", "spectrum", "both"],
    )
    def test_dim_or_spectrum_without_mub_rejected(self, flags, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["mc-average", "--purity", "0.75", "--samples", "2000", *flags, "--out", str(out)]
        assert main(argv) == 2
        assert "need --mub" in capsys.readouterr().err
        assert not out.exists()

    def test_needs_exactly_one_mode(self, tmp_path):
        assert_exit(run_cli("mc-average", "--samples", "2000", cwd=tmp_path), 2)
        assert_exit(
            run_cli("mc-average", "--purity", "0.6", "--mub", "--samples", "20000", cwd=tmp_path),
            2,
        )

    def test_roundoff_negative_spectrum_entry_reads_as_zero(self, tmp_path):
        # -1e-13 is inside the eigenvalue floor, so the spectrum is accepted; it must not
        # reach a square root as a negative number.  The spectrum is divided by its sum,
        # so no target of a nonnegative quantity reads below 0 and no zero-variance row
        # gets an infinite z, which JSON cannot hold.
        def no_constant(name):
            raise ValueError(f"{name} is not JSON")

        out = tmp_path / "out"
        argv = ["mc-average", "--mub", "--dim", "2", "--spectrum=-1e-13,1.0000000000001",
                "--samples", "10000", "--workers", "1", "--out", str(out)]
        assert main(argv) == 0
        lines = out.read_text().splitlines()
        rows = [json.loads(line, parse_constant=no_constant) for line in lines]
        assert [row["name"] for row in rows] == [
            "comm_norm", "lp_term", "lp_factor_a", "lp_factor_b"
        ]
        assert [row["name"] for row in rows if row["target"] < 0.0] == []

    def test_mub_mode_targets(self, tmp_path):
        proc = run_cli(
            "mc-average", "--mub", "--dim", "3", "--samples", "20000", "--seed", "9", cwd=tmp_path
        )
        assert_exit(proc, 0)
        rows = {json.loads(line)["name"]: json.loads(line) for line in proc.stdout.splitlines()}
        assert rows["comm_norm"]["target"] == pytest.approx(4 / 27)
        for row in rows.values():
            assert abs(row["z"]) < 4.0

    @pytest.mark.parametrize(
        "argv",
        [("mc-average", "--mub", "--samples", "20000", "--seed", "4", "--workers", "1"),
         ("mub-average",)],
        ids=["mc-average", "mub-average"],
    )
    def test_default_spectrum_is_the_uniform_spectrum_spelled_out(self, argv, tmp_path):
        # np.full(6, 1/6) sums to 0.9999999999999999, so the default must be divided by its
        # sum as the spelled-out flag is, or the rows differ in their last digits
        written = []
        for extra in ([], ["--spectrum=" + ",".join([repr(1 / 6)] * 6)]):
            out = tmp_path / f"out{len(written)}"
            assert main([*argv, "--dim", "6", *extra, "--out", str(out)]) == 0
            written.append(out.read_bytes())
        assert written[0] == written[1]

    def test_csv_format(self, tmp_path):
        proc = run_cli(
            "mc-average",
            "--purity",
            "0.5",
            "--samples",
            "2000",
            "--format",
            "csv",
            cwd=tmp_path,
        )
        assert_exit(proc, 0)
        lines = proc.stdout.splitlines()
        assert lines[0] == "name,mean,std_error,samples,target,z"
        assert len(lines) == 6

    def test_workers_do_not_change_bytes(self, tmp_path):
        base = ("mc-average", "--purity", "0.9", "--samples", "131072", "--seed", "21")
        one = run_cli(*base, "--workers", "1", cwd=tmp_path)
        two = run_cli(*base, "--workers", "2", cwd=tmp_path)
        assert ok_stdout(one) == ok_stdout(two)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_mub_sampler_copy_matches_library(self, d):
        # cli copies mub.mub_samples so that perfbench's traced run, which wraps cli's
        # names, sees the sampler and the columns; the copy must not drift from it
        lams = np.random.default_rng(d).dirichlet(np.ones(d))
        got = _mub_samples(lams, 1000, np.random.default_rng(d + 10))
        want = mub_samples(lams, 1000, np.random.default_rng(d + 10))
        assert got.tobytes() == want.tobytes()
        assert got.flags.f_contiguous and want.flags.f_contiguous

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("case", sorted(LIBRARY_ESTIMATES))
    def test_rows_equal_the_library_estimate(self, case, workers, tmp_path):
        # the estimators draw the same seeded batches as mc-average; three of the argv are
        # TestChunkedGoldenBytes runs, so their digests pin the library's values as well
        argv, estimate = LIBRARY_ESTIMATES[case]
        out = tmp_path / "out.jsonl"
        assert main(["mc-average", *argv, "--workers", workers, "--out", str(out)]) == 0
        rows = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
        want = [
            {"name": name, "mean": est.mean, "std_error": est.std_error,
             "samples": est.samples, "z": est.z_score(float(target))}
            for name, est, target in estimate()
        ]
        assert [{key: row[key] for key in want[0]} for row in rows] == want



class TestVerifyConjecture:
    def test_every_start_failing_exits_6(self, monkeypatch, tmp_path, capsys):
        from commutator_bounds import cli, optimizer

        def failing(form, warm):
            raise np.linalg.LinAlgError("no convergence")

        monkeypatch.setattr(optimizer, "_top_pair", failing)
        code = main(["verify-conjecture", "--dim", "3", "--trials", "2", "--restarts", "1",
                     "--seed", "19", "--workers", "1", "--out", str(tmp_path / "out.jsonl")])
        assert code == cli.EXIT_NUMERICAL
        errors = [line for line in capsys.readouterr().err.splitlines() if "error" in line]
        assert errors == ["error: every start failed in the half-step eigensolver"]
        assert (tmp_path / "out.jsonl").read_text(encoding="utf-8") == ""

    def test_small_campaign_converges(self, tmp_path):
        proc = run_cli(
            "verify-conjecture",
            "--dim",
            "2",
            "--trials",
            "4",
            "--restarts",
            "2",
            "--seed",
            "13",
            cwd=tmp_path,
        )
        assert_exit(proc, 0)
        lines = [json.loads(line) for line in proc.stdout.strip().splitlines()]
        summary = lines[-1]
        assert summary["summary"] is True
        assert summary["max_relative_deviation"] < 1e-6
        assert summary["all_converged"] is True
        assert summary["counterexamples"] == 0
        for record in lines[:-1]:
            assert record["converged"]
            assert not record["exceeds_conjecture"]

    def test_counterexample_files_carry_the_seed_and_never_overwrite(self, tmp_path):
        from commutator_bounds import cli

        args = argparse.Namespace(counterexample_dir=str(tmp_path / "cx"), seed=7)
        records = [{"dim": 3, "trial": 2, "copy": k} for k in range(3)]
        paths = [cli._write_counterexample(args, "conjecture", record) for record in records]
        assert [path.name for path in paths] == [
            "conjecture_d3_s7_2.json", "conjecture_d3_s7_2_1.json", "conjecture_d3_s7_2_2.json"
        ]
        assert [json.loads(path.read_text())["copy"] for path in paths] == [0, 1, 2]

    def test_exceeding_trial_exits_5_and_writes_its_record(self, monkeypatch, tmp_path):
        from commutator_bounds import cli

        real = cli.maximize_ratio

        def exceeding(rho, **options):
            result = real(rho, **options)
            ratio = result.conjectured_constant * (1.0 + 1e-4)
            return dataclasses.replace(result, achieved_ratio=ratio)

        monkeypatch.setattr(cli, "maximize_ratio", exceeding)
        out, cx = tmp_path / "campaign.jsonl", tmp_path / "cx"
        code = main(["verify-conjecture", "--dim", "3", "--trials", "2", "--restarts", "1",
                     "--seed", "19", "--workers", "1", "--out", str(out),
                     "--counterexample-dir", str(cx)])
        assert code == 5
        assert sorted(p.name for p in cx.iterdir()) == [
            "conjecture_d3_s19_0.json", "conjecture_d3_s19_1.json"
        ]
        for trial in (0, 1):
            record = json.loads((cx / f"conjecture_d3_s19_{trial}.json").read_text())
            assert record["exceeds_conjecture"] is True and record["trial"] == trial
        summary = json.loads(out.read_text(encoding="utf-8").splitlines()[-1])
        assert summary["summary"] is True and summary["counterexamples"] == 2

    def test_dim_range_enforced(self, tmp_path):
        assert_exit(run_cli("verify-conjecture", "--dim", "16", cwd=tmp_path), 2)
        assert_exit(run_cli("verify-conjecture", "--dim", "1", cwd=tmp_path), 2)

    @pytest.mark.parametrize(
        "flags",
        [("--max-iters", "0"), ("--max-iters", "-3"), ("--restarts", "-1")],
        ids=["max-iters-0", "max-iters-negative", "restarts-negative"],
    )
    def test_bad_iteration_budget_is_usage_error(self, flags, tmp_path):
        proc = run_cli(
            "verify-conjecture", "--dim", "3", "--trials", "1", "--restarts", "1", *flags,
            cwd=tmp_path,
        )
        assert_exit(proc, 2)
        # the usage line names every flag, so look for argparse's "argument --flag:"
        assert f"argument {flags[0]}:" in proc.stderr and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
    def test_bad_tol_is_usage_error(self, tol, tmp_path):
        proc = run_cli(
            "verify-conjecture", "--dim", "3", "--trials", "1", "--restarts", "1", "--tol", tol,
            cwd=tmp_path,
        )
        assert_exit(proc, 2)
        assert "argument --tol:" in proc.stderr and "Traceback" not in proc.stderr

    def test_deterministic_bytes(self, tmp_path):
        args = (
            "verify-conjecture",
            "--dim",
            "3",
            "--trials",
            "2",
            "--restarts",
            "1",
            "--seed",
            "17",
            "--workers",
            "2",
        )
        first = run_cli(*args, cwd=tmp_path)
        second = run_cli(*args, cwd=tmp_path)
        assert ok_stdout(first) == ok_stdout(second)


class TestMubAverage:
    def test_closed_form_values(self, tmp_path):
        proc = run_cli(
            "mub-average", "--dim", "2", "--spectrum", "0.25,0.75", "--seed", "3", cwd=tmp_path
        )
        assert_exit(proc, 0)
        rows = {json.loads(line)["name"]: json.loads(line) for line in proc.stdout.splitlines()}
        lam = np.array([0.25, 0.75])
        purity = float(lam @ lam)
        expected_lp = (1 - purity) * np.sqrt(2 * (1 - purity)) / 8
        assert rows["luo_park_mub_avg"]["value"] == pytest.approx(expected_lp)
        assert rows["bound2_mub_avg"]["value"] == pytest.approx((1 - purity) / 8)
        assert rows["comm_norm_avg"]["value"] == pytest.approx(0.25)
        assert rows["robertson_mub"]["value"] < 1e-10
        assert rows["schrodinger_mub"]["value"] < 1e-10

    # sha256 of stdout, recorded from mub-average's former CSV/JSON writer before it
    # moved onto the shared row writer, which must reproduce it byte for byte; the CSV
    # header still names the estimate columns of the Monte Carlo rows mub-average had.
    # Re-recorded when robertson_mub and schrodinger_mub became their closed form 0.0:
    # only schrodinger_mub moved, from the matrix path's round-off 1.9769057276571755e-66
    @pytest.mark.parametrize(
        "args, digest",
        [
            (
                ("--dim", "4", "--format", "csv"),
                "14afb3f2ae7fd23ab89589a6cc1c9cf995d2641ed36a60e6033e23440ef39405",
            ),
            (
                ("--dim", "4", "--format", "json"),
                "02c9c463f51ed8525c0ae93fa4569a59822965cb2e8b1d13917505ea54a01ebd",
            ),
        ],
        ids=["d4-csv", "d4-json"],
    )
    def test_golden_bytes(self, args, digest, tmp_path):
        out = ok_stdout(run_cli("mub-average", *args, cwd=tmp_path))
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    @pytest.mark.parametrize("dim", range(2, 7))
    @pytest.mark.parametrize("spectrum", ["uniform", "dirichlet"])
    def test_vanishing_rows_are_exactly_zero(self, dim, spectrum, tmp_path):
        out = tmp_path / "out.jsonl"
        argv = ["mub-average", "--dim", str(dim), "--out", str(out)]
        if spectrum == "dirichlet":
            lam = np.random.default_rng(dim).dirichlet(np.ones(dim))
            argv.append("--spectrum=" + ",".join(map(repr, lam.tolist())))
        assert main(argv) == 0
        rows = {row["name"]: row["value"] for row in map(json.loads, out.read_text().splitlines())}
        assert (rows["robertson_mub"], rows["schrodinger_mub"]) == (0.0, 0.0)

    def test_no_matrix_is_decomposed(self, monkeypatch, tmp_path):
        """mub-average prints closed forms only."""

        def refuse(*args, **kwargs):
            raise AssertionError("mub-average called np.linalg.eigh")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        out = tmp_path / "out.jsonl"
        assert main(["mub-average", "--dim", "4", "--out", str(out)]) == 0
        assert len(out.read_text(encoding="utf-8").splitlines()) == 5

    def test_monte_carlo_row_lives_on_in_mc_average(self, tmp_path):
        # the comm_norm_mc row of `mub-average --dim 3 --samples 20000 --seed 42`, recorded
        # before that option was deleted: mc-average --mub drew the same samples.  Re-recorded
        # when the Fourier columns became circulant sums: the mean moved by 3 ulp.  Re-recorded
        # when a batch came to be drawn 4096 samples at a time: sample_unit_vectors draws a
        # and b in turn for each sub-batch, so each sample pair is a new draw from the same law.
        # Re-recorded when the sample table became column-major and its moments came to be
        # summed pairwise down each column: mean 1 ulp, std_error 2.0e-15 and z 3.9e-13 relative.
        # Re-recorded when unit vectors came to be drawn level-major, (dim, count): each
        # sample pair is a new draw from the same law, and z went from 0.408 to 0.056
        recorded = {
            "mean": 0.14818752638369176,
            "std_error": 0.0006971921982508573,
            "samples": 20000,
            "target": 0.14814814814814814,
            "z": 0.05648117641363831,
        }
        proc = run_cli(
            "mc-average", "--mub", "--dim", "3", "--samples", "20000", "--seed", "42",
            cwd=tmp_path,
        )
        rows = {json.loads(line)["name"]: json.loads(line) for line in ok_stdout(proc).splitlines()}
        assert {key: rows["comm_norm"][key] for key in recorded} == recorded

    def test_samples_is_no_option(self, tmp_path):
        out = tmp_path / "out"
        proc = run_cli("mub-average", "--dim", "2", "--samples", "10000", "--out", str(out),
                       cwd=tmp_path)
        assert_exit(proc, 2)
        assert "unrecognized arguments: --samples 10000" in proc.stderr
        assert not out.exists()

    def test_bad_spectrum_rejected(self, tmp_path):
        # a spectrum that is not a state, and one that is not numbers
        for spectrum in ("0.9,0.3", "a,b"):
            proc = run_cli("mub-average", "--dim", "2", "--spectrum", spectrum, cwd=tmp_path)
            assert_exit(proc, 2)
            assert "error: --spectrum: " in proc.stderr

    @pytest.mark.parametrize(
        "command", [("mub-average",), ("mc-average", "--mub", "--samples", "10000")]
    )
    def test_spectrum_of_wrong_length_rejected(self, command, tmp_path):
        proc = run_cli(*command, "--dim", "3", "--spectrum", "0.5,0.5", cwd=tmp_path)
        assert_exit(proc, 2)
        assert "error: --spectrum: spectrum must have 3 entries" in proc.stderr

    def test_unknown_flag_is_usage_error(self, tmp_path):
        assert_exit(run_cli("mub-average", "--dim", "2", "--frobnicate", cwd=tmp_path), 2)


@pytest.mark.parametrize(
    "args",
    [
        ("mub-average", "--dim", "2", "--spectrum", "nan,nan"),
        ("mc-average", "--mub", "--dim", "2", "--spectrum", "nan,nan", "--samples", "10000"),
    ],
    ids=["mub-average", "mc-average"],
)
def test_non_finite_spectrum_is_usage_error(args, tmp_path):
    proc = run_cli(*args, cwd=tmp_path)
    assert_exit(proc, 2)
    assert proc.stdout == "" and "Traceback" not in proc.stderr


# each option of each subcommand, with its default (None for a required option)
COMMON_OPTIONS = {
    "-h": argparse.SUPPRESS,
    "--help": argparse.SUPPRESS,
    "--seed": 42,
    "--workers": (
        len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    ),
    "--out": "-",
    "--counterexample-dir": "counterexamples",
}
SUBCOMMAND_OPTIONS = {
    "compare": {"--dim": None, "--samples": None},
    "fig1": {"--points": None},
    "fig2": {"--points": None},
    "mc-average": {
        "--format": "json", "--purity": None, "--mub": False, "--dim": 2, "--spectrum": None,
        "--samples": None,
    },
    "verify-conjecture": {
        "--dim": None, "--trials": 20, "--restarts": 8, "--max-iters": 500, "--tol": 1e-10,
        "--mode": "hermitian", "--no-witness-seed": False,
    },
    "mub-average": {"--format": "json", "--dim": None, "--spectrum": None},
}

# A valid command line per subcommand; a flag appended to it overrides an earlier value.
VALID_ARGV = {
    "compare": ("compare", "--dim", "2", "--samples", "1"),
    "fig1": ("fig1", "--points", "2"),
    "fig2": ("fig2", "--points", "2"),
    "mc-average": ("mc-average", "--purity", "0.5", "--samples", "1000"),
    "mc-average --mub": ("mc-average", "--mub", "--samples", "10000"),
    "verify-conjecture": ("verify-conjecture", "--dim", "2"),
    "mub-average": ("mub-average", "--dim", "2"),
}
BELOW_HALF = repr(math.nextafter(0.5, 0.0))
ABOVE_ONE = repr(math.nextafter(1.0, 2.0))
BELOW_ZERO = repr(math.nextafter(0.0, -1.0))
# (command, flag, its type, an accepted value at the edge of the range, the value just past it)
RANGED_FLAGS = [
    ("compare", "--seed", int, "0", "-1"),
    ("compare", "--workers", int, "1", "0"),
    ("compare", "--dim", int, "2", "1"),
    ("compare", "--samples", int, "1", "0"),
    ("fig1", "--points", int, "2", "1"),
    ("fig2", "--points", int, "2", "1"),
    ("mc-average", "--purity", float, "0.5", BELOW_HALF),
    ("mc-average", "--purity", float, "1.0", ABOVE_ONE),
    ("mc-average", "--samples", int, "1000", "999"),
    ("mc-average --mub", "--dim", int, "2", "1"),
    ("verify-conjecture", "--dim", int, "2", "1"),
    ("verify-conjecture", "--dim", int, "15", "16"),
    ("verify-conjecture", "--trials", int, "1", "0"),
    ("verify-conjecture", "--restarts", int, "0", "-1"),
    ("verify-conjecture", "--max-iters", int, "1", "0"),
    ("verify-conjecture", "--tol", float, "0.0", BELOW_ZERO),
    ("verify-conjecture", "--tol", float, "1.7976931348623157e+308", "inf"),
    ("verify-conjecture", "--tol", float, "0.0", "nan"),
    ("mub-average", "--dim", int, "2", "1"),
]

# (command, flag, the edge of its range as --help writes it), from RANGED_FLAGS
HELP_BOUNDS = sorted(
    {
        (command, flag, "finite" if kind(accepted) == sys.float_info.max else f"{kind(accepted):g}")
        for command, flag, kind, accepted, _ in RANGED_FLAGS
    }
)


def _option_help(parser: argparse.ArgumentParser, flag: str) -> str:
    """The --help entry of ``flag``: its line and any wrapped lines after it, one line."""
    lines = parser.format_help().splitlines()
    (start,) = [i for i, line in enumerate(lines) if line.startswith(f"  {flag} ")]
    end = start + 1
    while end < len(lines) and lines[end].startswith("   "):  # wrapped help text
        end += 1
    return " ".join(" ".join(lines[start:end]).split())


class TestParser:
    def test_option_set_of_each_subcommand(self):
        (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        got = {
            name: {opt: action.default for action in p._actions for opt in action.option_strings}
            for name, p in sub.choices.items()
        }
        assert got == {name: COMMON_OPTIONS | own for name, own in SUBCOMMAND_OPTIONS.items()}

    def test_default_workers_follow_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        args = build_parser().parse_args(["compare", "--dim", "2", "--samples", "1"])
        assert args.workers == 1

    def test_verify_conjecture_defaults_are_the_optimizers(self):
        args = build_parser().parse_args(["verify-conjecture", "--dim", "2"])
        defaults = maximize_ratio.__kwdefaults__
        parsed = {key: getattr(args, key) for key in ("restarts", "max_iters", "tol", "mode")}
        assert parsed == {key: defaults[key] for key in parsed}

    @pytest.mark.parametrize(
        "command, flag, kind, accepted, rejected", RANGED_FLAGS,
        ids=[f"{row[0]} {row[1]} {row[4]}" for row in RANGED_FLAGS],
    )
    def test_range_of_each_flag(self, command, flag, kind, accepted, rejected, capsys):
        parser = build_parser()
        # --flag=value, since argparse reads "-5e-324" after a flag as another option
        args = parser.parse_args([*VALID_ARGV[command], f"{flag}={accepted}"])
        assert getattr(args, flag[2:].replace("-", "_")) == kind(accepted)
        for value, message in ((rejected, "must be"), ("x", f"invalid {kind.__name__} value")):
            with pytest.raises(SystemExit) as exit_info:
                parser.parse_args([*VALID_ARGV[command], f"{flag}={value}"])
            assert exit_info.value.code == 2
            assert f"argument {flag}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, flag, bound", HELP_BOUNDS, ids=[" ".join(row) for row in HELP_BOUNDS]
    )
    def test_help_states_each_range(self, command, flag, bound):
        (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        entry = _option_help(sub.choices[command.split()[0]], flag)
        assert re.search(rf"(?<![\w.]){re.escape(bound)}(?![\w.])", entry), entry

    @pytest.mark.parametrize("command", sorted(SUBCOMMAND_OPTIONS))
    def test_every_option_has_help(self, command):
        (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        bare = [a.option_strings for a in sub.choices[command]._actions if not a.help]
        assert bare == []

    @pytest.mark.parametrize(
        "flags", [("--workers", "0"), ("--workers", "-4"), ("--seed", "-1")],
        ids=["workers-0", "workers-negative", "seed-negative"],
    )
    def test_negative_workers_or_seed_is_usage_error(self, flags, tmp_path, capsys):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exit_info:
            main(["compare", "--dim", "2", "--samples", "3", *flags, "--out", str(out)])
        assert exit_info.value.code == 2
        assert f"argument {flags[0]}:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ("fig1", "--points", "3"),
            ("fig2", "--points", "3"),
            ("compare", "--dim", "2", "--samples", "10"),
            ("verify-conjecture", "--dim", "2", "--trials", "1"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_format_rejected_where_unused(self, argv, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, "--format", "csv", "--out", str(tmp_path / "out")])
        assert exit_info.value.code == 2
        assert "--format" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestChunkedGoldenBytes:
    """sha256 of stdout for chunked Monte Carlo and compare runs.

    Recorded before the sampling loops were folded into one chunk plan, and the
    mub-d4 and mub-d3-spectrum digests when the MUB sample columns moved onto the
    bound kernel's reductions, which sum in another order (means moved by at most
    2 ulp), and again when the Fourier columns became circulant sums over the
    shifts (j - k) mod d (means moved by at most 4 ulp).  The three compare digests were re-recorded when compare began to read
    each triple in its state's eigenbasis, as (eigvalsh(rho), A, B) with no
    rotation: each row is another draw from the same law, so the values moved
    while the row counts, keys and pass flags held.  compare-d16 was re-recorded
    again when a task above d = 4 came to hold floor(2^16 / d^2) triples, not 4096:
    at d = 16 its 300 rows are tasks of 256 and 44, each row a new draw from the same
    law, with the row count, keys, index run and pass flags unchanged.  The four
    mc-average digests were re-recorded when a batch came to be drawn and reduced 4096
    samples at a time from its one stream: the samplers draw the two axes a and b in
    turn for each sub-batch, so each sample pair is a new draw from the same law, and
    the row names, counts and targets held (largest |z| 1.98, at mub-d3-spectrum).
    The three compare digests were re-recorded once more when ``tests/conftest.py``
    pinned OpenBLAS to its Haswell kernel: the triples are the same, and the kernel's
    matmuls and eigvalsh moved each float by at most 3.3e-11 relative, with the row
    counts, keys and pass flags unchanged.  The four mc-average digests were
    re-recorded once more when the samplers came to return column-major tables, which
    ``Moments.of`` sums pairwise down each column rather than row by row: the samples
    are the same, and means moved by at most 2 ulp, standard errors by at most 9.3e-16
    relative and z by at most 9.6e-13 relative.  The four mc-average digests were
    re-recorded again when unit vectors came to be drawn level-major, (dim, count), so
    that each sample is a new draw from the same law: the row names, counts and targets
    held, and the largest |z| went from 1.98 to 1.78 (at mub-d4).  Every sample count
    leaves a ragged last batch, and the worker count must not change a byte.
    """

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize(
        "args, digest",
        [
            (
                ("mc-average", "--purity", "0.75", "--samples", "300000", "--seed", "7"),
                "2aa179224c878cd0f69c284a0f185ce0ca642be73c184b95ec57eaac517fe973",
            ),
            (
                ("mc-average", "--purity", "0.75", "--samples", "300000", "--seed", "7",
                 "--format", "csv"),
                "87e048d63338acba5607fbc8053e015df89e53222648f3e0dfd826e81df3948d",
            ),
            (
                ("mc-average", "--mub", "--dim", "4", "--samples", "300000", "--seed", "101"),
                "a299e64e2d095b1d54e5e835bc3faa8af5d2250a9abe8684f32f130d473e3ab2",
            ),
            (
                ("mc-average", "--mub", "--dim", "3", "--spectrum", "0.2,0.3,0.5",
                 "--samples", "70000", "--seed", "3"),
                "89d2051572143a8c9a93393fb5f7e277776ec1e429a7660c44199eb77d48ff3e",
            ),
            (
                ("compare", "--dim", "4", "--samples", "9000", "--seed", "101"),
                "f2ca236b7b6dbd43bec3d32f20f72277a60dc2992731c205f496047f8f31d8c9",
            ),
            (
                ("compare", "--dim", "2", "--samples", "5000", "--seed", "3"),
                "3c60c81df1d59df5b6bc39724ab3bb56e5975a2b791e270d7ca0ab9c0a8fe157",
            ),
            (
                ("compare", "--dim", "16", "--samples", "300", "--seed", "5"),
                "1dec5006fa3fc7fc2df86d981b331add50ca34869bd88a57a1cd46a5e43fc45a",
            ),
        ],
        ids=["purity-json", "purity-csv", "mub-d4", "mub-d3-spectrum", "compare-d4",
             "compare-d2", "compare-d16"],
    )
    def test_golden_bytes(self, args, digest, workers, tmp_path):
        out = ok_stdout(run_cli(*args, "--workers", workers, cwd=tmp_path))
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    def test_blas_kernel_is_pinned(self):
        """tests/conftest.py pins the kernel the compare digests were recorded on."""
        umath = importlib.import_module("numpy._core._multiarray_umath")
        corename = ctypes.CDLL(umath.__file__).scipy_openblas_get_corename64_
        corename.restype = ctypes.c_char_p
        assert corename() == b"Haswell"
        assert os.environ["OPENBLAS_CORETYPE"] == "Haswell"  # the CLI runs inherit it


class TestReportGoldenBytes:
    """sha256 of stdout for the figure tables and conjecture campaigns.

    Recorded before the figures and verify-conjecture moved onto the shared row
    writer; the worker count must not change a byte of a campaign.  fig2 was
    re-recorded when its columns became the d = 2 closed forms in the purity, which
    are closer to the exact values (``tests/test_mub.py::TestFig2Rows``), and fig1
    when bound1 was written without the cancellation of P - sqrt(2P - 1) near P = 1.
    """

    @pytest.mark.parametrize(
        "args, digest",
        [
            (
                ("fig1", "--points", "200"),
                "2d2fdf3ca57e52c9b270e56323afe8db69f50b7d18ebd895979e45441d3d7fe4",
            ),
            (
                ("fig2", "--points", "200"),
                "05d2e7a9d82866797039c27df1e813b199c28981aa5031f3d019d77858f6c0b0",
            ),
        ],
        ids=["fig1", "fig2"],
    )
    def test_figure_bytes(self, args, digest, tmp_path):
        out = ok_stdout(run_cli(*args, cwd=tmp_path))
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize(
        "mode, digest",
        [
            # Re-recorded when Hermitian pairs came to be searched in the real
            # coordinates M = Re A + Im A: a witness start's B half step has a
            # degenerate top eigenvalue, and the new coordinates return another member
            # of that eigenspace as witness_b.  Both pairs give the same ratio; the
            # ratios and traces moved by at most 4 ulp, and the row count, keys,
            # iterations and exit code held.  Re-recorded again when numpy's dense
            # eigh replaced scipy's subset eigh at this size (n = 9 rows, below the
            # Krylov block): the ratios and traces moved by at most 4 ulp, the
            # Hermitian witnesses by 1.6e-16, and the complex witnesses to another
            # member of a degenerate top eigenspace, at the same ratio.
            ("hermitian", "13025000a9c5484ba76be477488a5633aa24f00b18f3572147f0255bffd871d8"),
            ("complex", "1925b50875db078a5b8db7cc069f504157d535f3fa4de55f04b30be232c4288a"),
        ],
    )
    def test_conjecture_bytes(self, mode, digest, workers, tmp_path):
        out = ok_stdout(run_cli(
            "verify-conjecture", "--dim", "3", "--trials", "3", "--restarts", "2",
            "--seed", "19", "--mode", mode, "--workers", workers, cwd=tmp_path,
        ))
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def resource_warnings(argv):
    """``main(argv)``'s exit code, and the ResourceWarnings it and a full collection after
    it raise: what the collector would have closed had ``main`` not."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        code = main(argv)
        gc.collect()
    return code, [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)]


class TestProcessExit:
    """``cli.run`` freezes the collector before ``main``, so the objects the imports made
    are never collected again.  That is safe while every command closes what it opens."""

    def test_run_freezes_the_collector_then_exits_with_mains_code(self, monkeypatch):
        from commutator_bounds import cli

        calls = []
        monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))

        def fake_main(argv=None):
            calls.append("main")
            return 3

        monkeypatch.setattr(cli, "main", fake_main)
        with pytest.raises(SystemExit) as exit_info:
            cli.run()
        assert calls == ["freeze", "main"]
        assert exit_info.value.code == 3

    @pytest.mark.parametrize(
        "argv",
        [
            ("fig1", "--points", "3"),
            ("mc-average", "--mub", "--dim", "2", "--samples", "10000", "--workers", "1"),
            ("verify-conjecture", "--dim", "2", "--trials", "2", "--restarts", "1",
             "--workers", "1"),
            ("verify-conjecture", "--dim", "2", "--trials", "2", "--restarts", "1",
             "--workers", "2"),
        ],
        ids=["fig1", "mc-average-mub", "verify-conjecture-w1", "verify-conjecture-w2"],
    )
    def test_command_leaves_nothing_to_collect(self, argv, tmp_path):
        code, leaks = resource_warnings([*argv, "--out", str(tmp_path / "out")])
        assert code == 0
        assert leaks == []

    def test_flagged_compare_leaves_nothing_to_collect(self, monkeypatch, tmp_path):
        from commutator_bounds import bounds, cli

        real = bounds.violation_masks

        def flag_largest(cols):
            masks = real(cols)
            masks["bound2"][np.argmax(cols["product"])] = True
            return masks

        monkeypatch.setattr(cli, "violation_masks", flag_largest)
        code, leaks = resource_warnings([
            "compare", "--dim", "2", "--samples", "8", "--workers", "1",
            "--out", str(tmp_path / "out"), "--counterexample-dir", str(tmp_path / "cx"),
        ])
        assert code == 3
        assert len(list((tmp_path / "cx").iterdir())) == 1  # one task, one flagged row
        assert leaks == []

    def test_log_level_naming_no_level_falls_back_to_warning(self, monkeypatch, tmp_path):
        # in a child: in process, pytest's log handler turns basicConfig into a no-op
        monkeypatch.setenv("CB_LOG", "basic_format")
        proc = run_cli("fig1", "--points", "2", cwd=tmp_path)
        assert ok_stdout(proc).startswith(FIG1_HEADER)
        assert proc.stderr == ""
