"""Output checks for the benchmark's ``cbounds`` runs.

Each checker takes the lines a run wrote through ``--out``, as a text file
yields them, and raises ``CheckError`` when they are not the output the
command promises.  ``read_checked`` streams a file through a checker and a
sha256, so that a large output never sits in memory; byte determinism
across runs of the same seed is checked by ``Determinism``.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Callable, Iterable, Iterator

#: Largest |z| accepted for a Monte Carlo mean against its closed form.  At
#: four rows per run, a correct estimator exceeds it about once in 10^8 runs.
Z_LIMIT = 6.0

#: Largest accepted relative deviation of the achieved ratio from the
#: conjectured constant (the acceptance gate's tolerance).
DEVIATION_LIMIT = 1e-5

MC_MUB_NAMES = ("comm_norm", "lp_term", "lp_factor_a", "lp_factor_b")
COMPARE_BOUNDS = ("robertson", "schrodinger", "luo_park", "bound1", "bound2")


class CheckError(ValueError):
    """The output of a run is wrong."""


def _lines(lines: Iterable[str]) -> Iterator[str]:
    for line in lines:
        if not line.endswith("\n"):
            raise CheckError("output does not end with a newline (truncated?)")
        yield line[:-1]


def _parse(line: str, number: int) -> dict:
    try:
        return json.loads(line)
    except json.JSONDecodeError as err:
        raise CheckError(f"line {number} is not JSON: {err}") from None


def check_compare(lines: Iterable[str], dim: int, samples: int) -> None:
    """One JSON line per triple, in index order, with every bound passing."""
    count = 0
    for count, line in enumerate(_lines(lines), 1):
        if count > samples:
            raise CheckError(f"more than {samples} lines")
        record = _parse(line, count)
        if record.get("index") != count - 1 or record.get("dim") != dim:
            raise CheckError(f"line {count} has index/dim {record.get('index')}/{record.get('dim')}")
        for name in COMPARE_BOUNDS:
            if record.get(f"pass_{name}") is not True:
                raise CheckError(f"line {count}: pass_{name} is not true")
    if count != samples:
        raise CheckError(f"expected {samples} lines, got {count}")


def check_verify(lines: Iterable[str], trials: int) -> None:
    """One record per trial plus a summary: converged, no counterexample."""
    lines = list(_lines(lines))
    if len(lines) != trials + 1:
        raise CheckError(f"expected {trials + 1} lines, got {len(lines)}")
    for i, line in enumerate(lines[:-1]):
        if _parse(line, i + 1).get("trial") != i:
            raise CheckError(f"line {i + 1} is not trial {i}")
    summary = _parse(lines[-1], len(lines))
    if summary.get("summary") is not True or summary.get("trials") != trials:
        raise CheckError("last line is not the campaign summary")
    if summary.get("all_converged") is not True:
        raise CheckError(f"trials did not converge: {summary.get('non_converged_trials')}")
    if summary.get("counterexamples") != 0:
        raise CheckError(f"{summary.get('counterexamples')} counterexamples recorded")
    deviation = summary.get("max_relative_deviation")
    if not isinstance(deviation, float) or not deviation <= DEVIATION_LIMIT:
        raise CheckError(f"max_relative_deviation {deviation!r} exceeds {DEVIATION_LIMIT}")


def check_mc_mub(lines: Iterable[str], samples: int) -> None:
    """Four estimate rows, each within Z_LIMIT standard errors of its target."""
    lines = list(_lines(lines))
    if len(lines) != len(MC_MUB_NAMES):
        raise CheckError(f"expected {len(MC_MUB_NAMES)} rows, got {len(lines)}")
    for i, (line, name) in enumerate(zip(lines, MC_MUB_NAMES)):
        row = _parse(line, i + 1)
        if row.get("name") != name or row.get("samples") != samples:
            raise CheckError(f"row {i + 1} is {row.get('name')!r} over {row.get('samples')} samples")
        z = row.get("z")
        if not isinstance(z, float) or not math.isfinite(z) or abs(z) > Z_LIMIT:
            raise CheckError(f"row {name}: |z| = {z!r} exceeds {Z_LIMIT}")


def check_fig1(lines: Iterable[str], points: int) -> None:
    """CSV header plus one row per purity point."""
    lines = list(_lines(lines))
    if len(lines) != points + 1 or not lines[0].startswith("purity,"):
        raise CheckError(f"expected a header and {points} rows, got {len(lines)} lines")
    for line in lines[1:]:
        try:
            values = [float(cell) for cell in line.split(",")]
        except ValueError:
            raise CheckError(f"row {line!r} is not numeric") from None
        if not all(math.isfinite(v) for v in values):
            raise CheckError(f"row {line!r} is not finite")


def read_checked(path: Path, check: Callable[[Iterable[str], int], None], size: int) -> str:
    """Run ``check`` over the lines of ``path``; returns the file's sha256."""
    digest = hashlib.sha256()

    def lines() -> Iterator[str]:
        for raw in f:
            digest.update(raw)
            yield raw.decode("utf-8")

    try:
        with open(path, "rb") as f:
            check(lines(), size)
            for raw in f:  # anything a checker left unread
                digest.update(raw)
    except FileNotFoundError:
        raise CheckError("no output file") from None
    except UnicodeDecodeError as err:
        raise CheckError(f"output is not UTF-8: {err}") from None
    return digest.hexdigest()


class Determinism:
    """Flags a run whose output bytes differ from earlier runs of the same command."""

    def __init__(self) -> None:
        self.digests: dict[str, str] = {}

    def check(self, key: str, digest: str) -> None:
        first = self.digests.setdefault(key, digest)
        if digest != first:
            raise CheckError(f"output sha256 {digest[:12]} differs from {first[:12]} for {key}")
