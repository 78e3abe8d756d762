"""Compare one ``cbounds`` command's stdout at a git revision with the working tree's.

    python tools/outdiff.py REV -- <cbounds args>

The revision's ``src`` is unpacked from ``git archive REV src`` into a temporary
directory.  The command runs once on it and once on the working tree's ``src``,
each on one BLAS thread and in its own empty working directory.  The report says
whether the stdout bytes are equal, compares the row counts and key sets, lists
each non-float field that differs, and gives the largest relative, ulp and
absolute difference of each float field (a list of floats counts entry by entry).
Matrices written as [re, im] pairs, such as the witness pairs, are compared after
normalising their scale and phase: the distance is min over phi of
|X/|X| - e^(i phi) Y/|Y||, in the Frobenius norm.  The tool asserts nothing; it
exits 0 once both runs have finished, whatever they printed or returned.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _scalar(text: str):
    """A CSV cell as an int, a float or the string itself."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def parse_rows(text: str) -> list[dict]:
    """The rows of a command's stdout: JSON lines, or CSV with a header line."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        return []
    if lines[0].lstrip().startswith("{"):
        return [json.loads(line) for line in lines]
    return [{k: _scalar(v) for k, v in row.items()} for row in csv.DictReader(lines)]


def _ordered(x: float) -> int:
    """An integer key, monotone in x, whose steps are the float64 ulps; -0.0 and 0.0 share 0."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -(bits & 0x7FFFFFFFFFFFFFFF)


def ulp_distance(a: float, b: float) -> float:
    """How many float64 values lie from a to b; 0 for equal values, inf if either is
    non-finite and they differ."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(_ordered(a) - _ordered(b))


def relative_difference(a: float, b: float) -> float:
    """|a - b| / max(|a|, |b|), and 0 when a == b."""
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def _is_float_list(v) -> bool:
    return isinstance(v, list) and bool(v) and all(isinstance(x, float) for x in v)


def _is_pair_matrix(v) -> bool:
    return (
        isinstance(v, list) and bool(v)
        and all(isinstance(row, list) and row for row in v)
        and all(isinstance(p, list) and len(p) == 2 for row in v for p in row)
    )


def matrix_distance(a, b) -> float:
    """min over phi of |A/|A| - e^(i phi) B/|B||_F for matrices of [re, im] pairs."""
    x, y = (np.asarray(m, dtype=float) for m in (a, b))
    if x.shape != y.shape:
        return math.inf
    x, y = x[..., 0] + 1j * x[..., 1], y[..., 0] + 1j * y[..., 1]
    nx, ny = np.linalg.norm(x), np.linalg.norm(y)
    if nx == 0.0 or ny == 0.0:
        return 0.0 if nx == ny else math.inf
    x, y = x / nx, y / ny
    overlap = np.vdot(y, x)
    phase = overlap / abs(overlap) if overlap != 0 else 1.0
    return float(np.linalg.norm(x - phase * y))


def compare_rows(old: list[dict], new: list[dict]) -> dict:
    """Row counts, key sets, differing non-float fields and the largest float differences.

    ``floats`` maps a field to its largest (relative, ulp, absolute) difference,
    ``matrices`` maps a field to its largest :func:`matrix_distance`, and
    ``differing`` lists (row, field, old, new) for every other field that differs.
    """
    floats: dict[str, list[float]] = {}
    matrices: dict[str, float] = {}
    differing = []
    key_rows = []
    for index, (a, b) in enumerate(zip(old, new)):
        if a.keys() != b.keys():
            key_rows.append(index)
        for key in sorted(a.keys() & b.keys()):
            u, v = a[key], b[key]
            if _is_pair_matrix(u) and _is_pair_matrix(v):
                matrices[key] = max(matrices.get(key, 0.0), matrix_distance(u, v))
                continue
            if isinstance(u, float) and isinstance(v, float):
                u, v = [u], [v]
            if not (_is_float_list(u) and _is_float_list(v) and len(u) == len(v)):
                if u != v:
                    differing.append((index, key, u, v))
                continue
            worst = floats.setdefault(key, [0.0, 0, 0.0])
            for p, q in zip(u, v):
                worst[0] = max(worst[0], relative_difference(p, q))
                worst[1] = max(worst[1], ulp_distance(p, q))
                worst[2] = max(worst[2], abs(p - q) if p != q else 0.0)
    return {
        "rows": (len(old), len(new)),
        "keys": (set().union(*old), set().union(*new)),
        "rows_with_other_keys": key_rows,
        "floats": {k: tuple(v) for k, v in floats.items()},
        "matrices": matrices,
        "differing": differing,
    }


def report(rev: str, old: subprocess.CompletedProcess, new: subprocess.CompletedProcess) -> str:
    """The text report on two finished runs of one command."""
    digests = [hashlib.sha256(p.stdout).hexdigest() for p in (old, new)]
    lines = [
        f"exit codes: {rev} {old.returncode}, working tree {new.returncode}",
        "stdout bytes: " + ("equal" if digests[0] == digests[1] else "differ")
        + f" (sha256 {rev} {digests[0]}, working tree {digests[1]})",
    ]
    diff = compare_rows(parse_rows(old.stdout.decode()), parse_rows(new.stdout.decode()))
    lines.append(f"rows: {diff['rows'][0]} vs {diff['rows'][1]}")
    only_old, only_new = (sorted(a - b) for a, b in (diff["keys"], diff["keys"][::-1]))
    lines.append(
        "keys: " + ("equal" if not (only_old or only_new) else
                    f"only at {rev} {only_old}, only in working tree {only_new}")
        + f"; rows whose key sets differ: {diff['rows_with_other_keys'] or 'none'}"
    )
    lines.append(f"non-float fields that differ: {len(diff['differing']) or 'none'}")
    lines += [f"  row {i} {key}: {u!r} -> {v!r}" for i, key, u, v in diff["differing"]]
    lines.append("float fields, largest difference (relative, ulp, absolute):")
    lines += [
        f"  {key:<24} {rel:.3g}  {ulp:g}  {absolute:.3g}"
        for key, (rel, ulp, absolute) in sorted(diff["floats"].items())
    ]
    if diff["matrices"]:
        lines.append("matrix fields, largest distance after normalising scale and phase:")
        lines += [f"  {key:<24} {dist:.3g}" for key, dist in sorted(diff["matrices"].items())]
    return "\n".join(lines)


def run_command(src: Path, args: list[str]) -> subprocess.CompletedProcess:
    """``python -m commutator_bounds ARGS`` on the package under ``src``, one BLAS thread."""
    path = os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path, **dict.fromkeys(THREAD_VARS, "1")}
    with tempfile.TemporaryDirectory() as cwd:
        return subprocess.run(
            [sys.executable, "-m", "commutator_bounds", *args], capture_output=True, cwd=cwd, env=env
        )


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: python tools/outdiff.py REV -- <cbounds args>", file=sys.stderr)
        return 2
    rev, args = argv[0], argv[2:]
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev, "src"], cwd=ROOT, capture_output=True, check=True
    ).stdout
    with tempfile.TemporaryDirectory() as tree:
        subprocess.run(["tar", "-x", "-C", tree], input=archive, check=True)
        old = run_command(Path(tree) / "src", args)
    new = run_command(ROOT / "src", args)
    print(f"command: cbounds {' '.join(args)}")
    print(report(rev, old, new))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
