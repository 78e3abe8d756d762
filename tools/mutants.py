"""Run the Tier-1 tests against each mutant of a fixed table of checks.

    python tools/mutants.py

Each row of ``MUTANTS`` names a file, an exact text that occurs in it once, and
its replacement.  The tool copies the working tree's files (``git ls-files``:
tracked and untracked, not ignored) into a temporary directory and runs the
Tier-1 command with ``-x`` in that copy, without this tool's own tests: once
unmutated, then once per row with the row's replacement applied.  Unless the
unmutated copy passes, it prints ``baseline failed: <first failing test>`` on
stderr and exits 2, since then every row would read as killed.  Otherwise it
prints one tab-separated line per mutant:

    name    killed    tests/test_x.py::TestY::test_z
    name    survived  -

``timeout`` replaces ``killed`` when the run exceeds ``TIMEOUT`` seconds.  A
mutant that survives means no test pins the check it breaks.  The exit status is
0 when every mutant was killed, and 1 otherwise.  The table takes about 10
minutes on two cores, so Tier-1 runs only this tool's unit tests.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
# The table's own tests fail on any mutant, since its text is gone, so they are left out
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-x",
         "-p", "no:cacheprovider", "--ignore=tests/test_mutants.py"]
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Seconds a mutant's run may take; the unmutated suite takes about 90.
TIMEOUT = 1800


class Mutant(NamedTuple):
    name: str
    path: str
    text: str
    replacement: str
    breaks: str


BOUNDS = "src/commutator_bounds/bounds.py"
OPTIMIZER = "src/commutator_bounds/optimizer.py"

MUTANTS = (
    Mutant("hard-slack", BOUNDS, "HARD_SLACK = 1e-10", "HARD_SLACK = 1e-6",
           "a proven bound's relative slack"),
    Mutant("conjecture-slack", BOUNDS, "CONJECTURE_SLACK = 1e-9", "CONJECTURE_SLACK = 1e-4",
           "bound2's relative slack"),
    Mutant("hard-mask-ge", BOUNDS, "cols[name] - product > HARD_SLACK",
           "cols[name] - product >= HARD_SLACK", "the strict hard-bound mask"),
    Mutant("exceedance-slack", OPTIMIZER, "EXCEEDANCE_SLACK = 1e-6", "EXCEEDANCE_SLACK = 1e-2",
           "the slack above the conjectured constant"),
    Mutant("ceiling-slack", OPTIMIZER, "CEILING_SLACK = 1e-9", "CEILING_SLACK = 1.0",
           "the proven-ceiling check"),
    Mutant("monotone-slack", OPTIMIZER, "MONOTONE_SLACK = 1e-12", "MONOTONE_SLACK = 1e-3",
           "the monotone ascent check"),
    Mutant("consistency-slack", OPTIMIZER, "CONSISTENCY_SLACK = 1e-10",
           "CONSISTENCY_SLACK = 1e-2", "the reported pair against the ascent"),
    Mutant("trace-tol", "src/commutator_bounds/states.py", "TRACE_TOL = 1e-10",
           "TRACE_TOL = 1e-6", "a spectrum's unit trace"),
    Mutant("convergence-10-tol", OPTIMIZER, "current - previous <= tol *",
           "current - previous <= 10 * tol *", "the convergence test"),
    Mutant("best-start-ties-last", OPTIMIZER, "outcome[2] > best[2]", "outcome[2] >= best[2]",
           "ties between starts go to the earliest"),
    Mutant("rotate-back-wrong-way", OPTIMIZER, "return vectors @ m @ vectors.conj().T",
           "return vectors.conj().T @ m @ vectors", "the reported pair's rotation, V X V^dag"),
    Mutant("krylov-residual-bound", OPTIMIZER, "        if residual <= floor:",
           "        if residual <= 1e4 * floor:", "the Krylov block's eigen-residual bound"),
    Mutant("certificate-sigma", OPTIMIZER, "+= theta + 2.0 * residual + floor",
           "+= 1.5 * theta + 2.0 * residual + floor", "the shift sigma of the top's certificate"),
)

#: A line of pytest's short summary that names a failed or erroring test.
_FAILED = re.compile(r"^(?:FAILED|ERROR) (\S+)", re.MULTILINE)


def apply(source: str, mutant: Mutant) -> str:
    """``source`` with the mutant's text replaced; ValueError unless it occurs exactly once."""
    count = source.count(mutant.text)
    if count != 1:
        raise ValueError(f"{mutant.name}: {mutant.text!r} occurs {count} times in {mutant.path}")
    return source.replace(mutant.text, mutant.replacement)


def first_failure(output: str) -> str:
    """The first test that pytest's summary lists as failed or erroring, or '-'."""
    match = _FAILED.search(output)
    return match.group(1) if match else "-"


def tree_files(root: Path) -> list[str]:
    """The working tree's files that git tracks or would track."""
    listing = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=root, capture_output=True, check=True,
    ).stdout.decode()
    return [name for name in listing.split("\0") if name and (root / name).is_file()]


def run(root: Path, mutant: Mutant | None = None) -> tuple[str, str]:
    """Tier-1 with ``-x`` in a copy of ``root``, mutated unless ``mutant`` is None.

    Returns ("killed", first failing test), ("survived", "-") or ("timeout", "-").
    """
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for name in tree_files(root):
            (copy / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(root / name, copy / name)
        if mutant is not None:
            target = copy / mutant.path
            target.write_text(apply(target.read_text(encoding="utf-8"), mutant), encoding="utf-8")
        path = os.pathsep.join(filter(None, ("src", os.environ.get("PYTHONPATH"))))
        env = {**os.environ, "PYTHONPATH": path, **dict.fromkeys(THREAD_VARS, "1")}
        try:
            proc = subprocess.run(
                TIER1, cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT
            )
        except subprocess.TimeoutExpired:
            return "timeout", "-"
    if proc.returncode == 0:
        return "survived", "-"
    return "killed", first_failure(proc.stdout)


def main() -> int:
    status, test = run(ROOT)
    if status != "survived":
        print(f"baseline failed: {test if status == 'killed' else status}", file=sys.stderr)
        return 2
    all_killed = True
    for mutant in MUTANTS:
        status, test = run(ROOT, mutant)
        print(f"{mutant.name}\t{status}\t{test}", flush=True)
        all_killed &= status == "killed"
    return 0 if all_killed else 1


if __name__ == "__main__":
    sys.exit(main())
