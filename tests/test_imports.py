"""Import hygiene: the export list resolves, and scipy stays off the import path of
everything but the optimizer."""

import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# Imports the package in a fresh interpreter, optionally runs one CLI command in
# process, and prints its exit code with the scipy modules then loaded.
PROBE = """
import json, sys
import commutator_bounds
code = 0
if sys.argv[1:]:
    from commutator_bounds import cli
    code = cli.main(sys.argv[1:])
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"exit": code, "scipy": loaded}))
"""


def scipy_modules_after(*argv, cwd):
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *argv],
        capture_output=True,
        text=True,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
        timeout=600,
    )
    assert proc.returncode == 0, f"exit {proc.returncode}, stderr:\n{proc.stderr}"
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["exit"] == 0, proc.stderr
    return report["scipy"]


def test_package_import_loads_no_scipy(tmp_path):
    assert scipy_modules_after(cwd=tmp_path) == []


@pytest.mark.parametrize(
    "argv",
    [
        ("fig1", "--points", "2"),
        ("compare", "--dim", "2", "--samples", "8", "--workers", "1"),
        ("mc-average", "--mub", "--dim", "2", "--samples", "10000", "--workers", "1"),
    ],
    ids=["fig1", "compare", "mc-average-mub"],
)
def test_command_loads_no_scipy(argv, tmp_path):
    out = tmp_path / "out.txt"
    assert scipy_modules_after(*argv, "--out", str(out), cwd=tmp_path) == []
    assert out.stat().st_size > 0


def test_verify_conjecture_loads_scipy_linalg(tmp_path):
    # the optimizer's lazy import is really taken
    out = tmp_path / "out.jsonl"
    argv = ("verify-conjecture", "--dim", "2", "--trials", "1", "--workers", "1")
    assert "scipy.linalg" in scipy_modules_after(*argv, "--out", str(out), cwd=tmp_path)


def test_every_export_resolves_once():
    import commutator_bounds

    names = commutator_bounds.__all__
    assert sorted({n for n in names if names.count(n) > 1}) == []
    assert [n for n in names if not hasattr(commutator_bounds, n)] == []


def test_exports_are_the_public_namespace():
    # a name deleted from only one of the import list and __all__ shows up here
    import commutator_bounds

    public = {
        name
        for name, value in vars(commutator_bounds).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(commutator_bounds.__all__) == sorted(public)
