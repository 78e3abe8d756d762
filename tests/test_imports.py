"""Import hygiene: the export list resolves, every import in the package and its tests
is used, every constant and private function or class in the package is read, scipy
stays off the import path of everything but the optimizer, the round-off floor, any
imaginary-residue tolerance and the two-level rule are written in ``linalg`` alone, the
MUB column names in ``mub`` alone, the Monte Carlo batch size in ``averages`` alone, no
clamp bypasses ``linalg.nonnegative``, every seed stream is opened with a tag from
``_parallel.Stream``, and no spectrum is divided by its sum outside
``states.checked_spectrum``."""

import ast
import fnmatch
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

from commutator_bounds._parallel import Stream

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


def unused_imports(source: str) -> list[str]:
    """The names that import statements in ``source`` bind and nothing reads.

    A read is a ``Name`` node, a name in a string annotation, or an ``__all__`` entry;
    ``from __future__`` imports are exempt.
    """
    tree = ast.parse(source)
    bound = set()
    read = set()
    notes = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            notes.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            notes.append(node.returns)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    for note in notes:
        if isinstance(note, ast.Constant) and isinstance(note.value, str):
            read.update(n.id for n in ast.walk(ast.parse(note.value)) if isinstance(n, ast.Name))
    return sorted(bound - read)


ROOT = SRC.parent
CHECKED = sorted(
    str(p.relative_to(ROOT))
    for folder in (SRC / "commutator_bounds", ROOT / "tests")
    for p in folder.glob("*.py")
)


@pytest.mark.parametrize("path", CHECKED)
def test_every_import_is_used(path):
    assert unused_imports((ROOT / path).read_text(encoding="utf-8")) == []


def test_unused_import_check_sees_each_kind():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport json as js\nfrom a import b, c as d\nfrom e import f, g, h\n"
        "__all__ = ['f']\n"
        "def k(x: 'g') -> 'list[h]':\n    return x\n"
    )
    assert unused_imports(source) == ["b", "d", "js", "os"]


def unread_parameters(source: str) -> list[str]:
    """``function.parameter`` for each parameter of a function or lambda in ``source``,
    other than ``self`` and ``cls``, that its body never reads.

    A read is a loaded ``Name`` or an augmented assignment anywhere in the body, nested
    functions included; a default or an annotation is not the body.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = set()
        for child in (n for stmt in body for n in ast.walk(stmt)):
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                read.add(child.id)
            elif isinstance(child, ast.AugAssign) and isinstance(child.target, ast.Name):
                read.add(child.target.id)
        name = getattr(node, "name", "<lambda>")
        found += [
            f"{name}.{p.arg}" for p in params
            if p is not None and p.arg not in ("self", "cls", *read)
        ]
    return sorted(found)


@pytest.mark.parametrize("path", sorted(p.name for p in (SRC / "commutator_bounds").glob("*.py")))
def test_every_parameter_is_read(path):
    source = (SRC / "commutator_bounds" / path).read_text(encoding="utf-8")
    assert unread_parameters(source) == []


def test_unread_parameter_check_sees_each_kind():
    source = (
        "def f(a, b, /, c, *rest, d, e=None, **extra):\n    return a + c\n"
        "def g(x: int = y) -> int:\n    pass\n"
        "async def h(total):\n    total += 1\n"
        "class K:\n    def m(self, n):\n        def inner():\n            return n\n"
        "    @classmethod\n    def make(cls, spare):\n        return cls\n"
        "w = lambda seen, unseen: seen\n"
    )
    assert unread_parameters(source) == [
        "<lambda>.unseen", "f.b", "f.d", "f.e", "f.extra", "f.rest", "g.x", "make.spare",
    ]


def unread_names(sources: list[str]) -> list[str]:
    """The module-level upper-case constants and the ``_private`` functions and classes
    that ``sources`` define and none of them reads.

    A read is a loaded ``Name``, an attribute, or a name imported from a module.
    """
    defined = set()
    read = set()
    for source in sources:
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            defined.update(t.id for t in targets if isinstance(t, ast.Name) and t.id.isupper())
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.endswith("__"):
                    defined.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(a.name for a in node.names)
    return sorted(defined - read)


def test_every_constant_and_private_name_is_read():
    sources = [p.read_text(encoding="utf-8") for p in (SRC / "commutator_bounds").glob("*.py")]
    assert unread_names(sources) == []


def test_unread_name_check_sees_each_kind():
    sources = [
        "A_TOL = 1\nB_TOL: float = 2\nC_TOL = 3\nlower = 4\n_D = 5\n"
        "def _f():\n    return A_TOL\n"
        "def _g():\n    pass\nclass _H:\n    def _m(self):\n        pass\n"
        "    def __init__(self):\n        pass\n",
        "from a import C_TOL, _f\nx = obj._g\n",
    ]
    assert unread_names(sources) == ["B_TOL", "_D", "_H", "_m"]


def floor_copies(source: str) -> list[str]:
    """Each ``*_FLOOR`` name that ``source`` assigns and each ``-1e-12`` literal it writes."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            if node.id.endswith("_FLOOR"):
                found.append(node.id)
        elif (
            isinstance(node, ast.UnaryOp)
            and isinstance(node.op, ast.USub)
            and isinstance(node.operand, ast.Constant)
            and node.operand.value == 1e-12
        ):
            found.append("-1e-12")
    return found


@pytest.mark.parametrize("path", sorted(p.name for p in (SRC / "commutator_bounds").glob("*.py")))
def test_round_off_floor_is_written_once(path):
    copies = floor_copies((SRC / "commutator_bounds" / path).read_text(encoding="utf-8"))
    assert copies == (["ROUNDOFF_FLOOR", "-1e-12"] if path == "linalg.py" else [])


def test_floor_check_sees_each_kind():
    source = "A_FLOOR = -1e-12\nb = 1e-12\nc = x - 1e-12\nd = -1e-12\nfor E_FLOOR in (): pass\n"
    assert floor_copies(source) == ["A_FLOOR", "-1e-12", "-1e-12", "E_FLOOR"]


def _own_sum_divisor(node) -> str | None:
    """``x`` if ``node`` is ``x / x.sum()`` or ``x /= x.sum()``, else None."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
        numerator, divisor = node.left, node.right
    elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div):
        numerator, divisor = node.target, node.value
    else:
        return None
    if (
        isinstance(divisor, ast.Call)
        and not divisor.args
        and not divisor.keywords
        and isinstance(divisor.func, ast.Attribute)
        and divisor.func.attr == "sum"
        and ast.unparse(divisor.func.value) == ast.unparse(numerator)
    ):
        return ast.unparse(numerator)
    return None


def sum_normalizations(source: str) -> list[str]:
    """``function: x`` for each division of ``x`` by its own ``.sum()`` in ``source``,
    named by the innermost function around it (``<module>`` outside any)."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            name = _own_sum_divisor(child)
            if name is not None:
                found.append(f"{scope}: {name}")
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_def else scope)

    visit(ast.parse(source), "<module>")
    return found


@pytest.mark.parametrize("path", sorted(p.name for p in (SRC / "commutator_bounds").glob("*.py")))
def test_spectrum_is_normalized_in_checked_spectrum_alone(path):
    found = sum_normalizations((SRC / "commutator_bounds" / path).read_text(encoding="utf-8"))
    assert found == (["checked_spectrum: clipped"] if path == "states.py" else [])


def test_sum_normalization_check_sees_each_kind():
    source = (
        "a = x / x.sum()\n"
        "def f(y):\n    y /= y.sum()\n    def g():\n        return s.t / s.t.sum()\n"
        "    return y / (y.sum())\n"
        "b = x / y.sum()\nc = x / x.sum(axis=0)\nd = x * x.sum()\ne = x.sum() / x\n"
    )
    assert sum_normalizations(source) == ["<module>: x", "f: y", "g: s.t", "f: y"]


def imaginary_residue_tolerances(source: str) -> list[str]:
    """Each ``*IMAG*_TOL`` name that ``source`` assigns."""
    return [
        node.id
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Name)
        and isinstance(node.ctx, ast.Store)
        and fnmatch.fnmatchcase(node.id, "*IMAG*_TOL")
    ]


@pytest.mark.parametrize("path", sorted(p.name for p in (SRC / "commutator_bounds").glob("*.py")))
def test_imaginary_residue_tolerance_lives_in_linalg(path):
    source = (SRC / "commutator_bounds" / path).read_text(encoding="utf-8")
    assert path == "linalg.py" or imaginary_residue_tolerances(source) == []


def test_imaginary_residue_tolerance_check_sees_each_kind():
    source = "A_IMAG_TOL = 1\nIMAG_B_TOL = 2\nIMAGE = 3\nC_TOL = 4\nfor IMAG_TOL in (): pass\n"
    assert imaginary_residue_tolerances(source) == ["A_IMAG_TOL", "IMAG_B_TOL", "IMAG_TOL"]


def two_level_rules(source: str) -> list[str]:
    """Each string constant in ``source``, f-string parts included, that states the
    two-level rule."""
    return [
        node.value
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and "dimension must be >= 2" in node.value
    ]


@pytest.mark.parametrize("path", sorted(p.name for p in (SRC / "commutator_bounds").glob("*.py")))
def test_two_level_rule_lives_in_linalg(path):
    source = (SRC / "commutator_bounds" / path).read_text(encoding="utf-8")
    assert path == "linalg.py" or two_level_rules(source) == []


def test_two_level_rule_check_sees_each_kind():
    source = (
        'a = "dimension must be >= 2"\nb = f"state dimension must be >= 2, got {d}"\n'
        'c = "dimension must be >= 3"\nd = b"dimension must be >= 2"\n'
        'def f():\n    """The dimension must be >= 2."""\n'
    )
    assert two_level_rules(source) == [
        "dimension must be >= 2",
        "state dimension must be >= 2, got ",
        "The dimension must be >= 2.",
    ]


def column_name_copies(source: str) -> list[str]:
    """Each string constant in ``source``, f-string parts included, that spells the MUB
    column name ``lp_factor_a``."""
    return [
        node.value
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and "lp_factor_a" in node.value
    ]


@pytest.mark.parametrize("path", sorted(p.name for p in (SRC / "commutator_bounds").glob("*.py")))
def test_mub_column_names_live_in_mub(path):
    # the four column names come from mub.MUB_COLUMN_NAMES, as the bound names from bounds
    source = (SRC / "commutator_bounds" / path).read_text(encoding="utf-8")
    assert path == "mub.py" or column_name_copies(source) == []


def test_column_name_check_sees_each_kind():
    source = (
        'a = ("comm_norm", "lp_factor_a")\nb = f"{x}.lp_factor_a"\nlp_factor_a = 1\n'
        'c = b"lp_factor_a"\nd = "lp_factor_b"\ndef f():\n    """Reads lp_factor_a."""\n'
    )
    assert column_name_copies(source) == ["lp_factor_a", ".lp_factor_a", "Reads lp_factor_a."]


def clip_calls(source: str) -> list[str]:
    """Each call of a ``clip`` attribute in ``source``: ``np.clip``, ``numpy.clip`` or an
    array's ``.clip`` method."""
    return [
        ast.unparse(node.func)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "clip"
    ]


@pytest.mark.parametrize("path", sorted(p.name for p in (SRC / "commutator_bounds").glob("*.py")))
def test_clamps_go_through_nonnegative(path):
    # a clamp at 0 is linalg.nonnegative, which raises below the round-off floor
    assert clip_calls((SRC / "commutator_bounds" / path).read_text(encoding="utf-8")) == []


def test_clip_check_sees_each_kind():
    source = (
        "import numpy\nimport numpy as np\na = np.clip(x, 0.0, None)\nb = numpy.clip(x, 0, 1)\n"
        "c = x.sum(axis=0).clip(0.0)\nd = np.maximum(x, 0.0)\nclipped = clip\ne = np.clip\n"
    )
    assert clip_calls(source) == ["np.clip", "numpy.clip", "x.sum(axis=0).clip"]


def untagged_streams(source: str) -> list[str]:
    """Each ``task_rng`` call in ``source``, direct or through ``partial(task_rng, ...)``,
    whose tag (the argument after the seed) is neither a ``Stream`` member nor a parameter
    annotated ``Stream`` of the function it is in, and each other read of ``task_rng``."""
    faults = []
    checked = set()

    def is_tag(node, params) -> bool:
        if isinstance(node, ast.Name):
            return node.id in params
        return (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "Stream"
            and node.attr in Stream.__members__
        )

    def visit(node, params):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            every = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            params = {
                a.arg for a in every if a.annotation and ast.unparse(a.annotation) == "Stream"
            }
        elif isinstance(node, ast.Call):
            args = node.args
            if args and isinstance(node.func, ast.Name) and node.func.id == "partial":
                args = args[1:] if ast.unparse(args[0]) == "task_rng" else None
            elif ast.unparse(node.func) != "task_rng":
                args = None
            if args is not None:
                checked.add(node.func if args is node.args else node.args[0])
                if len(args) < 2 or not is_tag(args[1], params):
                    faults.append(ast.unparse(node))
        elif isinstance(node, ast.Name) and node.id == "task_rng" and node not in checked:
            faults.append("task_rng")
        for child in ast.iter_child_nodes(node):
            visit(child, params)

    visit(ast.parse(source), set())
    return faults


@pytest.mark.parametrize("path", sorted(p.name for p in (SRC / "commutator_bounds").glob("*.py")))
def test_every_stream_is_tagged_from_the_table(path):
    assert untagged_streams((SRC / "commutator_bounds" / path).read_text(encoding="utf-8")) == []


def test_stream_tag_check_sees_each_kind():
    source = (
        "a = task_rng(seed, Stream.COMPARE, 0)\n"
        "b = task_rng(seed, 3, 0)\n"
        "c = partial(task_rng, seed, Stream.MC_MUB)\n"
        "d = partial(task_rng, seed, 2)\n"
        "e = task_rng(seed)\n"
        "f = task_rng(seed, Stream.NO_SUCH_TAG)\n"
        "def g(seed, tag: Stream, other: int):\n"
        "    return task_rng(seed, tag), task_rng(seed, other)\n"
        "h = task_rng(seed, tag)\n"
        "k = map(task_rng, seeds)\n"
    )
    assert untagged_streams(source) == [
        "task_rng(seed, 3, 0)",
        "partial(task_rng, seed, 2)",
        "task_rng(seed)",
        "task_rng(seed, Stream.NO_SUCH_TAG)",
        "task_rng(seed, other)",
        "task_rng(seed, tag)",
        "task_rng",
    ]


def monte_carlo_batch_sizes(source: str) -> list[str]:
    """Each name that ``source`` assigns and that names a Monte Carlo batch size
    (``MC_BATCH``, or any name holding ``CHUNK``), and each ``chunk_plan`` size, in a
    function that reads ``chunk_moments``, other than ``MC_BATCH``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            if node.id == "MC_BATCH" or "CHUNK" in node.id:
                found.append(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = list(ast.walk(node))
            if any(isinstance(n, ast.Name) and n.id == "chunk_moments" for n in inner):
                found.extend(
                    ast.unparse(n)
                    for n in inner
                    if isinstance(n, ast.Call)
                    and ast.unparse(n.func) == "chunk_plan"
                    and ast.unparse(n.args[-1]) != "MC_BATCH"
                )
    return found


@pytest.mark.parametrize("path", sorted(p.name for p in (SRC / "commutator_bounds").glob("*.py")))
def test_monte_carlo_batch_size_lives_in_averages(path):
    sizes = monte_carlo_batch_sizes((SRC / "commutator_bounds" / path).read_text(encoding="utf-8"))
    assert sizes == (["MC_BATCH"] if path == "averages.py" else [])


def test_batch_size_check_sees_each_kind():
    source = (
        "MC_BATCH = 1 << 16\n_CHUNK = 1 << 17\n_BATCH = 4096\n"
        "def mc(sample, total):\n"
        "    return [chunk_moments(sample, c) for c in chunk_plan(total, 1 << 15)]\n"
        "def mc_ok(sample, total):\n"
        "    return [chunk_moments(sample, c) for c in chunk_plan(total, MC_BATCH)]\n"
        "def compare(total):\n"
        "    return chunk_plan(total, _BATCH)\n"
        "for MY_CHUNK in (): pass\n"
    )
    assert sorted(monte_carlo_batch_sizes(source)) == [
        "MC_BATCH", "MY_CHUNK", "_CHUNK", "chunk_plan(total, 1 << 15)"
    ]
