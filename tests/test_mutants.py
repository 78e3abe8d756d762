"""The mutation tool: every row of its table applies to the tree, its report parses, and
a failing unmutated copy stops it.

The tool itself runs the whole suite once per mutant, which is too slow here; CI runs
it on demand.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def mutants():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_names_are_unique(mutants):
    names = [m.name for m in mutants.MUTANTS]
    assert len(set(names)) == len(names)


def test_each_text_occurs_once_in_its_file(mutants):
    for mutant in mutants.MUTANTS:
        source = (ROOT / mutant.path).read_text(encoding="utf-8")
        assert source.count(mutant.text) == 1, mutant.name
        mutated = mutants.apply(source, mutant)
        assert mutated != source and mutant.replacement in mutated, mutant.name


def test_apply_rejects_a_text_that_is_not_there_once(mutants):
    mutant = mutants.Mutant("m", "f.py", "x = 1", "x = 2", "x")
    for source in ("y = 1\n", "x = 1\nx = 1\n"):
        with pytest.raises(ValueError, match="occurs"):
            mutants.apply(source, mutant)


def test_first_failure_reads_the_short_summary(mutants):
    output = (
        "....F\n"
        "=================== short test summary info ===================\n"
        "FAILED tests/test_optimizer.py::TestHalfStep::test_x[2-spectrum] - AssertionError\n"
        "!!!!!!!!!!!!!!!!!!!! stopping after 1 failures !!!!!!!!!!!!!!!!!!!!\n"
        "1 failed, 4 passed in 1.00s\n"
    )
    want = "tests/test_optimizer.py::TestHalfStep::test_x[2-spectrum]"
    assert mutants.first_failure(output) == want
    assert mutants.first_failure("ERROR tests/test_cli.py - ImportError\n") == "tests/test_cli.py"
    assert mutants.first_failure("5 passed in 1.00s\n") == "-"


def parse_report(text):
    """(name, status, test) of each line of a report; ValueError on a malformed line."""
    rows = []
    for line in text.splitlines():
        parts = line.split("\t")
        if len(parts) != 3 or parts[1] not in ("killed", "survived", "timeout"):
            raise ValueError(f"not a report line: {line!r}")
        rows.append(tuple(parts))
    return rows


def fake_run(baseline, status):
    """A stand-in for ``run``: ``baseline`` for the unmutated copy, ``status`` for a mutant."""
    def run(root, mutant=None):
        if mutant is None:
            return baseline
        return status, f"tests/test_{mutant.name}.py::test_it" if status == "killed" else "-"
    return run


@pytest.mark.parametrize("status, code", [("killed", 0), ("survived", 1), ("timeout", 1)])
def test_report_parses_and_exits_0_only_when_every_mutant_is_killed(mutants, monkeypatch,
                                                                    capsys, status, code):
    monkeypatch.setattr(mutants, "run", fake_run(("survived", "-"), status))
    assert mutants.main() == code
    rows = parse_report(capsys.readouterr().out)
    assert [(name, s) for name, s, _ in rows] == [(m.name, status) for m in mutants.MUTANTS]
    if status == "killed":
        assert rows[0][2] == f"tests/test_{mutants.MUTANTS[0].name}.py::test_it"
    with pytest.raises(ValueError, match="not a report line"):
        parse_report("hard-slack\tmaybe\t-\n")


def test_one_survivor_fails_the_table(mutants, monkeypatch, capsys):
    last = mutants.MUTANTS[-1]
    monkeypatch.setattr(mutants, "run", lambda root, mutant=None: (
        ("survived", "-") if mutant in (None, last) else ("killed", "tests/t.py::test_a")))
    assert mutants.main() == 1
    assert parse_report(capsys.readouterr().out)[-1] == (last.name, "survived", "-")


@pytest.mark.parametrize("baseline, shown", [
    (("killed", "tests/test_cli.py::test_a"), "tests/test_cli.py::test_a"),
    (("timeout", "-"), "timeout"),
])
def test_a_failing_baseline_stops_before_any_mutant(mutants, monkeypatch, capsys,
                                                   baseline, shown):
    calls = []

    def run(root, mutant=None):
        calls.append(mutant)
        return baseline

    monkeypatch.setattr(mutants, "run", run)
    assert mutants.main() == 2
    out, err = capsys.readouterr()
    assert calls == [None] and out == ""
    assert err == f"baseline failed: {shown}\n"
