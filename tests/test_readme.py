"""The README's table of CLI flags agrees with ``cli.build_parser()``."""

import argparse
import re
from pathlib import Path

from commutator_bounds.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"

# the sentence above the table of each command's own flags
TABLE_INTRO = "The accepted range of each command's own flags:"
# flags the README describes in prose, not in the table
UNTABLED = {"--seed", "--workers", "--out", "--counterexample-dir", "--format"}


def table_flags(text: str) -> set[tuple[str, str]]:
    """(command, flag) for each row of the flag table that follows ``TABLE_INTRO``.

    A row with an empty command cell continues the command above it, and a cell that
    names several commands or flags in backquotes gives one pair for each.
    """
    rows = text.split(TABLE_INTRO, 1)[1].lstrip("\n").split("\n\n", 1)[0].splitlines()
    pairs = set()
    commands = []
    for row in rows[2:]:  # below the header and its rule
        command_cell, flag_cell = row.split("|")[1:3]
        commands = re.findall(r"`([^`]+)`", command_cell) or commands
        flags = re.findall(r"`(--[\w-]+)`", flag_cell)
        pairs.update((command, flag) for command in commands for flag in flags)
    return pairs


def parser_options() -> dict[str, dict[str, argparse.Action]]:
    """Each subcommand's options, by flag."""
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        name: {flag: action for action in p._actions for flag in action.option_strings}
        for name, p in sub.choices.items()
    }


def test_every_flag_with_a_value_is_in_the_table():
    tabled = table_flags(README.read_text(encoding="utf-8"))
    valued = {
        (command, flag)
        for command, options in parser_options().items()
        for flag, action in options.items()
        if action.nargs != 0 and flag not in UNTABLED
    }
    assert sorted(valued - tabled) == []


def test_every_flag_in_the_table_is_an_option_of_its_command():
    options = parser_options()
    tabled = table_flags(README.read_text(encoding="utf-8"))
    assert sorted((c, f) for c, f in tabled if f not in options.get(c, {})) == []


def test_table_reader_sees_each_kind():
    text = (
        "Intro.\n\n" + TABLE_INTRO + "\n\n"
        "| command | flag | accepts |\n|---|---|---|\n"
        "| `a` | `--x` | integer |\n"
        "|     | `--y` / `--z` | exactly one |\n"
        "| `b`, `c` | `--w` | float |\n"
        "\nAfter the table, `d` | `--v` is prose.\n"
    )
    assert table_flags(text) == {
        ("a", "--x"), ("a", "--y"), ("a", "--z"), ("b", "--w"), ("c", "--w"),
    }
