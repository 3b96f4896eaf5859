"""The README's table of values fixed by the program names real code."""

import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"

NUMBERS = {word: n for n, word in enumerate(
    "zero one two three four five six seven eight nine ten eleven twelve "
    "thirteen fourteen fifteen sixteen seventeen eighteen nineteen "
    "twenty".split())}


def _fixed_values():
    """(the spelled-out count, the table's body rows as lists of cells)."""
    text = README.read_text(encoding="utf-8")
    found = re.search(r"^(\w+) values are fixed by the program", text,
                      re.MULTILINE)
    assert found, "the README no longer introduces its fixed values"
    lines = text[found.end():].splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("|"))
    table = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        table.append([cell.strip() for cell in line.strip("|").split("|")])
    # the header, then the separator row
    return NUMBERS[found.group(1).lower()], table[2:]


def test_readme_fixed_values_count_their_rows():
    count, rows = _fixed_values()
    assert rows
    assert count == len(rows)


def test_readme_fixed_values_name_code_that_exists():
    _, rows = _fixed_values()
    for value, _, where in rows:
        cell = re.fullmatch(r"`([\w.]+)` \(`([\w/]+)\.py`\)", where)
        assert cell, f"{value}: {where!r} is not `name` (`path.py`)"
        name, path = cell.groups()
        target = importlib.import_module(
            "valencelab." + path.replace("/", "."))
        for part in name.split("."):
            assert hasattr(target, part), f"{value}: {path}.py has no {name}"
            target = getattr(target, part)
