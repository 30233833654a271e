"""tools/count_lines.py: code and docstring lines of a small source."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "count_lines.py"
_spec = importlib.util.spec_from_file_location("count_lines", TOOL)
count_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(count_lines)

SOURCE = '''"""A module docstring
over two lines."""

import os  # a comment after code

# a comment alone


class A:
    """One line."""

    def f(self, x):
        """Three
        lines
        here."""
        text = """a string
        that is not a docstring"""
        return (
            x,
            text,
        )


async def g():
    return 1
'''


def test_counts_code_and_docstring_lines_of_a_small_source():
    # code: import, class, def, text (2 lines), return (4 lines), async
    # def, return; docstrings: 2 + 1 + 3 lines
    assert count_lines.count(SOURCE) == (11, 6)


def test_prints_a_row_per_module_and_a_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n")
    assert count_lines.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [
        ["module", "code", "docstring"],
        ["a.py", "11", "6"],
        ["b.py", "1", "0"],
        ["total", "12", "6"],
    ]
