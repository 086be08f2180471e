"""tools/codelines.py counts the lines that hold code: not blank, not only a
comment, not inside a docstring."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "codelines.py"

FIXTURE = '''"""Module docstring,
over two lines."""

import math  # a comment after code counts


# a comment line
class Shape:
    """Class docstring."""

    sides = 4

    def area(self, side):
        """Function docstring,

        with a blank line inside."""
        text = """a multi-line string
that is not a docstring
counts on every line"""
        return side * side, text


async def run():
    """One-line docstring."""
    return (1,
            2)
'''
# code lines: import, class, sides, def area, the three lines of text, return,
# async def, and the two lines of the last return
FIXTURE_LINES = 11


def _tool():
    spec = importlib.util.spec_from_file_location("codelines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_lines_and_not_docstrings_comments_or_blanks():
    assert _tool().count_lines(FIXTURE) == FIXTURE_LINES


def test_a_function_body_that_is_only_a_string_counts_nothing_for_it():
    assert _tool().count_lines('def f():\n    """Only a docstring."""\n') == 1


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text("x = 1\n\n# note\ny = 2\n")
    assert _tool().main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "   11  a.py\n    2  b.py\n   13  total\n"
