"""The counting rule of ``tools/code_lines.py``: a code line holds a
token other than a comment and is not part of a docstring.  The tool is
loaded from its file, as it runs."""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "code_lines.py"


def load():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SOURCE = '''"""A module docstring
over two lines."""

# a comment alone on its line
import math


class Shape:
    """A class docstring."""

    sides = 4  # a comment after code


def area(r):
    """A function docstring,

    with a blank line inside it.
    """
    # a comment inside a function

    text = """a string that is not a docstring
spans two lines"""
    return (math.pi
            * r ** 2)
'''

# import, class, sides, def, text's two lines, return's two lines
CODE = 8


def test_counts_code_lines_and_nothing_else():
    assert load().code_lines(SOURCE) == CODE


def test_every_added_code_line_counts_one():
    tool = load()
    more = SOURCE + "\n\n# trailing comment\nx = 1\ny = [x,\n     x]\n"
    assert tool.code_lines(more) == CODE + 3
