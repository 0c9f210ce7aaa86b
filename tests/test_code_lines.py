"""The counting rule of ``tests/code_lines.py``, pinned on a small source text."""

import ast

from code_lines import code_lines, docstring_lines

SOURCE = '''"""A module docstring
over two lines."""

import os  # a trailing comment does not hide the code

# a comment line


class Point:
    """A class docstring."""

    x = 1


def f(y):
    """A function docstring."""
    return (os.sep
            + y
            + "z")


TEXT = """a string that is no docstring
counts each line"""
'''


def test_docstrings_are_the_module_class_and_function_ones():
    assert docstring_lines(ast.parse(SOURCE)) == {1, 2, 10, 16}


def test_a_line_counts_when_it_holds_code_outside_a_docstring():
    # import, class, x = 1, def, the three lines of the return, and the two
    # of the string assigned to TEXT.
    assert code_lines(SOURCE) == 1 + 1 + 1 + 1 + 3 + 2
