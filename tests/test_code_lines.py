"""The code-line counter tests/code_lines.py, whose totals the change log
quotes."""

from code_lines import code_lines

SOURCE = '''"""A module docstring
over two lines."""

import math  # a trailing comment leaves a code line


# a comment line
def area(radius):
    """A function docstring."""

    return (math.pi
            * radius
            * radius)
'''


def test_counts_only_lines_with_code():
    # the import, the def and the three lines of the return statement
    assert code_lines(SOURCE) == 5


def test_a_string_after_the_first_statement_is_code():
    assert code_lines('x = 1\n"""not a docstring"""\n') == 2
