"""The repository's own tools, loaded from their source files."""

import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BEFORE = '''"""Module docstring: not code."""

import math  # a comment after code


def area(r):
    """Function docstring: not code."""
    # a comment line
    return (math.pi
            * r * r)
'''

AFTER = '''"""Module docstring, now longer:

not code either.
"""

import math


def area(r):
    return math.pi * r * r


class Circle:
    """Class docstring."""

    radius = 1.0
'''


def test_code_lines_deltas_of_two_sources():
    code_lines = load_tool("code_lines")
    assert code_lines.source_lines(BEFORE) == 4
    assert code_lines.source_lines(AFTER) == 5
    rows = code_lines.deltas({"geometry.py": BEFORE, "gone.py": "x = 1\n"},
                             {"geometry.py": AFTER, "new.py": "y = 2\nz = 3\n"})
    assert rows == [("geometry.py", 4, 5), ("gone.py", 1, 0), ("new.py", 0, 2),
                    ("total", 5, 7)]
