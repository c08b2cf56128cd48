"""The repository's own tools, loaded from their source files."""

import importlib.util
import math
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_node_costs_prints_every_layer_and_the_counts():
    done = subprocess.run(
        [sys.executable, str(TOOLS / "node_costs.py"), "--repeat", "1",
         "--sides", "2"], capture_output=True, text=True, check=True)
    header, row = done.stdout.splitlines()
    layers = load_tool("node_costs").LAYERS
    # the per-node layers, then the whole log det per integrand call
    assert header.split("|")[0].split() == ["N", *layers, "call"]
    figures, *counts = row.split("|")
    n, *us = figures.split()
    assert int(n) == 8 and len(us) == len(layers) + 1
    assert all(math.isfinite(float(x)) for x in us)
    per_call, per_node = float(us[-1]), float(us[layers.index("logdet")])
    assert len(counts) == 4
    log_det, second, joint, thermal = [tuple(map(int, integral.split()))
                                       for integral in counts]
    # a call holds nodes / calls nodes on average
    assert per_call == pytest.approx(per_node * log_det[1] / log_det[2],
                                     rel=0.01)
    for evaluations, nodes, calls in (log_det, second, thermal):
        # stacked calls also take nodes past a cut, which are not counted
        assert 0 < calls <= evaluations <= nodes
    # the joint path's second order walks on the log det's nodes alone
    assert joint == (second[0], 0, 0)
