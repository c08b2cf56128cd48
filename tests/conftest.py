"""Fixtures shared by the test modules."""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def load_perfbench(monkeypatch):
    """``load_perfbench(name)``: a perfbench module, loaded read-only from
    its source file; it is registered while the test runs, as its
    dataclasses need."""
    def load(name):
        spec = importlib.util.spec_from_file_location(
            f"perfbench_{name}", PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, module)
        spec.loader.exec_module(module)
        return module
    return load
