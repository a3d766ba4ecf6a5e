"""Shared fixtures."""

import os
from pathlib import Path

import pytest

import qkernel


@pytest.fixture
def child_env():
    """Environment under which a `python -m qkernel` subprocess imports the
    same package as the test process, installed or not."""
    source = str(Path(qkernel.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}
