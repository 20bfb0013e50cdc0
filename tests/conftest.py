"""Shared helpers for the test suite."""

import os
import subprocess
import sys

import pytest

import surgeshare

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(surgeshare.__file__)))


@pytest.fixture
def fresh_python():
    """Run ``python <args>`` in a new interpreter that imports this tree."""
    def run(*args):
        path = os.pathsep.join(p for p in (SRC_DIR, os.environ.get("PYTHONPATH")) if p)
        return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path}, timeout=120)
    return run
