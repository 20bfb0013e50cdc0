"""Shared helpers for the test suite."""

import os
import subprocess
import sys

import pytest

import surgeshare
from surgeshare.aimd import TRACE_CSV_COLUMNS

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(surgeshare.__file__)))


@pytest.fixture
def fresh_python():
    """Run ``python <args>`` in a new interpreter that imports this tree."""
    def run(*args):
        path = os.pathsep.join(p for p in (SRC_DIR, os.environ.get("PYTHONPATH")) if p)
        return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path}, timeout=120)
    return run


def _reference_trace_csv(trace) -> bytes:
    """The trace CSV as a per-row f-string writer prints it: the
    byte-for-byte reference for ``write_trace_csv``."""
    rows = zip(trace.z, trace.q, trace.capacity_event,
               trace.z_avg_series, trace.q_avg_series)
    lines = [",".join(TRACE_CSV_COLUMNS) + "\n"]
    lines.extend(f"{l},{z:.6f},{q:.6f},{ev},{za:.6f},{qa:.6f}\n"
                 for l, (z, q, ev, za, qa) in enumerate(rows))
    return "".join(lines).encode()


@pytest.fixture(scope="session")
def reference_trace_csv():
    """``trace -> bytes`` of the reference trace CSV writer."""
    return _reference_trace_csv
