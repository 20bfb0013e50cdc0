"""Reference work, timed next to every benchmark operation.

On a shared virtual machine the CPU speed a process gets can change by
tens of percent from one minute to the next, for every process alike.
The runner times a fixed piece of reference work just before and just
after each operation and scales the operation's wall time by the
reference's: ``norm_s = seconds * NOMINAL_S / ref_s``, where ``ref_s`` is
the mean of the two reference times.  That cancels most of the drift.
The reference calls no ``surgeshare`` code, so a change to the package
moves the operations and not the reference.

There are two kinds of reference, matched to the work they normalise:

* ``kernel`` (in-process operations): a Python loop around scalar
  ``scipy.special`` binomial calls and ``math.lgamma``, the kind of work
  the package's kernels do;
* ``process`` (CLI commands and fresh-interpreter set-ups): a fresh
  interpreter that imports numpy and exits, the kind of work that
  dominates a short-lived process.

``NOMINAL_S`` holds each reference's median time on a 2-vCPU
"Intel(R) Xeon(R) Processor" virtual machine with Python 3.11, so
``norm_s`` reads as seconds on that machine at its median speed.
"""

import math
import subprocess
import sys
import time

LOOPS = 4000
NOMINAL_S = {"kernel": 0.020, "process": 0.160}


def kernel():
    from scipy import special  # imported on first use, after any timed import
    acc = 0.0
    for i in range(LOOPS):
        n = 1000 + i
        acc += float(special.bdtr(i % 50, n, 0.03))
        acc += float(special.betainc(n - 40.5, 41.5, 0.97))
        acc += math.lgamma(n + 0.5) * 1e-9
    return acc


def process():
    subprocess.run([sys.executable, "-c", "import numpy"], check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


def timed(kind):
    """Wall time of one run of the ``kind`` reference, in seconds."""
    work = kernel if kind == "kernel" else process
    start = time.perf_counter()
    work()
    return time.perf_counter() - start
