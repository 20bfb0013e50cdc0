"""Time the program set-up of one workload in a fresh interpreter.

Usage: python3 perfbench/setup_child.py WORKLOAD SEED WORKDIR

Prints one JSON object with ``import_s`` (``import surgeshare``) and
``setup_s`` (import plus the workload's ``setup``: built-in cost models,
scenario resolution and inline cost-model fits).
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def timed_setup(name, seed, root, workdir, before_setup=None):
    """Import surgeshare and set up a workload; return it with both times."""
    start = time.perf_counter()
    import surgeshare  # noqa: F401
    imported = time.perf_counter()
    import workloads
    if before_setup is not None:
        before_setup()
    workload = workloads.make(name, seed, root, workdir)
    workload.setup()
    done = time.perf_counter()
    return workload, imported - start, done - start


if __name__ == "__main__":
    sys.path.insert(0, SRC)
    _, import_s, setup_s = timed_setup(sys.argv[1], int(sys.argv[2]),
                                       os.path.dirname(HERE), sys.argv[3])
    print(json.dumps({"import_s": import_s, "setup_s": setup_s}))
