"""Run one traced ``surgeshare`` CLI command in this process.

Usage: python3 perfbench/cli_child.py SPANS_JSON RUN_ID CLI_ARGS...

Installs the benchmark's wrappers before ``surgeshare.cli.main`` runs,
then writes the tracer's totals and spans to SPANS_JSON and exits with
the command's exit code.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import surgeshare.cli  # noqa: E402
from tracer import Tracer  # noqa: E402


def main():
    out_path, run_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tracer = Tracer()
    tracer.run_id = run_id
    tracer.install()
    sys.argv = ["surgeshare", *argv]
    code = 0
    try:
        surgeshare.cli.main()
    except SystemExit as exc:
        code = exc.code
    finally:
        tracer.uninstall()
        with open(out_path, "w") as fh:
            json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
