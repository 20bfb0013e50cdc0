"""Mutation run: which one-operator changes to a module do the tests miss?

Usage (from the repository root):

    python3 tools/mutate.py src/surgeshare/solver.py
    python3 tools/mutate.py src/surgeshare/qos.py -- tests/test_qos.py -k rule

Each mutant changes one operator or constant of the module:

* a comparison flipped: ``<`` <-> ``<=``, ``>`` <-> ``>=``, ``==`` <-> ``!=``;
* ``+`` <-> ``-`` and ``*`` <-> ``//``, in expressions and augmented
  assignments;
* ``and`` <-> ``or``;
* an integer constant raised by one.

Only the mutated expression's source is rewritten, so every other line
keeps its text and number.  Each mutant runs the tests with pytest, stop
at the first failure, in a fresh copy of ``src/``, ``tests/`` and
``pyproject.toml``.  A mutant survives when they pass.  One that runs
past the time limit, three times the unmutated run and at least 60 s,
is stopped: a mutant that never terminates (a loop whose step is turned
around) would otherwise hold the run.  Every survivor and every mutant
that timed out is printed with its line and operator as it is found,
then both counts.  Stopped by SIGTERM, the tool removes its copy of the
tree before it exits.  The default tests are
``tests/test_solver.py``, the acceptance criteria other than the AIMD
table (criterion 4) and the module's own tests: ``tests/test_qos.py``,
``tests/test_api.py``, ``tests/test_aimd.py`` and
``tests/test_scenario_io.py`` for ``_binom.py``, whose ``betainc`` the
seed-7 partition pins run; ``tests/test_scenario_io.py`` and
``tests/test_api.py`` for ``cli.py``; ``tests/test_qos.py`` and
``tests/test_aimd.py`` for ``qos.py``, whose continuous kernels the AIMD
tests check; ``tests/test_scenario_io.py`` for ``scenarios.py``; and
``tests/test_<module>.py``, if it exists, for any other.  Each mutant
takes a few seconds, so a module takes minutes.  Hypothesis runs with a
fixed seed, so two runs over the same tree draw the same examples.  The
run is not part of the test suite or of CI.
"""

import argparse
import ast
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# The tests of modules that have no tests/test_<module>.py of their own.
OWN_TESTS = {
    "_binom.py": ["tests/test_qos.py", "tests/test_api.py", "tests/test_aimd.py",
                  "tests/test_scenario_io.py"],
    "cli.py": ["tests/test_scenario_io.py", "tests/test_api.py"],
    "qos.py": ["tests/test_qos.py", "tests/test_aimd.py"],
    "scenarios.py": ["tests/test_scenario_io.py"],
}

SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.FloorDiv, ast.FloorDiv: ast.Mult,
    ast.And: ast.Or, ast.Or: ast.And,
}
SYMBOLS = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.FloorDiv: "//",
    ast.And: "and", ast.Or: "or",
}


def _skipping_fstrings(tree):
    # Node positions inside f-strings are not reliable before Python 3.12.
    todo = [tree]
    while todo:
        node = todo.pop()
        yield node
        todo.extend(child for child in ast.iter_child_nodes(node)
                    if not isinstance(child, ast.JoinedStr))


def mutants(source: str):
    """Yield ("line:column", description, mutated source) per mutant of ``source``."""
    tree = ast.parse(source)
    nodes = sorted((n for n in _skipping_fstrings(tree) if hasattr(n, "lineno")),
                   key=lambda n: (n.lineno, n.col_offset))
    for node in nodes:
        if isinstance(node, ast.Compare):
            for k, op in enumerate(node.ops):
                if type(op) in SWAPS:
                    chain = f" (comparison {k + 1} of {len(node.ops)})" if len(node.ops) > 1 else ""
                    yield _rewrite(source, node, node.ops, k, SWAPS[type(op)](),
                                   _swap_text(op) + chain)
        elif isinstance(node, (ast.BinOp, ast.BoolOp, ast.AugAssign)):
            if type(node.op) in SWAPS:
                yield _rewrite(source, node, vars(node), "op", SWAPS[type(node.op)](),
                               _swap_text(node.op))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            yield _rewrite(source, node, vars(node), "value", node.value + 1,
                           f"{node.value} -> {node.value + 1}")


def _swap_text(op) -> str:
    return f"{SYMBOLS[type(op)]} -> {SYMBOLS[SWAPS[type(op)]]}"


def _rewrite(source: str, node, slots, key, new, what: str):
    # Put ``new`` in ``slots[key]`` (a field of ``node``) just long enough
    # to unparse the node, and splice that text over the node's source.
    old, slots[key] = slots[key], new
    text = ast.unparse(node)
    slots[key] = old
    if isinstance(node, ast.expr):
        text = f"({text})"
    # Positions are UTF-8 byte offsets within their lines.
    data = source.encode()
    lines = data.splitlines(keepends=True)
    start = sum(map(len, lines[:node.lineno - 1])) + node.col_offset
    end = sum(map(len, lines[:node.end_lineno - 1])) + node.end_col_offset
    mutated = (data[:start] + text.encode() + data[end:]).decode()
    original = " ".join(ast.get_source_segment(source, node).split())
    return f"{node.lineno}:{node.col_offset + 1}", f"{what}  in  {original}", mutated


def _run_tests(tree: str, tests, timeout: float) -> str:
    # "passed", "failed" or "timed out".  No example a failing mutant
    # saved may decide a later one.
    shutil.rmtree(os.path.join(tree, ".hypothesis"), ignore_errors=True)
    env = {**os.environ, "PYTHONPATH": os.path.join(tree, "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           "--hypothesis-seed=0", *tests]
    try:
        code = subprocess.run(cmd, cwd=tree, env=env, timeout=timeout,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
    except subprocess.TimeoutExpired:
        return "timed out"
    return "passed" if code == 0 else "failed"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", help="path of the module under src/")
    parser.add_argument("pytest_args", nargs="*",
                        help="pytest arguments, after --  (default: see module docstring)")
    args = parser.parse_args(argv)

    module = os.path.relpath(os.path.abspath(args.module), ROOT)
    tests = args.pytest_args
    if not tests:
        tests = ["tests/test_solver.py", "tests/test_acceptance.py"]
        name = os.path.basename(module)
        for own in OWN_TESTS.get(name, [os.path.join("tests", "test_" + name)]):
            if os.path.exists(os.path.join(ROOT, own)) and own not in tests:
                tests.append(own)
        tests += ["-k", "not criterion_4"]
    with open(os.path.join(ROOT, module), encoding="utf-8") as fh:
        source = fh.read()

    # SystemExit unwinds through subprocess.run, which kills the running
    # tests, and through the with block, which removes the tree.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    with tempfile.TemporaryDirectory(prefix="mutate-") as tree:
        for name in ("src", "tests"):
            shutil.copytree(os.path.join(ROOT, name), os.path.join(tree, name),
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "pyproject.toml"), tree)
        started = time.perf_counter()
        if _run_tests(tree, tests, timeout=None) != "passed":
            print("the tests fail on the unmutated tree", file=sys.stderr)
            return 2
        timeout = max(60.0, 3 * (time.perf_counter() - started))
        target = os.path.join(tree, module)
        counts = {"passed": 0, "failed": 0, "timed out": 0}
        for where, what, mutated in mutants(source):
            with open(target, "w", encoding="utf-8") as fh:
                fh.write(mutated)
            outcome = _run_tests(tree, tests, timeout)
            counts[outcome] += 1
            if outcome != "failed":
                label = "survived" if outcome == "passed" else f"timed out after {timeout:.0f} s"
                print(f"{module}:{where}: {label}: {what}", flush=True)
    print(f"{counts['passed']} of {sum(counts.values())} mutants survived, "
          f"{counts['timed out']} timed out")
    return 0


if __name__ == "__main__":
    sys.exit(main())
