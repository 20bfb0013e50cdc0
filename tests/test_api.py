"""The public surface: every exported name resolves, and every entry
point takes numpy integers as it takes Python ints."""

import ast
import dataclasses
import importlib
from pathlib import Path

import numpy as np
import pytest

import surgeshare
from surgeshare import (
    Design,
    ScenarioParams,
    auto_config,
    binom_cdf,
    binom_cdf_cont,
    brute_force_design,
    car_cost_model,
    feasible,
    min_items_for_qos,
    run_partition,
    scan_oracle,
    solve_min_cost,
)
from surgeshare.aimd import PROBLEMS

MODULES = ["qos", "cost", "solver", "aimd", "scenarios", "cli"]


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"surgeshare.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"surgeshare.{name}.__all__ names missing attributes: {missing}"


def _package_reexports():
    tree = ast.parse(Path(surgeshare.__file__).read_text())
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                yield node.module, alias.asname or alias.name


def test_package_reexports_resolve_to_public_names():
    reexports = list(_package_reexports())
    assert reexports
    for module_name, attr in reexports:
        module = importlib.import_module(f"surgeshare.{module_name}")
        assert attr in module.__all__, f"{attr} is not public in surgeshare.{module_name}"
        assert getattr(surgeshare, attr) is getattr(module, attr)


def test_numpy_integers_on_every_public_path():
    # scipy's scalar kernels have no signature for a numpy integer n, so
    # each path must reach them with Python ints and the same results.
    i64, u32 = np.int64, np.uint32
    assert binom_cdf(i64(120), u32(1000), 0.1) == binom_cdf(120, 1000, 0.1)
    assert binom_cdf_cont(u32(120), i64(1000), 0.1) == binom_cdf_cont(120, 1000, 0.1)
    assert min_items_for_qos(i64(1000), 0.3, 0.98) == min_items_for_qos(1000, 0.3, 0.98)
    plain = ScenarioParams(1000, 0.1, 0.3, 0.01)
    numpy = ScenarioParams(u32(1000), 0.1, 0.3, 0.01)
    model = car_cost_model()
    # A non-surge target of 1 makes the pool minimum N itself, above A_s.
    full_ns = (1.0, 0.9, 0.9)
    for solve in (solve_min_cost, brute_force_design):
        assert solve(numpy, model) == solve(plain, model)
        assert (solve(ScenarioParams(u32(100), 0.1, 0.3, 0.01, *full_ns), model)
                == solve(ScenarioParams(100, 0.1, 0.3, 0.01, *full_ns), model))
    d = solve_min_cost(plain, model).design
    for m in (d.m, d.m - 1):
        assert (feasible(numpy, Design(i64(m), u32(d.t), i64(d.q)))
                is feasible(plain, Design(m, d.t, d.q)) is (m == d.m))
    for problem in PROBLEMS:
        config = auto_config(problem, i64(120), u32(215), numpy)
        assert config == auto_config(problem, 120, 215, plain)
        config = dataclasses.replace(config, max_iterations=20000)
        assert (run_partition(problem, numpy, i64(120), u32(215), config)
                == run_partition(problem, plain, 120, 215, config))
        assert scan_oracle(problem, numpy, i64(120), u32(215)) == scan_oracle(
            problem, plain, 120, 215)
        # numpy float32 claims run in Python floats, as their float() values.
        fields = ("alpha", "beta", "z_init", "q_init")
        single = dataclasses.replace(
            config, **{f: np.float32(getattr(config, f)) for f in fields})
        double = dataclasses.replace(
            single, **{f: float(getattr(single, f)) for f in fields})
        assert (run_partition(problem, plain, 120, 215, single)
                == run_partition(problem, plain, 120, 215, double))


# Prints, at each stage, which of numpy and scipy the process has loaded.
_HEAVY = (
    "import sys\n"
    "def heavy():\n"
    "    print(sorted({m.split('.')[0] for m in sys.modules} & {'numpy', 'scipy'}))\n"
)


def test_import_loads_neither_numpy_nor_scipy(fresh_python):
    code = _HEAVY + (
        "import surgeshare\n"
        "from surgeshare import cli, cost, qos\n"
        "heavy()\n"
        "for name in surgeshare.builtin_scenario_names():\n"
        "    surgeshare.load_scenario(name)\n"
        "for name in sorted(cost._BUILTINS):\n"
        "    surgeshare.get_cost_model(name)\n"
        "cli.build_parser().parse_args(['design', '--scenario', 'car-n1000-98'])\n"
        "print(cli.cli_dispatch(['qos', '--m', '-3', '--t', '1', '--q', '0']))\n"
        "heavy()\n"
        "surgeshare.binom_cdf(3, 10, 0.5)\n"
        "surgeshare.binom_cdf_cont(3.5, 10, 0.5)\n"
        "from scipy.special import cython_special\n"
        "print([getattr(qos, k) is getattr(cython_special, k)\n"
        "       for k in ('bdtr', 'bdtrc', 'betainc')])\n"
    )
    proc = fresh_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "2", "[]", "[True, True, True]"]


def test_package_works_without_numpy_and_scipy_until_a_kernel(fresh_python):
    code = _HEAVY + (
        "class Block:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.split('.')[0] in ('numpy', 'scipy'):\n"
        "            raise ModuleNotFoundError(f'No module named {name!r}', name=name)\n"
        "sys.meta_path.insert(0, Block())\n"
        "import surgeshare\n"
        "print(surgeshare.load_scenario('car-n1000-98').name)\n"
        "try:\n"
        "    surgeshare.binom_cdf(3, 10, 0.5)\n"
        "except ModuleNotFoundError as exc:\n"
        "    print(exc.name)\n"
        "heavy()\n"
    )
    proc = fresh_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["car-n1000-98", "scipy", "[]"]
