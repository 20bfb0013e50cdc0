"""The public surface: every exported name resolves, and every entry
point takes numpy integers and reals as it takes Python numbers."""

import ast
import dataclasses
import importlib
import numbers
from pathlib import Path

import numpy as np
import pytest

import surgeshare
from surgeshare import (
    AimdConfig,
    CostModel,
    Design,
    DiscountSchedule,
    ScenarioParams,
    SmoothDiscount,
    auto_config,
    binom_cdf,
    binom_cdf_cont,
    binom_pmf_cont,
    brute_force_design,
    car_cost_model,
    compare_approaches,
    cost_eval,
    discount_real,
    feasible,
    fit_smooth_discount,
    min_items_for_qos,
    normal_approx_reserve,
    qos_all,
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


def _python_numbers(value) -> bool:
    # Whether every number in value, through tuples and dataclass fields,
    # is exactly a Python int or float.
    if dataclasses.is_dataclass(value):
        return all(_python_numbers(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, tuple):
        return all(_python_numbers(v) for v in value)
    if isinstance(value, (numbers.Number, np.generic)):
        return type(value) in (int, float)
    return True


@pytest.mark.parametrize("real", [np.float32, np.float64])
def test_numpy_reals_on_every_public_path(real):
    # Each numpy real is taken as its Python float, and each numpy integer
    # as its int: every field stores, and every result is computed from,
    # the Python number, so both give the same results, all Python numbers.
    def py(x):
        return float(real(x))

    def same(got, want):
        assert got == want and _python_numbers(got), (got, want)

    same(binom_cdf(real(120), 1000, real(0.1)), binom_cdf(120, 1000, py(0.1)))
    for kernel in (binom_cdf_cont, binom_pmf_cont):
        same(kernel(real(120.5), 1000, real(0.1)), kernel(120.5, 1000, py(0.1)))
    same(min_items_for_qos(1000, real(0.3), real(0.98)),
         min_items_for_qos(1000, py(0.3), py(0.98)))
    same(normal_approx_reserve(215, real(0.01), real(0.98)),
         normal_approx_reserve(215, py(0.01), py(0.98)))

    probs = dict(p_nonsurge=0.1, p_surge=0.3, p_bad=0.01,
                 qos_target_ns=0.98, qos_target_s=0.99, qos_target_b=0.98)
    numpy = ScenarioParams(np.int64(1000), **{k: real(v) for k, v in probs.items()})
    plain = ScenarioParams(1000, **{k: py(v) for k, v in probs.items()})
    same(numpy, plain)
    steps = car_cost_model().discount.breakpoints
    schedule = DiscountSchedule(tuple((np.int64(m), real(d)) for m, d in steps))
    plain_schedule = DiscountSchedule(tuple((m, py(d)) for m, d in steps))
    same(schedule, plain_schedule)
    model = CostModel(real(6500), real(2400), schedule, horizon_years=np.int64(1))
    plain_model = CostModel(py(6500), py(2400), plain_schedule)
    same(model, plain_model)
    same(discount_real(np.int64(120), schedule), discount_real(120, plain_schedule))
    same(cost_eval(np.int64(120), np.int64(216), model), cost_eval(120, 216, plain_model))
    smooth = SmoothDiscount(real(0.2), real(0.01))
    same(smooth, SmoothDiscount(py(0.2), py(0.01)))
    same(smooth.value(real(120.5)), smooth.value(py(120.5)))
    same(fit_smooth_discount(schedule, np.int64(1500)), fit_smooth_discount(plain_schedule, 1500))

    for solve in (solve_min_cost, brute_force_design):
        same(solve(numpy, model), solve(plain, plain_model))
    same(tuple(compare_approaches(numpy, model).items()),
         tuple(compare_approaches(plain, plain_model).items()))
    d = solve_min_cost(plain, plain_model).design
    assert feasible(numpy, d) is feasible(plain, d) is True
    same(qos_all(numpy, d.m, d.t, d.q), qos_all(plain, d.m, d.t, d.q))

    reals = ("alpha", "beta", "z_init", "q_init", "gamma", "gamma_target", "lam_min",
             "convergence_tol")
    counts = ("max_iterations", "seed", "convergence_window")
    for problem in PROBLEMS:
        config = auto_config(problem, 120, 215, numpy)
        same(config, auto_config(problem, 120, 215, plain))
        config = dataclasses.replace(config, gamma=0.5, max_iterations=20000, seed=3)
        single = AimdConfig(**{f: real(getattr(config, f)) for f in reals},
                            **{f: np.int64(getattr(config, f)) for f in counts})
        double = AimdConfig(**{f: py(getattr(config, f)) for f in reals},
                            **{f: getattr(config, f) for f in counts})
        same(single, double)
        trace, *result = run_partition(problem, numpy, 120, 215, single, record=False)
        plain_trace, *plain_result = run_partition(problem, plain, 120, 215, double,
                                                   record=False)
        same(trace, plain_trace)
        same(tuple(result), tuple(plain_result))
        same(scan_oracle(problem, numpy, 120, 215), scan_oracle(problem, plain, 120, 215))


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
