"""The public surface: every exported name resolves, and every entry
point takes numpy integers and reals as it takes Python numbers."""

import ast
import dataclasses
import importlib
import inspect
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
    min_items_for_qos,
    normal_approx_reserve,
    qos_all,
    run_partition,
    scan_oracle,
    solve_min_cost,
)
from surgeshare import _binom
from surgeshare.aimd import PROBLEMS
from surgeshare.cli import cli_dispatch
from surgeshare.scenarios import load_scenario

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
    # The aimd names are exported lazily, by the package's __getattr__,
    # so no import statement names them; dir() lists them with the rest.
    imported = {attr for _, attr in reexports}
    lazy = sorted(attr for attr in dir(surgeshare)
                  if not attr.startswith("_") and attr not in imported
                  and not inspect.ismodule(getattr(surgeshare, attr)))
    assert lazy == sorted(surgeshare._AIMD_EXPORTS)
    for module_name, attr in [*reexports, *(("aimd", attr) for attr in lazy)]:
        module = importlib.import_module(f"surgeshare.{module_name}")
        assert attr in module.__all__, f"{attr} is not public in surgeshare.{module_name}"
        assert getattr(surgeshare, attr) is getattr(module, attr)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        surgeshare.no_such_name


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


# Makes every later import of numpy or scipy fail, as if neither were
# installed.
_BLOCK = (
    "import sys\n"
    "class Block:\n"
    "    def find_spec(self, name, path=None, target=None):\n"
    "        if name.split('.')[0] in ('numpy', 'scipy'):\n"
    "            raise ModuleNotFoundError(f'No module named {name!r}', name=name)\n"
    "sys.meta_path.insert(0, Block())\n"
)


def test_import_and_cli_module_do_not_load_the_summing_kernels(fresh_python):
    code = ("import sys\nimport surgeshare\nfrom surgeshare import cli\n"
            "print('surgeshare._binom' in sys.modules)\n")
    proc = fresh_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


@pytest.mark.parametrize("argv, files", [
    (["qos", "--m", "120", "--t", "216", "--q", "6"], []),
    (["design", "--scenario", "charger-n1000-98", "--output", "d.csv"], ["d.csv"]),
    (["design", "--scenario", "car-n50000-99"], []),
    (["design", "--n", "3000", "--p-ns", "0.01", "--p-s", "0.99", "--p-b", "0.5",
      "--target", "0.9"], []),
    # A scan that walks to T = N through 2,970 reserve stretches.
    (["design", "--n", "3000", "--p-ns", "0.01", "--p-s", "0.99", "--p-b", "0.99",
      "--target", "0.98"], []),
    (["compare", "--scenario", "charger-n1000-98"], []),
    (["sweep", "--axis", "qos", "--grid", "0.9,0.95,0.99"], ["sweep_qos.csv"]),
    (["reproduce"], ["car_min_cost.csv", "charger_min_cost.csv"]),
], ids=["qos", "design", "design-n-max", "design-stretches-max", "design-scan-to-n",
        "compare", "sweep", "reproduce"])
def test_small_commands_run_without_numpy_and_scipy(fresh_python, tmp_path, monkeypatch,
                                                    capsys, argv, files):
    # python -m surgeshare.cli with numpy and scipy blocked exits 0 and
    # prints and writes what cli_dispatch does here with scipy's kernels,
    # which it keeps once N_MAX is 0.
    assert load_scenario("car-n50000-99").params.n_consumers == _binom.N_MAX
    fresh, here = tmp_path / "fresh", tmp_path / "here"
    if files:
        argv = [*argv, "--outdir"]
    code = _BLOCK + ("import runpy\n"
                     "runpy.run_module('surgeshare.cli', run_name='__main__', alter_sys=True)\n")
    proc = fresh_python("-c", code, *argv, *([str(fresh)] if files else []))
    assert (proc.returncode, proc.stderr) == (0, "")
    monkeypatch.setattr(_binom, "N_MAX", 0)
    assert cli_dispatch([*argv, *([str(here)] if files else [])]) == 0
    assert proc.stdout.replace(str(fresh), str(here)) == capsys.readouterr().out
    for name in files:
        assert (fresh / name).read_bytes() == (here / name).read_bytes()


@pytest.mark.parametrize("problem", ["equalize", "maximize"])
def test_partition_runs_without_scipy(fresh_python, tmp_path, monkeypatch, capsys, problem):
    # python -m surgeshare.cli partition at N <= N_MAX with scipy blocked
    # exits 0 and prints and writes what cli_dispatch does here with
    # scipy's kernels, which it keeps once N_MAX is 0.
    argv = ["partition", "--scenario", "car-n1000", "--m", "120", "--t", "215",
            "--problem", problem, "--seed", "7", "--output", "t.csv", "--outdir"]
    fresh, here = tmp_path / "fresh", tmp_path / "here"
    code = _BLOCK.replace("('numpy', 'scipy')", "('scipy',)") + (
        "import runpy\n"
        "runpy.run_module('surgeshare.cli', run_name='__main__', alter_sys=True)\n")
    proc = fresh_python("-c", code, *argv, str(fresh))
    assert (proc.returncode, proc.stderr) == (0, "")
    monkeypatch.setattr(_binom, "N_MAX", 0)
    assert cli_dispatch([*argv, str(here)]) == 0
    assert proc.stdout.replace(str(fresh), str(here)) == capsys.readouterr().out
    assert (fresh / "t.csv").read_bytes() == (here / "t.csv").read_bytes()


def test_commands_without_aimd_do_not_load_it(fresh_python, tmp_path):
    # Neither the package, its command line nor a command that runs no
    # AIMD compiles aimd; partition does, as does the first access to an
    # AIMD name of the package.  No built-in scenario needs configparser.
    code = (
        "import contextlib, io, sys\n"
        "import surgeshare\n"
        "from surgeshare import cli\n"
        "def loaded():\n"
        "    print('surgeshare.aimd' in sys.modules, 'configparser' in sys.modules)\n"
        "loaded()\n"
        "outdir = sys.argv[1]\n"
        "for argv in (['qos', '--m', '120', '--t', '216', '--q', '6'],\n"
        "             ['design', '--scenario', 'charger-n1000-98'],\n"
        "             ['compare', '--scenario', 'charger-n1000-98'],\n"
        "             ['sweep', '--axis', 'qos', '--grid', '0.9,0.95', '--outdir', outdir],\n"
        "             ['reproduce', '--outdir', outdir],\n"
        "             ['partition', '--m', '120', '--t', '215']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = cli.cli_dispatch(argv)\n"
        "    print(code, file=sys.stderr)\n"
        "    loaded()\n"
        "del sys.modules['surgeshare.aimd'], surgeshare.aimd\n"
        "surgeshare.AimdConfig\n"
        "loaded()\n"
    )
    proc = fresh_python("-c", code, str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.split() == ["0"] * 6
    assert proc.stdout.splitlines() == ["False False"] * 6 + ["True False"] * 2


@pytest.mark.parametrize("argv", [
    ["partition", "--scenario", "car-n50000", "--n", "50001", "--m", "5150", "--t", "10200"],
    ["design", "--n", "50001"],
], ids=["partition", "design-above-n-max"])
def test_partition_and_large_commands_keep_scipys_kernels(fresh_python, argv):
    code = _HEAVY + (
        "from surgeshare import _binom, cli\n"
        "assert _binom.N_MAX == 50000\n"
        "try:\n"
        "    cli.main()\n"
        "except SystemExit as exc:\n"
        "    print(exc.code)\n"
        "heavy()\n"
        "print(_binom._tails.cache_info().misses)\n"
    )
    proc = fresh_python("-c", code, *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-3:] == ["0", "['numpy', 'scipy']", "0"]
