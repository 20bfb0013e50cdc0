"""Tests for scenario files, built-ins and the CLI."""

import configparser
import csv
import dataclasses
import gc
import hashlib
import os
import sys
import tempfile
import typing
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from surgeshare import (
    AimdConfig,
    CostModel,
    DiscountSchedule,
    ScenarioError,
    ScenarioFile,
    ScenarioParams,
    auto_config,
    builtin_scenario_names,
    car_cost_model,
    charger_cost_model,
    get_cost_model,
    load_scenario,
    save_scenario,
)
from surgeshare import _binom, aimd, cli, qos, solver
from surgeshare.cost import CAR_DISCOUNTS
from surgeshare.cli import cli_dispatch


def test_builtin_car_scenario():
    sc = load_scenario("car-n1000-98")
    p = sc.params
    assert p.n_consumers == 1000
    assert p.p_nonsurge == 0.1 and p.p_surge == 0.3 and p.p_bad == 0.01
    assert p.qos_target_ns == p.qos_target_s == p.qos_target_b == 0.98
    assert sc.cost_model == get_cost_model("car-mg4-2025")


def test_scenario_file_fields():
    # The cost model is the one record of which model a scenario uses,
    # and the exact solver takes no options.
    assert [f.name for f in dataclasses.fields(ScenarioFile)] == [
        "name", "params", "cost_model", "aimd"]


def test_builtin_charger_scenario():
    sc = load_scenario("charger-n1000-98")
    assert sc.params.p_nonsurge == 0.005
    assert sc.params.p_surge == 0.015
    assert sc.cost_model.horizon_years == 10


def test_builtin_alias_defaults_to_98():
    assert load_scenario("car-n1000") == load_scenario("car-n1000-98")


def test_builtin_scenarios_share_no_aimd_dict():
    # The built-in table is built once per process; each load still
    # gets its own [aimd] overrides to change.
    first = load_scenario("car-n1000")
    first.aimd["seed"] = 3
    assert load_scenario("car-n1000").aimd == {}
    assert load_scenario("car-n1000-98").aimd == {}
    assert load_scenario("car-n1000").aimd is not load_scenario("car-n1000").aimd


def test_builtin_registry_covers_both_tables():
    # Every golden row names a built-in scenario, and every built-in with
    # a target suffix is a golden row.
    named = {sc.name for use in ("car", "charger") for sc, _ in cli._golden_table(use)}
    assert named == {name for name in builtin_scenario_names() if name.count("-") == 2}


def test_load_rejects_missing_file():
    with pytest.raises(ScenarioError):
        load_scenario("/no/such/scenario.ini")


def test_load_rejects_bad_probability(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text(
        "[params]\nn_consumers = 100\np_nonsurge = 1.3\n"
        "p_surge = 0.3\np_bad = 0.01\n")
    with pytest.raises(ScenarioError, match="p_nonsurge"):
        load_scenario(str(path))


def test_load_rejects_unknown_key(tmp_path):
    path = tmp_path / "odd.ini"
    path.write_text(
        "[params]\nn_consumers = 100\np_nonsurge = 0.1\n"
        "p_surge = 0.3\np_bad = 0.01\nfleet_color = red\n")
    with pytest.raises(ScenarioError, match="fleet_color"):
        load_scenario(str(path))


def test_load_rejects_unknown_section(tmp_path):
    path = tmp_path / "odd.ini"
    params = ("[params]\nn_consumers = 100\np_nonsurge = 0.1\n"
              "p_surge = 0.3\np_bad = 0.01\n")
    path.write_text(params + "[billing]\nrate = 3\n")
    with pytest.raises(ScenarioError, match="billing"):
        load_scenario(str(path))
    # The options of earlier approximate solvers are rejected the same way.
    path.write_text(params + "[solver]\noptimality_gap = 0.02\n")
    with pytest.raises(ScenarioError, match=r"unknown section \[solver\]"):
        load_scenario(str(path))


def test_load_rejects_unknown_cost_builtin(tmp_path):
    path = tmp_path / "odd.ini"
    path.write_text("[params]\nn_consumers = 100\np_nonsurge = 0.1\n"
                    "p_surge = 0.3\np_bad = 0.01\n"
                    "[cost_model]\nbuiltin = scooter-2030\n")
    with pytest.raises(ScenarioError, match="scooter-2030"):
        load_scenario(str(path))


def test_round_trip_builtin_model(tmp_path):
    sc = load_scenario("car-n5000-99")
    path = tmp_path / "car.ini"
    save_scenario(sc, str(path))
    assert load_scenario(str(path)) == sc
    text = path.read_text()
    assert "builtin = car-mg4-2025" in text and "[solver]" not in text


def test_round_trip_builtin_model_object(tmp_path):
    # A built-in model needs no name beside it to be saved by name.
    sc = ScenarioFile("x", ScenarioParams(250, 0.1, 0.3, 0.01), car_cost_model())
    path = tmp_path / "x.ini"
    save_scenario(sc, str(path))
    assert "builtin = car-mg4-2025" in path.read_text()
    assert load_scenario(str(path)) == sc


def test_round_trip_edited_builtin_model(tmp_path):
    # An edited built-in keeps the built-in's name but not its values, so
    # it is saved inline and reloads unnamed.
    sc = load_scenario("car-n1000-98")
    edited = dataclasses.replace(sc, cost_model=dataclasses.replace(
        sc.cost_model, per_item_main=1.0))
    path = tmp_path / "edited.ini"
    save_scenario(edited, str(path))
    loaded = load_scenario(str(path))
    assert loaded.cost_model.per_item_main == 1.0
    assert loaded.cost_model.name == ""
    assert _unnamed(loaded) == _unnamed(edited)


def test_builtin_prices_with_a_smooth_argument_save_by_name(tmp_path):
    # The smooth argument is dropped, so it cannot make a model with the
    # built-in's prices, schedule, horizon and name differ from it.
    model = CostModel(6500.0, 2400.0, CAR_DISCOUNTS, object(), 1, "car-mg4-2025")
    assert model == car_cost_model()
    path = tmp_path / "car.ini"
    save_scenario(ScenarioFile("x", ScenarioParams(250, 0.1, 0.3, 0.01), model), str(path))
    assert "builtin = car-mg4-2025" in path.read_text()


def test_round_trip_inline_model(tmp_path):
    inline = (
        "[scenario]\nname = bikes\n"
        "[params]\nn_consumers = 400\np_nonsurge = 0.07\n"
        "p_surge = 0.22\np_bad = 0.02\nqos_target_ns = 0.97\n"
        "qos_target_s = 0.97\nqos_target_b = 0.97\n"
        "[cost_model]\nper_item_main = 800\nper_item_prosumer = 120\n"
        "horizon_years = 1\ndiscount = 1:0.0, 20:0.05, 100:0.12\n"
        "[aimd]\nseed = 9\nalpha = 0.5\n"
    )
    src = tmp_path / "bikes.ini"
    src.write_text(inline)
    sc = load_scenario(str(src))
    assert sc.name == "bikes"
    assert sc.cost_model.name == ""
    assert sc.aimd == {"seed": 9, "alpha": 0.5}
    out = tmp_path / "bikes_rt.ini"
    save_scenario(sc, str(out))
    assert load_scenario(str(out)) == sc


def test_inline_discount_takes_a_trailing_comma(tmp_path):
    path = tmp_path / "s.ini"
    path.write_text(_PARAMS + "[cost_model]\nper_item_main = 800\nper_item_prosumer = 120\n"
                    "discount = 1:0.0, 20:0.05,\n")
    assert load_scenario(str(path)).cost_model.discount.breakpoints == ((1, 0.0), (20, 0.05))


def test_file_without_cost_model_prices_with_the_car_model(tmp_path):
    path = tmp_path / "s.ini"
    path.write_text(_PARAMS)
    assert load_scenario(str(path)).cost_model == get_cost_model("car-mg4-2025")


def test_round_trip_with_custom_options(tmp_path):
    sc = ScenarioFile(
        name="custom",
        params=ScenarioParams(250, 0.1, 0.3, 0.01, 0.95, 0.95, 0.95),
        cost_model=car_cost_model(),
        aimd={"seed": 4, "beta": 0.9},
    )
    path = tmp_path / "custom.ini"
    save_scenario(sc, str(path))
    assert load_scenario(str(path)) == sc


@st.composite
def scenario_files(draw):
    # Every number is drawn as a Python scalar or, for the whole file, as a
    # numpy scalar; the dataclasses accept both.
    numpy = draw(st.booleans())
    as_int = np.int64 if numpy else int
    as_float = np.float64 if numpy else float
    probability = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    target = st.floats(0.0, 1.0, exclude_min=True)
    params = ScenarioParams(
        as_int(draw(st.integers(1, 10**6))),
        *(as_float(draw(probability)) for _ in range(3)),
        *(as_float(draw(target)) for _ in range(3)),
    )
    quantities = draw(st.lists(st.integers(2, 5000), max_size=5, unique=True))
    fractions = sorted(draw(st.lists(st.floats(0.0, 0.99), min_size=len(quantities),
                                     max_size=len(quantities))))
    unit = st.floats(0.0, exclude_min=True, allow_infinity=False)
    fields = dict(
        per_item_main=as_float(draw(unit)),
        per_item_prosumer=as_float(draw(unit)),
        discount=DiscountSchedule(((1, 0.0),) + tuple(zip(sorted(quantities), fractions))),
        horizon_years=as_int(draw(st.integers(1, 100))),
    )
    kind = draw(st.sampled_from(["builtin", "edited", "inline"]))
    if kind == "inline":
        model = CostModel(**fields)
    else:
        model = get_cost_model(draw(st.sampled_from(["car-mg4-2025", "charger-dc60-2025"])))
        if kind == "edited":
            key = draw(st.sampled_from(sorted(fields)))
            model = dataclasses.replace(model, **{key: fields[key]})
    hints = typing.get_type_hints(AimdConfig)
    keys = draw(st.lists(st.sampled_from(sorted(hints)), unique=True))
    aimd_values = {
        k: (as_int(draw(st.integers(-2**63, 2**63 - 1))) if hints[k] is int
            else as_float(draw(st.floats(allow_nan=False))))
        for k in keys
    }
    return ScenarioFile(
        name=draw(st.text("abcXYZ019_-.", max_size=12)),
        params=params,
        cost_model=model,
        aimd=aimd_values,
    )


def _unnamed(sc):
    # A cost model saved inline reloads unnamed.
    return dataclasses.replace(sc, cost_model=dataclasses.replace(sc.cost_model, name=""))


@settings(max_examples=60, deadline=None)
@example(ScenarioFile(  # a numpy float's repr, "np.float64(0.07)", does not load
    name="bikes",
    params=ScenarioParams(np.int64(400), np.float64(0.07), 0.22, 0.02),
    cost_model=car_cost_model(),
))
@given(scenario_files())
def test_round_trip_fuzz(sc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "sc.ini")
        save_scenario(sc, path)
        loaded = load_scenario(path)
    assert _unnamed(loaded) == _unnamed(sc)
    # A built-in that was not edited reloads as itself, name too.
    if sc.cost_model in (car_cost_model(), charger_cost_model()):
        assert loaded == sc


def test_save_rejects_fractional_integer_key(tmp_path):
    sc = ScenarioFile(name="x", params=ScenarioParams(250, 0.1, 0.3, 0.01),
                      cost_model=car_cost_model(), aimd={"seed": 4.5})
    with pytest.raises(TypeError):
        save_scenario(sc, str(tmp_path / "x.ini"))


def test_save_rejects_unknown_aimd_key(tmp_path):
    sc = ScenarioFile(name="x", params=ScenarioParams(250, 0.1, 0.3, 0.01),
                      cost_model=car_cost_model(), aimd={"seed": 4, "bogus": 1})
    path = tmp_path / "x.ini"
    with pytest.raises(ScenarioError, match=r"unknown key 'bogus' in section \[aimd\]"):
        save_scenario(sc, str(path))
    assert not path.exists()


def test_sections_take_their_keys_from_the_dataclasses(tmp_path):
    config = dataclasses.replace(auto_config("equalize", 120, 215, load_scenario(
        "car-n1000").params, seed=3), gamma=0.5)
    sc = ScenarioFile(name="full", params=ScenarioParams(250, 0.1, 0.3, 0.01),
                      cost_model=car_cost_model(), aimd=dataclasses.asdict(config))
    path = tmp_path / "full.ini"
    save_scenario(sc, str(path))
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(path)
    assert set(parser["params"]) == {f.name for f in dataclasses.fields(ScenarioParams)}
    assert set(parser["aimd"]) == {f.name for f in dataclasses.fields(AimdConfig)}
    assert AimdConfig(**load_scenario(str(path)).aimd) == config


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_qos_trivial(capsys):
    code = cli_dispatch(["qos", "--n", "10", "--p-ns", "0.5",
                         "--m", "10", "--t", "0", "--q", "0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "qos_ns = 1.000000" in out


def test_cli_sweep_n_rejects_fractional_population(tmp_path, capsys):
    code = cli_dispatch(["sweep", "--scenario", "charger-n1000-98",
                         "--axis", "n", "--grid", "500.9,1000.5",
                         "--outdir", str(tmp_path)])
    assert code == 2
    assert "error: --grid values for --axis n must be integers" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_cli_design_charger(tmp_path, capsys):
    code = cli_dispatch(["design", "--scenario", "charger-n1000-98",
                         "--output", "row.csv", "--outdir", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "M = 10" in out and "T = 14" in out and "Q = 1" in out
    with open(tmp_path / "row.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["M"] == "10"


def test_cli_design_solves_without_the_oracle(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("design must not run the oracle")

    monkeypatch.setattr(solver, "brute_force_design", refuse)
    code = cli_dispatch(["design", "--scenario", "charger-n1000-98"])
    out = capsys.readouterr().out
    assert code == 0
    assert "M = 10" in out


def test_cli_design_respects_outdir_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SURGESHARE_OUTDIR", str(tmp_path))
    code = cli_dispatch(["design", "--scenario", "charger-n1000-98",
                         "--output", "env_row.csv"])
    capsys.readouterr()
    assert code == 0
    assert (tmp_path / "env_row.csv").exists()


@pytest.mark.parametrize("problem, q_oracle, sha256", [
    pytest.param("equalize", 5,
                 "87c46ad2d926bbb2f72af58625e727a0617c45c88229fddab1a1c2bbb758bf65",
                 id="equalize"),
    pytest.param("maximize", 7,
                 "d22266459b3fe6e90a07eca50ce452a2ea2899de54d121749f08743c7557b1d0",
                 id="maximize"),
])
def test_cli_partition_seed7(problem, q_oracle, sha256, tmp_path, monkeypatch, capsys,
                             reference_trace_csv):
    written = []

    def spy(path, trace):
        written.append(trace)
        return write(path, trace)

    def refuse(*args):
        raise AssertionError("a recorded run took the slow path")

    write = aimd.write_trace_csv
    monkeypatch.setattr(aimd, "write_trace_csv", spy)
    # Every claim and average of this run prints by the numpy path.
    monkeypatch.setattr(aimd, "_slow_rows", refuse)
    code = cli_dispatch(["partition", "--scenario", "car-n1000",
                         "--m", "120", "--t", "215",
                         "--problem", problem, "--seed", "7",
                         "--output", "trace.csv", "--outdir", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    q_star = int(out.split("q_star = ")[1].split()[0])
    assert abs(q_star - q_oracle) <= 1
    data = (tmp_path / "trace.csv").read_bytes()
    assert data.startswith(b"iter,z,q,capacity_event,z_avg,q_avg\n")
    # Every row (593,577 for equalize) as the per-row f-string writer prints it.
    (trace,) = written
    assert data.count(b"\n") == trace.total_iterations + 1
    assert data == reference_trace_csv(trace)
    # Pins the run itself: a change to the AIMD bits changes the trace the
    # reference writer is fed too, and would pass the comparison above.
    assert hashlib.sha256(data).hexdigest() == sha256


def test_cli_partition_rejects_t_above_n(capsys):
    code = cli_dispatch(["partition", "--n", "100", "--m", "50", "--t", "200"])
    assert code == 2
    assert "t cannot exceed" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["--m", "120", "--t", "-5", "--seed", "1"], "t must be at least 1"),
    (["--n", "10", "--m", "1", "--t", "1"], "m must be at least 2"),
])
def test_cli_partition_rejects_bad_pool(argv, message, capsys):
    assert cli_dispatch(["partition", *argv]) == 2
    assert message in capsys.readouterr().err


def test_cli_partition_records_trace_only_for_output(monkeypatch, capsys):
    calls = []

    def spy(*args, record=True, **kwargs):
        calls.append(record)
        return run(*args, record=record, **kwargs)

    run = aimd.run_partition
    monkeypatch.setattr(aimd, "run_partition", spy)
    assert cli_dispatch(["partition", "--scenario", "car-n1000",
                         "--m", "120", "--t", "215"]) == 0
    capsys.readouterr()
    assert calls == [False]


@pytest.mark.parametrize("command, key, value", [
    ("design", "per_item_main", "nan"),
    ("compare", "per_item_prosumer", "inf"),
])
def test_cli_rejects_non_finite_unit_cost(tmp_path, capsys, command, key, value):
    units = {"per_item_main": "800", "per_item_prosumer": "120", key: value}
    path = tmp_path / "bad_cost.ini"
    path.write_text(
        "[params]\nn_consumers = 400\np_nonsurge = 0.07\n"
        "p_surge = 0.22\np_bad = 0.02\n[cost_model]\n"
        + "".join(f"{k} = {v}\n" for k, v in units.items())
        + "discount = 1:0.0, 20:0.05\n")
    assert cli_dispatch([command, "--scenario", str(path)]) == 2
    assert key in capsys.readouterr().err


def test_cli_partition_rejects_bad_aimd_section(tmp_path, capsys):
    path = tmp_path / "bad_aimd.ini"
    path.write_text(
        "[params]\nn_consumers = 1000\np_nonsurge = 0.1\n"
        "p_surge = 0.3\np_bad = 0.01\n"
        "[cost_model]\nbuiltin = car-mg4-2025\n"
        "[aimd]\nlam_min = 5\n")
    code = cli_dispatch(["partition", "--scenario", str(path),
                         "--m", "120", "--t", "215"])
    assert code == 2
    assert "lam_min" in capsys.readouterr().err


def test_cli_runs_as_module(fresh_python):
    proc = fresh_python("-m", "surgeshare.cli", "qos", "--n", "10", "--p-ns", "0.5",
                        "--p-s", "0.5", "--p-b", "0.5", "--m", "5", "--t", "0", "--q", "0")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split("=")[0].strip() for line in lines] == ["qos_ns", "qos_s", "qos_b"]


_QOS_ARGV = ["qos", "--m", "120", "--t", "216", "--q", "6"]


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_cli_dispatch_leaves_the_collector_as_it_was(enabled, capsys):
    # Tests, the benchmark and embedding programs call cli_dispatch in a
    # process that goes on; only main, which ends the process, turns the
    # collector off.
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        frozen = gc.get_freeze_count()
        assert cli_dispatch(_QOS_ARGV) == 0
        assert gc.isenabled() is enabled
        assert gc.get_freeze_count() == frozen
    finally:
        (gc.enable if was else gc.disable)()
    capsys.readouterr()


def test_main_exits_with_the_collector_off_and_the_heap_frozen(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["surgeshare", *_QOS_ARGV])
    was = gc.isenabled()
    try:
        with pytest.raises(SystemExit) as exc:
            cli.main()
        assert exc.value.code == 0
        assert not gc.isenabled()
        assert gc.get_freeze_count() > 0
    finally:
        gc.unfreeze()
        (gc.enable if was else gc.disable)()
    assert capsys.readouterr().out.startswith("qos_ns = ")


def _main(argv):
    """``cli.main``'s exit code for argv, with the collector put back after."""
    saved, sys.argv = sys.argv, ["surgeshare", *argv]
    was = gc.isenabled()
    try:
        cli.main()
    except SystemExit as exc:
        return exc.code
    finally:
        sys.argv = saved
        gc.unfreeze()
        (gc.enable if was else gc.disable)()


class _Unexpected(Exception):
    pass


def _raise(*args):
    raise _Unexpected


@pytest.mark.parametrize("argv, code", [
    (["design", "--scenario", "charger-n1000-98"], 0),
    (["partition", "--m", "120", "--t", "215"], 0),
    (["qos", "--m", "-3", "--t", "1", "--q", "0"], 2),
    (["design", "--scenario", "charger-n1000-98", "--output", "d.csv"], _Unexpected),
], ids=["design", "partition", "input-error", "unexpected-error"])
def test_main_leaves_the_callers_kernels_and_reserve_table(monkeypatch, capsys, tmp_path,
                                                           argv, code):
    # Either entry point computes a small command's binomials with the
    # pure-Python kernels on a reserve table of its own; its caller goes on
    # with its own kernels and table, unchanged, whether the command
    # succeeds, rejects its input or raises.
    monkeypatch.setattr(solver, "write_design_csv", _raise)
    monkeypatch.setenv(cli.OUTDIR_ENV, str(tmp_path))
    kernels, table = (qos.bdtr, qos.bdtrc, qos.betainc), solver._reserve_ends
    assert not {_binom.bdtr, _binom.bdtrc, _binom.betainc} & set(kernels)
    ends = {key: list(value) for key, value in table.items()}
    outputs = []
    for run in (_main, cli_dispatch):
        _binom._tails.cache_clear()
        if code is _Unexpected:
            with pytest.raises(_Unexpected):
                run(argv)
        else:
            assert run(argv) == code
        outputs.append(capsys.readouterr())
        assert (qos.bdtr, qos.bdtrc, qos.betainc) == kernels
        assert solver._reserve_ends is table
        assert {key: list(value) for key, value in table.items()} == ends
        assert (_binom._tails.cache_info().misses > 0) is (code != 2)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("points, summed", [
    (((50_000, 0.03),), True),                      # 1,500 stretches
    (((50_000, 0.0301),), False),                   # 1,505
    (((50_000, 0.01), (50_000, 0.02)), True),       # two tables: 500 + 1,000
    (((50_000, 0.01), (50_000, 0.0201)), False),    # 500 + 1,005
    (((1000, 0.03), (25_000, 0.03), (50_000, 0.03)), True),  # one table, to N = 5e4
    (((1000, 0.01), (50_001, 0.01)), False),        # past N_MAX
], ids=["at-limit", "above-limit", "two-at-limit", "two-above-limit", "shared-table",
        "above-n-max"])
def test_kernel_choice_counts_the_stretches_of_each_reserve_table(monkeypatch, points, summed):
    # Points that share p_bad and the target share the command's reserve
    # table, which is walked once, to the largest N; distinct tables add.
    monkeypatch.setattr(qos, "bdtr", qos.bdtr)
    monkeypatch.setattr(qos, "bdtrc", qos.bdtrc)
    base = load_scenario("car-n1000-98").params
    cli._choose_for_designs([dataclasses.replace(base, n_consumers=n, p_bad=p_b)
                             for n, p_b in points])
    assert (qos.bdtr is _binom.bdtr and qos.bdtrc is _binom.bdtrc) is summed


def test_module_reproduce_equals_in_process_reproduce(fresh_python, tmp_path, capsys):
    # The process exits with its heap frozen, so no collection runs at
    # shutdown: its tables must be whole without any finalizer.
    fresh, here = tmp_path / "fresh", tmp_path / "here"
    proc = fresh_python("-m", "surgeshare.cli", "reproduce", "--outdir", str(fresh))
    assert proc.returncode == 0, proc.stderr
    assert cli_dispatch(["reproduce", "--outdir", str(here)]) == 0
    assert proc.stdout.replace(str(fresh), str(here)) == capsys.readouterr().out
    for name in ("car_min_cost.csv", "charger_min_cost.csv"):
        assert (fresh / name).read_bytes() == (here / name).read_bytes()


def test_cli_compare(capsys):
    code = cli_dispatch(["compare", "--scenario", "charger-n1000-98"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.index("hybrid") < out.index("b2c") < out.index("ownership")


def _rows_of_sweep(tmp_path, axis, grid):
    code = cli_dispatch(["sweep", "--scenario", "charger-n1000-98",
                         "--axis", axis, "--grid", grid,
                         "--output", "curve.csv", "--outdir", str(tmp_path)])
    assert code == 0
    with open(tmp_path / "curve.csv") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    # A sweep writes the design CSV, one row per grid value.
    assert tuple(reader.fieldnames) == solver.DESIGN_CSV_COLUMNS
    return rows


def test_cli_sweep_csv(tmp_path):
    rows = _rows_of_sweep(tmp_path, "qos", "0.95,0.98")
    assert [(r["N"], r["qos_target"]) for r in rows] == [("1000", "0.95"), ("1000", "0.98")]
    assert float(rows[1]["cost_total"]) >= float(rows[0]["cost_total"])


def test_cli_sweep_n_csv(tmp_path):
    rows = _rows_of_sweep(tmp_path, "n", "500,1000,2000")
    assert [(r["N"], r["qos_target"]) for r in rows] == [
        ("500", "0.98"), ("1000", "0.98"), ("2000", "0.98")]
    assert [r["M"] for r in rows] == ["6", "10", "17"]
    # The total cost never falls as the population grows.
    costs = [float(r["cost_total"]) for r in rows]
    assert all(b >= a for a, b in zip(costs, costs[1:]))


def test_cli_sweep_bad_grid_is_a_value_error(tmp_path, capsys):
    code = cli_dispatch(["sweep", "--scenario", "charger-n1000-98", "--axis", "qos",
                         "--grid", "a,b", "--outdir", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err == "error: --grid must be a comma-separated list of numbers\n"


def test_cli_sweep_checks_every_point_before_solving(tmp_path, monkeypatch, capsys):
    def no_solve(*args, **kwargs):
        raise AssertionError("a point was solved")

    monkeypatch.setattr(solver, "solve_min_cost", no_solve)
    code = cli_dispatch(["sweep", "--scenario", "charger-n1000-98", "--axis", "qos",
                         "--grid", "0.9,0.95,1.5", "--outdir", str(tmp_path / "new")])
    assert code == 2
    assert capsys.readouterr().out == ""
    assert not (tmp_path / "new").exists()


# Each pair gives the same scenario twice: as --scenario refined by flags,
# and directly.  Outputs go to the working directory, so paths match too.
@pytest.mark.parametrize("refined, plain", [
    pytest.param(["design", "--scenario", "charger-n1000-98", "--n", "5000", "--target", "0.99"],
                 ["design", "--scenario", "charger-n5000-99"], id="design"),
    pytest.param(["qos", "--scenario", "car-n1000", "--n", "5", "--m", "3", "--t", "2", "--q", "1"],
                 ["qos", "--n", "5", "--m", "3", "--t", "2", "--q", "1"], id="qos"),
    pytest.param(["sweep", "--scenario", "charger-n1000-98", "--n", "5000",
                  "--axis", "qos", "--grid", "0.98,0.99"],
                 ["sweep", "--scenario", "charger-n5000-99", "--axis", "qos",
                  "--grid", "0.98,0.99"], id="sweep"),
    pytest.param(["compare", "--scenario", "charger-n1000-98", "--cost-model", "car-mg4-2025",
                  "--p-ns", "0.1", "--p-s", "0.3"],
                 ["compare", "--scenario", "car-n1000-98"], id="compare"),
    pytest.param(["partition", "--scenario", "charger-n1000-98", "--p-ns", "0.1",
                  "--p-s", "0.3", "--m", "120", "--t", "215"],
                 ["partition", "--scenario", "car-n1000", "--m", "120", "--t", "215"],
                 id="partition"),
])
def test_cli_flags_refine_the_scenario(refined, plain, tmp_path, monkeypatch, capsys):
    runs = []
    for name, argv in (("refined", refined), ("plain", plain)):
        workdir = tmp_path / name
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        code = cli_dispatch(argv)
        files = {p.name: p.read_bytes() for p in workdir.iterdir()}
        runs.append((code, capsys.readouterr().out, files))
    assert runs[0] == runs[1]
    assert runs[0][0] == 0


def _car_1000_aimd(section):
    def write(tmp_path, monkeypatch):
        (tmp_path / "scenario.ini").write_text(
            "[params]\nn_consumers = 1000\np_nonsurge = 0.1\n"
            "p_surge = 0.3\np_bad = 0.01\n"
            "[cost_model]\nbuiltin = car-mg4-2025\n[aimd]\n" + section)
    return write


def _ini(text):
    def write(tmp_path, monkeypatch):
        (tmp_path / "scenario.ini").write_text(text)
    return write


_PARAMS = "[params]\nn_consumers = 1000\np_nonsurge = 0.1\np_surge = 0.3\np_bad = 0.01\n"


def _inline_cost(discount):
    return _ini(_PARAMS + "[cost_model]\nper_item_main = 800\nper_item_prosumer = 120\n"
                f"discount = {discount}\n")


def _blocking_file(tmp_path, monkeypatch):
    (tmp_path / "blocker").write_text("")


def _mismatched_golden(tmp_path, monkeypatch):
    def table(use, table=cli._golden_table):
        rows = table(use)
        scenario, row = rows[0]
        rows[0] = scenario, {**row, "M": str(int(row["M"]) + 100)}
        return rows
    monkeypatch.setattr(cli, "_golden_table", table)


@pytest.mark.parametrize("argv, setup", [
    (["--outdir", "{tmp}", "--output", "missing/t.csv"], None),
    (["--outdir", "{tmp}/blocker", "--output", "t.csv"], _blocking_file),
    (["--outdir", "{tmp}", "--output", "."], None),
], ids=["output-dir-missing", "outdir-is-a-file", "output-is-a-dir"])
def test_cli_partition_bad_output_fails_before_the_run(argv, setup, tmp_path, monkeypatch,
                                                        capsys):
    # The output path is opened before the run, not after a whole
    # recorded simulation.
    def no_run(*args, **kwargs):
        raise AssertionError("the run started")

    if setup is not None:
        setup(tmp_path, monkeypatch)
    monkeypatch.setattr(aimd, "run_partition", no_run)
    code = cli_dispatch(["partition", "--scenario", "car-n1000", "--m", "120", "--t", "215",
                         *(arg.replace("{tmp}", str(tmp_path)) for arg in argv)])
    assert code == 2
    assert "error: [Errno" in capsys.readouterr().err


def test_cli_partition_input_error_leaves_no_trace_file(tmp_path, capsys):
    # The initial states are checked before the output path: no new
    # file is left, and an existing one is kept as it was.
    scenario = tmp_path / "scenario.ini"
    _car_1000_aimd("z_init = 100\nq_init = 30\n")(tmp_path, None)
    argv = ["partition", "--scenario", str(scenario), "--m", "120", "--t", "215",
            "--outdir", str(tmp_path)]
    assert cli_dispatch([*argv, "--output", "new.csv"]) == 2
    assert "z_init + q_init < M" in capsys.readouterr().err
    assert not (tmp_path / "new.csv").exists()
    (tmp_path / "old.csv").write_text("kept\n")
    assert cli_dispatch([*argv, "--output", "old.csv"]) == 2
    assert (tmp_path / "old.csv").read_text() == "kept\n"


# The documented contract: 0 success, 1 unconverged or golden mismatch,
# 2 bad input.  "{tmp}" in an argument stands for a scratch directory.
@pytest.mark.parametrize("argv, setup, code, err", [
    pytest.param(["qos", "--n", "10", "--m", "5", "--t", "1", "--q", "0"],
                 None, 0, "", id="qos-ok"),
    pytest.param(["qos", "--n", "10"], None, 2, "required", id="qos-missing-args"),
    pytest.param(["qos", "--n", "10", "--m", "-3", "--t", "1", "--q", "0"],
                 None, 2, "m must be non-negative", id="qos-negative-pool"),
    pytest.param(["qos", "--n", "10", "--m", "5", "--t", "3", "--q", "4"],
                 None, 2, "q=4 cannot exceed prosumer pool t=3",
                 id="qos-reserve-above-prosumers"),
    pytest.param(["no-such-command"], None, 2, "invalid choice", id="unknown-command"),
    pytest.param(["design", "--scenario", "charger-n1000-98"], None, 0, "",
                 id="design-ok"),
    pytest.param(["design", "--scenario", "/missing.ini"], None, 2, "scenario error",
                 id="design-missing-scenario"),
    pytest.param(["design", "--cost-model", "nope"], None, 2,
                 "unknown cost model 'nope'; built-ins are [", id="design-unknown-cost-model"),
    pytest.param(["design", "--scenario", "charger-n1000-98", "--p-s", "1.5"], None, 2,
                 "p_surge must lie in", id="design-scenario-bad-flag"),
    pytest.param(["design", "--scenario", "charger-n1000-98", "--cost-model", "nope"], None, 2,
                 "unknown cost model 'nope'", id="design-scenario-unknown-cost-model"),
    pytest.param(["design", "--scenario", "{tmp}/scenario.ini"],
                 _ini(_PARAMS.replace("1000", "1e3")), 2, "must be an integer",
                 id="design-scenario-fractional-count"),
    pytest.param(["design", "--scenario", "{tmp}/scenario.ini"],
                 _ini(_PARAMS.replace("0.1", "abc")), 2, "must be a number",
                 id="design-scenario-text-probability"),
    pytest.param(["design", "--scenario", "{tmp}/scenario.ini"],
                 _ini("[scenario]\nname = x\n"), 2, "missing the [params] section",
                 id="design-scenario-no-params"),
    pytest.param(["design", "--scenario", "{tmp}/scenario.ini"],
                 _ini(_PARAMS + "[cost_model]\nbuiltin = car-mg4-2025\nper_item_main = 800\n"),
                 2, "mixes 'builtin' with inline keys", id="design-scenario-builtin-and-inline"),
    pytest.param(["design", "--scenario", "{tmp}/scenario.ini"],
                 _ini(_PARAMS + "[cost_model]\nper_item_main = 800\n"), 2,
                 "is missing keys", id="design-scenario-incomplete-cost-model"),
    pytest.param(["design", "--scenario", "{tmp}/scenario.ini"],
                 _inline_cost("1:0.0, 20:0.05, 10:0.1"), 2, "strictly increasing",
                 id="design-scenario-non-increasing-discount"),
    pytest.param(["design", "--scenario", "{tmp}/scenario.ini"],
                 _inline_cost("1-0.0"), 2, "bad discount entry",
                 id="design-scenario-malformed-discount"),
    pytest.param(["design", "--scenario", "{tmp}/scenario.ini"],
                 _ini("n_consumers = 1000\n"), 2, "cannot parse",
                 id="design-scenario-no-section-header"),
    pytest.param(["design", "--outdir", "{tmp}/blocker", "--output", "x.csv"],
                 _blocking_file, 2, "error: [Errno", id="design-outdir-is-a-file"),
    pytest.param(["design", "--outdir", "{tmp}/new/sub", "--output", "missing/x.csv"],
                 None, 2, "error: [Errno", id="design-output-dir-missing"),
    pytest.param(["compare", "--scenario", "charger-n1000-98"], None, 0, "",
                 id="compare-ok"),
    pytest.param(["compare", "--cost-model", "nope"], None, 2,
                 "unknown cost model 'nope'; built-ins are [", id="compare-unknown-cost-model"),
    pytest.param(["sweep", "--scenario", "charger-n1000-98", "--axis", "qos",
                  "--grid", "0.95", "--outdir", "{tmp}"], None, 0, "", id="sweep-ok"),
    pytest.param(["sweep", "--scenario", "charger-n1000-98", "--axis", "qos",
                  "--grid", "a,b", "--outdir", "{tmp}"], None, 2, "comma-separated",
                 id="sweep-bad-grid"),
    pytest.param(["sweep", "--scenario", "charger-n1000-98", "--axis", "qos",
                  "--grid", ",", "--outdir", "{tmp}"], None, 2, "grid must be non-empty",
                 id="sweep-empty-grid"),
    pytest.param(["sweep", "--cost-model", "nope", "--axis", "qos", "--grid", "0.95",
                  "--outdir", "{tmp}"], None, 2,
                 "unknown cost model 'nope'; built-ins are [", id="sweep-unknown-cost-model"),
    pytest.param(["sweep", "--scenario", "charger-n1000-98", "--axis", "qos",
                  "--grid", "0.9,0.95", "--outdir", "{tmp}/new/sub", "--output",
                  "missing/s.csv"], None, 2, "error: [Errno", id="sweep-output-dir-missing"),
    pytest.param(["sweep", "--scenario", "charger-n1000-98", "--axis", "qos",
                  "--grid", "0.9,1.5", "--outdir", "{tmp}/new/sub"], None, 2,
                 "error: qos_target_ns", id="sweep-bad-target"),
    pytest.param(["sweep", "--scenario", "charger-n1000-98", "--axis", "n",
                  "--grid", "100,0", "--outdir", "{tmp}/new/sub"], None, 2,
                 "error: n_consumers", id="sweep-bad-population"),
    pytest.param(["partition", "--scenario", "car-n1000", "--m", "120", "--t", "215"],
                 None, 0, "", id="partition-ok"),
    pytest.param(["partition", "--scenario", "{tmp}/scenario.ini", "--m", "120", "--t", "215"],
                 _car_1000_aimd("max_iterations = 10\n"), 1, "not converged",
                 id="partition-unconverged"),
    pytest.param(["partition", "--scenario", "car-n1000", "--m", "120", "--t", "215",
                  "--outdir", "{tmp}", "--output", "missing/t.csv"],
                 None, 2, "error: [Errno", id="partition-output-dir-missing"),
    pytest.param(["partition", "--scenario", "{tmp}/scenario.ini", "--m", "120", "--t", "215",
                  "--outdir", "{tmp}/new/sub", "--output", "t.csv"],
                 _car_1000_aimd("z_init = 200\n"), 2, "z_init + q_init < M",
                 id="partition-bad-start"),
    pytest.param(["partition", "--n", "10", "--m", "5", "--t", "3", "--seed", "-1"],
                 None, 2, "seed", id="partition-negative-seed-flag"),
    pytest.param(["partition", "--scenario", "{tmp}/scenario.ini", "--m", "120", "--t", "215"],
                 _car_1000_aimd("seed = -1\n"), 2, "seed",
                 id="partition-negative-seed-file"),
    pytest.param(["partition", "--scenario", "{tmp}/scenario.ini", "--m", "120", "--t", "215"],
                 _car_1000_aimd("alpha = inf\n"), 2, "alpha", id="partition-infinite-alpha"),
    pytest.param(["partition", "--scenario", "{tmp}/scenario.ini", "--m", "120", "--t", "215"],
                 _car_1000_aimd("gamma = inf\n"), 2, "gamma", id="partition-infinite-gamma"),
    pytest.param(["reproduce", "--outdir", "{tmp}"], None, 0, "", id="reproduce-ok"),
    pytest.param(["reproduce", "--outdir", "{tmp}"], _mismatched_golden, 1, "",
                 id="reproduce-golden-mismatch"),
    pytest.param(["reproduce", "--outdir", "{tmp}/blocker"], _blocking_file, 2, "error: [Errno",
                 id="reproduce-outdir-is-a-file"),
    pytest.param(["reproduce", "--m", "3"], None, 2, "unrecognized arguments",
                 id="reproduce-unknown-flag"),
    pytest.param(["--help"], None, 0, "", id="help"),
    pytest.param(["design", "--help"], None, 0, "", id="design-help"),
    pytest.param([], None, 2, "the following arguments are required: command",
                 id="no-command"),
])
def test_cli_exit_code_contract(argv, setup, code, err, tmp_path, monkeypatch, capsys):
    if setup is not None:
        setup(tmp_path, monkeypatch)
    assert cli_dispatch([arg.replace("{tmp}", str(tmp_path)) for arg in argv]) == code
    captured = capsys.readouterr()
    assert err in captured.err
    if code == 2:
        # Bad input fails before any work: nothing is printed or made.
        assert captured.out == ""
        assert not (tmp_path / "new").exists()


def test_cli_reproduce_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert cli_dispatch(["reproduce", "--outdir", str(out1)]) == 0
    assert cli_dispatch(["reproduce", "--outdir", str(out2)]) == 0
    capsys.readouterr()
    for name in ("car_min_cost.csv", "charger_min_cost.csv"):
        with open(out1 / name, "rb") as f1, open(out2 / name, "rb") as f2:
            assert f1.read() == f2.read()


def test_cli_reproduce_names_the_field_that_misses(tmp_path, monkeypatch, capsys):
    _mismatched_golden(tmp_path, monkeypatch)
    assert cli_dispatch(["reproduce", "--outdir", str(tmp_path)]) == 1
    assert "MISMATCH (M 120 vs 220)" in capsys.readouterr().out


def test_golden_misses_at_the_tolerance_edge():
    # A field exactly at its tolerance passes and one just past it is
    # named: ``reproduce`` and acceptance criteria 1-2 share this rule.
    _, row = cli._golden_table("car")[-1]
    golden = [int(row["M"]), int(row["T"]), int(row["Q"]), float(row["cost_total"])]
    tols = [int(row["tol_m"]), int(row["tol_t"]), int(row["tol_q"]),
            float(row["tol_cost_rel"]) * golden[3]]
    for i, key in enumerate(("M", "T", "Q", "cost")):
        for shift in (tols[i], -tols[i], tols[i] + 1, -tols[i] - 1):
            m, t, q, cost = (v + shift * (j == i) for j, v in enumerate(golden))
            report = SimpleNamespace(design=solver.Design(m, t, q), cost_real=cost)
            misses = [miss.split()[0] for miss in cli._golden_misses(report, row)]
            assert misses == ([key] if abs(shift) > tols[i] else []), (key, shift)


def test_golden_table_names_the_scenario_by_the_rounded_target(tmp_path, monkeypatch):
    # int(0.57 * 100) is 56 and int(0.29 * 100) is 28.
    (tmp_path / "data").mkdir()
    (tmp_path / "data" / "bike_min_cost_golden.csv").write_text(
        "N,qos_target\n1000,0.57\n1000,0.29\n")
    monkeypatch.setattr(cli.importlib.resources, "files", lambda package: tmp_path)
    monkeypatch.setattr(cli, "load_scenario", lambda name: name)
    assert [name for name, _ in cli._golden_table("bike")] == ["bike-n1000-57",
                                                               "bike-n1000-29"]
