"""Tests for scenario files, built-ins and the CLI."""

import configparser
import csv
import dataclasses
import os
import tempfile
import typing
import warnings

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
    SmoothDiscount,
    auto_config,
    builtin_scenario_names,
    car_cost_model,
    charger_cost_model,
    get_cost_model,
    load_scenario,
    save_scenario,
)
from surgeshare import aimd, cli, solver
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


def test_builtin_registry_covers_both_tables():
    names = builtin_scenario_names()
    for use in ("car", "charger"):
        for n in (1000, 5000, 10000, 50000):
            for pct in (98, 99):
                assert f"{use}-n{n}-{pct}" in names


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
    path.write_text("[params]\nn_consumers = 100\np_nonsurge = 0.1\n"
                    "p_surge = 0.3\np_bad = 0.01\n[billing]\nrate = 3\n")
    with pytest.raises(ScenarioError, match="billing"):
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
    assert _unfitted(loaded) == _unfitted(edited)


def _with_solver_section(tmp_path, section):
    path = tmp_path / "old.ini"
    path.write_text("[params]\nn_consumers = 100\np_nonsurge = 0.1\n"
                    "p_surge = 0.3\np_bad = 0.01\n[solver]\n" + section)
    return str(path)


def test_solver_section_is_ignored_with_one_warning(tmp_path):
    path = _with_solver_section(tmp_path, "optimality_gap = 0.02\nmultistarts = 3\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sc = load_scenario(path)
    assert len(caught) == 1 and caught[0].category is UserWarning
    message = str(caught[0].message)
    assert path in message and "optimality_gap" in message and "multistarts" in message
    # None of the values is read, so even a non-number loads.
    with pytest.warns(UserWarning):
        assert load_scenario(_with_solver_section(tmp_path, "optimality_gap = x\n")) == sc


def test_solver_section_rejects_unknown_key(tmp_path):
    with pytest.raises(ScenarioError, match="bogus"):
        load_scenario(_with_solver_section(tmp_path, "bogus = 1\n"))


def test_round_trip_inline_model(tmp_path):
    inline = (
        "[scenario]\nname = bikes\n"
        "[params]\nn_consumers = 400\np_nonsurge = 0.07\n"
        "p_surge = 0.22\np_bad = 0.02\nqos_target_ns = 0.97\n"
        "qos_target_s = 0.97\nqos_target_b = 0.97\n"
        "[cost_model]\nper_item_main = 800\nper_item_prosumer = 120\n"
        "horizon_years = 1\ndiscount = 1:0.0, 20:0.05, 100:0.12\n"
        "[solver]\nmultistarts = 3\n"
        "[aimd]\nseed = 9\nalpha = 0.5\n"
    )
    src = tmp_path / "bikes.ini"
    src.write_text(inline)
    # multistarts belonged to an earlier approximate solver: it still
    # loads, with a warning, and is dropped.
    with pytest.warns(UserWarning, match="multistarts"):
        sc = load_scenario(str(src))
    assert sc.name == "bikes"
    assert sc.cost_model.name == ""
    assert sc.aimd == {"seed": 9, "alpha": 0.5}
    out = tmp_path / "bikes_rt.ini"
    save_scenario(sc, str(out))
    assert load_scenario(str(out)) == sc


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
        # load_scenario refits smooth; the comparison below ignores it.
        model = CostModel(**fields, smooth=SmoothDiscount(0.0, 1.0))
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


def _unfitted(sc):
    # Cost models compared by the numbers a scenario file stores: a model
    # saved inline reloads unnamed, with its smooth fit redone.
    m = sc.cost_model
    return dataclasses.replace(sc, cost_model=(
        m.per_item_main, m.per_item_prosumer, m.discount, m.horizon_years))


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
    assert _unfitted(loaded) == _unfitted(sc)
    # A built-in that was not edited reloads as itself, name and fit too.
    if sc.cost_model in (car_cost_model(), charger_cost_model()):
        assert loaded == sc


def test_save_rejects_fractional_integer_key(tmp_path):
    sc = ScenarioFile(name="x", params=ScenarioParams(250, 0.1, 0.3, 0.01),
                      cost_model=car_cost_model(), aimd={"seed": 4.5})
    with pytest.raises(TypeError):
        save_scenario(sc, str(tmp_path / "x.ini"))


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
    assert "integers" in capsys.readouterr().err
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


def test_cli_partition_equalize_seed7(tmp_path, capsys):
    code = cli_dispatch(["partition", "--scenario", "car-n1000",
                         "--m", "120", "--t", "215",
                         "--problem", "equalize", "--seed", "7",
                         "--output", "trace.csv", "--outdir", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    q_star = int(out.split("q_star = ")[1].split()[0])
    assert abs(q_star - 5) <= 1
    with open(tmp_path / "trace.csv") as fh:
        header = fh.readline().strip()
    assert header == "iter,z,q,capacity_event,z_avg,q_avg"


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


def test_cli_compare(capsys):
    code = cli_dispatch(["compare", "--scenario", "charger-n1000-98"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.index("hybrid") < out.index("b2c") < out.index("ownership")


def _sweep_rows(tmp_path, axis, grid):
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
    rows = _sweep_rows(tmp_path, "qos", "0.95,0.98")
    assert [(r["N"], r["qos_target"]) for r in rows] == [("1000", "0.95"), ("1000", "0.98")]
    assert float(rows[1]["cost_total"]) >= float(rows[0]["cost_total"])


def test_cli_sweep_n_csv(tmp_path):
    rows = _sweep_rows(tmp_path, "n", "500,2000")
    assert [(r["N"], r["qos_target"]) for r in rows] == [("500", "0.98"), ("2000", "0.98")]
    assert [r["M"] for r in rows] == ["6", "17"]


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


def _mismatched_golden(tmp_path, monkeypatch):
    def load(resource, load=cli._load_golden):
        rows = load(resource)
        rows[0] = {**rows[0], "M": str(int(rows[0]["M"]) + 100)}
        return rows
    monkeypatch.setattr(cli, "_load_golden", load)


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
    pytest.param(["compare", "--scenario", "charger-n1000-98"], None, 0, "",
                 id="compare-ok"),
    pytest.param(["compare", "--cost-model", "nope"], None, 2,
                 "unknown cost model 'nope'; built-ins are [", id="compare-unknown-cost-model"),
    pytest.param(["sweep", "--scenario", "charger-n1000-98", "--axis", "qos",
                  "--grid", "0.95", "--outdir", "{tmp}"], None, 0, "", id="sweep-ok"),
    pytest.param(["sweep", "--scenario", "charger-n1000-98", "--axis", "qos",
                  "--grid", "a,b", "--outdir", "{tmp}"], None, 2, "comma-separated",
                 id="sweep-bad-grid"),
    pytest.param(["sweep", "--cost-model", "nope", "--axis", "qos", "--grid", "0.95",
                  "--outdir", "{tmp}"], None, 2,
                 "unknown cost model 'nope'; built-ins are [", id="sweep-unknown-cost-model"),
    pytest.param(["partition", "--scenario", "car-n1000", "--m", "120", "--t", "215"],
                 None, 0, "", id="partition-ok"),
    pytest.param(["partition", "--scenario", "{tmp}/scenario.ini", "--m", "120", "--t", "215"],
                 _car_1000_aimd("max_iterations = 10\n"), 1, "not converged",
                 id="partition-unconverged"),
    pytest.param(["partition", "--n", "10", "--m", "5", "--t", "3", "--seed", "-1"],
                 None, 2, "seed", id="partition-negative-seed-flag"),
    pytest.param(["partition", "--scenario", "{tmp}/scenario.ini", "--m", "120", "--t", "215"],
                 _car_1000_aimd("seed = -1\n"), 2, "seed",
                 id="partition-negative-seed-file"),
    pytest.param(["reproduce", "--outdir", "{tmp}"], None, 0, "", id="reproduce-ok"),
    pytest.param(["reproduce", "--outdir", "{tmp}"], _mismatched_golden, 1, "",
                 id="reproduce-golden-mismatch"),
    pytest.param(["reproduce", "--m", "3"], None, 2, "unrecognized arguments",
                 id="reproduce-unknown-flag"),
])
def test_cli_exit_code_contract(argv, setup, code, err, tmp_path, monkeypatch, capsys):
    if setup is not None:
        setup(tmp_path, monkeypatch)
    assert cli_dispatch([arg.replace("{tmp}", str(tmp_path)) for arg in argv]) == code
    assert err in capsys.readouterr().err


def test_cli_reproduce_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert cli_dispatch(["reproduce", "--outdir", str(out1)]) == 0
    assert cli_dispatch(["reproduce", "--outdir", str(out2)]) == 0
    capsys.readouterr()
    for name in ("car_min_cost.csv", "charger_min_cost.csv"):
        with open(out1 / name, "rb") as f1, open(out2 / name, "rb") as f2:
            assert f1.read() == f2.read()
