"""Tests for scenario files, built-ins and the CLI."""

import csv
import os

import pytest

from surgeshare import (
    ScenarioError,
    ScenarioFile,
    ScenarioParams,
    builtin_scenario_names,
    car_cost_model,
    load_scenario,
    save_scenario,
)
from surgeshare import solver
from surgeshare.cli import cli_dispatch
from surgeshare.solver import SolverOpts


def test_builtin_car_scenario():
    sc = load_scenario("car-n1000-98")
    p = sc.params
    assert p.n_consumers == 1000
    assert p.p_nonsurge == 0.1 and p.p_surge == 0.3 and p.p_bad == 0.01
    assert p.qos_target_ns == p.qos_target_s == p.qos_target_b == 0.98
    assert sc.cost_model_name == "car-mg4-2025"


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
    assert sc.cost_model_name == ""
    assert sc.solver == SolverOpts()
    assert sc.aimd == {"seed": 9, "alpha": 0.5}
    out = tmp_path / "bikes_rt.ini"
    save_scenario(sc, str(out))
    assert load_scenario(str(out)) == sc


def test_round_trip_with_custom_options(tmp_path):
    sc = ScenarioFile(
        name="custom",
        params=ScenarioParams(250, 0.1, 0.3, 0.01, 0.95, 0.95, 0.95),
        cost_model=car_cost_model(),
        cost_model_name="car-mg4-2025",
        solver=SolverOpts(optimality_gap=0.02),
        aimd={"seed": 4, "beta": 0.9},
    )
    path = tmp_path / "custom.ini"
    save_scenario(sc, str(path))
    assert load_scenario(str(path)) == sc


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_qos_trivial(capsys):
    code = cli_dispatch(["qos", "--n", "10", "--p-ns", "0.5",
                         "--m", "10", "--t", "0", "--q", "0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "qos_ns = 1.000000" in out


def test_cli_usage_error():
    assert cli_dispatch(["qos", "--n", "10"]) == 2        # missing m/t/q
    assert cli_dispatch(["no-such-command"]) == 2


def test_cli_sweep_bad_grid(tmp_path):
    code = cli_dispatch(["sweep", "--scenario", "charger-n1000-98",
                         "--axis", "qos", "--grid", "a,b",
                         "--outdir", str(tmp_path)])
    assert code == 2


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
    assert rows[0]["M"] == "10" and rows[0]["oracle_verified"] == "true"


def test_cli_design_solves_without_the_oracle(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("design must not run the oracle")

    monkeypatch.setattr(solver, "brute_force_design", refuse)
    code = cli_dispatch(["design", "--scenario", "charger-n1000-98"])
    out = capsys.readouterr().out
    assert code == 0
    assert "oracle_verified = True (gap 0.000%)" in out


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


def test_cli_compare(capsys):
    code = cli_dispatch(["compare", "--scenario", "charger-n1000-98"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.index("hybrid") < out.index("b2c") < out.index("ownership")


def test_cli_sweep_csv(tmp_path, capsys):
    code = cli_dispatch(["sweep", "--scenario", "charger-n1000-98",
                         "--axis", "qos", "--grid", "0.95,0.98",
                         "--output", "curve.csv", "--outdir", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    with open(tmp_path / "curve.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert float(rows[1]["cost_total"]) >= float(rows[0]["cost_total"])


def test_cli_scenario_error_exit_code(capsys):
    code = cli_dispatch(["design", "--scenario", "/missing.ini"])
    capsys.readouterr()
    assert code == 2


def test_cli_reproduce_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert cli_dispatch(["reproduce", "--outdir", str(out1)]) == 0
    assert cli_dispatch(["reproduce", "--outdir", str(out2)]) == 0
    capsys.readouterr()
    for name in ("car_min_cost.csv", "charger_min_cost.csv"):
        with open(out1 / name, "rb") as f1, open(out2 / name, "rb") as f2:
            assert f1.read() == f2.read()
