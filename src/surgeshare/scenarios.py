"""Scenario file ingestion and the built-in scenario registry.

A scenario file is a small INI document with sections ``[scenario]``,
``[params]``, ``[cost_model]``, ``[solver]`` and ``[aimd]``.  Unknown
sections or keys are rejected so typos surface immediately.  The eight
table rows of each use case ship as built-ins named
``car-n1000-98`` ... ``charger-n50000-99`` (the ``-98``/``-99`` suffix
selects the QoS target; names without a suffix default to 98%).
"""

from __future__ import annotations

import configparser
import warnings
from dataclasses import dataclass, field
from typing import Dict, Optional

from .cost import (
    CostModel,
    DiscountSchedule,
    builtin_cost_model_names,
    fit_smooth_discount,
    get_cost_model,
)
from .qos import ScenarioParams
from .solver import SolverOpts

__all__ = [
    "ScenarioFile",
    "ScenarioError",
    "load_scenario",
    "save_scenario",
    "builtin_scenario_names",
]


class ScenarioError(ValueError):
    """Scenario file failed to parse or validate."""


_PARAM_KEYS = (
    "n_consumers", "p_nonsurge", "p_surge", "p_bad",
    "qos_target_ns", "qos_target_s", "qos_target_b",
)
_COST_KEYS = ("builtin", "per_item_main", "per_item_prosumer", "horizon_years", "discount")
_SOLVER_KEYS = ("optimality_gap",)
# Knobs of an earlier approximate solver: still accepted so old files
# load, but ignored with a warning.
_IGNORED_SOLVER_KEYS = ("multistarts", "local_search_radius", "max_local_rounds")
_AIMD_KEYS = (
    "seed", "alpha", "beta", "gamma", "gamma_target", "lam_min",
    "z_init", "q_init", "max_iterations", "convergence_window", "convergence_tol",
)
_SECTIONS = {
    "scenario": ("name",),
    "params": _PARAM_KEYS,
    "cost_model": _COST_KEYS,
    "solver": _SOLVER_KEYS + _IGNORED_SOLVER_KEYS,
    "aimd": _AIMD_KEYS,
}


@dataclass(frozen=True)
class ScenarioFile:
    """A fully validated scenario: parameters, cost model, options."""

    name: str
    params: ScenarioParams
    cost_model: CostModel
    cost_model_name: str = ""
    solver: SolverOpts = field(default_factory=SolverOpts)
    aimd: Dict[str, float] = field(default_factory=dict)


def _builtin_table() -> Dict[str, ScenarioFile]:
    table: Dict[str, ScenarioFile] = {}
    cases = {
        "car": dict(p_nonsurge=0.1, p_surge=0.3, p_bad=0.01,
                    cost_model="car-mg4-2025"),
        "charger": dict(p_nonsurge=0.005, p_surge=0.015, p_bad=0.01,
                        cost_model="charger-dc60-2025"),
    }
    for use, info in cases.items():
        for n in (1000, 5000, 10000, 50000):
            for pct in (98, 99):
                target = pct / 100.0
                name = f"{use}-n{n}-{pct}"
                scenario = ScenarioFile(
                    name=name,
                    params=ScenarioParams(
                        n_consumers=n,
                        p_nonsurge=info["p_nonsurge"],
                        p_surge=info["p_surge"],
                        p_bad=info["p_bad"],
                        qos_target_ns=target,
                        qos_target_s=target,
                        qos_target_b=target,
                    ),
                    cost_model=get_cost_model(info["cost_model"]),
                    cost_model_name=info["cost_model"],
                )
                table[name] = scenario
                if pct == 98:
                    table[f"{use}-n{n}"] = scenario
    return table


def builtin_scenario_names() -> tuple:
    return tuple(sorted(_builtin_table()))


def _parse_discount(text: str) -> DiscountSchedule:
    breakpoints = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            qty, frac = chunk.split(":")
            breakpoints.append((int(qty), float(frac)))
        except ValueError as exc:
            raise ScenarioError(
                f"bad discount entry {chunk!r}; expected 'min_quantity:fraction'"
            ) from exc
    try:
        return DiscountSchedule(breakpoints=tuple(breakpoints))
    except ValueError as exc:
        raise ScenarioError(f"invalid discount schedule: {exc}") from exc


def _format_discount(schedule: DiscountSchedule) -> str:
    return ", ".join(f"{m}:{d!r}" for m, d in schedule.breakpoints)


def _coerce(section: str, key: str, raw: str):
    int_keys = {"n_consumers", "horizon_years", "seed", "max_iterations",
                "convergence_window"}
    if key in int_keys:
        try:
            return int(raw)
        except ValueError:
            raise ScenarioError(f"[{section}] {key} must be an integer; got {raw!r}")
    try:
        return float(raw)
    except ValueError:
        raise ScenarioError(f"[{section}] {key} must be a number; got {raw!r}")


def load_scenario(path_or_name: str) -> ScenarioFile:
    """Load a scenario file, or resolve a built-in scenario name."""
    builtins = _builtin_table()
    if path_or_name in builtins:
        return builtins[path_or_name]

    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path_or_name)
    except configparser.Error as exc:
        raise ScenarioError(f"cannot parse scenario file {path_or_name!r}: {exc}") from exc
    if not read:
        raise ScenarioError(
            f"{path_or_name!r} is neither a readable scenario file nor a "
            f"built-in scenario name"
        )

    for section in parser.sections():
        if section not in _SECTIONS:
            raise ScenarioError(f"unknown section [{section}] in {path_or_name}")
        for key in parser[section]:
            if key not in _SECTIONS[section]:
                raise ScenarioError(
                    f"unknown key {key!r} in section [{section}] of {path_or_name}"
                )

    if "params" not in parser:
        raise ScenarioError(f"{path_or_name} is missing the [params] section")
    raw_params = {k: _coerce("params", k, v) for k, v in parser["params"].items()}
    try:
        params = ScenarioParams(**raw_params)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"invalid [params] in {path_or_name}: {exc}") from exc

    name = parser.get("scenario", "name", fallback="")

    cost_model_name = ""
    if "cost_model" in parser:
        section = parser["cost_model"]
        if "builtin" in section:
            extra = set(section) - {"builtin"}
            if extra:
                raise ScenarioError(
                    f"[cost_model] mixes 'builtin' with inline keys {sorted(extra)}")
            cost_model_name = section["builtin"]
            if cost_model_name not in builtin_cost_model_names():
                raise ScenarioError(
                    f"unknown built-in cost model {cost_model_name!r}; "
                    f"available: {sorted(builtin_cost_model_names())}")
            model = get_cost_model(cost_model_name)
        else:
            missing = {"per_item_main", "per_item_prosumer", "discount"} - set(section)
            if missing:
                raise ScenarioError(
                    f"inline [cost_model] is missing keys {sorted(missing)}")
            schedule = _parse_discount(section["discount"])
            try:
                model = CostModel(
                    per_item_main=float(section["per_item_main"]),
                    per_item_prosumer=float(section["per_item_prosumer"]),
                    discount=schedule,
                    smooth=fit_smooth_discount(schedule),
                    horizon_years=int(section.get("horizon_years", "1")),
                )
            except ValueError as exc:
                raise ScenarioError(f"invalid [cost_model]: {exc}") from exc
    else:
        cost_model_name = "car-mg4-2025"
        model = get_cost_model(cost_model_name)

    solver = SolverOpts()
    if "solver" in parser:
        ignored = [k for k in parser["solver"] if k in _IGNORED_SOLVER_KEYS]
        if ignored:
            warnings.warn(
                f"{path_or_name}: [solver] keys {ignored} are ignored; "
                f"the minimum-cost solver is exact", stacklevel=2)
        kwargs = {k: _coerce("solver", k, v) for k, v in parser["solver"].items()
                  if k not in ignored}
        solver = SolverOpts(**kwargs)

    aimd: Dict[str, float] = {}
    if "aimd" in parser:
        aimd = {k: _coerce("aimd", k, v) for k, v in parser["aimd"].items()}

    return ScenarioFile(
        name=name, params=params, cost_model=model,
        cost_model_name=cost_model_name, solver=solver, aimd=aimd,
    )


def save_scenario(scenario: ScenarioFile, path: str) -> None:
    """Write a scenario as canonical INI; load_scenario round-trips it."""
    parser = configparser.ConfigParser(interpolation=None)
    parser["scenario"] = {"name": scenario.name}
    p = scenario.params
    parser["params"] = {
        "n_consumers": str(p.n_consumers),
        "p_nonsurge": repr(p.p_nonsurge),
        "p_surge": repr(p.p_surge),
        "p_bad": repr(p.p_bad),
        "qos_target_ns": repr(p.qos_target_ns),
        "qos_target_s": repr(p.qos_target_s),
        "qos_target_b": repr(p.qos_target_b),
    }
    if scenario.cost_model_name:
        parser["cost_model"] = {"builtin": scenario.cost_model_name}
    else:
        m = scenario.cost_model
        parser["cost_model"] = {
            "per_item_main": repr(m.per_item_main),
            "per_item_prosumer": repr(m.per_item_prosumer),
            "horizon_years": str(m.horizon_years),
            "discount": _format_discount(m.discount),
        }
    parser["solver"] = {"optimality_gap": repr(scenario.solver.optimality_gap)}
    if scenario.aimd:
        parser["aimd"] = {k: repr(v) for k, v in scenario.aimd.items()}
    with open(path, "w") as fh:
        parser.write(fh)
