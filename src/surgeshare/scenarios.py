"""Scenario file ingestion and the built-in scenario registry.

A scenario file is a small INI document with sections ``[scenario]``,
``[params]``, ``[cost_model]`` and ``[aimd]``; an old ``[solver]``
section loads but is ignored with a warning.  Unknown sections or keys
are rejected so typos surface immediately.  The eight table rows of each
use case ship as built-ins named ``car-n1000-98`` ... ``charger-n50000-99``
(the ``-98``/``-99`` suffix selects the QoS target; names without a
suffix default to 98%).
"""

from __future__ import annotations

import configparser
import operator
import typing
import warnings
from dataclasses import dataclass, field
from typing import Dict

from .aimd import AimdConfig
from .cost import CostModel, DiscountSchedule, fit_smooth_discount, get_cost_model
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


def _number_kinds(cls) -> Dict[str, type]:
    """Map each field of a dataclass to ``int`` or ``float`` by its annotation."""
    return {k: int if hint is int else float
            for k, hint in typing.get_type_hints(cls).items()}


# Value kind of every number key, per section.  The sections that fill a
# dataclass take their keys from it; [cost_model] has no dataclass of its
# shape, so its numbers are listed here.
_KINDS = {
    "params": _number_kinds(ScenarioParams),
    "cost_model": {"per_item_main": float, "per_item_prosumer": float,
                   "horizon_years": int},
    "aimd": _number_kinds(AimdConfig),
}
_SECTIONS = {
    "scenario": {"name"},
    "params": set(_KINDS["params"]),
    "cost_model": {"builtin", "discount", *_KINDS["cost_model"]},
    # Options of earlier solvers: old files still load, with a warning,
    # but the exact solver has no options.
    "solver": {"optimality_gap", "multistarts", "local_search_radius",
               "max_local_rounds"},
    "aimd": set(_KINDS["aimd"]),
}


@dataclass(frozen=True)
class ScenarioFile:
    """A fully validated scenario: parameters, cost model, AIMD options."""

    name: str
    params: ScenarioParams
    cost_model: CostModel
    aimd: Dict[str, float] = field(default_factory=dict)

    @property
    def solver(self) -> SolverOpts:
        # Callers that still pass solver options get the defaults.
        return SolverOpts()


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
    if _KINDS[section][key] is int:
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

    if "cost_model" in parser:
        section = parser["cost_model"]
        if "builtin" in section:
            extra = set(section) - {"builtin"}
            if extra:
                raise ScenarioError(
                    f"[cost_model] mixes 'builtin' with inline keys {sorted(extra)}")
            try:
                model = get_cost_model(section["builtin"])
            except KeyError as exc:
                raise ScenarioError(exc.args[0]) from None
        else:
            missing = {"per_item_main", "per_item_prosumer", "discount"} - set(section)
            if missing:
                raise ScenarioError(
                    f"inline [cost_model] is missing keys {sorted(missing)}")
            schedule = _parse_discount(section["discount"])
            units = {k: _coerce("cost_model", k, v) for k, v in section.items()
                     if k != "discount"}
            try:
                model = CostModel(discount=schedule,
                                  smooth=fit_smooth_discount(schedule), **units)
            except ValueError as exc:
                raise ScenarioError(f"invalid [cost_model]: {exc}") from exc
    else:
        model = get_cost_model("car-mg4-2025")

    if "solver" in parser:
        warnings.warn(
            f"{path_or_name}: [solver] keys {list(parser['solver'])} are ignored; "
            f"the minimum-cost solver is exact and has no options", stacklevel=2)

    aimd: Dict[str, float] = {}
    if "aimd" in parser:
        aimd = {k: _coerce("aimd", k, v) for k, v in parser["aimd"].items()}

    return ScenarioFile(name=name, params=params, cost_model=model, aimd=aimd)


def _format_numbers(section: str, values: Dict[str, object]) -> Dict[str, str]:
    # str of a Python int or float reads back to an equal value; the
    # conversion first turns numpy scalars into Python ones.  An int key
    # takes operator.index, so a fractional value fails here instead of
    # being truncated.
    kinds = _KINDS[section]
    return {k: str(operator.index(v) if kinds[k] is int else float(v))
            for k, v in values.items()}


def save_scenario(scenario: ScenarioFile, path: str) -> None:
    """Write a scenario as canonical INI; load_scenario round-trips it.

    A cost model is written by name only when it equals that built-in;
    any other is written inline and reloads unnamed, its smooth fit redone.
    """
    parser = configparser.ConfigParser(interpolation=None)
    parser["scenario"] = {"name": scenario.name}
    parser["params"] = _format_numbers("params", vars(scenario.params))
    m = scenario.cost_model
    try:
        builtin = m == get_cost_model(m.name)
    except KeyError:  # not a built-in name
        builtin = False
    if builtin:
        parser["cost_model"] = {"builtin": m.name}
    else:
        units = {k: getattr(m, k) for k in _KINDS["cost_model"]}
        parser["cost_model"] = {**_format_numbers("cost_model", units),
                                "discount": _format_discount(m.discount)}
    if scenario.aimd:
        parser["aimd"] = _format_numbers("aimd", scenario.aimd)
    with open(path, "w") as fh:
        parser.write(fh)
