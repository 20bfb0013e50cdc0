"""surgeshare: design toolkit for hybrid-supply sharing schemes.

Binomial QoS metrics, minimum-cost (M, T, Q) dimensioning with
volume-discount cost models, and distributed AIMD partitioning of a
fixed shared pool.

The AIMD names (``_AIMD_EXPORTS``) are exported lazily (PEP 562): the
first access to one imports ``surgeshare.aimd``, so that
``import surgeshare`` and the commands that run no AIMD do not compile
and run it.
"""

from .qos import (
    QosReport,
    ScenarioParams,
    binom_cdf,
    binom_cdf_cont,
    binom_pmf_cont,
    min_items_for_qos,
    normal_approx_reserve,
    qos_all,
)
from .cost import (
    CostModel,
    DiscountSchedule,
    car_cost_model,
    charger_cost_model,
    cost_eval,
    discount_real,
    get_cost_model,
)
from .solver import (
    Design,
    DesignReport,
    InfeasibleDesignError,
    SolverOpts,
    brute_force_design,
    compare_approaches,
    feasible,
    solve_min_cost,
)
from .scenarios import (
    ScenarioError,
    ScenarioFile,
    builtin_scenario_names,
    load_scenario,
    save_scenario,
)

__version__ = "0.1.0"

_AIMD_EXPORTS = ("AimdConfig", "AimdTrace", "auto_config", "run_partition", "scan_oracle")


def __getattr__(name):
    if name in _AIMD_EXPORTS:
        from . import aimd
        value = globals()[name] = getattr(aimd, name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_AIMD_EXPORTS})
