"""surgeshare: design toolkit for hybrid-supply sharing schemes.

Binomial QoS metrics, minimum-cost (M, T, Q) dimensioning with
volume-discount cost models, and distributed AIMD partitioning of a
fixed shared pool.
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
    SmoothDiscount,
    car_cost_model,
    charger_cost_model,
    cost_eval,
    discount_real,
    fit_smooth_discount,
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
from .aimd import (
    AimdConfig,
    AimdTrace,
    auto_config,
    run_partition,
    scan_oracle,
)
from .scenarios import (
    ScenarioError,
    ScenarioFile,
    builtin_scenario_names,
    load_scenario,
    save_scenario,
)

__version__ = "0.1.0"
