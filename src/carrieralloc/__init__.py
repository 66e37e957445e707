"""Price-selective multi-carrier rate allocation with carrier aggregation.

Carriers discover shadow prices for their capacity by root-finding the
price at which their coverage set's demand fills it; users order in-range
carriers by price and collect rates one carrier at a time, with
already-received rates entering the next carrier's solve as offsets. The
numeric kernels are plain Python, in ``_kernels_py``. The paper's clamped
bid iteration stays there, unexported: no solve runs it.
"""

from .enodeb import (
    ConvergenceTrace,
    DualAscentResult,
    TraceStep,
    dual_ascent,
    offered_price,
    rate_cap_for,
)
from .errors import (
    ConvergenceError,
    OracleError,
    ProtocolError,
    ScenarioError,
)
from .model import (
    CarrierSpec,
    Scenario,
    SolverParams,
    UserSpec,
    load_scenario,
    parse_scenario,
    serialize_scenario,
    two_carrier_nine_user,
    with_capacity,
)
from .oracle import (
    CentralizedInstance,
    ComparisonResult,
    compare,
    solve_centralized,
)
from .protocol import AllocationReport, run, sweep
from .ue import order_carriers
from .utility import (
    EPS_RATE,
    TOL_RATE,
    Logarithmic,
    Sigmoidal,
    UtilityFunction,
    evaluate,
    inverse_log_marginal,
    log_marginal,
    log_utility,
    net_benefit_maximizer,
)

__version__ = "0.1.0"


def backend_name() -> str:
    """Always ``"python"``. Kept only because the benchmark writes it into
    every result's environment; it goes when ``_kernels.c`` goes."""
    return "python"


__all__ = [
    "AllocationReport",
    "CarrierSpec",
    "CentralizedInstance",
    "ComparisonResult",
    "ConvergenceError",
    "ConvergenceTrace",
    "DualAscentResult",
    "EPS_RATE",
    "Logarithmic",
    "OracleError",
    "ProtocolError",
    "Scenario",
    "ScenarioError",
    "Sigmoidal",
    "SolverParams",
    "TOL_RATE",
    "TraceStep",
    "UserSpec",
    "UtilityFunction",
    "backend_name",
    "compare",
    "dual_ascent",
    "evaluate",
    "inverse_log_marginal",
    "load_scenario",
    "log_marginal",
    "log_utility",
    "net_benefit_maximizer",
    "offered_price",
    "order_carriers",
    "parse_scenario",
    "rate_cap_for",
    "run",
    "serialize_scenario",
    "solve_centralized",
    "sweep",
    "two_carrier_nine_user",
    "with_capacity",
    "__version__",
]
