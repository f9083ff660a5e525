"""Latency of coupled vs decoupled UL/DL access under flexible TDD.

Mixed short-TTI (priority) and long-TTI (background, rate-adapted over a
block-Rayleigh channel) traffic share slotted servers. The package provides
closed-form mean sojourn times (exact priority M/G/1, approximate M/G/2), a
deterministic discrete-event simulator of both topologies, residual-time and
two-way cycle-time models, and a CSV-emitting CLI (`tddq`).
"""

from .analytic import (
    ResidualModel,
    SojournPrediction,
    cycle_time_stats,
    kimura_wait,
    mg1_priority_sojourn,
    mg1_priority_sojourn_slotted,
    mg2_priority_sojourn,
    residual_cdf,
)
from .sim import (
    ClassStats,
    Packet,
    PacketColumns,
    SojournSummary,
    SweepPoint,
    Topology,
    run,
    sweep,
)
from .traffic import (
    ChannelModel,
    RateAdaptationTable,
    SaturationError,
    Scenario,
    TrafficConfig,
    default_scenario,
    load_scenario,
    long_service_moments,
    parse_scenario,
    region_probabilities,
    sample_long_services,
    short_service_moments,
    solve_arrival_rates,
    utilization,
)

__version__ = "0.1.0"

__all__ = [
    "ChannelModel",
    "RateAdaptationTable",
    "SaturationError",
    "Scenario",
    "TrafficConfig",
    "default_scenario",
    "load_scenario",
    "parse_scenario",
    "region_probabilities",
    "long_service_moments",
    "short_service_moments",
    "utilization",
    "solve_arrival_rates",
    "sample_long_services",
    "SojournPrediction",
    "ResidualModel",
    "mg1_priority_sojourn",
    "mg1_priority_sojourn_slotted",
    "mg2_priority_sojourn",
    "kimura_wait",
    "residual_cdf",
    "cycle_time_stats",
    "Topology",
    "Packet",
    "PacketColumns",
    "ClassStats",
    "SojournSummary",
    "SweepPoint",
    "run",
    "sweep",
    "__version__",
]
