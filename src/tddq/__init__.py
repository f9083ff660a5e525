"""Latency of coupled vs decoupled UL/DL access under flexible TDD.

Mixed short-TTI (priority) and long-TTI (background, rate-adapted over a
block-Rayleigh channel) traffic share slotted servers. The package provides
closed-form mean sojourn times (exact priority M/G/1, approximate M/G/2), a
deterministic discrete-event simulator of both topologies, residual-time and
two-way cycle-time models, and a CSV-emitting CLI (`tddq`).
"""

from . import analytic, sim, traffic
from .traffic import *
from .analytic import *
from .sim import *

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += traffic.__all__
__all__ += analytic.__all__
__all__ += sim.__all__
