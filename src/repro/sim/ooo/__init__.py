"""Out-of-order core: per-trace pre-passes, pipeline model, statistics."""

from repro.sim.ooo.core import OutOfOrderCore, simulate
from repro.sim.ooo.stats import PipelineStats

__all__ = ["OutOfOrderCore", "PipelineStats", "simulate"]
