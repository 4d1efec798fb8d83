"""Slot-synchronous simulator and analysis toolkit for multi-piece gossip
dissemination in unstructured peer-to-peer networks.

The package simulates a population of n users spreading k content pieces
over randomized contacts under per-slot upload budgets, measures completion
times and per-pair delay profiles, and checks runs against a catalog of
analytic completion-time bounds.
"""

from .config import (
    ADVOCATE,
    CONSTRAINTS,
    CONTACT_MODELS,
    ETA_SEEDED,
    FIXED_LISTS,
    HARD,
    INITIAL_STATES,
    INTERLEAVE,
    ONE_UNIQUE,
    PRIORITY_PUSH,
    PROTOCOLS,
    RANDOM_PULL,
    RANDOM_PUSH,
    SCHEMA_VERSION,
    SEQUENTIAL_PULL,
    SINGLE_SOURCE,
    SOFT,
    UNIFORM,
    ConfigError,
    SimulationConfig,
    load_config,
)
from .engine import RunResult, Trace, TransferEvent, run, trace_digest
from .metrics import (
    DelayProfile,
    OccupancySeries,
    delay_profile,
    failed_pieces,
    occupancy,
    pieces_reached,
    splitting_speedup,
)
from .oracle import (
    THEOREMS,
    bound_value,
    classical_gossip_sample,
    deterministic_gossip,
    geo_sum_mean,
    geo_sum_sample,
    geo_sum_tail,
    gossip_mean_map,
)
from .sweep import SweepSpec, load_sweep, run_sweep
from .verify import BoundReport, VerificationRefusal, load_results, verify_rows
from .figures import FigureDataset, reproduce
from .version import VERSION as __version__

__all__ = [
    "__version__",
    "SCHEMA_VERSION",
    "ConfigError",
    "SimulationConfig",
    "load_config",
    "PROTOCOLS",
    "RANDOM_PULL",
    "SEQUENTIAL_PULL",
    "RANDOM_PUSH",
    "PRIORITY_PUSH",
    "INTERLEAVE",
    "ADVOCATE",
    "HARD",
    "SOFT",
    "CONSTRAINTS",
    "UNIFORM",
    "FIXED_LISTS",
    "CONTACT_MODELS",
    "SINGLE_SOURCE",
    "ETA_SEEDED",
    "ONE_UNIQUE",
    "INITIAL_STATES",
    "RunResult",
    "Trace",
    "TransferEvent",
    "run",
    "trace_digest",
    "DelayProfile",
    "delay_profile",
    "failed_pieces",
    "pieces_reached",
    "OccupancySeries",
    "occupancy",
    "splitting_speedup",
    "gossip_mean_map",
    "deterministic_gossip",
    "classical_gossip_sample",
    "geo_sum_sample",
    "geo_sum_mean",
    "geo_sum_tail",
    "THEOREMS",
    "bound_value",
    "SweepSpec",
    "load_sweep",
    "run_sweep",
    "BoundReport",
    "VerificationRefusal",
    "load_results",
    "verify_rows",
    "FigureDataset",
    "reproduce",
]
