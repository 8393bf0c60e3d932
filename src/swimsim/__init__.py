"""SWIM mobility simulator.

Deterministic event-driven simulation of the SWIM (Small Worlds In Motion)
human-mobility model: grid of locations, alpha-weighted destination
selection, straight-line constant-speed movement, and cell-based contact
tracking with inter-contact-time / contact-duration statistics.

The names below are the documented library surface (README, "Library");
everything else is imported from its submodule.
"""

from . import outputs
from .config import ConfigError, ScenarioConfig, load_config, save_config
from .engine import SimulationReport, initialize, position_at, run, simulate
from .grid import AreaBounds
from .metrics import (
    contact_durations,
    contacts_per_pair,
    inter_contact_times,
    metrics_report,
    selection_stats,
)
from .mobility import ModelParams, PowerLawWait, UniformWait

__version__ = "0.1.0"

__all__ = [
    "AreaBounds",
    "ConfigError",
    "ModelParams",
    "PowerLawWait",
    "ScenarioConfig",
    "SimulationReport",
    "UniformWait",
    "contact_durations",
    "contacts_per_pair",
    "initialize",
    "inter_contact_times",
    "load_config",
    "metrics_report",
    "outputs",
    "position_at",
    "run",
    "save_config",
    "selection_stats",
    "simulate",
]
