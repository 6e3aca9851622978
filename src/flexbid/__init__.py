"""Flexibility aggregation and day-ahead bidding toolkit.

Turns populations of heat pumps on RC building models into exclusive
groups of block bids, clears them against realized day-ahead prices,
disaggregates the award back to individual buildings, and benchmarks
the achieved share of the theoretical cost savings — for independent
resources (unbundled utility) and for resources coupled by a radial
distribution grid (integrated utility).
"""

from .bidding import (
    BidLedger,
    BlockBid,
    ExclusiveGroup,
    build_exclusive_group,
    disaggregate,
)
from .clearing import ClearingOutcome, clear
from .errors import FlexbidError
from .grid import OpfModel, RadialNetwork, allocate_buildings
from .ingest import InstanceBundle, ingest
from .scenarios import PriceSeries, generate_scenarios
from .simulate import CampaignConfig, efficiency, run_campaign, run_day
from .synthetic import SyntheticSpec, generate_instance, generate_synthetic
from .thermal import BuildingParams, ComfortConfig, DispatchModel, baseline_profile

__version__ = "0.1.0"

__all__ = [
    "BidLedger",
    "BlockBid",
    "BuildingParams",
    "CampaignConfig",
    "ClearingOutcome",
    "ComfortConfig",
    "DispatchModel",
    "ExclusiveGroup",
    "FlexbidError",
    "InstanceBundle",
    "OpfModel",
    "PriceSeries",
    "RadialNetwork",
    "SyntheticSpec",
    "allocate_buildings",
    "baseline_profile",
    "build_exclusive_group",
    "clear",
    "disaggregate",
    "efficiency",
    "generate_instance",
    "generate_scenarios",
    "generate_synthetic",
    "ingest",
    "run_campaign",
    "run_day",
    "__version__",
]
