"""Exclusive-group construction and award disaggregation.

Schedules arrive as one `(S, R, T)` array: scenario s, resource r, step
t, in kW.  Each scenario's resources are summed into an aggregate MW
block bid, priced either truthfully (value of served load) or at the
exchange's maximum admissible bid price, and the bids are collected
into an exclusive group.  The ledger built alongside keeps the array,
so disaggregating a cleared award is a lookup plus a convex combination
— no further optimization — and returns an `(R, T)` array.

This module owns the kW-to-MW boundary: resources compute in kW,
everything market-facing is MW.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import AlphaOutOfRange, EmptyInput, SchemaError, TooManyBids
from .ingest import read_json

KW_PER_MW = 1000.0


@dataclass(frozen=True)
class BlockBid:
    """A full-horizon power profile (MW, positive = consumption) at one price (EUR)."""

    profile: np.ndarray
    price: float


@dataclass(frozen=True)
class ExclusiveGroup:
    """Block bids of which the auction may accept at most one in total."""

    bids: list[BlockBid]
    max_bids: int = 24

    def __post_init__(self):
        if not self.bids:
            raise EmptyInput("exclusive group needs at least one bid")
        if len(self.bids) > self.max_bids:
            raise TooManyBids(
                f"exclusive group holds {len(self.bids)} bids, cap is {self.max_bids}"
            )


@dataclass(frozen=True)
class PricingMode:
    """How block bids are priced: truthful valuation or the exchange cap."""

    kind: str  # "truthful" | "mabp"
    price_cap: float = 4000.0  # EUR/MWh, maximum admissible bid price
    voll: float = 10000.0  # EUR/MWh, value of served load (truthful)

    def __post_init__(self):
        if self.kind not in ("truthful", "mabp"):
            raise ValueError(f"unknown pricing mode {self.kind!r}")
        if self.price_cap <= 0:
            raise ValueError("price_cap must be positive")

    @classmethod
    def truthful(cls, voll: float = 10000.0) -> "PricingMode":
        return cls(kind="truthful", voll=voll)

    @classmethod
    def mabp(cls, price_cap: float = 4000.0) -> "PricingMode":
        return cls(kind="mabp", price_cap=price_cap)


@dataclass
class BidLedger:
    """Book-keeping that turns a cleared award back into resource schedules.

    schedules_kw[s, r] is resource resource_ids[r]'s schedule under
    scenario s; bid_scenarios maps each submitted (deduplicated) bid to
    the scenarios that produced it, ascending.
    """

    resource_ids: list[str]
    schedules_kw: np.ndarray
    bid_scenarios: list[list[int]] = field(default_factory=list)


def build_exclusive_group(
    schedules_kw: np.ndarray,
    resource_ids: Sequence[str],
    mode: PricingMode,
    max_bids: int = 24,
    dt: float = 1.0,
) -> tuple[ExclusiveGroup, BidLedger]:
    """Aggregate an (S, R, T) array of scenario dispatches into an
    exclusive group.

    resource_ids labels axis 1.  Scenarios whose aggregate profiles
    coincide exactly are merged into a single bid, freeing bid slots at
    no cost.  Raises TooManyBids when the distinct profiles exceed
    max_bids and EmptyInput when there is nothing to aggregate.
    """
    X = np.asarray(schedules_kw, dtype=float)
    if X.ndim != 3:
        raise ValueError(f"schedules must be an (S, R, T) array, got shape {X.shape}")
    if X.shape[0] == 0:
        raise EmptyInput("no scenario schedules supplied")
    if X.shape[1] == 0:
        raise EmptyInput("scenarios contain no resources")
    resource_ids = list(resource_ids)
    if len(resource_ids) != X.shape[1]:
        raise ValueError(
            f"{len(resource_ids)} resource ids for {X.shape[1]} resources"
        )

    aggregate_mw = X.sum(axis=1) / KW_PER_MW
    if mode.kind == "truthful":
        prices = [mode.voll * dt * float(agg.sum()) for agg in aggregate_mw]
    else:
        energy_total_kwh = sum(dt * float(x.sum()) for x in X[0])
        prices = [mode.price_cap * energy_total_kwh / KW_PER_MW] * X.shape[0]

    # merge identical profiles; scenario order keeps the output deterministic
    bids: list[BlockBid] = []
    bid_scenarios: list[list[int]] = []
    seen: dict[bytes, int] = {}
    for s, agg in enumerate(aggregate_mw):
        key = agg.tobytes()
        if key in seen:
            bid_scenarios[seen[key]].append(s)
        else:
            seen[key] = len(bids)
            bids.append(BlockBid(profile=agg, price=prices[s]))
            bid_scenarios.append([s])
    if len(bids) > max_bids:
        raise TooManyBids(
            f"{len(bids)} distinct profiles exceed the {max_bids}-bid cap; reduce S"
        )

    ledger = BidLedger(resource_ids=resource_ids, schedules_kw=X, bid_scenarios=bid_scenarios)
    return ExclusiveGroup(bids=bids, max_bids=max_bids), ledger


def disaggregate(ledger: BidLedger, acceptance: np.ndarray) -> np.ndarray:
    """(R, T) kW schedules implementing an acceptance vector.

    Each resource receives the acceptance-weighted convex combination of
    its own scenario schedules, which stays feasible because each
    building's constraint set is convex.  A merged bid executes the
    schedules of its lowest contributing scenario; the aggregates are
    identical by construction even where individual schedules differ.
    All-zero acceptance yields all-zero schedules; the caller decides
    the fallback.
    """
    alpha = np.asarray(acceptance, dtype=float)
    if alpha.shape != (len(ledger.bid_scenarios),):
        raise AlphaOutOfRange(
            f"acceptance vector has length {alpha.shape}, "
            f"expected {len(ledger.bid_scenarios)}"
        )
    if alpha.min(initial=0.0) < -1e-9 or alpha.max(initial=0.0) > 1.0 + 1e-9:
        raise AlphaOutOfRange(f"acceptance rates outside [0, 1]: {alpha}")
    if alpha.sum() > 1.0 + 1e-9:
        raise AlphaOutOfRange(f"acceptance rates sum to {alpha.sum()} > 1")

    out = np.zeros(ledger.schedules_kw.shape[1:])
    for a, scenarios in zip(alpha, ledger.bid_scenarios):
        if a != 0.0:
            out += a * ledger.schedules_kw[scenarios[0]]
    return out


def write_bids(
    path: str | Path,
    group: ExclusiveGroup,
    day: date,
    mode: PricingMode,
) -> None:
    """Serialize an exclusive group to the exchange-facing bids.json."""
    payload = {
        "day": day.isoformat(),
        "max_bids": group.max_bids,
        "pricing_mode": mode.kind,
        "bids": [
            {"profile_mw": [float(x) for x in bid.profile], "price_eur": bid.price}
            for bid in group.bids
        ],
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def read_bids(path: str | Path) -> tuple[ExclusiveGroup, dict]:
    """Load bids.json back into an ExclusiveGroup plus its header fields.

    Raises SchemaError naming the file when it is not valid JSON, lacks a
    key write_bids writes, gives a day that is not an ISO date or a
    max_bids that is not an integer, or holds a price_eur or profile_mw
    value that is not a finite number.
    """
    payload = read_json(path)
    try:
        header = {k: payload[k] for k in ("day", "max_bids", "pricing_mode")}
        pairs = [(b["profile_mw"], b["price_eur"]) for b in payload["bids"]]
    except KeyError as exc:
        raise SchemaError(f"{path}: missing key {exc}") from None
    except TypeError:
        raise SchemaError(f"{path}: expected an object with a list of bid objects") from None
    try:
        date.fromisoformat(header["day"])
    except (TypeError, ValueError):
        raise SchemaError(f"{path}: day {header['day']!r} is not an ISO date") from None
    if type(header["max_bids"]) is not int:
        raise SchemaError(f"{path}: max_bids {header['max_bids']!r} is not an integer")
    for i, (profile, price) in enumerate(pairs):
        if not (isinstance(profile, list) and all(map(_finite, [price, *profile]))):
            raise SchemaError(f"{path}: bid {i}: price_eur and profile_mw must be finite numbers")
    bids = [BlockBid(profile=np.array(p, dtype=float), price=float(c)) for p, c in pairs]
    return ExclusiveGroup(bids=bids, max_bids=header["max_bids"]), header


def _finite(value) -> bool:
    """Whether a JSON value is a finite number; Python's bool is an int, JSON's is not."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)
