"""Exclusive-group construction and award disaggregation.

Schedules arrive as one `(S, R, T)` array: scenario s, resource r, step
t, in kW.  Each scenario's resources are summed into an aggregate MW
block bid, priced at one price per MWh times its own energy, and the
bids are collected into an exclusive group.  The price is the value of
served load for truthful bids, or the exchange's maximum admissible bid
price; the caller chooses it.  The ledger built alongside keeps the
array, so disaggregating a cleared award is a lookup plus a convex
combination — no further optimization — and returns an `(R, T)` array.

This module owns the kW-to-MW boundary: resources compute in kW,
everything market-facing is MW.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path

import numpy as np

from .errors import AlphaOutOfRange, EmptyInput, FlexbidError, SchemaError, TooManyBids
from .ingest import read_json

KW_PER_MW = 1000.0
MAX_BIDS = 24  # the exchange's cap on the bids of one exclusive group


@dataclass(frozen=True)
class BlockBid:
    """A full-horizon power profile (MW, positive = consumption) at one price (EUR)."""

    profile: np.ndarray
    price: float


@dataclass(frozen=True)
class ExclusiveGroup:
    """Block bids of which the auction may accept at most one in total."""

    bids: list[BlockBid]
    max_bids: int = MAX_BIDS

    def __post_init__(self):
        if not self.bids:
            raise EmptyInput("exclusive group needs at least one bid")
        if len(self.bids) > self.max_bids:
            raise TooManyBids(
                f"exclusive group holds {len(self.bids)} bids, cap is {self.max_bids}"
            )


@dataclass
class BidLedger:
    """Book-keeping that turns a cleared award back into resource schedules.

    schedules_kw[s, r] is resource r's schedule under scenario s;
    bid_scenarios maps each submitted (deduplicated) bid to the
    scenarios that produced it, ascending.
    """

    schedules_kw: np.ndarray
    bid_scenarios: list[list[int]] = field(default_factory=list)


def build_exclusive_group(
    schedules_kw: np.ndarray,
    price_eur_mwh: float,
    max_bids: int,
    dt: float,
) -> tuple[ExclusiveGroup, BidLedger]:
    """Aggregate an (S, R, T) array of scenario dispatches into an
    exclusive group, each bid priced at price_eur_mwh times its own
    aggregate energy in MWh (steps of dt hours).

    Scenarios whose aggregate profiles coincide exactly are merged into
    a single bid, freeing bid slots at no cost.  Raises ValueError on a
    price that is not finite and > 0, EmptyInput when there is nothing
    to aggregate, and TooManyBids when the distinct profiles exceed
    max_bids.
    """
    if not (math.isfinite(price_eur_mwh) and price_eur_mwh > 0):
        raise ValueError(f"bid price must be finite and > 0, got {price_eur_mwh}")
    X = np.asarray(schedules_kw, dtype=float)
    if X.ndim != 3:
        raise ValueError(f"schedules must be an (S, R, T) array, got shape {X.shape}")
    if X.shape[0] == 0:
        raise EmptyInput("no scenario schedules supplied")
    if X.shape[1] == 0:
        raise EmptyInput("scenarios contain no resources")

    # merge identical profiles; scenario order keeps the output deterministic
    bids: list[BlockBid] = []
    bid_scenarios: list[list[int]] = []
    seen: dict[bytes, int] = {}
    for s, agg in enumerate(X.sum(axis=1) / KW_PER_MW):
        key = agg.tobytes()
        if key in seen:
            bid_scenarios[seen[key]].append(s)
        else:
            seen[key] = len(bids)
            bids.append(BlockBid(profile=agg, price=price_eur_mwh * dt * float(agg.sum())))
            bid_scenarios.append([s])

    return ExclusiveGroup(bids=bids, max_bids=max_bids), BidLedger(X, bid_scenarios)


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
    pricing: str,
) -> None:
    """Serialize an exclusive group to the exchange-facing bids.json;
    pricing names how its bids were priced ("truthful" or "mabp")."""
    payload = {
        "day": day.isoformat(),
        "max_bids": group.max_bids,
        "pricing_mode": pricing,
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
    max_bids that is not an integer in 1..MAX_BIDS, or holds a price_eur
    or profile_mw value that is not a finite number.
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
    max_bids = header["max_bids"]
    if type(max_bids) is not int or not 1 <= max_bids <= MAX_BIDS:
        raise SchemaError(f"{path}: max_bids {max_bids!r} is not an integer in 1..{MAX_BIDS}")
    for i, (profile, price) in enumerate(pairs):
        if not (isinstance(profile, list) and all(map(_finite, [price, *profile]))):
            raise SchemaError(f"{path}: bid {i}: price_eur and profile_mw must be finite numbers")
    bids = [BlockBid(profile=np.array(p, dtype=float), price=float(c)) for p, c in pairs]
    try:
        return ExclusiveGroup(bids=bids, max_bids=max_bids), header
    except FlexbidError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _finite(value) -> bool:
    """Whether a JSON value is a finite number; Python's bool is an int, JSON's is not."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)
