"""Clearing an exclusive group against a realized price vector.

The exchange model: maximize the group's declared surplus
sum_s alpha_s * (price_s - <prices, profile_s> * dt) subject to
alpha >= 0, sum alpha <= 1.  That is a linear program over a simplex,
so an optimum always sits on a vertex: either full acceptance of the
single most profitable bid, or full rejection when no bid clears a
positive surplus.  clear() exploits that closed form; clear_oracle()
re-derives the answer by brute enumeration of all vertices and exists
so the two can be compared in tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GroupTooLarge, LengthMismatch
from .bidding import ExclusiveGroup

ORACLE_MAX_BIDS = 32


@dataclass(frozen=True)
class ClearingOutcome:
    """Acceptance vector plus the money that changes hands."""

    alpha: np.ndarray  # one rate per bid, 0 or 1 here
    accepted_profile: np.ndarray  # MW, zeros when everything is rejected
    payment: float  # EUR paid at realized prices
    surplus: float  # EUR, declared value minus payment

    @property
    def accepted_index(self) -> int | None:
        hits = np.flatnonzero(self.alpha > 0.5)
        return int(hits[0]) if hits.size else None

    def to_dict(self) -> dict:
        return {
            "alpha": [float(a) for a in self.alpha],
            "accepted_profile_mw": [float(x) for x in self.accepted_profile],
            "payment_eur": self.payment,
            "surplus_eur": self.surplus,
        }


def _validate(group: ExclusiveGroup, prices: np.ndarray) -> np.ndarray:
    prices = np.asarray(prices, dtype=float)
    horizon = group.bids[0].profile.shape[0]
    if prices.shape != (horizon,):
        raise LengthMismatch(
            f"price vector has shape {prices.shape}, bids span {horizon} hours"
        )
    for j, bid in enumerate(group.bids):
        if bid.profile.shape != (horizon,):
            raise LengthMismatch(f"bid {j} spans {bid.profile.shape[0]} hours, not {horizon}")
    return prices


def clear(group: ExclusiveGroup, prices: np.ndarray, dt: float = 1.0) -> ClearingOutcome:
    """Accept the most profitable bid outright, or nothing.

    Profit of bid j is price_j - dt * <prices, profile_j>.  Ties go to
    the lowest index; a best profit of exactly zero is a rejection (the
    exchange has no reason to move money for nothing).
    """
    prices = _validate(group, prices)
    n = len(group.bids)
    costs = np.array(
        [dt * float(np.dot(prices, bid.profile)) for bid in group.bids]
    )
    declared = np.array([bid.price for bid in group.bids])
    profit = declared - costs

    best = int(np.argmax(profit))  # argmax returns the first maximizer
    alpha = np.zeros(n)
    horizon = group.bids[0].profile.shape[0]
    if profit[best] > 0.0:
        alpha[best] = 1.0
        return ClearingOutcome(
            alpha=alpha,
            accepted_profile=group.bids[best].profile.copy(),
            payment=float(costs[best]),
            surplus=float(profit[best]),
        )
    return ClearingOutcome(
        alpha=alpha,
        accepted_profile=np.zeros(horizon),
        payment=0.0,
        surplus=0.0,
    )


def clear_oracle(group: ExclusiveGroup, prices: np.ndarray, dt: float = 1.0) -> ClearingOutcome:
    """Reference implementation: try every vertex of the feasible simplex.

    Vertices are "accept exactly bid j" for each j plus "reject all".
    Pure-python loops on purpose — no shared code with clear().  Capped
    at ORACLE_MAX_BIDS bids to stay honestly exhaustive.
    """
    if len(group.bids) > ORACLE_MAX_BIDS:
        raise GroupTooLarge(
            f"oracle enumerates at most {ORACLE_MAX_BIDS} bids, got {len(group.bids)}"
        )
    prices = _validate(group, prices)
    horizon = group.bids[0].profile.shape[0]

    best_surplus = 0.0
    best_j: int | None = None
    best_payment = 0.0
    for j, bid in enumerate(group.bids):
        payment = 0.0
        for t in range(horizon):
            payment += float(prices[t]) * float(bid.profile[t])
        payment *= dt
        surplus = bid.price - payment
        if surplus > best_surplus:
            best_surplus = surplus
            best_j = j
            best_payment = payment

    alpha = np.zeros(len(group.bids))
    if best_j is None:
        return ClearingOutcome(
            alpha=alpha,
            accepted_profile=np.zeros(horizon),
            payment=0.0,
            surplus=0.0,
        )
    alpha[best_j] = 1.0
    return ClearingOutcome(
        alpha=alpha,
        accepted_profile=group.bids[best_j].profile.copy(),
        payment=best_payment,
        surplus=best_surplus,
    )
