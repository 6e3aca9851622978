"""Rolling day-ahead campaign and the benchmark around it.

Every delivery day runs one pipeline whatever the market mode: price
scenarios from forecast-residual history, one cost-minimal dispatch per
scenario, the dispatches aggregated into an exclusive group of block
bids, the group cleared against realized prices, and the award
disaggregated back to the individual buildings.  Only the dispatch step
depends on the mode, so it sits behind a small dispatcher: `_Fleet`
solves one LP per heat pump (unbundled utility), `_Network` one network
OPF over all of them (integrated utility).  Schedules travel as
`(S, R, T)` arrays: scenario, resource (building ids sorted), hour.

Three totals frame each day: tc_inf (heat pumps stay on their baseline
schedules), tc_cleared (the executed award), and tc_opt (dispatch under
perfect price foresight).  Aggregation efficiency is the share of the
theoretically available savings the auction actually delivered:
(tc_inf - tc_cleared) / (tc_inf - tc_opt).
"""

from __future__ import annotations

import csv
import logging
import time
from dataclasses import dataclass, field
from datetime import date, timedelta
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .bidding import PricingMode, build_exclusive_group, disaggregate
from .clearing import clear
from .errors import EmptyInput, FlexbidError, GridMismatch, InvalidOrdering, SchemaError
from .grid import GridTimeSeries, OpfModel, RadialNetwork, allocate_buildings
from .ingest import HOURS, InstanceBundle
from .scenarios import PriceSeries, generate_scenarios
from .thermal import BuildingParams, ComfortConfig, DispatchModel, profile_cost

log = logging.getLogger(__name__)

MODES = ("unbundled", "integrated")
PRICINGS = ("truthful", "mabp")
FORECASTERS = ("column", "naive")


@dataclass(frozen=True)
class CampaignConfig:
    """Everything that shapes a simulation run, with market defaults."""

    start: date
    days: int
    s_count: int = 24
    max_bids: int = 24
    mode: str = "unbundled"
    pricing: str = "truthful"
    forecaster: str = "column"
    facets: int = 8
    rar: float = 0.05
    voll: float = 10000.0
    price_cap: float = 4000.0
    comfort: ComfortConfig = ComfortConfig()

    def __post_init__(self):
        if self.days < 1:
            raise ValueError("campaign needs at least one day")
        if self.s_count < 1 or self.max_bids < 1:
            raise ValueError("s_count and max_bids must be >= 1")
        if self.max_bids > 24:
            raise ValueError("exclusive groups admit at most 24 bids")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.pricing not in PRICINGS:
            raise ValueError(f"pricing must be one of {PRICINGS}")
        if self.forecaster not in FORECASTERS:
            raise ValueError(f"forecaster must be one of {FORECASTERS}")

    @property
    def pricing_mode(self) -> PricingMode:
        if self.pricing == "truthful":
            return PricingMode.truthful(voll=self.voll)
        return PricingMode.mabp(price_cap=self.price_cap)

    @property
    def campaign_days(self) -> list[date]:
        return [self.start + timedelta(days=i) for i in range(self.days)]

    def to_dict(self) -> dict:
        return {
            "start": self.start.isoformat(),
            "days": self.days,
            "scenarios": self.s_count,
            "max_bids": self.max_bids,
            "mode": self.mode,
            "pricing": self.pricing,
            "forecaster": self.forecaster,
            "facets": self.facets,
            "rar": self.rar,
            "voll": self.voll,
            "price_cap": self.price_cap,
        }

    @classmethod
    def from_dict(cls, raw: Mapping) -> "CampaignConfig":
        """Read the keys to_dict writes; any other key is an error."""
        cfg = cls(
            start=date.fromisoformat(raw["start"]),
            days=int(raw["days"]),
            s_count=int(raw.get("scenarios", 24)),
            max_bids=int(raw.get("max_bids", 24)),
            mode=raw.get("mode", "unbundled"),
            pricing=raw.get("pricing", "truthful"),
            forecaster=raw.get("forecaster", "column"),
            facets=int(raw.get("facets", 8)),
            rar=float(raw.get("rar", 0.05)),
            voll=float(raw.get("voll", 10000.0)),
            price_cap=float(raw.get("price_cap", 4000.0)),
        )
        unknown = sorted(set(raw) - set(cfg.to_dict()))
        if unknown:
            raise SchemaError(f"unknown campaign keys: {', '.join(unknown)}")
        return cfg


@dataclass(frozen=True)
class DayInputs:
    """One delivery day's data, ready for run_day."""

    day: date
    buildings: list[BuildingParams]
    history: PriceSeries
    realized: np.ndarray
    t_out: np.ndarray
    series: GridTimeSeries
    network: RadialNetwork | None = None
    alloc: Mapping[str, int] | None = None


@dataclass
class DayResult:
    day: date
    mode: str
    tc_inf: float
    tc_cleared: float
    tc_opt: float
    eta: float | None
    n_bids: int
    accepted_index: int | None
    fallback: bool
    awarded_kw: dict[str, np.ndarray]
    shed_kwh: float
    hp_cost_cleared: float
    price_std: float
    runtime: dict[str, float]


def efficiency(tc_inf: float, tc_cleared: float, tc_opt: float) -> float | None:
    """Share of the attainable savings that was realized; None when the
    day offers no savings to begin with.  The ordering check allows
    solver round-off of 1e-6 EUR, scaled up with the day's cost."""
    if tc_opt > tc_inf + 1e-6 * max(1.0, abs(tc_inf)):
        raise InvalidOrdering(
            f"perfect-foresight cost {tc_opt} exceeds the inflexible cost {tc_inf}"
        )
    denom = tc_inf - tc_opt
    if denom < 1e-9:
        return None
    return (tc_inf - tc_cleared) / denom


def day_inputs(
    cfg: CampaignConfig,
    bundle: InstanceBundle,
    day: date,
    history: PriceSeries | None = None,
    alloc: Mapping[str, int] | None = None,
) -> DayInputs:
    """Slice one day out of a bundle; raises when the day is not covered."""
    for name, table in (("weather", bundle.weather), ("prices", bundle.realized),
                        ("profiles", bundle.slf)):
        if day not in table:
            raise GridMismatch(f"{name} data does not cover {day}")
    if history is None:
        history = bundle.price_series(cfg.forecaster)
    series = GridTimeSeries(slf=bundle.slf[day], cf=bundle.cf[day], rar=cfg.rar)
    return DayInputs(
        day=day,
        buildings=bundle.buildings,
        history=history,
        realized=bundle.realized[day],
        t_out=bundle.weather[day],
        series=series,
        network=bundle.network,
        alloc=alloc if alloc is not None else bundle.alloc,
    )


class _Fleet:
    """Unbundled dispatch: one DispatchModel per heat pump, no network."""

    def __init__(self, cfg: CampaignConfig, inputs: DayInputs):
        flex = sorted(
            (b for b in inputs.buildings if b.has_hp and b.p_hp_rated > 0),
            key=lambda b: b.id,
        )
        self.dt = cfg.comfort.dt
        self.ids = [b.id for b in flex]
        self.models = [DispatchModel(b, cfg.comfort, inputs.t_out) for b in flex]
        self.baseline = np.array([m.baseline for m in self.models]).reshape(
            len(flex), cfg.comfort.horizon
        )

    def solve(self, price_rows: np.ndarray) -> tuple[np.ndarray, list[float]]:
        """One warm-started HiGHS sweep per building over every price row."""
        per_building = [model.solve(price_rows) for model in self.models]
        X = np.stack([[res.schedule for res in results] for results in per_building], axis=1)
        cost = [sum(results[s].cost for results in per_building)
                for s in range(len(price_rows))]
        return X, cost

    def evaluate(self, prices: np.ndarray, award: np.ndarray) -> tuple[float, float, float]:
        cost = sum((profile_cost(sched, prices, self.dt) for sched in award), 0.0)
        return cost, 0.0, cost


class _Network:
    """Integrated dispatch: one network OPF couples every heat pump."""

    def __init__(self, cfg: CampaignConfig, inputs: DayInputs):
        if inputs.network is None:
            raise GridMismatch("integrated mode needs the network files")
        if inputs.alloc is None:
            raise GridMismatch("integrated mode needs a building-to-node assignment")
        self.model = OpfModel(
            inputs.network, inputs.buildings, inputs.alloc, cfg.comfort,
            inputs.t_out, inputs.series, voll=cfg.voll, facets=cfg.facets,
        )
        self.ids = sorted(self.model.base_kw)
        self.baseline = np.array([self.model.base_kw[i] for i in self.ids]).reshape(
            len(self.ids), cfg.comfort.horizon
        )

    def solve(self, price_rows: np.ndarray) -> tuple[np.ndarray, list[float]]:
        """One network dispatch per price row, warm-started row to row."""
        sols = self.model.solve_rows(price_rows)
        X = np.array([[sol.hp_kw[i] for i in self.ids] for sol in sols])
        return X, [sol.objective_eur for sol in sols]

    def evaluate(self, prices: np.ndarray, award: np.ndarray) -> tuple[float, float, float]:
        sol = self.model.solve(prices, hp_fixed=dict(zip(self.ids, award)))
        return sol.objective_eur, sol.shed_kwh, sol.hp_cost_eur


def _dispatcher(cfg: CampaignConfig, inputs: DayInputs) -> _Fleet | _Network:
    """The mode's dispatch step; the rest of the day is mode-blind.

    A dispatcher exposes ids (sorted building ids), baseline (R, T),
    solve(price_rows) -> (X[S, R, T], cost[S]) and
    evaluate(prices, award[R, T]) -> (cost, shed_kwh, hp_cost).
    """
    return _Fleet(cfg, inputs) if cfg.mode == "unbundled" else _Network(cfg, inputs)


def _award(cfg: CampaignConfig, disp, X: np.ndarray, realized: np.ndarray):
    """Bids -> clearing -> (R, T) awarded schedules."""
    dt = cfg.comfort.dt
    group, ledger = build_exclusive_group(
        X, disp.ids, cfg.pricing_mode, max_bids=cfg.max_bids, dt=dt
    )
    outcome = clear(group, realized, dt=dt)
    fallback = outcome.accepted_index is None
    if fallback:
        log.info("all %d bids rejected; executing baseline schedules", len(group.bids))
        award = disp.baseline.copy()
    else:
        award = disaggregate(ledger, outcome.alpha)
    return group, outcome, award, fallback


def run_day(cfg: CampaignConfig, inputs: DayInputs, inject_realized: bool = False) -> DayResult:
    """The full pipeline for one delivery day.

    inject_realized appends the realized price vector as one extra
    scenario — a diagnostic mode in which clearing must recover the
    perfect-foresight outcome.
    """
    scen = generate_scenarios(inputs.day, cfg.s_count, inputs.history)
    price_rows = scen.prices
    if inject_realized:
        price_rows = np.vstack([price_rows, inputs.realized])
    price_std = float(np.std(inputs.realized))

    t0 = time.perf_counter()
    disp = _dispatcher(cfg, inputs)
    tc_inf, shed_kwh, hp_cost = disp.evaluate(inputs.realized, disp.baseline)
    if not disp.ids:
        return DayResult(
            day=inputs.day, mode=cfg.mode, tc_inf=tc_inf, tc_cleared=tc_inf,
            tc_opt=tc_inf, eta=None, n_bids=0, accepted_index=None, fallback=False,
            awarded_kw={}, shed_kwh=shed_kwh, hp_cost_cleared=hp_cost,
            price_std=price_std, runtime={"dispatch": 0.0, "clearing": 0.0},
        )
    # the realized prices ride along as the last row: their optimum is tc_opt
    X, cost = disp.solve(np.vstack([price_rows, inputs.realized]))
    t_dispatch = time.perf_counter() - t0

    t1 = time.perf_counter()
    group, outcome, award, fallback = _award(cfg, disp, X[:-1], inputs.realized)
    tc_cleared, shed_kwh, hp_cost = disp.evaluate(inputs.realized, award)
    t_clearing = time.perf_counter() - t1

    tc_opt = cost[-1]
    return DayResult(
        day=inputs.day, mode=cfg.mode,
        tc_inf=tc_inf, tc_cleared=tc_cleared, tc_opt=tc_opt,
        eta=efficiency(tc_inf, tc_cleared, tc_opt),
        n_bids=len(group.bids),
        accepted_index=outcome.accepted_index,
        fallback=fallback,
        awarded_kw=dict(zip(disp.ids, award)),
        shed_kwh=shed_kwh,
        hp_cost_cleared=hp_cost,
        price_std=price_std,
        runtime={"dispatch": t_dispatch, "clearing": t_clearing},
    )


def day_bids(cfg: CampaignConfig, inputs: DayInputs):
    """Scenarios -> dispatches -> exclusive group, without clearing it.

    This is the auction-desk view: what gets submitted before the
    realized prices exist.  Returns (group, ledger).
    """
    scen = generate_scenarios(inputs.day, cfg.s_count, inputs.history)
    disp = _dispatcher(cfg, inputs)
    if not disp.ids:
        raise EmptyInput("no heat pumps to bid with")
    X, _ = disp.solve(scen.prices)
    return build_exclusive_group(
        X, disp.ids, cfg.pricing_mode, max_bids=cfg.max_bids, dt=cfg.comfort.dt
    )


@dataclass
class CampaignReport:
    """All day results plus campaign-level aggregates."""

    config: CampaignConfig
    days: list[DayResult]
    failures: list[tuple[date, str]] = field(default_factory=list)
    n_flexible: int = 0

    @property
    def tc_inf_total(self) -> float:
        return sum(d.tc_inf for d in self.days)

    @property
    def tc_cleared_total(self) -> float:
        return sum(d.tc_cleared for d in self.days)

    @property
    def tc_opt_total(self) -> float:
        return sum(d.tc_opt for d in self.days)

    @property
    def savings_eur(self) -> float:
        return self.tc_inf_total - self.tc_cleared_total

    @property
    def savings_per_hp_eur(self) -> float:
        return self.savings_eur / max(1, self.n_flexible)

    @property
    def eta_weighted(self) -> float | None:
        """Savings-weighted efficiency: ratio of summed savings over the
        campaign.  Days without attainable savings dilute nothing."""
        denom = self.tc_inf_total - self.tc_opt_total
        if denom < 1e-9:
            return None
        return (self.tc_inf_total - self.tc_cleared_total) / denom

    @property
    def eta_mean(self) -> float | None:
        etas = [d.eta for d in self.days if d.eta is not None]
        return float(np.mean(etas)) if etas else None

    @property
    def shed_kwh_total(self) -> float:
        return sum(d.shed_kwh for d in self.days)

    def runtime_total(self, stage: str) -> float:
        return sum(d.runtime.get(stage, 0.0) for d in self.days)


def campaign_alloc(cfg: CampaignConfig, bundle: InstanceBundle) -> Mapping[str, int] | None:
    """The bundle's building-to-node assignment; integrated mode solves
    the allocation problem when none was supplied."""
    if cfg.mode != "integrated" or bundle.alloc is not None:
        return bundle.alloc
    if bundle.network is None:
        raise GridMismatch("integrated mode needs the network files")
    log.info("no assignment supplied; solving the allocation problem")
    return allocate_buildings(bundle.buildings, bundle.network)


def run_campaign(cfg: CampaignConfig, bundle: InstanceBundle) -> CampaignReport:
    """Run every campaign day, collecting failures instead of aborting."""
    history = bundle.price_series(cfg.forecaster)
    alloc = campaign_alloc(cfg, bundle)
    results: list[DayResult] = []
    failures: list[tuple[date, str]] = []
    for day in cfg.campaign_days:
        try:
            inputs = day_inputs(cfg, bundle, day, history=history, alloc=alloc)
            results.append(run_day(cfg, inputs))
        except FlexbidError as exc:
            failures.append((day, f"{type(exc).__name__}: {exc}"))
            log.error("day %s failed: %s", day, exc)
    n_flex = sum(1 for b in bundle.buildings if b.has_hp and b.p_hp_rated > 0)
    return CampaignReport(config=cfg, days=results, failures=failures, n_flexible=n_flex)


def efficiency_vs_bids(
    cfg: CampaignConfig,
    bundle: InstanceBundle,
    b_values: Sequence[int] = (1, 2, 4, 8, 16, 24),
) -> list[dict]:
    """Efficiency as a function of the bid budget, on shared dispatches.

    Scenario dispatches are computed once at cfg.s_count and every bid
    budget B clears the exclusive group built from the first B
    scenarios, so the scenario sets are nested by construction.
    """
    b_values = sorted(set(b_values))
    if max(b_values) > cfg.s_count:
        raise ValueError("largest bid budget exceeds the scenario count")
    history = bundle.price_series(cfg.forecaster)
    alloc = campaign_alloc(cfg, bundle)

    tc_inf_total = 0.0
    tc_opt_total = 0.0
    cleared_total = {B: 0.0 for B in b_values}
    clearing_s = {B: 0.0 for B in b_values}

    for day in cfg.campaign_days:
        inputs = day_inputs(cfg, bundle, day, history=history, alloc=alloc)
        scen = generate_scenarios(day, cfg.s_count, inputs.history)
        disp = _dispatcher(cfg, inputs)
        if not disp.ids:
            raise EmptyInput("no heat pumps to bid with")
        X, cost = disp.solve(np.vstack([scen.prices, inputs.realized]))
        tc_inf_total += disp.evaluate(inputs.realized, disp.baseline)[0]
        tc_opt_total += cost[-1]
        for B in b_values:
            t0 = time.perf_counter()
            _, _, award, _ = _award(cfg, disp, X[:B], inputs.realized)
            cleared_total[B] += disp.evaluate(inputs.realized, award)[0]
            clearing_s[B] += time.perf_counter() - t0

    denom = tc_inf_total - tc_opt_total
    rows = []
    for B in b_values:
        eta = (tc_inf_total - cleared_total[B]) / denom if denom > 1e-9 else None
        rows.append({
            "max_bids": B,
            "eta": eta,
            "tc_cleared_eur": cleared_total[B],
            "tc_inf_eur": tc_inf_total,
            "tc_opt_eur": tc_opt_total,
            "clearing_s": clearing_s[B],
        })
    return rows


# ---------------------------------------------------------------- output

REPORT_HEADER = [
    "date", "tc_inf_eur", "tc_cleared_eur", "tc_opt_eur", "eta", "shed_kwh",
    "price_std_eur_mwh", "runtime_dispatch_s", "runtime_clearing_s",
    "n_bids", "accepted_index", "fallback", "hp_cost_eur",
]


def write_report_csv(path: str | Path, report: CampaignReport) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(REPORT_HEADER)
        for d in report.days:
            writer.writerow([
                d.day.isoformat(),
                f"{d.tc_inf:.6f}",
                f"{d.tc_cleared:.6f}",
                f"{d.tc_opt:.6f}",
                "" if d.eta is None else f"{d.eta:.6f}",
                f"{d.shed_kwh:.6f}",
                f"{d.price_std:.6f}",
                f"{d.runtime['dispatch']:.6f}",
                f"{d.runtime['clearing']:.6f}",
                str(d.n_bids),
                "" if d.accepted_index is None else str(d.accepted_index),
                str(int(d.fallback)),
                f"{d.hp_cost_cleared:.6f}",
            ])


def write_schedules_csv(path: str | Path, report: CampaignReport) -> None:
    """Awarded per-building schedules, one row per building-hour."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["date", "building_id", "hour", "p_hp_kw"])
        for d in report.days:
            for bid in sorted(d.awarded_kw):
                for h in range(HOURS):
                    writer.writerow([
                        d.day.isoformat(), bid, str(h), f"{d.awarded_kw[bid][h]:.6f}",
                    ])
