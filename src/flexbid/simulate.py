"""Rolling day-ahead campaign and the benchmark around it.

For every delivery day: price scenarios from forecast-residual history,
one cost-minimal dispatch per scenario, the dispatches aggregated into
an exclusive group of block bids, the group cleared against realized
prices, and the award disaggregated back to the individual buildings.

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
from .errors import EmptyInput, FlexbidError, GridMismatch, InvalidOrdering
from .grid import GridTimeSeries, OpfModel, RadialNetwork, allocate_buildings
from .ingest import HOURS, InstanceBundle
from .scenarios import PriceSeries, generate_scenarios
from .thermal import (
    BuildingParams,
    ComfortConfig,
    DispatchModel,
    DispatchResult,
    baseline_profile,
    profile_cost,
)

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
    seed: int = 0
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
            "seed": self.seed,
            "facets": self.facets,
            "rar": self.rar,
            "voll": self.voll,
            "price_cap": self.price_cap,
        }

    @classmethod
    def from_dict(cls, raw: Mapping) -> "CampaignConfig":
        return cls(
            start=date.fromisoformat(raw["start"]),
            days=int(raw["days"]),
            s_count=int(raw.get("scenarios", 24)),
            max_bids=int(raw.get("max_bids", 24)),
            mode=raw.get("mode", "unbundled"),
            pricing=raw.get("pricing", "truthful"),
            forecaster=raw.get("forecaster", "column"),
            seed=int(raw.get("seed", 0)),
            facets=int(raw.get("facets", 8)),
            rar=float(raw.get("rar", 0.05)),
            voll=float(raw.get("voll", 10000.0)),
            price_cap=float(raw.get("price_cap", 4000.0)),
        )


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
    day offers no savings to begin with."""
    if tc_opt > tc_inf + 1e-6:
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


def _clear_and_disaggregate(cfg, schedules, baselines, realized, dt):
    """Shared tail of both modes: bids -> clearing -> awarded schedules."""
    group, ledger = build_exclusive_group(
        schedules, cfg.pricing_mode, max_bids=cfg.max_bids, dt=dt
    )
    outcome = clear(group, realized, dt=dt)
    fallback = outcome.accepted_index is None
    if fallback:
        log.info("all %d bids rejected; executing baseline schedules", len(group.bids))
        awarded = {bid: sched.copy() for bid, sched in baselines.items()}
    else:
        awarded = disaggregate(ledger, outcome.alpha)
    return group, outcome, awarded, fallback


def run_day(cfg: CampaignConfig, inputs: DayInputs, inject_realized: bool = False) -> DayResult:
    """The full pipeline for one delivery day.

    inject_realized appends the realized price vector as one extra
    scenario — a diagnostic mode in which clearing must recover the
    perfect-foresight outcome.
    """
    scen = generate_scenarios(inputs.day, cfg.s_count, inputs.history)
    price_rows = scen.prices
    if inject_realized:
        price_rows = np.vstack([price_rows, inputs.realized[None, :]])
    if cfg.mode == "unbundled":
        return _run_day_unbundled(cfg, inputs, price_rows)
    return _run_day_integrated(cfg, inputs, price_rows)


def _empty_day(cfg, inputs, tc: float, shed: float = 0.0, hp_cost: float = 0.0) -> DayResult:
    return DayResult(
        day=inputs.day, mode=cfg.mode, tc_inf=tc, tc_cleared=tc, tc_opt=tc,
        eta=None, n_bids=0, accepted_index=None, fallback=False, awarded_kw={},
        shed_kwh=shed, hp_cost_cleared=hp_cost,
        price_std=float(np.std(inputs.realized)),
        runtime={"dispatch": 0.0, "clearing": 0.0},
    )


def _solve_rows(models: Mapping[str, DispatchModel], price_rows: np.ndarray):
    """One block-diagonal solve per building over every price row;
    returns one {building id: DispatchResult} dict per row."""
    per_building = {bid: model.solve(price_rows) for bid, model in models.items()}
    return [
        {bid: results[s] for bid, results in per_building.items()}
        for s in range(price_rows.shape[0])
    ]


def _run_day_unbundled(cfg, inputs, price_rows) -> DayResult:
    dt = cfg.comfort.dt
    flex = [b for b in inputs.buildings if b.has_hp and b.p_hp_rated > 0]
    if not flex:
        return _empty_day(cfg, inputs, tc=0.0)

    t0 = time.perf_counter()
    models = {b.id: DispatchModel(b, cfg.comfort, inputs.t_out) for b in flex}
    baselines = {
        b.id: baseline_profile(b, cfg.comfort, inputs.t_out).schedule for b in flex
    }
    *schedules, opt = _solve_rows(models, np.vstack([price_rows, inputs.realized]))
    t_dispatch = time.perf_counter() - t0

    t1 = time.perf_counter()
    group, outcome, awarded, fallback = _clear_and_disaggregate(
        cfg, schedules, baselines, inputs.realized, dt
    )
    t_clearing = time.perf_counter() - t1

    tc_inf = sum(profile_cost(baselines[b.id], inputs.realized, dt) for b in flex)
    tc_cleared = sum(profile_cost(awarded[b.id], inputs.realized, dt) for b in flex)
    tc_opt = sum(opt[b.id].cost for b in flex)
    return DayResult(
        day=inputs.day, mode=cfg.mode,
        tc_inf=tc_inf, tc_cleared=tc_cleared, tc_opt=tc_opt,
        eta=efficiency(tc_inf, tc_cleared, tc_opt),
        n_bids=len(group.bids),
        accepted_index=outcome.accepted_index,
        fallback=fallback,
        awarded_kw=awarded,
        shed_kwh=0.0,
        hp_cost_cleared=tc_cleared,
        price_std=float(np.std(inputs.realized)),
        runtime={"dispatch": t_dispatch, "clearing": t_clearing},
    )


def _opf_results_to_dispatch(model: OpfModel, hp_kw: Mapping[str, np.ndarray], dt: float):
    """Wrap OPF heat-pump schedules as per-building dispatch results."""
    out = {}
    for bid, sched in hp_kw.items():
        M, m0 = model.responses[bid]
        out[bid] = DispatchResult(
            schedule=sched,
            temperatures=M @ sched + m0,
            energy=dt * float(sched.sum()),
        )
    return out


def _run_day_integrated(cfg, inputs, price_rows) -> DayResult:
    if inputs.network is None:
        raise GridMismatch("integrated mode needs the network files")
    if inputs.alloc is None:
        raise GridMismatch("integrated mode needs a building-to-node assignment")
    dt = cfg.comfort.dt

    t0 = time.perf_counter()
    model = OpfModel(
        inputs.network, inputs.buildings, inputs.alloc, cfg.comfort,
        inputs.t_out, inputs.series, voll=cfg.voll, facets=cfg.facets,
    )
    inf_sol = model.baseline_solution(inputs.realized)
    if not model.flex:
        return _empty_day(cfg, inputs, tc=inf_sol.objective_eur,
                          shed=inf_sol.shed_kwh, hp_cost=inf_sol.hp_cost_eur)
    scenario_sols = [model.solve(price_rows[s]) for s in range(price_rows.shape[0])]
    opt_sol = model.solve(inputs.realized)
    t_dispatch = time.perf_counter() - t0

    t1 = time.perf_counter()
    schedules = [_opf_results_to_dispatch(model, sol.hp_kw, dt) for sol in scenario_sols]
    group, outcome, awarded, fallback = _clear_and_disaggregate(
        cfg, schedules, model.base_kw, inputs.realized, dt
    )
    cleared_sol = model.solve(inputs.realized, hp_fixed=awarded)
    t_clearing = time.perf_counter() - t1

    tc_inf = inf_sol.objective_eur
    tc_cleared = cleared_sol.objective_eur
    tc_opt = opt_sol.objective_eur
    return DayResult(
        day=inputs.day, mode=cfg.mode,
        tc_inf=tc_inf, tc_cleared=tc_cleared, tc_opt=tc_opt,
        eta=efficiency(tc_inf, tc_cleared, tc_opt),
        n_bids=len(group.bids),
        accepted_index=outcome.accepted_index,
        fallback=fallback,
        awarded_kw=awarded,
        shed_kwh=cleared_sol.shed_kwh,
        hp_cost_cleared=cleared_sol.hp_cost_eur,
        price_std=float(np.std(inputs.realized)),
        runtime={"dispatch": t_dispatch, "clearing": t_clearing},
    )


def day_bids(cfg: CampaignConfig, inputs: DayInputs):
    """Scenarios -> dispatches -> exclusive group, without clearing it.

    This is the auction-desk view: what gets submitted before the
    realized prices exist.  Returns (group, ledger).
    """
    scen = generate_scenarios(inputs.day, cfg.s_count, inputs.history)
    dt = cfg.comfort.dt
    if cfg.mode == "unbundled":
        flex = [b for b in inputs.buildings if b.has_hp and b.p_hp_rated > 0]
        if not flex:
            raise EmptyInput("no heat pumps to bid with")
        models = {b.id: DispatchModel(b, cfg.comfort, inputs.t_out) for b in flex}
        schedules = _solve_rows(models, scen.prices)
    else:
        model = OpfModel(
            inputs.network, inputs.buildings, inputs.alloc, cfg.comfort,
            inputs.t_out, inputs.series, voll=cfg.voll, facets=cfg.facets,
        )
        if not model.flex:
            raise EmptyInput("no heat pumps to bid with")
        schedules = [
            _opf_results_to_dispatch(model, model.solve(scen.prices[s]).hp_kw, dt)
            for s in range(cfg.s_count)
        ]
    return build_exclusive_group(
        schedules, cfg.pricing_mode, max_bids=cfg.max_bids, dt=dt
    )


def perfect_foresight(cfg: CampaignConfig, inputs: DayInputs) -> float:
    """Cost of the day under known realized prices (the optimum bound)."""
    if cfg.mode == "unbundled":
        flex = [b for b in inputs.buildings if b.has_hp and b.p_hp_rated > 0]
        return sum(
            DispatchModel(b, cfg.comfort, inputs.t_out).solve(inputs.realized).cost
            for b in flex
        )
    model = OpfModel(
        inputs.network, inputs.buildings, inputs.alloc, cfg.comfort,
        inputs.t_out, inputs.series, voll=cfg.voll, facets=cfg.facets,
    )
    return model.solve(inputs.realized).objective_eur


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


def run_campaign(cfg: CampaignConfig, bundle: InstanceBundle) -> CampaignReport:
    """Run every campaign day, collecting failures instead of aborting."""
    history = bundle.price_series(cfg.forecaster)
    alloc = bundle.alloc
    if cfg.mode == "integrated" and alloc is None:
        if bundle.network is None:
            raise GridMismatch("integrated mode needs the network files")
        alloc = allocate_buildings(bundle.buildings, bundle.network)
        log.info("no assignment supplied; solved the allocation problem")

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
    alloc = bundle.alloc
    if cfg.mode == "integrated" and alloc is None:
        alloc = allocate_buildings(bundle.buildings, bundle.network)

    tc_inf_total = 0.0
    tc_opt_total = 0.0
    cleared_total = {B: 0.0 for B in b_values}
    clearing_s = {B: 0.0 for B in b_values}
    per_day: dict[int, list[float]] = {B: [] for B in b_values}

    for day in cfg.campaign_days:
        inputs = day_inputs(cfg, bundle, day, history=history, alloc=alloc)
        scen = generate_scenarios(day, cfg.s_count, inputs.history)
        dt = cfg.comfort.dt

        if cfg.mode == "unbundled":
            flex = [b for b in inputs.buildings if b.has_hp and b.p_hp_rated > 0]
            models = {b.id: DispatchModel(b, cfg.comfort, inputs.t_out) for b in flex}
            baselines = {
                b.id: baseline_profile(b, cfg.comfort, inputs.t_out).schedule for b in flex
            }
            *schedules, opt = _solve_rows(
                models, np.vstack([scen.prices, inputs.realized])
            )
            tc_inf = sum(profile_cost(baselines[b.id], inputs.realized, dt) for b in flex)
            tc_opt = sum(opt[b.id].cost for b in flex)

            def cleared_cost(awarded):
                return sum(profile_cost(awarded[b.id], inputs.realized, dt) for b in flex)
        else:
            model = OpfModel(
                inputs.network, inputs.buildings, inputs.alloc, cfg.comfort,
                inputs.t_out, inputs.series, voll=cfg.voll, facets=cfg.facets,
            )
            baselines = model.base_kw
            scenario_sols = [model.solve(scen.prices[s]) for s in range(cfg.s_count)]
            schedules = [
                _opf_results_to_dispatch(model, sol.hp_kw, dt) for sol in scenario_sols
            ]
            tc_inf = model.baseline_solution(inputs.realized).objective_eur
            tc_opt = model.solve(inputs.realized).objective_eur

            def cleared_cost(awarded):
                return model.solve(inputs.realized, hp_fixed=awarded).objective_eur

        tc_inf_total += tc_inf
        tc_opt_total += tc_opt
        for B in b_values:
            t0 = time.perf_counter()
            _, _, awarded, _ = _clear_and_disaggregate(
                cfg, schedules[:B], baselines, inputs.realized, dt
            )
            tc_c = cleared_cost(awarded)
            clearing_s[B] += time.perf_counter() - t0
            cleared_total[B] += tc_c
            per_day[B].append(tc_c)

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
