"""Rolling day-ahead campaign and the benchmark around it.

Every delivery day runs one pipeline whatever the market mode: price
scenarios from forecast-residual history, one cost-minimal dispatch per
scenario, the dispatches aggregated into an exclusive group of block
bids, the group cleared against realized prices, and the award
disaggregated back to the individual buildings.  Every day bids its
first min(S, max_bids) scenarios, each at `CampaignConfig.bid_price`
per MWh of its own energy, and dispatches only those and the realized
row; `efficiency_vs_bids` settles one dispatch at several bid budgets.
Only the dispatch step depends on the mode, so it sits behind a small
dispatcher: `_Fleet` solves each distinct price row once, over
block-diagonal LPs of up to `thermal.BLOCK` independent heat pumps,
dealt by time constant, each block after the first taking the block
before's optimal vertices where they still hold (unbundled utility),
`_Network` one network OPF over all of them (integrated utility).
Schedules travel as `(S, R, T)` arrays: scenario, resource (building
ids sorted), hour.

A campaign hands each day's `DayResult.end_status`, the vertex status
its dispatch ended on (`lp.HighsSweep.solve`), to the next day as its
start; a failed day hands on nothing.  `_Network` sweeps its distinct
rows as two halves from that start, the second on a worker thread when
two CPUs are usable, and the second half's last status is handed on.
`run_day` handed the day before's end_status repeats a campaign day
byte for byte; started cold, it costs the same but may settle on
different alternative optima.

Three totals frame each day: tc_inf (heat pumps stay on their baseline
schedules), tc_cleared (the executed award), and tc_opt (dispatch under
perfect price foresight).  Aggregation efficiency is the share of the
theoretically available savings the auction actually delivered:
(tc_inf - tc_cleared) / (tc_inf - tc_opt).
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field, replace
from datetime import date, timedelta
from pathlib import Path
from typing import ClassVar, Mapping, Sequence

import numpy as np

from .bidding import MAX_BIDS, build_exclusive_group, disaggregate
from .clearing import clear
from .errors import EmptyInput, FlexbidError, GridMismatch, InvalidOrdering
from .grid import (
    DEFAULT_FACETS,
    MAX_FACETS,
    VOLL_EUR_MWH,
    GridTimeSeries,
    OpfModel,
    RadialNetwork,
    allocate_buildings,
)
from .ingest import FORECASTERS, MAX_PRICE_EUR_MWH, InstanceBundle, settings, write_csv
from .scenarios import PriceSeries, generate_scenarios
from .thermal import BuildingParams, ComfortConfig, DispatchModel, flexible, profile_cost

log = logging.getLogger(__name__)

MODES = ("unbundled", "integrated")
PRICINGS = ("truthful", "mabp")


@dataclass(frozen=True)
class CampaignConfig:
    """Everything that shapes a simulation run, with market defaults.
    Each day bids its first min(s_count, max_bids) scenarios, each at
    bid_price per MWh of its own energy.  Every campaign shares one
    comfort band, COP and hourly step, `comfort`."""

    start: date
    days: int
    s_count: int = 24
    max_bids: int = MAX_BIDS
    mode: str = "unbundled"
    pricing: str = "truthful"
    forecaster: str = "column"
    facets: int = DEFAULT_FACETS
    rar: float = GridTimeSeries.rar
    voll: float = VOLL_EUR_MWH
    price_cap: float = 4000.0
    comfort: ClassVar[ComfortConfig] = ComfortConfig()

    def __post_init__(self):
        if self.days < 1:
            raise ValueError("campaign needs at least one day")
        if self.days > (date.max - self.start).days + 1:
            raise ValueError(f"days: {self.days} days from {self.start} run past {date.max}")
        if self.s_count < 1 or self.max_bids < 1:
            raise ValueError("s_count and max_bids must be >= 1")
        if self.max_bids > MAX_BIDS:
            raise ValueError(f"exclusive groups admit at most {MAX_BIDS} bids")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.pricing not in PRICINGS:
            raise ValueError(f"pricing must be one of {PRICINGS}")
        if self.forecaster not in FORECASTERS:
            raise ValueError(f"forecaster must be one of {FORECASTERS}")
        if not 3 <= self.facets <= MAX_FACETS:
            raise ValueError(f"facets must lie in 3..{MAX_FACETS}: a rating polygon needs "
                             "three sides, and one per degree fills its circle")
        if not self.rar >= 0:
            raise ValueError("rar must be >= 0")
        # a negative value of lost load would price shedding as a gain, and
        # one past the price limit outweighs, in each bid's price, the
        # payment gaps clearing ranks the bids by
        for name, value in (("voll", self.voll), ("price_cap", self.price_cap)):
            if not 0 < value <= MAX_PRICE_EUR_MWH:
                raise ValueError(f"{name} must be > 0 and at most {MAX_PRICE_EUR_MWH:g} "
                                 f"EUR/MWh, got {value!r}")

    @property
    def bid_rows(self) -> int:
        """Scenario rows a day dispatches and bids: min(s_count, max_bids)."""
        return min(self.s_count, self.max_bids)

    @property
    def bid_ceiling(self) -> int:
        """The largest bid budget a day can use: min(s_count, MAX_BIDS)."""
        return min(self.s_count, MAX_BIDS)

    @property
    def bid_price(self) -> float:
        """EUR/MWh of every bid: voll when truthful, price_cap for mabp."""
        return self.voll if self.pricing == "truthful" else self.price_cap

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
        """Read the keys to_dict writes, checked and typed by
        ingest.settings; start and days are required, and any other key
        left out keeps its default."""
        kw = settings(raw, cls(start=date.min, days=1).to_dict(), "campaign",
                      required=("start", "days"))
        kw["s_count"] = kw.pop("scenarios", cls.s_count)
        return cls(**kw)


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
    end_status: np.ndarray | None = None  # the day's last dispatch vertex status


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
    """Unbundled dispatch: one DispatchModel over every heat pump, no network."""

    def __init__(self, cfg: CampaignConfig, inputs: DayInputs):
        flex = flexible(inputs.buildings)
        self.dt = cfg.comfort.dt
        self.ids = [b.id for b in flex]
        self.model = DispatchModel(flex, cfg.comfort, inputs.t_out)
        self.baseline = self.model.baseline
        self.solve = self.model.solve

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
        self.ids, self.baseline = self.model.ids, self.model.baseline
        self.solve = self.model.solve_rows

    def evaluate(self, prices: np.ndarray, award: np.ndarray) -> tuple[float, float, float]:
        sol = self.model.solve(prices, hp_fixed=dict(zip(self.ids, award)))
        return sol.objective_eur, sol.shed_kwh, sol.hp_cost_eur


def _dispatcher(cfg: CampaignConfig, inputs: DayInputs) -> _Fleet | _Network:
    """The mode's dispatch step; the rest of the day is mode-blind.

    A dispatcher exposes ids (sorted building ids), baseline (R, T),
    solve(price_rows, start) -> (X[S, R, T], cost[S]), evaluate(prices,
    award[R, T]) -> (cost, shed_kwh, hp_cost) and its model.  solve is
    the model's own: `DispatchModel.solve`, whose costs add the heat
    pumps' energy costs in id order, or `OpfModel.solve_rows`, whose
    costs are the OPF objectives; each starts from the vertex status
    `start` and keeps its last as model.end_status.  The OPF's sweep runs
    as two halves from that start, the second on a worker thread when two
    CPUs are usable; its answers do not depend on the CPU count.
    """
    return _Fleet(cfg, inputs) if cfg.mode == "unbundled" else _Network(cfg, inputs)


@dataclass(frozen=True)
class _Dispatched:
    """One day's dispatch, before any bid.  X (B + 1, R, T) and cost hold
    the B = bid_rows scenario rows then the realized row, None without
    heat pumps;
    inflexible is the baselines' evaluate() at the realized prices."""

    disp: _Fleet | _Network
    X: np.ndarray | None
    cost: np.ndarray | None
    inflexible: tuple[float, float, float]
    seconds: float


def _dispatch(cfg: CampaignConfig, inputs: DayInputs, start: np.ndarray | None) -> _Dispatched:
    """Scenarios -> the mode's dispatcher -> tc_inf, then one solve over
    the cfg.bid_rows scenario rows a day can bid plus the realized row,
    whose optimum is tc_opt, started from the vertex status `start`
    (`HighsSweep.solve`)."""
    price_rows = generate_scenarios(inputs.day, cfg.bid_rows, inputs.history)
    t0 = time.perf_counter()
    disp = _dispatcher(cfg, inputs)
    inflexible = disp.evaluate(inputs.realized, disp.baseline)
    X = cost = None
    if disp.ids:
        X, cost = disp.solve(np.vstack([price_rows, inputs.realized]), start)
    return _Dispatched(disp, X, cost, inflexible, time.perf_counter() - t0)


def _settle(cfg: CampaignConfig, inputs: DayInputs, day: _Dispatched) -> DayResult:
    """Bids -> clearing -> award: the first cfg.bid_rows scenario
    dispatches make the exclusive group, which clears against the
    realized prices; the award is then evaluated there."""
    disp, dt = day.disp, cfg.comfort.dt
    tc_inf, shed_kwh, hp_cost = day.inflexible
    result = dict(day=inputs.day, tc_inf=tc_inf, price_std=float(np.std(inputs.realized)),
                  end_status=disp.model.end_status)
    if day.X is None:
        return DayResult(
            **result, tc_cleared=tc_inf, tc_opt=tc_inf, eta=None, n_bids=0,
            accepted_index=None, fallback=False, awarded_kw={}, shed_kwh=shed_kwh,
            hp_cost_cleared=hp_cost, runtime={"dispatch": day.seconds, "clearing": 0.0},
        )
    t0 = time.perf_counter()
    # X ends with the realized row, which the slice never reaches
    group, ledger = build_exclusive_group(
        day.X[:cfg.bid_rows], cfg.bid_price, cfg.max_bids, dt
    )
    outcome = clear(group, inputs.realized, dt=dt)
    fallback = outcome.accepted_index is None
    if fallback:
        log.info("all %d bids rejected; executing baseline schedules", len(group.bids))
        award = disp.baseline.copy()
    else:
        award = disaggregate(ledger, outcome.alpha)
    tc_cleared, shed_kwh, hp_cost = disp.evaluate(inputs.realized, award)
    t_clearing = time.perf_counter() - t0

    tc_opt = float(day.cost[-1])
    return DayResult(
        **result, tc_cleared=tc_cleared, tc_opt=tc_opt,
        eta=efficiency(tc_inf, tc_cleared, tc_opt),
        n_bids=len(group.bids),
        accepted_index=outcome.accepted_index,
        fallback=fallback,
        awarded_kw=dict(zip(disp.ids, award)),
        shed_kwh=shed_kwh,
        hp_cost_cleared=hp_cost,
        runtime={"dispatch": day.seconds, "clearing": t_clearing},
    )


def run_day(cfg: CampaignConfig, inputs: DayInputs, start: np.ndarray | None = None) -> DayResult:
    """The full pipeline for one delivery day, its dispatch started from `start`, or cold."""
    return _settle(cfg, inputs, _dispatch(cfg, inputs, start))


def day_bids(cfg: CampaignConfig, inputs: DayInputs):
    """Scenarios -> dispatches -> exclusive group, without clearing it.

    This is the auction-desk view: what gets submitted before the
    realized prices exist: the first cfg.bid_rows scenarios only.
    Returns (group, ledger), resources in sorted building-id order.
    """
    price_rows = generate_scenarios(inputs.day, cfg.bid_rows, inputs.history)
    disp = _dispatcher(cfg, inputs)
    if not disp.ids:
        raise EmptyInput("no heat pumps to bid with")
    X, _ = disp.solve(price_rows)
    return build_exclusive_group(X, cfg.bid_price, cfg.max_bids, cfg.comfort.dt)


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


def _each_day(cfg: CampaignConfig, bundle: InstanceBundle, step) -> tuple[list, list]:
    """step(inputs, start) on every campaign day: the day's DayResults,
    one per bid budget, where start is the day before's end_status, None
    on the first day.  A day that raises a FlexbidError is recorded as
    failed, the next day starts cold, and the campaign goes on.
    Returns (the steps' results, [(day, message)] of the failed days)."""
    history = bundle.price_series(cfg.forecaster)
    alloc = campaign_alloc(cfg, bundle)
    results = []
    failures: list[tuple[date, str]] = []
    start = None
    for day in cfg.campaign_days:
        try:
            inputs = day_inputs(cfg, bundle, day, history=history, alloc=alloc)
            results.append(step(inputs, start))
            start = results[-1][0].end_status
        except FlexbidError as exc:
            start = None
            failures.append((day, f"{type(exc).__name__}: {exc}"))
            log.error("day %s failed: %s", day, exc)
    return results, failures


def run_campaign(cfg: CampaignConfig, bundle: InstanceBundle) -> CampaignReport:
    """Run every campaign day, collecting failures instead of aborting."""
    days, failures = _each_day(cfg, bundle, lambda inputs, start: [run_day(cfg, inputs, start)])
    return CampaignReport(config=cfg, days=[day for day, in days], failures=failures,
                          n_flexible=len(flexible(bundle.buildings)))


def efficiency_vs_bids(
    cfg: CampaignConfig,
    bundle: InstanceBundle,
    b_values: Sequence[int],
) -> list[CampaignReport]:
    """The campaign at each bid budget B, on shared dispatches: one
    report per budget, ascending, each with max_bids=B in its config.

    Each day is dispatched once, at the largest budget's scenario rows
    (a prefix of the cfg.s_count stack), and every budget B clears the
    exclusive group built from its first B scenarios, so the scenario
    sets are nested by construction.  A day
    that fails, fails at every budget, and the sweep goes on.
    """
    b_values = sorted(set(b_values))
    if not b_values or b_values[0] < 1 or b_values[-1] > cfg.bid_ceiling:
        raise ValueError(f"bid budgets must lie in 1..{cfg.bid_ceiling}: none below 1, none "
                         f"that exceeds the scenario count or the {MAX_BIDS}-bid cap; "
                         f"got {b_values}")
    cfgs = [replace(cfg, max_bids=B) for B in b_values]

    def sweep(inputs: DayInputs, start: np.ndarray | None) -> list[DayResult]:
        day = _dispatch(cfgs[-1], inputs, start)
        return [_settle(c, inputs, day) for c in cfgs]

    days, failures = _each_day(cfg, bundle, sweep)
    return [
        CampaignReport(config=c, days=[budgets[i] for budgets in days],
                       failures=list(failures), n_flexible=len(flexible(bundle.buildings)))
        for i, c in enumerate(cfgs)
    ]


# ---------------------------------------------------------------- output

REPORT_HEADER = [
    "date", "tc_inf_eur", "tc_cleared_eur", "tc_opt_eur", "eta", "shed_kwh",
    "price_std_eur_mwh", "runtime_dispatch_s", "runtime_clearing_s",
    "n_bids", "accepted_index", "fallback", "hp_cost_eur",
]


def write_report_csv(path: str | Path, report: CampaignReport) -> None:
    write_csv(path, REPORT_HEADER, (
        [
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
        ]
        for d in report.days
    ))


def write_schedules_csv(path: str | Path, report: CampaignReport) -> None:
    """Awarded per-building schedules, one row per building and step of
    each schedule, however many steps its day has."""
    def rows():
        for d in report.days:
            day = d.day.isoformat()
            for bid in sorted(d.awarded_kw):
                for h, kw in enumerate(np.asarray(d.awarded_kw[bid], dtype=float).tolist()):
                    yield [day, bid, str(h), f"{kw:.6f}"]

    write_csv(path, ["date", "building_id", "hour", "p_hp_kw"], rows())
