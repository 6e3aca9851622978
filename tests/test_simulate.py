"""Campaign orchestration: the benchmark, day pipeline, and reports."""

import copy
import csv
import dataclasses
import math
import warnings
from datetime import date

import numpy as np
import pytest
from scipy.optimize._highspy import _core

from flexbid import simulate
from flexbid.bidding import MAX_BIDS
from flexbid.errors import EmptyInput, GridMismatch, InvalidOrdering, SchemaError
from flexbid.grid import OpfModel, allocate_buildings
from flexbid.ingest import MAX_PRICE_EUR_MWH
from flexbid.simulate import (
    REPORT_HEADER,
    _Network,
    CampaignConfig,
    CampaignReport,
    DayResult,
    day_bids,
    day_inputs,
    efficiency,
    efficiency_vs_bids,
    run_campaign,
    run_day,
    write_report_csv,
    write_schedules_csv,
)
from flexbid.thermal import ComfortConfig, DispatchModel

START = date(2025, 1, 11)  # leaves ten days of price history for scenarios


def cfg_for(bundle, **kw):
    kw.setdefault("start", START)
    kw.setdefault("days", 4)
    kw.setdefault("s_count", 6)
    kw.setdefault("max_bids", 6)
    return CampaignConfig(**kw)


# ------------------------------------------------------------- efficiency

def test_efficiency_is_the_savings_share():
    assert efficiency(100.0, 92.0, 90.0) == pytest.approx(0.8)
    assert efficiency(100.0, 90.0, 90.0) == pytest.approx(1.0)
    assert efficiency(100.0, 100.0, 90.0) == pytest.approx(0.0)


def test_efficiency_undefined_without_headroom():
    assert efficiency(100.0, 100.0, 100.0) is None
    assert efficiency(100.0, 100.0, 100.0 - 1e-12) is None


def test_efficiency_rejects_impossible_ordering():
    with pytest.raises(InvalidOrdering):
        efficiency(100.0, 95.0, 101.0)


@pytest.mark.parametrize("excess, raises", [(9.0, False), (100.0, True)])
def test_ordering_slack_scales_with_the_cost(excess, raises):
    # at 1e7 EUR the slack is 1e-6 * 1e7 = 10 EUR of solver round-off
    tc_inf = 1e7
    if raises:
        with pytest.raises(InvalidOrdering):
            efficiency(tc_inf, tc_inf, tc_inf + excess)
    else:
        assert efficiency(tc_inf, tc_inf, tc_inf + excess) is None


def test_overperforming_clearing_reports_above_one():
    # cleared below the perfect-foresight cost is reported, not clamped
    assert efficiency(100.0, 88.0, 90.0) == pytest.approx(1.2)


# ---------------------------------------------------------------- run_day

def test_day_must_be_covered(small_bundle):
    cfg = cfg_for(small_bundle)
    with pytest.raises(GridMismatch, match="2031-01-01"):
        day_inputs(cfg, small_bundle, date(2031, 1, 1))


def test_run_day_orderings_hold(small_bundle):
    cfg = cfg_for(small_bundle)
    res = run_day(cfg, day_inputs(cfg, small_bundle, START))
    assert res.tc_opt <= res.tc_cleared + 1e-9
    assert res.tc_opt <= res.tc_inf + 1e-9
    assert res.n_bids >= 1
    assert res.accepted_index is not None and not res.fallback
    assert set(res.awarded_kw) == {
        b.id for b in small_bundle.buildings if b.has_hp
    }


def test_injected_realized_price_recovers_perfect_foresight(small_bundle):
    # the delivery day's forecast is its realized prices, so they are
    # scenario row 0 and clearing must recover the perfect-foresight outcome
    bundle = copy.copy(small_bundle)
    bundle.forecast = {**bundle.forecast, START: bundle.realized[START].copy()}
    cfg = cfg_for(bundle, s_count=4, max_bids=24)
    res = run_day(cfg, day_inputs(cfg, bundle, START))
    assert res.eta == pytest.approx(1.0, abs=1e-9)
    assert res.tc_cleared == pytest.approx(res.tc_opt, abs=1e-9)


def test_single_scenario_with_perfect_forecast_is_optimal(small_bundle):
    bundle = copy.copy(small_bundle)
    bundle.forecast = {d: v.copy() for d, v in bundle.realized.items()}
    cfg = cfg_for(bundle, s_count=1, max_bids=1)
    res = run_day(cfg, day_inputs(cfg, bundle, START))
    assert res.eta == pytest.approx(1.0, abs=1e-9)


def test_flat_prices_leave_nothing_to_win(small_bundle):
    cfg = cfg_for(small_bundle)
    inputs = day_inputs(cfg, small_bundle, START)
    flat = dataclasses.replace(inputs, realized=np.full(24, 70.0))
    res = run_day(cfg, flat)
    assert res.tc_cleared == pytest.approx(res.tc_inf, abs=1e-6)
    assert res.eta is None  # a flat day offers no savings at all


def test_absurd_prices_trigger_the_baseline_fallback(small_bundle):
    # beyond the value of lost load every purchase bid is unprofitable; a
    # sloped day keeps some savings on the table, so eta lands exactly at 0
    cfg = cfg_for(small_bundle)
    inputs = day_inputs(cfg, small_bundle, START)
    spike = dataclasses.replace(
        inputs, realized=np.linspace(24000.0, 26000.0, 24)
    )
    res = run_day(cfg, spike)
    assert res.fallback and res.accepted_index is None
    assert res.eta == pytest.approx(0.0, abs=1e-9)  # baselines = inflexible cost


@pytest.mark.parametrize("mode", ["unbundled", "integrated"])
def test_no_heat_pumps_is_a_quiet_day(small_bundle, mode):
    # integrated, the network dispatch still runs, with no hp or
    # temperature columns; its cost is the fixed load's
    bundle = copy.copy(small_bundle)
    bundle.buildings = [
        dataclasses.replace(b, has_hp=False) for b in bundle.buildings
    ]
    cfg = cfg_for(bundle, mode=mode)
    alloc = allocate_buildings(bundle.buildings, bundle.network)
    res = run_day(cfg, day_inputs(cfg, bundle, START, alloc=alloc))
    assert res.tc_inf == res.tc_cleared == res.tc_opt
    assert res.eta is None and res.n_bids == 0
    if mode == "unbundled":
        assert res.tc_inf == 0.0


def test_network_heat_pumps_come_in_id_order(stressed_bundle):
    """The OPF orders its heat pumps by building id, as the unbundled
    fleet does: a shuffled building list builds the same LP and sweeps to
    the same bytes, and the integrated dispatcher's ids are the model's."""
    cfg = cfg_for(stressed_bundle, mode="integrated", start=stressed_bundle.dates[-1])
    alloc = allocate_buildings(stressed_bundle.buildings, stressed_bundle.network)
    inputs = day_inputs(cfg, stressed_bundle, cfg.start, alloc=alloc)
    order = np.random.default_rng(2).permutation(len(inputs.buildings))
    shuffled = [inputs.buildings[i] for i in order]
    hp = [b.id for b in shuffled if b.has_hp and b.p_hp_rated > 0]
    assert hp != sorted(hp)

    def model(buildings):
        return OpfModel(inputs.network, buildings, alloc, cfg.comfort, inputs.t_out,
                        inputs.series, voll=cfg.voll, facets=cfg.facets)

    ref, got = model(inputs.buildings), model(shuffled)
    assert ref.ids == got.ids == sorted(hp)
    assert got.baseline.tobytes() == ref.baseline.tobytes()
    for name in ("data", "indices", "indptr"):
        assert getattr(got.A, name).tobytes() == getattr(ref.A, name).tobytes()
    assert got.row_lo.tobytes() == ref.row_lo.tobytes()
    assert got.row_hi.tobytes() == ref.row_hi.tobytes()
    rows = np.vstack([inputs.realized, inputs.realized[::-1]])
    for a, b in zip(ref.solve_rows(rows), got.solve_rows(rows)):
        assert a.tobytes() == b.tobytes()
    assert _Network(cfg, inputs).ids == ref.ids


def test_unbundled_day_is_deterministic(small_bundle):
    cfg = cfg_for(small_bundle)
    a = run_day(cfg, day_inputs(cfg, small_bundle, START))
    b = run_day(cfg, day_inputs(cfg, small_bundle, START))
    assert (a.tc_inf, a.tc_cleared, a.tc_opt, a.eta) == (
        b.tc_inf, b.tc_cleared, b.tc_opt, b.eta
    )
    for bid in a.awarded_kw:
        assert np.array_equal(a.awarded_kw[bid], b.awarded_kw[bid])


# ----------------------------------------------------------- both modes

def test_integrated_day_matches_unbundled_on_roomy_grid(small_bundle):
    # the 30 % share leaves the feeder slack, so the two modes agree on
    # eta; total costs differ only by the fixed-load term
    unb = run_day(cfg_for(small_bundle),
                  day_inputs(cfg_for(small_bundle), small_bundle, START))
    cfg_i = cfg_for(small_bundle, mode="integrated")
    alloc = allocate_buildings(small_bundle.buildings, small_bundle.network)
    integ = run_day(cfg_i, day_inputs(cfg_i, small_bundle, START, alloc=alloc))
    assert integ.shed_kwh == 0.0
    assert integ.eta == pytest.approx(unb.eta, abs=1e-4)
    offset_inf = integ.tc_inf - unb.tc_inf
    offset_opt = integ.tc_opt - unb.tc_opt
    assert offset_inf == pytest.approx(offset_opt, abs=1e-4)


@pytest.mark.parametrize("mode", ["unbundled", "integrated"])
def test_bid_desk_submits_what_the_campaign_clears(small_bundle, mode):
    cfg = cfg_for(small_bundle, mode=mode)
    alloc = allocate_buildings(small_bundle.buildings, small_bundle.network)
    inputs = day_inputs(cfg, small_bundle, START, alloc=alloc)
    group, ledger = day_bids(cfg, inputs)
    assert len(group.bids) == run_day(cfg, inputs).n_bids
    assert ledger.schedules_kw.shape == (cfg.s_count, 4, 24)


@pytest.mark.parametrize("mode", ["unbundled", "integrated"])
def test_bid_desk_without_heat_pumps_has_nothing_to_bid(small_bundle, mode):
    bundle = copy.copy(small_bundle)
    bundle.buildings = [dataclasses.replace(b, has_hp=False) for b in bundle.buildings]
    cfg = cfg_for(bundle, mode=mode)
    alloc = allocate_buildings(bundle.buildings, bundle.network)
    with pytest.raises(EmptyInput, match="^no heat pumps to bid with$"):
        day_bids(cfg, day_inputs(cfg, bundle, START, alloc=alloc))


@pytest.mark.parametrize("missing, message", [
    ("network", "integrated mode needs the network files"),
    ("alloc", "integrated mode needs a building-to-node assignment"),
])
def test_integrated_day_needs_a_network_and_an_assignment(small_bundle, missing, message):
    cfg = cfg_for(small_bundle, mode="integrated")
    alloc = allocate_buildings(small_bundle.buildings, small_bundle.network)
    inputs = dataclasses.replace(day_inputs(cfg, small_bundle, START, alloc=alloc),
                                 **{missing: None})
    with pytest.raises(GridMismatch, match=f"^{message}$"):
        run_day(cfg, inputs)


def test_integrated_campaign_auto_allocates(small_bundle):
    cfg = cfg_for(small_bundle, days=2, mode="integrated")
    report = run_campaign(cfg, small_bundle)
    assert not report.failures
    assert len(report.days) == 2
    for d in report.days:
        assert d.tc_opt <= d.tc_cleared + 1e-9 <= d.tc_inf + d.tc_cleared + 1e-9


# ------------------------------------------------------------- campaigns

def test_campaign_totals_are_day_sums(small_bundle):
    cfg = cfg_for(small_bundle, days=3)
    report = run_campaign(cfg, small_bundle)
    assert not report.failures and len(report.days) == 3
    assert report.tc_inf_total == pytest.approx(sum(d.tc_inf for d in report.days))
    assert report.savings_eur == pytest.approx(
        report.tc_inf_total - report.tc_cleared_total
    )
    assert report.n_flexible == 4
    assert report.savings_per_hp_eur == pytest.approx(report.savings_eur / 4)
    assert report.runtime_total("dispatch") > 0.0


def test_weighted_and_mean_eta_aggregate_differently():
    def day(inf, cleared, opt):
        return DayResult(
            day=date(2025, 1, 1), tc_inf=inf, tc_cleared=cleared,
            tc_opt=opt, eta=efficiency(inf, cleared, opt), n_bids=1,
            accepted_index=0, fallback=False, awarded_kw={}, shed_kwh=0.0,
            hp_cost_cleared=0.0, price_std=0.0, runtime={"dispatch": 0, "clearing": 0},
        )

    report = CampaignReport(
        config=None, days=[day(100, 95, 90), day(10, 10, 8)], failures=[],
        n_flexible=1,
    )
    # weighted: realized 5 of 12 attainable; mean: (0.5 + 0.0) / 2
    assert report.eta_weighted == pytest.approx(5.0 / 12.0)
    assert report.eta_mean == pytest.approx(0.25)


@pytest.mark.parametrize("steps", [4, 24, 30])
def test_schedules_csv_writes_each_award_at_its_own_length(tmp_path, steps):
    """A day has as many steps as its data: a 4-step award writes 4 rows
    (once an IndexError), a 30-step one 30 (once cut to 24)."""
    award = np.linspace(0.0, 1.5, steps)
    day = DayResult(
        day=date(2025, 1, 2), tc_inf=1.0, tc_cleared=1.0, tc_opt=1.0, eta=None, n_bids=1,
        accepted_index=0, fallback=False, awarded_kw={"b2": award, "b1": award[::-1]},
        shed_kwh=0.0, hp_cost_cleared=0.0, price_std=0.0, runtime={},
    )
    path = tmp_path / "schedules.csv"
    write_schedules_csv(path, CampaignReport(config=None, days=[day, day], failures=[],
                                             n_flexible=2))
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["date", "building_id", "hour", "p_hp_kw"]
    assert len(rows) == 1 + 2 * 2 * steps
    assert rows[1:1 + steps] == [["2025-01-02", "b1", str(h), f"{kw:.6f}"]
                                 for h, kw in enumerate(award[::-1])]
    assert rows[1 + steps:1 + 2 * steps] == [["2025-01-02", "b2", str(h), f"{kw:.6f}"]
                                             for h, kw in enumerate(award)]


def test_eta_undefined_campaign(small_bundle):
    bundle = copy.copy(small_bundle)
    bundle.realized = {d: np.full(24, 62.0) for d in bundle.realized}
    bundle.forecast = {d: np.full(24, 62.0) for d in bundle.forecast}
    cfg = cfg_for(bundle, days=2)
    report = run_campaign(cfg, bundle)
    assert report.eta_weighted is None and report.eta_mean is None


# ------------------------------------------------ starts carried day to day

def answers(d: DayResult) -> tuple:
    """What a day says, byte for byte, all but its timings and its end status."""
    return ({key: val for key, val in vars(d).items()
             if key not in ("runtime", "awarded_kw", "end_status")},
            {bid: sched.tobytes() for bid, sched in d.awarded_kw.items()})


@pytest.mark.parametrize("mode", ["unbundled", "integrated"])
def test_every_carried_start_is_taken(small_bundle, monkeypatch, mode):
    # a status row that HiGHS refused as a basis would leave every day
    # cold without a sign: the same answers at more pivots
    days, run_day = [], simulate.run_day

    class StartHighs(_core._Highs):
        def setBasis(self, basis):
            status = super().setBasis(basis)
            days[-1].append(status != _core.HighsStatus.kError)
            return status

    def logged(cfg, inputs, start=None):
        days.append([start is not None])
        return run_day(cfg, inputs, start)

    monkeypatch.setattr(_core, "_Highs", StartHighs)
    monkeypatch.setattr(simulate, "run_day", logged)
    report = run_campaign(cfg_for(small_bundle, days=5, mode=mode), small_bundle)
    assert not report.failures
    # each day after the first is handed a start, and no start is refused
    assert [day[0] for day in days] == [False] + [True] * 4
    assert all(all(day[1:]) for day in days)
    # a start is taken whenever the day's LP has the day before's shape:
    # the heat-pump blocks always do, the OPF when it keeps as many facets
    sizes = [d.end_status.size for d in report.days]
    fits = [a == b for a, b in zip(sizes, sizes[1:])]
    assert [len(day) > 1 for day in days[1:]] == fits
    assert all(fits) if mode == "unbundled" else fits == [False, False, True, True]


@pytest.mark.parametrize("mode", ["unbundled", "integrated"])
def test_a_campaign_repeats_byte_for_byte(small_bundle, mode):
    cfg = cfg_for(small_bundle, days=3, mode=mode)
    first, again = run_campaign(cfg, small_bundle), run_campaign(cfg, small_bundle)
    assert len(first.days) == 3
    assert [answers(d) for d in first.days] == [answers(d) for d in again.days]


@pytest.mark.parametrize("mode", ["unbundled", "integrated"])
def test_the_day_after_a_failed_day_starts_cold(small_bundle, mode):
    # no weather for the third day: the fourth starts as a campaign that
    # begins on it does, not from the second day's bases
    bundle = copy.copy(small_bundle)
    cfg = cfg_for(bundle, days=4, mode=mode)
    *_, gap, last = cfg.campaign_days
    bundle.weather = {d: v for d, v in bundle.weather.items() if d != gap}
    report = run_campaign(cfg, bundle)
    assert [day for day, _ in report.failures] == [gap]
    (alone,) = run_campaign(dataclasses.replace(cfg, start=last, days=1), bundle).days
    assert answers(report.days[-1]) == answers(alone)


@pytest.mark.parametrize("mode", ["unbundled", "integrated"])
def test_a_residual_day_past_the_float_range_fails_its_day_alone(small_bundle, mode):
    # every cell is finite, but the day before the first campaign day has
    # a residual of 1e308 - (-1e308): the one day it shifts fails, quietly
    bundle = copy.copy(small_bundle)
    cfg = cfg_for(bundle, days=2, s_count=2, mode=mode)
    first, second = cfg.campaign_days
    before = first - (second - first)
    bundle.realized, bundle.forecast = dict(bundle.realized), dict(bundle.forecast)
    bundle.realized[before] = np.r_[-1e308, bundle.realized[before][1:]]
    bundle.forecast[before] = np.r_[1e308, bundle.forecast[before][1:]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = run_campaign(cfg, bundle)
    assert report.failures == [(first, f"InsufficientHistory: day {first}: the residual of "
                                       f"history day {before} leaves the float range")]
    assert [d.day for d in report.days] == [second]


def test_a_day_whose_pinned_evaluation_fails_fails_alone(small_bundle, monkeypatch):
    # the second day's OPF is handed a pinned schedule above its first heat
    # pump's rating; OpfModel.solve refuses it, and the third day still runs
    cfg = cfg_for(small_bundle, days=3, mode="integrated")
    solve, models = OpfModel.solve, []

    def overrated_on_the_second_day(model, prices, hp_fixed=None):
        if not any(m is model for m in models):
            models.append(model)
        if hp_fixed and len(models) == 2:
            hp = model.ids[0]
            hp_fixed = {**hp_fixed, hp: hp_fixed[hp] + model.flex[0].p_hp_rated + 1.0}
        return solve(model, prices, hp_fixed)

    monkeypatch.setattr(OpfModel, "solve", overrated_on_the_second_day)
    report = run_campaign(cfg, small_bundle)
    first, bad, last = cfg.campaign_days
    assert [day for day, _ in report.failures] == [bad]
    assert report.failures[0][1].startswith(f"Infeasible: fixed schedule for {models[1].ids[0]}")
    assert [d.day for d in report.days] == [first, last]


@pytest.mark.parametrize("mode", ["unbundled", "integrated"])
def test_campaign_days_cost_what_days_run_alone_cost(small_bundle, mode):
    # each campaign day starts from the day before's end_status: run_day
    # alone, handed the same start, says the same bytes; started cold, its
    # schedules may differ between alternative optima, its costs may not
    cfg = cfg_for(small_bundle, days=3, mode=mode)
    alloc = allocate_buildings(small_bundle.buildings, small_bundle.network)
    start = None
    for d in run_campaign(cfg, small_bundle).days:
        inputs = day_inputs(cfg, small_bundle, d.day, alloc=alloc)
        alone = run_day(cfg, inputs, start=start)
        assert answers(alone) == answers(d)
        assert alone.end_status.tobytes() == d.end_status.tobytes()
        start = d.end_status
        cold = run_day(cfg, inputs)
        for key in ("tc_inf", "tc_cleared", "tc_opt"):
            assert getattr(d, key) == pytest.approx(getattr(cold, key), rel=1e-6), key


# ------------------------------------------------------- efficiency curve

def test_bid_budget_curve_is_monotone(small_bundle):
    cfg = cfg_for(small_bundle, days=3, s_count=8, max_bids=8)
    reports = efficiency_vs_bids(cfg, small_bundle, b_values=(1, 2, 4, 8))
    etas = [rep.eta_weighted for rep in reports]
    assert all(e is not None for e in etas)
    for lo, hi in zip(etas, etas[1:]):
        assert hi >= lo - 1e-9
    assert [rep.config.max_bids for rep in reports] == [1, 2, 4, 8]
    assert all(len(rep.days) == 3 and not rep.failures for rep in reports)


@pytest.mark.parametrize("mode", ["unbundled", "integrated"])
def test_full_bid_budget_is_the_campaign(small_bundle, mode):
    # at B = S the sweep settles the very day run_campaign runs
    cfg = cfg_for(small_bundle, days=2, mode=mode)
    (swept,) = efficiency_vs_bids(cfg, small_bundle, b_values=(cfg.s_count,))
    report = run_campaign(cfg, small_bundle)
    assert swept.config == report.config
    assert [(d.tc_inf, d.tc_cleared, d.tc_opt, d.eta, d.n_bids) for d in swept.days] == [
        (d.tc_inf, d.tc_cleared, d.tc_opt, d.eta, d.n_bids) for d in report.days
    ]


@pytest.mark.parametrize("pricing", ["truthful", "mabp"])
@pytest.mark.parametrize("mode", ["unbundled", "integrated"])
def test_a_bid_budget_below_the_scenario_count_is_the_sweep_at_that_budget(
        small_bundle, mode, pricing):
    # max_bids < S bids the first max_bids scenarios, as the sweep does;
    # it used to fail every day once their distinct profiles outnumbered it
    cfg = cfg_for(small_bundle, days=2, mode=mode, pricing=pricing)
    (swept,) = efficiency_vs_bids(cfg, small_bundle, b_values=[4])
    report = run_campaign(dataclasses.replace(cfg, max_bids=4), small_bundle)
    assert report.failures == [] and len(report.days) == 2
    assert [(d.tc_inf, d.tc_cleared, d.tc_opt, d.n_bids, d.accepted_index)
            for d in report.days] == [
        (d.tc_inf, d.tc_cleared, d.tc_opt, d.n_bids, d.accepted_index) for d in swept.days
    ]


def test_a_day_dispatches_only_the_rows_it_can_bid(small_bundle, monkeypatch):
    # S = 24 at a budget of 4 solves the 4 bid rows and the realized row,
    # and settles as S = 4 does
    rows = []
    solve = DispatchModel.solve
    monkeypatch.setattr(DispatchModel, "solve",
                        lambda self, prices, start=None: rows.append(len(prices))
                        or solve(self, prices, start))
    wide = cfg_for(small_bundle, s_count=24, max_bids=4)
    narrow = cfg_for(small_bundle, s_count=4, max_bids=4)
    got = run_day(wide, day_inputs(wide, small_bundle, START))
    assert rows == [5]
    want = run_day(narrow, day_inputs(narrow, small_bundle, START))
    for f in dataclasses.fields(DayResult):
        if f.name not in ("runtime", "awarded_kw", "end_status"):
            assert getattr(got, f.name) == getattr(want, f.name), f.name
    assert got.awarded_kw.keys() == want.awarded_kw.keys()
    assert all(got.awarded_kw[k].tobytes() == want.awarded_kw[k].tobytes()
               for k in got.awarded_kw)
    # the bid-budget sweep dispatches each day at its largest budget
    rows.clear()
    efficiency_vs_bids(cfg_for(small_bundle, days=2, s_count=8), small_bundle, b_values=(1, 4, 2))
    assert rows == [5, 5]


def test_bid_budget_sweep_records_a_failed_day_and_goes_on(small_bundle):
    # no weather for the second day: it fails at every budget, and the
    # days on either side of it are settled
    bundle = copy.copy(small_bundle)
    cfg = cfg_for(bundle, days=3)
    first, gap, last = cfg.campaign_days
    bundle.weather = {d: v for d, v in bundle.weather.items() if d != gap}
    reports = efficiency_vs_bids(cfg, bundle, b_values=(1, 6))
    for rep in reports:
        assert [d.day for d in rep.days] == [first, last]
        assert rep.failures == [(gap, f"GridMismatch: weather data does not cover {gap}")]


def test_bid_budget_sweep_without_heat_pumps_is_quiet(small_bundle):
    bundle = copy.copy(small_bundle)
    bundle.buildings = [dataclasses.replace(b, has_hp=False) for b in bundle.buildings]
    (rep,) = efficiency_vs_bids(cfg_for(bundle, days=1), bundle, b_values=(2,))
    assert rep.eta_weighted is None and rep.days[0].n_bids == 0


def test_bid_budget_cannot_exceed_scenarios(small_bundle):
    cfg = cfg_for(small_bundle, s_count=4)
    with pytest.raises(ValueError, match="exceeds the scenario count"):
        efficiency_vs_bids(cfg, small_bundle, b_values=(1, 8))


def test_bid_budget_cannot_exceed_the_group_cap(small_bundle):
    # 30 scenarios would fit 25 bids, but no exclusive group holds them;
    # the budget is rejected before the first day runs
    cfg = cfg_for(small_bundle, s_count=30)
    with pytest.raises(ValueError, match=r"1\.\.24: "):
        efficiency_vs_bids(cfg, small_bundle, b_values=(2, 25))


# ---------------------------------------------------------------- report

def test_report_csv_format(tmp_path, small_bundle):
    cfg = cfg_for(small_bundle, days=2)
    report = run_campaign(cfg, small_bundle)
    out = tmp_path / "report.csv"
    write_report_csv(out, report)
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(REPORT_HEADER)
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == START.isoformat()
    assert float(first[1]) >= float(first[3])  # tc_inf >= tc_opt

    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    # the day's answers keep columns 1-7; the explanation is appended last
    assert list(rows[0])[:7] == ["date", "tc_inf_eur", "tc_cleared_eur", "tc_opt_eur",
                                 "eta", "shed_kwh", "price_std_eur_mwh"]
    assert list(rows[0])[-4:] == ["n_bids", "accepted_index", "fallback", "hp_cost_eur"]
    for row, d in zip(rows, report.days):
        assert int(row["n_bids"]) == d.n_bids >= 1
        assert row["accepted_index"] == ("" if d.accepted_index is None
                                         else str(d.accepted_index))
        assert row["fallback"] == str(int(d.fallback))
        assert (row["accepted_index"] == "") == d.fallback
        assert float(row["hp_cost_eur"]) == pytest.approx(d.hp_cost_cleared, abs=1e-6)
        # unbundled: the executed heat-pump cost is the whole cleared cost
        assert float(row["hp_cost_eur"]) == pytest.approx(float(row["tc_cleared_eur"]),
                                                          abs=1e-6)


def test_config_dict_roundtrip():
    cfg = CampaignConfig(start=START, days=7, s_count=12, mode="integrated",
                         pricing="mabp")
    assert CampaignConfig.from_dict(cfg.to_dict()) == cfg


def test_config_rejects_unknown_keys():
    # a misspelt key must not fall back to its default silently
    with pytest.raises(SchemaError, match="scenarioz"):
        CampaignConfig.from_dict({"start": "2025-01-11", "days": 1, "scenarioz": 2})
    # the seed key is gone: nothing in a campaign reads it
    with pytest.raises(SchemaError, match="seed"):
        CampaignConfig.from_dict({"start": "2025-01-11", "days": 1, "seed": 0})


@pytest.mark.parametrize("key, value", [
    # once read as days=2, s_count=6 and voll=1.0
    ("days", 2.7), ("scenarios", "6"), ("voll", True), ("start", "2025-13-01"),
    # a whole number no float holds once ended in an OverflowError
    pytest.param("voll", int("9" * 401), id="voll-401-digits"),
])
def test_config_refuses_values_to_dict_would_not_write(key, value):
    raw = {"start": "2025-01-11", "days": 1, key: value}
    with pytest.raises(SchemaError, match=f"campaign.{key}"):
        CampaignConfig.from_dict(raw)


def test_config_types_its_values_like_to_dict():
    cfg = CampaignConfig.from_dict({"start": "2025-01-11", "days": 1, "voll": 3000})
    assert cfg.start == START and isinstance(cfg.voll, float)
    with pytest.raises(SchemaError, match="missing key: campaign.days"):
        CampaignConfig.from_dict({"start": "2025-01-11"})


def test_config_refuses_days_past_the_last_date():
    # campaign_days once ran into an OverflowError
    with pytest.raises(ValueError, match="^days: 100000000 days from 2025-01-11 run past"):
        CampaignConfig(start=START, days=100_000_000)
    last = (date.max - START).days + 1
    assert CampaignConfig(start=START, days=last).days == last  # ends on date.max
    with pytest.raises(ValueError, match="^days: "):
        CampaignConfig(start=START, days=last + 1)


def test_the_bid_ceiling_is_the_lesser_of_the_scenario_count_and_the_cap():
    assert CampaignConfig(start=START, days=1, s_count=4).bid_ceiling == 4
    assert CampaignConfig(start=START, days=1, s_count=30).bid_ceiling == MAX_BIDS


def test_every_campaign_shares_one_comfort_setting():
    cfg = CampaignConfig(start=START, days=1)
    assert cfg.comfort == ComfortConfig() and "comfort" not in cfg.to_dict()
    with pytest.raises(TypeError):
        CampaignConfig(start=START, days=1, comfort=ComfortConfig(t_min=15.0))


def test_config_validation():
    with pytest.raises(ValueError):
        CampaignConfig(start=START, days=0)
    with pytest.raises(ValueError):
        CampaignConfig(start=START, days=1, mode="vertical")
    with pytest.raises(ValueError):
        CampaignConfig(start=START, days=1, pricing="posted")
    with pytest.raises(ValueError):
        CampaignConfig(start=START, days=1, s_count=0)
    with pytest.raises(ValueError):
        CampaignConfig(start=START, days=1, max_bids=25)


@pytest.mark.parametrize("setting", [
    {"facets": 2}, {"facets": 361}, {"facets": 10**8}, {"rar": -0.1}, {"rar": math.nan},
    {"voll": -5.0}, {"voll": math.nan}, {"voll": math.inf}, {"voll": 0.0}, {"price_cap": -1.0, "pricing": "truthful"},
    {"price_cap": math.inf, "pricing": "mabp"},
    # past the price limit each bid's voll x energy once outweighed the
    # payment gaps clearing compares: voll 1e13 moved a day's accepted bid
    {"voll": 1e6 * (1 + 1e-9)}, {"voll": 1e13},
    {"price_cap": 1e6 * (1 + 1e-9), "pricing": "mabp"}, {"price_cap": 1e13, "pricing": "truthful"},
], ids=lambda setting: ",".join(f"{key}={val}" for key, val in setting.items()))
def test_config_rejects_settings_it_would_misuse(setting):
    # caught here, not by the first day's OpfModel or in the bid prices
    (name,) = set(setting) - {"pricing"}
    with pytest.raises(ValueError, match=name):
        CampaignConfig(start=START, days=1, **setting)


def test_config_accepts_bid_prices_up_to_the_price_limit():
    cfg = CampaignConfig(start=START, days=1, voll=MAX_PRICE_EUR_MWH, price_cap=MAX_PRICE_EUR_MWH)
    assert cfg.voll == cfg.price_cap == 1e6
