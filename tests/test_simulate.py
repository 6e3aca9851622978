"""Campaign orchestration: the benchmark, day pipeline, and reports."""

import copy
import csv
import dataclasses
from datetime import date

import numpy as np
import pytest

from flexbid.errors import GridMismatch, InvalidOrdering, SchemaError
from flexbid.grid import allocate_buildings
from flexbid.simulate import (
    REPORT_HEADER,
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
)

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
    cfg = cfg_for(small_bundle, s_count=4, max_bids=24)
    res = run_day(cfg, day_inputs(cfg, small_bundle, START), inject_realized=True)
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
            day=date(2025, 1, 1), mode="unbundled", tc_inf=inf, tc_cleared=cleared,
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


def test_eta_undefined_campaign(small_bundle):
    bundle = copy.copy(small_bundle)
    bundle.realized = {d: np.full(24, 62.0) for d in bundle.realized}
    bundle.forecast = {d: np.full(24, 62.0) for d in bundle.forecast}
    cfg = cfg_for(bundle, days=2)
    report = run_campaign(cfg, bundle)
    assert report.eta_weighted is None and report.eta_mean is None


# ------------------------------------------------------- efficiency curve

def test_bid_budget_curve_is_monotone(small_bundle):
    cfg = cfg_for(small_bundle, days=3, s_count=8, max_bids=8)
    rows = efficiency_vs_bids(cfg, small_bundle, b_values=(1, 2, 4, 8))
    etas = [r["eta"] for r in rows]
    assert all(e is not None for e in etas)
    for lo, hi in zip(etas, etas[1:]):
        assert hi >= lo - 1e-9
    assert [r["max_bids"] for r in rows] == [1, 2, 4, 8]


def test_bid_budget_cannot_exceed_scenarios(small_bundle):
    cfg = cfg_for(small_bundle, s_count=4)
    with pytest.raises(ValueError, match="exceeds the scenario count"):
        efficiency_vs_bids(cfg, small_bundle, b_values=(1, 8))


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
