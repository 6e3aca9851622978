"""End-to-end acceptance checks, one printed verdict line per property.

Each test decides a single headline claim about the toolkit — oracle
equivalences, conservation laws, trend shapes, hand-computed network
values, runtime scaling — and records a PASS/FAIL line with the
achieved numbers.  The collected lines are echoed after the run (see
pytest_terminal_summary in conftest), so this module doubles as the
release checklist.
"""

import dataclasses
import itertools
import math
import statistics
import time
from datetime import date

import numpy as np
import pytest

from flexbid.bidding import BlockBid, ExclusiveGroup, disaggregate
from flexbid.clearing import clear, clear_oracle
from flexbid.grid import (
    GridTimeSeries,
    Line,
    Node,
    OpfModel,
    RadialNetwork,
    allocate_buildings,
    verify_solution,
)
from flexbid.scenarios import generate_scenarios
from flexbid.simulate import (
    CampaignConfig,
    day_bids,
    day_inputs,
    efficiency_vs_bids,
    run_campaign,
    run_day,
)
from flexbid.synthetic import SyntheticSpec, generate_instance
from flexbid.thermal import (
    BuildingParams,
    ComfortConfig,
    DispatchModel,
    baseline_profile,
    check_dispatch,
)

COMFORT = ComfortConfig()
START = date(2025, 1, 11)  # ten warm-up days before the first delivery

LINES: list[str] = []


def record(name: str, ok: bool, detail: str) -> None:
    """One verdict line per acceptance property; fails the test with it."""
    line = f"{name}: {'PASS' if ok else 'FAIL'} ({detail})"
    LINES.append(line)
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def bundle30():
    """30 buildings (9 heat pumps) over 40 days: the campaign workhorse."""
    spec = SyntheticSpec(n_buildings=30, hp_share_pct=30.0, n_days=40, seed=1)
    return generate_instance(spec)


@pytest.fixture(scope="module")
def report30(bundle30):
    cfg = CampaignConfig(start=START, days=30, s_count=8, max_bids=8)
    return run_campaign(cfg, bundle30)


@pytest.fixture(scope="module")
def stressed_pair(stressed_bundle):
    """The same four delivery days in both market modes."""
    cfg_u = CampaignConfig(start=START, days=4, s_count=8, max_bids=8)
    cfg_i = dataclasses.replace(cfg_u, mode="integrated")
    return run_campaign(cfg_u, stressed_bundle), run_campaign(cfg_i, stressed_bundle)


def test_clearing_equals_the_enumeration_oracle():
    rng = np.random.default_rng(424242)
    agree = True
    worst = 0.0
    t0 = time.perf_counter()
    for _ in range(1000):
        n = int(rng.integers(1, 25))
        profiles = rng.normal(0.0, 2.0, size=(n, 24))  # MW, mixed signs
        declared = rng.normal(0.0, 1500.0, size=n)
        group = ExclusiveGroup(
            bids=[BlockBid(profile=profiles[j], price=float(declared[j]))
                  for j in range(n)]
        )
        realized = rng.normal(60.0, 45.0, size=24)
        fast = clear(group, realized)
        slow = clear_oracle(group, realized)
        worst = max(worst, abs(fast.surplus - slow.surplus))
        agree &= fast.accepted_index == slow.accepted_index
        agree &= bool(np.array_equal(fast.alpha, slow.alpha))
    elapsed = time.perf_counter() - t0
    record(
        "clearing oracle equivalence",
        agree and worst <= 1e-9 and elapsed < 5.0,
        f"1000 seeded groups, max surplus gap {worst:.2e} EUR, {elapsed:.2f} s",
    )


def test_disaggregation_reassembles_the_accepted_bid():
    spec = SyntheticSpec(n_buildings=12, hp_share_pct=30.0, n_days=110, seed=11)
    bundle = generate_instance(spec)
    cfg = CampaignConfig(start=START, days=100, s_count=6, max_bids=6)
    history = bundle.price_series(cfg.forecaster)
    accepted = 0
    worst_mw = 0.0
    problems: list[str] = []
    for day in cfg.campaign_days:
        inputs = day_inputs(cfg, bundle, day, history=history)
        group, ledger = day_bids(cfg, inputs)
        outcome = clear(group, inputs.realized)
        if outcome.accepted_index is None:
            continue
        accepted += 1
        # the ledger's resources are the heat pumps, in sorted id order
        ids = sorted(b.id for b in inputs.buildings if b.has_hp and b.p_hp_rated > 0)
        awarded = dict(zip(ids, disaggregate(ledger, outcome.alpha)))
        total_mw = sum(awarded.values()) / 1000.0
        target_mw = sum(a * bid.profile for a, bid in zip(outcome.alpha, group.bids))
        worst_mw = max(worst_mw, float(np.abs(total_mw - target_mw).max()))
        for b in inputs.buildings:
            if not (b.has_hp and b.p_hp_rated > 0):
                continue
            e_base = baseline_profile(b, COMFORT, inputs.t_out).energy
            problems += check_dispatch(
                b, COMFORT, inputs.t_out, awarded[b.id], e_base, tol=1e-6
            )
    record(
        "disaggregation consistency",
        accepted == 100 and worst_mw <= 1e-9 and not problems,
        f"{accepted}/100 days accepted, max hourly mismatch {worst_mw:.2e} MW, "
        f"{len(problems)} thermal re-check violations",
    )


def test_awarded_schedules_conserve_baseline_energy(
    report30, bundle30, stressed_pair, stressed_bundle
):
    worst = 0.0
    count = 0
    for report, bundle in ((report30, bundle30), (stressed_pair[1], stressed_bundle)):
        by_id = {b.id: b for b in bundle.buildings}
        for d in report.days:
            t_out = bundle.weather[d.day]
            for bid, sched in d.awarded_kw.items():
                e_base = baseline_profile(by_id[bid], COMFORT, t_out).energy
                energy = COMFORT.dt * float(np.sum(sched))
                worst = max(worst, abs(energy - e_base) / max(1.0, e_base))
                count += 1
    record(
        "energy conservation",
        count > 0 and worst <= 1e-6,
        f"{count} dispatched building-days, max relative drift {worst:.2e}",
    )


def test_injected_realized_prices_recover_full_efficiency(bundle30):
    cfg = CampaignConfig(start=START, days=30, s_count=8, max_bids=24)
    history = bundle30.price_series(cfg.forecaster)
    undefined = 0
    worst = 0.0
    for day in cfg.campaign_days:
        # the day's forecast is its realized prices: scenario row 0
        known = dataclasses.replace(
            history, forecast={**history.forecast, day: bundle30.realized[day]})
        res = run_day(cfg, day_inputs(cfg, bundle30, day, history=known))
        if res.eta is None:
            undefined += 1
        else:
            worst = max(worst, abs(res.eta - 1.0))
    record(
        "perfect-foresight recovery",
        undefined == 0 and worst <= 1e-4,
        f"30 days, max |eta - 1| = {worst:.2e}, {undefined} days undefined",
    )


def test_efficiency_rises_with_the_bid_budget(bundle30):
    budgets = (1, 2, 4, 8, 16, 24)
    cfg = CampaignConfig(start=START, days=30, s_count=24, max_bids=24)
    reports = efficiency_vs_bids(cfg, bundle30, b_values=budgets)
    etas = [rep.eta_weighted for rep in reports]
    defined = not reports[0].failures and all(e is not None for e in etas)
    mono = defined and all(b >= a - 1e-9 for a, b in zip(etas, etas[1:]))
    gain = (etas[-1] - etas[0]) if defined else float("nan")
    curve = ", ".join(f"B={b}: {e:.4f}" for b, e in zip(budgets, etas))
    record(
        "efficiency vs bid budget",
        defined and mono and gain > 0.0,
        f"{curve}; gain {gain:.4f}",
    )


def test_naive_forecaster_keeps_efficiency_high(bundle30):
    cfg = CampaignConfig(
        start=START, days=30, s_count=24, max_bids=24, forecaster="naive"
    )
    (report,) = efficiency_vs_bids(cfg, bundle30, b_values=(24,))
    eta = report.eta_weighted
    record(
        "persistence-forecast efficiency",
        not report.failures and eta is not None and eta >= 0.90,
        f"eta(B=24) = {eta:.4f} over 30 days, floor 0.90",
    )


def test_voltage_and_overload_hand_values():
    series = GridTimeSeries(slf=np.ones(4), cf=np.zeros(4), rar=0.0)
    nodes = {
        0: Node(id=0, ancestor_id=None, is_substation=True, s_rating_kva=20000.0),
        1: Node(id=1, ancestor_id=0, p_cap_kw=500.0),
    }

    def solved(rating_pu):
        lines = [Line(from_id=1, to_id=0, r_pu=0.01, x_pu=0.0, s_rating_pu=rating_pu)]
        net = RadialNetwork(nodes=nodes, lines=lines, s_base_kva=1000.0)
        model = OpfModel(net, [], {}, COMFORT, np.zeros(4), series)
        return model.solve(np.full(4, 50.0))

    # healthy line: U_child = 1 - 2 * 0.01 * 0.5 = 0.99; nothing shed
    sol = solved(rating_pu=10.0)
    u_gap = float(np.abs(sol.u_pu2[0] - 0.99).max())
    # line rated below the 0.5 pu demand: the exact excess is shed
    sol2 = solved(rating_pu=0.4)
    shed_gap = float(np.abs(sol2.shed_kw[0] / 1000.0 - 0.1).max())
    record(
        "linearized-flow hand values",
        u_gap <= 1e-9 and sol.shed_kwh == 0.0 and shed_gap <= 1e-6,
        f"two-bus voltage off by {u_gap:.2e} pu^2, "
        f"overload shed off by {shed_gap:.2e} pu",
    )


def test_generous_ratings_never_shed(stressed_bundle):
    net = stressed_bundle.network
    nodes = {
        nid: (dataclasses.replace(n, s_rating_kva=10.0 * n.s_rating_kva)
              if n.is_substation else n)
        for nid, n in net.nodes.items()
    }
    lines = [dataclasses.replace(ln, s_rating_pu=10.0 * ln.s_rating_pu)
             for ln in net.lines]
    big = RadialNetwork(nodes=nodes, lines=lines, s_base_kva=net.s_base_kva)
    alloc = allocate_buildings(stressed_bundle.buildings, big)

    shed_total = 0.0
    max_fill = 0.0  # apparent power over the true circle rating
    u_lo, u_hi = math.inf, -math.inf
    issues: list[str] = []
    for day in stressed_bundle.dates:
        series = GridTimeSeries(
            slf=stressed_bundle.slf[day], cf=stressed_bundle.cf[day], rar=0.05
        )
        model = OpfModel(big, stressed_bundle.buildings, alloc, COMFORT,
                         stressed_bundle.weather[day], series)
        realized = stressed_bundle.realized[day]
        pinned = model.solve(realized, hp_fixed=dict(zip(model.ids, model.baseline)))
        for sol in (model.solve(realized), pinned):
            shed_total += sol.shed_kwh
            issues += verify_solution(model, sol)
            for i, ln in enumerate(big.tree.lines):
                sq = sol.flow_p_pu[i] ** 2 + sol.flow_q_pu[i] ** 2
                max_fill = max(max_fill, math.sqrt(float(sq.max())) / ln.s_rating_pu)
            pcc_sq = sol.pcc_p_pu**2 + sol.pcc_q_pu**2
            max_fill = max(max_fill, math.sqrt(float(pcc_sq.max())) / model.s_sub_pu)
            u_lo = min(u_lo, float(sol.u_pu2.min()))
            u_hi = max(u_hi, float(sol.u_pu2.max()))
    voltage_ok = u_lo >= 0.97**2 - 1e-9 and u_hi <= 1.03**2 + 1e-9
    record(
        "network safety at 10x ratings",
        shed_total == 0.0 and max_fill <= 1.0 + 1e-9 and voltage_ok and not issues,
        f"14 days x 2 dispatches: shed {shed_total:.1f} kWh, worst circle fill "
        f"{max_fill:.3f}, voltage in [{math.sqrt(u_lo):.4f}, {math.sqrt(u_hi):.4f}] pu, "
        f"{len(issues)} re-check issues",
    )


def test_runtime_scales_with_resources_and_bids():
    t_wall = time.perf_counter()

    def bundle_of(n_buildings):
        spec = SyntheticSpec(
            n_buildings=n_buildings, hp_share_pct=100.0, n_days=12, seed=0
        )
        return generate_instance(spec)

    def dispatch_seconds(bundle, s_count):
        cfg = CampaignConfig(start=START, days=1, s_count=s_count, max_bids=24)
        inputs = day_inputs(cfg, bundle, START)
        scen = generate_scenarios(START, s_count, inputs.history)
        flex = [b for b in inputs.buildings if b.has_hp and b.p_hp_rated > 0]
        t0 = time.perf_counter()
        DispatchModel(flex, COMFORT, inputs.t_out).solve(scen)
        return time.perf_counter() - t0

    b200, b400 = bundle_of(200), bundle_of(400)
    # the timings of one ratio run back to back, so drift in the host's
    # speed between repeats cancels out of each ratio
    ratios_r, ratios_b, t200s, t400s = [], [], [], []
    for _ in range(5):
        t200 = dispatch_seconds(b200, 24)
        t400 = dispatch_seconds(b400, 24)
        t200_b4 = dispatch_seconds(b200, 4)
        t200s.append(t200)
        t400s.append(t400)
        ratios_r.append(t400 / t200)
        ratios_b.append(t200 / (t200_b4 * (24 / 4)))
    ratio_r = statistics.median(ratios_r)
    ratio_b = statistics.median(ratios_b)
    total = time.perf_counter() - t_wall
    record(
        "runtime scaling",
        ratio_r <= 2.5 and ratio_b <= 2.5 and total < 300.0,
        f"400 vs 200 resources at 24 scenarios: median {statistics.median(t400s):.2f}s / "
        f"{statistics.median(t200s):.2f}s, median pair ratio {ratio_r:.2f} (cap 2.5); "
        f"24 scenarios vs 6x the 4-scenario time: median pair ratio {ratio_b:.2f} "
        f"(cap 2.5); total {total:.0f}s < 300s",
    )


def test_cost_orderings_hold_on_every_simulated_day(report30, stressed_pair):
    rep_u, rep_i = stressed_pair
    n_days = 0
    worst_vs_cleared = -math.inf
    worst_vs_inf = -math.inf
    for rep in (report30, rep_u, rep_i):
        for d in rep.days:
            n_days += 1
            worst_vs_cleared = max(worst_vs_cleared, d.tc_opt - d.tc_cleared)
            worst_vs_inf = max(worst_vs_inf, d.tc_opt - d.tc_inf)
    ordered = worst_vs_cleared <= 1e-6 and worst_vs_inf <= 1e-6
    mode_gaps = [
        di.tc_cleared - du.tc_cleared for du, di in zip(rep_u.days, rep_i.days)
    ]
    complete = not (report30.failures or rep_u.failures or rep_i.failures)
    record(
        "cost orderings",
        ordered and complete and len(mode_gaps) == 4
        and all(g >= -1e-6 for g in mode_gaps),
        f"{n_days} simulated days: max(opt - cleared) = {worst_vs_cleared:.2e}, "
        f"max(opt - inflexible) = {worst_vs_inf:.2e}; grid-coupled minus "
        f"market-only cost per day min {min(mode_gaps):+.2e} EUR",
    )


def _star_network(caps, positions):
    nodes = {0: Node(id=0, ancestor_id=None, is_substation=True, s_rating_kva=1000.0)}
    lines = []
    for i, (cap, pos) in enumerate(zip(caps, positions), start=1):
        nodes[i] = Node(id=i, ancestor_id=0, p_cap_kw=cap, position=pos)
        lines.append(Line(from_id=i, to_id=0, r_pu=0.01, x_pu=0.0, s_rating_pu=10.0))
    return RadialNetwork(nodes=nodes, lines=lines)


def _assignment_cost(buildings, net, assign):
    return sum(
        math.dist(b.position, net.nodes[assign[b.id]].position) for b in buildings
    )


def test_allocation_matches_its_oracles():
    rng = np.random.default_rng(7)

    worst_greedy = 0.0
    for _ in range(25):
        nn = int(rng.integers(1, 6))
        nb = int(rng.integers(1, 9))
        positions = [tuple(p) for p in rng.uniform(0.0, 10.0, size=(nn, 2))]
        net = _star_network([1e6] * nn, positions)
        buildings = [
            BuildingParams(
                id=f"b{j}", r_th=5.0, c_th=10.0,
                p_hp_rated=float(rng.uniform(2.0, 6.0)),
                position=tuple(rng.uniform(0.0, 10.0, size=2)),
            )
            for j in range(nb)
        ]
        out = allocate_buildings(buildings, net)
        greedy = sum(
            min(math.dist(b.position, p) for p in positions) for b in buildings
        )
        worst_greedy = max(
            worst_greedy, abs(_assignment_cost(buildings, net, out) - greedy)
        )

    worst_enum = 0.0
    tight_cases = 0
    while tight_cases < 15:
        nn = int(rng.integers(2, 5))
        nb = int(rng.integers(2, 5))
        caps = rng.uniform(4.0, 6.0, size=nn)
        ratings = rng.uniform(2.0, 4.0, size=nb)
        if ratings.sum() > caps.sum():
            continue
        positions = [tuple(p) for p in rng.uniform(0.0, 10.0, size=(nn, 2))]
        net = _star_network(list(caps), positions)
        buildings = [
            BuildingParams(
                id=f"b{j}", r_th=5.0, c_th=10.0, p_hp_rated=float(ratings[j]),
                position=tuple(rng.uniform(0.0, 10.0, size=2)),
            )
            for j in range(nb)
        ]
        sites = [n.id for n in net.nodes.values() if not n.is_substation]
        best = math.inf
        any_infeasible = False
        for combo in itertools.product(sites, repeat=nb):
            load = {s: 0.0 for s in sites}
            for b, s in zip(buildings, combo):
                load[s] += b.p_hp_rated
            if any(load[s] > net.nodes[s].p_cap_kw + 1e-12 for s in sites):
                any_infeasible = True
                continue
            assign = {b.id: s for b, s in zip(buildings, combo)}
            best = min(best, _assignment_cost(buildings, net, assign))
        if not any_infeasible or not math.isfinite(best):
            continue  # capacity never bound (or nothing fits): not a tight case
        tight_cases += 1
        out = allocate_buildings(buildings, net)
        worst_enum = max(
            worst_enum, abs(_assignment_cost(buildings, net, out) - best)
        )

    record(
        "allocation oracle",
        worst_greedy <= 1e-9 and worst_enum <= 1e-9,
        f"25 nearest-node cases off by {worst_greedy:.2e}; "
        f"15 tight-capacity cases off enumeration by {worst_enum:.2e}",
    )
