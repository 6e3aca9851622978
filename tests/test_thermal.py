"""RC model, baseline, and dispatch LP against closed-form and grid oracles."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from flexbid.errors import Infeasible, InfeasibleBaseline
from flexbid.thermal import (
    FEASIBILITY_TOL,
    OPTIMALITY_TOL,
    BuildingParams,
    ComfortConfig,
    DispatchModel,
    DispatchResult,
    baseline_profile,
    building_rows,
    check_dispatch,
    profile_cost,
    simulate_temperature,
    temperature_response,
)

CFG = ComfortConfig()  # cop 4, set-point 20, band 19..21, 24 hourly steps


def building(r_th=5.0, c_th=10.0, rated=3.0, bid="b1"):
    return BuildingParams(
        id=bid, r_th=r_th, c_th=c_th, p_hp_rated=rated, p_pv_rated=0.0,
        position=(0.0, 0.0), has_hp=True,
    )


# ------------------------------------------------------------- baseline

def test_baseline_formula_cold_day():
    # (20 - 0) / (5 * 4) = 1.0 kW, every hour
    res = baseline_profile(building(), CFG, np.zeros(24))
    assert np.allclose(res.schedule, 1.0)
    assert np.allclose(res.temperatures, CFG.t_set)
    assert res.energy == pytest.approx(24.0)


def test_baseline_zero_loss_and_clamp():
    res = baseline_profile(building(), CFG, np.full(24, CFG.t_set))
    assert np.all(res.schedule == 0.0) and res.energy == 0.0
    # warmer outside than the set-point: clamped, not negative
    res = baseline_profile(building(), CFG, np.full(24, 25.0))
    assert np.all(res.schedule == 0.0)


def test_baseline_above_rated_power_raises():
    with pytest.raises(InfeasibleBaseline):
        baseline_profile(building(rated=0.4), CFG, np.zeros(24))


# ------------------------------------------------- temperature recursion

def test_free_decay_matches_geometric_closed_form():
    b = building()
    k = CFG.dt / (b.r_th * b.c_th)
    temps = simulate_temperature(b, CFG, np.zeros(24), np.zeros(24))
    expect = CFG.t_set / (1.0 + k) ** np.arange(1, 25)
    assert np.allclose(temps, expect, atol=1e-12)
    assert np.all(np.diff(temps) < 0)


def test_baseline_schedule_holds_set_point():
    b = building()
    t_out = np.linspace(-5.0, 12.0, 24)
    base = baseline_profile(b, CFG, t_out)
    temps = simulate_temperature(b, CFG, t_out, base.schedule)
    assert np.allclose(temps, CFG.t_set, atol=1e-9)


def test_infinite_inertia_limit():
    b = building(c_th=1e6)
    temps = simulate_temperature(b, CFG, np.zeros(24), np.ones(24))
    assert np.max(np.abs(np.diff(np.concatenate([[CFG.t_set], temps])))) < 1e-3


# ------------------------------------------------------ LP constraint rows

@settings(max_examples=60, deadline=None)
@given(st.data())
def test_building_rows_hold_the_simulated_trajectory(data):
    """Any schedule and the trajectory the recursion gives it satisfy
    every row; the energy row reads the schedule's daily energy."""
    T = data.draw(st.integers(1, 48), label="T")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1), label="seed"))
    cfg = ComfortConfig(cop=rng.uniform(2.0, 5.0), dt=rng.choice([0.25, 0.5, 1.0]), horizon=T)
    b = building(r_th=rng.uniform(2, 10), c_th=rng.uniform(4, 30), rated=rng.uniform(0.5, 4))
    t_out = rng.uniform(-10.0, 20.0, T)
    p = rng.uniform(0.0, b.p_hp_rated, T)
    A, rhs, col_lo, col_hi = building_rows(b, cfg, t_out, e_base=7.0)
    x = np.concatenate([p, simulate_temperature(b, cfg, t_out, p)])
    lhs = A @ x
    assert A.shape == (T + 1, 2 * T)
    assert np.abs(lhs[:-1] - rhs[:-1]).max() <= 1e-12 * max(1.0, np.abs(x).max())
    assert lhs[-1] == pytest.approx(cfg.dt * p.sum(), rel=1e-12) and rhs[-1] == 7.0
    assert np.array_equal(col_lo, np.r_[np.zeros(T), np.full(T, cfg.t_min)])
    assert np.array_equal(col_hi, np.r_[np.full(T, b.p_hp_rated), np.full(T, cfg.t_max)])


# ------------------------------------------------------------- dispatch

def test_flat_prices_leave_cost_at_baseline():
    b = building()
    t_out = np.full(24, 10.0)
    base = baseline_profile(b, CFG, t_out)
    res = DispatchModel(b, CFG, t_out).solve(np.full(24, 80.0))
    assert res.cost == pytest.approx(80.0 * base.energy / 1000.0, rel=1e-9)


def test_degenerate_comfort_band_pins_baseline():
    cfg = ComfortConfig(t_min=20.0, t_max=20.0)
    b = building()
    t_out = np.linspace(0.0, 12.0, 24)
    base = baseline_profile(b, cfg, t_out)
    res = DispatchModel(b, cfg, t_out).solve(np.random.default_rng(0).uniform(20, 120, 24))
    assert np.allclose(res.schedule, base.schedule, atol=1e-6)


def test_cheap_hour_concentration_with_grid_oracle():
    """One cheap hour, wide band, ample rating: the LP piles energy into
    the cheap hour; exhaustive search over a 0.1 kW grid agrees."""
    cfg = ComfortConfig(t_min=0.0, t_max=40.0, horizon=4)
    b = building(rated=2.0)
    t_out = np.full(4, 10.0)   # baseline 0.5 kW/h -> e_base = 2.0 kWh
    prices = np.array([100.0, 10.0, 100.0, 100.0])
    base = baseline_profile(b, cfg, t_out)
    res = DispatchModel(b, cfg, t_out).solve(prices)
    assert np.allclose(res.schedule, [0.0, 2.0, 0.0, 0.0], atol=1e-7)

    # grid oracle: all 0.1 kW combinations with the day's exact energy
    best = np.inf
    for steps in itertools.product(range(21), repeat=4):
        if sum(steps) != 20:  # 2.0 kWh in tenths
            continue
        sched = np.array(steps) / 10.0
        temps = simulate_temperature(b, cfg, t_out, sched)
        if temps.min() < cfg.t_min - 1e-9 or temps.max() > cfg.t_max + 1e-9:
            continue
        best = min(best, profile_cost(sched, prices, cfg.dt))
    assert res.cost == pytest.approx(best, abs=1e-9)


def test_unreachable_comfort_band_raises_naming_the_building():
    # warmer outside than t_max and the heat pump cannot cool: the free
    # response leaves the band whatever the schedule, for every price row
    model = DispatchModel(building(bid="sunny"), CFG, np.full(24, 30.0))
    for prices in (np.full(24, 50.0), np.full((3, 24), 50.0)):
        with pytest.raises(Infeasible, match="building sunny"):
            model.solve(prices)


def test_infeasible_when_band_cannot_hold_energy():
    # rated power cannot hold 19 degrees on a brutally cold day
    b = building(rated=0.9)
    with pytest.raises((Infeasible, InfeasibleBaseline)):
        DispatchModel(b, CFG, np.full(24, -5.0)).solve(np.full(24, 50.0))


# ------------------------------------------------------------ invariants

@pytest.mark.parametrize("seed", range(6))
def test_dispatch_invariants_random_days(seed):
    rng = np.random.default_rng(seed)
    b = building(r_th=rng.uniform(4, 8), c_th=rng.uniform(8, 16),
                 rated=rng.uniform(1.5, 3.0))
    t_out = rng.uniform(-4.0, 14.0, 24)
    prices = rng.uniform(10.0, 150.0, 24)
    base = baseline_profile(b, CFG, t_out)
    res = DispatchModel(b, CFG, t_out).solve(prices)

    assert abs(CFG.dt * res.schedule.sum() - base.energy) <= 1e-6 * max(1.0, base.energy)
    assert res.schedule.min() >= -1e-9
    assert res.schedule.max() <= b.p_hp_rated + 1e-9
    assert res.temperatures.min() >= CFG.t_min - 1e-6
    assert res.temperatures.max() <= CFG.t_max + 1e-6
    # the baseline is feasible, so the optimum can only be cheaper
    assert res.cost <= profile_cost(base.schedule, prices, CFG.dt) + 1e-6
    # returned trajectory is the recursion applied to the schedule
    recheck = simulate_temperature(b, CFG, t_out, res.schedule)
    assert np.allclose(recheck, res.temperatures, atol=1e-6)
    assert check_dispatch(b, CFG, t_out, res.schedule, base.energy) == []


def test_convex_blends_stay_feasible():
    """Any blend of two feasible schedules is feasible — the property
    that makes partial bid acceptance executable without re-optimizing."""
    rng = np.random.default_rng(42)
    b = building()
    t_out = rng.uniform(-2.0, 12.0, 24)
    base = baseline_profile(b, CFG, t_out)
    model = DispatchModel(b, CFG, t_out)
    s1 = model.solve(rng.uniform(10, 150, 24)).schedule
    s2 = model.solve(rng.uniform(10, 150, 24)).schedule
    for theta in (0.0, 0.25, 0.5, 0.8, 1.0):
        blend = theta * s1 + (1.0 - theta) * s2
        assert check_dispatch(b, CFG, t_out, blend, base.energy) == []


def loop_reference(model: DispatchModel, price_rows: np.ndarray) -> list:
    """One dense linprog per price row over the condensed comfort rows."""
    cfg, b = model.cfg, model.building
    M, m0 = temperature_response(b, cfg, model.t_out)
    out = []
    for prices in price_rows:
        res = linprog(
            prices * cfg.dt / 1000.0,
            A_ub=np.vstack([M, -M]),
            b_ub=np.concatenate([cfg.t_max - m0, m0 - cfg.t_min]),
            A_eq=np.full((1, cfg.horizon), cfg.dt),
            b_eq=[model.e_base],
            bounds=[(0.0, b.p_hp_rated)] * cfg.horizon,
            method="highs",
            options={"primal_feasibility_tolerance": FEASIBILITY_TOL,
                     "dual_feasibility_tolerance": OPTIMALITY_TOL},
        )
        assert res.status == 0
        out.append(res)
    return out


def test_model_reuse_matches_one_shot_dispatch():
    rng = np.random.default_rng(5)
    b = building()
    t_out = rng.uniform(-2.0, 10.0, 24)
    base = baseline_profile(b, CFG, t_out)
    model = DispatchModel(b, CFG, t_out)
    price_rows = rng.uniform(10.0, 150.0, (6, 24))
    batch = model.solve(price_rows)
    assert isinstance(batch, list) and len(batch) == len(price_rows)
    for prices, a, ref in zip(price_rows, batch, loop_reference(model, price_rows)):
        single = model.solve(prices)
        assert isinstance(single, DispatchResult)
        c = DispatchModel(b, CFG, t_out).solve(prices)
        assert a.cost == pytest.approx(c.cost, abs=1e-9)
        assert single.cost == pytest.approx(c.cost, abs=1e-9)
        assert np.max(np.abs(a.schedule - ref.x)) <= 1e-9
        assert abs(a.cost - ref.fun) <= 1e-9
        assert a.energy == pytest.approx(base.energy, rel=1e-9)
        assert np.allclose(a.temperatures, simulate_temperature(b, CFG, t_out, a.schedule),
                           atol=1e-9)
        assert check_dispatch(b, CFG, t_out, a.schedule, base.energy) == []


def test_solve_rejects_misshapen_prices():
    model = DispatchModel(building(), CFG, np.full(24, 5.0))
    for bad in (np.zeros(23), np.zeros((2, 23)), np.zeros((0, 24)), np.zeros((1, 2, 24))):
        with pytest.raises(ValueError, match="prices must have shape"):
            model.solve(bad)


def test_sweep_reuses_the_schedule_of_a_repeated_vertex():
    # the third row returns to the first row's prices along a warm path;
    # it ends on the first row's vertex, so its schedule repeats byte for byte
    rng = np.random.default_rng(0)
    b = building(r_th=rng.uniform(4, 8), c_th=rng.uniform(8, 16), rated=rng.uniform(1.5, 3.0))
    model = DispatchModel(b, CFG, rng.uniform(-4.0, 10.0, 24))
    p0, p1 = rng.uniform(10.0, 150.0, (2, 24))
    r0, r1, r2 = model.solve(np.array([p0, p1, p0]))
    assert not np.allclose(r0.schedule, r1.schedule)
    assert r2.schedule.tobytes() == r0.schedule.tobytes()
    assert r2.cost == r0.cost


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_sweep_matches_one_linprog_per_row(data):
    """Random buildings, days and (S, 24) price stacks: every swept row
    costs what a cold one-row linprog costs and passes check_dispatch."""
    S = data.draw(st.integers(1, 12), label="S")
    seed = data.draw(st.integers(0, 2**31 - 1), label="seed")
    rng = np.random.default_rng(seed)
    b = building(r_th=rng.uniform(4, 9), c_th=rng.uniform(6, 18), rated=rng.uniform(1.5, 3.5))
    t_out = rng.uniform(-4.0, 14.0, 24)
    base = baseline_profile(b, CFG, t_out)
    model = DispatchModel(b, CFG, t_out)
    price_rows = rng.uniform(-20.0, 200.0, (S, 24))
    for _ in range(data.draw(st.integers(0, S - 1), label="repeats")):
        price_rows[rng.integers(1, S)] = price_rows[rng.integers(0, S)]
    for res, ref in zip(model.solve(price_rows), loop_reference(model, price_rows)):
        assert abs(res.cost - ref.fun) <= 1e-9
        assert check_dispatch(b, CFG, t_out, res.schedule, base.energy) == []
