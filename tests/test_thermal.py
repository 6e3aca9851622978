"""RC model, baseline, and dispatch LP against closed-form and grid oracles."""

import itertools

import numpy as np
import pytest
from scipy import sparse
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from flexbid.errors import Infeasible, InfeasibleBaseline
from flexbid.lp import FEASIBILITY_TOL, OPTIMALITY_TOL
from flexbid.thermal import (
    BLOCK,
    BuildingParams,
    ComfortConfig,
    DispatchModel,
    baseline_profile,
    check_dispatch,
    fleet_rows,
    profile_cost,
    simulate_temperature,
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
def test_fleet_rows_hold_the_simulated_trajectory(data):
    """Any schedule and the trajectory the recursion gives it satisfy
    every row of a one-building fleet; the energy row reads the
    schedule's daily energy and is set at the baseline's."""
    T = data.draw(st.integers(1, 48), label="T")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1), label="seed"))
    cfg = ComfortConfig(cop=rng.uniform(2.0, 5.0), dt=rng.choice([0.25, 0.5, 1.0]), horizon=T)
    r_th, c_th = rng.uniform(2, 10), rng.uniform(4, 30)
    t_out = rng.uniform(-10.0, 20.0, T)
    need = max(0.0, (cfg.t_set - t_out).max()) / (r_th * cfg.cop)  # the baseline's peak
    b = building(r_th=r_th, c_th=c_th, rated=need + rng.uniform(0.5, 4))
    p = rng.uniform(0.0, b.p_hp_rated, T)
    A, rhs, col_lo, col_hi, baseline, power = fleet_rows([b], cfg, t_out)
    base = baseline_profile(b, cfg, t_out)
    x = np.concatenate([p, simulate_temperature(b, cfg, t_out, p)])
    lhs = A @ x
    assert A.shape == (T + 1, 2 * T)
    assert np.array_equal(x[power], p[None])
    assert np.abs(lhs[:-1] - rhs[:-1]).max() <= 1e-12 * max(1.0, np.abs(x).max())
    assert lhs[-1] == pytest.approx(cfg.dt * p.sum(), rel=1e-12) and rhs[-1] == base.energy
    assert np.array_equal(col_lo, np.r_[np.zeros(T), np.full(T, cfg.t_min)])
    assert np.array_equal(col_hi, np.r_[np.full(T, b.p_hp_rated), np.full(T, cfg.t_max)])
    assert np.array_equal(baseline, base.schedule[None])


@pytest.mark.parametrize("horizon", [1, 4, 24])
def test_fleet_rows_stack_one_building_blocks_bit_for_bit(horizon):
    """A fleet's LP is the block diagonal of its heat pumps' one-building
    LPs, entry for entry, in the same storage order: the LP the unbundled
    dispatch hands HiGHS does not depend on how the fleet is cut."""
    rng = np.random.default_rng(horizon)
    cfg = ComfortConfig(horizon=horizon)
    t_out = rng.uniform(-5.0, 15.0, horizon)
    fleet = [building(r_th=rng.uniform(4, 8), c_th=rng.uniform(6, 20),
                      rated=rng.uniform(2, 4), bid=f"b{i}") for i in range(7)]
    A, rhs, col_lo, col_hi, baseline, power = fleet_rows(fleet, cfg, t_out)
    singles = [fleet_rows([b], cfg, t_out) for b in fleet]
    B = sparse.block_diag([one[0] for one in singles], format="csc")
    assert A.shape == B.shape
    for got, want in ((A.data, B.data), (A.indices, B.indices), (A.indptr, B.indptr)):
        assert np.array_equal(got, want)
    for k, got in enumerate((rhs, col_lo, col_hi, baseline), start=1):
        assert np.array_equal(got, np.concatenate([one[k] for one in singles]))
    # each heat pump's power columns, offset by the columns of those before it
    assert np.array_equal(power, np.vstack([one[5] + 2 * horizon * f
                                            for f, one in enumerate(singles)]))


# ------------------------------------------------------------- dispatch

def dispatch(b, cfg, t_out, prices):
    """One heat pump's schedule and cost at one price vector."""
    schedules, cost = DispatchModel([b], cfg, t_out).solve(np.atleast_2d(prices))
    return schedules[0, 0], cost[0]


def test_flat_prices_leave_cost_at_baseline():
    b = building()
    t_out = np.full(24, 10.0)
    base = baseline_profile(b, CFG, t_out)
    _, cost = dispatch(b, CFG, t_out, np.full(24, 80.0))
    assert cost == pytest.approx(80.0 * base.energy / 1000.0, rel=1e-9)


def test_degenerate_comfort_band_pins_baseline():
    cfg = ComfortConfig(t_min=20.0, t_max=20.0)
    b = building()
    t_out = np.linspace(0.0, 12.0, 24)
    base = baseline_profile(b, cfg, t_out)
    schedule, _ = dispatch(b, cfg, t_out, np.random.default_rng(0).uniform(20, 120, 24))
    assert np.allclose(schedule, base.schedule, atol=1e-6)


def test_cheap_hour_concentration_with_grid_oracle():
    """One cheap hour, wide band, ample rating: the LP piles energy into
    the cheap hour; exhaustive search over a 0.1 kW grid agrees."""
    cfg = ComfortConfig(t_min=0.0, t_max=40.0, horizon=4)
    b = building(rated=2.0)
    t_out = np.full(4, 10.0)   # baseline 0.5 kW/h -> e_base = 2.0 kWh
    prices = np.array([100.0, 10.0, 100.0, 100.0])
    base = baseline_profile(b, cfg, t_out)
    schedule, cost = dispatch(b, cfg, t_out, prices)
    assert np.allclose(schedule, [0.0, 2.0, 0.0, 0.0], atol=1e-7)

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
    assert cost == pytest.approx(best, abs=1e-9)


def test_unreachable_comfort_band_raises_naming_the_building():
    # warmer outside than t_max and the heat pump cannot cool: the free
    # response leaves the band whatever the schedule, for every price row
    model = DispatchModel([building(bid="sunny")], CFG, np.full(24, 30.0))
    for prices in (np.full((1, 24), 50.0), np.full((3, 24), 50.0)):
        with pytest.raises(Infeasible, match="building sunny"):
            model.solve(prices)


def test_infeasible_when_band_cannot_hold_energy():
    # rated power cannot hold 19 degrees on a brutally cold day
    b = building(rated=0.9)
    with pytest.raises((Infeasible, InfeasibleBaseline)):
        DispatchModel([b], CFG, np.full(24, -5.0)).solve(np.full((1, 24), 50.0))


def test_empty_fleet_builds_and_solves_to_empty_arrays():
    model = DispatchModel([], CFG, np.full(24, 5.0))
    schedules, cost = model.solve(np.full((3, 24), 50.0))
    assert model.baseline.shape == (0, 24)
    assert schedules.shape == (3, 0, 24) and np.array_equal(cost, np.zeros(3))


# ------------------------------------------------------------ invariants

@pytest.mark.parametrize("seed", range(6))
def test_dispatch_invariants_random_days(seed):
    rng = np.random.default_rng(seed)
    b = building(r_th=rng.uniform(4, 8), c_th=rng.uniform(8, 16),
                 rated=rng.uniform(1.5, 3.0))
    t_out = rng.uniform(-4.0, 14.0, 24)
    prices = rng.uniform(10.0, 150.0, 24)
    base = baseline_profile(b, CFG, t_out)
    schedule, cost = dispatch(b, CFG, t_out, prices)
    temps = simulate_temperature(b, CFG, t_out, schedule)

    assert abs(CFG.dt * schedule.sum() - base.energy) <= 1e-6 * max(1.0, base.energy)
    assert schedule.min() >= -1e-9
    assert schedule.max() <= b.p_hp_rated + 1e-9
    assert temps.min() >= CFG.t_min - 1e-6
    assert temps.max() <= CFG.t_max + 1e-6
    # the baseline is feasible, so the optimum can only be cheaper
    assert cost <= profile_cost(base.schedule, prices, CFG.dt) + 1e-6
    assert check_dispatch(b, CFG, t_out, schedule, base.energy) == []


def test_convex_blends_stay_feasible():
    """Any blend of two feasible schedules is feasible — the property
    that makes partial bid acceptance executable without re-optimizing."""
    rng = np.random.default_rng(42)
    b = building()
    t_out = rng.uniform(-2.0, 12.0, 24)
    base = baseline_profile(b, CFG, t_out)
    model = DispatchModel([b], CFG, t_out)
    s1 = model.solve(rng.uniform(10, 150, (1, 24)))[0][0, 0]
    s2 = model.solve(rng.uniform(10, 150, (1, 24)))[0][0, 0]
    for theta in (0.0, 0.25, 0.5, 0.8, 1.0):
        blend = theta * s1 + (1.0 - theta) * s2
        assert check_dispatch(b, CFG, t_out, blend, base.energy) == []


def temperature_response(
    b: BuildingParams, cfg: ComfortConfig, t_out: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Affine map from a schedule to the indoor temperature trajectory.

    Returns (M, m0) with temperatures = M @ schedule + m0.  M is lower
    triangular; row t carries the decayed thermal gain of every earlier
    step.  m0 is the free response from T_in[0] = t_set and the outdoor
    temperatures.
    """
    t_out = np.asarray(t_out, dtype=float)
    n = cfg.horizon
    if t_out.shape != (n,):
        raise ValueError(f"t_out must have length {n}, got {t_out.shape}")
    k = cfg.dt / (b.r_th * b.c_th)  # dimensionless loss per step
    gain = cfg.dt * cfg.cop / b.c_th  # K per kW before decay
    decay = 1.0 / (1.0 + k)
    # T_t = decay*T_{t-1} + decay*gain*P_t + decay*k*t_out_t
    step_gain = decay * gain
    forcing = decay * k * t_out

    powers = decay ** np.arange(n)  # decay^0 .. decay^(n-1)
    M = np.zeros((n, n))
    for i in range(n):
        M[i, : i + 1] = powers[i::-1] * step_gain
    m0 = np.empty(n)
    acc = cfg.t_set
    for i in range(n):
        acc = decay * acc + forcing[i]
        m0[i] = acc
    return M, m0


def loop_reference(model: DispatchModel, price_rows: np.ndarray, r: int = 0) -> list:
    """One dense linprog per price row over resource r's condensed comfort rows."""
    cfg, b = model.cfg, model.buildings[r]
    M, m0 = temperature_response(b, cfg, model.t_out)
    out = []
    for prices in price_rows:
        res = linprog(
            prices * cfg.dt / 1000.0,
            A_ub=np.vstack([M, -M]),
            b_ub=np.concatenate([cfg.t_max - m0, m0 - cfg.t_min]),
            A_eq=np.full((1, cfg.horizon), cfg.dt),
            b_eq=[baseline_profile(b, cfg, model.t_out).energy],
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
    model = DispatchModel([b], CFG, t_out)
    price_rows = rng.uniform(10.0, 150.0, (6, 24))
    schedules, cost = model.solve(price_rows)
    assert schedules.shape == (6, 1, 24) and cost.shape == (6,)
    refs = loop_reference(model, price_rows)
    for s, (prices, ref) in enumerate(zip(price_rows, refs)):
        a = schedules[s, 0]
        single = model.solve(prices[None])[1][0]
        c = dispatch(b, CFG, t_out, prices)[1]
        assert cost[s] == pytest.approx(c, abs=1e-9)
        assert single == pytest.approx(c, abs=1e-9)
        assert np.max(np.abs(a - ref.x)) <= 1e-9
        assert abs(cost[s] - ref.fun) <= 1e-9
        assert CFG.dt * a.sum() == pytest.approx(base.energy, rel=1e-9)
        assert check_dispatch(b, CFG, t_out, a, base.energy) == []


def test_solve_rejects_misshapen_prices():
    model = DispatchModel([building()], CFG, np.full(24, 5.0))
    for bad in (np.zeros(24), np.zeros(23), np.zeros((2, 23)), np.zeros((0, 24)),
                np.zeros((1, 2, 24))):
        with pytest.raises(ValueError, match="prices must have shape"):
            model.solve(bad)


def test_sweep_reuses_the_schedule_of_a_repeated_vertex():
    # the third row returns to the first row's prices along a warm path;
    # it ends on the first row's vertex, so its schedule repeats byte for byte
    rng = np.random.default_rng(0)
    b = building(r_th=rng.uniform(4, 8), c_th=rng.uniform(8, 16), rated=rng.uniform(1.5, 3.0))
    model = DispatchModel([b], CFG, rng.uniform(-4.0, 10.0, 24))
    p0, p1 = rng.uniform(10.0, 150.0, (2, 24))
    schedules, cost = model.solve(np.array([p0, p1, p0]))
    assert not np.allclose(schedules[0, 0], schedules[1, 0])
    assert schedules[2, 0].tobytes() == schedules[0, 0].tobytes()
    assert cost[2] == cost[0]


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
    model = DispatchModel([b], CFG, t_out)
    price_rows = rng.uniform(-20.0, 200.0, (S, 24))
    for _ in range(data.draw(st.integers(0, S - 1), label="repeats")):
        price_rows[rng.integers(1, S)] = price_rows[rng.integers(0, S)]
    schedules, cost = model.solve(price_rows)
    for s, ref in enumerate(loop_reference(model, price_rows)):
        assert abs(cost[s] - ref.fun) <= 1e-9
        assert check_dispatch(b, CFG, t_out, schedules[s, 0], base.energy) == []


# ------------------------------------------------------------ fleet blocks

def random_fleet(rng, n):
    return [
        building(r_th=rng.uniform(4, 8), c_th=rng.uniform(8, 16), rated=rng.uniform(1.5, 3.0),
                 bid=f"b{r:03d}")
        for r in range(n)
    ]


def test_blocks_match_one_building_models():
    # two full blocks and a partial one
    rng = np.random.default_rng(11)
    fleet = random_fleet(rng, 2 * BLOCK + 3)
    t_out = rng.uniform(-4.0, 14.0, 24)
    price_rows = rng.uniform(10.0, 150.0, (5, 24))
    bases: dict = {}
    schedules, cost = DispatchModel(fleet, CFG, t_out).solve(price_rows, bases)
    # the second full block started from the first's basis; each shape's last is kept
    assert sorted(bases) == [(3 * 25, 3 * 48), (BLOCK * 25, BLOCK * 48)]
    assert schedules.shape == (5, len(fleet), 24) and cost.shape == (5,)
    # a row's cost adds its heat pumps' costs one by one, in fleet order
    per_hp = np.vecdot(schedules, price_rows[:, None] * CFG.dt / 1000.0)
    assert cost.tolist() == [sum(row) for row in per_hp.tolist()]
    alone_costs = np.zeros(len(price_rows))
    for r, b in enumerate(fleet):
        alone, alone_cost = DispatchModel([b], CFG, t_out).solve(price_rows)
        assert np.abs(schedules[:, r] - alone[:, 0]).max() <= 1e-9
        alone_costs += alone_cost
        e_base = baseline_profile(b, CFG, t_out).energy
        for s in range(len(price_rows)):
            assert check_dispatch(b, CFG, t_out, schedules[s, r], e_base) == []
    assert cost == pytest.approx(alone_costs, rel=1e-9)


def test_infeasible_building_in_a_middle_block_is_named():
    # on a day warmer than t_max only a heavy building's slow warming stays
    # in the band; one light building in the second block cannot
    heavy = [building(r_th=10.0, c_th=50.0, bid=f"b{r:03d}") for r in range(2 * BLOCK + 3)]
    heavy[BLOCK + 7] = building(bid="sunny")
    model = DispatchModel(heavy, CFG, np.full(24, 30.0))
    with pytest.raises(Infeasible, match="^building sunny: "):
        model.solve(np.full((2, 24), 50.0))
    del heavy[BLOCK + 7]
    schedules, _ = DispatchModel(heavy, CFG, np.full(24, 30.0)).solve(np.full((2, 24), 50.0))
    assert np.abs(schedules).max() <= 1e-9  # nothing to heat: the baseline is off
