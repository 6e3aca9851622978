"""RC model, baseline, and dispatch LP against closed-form and grid oracles."""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import sparse
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog
from scipy.optimize._highspy import _core

from flexbid import thermal
from flexbid.errors import Infeasible, InfeasibleBaseline
from flexbid.lp import FEASIBILITY_TOL, OPTIMALITY_TOL, Csc, HighsSweep
from flexbid.thermal import (
    BLOCK,
    BuildingParams,
    ComfortConfig,
    DispatchModel,
    _Block,
    _certify,
    _deal,
    _per_hp,
    baseline_profile,
    check_dispatch,
    fleet_rows,
    profile_cost,
    simulate_temperature,
)

CFG = ComfortConfig()  # cop 4, set-point 20, band 19..21, hourly steps


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
    cfg = ComfortConfig(cop=rng.uniform(2.0, 5.0), dt=rng.choice([0.25, 0.5, 1.0]))
    r_th, c_th = rng.uniform(2, 10), rng.uniform(4, 30)
    t_out = rng.uniform(-10.0, 20.0, T)
    need = max(0.0, (cfg.t_set - t_out).max()) / (r_th * cfg.cop)  # the baseline's peak
    b = building(r_th=r_th, c_th=c_th, rated=need + rng.uniform(0.5, 4))
    p = rng.uniform(0.0, b.p_hp_rated, T)
    A, rhs, col_lo, col_hi, baseline, power = fleet_rows([b], cfg, t_out)
    A = sparse.csc_array(A[:3], shape=A.shape)  # the lp.Csc, from its parts
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
    t_out = rng.uniform(-5.0, 15.0, horizon)
    fleet = [building(r_th=rng.uniform(4, 8), c_th=rng.uniform(6, 20),
                      rated=rng.uniform(2, 4), bid=f"b{i}") for i in range(7)]
    A, rhs, col_lo, col_hi, baseline, power = fleet_rows(fleet, CFG, t_out)
    singles = [fleet_rows([b], CFG, t_out) for b in fleet]
    B = sparse.block_diag([sparse.csc_array(one[0][:3], shape=one[0].shape) for one in singles],
                          format="csc")
    assert A.shape == B.shape
    for got, want in ((A.data, B.data), (A.indices, B.indices), (A.indptr, B.indptr)):
        assert np.array_equal(got, want)
    for k, got in enumerate((rhs, col_lo, col_hi, baseline), start=1):
        assert np.array_equal(got, np.concatenate([one[k] for one in singles]))
    # each heat pump's power columns, offset by the columns of those before it
    assert np.array_equal(power, np.vstack([one[5] + 2 * horizon * f
                                            for f, one in enumerate(singles)]))


def test_fleet_rows_hold_scipys_csc_parts():
    """fleet_rows's lp.Csc holds the parts scipy's CSC array of its
    parts holds, and those of the same matrix built from dense: the
    canonical storage, the lists a scipy matrix would hand HiGHS."""
    rng = np.random.default_rng(5)
    t_out = rng.uniform(-5.0, 15.0, 24)
    fleet = [building(r_th=rng.uniform(4, 8), c_th=rng.uniform(6, 20),
                      rated=rng.uniform(2, 4), bid=f"b{i}") for i in range(3)]
    A = fleet_rows(fleet, CFG, t_out)[0]
    assert isinstance(A, Csc) and A.data.dtype == np.float64
    from_parts = sparse.csc_array(A[:3], shape=A.shape)
    for built in (from_parts, sparse.csc_array(from_parts.toarray())):
        assert built.shape == A.shape
        for got, want in ((A.data, built.data), (A.indices, built.indices),
                          (A.indptr, built.indptr)):
            assert np.array_equal(got, want)


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
    cfg = ComfortConfig(t_min=0.0, t_max=40.0)
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


@pytest.mark.parametrize("case", ["all-nan", "one-nan", "nan-energy"])
def test_check_dispatch_reports_values_that_are_not_finite(case):
    b = building()
    t_out = np.linspace(-4.0, 10.0, 24)
    base = baseline_profile(b, CFG, t_out)
    schedule, energy = base.schedule.copy(), base.energy
    if case == "all-nan":
        schedule[:] = np.nan
    elif case == "one-nan":
        schedule[7] = np.nan
    else:
        energy = np.nan
    problems = check_dispatch(b, CFG, t_out, schedule, energy)
    assert problems and all("not finite" in problem for problem in problems)


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
    n = len(t_out)
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
            A_eq=np.full((1, len(model.t_out)), cfg.dt),
            b_eq=[baseline_profile(b, cfg, model.t_out).energy],
            bounds=[(0.0, b.p_hp_rated)] * len(model.t_out),
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


def test_a_day_has_as_many_steps_as_its_temperatures():
    """The steps are t_out's, not a setting: a 6-hour day dispatches
    6-hour schedules, and every other array must match it."""
    b, t_out = building(), np.full(6, 8.0)
    model = DispatchModel([b], CFG, t_out)
    X, _ = model.solve(np.full((2, 6), 50.0))
    assert X.shape == (2, 1, 6) and model.baseline.shape == (1, 6)
    with pytest.raises(ValueError, match=r"prices must have shape \(S, 6\)"):
        model.solve(np.full((2, 24), 50.0))
    with pytest.raises(ValueError, match="schedule must span t_out's 6 steps"):
        simulate_temperature(b, CFG, t_out, np.zeros(24))
    for bad in (np.zeros(0), np.zeros((2, 6)), np.float64(5.0)):
        with pytest.raises(ValueError, match="t_out must hold one temperature per step"):
            fleet_rows([b], CFG, bad)


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


@pytest.mark.parametrize("F", [1, 9, BLOCK, BLOCK + 1, 2 * BLOCK + 3, 3 * BLOCK + 5])
def test_the_fleet_is_dealt_into_blocks_by_time_constant(F):
    # four distinct taus, so most heat pumps tie: a tie keeps the given order
    taus = np.random.default_rng(F).integers(1, 5, F)
    fleet = [building(r_th=1.0, c_th=float(tau), bid=f"b{r:03d}") for r, tau in enumerate(taus)]
    ranked = sorted(range(F), key=lambda r: (taus[r], r))  # the position at each tau-rank
    blocks = _deal(fleet)
    n = -(-F // BLOCK)
    sizes = [len(idx) for idx in blocks]
    assert len(blocks) == n and sorted(np.concatenate(blocks).tolist()) == list(range(F))
    assert sizes == sorted(sizes, reverse=True) and sizes[0] <= BLOCK and sizes[0] - sizes[-1] <= 1
    for k, idx in enumerate(blocks):  # position j of block k: tau-rank k + j·n
        assert idx.tolist() == [ranked[k + j * n] for j in range(len(idx))]
    assert _deal([]) == []


def test_blocks_match_one_building_models():
    # four blocks of 26, 25, 25 and 25, the first swept and each later one
    # checked against the one before, over a fleet whose ids run against
    # its time constants
    rng = np.random.default_rng(11)
    fleet = random_fleet(rng, 3 * BLOCK + 5)
    fleet = [fleet[r] for r in rng.permutation(len(fleet))]
    t_out = rng.uniform(-4.0, 14.0, 24)
    price_rows = rng.uniform(10.0, 150.0, (5, 24))
    model = DispatchModel(fleet, CFG, t_out)
    schedules, cost = model.solve(price_rows)
    # only the swept block's last vertex is kept: a status over its 26·48
    # columns and 26·25 rows, as many basic as there are rows
    assert [len(idx) for idx in model._blocks] == [26, 25, 25, 25]
    assert model.end_status.shape == (26 * 48 + 26 * 25,)
    assert (model.end_status == 1).sum() == 26 * 25
    assert schedules.shape == (5, len(fleet), 24) and cost.shape == (5,)
    # a row's cost adds its heat pumps' costs one by one, in fleet order
    per_hp = np.vecdot(schedules, price_rows[:, None] * CFG.dt / 1000.0)
    assert cost.tolist() == [sum(row) for row in per_hp.tolist()]
    alone_costs = np.zeros(len(price_rows))
    for r, b in enumerate(fleet):
        alone, alone_cost = DispatchModel([b], CFG, t_out).solve(price_rows)
        assert np.abs(schedules[:, r] - alone[:, 0]).max() <= 1e-9
        alone_costs += alone_cost
        base = baseline_profile(b, CFG, t_out)
        assert model.baseline[r].tobytes() == base.schedule.tobytes()
        for s in range(len(price_rows)):
            assert check_dispatch(b, CFG, t_out, schedules[s, r], base.energy) == []
    assert cost == pytest.approx(alone_costs, rel=1e-9)


def test_a_fleet_one_past_a_block_certifies_its_second_block():
    # BLOCK + 1 heat pumps make two blocks, of 17 and 16: the second is
    # checked against the first, position by position, not swept
    rng = np.random.default_rng(13)
    fleet = random_fleet(rng, BLOCK + 1)
    t_out = rng.uniform(-4.0, 14.0, 24)
    prices = rng.uniform(10.0, 150.0, (5, 24))
    model = DispatchModel(fleet, CFG, t_out)
    _, cost = model.solve(prices)
    assert [len(idx) for idx in model._blocks] == [17, 16]
    assert model.stats.certified > 0
    alone_costs = sum(DispatchModel([b], CFG, t_out).solve(prices)[1] for b in fleet)
    assert cost == pytest.approx(alone_costs, rel=1e-9)


def test_equal_rows_give_every_heat_pump_equal_bytes_across_blocks():
    rng = np.random.default_rng(12)
    fleet = random_fleet(rng, 3 * BLOCK + 5)
    p0, p1, p2 = rng.uniform(10.0, 150.0, (3, 24))
    schedules, cost = DispatchModel(fleet, CFG, rng.uniform(-4.0, 14.0, 24)).solve(
        np.array([p0, p1, p0, p2, p2]))
    assert schedules[2].tobytes() == schedules[0].tobytes() and cost[2] == cost[0]
    assert schedules[4].tobytes() == schedules[3].tobytes() and cost[4] == cost[3]


def test_equal_rows_are_dispatched_once(monkeypatch):
    # rows 0, 2 and 5 are equal, and so are rows 1 and 4: block 0 sweeps
    # the three distinct rows, and each later block's LP of copies, if it
    # needs one, solves its refused rows among those three at once
    rng = np.random.default_rng(14)
    fleet = random_fleet(rng, 2 * BLOCK + 5)
    p0, p1, p2 = rng.uniform(10.0, 150.0, (3, 24))
    model = DispatchModel(fleet, CFG, rng.uniform(-4.0, 14.0, 24))
    swept = []
    solve = HighsSweep.solve

    def counted(self, cost_rows, start=None):
        swept.append(len(cost_rows))
        return solve(self, cost_rows, start)

    monkeypatch.setattr(HighsSweep, "solve", counted)
    schedules, cost = model.solve(np.array([p0, p1, p0, p2, p1, p0]))
    stats = model.stats
    assert swept[0] == 3 and swept[1:] == [1] * (len(swept) - 1) and len(swept) <= 3
    assert stats.runs == 3 + len(swept) - 1
    assert stats.certified + stats.solved == len(fleet) * 3 and stats.certified > 0
    for twin, first in ((2, 0), (5, 0), (4, 1)):
        assert schedules[twin].tobytes() == schedules[first].tobytes() and cost[twin] == cost[first]


@pytest.mark.parametrize("idx", [[0, 1, 2, 3, 4], [3, 1], [2, 2, 0, 2], [4, 0, 4, 1, 3, 3, 2, 0, 1, 4, 4]],
                         ids=["fleet", "two", "repeats", "more-copies-than-heat-pumps"])
def test_a_cut_lp_is_fleet_rows_of_its_heat_pumps_bit_for_bit(monkeypatch, idx):
    rng = np.random.default_rng(15)
    fleet, t_out = random_fleet(rng, 5), rng.uniform(-4.0, 14.0, 24)
    model = DispatchModel(fleet, CFG, t_out)
    built = []
    monkeypatch.setattr(thermal, "HighsSweep", lambda *lp: built.append(lp))
    model._sweep(np.array(idx))
    (A, row_lo, row_hi, col_lo, col_hi, cost, cost_cols), = built
    ref_A, rhs, lo, hi, _, power = fleet_rows([fleet[r] for r in idx], CFG, t_out)
    assert A.shape == ref_A.shape and (cost == 0.0).all() and len(cost) == len(lo)
    for got, want in ((A.data, ref_A.data), (A.indices, ref_A.indices), (A.indptr, ref_A.indptr),
                      (row_lo, rhs), (row_hi, rhs), (col_lo, lo), (col_hi, hi),
                      (cost_cols, power.ravel())):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_a_day_builds_its_lp_once_and_solvers_only_where_highs_runs(monkeypatch):
    # four blocks: block 0 is swept, and each later block builds an LP of
    # copies only when it has rows `_certify` refuses
    rng = np.random.default_rng(25)
    fleet = random_fleet(rng, 3 * BLOCK + 5)
    t_out = rng.uniform(-4.0, 14.0, 24)
    log = []
    rows, certify, sweep = thermal.fleet_rows, thermal._certify, thermal.HighsSweep

    def counted_rows(*args):
        log.append("fleet_rows")
        return rows(*args)

    def counted_certify(*args):
        ok, P = certify(*args)
        log.append(("refused", not ok.all()))
        return ok, P

    class CountedSweep(sweep):
        def __init__(self, *args):
            log.append("sweep")
            super().__init__(*args)

    monkeypatch.setattr(thermal, "fleet_rows", counted_rows)
    monkeypatch.setattr(thermal, "_certify", counted_certify)
    monkeypatch.setattr(thermal, "HighsSweep", CountedSweep)
    model = DispatchModel(fleet, CFG, t_out)
    assert log == ["fleet_rows"]
    model.solve(rng.uniform(10.0, 150.0, (5, 24)))
    checks = [entry for entry in log if isinstance(entry, tuple)]
    assert len(checks) == 3 and ("refused", True) in checks
    expected = ["fleet_rows", "sweep"]  # the day's build, then block 0's sweep
    for check in checks:  # each later block's check, then its LP of copies if it refused a row
        expected += [check] + ["sweep"] * check[1]
    assert log == expected


def test_infeasible_building_in_a_middle_block_is_named():
    # the day ends 8 h above t_max: a light building must start those hours
    # cool, having heated early, so one rated at its baseline cannot; it is
    # tau-rank 1, dealt into the second block, which starts from the first
    t_out = np.r_[np.full(16, 10.0), np.full(8, 30.0)]
    heavy = [building(r_th=10.0, c_th=50.0, bid=f"b{r:03d}") for r in range(2 * BLOCK + 3)]
    heavy[0] = building(r_th=5.0, c_th=14.0, rated=3.0, bid="nimble")
    heavy[BLOCK + 7] = building(r_th=5.0, c_th=15.0, rated=0.5, bid="sunny")
    assert BLOCK + 7 in _deal(heavy)[1]
    model = DispatchModel(heavy, CFG, t_out)
    with pytest.raises(Infeasible, match="^building sunny: "):
        model.solve(np.full((2, 24), 50.0))
    del heavy[BLOCK + 7]
    schedules, _ = DispatchModel(heavy, CFG, t_out).solve(np.full((2, 24), 50.0))
    for r, b in enumerate(heavy):
        energy = baseline_profile(b, CFG, t_out).energy
        assert check_dispatch(b, CFG, t_out, schedules[1, r], energy) == []


# ------------------------------------------- certifying a neighbour's basis

def one_block(rng, n, t_out):
    """A DispatchModel of n <= BLOCK random heat pumps, the positions of
    its one block and what `_certify` reads of them."""
    model = DispatchModel(random_fleet(rng, n), CFG, t_out)
    (idx,) = model._blocks
    return model, idx, _Block(*(v[idx] for v in model._fleet))


def highs_vertices(model, idx, c):
    """The (S, n, 3T + 1) vertex statuses and (S, n, T) powers HiGHS
    finds for the heat pumps at idx at the costs c."""
    x, _, status = model._sweep(idx).solve(np.tile(c, len(idx)))
    T = c.shape[1]
    return _per_hp(status, len(idx)), x.reshape(len(c), len(idx), 2 * T)[..., :T]


def test_a_heat_pumps_own_optimum_is_certified_at_the_vertex_highs_found():
    rng = np.random.default_rng(21)
    t_out = rng.uniform(-4.0, 14.0, 24)
    model, idx, blk = one_block(rng, 12, t_out)
    c = rng.uniform(10.0, 150.0, (6, 24)) * CFG.dt / 1000.0
    status, P_highs = highs_vertices(model, idx, c)
    ok, P = _certify(status, blk, c, CFG)
    assert ok.all()
    assert np.abs(P - P_highs).max() <= 1e-12
    # the vertex depends on the status alone: other costs, the same bytes
    _, P_again = _certify(status, blk, c[::-1].copy(), CFG)
    assert P_again.tobytes() == P.tobytes()


def test_a_basis_optimal_at_other_prices_is_refused_on_its_duals():
    # each heat pump's row-0 optimum, a feasible vertex, checked against the
    # costs of the rows where HiGHS found a cheaper one
    rng = np.random.default_rng(22)
    t_out = rng.uniform(-4.0, 14.0, 24)
    model, idx, blk = one_block(rng, 12, t_out)
    c = rng.uniform(10.0, 150.0, (6, 24)) * CFG.dt / 1000.0
    status, P_highs = highs_vertices(model, idx, c)
    stale = np.broadcast_to(status[:1], status.shape).copy()
    ok, P = _certify(stale, blk, c, CFG)
    assert np.abs(P - P_highs[:1]).max() <= 1e-12  # still the row-0 vertex
    gap = np.vecdot(P, c[:, None, :]) - np.vecdot(P_highs, c[:, None, :])
    assert (gap > 1e-9).sum() >= 10 and not ok[gap > 1e-9].any()
    assert ok[0].all()


def test_a_neighbours_basis_whose_vertex_leaves_the_bounds_is_refused():
    # the basis of each heat pump's neighbour in the block: where its vertex
    # breaks this heat pump's rating or comfort band, it is refused
    rng = np.random.default_rng(23)
    t_out = rng.uniform(-4.0, 14.0, 24)
    model, idx, blk = one_block(rng, BLOCK, t_out)
    c = rng.uniform(10.0, 150.0, (6, 24)) * CFG.dt / 1000.0
    status, P_highs = highs_vertices(model, idx, c)
    ok, P = _certify(np.roll(status, 1, axis=1), blk, c, CFG)
    infeasible = np.zeros(ok.shape, dtype=bool)
    for j, r in enumerate(idx):
        b = model.buildings[r]
        energy = baseline_profile(b, CFG, t_out).energy
        for s in range(len(c)):
            infeasible[s, j] = bool(check_dispatch(b, CFG, t_out, P[s, j], energy))
    assert infeasible.sum() >= 5 and not ok[infeasible].any()
    # what is certified is optimal: it costs what HiGHS's optimum costs
    cost, cost_highs = np.vecdot(P, c[:, None, :]), np.vecdot(P_highs, c[:, None, :])
    assert ok.any() and np.abs(cost - cost_highs)[ok].max() <= 1e-9 * np.abs(cost_highs).max()


def test_a_basic_row_or_a_wrong_count_of_basic_columns_is_refused():
    rng = np.random.default_rng(24)
    t_out = rng.uniform(-4.0, 14.0, 24)
    model, idx, blk = one_block(rng, 4, t_out)
    c = rng.uniform(10.0, 150.0, (1, 24)) * CFG.dt / 1000.0
    status, _ = highs_vertices(model, idx, c)
    T = 24
    basic = [np.flatnonzero(status[0, j, :2 * T] == 1) for j in range(4)]
    nonbasic = [np.flatnonzero(status[0, j, :2 * T] != 1) for j in range(4)]
    swapped = status.copy()  # a row slack basic in place of a column
    swapped[0, 0, basic[0][0]] = 0
    swapped[0, 0, 2 * T + 3] = 1
    fewer = status.copy()  # T basic columns
    fewer[0, 1, basic[1][-1]] = 0
    more = status.copy()  # T + 2
    more[0, 2, nonbasic[2][0]] = 1
    extra_row = status.copy()  # every basic column kept, and a row slack too
    extra_row[0, 3, 2 * T + 5] = 1
    for bad, j in ((swapped, 0), (fewer, 1), (more, 2), (extra_row, 3)):
        ok, _ = _certify(bad, blk, c, CFG)
        assert not ok[0, j] and ok[0, np.arange(4) != j].all()


def spread_fleet(rng, n, t_out):
    """n heat pumps with time constants spread over 15 to 400 h and
    ratings scaled by U[0.6, 1.6], each kept above its baseline's peak."""
    fleet = []
    for r in range(n):
        r_th, c_th = rng.uniform(3.0, 10.0), rng.uniform(5.0, 40.0)
        peak = max(0.0, (CFG.t_set - t_out).max()) / (r_th * CFG.cop)
        rated = max(1.5 * (CFG.t_set + 10.0) / (r_th * CFG.cop) * rng.uniform(0.6, 1.6),
                    1.02 * peak + 0.01)
        fleet.append(building(r_th=r_th, c_th=c_th, rated=rated, bid=f"b{r:03d}"))
    return fleet


@settings(max_examples=12, deadline=None)
@given(st.data())
def test_later_blocks_certify_or_solve_every_row_as_one_building_models_do(data):
    """Fleets of 2·BLOCK + 5 heat pumps of spread time constants and
    ratings, on price stacks with a repeated row: every schedule passes
    check_dispatch, each row costs what one-building models cost, the
    repeated row repeats its bytes, and each later block sends the rows
    it cannot certify to HiGHS as one LP of copies."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1), label="seed"))
    S = data.draw(st.integers(2, 6), label="S")
    t_out = rng.uniform(-4.0, 14.0, 24)
    fleet = spread_fleet(rng, 2 * BLOCK + 5, t_out)
    prices = rng.uniform(-20.0, 200.0, (S, 24))
    twin = data.draw(st.integers(0, S - 2), label="twin")
    prices[-1] = prices[twin]
    model = DispatchModel(fleet, CFG, t_out)
    schedules, cost = model.solve(prices)
    assert schedules[-1].tobytes() == schedules[twin].tobytes() and cost[-1] == cost[twin]
    alone_costs = np.zeros(S)
    for r, b in enumerate(fleet):
        alone_costs += DispatchModel([b], CFG, t_out).solve(prices)[1]
        energy = baseline_profile(b, CFG, t_out).energy
        for s in range(S):
            assert check_dispatch(b, CFG, t_out, schedules[s, r], energy) == []
    assert cost == pytest.approx(alone_costs, rel=1e-9)
    # three blocks of 23: block 0 sweeps the S - 1 distinct rows; each later
    # block's are certified or go to one LP of copies
    stats = model.stats
    assert [len(idx) for idx in model._blocks] == [23, 23, 23]
    copies = stats.solved - 23 * (S - 1)
    assert copies > 0 and stats.certified + copies == 2 * 23 * (S - 1)
    assert stats.runs == (S - 1) + 2


def test_solve_counts_the_rows_it_certifies_and_the_runs_it_makes(monkeypatch):
    rng = np.random.default_rng(25)
    fleet = random_fleet(rng, 3 * BLOCK + 5)
    t_out = rng.uniform(-4.0, 14.0, 24)
    model = DispatchModel(fleet, CFG, t_out)
    log = []
    run, set_basis = _core._Highs.run, _core._Highs.setBasis

    def counted(self):
        log.append("run")
        return run(self)

    def started(self, basis):
        status = set_basis(self, basis)
        log.append(status == _core.HighsStatus.kOk)
        return status

    monkeypatch.setattr(_core._Highs, "run", counted)
    monkeypatch.setattr(_core._Highs, "setBasis", started)
    model.solve(rng.uniform(10.0, 150.0, (5, 24)))
    # four blocks of 26, 25, 25 and 25: block 0 sweeps the 5 rows in 5 runs,
    # and each later block makes at most one LP of copies
    stats = model.stats
    assert stats.runs == log.count("run") <= 5 + 3
    assert stats.certified + stats.solved == (3 * BLOCK + 5) * 5
    assert 0 < stats.certified < 3 * 25 * 5
    # no bases handed in: only the LPs of copies start warm, each from its statuses
    assert log.count(True) == stats.runs - 5 and False not in log


class DriftingHighs(_core._Highs):
    """HiGHS whose basic values drift on every run, as a warm path's
    rounding may, so only a reused vertex repeats its bytes."""

    runs = 0

    def run(self):
        DriftingHighs.runs += 1
        return super().run()

    def getSolution(self):
        x = np.array(super().getSolution().col_value)
        _, basic = self.getBasicVariables()
        x[basic[basic >= 0]] += 1e-12 * DriftingHighs.runs
        return SimpleNamespace(col_value=x)


def test_a_heat_pump_keeps_its_repeated_vertex_while_another_moves(monkeypatch):
    # dearer first hours move some heat pumps of the swept block to another
    # vertex and leave the rest where they were, which repeat their bytes
    rng = np.random.default_rng(31)
    fleet = random_fleet(rng, 8)
    t_out = rng.uniform(-4.0, 14.0, 24)
    p0 = rng.uniform(10.0, 150.0, 24)
    p1 = p0.copy()
    p1[:3] *= 1.3
    model = DispatchModel(fleet, CFG, t_out)
    (idx,) = model._blocks
    status, _ = highs_vertices(model, idx, np.array([p0, p1]) * CFG.dt / 1000.0)
    kept = (status[0] == status[1]).all(axis=1)
    assert kept.any() and not kept.all()
    monkeypatch.setattr(_core, "_Highs", DriftingHighs)
    monkeypatch.setattr(DriftingHighs, "runs", 0)
    X, _ = model.solve(np.array([p0, p1]))
    assert DriftingHighs.runs == 2
    assert [X[1, r].tobytes() == X[0, r].tobytes() for r in idx] == kept.tolist()


def test_a_vertex_solved_again_by_highs_keeps_the_bytes_it_was_certified_with(monkeypatch):
    # the second row barely moves the prices, so every heat pump keeps its
    # vertex; the later block's check refuses that row, and HiGHS solves it again
    rng = np.random.default_rng(26)
    fleet = random_fleet(rng, 2 * BLOCK)
    p0 = rng.uniform(10.0, 150.0, 24)
    certify = _certify

    def first_row_only(status, blk, c, cfg):
        ok, P = certify(status, blk, c, cfg)
        ok[1:] = False
        return ok, P

    monkeypatch.setattr(thermal, "_certify", first_row_only)
    monkeypatch.setattr(_core, "_Highs", DriftingHighs)
    monkeypatch.setattr(DriftingHighs, "runs", 0)
    model = DispatchModel(fleet, CFG, rng.uniform(-4.0, 14.0, 24))
    X, cost = model.solve(np.array([p0, p0 * (1.0 + 1e-9)]))
    assert model.stats.certified > 0 and DriftingHighs.runs == 3
    assert X[1].tobytes() == X[0].tobytes()
