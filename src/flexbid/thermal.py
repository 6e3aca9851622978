"""Single-node RC building model and heat-pump fleet dispatch.

Each building is a lumped resistance-capacitance circuit heated by a
heat pump:

    C * dT_in/dt = COP * P_hp - (T_in - T_out) / R

Discretized per step with implicit Euler (the loss term is evaluated at
the new temperature).  `fleet_rows` states a fleet's dispatch LP over
each heat pump's power and indoor-temperature columns, building-major:
one sparse dynamics row per step, one daily-energy row at the
baseline's, the rating and the comfort band as column bounds.  It is
the one place the comfort constraints are built: `DispatchModel`
builds it for blocks of up to BLOCK heat pumps and sweeps each over the
price scenarios on one warm-started HiGHS instance, and the network OPF
places the whole fleet's block into its own LP.
`simulate_temperature` and `check_dispatch` evaluate schedules
independently of the LP.

Units: power kW, energy kWh, temperatures degC, prices EUR/MWh,
time step hours.  Market-side MW conversion happens in the bidding
module, never here.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy import sparse

# linprog is not called here; perfbench/spans.py patches flexbid.thermal.linprog
# by name, so the name stays importable for a traced benchmark run
from scipy.optimize import linprog  # noqa: F401

from .errors import Infeasible, InfeasibleBaseline, SolverFailure
from .lp import HighsSweep

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ComfortConfig:
    """Comfort band, COP, and time discretization shared by all buildings."""

    cop: float = 4.0
    t_set: float = 20.0
    t_min: float = 19.0
    t_max: float = 21.0
    dt: float = 1.0
    horizon: int = 24

    def __post_init__(self):
        if not (self.t_min <= self.t_set <= self.t_max):
            raise ValueError("comfort band must satisfy t_min <= t_set <= t_max")
        if self.cop <= 0 or self.dt <= 0:
            raise ValueError("cop and dt must be positive")
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")


@dataclass(frozen=True)
class BuildingParams:
    """Thermal and electrical parameters of a single building."""

    id: str
    r_th: float  # thermal resistance, K/kW
    c_th: float  # thermal capacitance, kWh/K
    p_hp_rated: float = 0.0  # kW electrical
    p_pv_rated: float = 0.0  # kWp
    position: tuple[float, float] = (0.0, 0.0)  # meters
    has_hp: bool = True

    def __post_init__(self):
        if self.r_th <= 0 or self.c_th <= 0:
            raise ValueError(f"building {self.id}: r_th and c_th must be positive")
        if self.p_hp_rated < 0 or self.p_pv_rated < 0:
            raise ValueError(f"building {self.id}: rated powers must be non-negative")


def flexible(buildings: Iterable[BuildingParams]) -> list[BuildingParams]:
    """The buildings with a heat pump of positive rating, in id order:
    the fleet both dispatchers schedule."""
    return sorted((b for b in buildings if b.has_hp and b.p_hp_rated > 0), key=lambda b: b.id)


@dataclass
class DispatchResult:
    """One day's heat-pump schedule and the energy it draws."""

    schedule: np.ndarray  # kW electrical per step
    energy: float  # kWh over the day


def simulate_temperature(
    b: BuildingParams, cfg: ComfortConfig, t_out: np.ndarray, schedule: np.ndarray
) -> np.ndarray:
    """Indoor temperature trajectory for a given schedule.

    Steps the energy balance directly, solving the scalar linear
    equation for the new temperature at each step (the loss term is
    implicit).  Pure evaluation; no constraints are checked.
    """
    t_out = np.asarray(t_out, dtype=float)
    schedule = np.asarray(schedule, dtype=float)
    n = cfg.horizon
    if schedule.shape != (n,) or t_out.shape != (n,):
        raise ValueError(f"schedule and t_out must have length {n}")
    k = cfg.dt / (b.r_th * b.c_th)
    gain = cfg.dt * cfg.cop / b.c_th
    temps = np.empty(n)
    t_prev = cfg.t_set
    for i in range(n):
        # t*(1+k) = t_prev + gain*P + k*t_out
        t_prev = (t_prev + gain * schedule[i] + k * t_out[i]) / (1.0 + k)
        temps[i] = t_prev
    return temps


def baseline_profile(b: BuildingParams, cfg: ComfortConfig, t_out: np.ndarray) -> DispatchResult:
    """Inflexible schedule holding the set-point against thermal losses.

    Power below zero (outdoor warmer than the set-point) is clamped at
    zero; these heat pumps do not cool.  Raises InfeasibleBaseline when
    holding the set-point would need more than rated power.
    """
    if not b.has_hp:
        raise ValueError(f"building {b.id} has no heat pump")
    t_out = np.asarray(t_out, dtype=float)
    schedule = np.maximum(0.0, (cfg.t_set - t_out) / (b.r_th * cfg.cop))
    excess = schedule.max(initial=0.0) - b.p_hp_rated
    if excess > 1e-9:
        raise InfeasibleBaseline(
            f"building {b.id}: baseline needs {schedule.max():.3f} kW, "
            f"rated {b.p_hp_rated:.3f} kW"
        )
    return DispatchResult(schedule=schedule, energy=cfg.dt * float(schedule.sum()))


def profile_cost(schedule_kw: np.ndarray, prices: np.ndarray, dt: float) -> float:
    """Energy cost in EUR of a kW schedule at EUR/MWh prices."""
    return dt * float(np.dot(np.asarray(prices, dtype=float), schedule_kw)) / 1000.0


def fleet_rows(
    buildings: Sequence[BuildingParams], cfg: ComfortConfig, t_out: np.ndarray
) -> tuple[sparse.csc_array, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """A fleet's dispatch LP, A x = rhs and col_lo <= x <= col_hi, its
    (F, T) baseline schedules and the (F, T) indices of its power columns,
    so that x[power] is the fleet's schedules.  Building-major: each heat
    pump owns T power then T indoor-temperature columns and T + 1 rows, so
    A is block-diagonal.  Row t is the implicit-Euler step
    T_t - decay*T_{t-1} - decay*gain*P_t = decay*k*t_out_t (T_{-1} = t_set),
    row T the daily energy at the baseline's; the rating and the comfort
    band bound the columns.  Raises InfeasibleBaseline as
    `baseline_profile` does."""
    t_out = np.asarray(t_out, dtype=float)
    n = cfg.horizon
    if t_out.shape != (n,):
        raise ValueError(f"t_out must have length {n}, got {t_out.shape}")
    bases = [baseline_profile(b, cfg, t_out) for b in buildings]
    F = len(bases)
    r_th, c_th, rated = np.array([[b.r_th, b.c_th, b.p_hp_rated] for b in buildings]).reshape(F, 3).T
    k = cfg.dt / (r_th * c_th)
    decay = 1.0 / (1.0 + k)
    gain = cfg.dt * cfg.cop / c_th
    # column-wise: P_t in step row t and energy row n, T_t in step rows t and t+1
    data = np.c_[np.tile(np.c_[-decay * gain, np.full(F, cfg.dt)], n),
                 np.tile(np.c_[np.ones(F), -decay], n)[:, :-1]]
    steps = np.arange(n)
    rows = np.r_[np.c_[steps, np.full(n, n)].ravel(), np.c_[steps, steps + 1].ravel()[:-1]]
    per_col = np.tile(np.r_[np.full(2 * n - 1, 2), 1], F)  # nonzeros in each column
    A = sparse.csc_array(
        (data.ravel(), (rows + (n + 1) * np.arange(F)[:, None]).ravel(), np.r_[0, per_col.cumsum()]),
        shape=(F * (n + 1), 2 * F * n),
    )
    rhs = np.c_[np.outer(decay * k, t_out), [base.energy for base in bases]]
    rhs[:, 0] += decay * cfg.t_set
    col_lo = np.tile(np.repeat([0.0, cfg.t_min], n), F)
    col_hi = np.c_[np.repeat(rated, n).reshape(F, n), np.full((F, n), cfg.t_max)].ravel()
    baseline = np.array([base.schedule for base in bases]).reshape(F, n)
    power = 2 * n * np.arange(F)[:, None] + steps
    return A, rhs.ravel(), col_lo, col_hi, baseline, power


# Heat pumps per dispatch LP.  Each LP is one HiGHS instance swept over the
# price rows, so blocks pay its fixed per-run cost once for many heat pumps;
# a single LP for a whole fleet is slower again, on its larger basis.  All
# full blocks share one LP shape, so each starts from the optimal basis the
# block before it ended on, not cold.
BLOCK = 32


class DispatchModel:
    """Day-ahead dispatch LPs of a fleet of heat pumps, prices left open.

    The fleet is cut into blocks of up to BLOCK heat pumps in the given
    order, and each block is one `fleet_rows` LP, built once.  `solve`
    sweeps an (S, T) price stack over each block on one HiGHS instance:
    each row changes only the power costs and re-solves from the
    previous row's optimal basis, and a block's first row from the last
    basis of a block of its size.  It returns what
    `grid.OpfModel.solve_rows` returns: (S, R, T) schedules and S costs.
    """

    def __init__(self, buildings: Sequence[BuildingParams], cfg: ComfortConfig,
                 t_out: np.ndarray):
        self.buildings = list(buildings)
        self.cfg = cfg
        self.t_out = np.asarray(t_out, dtype=float)
        self._blocks = [(start, *self._sweep(start, start + BLOCK))
                        for start in range(0, len(self.buildings), BLOCK)]
        self.baseline = np.vstack([np.empty((0, cfg.horizon)),
                                   *(base for *_, base in self._blocks)])

    def _sweep(self, start: int, stop: int) -> tuple[HighsSweep, np.ndarray, np.ndarray]:
        """The LP of buildings[start:stop], one diagonal block each, the
        (n, T) indices of its power columns and their baseline schedules."""
        A, rhs, col_lo, col_hi, baseline, power = fleet_rows(
            self.buildings[start:stop], self.cfg, self.t_out
        )
        sweep = HighsSweep(A, rhs, rhs, col_lo, col_hi, np.zeros(len(col_lo)), power.ravel(),
                           blocks=len(power))
        return sweep, power, baseline

    def solve(self, prices: np.ndarray,
              bases: dict | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Cost-minimal schedules at each row of an (S, T) EUR/MWh price stack.

        Returns the (S, R, T) schedules in kW, resources in the order
        given, and the S costs in EUR, each row's adding its heat pumps'
        costs one by one in that order.  Rows on which a heat pump ends
        on the same optimal vertex give it byte-identical schedules.
        Each block's sweep starts from the basis `bases` holds for its
        LP's shape (see `HighsSweep.solve`); without one given, a fresh
        dict, so each full block starts from the block before it and the
        first cold.
        """
        bases = {} if bases is None else bases
        prices = np.asarray(prices, dtype=float)
        T = self.cfg.horizon
        if prices.ndim != 2 or prices.shape[1] != T or len(prices) < 1:
            raise ValueError(f"prices must have shape (S, {T})")
        c = prices * self.cfg.dt / 1000.0  # objective directly in EUR
        X = np.empty((len(prices), len(self.buildings), T))
        for start, sweep, power, _ in self._blocks:
            n = len(power)
            try:
                x, _ = sweep.solve(np.tile(c, n), bases=bases)
            except (Infeasible, SolverFailure) as exc:
                raise self._named(start, start + n, c, exc) from None
            X[:, start : start + n] = x[:, power]
        # each heat pump's cost a dot product, as its own c @ p would be; a
        # row's total adds them in order from 0.0, bit for bit as sum() does
        per_hp = np.vecdot(X, c[:, None, :])
        return X, np.cumsum(np.c_[np.zeros(len(c)), per_hp], axis=1)[:, -1]

    def _named(self, start: int, stop: int, c: np.ndarray, exc: Exception) -> Exception:
        """The failure of a block's sweep, named after the first of its
        heat pumps whose own LP fails on the same price rows."""
        for r in range(start, stop):
            try:
                self._sweep(r, r + 1)[0].solve(c)
            except Infeasible:
                return Infeasible(
                    f"building {self.buildings[r].id}: no schedule satisfies comfort "
                    f"and energy constraints"
                )
            except SolverFailure as failure:
                return SolverFailure(f"building {self.buildings[r].id}: {failure}")
        return exc


def check_dispatch(
    b: BuildingParams,
    cfg: ComfortConfig,
    t_out: np.ndarray,
    schedule: np.ndarray,
    expected_energy: float,
    tol: float = 1e-6,
) -> list[str]:
    """Re-check a schedule against the building's constraints.

    Returns a list of human-readable violations (empty when feasible).
    Used to validate disaggregated schedules without trusting the
    optimizer that produced them.
    """
    schedule = np.asarray(schedule, dtype=float)
    problems = []
    if schedule.min(initial=0.0) < -tol:
        problems.append(f"negative power {schedule.min():.3e} kW")
    if schedule.max(initial=0.0) > b.p_hp_rated + tol:
        problems.append(
            f"power {schedule.max():.6f} kW above rated {b.p_hp_rated:.6f} kW"
        )
    temps = simulate_temperature(b, cfg, t_out, schedule)
    if temps.min() < cfg.t_min - tol:
        problems.append(f"temperature {temps.min():.6f} below t_min {cfg.t_min}")
    if temps.max() > cfg.t_max + tol:
        problems.append(f"temperature {temps.max():.6f} above t_max {cfg.t_max}")
    energy = cfg.dt * float(schedule.sum())
    if abs(energy - expected_energy) > tol * max(1.0, abs(expected_energy)):
        problems.append(f"energy {energy:.9f} kWh differs from {expected_energy:.9f}")
    return problems
