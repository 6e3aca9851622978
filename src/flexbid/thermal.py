"""Single-node RC building model and per-resource heat-pump dispatch.

Each building is a lumped resistance-capacitance circuit heated by a
heat pump:

    C * dT_in/dt = COP * P_hp - (T_in - T_out) / R

Discretized per step with implicit Euler (the loss term is evaluated at
the new temperature), the indoor temperature is an affine function of
the power schedule.  Baseline operation and temperature simulation
therefore reduce to small dense linear algebra, and price-driven
dispatch to a bounded LP over the daily schedule that one warm-started
HiGHS sweep re-solves for every price scenario.

Units: power kW, energy kWh, temperatures degC, prices EUR/MWh,
time step hours.  Market-side MW conversion happens in the bidding
module, never here.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

# linprog is not called here; perfbench/spans.py patches flexbid.thermal.linprog
# by name, so the name stays importable for a traced benchmark run
from scipy.optimize import linprog  # noqa: F401

from .errors import Infeasible, InfeasibleBaseline, SolverFailure
from .lp import FEASIBILITY_TOL, OPTIMALITY_TOL, HighsSweep  # noqa: F401 (tolerances re-exported)

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


@dataclass
class DispatchResult:
    """One day's heat-pump schedule with its temperature trajectory."""

    schedule: np.ndarray  # kW electrical per step
    temperatures: np.ndarray  # degC per step
    energy: float  # kWh over the day
    cost: float | None = None  # EUR at the price vector the schedule was made for


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


def baseline_profile(
    b: BuildingParams,
    cfg: ComfortConfig,
    t_out: np.ndarray,
    prices: np.ndarray | None = None,
) -> DispatchResult:
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
    temps = np.full(cfg.horizon, cfg.t_set, dtype=float)
    energy = cfg.dt * float(schedule.sum())
    cost = profile_cost(schedule, prices, cfg.dt) if prices is not None else None
    return DispatchResult(schedule=schedule, temperatures=temps, energy=energy, cost=cost)


def profile_cost(schedule_kw: np.ndarray, prices: np.ndarray, dt: float) -> float:
    """Energy cost in EUR of a kW schedule at EUR/MWh prices."""
    return dt * float(np.dot(np.asarray(prices, dtype=float), schedule_kw)) / 1000.0


class DispatchModel:
    """Per-building, per-day dispatch LP with the prices left open.

    The temperature trajectory is eliminated through the affine response
    map, so each price row's LP has only the T power variables.  The
    constraint rows (comfort band, daily energy equality) are built once.
    `solve` takes one price vector or a stack of S of them and sweeps the
    stack on one HiGHS instance: each row changes only the T costs and
    re-solves from the previous row's optimal basis.
    """

    def __init__(self, b: BuildingParams, cfg: ComfortConfig, t_out: np.ndarray):
        self.building = b
        self.cfg = cfg
        self.t_out = np.asarray(t_out, dtype=float)
        base = baseline_profile(b, cfg, self.t_out)
        self.e_base = base.energy
        self.baseline = base.schedule
        self.response, self.free_temp = temperature_response(b, cfg, self.t_out)
        n = cfg.horizon
        # comfort band  t_min <= M p + m0 <= t_max  as two one-sided blocks,
        # then the daily energy equality
        self._lp = HighsSweep(
            np.vstack([self.response, -self.response, np.full((1, n), cfg.dt)]),
            row_lo=np.concatenate([np.full(2 * n, -np.inf), [self.e_base]]),
            row_hi=np.concatenate(
                [cfg.t_max - self.free_temp, self.free_temp - cfg.t_min, [self.e_base]]
            ),
            col_lo=np.zeros(n),
            col_hi=np.full(n, b.p_hp_rated),
            cost=np.zeros(n),
            cost_cols=np.arange(n),
        )

    def solve(self, prices: np.ndarray) -> DispatchResult | list[DispatchResult]:
        """Cost-minimal schedules at EUR/MWh prices.

        A (T,) price vector returns one DispatchResult; an (S, T) matrix
        returns a list of S results, one per row.  Rows that end on the
        same optimal vertex get byte-identical schedules.
        """
        prices = np.asarray(prices, dtype=float)
        n = self.cfg.horizon
        rows = np.atleast_2d(prices)
        if prices.ndim > 2 or rows.shape[1] != n or rows.shape[0] < 1:
            raise ValueError(f"prices must have shape ({n},) or (S, {n})")
        c = rows * self.cfg.dt / 1000.0  # objective directly in EUR
        try:
            x, _ = self._lp.solve(c)
        except Infeasible:
            raise Infeasible(
                f"building {self.building.id}: no schedule satisfies comfort "
                f"and energy constraints"
            ) from None
        except SolverFailure as exc:
            raise SolverFailure(f"building {self.building.id}: {exc}") from None
        temps = x @ self.response.T + self.free_temp
        results = [
            DispatchResult(
                schedule=x[s],
                temperatures=temps[s],
                energy=self.cfg.dt * float(x[s].sum()),
                cost=float(c[s] @ x[s]),
            )
            for s in range(len(rows))
        ]
        return results[0] if prices.ndim == 1 else results


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
