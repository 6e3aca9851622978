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
builds it for blocks of up to BLOCK heat pumps, dealt by time constant
r_th·c_th so that each position of every block holds neighbours in it.
It solves each distinct price scenario once: the first block swept over
them on one warm-started HiGHS instance; each later block takes the
optimal vertices of the block before it wherever `_certify` proves them
still optimal, and HiGHS solves only the rest, as one LP.
The network OPF places the whole fleet's block into its own LP.
`simulate_temperature` and `check_dispatch` evaluate schedules
independently of the LP.

Units: power kW, energy kWh, temperatures degC, prices EUR/MWh,
time step hours.  Market-side MW conversion happens in the bidding
module, never here.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np
from scipy import sparse

from .errors import Infeasible, InfeasibleBaseline, SolverFailure
from .lp import FEASIBILITY_TOL, OPTIMALITY_TOL, HighsSweep, basis, distinct, first_seen

log = logging.getLogger(__name__)


def __getattr__(name: str):
    # linprog is not called here; perfbench/spans.py patches flexbid.thermal.linprog
    # by name, so the name stays importable, and loads scipy.optimize only
    # when a traced benchmark run asks for it
    if name == "linprog":
        from scipy.optimize import linprog
        return linprog
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class ComfortConfig:
    """Comfort band, COP, and time step shared by all buildings; a day has
    as many steps as its outdoor temperatures t_out."""

    cop: float = 4.0
    t_set: float = 20.0
    t_min: float = 19.0
    t_max: float = 21.0
    dt: float = 1.0

    def __post_init__(self):
        if not (self.t_min <= self.t_set <= self.t_max):
            raise ValueError("comfort band must satisfy t_min <= t_set <= t_max")
        if self.cop <= 0 or self.dt <= 0:
            raise ValueError("cop and dt must be positive")


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
    if t_out.ndim != 1 or schedule.shape != t_out.shape:
        raise ValueError(f"schedule must span t_out's {t_out.size} steps, got {schedule.shape}")
    n = len(t_out)
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


def _steps(buildings: Sequence[BuildingParams],
           cfg: ComfortConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each heat pump's implicit-Euler step: its loss k = dt/(r_th·c_th),
    the decay 1/(1 + k) of its indoor temperature and the gain dt·cop/c_th
    of a kW, in K before the decay."""
    r_th, c_th = np.array([[b.r_th, b.c_th] for b in buildings], dtype=float).reshape(-1, 2).T
    k = cfg.dt / (r_th * c_th)
    return k, 1.0 / (1.0 + k), cfg.dt * cfg.cop / c_th


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
    if t_out.ndim != 1 or not t_out.size:
        raise ValueError(f"t_out must hold one temperature per step, got shape {t_out.shape}")
    n = len(t_out)
    bases = [baseline_profile(b, cfg, t_out) for b in buildings]
    F = len(bases)
    rated = np.array([b.p_hp_rated for b in buildings], dtype=float)
    k, decay, gain = _steps(buildings, cfg)
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
# a single LP for a whole fleet is slower again, on its larger basis.  Every
# block holds τ-neighbours at each position, so a heat pump mostly shares
# its optimal basis with the one at its position in the block before.
BLOCK = 32


def _deal(buildings: Sequence[BuildingParams]) -> list[np.ndarray]:
    """Positions of the fleet's blocks: the fleet sorted (stably) by time
    constant r_th·c_th and dealt round-robin into n = ⌈F/BLOCK⌉ blocks,
    block k taking τ-ranks k, k + n, ..., so position j of every block
    holds τ-neighbours.  No block is larger than BLOCK, and sizes fall by
    at most one from the first block to the last."""
    order = np.argsort([b.r_th * b.c_th for b in buildings], kind="stable")
    n = -(-len(order) // BLOCK)
    return [order[k::n] for k in range(n)]


class _Block(NamedTuple):
    """One block's `fleet_rows` LP and what `_certify` reads of it."""

    idx: np.ndarray  # fleet positions of its heat pumps
    sweep: HighsSweep
    power: np.ndarray  # (n, T) power columns
    baseline: np.ndarray  # (n, T) baseline schedules
    rhs: np.ndarray  # (n, T + 1) right-hand sides: the steps', then the energy row's
    rated: np.ndarray  # (n,) ratings, kW
    decay: np.ndarray  # (n,) decay and gain of each step, as `_steps`
    gain: np.ndarray


def _per_hp(status: np.ndarray, n: int) -> np.ndarray:
    """(S, n, 3T + 1) per-heat-pump vertex statuses of an n-heat-pump
    `fleet_rows` LP's (S, n·(3T + 1)) ones: T power and T temperature
    columns, then T + 1 rows."""
    S, T = len(status), (status.shape[1] // n - 1) // 3
    return np.concatenate([status[:, :2 * n * T].reshape(S, n, 2 * T),
                           status[:, 2 * n * T:].reshape(S, n, T + 1)], axis=2)


def _certify(status: np.ndarray, blk: _Block, c: np.ndarray,
             cfg: ComfortConfig) -> tuple[np.ndarray, np.ndarray]:
    """Which of a block's heat-pump rows a vertex status is optimal for,
    and the power at each such vertex.

    status[s, j] is a vertex status of one heat pump's `fleet_rows` LP
    (see `_per_hp`).  It is certified for the block's heat pump at j
    and the costs c[s] when its basis is nonsingular, its vertex lies
    within the bounds (lp.FEASIBILITY_TOL) and its reduced costs have
    the signs of the bounds its nonbasic columns sit at
    (lp.OPTIMALITY_TOL): the optimality test of an LP basis (Bertsimas &
    Tsitsiklis, Introduction to Linear Optimization, 1997, §3.1).
    Returns (S, n) flags and the (S, n, T) powers, the vertex of each
    certified status, which depends on the status alone, not on c.

    The basis is the chain of step rows plus the energy row, so neither
    the vertex nor the duals need a factorization.  A step whose
    temperature is nonbasic ends a segment of steps whose temperatures
    are basic, each carried from the one before with the decay a; a
    step's heat reaches the segment's end times rho, a power of a.  A
    step whose power and temperature are both basic adds an unknown
    power.  A pin, an end step where neither is basic, fixes the heat
    its segment's unknowns bring to its end: one equation.  The basis
    is nonsingular only if each segment holds as many unknowns as
    equations, except one that holds one more, which the energy row
    fixes; so no segment holds more than two.  Any other pattern, or a
    basic row, is refused.  The vertex then follows from the
    temperatures with the unknowns at zero (one forward recursion over
    T) and the powers are checked by simulating them (another); the
    duals y follow from y_t = a·y_{t+1} along each segment (one
    backward recursion), started at its end from the energy row's dual.
    """
    S, n, L = status.shape
    T = (L - 1) // 3
    M = S * n  # heat-pump rows, row-major
    st = status.reshape(M, L).T  # (L, M)
    sP, sT = st[:T], st[T:2 * T]
    bP, bT = sP == 1, sT == 1
    hold, pin = bP > bT, ~(bP | bT)
    a, g, R, E = (np.tile(v, S) for v in (blk.decay, blk.decay * blk.gain, blk.rated, blk.rhs[:, T]))
    f = np.tile(blk.rhs[:, :T].T, S)  # (T, M)
    c = np.repeat(c.T, n, axis=1)
    dt = cfg.dt
    pv = (sP == 2) * R  # the bounds nonbasic powers and temperatures sit at
    tv = np.where(sT == 2, cfg.t_max, cfg.t_min)
    carry = bT * a  # the share of a temperature the next step keeps
    # each step's segment, named by the step that ends it (T: the horizon)
    head = np.minimum.accumulate(np.where(bT, T, np.arange(T)[:, None])[::-1], axis=0)[::-1]
    rho = np.ones((T + 1, M))
    for t in range(T - 1, -1, -1):
        rho[t] = np.where(bT[t], a * rho[t + 1], 1.0)
    # the unknown powers, step-major, and each segment's count, first and last
    tk, mk = np.nonzero(bP & bT)
    K = len(tk)
    if not K:
        return np.zeros((S, n), dtype=bool), np.zeros((S, n, T))
    seg = head[tk, mk] * M + mk
    count = np.bincount(seg, minlength=(T + 1) * M).reshape(T + 1, M)
    pins = np.r_[pin, np.zeros((1, M), dtype=bool)]
    extra = count == pins + 1
    ok = ~st[2 * T:].any(0) & ((count == pins) | extra).all(0) & (extra.sum(0) == 1)
    first, last = np.full((T + 1) * M, K - 1), np.zeros((T + 1) * M, dtype=np.intp)
    np.minimum.at(first, seg, np.arange(K))
    np.maximum.at(last, seg, np.arange(K))
    rho_k, c_k = rho[tk, mk], c[tk, mk]
    # ---- the vertex
    free = np.empty((T + 1, M))  # free[t]: the temperature before step t, unknowns at zero
    free[0] = 0.0  # the first step row holds the set-point in its right-hand side
    drive = np.where(bT, g * pv + f, tv)
    for t in range(T):
        free[t + 1] = carry[t] * free[t] + drive[t]
    need = (tv - g * pv - f - a * free[:-1]) / g  # at an end: g·need = the heat its bound needs
    # each write below goes into its own heat-pump row, whatever the shape
    # of the others' bases
    P = pv.copy()
    hp, mp = np.nonzero(pin)
    hh, mh = np.nonzero(hold)
    lone = count[hp, mp] == 1  # a lone unknown brings what its pin needs
    k = last[hp[lone] * M + mp[lone]]
    P[tk[k], mk[k]] = need[hp[lone], mp[lone]] / rho_k[k]
    bare = count[hh, mh] == 0  # no unknown: the basic power brings it
    P[hh[bare], mh[bare]] = need[hh[bare], mh[bare]]
    rest = E / dt - P.sum(0)  # energy left to the extra segment
    m = np.arange(M)
    x = np.argmax(extra, axis=0)  # the extra segment's end
    k1, k2 = first[x * M + m], last[x * M + m]
    r1, r2 = rho_k[k1], rho_k[k2]
    at_end = np.minimum(x, T - 1)
    need_x = need[at_end, m]
    x_pin, x_hold = pins[x, m], (x < T) & ~pins[x, m]
    with np.errstate(divide="ignore", invalid="ignore"):
        # a pin: two unknowns bring need_x; a hold: one unknown and the hold's
        # power share the rest; the horizon: one unknown takes it
        u1 = np.where(x_pin, (need_x - r2 * rest) / (r1 - r2),
                      np.where(x_hold, (rest - need_x) / (1.0 - r1), rest))
        one, two = ok & x_hold, ok & x_pin
        P[tk[k1[ok]], mk[k1[ok]]] = u1[ok]
        P[tk[k2[two]], mk[k2[two]]] = (rest - u1)[two]
        P[x[one], m[one]] = (rest - u1)[one]
        temp = np.empty((T + 1, M))
        temp[0] = 0.0
        drive = np.where(bT, g * P + f, tv)
        for t in range(T):
            temp[t + 1] = carry[t] * temp[t] + drive[t]
    ok &= ((P >= -FEASIBILITY_TOL) & (P <= R + FEASIBILITY_TOL)).all(0)
    ok &= ((temp[1:] >= cfg.t_min - FEASIBILITY_TOL) & (temp[1:] <= cfg.t_max + FEASIBILITY_TOL)).all(0)
    # ---- the duals: an unknown power's reduced cost c + g·y - dt·y_E is zero
    c1, c2, c_end = c_k[k1], c_k[k2], c[at_end, m]
    with np.errstate(divide="ignore", invalid="ignore"):
        y_E = np.where(x_pin, (c1 * r2 - c2 * r1) / (dt * (r2 - r1)),
                       np.where(x_hold, (c1 - r1 * c_end) / (dt * (1.0 - r1)), c1 / dt))
        top = np.zeros((T + 1, M))  # each end's dual
        top[hh, mh] = (dt * y_E[mh] - c[hh, mh]) / g[mh]
        k = last[hp * M + mp]
        top[hp, mp] = (dt * y_E[mp] - c_k[k]) / (g[mp] * rho_k[k])
    y = top
    for t in range(T - 1, -1, -1):
        y[t] += carry[t] * y[t + 1]
    d_P = c + g * y[:-1] - dt * y_E
    d_T = a * y[1:] - y[:-1]
    ok &= ((d_P >= -OPTIMALITY_TOL) | (sP != 0)).all(0) & ((d_P <= OPTIMALITY_TOL) | (sP != 2)).all(0)
    ok &= ((d_T >= -OPTIMALITY_TOL) | (sT != 0)).all(0) & ((d_T <= OPTIMALITY_TOL) | (sT != 2)).all(0)
    return ok.reshape(S, n), P.T.reshape(S, n, T)


@dataclass
class SweepStats:
    """The work of a `DispatchModel.solve`, in heat-pump rows (one heat
    pump at one distinct price row) and HiGHS runs."""

    certified: int = 0  # rows that took their τ-neighbour's optimal vertex
    solved: int = 0  # rows HiGHS solved
    runs: int = 0  # HiGHS runs


class DispatchModel:
    """Day-ahead dispatch LPs of a fleet of heat pumps, prices left open.

    Scaled by r_th·cop, a heat pump's power columns give an LP that
    depends only on its time constant τ = r_th·c_th and its rating, so
    heat pumps of near τ tend to share an optimal basis at equal prices.
    The fleet is dealt into blocks of up to BLOCK heat pumps by τ (see
    `_deal`), and each block is one `fleet_rows` LP, built once.  `solve`
    takes the distinct rows of an (S, T) price stack and sweeps them
    over the first block on one HiGHS instance: each row changes only
    the power costs and re-solves from the previous row's optimal basis,
    the first row from the last basis of a block of its size.  Each
    later block takes, heat pump by heat pump and row by row, the
    optimal vertex at the same position of the block before it when
    `_certify` finds it still optimal; HiGHS solves only the rest, as
    one LP of copies.  Equal rows then take the first one's schedules.
    `stats` counts the last solve's work.  It returns what
    `grid.OpfModel.solve_rows` returns: (S, R, T) schedules and S costs,
    resources in the given order.
    """

    def __init__(self, buildings: Sequence[BuildingParams], cfg: ComfortConfig,
                 t_out: np.ndarray):
        self.buildings = list(buildings)
        self.cfg = cfg
        self.t_out = np.asarray(t_out, dtype=float)
        self._blocks = [self._block(idx) for idx in _deal(self.buildings)]
        self.baseline = np.empty((len(self.buildings), self.t_out.size))
        for blk in self._blocks:
            self.baseline[blk.idx] = blk.baseline
        self.stats = SweepStats()

    def _block(self, idx: Sequence[int]) -> _Block:
        """The LP of the buildings at positions idx, one diagonal block each."""
        fleet = [self.buildings[r] for r in idx]
        A, rhs, col_lo, col_hi, baseline, power = fleet_rows(fleet, self.cfg, self.t_out)
        sweep = HighsSweep(A, rhs, rhs, col_lo, col_hi, np.zeros(len(col_lo)), power.ravel())
        _, decay, gain = _steps(fleet, self.cfg)
        return _Block(np.asarray(idx), sweep, power, baseline, rhs.reshape(len(power), -1),
                      col_hi[power[:, 0]], decay, gain)

    def solve(self, prices: np.ndarray,
              bases: dict | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Cost-minimal schedules at each row of an (S, T) EUR/MWh price stack.

        Returns the (S, R, T) schedules in kW, resources in the order
        given, and the S costs in EUR, each row's adding its heat pumps'
        costs one by one in that order.  Each distinct row is dispatched
        once, and equal rows get its schedules and cost; distinct rows on
        which a heat pump ends on the same optimal vertex give it
        byte-identical schedules (`lp.first_seen`).  The first block's
        sweep starts from the basis `bases` holds for its LP's shape (see
        `HighsSweep.solve`) and leaves its final basis there; without one
        given, a fresh dict.  A later block's LP of copies starts from the
        statuses it could not certify and keeps its basis to itself.
        """
        bases = {} if bases is None else bases
        prices = np.asarray(prices, dtype=float)
        T = self.t_out.size
        if prices.ndim != 2 or prices.shape[1] != T or len(prices) < 1:
            raise ValueError(f"prices must have shape (S, {T})")
        c = prices * self.cfg.dt / 1000.0  # objective directly in EUR
        rows, back = distinct(c)  # every block solves each distinct row once
        c = c[rows]
        X = np.empty((len(c), len(self.buildings), T))
        self.stats = SweepStats()
        for k, blk in enumerate(self._blocks):
            if k:  # checked against the same positions of the block before
                X[:, blk.idx], status = self._certified(blk, c, status[:, :len(blk.idx)])
            else:
                x, found = self._highs(blk, np.tile(c, len(blk.idx)), c, bases)
                status = _per_hp(found, len(blk.idx))
                X[:, blk.idx] = first_seen(x[:, blk.power], status)
        # each heat pump's cost a dot product, as its own c @ p would be; a
        # row's total adds them in order from 0.0, bit for bit as sum() does
        per_hp = np.vecdot(X, c[:, None, :])
        return X[back], np.cumsum(np.c_[np.zeros(len(c)), per_hp], axis=1)[back, -1]

    def _highs(self, blk: _Block, cost_rows: np.ndarray, c: np.ndarray,
               bases: dict) -> tuple[np.ndarray, np.ndarray]:
        """HiGHS's points and vertex statuses of blk's LP at cost_rows,
        started as `bases` says, its work counted in `stats`; a failure is
        named after a heat pump whose own LP fails at the rows c."""
        try:
            x, _, status = blk.sweep.solve(cost_rows, bases)
        except (Infeasible, SolverFailure) as exc:
            raise self._named(blk.idx, c, exc) from None
        self.stats.solved += len(blk.idx) * len(cost_rows)
        self.stats.runs += blk.sweep.runs
        return x, status

    def _certified(self, blk: _Block, c: np.ndarray,
                   status: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """A later block's (S, n, T) schedules at the rows c, from the
        (S, n, 3T + 1) vertex statuses at its positions in the block
        before, and its own.  The rows `_certify` refuses go to HiGHS as
        one `fleet_rows` LP of copies, each its heat pump at its row's
        prices, started from the statuses it refused; a vertex seen at an
        earlier row gives a heat pump that row's schedule."""
        ok, x = _certify(status, blk, c, self.cfg)
        self.stats.certified += int(ok.sum())
        s, j = np.nonzero(~ok)
        if len(s):
            status = status.copy()
            T = c.shape[1]
            copies = self._block(blk.idx[j])
            start = np.r_[status[s, j, :2 * T].ravel(), status[s, j, 2 * T:].ravel()]
            shape = copies.sweep.shape  # a start of its own, kept from the campaign's bases
            xc, found = self._highs(copies, c[s].reshape(1, -1), c,
                                    {shape: basis(start, shape[1])})
            x[s, j] = xc[0, copies.power]
            status[s, j] = _per_hp(found, len(j))[0]
        return first_seen(x, status), status

    def _named(self, idx: Sequence[int], c: np.ndarray, exc: Exception) -> Exception:
        """The failure of a block's sweep, named after the first of its
        heat pumps, in the given order, whose own LP fails on the same
        price rows."""
        for r in np.unique(idx):
            try:
                self._block([r]).sweep.solve(c)
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
    # a NaN fails every comparison below, so it is named here
    if not np.isfinite(schedule).all():
        problems.append(f"{np.count_nonzero(~np.isfinite(schedule))} schedule values are not finite")
    if not np.isfinite(expected_energy):
        problems.append(f"expected energy {expected_energy} kWh is not finite")
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
