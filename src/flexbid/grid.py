"""Radial distribution network: allocation MILP and a linearized branch-flow OPF.

The network is a tree rooted at a substation.  Power flow uses the
lossless LinDistFlow form on squared voltages: per line, the flow
variable is the power sent from the ancestor end toward the child
(positive = serving downstream demand), the nodal balance at node n
reads flow(n) = sum of child flows + net consumption at n, and the
voltage drop is U_child = U_ancestor - 2*(r*P + x*Q).

Each heat pump brings the rows `thermal.building_rows` states for it:
an indoor-temperature column per step, bounded by the comfort band and
tied to the schedule by one implicit-Euler row, plus the daily-energy
row.

Apparent-power limits are quadratic in reality; here each line (and
the substation's connection to the external grid) gets a regular
polygon inscribed in the rating circle, which keeps every scenario
problem an LP and can never overload the true circle.

Unit bookkeeping: building and nodal quantities are kW; flows,
voltages, and ratings are per-unit on s_base_kva; market prices are
EUR/MWh, so objective terms convert kW·h to MWh once.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import reduce
from typing import Mapping, Sequence

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

# linprog is not called here; perfbench/spans.py patches flexbid.grid.linprog
# by name, so the name stays importable for a traced benchmark run
from scipy.optimize import linprog  # noqa: F401

from .errors import (
    CycleDetected,
    DanglingReference,
    DisconnectedNode,
    GridMismatch,
    Infeasible,
    MultipleAncestors,
    SolverFailure,
)
from .lp import HighsSweep
from .thermal import (
    BuildingParams,
    ComfortConfig,
    baseline_profile,
    building_rows,
    check_dispatch,
)

log = logging.getLogger(__name__)

VOLL_EUR_MWH = 10000.0
DEFAULT_FACETS = 8
V_MIN_PU = 0.97
V_MAX_PU = 1.03
_INFEASIBLE = (
    "network dispatch infeasible despite shedding recourse; "
    "check ratings against the unsheddable heat-pump load"
)


@dataclass(frozen=True)
class Node:
    """A connection point; exactly the substations have no ancestor."""

    id: int
    ancestor_id: int | None
    position: tuple[float, float] = (0.0, 0.0)
    p_cap_kw: float = 0.0
    is_substation: bool = False
    s_rating_kva: float = 0.0  # substations only
    v_nom_pu: float = 1.0  # substations only

    def __post_init__(self):
        if self.p_cap_kw < 0:
            raise ValueError(f"node {self.id}: p_cap must be >= 0")


@dataclass(frozen=True)
class Line:
    """Directed child -> ancestor; electrical parameters in per-unit."""

    from_id: int
    to_id: int
    r_pu: float
    x_pu: float
    s_rating_pu: float

    def __post_init__(self):
        if self.r_pu < 0 or self.x_pu < 0:
            raise ValueError(f"line {self.from_id}->{self.to_id}: r, x must be >= 0")
        if self.s_rating_pu <= 0:
            raise ValueError(f"line {self.from_id}->{self.to_id}: s_rating must be > 0")


@dataclass(frozen=True)
class GridTimeSeries:
    """Hourly scaling factors: system load factor, PV capacity factor,
    and the fixed reactive-to-active ratio applied to consumption."""

    slf: np.ndarray
    cf: np.ndarray
    rar: float = 0.05

    def __post_init__(self):
        slf = np.asarray(self.slf, dtype=float)
        cf = np.asarray(self.cf, dtype=float)
        object.__setattr__(self, "slf", slf)
        object.__setattr__(self, "cf", cf)
        if slf.shape != cf.shape:
            raise ValueError("slf and cf must have the same length")
        if not (np.isfinite(slf).all() and np.isfinite(cf).all()):
            raise ValueError("slf and cf values must be finite")
        if slf.min(initial=0.0) < 0 or slf.max(initial=0.0) > 1:
            raise ValueError("slf values must lie in [0, 1]")
        if cf.min(initial=0.0) < 0 or cf.max(initial=0.0) > 1:
            raise ValueError("cf values must lie in [0, 1]")
        if self.rar < 0:
            raise ValueError("rar must be >= 0")


@dataclass(frozen=True)
class RadialNetwork:
    nodes: dict[int, Node]
    lines: list[Line]
    s_base_kva: float = 1000.0
    v_base_kv: float = 0.4

    def __post_init__(self):
        if self.s_base_kva <= 0:
            raise ValueError("s_base must be > 0")


@dataclass(frozen=True)
class Topology:
    """Validated tree structure: child sets and per-node upstream lines."""

    substations: list[int]
    children: dict[int, list[int]]
    line_by_child: dict[int, Line]
    order: list[int]  # BFS from the roots, ancestors before descendants


def validate_radial(net: RadialNetwork) -> Topology:
    """Check the forest invariants and derive the traversal structure.

    Raises CycleDetected, DisconnectedNode, MultipleAncestors, or
    DanglingReference; a clean pass returns the Topology the OPF needs.
    """
    nodes = net.nodes
    substations = sorted(n.id for n in nodes.values() if n.is_substation)
    if not substations:
        raise DisconnectedNode("network has no substation to root the tree")

    for n in nodes.values():
        if n.is_substation and n.ancestor_id is not None:
            raise MultipleAncestors(
                f"substation {n.id} lists ancestor {n.ancestor_id}; "
                "the external grid is already its ancestor"
            )
        if not n.is_substation and n.ancestor_id is None:
            raise DisconnectedNode(f"node {n.id} has no ancestor and is not a substation")
        if n.ancestor_id is not None and n.ancestor_id not in nodes:
            raise DanglingReference(f"node {n.id} references unknown ancestor {n.ancestor_id}")

    line_by_child: dict[int, Line] = {}
    for ln in net.lines:
        if ln.from_id not in nodes:
            raise DanglingReference(f"line references unknown node {ln.from_id}")
        if ln.to_id not in nodes:
            raise DanglingReference(f"line references unknown node {ln.to_id}")
        if ln.from_id in line_by_child:
            raise MultipleAncestors(f"node {ln.from_id} has two upstream lines")
        if nodes[ln.from_id].ancestor_id != ln.to_id:
            raise GridMismatch(
                f"line {ln.from_id}->{ln.to_id} contradicts the declared "
                f"ancestor {nodes[ln.from_id].ancestor_id}"
            )
        line_by_child[ln.from_id] = ln
    for n in nodes.values():
        if not n.is_substation and n.id not in line_by_child:
            raise DisconnectedNode(f"node {n.id} lacks a line to its ancestor")

    # ancestor chains must terminate (at a substation) without revisits
    color: dict[int, int] = {}  # 0 = on current chain, 1 = known good
    for start in nodes:
        chain = []
        cur: int | None = start
        while cur is not None:
            c = color.get(cur)
            if c == 1:
                break
            if c == 0:
                raise CycleDetected(f"ancestor chain loops at node {cur}")
            color[cur] = 0
            chain.append(cur)
            cur = nodes[cur].ancestor_id
        for p in chain:
            color[p] = 1

    children: dict[int, list[int]] = {nid: [] for nid in nodes}
    for n in nodes.values():
        if n.ancestor_id is not None:
            children[n.ancestor_id].append(n.id)
    for c in children.values():
        c.sort()

    order: list[int] = []
    queue = list(substations)
    while queue:
        nid = queue.pop(0)
        order.append(nid)
        queue.extend(children[nid])
    return Topology(
        substations=substations,
        children=children,
        line_by_child=line_by_child,
        order=order,
    )


def allocate_buildings(
    buildings: Sequence[BuildingParams], net: RadialNetwork
) -> dict[str, int]:
    """Assign every building to a load node, minimizing total distance.

    Binary assignment MILP: each building lands on exactly one
    non-substation node; per node, the assigned heat-pump ratings and
    the assigned PV ratings must each fit under the node's connection
    capacity.  Ratings count whether or not a unit is currently
    installed, so the assignment is stable across equipment roll-outs.
    """
    validate_radial(net)
    sites = [n for _, n in sorted(net.nodes.items()) if not n.is_substation]
    if not buildings:
        return {}
    if not sites:
        raise Infeasible("network has no load nodes to host buildings")

    cap = np.array([n.p_cap_kw for n in sites])
    hp = np.array([b.p_hp_rated for b in buildings])
    pv = np.array([b.p_pv_rated for b in buildings])
    if hp.sum() > cap.sum() + 1e-9:
        raise Infeasible(
            f"heat-pump ratings total {hp.sum():.1f} kW but connection "
            f"capacity totals {cap.sum():.1f} kW"
        )
    if pv.sum() > cap.sum() + 1e-9:
        raise Infeasible(
            f"PV ratings total {pv.sum():.1f} kW but connection "
            f"capacity totals {cap.sum():.1f} kW"
        )

    nb, nn = len(buildings), len(sites)
    bx = np.array([b.position[0] for b in buildings])
    by = np.array([b.position[1] for b in buildings])
    nx = np.array([n.position[0] for n in sites])
    ny = np.array([n.position[1] for n in sites])
    dist = np.hypot(bx[:, None] - nx[None, :], by[:, None] - ny[None, :])

    # variables a[b, n] flattened row-major
    assign = np.kron(np.eye(nb), np.ones(nn))
    hp_rows = np.kron(hp, np.eye(nn))
    pv_rows = np.kron(pv, np.eye(nn))

    res = milp(
        c=dist.ravel(),
        constraints=[
            LinearConstraint(assign, 1.0, 1.0),
            LinearConstraint(hp_rows, -np.inf, cap),
            LinearConstraint(pv_rows, -np.inf, cap),
        ],
        integrality=np.ones(nb * nn),
        bounds=Bounds(0.0, 1.0),
    )
    if res.status == 2:
        raise Infeasible(
            "no feasible assignment: per-node connection capacities cannot "
            "host the heat-pump and PV ratings jointly"
        )
    if not res.success:
        raise SolverFailure(f"assignment solve failed: {res.message}")

    a = res.x.reshape(nb, nn)
    out: dict[str, int] = {}
    for b, bld in enumerate(buildings):
        out[bld.id] = sites[int(np.argmax(a[b]))].id
    return out


@dataclass(frozen=True)
class OpfSolution:
    """One solved network dispatch.

    Arrays are entity-major: shed_kw[i, t] belongs to node_ids[i]; flow
    arrays are indexed by the child node of each line, positive when
    power moves from the ancestor toward that child.  pcc_mw is the
    substation import from the external grid, positive into the feeder.
    """

    node_ids: list[int]
    hp_kw: dict[str, np.ndarray]
    shed_kw: np.ndarray
    u_pu2: np.ndarray
    flow_p_pu: np.ndarray
    flow_q_pu: np.ndarray
    pcc_p_pu: np.ndarray
    pcc_q_pu: np.ndarray
    pcc_mw: np.ndarray
    objective_eur: float
    hp_cost_eur: float
    fixed_cost_eur: float
    shed_kwh: float


class OpfModel:
    """Network dispatch LP for one day, reusable across price vectors.

    The constraint blocks depend only on the network, the buildings, and
    the day's weather/profiles, so they are assembled once, as
    row_lo <= A x <= row_hi, col_lo <= x <= col_hi with the costs `cost`
    outside the substation import's `import_cols`; each heat pump's
    dynamics and energy rows come from `thermal.building_rows`, over its
    hp columns and its own temperature columns.  Both solve() and
    solve_rows() run the warm-started `lp.HighsSweep`, which sets the
    price coefficients on the substation import and re-runs the solver
    from the previous optimal basis.  Heat-pump schedules can be pinned
    (baseline runs, awarded profiles) by passing hp_fixed to solve().
    """

    def __init__(
        self,
        net: RadialNetwork,
        buildings: Sequence[BuildingParams],
        alloc: Mapping[str, int],
        cfg: ComfortConfig,
        t_out: np.ndarray,
        series: GridTimeSeries,
        voll: float = VOLL_EUR_MWH,
        facets: int = DEFAULT_FACETS,
    ):
        if facets < 3:
            raise ValueError("polygonal rating needs at least 3 facets")
        topo = validate_radial(net)
        if len(topo.substations) != 1:
            raise GridMismatch(
                f"network dispatch expects one substation, found {len(topo.substations)}"
            )
        t_out = np.asarray(t_out, dtype=float)
        T = cfg.horizon
        if t_out.shape != (T,) or series.slf.shape != (T,):
            raise ValueError("t_out, slf, cf must all span the dispatch horizon")

        self.net = net
        self.cfg = cfg
        self.t_out = t_out
        self.series = series
        self.voll = voll
        self.facets = facets
        self.topo = topo
        self.sub_id = topo.substations[0]
        self.node_ids = [nid for nid in topo.order if nid != self.sub_id]
        self.node_pos = {nid: i for i, nid in enumerate(self.node_ids)}

        self.flex = [b for b in buildings if b.has_hp and b.p_hp_rated > 0]
        for b in self.flex:
            if b.id not in alloc:
                raise DanglingReference(f"building {b.id} has no node assignment")
        for b in buildings:
            nid = alloc.get(b.id)
            if nid is None:
                continue
            if nid not in net.nodes:
                raise DanglingReference(f"building {b.id} assigned to unknown node {nid}")
            if nid == self.sub_id:
                raise GridMismatch(f"building {b.id} assigned to the substation")

        self.e_base: dict[str, float] = {}
        self.base_kw: dict[str, np.ndarray] = {}
        for b in self.flex:
            base = baseline_profile(b, cfg, t_out)
            self.base_kw[b.id] = base.schedule
            self.e_base[b.id] = base.energy

        # nodal fixed load: scaled connection capacity minus the baseline
        # draw of the explicitly modeled heat pumps at that node
        N = len(self.node_ids)
        self.p_fix_kw = np.zeros((N, T))
        self.pv_kw = np.zeros((N, T))
        for i, nid in enumerate(self.node_ids):
            self.p_fix_kw[i] = net.nodes[nid].p_cap_kw * series.slf
        flex_at_node: dict[int, list[BuildingParams]] = {nid: [] for nid in self.node_ids}
        for b in self.flex:
            flex_at_node[alloc[b.id]].append(b)
            self.p_fix_kw[self.node_pos[alloc[b.id]]] -= self.base_kw[b.id]
        for b in buildings:
            if b.p_pv_rated > 0 and b.id in alloc:
                self.pv_kw[self.node_pos[alloc[b.id]]] += b.p_pv_rated * series.cf
        low = self.p_fix_kw.min()
        if low < -1e-6:
            raise Infeasible(
                f"fixed load goes negative ({low:.3f} kW): baseline heat-pump "
                "draw exceeds the scaled nodal demand; instance data is inconsistent"
            )
        np.clip(self.p_fix_kw, 0.0, None, out=self.p_fix_kw)
        self.flex_at_node = flex_at_node
        sub = net.nodes[self.sub_id]
        self.sub_fix_kw = sub.p_cap_kw * series.slf
        self.s_sub_pu = sub.s_rating_kva / net.s_base_kva
        self.u_sub = sub.v_nom_pu**2

        self._assemble([self.node_pos[alloc[b.id]] for b in self.flex])

    def _assemble(self, hp_node: list[int]):
        """Column blocks, entity-major and time-minor: hp (F*T), shed, u,
        fp, fq (N*T each), pcc_p, pcc_q (T each), indoor temperature (F*T).
        Row blocks: the rating polygons, each node's T active then T
        reactive balances, the substation's, the voltage drops, and each
        heat pump's `thermal.building_rows`."""
        net, cfg, series = self.net, self.cfg, self.series
        T = cfg.horizon
        F, N = len(self.flex), len(self.node_ids)
        S = net.s_base_kva
        rar = series.rar
        lines = [self.topo.line_by_child[nid] for nid in self.node_ids]
        anc = [net.nodes[nid].ancestor_id for nid in self.node_ids]
        feeds_sub = np.array([[a == self.sub_id for a in anc]], dtype=float)
        below = [i for i, a in enumerate(anc) if a != self.sub_id]
        # D[i, i] = 1 and D[i, ancestor of i] = -1: D u is each line's
        # voltage drop, D.T f each node's inflow minus its children's
        D = sparse.identity(N) - sparse.coo_matrix(
            (np.ones(len(below)), (below, [self.node_pos[anc[i]] for i in below])), shape=(N, N)
        )
        H = sparse.coo_matrix((np.ones(F), (hp_node, np.arange(F))), shape=(N, F))
        hours = sparse.identity(T)
        active, reactive = np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]])

        def kron(*factors):
            return reduce(lambda a, b: sparse.kron(a, b, format="csr"), factors)

        # Polygonal apparent-power limits, one row per facet: lines by node
        # and hour, then the substation.  Facet normals sit between the
        # polygon's vertices, which lie on the rating circle at angles
        # 2*pi*k/K — one of them on the P axis, so a purely active flow can
        # use the full rating.
        K = self.facets
        angles = [(2 * k + 1) * math.pi / K for k in range(K)]
        cos = np.array([[math.cos(ang)] for ang in angles])
        sin = np.array([[math.sin(ang)] for ang in angles])
        ratings = np.array([ln.s_rating_pu for ln in lines] + [self.s_sub_pu])
        poly_hi = np.repeat(ratings * math.cos(math.pi / K), T * K)

        # every heat pump's rows, its [power, temperature] columns regrouped
        # into the hp block and the temperature block
        steps = [building_rows(b, cfg, self.t_out, self.e_base[b.id]) for b in self.flex]
        B = sparse.block_diag([A for A, *_ in steps] or [sparse.csc_array((0, 0))], format="csc")
        B = B[:, np.arange(2 * F * T).reshape(F, 2, T).transpose(1, 0, 2).ravel()]

        r2, x2 = 2.0 * np.array([[ln.r_pu for ln in lines], [ln.x_pu for ln in lines]])
        self.A = sparse.bmat([
            # columns: hp, shed, u, fp, fq, pcc_p, pcc_q, temperature
            # line polygons, by node, hour and facet
            [None, None, None, kron(sparse.identity(N * T), cos),
             kron(sparse.identity(N * T), sin), None, None, None],
            # substation polygon, by hour and facet
            [None, None, None, None, None, kron(hours, cos), kron(hours, sin), None],
            # each node's T active, then its T reactive balance rows
            [kron(H, np.array([[-1.0 / S], [-rar / S]]), hours),
             kron(sparse.identity(N), active / S, hours), None,
             kron(D.T, active, hours), kron(D.T, reactive, hours), None, None, None],
            # substation active, then reactive balance against the import
            [None, None, None, kron(-feeds_sub, active, hours), kron(-feeds_sub, reactive, hours),
             kron(active, hours), kron(reactive, hours), None],
            # voltage drop along each line
            [None, None, kron(D, hours), kron(sparse.diags(r2), hours),
             kron(sparse.diags(x2), hours), None, None, None],
            # each heat pump's dynamics and daily energy
            [B[:, : F * T], None, None, None, None, None, None, B[:, F * T :]],
        ], format="csr")
        rhs = np.concatenate([
            np.stack([(self.p_fix_kw - self.pv_kw) / S, rar * self.p_fix_kw / S], axis=1).ravel(),
            self.sub_fix_kw / S,
            rar * self.sub_fix_kw / S,
            np.repeat(self.u_sub * feeds_sub[0], T),
            *(rhs_b for _, rhs_b, _, _ in steps),
        ])
        self.row_lo = np.r_[np.full(len(poly_hi), -np.inf), rhs]
        self.row_hi = np.r_[poly_hi, rhs]

        def column_bounds(k, shed, u, free):  # k picks building_rows' col_lo or col_hi
            return np.concatenate([
                *(bounds[k][:T] for bounds in steps),
                np.broadcast_to(shed, N * T), np.full(N * T, u), np.full(2 * N * T + 2 * T, free),
                *(bounds[k][T:] for bounds in steps),
            ])

        self.col_lo = column_bounds(2, 0.0, V_MIN_PU**2, -np.inf)
        self.col_hi = column_bounds(3, self.p_fix_kw.ravel(), V_MAX_PU**2, np.inf)
        self.cost = np.repeat([0.0, cfg.dt * self.voll / 1000.0, 0.0],
                              [F * T, N * T, 3 * N * T + 2 * T + F * T])
        self._ends = np.cumsum([F * T, N * T, N * T, N * T, N * T, T, T])
        self.import_cols = np.arange(self._ends[4], self._ends[5])

    def _import_cost(self, prices: np.ndarray) -> np.ndarray:
        """Objective coefficients of the substation import at the given prices."""
        T = self.cfg.horizon
        if prices.shape != (T,):
            raise ValueError(f"prices must span {T} hours")
        return self.cfg.dt * prices * self.net.s_base_kva / 1000.0

    def solve(
        self,
        prices: np.ndarray,
        hp_fixed: Mapping[str, np.ndarray] | None = None,
    ) -> OpfSolution:
        """Minimize import cost plus shedding penalty at the given prices."""
        T = self.cfg.horizon
        col_lo, col_hi = self.col_lo.copy(), self.col_hi.copy()
        flex_index = {b.id: f for f, b in enumerate(self.flex)}
        for bid, sched in (hp_fixed or {}).items():
            if bid not in flex_index:
                raise DanglingReference(f"hp_fixed names unknown building {bid}")
            sched = np.asarray(sched, dtype=float)
            if sched.shape != (T,):
                raise ValueError(f"fixed schedule for {bid} must span {T} hours")
            f = flex_index[bid]  # the hp columns come first
            col_lo[f * T : (f + 1) * T] = col_hi[f * T : (f + 1) * T] = sched
        return self._sweep(np.asarray(prices, dtype=float)[None], col_lo, col_hi)[0]

    def solve_rows(self, price_rows: np.ndarray) -> list[OpfSolution]:
        """Free dispatch at each (T,) row of an (S, T) price stack.

        The rows differ only in the import-price costs, so one HiGHS
        instance holds the LP and dual simplex re-solves each row from
        the previous row's optimal basis.  The first row is solved cold,
        exactly as solve() would.  A row that ends on an optimal vertex
        seen before gets that earlier row's primal point, so identical
        schedules stay byte-identical.
        """
        price_rows = np.asarray(price_rows, dtype=float)
        if price_rows.ndim != 2:
            raise ValueError("price_rows must be an (S, T) array")
        return self._sweep(price_rows, self.col_lo, self.col_hi)

    def _sweep(self, price_rows: np.ndarray, col_lo: np.ndarray,
               col_hi: np.ndarray) -> list[OpfSolution]:
        """One `lp.HighsSweep` over the price rows, under the given column bounds."""
        costs = np.array([self._import_cost(prices) for prices in price_rows])
        lp = HighsSweep(self.A, self.row_lo, self.row_hi, col_lo, col_hi, self.cost,
                        self.import_cols)
        try:
            X, objective = lp.solve(costs)
        except Infeasible:
            raise Infeasible(_INFEASIBLE) from None
        except SolverFailure as exc:
            raise SolverFailure(f"network dispatch failed: {exc}") from None
        return [
            self._solution(prices, x, float(obj))
            for prices, x, obj in zip(price_rows, X, objective)
        ]

    def _solution(self, prices: np.ndarray, x: np.ndarray, objective: float) -> OpfSolution:
        """Unpack a primal point of the LP into an OpfSolution."""
        cfg = self.cfg
        T = cfg.horizon
        N = len(self.node_ids)
        hp, shed, u, fp, fq, pcc_p, pcc_q, _ = np.split(x, self._ends)
        hp_kw = {b.id: sched.copy() for b, sched in zip(self.flex, hp.reshape(-1, T))}
        shed, u, fp, fq = (v.reshape(N, T) for v in (shed, u, fp, fq))

        total_hp = sum(hp_kw.values()) if hp_kw else np.zeros(T)
        hp_cost = cfg.dt * float(np.dot(prices, total_hp)) / 1000.0
        shed_kwh = cfg.dt * float(shed.sum())
        fixed_cost = objective - self.voll * shed_kwh / 1000.0 - hp_cost
        return OpfSolution(
            node_ids=list(self.node_ids),
            hp_kw=hp_kw,
            shed_kw=shed,
            u_pu2=u,
            flow_p_pu=fp,
            flow_q_pu=fq,
            pcc_p_pu=pcc_p,
            pcc_q_pu=pcc_q,
            pcc_mw=pcc_p * self.net.s_base_kva / 1000.0,
            objective_eur=objective,
            hp_cost_eur=hp_cost,
            fixed_cost_eur=fixed_cost,
            shed_kwh=shed_kwh,
        )

    def baseline_solution(self, prices: np.ndarray) -> OpfSolution:
        """Dispatch with every heat pump pinned to its baseline schedule."""
        return self.solve(prices, hp_fixed=dict(self.base_kw))


def verify_solution(model: OpfModel, sol: OpfSolution, tol: float = 1e-6) -> list[str]:
    """Independent re-check of a solved dispatch; returns found issues.

    Covers nodal flow conservation, the true quadratic rating circles
    (which the polygon must under-fill), voltage bounds, the shedding
    bounds, and each heat pump's rating, comfort band and daily energy
    (`thermal.check_dispatch`, which simulates the temperatures).
    """
    issues: list[str] = []
    net, cfg, series = model.net, model.cfg, model.series
    T = cfg.horizon
    S = net.s_base_kva
    topo = model.topo
    pos = model.node_pos

    total_hp_at = {nid: np.zeros(T) for nid in model.node_ids}
    for nid, blds in model.flex_at_node.items():
        for b in blds:
            total_hp_at[nid] += sol.hp_kw[b.id]

    for i, nid in enumerate(model.node_ids):
        draw = (
            model.p_fix_kw[i]
            + total_hp_at[nid]
            - model.pv_kw[i]
            - sol.shed_kw[i]
        ) / S
        kids = topo.children[nid]
        balance = sol.flow_p_pu[i] - sum(sol.flow_p_pu[pos[c]] for c in kids) - draw
        if np.abs(balance).max() > tol:
            issues.append(f"node {nid}: active balance off by {np.abs(balance).max():.2e} pu")
        draw_q = series.rar * (model.p_fix_kw[i] + total_hp_at[nid]) / S
        balance_q = sol.flow_q_pu[i] - sum(sol.flow_q_pu[pos[c]] for c in kids) - draw_q
        if np.abs(balance_q).max() > tol:
            issues.append(f"node {nid}: reactive balance off by {np.abs(balance_q).max():.2e} pu")

    sub_kids = topo.children[model.sub_id]
    sub_draw = model.sub_fix_kw / S
    bal = sol.pcc_p_pu - sum(sol.flow_p_pu[pos[c]] for c in sub_kids) - sub_draw
    if np.abs(bal).max() > tol:
        issues.append(f"substation: active balance off by {np.abs(bal).max():.2e} pu")

    for i, nid in enumerate(model.node_ids):
        ln = topo.line_by_child[nid]
        sq = sol.flow_p_pu[i] ** 2 + sol.flow_q_pu[i] ** 2
        if sq.max() > ln.s_rating_pu**2 + tol:
            issues.append(f"line to node {nid}: apparent power exceeds the rating circle")
        anc = net.nodes[nid].ancestor_id
        u_anc = model.u_sub if anc == model.sub_id else sol.u_pu2[pos[anc]]
        resid = sol.u_pu2[i] - (u_anc - 2.0 * (ln.r_pu * sol.flow_p_pu[i] + ln.x_pu * sol.flow_q_pu[i]))
        if np.abs(resid).max() > tol:
            issues.append(f"line to node {nid}: voltage drop equation violated")
    if (sol.pcc_p_pu**2 + sol.pcc_q_pu**2).max() > model.s_sub_pu**2 + tol:
        issues.append("substation: apparent power exceeds the rating circle")

    if sol.u_pu2.min() < V_MIN_PU**2 - tol or sol.u_pu2.max() > V_MAX_PU**2 + tol:
        issues.append("voltage bounds violated")
    if sol.shed_kw.min() < -tol:
        issues.append("negative shedding")
    if (sol.shed_kw - model.p_fix_kw).max() > tol:
        issues.append("shedding exceeds fixed load")
    for b in model.flex:
        issues += [
            f"building {b.id}: {problem}"
            for problem in check_dispatch(
                b, cfg, model.t_out, sol.hp_kw[b.id], model.e_base[b.id], tol
            )
        ]
    return issues
