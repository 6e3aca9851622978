"""Radial distribution network: allocation MILP and a linearized branch-flow OPF.

The network is a tree rooted at a substation.  Power flow uses the
lossless LinDistFlow form on squared voltages: per line, the flow
variable is the power sent from the ancestor end toward the child
(positive = serving downstream demand), the nodal balance at node n
reads flow(n) = sum of child flows + net consumption at n, and the
voltage drop is U_child = U_ancestor - 2*(r*P + x*Q).

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
from typing import Mapping, Sequence

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

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
    temperature_response,
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
    assign = np.zeros((nb, nb * nn))
    for b in range(nb):
        assign[b, b * nn : (b + 1) * nn] = 1.0
    hp_rows = np.zeros((nn, nb * nn))
    pv_rows = np.zeros((nn, nb * nn))
    for b in range(nb):
        for n in range(nn):
            hp_rows[n, b * nn + n] = hp[b]
            pv_rows[n, b * nn + n] = pv[b]

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
    the day's weather/profiles, so they are assembled once.  solve()
    hands the LP to linprog for one price vector; solve_rows() sweeps a
    stack of price vectors with the shared warm-started `lp.HighsSweep`,
    which swaps the price coefficients on the substation import and
    re-runs the solver from the previous optimal basis.  Heat-pump
    schedules can be pinned (baseline runs, awarded profiles) by passing
    hp_fixed to solve().
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

        # thermal envelopes of the flexible fleet
        self.responses: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self.e_base: dict[str, float] = {}
        self.base_kw: dict[str, np.ndarray] = {}
        for b in self.flex:
            M, m0 = temperature_response(b, cfg, t_out)
            base = baseline_profile(b, cfg, t_out)
            self.responses[b.id] = (M, m0)
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

        self._assemble()

    # variable blocks: hp (F*T), shed (N*T), u (N*T), fp (N*T), fq (N*T),
    # pcc_p (T), pcc_q (T); entity-major, time minor
    def _offsets(self):
        T = self.cfg.horizon
        F, N = len(self.flex), len(self.node_ids)
        o_hp = 0
        o_shed = o_hp + F * T
        o_u = o_shed + N * T
        o_fp = o_u + N * T
        o_fq = o_fp + N * T
        o_pp = o_fq + N * T
        o_pq = o_pp + T
        return o_hp, o_shed, o_u, o_fp, o_fq, o_pp, o_pq, o_pq + T

    def _assemble(self):
        net, cfg, series = self.net, self.cfg, self.series
        T = cfg.horizon
        F, N = len(self.flex), len(self.node_ids)
        S = net.s_base_kva
        rar = series.rar
        o_hp, o_shed, o_u, o_fp, o_fq, o_pp, o_pq, nvar = self._offsets()
        self.nvar = nvar
        children = self.topo.children
        line = self.topo.line_by_child
        flex_index = {b.id: f for f, b in enumerate(self.flex)}

        rows: list[int] = []
        cols: list[int] = []
        vals: list[float] = []
        b_eq: list[float] = []
        r = 0

        def put(row: int, col: int, val: float):
            rows.append(row)
            cols.append(col)
            vals.append(val)

        # nodal active/reactive balance
        for i, nid in enumerate(self.node_ids):
            kids = [self.node_pos[c] for c in children[nid]]
            hp_here = [flex_index[b.id] for b in self.flex_at_node[nid]]
            for t in range(T):
                put(r, o_fp + i * T + t, 1.0)
                for j in kids:
                    put(r, o_fp + j * T + t, -1.0)
                for f in hp_here:
                    put(r, o_hp + f * T + t, -1.0 / S)
                put(r, o_shed + i * T + t, 1.0 / S)
                b_eq.append((self.p_fix_kw[i, t] - self.pv_kw[i, t]) / S)
                r += 1
            for t in range(T):
                put(r, o_fq + i * T + t, 1.0)
                for j in kids:
                    put(r, o_fq + j * T + t, -1.0)
                for f in hp_here:
                    put(r, o_hp + f * T + t, -rar / S)
                b_eq.append(rar * self.p_fix_kw[i, t] / S)
                r += 1
        # substation balance against the external-grid import
        sub_kids = [self.node_pos[c] for c in children[self.sub_id]]
        for t in range(T):
            put(r, o_pp + t, 1.0)
            for j in sub_kids:
                put(r, o_fp + j * T + t, -1.0)
            b_eq.append(self.sub_fix_kw[t] / S)
            r += 1
        for t in range(T):
            put(r, o_pq + t, 1.0)
            for j in sub_kids:
                put(r, o_fq + j * T + t, -1.0)
            b_eq.append(rar * self.sub_fix_kw[t] / S)
            r += 1
        # voltage drop along each line
        for i, nid in enumerate(self.node_ids):
            ln = line[nid]
            anc = net.nodes[nid].ancestor_id
            for t in range(T):
                put(r, o_u + i * T + t, 1.0)
                put(r, o_fp + i * T + t, 2.0 * ln.r_pu)
                put(r, o_fq + i * T + t, 2.0 * ln.x_pu)
                if anc == self.sub_id:
                    b_eq.append(self.u_sub)
                else:
                    put(r, o_u + self.node_pos[anc] * T + t, -1.0)
                    b_eq.append(0.0)
                r += 1
        # daily energy of each heat pump equals its baseline energy
        for f, b in enumerate(self.flex):
            for t in range(T):
                put(r, o_hp + f * T + t, cfg.dt)
            b_eq.append(self.e_base[b.id])
            r += 1
        self.A_eq = sparse.coo_matrix((vals, (rows, cols)), shape=(r, nvar)).tocsr()
        self.b_eq = np.array(b_eq)

        rows, cols, vals = [], [], []
        b_ub: list[float] = []
        r = 0
        # comfort band per flexible building
        for f, b in enumerate(self.flex):
            M, m0 = self.responses[b.id]
            for t in range(T):
                for j in range(t + 1):
                    if M[t, j] != 0.0:
                        put(r, o_hp + f * T + j, M[t, j])
                b_ub.append(cfg.t_max - m0[t])
                r += 1
            for t in range(T):
                for j in range(t + 1):
                    if M[t, j] != 0.0:
                        put(r, o_hp + f * T + j, -M[t, j])
                b_ub.append(m0[t] - cfg.t_min)
                r += 1
        # polygonal apparent-power limits: lines, then the substation.
        # Facet normals sit between the polygon's vertices, which lie on
        # the rating circle at angles 2*pi*k/K — one of them on the P
        # axis, so a purely active flow can use the full rating.
        K = self.facets
        apothem = math.cos(math.pi / K)
        angles = [(2 * k + 1) * math.pi / K for k in range(K)]
        for i, nid in enumerate(self.node_ids):
            s_l = line[nid].s_rating_pu
            for t in range(T):
                for ang in angles:
                    put(r, o_fp + i * T + t, math.cos(ang))
                    put(r, o_fq + i * T + t, math.sin(ang))
                    b_ub.append(s_l * apothem)
                    r += 1
        for t in range(T):
            for ang in angles:
                put(r, o_pp + t, math.cos(ang))
                put(r, o_pq + t, math.sin(ang))
                b_ub.append(self.s_sub_pu * apothem)
                r += 1
        self.A_ub = sparse.coo_matrix((vals, (rows, cols)), shape=(r, nvar)).tocsr()
        self.b_ub = np.array(b_ub)

        lo = np.full(nvar, -np.inf)
        hi = np.full(nvar, np.inf)
        for f, b in enumerate(self.flex):
            lo[o_hp + f * T : o_hp + (f + 1) * T] = 0.0
            hi[o_hp + f * T : o_hp + (f + 1) * T] = b.p_hp_rated
        lo[o_shed : o_shed + N * T] = 0.0
        hi[o_shed : o_shed + N * T] = self.p_fix_kw.ravel()
        lo[o_u : o_u + N * T] = V_MIN_PU**2
        hi[o_u : o_u + N * T] = V_MAX_PU**2
        self.base_bounds = np.column_stack([lo, hi])

        c = np.zeros(nvar)
        c[o_shed : o_shed + N * T] = cfg.dt * self.voll / 1000.0
        self.base_c = c
        self._o = (o_hp, o_shed, o_u, o_fp, o_fq, o_pp, o_pq)

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
        prices = np.asarray(prices, dtype=float)
        o_hp, o_pp = self._o[0], self._o[5]

        c = self.base_c.copy()
        c[o_pp : o_pp + T] = self._import_cost(prices)

        bounds = self.base_bounds
        if hp_fixed:
            bounds = bounds.copy()
            flex_index = {b.id: f for f, b in enumerate(self.flex)}
            for bid, sched in hp_fixed.items():
                if bid not in flex_index:
                    raise DanglingReference(f"hp_fixed names unknown building {bid}")
                sched = np.asarray(sched, dtype=float)
                if sched.shape != (T,):
                    raise ValueError(f"fixed schedule for {bid} must span {T} hours")
                f = flex_index[bid]
                bounds[o_hp + f * T : o_hp + (f + 1) * T, 0] = sched
                bounds[o_hp + f * T : o_hp + (f + 1) * T, 1] = sched

        res = linprog(
            c,
            A_ub=self.A_ub,
            b_ub=self.b_ub,
            A_eq=self.A_eq,
            b_eq=self.b_eq,
            bounds=bounds,
            method="highs",
        )
        if res.status == 2:
            raise Infeasible(_INFEASIBLE)
        if not res.success:
            raise SolverFailure(f"network dispatch failed: {res.message}")
        return self._solution(prices, res.x, float(res.fun))

    def solve_rows(self, price_rows: np.ndarray) -> list[OpfSolution]:
        """Free dispatch at each (T,) row of an (S, T) price stack.

        The rows differ only in the import-price costs, so one HiGHS
        instance holds the LP and dual simplex re-solves each row from
        the previous row's optimal basis.  The first row is solved cold,
        exactly as solve() would.  A row that ends on an optimal vertex
        seen before gets that earlier row's primal point, so identical
        schedules stay byte-identical.
        """
        T = self.cfg.horizon
        price_rows = np.asarray(price_rows, dtype=float)
        if price_rows.ndim != 2:
            raise ValueError("price_rows must be an (S, T) array")
        costs = np.array([self._import_cost(prices) for prices in price_rows])
        o_pp = self._o[5]
        lp = HighsSweep(
            sparse.vstack((self.A_ub, self.A_eq)),
            row_lo=np.concatenate((np.full(len(self.b_ub), -np.inf), self.b_eq)),
            row_hi=np.concatenate((self.b_ub, self.b_eq)),
            col_lo=self.base_bounds[:, 0],
            col_hi=self.base_bounds[:, 1],
            cost=self.base_c,
            cost_cols=np.arange(o_pp, o_pp + T),
        )
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
        o_hp, o_shed, o_u, o_fp, o_fq, o_pp, o_pq = self._o
        N = len(self.node_ids)
        hp_kw = {
            b.id: x[o_hp + f * T : o_hp + (f + 1) * T].copy()
            for f, b in enumerate(self.flex)
        }
        shed = x[o_shed : o_shed + N * T].reshape(N, T)
        u = x[o_u : o_u + N * T].reshape(N, T)
        fp = x[o_fp : o_fp + N * T].reshape(N, T)
        fq = x[o_fq : o_fq + N * T].reshape(N, T)
        pcc_p = x[o_pp : o_pp + T].copy()
        pcc_q = x[o_pq : o_pq + T].copy()

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
    (which the polygon must under-fill), voltage bounds, and the
    shedding and heat-pump bounds.
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
        sched = sol.hp_kw[b.id]
        if sched.min() < -tol or sched.max() > b.p_hp_rated + tol:
            issues.append(f"building {b.id}: heat-pump schedule outside its rating")
    return issues
