"""Radial distribution network: building allocation and a linearized branch-flow OPF.

The network is a tree rooted at a substation.  Power flow uses the
lossless LinDistFlow form on squared voltages: per line, the flow
variable is the power sent from the ancestor end toward the child
(positive = serving downstream demand), the nodal balance at node n
reads flow(n) = sum of child flows + net consumption at n, and the
voltage drop is U_child = U_ancestor - 2*(r*P + x*Q) (Baran & Wu, IEEE
Trans. Power Delivery 4(2), 1989).

The heat pumps bring the block `thermal.fleet_rows` states for them:
per heat pump, its power and then an indoor-temperature column per
step, bounded by the rating and the comfort band and tied together by
one implicit-Euler row per step, plus the daily-energy row.

Apparent-power limits are quadratic in reality; here each line (and
the substation's connection to the external grid) gets a regular
polygon inscribed in the rating circle, which keeps every scenario
problem an LP and can never overload the true circle.

The LP holds only the network rows that can bind.  The column bounds
cap every node's draw, so they cap every flow and, since r, x >= 0,
every squared voltage.  A facet beyond that cap is implied by the other
rows and is left out.  So are the voltage columns and their drop rows
when no node's voltage can come near a bound, and then each line that
keeps no facet is contracted: its child's balance merges into that of
its nearest kept ancestor, or of the substation, and the line's flow
columns go.  On a feeder congested only at its substation, every line
contracts, and the N*T nodal balances and the N*T flow and voltage
columns of each kind collapse into the substation's 2*T balances.  The
feasible set of the columns that stay, and with it every optimum, is
the same (dropping rows that are redundant by activity bounds is a
standard presolve step; Andersen & Andersen, Math. Prog. 71, 1995),
while each warm re-solve, which skips presolve, works on a smaller LP.
A solution still reports every line's flows and every node's voltage:
they follow from the solved nodal draws by one pass up the tree and
one down it (`_Tree`), as LinDistFlow states them.

Unit bookkeeping: building and nodal quantities are kW; flows,
voltages, and ratings are per-unit on s_base_kva; market prices are
EUR/MWh, so objective terms convert kW·h to MWh once.
"""

from __future__ import annotations

import logging
import math
import os
from bisect import bisect_left
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from functools import cache, partial, reduce
from typing import Mapping, Sequence

import numpy as np
from scipy import sparse

from .errors import (
    CycleDetected,
    DanglingReference,
    DisconnectedNode,
    GridMismatch,
    Infeasible,
    LengthMismatch,
    MultipleAncestors,
    SolverFailure,
)
from .lp import FEASIBILITY_TOL, HighsSweep, distinct, first_seen
from .thermal import (
    BuildingParams,
    ComfortConfig,
    baseline_profile,
    check_dispatch,
    fleet_rows,
    flexible,
)

log = logging.getLogger(__name__)

VOLL_EUR_MWH = 10000.0
DEFAULT_FACETS = 8
# one facet per degree: the polygon's facets then lie within
# 1 - cos(pi / 360) < 4e-5 of the rating circle
MAX_FACETS = 360
V_MIN_PU = 0.97
V_MAX_PU = 1.03
_INFEASIBLE = (
    "network dispatch infeasible despite shedding recourse; "
    "check ratings against the unsheddable heat-pump load"
)


def __getattr__(name: str):
    # linprog is not called here; perfbench/spans.py patches flexbid.grid.linprog
    # by name, so the name stays importable, and loads scipy.optimize only
    # when a traced benchmark run asks for it
    if name == "linprog":
        from scipy.optimize import linprog
        return linprog
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def milp(*args, **kwargs):
    """scipy.optimize.milp, which loads scipy.optimize on the first call:
    only a capacity that binds reaches it (`allocate_buildings`)."""
    from scipy import optimize
    return optimize.milp(*args, **kwargs)


def _usable_cpus() -> int:
    """The CPUs this process may run on; 1 where the OS does not say."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


class _Tree:
    """The nodes below the substation, by position, as LinDistFlow walks
    them: anc[i] is the position of node i's ancestor, or N for the
    substation, and ancestors come first.  Both walks take the nodes one
    depth at a time, each depth one vectorized step over the rows of an
    (N, ...) array, and add in the order a triangular solve on the
    tree's incidence matrix adds: they give the bits scipy's
    spsolve_triangular gave."""

    def __init__(self, anc: Sequence[int]):
        self._anc = anc = np.asarray(anc, dtype=int)
        N = len(anc)
        depth = np.zeros(N, dtype=int)
        for i in range(N):  # ancestors first
            if anc[i] < N:
                depth[i] = depth[anc[i]] + 1
        # the nodes below another, one array per depth, shallowest first
        self._levels = [np.flatnonzero(depth == d) for d in range(1, depth.max(initial=0) + 1)]

    def flows(self, draws: np.ndarray) -> np.ndarray:
        """Each line's flow, by child node: its node's draw plus its
        children's flows, children first, each node's children added in
        position order."""
        out = np.array(draws, dtype=float)
        for level in reversed(self._levels):
            np.add.at(out, self._anc[level], out[level])
        return out

    def path_sums(self, drops: np.ndarray) -> np.ndarray:
        """Each node's sum of the line drops on its path from the
        substation, its own line's included, ancestors first."""
        out = np.array(drops, dtype=float)
        for level in self._levels:
            out[level] += out[self._anc[level]]
        return out


@cache
def _worker() -> ThreadPoolExecutor:
    """The one thread that runs the second half of network sweeps,
    started by the first sweep that splits."""
    return ThreadPoolExecutor(max_workers=1, thread_name_prefix="flexbid-opf")


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
    # every other node has exactly one ancestor, so the search misses a
    # node exactly when its ancestor chain ends in a loop
    looped = sorted(set(nodes) - set(order))
    if looped:
        raise CycleDetected(f"ancestor chains of nodes {looped} loop instead of "
                            "reaching a substation")
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

    Without the capacity rows each building goes to its nearest node
    (ties to the lowest node id), so when that assignment fits every
    capacity it is an optimum of the MILP and is returned without a solve,
    in time linear in buildings × sites (Ross & Soland, Math. Prog. 8,
    1975).  Only when some node would be overloaded, by any margin, is
    the MILP solved (`_assignment_milp`).
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

    nn = len(sites)
    bx = np.array([b.position[0] for b in buildings])
    by = np.array([b.position[1] for b in buildings])
    nx = np.array([n.position[0] for n in sites])
    ny = np.array([n.position[1] for n in sites])
    dist = np.hypot(bx[:, None] - nx[None, :], by[:, None] - ny[None, :])

    site = dist.argmin(axis=1)  # the first, lowest-id node among ties
    overloaded = (np.bincount(site, hp, nn) > cap) | (np.bincount(site, pv, nn) > cap)
    if overloaded.any():
        log.info("nearest-node assignment overloads nodes %s; solving the assignment MILP",
                 [sites[i].id for i in np.flatnonzero(overloaded)])
        site = _assignment_milp(dist, hp, pv, cap)
    else:
        log.info("nearest-node assignment fits every node's capacity; no MILP needed")
    return {bld.id: sites[s].id for bld, s in zip(buildings, site.tolist())}


def _assignment_milp(dist: np.ndarray, hp: np.ndarray, pv: np.ndarray,
                     cap: np.ndarray) -> np.ndarray:
    """The capacitated assignment as a binary MILP: the site index of
    each building, minimizing the summed `dist[building, site]` with
    every site's heat-pump and PV ratings each under its `cap`.  The
    constraint rows are sparse CSR, 3 · buildings · sites nonzeros in
    all, so memory grows linearly in buildings × sites."""
    from scipy.optimize import Bounds, LinearConstraint

    nb, nn = dist.shape
    # variables a[b, n] flattened row-major
    assign = sparse.kron(sparse.eye_array(nb), np.ones((1, nn)), format="csr")
    hp_rows = sparse.kron(hp[None, :], sparse.eye_array(nn), format="csr")
    pv_rows = sparse.kron(pv[None, :], sparse.eye_array(nn), format="csr")

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
    return res.x.reshape(nb, nn).argmax(axis=1)


@dataclass(frozen=True)
class OpfSolution:
    """One solved network dispatch, as `OpfModel.solve` returns it.

    Arrays are entity-major: hp_kw[f, t] belongs to the model's ids[f],
    shed_kw[i, t] to node_ids[i]; flow arrays are indexed by the child
    node of each line, positive when power moves from the ancestor
    toward that child; pcc_p_pu and pcc_q_pu are the substation import
    from the external grid, positive into the feeder.
    """

    node_ids: list[int]
    hp_kw: np.ndarray
    shed_kw: np.ndarray
    u_pu2: np.ndarray
    flow_p_pu: np.ndarray
    flow_q_pu: np.ndarray
    pcc_p_pu: np.ndarray
    pcc_q_pu: np.ndarray
    objective_eur: float
    hp_cost_eur: float
    shed_kwh: float


class OpfModel:
    """Network dispatch LP for one day, reusable across price vectors.

    The heat pumps are the buildings with one, ordered by building id:
    `ids` (F), their `baseline` schedules (F, T) and the load-node
    position of each, `hp_node` (F), as `node_ids` orders the nodes.
    The constraint blocks depend only on the network, the buildings, and
    the day's weather/profiles, so they are assembled once, as
    row_lo <= A x <= row_hi, col_lo <= x <= col_hi with the costs `cost`
    outside the substation import's `import_cols`; the heat pumps'
    columns, their dynamics and energy rows and their bounds are the
    `thermal.fleet_rows` block, placed first, so its power-column
    indices read the schedules out of a solution here too.  solve_rows()
    runs the warm-started `lp.HighsSweep` built with the LP, which sets
    the price coefficients on the substation import and re-runs the
    solver from the previous optimal basis, over the distinct rows in
    two halves from one start, the second on a worker thread when two
    CPUs are usable; its answers do not depend on the CPU count.  It
    answers the call `thermal.DispatchModel.solve` answers,
    (X[S, F, T], cost[S]), its costs the S objectives.  solve() returns
    one full OpfSolution, with the heat pumps hp_fixed names pinned
    within their ratings (baseline runs, awarded profiles) by
    substituting them out of the LP.

    The LP holds only what some schedule within the ratings can bind:
    the reachable rating-polygon facets; the voltages, and with them
    every line, when some node's voltage can reach a bound
    (`keeps_voltage`); else only the lines with a reachable facet
    (`kept_lines`, by child node), each with its flow columns and the
    balances of its cluster, the nodes below it up to the next kept
    line.  This is exact, and `A` is often far smaller than the full
    LinDistFlow LP.  An OpfSolution still carries every line's flows
    and every node's voltage, rebuilt from the solved nodal draws, and
    `verify_solution` checks every true rating circle and voltage.
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
        if not 3 <= facets <= MAX_FACETS:
            raise ValueError(f"facets must lie in 3..{MAX_FACETS}: a rating polygon needs "
                             "three sides, and one per degree fills its circle")
        topo = validate_radial(net)
        if len(topo.substations) != 1:
            raise GridMismatch(
                f"network dispatch expects one substation, found {len(topo.substations)}"
            )
        t_out = np.asarray(t_out, dtype=float)
        if t_out.ndim != 1 or series.slf.shape != t_out.shape:
            raise ValueError("slf and cf must span t_out's steps, one value each")

        self.net = net
        self.cfg = cfg
        self.t_out = t_out
        self.series = series
        self.voll = voll
        self.facets = facets
        self.topo = topo
        self.sub_id = topo.substations[0]
        self.node_ids = [nid for nid in topo.order if nid != self.sub_id]
        if not self.node_ids:
            raise GridMismatch("network dispatch needs a node below the substation, "
                               "found only the substation")
        self.node_pos = {nid: i for i, nid in enumerate(self.node_ids)}

        buildings = sorted(buildings, key=lambda b: b.id)
        self.flex = flexible(buildings)
        self.ids = [b.id for b in self.flex]
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

        *fleet, self.baseline, self._power = fleet_rows(self.flex, cfg, t_out)
        self.hp_node = np.array([self.node_pos[alloc[b.id]] for b in self.flex], dtype=int)
        pv = [b for b in buildings if b.p_pv_rated > 0 and b.id in alloc]
        pv_node = np.array([self.node_pos[alloc[b.id]] for b in pv], dtype=int)

        # nodal fixed load: scaled connection capacity minus the baseline
        # draw of the explicitly modeled heat pumps at that node
        self.p_fix_kw = np.outer([net.nodes[nid].p_cap_kw for nid in self.node_ids], series.slf)
        np.subtract.at(self.p_fix_kw, self.hp_node, self.baseline)
        self.pv_kw = np.zeros_like(self.p_fix_kw)
        np.add.at(self.pv_kw, pv_node, np.outer([b.p_pv_rated for b in pv], series.cf))
        low = self.p_fix_kw.min()
        if low < -1e-6:
            raise Infeasible(
                f"fixed load goes negative ({low:.3f} kW): baseline heat-pump "
                "draw exceeds the scaled nodal demand; instance data is inconsistent"
            )
        np.clip(self.p_fix_kw, 0.0, None, out=self.p_fix_kw)
        sub = net.nodes[self.sub_id]
        self.sub_fix_kw = sub.p_cap_kw * series.slf
        self.s_sub_pu = sub.s_rating_kva / net.s_base_kva
        self.u_sub = sub.v_nom_pu**2

        self._assemble(fleet)

    def _assemble(self, fleet: list):
        """Column blocks, entity-major and time-minor: the heat pumps'
        (F*2T, each its power then its indoor temperatures), shed (N*T),
        u (N*T, or none), fp and fq (T per kept line), pcc_p, pcc_q (T
        each).  Row blocks: the rating polygons' reachable facets, the T
        active then T reactive balances of each kept line's cluster and
        of the substation's, the voltage drops (when kept), and the heat
        pumps' `thermal.fleet_rows` (A, rhs, col_lo, col_hi).

        What is kept is decided over the box the column bounds put
        around the nodal draws: a facet when, at its hour, some point of
        the box comes within the solver's feasibility tolerance of it;
        the voltages, and with them every line, when some node's squared
        voltage can come that close to a bound; else the lines with a
        kept facet.  Every other line is contracted: its child joins the
        cluster of its nearest kept ancestor, or the substation's."""
        net, cfg, series = self.net, self.cfg, self.series
        T = len(self.t_out)
        F, N = len(self.flex), len(self.node_ids)
        S = net.s_base_kva
        rar = series.rar
        lines = [self.topo.line_by_child[nid] for nid in self.node_ids]
        anc = [self.node_pos.get(net.nodes[nid].ancestor_id, N) for nid in self.node_ids]
        below = [i for i, a in enumerate(anc) if a < N]
        feeds_sub = (np.array(anc) == N).astype(float)
        # D[i, i] = 1 and D[i, ancestor of i] = -1: D u is each line's
        # voltage drop, D.T f each node's inflow minus its children's
        D = (sparse.identity(N) - sparse.coo_matrix(
            (np.ones(len(below)), (below, [anc[i] for i in below])), shape=(N, N))).tocsr()
        H = sparse.csr_matrix((np.ones(F), (self.hp_node, np.arange(F))), shape=(N, F))
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
        poly_hi = np.repeat(ratings * math.cos(math.pi / K), T * K).reshape(N + 1, T * K)

        # The column bounds box each node's draw: shed in [0, p_fix], each
        # heat pump in [0, its rating], and shedding relieves no reactive
        # power.  A line carries its subtree's draws (D.T f = draw, summed
        # up the tree) and the substation every draw plus its own fixed
        # load, so each facet, at each hour, can reach at most the larger
        # of its values at the box's ends.
        hp_kw = (H @ np.array([b.p_hp_rated for b in self.flex]))[:, None]
        # by node: least and most active draw, least and most reactive draw
        draws = np.stack([-self.pv_kw, self.p_fix_kw - self.pv_kw + hp_kw,
                          rar * self.p_fix_kw, rar * (self.p_fix_kw + hp_kw)], axis=1) / S
        tree = _Tree(anc)
        flows = tree.flows(draws.reshape(N, 4 * T)).reshape(N, 4, T)
        imports = draws.sum(axis=0) + np.outer([1.0, 1.0, rar, rar], self.sub_fix_kw / S)
        p_lo, p_hi, q_lo, q_hi = np.vstack([flows, imports[None]]).transpose(1, 0, 2)[..., None]
        c, s = cos.ravel(), sin.ravel()
        reach = np.maximum(c * p_lo, c * p_hi) + np.maximum(s * q_lo, s * q_hi)
        reachable = reach.reshape(N + 1, T * K) >= poly_hi - FEASIBILITY_TOL
        # With r, x >= 0 each squared voltage, u = u_sub - 2 * sum over its
        # path of (r fp + x fq), falls as the flows grow: the box's ends
        # bound it, through the path sums down the tree
        r, x = np.array([[ln.r_pu for ln in lines], [ln.x_pu for ln in lines]])[..., None]
        path = tree.path_sums(np.hstack([r * p_hi[:N, :, 0] + x * q_hi[:N, :, 0],
                                         r * p_lo[:N, :, 0] + x * q_lo[:N, :, 0]]))
        u_lo, u_hi = self.u_sub - 2.0 * path.reshape(N, 2, T).transpose(1, 0, 2)
        voltage = bool(u_lo.min() <= V_MIN_PU**2 + FEASIBILITY_TOL
                       or u_hi.max() >= V_MAX_PU**2 - FEASIBILITY_TOL)
        keep = np.arange(N) if voltage else np.flatnonzero(reachable[:N].any(axis=1))
        L, NV = len(keep), N if voltage else 0

        # Each node joins the cluster of its nearest kept line, its own or
        # an ancestor's, or the substation's, the last; a cluster's balance
        # sums its nodes' draws.  Flows between the nodes of one cluster
        # cancel out of it, so only the kept lines' flows remain.
        cluster = np.full(N + 1, L)
        cluster[keep] = np.arange(L)
        for i in range(N):  # ancestors first
            if cluster[i] == L:
                cluster[i] = cluster[anc[i]]
        R = sparse.csr_matrix((np.ones(N + 1), (cluster, np.arange(N + 1))), shape=(L + 1, N + 1))
        # each node's, then the substation's, balance over the line flows
        incidence = sparse.vstack([D.T, -feeds_sub[None]])
        at_node, at_sub = R[:, :N], R[:, N:]
        branch = (R @ incidence)[:, keep]
        volts = sparse.identity(N, format="csr")[:NV]

        B, rhs_hp, lo_hp, hi_hp = fleet
        A = sparse.bmat([
            # columns: heat pumps, shed, u, fp, fq, pcc_p, pcc_q
            # kept line polygons, by line, hour and facet
            [None, None, None, kron(sparse.identity(L * T), cos),
             kron(sparse.identity(L * T), sin), None, None],
            # substation polygon, by hour and facet
            [None, None, None, None, None, kron(hours, cos), kron(hours, sin)],
            # each cluster's T active, then its T reactive balance rows,
            # which take each heat pump's power columns, not its
            # temperatures; the substation's takes the import
            [kron(at_node @ H, np.array([[-1.0 / S], [-rar / S]]), [[1.0, 0.0]], hours),
             kron(at_node, active / S, hours), None,
             kron(branch, active, hours), kron(branch, reactive, hours),
             kron(at_sub, active, hours), kron(at_sub, reactive, hours)],
            # voltage drop along each line, when the voltages are kept
            [None, None, kron(volts @ D @ volts.T, hours),
             kron((volts @ sparse.diags(2.0 * r.ravel()))[:, keep], hours),
             kron((volts @ sparse.diags(2.0 * x.ravel()))[:, keep], hours), None, None],
            # each heat pump's dynamics and daily energy
            [B, None, None, None, None, None, None],
        ], format="csr")
        fixed = np.vstack([np.stack([self.p_fix_kw - self.pv_kw, rar * self.p_fix_kw], axis=1),
                           np.stack([self.sub_fix_kw, rar * self.sub_fix_kw])[None]]) / S
        rhs = np.concatenate([
            (R @ fixed.reshape(N + 1, 2 * T)).ravel(),
            np.repeat(self.u_sub * (volts @ feeds_sub), T),
            rhs_hp,
        ])
        facets = reachable[np.r_[keep, N]].ravel()
        self.A = A[np.r_[facets, np.ones(len(rhs), dtype=bool)]].tocsc()
        self.row_lo = np.r_[np.full(facets.sum(), -np.inf), rhs]
        self.row_hi = np.r_[poly_hi[np.r_[keep, N]].ravel()[facets], rhs]
        free = np.full(2 * L * T + 2 * T, np.inf)
        self.col_lo = np.r_[lo_hp, np.zeros(N * T), np.full(NV * T, V_MIN_PU**2), -free]
        self.col_hi = np.r_[hi_hp, self.p_fix_kw.ravel(), np.full(NV * T, V_MAX_PU**2), free]
        self.cost = np.repeat([0.0, cfg.dt * self.voll / 1000.0, 0.0],
                              [len(lo_hp), N * T, (NV + 2 * L) * T + 2 * T])
        self._ends = np.cumsum([len(lo_hp), N * T, NV * T, L * T, L * T, T, T])
        self.import_cols = np.arange(self._ends[4], self._ends[5])
        self.kept_lines = [self.node_ids[i] for i in keep]
        self.keeps_voltage = voltage
        self._tree, self._H, self._r, self._x = tree, H, r, x
        self._lp = HighsSweep(self.A, self.row_lo, self.row_hi, self.col_lo, self.col_hi,
                              self.cost, self.import_cols)

    def solve(
        self,
        prices: np.ndarray,
        hp_fixed: Mapping[str, np.ndarray] | None = None,
    ) -> OpfSolution:
        """Minimize import cost plus shedding penalty at the given prices,
        each heat pump hp_fixed names by building id held to its schedule:
        its power columns leave the LP and their draws go into the row
        bounds.  The rest is solved once, cold; its temperatures and energy
        row stay, so a pin off comfort or daily energy is Infeasible."""
        T = len(self.t_out)
        x, pinned = np.zeros(self.A.shape[1]), np.zeros(self.A.shape[1], dtype=bool)
        for bid, sched in (hp_fixed or {}).items():
            f = bisect_left(self.ids, bid)
            if self.ids[f:f + 1] != [bid]:
                raise DanglingReference(f"hp_fixed names unknown building {bid}")
            sched = np.asarray(sched, dtype=float)
            if sched.shape != (T,):
                raise LengthMismatch(f"fixed schedule for {bid} must span {T} hours")
            # the LP leaves out the facets that no schedule within the
            # ratings can reach, so a pinned schedule, NaN-free, must stay within them
            rated = self.flex[f].p_hp_rated
            if not (sched.min() >= -1e-6 and sched.max() <= rated + 1e-6):
                raise Infeasible(f"fixed schedule for {bid} leaves its rating [0, {rated}] kW")
            x[self._power[f]] = sched
            pinned[self._power[f]] = True
        shift, free = self.A @ x, ~pinned
        lp = HighsSweep(self.A[:, free], self.row_lo - shift, self.row_hi - shift,
                        self.col_lo[free], self.col_hi[free], self.cost[free],
                        self.import_cols - pinned.sum())  # the pins precede the import
        prices = np.asarray(prices, dtype=float)
        X, objective, _ = self._sweep(lp, self._costs(prices[None]))
        x[free] = X[0]
        return self._solution(prices, x, float(objective[0]))

    def solve_rows(self, price_rows: np.ndarray,
                   bases: dict | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Free dispatch at each (T,) row of an (S, T) price stack.

        Returns the (S, F, T) heat-pump schedules in kW, in `ids` order,
        and the S objectives in EUR.  The rows differ only in the
        import-price costs, so the LP is swept (`lp.HighsSweep.solve`):
        each distinct row is solved once, and equal rows get its
        schedules and objective.  The distinct rows split into two
        halves in order, each a chain of dual-simplex re-solves from the
        previous row's optimal basis on a HiGHS instance of its own, and
        both chains start from the same basis: the one `bases` holds for
        this LP's shape, or cold without one, exactly as solve() would.
        The second half runs on a worker thread while the first runs
        here when the process may use two CPUs, else after it; the
        answers are the same either way.  The last distinct row's basis
        goes back into `bases` once both halves are done.  A row that
        ends on an optimal vertex of the whole LP seen at an earlier row
        gets that row's point (`lp.first_seen`), so identical schedules
        stay byte-identical.
        """
        costs = self._costs(np.asarray(price_rows, dtype=float))
        rows, back = distinct(costs)
        X, objective, status = self._halves(costs[rows], bases)
        return first_seen(X[:, None], status[:, None])[:, 0, self._power][back], objective[back]

    def _halves(self, costs: np.ndarray,
                bases: dict | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The day's LP swept over the cost rows as `solve_rows` says: one
        chain for a single row, else two, each from a copy of `bases`.
        The first half's failure is raised before the second's, and no
        HiGHS run is still going when this returns or raises."""
        if len(costs) < 2:
            return self._sweep(self._lp, costs, bases)
        half = len(costs) // 2
        own = [None if bases is None else dict(bases) for _ in range(2)]
        first = partial(self._sweep, self._lp, costs[:half], own[0])
        second = partial(self._sweep, self._lp, costs[half:], own[1])
        if _usable_cpus() < 2:
            # on one CPU the thread gains no time and keeps a second HiGHS
            # instance live in its own malloc arena: about 10 MB more RSS
            parts = first(), second()
        else:
            tail = _worker().submit(second)
            try:
                head = first()
            finally:
                wait([tail])
            parts = head, tail.result()
        if bases is not None:
            bases.update(own[1])
        return tuple(np.concatenate(v) for v in zip(*parts))

    def _costs(self, price_rows: np.ndarray) -> np.ndarray:
        """The substation import's cost rows, EUR per pu, of an (S, T)
        EUR/MWh price stack."""
        T = len(self.t_out)
        if price_rows.ndim != 2 or price_rows.shape[1] != T:
            raise ValueError(f"price rows must be an (S, {T}) array, one price per hour")
        return self.cfg.dt * price_rows * self.net.s_base_kva / 1000.0

    def _sweep(self, lp: HighsSweep, costs: np.ndarray,
               bases: dict | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One sweep of lp, the day's LP or a pinned part of it, over cost
        rows on the substation import: HiGHS's points, objectives and
        vertex statuses (`lp.HighsSweep.solve`), its failures named as
        the network's."""
        try:
            return lp.solve(costs, bases)
        except Infeasible:
            raise Infeasible(_INFEASIBLE) from None
        except SolverFailure as exc:
            raise SolverFailure(f"network dispatch failed: {exc}") from None

    def _solution(self, prices: np.ndarray, x: np.ndarray, objective: float) -> OpfSolution:
        """Unpack one primal point of the LP into an OpfSolution.

        Every line's flows are rebuilt from the solved nodal draws and
        the squared voltages from them, so a contracted line gets its
        flow, and a model without voltage columns its voltages, as the
        full LP states them: one pass up the tree, one down it."""
        S, T = self.net.s_base_kva, len(self.t_out)
        _, shed, *_, pcc_p, pcc_q = np.split(x, self._ends[:-1])
        hp = x[self._power]
        shed = shed.reshape(-1, T)
        load = self.p_fix_kw + self._H @ hp
        draws = np.hstack([load - self.pv_kw - shed, self.series.rar * load]) / S
        fp, fq = np.hsplit(self._tree.flows(draws), 2)
        u = self.u_sub - 2.0 * self._tree.path_sums(self._r * fp + self._x * fq)
        hp_cost = self.cfg.dt * float(np.dot(prices, hp.sum(axis=0))) / 1000.0
        shed_kwh = self.cfg.dt * float(shed.sum())
        return OpfSolution(
            node_ids=list(self.node_ids),
            hp_kw=hp,
            shed_kw=shed,
            u_pu2=u,
            flow_p_pu=fp,
            flow_q_pu=fq,
            pcc_p_pu=pcc_p,
            pcc_q_pu=pcc_q,
            objective_eur=objective,
            hp_cost_eur=hp_cost,
            shed_kwh=shed_kwh,
        )


def verify_solution(model: OpfModel, sol: OpfSolution, tol: float = 1e-6) -> list[str]:
    """Independent re-check of a solved dispatch; returns found issues.

    Covers nodal flow conservation, the true quadratic rating circles
    (which the polygon must under-fill), voltage bounds, the shedding
    bounds, and each heat pump's rating, comfort band and daily energy
    (`thermal.check_dispatch`, which simulates the temperatures).  An
    OpfModel's solutions carry flows and voltages rebuilt from their
    nodal draws, so for them the nodal balances and voltage drops hold
    up to rounding; the substation's balance against the import, the
    circles and the bounds still test what the LP returned.
    """
    issues: list[str] = []
    # a NaN fails every comparison below, so it is named here
    for name in ("hp_kw", "shed_kw", "u_pu2", "flow_p_pu", "flow_q_pu", "pcc_p_pu", "pcc_q_pu"):
        if not np.isfinite(getattr(sol, name)).all():
            issues.append(f"{name} holds values that are not finite")
    net, cfg, series = model.net, model.cfg, model.series
    T, S = len(model.t_out), net.s_base_kva
    topo = model.topo
    pos = model.node_pos

    hp_at = np.zeros((len(model.node_ids), T))
    np.add.at(hp_at, model.hp_node, sol.hp_kw)
    for i, nid in enumerate(model.node_ids):
        draw = (model.p_fix_kw[i] + hp_at[i] - model.pv_kw[i] - sol.shed_kw[i]) / S
        kids = topo.children[nid]
        balance = sol.flow_p_pu[i] - sum(sol.flow_p_pu[pos[c]] for c in kids) - draw
        if np.abs(balance).max() > tol:
            issues.append(f"node {nid}: active balance off by {np.abs(balance).max():.2e} pu")
        draw_q = series.rar * (model.p_fix_kw[i] + hp_at[i]) / S
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
    for b, sched in zip(model.flex, sol.hp_kw):
        issues += [
            f"building {b.id}: {problem}"
            for problem in check_dispatch(
                b, cfg, model.t_out, sched, baseline_profile(b, cfg, model.t_out).energy, tol
            )
        ]
    return issues
