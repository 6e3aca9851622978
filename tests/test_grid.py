"""Network dispatch against hand-computed LinDistFlow and geometry oracles."""

import dataclasses
import logging
import math
import threading
import time
import tracemalloc
from functools import partial
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.optimize import linprog
from scipy.optimize._highspy import _core

from flexbid.errors import (
    CycleDetected,
    DanglingReference,
    DisconnectedNode,
    GridMismatch,
    Infeasible,
    LengthMismatch,
    MultipleAncestors,
    SolverFailure,
)
from flexbid import grid
from flexbid.grid import (
    MAX_FACETS,
    GridTimeSeries,
    Line,
    V_MAX_PU,
    V_MIN_PU,
    Node,
    OpfModel,
    RadialNetwork,
    allocate_buildings,
    validate_radial,
    verify_solution,
)
from flexbid.synthetic import SyntheticSpec, generate_instance
from flexbid.thermal import BuildingParams, ComfortConfig, DispatchModel, fleet_rows

CFG = ComfortConfig()  # a day has as many hourly steps as its t_out
HOURS4 = np.arange(4)


def two_bus(rating_pu=10.0, p_cap_kw=500.0, r_pu=0.01, x_pu=0.0):
    nodes = {
        0: Node(id=0, ancestor_id=None, is_substation=True, s_rating_kva=20000.0),
        1: Node(id=1, ancestor_id=0, p_cap_kw=p_cap_kw),
    }
    lines = [Line(from_id=1, to_id=0, r_pu=r_pu, x_pu=x_pu, s_rating_pu=rating_pu)]
    return RadialNetwork(nodes=nodes, lines=lines, s_base_kva=1000.0)


def flat_series(rar=0.0, n=4):
    return GridTimeSeries(slf=np.ones(n), cf=np.zeros(n), rar=rar)


def hp_building(bid="h1", rated=3.0, pos=(0.0, 0.0)):
    return BuildingParams(
        id=bid, r_th=5.0, c_th=10.0, p_hp_rated=rated, p_pv_rated=0.0,
        position=pos, has_hp=True,
    )


# ------------------------------------------------------ voltage hand checks

def test_two_bus_voltage_drop_is_exact():
    # U_child = U_sub - 2 r P = 1 - 2 * 0.01 * 0.5 = 0.99 pu^2
    model = OpfModel(two_bus(), [], {}, CFG, np.zeros(4), flat_series())
    sol = model.solve(np.full(4, 50.0))
    assert sol.flow_p_pu[0] == pytest.approx(0.5, abs=1e-9)
    assert sol.u_pu2[0] == pytest.approx(0.99, abs=1e-9)
    assert sol.shed_kwh == 0.0
    assert verify_solution(model, sol) == []


def test_three_bus_chain_accumulates_drops():
    nodes = {
        0: Node(id=0, ancestor_id=None, is_substation=True, s_rating_kva=20000.0),
        1: Node(id=1, ancestor_id=0, p_cap_kw=200.0),
        2: Node(id=2, ancestor_id=1, p_cap_kw=100.0),
    }
    lines = [
        Line(from_id=1, to_id=0, r_pu=0.02, x_pu=0.0, s_rating_pu=10.0),
        Line(from_id=2, to_id=1, r_pu=0.01, x_pu=0.0, s_rating_pu=10.0),
    ]
    net = RadialNetwork(nodes=nodes, lines=lines, s_base_kva=1000.0)
    model = OpfModel(net, [], {}, CFG, np.zeros(4), flat_series())
    sol = model.solve(np.full(4, 50.0))
    # line into node 1 carries both loads: 0.3 pu; the lateral only 0.1
    i1, i2 = model.node_pos[1], model.node_pos[2]
    assert sol.flow_p_pu[i1] == pytest.approx(0.3, abs=1e-9)
    assert sol.flow_p_pu[i2] == pytest.approx(0.1, abs=1e-9)
    u1 = 1.0 - 2 * 0.02 * 0.3
    assert sol.u_pu2[i1] == pytest.approx(u1, abs=1e-9)
    assert sol.u_pu2[i2] == pytest.approx(u1 - 2 * 0.01 * 0.1, abs=1e-9)


def test_reactive_flow_uses_x_term():
    # rar couples Q = 0.05 P; with x > 0 it deepens the voltage drop
    model = OpfModel(two_bus(x_pu=0.02), [], {}, CFG, np.zeros(4), flat_series(rar=0.05))
    sol = model.solve(np.full(4, 50.0))
    assert sol.flow_q_pu[0] == pytest.approx(0.05 * 0.5, abs=1e-9)
    assert sol.u_pu2[0] == pytest.approx(1.0 - 2 * (0.01 * 0.5 + 0.02 * 0.025), abs=1e-9)


# ----------------------------------------------------------- overload/shed

def test_overload_sheds_exactly_the_excess():
    # demand 0.5 pu against a 0.4 pu line: a polygon vertex sits on the
    # P axis, so active-only flow uses the full rating and 0.1 pu sheds
    model = OpfModel(two_bus(rating_pu=0.4), [], {}, CFG, np.zeros(4), flat_series())
    sol = model.solve(np.full(4, 50.0))
    assert np.allclose(sol.flow_p_pu[0], 0.4, atol=1e-9)
    shed_pu = sol.shed_kw[0] / 1000.0
    assert np.allclose(shed_pu, 0.1, atol=1e-6)
    assert sol.shed_kwh == pytest.approx(0.1 * 1000.0 * 4, rel=1e-6)
    assert verify_solution(model, sol) == []


def test_overload_with_reactive_demand_binds_a_tilted_facet():
    # shedding relieves only the active power, so Q stays at rar * D and
    # the facet at pi/K above the P axis caps the served flow at
    # S - Q tan(pi/K)
    rar, K, s, demand = 0.05, 8, 0.4, 0.5
    served = s - rar * demand * math.tan(math.pi / K)
    model = OpfModel(two_bus(rating_pu=s), [], {}, CFG, np.zeros(4), flat_series(rar=rar))
    sol = model.solve(np.full(4, 50.0))
    assert np.allclose(sol.flow_q_pu[0], rar * demand, atol=1e-9)
    assert np.allclose(sol.flow_p_pu[0], served, atol=1e-9)
    assert np.allclose(sol.shed_kw[0] / 1000.0, demand - served, atol=1e-6)


def test_more_facets_shed_less():
    sheds = []
    for facets in (4, 8, 16):
        model = OpfModel(
            two_bus(rating_pu=0.4), [], {}, CFG, np.zeros(4),
            flat_series(rar=0.05), facets=facets,
        )
        sheds.append(model.solve(np.full(4, 50.0)).shed_kwh)
    assert sheds[0] > sheds[1] > sheds[2]


def test_substation_rating_limits_import():
    # generous line, tight transformer: the PCC polygon caps the import
    nodes = {
        0: Node(id=0, ancestor_id=None, is_substation=True, s_rating_kva=300.0),
        1: Node(id=1, ancestor_id=0, p_cap_kw=500.0),
    }
    net = RadialNetwork(
        nodes=nodes,
        lines=[Line(from_id=1, to_id=0, r_pu=0.01, x_pu=0.0, s_rating_pu=10.0)],
        s_base_kva=1000.0,
    )
    model = OpfModel(net, [], {}, CFG, np.zeros(4), flat_series())
    sol = model.solve(np.full(4, 50.0))
    assert np.allclose(sol.pcc_p_pu, 0.3, atol=1e-9)
    assert np.allclose(sol.shed_kw[0] / 1000.0, 0.2, atol=1e-6)
    assert np.allclose(sol.pcc_p_pu * net.s_base_kva / 1000.0, 0.3, atol=1e-9)  # MW


def test_only_reachable_facets_enter_the_lp():
    # node 1 draws between -0.5 pu (all load shed, full PV export) and
    # +0.5 pu, so every facet of its 0.1 pu line can bind at every hour;
    # node 2 draws at most 0.5 pu against a 10 pu line, the substation at
    # most 1 pu against 20 pu, and their facets are left out.  Voltage
    # stays within [0.99, 1.01] pu^2, so line 2 is contracted into the
    # substation: the LP keeps line 1's cluster and the substation's
    # balances and line 1's flow columns
    nodes = {
        0: Node(id=0, ancestor_id=None, is_substation=True, s_rating_kva=20000.0),
        1: Node(id=1, ancestor_id=0, p_cap_kw=1000.0),
        2: Node(id=2, ancestor_id=0, p_cap_kw=500.0),
    }
    lines = [
        Line(from_id=1, to_id=0, r_pu=0.01, x_pu=0.0, s_rating_pu=0.1),
        Line(from_id=2, to_id=0, r_pu=0.01, x_pu=0.0, s_rating_pu=10.0),
    ]
    net = RadialNetwork(nodes=nodes, lines=lines, s_base_kva=1000.0)
    pv = BuildingParams(id="pv", r_th=5.0, c_th=10.0, p_hp_rated=0.0, p_pv_rated=500.0)
    series = GridTimeSeries(slf=np.ones(4), cf=np.ones(4), rar=0.0)
    model = OpfModel(net, [pv], {"pv": 1}, CFG, np.zeros(4), series)
    K, T, N = model.facets, 4, 2
    assert model.kept_lines == [1] and not model.keeps_voltage
    assert model.A.shape == (2 * 2 * T + K * T, N * T + 2 * T + 2 * T)
    _, cols = model.A[np.isinf(model.row_lo)].nonzero()
    pcc = set(range(model.A.shape[1] - 2 * T, model.A.shape[1]))
    assert len(set(cols)) == 2 * T and not set(cols) & pcc
    # the line's vertex on the P axis caps node 1's draw at 0.1 pu
    sol = model.solve(np.full(4, 50.0))
    assert np.allclose(sol.shed_kw[model.node_pos[1]], 400.0, atol=1e-6)
    assert np.allclose(sol.shed_kw[model.node_pos[2]], 0.0, atol=1e-9)
    assert np.allclose(sol.flow_p_pu[model.node_pos[2]], 0.5, atol=1e-9)
    assert verify_solution(model, sol) == []
    assert sol.objective_eur == pytest.approx(full_lp_objective(model, np.full(4, 50.0)),
                                              rel=1e-9)


def test_a_tight_line_keeps_its_cluster_and_contracts_the_rest():
    # 0 - 1 - 2 - 3 and 1 - 4: only the line into node 2 (carrying nodes 2
    # and 3, 0.2 pu) is rated below its load.  It keeps its facets and
    # its cluster's balances, which sum nodes 2 and 3; lines 1, 3 and 4
    # are contracted and nodes 1 and 4 join the substation's balances
    nodes = {0: Node(id=0, ancestor_id=None, is_substation=True, s_rating_kva=20000.0)}
    for nid, anc in ((1, 0), (2, 1), (3, 2), (4, 1)):
        nodes[nid] = Node(id=nid, ancestor_id=anc, p_cap_kw=100.0)
    lines = [Line(from_id=nid, to_id=anc, r_pu=0.01, x_pu=0.005,
                  s_rating_pu=0.08 if nid == 2 else 10.0)
             for nid, anc in ((1, 0), (2, 1), (3, 2), (4, 1))]
    net = RadialNetwork(nodes=nodes, lines=lines, s_base_kva=1000.0)
    buildings = [hp_building("h3", rated=3.0), hp_building("h4", rated=2.5)]
    series = GridTimeSeries(slf=np.full(24, 0.6), cf=np.zeros(24), rar=0.05)
    model = OpfModel(net, buildings, {"h3": 3, "h4": 4}, CFG, np.full(24, 2.0), series)
    T, F, N = 24, 2, 4
    assert model.kept_lines == [2] and not model.keeps_voltage
    facets = np.isinf(model.row_lo).sum()
    assert 0 < facets <= model.facets * T
    assert model.A.shape == (facets + 2 * 2 * T + F * (T + 1), 2 * F * T + N * T + 4 * T)
    for prices in (PRICES24, PRICES24[::-1].copy()):
        sol = model.solve(prices)
        assert sol.objective_eur == pytest.approx(full_lp_objective(model, prices), rel=1e-9)
        assert verify_solution(model, sol) == []
        assert facet_excess(model, sol) <= 1e-7
        # the tight line caps its cluster's draw, and only its cluster sheds
        assert sol.shed_kwh > 0.0
        assert np.abs(sol.shed_kw[[model.node_pos[1], model.node_pos[4]]]).max() <= 1e-9


def test_a_feeder_whose_voltage_can_bind_keeps_every_line():
    # a 0.06 pu line under 0.5 pu would drop u to 0.94 < 0.97^2: every
    # line and every voltage-drop row stays, and the voltage bound sheds
    # load exactly as far as it must, u = 1 - 2 r P = 0.97^2
    model = OpfModel(two_bus(r_pu=0.06), [], {}, CFG, np.zeros(4), flat_series())
    T, N = 4, 1
    assert model.kept_lines == [1] and model.keeps_voltage
    assert model.A.shape == (2 * N * T + 2 * T + N * T, 4 * N * T + 2 * T)
    sol = model.solve(np.full(4, 50.0))
    served = (1.0 - 0.97**2) / (2 * 0.06)
    assert np.allclose(sol.flow_p_pu[0], served, atol=1e-7)
    assert np.allclose(sol.u_pu2[0], 0.97**2, atol=1e-7)
    assert sol.objective_eur == pytest.approx(full_lp_objective(model, np.full(4, 50.0)),
                                              rel=1e-9)
    assert verify_solution(model, sol) == []


def test_a_congested_campaign_day_contracts_to_the_substation():
    # the feeder-congested benchmark instance: its ratings bind only at
    # the substation and its voltages stay far from the bounds, so each
    # day's LP keeps no line facet and no voltage row, and every nodal
    # balance merges into the substation's 2 T rows
    spec = SyntheticSpec(n_buildings=200, hp_share_pct=60.0, branching=5, depth=6,
                         n_days=28, seed=0)
    bundle = generate_instance(spec)
    alloc = allocate_buildings(bundle.buildings, bundle.network)
    for day in bundle.dates[23:]:
        series = GridTimeSeries(slf=bundle.slf[day], cf=bundle.cf[day], rar=0.05)
        model = OpfModel(bundle.network, bundle.buildings, alloc, CFG,
                         bundle.weather[day], series)
        T, F, N = 24, len(model.flex), len(model.node_ids)
        assert (F, N) == (120, 30)
        assert model.kept_lines == [] and not model.keeps_voltage
        facets = np.isinf(model.row_lo).sum()
        assert model.A.shape == (facets + 2 * T + F * (T + 1), 2 * F * T + N * T + 2 * T)


# ------------------------------------------------------------- tree walks

class SolvedTree:
    """grid._Tree's walks as the triangular solves on the tree's
    incidence matrix D that they replace: D.T f = draws, D y = drops."""

    def __init__(self, anc):
        from scipy.sparse.linalg import spsolve_triangular

        N = len(anc)
        below = [i for i, a in enumerate(anc) if a < N]
        self.D = (sparse.identity(N) - sparse.coo_matrix(
            (np.ones(len(below)), (below, [anc[i] for i in below])), shape=(N, N))).tocsr()
        self.spsolve_triangular = spsolve_triangular

    def flows(self, draws):
        return self.spsolve_triangular(self.D.T.tocsr(), draws, lower=False, unit_diagonal=True)

    def path_sums(self, drops):
        return self.spsolve_triangular(self.D, drops, lower=True, unit_diagonal=True)


def random_feeder(shape, seed, n=40):
    """n load nodes under substation 0, shaped as a chain n deep, a star
    (every node but the first hangs off the first) or a random tree, with
    shuffled node ids, random lines and loads, six heat-pump and PV
    buildings, and a random 24-hour day of outdoor temperatures and series."""
    rng = np.random.default_rng(seed)
    ids = (rng.permutation(n) + 1).tolist()
    parent = {"chain": lambda k: k - 1, "star": lambda k: 0,
              "random": lambda k: int(rng.integers(0, k))}[shape]
    nodes = {0: Node(id=0, ancestor_id=None, is_substation=True, s_rating_kva=400.0)}
    lines = []
    for k, nid in enumerate(ids):
        anc = ids[parent(k)] if k else 0
        nodes[nid] = Node(id=nid, ancestor_id=anc, p_cap_kw=float(rng.uniform(2.0, 10.0)))
        lines.append(Line(from_id=nid, to_id=anc, r_pu=rng.uniform(1e-4, 1e-3),
                          x_pu=rng.uniform(0.0, 5e-4), s_rating_pu=rng.uniform(0.1, 4.0)))
    net = RadialNetwork(nodes=nodes, lines=lines, s_base_kva=100.0)
    buildings = [BuildingParams(id=f"h{k}", r_th=rng.uniform(4, 8), c_th=rng.uniform(8, 16),
                                p_hp_rated=rng.uniform(2.0, 4.0),
                                p_pv_rated=rng.uniform(0.0, 3.0), has_hp=True)
                 for k in range(6)]
    alloc = {b.id: int(rng.choice(ids)) for b in buildings}
    series = GridTimeSeries(slf=rng.uniform(0.4, 1.0, 24), cf=rng.uniform(0.0, 0.5, 24),
                            rar=0.05)
    return net, buildings, alloc, rng.uniform(-4.0, 12.0, 24), series


def synthetic_feeder(seed):
    """The benchmark's 30-node feeder, 5 arms 6 deep, on its first day."""
    bundle = feeder_instance(seed)
    day = bundle.dates[0]
    series = GridTimeSeries(slf=bundle.slf[day], cf=bundle.cf[day], rar=0.05)
    return (bundle.network, bundle.buildings,
            allocate_buildings(bundle.buildings, bundle.network), bundle.weather[day], series)


def assert_close(got, ref):
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("feeder", [
    partial(random_feeder, "chain"), partial(random_feeder, "star"),
    partial(random_feeder, "random"), synthetic_feeder,
], ids=["chain", "star", "random", "synthetic"])
@pytest.mark.parametrize("seed", [0, 1])
def test_tree_walks_match_the_triangular_solves(monkeypatch, feeder, seed):
    """Flows summed up the tree and squared voltages down it agree with
    the triangular solves on the incidence matrix, on random draws and
    on a solved OPF; the model keeps the same facets, lines and voltage
    rows either way, and its solution passes the independent re-check."""
    net, buildings, alloc, t_out, series = feeder(seed)
    model = OpfModel(net, buildings, alloc, CFG, t_out, series)
    anc = [model.node_pos.get(net.nodes[nid].ancestor_id, len(model.node_ids))
           for nid in model.node_ids]
    rng = np.random.default_rng(seed)
    draws = rng.normal(size=(len(anc), 48)) * rng.choice([1e-3, 1.0, 1e3], size=(len(anc), 1))
    walked, solved = grid._Tree(anc), SolvedTree(anc)
    assert_close(walked.flows(draws), solved.flows(draws))
    assert_close(walked.path_sums(draws), solved.path_sums(draws))

    with monkeypatch.context() as patch:
        patch.setattr(grid, "_Tree", SolvedTree)
        ref = OpfModel(net, buildings, alloc, CFG, t_out, series)
    assert (model.kept_lines, model.keeps_voltage, model.A.shape) == (
        ref.kept_lines, ref.keeps_voltage, ref.A.shape)
    assert (model.A != ref.A).nnz == 0
    assert np.array_equal(model.row_lo, ref.row_lo) and np.array_equal(model.row_hi, ref.row_hi)
    sol, ref_sol = model.solve(PRICES24), ref.solve(PRICES24)
    assert sol.hp_kw.tobytes() == ref_sol.hp_kw.tobytes()
    for name in ("flow_p_pu", "flow_q_pu", "u_pu2"):
        assert_close(getattr(sol, name), getattr(ref_sol, name))
    assert verify_solution(model, sol) == []


# --------------------------------------------------------- tree validation

def test_validate_radial_accepts_a_clean_tree():
    topo = validate_radial(two_bus())
    assert topo.substations == [0]
    assert topo.children[0] == [1]


def test_cycle_is_rejected():
    nodes = {
        0: Node(id=0, ancestor_id=None, is_substation=True, s_rating_kva=100.0),
        1: Node(id=1, ancestor_id=2, p_cap_kw=1.0),
        2: Node(id=2, ancestor_id=1, p_cap_kw=1.0),
    }
    lines = [
        Line(from_id=1, to_id=2, r_pu=0.01, x_pu=0.0, s_rating_pu=1.0),
        Line(from_id=2, to_id=1, r_pu=0.01, x_pu=0.0, s_rating_pu=1.0),
    ]
    with pytest.raises(CycleDetected):
        validate_radial(RadialNetwork(nodes=nodes, lines=lines))
    # a node hanging off the loop never reaches a substation either
    nodes[3] = Node(id=3, ancestor_id=1, p_cap_kw=1.0)
    lines.append(Line(from_id=3, to_id=1, r_pu=0.01, x_pu=0.0, s_rating_pu=1.0))
    with pytest.raises(CycleDetected, match=r"\[1, 2, 3\]"):
        validate_radial(RadialNetwork(nodes=nodes, lines=lines))


def test_orphan_node_is_rejected():
    nodes = {
        0: Node(id=0, ancestor_id=None, is_substation=True, s_rating_kva=100.0),
        1: Node(id=1, ancestor_id=None, p_cap_kw=1.0),
    }
    with pytest.raises(DisconnectedNode):
        validate_radial(RadialNetwork(nodes=nodes, lines=[]))


def test_missing_line_is_rejected():
    nodes = {
        0: Node(id=0, ancestor_id=None, is_substation=True, s_rating_kva=100.0),
        1: Node(id=1, ancestor_id=0, p_cap_kw=1.0),
    }
    with pytest.raises(DisconnectedNode):
        validate_radial(RadialNetwork(nodes=nodes, lines=[]))


def test_substation_with_ancestor_is_rejected():
    nodes = {
        0: Node(id=0, ancestor_id=1, is_substation=True, s_rating_kva=100.0),
        1: Node(id=1, ancestor_id=None, is_substation=True, s_rating_kva=100.0),
    }
    with pytest.raises(MultipleAncestors):
        validate_radial(RadialNetwork(nodes=nodes, lines=[]))


def test_second_upstream_line_is_rejected():
    net = two_bus()
    doubled = RadialNetwork(
        nodes=net.nodes, lines=net.lines + net.lines, s_base_kva=1000.0
    )
    with pytest.raises(MultipleAncestors):
        validate_radial(doubled)


def test_dangling_ancestor_is_rejected():
    nodes = {
        0: Node(id=0, ancestor_id=None, is_substation=True, s_rating_kva=100.0),
        1: Node(id=1, ancestor_id=9, p_cap_kw=1.0),
    }
    lines = [Line(from_id=1, to_id=9, r_pu=0.01, x_pu=0.0, s_rating_pu=1.0)]
    with pytest.raises(DanglingReference):
        validate_radial(RadialNetwork(nodes=nodes, lines=lines))


def test_line_contradicting_declared_ancestor():
    nodes = {
        0: Node(id=0, ancestor_id=None, is_substation=True, s_rating_kva=100.0),
        1: Node(id=1, ancestor_id=0, p_cap_kw=1.0),
        2: Node(id=2, ancestor_id=0, p_cap_kw=1.0),
    }
    lines = [
        Line(from_id=1, to_id=2, r_pu=0.01, x_pu=0.0, s_rating_pu=1.0),
        Line(from_id=2, to_id=0, r_pu=0.01, x_pu=0.0, s_rating_pu=1.0),
    ]
    with pytest.raises(GridMismatch):
        validate_radial(RadialNetwork(nodes=nodes, lines=lines))


def test_opf_needs_exactly_one_substation():
    nodes = {
        0: Node(id=0, ancestor_id=None, is_substation=True, s_rating_kva=100.0),
        1: Node(id=1, ancestor_id=None, is_substation=True, s_rating_kva=100.0),
    }
    net = RadialNetwork(nodes=nodes, lines=[])
    with pytest.raises(GridMismatch):
        OpfModel(net, [], {}, CFG, np.zeros(4), flat_series())


def test_facet_count_is_bounded():
    # a count past the float range once ended in an OverflowError
    for facets in (2, MAX_FACETS + 1, 10**400):
        with pytest.raises(ValueError, match=f"facets must lie in 3..{MAX_FACETS}"):
            OpfModel(two_bus(), [], {}, CFG, np.zeros(4), flat_series(), facets=facets)
    model = OpfModel(two_bus(rating_pu=0.4), [], {}, CFG, np.zeros(4), flat_series(),
                     facets=MAX_FACETS)
    # the purely active 0.5 pu draw meets a vertex on the P axis: the
    # excess over the 0.4 pu rating is shed, to the kW
    assert np.allclose(model.solve(np.full(4, 50.0)).shed_kw, 100.0)


def test_series_must_span_the_days_steps():
    with pytest.raises(ValueError, match="slf and cf must span t_out's steps"):
        OpfModel(two_bus(), [], {}, CFG, np.zeros(4), flat_series(n=5))


def test_opf_needs_a_node_below_the_substation():
    # a substation alone once failed inside the LP assembly, on a bare
    # numpy ValueError from a reduction over zero nodes
    net = RadialNetwork({0: Node(0, None, is_substation=True, s_rating_kva=100.0)}, [])
    with pytest.raises(GridMismatch, match="only the substation"):
        OpfModel(net, [], {}, CFG, np.zeros(4),
                 GridTimeSeries(np.ones(4), np.zeros(4)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_time_series_rejects_non_finite_factors(bad):
    # NaN slips past the [0, 1] range checks, so finiteness is checked first
    poisoned = np.zeros(24)
    poisoned[5] = bad
    with pytest.raises(ValueError, match="finite"):
        GridTimeSeries(slf=poisoned, cf=np.zeros(24))
    with pytest.raises(ValueError, match="finite"):
        GridTimeSeries(slf=np.zeros(24), cf=poisoned)


# ---------------------------------------------------------------- allocation

def alloc_net(caps, positions):
    nodes = {0: Node(id=0, ancestor_id=None, is_substation=True, s_rating_kva=1000.0)}
    lines = []
    for i, (cap, pos) in enumerate(zip(caps, positions), start=1):
        nodes[i] = Node(id=i, ancestor_id=0, p_cap_kw=cap, position=pos)
        lines.append(Line(from_id=i, to_id=0, r_pu=0.01, x_pu=0.0, s_rating_pu=10.0))
    return RadialNetwork(nodes=nodes, lines=lines)


def test_single_building_lands_on_its_only_node():
    net = alloc_net([10.0], [(1.0, 0.0)])
    assert allocate_buildings([hp_building()], net) == {"h1": 1}


def test_uncapacitated_assignment_is_nearest_node():
    net = alloc_net([100.0] * 3, [(0.0, 0.0), (5.0, 0.0), (10.0, 0.0)])
    buildings = [
        hp_building("a", pos=(0.4, 0.1)),
        hp_building("b", pos=(5.2, -0.3)),
        hp_building("c", pos=(9.7, 0.0)),
        hp_building("d", pos=(4.9, 0.2)),
    ]
    out = allocate_buildings(buildings, net)
    assert out == {"a": 1, "b": 2, "c": 3, "d": 2}


def test_capacity_forces_the_second_choice():
    # both buildings prefer node 1, but each node only fits one rating
    net = alloc_net([3.5, 3.5], [(0.0, 0.0), (2.0, 0.0)])
    buildings = [hp_building("a", pos=(0.0, 0.0)), hp_building("b", pos=(0.5, 0.0))]
    out = allocate_buildings(buildings, net)
    assert sorted(out.values()) == [1, 2]
    assert out["a"] == 1  # the closer building keeps the contested node


def test_allocation_matches_exhaustive_enumeration():
    net = alloc_net([4.0, 3.0, 6.0], [(0.0, 0.0), (3.0, 1.0), (6.0, 0.0)])
    buildings = [
        hp_building("a", rated=3.0, pos=(1.0, 0.0)),
        hp_building("b", rated=2.5, pos=(2.0, 0.5)),
        hp_building("c", rated=4.0, pos=(5.0, 0.0)),
    ]
    out = allocate_buildings(buildings, net)

    def cost(assign):
        return sum(
            math.dist(b.position, net.nodes[assign[b.id]].position) for b in buildings
        )

    best = math.inf
    sites = [1, 2, 3]
    for combo in __import__("itertools").product(sites, repeat=3):
        assign = dict(zip("abc", combo))
        hp_at = {s: 0.0 for s in sites}
        for b in buildings:
            hp_at[assign[b.id]] += b.p_hp_rated
        if all(hp_at[s] <= net.nodes[s].p_cap_kw + 1e-12 for s in sites):
            best = min(best, cost(assign))
    assert cost(out) == pytest.approx(best, abs=1e-9)


def test_allocation_memory_stays_linear_in_buildings_times_sites():
    # 200 buildings on 30 sites: dense constraint rows peak at about 26 MB
    # (the assignment rows alone hold nb * nb * nn floats); sparse rows
    # hold 3 * nb * nn nonzeros and peak at about 1.6 MB
    bundle = generate_instance(SyntheticSpec(
        n_buildings=200, hp_share_pct=60.0, n_days=2, seed=0, branching=5, depth=6))
    tracemalloc.start()
    try:
        out = allocate_buildings(bundle.buildings, bundle.network)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(out) == 200
    assert peak < 6e6, f"allocation peaked at {peak / 1e6:.1f} MB"


def feeder_instance(seed=0):
    return generate_instance(SyntheticSpec(
        n_buildings=200, hp_share_pct=60.0, n_days=2, seed=seed, branching=5, depth=6))


def milp_allocation(buildings, net):
    """The assignment MILP's own answer, without the nearest-node exit."""
    sites = [n for _, n in sorted(net.nodes.items()) if not n.is_substation]
    b_pos = np.array([b.position for b in buildings])
    n_pos = np.array([n.position for n in sites])
    diff = b_pos[:, None] - n_pos[None]
    dist = np.hypot(diff[..., 0], diff[..., 1])
    site = grid._assignment_milp(
        dist, np.array([b.p_hp_rated for b in buildings]),
        np.array([b.p_pv_rated for b in buildings]), np.array([n.p_cap_kw for n in sites]))
    return {b.id: sites[s].id for b, s in zip(buildings, site)}


@pytest.mark.parametrize("seed", range(5))
def test_nearest_node_exit_gives_the_milp_optimum(seed):
    bundle = feeder_instance(seed)
    assert allocate_buildings(bundle.buildings, bundle.network) == \
        milp_allocation(bundle.buildings, bundle.network)


def test_only_a_binding_capacity_reaches_the_milp(monkeypatch):
    def no_milp(*args, **kwargs):
        raise AssertionError("milp called")

    monkeypatch.setattr(grid, "milp", no_milp)
    bundle = feeder_instance()
    assert len(allocate_buildings(bundle.buildings, bundle.network)) == 200
    net = alloc_net([3.5, 3.5], [(0.0, 0.0), (2.0, 0.0)])  # as in the second-choice test
    buildings = [hp_building("a", pos=(0.0, 0.0)), hp_building("b", pos=(0.5, 0.0))]
    with pytest.raises(AssertionError, match="milp called"):
        allocate_buildings(buildings, net)


@pytest.fixture()
def milp_calls(monkeypatch):
    """The number of assignment MILPs solved, as a growing list."""
    calls, milp = [], grid.milp

    def counted_milp(*args, **kwargs):
        calls.append(1)
        return milp(*args, **kwargs)

    monkeypatch.setattr(grid, "milp", counted_milp)
    return calls


@pytest.mark.parametrize("hp, pv", [(3.0, 0.0), (1.0, 3.0)])  # heat pumps or PV bind
@pytest.mark.parametrize("cap, solves", [(6.0, 0), (np.nextafter(6.0, 0.0), 1)])
def test_nearest_load_at_capacity_fits_and_any_overload_solves(milp_calls, hp, pv, cap, solves):
    net = alloc_net([cap, 10.0], [(0.0, 0.0), (2.0, 0.0)])
    buildings = [dataclasses.replace(hp_building(bid, rated=hp, pos=pos), p_pv_rated=pv)
                 for bid, pos in (("a", (0.0, 0.0)), ("b", (0.5, 0.0)))]
    allocate_buildings(buildings, net)
    assert len(milp_calls) == solves


def test_equidistant_building_lands_on_the_lower_node_id():
    # node 2 comes first in the mapping; the tie still goes to node 1
    nodes = {0: Node(id=0, ancestor_id=None, is_substation=True, s_rating_kva=1000.0),
             2: Node(id=2, ancestor_id=0, p_cap_kw=10.0, position=(0.0, 0.0)),
             1: Node(id=1, ancestor_id=0, p_cap_kw=10.0, position=(2.0, 0.0))}
    lines = [Line(from_id=i, to_id=0, r_pu=0.01, x_pu=0.0, s_rating_pu=10.0) for i in (2, 1)]
    net = RadialNetwork(nodes=nodes, lines=lines)
    assert allocate_buildings([hp_building(pos=(1.0, 0.0))], net) == {"h1": 1}


def test_allocation_logs_the_nearest_node_exit(caplog):
    caplog.set_level(logging.INFO, logger="flexbid.grid")
    net = alloc_net([100.0] * 2, [(0.0, 0.0), (5.0, 0.0)])
    allocate_buildings([hp_building("a", pos=(0.4, 0.1))], net)
    assert "nearest-node assignment fits every node's capacity" in caplog.text


def test_allocation_logs_the_overloaded_nodes(caplog):
    caplog.set_level(logging.INFO, logger="flexbid.grid")
    net = alloc_net([3.5, 3.5], [(0.0, 0.0), (2.0, 0.0)])
    buildings = [hp_building("a", pos=(0.0, 0.0)), hp_building("b", pos=(0.5, 0.0))]
    allocate_buildings(buildings, net)
    assert "nearest-node assignment overloads nodes [1]; solving the assignment MILP" \
        in caplog.text


def test_allocation_milp_memory_stays_linear_in_buildings_times_sites(milp_calls):
    # the instance above with its most loaded node cut to 90 % of the
    # heat-pump ratings nearest to it, so the sparse MILP has to run
    bundle = feeder_instance()
    net = bundle.network
    nearest = allocate_buildings(bundle.buildings, net)
    load = {}
    for b in bundle.buildings:
        load[nearest[b.id]] = load.get(nearest[b.id], 0.0) + b.p_hp_rated
    nid = max(load, key=load.get)
    cut = dataclasses.replace(net, nodes={
        **net.nodes, nid: dataclasses.replace(net.nodes[nid], p_cap_kw=0.9 * load[nid])})
    assert sum(b.p_hp_rated for b in bundle.buildings) <= \
        sum(n.p_cap_kw for n in cut.nodes.values() if not n.is_substation)
    tracemalloc.start()
    try:
        out = allocate_buildings(bundle.buildings, cut)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(milp_calls) == 1
    assert len(out) == 200 and out != nearest
    assert peak < 6e6, f"allocation peaked at {peak / 1e6:.1f} MB"


def test_allocation_infeasible_when_ratings_exceed_capacity():
    net = alloc_net([2.0], [(0.0, 0.0)])
    with pytest.raises(Infeasible):
        allocate_buildings([hp_building(rated=5.0)], net)


# ------------------------------------------------- dispatch with heat pumps

def feeder_with_hp(rating_scale=1.0):
    nodes = {
        0: Node(id=0, ancestor_id=None, is_substation=True,
                s_rating_kva=30.0 * rating_scale),
        1: Node(id=1, ancestor_id=0, p_cap_kw=8.0),
        2: Node(id=2, ancestor_id=0, p_cap_kw=8.0),
    }
    lines = [
        Line(from_id=1, to_id=0, r_pu=0.004, x_pu=0.002, s_rating_pu=0.6 * rating_scale),
        Line(from_id=2, to_id=0, r_pu=0.004, x_pu=0.002, s_rating_pu=0.6 * rating_scale),
    ]
    net = RadialNetwork(nodes=nodes, lines=lines, s_base_kva=30.0)
    buildings = [hp_building("h1", rated=3.0), hp_building("h2", rated=2.5)]
    return net, buildings, {"h1": 1, "h2": 2}


PRICES24 = 60.0 + 25.0 * np.sin(np.arange(24) / 3.0)


def test_generous_grid_reproduces_pricefollowing_dispatch():
    # with slack everywhere the network adds nothing: the heat-pump part
    # of the objective equals the stand-alone building dispatch costs
    net, buildings, alloc = feeder_with_hp(rating_scale=10.0)
    t_out = np.full(24, 2.0)
    series = GridTimeSeries(slf=np.full(24, 0.6), cf=np.zeros(24), rar=0.05)
    sol = OpfModel(net, buildings, alloc, CFG, t_out, series).solve(PRICES24)
    standalone = DispatchModel(buildings, CFG, t_out).solve(PRICES24[None])[1][0]
    assert sol.shed_kwh == 0.0
    assert sol.hp_cost_eur == pytest.approx(standalone, abs=1e-6)


@pytest.mark.parametrize("alloc, error, message", [
    ({"h1": 1}, DanglingReference, "building h2 has no node assignment"),
    ({"h1": 1, "h2": 7}, DanglingReference, "building h2 assigned to unknown node 7"),
    ({"h1": 1, "h2": 0}, GridMismatch, "building h2 assigned to the substation"),
])
def test_network_dispatch_rejects_a_bad_assignment(alloc, error, message):
    net, buildings, _ = feeder_with_hp()
    series = GridTimeSeries(slf=np.full(24, 0.6), cf=np.zeros(24), rar=0.05)
    with pytest.raises(error, match=f"^{message}$"):
        OpfModel(net, buildings, alloc, CFG, np.full(24, 2.0), series)


def test_tight_grid_costs_at_least_as_much():
    net, buildings, alloc = feeder_with_hp()
    t_out = np.full(24, 2.0)
    series = GridTimeSeries(slf=np.full(24, 0.6), cf=np.zeros(24), rar=0.05)
    tight = OpfModel(net, buildings, alloc, CFG, t_out, series).solve(PRICES24)
    roomy = OpfModel(
        *feeder_with_hp(rating_scale=10.0)[:1], buildings, alloc, CFG, t_out, series,
    ).solve(PRICES24)
    assert tight.objective_eur >= roomy.objective_eur - 1e-9


def test_baseline_solution_dominates_optimal():
    net, buildings, alloc = feeder_with_hp()
    t_out = np.full(24, 2.0)
    series = GridTimeSeries(slf=np.full(24, 0.6), cf=np.zeros(24), rar=0.05)
    model = OpfModel(net, buildings, alloc, CFG, t_out, series)
    rng = np.random.default_rng(11)
    for _ in range(3):
        prices = rng.uniform(20.0, 140.0, size=24)
        free = model.solve(prices)
        pinned = model.solve(prices, hp_fixed=by_id(model, model.baseline))
        assert free.objective_eur <= pinned.objective_eur + 1e-7
        assert verify_solution(model, free) == []
        assert verify_solution(model, pinned) == []
        assert np.allclose(pinned.hp_kw, model.baseline, atol=1e-9)


def test_hp_fixed_pins_the_schedules():
    net, buildings, alloc = feeder_with_hp(rating_scale=10.0)
    t_out = np.full(24, 2.0)
    series = GridTimeSeries(slf=np.full(24, 0.6), cf=np.zeros(24), rar=0.05)
    model = OpfModel(net, buildings, alloc, CFG, t_out, series)
    free = model.solve(PRICES24)
    # halfway between baseline and optimum: feasible by convexity and
    # energy-preserving, so pinning it must be accepted verbatim
    award = 0.5 * model.baseline + 0.5 * free.hp_kw
    sol = model.solve(PRICES24, hp_fixed=by_id(model, award))
    assert np.allclose(sol.hp_kw, award, atol=1e-7)
    assert sol.objective_eur >= free.objective_eur - 1e-7
    pinned = model.solve(PRICES24, hp_fixed=by_id(model, model.baseline))
    assert sol.objective_eur <= pinned.objective_eur + 1e-7


@pytest.mark.parametrize("kw", [-0.1, 3.1, np.nan])
def test_pinned_schedule_outside_the_rating_is_rejected(kw):
    # h1 is rated 3 kW; the LP's polygons hold only for schedules within
    # it, and a NaN draw lies within no rating
    model = sweep_model()
    with pytest.raises(Infeasible, match="h1"):
        model.solve(PRICES24, hp_fixed={"h1": np.full(24, kw)})


@pytest.mark.parametrize("pin", [
    pytest.param(lambda base: 0.9 * base, id="short-of-energy"),
    pytest.param(lambda base: np.c_[np.zeros((2, 12)), 2.0 * base[:, 12:]], id="afternoon"),
])
def test_pin_breaking_comfort_or_energy_is_infeasible(pin):
    # within the ratings, so the LP itself refuses each: the pinned heat
    # pumps keep their temperature columns and energy rows
    model = sweep_model(10.0)
    with pytest.raises(Infeasible, match="network dispatch infeasible"):
        model.solve(PRICES24, hp_fixed=by_id(model, pin(model.baseline)))
    # a pin of h2 alone fails as well, with h1 still free to move
    with pytest.raises(Infeasible, match="network dispatch infeasible"):
        model.solve(PRICES24, hp_fixed={"h2": pin(model.baseline)[1]})


def test_pinned_schedule_off_the_horizon_is_rejected():
    model = sweep_model()
    with pytest.raises(LengthMismatch, match="h1"):
        model.solve(PRICES24, hp_fixed={"h1": np.full(23, 1.0)})


def test_negative_fixed_load_is_rejected():
    # node capacity far below the heat pump's baseline draw
    nodes = {
        0: Node(id=0, ancestor_id=None, is_substation=True, s_rating_kva=30.0),
        1: Node(id=1, ancestor_id=0, p_cap_kw=0.3),
    }
    net = RadialNetwork(
        nodes=nodes,
        lines=[Line(from_id=1, to_id=0, r_pu=0.004, x_pu=0.0, s_rating_pu=1.0)],
        s_base_kva=30.0,
    )
    with pytest.raises(Infeasible):
        OpfModel(net, [hp_building()], {"h1": 1}, CFG, np.full(24, -5.0),
                 GridTimeSeries(slf=np.full(24, 0.6), cf=np.zeros(24), rar=0.05))


def test_verify_solution_flags_tampering():
    net, buildings, alloc = feeder_with_hp()
    t_out = np.full(24, 2.0)
    series = GridTimeSeries(slf=np.full(24, 0.6), cf=np.zeros(24), rar=0.05)
    model = OpfModel(net, buildings, alloc, CFG, t_out, series)
    sol = model.solve(PRICES24)
    assert verify_solution(model, sol) == []
    warped = dataclasses.replace(sol, u_pu2=sol.u_pu2 + 0.1)
    assert any("voltage" in msg for msg in verify_solution(model, warped))
    overfull = dataclasses.replace(sol, flow_p_pu=sol.flow_p_pu * 3.0)
    assert verify_solution(model, overfull) != []


def test_verify_solution_reports_a_solution_that_is_not_finite():
    model = OpfModel(two_bus(), [], {}, CFG, np.zeros(4), flat_series())
    sol = model.solve(np.full(4, 50.0))
    names = ("u_pu2", "flow_p_pu", "flow_q_pu", "pcc_p_pu", "pcc_q_pu")
    blank = dataclasses.replace(sol, **{name: np.full_like(getattr(sol, name), np.nan)
                                        for name in names})
    assert verify_solution(model, blank) == [f"{name} holds values that are not finite"
                                             for name in names]


def test_verify_solution_rechecks_comfort_and_energy():
    # a schedule that idles through the morning and doubles up in the
    # afternoon: feasible in a 15..25 band, far below 19 degrees at noon
    net, buildings, alloc = feeder_with_hp(rating_scale=10.0)
    t_out = np.full(24, 2.0)
    series = GridTimeSeries(slf=np.full(24, 0.6), cf=np.zeros(24), rar=0.05)
    wide = OpfModel(net, buildings, alloc, ComfortConfig(t_min=15.0, t_max=25.0),
                    t_out, series)
    narrow = OpfModel(net, buildings, alloc, CFG, t_out, series)
    shifted = np.c_[np.zeros((2, 12)), 2.0 * wide.baseline[:, 12:]]
    sol = wide.solve(PRICES24, hp_fixed=by_id(wide, shifted))
    assert verify_solution(wide, sol) == []
    issues = verify_solution(narrow, sol)
    for b in buildings:
        assert any(msg.startswith(f"building {b.id}: temperature") and "below t_min" in msg
                   for msg in issues)
    short = dataclasses.replace(sol, hp_kw=sol.hp_kw * [[1.0], [0.9]])  # ids h1, h2
    assert any(msg.startswith("building h2: energy") for msg in verify_solution(wide, short))


def test_objective_decomposes_into_parts():
    net, buildings, alloc = feeder_with_hp()
    t_out = np.full(24, 2.0)
    series = GridTimeSeries(slf=np.full(24, 0.6), cf=np.zeros(24), rar=0.05)
    model = OpfModel(net, buildings, alloc, CFG, t_out, series)
    sol = model.solve(PRICES24)
    dt, S = model.cfg.dt, model.net.s_base_kva
    import_eur = dt * float(PRICES24 @ sol.pcc_p_pu) * S / 1000.0
    assert sol.objective_eur == pytest.approx(import_eur + 10000.0 * sol.shed_kwh / 1000.0,
                                              rel=1e-9)
    hp_eur = dt * float(PRICES24 @ sol.hp_kw.sum(axis=0)) / 1000.0
    assert sol.hp_cost_eur == pytest.approx(hp_eur, rel=1e-12)
    assert 0.0 < sol.hp_cost_eur < import_eur


# ------------------------------------------------- warm-started price sweep

def by_id(model, schedules):
    """(F, T) schedules in the model's heat-pump order, keyed by building
    id as solve's hp_fixed takes them."""
    return dict(zip(model.ids, schedules))


def sweep_model(rating_scale=1.0):
    net, buildings, alloc = feeder_with_hp(rating_scale)
    series = GridTimeSeries(slf=np.full(24, 0.6), cf=np.zeros(24), rar=0.05)
    return OpfModel(net, buildings, alloc, CFG, np.full(24, 2.0), series)


def facet_excess(model, sol):
    """How far the solution's flows pass the worst facet of any polygon,
    the lines' and the substation's, taken from the network data."""
    K = model.facets
    angles = (2 * np.arange(K) + 1) * math.pi / K
    rating = {ln.from_id: ln.s_rating_pu for ln in model.net.lines}
    s = np.array([rating[nid] for nid in model.node_ids] + [model.s_sub_pu])
    p = np.vstack([sol.flow_p_pu, sol.pcc_p_pu])[..., None]
    q = np.vstack([sol.flow_q_pu, sol.pcc_q_pu])[..., None]
    return (np.cos(angles) * p + np.sin(angles) * q
            - (s * math.cos(math.pi / K))[:, None, None]).max()


def full_lp_objective(model, prices, hp_fixed=None):
    """The network dispatch at one price row as the full LinDistFlow LP,
    built row by row from the network data and solved cold by linprog:
    every facet of every rating polygon, every nodal balance, every
    voltage drop, and a flow column for every line, contracted or not.
    An independent reference for the warm-started sweep, for the
    facets and lines the model leaves out, and for pinned schedules."""
    net, cfg, series = model.net, model.cfg, model.series
    T, K, S = len(model.t_out), model.facets, net.s_base_kva
    ids, pos = model.node_ids, model.node_pos
    N, F = len(ids), len(model.flex)
    B, rhs_hp, lo_hp, hi_hp, _, _ = fleet_rows(model.flex, cfg, model.t_out)
    shed, u, fp, fq = (2 * F * T + k * N * T for k in range(4))
    pcc_p, pcc_q = 2 * F * T + 4 * N * T, 2 * F * T + 4 * N * T + T
    n_col = pcc_q + T
    hp_col = {bid: 2 * f * T for f, bid in enumerate(model.ids)}
    kids = {nid: [c for c in ids if net.nodes[c].ancestor_id == nid] for nid in net.nodes}
    ub, eq = [], []  # ({column: coefficient}, right-hand side)
    polygons = [(model.topo.line_by_child[nid].s_rating_pu, fp + i * T, fq + i * T)
                for i, nid in enumerate(ids)] + [(model.s_sub_pu, pcc_p, pcc_q)]
    for rating, p_col, q_col in polygons:
        for t in range(T):
            for k in range(K):
                angle = (2 * k + 1) * math.pi / K
                ub.append(({p_col + t: math.cos(angle), q_col + t: math.sin(angle)},
                           rating * math.cos(math.pi / K)))
    for i, nid in enumerate(ids):
        ln = model.topo.line_by_child[nid]
        anc = net.nodes[nid].ancestor_id
        for t in range(T):
            p_row = {fp + i * T + t: 1.0, shed + i * T + t: 1.0 / S}
            q_row = {fq + i * T + t: 1.0}
            for c in kids[nid]:
                p_row[fp + pos[c] * T + t] = -1.0
                q_row[fq + pos[c] * T + t] = -1.0
            for f in np.flatnonzero(model.hp_node == i):
                p_row[2 * f * T + t] = -1.0 / S
                q_row[2 * f * T + t] = -series.rar / S
            fixed = model.p_fix_kw[i, t]
            eq.append((p_row, (fixed - model.pv_kw[i, t]) / S))
            eq.append((q_row, series.rar * fixed / S))
            drop = {u + i * T + t: 1.0, fp + i * T + t: 2.0 * ln.r_pu,
                    fq + i * T + t: 2.0 * ln.x_pu}
            if anc == model.sub_id:
                eq.append((drop, model.u_sub))
            else:
                drop[u + pos[anc] * T + t] = -1.0
                eq.append((drop, 0.0))
    for t in range(T):
        p_row, q_row = {pcc_p + t: 1.0}, {pcc_q + t: 1.0}
        for c in kids[model.sub_id]:
            p_row[fp + pos[c] * T + t] = -1.0
            q_row[fq + pos[c] * T + t] = -1.0
        eq.append((p_row, model.sub_fix_kw[t] / S))
        eq.append((q_row, series.rar * model.sub_fix_kw[t] / S))

    def matrix(rows):
        A = sparse.lil_array((len(rows), n_col))
        for r, (coefs, _) in enumerate(rows):
            for c, v in coefs.items():
                A[r, c] = v
        return A.tocsr(), np.array([b for _, b in rows])

    A_ub, b_ub = matrix(ub)
    A_eq, b_eq = matrix(eq)
    fleet = sparse.hstack([B, sparse.csr_array((B.shape[0], n_col - 2 * F * T))])
    A_eq = sparse.vstack([A_eq, fleet])
    free = np.full(2 * N * T + 2 * T, np.inf)
    lo = np.r_[lo_hp, np.zeros(N * T), np.full(N * T, V_MIN_PU**2), -free]
    hi = np.r_[hi_hp, model.p_fix_kw.ravel(), np.full(N * T, V_MAX_PU**2), free]
    for bid, sched in (hp_fixed or {}).items():
        lo[hp_col[bid] : hp_col[bid] + T] = hi[hp_col[bid] : hp_col[bid] + T] = sched
    cost = np.zeros(n_col)
    cost[shed : shed + N * T] = cfg.dt * model.voll / 1000.0
    cost[pcc_p : pcc_p + T] = cfg.dt * prices * S / 1000.0
    res = linprog(cost, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=np.r_[b_eq, rhs_hp],
                  bounds=np.column_stack([lo, hi]), method="highs")
    assert res.success, res.message
    return res.fun


def check_swept_row(model, prices, x, objective, rtol):
    """Pin one swept row's schedules x: the pinned dispatch costs what
    the sweep and a cold solve of the full LP cost, passes the
    independent re-check and meets every facet of every polygon."""
    sol = model.solve(prices, hp_fixed=by_id(model, x))
    ref = full_lp_objective(model, prices)
    assert abs(objective - ref) <= rtol * max(1.0, abs(ref))
    assert abs(sol.objective_eur - ref) <= rtol * max(1.0, abs(ref))
    assert verify_solution(model, sol) == []
    assert facet_excess(model, sol) <= 1e-7


def test_sweep_rows_match_one_shot_solves():
    model = sweep_model()
    rows = np.random.default_rng(5).uniform(20.0, 140.0, size=(6, 24))
    X, objective = model.solve_rows(rows)
    assert X.shape == (6, 2, 24) and objective.shape == (6,)
    for prices, x, obj in zip(rows, X, objective):
        check_swept_row(model, prices, x, obj, rtol=1e-9)


def test_one_row_sweep_is_the_one_shot_solve():
    model = sweep_model()
    X, objective = model.solve_rows(PRICES24[None, :])
    ref = model.solve(PRICES24)
    assert objective[0] == ref.objective_eur
    assert np.array_equal(X[0], ref.hp_kw)


def test_sweep_reuses_the_point_of_a_repeated_basis():
    # the third row, a euro per MWh above the first at every hour, is a
    # distinct row on the first row's optimal vertex; HiGHS's own point
    # there differs in its last bits, yet its schedules repeat byte for byte
    model = sweep_model()
    p0, p1 = PRICES24, PRICES24[::-1].copy()
    X, _ = model.solve_rows(np.array([p0, p1, p0 + 1.0]))
    assert not np.allclose(X[0], X[1])
    assert X[2].tobytes() == X[0].tobytes()


class DriftingHighs(_core._Highs):
    """HiGHS whose basic values drift on every run, as a warm path's
    rounding may, so only a reused point repeats its bytes."""

    runs = 0

    def run(self):
        DriftingHighs.runs += 1
        return super().run()

    def getSolution(self):
        x = np.array(super().getSolution().col_value)
        _, basic = self.getBasicVariables()
        x[basic[basic >= 0]] += 1e-12 * DriftingHighs.runs
        return SimpleNamespace(col_value=x)


def test_a_row_back_at_a_vertex_seen_before_repeats_its_bytes(monkeypatch):
    # the network LP moves away from its first vertex at row 1 and back at
    # row 2, a distinct row a euro per MWh above row 0; each run drifts the
    # basic values, so the third row repeats the first row's bytes only by
    # taking its point
    monkeypatch.setattr(_core, "_Highs", DriftingHighs)
    monkeypatch.setattr(DriftingHighs, "runs", 0)
    p0, p1 = PRICES24, PRICES24[::-1].copy()
    X, _ = sweep_model().solve_rows(np.array([p0, p1, p0 + 1.0]))
    assert DriftingHighs.runs == 3
    assert not np.allclose(X[0], X[1])
    assert X[2].tobytes() == X[0].tobytes()


def test_sweep_rejects_a_bare_price_vector():
    with pytest.raises(ValueError):
        sweep_model().solve_rows(PRICES24)
    with pytest.raises(ValueError):
        sweep_model().solve_rows(np.ones((2, 23)))


def split_solve(cpus):
    """solve_rows on three distinct rows around p, split into halves of
    one and two rows, with cpus usable CPUs."""
    def solve(model, p):
        with mock.patch.object(grid, "_usable_cpus", lambda: cpus):
            return model.solve_rows(np.array([p, p[::-1], p + 1.0]))
    return solve


@pytest.mark.parametrize("solve", [
    pytest.param(lambda model, p: model.solve(p), id="solve"),
    pytest.param(lambda model, p: model.solve_rows(p[None, :]), id="solve_rows"),
    pytest.param(split_solve(1), id="solve_rows-inline-halves"),
    pytest.param(split_solve(2), id="solve_rows-threaded-halves"),
])
def test_energy_beyond_the_substation_rating_is_infeasible(solve):
    # at 1 % of the ratings the feeder cannot deliver the heat pumps'
    # daily energy, and heat-pump load is never shed
    model = sweep_model(rating_scale=0.01)
    with pytest.raises(Infeasible) as info:
        solve(model, PRICES24)
    assert str(info.value) == grid._INFEASIBLE


SPLIT_ROWS = np.random.default_rng(8).uniform(20.0, 140.0, size=(5, 24))  # halves of 2 and 3


class ThreadedHighs(_core._Highs):
    """HiGHS that logs whether each run is on the main thread."""

    log = []

    def run(self):
        ThreadedHighs.log.append(threading.current_thread() is threading.main_thread())
        return super().run()


def test_equal_rows_are_swept_once(monkeypatch):
    monkeypatch.setattr(_core, "_Highs", ThreadedHighs)
    monkeypatch.setattr(ThreadedHighs, "log", [])
    p0, p1 = PRICES24, PRICES24[::-1].copy()
    X, objective = sweep_model().solve_rows(np.array([p0, p1, p0, p1, p0]))
    assert len(ThreadedHighs.log) == 2
    assert [x.tobytes() for x in X] == [X[0].tobytes(), X[1].tobytes()] * 2 + [X[0].tobytes()]
    assert objective.tolist() == objective[[0, 1]].tolist() * 2 + [objective[0]]


def test_inline_and_threaded_halves_give_the_same_bytes(monkeypatch):
    monkeypatch.setattr(_core, "_Highs", ThreadedHighs)
    answers = {}
    for cpus in (2, 1):
        monkeypatch.setattr(grid, "_usable_cpus", lambda n=cpus: n)
        model = sweep_model()
        bases = {}
        model.solve_rows(SPLIT_ROWS[::-1], bases)  # a carried start
        monkeypatch.setattr(ThreadedHighs, "log", [])
        X, objective = model.solve_rows(SPLIT_ROWS, bases)
        # each half a chain from the carried start: 2 runs here, 3 on the
        # worker thread when two CPUs are usable, all 5 here with one
        assert sorted(ThreadedHighs.log) == ([False] * 3 + [True] * 2 if cpus == 2 else [True] * 5)
        kept = bases[model._lp.shape]
        answers[cpus] = X.tobytes(), objective.tobytes(), kept.col_status, kept.row_status
    assert answers[1] == answers[2]


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("bad", [0, 4], ids=["first-half", "second-half"])
@pytest.mark.parametrize("failure, raw, message", [
    (Infeasible, "LP is infeasible", grid._INFEASIBLE),
    (SolverFailure, "HiGHS status Time limit reached",
     "network dispatch failed: HiGHS status Time limit reached"),
])
def test_a_failing_half_fails_the_sweep_alike_on_either_path(monkeypatch, cpus, bad,
                                                               failure, raw, message):
    monkeypatch.setattr(grid, "_usable_cpus", lambda: cpus)
    model = sweep_model()
    bad_cost = model._costs(SPLIT_ROWS[bad:bad + 1])
    solve = model._lp.solve

    def failing(costs, bases=None):
        if (costs == bad_cost).all(axis=1).any():
            raise failure(raw)
        return solve(costs, bases)

    monkeypatch.setattr(model._lp, "solve", failing)
    bases = {}
    with pytest.raises(failure) as info:
        model.solve_rows(SPLIT_ROWS, bases)
    assert str(info.value) == message and bases == {}


@pytest.mark.parametrize("cpus", [1, 2])
def test_when_both_halves_fail_the_first_halfs_failure_is_raised(monkeypatch, cpus):
    monkeypatch.setattr(grid, "_usable_cpus", lambda: cpus)
    model = sweep_model()

    def failing(costs, bases=None):  # the first half holds 2 rows, the second 3
        if len(costs) == 2:
            raise SolverFailure("HiGHS status Time limit reached")
        raise Infeasible("LP is infeasible")

    monkeypatch.setattr(model._lp, "solve", failing)
    with pytest.raises(SolverFailure, match="^network dispatch failed: HiGHS status"):
        model.solve_rows(SPLIT_ROWS)


class GoingHighs(_core._Highs):
    """HiGHS that logs each run's start (+1) and end (-1), each run slowed
    so that a run on one thread is still going when the other thread fails."""

    log = []

    def run(self):
        GoingHighs.log.append(1)
        try:
            time.sleep(0.05)
            return super().run()
        finally:
            GoingHighs.log.append(-1)


def test_no_run_and_no_thread_outlives_a_split_sweep(monkeypatch):
    monkeypatch.setattr(grid, "_usable_cpus", lambda: 2)
    sweep_model().solve_rows(SPLIT_ROWS)  # the first split starts the worker thread
    threads = threading.active_count()
    monkeypatch.setattr(_core, "_Highs", GoingHighs)
    monkeypatch.setattr(GoingHighs, "log", [])
    model = sweep_model()
    model.solve_rows(SPLIT_ROWS)
    assert len(GoingHighs.log) == 10 and sum(GoingHighs.log) == 0
    assert threading.active_count() == threads
    # the first half fails before a run; the second half's three rows all
    # end before the failure is raised
    solve = model._lp.solve

    def failing(costs, bases=None):
        if len(costs) == 2:
            raise Infeasible("LP is infeasible")
        return solve(costs, bases)

    monkeypatch.setattr(model._lp, "solve", failing)
    monkeypatch.setattr(GoingHighs, "log", [])
    with pytest.raises(Infeasible):
        model.solve_rows(SPLIT_ROWS)
    assert len(GoingHighs.log) == 6 and sum(GoingHighs.log) == 0
    assert threading.active_count() == threads
    monkeypatch.setattr(GoingHighs, "log", [])
    with pytest.raises(Infeasible):
        sweep_model(rating_scale=0.01).solve_rows(SPLIT_ROWS)
    assert sum(GoingHighs.log) == 0 and threading.active_count() == threads


def radial_instance(draw):
    """A small random feeder (2-6 load nodes, 1-4 heat pumps) and an
    (S, T) price stack.  The ratings always carry the heat pumps and may
    force fixed load to shed.  Half the feeders have high-r lines, on
    which the fixed load can pull a voltage to its bound, so the model
    keeps every line and voltage row; on the others it contracts the
    lines that cannot bind."""
    seed = draw(st.integers(0, 2**31 - 1), label="seed")
    rng = np.random.default_rng(seed)
    n_nodes = draw(st.integers(2, 6), label="nodes")
    n_hp = draw(st.integers(1, 4), label="heat pumps")
    T = draw(st.sampled_from([4, 12, 24]), label="T")
    high_r = draw(st.booleans(), label="high r")
    slf = rng.uniform(0.4, 1.0, T)
    series = GridTimeSeries(slf=slf, cf=rng.uniform(0.0, 0.5, T), rar=0.05)
    t_out = rng.uniform(-4.0, 12.0, T)
    ancestor = {i: int(rng.integers(0, i)) for i in range(1, n_nodes + 1)}
    buildings = [
        BuildingParams(id=f"h{k}", r_th=rng.uniform(4, 8), c_th=rng.uniform(8, 16),
                       p_hp_rated=rng.uniform(2.0, 4.0), p_pv_rated=rng.uniform(0.0, 3.0),
                       has_hp=True)
        for k in range(n_hp)
    ]
    alloc = {b.id: int(rng.integers(1, n_nodes + 1)) for b in buildings}
    hp_below, pv_below = np.zeros(n_nodes + 1), np.zeros(n_nodes + 1)
    for b in buildings:
        hp_below[alloc[b.id]] += b.p_hp_rated
        pv_below[alloc[b.id]] += b.p_pv_rated
    # the fixed load always covers the heat pumps' own baseline draw
    cap = hp_below / slf.min() + rng.uniform(5.0, 20.0, n_nodes + 1)
    cap[0] = 0.0
    cap_below = cap.copy()
    for i in range(n_nodes, 0, -1):  # descendants carry the larger ids
        hp_below[ancestor[i]] += hp_below[i]
        pv_below[ancestor[i]] += pv_below[i]
        cap_below[ancestor[i]] += cap_below[i]
    s_base = 100.0

    def resistance(i):
        if not high_r:
            return rng.uniform(0.001, 0.005)
        # summed over any path, 2 r P stays below 0.04 pu^2 for the heat
        # pumps' and the PV's active power alone, so shedding fixed load
        # always restores the voltage band (x <= 0.003 adds < 0.01)
        alone = max(1.05 * hp_below[i], pv_below[i], 1.0) / s_base
        return rng.uniform(0.05, 1.0) * 0.02 / (n_nodes * alone)

    def rating(i):
        # room for every heat pump downstream at full power, the reactive
        # draw, and a random share of the fixed load, inside the octagon
        need = 1.05 * hp_below[i] + (0.05 + rng.uniform(0.2, 1.5)) * cap_below[i]
        return need / s_base / math.cos(math.pi / 8)

    nodes = {0: Node(id=0, ancestor_id=None, is_substation=True,
                     s_rating_kva=rating(0) * s_base)}
    lines = []
    for i in range(1, n_nodes + 1):
        nodes[i] = Node(id=i, ancestor_id=ancestor[i], p_cap_kw=float(cap[i]))
        lines.append(Line(from_id=i, to_id=ancestor[i], r_pu=resistance(i),
                          x_pu=rng.uniform(0.0, 0.003), s_rating_pu=rating(i)))
    net = RadialNetwork(nodes=nodes, lines=lines, s_base_kva=s_base)
    S = draw(st.integers(1, 6), label="S")
    prices = rng.uniform(5.0, 200.0, (S, T))
    for _ in range(draw(st.integers(0, S - 1), label="repeats")):
        prices[rng.integers(1, S)] = prices[rng.integers(0, S)]
    model = OpfModel(net, buildings, alloc, CFG, t_out, series)
    return model, prices


radial_instances = st.composite(radial_instance)


@settings(max_examples=30, deadline=None)
@given(radial_instances())
def test_sweep_matches_cold_solves_on_random_feeders(instance):
    """Every swept row, the baseline pinned, and one heat pump's baseline
    pinned alone cost what a cold linprog solve of the full LP costs;
    every swept row, pinned, passes the independent re-check and meets
    every facet."""
    model, prices = instance
    for p, x, objective in zip(prices, *model.solve_rows(prices)):
        check_swept_row(model, p, x, objective, rtol=1e-9)
    base = by_id(model, model.baseline)
    one = dict([next(iter(base.items()))])  # the other heat pumps stay free
    for pins in (base, one):
        pinned = model.solve(prices[0], hp_fixed=pins)
        ref = full_lp_objective(model, prices[0], hp_fixed=pins)
        assert abs(pinned.objective_eur - ref) <= 1e-9 * max(1.0, abs(ref))


def test_sweep_reruns_a_row_its_warm_start_leaves_short_of_optimal():
    """On this high-r feeder the model's LP swept over all six rows in
    one chain, equal rows included, leaves the sixth row, warm from the
    fifth's basis, outside the dual tolerance; run again from scratch it
    is optimal, and every row still checks out.  `solve_rows` sweeps
    only the four distinct rows, in two chains, and checks out too."""
    drawn = {"seed": 256, "nodes": 4, "heat pumps": 4, "T": 12, "high r": True,
             "S": 6, "repeats": 4}
    model, prices = radial_instance(lambda strategy, label: drawn[label])
    X, objective, _ = model._lp.solve(model._costs(prices))
    assert model._lp.runs == len(prices) + 1
    for p, x, obj in zip(prices, X[:, model._power], objective):
        check_swept_row(model, p, x, obj, rtol=1e-9)
    for p, x, obj in zip(prices, *model.solve_rows(prices)):
        check_swept_row(model, p, x, obj, rtol=1e-9)


@settings(max_examples=30, deadline=None)
@given(radial_instances())
def test_every_solution_meets_every_facet(instance):
    """The facets the model leaves out hold anyway: one-shot and pinned
    solutions all stay inside every polygon (swept rows are pinned in
    test_sweep_matches_cold_solves_on_random_feeders)."""
    model, prices = instance
    sols = [model.solve(p) for p in prices]
    for sol in sols + [model.solve(prices[0], hp_fixed=by_id(model, model.baseline))]:
        assert facet_excess(model, sol) <= 1e-7
