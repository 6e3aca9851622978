"""Network dispatch against hand-computed LinDistFlow and geometry oracles."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from flexbid.errors import (
    CycleDetected,
    DanglingReference,
    DisconnectedNode,
    GridMismatch,
    Infeasible,
    MultipleAncestors,
)
from flexbid.grid import (
    GridTimeSeries,
    Line,
    Node,
    OpfModel,
    RadialNetwork,
    allocate_buildings,
    validate_radial,
    verify_solution,
)
from flexbid.thermal import BuildingParams, ComfortConfig, DispatchModel

T4 = ComfortConfig(horizon=4)
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
    model = OpfModel(two_bus(), [], {}, T4, np.zeros(4), flat_series())
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
    model = OpfModel(net, [], {}, T4, np.zeros(4), flat_series())
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
    model = OpfModel(two_bus(x_pu=0.02), [], {}, T4, np.zeros(4), flat_series(rar=0.05))
    sol = model.solve(np.full(4, 50.0))
    assert sol.flow_q_pu[0] == pytest.approx(0.05 * 0.5, abs=1e-9)
    assert sol.u_pu2[0] == pytest.approx(1.0 - 2 * (0.01 * 0.5 + 0.02 * 0.025), abs=1e-9)


# ----------------------------------------------------------- overload/shed

def test_overload_sheds_exactly_the_excess():
    # demand 0.5 pu against a 0.4 pu line: a polygon vertex sits on the
    # P axis, so active-only flow uses the full rating and 0.1 pu sheds
    model = OpfModel(two_bus(rating_pu=0.4), [], {}, T4, np.zeros(4), flat_series())
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
    model = OpfModel(two_bus(rating_pu=s), [], {}, T4, np.zeros(4), flat_series(rar=rar))
    sol = model.solve(np.full(4, 50.0))
    assert np.allclose(sol.flow_q_pu[0], rar * demand, atol=1e-9)
    assert np.allclose(sol.flow_p_pu[0], served, atol=1e-9)
    assert np.allclose(sol.shed_kw[0] / 1000.0, demand - served, atol=1e-6)


def test_more_facets_shed_less():
    sheds = []
    for facets in (4, 8, 16):
        model = OpfModel(
            two_bus(rating_pu=0.4), [], {}, T4, np.zeros(4),
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
    model = OpfModel(net, [], {}, T4, np.zeros(4), flat_series())
    sol = model.solve(np.full(4, 50.0))
    assert np.allclose(sol.pcc_p_pu, 0.3, atol=1e-9)
    assert np.allclose(sol.shed_kw[0] / 1000.0, 0.2, atol=1e-6)
    assert np.allclose(sol.pcc_mw, 1000.0 * 0.3 / 1000.0, atol=1e-9)


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
        OpfModel(net, [], {}, T4, np.zeros(4), flat_series())


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
CFG24 = ComfortConfig()


def test_generous_grid_reproduces_pricefollowing_dispatch():
    # with slack everywhere the network adds nothing: the heat-pump part
    # of the objective equals the stand-alone building dispatch costs
    net, buildings, alloc = feeder_with_hp(rating_scale=10.0)
    t_out = np.full(24, 2.0)
    series = GridTimeSeries(slf=np.full(24, 0.6), cf=np.zeros(24), rar=0.05)
    sol = OpfModel(net, buildings, alloc, CFG24, t_out, series).solve(PRICES24)
    standalone = 0.0
    for b in buildings:
        standalone += DispatchModel(b, CFG24, t_out).solve(PRICES24).cost
    assert sol.shed_kwh == 0.0
    assert sol.hp_cost_eur == pytest.approx(standalone, abs=1e-6)


def test_tight_grid_costs_at_least_as_much():
    net, buildings, alloc = feeder_with_hp()
    t_out = np.full(24, 2.0)
    series = GridTimeSeries(slf=np.full(24, 0.6), cf=np.zeros(24), rar=0.05)
    tight = OpfModel(net, buildings, alloc, CFG24, t_out, series).solve(PRICES24)
    roomy = OpfModel(
        *feeder_with_hp(rating_scale=10.0)[:1], buildings, alloc, CFG24, t_out, series,
    ).solve(PRICES24)
    assert tight.objective_eur >= roomy.objective_eur - 1e-9


def test_baseline_solution_dominates_optimal():
    net, buildings, alloc = feeder_with_hp()
    t_out = np.full(24, 2.0)
    series = GridTimeSeries(slf=np.full(24, 0.6), cf=np.zeros(24), rar=0.05)
    model = OpfModel(net, buildings, alloc, CFG24, t_out, series)
    rng = np.random.default_rng(11)
    for _ in range(3):
        prices = rng.uniform(20.0, 140.0, size=24)
        free = model.solve(prices)
        pinned = model.baseline_solution(prices)
        assert free.objective_eur <= pinned.objective_eur + 1e-7
        assert verify_solution(model, free) == []
        assert verify_solution(model, pinned) == []
        for b in buildings:
            assert np.allclose(pinned.hp_kw[b.id], model.base_kw[b.id], atol=1e-9)


def test_hp_fixed_pins_the_schedules():
    net, buildings, alloc = feeder_with_hp(rating_scale=10.0)
    t_out = np.full(24, 2.0)
    series = GridTimeSeries(slf=np.full(24, 0.6), cf=np.zeros(24), rar=0.05)
    model = OpfModel(net, buildings, alloc, CFG24, t_out, series)
    free = model.solve(PRICES24)
    # halfway between baseline and optimum: feasible by convexity and
    # energy-preserving, so pinning it must be accepted verbatim
    award = {
        b.id: 0.5 * model.base_kw[b.id] + 0.5 * free.hp_kw[b.id] for b in buildings
    }
    sol = model.solve(PRICES24, hp_fixed=award)
    for b in buildings:
        assert np.allclose(sol.hp_kw[b.id], award[b.id], atol=1e-7)
    assert sol.objective_eur >= free.objective_eur - 1e-7
    assert sol.objective_eur <= model.baseline_solution(PRICES24).objective_eur + 1e-7


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
        OpfModel(net, [hp_building()], {"h1": 1}, CFG24, np.full(24, -5.0),
                 GridTimeSeries(slf=np.full(24, 0.6), cf=np.zeros(24), rar=0.05))


def test_verify_solution_flags_tampering():
    net, buildings, alloc = feeder_with_hp()
    t_out = np.full(24, 2.0)
    series = GridTimeSeries(slf=np.full(24, 0.6), cf=np.zeros(24), rar=0.05)
    model = OpfModel(net, buildings, alloc, CFG24, t_out, series)
    sol = model.solve(PRICES24)
    assert verify_solution(model, sol) == []
    warped = dataclasses.replace(sol, u_pu2=sol.u_pu2 + 0.1)
    assert any("voltage" in msg for msg in verify_solution(model, warped))
    overfull = dataclasses.replace(sol, flow_p_pu=sol.flow_p_pu * 3.0)
    assert verify_solution(model, overfull) != []


def test_verify_solution_rechecks_comfort_and_energy():
    # a schedule that idles through the morning and doubles up in the
    # afternoon: feasible in a 15..25 band, far below 19 degrees at noon
    net, buildings, alloc = feeder_with_hp(rating_scale=10.0)
    t_out = np.full(24, 2.0)
    series = GridTimeSeries(slf=np.full(24, 0.6), cf=np.zeros(24), rar=0.05)
    wide = OpfModel(net, buildings, alloc, ComfortConfig(t_min=15.0, t_max=25.0),
                    t_out, series)
    narrow = OpfModel(net, buildings, alloc, CFG24, t_out, series)
    shifted = {bid: np.r_[np.zeros(12), 2.0 * base[12:]] for bid, base in wide.base_kw.items()}
    sol = wide.solve(PRICES24, hp_fixed=shifted)
    assert verify_solution(wide, sol) == []
    issues = verify_solution(narrow, sol)
    for b in buildings:
        assert any(msg.startswith(f"building {b.id}: temperature") and "below t_min" in msg
                   for msg in issues)
    short = dataclasses.replace(sol, hp_kw={**sol.hp_kw, "h2": 0.9 * sol.hp_kw["h2"]})
    assert any(msg.startswith("building h2: energy") for msg in verify_solution(wide, short))


def test_objective_decomposes_into_parts():
    net, buildings, alloc = feeder_with_hp()
    t_out = np.full(24, 2.0)
    series = GridTimeSeries(slf=np.full(24, 0.6), cf=np.zeros(24), rar=0.05)
    sol = OpfModel(net, buildings, alloc, CFG24, t_out, series).solve(PRICES24)
    recomposed = sol.hp_cost_eur + sol.fixed_cost_eur + 10000.0 * sol.shed_kwh / 1000.0
    assert sol.objective_eur == pytest.approx(recomposed, rel=1e-9)


# ------------------------------------------------- warm-started price sweep

def sweep_model(rating_scale=1.0):
    net, buildings, alloc = feeder_with_hp(rating_scale)
    series = GridTimeSeries(slf=np.full(24, 0.6), cf=np.zeros(24), rar=0.05)
    return OpfModel(net, buildings, alloc, CFG24, np.full(24, 2.0), series)


def linprog_objective(model, prices):
    """The model's own LP at one price row, solved cold by linprog: an
    independent reference for the warm-started sweep."""
    eq = model.row_lo == model.row_hi
    cost = model.cost.copy()
    cost[model.import_cols] = model.cfg.dt * prices * model.net.s_base_kva / 1000.0
    res = linprog(cost, A_ub=model.A[~eq], b_ub=model.row_hi[~eq],
                  A_eq=model.A[eq], b_eq=model.row_hi[eq],
                  bounds=np.column_stack([model.col_lo, model.col_hi]), method="highs")
    assert res.success, res.message
    return res.fun


def test_sweep_rows_match_one_shot_solves():
    model = sweep_model()
    rows = np.random.default_rng(5).uniform(20.0, 140.0, size=(6, 24))
    sols = model.solve_rows(rows)
    assert len(sols) == len(rows)
    for prices, sol in zip(rows, sols):
        assert sol.objective_eur == pytest.approx(linprog_objective(model, prices), rel=1e-9)
        assert verify_solution(model, sol) == []


def test_one_row_sweep_is_the_one_shot_solve():
    model = sweep_model()
    (sol,) = model.solve_rows(PRICES24[None, :])
    ref = model.solve(PRICES24)
    assert sol.objective_eur == ref.objective_eur
    for bid, sched in ref.hp_kw.items():
        assert np.array_equal(sol.hp_kw[bid], sched)


def test_sweep_reuses_the_point_of_a_repeated_basis():
    # the third row returns to the first row's prices along a warm path;
    # its optimal basis repeats, so its schedules repeat byte for byte
    model = sweep_model()
    p0, p1 = PRICES24, PRICES24[::-1].copy()
    s0, s1, s2 = model.solve_rows(np.array([p0, p1, p0]))
    assert any(not np.allclose(s0.hp_kw[b], s1.hp_kw[b]) for b in s0.hp_kw)
    for bid in s0.hp_kw:
        assert s2.hp_kw[bid].tobytes() == s0.hp_kw[bid].tobytes()


def test_sweep_rejects_a_bare_price_vector():
    with pytest.raises(ValueError):
        sweep_model().solve_rows(PRICES24)
    with pytest.raises(ValueError):
        sweep_model().solve_rows(np.ones((2, 23)))


@pytest.mark.parametrize("solve", [
    pytest.param(lambda model, p: model.solve(p), id="solve"),
    pytest.param(lambda model, p: model.solve_rows(p[None, :]), id="solve_rows"),
])
def test_energy_beyond_the_substation_rating_is_infeasible(solve):
    # at 1 % of the ratings the feeder cannot deliver the heat pumps'
    # daily energy, and heat-pump load is never shed
    model = sweep_model(rating_scale=0.01)
    with pytest.raises(Infeasible):
        solve(model, PRICES24)


@st.composite
def radial_instances(draw):
    """A small random feeder (2-6 load nodes, 1-4 heat pumps) and an
    (S, T) price stack.  The ratings always carry the heat pumps and may
    force fixed load to shed."""
    seed = draw(st.integers(0, 2**31 - 1), label="seed")
    rng = np.random.default_rng(seed)
    n_nodes = draw(st.integers(2, 6), label="nodes")
    n_hp = draw(st.integers(1, 4), label="heat pumps")
    T = draw(st.sampled_from([4, 12, 24]), label="T")
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
    hp_below = np.zeros(n_nodes + 1)
    for b in buildings:
        hp_below[alloc[b.id]] += b.p_hp_rated
    # the fixed load always covers the heat pumps' own baseline draw
    cap = hp_below / slf.min() + rng.uniform(5.0, 20.0, n_nodes + 1)
    cap[0] = 0.0
    cap_below = cap.copy()
    for i in range(n_nodes, 0, -1):  # descendants carry the larger ids
        hp_below[ancestor[i]] += hp_below[i]
        cap_below[ancestor[i]] += cap_below[i]
    s_base = 100.0

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
        lines.append(Line(from_id=i, to_id=ancestor[i], r_pu=rng.uniform(0.001, 0.005),
                          x_pu=rng.uniform(0.0, 0.003), s_rating_pu=rating(i)))
    net = RadialNetwork(nodes=nodes, lines=lines, s_base_kva=s_base)
    S = draw(st.integers(1, 6), label="S")
    prices = rng.uniform(5.0, 200.0, (S, T))
    for _ in range(draw(st.integers(0, S - 1), label="repeats")):
        prices[rng.integers(1, S)] = prices[rng.integers(0, S)]
    model = OpfModel(net, buildings, alloc, ComfortConfig(horizon=T), t_out, series)
    return model, prices


@settings(max_examples=30, deadline=None)
@given(radial_instances())
def test_sweep_matches_cold_solves_on_random_feeders(instance):
    """Every swept row costs what a cold linprog solve costs, and passes
    the independent re-check."""
    model, prices = instance
    for p, sol in zip(prices, model.solve_rows(prices)):
        ref = linprog_objective(model, p)
        assert abs(sol.objective_eur - ref) <= 1e-9 * max(1.0, abs(ref))
        assert verify_solution(model, sol) == []
