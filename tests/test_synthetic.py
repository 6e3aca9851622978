"""Synthetic instance generator: determinism, nesting, and stress sizing."""

import dataclasses
from datetime import date

import numpy as np
import pytest

from flexbid.errors import SchemaError
from flexbid.grid import GridTimeSeries, OpfModel, RadialNetwork, allocate_buildings
from flexbid.simulate import CampaignConfig
from flexbid.synthetic import SyntheticSpec, generate_instance
from flexbid.thermal import ComfortConfig, baseline_profile

SMALL = SyntheticSpec(n_buildings=10, hp_share_pct=30.0, n_days=5, seed=11,
                      branching=2, depth=2)


def test_same_seed_same_instance():
    a, b = generate_instance(SMALL), generate_instance(SMALL)
    assert [x.id for x in a.buildings] == [x.id for x in b.buildings]
    for d in a.dates:
        assert np.array_equal(a.realized[d], b.realized[d])
        assert np.array_equal(a.weather[d], b.weather[d])
    assert [ln.s_rating_pu for ln in a.network.lines] == [
        ln.s_rating_pu for ln in b.network.lines
    ]


def test_higher_share_keeps_existing_heat_pumps():
    installed = {}
    for share in (15.0, 30.0, 45.0, 60.0):
        spec = dataclasses.replace(SMALL, n_buildings=20, hp_share_pct=share)
        bundle = generate_instance(spec)
        installed[share] = {b.id for b in bundle.buildings if b.has_hp}
    assert installed[15.0] <= installed[30.0] <= installed[45.0] <= installed[60.0]
    assert len(installed[60.0]) > len(installed[15.0])


def test_share_does_not_move_the_feeder():
    low = generate_instance(dataclasses.replace(SMALL, hp_share_pct=15.0))
    high = generate_instance(dataclasses.replace(SMALL, hp_share_pct=60.0))
    assert [ln.s_rating_pu for ln in low.network.lines] == [
        ln.s_rating_pu for ln in high.network.lines
    ]
    assert low.network.s_base_kva == high.network.s_base_kva


def test_zero_volatility_means_flat_prices():
    bundle = generate_instance(dataclasses.replace(SMALL, volatility=0.0))
    for d in bundle.dates:
        assert np.allclose(bundle.realized[d], 62.0)
        assert np.allclose(bundle.forecast[d], 62.0)


def test_volatility_widens_the_spread():
    quiet = generate_instance(dataclasses.replace(SMALL, volatility=0.5))
    wild = generate_instance(dataclasses.replace(SMALL, volatility=2.0))
    sd = lambda bundle: np.std([bundle.realized[d] for d in bundle.dates])
    assert sd(wild) > 2.0 * sd(quiet)


def test_weekend_prices_sit_below_weekdays():
    spec = dataclasses.replace(SMALL, n_days=28)  # four full weeks
    bundle = generate_instance(spec)
    we = [bundle.realized[d].mean() for d in bundle.dates if d.weekday() >= 5]
    wd = [bundle.realized[d].mean() for d in bundle.dates if d.weekday() < 5]
    assert np.mean(we) < np.mean(wd)


def test_feeder_is_balanced_and_hosts_everyone():
    spec = dataclasses.replace(SMALL, n_buildings=30, branching=3, depth=3)
    bundle = generate_instance(spec)
    net = bundle.network
    load_nodes = [n for n in net.nodes.values() if not n.is_substation]
    assert len(load_nodes) == 9
    # global capacity admits every rated unit, so allocation succeeds
    alloc = allocate_buildings(bundle.buildings, net)
    assert set(alloc) == {b.id for b in bundle.buildings}


def test_heat_pumps_are_rated_above_worst_baseline():
    bundle = generate_instance(dataclasses.replace(SMALL, hp_share_pct=100.0))
    cfg = ComfortConfig()
    for b in bundle.buildings:
        for d in bundle.dates:
            base = baseline_profile(b, cfg, bundle.weather[d])
            assert base.schedule.max() < b.p_hp_rated


def test_spec_validation():
    with pytest.raises(ValueError):
        SyntheticSpec(hp_share_pct=0.0)
    with pytest.raises(ValueError):
        SyntheticSpec(n_days=1)
    with pytest.raises(ValueError):
        SyntheticSpec(volatility=-0.1)
    with pytest.raises(ValueError):
        SyntheticSpec(hp_margin=0.9)
    with pytest.raises(ValueError):
        SyntheticSpec(r_th_range=(8.0, 4.0))


@pytest.mark.parametrize("field", ["volatility", "rating_margin", "hp_margin"])
def test_spec_rejects_non_finite_values_naming_the_field(field):
    # NaN passes every < and <= check; it once wrote a prices.csv of nan cells
    for value in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            SyntheticSpec(**{field: value})


def test_spec_refuses_days_past_the_last_date():
    # the generator once ran into an OverflowError building its dates
    with pytest.raises(ValueError, match="^n_days: 100000000 days from 2025-01-01 run past"):
        SyntheticSpec(n_days=100_000_000)
    last = (date.max - SMALL.start).days + 1
    assert dataclasses.replace(SMALL, n_days=last).n_days == last
    with pytest.raises(ValueError, match="^n_days: "):
        dataclasses.replace(SMALL, n_days=last + 1)


def test_spec_needs_a_building_per_load_node():
    # 3 x 3 = 9 load nodes by default; fewer buildings left a line unloaded
    with pytest.raises(ValueError, match=r"5 buildings cannot cover the 9 load nodes"):
        SyntheticSpec(n_buildings=5)
    bundle = generate_instance(
        dataclasses.replace(SMALL, n_buildings=4, branching=2, depth=2)
    )
    assert len(bundle.buildings) == 4


def test_spec_dict_roundtrip():
    spec = dataclasses.replace(SMALL, volatility=1.5)
    assert SyntheticSpec.from_dict(spec.to_dict()) == spec


@pytest.mark.parametrize("edit, key", [
    # once a bare TypeError and KeyError
    ({"seedz": 1}, "unknown keys: synthetic.seedz"),
    ({"start": None}, "missing key: synthetic.start"),  # None drops the key
    # once accepted, to fail later inside generate_instance
    ({"n_buildings": 12.9}, "synthetic.n_buildings"),
    ({"seed": "3"}, "synthetic.seed"),
    ({"start": "2025-13-01"}, "synthetic.start"),
    ({"r_th_range": [4.0]}, "synthetic.r_th_range"),
    # a whole number no float holds once ended in an OverflowError
    ({"volatility": 10**400}, "synthetic.volatility"),
])
def test_spec_from_dict_refuses_what_to_dict_would_not_write(edit, key):
    raw = {**SMALL.to_dict(), **edit}
    raw = {k: v for k, v in raw.items() if v is not None}
    with pytest.raises(SchemaError, match=key):
        SyntheticSpec.from_dict(raw)


def test_spec_from_dict_types_its_values_like_to_dict():
    spec = SyntheticSpec.from_dict({**SMALL.to_dict(), "r_th_range": [4, 8], "volatility": 2})
    assert spec.r_th_range == (4.0, 8.0) and isinstance(spec.r_th_range[0], float)
    assert isinstance(spec.volatility, float)
    assert spec.to_dict() == {**SMALL.to_dict(), "r_th_range": [4.0, 8.0], "volatility": 2.0}


# ------------------------------------------------- stress calibration

def _grid_premium(bundle, n_days=3):
    """Extra cost the real ratings impose over a copper-plate feeder."""
    alloc = allocate_buildings(bundle.buildings, bundle.network)
    roomy_lines = [
        dataclasses.replace(ln, s_rating_pu=ln.s_rating_pu * 10)
        for ln in bundle.network.lines
    ]
    roomy_nodes = {
        i: (dataclasses.replace(n, s_rating_kva=n.s_rating_kva * 10)
            if n.is_substation else n)
        for i, n in bundle.network.nodes.items()
    }
    copper = RadialNetwork(nodes=roomy_nodes, lines=roomy_lines,
                           s_base_kva=bundle.network.s_base_kva)
    premium = shed = 0.0
    for d in bundle.dates[:n_days]:
        series = GridTimeSeries(slf=bundle.slf[d], cf=bundle.cf[d], rar=CampaignConfig.rar)
        args = (bundle.buildings, alloc, ComfortConfig(), bundle.weather[d], series)
        tight = OpfModel(bundle.network, *args).solve(bundle.realized[d])
        free = OpfModel(copper, *args).solve(bundle.realized[d])
        premium += tight.objective_eur - free.objective_eur
        shed += tight.shed_kwh
    return premium, shed


@pytest.mark.parametrize("seed", [0, 3])
def test_low_share_leaves_the_grid_unconstrained(seed):
    spec = SyntheticSpec(n_buildings=30, hp_share_pct=15.0, n_days=5, seed=seed)
    premium, shed = _grid_premium(generate_instance(spec))
    assert premium == pytest.approx(0.0, abs=1e-6)
    assert shed == 0.0


@pytest.mark.parametrize("seed", [0, 3])
def test_high_share_congests_the_substation(seed):
    spec = SyntheticSpec(n_buildings=30, hp_share_pct=60.0, n_days=5, seed=seed)
    premium, shed = _grid_premium(generate_instance(spec))
    assert premium > 1e-3  # ratings actively reshape the dispatch
    assert shed == 0.0  # stress reschedules heat pumps, never blacks out


def test_rating_margin_knob_relieves_the_stress():
    spec = SyntheticSpec(n_buildings=30, hp_share_pct=60.0, n_days=5, seed=3,
                         rating_margin=2.0)
    premium, _ = _grid_premium(generate_instance(spec))
    assert premium == pytest.approx(0.0, abs=1e-6)
