"""Exclusive-group assembly, pricing, the ledger, and disaggregation."""

from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flexbid.bidding import (
    BlockBid,
    ExclusiveGroup,
    build_exclusive_group,
    disaggregate,
    read_bids,
    write_bids,
)
from flexbid.errors import AlphaOutOfRange, EmptyInput, SchemaError, TooManyBids
from flexbid.thermal import (
    BuildingParams,
    ComfortConfig,
    DispatchModel,
    baseline_profile,
    check_dispatch,
)

T = 4
TRUTHFUL = 10000.0  # EUR/MWh, the value of served load
CAP = 4000.0  # EUR/MWh, the exchange's maximum admissible bid price


def scenario(*per_resource):
    """One scenario's (R, T) kW schedules, resources named r1, r2, ..."""
    return np.array(per_resource, dtype=float)


def group_of(scenarios, price=TRUTHFUL, max_bids=24):
    """build_exclusive_group over the (S, R, T) stack of scenarios, hourly steps."""
    return build_exclusive_group(np.array(scenarios, dtype=float), price, max_bids, 1.0)


def test_aggregation_sums_and_converts_to_mw():
    # R=2: [1,0,...] kW and [0,1,...] kW -> [0.001, 0.001, ...] MW
    group, ledger = group_of([scenario([1, 0, 0, 0], [0, 1, 0, 0])])
    np.testing.assert_allclose(group.bids[0].profile, [0.001, 0.001, 0.0, 0.0])
    assert ledger.schedules_kw.shape == (1, 2, T)


def test_identical_aggregates_merge_into_one_bid():
    s1 = scenario([1, 0, 1, 0], [1, 1, 0, 0])  # aggregate [2,1,1,0]
    s2 = scenario([0, 1, 1, 0], [2, 0, 0, 0])  # same aggregate, different split
    group, ledger = group_of([s1, s2])
    assert len(group.bids) == 1
    assert ledger.bid_scenarios == [[1 - 1, 1]]  # both scenarios behind bid 0
    # merged bid executes with the lowest contributing scenario's schedules
    np.testing.assert_array_equal(disaggregate(ledger, np.ones(1))[0], [1, 0, 1, 0])


def test_mabp_prices_every_bid_at_cap_times_its_energy():
    # 10 kWh = 0.01 MWh at 4000 EUR/MWh -> 40 EUR; 9 kWh -> 36 EUR
    s1 = scenario([2, 2, 2, 0], [1, 1, 1, 1])  # energies 6 + 4 = 10 kWh
    s2 = scenario([0, 2, 2, 2], [1, 1, 1, 0])  # energies 6 + 3 = 9 kWh
    group, _ = group_of([s1, s2], CAP)
    assert [b.price for b in group.bids] == [pytest.approx(40.0), pytest.approx(36.0)]


def test_truthful_price_is_voll_times_energy_and_constant():
    s1 = scenario([2, 2, 2, 0], [1, 1, 1, 1])
    s2 = scenario([0, 2, 2, 2], [1, 1, 1, 1])
    group, _ = group_of([s1, s2], TRUTHFUL)
    # VoLL 10000 EUR/MWh * 1 h * 0.01 MW-sum = 100 EUR, identical across bids
    assert [b.price for b in group.bids] == [pytest.approx(100.0)] * 2


def test_too_many_distinct_profiles_raises():
    scenarios = [scenario([i + 1, 0, 0, 0]) for i in range(5)]
    with pytest.raises(TooManyBids):
        group_of(scenarios, max_bids=4)
    # but duplicates do not count against the cap
    scenarios[-1] = scenario([1, 0, 0, 0])
    group, _ = group_of(scenarios, max_bids=4)
    assert len(group.bids) == 4


def test_empty_inputs_raise():
    with pytest.raises(EmptyInput):
        group_of(np.zeros((0, 1, T)))
    with pytest.raises(EmptyInput):
        group_of(np.zeros((1, 0, T)))


@pytest.mark.parametrize("price", [0.0, -4000.0, float("nan"), float("inf")])
def test_a_price_that_is_not_finite_and_positive_raises(price):
    with pytest.raises(ValueError, match="bid price must be finite and > 0"):
        group_of([scenario([1, 0, 0, 0])], price)


def test_group_is_deterministic():
    scenarios = [scenario([1, 2, 0, 0], [0, 1, 1, 0]),
                 scenario([2, 1, 0, 0], [1, 0, 1, 0])]
    g1, _ = group_of(scenarios)
    g2, _ = group_of(scenarios)
    assert len(g1.bids) == len(g2.bids)
    for a, b in zip(g1.bids, g2.bids):
        np.testing.assert_array_equal(a.profile, b.profile)
        assert a.price == b.price


def test_exclusive_group_validates_its_size():
    bid = BlockBid(profile=np.zeros(T), price=0.0)
    with pytest.raises(EmptyInput):
        ExclusiveGroup(bids=[], max_bids=24)
    with pytest.raises(TooManyBids):
        ExclusiveGroup(bids=[bid] * 25, max_bids=24)


# --------------------------------------------------------- disaggregation

@pytest.fixture()
def three_bid_ledger():
    scenarios = [
        scenario([1, 0, 0, 0], [0, 0, 2, 0]),
        scenario([0, 1, 0, 0], [0, 0, 0, 2]),
        scenario([1, 1, 0, 0], [2, 0, 0, 0]),
    ]
    return group_of(scenarios)


def test_full_acceptance_returns_scenario_verbatim(three_bid_ledger):
    _, ledger = three_bid_ledger
    out = disaggregate(ledger, np.array([0.0, 1.0, 0.0]))
    assert out.shape == (2, T)
    np.testing.assert_array_equal(out[0], [0, 1, 0, 0])
    np.testing.assert_array_equal(out[1], [0, 0, 0, 2])


def test_half_half_acceptance_averages(three_bid_ledger):
    _, ledger = three_bid_ledger
    out = disaggregate(ledger, np.array([0.5, 0.5, 0.0]))
    np.testing.assert_allclose(out[0], [0.5, 0.5, 0, 0])
    np.testing.assert_allclose(out[1], [0, 0, 1, 1])


def test_zero_acceptance_gives_zero_schedules(three_bid_ledger):
    _, ledger = three_bid_ledger
    out = disaggregate(ledger, np.zeros(3))
    for sched in out:
        assert np.all(sched == 0.0)


def test_disaggregation_matches_accepted_aggregate(three_bid_ledger):
    group, ledger = three_bid_ledger
    alpha = np.array([0.25, 0.0, 0.7])
    out = disaggregate(ledger, alpha)
    total_mw = out.sum(axis=0) / 1000.0
    expect = sum(a * b.profile for a, b in zip(alpha, group.bids))
    np.testing.assert_allclose(total_mw, expect, atol=1e-9)


def test_alpha_validation(three_bid_ledger):
    _, ledger = three_bid_ledger
    for bad in ([1.0, 0.0], [0.5, 0.6, 0.2], [-0.1, 0.0, 0.0], [0.0, 1.2, 0.0]):
        with pytest.raises(AlphaOutOfRange):
            disaggregate(ledger, np.array(bad))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_array_bidding_path_property(data):
    """Random (S, R, T) stacks with planted duplicate scenarios: one bid
    per distinct aggregate, bid_scenarios partitions the scenarios, and
    each bid disaggregates back onto its own profile."""
    S = data.draw(st.integers(1, 24), label="S")
    R = data.draw(st.integers(1, 8), label="R")
    horizon = data.draw(st.integers(2, 24), label="T")
    seed = data.draw(st.integers(0, 2**31 - 1), label="seed")
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, 5.0, (S, R, horizon)) * (rng.uniform(size=(S, R, horizon)) < 0.8)
    for s in range(1, S):
        if rng.uniform() < 0.4:
            X[s] = X[rng.integers(0, s)]
    group, ledger = group_of(X)

    aggregates = np.zeros((S, horizon))
    for r in range(R):
        aggregates += X[:, r]
    assert len(group.bids) == len(np.unique(aggregates / 1000.0, axis=0))

    flat = [s for scenarios in ledger.bid_scenarios for s in scenarios]
    assert sorted(flat) == list(range(S))
    assert all(sc == sorted(sc) for sc in ledger.bid_scenarios)
    firsts = [sc[0] for sc in ledger.bid_scenarios]
    assert firsts == sorted(firsts)

    for j, bid in enumerate(group.bids):
        alpha = np.zeros(len(group.bids))
        alpha[j] = 1.0
        out = disaggregate(ledger, alpha)
        assert out.shape == (R, horizon)
        assert np.abs(out.sum(axis=0) - 1000.0 * bid.profile).max() <= 1e-9


def test_disaggregated_schedules_respect_building_constraints():
    """End-to-end: dispatch two buildings over scenarios, accept a bid
    partially, and re-check every constraint on the award."""
    cfg = ComfortConfig()
    rng = np.random.default_rng(21)
    t_out = rng.uniform(-3.0, 12.0, 24)
    buildings = [
        BuildingParams(id=f"b{i}", r_th=rng.uniform(4, 8), c_th=rng.uniform(8, 16),
                       p_hp_rated=3.0, p_pv_rated=0.0, position=(0, 0), has_hp=True)
        for i in range(2)
    ]
    X, _ = DispatchModel(buildings, cfg, t_out).solve(rng.uniform(20, 140, (4, 24)))
    group, ledger = build_exclusive_group(X, TRUTHFUL, 24, cfg.dt)
    alpha = np.zeros(len(group.bids))
    alpha[0] = 1.0
    awarded = disaggregate(ledger, alpha)
    for b, sched in zip(buildings, awarded):
        base = baseline_profile(b, cfg, t_out)
        assert check_dispatch(b, cfg, t_out, sched, base.energy) == []


# ------------------------------------------------------------- bids.json

def test_bids_json_round_trip(tmp_path):
    scenarios = [scenario([1, 2, 0, 0], [0, 1, 1, 0]),
                 scenario([2, 1, 0, 0], [1, 0, 1, 0])]
    group, _ = group_of(scenarios, CAP)
    path = tmp_path / "bids.json"
    write_bids(path, group, date(2025, 1, 15), "mabp")
    loaded, header = read_bids(path)
    assert header == {"day": "2025-01-15", "max_bids": 24, "pricing_mode": "mabp"}
    assert len(loaded.bids) == len(group.bids)
    for a, b in zip(loaded.bids, group.bids):
        np.testing.assert_allclose(a.profile, b.profile, atol=1e-12)
        assert a.price == pytest.approx(b.price, abs=1e-12)


BIDS_JSON = ('{"day": "2025-01-15", "max_bids": 4, "pricing_mode": "mabp",\n'
             ' "bids": [{"profile_mw": [0.1, 0.2], "price_eur": 4000.0}]}\n')


# ExclusiveGroup's own errors keep their type when read_bids prefixes the path
GROUP_ERRORS = {"exclusive group holds 5 bids, cap is 4": TooManyBids,
                "exclusive group needs at least one bid": EmptyInput}


@pytest.mark.parametrize("edit, message", [
    (lambda text: text.replace('"mabp",', '"mabp"'), "bids.json:2: not valid JSON"),
    (lambda text: text.replace('"max_bids": 4, ', ""), "missing key 'max_bids'"),
    (lambda text: text.replace('"price_eur"', '"price"'), "missing key 'price_eur'"),
    (lambda text: "[]", "expected an object"),
    (lambda text: text.replace("4000.0", "NaN"), "bid 0: price_eur and profile_mw"),
    (lambda text: text.replace("0.2", "Infinity"), "bid 0: price_eur and profile_mw"),
    (lambda text: text.replace("[0.1, 0.2]", '"0.1"'), "bid 0: price_eur and profile_mw"),
    (lambda text: text.replace('"max_bids": 4', '"max_bids": 2.5'), "max_bids 2.5"),
    # the exchange caps a group at MAX_BIDS = 24 bids, whatever the file says
    (lambda text: text.replace('"max_bids": 4', '"max_bids": 0'), "max_bids 0 is not"),
    (lambda text: text.replace('"max_bids": 4', '"max_bids": -1'), "max_bids -1 is not"),
    (lambda text: text.replace('"max_bids": 4', '"max_bids": 25'), "max_bids 25 is not"),
    (lambda text: text.replace('"max_bids": 4', '"max_bids": 30'), "max_bids 30 is not"),
    (lambda text: text.replace('"2025-01-15"', "15"), "day 15 is not an ISO date"),
    # ExclusiveGroup's own checks: more bids than the header's max_bids, or none
    (lambda text: text.replace("4000.0}", "4000.0}" + ', {"profile_mw": [0.1, 0.2], "price_eur": 4000.0}' * 4),
     "exclusive group holds 5 bids, cap is 4"),
    (lambda text: text.replace('[{"profile_mw": [0.1, 0.2], "price_eur": 4000.0}]', "[]"),
     "exclusive group needs at least one bid"),
])
def test_malformed_bids_json_fails_naming_the_file(tmp_path, edit, message):
    """A file without max_bids used to end `flexbid clear` in a KeyError
    traceback, and a NaN price cleared as if no bid were accepted."""
    path = tmp_path / "bids.json"
    path.write_text(BIDS_JSON)
    assert read_bids(path)[0].bids[0].price == 4000.0  # the unedited file reads
    path.write_text(edit(BIDS_JSON))
    with pytest.raises(GROUP_ERRORS.get(message, SchemaError), match="bids.json") as err:
        read_bids(path)
    assert message in str(err.value)
