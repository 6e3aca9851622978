"""Scenario matrix construction and the persistence forecaster."""

import warnings
from datetime import date, timedelta

import numpy as np
import pytest

from flexbid.errors import InsufficientHistory
from flexbid.scenarios import PriceSeries, generate_scenarios, naive_forecast

T = 24
D0 = date(2025, 3, 10)  # a Monday


def series(days, realized=None, forecast=None):
    """PriceSeries over consecutive days starting at D0 - len(days)."""
    realized = realized or {}
    forecast = forecast or {}
    return PriceSeries(realized=realized, forecast=forecast)


def flat(v):
    return np.full(T, float(v))


def test_single_scenario_is_the_point_forecast():
    hist = PriceSeries(realized={}, forecast={D0: flat(50.0)})
    scen = generate_scenarios(D0, 1, hist)
    assert scen.shape == (1, T)
    np.testing.assert_array_equal(scen[0], flat(50.0))


def test_hand_worked_residual_row():
    # forecast 50; yesterday forecast 40 realized 45 -> residual -5 -> row 55
    prev = D0 - timedelta(days=1)
    hist = PriceSeries(
        realized={prev: flat(45.0)},
        forecast={prev: flat(40.0), D0: flat(50.0)},
    )
    scen = generate_scenarios(D0, 2, hist)
    np.testing.assert_allclose(scen[1], flat(55.0))


def test_perfect_history_collapses_all_rows():
    days = [D0 - timedelta(days=k) for k in range(1, 6)]
    realized = {d: flat(40 + i) for i, d in enumerate(days)}
    hist = PriceSeries(
        realized=realized,
        forecast={**realized, D0: flat(77.0)},
    )
    scen = generate_scenarios(D0, 6, hist)
    assert np.allclose(scen, 77.0)


def test_rows_reconstruct_from_residuals_newest_first():
    rng = np.random.default_rng(11)
    days = [D0 - timedelta(days=k) for k in range(1, 8)]
    realized = {d: rng.uniform(20, 120, T) for d in days}
    forecast = {d: realized[d] + rng.normal(0, 5, T) for d in days}
    forecast[D0] = rng.uniform(20, 120, T)
    hist = PriceSeries(realized=realized, forecast=forecast)

    scen = generate_scenarios(D0, 8, hist)
    np.testing.assert_array_equal(scen[0], forecast[D0])
    for k, d in enumerate(days):  # days are already newest-first
        np.testing.assert_allclose(
            scen[k + 1], forecast[D0] - (forecast[d] - realized[d]), atol=1e-12,
        )


def test_nested_prefix_property():
    rng = np.random.default_rng(3)
    days = [D0 - timedelta(days=k) for k in range(1, 30)]
    realized = {d: rng.uniform(10, 150, T) for d in days}
    forecast = {d: realized[d] + rng.normal(0, 8, T) for d in days}
    forecast[D0] = rng.uniform(10, 150, T)
    hist = PriceSeries(realized=realized, forecast=forecast)
    full = generate_scenarios(D0, 24, hist)
    for s in (1, 2, 5, 13, 24):
        part = generate_scenarios(D0, s, hist)
        np.testing.assert_array_equal(part, full[:s])


def test_warm_up_duplicates_oldest_residual():
    d1 = D0 - timedelta(days=1)
    d2 = D0 - timedelta(days=2)
    hist = PriceSeries(
        realized={d1: flat(45.0), d2: flat(60.0)},
        forecast={d1: flat(40.0), d2: flat(50.0), D0: flat(50.0)},
    )
    scen = generate_scenarios(D0, 5, hist)
    np.testing.assert_allclose(scen[1], flat(55.0))   # newest residual
    np.testing.assert_allclose(scen[2], flat(60.0))   # oldest
    np.testing.assert_allclose(scen[3], flat(60.0))   # duplicated
    np.testing.assert_allclose(scen[4], flat(60.0))


def test_history_gaps_shrink_lookback_instead_of_breaking():
    # only days d-3 and d-9 carry residuals; both get used
    d3, d9 = D0 - timedelta(days=3), D0 - timedelta(days=9)
    hist = PriceSeries(
        realized={d3: flat(30.0), d9: flat(90.0)},
        forecast={d3: flat(35.0), d9: flat(80.0), D0: flat(50.0)},
    )
    scen = generate_scenarios(D0, 3, hist)
    np.testing.assert_allclose(scen[1], flat(45.0))  # d-3 first
    np.testing.assert_allclose(scen[2], flat(60.0))  # then d-9


def test_missing_forecast_or_history_raises():
    hist = PriceSeries(realized={}, forecast={})
    with pytest.raises(InsufficientHistory):
        generate_scenarios(D0, 1, hist)
    hist = PriceSeries(realized={}, forecast={D0: flat(50.0)})
    with pytest.raises(InsufficientHistory):
        generate_scenarios(D0, 2, hist)


@pytest.mark.parametrize("realized, forecast", [
    (-1e308, 1e308),  # the residual itself overflows
    (0.0, -1e308),  # the residual is finite, the row it shifts is not
])
def test_a_row_past_the_float_range_names_its_history_day(realized, forecast):
    h = D0 - timedelta(days=1)
    hist = PriceSeries(realized={h: flat(realized)}, forecast={h: flat(forecast), D0: flat(1e308)})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InsufficientHistory, match=f"history day {h} leaves the float range"):
            generate_scenarios(D0, 2, hist)


# -------------------------------------------------------- naive forecast

def test_naive_single_prior_day():
    prev = D0 - timedelta(days=1)
    hist = PriceSeries(realized={prev: flat(62.0)}, forecast={})
    np.testing.assert_array_equal(naive_forecast(hist, D0), flat(62.0))


def test_naive_weekday_class_rule():
    # Monday looks back past Sunday to Friday
    friday = D0 - timedelta(days=3)
    sunday = D0 - timedelta(days=1)
    hist = PriceSeries(
        realized={friday: flat(70.0), sunday: flat(30.0)},
        forecast={},
    )
    np.testing.assert_array_equal(naive_forecast(hist, D0), flat(70.0))
    # and a Sunday looks back to Saturday, skipping the Friday
    saturday = D0 - timedelta(days=2)
    hist2 = PriceSeries(
        realized={friday: flat(70.0), saturday: flat(25.0)},
        forecast={},
    )
    np.testing.assert_array_equal(
        naive_forecast(hist2, D0 - timedelta(days=1)), flat(25.0),
    )


def test_naive_constant_history_is_constant():
    days = [D0 - timedelta(days=k) for k in range(1, 9)]
    hist = PriceSeries(realized={d: flat(44.0) for d in days}, forecast={})
    np.testing.assert_array_equal(naive_forecast(hist, D0), flat(44.0))


def test_naive_no_history_raises():
    with pytest.raises(InsufficientHistory):
        naive_forecast(PriceSeries(), D0)
