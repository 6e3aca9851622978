"""File ingestion: schema police, cross-checks, and byte-stable round trips."""

import json
import tempfile
from datetime import date
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flexbid.errors import (
    CycleDetected,
    DanglingReference,
    DisconnectedNode,
    FlexbidError,
    GridMismatch,
    SchemaError,
)
from flexbid.grid import GridTimeSeries, OpfModel
from flexbid.ingest import (
    ingest,
    read_buildings,
    read_network,
    read_prices,
    read_profiles,
    read_weather,
    write_buildings,
    write_network,
    write_prices,
    write_profiles,
    write_weather,
)
from flexbid.synthetic import SyntheticSpec, generate_synthetic
from flexbid.thermal import ComfortConfig

D1, D2 = "2025-01-06", "2025-01-07"


def day_rows(day, value_cols, hours=range(24)):
    return "".join(f"{day},{h},{value_cols}\n" for h in hours)


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


def minimal_files(tmp_path, weather_hours=range(24)):
    b = write(
        tmp_path, "buildings.csv",
        "id,x_m,y_m,r_th_K_per_kW,c_th_kWh_per_K,p_hp_rated_kW,p_pv_rated_kW,has_hp\n"
        "b001,0.00,0.00,5.0,10.0,3.0,0.0,true\n",
    )
    w = write(
        tmp_path, "weather.csv",
        "date,hour,t_out_C\n"
        + day_rows(D1, "2.00", weather_hours) + day_rows(D2, "3.00"),
    )
    p = write(
        tmp_path, "prices.csv",
        "date,hour,realized_eur_mwh,forecast_eur_mwh\n"
        + day_rows(D1, "50.0000,52.0000") + day_rows(D2, "60.0000,59.0000"),
    )
    f = write(
        tmp_path, "profiles.csv",
        "date,hour,slf,cf\n"
        + day_rows(D1, "0.600000,0.000000") + day_rows(D2, "0.650000,0.100000"),
    )
    return b, w, p, f


def test_minimal_bundle_ingests(tmp_path):
    bundle = ingest(*minimal_files(tmp_path))
    assert [b.id for b in bundle.buildings] == ["b001"]
    assert bundle.dates == [date(2025, 1, 6), date(2025, 1, 7)]
    assert bundle.network is None
    assert np.allclose(bundle.realized[date(2025, 1, 6)], 50.0)
    assert np.allclose(bundle.forecast[date(2025, 1, 7)], 59.0)


def test_missing_hour_names_the_date(tmp_path):
    files = minimal_files(tmp_path, weather_hours=[h for h in range(24) if h != 13])
    with pytest.raises(GridMismatch, match=r"2025-01-06.*missing 13"):
        ingest(*files)


def test_duplicate_hour_reports_both_lines(tmp_path):
    write(
        tmp_path, "weather.csv",
        "date,hour,t_out_C\n" + day_rows(D1, "2.00") + f"{D1},5,9.99\n",
    )
    with pytest.raises(SchemaError, match=r"weather.csv:26: duplicate.*first at line 7"):
        read_weather(tmp_path / "weather.csv")


def test_bad_number_points_at_cell(tmp_path):
    write(
        tmp_path, "buildings.csv",
        "id,x_m,y_m,r_th_K_per_kW,c_th_kWh_per_K,p_hp_rated_kW,p_pv_rated_kW,has_hp\n"
        "b001,0.0,0.0,5.0,oops,3.0,0.0,true\n",
    )
    with pytest.raises(SchemaError, match=r"buildings.csv:2: column 'c_th_kWh_per_K'.*'oops'"):
        read_buildings(tmp_path / "buildings.csv")


@pytest.mark.parametrize("name, header, row, line, col, text", [
    ("prices.csv", "date,hour,realized_eur_mwh,forecast_eur_mwh",
     f"{D1},3,inf,52.0", 5, "realized_eur_mwh", "inf"),
    ("prices.csv", "date,hour,realized_eur_mwh,forecast_eur_mwh",
     f"{D1},3,50.0,-inf", 5, "forecast_eur_mwh", "-inf"),
    ("weather.csv", "date,hour,t_out_C", f"{D1},3,nan", 5, "t_out_C", "nan"),
])
def test_non_finite_number_points_at_cell(tmp_path, name, header, row, line, col, text):
    # three good rows after the header put the bad one on line 5
    good = "".join(f"{D1},{h},1.0{',1.0' if name == 'prices.csv' else ''}\n" for h in range(3))
    write(tmp_path, name, f"{header}\n{good}{row}\n")
    reader = read_prices if name == "prices.csv" else read_weather
    with pytest.raises(SchemaError, match=rf"{name}:{line}: column '{col}': not finite: '{text}'"):
        reader(tmp_path / name)


@pytest.mark.parametrize("row, col, text", [
    (f"{D1},3,1e308,52.0", "realized_eur_mwh", "1e308"),
    (f"{D1},3,50.0,-1000000.0001", "forecast_eur_mwh", "-1000000.0001"),
])
def test_a_price_beyond_the_limit_points_at_cell(tmp_path, row, col, text):
    # a finite 1e308 once overflowed a day's residual, spread and costs
    good = "".join(f"{D1},{h},1.0,1.0\n" for h in range(3))
    write(tmp_path, "prices.csv", f"date,hour,realized_eur_mwh,forecast_eur_mwh\n{good}{row}\n")
    with pytest.raises(SchemaError) as err:
        read_prices(tmp_path / "prices.csv")
    assert str(err.value).endswith(f"prices.csv:5: column '{col}': beyond ±1e+06 EUR/MWh: '{text}'")


def test_prices_at_the_limit_roundtrip_byte_identical(tmp_path):
    text = ("date,hour,realized_eur_mwh,forecast_eur_mwh\n"
            + day_rows(D1, "1000000.0000,-1000000.0000"))
    realized, forecast = read_prices(write(tmp_path, "prices.csv", text))
    write_prices(tmp_path / "again.csv", realized, forecast)
    assert (tmp_path / "again.csv").read_bytes() == text.encode()


BUILDINGS_HEADER = "id,x_m,y_m,r_th_K_per_kW,c_th_kWh_per_K,p_hp_rated_kW,p_pv_rated_kW,has_hp"


@pytest.mark.parametrize("name, text, reader, message", [
    # a duplicate hour on line 4, a bad cell on line 5
    ("weather.csv", f"date,hour,t_out_C\n{D1},0,1.0\n{D1},1,1.0\n{D1},0,2.0\n{D1},2,x\n",
     read_weather, "weather.csv:4: duplicate entry for 2025-01-06 hour 0"),
    # a bad cell on line 3, a short row on line 4
    ("prices.csv", f"date,hour,realized_eur_mwh,forecast_eur_mwh\n{D1},0,1.0,1.0\n"
     f"{D1},1,oops,1.0\n{D1},2,1.0\n", read_prices,
     "prices.csv:3: column 'realized_eur_mwh': not a number: 'oops'"),
    # a negative r_th on line 3, a bad cell on line 4
    ("buildings.csv", f"{BUILDINGS_HEADER}\nb001,0,0,5,10,3,0,true\nb002,0,0,-5,10,3,0,true\n"
     "b003,0,0,5,10,3,0,maybe\n", read_buildings,
     "buildings.csv:3: building b002: r_th and c_th must be positive"),
    # two bad cells on line 2: the leftmost is named
    ("profiles.csv", f"date,hour,slf,cf\n{D1},0,2.0,x\n", read_profiles,
     "profiles.csv:2: column 'slf': 2.0 outside [0, 1]"),
], ids=["duplicate-before-bad-cell", "bad-cell-before-short-row", "bad-value-before-bad-cell",
        "two-bad-cells-in-a-line"])
def test_a_file_with_several_faults_fails_on_its_earliest_faulty_line(
        tmp_path, name, text, reader, message):
    with pytest.raises(SchemaError) as err:
        reader(write(tmp_path, name, text))
    assert f"{tmp_path}/{message}" in str(err.value)


def test_wrong_header_is_rejected_up_front(tmp_path):
    write(tmp_path, "weather.csv", "date,hour,temperature\n")
    with pytest.raises(SchemaError, match=r"weather.csv:1: header"):
        read_weather(tmp_path / "weather.csv")


def test_empty_file_is_a_schema_error(tmp_path):
    write(tmp_path, "weather.csv", "")
    with pytest.raises(SchemaError, match="file is empty"):
        read_weather(tmp_path / "weather.csv")


def test_hour_out_of_range(tmp_path):
    write(tmp_path, "weather.csv", "date,hour,t_out_C\n2025-01-06,24,2.0\n")
    with pytest.raises(SchemaError, match=r"column 'hour': 24 outside 0..23"):
        read_weather(tmp_path / "weather.csv")


def test_duplicate_building_id(tmp_path):
    write(
        tmp_path, "buildings.csv",
        "id,x_m,y_m,r_th_K_per_kW,c_th_kWh_per_K,p_hp_rated_kW,p_pv_rated_kW,has_hp\n"
        "b001,0,0,5,10,3,0,true\nb001,1,1,5,10,3,0,false\n",
    )
    with pytest.raises(SchemaError, match=r"duplicate building id 'b001' \(first at line 2\)"):
        read_buildings(tmp_path / "buildings.csv")


def test_date_sets_must_agree(tmp_path):
    b, w, p, f = minimal_files(tmp_path)
    (tmp_path / "prices.csv").write_text(
        "date,hour,realized_eur_mwh,forecast_eur_mwh\n" + day_rows(D1, "50.0,51.0")
    )
    with pytest.raises(GridMismatch, match="present in only one of weather and prices"):
        ingest(b, w, p, f)


def test_slf_outside_unit_interval(tmp_path):
    b, w, p, f = minimal_files(tmp_path)
    (tmp_path / "profiles.csv").write_text(
        "date,hour,slf,cf\n" + day_rows(D1, "1.200000,0.0") + day_rows(D2, "0.6,0.0")
    )
    with pytest.raises(SchemaError, match=r"column 'slf': 1.2 outside"):
        ingest(b, w, p, f)


def test_prices_without_forecast_column(tmp_path):
    write(
        tmp_path, "prices.csv",
        "date,hour,realized_eur_mwh\n" + day_rows(D1, "50.0") + day_rows(D2, "61.5"),
    )
    realized, forecast = read_prices(tmp_path / "prices.csv")
    assert forecast is None
    assert np.allclose(realized[date(2025, 1, 7)], 61.5)


@pytest.mark.parametrize("name, header, reader, read", [
    ("weather.csv", "date,hour,t_out_C", read_weather, {}),
    ("prices.csv", "date,hour,realized_eur_mwh,forecast_eur_mwh", read_prices, ({}, {})),
    ("prices.csv", "date,hour,realized_eur_mwh", read_prices, ({}, None)),
    ("profiles.csv", "date,hour,slf,cf", read_profiles, ({}, {})),
])
def test_a_header_only_hourly_file_reads_as_no_days(tmp_path, name, header, reader, read):
    """The forecast is None only when its column is absent, rows or not."""
    assert reader(write(tmp_path, name, header + "\n")) == read


def hours(value):
    return np.full(24, value)


@pytest.mark.parametrize("write_file, series, message", [
    (write_prices, ({date(2025, 1, 6): hours(50.0), date(2025, 1, 7): hours(60.0)},
                    {date(2025, 1, 6): hours(52.0)}),
     "column 'forecast_eur_mwh' has no values for 2025-01-07"),
    (write_prices, ({date(2025, 1, 6): hours(50.0)},
                    {date(2025, 1, 6): hours(52.0), date(2025, 1, 5): hours(52.0)}),
     "column 'forecast_eur_mwh' has values for 2025-01-05, a date column 'realized_eur_mwh' lacks"),
    (write_weather, ({date(2025, 1, 6): hours(2.0), date(2025, 1, 7): np.full(10, 3.0)},),
     "column 't_out_C': 2025-01-07 has 10 values, not 24"),
    (write_profiles, ({date(2025, 1, 6): hours(0.5)},
                      {date(2025, 1, 6): np.where(np.arange(24) == 9, np.nan, 0.1)}),
     "column 'cf': 2025-01-06 has a value that is not finite"),
    (write_prices, ({date(2025, 1, 6): hours(50.0)},
                    {date(2025, 1, 6): np.where(np.arange(24) == 9, 1e308, 52.0)}),
     "column 'forecast_eur_mwh': 2025-01-06 has a value that is not finite or beyond ±1e+06"),
], ids=["day-missing", "day-extra", "short-day", "nan", "price-beyond-limit"])
def test_a_bad_series_fails_before_its_file_is_written(tmp_path, write_file, series, message):
    """These once left a truncated file behind a bare KeyError or
    IndexError, or wrote a nan cell."""
    path = tmp_path / "out.csv"
    with pytest.raises(ValueError) as err:
        write_file(path, *series)
    assert message in str(err.value)
    assert not path.exists()


def test_prices_without_forecast_roundtrip_byte_identical(tmp_path):
    text = "date,hour,realized_eur_mwh\n" + day_rows(D1, "50.0000") + day_rows(D2, "-61.5000")
    realized, forecast = read_prices(write(tmp_path, "prices.csv", text))
    write_prices(tmp_path / "again.csv", realized, forecast)
    assert (tmp_path / "again.csv").read_bytes() == text.encode()


def test_price_series_falls_back_to_naive(tmp_path):
    b, w, p, f = minimal_files(tmp_path)
    (tmp_path / "prices.csv").write_text(
        "date,hour,realized_eur_mwh\n" + day_rows(D1, "50.0") + day_rows(D2, "61.5")
    )
    bundle = ingest(b, w, p, f)
    series = bundle.price_series("column")  # no column to use: persistence
    assert date(2025, 1, 6) not in series.forecast  # nothing before the first day
    assert np.allclose(series.forecast[date(2025, 1, 7)], 50.0)
    with pytest.raises(ValueError):
        bundle.price_series("lstm")


def test_network_files_come_in_pairs(tmp_path):
    b, w, p, f = minimal_files(tmp_path)
    nodes = write(tmp_path, "nodes.csv", "id,ancestor_id,x_m,y_m,p_cap_kW,"
                  "is_substation,s_rating_kVA,v_nom_pu\n")
    with pytest.raises(SchemaError, match="supplied together"):
        ingest(b, w, p, f, nodes=nodes)


def network_files(tmp_path):
    """A substation and one load node, 1."""
    nodes = write(
        tmp_path, "nodes.csv",
        "id,ancestor_id,x_m,y_m,p_cap_kW,is_substation,s_rating_kVA,v_nom_pu\n"
        "0,,0,0,0,true,100,1.0\n1,0,1,0,10,false,0,1.0\n",
    )
    edges = write(
        tmp_path, "edges.csv",
        "from_id,to_id,r_pu,x_pu,s_rating_pu\n1,0,0.01,0.005,1.0\n",
    )
    return nodes, edges


@pytest.mark.parametrize("name, old, new, message", [
    # Line's own checks once escaped as a bare ValueError naming no file
    ("edges.csv", "1,0,0.01,0.005,1.0", "1,0,-0.01,0.005,1.0", "2: line 1->0: r, x must be >= 0"),
    ("edges.csv", "1,0,0.01,0.005,1.0", "1,0,0.01,-0.005,1.0", "2: line 1->0: r, x must be >= 0"),
    ("edges.csv", "1,0,0.01,0.005,1.0", "1,0,0.01,0.005,0", "2: line 1->0: s_rating must be > 0"),
    ("edges.csv", "1,0,0.01,0.005,1.0", "1,0,0.01,0.005,-1", "2: line 1->0: s_rating must be > 0"),
    # BuildingParams' and Node's own checks, which the readers once stated again
    ("buildings.csv", "5.0,10.0,3.0,0.0", "0.0,10.0,3.0,0.0",
     "2: building b001: r_th and c_th must be positive"),
    ("buildings.csv", "5.0,10.0,3.0,0.0", "5.0,-1.0,3.0,0.0",
     "2: building b001: r_th and c_th must be positive"),
    ("buildings.csv", "5.0,10.0,3.0,0.0", "5.0,10.0,-3.0,0.0",
     "2: building b001: rated powers must be non-negative"),
    ("buildings.csv", "5.0,10.0,3.0,0.0", "5.0,10.0,3.0,-1.0",
     "2: building b001: rated powers must be non-negative"),
    ("nodes.csv", "1,0,1,0,10,false", "1,0,1,0,-10,false", "3: node 1: p_cap must be >= 0"),
    ("nodes.csv", "0,,0,0,0,true,100", "0,,0,0,0,true,0",
     "2: substation 0: s_rating and v_nom must be > 0"),
    # a negative nominal voltage once passed: the OPF squares it
    ("nodes.csv", "0,,0,0,0,true,100,1.0", "0,,0,0,0,true,100,-1.0",
     "2: substation 0: s_rating and v_nom must be > 0"),
    ("nodes.csv", "0,,0,0,0,true,100,1.0", "0,,0,0,0,true,100,0.0",
     "2: substation 0: s_rating and v_nom must be > 0"),
])
def test_a_bad_row_value_fails_naming_its_file_and_line(tmp_path, name, old, new, message):
    b, w, p, f = minimal_files(tmp_path)
    nodes, edges = network_files(tmp_path)
    path = tmp_path / name
    assert old in path.read_text()
    path.write_text(path.read_text().replace(old, new))
    with pytest.raises(SchemaError) as err:
        ingest(b, w, p, f, nodes=nodes, edges=edges)
    assert f"{path}:{message}" in str(err.value)


def test_alloc_must_resolve(tmp_path):
    b, w, p, f = minimal_files(tmp_path)
    nodes, edges = network_files(tmp_path)
    alloc = write(tmp_path, "alloc.json", '{"b001": 7}\n')
    with pytest.raises(DanglingReference, match="unknown node 7"):
        ingest(b, w, p, f, nodes=nodes, edges=edges, alloc=alloc)
    alloc.write_text('{"ghost": 1}\n')
    with pytest.raises(DanglingReference, match="unknown building 'ghost'"):
        ingest(b, w, p, f, nodes=nodes, edges=edges, alloc=alloc)


# b001 has a heat pump, b002 only a PV roof, b003 neither
RULE_BUILDINGS = (f"{BUILDINGS_HEADER}\nb001,0,0,5,10,3,0,true\nb002,0,0,5,10,0,4,false\n"
                  "b003,0,0,5,10,0,0,false\n")


@pytest.mark.parametrize("assignment, error, message", [
    ({"b001": 1, "b002": 1, "ghost": 1}, DanglingReference,
     "assignment names unknown building 'ghost'"),
    ({"b001": 1, "b002": 7}, DanglingReference, "building 'b002' assigned to unknown node 7"),
    ({"b001": 1, "b002": 0}, GridMismatch, "building 'b002' assigned to the substation, node 0"),
    ({"b002": 1}, DanglingReference, "building 'b001' has a heat pump or PV roof but no node"),
    ({"b001": 1}, DanglingReference, "building 'b002' has a heat pump or PV roof but no node"),
    ({"b001": 1, "b002": 1, "b003": 1}, None, None),
], ids=["unknown-building", "unknown-node", "substation", "heat-pump-left-out",
        "pv-only-left-out", "extra-building"])
def test_one_assignment_rule_holds_at_ingest_and_in_the_network_dispatch(
        tmp_path, assignment, error, message):
    """A building on the substation or left out once passed ingest, and a
    PV-only building left out passed the network dispatch too, its PV off
    the feeder."""
    b, w, p, f = minimal_files(tmp_path)
    b.write_text(RULE_BUILDINGS)
    nodes, edges = network_files(tmp_path)
    alloc = write(tmp_path, "alloc.json", json.dumps(assignment))
    bundle = ingest(b, w, p, f, nodes=nodes, edges=edges)
    dispatch = partial(OpfModel, bundle.network, bundle.buildings, assignment, ComfortConfig(),
                       np.full(24, 2.0), GridTimeSeries(slf=np.full(24, 0.6), cf=np.full(24, 0.1)))
    if error is None:
        assert ingest(b, w, p, f, nodes=nodes, edges=edges, alloc=alloc).alloc == assignment
        assert dispatch().pv_kw.sum() > 0
        return
    with pytest.raises(error) as err:
        ingest(b, w, p, f, nodes=nodes, edges=edges, alloc=alloc)
    assert str(err.value) == f"{alloc}: {message}"
    with pytest.raises(error, match=f"^{message}$"):
        dispatch()


@pytest.mark.parametrize("text, message", [
    ('{"b001": 1,\n "b002" 1}\n', "alloc.json:2: not valid JSON"),
    ("true\n", "alloc.json: expected a JSON object"),
    ("[1, 2]\n", "alloc.json: expected a JSON object"),
    ('{"b001": 1.7}\n', "alloc.json: building 'b001': node id 1.7 is not an integer"),
    ('{"b001": true}\n', "alloc.json: building 'b001': node id true is not an integer"),
    ('{"b001": "1"}\n', "alloc.json: building 'b001': node id \"1\" is not an integer"),
])
def test_malformed_alloc_is_a_schema_error_naming_the_file(tmp_path, text, message):
    """Each of these once ingested as node 1 or crashed with a traceback."""
    b, w, p, f = minimal_files(tmp_path)
    nodes, edges = network_files(tmp_path)
    alloc = write(tmp_path, "alloc.json", '{"b001": 1}\n')
    assert ingest(b, w, p, f, nodes=nodes, edges=edges, alloc=alloc).alloc == {"b001": 1}
    alloc.write_text(text)
    with pytest.raises(SchemaError) as err:
        ingest(b, w, p, f, nodes=nodes, edges=edges, alloc=alloc)
    assert message in str(err.value)


def test_edge_to_unknown_node(tmp_path):
    b, w, p, f = minimal_files(tmp_path)
    nodes = write(
        tmp_path, "nodes.csv",
        "id,ancestor_id,x_m,y_m,p_cap_kW,is_substation,s_rating_kVA,v_nom_pu\n"
        "0,,0,0,0,true,100,1.0\n1,0,1,0,10,false,0,1.0\n",
    )
    edges = write(
        tmp_path, "edges.csv",
        "from_id,to_id,r_pu,x_pu,s_rating_pu\n1,0,0.01,0.005,1.0\n9,0,0.01,0.005,1.0\n",
    )
    with pytest.raises(DanglingReference, match=r"edges.csv:3: unknown from_id 9"):
        ingest(b, w, p, f, nodes=nodes, edges=edges)


def test_a_network_that_is_no_tree_names_both_files(tmp_path):
    # load nodes 1 and 2 name each other as ancestor: a loop off the substation
    nodes = write(
        tmp_path, "nodes.csv",
        "id,ancestor_id,x_m,y_m,p_cap_kW,is_substation,s_rating_kVA,v_nom_pu\n"
        "0,,0,0,0,true,100,1.0\n1,2,1,0,10,false,0,1.0\n2,1,2,0,10,false,0,1.0\n",
    )
    edges = write(
        tmp_path, "edges.csv",
        "from_id,to_id,r_pu,x_pu,s_rating_pu\n1,2,0.01,0.005,1.0\n2,1,0.01,0.005,1.0\n",
    )
    with pytest.raises(CycleDetected) as err:
        read_network(nodes, edges)
    assert str(err.value).startswith(f"{nodes}, {edges}: ancestor chains of nodes [1, 2] loop")


def test_a_nodes_file_needs_exactly_one_substation_row(tmp_path):
    nodes, edges = network_files(tmp_path)
    text = nodes.read_text()
    nodes.write_text(text + "2,,2,0,0,true,100,1.0\n")
    with pytest.raises(SchemaError) as err:
        read_network(nodes, edges)
    assert str(err.value) == (f"{nodes}:4: second substation row (first at line 2); "
                              "a feeder has one")
    # no substation row: node 1 names itself as its ancestor, and no line runs up
    header, _, load = text.splitlines(keepends=True)
    nodes.write_text(header + load.replace("1,0,1,0", "1,1,1,0"))
    edges.write_text(edges.read_text().splitlines(keepends=True)[0])
    with pytest.raises(SchemaError) as err:
        read_network(nodes, edges)
    assert str(err.value) == f"{nodes}: no substation row"


def test_a_load_node_without_ancestor_points_at_its_line(tmp_path):
    nodes, edges = network_files(tmp_path)
    nodes.write_text(nodes.read_text().replace("1,0,1,0", "1,,1,0"))
    with pytest.raises(DisconnectedNode, match=r"nodes.csv:3: node 1 has no ancestor_id"):
        read_network(nodes, edges)


def test_boolean_spellings(tmp_path):
    write(
        tmp_path, "buildings.csv",
        "id,x_m,y_m,r_th_K_per_kW,c_th_kWh_per_K,p_hp_rated_kW,p_pv_rated_kW,has_hp\n"
        "b001,0,0,5,10,3,0,1\nb002,0,0,5,10,3,0,false\nb003,0,0,5,10,0,0,maybe\n",
    )
    with pytest.raises(SchemaError, match=r"column 'has_hp': not a boolean: 'maybe'"):
        read_buildings(tmp_path / "buildings.csv")


@pytest.fixture(scope="module")
def instance_lines(tmp_path_factory):
    """A generated instance's CSV files, each as a list of lines."""
    spec = SyntheticSpec(n_buildings=9, hp_share_pct=30.0, n_days=2, seed=3)
    files = generate_synthetic(spec, tmp_path_factory.mktemp("instance"))
    return {key: path.read_text().splitlines() for key, path in files.items()}


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_one_bad_cell_fails_naming_its_file_and_line(instance_lines, data):
    """A non-finite, empty or non-numeric cell anywhere in an instance
    fails ingest with a FlexbidError that names the file and the line."""
    key = data.draw(st.sampled_from(sorted(instance_lines)), label="file")
    lines = list(instance_lines[key])
    lineno = data.draw(st.integers(2, len(lines)), label="line")
    row = lines[lineno - 1].split(",")
    col = data.draw(st.integers(0, len(row) - 1), label="column")
    # building ids are free text, so only an empty one is bad
    bad = [""] if key == "buildings" and col == 0 else ["nan", "inf", "", "x"]
    row[col] = data.draw(st.sampled_from([cell for cell in bad if cell != row[col]]))
    lines[lineno - 1] = ",".join(row)
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: Path(tmp) / f"{name}.csv" for name in instance_lines}
        for name, path in paths.items():
            path.write_text("\n".join(lines if name == key else instance_lines[name]) + "\n")
        with pytest.raises(FlexbidError) as err:
            ingest(**paths)
    assert f"{paths[key]}:{lineno}: " in str(err.value)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_a_duplicated_row_fails_naming_its_file_and_line(instance_lines, data):
    """A data row repeated right after itself in any instance CSV fails
    ingest naming the file and the repeat's line."""
    key = data.draw(st.sampled_from(sorted(instance_lines)), label="file")
    lines = list(instance_lines[key])
    lineno = data.draw(st.integers(2, len(lines)), label="line")
    lines.insert(lineno, lines[lineno - 1])
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: Path(tmp) / f"{name}.csv" for name in instance_lines}
        for name, path in paths.items():
            path.write_text("\n".join(lines if name == key else instance_lines[name]) + "\n")
        with pytest.raises(SchemaError) as err:
            ingest(**paths)
    assert f"{paths[key]}:{lineno + 1}: " in str(err.value)
    assert f"(first at line {lineno})" in str(err.value)


# ----------------------------------------------------------- round trips

@pytest.mark.parametrize("spec", [
    SyntheticSpec(n_buildings=8, hp_share_pct=50.0, n_days=4, seed=21, branching=2, depth=2),
    SyntheticSpec(n_buildings=30, hp_share_pct=30.0, n_days=365, seed=1),
], ids=["4-days", "365-days"])
def test_generated_instance_roundtrips_byte_identical(tmp_path, spec):
    first = generate_synthetic(spec, tmp_path / "a")
    bundle = ingest(
        first["buildings"], first["weather"], first["prices"],
        first["profiles"], nodes=first["nodes"], edges=first["edges"],
    )
    out = tmp_path / "b"
    out.mkdir()
    write_buildings(out / "buildings.csv", bundle.buildings)
    write_weather(out / "weather.csv", bundle.weather)
    write_prices(out / "prices.csv", bundle.realized, bundle.forecast)
    write_profiles(out / "profiles.csv", bundle.slf, bundle.cf)
    write_network(out / "nodes.csv", out / "edges.csv", bundle.network)
    for name in ("buildings", "weather", "prices", "profiles", "nodes", "edges"):
        a = (tmp_path / "a" / f"{name}.csv").read_bytes()
        b = (out / f"{name}.csv").read_bytes()
        assert a == b, f"{name}.csv changed across a read/write cycle"


def test_same_seed_is_byte_identical(tmp_path):
    spec = SyntheticSpec(n_buildings=6, hp_share_pct=30.0, n_days=3, seed=5,
                         branching=2, depth=2)
    one = generate_synthetic(spec, tmp_path / "one")
    two = generate_synthetic(spec, tmp_path / "two")
    for key, p in one.items():
        assert p.read_bytes() == two[key].read_bytes(), f"{key} differs under one seed"
