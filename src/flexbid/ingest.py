"""Strict file ingestion and canonical serialization.

Each instance CSV is stated once, in a `*_COLUMNS` map from each column
name, in header order, to the parser its cells take.  One reader,
`_table`, reads a file in one csv pass, checks its header and row
widths, and parses it a column at a time, calling a column's parser
once per distinct text in it (a date or an hour repeats on every row).
It hands back the parsed rows before the first faulty line and that
line's error, naming the file, the line and, for a cell, the column;
each caller checks those rows in line order and then raises that
error, so a file fails on its earliest faulty line, whichever check
finds it.  `_hourly` builds the three (date, hour) tables, weather,
prices and profiles, on it as one (days, 24) numpy grid per value
column, and `_write_hourly` writes them, one %-template per row, after
checking that every series holds 24 finite values for the same dates.
A price cell holds at most MAX_PRICE_EUR_MWH in magnitude, read or written.
Writers emit one canonical decimal format per column so that write ->
read -> write is byte-stable.  Files are UTF-8, written without a
byte-order mark and read past one, as spreadsheet CSV exports write it.
Structured artifacts (bids, outcomes, assignments, config) are JSON;
`settings` checks and types each section of campaign.json against the
dict to_dict writes for its defaults.

Daily series must cover hours 0..23 exactly once; days with missing or
doubled hours (e.g. DST switches in real exports) are rejected rather
than silently padded.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import sys
from dataclasses import dataclass
from datetime import date
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    DanglingReference,
    DisconnectedNode,
    FlexbidError,
    GridMismatch,
    InsufficientHistory,
    SchemaError,
)
from .grid import Line, Node, RadialNetwork
from .scenarios import PriceSeries, naive_forecast
from .thermal import BuildingParams

log = logging.getLogger(__name__)

HOURS = 24
# each instance file of a workspace, by its key in campaign.json's paths
FILE_NAMES = {"buildings": "buildings.csv", "weather": "weather.csv", "prices": "prices.csv",
              "profiles": "profiles.csv", "nodes": "nodes.csv", "edges": "edges.csv",
              "alloc": "alloc.json"}
# price forecasts: prices.csv's forecast column, or same-weekday-class persistence
FORECASTERS = ("column", "naive")
# The largest price magnitude prices.csv may hold, EUR/MWh: far above any
# exchange's price cap, and far enough inside the float range that a day's
# residuals, spreads and costs stay finite.
MAX_PRICE_EUR_MWH = 1e6


# ------------------------------------------------------------ cell parsers
# Each takes a cell's text and returns its value, or raises ValueError
# with what is wrong; _table prefixes the file, line and column.

def _float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"not finite: {text!r}")
    return value


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"not an integer: {text!r}") from None


def _date(text: str) -> date:
    try:
        return date.fromisoformat(text)
    except ValueError:
        raise ValueError(f"not an ISO date: {text!r}") from None


def _bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "1"):
        return True
    if low in ("false", "0"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _price(text: str) -> float:
    value = _float(text)
    if abs(value) > MAX_PRICE_EUR_MWH:
        raise ValueError(f"beyond ±{MAX_PRICE_EUR_MWH:g} EUR/MWh: {text!r}")
    return value


def _hour(text: str) -> int:
    h = _int(text)
    if not (0 <= h < HOURS):
        raise ValueError(f"{h} outside 0..{HOURS - 1}")
    return h


def _unit(text: str) -> float:
    value = _float(text)
    if not (0.0 <= value <= 1.0):
        raise ValueError(f"{value} outside [0, 1]")
    return value


def _id(text: str) -> str:
    if not text:
        raise ValueError("empty")
    return text


# ------------------------------------------------------------ the tables
# Each instance CSV, stated once: its header, in order, and the parser
# each column's cells take.  Readers and writers both follow these.

BUILDINGS_COLUMNS = {
    "id": _id, "x_m": _float, "y_m": _float, "r_th_K_per_kW": _float,
    "c_th_kWh_per_K": _float, "p_hp_rated_kW": _float, "p_pv_rated_kW": _float,
    "has_hp": _bool,
}
WEATHER_COLUMNS = {"date": _date, "hour": _hour, "t_out_C": _float}
PRICES_COLUMNS = {
    "date": _date, "hour": _hour, "realized_eur_mwh": _price, "forecast_eur_mwh": _price,
}
PROFILES_COLUMNS = {"date": _date, "hour": _hour, "slf": _unit, "cf": _unit}
NODES_COLUMNS = {
    "id": _int, "ancestor_id": lambda text: None if text == "" else _int(text),
    "x_m": _float, "y_m": _float, "p_cap_kW": _float, "is_substation": _bool,
    "s_rating_kVA": _float, "v_nom_pu": _float,
}
EDGES_COLUMNS = {
    "from_id": _int, "to_id": _int, "r_pu": _float, "x_pu": _float, "s_rating_pu": _float,
}


def _table(path: str | Path, columns: Mapping[str, Callable], optional_last: bool = False):
    """Read a CSV file in one pass and parse it a column at a time.

    Returns (linenos, values, fault).  The header must be list(columns),
    or, with optional_last, that without its last column; a wrong header
    or an empty file raises SchemaError at once.  `linenos` holds the
    line number of each data row before the first faulty line, `values`
    one list per header column of those rows' parsed cells, and `fault`
    that line's SchemaError, naming the file, the line and, for a cell,
    the column, or None when no line is faulty.  A faulty line is a row
    of another width or one with a cell its column's parser rejects;
    each parser runs once per distinct text in its column.  Blank lines
    are skipped.  Callers check the rows they get in line order and then
    raise the fault, so that a file fails on its earliest faulty line."""
    path = Path(path)
    want = list(columns)
    with path.open(newline="", encoding="utf-8-sig") as fh:  # a byte-order mark is skipped
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise SchemaError(f"{path}: file is empty")
        if not (header == want or (optional_last and header == want[:-1])):
            raise SchemaError(f"{path}:1: header {header!r} does not match expected {want!r}")
        rows = list(reader)
    linenos = range(2, len(rows) + 2)
    if not all(rows):  # blank lines are skipped, but they count
        linenos = [lineno for lineno, row in zip(linenos, rows) if row]
        rows = [row for row in rows if row]
    width = len(header)
    stop, fault = len(rows), None
    widths = list(map(len, rows))
    if widths.count(width) < len(rows):
        stop = next(i for i, n in enumerate(widths) if n != width)
        fault = SchemaError(f"{path}:{linenos[stop]}: expected {width} fields, found {widths[stop]}")
    texts = list(zip(*rows[:stop])) or [()] * width
    parsed = []
    for name, column in zip(header, texts):
        parse = columns[name]
        memo, errors = {}, {}
        for text in set(column):
            try:
                memo[text] = parse(text)
            except ValueError as exc:
                errors[text] = exc
        if errors:
            i = next(i for i, text in enumerate(column) if text in errors)
            if i < stop:  # on a tie the leftmost column's cell is the fault
                stop = i
                fault = SchemaError(f"{path}:{linenos[i]}: column {name!r}: {errors[column[i]]}")
        parsed.append(memo)
    values = [list(map(memo.__getitem__, column[:stop])) for memo, column in zip(parsed, texts)]
    return linenos[:stop], values, fault


def _hourly(path: str | Path, columns: Mapping[str, Callable],
            optional_last: bool = False) -> list[dict[date, np.ndarray]]:
    """A (date, hour, values...) table as one {date: 24-hour array} per
    value column in the file's header, insisting on exactly one row per
    date and hour."""
    linenos, (dates, hours, *values), fault = _table(path, columns, optional_last)
    days = sorted(set(dates))
    day_index = {d: i for i, d in enumerate(days)}
    slot = (np.array([day_index[d] for d in dates], dtype=np.intp) * HOURS
            + np.array(hours, dtype=np.intp))
    count = np.bincount(slot, minlength=len(days) * HOURS)
    if count.max(initial=0) > 1:
        first: dict[int, int] = {}
        for lineno, s in zip(linenos, slot.tolist()):
            if s in first:
                raise SchemaError(
                    f"{path}:{lineno}: duplicate entry for {days[s // HOURS]} hour {s % HOURS} "
                    f"(first at line {first[s]})"
                )
            first[s] = lineno
    if fault is not None:
        raise fault
    covered = count.reshape(-1, HOURS) > 0
    short = np.flatnonzero(~covered.all(axis=1))
    if short.size:
        missing = np.flatnonzero(~covered[short[0]])
        raise GridMismatch(
            f"{path}: {days[short[0]]} covers {HOURS - missing.size} hours "
            f"(missing {missing[0]}); 23/25-hour days are not supported"
        )
    out = []
    for column in values:
        grid = np.empty(len(days) * HOURS)
        grid[slot] = column
        out.append(dict(zip(days, grid.reshape(-1, HOURS))))
    return out


def read_json(path: str | Path):
    """A UTF-8 JSON file's payload, after a byte-order mark if it has
    one; SchemaError names the file and the line where it stops being
    valid JSON."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8-sig"))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}:{exc.lineno}: not valid JSON: {exc.msg}") from None


def settings(raw: Mapping, like: Mapping, section: str, required: Sequence[str] = ()) -> dict:
    """One section of campaign.json, checked against `like`, the section
    as to_dict writes it for the defaults.  A SchemaError names, as
    `section.key`, each key `like` lacks, a `required` key left out, each
    value of another JSON kind or past a float's range where a float is
    written, or a start that is not an ISO date.
    Returns the values typed like `like`, and start as a date."""
    unknown = [f"{section}.{key}" for key in raw if key not in like]
    if unknown:
        raise SchemaError(f"unknown keys: {', '.join(unknown)}")
    missing = [key for key in required if key not in raw]
    if missing:
        raise SchemaError(f"missing key: {section}.{missing[0]}")
    mistyped = [f"{section}.{key}" for key, val in raw.items() if not _fits(val, like[key])]
    if mistyped:
        raise SchemaError(f"values of the wrong type or range: {', '.join(mistyped)}")
    out = {key: _typed(val, like[key]) for key, val in raw.items()}
    if "start" in out:
        try:
            out["start"] = date.fromisoformat(out["start"])
        except ValueError as exc:
            raise SchemaError(
                f"{section}.start {out['start']!r} is not a valid date: {exc}") from None
    return out


def _fits(val, like) -> bool:
    """Whether a JSON value can stand where to_dict writes `like`: the same
    JSON kind, a whole number where it writes one, a number a float holds
    where it writes a float, and a list of the same length whose items fit."""
    if isinstance(like, list):
        return isinstance(val, list) and len(val) == len(like) and all(map(_fits, val, like))
    if isinstance(like, str):
        return isinstance(val, str)
    if isinstance(val, bool):  # a JSON kind of its own, though Python's bool is an int
        return False
    if isinstance(like, float):  # a whole number past the float range cannot be one
        return isinstance(val, float) or (isinstance(val, int) and abs(val) <= sys.float_info.max)
    return isinstance(val, int)


def _typed(val, like):
    """A value that fits `like`, typed as it: a float where it is one, a list a tuple."""
    if isinstance(like, list):
        return tuple(map(_typed, val, like))
    return float(val) if isinstance(like, float) else val


# ---------------------------------------------------------------- readers

def read_buildings(path: str | Path) -> list[BuildingParams]:
    out: list[BuildingParams] = []
    ids: dict[str, int] = {}
    linenos, values, fault = _table(path, BUILDINGS_COLUMNS)
    for lineno, bid, x, y, r_th, c_th, hp, pv, has_hp in zip(linenos, *values):
        if bid in ids:
            raise SchemaError(
                f"{path}:{lineno}: duplicate building id {bid!r} (first at line {ids[bid]})"
            )
        ids[bid] = lineno
        if r_th <= 0 or c_th <= 0:
            raise SchemaError(f"{path}:{lineno}: r_th and c_th must be positive")
        if hp < 0 or pv < 0:
            raise SchemaError(f"{path}:{lineno}: ratings must be >= 0")
        out.append(BuildingParams(
            id=bid, r_th=r_th, c_th=c_th, p_hp_rated=hp, p_pv_rated=pv,
            position=(x, y), has_hp=has_hp,
        ))
    if fault is not None:
        raise fault
    if not out:
        raise SchemaError(f"{path}: no building rows")
    return out


def read_weather(path: str | Path) -> dict[date, np.ndarray]:
    return _hourly(path, WEATHER_COLUMNS)[0]


def read_prices(path: str | Path) -> tuple[dict[date, np.ndarray], dict[date, np.ndarray] | None]:
    """Returns (realized, forecast); forecast is None when the file has
    no forecast column."""
    realized, *forecast = _hourly(path, PRICES_COLUMNS, optional_last=True)
    return realized, (forecast[0] if forecast else None)


def read_network(nodes_path: str | Path, edges_path: str | Path) -> RadialNetwork:
    """The feeder in nodes.csv and edges.csv, its `s_base_kva` the
    substation's rating.  A bad row, or a second row for one node id,
    one line's child or the substation, fails naming its file and line,
    and a nodes.csv with no substation row names its file; a network
    that is not one radial tree under the substation fails with
    `RadialNetwork`'s error, prefixed with both paths."""
    nodes: dict[int, Node] = {}
    lineno_by_id: dict[int, int] = {}
    linenos, values, fault = _table(nodes_path, NODES_COLUMNS)
    for lineno, nid, ancestor, x, y, p_cap, is_sub, s_rating, v_nom in zip(linenos, *values):
        if nid in nodes:
            raise SchemaError(
                f"{nodes_path}:{lineno}: duplicate node id {nid} "
                f"(first at line {lineno_by_id[nid]})"
            )
        lineno_by_id[nid] = lineno
        if p_cap < 0:
            raise SchemaError(f"{nodes_path}:{lineno}: p_cap_kW must be >= 0")
        if ancestor is None and not is_sub:
            raise DisconnectedNode(
                f"{nodes_path}:{lineno}: node {nid} has no ancestor_id and is not a substation"
            )
        if is_sub and s_rating <= 0:
            raise SchemaError(f"{nodes_path}:{lineno}: substation needs s_rating_kVA > 0")
        nodes[nid] = Node(
            id=nid, ancestor_id=ancestor, position=(x, y), p_cap_kw=p_cap,
            is_substation=is_sub, s_rating_kva=s_rating, v_nom_pu=v_nom,
        )
    if fault is not None:
        raise fault
    lines: list[Line] = []
    lineno_by_child: dict[int, int] = {}
    linenos, values, fault = _table(edges_path, EDGES_COLUMNS)
    for lineno, frm, to, r, x, s in zip(linenos, *values):
        if frm in lineno_by_child:
            raise SchemaError(
                f"{edges_path}:{lineno}: second line up from node {frm} "
                f"(first at line {lineno_by_child[frm]})"
            )
        lineno_by_child[frm] = lineno
        if frm not in nodes:
            raise DanglingReference(f"{edges_path}:{lineno}: unknown from_id {frm}")
        if to not in nodes:
            raise DanglingReference(f"{edges_path}:{lineno}: unknown to_id {to}")
        try:
            lines.append(Line(from_id=frm, to_id=to, r_pu=r, x_pu=x, s_rating_pu=s))
        except ValueError as exc:
            raise SchemaError(f"{edges_path}:{lineno}: {exc}") from None
    if fault is not None:
        raise fault
    substations = [nid for nid, n in nodes.items() if n.is_substation]
    if not substations:
        raise SchemaError(f"{nodes_path}: no substation row")
    if len(substations) > 1:
        first, second = (lineno_by_id[nid] for nid in substations[:2])
        raise SchemaError(f"{nodes_path}:{second}: second substation row "
                          f"(first at line {first}); a feeder has one")
    try:
        return RadialNetwork(nodes=nodes, lines=lines,
                             s_base_kva=nodes[substations[0]].s_rating_kva)
    except FlexbidError as exc:
        raise type(exc)(f"{nodes_path}, {edges_path}: {exc}") from None


def read_profiles(path: str | Path) -> tuple[dict[date, np.ndarray], dict[date, np.ndarray]]:
    return tuple(_hourly(path, PROFILES_COLUMNS))


def read_alloc(path: str | Path, buildings: Sequence[BuildingParams], net: RadialNetwork) -> dict[str, int]:
    """The JSON object of building id to node id that write_alloc writes.

    Raises SchemaError naming the file when it is not valid JSON, not an
    object, or gives a node id that is not a JSON integer, and
    DanglingReference on a building or node the instance lacks.
    """
    payload = read_json(path)
    if not isinstance(payload, dict):
        raise SchemaError(f"{path}: expected a JSON object of building id to node id")
    known = {b.id for b in buildings}
    for bid, nid in payload.items():
        if bid not in known:
            raise DanglingReference(f"{path}: assignment names unknown building {bid!r}")
        if type(nid) is not int:  # bool is an int in Python, not in JSON
            raise SchemaError(f"{path}: building {bid!r}: node id {json.dumps(nid)} is not an integer")
        if nid not in net.nodes:
            raise DanglingReference(f"{path}: building {bid!r} assigned to unknown node {nid}")
    return dict(payload)


@dataclass
class InstanceBundle:
    """Everything one campaign needs, validated and cross-checked."""

    buildings: list[BuildingParams]
    weather: dict[date, np.ndarray]
    realized: dict[date, np.ndarray]
    forecast: dict[date, np.ndarray] | None
    slf: dict[date, np.ndarray]
    cf: dict[date, np.ndarray]
    network: RadialNetwork | None = None
    alloc: dict[str, int] | None = None

    @property
    def dates(self) -> list[date]:
        return sorted(self.weather)

    def price_series(self, forecaster: str) -> PriceSeries:
        """Assemble the price history; forecaster='naive' replaces (or
        fills) the forecast column with same-weekday-class persistence."""
        if forecaster not in FORECASTERS:
            raise ValueError(f"unknown forecaster {forecaster!r}")
        if forecaster == "column" and self.forecast is not None:
            return PriceSeries(realized=dict(self.realized), forecast=dict(self.forecast))
        if forecaster == "column":
            log.info("prices carry no forecast column; falling back to the naive forecaster")
        realized_only = PriceSeries(realized=dict(self.realized), forecast={})
        forecast: dict[date, np.ndarray] = {}
        for d in sorted(self.realized):
            try:
                forecast[d] = naive_forecast(realized_only, d)
            except InsufficientHistory:
                continue  # first day has no history; later days are covered
        return PriceSeries(realized=dict(self.realized), forecast=forecast)


def ingest(
    buildings: str | Path,
    weather: str | Path,
    prices: str | Path,
    profiles: str | Path,
    nodes: str | Path | None = None,
    edges: str | Path | None = None,
    alloc: str | Path | None = None,
) -> InstanceBundle:
    """Read and cross-validate one instance; network files are optional
    and only needed for the integrated mode."""
    blds = read_buildings(buildings)
    wx = read_weather(weather)
    realized, forecast = read_prices(prices)
    slf, cf = read_profiles(profiles)

    w_dates, p_dates, f_dates = set(wx), set(realized), set(slf)
    if w_dates != p_dates or w_dates != f_dates:
        for d in sorted(w_dates ^ p_dates):
            raise GridMismatch(f"date {d} present in only one of weather and prices")
        for d in sorted(w_dates ^ f_dates):
            raise GridMismatch(f"date {d} present in only one of weather and profiles")

    if (nodes is None) != (edges is None):
        raise SchemaError("nodes and edges files must be supplied together")
    net = read_network(nodes, edges) if nodes is not None else None
    assignment = None
    if alloc is not None:
        if net is None:
            raise SchemaError("an assignment file requires the network files")
        assignment = read_alloc(alloc, blds, net)

    return InstanceBundle(
        buildings=blds, weather=wx, realized=realized, forecast=forecast,
        slf=slf, cf=cf, network=net, alloc=assignment,
    )


# ---------------------------------------------------------------- writers

def write_csv(path: str | Path, header: Iterable[str], rows: Iterable[list]) -> None:
    """Write a header and rows as CSV, lines ending in a bare newline."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_hourly(path: str | Path, columns: Mapping[str, Callable], fmt: str,
                  *series: Mapping[date, np.ndarray],
                  limit: float = sys.float_info.max) -> None:
    """One row per date and hour of the first series, then one cell per
    series written with the %-format fmt, under as many of columns as
    there are cells.  Every series must hold 24 values of at most limit
    in magnitude, so finite ones, for each of the first series' dates and
    for no other date; ValueError names the column and the date
    otherwise, before the file is opened."""
    header = list(columns)[:2 + len(series)]
    dates = sorted(series[0])
    grids = []
    for name, values in zip(header[2:], series):
        if values.keys() != series[0].keys():
            d = min(values.keys() ^ series[0].keys())
            raise ValueError(f"{path}: column {name!r} has no values for {d}" if d not in values
                             else f"{path}: column {name!r} has values for {d}, "
                                  f"a date column {header[2]!r} lacks")
        days = [np.asarray(values[d], dtype=float) for d in dates]
        for d, day in zip(dates, days):
            if day.shape != (HOURS,):
                raise ValueError(f"{path}: column {name!r}: {d} has {day.size} values, not {HOURS}")
        grid = np.array(days).reshape(len(dates), HOURS)
        inside = (np.abs(grid) <= limit).all(axis=1)  # false at a NaN and at ±inf too
        if not inside.all():
            beyond = "" if limit == sys.float_info.max else f" or beyond ±{limit:g}"
            raise ValueError(f"{path}: column {name!r}: {dates[inside.argmin()]} has a value "
                             f"that is not finite{beyond}")
        grids.append(grid)
    cells = ",".join([fmt] * len(series))
    rows = [f"%s,{h},{cells}\n" for h in range(HOURS)]  # one template per hour
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(row % (d.isoformat(), *values)
                      for d, day in zip(dates, np.stack(grids, axis=-1).tolist())
                      for row, values in zip(rows, day))


def write_buildings(path: str | Path, buildings: Sequence[BuildingParams]) -> None:
    write_csv(path, BUILDINGS_COLUMNS, (
        [b.id, f"{b.position[0]:.2f}", f"{b.position[1]:.2f}", f"{b.r_th:.6f}", f"{b.c_th:.6f}",
         f"{b.p_hp_rated:.3f}", f"{b.p_pv_rated:.3f}", "true" if b.has_hp else "false"]
        for b in buildings
    ))


def write_weather(path: str | Path, weather: Mapping[date, np.ndarray]) -> None:
    _write_hourly(path, WEATHER_COLUMNS, "%.2f", weather)


def write_prices(path: str | Path, realized: Mapping[date, np.ndarray],
                 forecast: Mapping[date, np.ndarray] | None = None) -> None:
    """Without a forecast, the file has no forecast column.  A price beyond
    ±MAX_PRICE_EUR_MWH is refused, as read_prices refuses it."""
    _write_hourly(path, PRICES_COLUMNS, "%.4f", realized, *([] if forecast is None else [forecast]),
                  limit=MAX_PRICE_EUR_MWH)


def write_network(nodes_path: str | Path, edges_path: str | Path, net: RadialNetwork) -> None:
    write_csv(nodes_path, NODES_COLUMNS, (
        [str(n.id), "" if n.ancestor_id is None else str(n.ancestor_id),
         f"{n.position[0]:.2f}", f"{n.position[1]:.2f}", f"{n.p_cap_kw:.3f}",
         "true" if n.is_substation else "false", f"{n.s_rating_kva:.3f}", f"{n.v_nom_pu:.4f}"]
        for n in (net.nodes[nid] for nid in sorted(net.nodes))
    ))
    write_csv(edges_path, EDGES_COLUMNS, (
        [str(ln.from_id), str(ln.to_id),
         f"{ln.r_pu:.6f}", f"{ln.x_pu:.6f}", f"{ln.s_rating_pu:.6f}"]
        for ln in sorted(net.lines, key=lambda l: l.from_id)
    ))


def write_profiles(path: str | Path, slf: Mapping[date, np.ndarray],
                   cf: Mapping[date, np.ndarray]) -> None:
    _write_hourly(path, PROFILES_COLUMNS, "%.6f", slf, cf)


def write_alloc(path: str | Path, alloc: Mapping[str, int]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({k: alloc[k] for k in sorted(alloc)}, indent=2) + "\n")
