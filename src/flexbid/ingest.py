"""Strict file ingestion and canonical serialization.

All tabular inputs are CSV with fixed headers; structured artifacts
(bids, outcomes, assignments, config) are JSON.  Readers fail fast and
point at the exact file, line, and column of the first problem.
Writers emit one canonical decimal format per column so that
write -> read -> write is byte-stable, which the round-trip tests rely
on.

Daily series must cover hours 0..23 exactly once; days with missing or
doubled hours (e.g. DST switches in real exports) are rejected rather
than silently padded.
"""

from __future__ import annotations

import csv
import json
import logging
import math
from dataclasses import dataclass
from datetime import date
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import (
    DanglingReference,
    DisconnectedNode,
    FlexbidError,
    GridMismatch,
    InsufficientHistory,
    SchemaError,
)
from .grid import Line, Node, RadialNetwork, validate_radial
from .scenarios import PriceSeries, naive_forecast
from .thermal import BuildingParams

log = logging.getLogger(__name__)

HOURS = 24

BUILDINGS_HEADER = [
    "id", "x_m", "y_m", "r_th_K_per_kW", "c_th_kWh_per_K",
    "p_hp_rated_kW", "p_pv_rated_kW", "has_hp",
]
WEATHER_HEADER = ["date", "hour", "t_out_C"]
PRICES_HEADER = ["date", "hour", "realized_eur_mwh", "forecast_eur_mwh"]
NODES_HEADER = [
    "id", "ancestor_id", "x_m", "y_m", "p_cap_kW",
    "is_substation", "s_rating_kVA", "v_nom_pu",
]
EDGES_HEADER = ["from_id", "to_id", "r_pu", "x_pu", "s_rating_pu"]
PROFILES_HEADER = ["date", "hour", "slf", "cf"]


# ---------------------------------------------------------------- parsing

def _rows(path: str | Path, want_header: list[str], optional_last: bool = False):
    """Yield (line_number, row) after validating the header row.

    With optional_last, the final header column may be absent; rows then
    carry one fewer field.
    """
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: file is empty") from None
        headers_ok = header == want_header or (
            optional_last and header == want_header[:-1]
        )
        if not headers_ok:
            raise SchemaError(
                f"{path}:1: header {header!r} does not match expected {want_header!r}"
            )
        width = len(header)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != width:
                raise SchemaError(
                    f"{path}:{lineno}: expected {width} fields, found {len(row)}"
                )
            yield lineno, row


def read_json(path: str | Path):
    """A JSON file's payload; SchemaError names the file and the line
    where it stops being valid JSON."""
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}:{exc.lineno}: not valid JSON: {exc.msg}") from None


def _float(path, lineno, col: str, text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise SchemaError(f"{path}:{lineno}: column {col!r}: not a number: {text!r}") from None
    if not math.isfinite(value):
        raise SchemaError(f"{path}:{lineno}: column {col!r}: not finite: {text!r}")
    return value


def _int(path, lineno, col: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise SchemaError(f"{path}:{lineno}: column {col!r}: not an integer: {text!r}") from None


def _date(path, lineno, col: str, text: str) -> date:
    try:
        return date.fromisoformat(text)
    except ValueError:
        raise SchemaError(f"{path}:{lineno}: column {col!r}: not an ISO date: {text!r}") from None


def _bool(path, lineno, col: str, text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "1"):
        return True
    if low in ("false", "0"):
        return False
    raise SchemaError(f"{path}:{lineno}: column {col!r}: not a boolean: {text!r}")


def _hour(path, lineno, text: str) -> int:
    h = _int(path, lineno, "hour", text)
    if not (0 <= h < HOURS):
        raise SchemaError(f"{path}:{lineno}: column 'hour': {h} outside 0..{HOURS - 1}")
    return h


def _assemble_days(
    path, cells: list[tuple[int, date, int, tuple[float, ...]]], n_values: int
) -> dict[date, np.ndarray]:
    """Group (date, hour, values) records into per-day arrays of shape
    (n_values, 24), insisting on exactly one record per hour."""
    seen: dict[tuple[date, int], int] = {}
    days: dict[date, np.ndarray] = {}
    for lineno, d, h, values in cells:
        if (d, h) in seen:
            raise SchemaError(
                f"{path}:{lineno}: duplicate entry for {d} hour {h} "
                f"(first at line {seen[(d, h)]})"
            )
        seen[(d, h)] = lineno
        days.setdefault(d, np.full((n_values, HOURS), np.nan))[:, h] = values
    for d, arr in sorted(days.items()):
        missing = [h for h in range(HOURS) if np.isnan(arr[0, h])]
        if missing:
            raise GridMismatch(
                f"{path}: {d} covers {HOURS - len(missing)} hours "
                f"(missing {missing[0]}); 23/25-hour days are not supported"
            )
    return days


# ---------------------------------------------------------------- readers

def read_buildings(path: str | Path) -> list[BuildingParams]:
    out: list[BuildingParams] = []
    ids: dict[str, int] = {}
    for lineno, row in _rows(path, BUILDINGS_HEADER):
        bid = row[0]
        if not bid:
            raise SchemaError(f"{path}:{lineno}: column 'id': empty")
        if bid in ids:
            raise SchemaError(
                f"{path}:{lineno}: duplicate building id {bid!r} (first at line {ids[bid]})"
            )
        ids[bid] = lineno
        x = _float(path, lineno, "x_m", row[1])
        y = _float(path, lineno, "y_m", row[2])
        r_th = _float(path, lineno, "r_th_K_per_kW", row[3])
        c_th = _float(path, lineno, "c_th_kWh_per_K", row[4])
        hp = _float(path, lineno, "p_hp_rated_kW", row[5])
        pv = _float(path, lineno, "p_pv_rated_kW", row[6])
        has_hp = _bool(path, lineno, "has_hp", row[7])
        if r_th <= 0 or c_th <= 0:
            raise SchemaError(f"{path}:{lineno}: r_th and c_th must be positive")
        if hp < 0 or pv < 0:
            raise SchemaError(f"{path}:{lineno}: ratings must be >= 0")
        out.append(BuildingParams(
            id=bid, r_th=r_th, c_th=c_th, p_hp_rated=hp, p_pv_rated=pv,
            position=(x, y), has_hp=has_hp,
        ))
    if not out:
        raise SchemaError(f"{path}: no building rows")
    return out


def read_weather(path: str | Path) -> dict[date, np.ndarray]:
    cells = []
    for lineno, row in _rows(path, WEATHER_HEADER):
        d = _date(path, lineno, "date", row[0])
        h = _hour(path, lineno, row[1])
        t = _float(path, lineno, "t_out_C", row[2])
        cells.append((lineno, d, h, (t,)))
    return {d: arr[0] for d, arr in _assemble_days(path, cells, 1).items()}


def read_prices(path: str | Path) -> tuple[dict[date, np.ndarray], dict[date, np.ndarray] | None]:
    """Returns (realized, forecast); forecast is None when the file has
    no forecast column."""
    path = Path(path)
    with path.open(newline="") as fh:
        header = next(csv.reader(fh), None)
    has_forecast = header == PRICES_HEADER
    cells = []
    for lineno, row in _rows(path, PRICES_HEADER, optional_last=True):
        d = _date(path, lineno, "date", row[0])
        h = _hour(path, lineno, row[1])
        realized = _float(path, lineno, "realized_eur_mwh", row[2])
        if has_forecast:
            forecast = _float(path, lineno, "forecast_eur_mwh", row[3])
            cells.append((lineno, d, h, (realized, forecast)))
        else:
            cells.append((lineno, d, h, (realized,)))
    days = _assemble_days(path, cells, 2 if has_forecast else 1)
    realized = {d: arr[0] for d, arr in days.items()}
    forecast = {d: arr[1] for d, arr in days.items()} if has_forecast else None
    return realized, forecast


def read_network(nodes_path: str | Path, edges_path: str | Path) -> RadialNetwork:
    """The feeder in nodes.csv and edges.csv.  A bad row, or a second
    row for one node id or one line's child, fails naming its file and
    line; a network that is not a radial tree fails with
    validate_radial's error, prefixed with both paths."""
    nodes: dict[int, Node] = {}
    lineno_by_id: dict[int, int] = {}
    for lineno, row in _rows(nodes_path, NODES_HEADER):
        nid = _int(nodes_path, lineno, "id", row[0])
        if nid in nodes:
            raise SchemaError(
                f"{nodes_path}:{lineno}: duplicate node id {nid} "
                f"(first at line {lineno_by_id[nid]})"
            )
        lineno_by_id[nid] = lineno
        ancestor = None if row[1] == "" else _int(nodes_path, lineno, "ancestor_id", row[1])
        x = _float(nodes_path, lineno, "x_m", row[2])
        y = _float(nodes_path, lineno, "y_m", row[3])
        p_cap = _float(nodes_path, lineno, "p_cap_kW", row[4])
        is_sub = _bool(nodes_path, lineno, "is_substation", row[5])
        s_rating = _float(nodes_path, lineno, "s_rating_kVA", row[6])
        v_nom = _float(nodes_path, lineno, "v_nom_pu", row[7])
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
    lines: list[Line] = []
    lineno_by_child: dict[int, int] = {}
    for lineno, row in _rows(edges_path, EDGES_HEADER):
        frm = _int(edges_path, lineno, "from_id", row[0])
        if frm in lineno_by_child:
            raise SchemaError(
                f"{edges_path}:{lineno}: second line up from node {frm} "
                f"(first at line {lineno_by_child[frm]})"
            )
        lineno_by_child[frm] = lineno
        to = _int(edges_path, lineno, "to_id", row[1])
        r = _float(edges_path, lineno, "r_pu", row[2])
        x = _float(edges_path, lineno, "x_pu", row[3])
        s = _float(edges_path, lineno, "s_rating_pu", row[4])
        if frm not in nodes:
            raise DanglingReference(f"{edges_path}:{lineno}: unknown from_id {frm}")
        if to not in nodes:
            raise DanglingReference(f"{edges_path}:{lineno}: unknown to_id {to}")
        lines.append(Line(from_id=frm, to_id=to, r_pu=r, x_pu=x, s_rating_pu=s))
    substations = [n for n in nodes.values() if n.is_substation]
    if not substations:
        raise SchemaError(f"{nodes_path}: no substation row")
    s_base = substations[0].s_rating_kva
    net = RadialNetwork(nodes=nodes, lines=lines, s_base_kva=s_base)
    try:
        validate_radial(net)
    except FlexbidError as exc:
        raise type(exc)(f"{nodes_path}, {edges_path}: {exc}") from None
    return net


def read_profiles(path: str | Path) -> tuple[dict[date, np.ndarray], dict[date, np.ndarray]]:
    cells = []
    for lineno, row in _rows(path, PROFILES_HEADER):
        d = _date(path, lineno, "date", row[0])
        h = _hour(path, lineno, row[1])
        slf = _float(path, lineno, "slf", row[2])
        cf = _float(path, lineno, "cf", row[3])
        if not (0.0 <= slf <= 1.0):
            raise SchemaError(f"{path}:{lineno}: column 'slf': {slf} outside [0, 1]")
        if not (0.0 <= cf <= 1.0):
            raise SchemaError(f"{path}:{lineno}: column 'cf': {cf} outside [0, 1]")
        cells.append((lineno, d, h, (slf, cf)))
    days = _assemble_days(path, cells, 2)
    return ({d: a[0] for d, a in days.items()}, {d: a[1] for d, a in days.items()})


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

    def price_series(self, forecaster: str = "column") -> PriceSeries:
        """Assemble the price history; forecaster='naive' replaces (or
        fills) the forecast column with same-weekday-class persistence."""
        if forecaster not in ("column", "naive"):
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

def _write_csv(path: str | Path, header: list[str], rows: Iterator[list[str]]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


def write_buildings(path: str | Path, buildings: Sequence[BuildingParams]) -> None:
    def rows():
        for b in buildings:
            yield [
                b.id, f"{b.position[0]:.2f}", f"{b.position[1]:.2f}",
                f"{b.r_th:.6f}", f"{b.c_th:.6f}",
                f"{b.p_hp_rated:.3f}", f"{b.p_pv_rated:.3f}",
                "true" if b.has_hp else "false",
            ]
    _write_csv(path, BUILDINGS_HEADER, rows())


def write_weather(path: str | Path, weather: Mapping[date, np.ndarray]) -> None:
    def rows():
        for d in sorted(weather):
            for h in range(HOURS):
                yield [d.isoformat(), str(h), f"{weather[d][h]:.2f}"]
    _write_csv(path, WEATHER_HEADER, rows())


def write_prices(
    path: str | Path,
    realized: Mapping[date, np.ndarray],
    forecast: Mapping[date, np.ndarray] | None = None,
) -> None:
    def rows():
        for d in sorted(realized):
            for h in range(HOURS):
                row = [d.isoformat(), str(h), f"{realized[d][h]:.4f}"]
                if forecast is not None:
                    row.append(f"{forecast[d][h]:.4f}")
                yield row
    header = PRICES_HEADER if forecast is not None else PRICES_HEADER[:-1]
    _write_csv(path, header, rows())


def write_network(nodes_path: str | Path, edges_path: str | Path, net: RadialNetwork) -> None:
    def node_rows():
        for nid in sorted(net.nodes):
            n = net.nodes[nid]
            yield [
                str(n.id),
                "" if n.ancestor_id is None else str(n.ancestor_id),
                f"{n.position[0]:.2f}", f"{n.position[1]:.2f}",
                f"{n.p_cap_kw:.3f}",
                "true" if n.is_substation else "false",
                f"{n.s_rating_kva:.3f}", f"{n.v_nom_pu:.4f}",
            ]
    _write_csv(nodes_path, NODES_HEADER, node_rows())

    def edge_rows():
        for ln in sorted(net.lines, key=lambda l: l.from_id):
            yield [
                str(ln.from_id), str(ln.to_id),
                f"{ln.r_pu:.6f}", f"{ln.x_pu:.6f}", f"{ln.s_rating_pu:.6f}",
            ]
    _write_csv(edges_path, EDGES_HEADER, edge_rows())


def write_profiles(
    path: str | Path,
    slf: Mapping[date, np.ndarray],
    cf: Mapping[date, np.ndarray],
) -> None:
    def rows():
        for d in sorted(slf):
            for h in range(HOURS):
                yield [d.isoformat(), str(h), f"{slf[d][h]:.6f}", f"{cf[d][h]:.6f}"]
    _write_csv(path, PROFILES_HEADER, rows())


def write_alloc(path: str | Path, alloc: Mapping[str, int]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({k: alloc[k] for k in sorted(alloc)}, indent=2) + "\n")
