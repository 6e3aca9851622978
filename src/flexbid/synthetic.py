"""Deterministic synthetic instances: buildings, feeder, weather, prices.

Desk-scale stand-ins for the data a utility would buy: a winter weather
trace, day-ahead prices with a two-peak/two-valley daily shape and
autocorrelated day-to-day levels, a balanced radial feeder, and a
building stock whose heat-pump roll-out is nested — raising the share
only adds installations, it never removes one.

Everything is drawn from a single seeded generator in a fixed order,
and the heat-pump priority list is drawn first, so two specs that
differ only in hp_share_pct produce identical instances apart from the
has_hp column.  Feeder ratings are sized from the fixed (non-heat-pump)
load alone: the default margin leaves room for a sparse roll-out but
lets a heavy one congest the evening peak.
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass
from datetime import date, timedelta
from pathlib import Path
from typing import Mapping

import numpy as np
# numpy 2 imports numpy.random on first use, about 10 ms: import it with
# this module, so that the first instance generated costs what any other does
import numpy.random  # noqa: F401

from .grid import Line, Node, RadialNetwork
from .ingest import (
    FILE_NAMES,
    HOURS,
    InstanceBundle,
    settings,
    write_buildings,
    write_network,
    write_prices,
    write_profiles,
    write_weather,
)
from .thermal import BuildingParams, ComfortConfig

log = logging.getLogger(__name__)

FIXED_KW_PER_BUILDING = 2.0  # conventional household demand behind each meter
# Connection capacity reserved per kW of potential heat-pump rating.  Two
# floors keep the instance well-posed at any roll-out share: the carved-out
# fixed load must stay nonnegative at the night load floor even when every
# candidate runs its worst-case baseline, and the nodes must be able to host
# every rated unit between them.  0.65 clears both with a little slack.
HP_CAPACITY_SLACK = 0.65
# Cables are dimensioned on connected capacity, not diversified peak, so
# individual lines stay comfortable at any roll-out share; the substation
# transformer is the element the rating margin calibrates.
LINE_OVERSIZE = 1.5


@dataclass(frozen=True)
class SyntheticSpec:
    """Knobs for one synthetic instance; defaults give a mildly loaded
    30-building feeder over 40 winter days."""

    n_buildings: int = 30
    hp_share_pct: float = 30.0
    start: date = date(2025, 1, 1)
    n_days: int = 40
    seed: int = 0
    r_th_range: tuple[float, float] = (4.0, 8.0)  # K/kW
    c_th_range: tuple[float, float] = (8.0, 16.0)  # kWh/K
    hp_margin: float = 4.0  # rated over worst-case baseline draw
    pv_share_pct: float = 40.0
    pv_rated_range: tuple[float, float] = (1.5, 3.0)  # kW
    branching: int = 3  # feeder arms off the substation
    depth: int = 3  # nodes per arm
    rating_margin: float = 1.08  # substation rating over the diversified fixed peak
    volatility: float = 1.0  # scales the price pattern and all surprises; 0 = flat

    def __post_init__(self):
        if not (0.0 < self.hp_share_pct <= 100.0):
            raise ValueError("hp_share_pct must lie in (0, 100]")
        if not (0.0 <= self.pv_share_pct <= 100.0):
            raise ValueError("pv_share_pct must lie in [0, 100]")
        if self.n_buildings < 1 or self.n_days < 2:
            raise ValueError("need at least one building and two days")
        if self.n_days > (date.max - self.start).days + 1:
            raise ValueError(f"n_days: {self.n_days} days from {self.start} run past {date.max}")
        if self.branching < 1 or self.depth < 1:
            raise ValueError("branching and depth must be >= 1")
        if self.n_buildings < self.branching * self.depth:
            raise ValueError(
                f"{self.n_buildings} buildings cannot cover the "
                f"{self.branching * self.depth} load nodes (branching * depth)"
            )
        for lo, hi in (self.r_th_range, self.c_th_range, self.pv_rated_range):
            if not (0 < lo <= hi):
                raise ValueError("parameter ranges must satisfy 0 < low <= high")
        for name in ("volatility", "rating_margin", "hp_margin"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.volatility < 0:
            raise ValueError("volatility must be >= 0")
        if self.rating_margin <= 0 or self.hp_margin <= 1.0:
            raise ValueError("rating_margin must be > 0 and hp_margin > 1")

    def to_dict(self) -> dict:
        out = asdict(self)
        out["start"] = self.start.isoformat()
        for key in ("r_th_range", "c_th_range", "pv_rated_range"):
            out[key] = list(out[key])
        return out

    @classmethod
    def from_dict(cls, raw: Mapping) -> "SyntheticSpec":
        """Read the keys to_dict writes, checked and typed by
        ingest.settings; start is required, and any other key left out
        keeps its default."""
        return cls(**settings(raw, cls().to_dict(), "synthetic", required=("start",)))


def _bell(t: np.ndarray, mu: float, sigma: float) -> np.ndarray:
    return np.exp(-0.5 * ((t - mu) / sigma) ** 2)


def generate_instance(spec: SyntheticSpec) -> InstanceBundle:
    """Build the full instance in memory; see generate_synthetic to
    write it to disk."""
    rng = np.random.default_rng(spec.seed)
    n = spec.n_buildings
    days = [spec.start + timedelta(days=i) for i in range(spec.n_days)]
    D = len(days)
    hours = np.arange(HOURS, dtype=float)

    # 1. heat-pump roll-out priority — drawn first so the nesting rule
    #    survives any change of hp_share_pct
    priority = rng.permutation(n)
    n_hp = max(1, math.ceil(spec.hp_share_pct / 100.0 * n))
    has_hp = np.zeros(n, dtype=bool)
    has_hp[priority[:n_hp]] = True

    # 2. feeder geometry: `branching` straight arms, `depth` nodes each
    load_nodes: list[int] = []
    node_pos: dict[int, tuple[float, float]] = {0: (0.0, 0.0)}
    node_anc: dict[int, int | None] = {0: None}
    nid = 1
    for arm in range(spec.branching):
        angle = 2.0 * math.pi * arm / spec.branching
        prev = 0
        for k in range(spec.depth):
            radius = 40.0 * (k + 1)
            node_pos[nid] = (
                round(radius * math.cos(angle), 2),
                round(radius * math.sin(angle), 2),
            )
            node_anc[nid] = prev
            load_nodes.append(nid)
            prev = nid
            nid += 1

    cluster = [load_nodes[i % len(load_nodes)] for i in range(n)]
    offsets = rng.uniform(-12.0, 12.0, size=(n, 2))
    r_th = rng.uniform(*spec.r_th_range, size=n)
    c_th = rng.uniform(*spec.c_th_range, size=n)
    pv_flag = rng.random(n) < spec.pv_share_pct / 100.0
    pv_rated = np.where(pv_flag, rng.uniform(*spec.pv_rated_range, size=n), 0.0)

    # 3. winter weather: coldest around 04:00, mild seasonal wobble
    day_base = (
        1.0
        + 2.0 * np.sin(2.0 * np.pi * np.arange(D) / 35.0)
        + rng.normal(0.0, 1.2, size=D)
    )
    hourly_shape = -3.5 * np.cos(2.0 * np.pi * (hours - 4.0) / 24.0)
    t_out = day_base[:, None] + hourly_shape[None, :] + rng.normal(0.0, 0.5, size=(D, HOURS))
    t_out = np.minimum(t_out, 12.0)

    # 4. heat-pump ratings track each building's worst-case draw
    cfg = ComfortConfig()
    coldest = float(t_out.min())
    worst_draw = (cfg.t_set - coldest) / (r_th * cfg.cop)
    hp_rated = np.round(spec.hp_margin * worst_draw, 1)

    buildings = [
        BuildingParams(
            id=f"b{i:03d}",
            r_th=round(float(r_th[i]), 6),
            c_th=round(float(c_th[i]), 6),
            p_hp_rated=float(hp_rated[i]),
            p_pv_rated=round(float(pv_rated[i]), 3),
            position=(
                round(node_pos[cluster[i]][0] + offsets[i, 0], 2),
                round(node_pos[cluster[i]][1] + offsets[i, 1], 2),
            ),
            has_hp=bool(has_hp[i]),
        )
        for i in range(n)
    ]

    # 5. load and PV factors: two demand peaks, midday PV bell
    weekend = np.array([d.weekday() >= 5 for d in days])
    slf_shape = (
        0.52
        + 0.16 * _bell(hours, 8.0, 2.5)
        + 0.26 * _bell(hours, 19.0, 3.0)
    )
    slf = slf_shape[None, :] - 0.05 * weekend[:, None] + rng.normal(0.0, 0.01, (D, HOURS))
    slf = np.clip(slf, 0.55, 0.95)
    daylight = 0.35 + 0.25 * rng.random(D)
    cf = daylight[:, None] * _bell(hours, 12.5, 2.8)[None, :] + rng.normal(0.0, 0.01, (D, HOURS))
    cf = np.clip(cf, 0.0, 1.0)

    # 6. prices: two-valley daily shape, AR(1) day level with a
    #    weekday/weekend split the persistence forecaster can exploit.
    #    volatility scales the whole pattern around the flat base, so 0
    #    collapses every day to a constant price
    base_price = 62.0
    shape_dev = (
        26.0 * _bell(hours, 8.0, 2.2)
        + 30.0 * _bell(hours, 19.0, 2.6)
        - 14.0 * _bell(hours, 14.0, 3.0)
        - 20.0 * _bell(hours, 3.5, 3.0)
    )
    vol = spec.volatility
    level = np.zeros(D)
    prev = 0.0
    for i, is_we in enumerate(weekend):
        mu = -8.0 if is_we else 6.0
        prev_mu = -8.0 if (i > 0 and weekend[i - 1]) else 6.0
        innov = rng.normal(0.0, 6.0)
        prev = mu + 0.85 * (prev - prev_mu) + innov
        level[i] = prev
    hourly_noise = rng.normal(0.0, 2.5, (D, HOURS))
    realized = base_price + vol * (shape_dev[None, :] + level[:, None] + hourly_noise)
    realized = np.maximum(realized, 5.0)
    forecast_bias = rng.normal(0.0, 3.0 * vol, size=D)
    forecast = realized + forecast_bias[:, None] + rng.normal(0.0, 2.0 * vol, (D, HOURS))
    forecast = np.maximum(forecast, 1.0)

    # 7. connection capacities and ratings from the fixed load alone,
    #    so the same feeder serves every roll-out share
    homes_at = {nid: 0 for nid in load_nodes}
    hp_pot_at = {nid: 0.0 for nid in load_nodes}
    for i in range(n):
        homes_at[cluster[i]] += 1
        hp_pot_at[cluster[i]] += float(hp_rated[i])
    p_cap = {
        nid: round(FIXED_KW_PER_BUILDING * homes_at[nid] + HP_CAPACITY_SLACK * hp_pot_at[nid], 3)
        for nid in load_nodes
    }
    slf_peak = float(slf.max())

    # lines carry their subtree's connected capacity outright, while the
    # substation is sized on the diversified fixed-load peak: that makes
    # the transformer the first element to saturate as heat pumps herd
    # into cheap hours, and how soon is the rating_margin knob
    subtree_cap = dict(p_cap)
    for nid in reversed(load_nodes):
        anc = node_anc[nid]
        if anc != 0:
            subtree_cap[anc] += subtree_cap[nid]
    total_peak_kw = sum(p_cap.values()) * slf_peak
    s_sub_kva = round(spec.rating_margin * total_peak_kw, 3)
    s_base = s_sub_kva

    nodes = {
        0: Node(id=0, ancestor_id=None, position=(0.0, 0.0), p_cap_kw=0.0,
                is_substation=True, s_rating_kva=s_sub_kva, v_nom_pu=1.0)
    }
    lines = []
    for nid in load_nodes:
        nodes[nid] = Node(
            id=nid, ancestor_id=node_anc[nid], position=node_pos[nid],
            p_cap_kw=p_cap[nid], is_substation=False,
        )
        r_line = round(0.003 + 0.002 * float(rng.random()), 6)
        lines.append(Line(
            from_id=nid, to_id=node_anc[nid], r_pu=r_line, x_pu=round(0.5 * r_line, 6),
            s_rating_pu=round(LINE_OVERSIZE * subtree_cap[nid] / s_base, 6),
        ))
    net = RadialNetwork(nodes=nodes, lines=lines, s_base_kva=s_base)

    # sanity: the modeled fixed load must stay positive once baseline
    # heat-pump draw is carved out, and PV must never exceed it
    worst_fix = math.inf
    for nid in load_nodes:
        base_sum = np.zeros(D)
        for i in range(n):
            if cluster[i] == nid and has_hp[i]:
                base_sum += (cfg.t_set - t_out.min(axis=1)) / (buildings[i].r_th * cfg.cop)
        fix = p_cap[nid] * slf.min(axis=1) - base_sum
        worst_fix = min(worst_fix, float(np.min(fix)))
    if worst_fix < 0.1:
        log.warning("synthetic instance runs tight: minimum fixed load %.3f kW", worst_fix)

    return InstanceBundle(
        buildings=buildings,
        weather={d: t_out[i] for i, d in enumerate(days)},
        realized={d: realized[i] for i, d in enumerate(days)},
        forecast={d: forecast[i] for i, d in enumerate(days)},
        slf={d: slf[i] for i, d in enumerate(days)},
        cf={d: cf[i] for i, d in enumerate(days)},
        network=net,
        alloc=None,
    )


def generate_synthetic(spec: SyntheticSpec, out_dir: str | Path) -> dict[str, Path]:
    """Generate an instance and write its canonical files; returns the
    path of every file written."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    bundle = generate_instance(spec)
    paths = {key: out / name for key, name in FILE_NAMES.items() if key != "alloc"}
    write_prices(paths["prices"], bundle.realized, bundle.forecast)  # first: the one it can refuse
    write_buildings(paths["buildings"], bundle.buildings)
    write_weather(paths["weather"], bundle.weather)
    write_profiles(paths["profiles"], bundle.slf, bundle.cf)
    write_network(paths["nodes"], paths["edges"], bundle.network)
    log.info("wrote synthetic instance (%d buildings, %d days) to %s",
             spec.n_buildings, spec.n_days, out)
    return paths
