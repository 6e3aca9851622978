"""Command-line surface: generate, allocate, bid, clear, simulate, report.

Commands operate on a workspace directory holding the instance CSVs and
a campaign.json with file paths and campaign settings.  Precedence for
every setting is CLI flag > campaign.json > built-in default.  Errors
exit nonzero; --json-errors switches the message to a JSON object on
stderr for machine consumption.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import logging
import math
import sys
from datetime import date, timedelta
from pathlib import Path

import click

from .bidding import MAX_BIDS, read_bids, write_bids
from .clearing import clear
from .errors import FlexbidError, GridMismatch, SchemaError
from .grid import allocate_buildings
from .ingest import ingest, read_json, settings, write_alloc, write_csv
from .simulate import (
    FORECASTERS,
    MODES,
    PRICINGS,
    CampaignConfig,
    CampaignReport,
    campaign_alloc,
    day_bids,
    day_inputs,
    efficiency_vs_bids,
    run_campaign,
    write_report_csv,
    write_schedules_csv,
)
from .synthetic import SyntheticSpec, generate_instance, generate_synthetic

log = logging.getLogger(__name__)

# history the scenario engine sees before the first delivery day
WARMUP_DAYS = 10

FILE_DEFAULTS = {
    "buildings": "buildings.csv",
    "weather": "weather.csv",
    "prices": "prices.csv",
    "profiles": "profiles.csv",
    "nodes": "nodes.csv",
    "edges": "edges.csv",
    "alloc": "alloc.json",
}
REQUIRED_FILES = ("buildings", "weather", "prices", "profiles")
# the top-level sections of campaign.json, each with the reader that
# checks it; the campaign section may leave start and days to the flags
SECTIONS = {
    "paths": lambda body: settings(body, FILE_DEFAULTS, "paths"),
    "campaign": lambda body: CampaignConfig.from_dict(
        {"start": date.min.isoformat(), "days": 1, **body}),
    "synthetic": SyntheticSpec.from_dict,
}


def guarded(fn):
    """Turn domain errors into clean nonzero exits (JSON on request)."""

    @functools.wraps(fn)
    def inner(**kwargs):
        try:
            fn(**kwargs)
        except (FlexbidError, ValueError, OSError) as exc:
            if kwargs.get("json_errors"):
                click.echo(
                    json.dumps({"error": type(exc).__name__, "message": str(exc)}),
                    err=True,
                )
            else:
                click.echo(f"error: {type(exc).__name__}: {exc}", err=True)
            sys.exit(1)

    return inner


def _load_workspace(workdir: str, config_path: str | None) -> tuple[dict, Path]:
    """Return (campaign.json contents, directory paths are relative to),
    every section checked, so a command fails on a bad one before it
    does any work.  Only the default campaign.json may be absent; a
    SchemaError names the file."""
    cfg_file = Path(config_path) if config_path else Path(workdir) / "campaign.json"
    if not config_path and not cfg_file.exists():
        return {}, Path(workdir)
    raw = read_json(cfg_file)
    if not isinstance(raw, dict) or not all(isinstance(section, dict) for section in raw.values()):
        raise SchemaError(f"{cfg_file}: the file and each of its sections must be JSON objects")
    unknown = [key for key in raw if key not in SECTIONS]
    if unknown:
        raise SchemaError(f"{cfg_file}: unknown keys: {', '.join(unknown)}")
    for section, body in raw.items():
        try:
            SECTIONS[section](body)
        except SchemaError as exc:
            raise SchemaError(f"{cfg_file}: {exc}") from None
        except ValueError as exc:
            raise SchemaError(f"{cfg_file}: {section}: {exc}") from None
    return raw, cfg_file.parent


def _resolve_paths(raw: dict, base: Path) -> dict[str, Path | None]:
    names = dict(FILE_DEFAULTS)
    names.update(raw.get("paths", {}))
    paths = {key: base / rel for key, rel in names.items()}
    out: dict[str, Path | None] = {
        key: (p if p.exists() else None) for key, p in paths.items()
    }
    missing = [key for key in REQUIRED_FILES if out[key] is None]
    if missing:
        raise SchemaError(
            f"missing instance files under {base}: "
            + ", ".join(str(paths[key]) for key in missing)
        )
    return out


def _load_bundle(paths: dict[str, Path | None]):
    return ingest(
        paths["buildings"], paths["weather"], paths["prices"], paths["profiles"],
        nodes=paths["nodes"], edges=paths["edges"], alloc=paths["alloc"],
    )


# Each campaign flag, keyed by the campaign.json key it overrides and
# read in that key's JSON shape; a flag not given (None) leaves the key
# to campaign.json
CAMPAIGN_FLAGS = {
    "start": click.option("--start", type=click.DateTime(["%Y-%m-%d"]),
                          callback=lambda ctx, param, value: value and value.date().isoformat(),
                          help="first delivery day YYYY-MM-DD"),
    "days": click.option("--days", type=int, help="campaign length in delivery days"),
    "scenarios": click.option("--scenarios", type=int, help="price scenarios per day"),
    "max_bids": click.option("--max-bids", type=int),
    "mode": click.option("--mode", type=click.Choice(MODES)),
    "pricing": click.option("--pricing", type=click.Choice(PRICINGS)),
    "facets": click.option("--facets", type=int),
    "forecaster": click.option("--forecaster", type=click.Choice(FORECASTERS)),
}


def campaign_flags(*keys):
    """Decorate a command with the CAMPAIGN_FLAGS named by keys, in order."""
    return lambda fn: functools.reduce(lambda f, key: CAMPAIGN_FLAGS[key](f), reversed(keys), fn)


def _campaign_config(raw: dict, **flags) -> CampaignConfig:
    """campaign.json's campaign settings, overridden by the flags given."""
    body = dict(raw.get("campaign", {}))
    body.update((key, val) for key, val in flags.items() if val is not None)
    if "start" not in body:
        raise ValueError("no campaign start date; pass --start or provide campaign.json")
    body.setdefault("days", 1)
    return CampaignConfig.from_dict(body)


def _echo_summary(report: CampaignReport) -> None:
    if not report.days:
        click.echo(f"0 days, {report.n_flexible} heat pumps: no day settled")
        return
    eta_w = report.eta_weighted
    click.echo(
        f"{len(report.days)} days, {report.n_flexible} heat pumps: "
        f"inflexible {report.tc_inf_total:.2f} EUR, "
        f"cleared {report.tc_cleared_total:.2f} EUR, "
        f"optimal {report.tc_opt_total:.2f} EUR"
    )
    click.echo(
        f"savings {report.savings_eur:.2f} EUR "
        f"({report.savings_per_hp_eur:.2f} EUR per heat pump), "
        f"efficiency {'n/a' if eta_w is None else f'{eta_w:.4f}'}"
    )


@click.group()
@click.option("-v", "--verbose", is_flag=True, help="log progress to stderr")
def main(verbose: bool):
    """Flexibility aggregation and block-bid simulation toolkit."""
    logging.basicConfig(
        level=logging.INFO if verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )


@main.command()
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False),
              help="directory for the generated instance")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--buildings", "n_buildings", type=int, default=30, show_default=True)
@click.option("--share", type=float, default=30.0, show_default=True,
              help="heat-pump share in percent")
@click.option("--days", "n_days", type=int, default=40, show_default=True,
              help="calendar days including forecast warm-up")
@click.option("--volatility", type=float, default=1.0, show_default=True,
              help="price-surprise scale; 0 gives flat-forecast days")
@click.option("--start", type=click.DateTime(["%Y-%m-%d"]), default="2025-01-01",
              show_default=True)
@click.option("--branching", type=int, default=3, show_default=True,
              help="feeder arms off the substation")
@click.option("--depth", type=int, default=3, show_default=True,
              help="nodes per feeder arm")
@click.option("--json-errors", is_flag=True)
@guarded
def generate(out_dir, seed, n_buildings, share, n_days, volatility, start,
             branching, depth, json_errors):
    """Write a synthetic instance plus a ready-to-run campaign.json."""
    spec = SyntheticSpec(
        n_buildings=n_buildings, hp_share_pct=share, start=start.date(),
        n_days=n_days, seed=seed, volatility=volatility,
        branching=branching, depth=depth,
    )
    out = Path(out_dir)
    files = generate_synthetic(spec, out)
    warm = min(WARMUP_DAYS, n_days - 1)
    campaign = CampaignConfig(
        start=spec.start + timedelta(days=warm), days=n_days - warm,
    )
    payload = {
        "paths": {key: p.name for key, p in files.items()},
        "campaign": campaign.to_dict(),
        "synthetic": spec.to_dict(),
    }
    cfg_path = out / "campaign.json"
    cfg_path.write_text(json.dumps(payload, indent=2) + "\n")
    for key in sorted(files):
        click.echo(f"wrote {files[key]}")
    click.echo(f"wrote {cfg_path}")


@main.command()
@click.argument("workdir", type=click.Path(file_okay=False, exists=True), default=".")
@click.option("--config", "config_path", type=click.Path(dir_okay=False), default=None)
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None,
              help="where to write the assignment (default: alloc.json in the workspace)")
@click.option("--json-errors", is_flag=True)
@guarded
def allocate(workdir, config_path, out_path, json_errors):
    """Assign buildings to feeder nodes, distance-minimal and capacity-aware."""
    raw, base = _load_workspace(workdir, config_path)
    paths = _resolve_paths(raw, base)
    bundle = _load_bundle(paths)
    if bundle.network is None:
        raise GridMismatch("allocation needs nodes.csv and edges.csv")
    alloc = allocate_buildings(bundle.buildings, bundle.network)
    target = Path(out_path) if out_path else \
        base / raw.get("paths", {}).get("alloc", FILE_DEFAULTS["alloc"])
    write_alloc(target, alloc)
    click.echo(
        f"assigned {len(alloc)} buildings across "
        f"{len(set(alloc.values()))} nodes -> {target}"
    )


@main.command("bid")
@click.argument("workdir", type=click.Path(file_okay=False, exists=True), default=".")
@click.option("--date", "day", type=click.DateTime(["%Y-%m-%d"]), default=None,
              help="delivery day YYYY-MM-DD (default: first campaign day)")
@click.option("--config", "config_path", type=click.Path(dir_okay=False), default=None)
@campaign_flags("scenarios", "max_bids", "mode", "pricing", "facets", "forecaster")
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None)
@click.option("--json-errors", is_flag=True)
@guarded
def bid_command(workdir, day, config_path, out_path, json_errors, **flags):
    """Build one day's exclusive group of block bids and write bids.json."""
    raw, base = _load_workspace(workdir, config_path)
    cfg = _campaign_config(raw, **flags)
    bundle = _load_bundle(_resolve_paths(raw, base))
    day = day.date() if day else cfg.start
    inputs = day_inputs(cfg, bundle, day, alloc=campaign_alloc(cfg, bundle))
    group, _ = day_bids(cfg, inputs)
    target = Path(out_path) if out_path else base / f"bids_{day.isoformat()}.json"
    write_bids(target, group, day, cfg.pricing)
    click.echo(f"{len(group.bids)} bids for {day} -> {target}")


@main.command("clear")
@click.argument("workdir", type=click.Path(file_okay=False, exists=True), default=".")
@click.option("--date", "day", type=click.DateTime(["%Y-%m-%d"]), default=None,
              help="delivery day YYYY-MM-DD (default: taken from the bids file)")
@click.option("--bids", "bids_path", type=click.Path(dir_okay=False), default=None,
              help="bids.json to clear (default: bids_<date>.json in the workspace)")
@click.option("--config", "config_path", type=click.Path(dir_okay=False), default=None)
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None)
@click.option("--json-errors", is_flag=True)
@guarded
def clear_command(workdir, day, bids_path, config_path, out_path, json_errors):
    """Clear a bids.json against the realized prices of its delivery day."""
    raw, base = _load_workspace(workdir, config_path)
    day = day.date() if day else None
    if bids_path is None:
        if day is None:
            raise ValueError("pass --date or --bids to locate the bids file")
        bids_path = base / f"bids_{day.isoformat()}.json"
    group, header = read_bids(bids_path)
    day, asked = date.fromisoformat(header["day"]), day
    if asked not in (None, day):
        raise ValueError(f"{bids_path} holds the bids for {day}, not for --date {asked}")
    bundle = _load_bundle(_resolve_paths(raw, base))
    if day not in bundle.realized:
        raise GridMismatch(f"prices data does not cover {day}")
    outcome = clear(group, bundle.realized[day])
    payload = {"day": day.isoformat(), "accepted_index": outcome.accepted_index}
    payload.update(outcome.to_dict())
    target = Path(out_path) if out_path else base / f"outcome_{day.isoformat()}.json"
    target.write_text(json.dumps(payload, indent=2) + "\n")
    if outcome.accepted_index is None:
        click.echo(f"no bid accepted for {day} -> {target}")
    else:
        click.echo(
            f"accepted bid {outcome.accepted_index} of {len(group.bids)} "
            f"(payment {outcome.payment:.2f} EUR) -> {target}"
        )


@main.command("simulate")
@click.argument("workdir", type=click.Path(file_okay=False, exists=True), default=".")
@click.option("--config", "config_path", type=click.Path(dir_okay=False), default=None)
@campaign_flags("start", "days", "scenarios", "max_bids", "mode", "pricing", "facets",
                "forecaster")
@click.option("--out", "out_dir", type=click.Path(file_okay=False), default=None,
              help="output directory (default: the workspace)")
@click.option("--json-errors", is_flag=True)
@guarded
def simulate_command(workdir, config_path, out_dir, json_errors, **flags):
    """Run the rolling campaign; write report.csv, schedules.csv, summary.json."""
    raw, base = _load_workspace(workdir, config_path)
    cfg = _campaign_config(raw, **flags)
    bundle = _load_bundle(_resolve_paths(raw, base))
    report = run_campaign(cfg, bundle)
    out = Path(out_dir) if out_dir else base
    out.mkdir(parents=True, exist_ok=True)
    write_report_csv(out / "report.csv", report)
    write_schedules_csv(out / "schedules.csv", report)
    summary = {
        "mode": cfg.mode,
        "pricing": cfg.pricing,
        "days": len(report.days),
        "failed_days": len(report.failures),
        "n_flexible": report.n_flexible,
    }
    # a sum over no settled days is no result: null, as report's empty cells
    totals = {
        "tc_inf_eur": report.tc_inf_total,
        "tc_cleared_eur": report.tc_cleared_total,
        "tc_opt_eur": report.tc_opt_total,
        "savings_eur": report.savings_eur,
        "savings_per_hp_eur": report.savings_per_hp_eur,
        "eta_weighted": report.eta_weighted,
        "eta_mean": report.eta_mean,
        "shed_kwh": report.shed_kwh_total,
        "runtime_dispatch_s": report.runtime_total("dispatch"),
        "runtime_clearing_s": report.runtime_total("clearing"),
    }
    summary.update((key, value if report.days else None) for key, value in totals.items())
    (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    _echo_summary(report)
    click.echo(f"wrote {out / 'report.csv'}, {out / 'schedules.csv'}, {out / 'summary.json'}")
    _exit_on_failures([("", day, msg) for day, msg in report.failures])


def _exit_on_failures(failures: list[tuple[str, date, str]]) -> None:
    """Name each failed (where, day, message) on stderr, then exit 1."""
    for where, day, msg in failures:
        click.echo(f"failed {day}{where}: {msg}", err=True)
    if failures:
        sys.exit(1)


def _numbers(kind):
    """A click callback reading a comma-separated list of finite `kind`s,
    so that a bad list exits 2, naming its option, before any work."""

    def parse(ctx, param, value: str) -> list:
        try:
            values = [kind(tok) for tok in value.split(",") if tok.strip()]
            if all(map(math.isfinite, values)):
                return values
        except ValueError:
            pass
        raise click.BadParameter(f"{value!r} is not a comma-separated list of finite "
                                 f"{kind.__name__} values")

    return parse


def _varied(spec: SyntheticSpec, option: str, knob: str, value: float) -> SyntheticSpec:
    """spec with knob set to value; a value it refuses exits 2 naming option."""
    try:
        return dataclasses.replace(spec, **{knob: value})
    except ValueError as exc:
        raise click.BadParameter(f"'{value:g}': {exc}", param_hint=f"'{option}'") from None


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def _totals(rep: CampaignReport, *values) -> list[str]:
    """A campaign's totals as cells, empty for a campaign without a
    settled day: a sum over no days is no result."""
    return [_fmt(value) if rep.days else "" for value in values]


@main.command("report")
@click.argument("workdir", type=click.Path(file_okay=False, exists=True), default=".")
@click.option("--config", "config_path", type=click.Path(dir_okay=False), default=None)
@campaign_flags("days", "scenarios", "mode")
@click.option("--bids", default="1,2,4,8,16,24", show_default=True, callback=_numbers(int),
              help="bid budgets to sweep")
@click.option("--shares", default="15,30,45,60", show_default=True, callback=_numbers(float),
              help="heat-pump shares to sweep (synthetic workspaces only)")
@click.option("--volatilities", default="0.5,1.0,1.5,2.0", show_default=True,
              callback=_numbers(float), help="price-volatility scales to sweep")
@click.option("--out", "out_dir", type=click.Path(file_okay=False), default=None)
@click.option("--json-errors", is_flag=True)
@guarded
def report_command(workdir, config_path, bids, shares, volatilities, out_dir, json_errors,
                   **flags):
    """Emit the trend tables: efficiency and runtime vs bid budget and
    heat-pump share, and savings vs price volatility.  Each failed day is
    named on stderr, and the command exits 1 after writing the tables."""
    raw, base = _load_workspace(workdir, config_path)
    cfg = _campaign_config(raw, **flags)
    if "synthetic" in raw:  # every sweep's spec, so a bad one fails before any table
        base_spec = SyntheticSpec.from_dict(raw["synthetic"])
        share_specs = [_varied(base_spec, "--shares", "hp_share_pct", v) for v in shares]
        vol_specs = [_varied(base_spec, "--volatilities", "volatility", v) for v in volatilities]
    bundle = _load_bundle(_resolve_paths(raw, base))
    out = Path(out_dir) if out_dir else base
    out.mkdir(parents=True, exist_ok=True)
    written = []

    b_values = sorted(set(bids))
    top = min(cfg.s_count, MAX_BIDS)
    usable = [b for b in b_values if b <= top]
    if usable != b_values:
        click.echo(
            f"note: dropping bid budgets above {top}, the lesser of the "
            f"{cfg.s_count}-scenario count and the {MAX_BIDS}-bid cap",
            err=True,
        )
    bid_reports = efficiency_vs_bids(cfg, bundle, b_values=usable)
    failures = [(" (bid budgets)", day, msg) for day, msg in bid_reports[0].failures]
    write_csv(
        out / "efficiency-vs-bids.csv",
        ["max_bids", "eta", "tc_cleared_eur", "tc_inf_eur", "tc_opt_eur"],
        [[rep.config.max_bids, *_totals(rep, rep.eta_weighted, rep.tc_cleared_total,
                                        rep.tc_inf_total, rep.tc_opt_total)]
         for rep in bid_reports],
    )
    write_csv(
        out / "runtime-vs-bids.csv",
        ["max_bids", "clearing_s"],
        [[rep.config.max_bids, *_totals(rep, rep.runtime_total("clearing"))]
         for rep in bid_reports],
    )
    written += ["efficiency-vs-bids.csv", "runtime-vs-bids.csv"]

    if "synthetic" in raw:
        share_rows, share_runtime = [], []
        for share, spec in zip(shares, share_specs):
            rep = run_campaign(cfg, generate_instance(spec))
            failures += [(f" (share {share:g} %)", day, msg) for day, msg in rep.failures]
            share_rows.append([
                _fmt(share), rep.n_flexible,
                *_totals(rep, rep.eta_weighted, rep.eta_mean, rep.savings_eur,
                         rep.savings_per_hp_eur, rep.shed_kwh_total),
            ])
            share_runtime.append([
                _fmt(share), rep.n_flexible,
                *_totals(rep, rep.runtime_total("dispatch"), rep.runtime_total("clearing")),
            ])
        write_csv(
            out / "efficiency-vs-share.csv",
            ["share_pct", "n_hps", "eta_weighted", "eta_mean", "savings_eur",
             "savings_per_hp_eur", "shed_kwh"],
            share_rows,
        )
        write_csv(
            out / "runtime-vs-share.csv",
            ["share_pct", "n_hps", "dispatch_s", "clearing_s"],
            share_runtime,
        )
        written += ["efficiency-vs-share.csv", "runtime-vs-share.csv"]

        vol_rows = []
        for vol, spec in zip(volatilities, vol_specs):
            rep = run_campaign(cfg, generate_instance(spec))
            failures += [(f" (volatility {vol:g})", day, msg) for day, msg in rep.failures]
            for d in rep.days:
                vol_rows.append([
                    _fmt(vol), d.day.isoformat(), _fmt(d.price_std),
                    _fmt(d.tc_inf - d.tc_cleared),
                    _fmt((d.tc_inf - d.tc_cleared) / max(1, rep.n_flexible)),
                ])
        write_csv(
            out / "savings-vs-volatility.csv",
            ["volatility", "date", "price_std_eur_mwh", "savings_eur",
             "savings_per_hp_eur"],
            vol_rows,
        )
        written.append("savings-vs-volatility.csv")
    else:
        click.echo(
            "note: no synthetic section in campaign.json; skipping the share "
            "and volatility sweeps", err=True,
        )

    for name in written:
        click.echo(f"wrote {out / name}")
    _exit_on_failures(failures)


if __name__ == "__main__":
    main()
