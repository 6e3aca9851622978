"""The click surface, driven end to end through CliRunner.

A tiny generated workspace keeps every command quick; the happy path
walks the whole chain the way the README does: generate, allocate, bid,
clear, simulate, report.
"""

import csv
import json

import pytest
from click.testing import CliRunner

from flexbid.cli import main

GEN_ARGS = [
    "generate", "--seed", "5", "--buildings", "8", "--share", "50",
    "--days", "13", "--branching", "2", "--depth", "2",
]
# small scenario set so the LP-heavy commands stay snappy
FAST = ["--scenarios", "4", "--max-bids", "4"]


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def workspace(tmp_path, runner):
    ws = tmp_path / "ws"
    res = runner.invoke(main, GEN_ARGS + ["--out", str(ws)])
    assert res.exit_code == 0, res.output
    return ws


def test_generate_lays_down_a_runnable_workspace(workspace):
    names = {p.name for p in workspace.iterdir()}
    assert names >= {"buildings.csv", "weather.csv", "prices.csv",
                     "profiles.csv", "nodes.csv", "edges.csv", "campaign.json"}
    payload = json.loads((workspace / "campaign.json").read_text())
    assert payload["campaign"]["start"] == "2025-01-11"  # ten warm-up days
    assert payload["campaign"]["days"] == 3
    assert payload["synthetic"]["seed"] == 5


def test_allocate_places_every_building(workspace, runner):
    res = runner.invoke(main, ["allocate", str(workspace)])
    assert res.exit_code == 0, res.output
    alloc = json.loads((workspace / "alloc.json").read_text())
    assert len(alloc) == 8
    assert "assigned 8 buildings" in res.output


def test_allocate_without_network_files_fails_cleanly(workspace, runner):
    (workspace / "nodes.csv").unlink()
    (workspace / "edges.csv").unlink()
    res = runner.invoke(main, ["allocate", str(workspace)])
    assert res.exit_code == 1
    assert "error: GridMismatch" in res.stderr


def test_bid_and_clear_round_trip(workspace, runner):
    res = runner.invoke(main, ["bid", str(workspace)] + FAST)
    assert res.exit_code == 0, res.output
    bids = json.loads((workspace / "bids_2025-01-11.json").read_text())
    assert bids["day"] == "2025-01-11" and bids["pricing_mode"] == "truthful"
    assert 1 <= len(bids["bids"]) <= 4
    assert all(len(b["profile_mw"]) == 24 for b in bids["bids"])

    res = runner.invoke(main, ["clear", str(workspace), "--date", "2025-01-11"])
    assert res.exit_code == 0, res.output
    outcome = json.loads((workspace / "outcome_2025-01-11.json").read_text())
    assert outcome["day"] == "2025-01-11"
    assert "accepted_index" in outcome


def test_bid_integrated_mode_allocates_on_the_fly(workspace, runner):
    assert not (workspace / "alloc.json").exists()
    res = runner.invoke(
        main, ["bid", str(workspace), "--mode", "integrated"] + FAST
    )
    assert res.exit_code == 0, res.output
    assert (workspace / "bids_2025-01-11.json").exists()


def test_clear_needs_a_date_or_a_bids_file(workspace, runner):
    res = runner.invoke(main, ["clear", str(workspace)])
    assert res.exit_code == 1
    assert "pass --date or --bids" in res.stderr


def test_simulate_writes_the_campaign_outputs(workspace, runner):
    res = runner.invoke(main, ["simulate", str(workspace)] + FAST)
    assert res.exit_code == 0, res.output
    with (workspace / "report.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert [r["date"] for r in rows] == ["2025-01-11", "2025-01-12", "2025-01-13"]
    summary = json.loads((workspace / "summary.json").read_text())
    assert summary["days"] == 3 and summary["mode"] == "unbundled"
    assert (workspace / "schedules.csv").exists()
    assert "efficiency" in res.output


def test_settings_resolve_flag_then_file_then_default(workspace, runner):
    # campaign.json says three days; a flag must win, the file must beat
    # the built-in single-day fallback
    res = runner.invoke(main, ["simulate", str(workspace), "--days", "1"] + FAST)
    assert res.exit_code == 0, res.output
    assert json.loads((workspace / "summary.json").read_text())["days"] == 1

    res = runner.invoke(main, ["simulate", str(workspace)] + FAST)
    assert res.exit_code == 0, res.output
    assert json.loads((workspace / "summary.json").read_text())["days"] == 3

    bare = workspace / "bare.json"
    bare.write_text("{}\n")
    res = runner.invoke(
        main,
        ["simulate", str(workspace), "--config", str(bare),
         "--start", "2025-01-11"] + FAST,
    )
    assert res.exit_code == 0, res.output
    assert json.loads((workspace / "summary.json").read_text())["days"] == 1


def test_json_errors_are_machine_readable(workspace, runner):
    res = runner.invoke(
        main, ["bid", str(workspace), "--date", "2031-01-01", "--json-errors"]
    )
    assert res.exit_code == 1
    payload = json.loads(res.stderr)
    assert payload["error"] == "GridMismatch"
    assert "2031-01-01" in payload["message"]


def test_plain_errors_name_the_exception(workspace, runner):
    res = runner.invoke(main, ["simulate", str(workspace), "--max-bids", "25"])
    assert res.exit_code == 1
    assert res.stderr.startswith("error: ValueError")


def test_report_emits_the_trend_tables(workspace, runner):
    res = runner.invoke(main, [
        "report", str(workspace), "--days", "1", "--scenarios", "4",
        "--bids", "1,2,16", "--shares", "30", "--volatilities", "1.0",
    ])
    assert res.exit_code == 0, res.output
    with (workspace / "efficiency-vs-bids.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert [r["max_bids"] for r in rows] == ["1", "2"]  # 16 > scenario count
    assert "dropping bid budgets" in res.stderr
    for name in ("runtime-vs-bids.csv", "efficiency-vs-share.csv",
                 "runtime-vs-share.csv", "savings-vs-volatility.csv"):
        assert (workspace / name).exists()


def test_report_without_synthetic_section_skips_the_sweeps(workspace, runner):
    payload = json.loads((workspace / "campaign.json").read_text())
    del payload["synthetic"]
    (workspace / "campaign.json").write_text(json.dumps(payload))
    res = runner.invoke(
        main, ["report", str(workspace), "--days", "1", "--scenarios", "2",
               "--bids", "1,2"],
    )
    assert res.exit_code == 0, res.output
    assert "skipping the share" in res.stderr
    assert not (workspace / "efficiency-vs-share.csv").exists()


@pytest.mark.parametrize("edit, key", [
    (lambda payload: payload["paths"].update(buidlings="mine.csv"), "paths.buidlings"),
    (lambda payload: payload.update(campain={"days": 1}), "campain"),
    (lambda payload: payload["paths"].update(buildings=3), "paths.buildings"),
    (lambda payload: payload["campaign"].update(scenarios=None), "campaign.scenarios"),
])
def test_unknown_workspace_keys_fail_naming_file_and_key(workspace, runner, edit, key):
    payload = json.loads((workspace / "campaign.json").read_text())
    edit(payload)
    (workspace / "campaign.json").write_text(json.dumps(payload))
    for args in (["allocate", str(workspace)], ["simulate", str(workspace), *FAST]):
        res = runner.invoke(main, args)
        assert res.exit_code == 1
        assert res.stderr.startswith("error: SchemaError")
        assert "campaign.json" in res.stderr and key in res.stderr


@pytest.mark.parametrize("payload", [[], {"paths": ["buildings.csv"]}, {"campaign": 3}])
def test_non_object_workspace_sections_fail_cleanly(workspace, runner, payload):
    (workspace / "campaign.json").write_text(json.dumps(payload))
    res = runner.invoke(main, ["allocate", str(workspace)])
    assert res.exit_code == 1
    assert res.stderr.startswith("error: SchemaError") and "campaign.json" in res.stderr
