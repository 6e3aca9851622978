"""The click surface, driven end to end through CliRunner.

A tiny generated workspace keeps every command quick; the happy path
walks the whole chain the way the README does: generate, allocate, bid,
clear, simulate, report.
"""

import csv
import json
from datetime import date

import click
import pytest
from click.testing import CliRunner

from flexbid.cli import main
from flexbid.simulate import CampaignConfig

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


def test_clear_refuses_a_date_other_than_the_bids_day(workspace, runner):
    # the 11th's bids were once cleared against the 13th's prices
    assert runner.invoke(main, ["bid", str(workspace)] + FAST).exit_code == 0
    bids = workspace / "bids_2025-01-11.json"
    res = runner.invoke(main, ["clear", str(workspace), "--bids", str(bids),
                               "--date", "2025-01-13"])
    assert res.exit_code == 1
    assert res.stderr.startswith("error: ValueError")
    assert all(text in res.stderr for text in (str(bids), "2025-01-11", "2025-01-13"))
    assert not (workspace / "outcome_2025-01-13.json").exists()


def test_a_missing_config_fails_naming_it(workspace, runner):
    # it once ran on the built-in defaults
    missing = workspace / "nope.json"
    res = runner.invoke(main, ["simulate", str(workspace), "--config", str(missing),
                               "--start", "2025-01-11", "--days", "1"] + FAST)
    assert res.exit_code == 1
    assert str(missing) in res.stderr
    assert not (workspace / "report.csv").exists()


def test_each_campaign_flag_is_named_for_its_campaign_key():
    from flexbid.cli import CAMPAIGN_FLAGS, campaign_flags

    @click.command()
    @campaign_flags(*CAMPAIGN_FLAGS)
    def command(**flags):
        pass

    keys = CampaignConfig(start=date.min, days=1).to_dict()
    assert [param.name for param in command.params] == list(CAMPAIGN_FLAGS)
    assert set(CAMPAIGN_FLAGS) <= set(keys)


@pytest.mark.parametrize("command, option, value", [
    ("simulate", "--start", "2025-13-01"), ("bid", "--date", "2025-13-01"),
    ("clear", "--date", "2025-13-01"),
    # the lists were once read after the bid-budget sweep had rewritten its tables
    ("report", "--bids", "1,2.5"), ("report", "--shares", "30,abc"),
    ("report", "--shares", "30,nan"), ("report", "--volatilities", "1.0,x"),
    # and the values SyntheticSpec refuses were once found only when their sweep began
    ("report", "--shares", "150"), ("report", "--volatilities", "-1"),
])
def test_bad_option_values_fail_naming_the_option_and_value(workspace, runner, command,
                                                            option, value):
    res = runner.invoke(main, [command, str(workspace), option, value])
    assert res.exit_code == 2
    assert f"Invalid value for '{option}'" in res.stderr
    assert f"'{value}'" in res.stderr
    assert not (workspace / "efficiency-vs-bids.csv").exists()


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


def test_misused_settings_fail_before_the_campaign(workspace, runner):
    res = runner.invoke(main, ["simulate", str(workspace), "--facets", "2"] + FAST)
    assert res.exit_code == 1
    assert res.stderr.startswith("error: ValueError: facets must be >= 3")
    assert not (workspace / "report.csv").exists()


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


@pytest.mark.parametrize("budgets", ["-1,2", "0", "99"])
def test_report_rejects_bid_budgets_outside_the_scenario_count(workspace, runner, budgets):
    """-1 once wrote a max_bids = -1 row cleared from all but the last
    scenario; 99, dropped for the 4-scenario count, left no budget."""
    res = runner.invoke(main, [
        "report", str(workspace), "--days", "1", "--scenarios", "4", f"--bids={budgets}",
        "--shares", "30", "--volatilities", "1.0",
    ])
    assert res.exit_code == 1
    assert "error: ValueError: bid budgets must lie in 1..4" in res.stderr
    assert not (workspace / "efficiency-vs-bids.csv").exists()


def test_report_drops_bid_budgets_above_the_bid_cap(workspace, runner):
    """A budget above the 24-bid cap once aborted the whole report, while
    one above the scenario count was dropped with a note."""
    res = runner.invoke(main, [
        "report", str(workspace), "--days", "1", "--scenarios", "30", "--bids", "1,30",
        "--shares", "30", "--volatilities", "1.0",
    ])
    assert res.exit_code == 0, res.output
    assert "dropping bid budgets above 24" in res.stderr
    with (workspace / "efficiency-vs-bids.csv").open() as fh:
        assert [r["max_bids"] for r in csv.DictReader(fh)] == ["1"]


def test_report_names_the_failed_days_and_exits_1(workspace, runner):
    # the synthetic section stops a day short of the files: the share and
    # volatility sweeps fail the last campaign day, the bid sweep does not
    payload = json.loads((workspace / "campaign.json").read_text())
    payload["synthetic"]["n_days"] = 12
    (workspace / "campaign.json").write_text(json.dumps(payload))
    res = runner.invoke(main, [
        "report", str(workspace), "--scenarios", "4", "--bids", "1",
        "--shares", "30", "--volatilities", "1.0",
    ])
    assert res.exit_code == 1
    failed = [line for line in res.stderr.splitlines() if line.startswith("failed")]
    assert failed == [
        "failed 2025-01-13 (share 30 %): GridMismatch: weather data does not cover 2025-01-13",
        "failed 2025-01-13 (volatility 1): GridMismatch: weather data does not cover 2025-01-13",
    ]
    with (workspace / "savings-vs-volatility.csv").open() as fh:
        assert [row["date"] for row in csv.DictReader(fh)] == ["2025-01-11", "2025-01-12"]
    with (workspace / "efficiency-vs-bids.csv").open() as fh:
        assert len(list(csv.DictReader(fh))) == 1


def test_a_campaign_without_a_settled_day_writes_empty_totals(workspace, runner):
    # every day lies past the data: a sum over no days once read as 0
    payload = json.loads((workspace / "campaign.json").read_text())
    payload["campaign"]["start"] = "2025-02-01"
    (workspace / "campaign.json").write_text(json.dumps(payload))
    res = runner.invoke(main, [
        "report", str(workspace), "--days", "1", "--scenarios", "4", "--bids", "1",
        "--shares", "30", "--volatilities", "1.0",
    ])
    assert res.exit_code == 1
    assert "failed 2025-02-01 (bid budgets): GridMismatch" in res.stderr
    read = (workspace / "efficiency-vs-bids.csv").read_text().splitlines()
    assert read[1:] == ["1,,,,"]
    assert (workspace / "runtime-vs-bids.csv").read_text().splitlines()[1:] == ["1,"]
    with (workspace / "efficiency-vs-share.csv").open() as fh:
        (row,) = csv.DictReader(fh)
    assert row.pop("share_pct") == "30.000000" and int(row.pop("n_hps")) > 0
    assert set(row.values()) == {""}


def test_simulate_without_a_settled_day_writes_null_totals(workspace, runner):
    # every day lies past the data: a sum over no days once read as 0
    payload = json.loads((workspace / "campaign.json").read_text())
    payload["campaign"]["start"] = "2025-02-01"
    (workspace / "campaign.json").write_text(json.dumps(payload))
    res = runner.invoke(main, ["simulate", str(workspace), "--days", "1", *FAST])
    assert res.exit_code == 1
    assert "failed 2025-02-01: GridMismatch" in res.stderr
    assert "0 days, 4 heat pumps: no day settled" in res.stdout
    assert "savings" not in res.stdout
    summary = json.loads((workspace / "summary.json").read_text())
    assert summary.pop("days") == 0 and summary.pop("failed_days") == 1
    assert summary.pop("n_flexible") == 4
    assert (summary.pop("mode"), summary.pop("pricing")) == ("unbundled", "truthful")
    assert len(summary) == 10 and set(summary.values()) == {None}


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
    (lambda payload: payload["campaign"].update(scenarioz=24), "unknown keys: campaign.scenarioz"),
    (lambda payload: payload["campaign"].update(days=2.5), "campaign.days"),
    # once a bare ValueError from CampaignConfig, naming neither file nor key
    (lambda payload: payload["campaign"].update(start="2025-13-01"), "campaign.start"),
    # simulate once failed with a bare ValueError, and allocate ran on it
    (lambda payload: payload["campaign"].update(mode="bogus"), "campaign: mode must be one of"),
    (lambda payload: payload["campaign"].update(facets=2), "campaign: facets must be >= 3"),
    (lambda payload: payload["synthetic"].update(seedz=1), "unknown keys: synthetic.seedz"),
    # nothing read synthetic.rar; the campaign's rar sets the reactive load
    (lambda payload: payload["synthetic"].update(rar=0.05), "unknown keys: synthetic.rar"),
    (lambda payload: payload.update(
        synthetic={k: v for k, v in payload["synthetic"].items() if k != "start"}),
     "missing key: synthetic.start"),
    (lambda payload: payload["synthetic"].update(n_buildings="12"), "synthetic.n_buildings"),
    (lambda payload: payload["synthetic"].update(r_th_range=[4.0]), "synthetic.r_th_range"),
    (lambda payload: payload["synthetic"].update(hp_share_pct=0), "hp_share_pct"),
    (lambda payload: payload["synthetic"].update(rating_margin=float("nan")),
     "synthetic: rating_margin must be finite"),
    # an edit that returns text writes it in place of the payload
    (lambda payload: json.dumps(payload, indent=1).replace('": ', '" ', 1), "campaign.json:2: "),
])
def test_unknown_workspace_keys_fail_naming_file_and_key(workspace, runner, edit, key):
    payload = json.loads((workspace / "campaign.json").read_text())
    (workspace / "campaign.json").write_text(edit(payload) or json.dumps(payload))
    for args in (["allocate", str(workspace)], ["simulate", str(workspace), *FAST],
                 ["bid", str(workspace)], ["report", str(workspace), "--days", "1"]):
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
