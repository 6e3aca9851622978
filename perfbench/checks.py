"""Answer checks: the paper's invariants on every run, committed reference
answers on the default seeds.

Each function returns a list of messages, one per failed check, so the
caller can count failures against the days attempted.
"""

from __future__ import annotations

import json
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"

# absolute EUR slack on the cost orderings, scaled by the day's cost
ORDER_TOL = 1e-6
# relative tolerance on reference totals; exact LP re-solves agree far closer
REF_RTOL = 1e-6


def answers(report) -> dict:
    """The outputs a speed-up must not change."""
    return {
        "tc_inf": report.tc_inf_total,
        "tc_cleared": report.tc_cleared_total,
        "tc_opt": report.tc_opt_total,
        "eta_weighted": report.eta_weighted,
        "n_bids": [d.n_bids for d in report.days],
        "accepted_index": [d.accepted_index for d in report.days],
    }


def invariant_issues(cfg, bundle, report) -> list[str]:
    """Cost orderings per day, then an independent feasibility re-check of
    every awarded schedule (unbundled) or of the cleared network dispatch
    (integrated)."""
    from flexbid.grid import OpfModel, verify_solution
    from flexbid.simulate import day_inputs
    from flexbid.thermal import baseline_profile, check_dispatch

    issues = []
    if report.eta_weighted is None:
        issues.append("campaign offers no attainable savings; eta is undefined")
    for d in report.days:
        tol = ORDER_TOL * max(1.0, abs(d.tc_inf))
        if d.tc_opt > d.tc_cleared + tol:
            issues.append(f"{d.day}: tc_opt {d.tc_opt!r} > tc_cleared {d.tc_cleared!r}")
        if d.tc_opt > d.tc_inf + tol:
            issues.append(f"{d.day}: tc_opt {d.tc_opt!r} > tc_inf {d.tc_inf!r}")

        inputs = day_inputs(cfg, bundle, d.day)
        flex = {b.id: b for b in inputs.buildings if b.has_hp and b.p_hp_rated > 0}
        if sorted(d.awarded_kw) != sorted(flex):
            issues.append(f"{d.day}: awarded schedules do not cover the heat pumps")
            continue
        if cfg.mode == "unbundled":
            problems = []
            for bid, sched in d.awarded_kw.items():
                b = flex[bid]
                energy = baseline_profile(b, cfg.comfort, inputs.t_out).energy
                problems += check_dispatch(b, cfg.comfort, inputs.t_out, sched, energy)
            if problems:
                issues.append(f"{d.day}: check_dispatch: {problems[0]} "
                              f"({len(problems)} problems)")
        else:
            model = OpfModel(
                inputs.network, inputs.buildings, inputs.alloc, cfg.comfort,
                inputs.t_out, inputs.series, voll=cfg.voll, facets=cfg.facets,
            )
            sol = model.solve(inputs.realized, hp_fixed=d.awarded_kw)
            problems = verify_solution(model, sol)
            if problems:
                issues.append(f"{d.day}: verify_solution: {problems[0]} "
                              f"({len(problems)} problems)")
            if abs(sol.objective_eur - d.tc_cleared) > tol:
                issues.append(f"{d.day}: re-solved cleared cost {sol.objective_eur!r} "
                              f"!= tc_cleared {d.tc_cleared!r}")
    return issues


def reference_issues(ref: dict, got: dict) -> list[str]:
    """Compare answers to a committed reference; lp_solves is compared
    only when both sides carry it (traced runs count LPs)."""
    issues = []
    for key in ("tc_inf", "tc_cleared", "tc_opt", "eta_weighted"):
        want, have = ref[key], got[key]
        if have is None or abs(have - want) > REF_RTOL * max(1.0, abs(want)):
            issues.append(f"{key}: {have!r} differs from reference {want!r}")
    for key in ("n_bids", "accepted_index"):
        if got[key] != ref[key]:
            issues.append(f"{key}: {got[key]} differs from reference {ref[key]}")
    if "lp_solves" in got and got["lp_solves"] != ref["lp_solves"]:
        issues.append(f"lp_solves: {got['lp_solves']} differs from reference {ref['lp_solves']}")
    return issues


def load_reference(workload: str, seed: int) -> dict | None:
    """The committed answers for (workload, seed), if any."""
    if not REFERENCE.is_file():
        return None
    entry = json.loads(REFERENCE.read_text()).get(workload)
    if entry is None or entry["seed"] != seed:
        return None
    return entry


def store_reference(workload: str, entry: dict) -> None:
    table = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    table[workload] = entry
    REFERENCE.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
