"""In-memory span recorder and the patches that time flexbid's layers.

Spans are recorded from the benchmark's side of each layer boundary: the
patched names are the public functions and methods flexbid's own modules
call, so nothing inside ``src/flexbid`` changes.  A span is
``(id, parent, name, start, end, attrs)``; ``parent`` is the id of the
span that was open when the call began (-1 at the top).
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

_perf = time.perf_counter


class Tracer:
    """Records nested spans through wrapped callables and patched names."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, attrs=None):
        """Wrap fn so each call records a span; attrs(args, kwargs, result)
        may return a dict stored with it."""
        spans, stack = self.spans, self._stack

        def wrapped(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = _perf()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                spans[sid] = [sid, parent, name, t0, _perf(), {"error": type(exc).__name__}]
                raise
            finally:
                stack.pop()
            t1 = _perf()
            spans[sid] = [sid, parent, name, t0, t1, attrs(args, kwargs, out) if attrs else None]
            return out

        return wrapped

    def patch(self, owner, attr: str, name: str, attrs=None) -> None:
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.span(name, original, attrs))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start a fresh list."""
        out = self.spans[:]
        self.spans.clear()
        return out


def _lp_attrs(args, kwargs, res):
    return {"status": int(res.status), "nit": int(res.nit)}


def _opf_lp_attrs(args, kwargs, res):
    return {**_lp_attrs(args, kwargs, res), "nnz": kwargs["A_ub"].nnz + kwargs["A_eq"].nnz}


def _group_attrs(args, kwargs, out):
    return {"scenarios_in": len(args[0]), "bids_out": len(out[0].bids)}


def _clear_attrs(args, kwargs, outcome):
    return {"accepted": outcome.accepted_index is not None}


def install(tracer: Tracer) -> None:
    """Patch every layer boundary the benchmark measures."""
    import scipy.optimize._highspy._core as highs_core

    import flexbid.grid as grid
    import flexbid.simulate as simulate
    import flexbid.thermal as thermal

    tracer.patch(simulate, "run_day", "simulate.run_day")
    tracer.patch(simulate, "generate_scenarios", "scenarios.generate_scenarios")
    tracer.patch(simulate, "build_exclusive_group", "bidding.build_exclusive_group",
                 _group_attrs)
    tracer.patch(simulate, "clear", "clearing.clear", _clear_attrs)
    tracer.patch(simulate, "disaggregate", "bidding.disaggregate")
    tracer.patch(simulate, "profile_cost", "thermal.profile_cost")
    tracer.patch(thermal.DispatchModel, "__init__", "thermal.DispatchModel.__init__")
    tracer.patch(thermal.DispatchModel, "solve", "thermal.DispatchModel.solve")
    tracer.patch(grid.OpfModel, "__init__", "grid.OpfModel.__init__")
    tracer.patch(grid.OpfModel, "solve", "grid.OpfModel.solve")
    tracer.patch(thermal, "linprog", "thermal.linprog", _lp_attrs)
    tracer.patch(grid, "linprog", "grid.linprog", _opf_lp_attrs)
    tracer.patch(highs_core._Highs, "run", "highs.run")


def write_jsonl(path: Path, batches: list[tuple[str, list[list]]]) -> None:
    """One JSON object per span; span ids are unique within a batch."""
    with path.open("w") as fh:
        for batch, spans in batches:
            for sid, parent, name, t0, t1, attrs in spans:
                rec = {"batch": batch, "id": sid, "parent": parent, "name": name,
                       "start": t0, "end": t1}
                rec.update(attrs or {})
                fh.write(json.dumps(rec) + "\n")


# ------------------------------------------------------------ per-layer sums

def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s[4] - s[3] for s in spans]
    for s in spans:
        if s[1] >= 0:
            own[s[1]] -= s[4] - s[3]
    return own


def campaign_layers(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced campaign (run_campaign plus the
    two report writers)."""
    own = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for s in spans:
        by_name.setdefault(s[2], []).append(s[0])

    def ids(name):
        return by_name.get(name, [])

    def incl(name):
        return sum(spans[i][4] - spans[i][3] for i in ids(name))

    def self_sum(name):
        return sum(own[i] for i in ids(name))

    # HiGHS time belongs to the layer whose linprog call opened it
    highs = {"thermal.linprog": 0.0, "grid.linprog": 0.0}
    for i in ids("highs.run"):
        parent = spans[i][1]
        if parent >= 0 and spans[parent][2] in highs:
            highs[spans[parent][2]] += spans[i][4] - spans[i][3]

    out: dict[str, float] = {}
    for layer, model in (("thermal", "DispatchModel"), ("grid", "OpfModel")):
        lps = [spans[i][5] for i in ids(f"{layer}.linprog")]
        solve_ms = [1000.0 * (spans[i][4] - spans[i][3]) for i in ids(f"{layer}.{model}.solve")]
        out[f"{layer}.lp_solves"] = len(lps)
        out[f"{layer}.model_builds"] = len(ids(f"{layer}.{model}.__init__"))
        out[f"{layer}.solve_s"] = incl(f"{layer}.{model}.solve")
        out[f"{layer}.build_s"] = incl(f"{layer}.{model}.__init__")
        out[f"{layer}.highs_run_s"] = highs[f"{layer}.linprog"]
        out[f"{layer}.scipy_s"] = incl(f"{layer}.linprog") - highs[f"{layer}.linprog"]
        out[f"{layer}.highs_iters"] = sum(a.get("nit", 0) for a in lps)
        out[f"{layer}.lp_failed"] = sum(1 for a in lps if a.get("status") != 0)
        if layer == "thermal":
            out["thermal.solve_ms.p50"] = statistics.median(solve_ms) if solve_ms else 0.0
        else:
            out["grid.lp_nnz"] = max((a.get("nnz", 0) for a in lps), default=0)

    groups = [spans[i][5] for i in ids("bidding.build_exclusive_group")]
    scen_in = sum(g.get("scenarios_in", 0) for g in groups)
    bids_out = sum(g.get("bids_out", 0) for g in groups)
    clears = [spans[i][5] for i in ids("clearing.clear")]
    out["scenarios.calls"] = len(ids("scenarios.generate_scenarios"))
    out["scenarios.self_s"] = self_sum("scenarios.generate_scenarios")
    out["bidding.group_s"] = incl("bidding.build_exclusive_group")
    out["bidding.disaggregate_s"] = incl("bidding.disaggregate")
    out["bidding.scenarios_in"] = scen_in
    out["bidding.bids_out"] = bids_out
    out["bidding.dedup_ratio"] = bids_out / scen_in if scen_in else 0.0
    out["clearing.calls"] = len(clears)
    out["clearing.self_s"] = self_sum("clearing.clear")
    out["clearing.accept_ratio"] = (
        sum(1 for c in clears if c.get("accepted")) / len(clears) if clears else 0.0
    )
    out["simulate.run_day.self_s"] = self_sum("simulate.run_day")
    writes = ids("simulate.write_report_csv") + ids("simulate.write_schedules_csv")
    out["simulate.write_s"] = sum(spans[i][4] - spans[i][3] for i in writes)
    out["simulate.bytes_written"] = sum(spans[i][5].get("bytes", 0) for i in writes)
    return out


def setup_layers(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced set-up."""
    def incl(name):
        return sum(s[4] - s[3] for s in spans if s[2] == name)

    return {
        "synthetic.generate_s": incl("synthetic.generate_synthetic"),
        "ingest.read_s": incl("ingest.ingest"),
        "ingest.bytes_read": sum(s[5].get("bytes", 0) for s in spans if s[2] == "ingest.ingest"),
        "grid.alloc_s": incl("grid.allocate_buildings"),
    }
