#!/usr/bin/env python3
"""flexbid benchmark: seeded campaign workloads through the public API.

Run from the repository root:

    python3 perfbench/run.py --workload fleet-day --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, default seeds
    python3 perfbench/run.py --workload campaign-30d --write-reference

Each workload generates a synthetic instance from the seed, writes it as a
workspace under .bench_work/, ingests it back (and, in integrated mode,
solves the allocation MILP), then runs ``run_campaign`` and writes
report.csv and schedules.csv.  With ``--trace 0`` it prints the end-to-end
metrics; with ``--trace 1`` it alternates untraced and traced campaigns
and prints the per-layer metrics.  Every run checks its answers (see
checks.py).  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics; the exit code is 1 when any
check failed.  See README.md for why each workload exists.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from datetime import timedelta
from pathlib import Path

import checks
import spans

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
# Set-ups per run, half before and half after the campaigns, so their
# median samples the machine at two moments; setup_s is that median.
SETUPS = 8

# The runs measure single-threaded flexbid; BLAS/OpenMP pools stay at one
# thread so the scheduler on a small machine does not enter the numbers.
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)

perf = time.perf_counter


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    mode: str
    n_buildings: int
    hp_share_pct: float
    days: int
    default_seed: int
    branching: int = 3
    depth: int = 3
    scenarios: int = 24
    max_bids: int = 24
    history_days: int = 23  # residual days before the first delivery day

    def spec(self, seed: int):
        from flexbid import SyntheticSpec

        return SyntheticSpec(
            n_buildings=self.n_buildings, hp_share_pct=self.hp_share_pct,
            n_days=self.history_days + self.days, seed=seed,
            branching=self.branching, depth=self.depth,
        )

    def config(self, spec):
        from flexbid import CampaignConfig

        return CampaignConfig(
            start=spec.start + timedelta(days=self.history_days), days=self.days,
            s_count=self.scenarios, max_bids=self.max_bids, mode=self.mode,
            pricing="truthful",
        )


WORKLOADS = {w.name: w for w in (
    Workload("fleet-day", "unbundled", 200, 100.0, days=1, default_seed=0),
    Workload("campaign-30d", "unbundled", 30, 30.0, days=30, default_seed=1),
    Workload("feeder-congested", "integrated", 200, 60.0, days=5, default_seed=0,
             branching=5, depth=6),
)}


def cap_threads() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"


def load_flexbid():
    """Import flexbid from this checkout's sources, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "flexbid" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no flexbid sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import flexbid

    if Path(flexbid.__file__).resolve().parent != (src / "flexbid").resolve():
        raise SystemExit(f"perfbench: imported flexbid from {flexbid.__file__}, not {src}")
    return flexbid


def declared_metrics() -> tuple[dict[str, str], dict[str, str]]:
    """(end_to_end, per_layer) name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


# ------------------------------------------------------------- provenance

def git_rev() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """sha256 over src/flexbid, so a run names its code without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "flexbid").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def os_threads() -> int | None:
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return None


def provenance(fb, wl: Workload, seed: int, spec, cfg, seconds: float, trace: int) -> dict:
    import numpy
    import scipy

    return {
        "workload": dataclasses.asdict(wl),
        "seed": seed,
        "synthetic": spec.to_dict(),
        "campaign": cfg.to_dict(),
        "git_rev": git_rev(),
        "source_sha256": source_digest(),
        "flexbid": fb.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_caps": {v: os.environ.get(v) for v in THREAD_VARS},
        "seconds": seconds,
        "trace": trace,
    }


# ------------------------------------------------------------ one workload

def _read_attrs(args, kwargs, bundle):
    return {"bytes": sum(Path(p).stat().st_size for p in kwargs.values() if p is not None)}


def _write_attrs(args, kwargs, _):
    return {"bytes": Path(args[0]).stat().st_size}


def set_up(fb, wl: Workload, spec, work: Path, tracer=None):
    """Generate, write and ingest the instance; allocate in integrated mode."""
    wrap = tracer.span if tracer else (lambda name, fn, attrs=None: fn)
    t0 = perf()
    files = wrap("synthetic.generate_synthetic", fb.generate_synthetic)(spec, work)
    bundle = wrap("ingest.ingest", fb.ingest, _read_attrs)(**files)
    if wl.mode == "integrated":
        alloc = wrap("grid.allocate_buildings", fb.allocate_buildings)(
            bundle.buildings, bundle.network)
        bundle = dataclasses.replace(bundle, alloc=alloc)
    return bundle, perf() - t0


def campaign(fb, cfg, bundle, work: Path, tracer=None):
    """One timed campaign: run_campaign plus the two report files.

    Returns (report, wall seconds, seconds of each run_day call)."""
    import flexbid.simulate as simulate

    wrap = tracer.span if tracer else (lambda name, fn, attrs=None: fn)
    day_s: list[float] = []
    run_day = simulate.run_day

    def timed_day(*args, **kwargs):
        t0 = perf()
        try:
            return run_day(*args, **kwargs)
        finally:
            day_s.append(perf() - t0)

    simulate.run_day = timed_day
    try:
        t0 = perf()
        report = fb.run_campaign(cfg, bundle)
        wrap("simulate.write_report_csv", simulate.write_report_csv, _write_attrs)(
            work / "report.csv", report)
        wrap("simulate.write_schedules_csv", simulate.write_schedules_csv, _write_attrs)(
            work / "schedules.csv", report)
        wall = perf() - t0
    finally:
        simulate.run_day = run_day
    return report, wall, day_s


def lp_counts(layer: dict) -> dict:
    return {"thermal": layer["thermal.lp_solves"], "grid": layer["grid.lp_solves"]}


def run_workload(fb, wl: Workload, seed: int, seconds: float, trace: int,
                 reference: dict | None) -> dict:
    """Set up, measure for about `seconds`, check; returns the full record."""
    e2e_units, layer_units = declared_metrics()
    spec = wl.spec(seed)
    cfg = wl.config(spec)
    work = WORK / f"{wl.name}-seed{seed}"
    tracer = spans.Tracer() if trace else None
    batches: list[tuple[str, list]] = []

    setup_s, setup_layers = [], []

    def set_up_timed():
        gc.collect()
        bundle, seconds_i = set_up(fb, wl, spec, work, tracer)
        setup_s.append(seconds_i)
        if tracer:
            batches.append((f"setup{len(setup_s) - 1}", tracer.take()))
            setup_layers.append(spans.setup_layers(batches[-1][1]))
        return bundle

    for _ in range(SETUPS // 2):
        bundle = set_up_timed()

    walls, traced_walls, day_s, layers, threads = [], [], [], [], []
    attempted = 0
    issues: list[str] = []
    first = None
    t_start = perf()
    rep = 0
    last = 0.0
    # another campaign starts only if it should end within half its length
    # of the deadline, so a run lasts about `seconds` whatever one takes
    while rep < (2 if trace else 1) or perf() - t_start + last / 2 < seconds:
        traced = bool(trace) and rep % 2 == 1
        if traced:
            spans.install(tracer)
        gc.collect()
        try:
            report, wall, days = campaign(fb, cfg, bundle, work, tracer if traced else None)
        finally:
            if traced:
                tracer.restore()
        last = wall
        threads.append(os_threads())
        attempted += cfg.days
        issues += [f"rep {rep}: day {d} failed: {why}" for d, why in report.failures]

        # answers are checked outside the timed region: the invariants once,
        # later campaigns against the first, all against the reference
        got = checks.answers(report)
        if first is None:
            first = got
            issues += checks.invariant_issues(cfg, bundle, report)
        elif got != first:
            issues.append(f"rep {rep}: answers differ from the first campaign")
        if traced:
            batches.append((f"campaign{rep}", tracer.take()))
            layers.append(spans.campaign_layers(batches[-1][1]))
            got["lp_solves"] = lp_counts(layers[-1])
            traced_walls.append(wall)
        else:
            walls.append(wall)
            day_s += days
        if reference is not None:
            issues += [f"rep {rep}: {m}" for m in checks.reference_issues(reference, got)]
        rep += 1

    for _ in range(SETUPS - SETUPS // 2):
        set_up_timed()

    if trace:
        first["lp_solves"] = lp_counts(layers[0])
        metrics = {name: statistics.median(layer[name] for layer in layers)
                   for name in layers[0]}
        metrics.update({name: statistics.median(s[name] for s in setup_layers)
                        for name in setup_layers[0]})
        metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        units = layer_units
        spans.write_jsonl(WORK / f"{wl.name}-seed{seed}.spans.jsonl", batches)
    else:
        metrics = {
            "setup_s": statistics.median(setup_s),
            "wall_s": statistics.median(walls),
            "day_s.p50": statistics.median(day_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "eta_weighted": first["eta_weighted"] or 0.0,
        }
        units = e2e_units
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise RuntimeError(f"benchmark computed no value for {missing}")

    return {
        "provenance": provenance(fb, wl, seed, spec, cfg, seconds, trace),
        "answers": first,
        "issues": issues,
        "samples": {"setup_s": setup_s, "wall_s": walls, "traced_wall_s": traced_walls,
                    "day_s": day_s, "threads_seen": threads},
        "result": {
            "correct": not issues,
            "attempted": attempted,
            "failed": len(issues),  # one per failed day or failed check
            "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
        },
    }


def print_record(name: str, rec: dict) -> None:
    res = rec["result"]
    print(json.dumps({"provenance": rec["provenance"]}, sort_keys=True))
    n_days = len(rec["samples"]["day_s"])
    for metric, m in res["metrics"].items():
        note = f"  (n={n_days} days)" if metric == "day_s.p50" else ""
        print(f"{name}  {metric} = {m['value']:.6g} {m['unit']}{note}")
    print(f"{name}  fail_ratio = {res['failed'] / res['attempted']:.6g} ratio  "
          f"({res['failed']} failed of {res['attempted']} days attempted)")
    for issue in rec["issues"]:
        print(f"{name}  CHECK FAILED: {issue}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=None,
                        help="instance seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measure campaigns for about this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="record this seed's answers as the workload's reference")
    args = parser.parse_args(argv)

    cap_threads()
    fb = load_flexbid()

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        wl = WORKLOADS[name]
        seed = wl.default_seed if args.seed is None else args.seed
        if args.write_reference:  # one traced campaign yields the LP counts
            rec = run_workload(fb, wl, seed, 0.0, 1, None)
            if rec["issues"]:
                print_record(name, rec)
                raise SystemExit(f"perfbench: {name} fails its checks; reference not written")
            checks.store_reference(name, {"seed": seed, **rec["answers"]})
        else:
            rec = run_workload(fb, wl, seed, args.seconds, args.trace,
                               checks.load_reference(name, seed))
        WORK.mkdir(exist_ok=True)
        trace = rec["provenance"]["trace"]
        (WORK / f"{name}-seed{seed}-trace{trace}.json").write_text(
            json.dumps(rec, indent=1, default=str) + "\n")
        print_record(name, rec)
        results[name] = rec["result"]

    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": m for name, r in results.items()
                        for metric, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
