#!/usr/bin/env python3
"""Self-test of the benchmark harness on tiny instances (about a minute).

    python3 perfbench/selftest.py

For every workload, shrunk to a handful of buildings and days, it checks
that both modes print every metric BENCHMARK.json declares with its unit
as the last output line, that answers recorded as a reference pass on a
rerun, and that a perturbed reference is caught with a non-zero exit.
Finally, a directory holding only BENCHMARK.json and perfbench/ must make
the benchmark exit non-zero without printing a result.  Exits 1 on the
first failure.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys

import checks
import run

TINY = {
    "fleet-day": dict(n_buildings=9, scenarios=4, max_bids=4, history_days=3),
    "campaign-30d": dict(n_buildings=10, days=3, scenarios=4, max_bids=4, history_days=3),
    "feeder-congested": dict(n_buildings=20, days=1, branching=2, depth=2,
                             scenarios=4, max_bids=4, history_days=3),
}


def invoke(*argv: str) -> tuple[int, dict, str]:
    """run.main in-process; returns (exit code, last-line object, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(list(argv))
    text = out.getvalue()
    return code, json.loads(text.strip().splitlines()[-1]), text


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        raise SystemExit(1)


def main() -> None:
    run.cap_threads()
    e2e, per_layer = run.declared_metrics()
    run.WORKLOADS = {n: dataclasses.replace(w, **TINY[n]) for n, w in run.WORKLOADS.items()}
    run.WORK.mkdir(exist_ok=True)
    checks.REFERENCE = run.WORK / "selftest-reference.json"
    checks.REFERENCE.unlink(missing_ok=True)

    for name in run.WORKLOADS:
        args = ("--workload", name, "--seed", "3", "--seconds", "0")
        for trace, declared in (("0", e2e), ("1", per_layer)):
            code, res, _ = invoke(*args, "--trace", trace)
            expect(code == 0 and res["correct"] and res["failed"] == 0,
                   f"{name} --trace {trace}: passes its invariant checks")
            expect(sorted(res) == ["attempted", "correct", "failed", "metrics"],
                   f"{name} --trace {trace}: result object has exactly its four keys")
            got = {m: v["unit"] for m, v in res["metrics"].items()}
            expect(got == declared,
                   f"{name} --trace {trace}: every declared metric, with its unit")

        invoke(*args, "--write-reference")
        code, res, _ = invoke(*args, "--trace", "1")
        expect(code == 0 and res["correct"], f"{name}: rerun matches its recorded reference")

        table = json.loads(checks.REFERENCE.read_text())
        table[name]["tc_opt"] *= 1.0 + 1e-4
        checks.REFERENCE.write_text(json.dumps(table))
        code, res, text = invoke(*args, "--trace", "0")
        expect(code == 1 and not res["correct"] and res["failed"] >= 1
               and "tc_opt" in text, f"{name}: a perturbed reference answer is caught")

    bare = run.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet-day", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           "without the sources the benchmark exits non-zero and prints no result")
    shutil.rmtree(bare)
    checks.REFERENCE.unlink()


if __name__ == "__main__":
    main()
