"""The warm-started HiGHS sweep against cold linprog solves."""

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
import scipy
from scipy import sparse
from scipy.optimize import linprog
from scipy.optimize._highspy import _core

import flexbid
from flexbid import grid, lp, thermal
from flexbid.errors import Infeasible
from flexbid.lp import Csc, HighsSweep, first_seen
from flexbid.synthetic import SyntheticSpec, generate_instance
from flexbid.thermal import ComfortConfig, DispatchModel

def csc(matrix) -> Csc:
    """A dense or scipy matrix as the lp.Csc HighsSweep takes."""
    A = sparse.csc_array(matrix)
    return Csc(A.data, A.indices, A.indptr, A.shape)


# min c0*x0 + c1*x1  s.t.  x0 + x1 + x2 = 5,  x0, x1 in [0, 1],  x2 in [0, 10]
A = np.array([[1.0, 1.0, 1.0]])
LP = dict(A=csc(A), row_lo=[5.0], row_hi=[5.0], col_lo=[0.0, 0.0, 0.0],
          col_hi=[1.0, 1.0, 10.0], cost=np.zeros(3), cost_cols=[0, 1])


def test_rows_match_cold_linprog_solves():
    rows = np.random.default_rng(3).uniform(-5.0, 5.0, (8, 2))
    X, objective, _ = HighsSweep(**LP).solve(rows)
    assert X.shape == (8, 3) and objective.shape == (8,)
    for c, x, obj in zip(rows, X, objective):
        ref = linprog(np.append(c, 0.0), A_eq=A, b_eq=[5.0],
                      bounds=list(zip(LP["col_lo"], LP["col_hi"])), method="highs")
        assert obj == pytest.approx(ref.fun, abs=1e-12)
        assert np.allclose(x, ref.x, atol=1e-12)


def test_vertex_key_tells_upper_from_lower_bound():
    # both rows keep x2 as the only basic variable; only the nonbasic
    # columns' bounds tell the two vertices apart
    X, objective, status = HighsSweep(**LP).solve(np.array([[-1.0, 1.0], [1.0, -1.0], [-1.0, 1.0]]))
    assert X.tolist() == [[1.0, 0.0, 4.0], [0.0, 1.0, 4.0], [1.0, 0.0, 4.0]]
    assert status.tolist() == [[2, 0, 1, 0], [0, 2, 1, 0], [2, 0, 1, 0]]
    assert objective.tolist() == [-1.0, -1.0, -1.0]


# ------------------------------------------------------- non-finite input

@pytest.mark.parametrize("key, value", [
    ("A", [[1.0, np.nan, 1.0]]), ("A", [[1.0, np.inf, 1.0]]), ("cost", [0.0, np.nan, 0.0]),
    ("row_lo", [np.nan]), ("row_hi", [np.nan]), ("col_lo", [0.0, np.nan, 0.0]),
    ("col_hi", [1.0, 1.0, np.nan]),
])
def test_a_nan_or_an_infinite_coefficient_is_refused_at_construction(key, value):
    with pytest.raises(ValueError, match="finite|NaN"):
        HighsSweep(**{**LP, key: csc(value) if key == "A" else np.array(value)})


@pytest.mark.parametrize("matrix", [A, sparse.csc_array(A)], ids=["dense", "scipy"])
def test_a_matrix_other_than_a_csc_is_refused(matrix):
    with pytest.raises(TypeError, match=r"must be an lp\.Csc, got "):
        HighsSweep(**{**LP, "A": matrix})


def test_infinite_bounds_stay_legal():
    lp = HighsSweep(**{**LP, "row_hi": [np.inf], "col_hi": [1.0, 1.0, np.inf]})
    X, objective, _ = lp.solve(np.array([[-1.0, -1.0]]))
    assert objective.tolist() == [-2.0] and X[0, :2].tolist() == [1.0, 1.0]


@pytest.mark.parametrize("key, value", [
    ("row_lo", []), ("row_hi", []), ("col_lo", [0.0, 0.0]), ("col_hi", [1.0, 1.0]),
    ("cost", [0.0, 0.0]), ("cost_cols", [0, 1, 7]), ("cost_cols", [-1, 0]),
    ("cost_rows", [[1.0, 1.0, 1.0]]), ("cost_rows", [1.0, 1.0]),
])
def test_an_input_of_the_wrong_size_is_refused_before_highs_sees_it(key, value):
    # A is (1, 3) and LP's cost rows replace two costs; HiGHS solves each of
    # these without a word, on memory past the arrays' ends, or crashes
    if key == "cost_rows":
        with pytest.raises(ValueError, match=r"cost rows must be an \(S, 2\) array"):
            HighsSweep(**LP).solve(np.array(value))
    elif key.startswith("row_"):
        # a row bound of length 0 ends the process with a segmentation
        # fault, so it runs in a child: a regression fails here, not the run
        src = str(Path(flexbid.__file__).parents[1])
        code = ("from numpy import array, int32\nfrom flexbid.lp import Csc, HighsSweep\n"
                f"try:\n    HighsSweep(**{ {**LP, key: value}!r})\n"
                "except ValueError as exc:\n    print(exc)\n")
        child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                               timeout=120, env={**os.environ, "PYTHONPATH": src})
        assert child.returncode == 0 and "needs 1 row bounds" in child.stdout, child.stderr
    else:
        with pytest.raises(ValueError, match=r"of shape \(1, 3\) needs 1 row bounds, 3 column"):
            HighsSweep(**{**LP, key: value})


def raises_within(seconds, call):
    """The exception call raises, run in a daemon thread; a call still
    running after the given seconds fails the test instead of hanging it."""
    outcome = []

    def run():
        try:
            call()
        except Exception as exc:  # noqa: BLE001 - the test inspects it
            outcome.append(exc)
        else:
            outcome.append(None)

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(seconds)
    assert not worker.is_alive(), f"still running after {seconds} s"
    return outcome[0]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_cost_row_is_refused_before_any_run(spy, bad):
    rows = np.array([[1.0, -1.0], [bad, 1.0]])
    exc = raises_within(10, lambda: HighsSweep(**LP).solve(rows))
    assert isinstance(exc, ValueError) and "finite" in str(exc)
    assert spy == []


@pytest.mark.parametrize("row, hour", [(0, 0), (1, 7)])
def test_dispatch_on_a_nan_price_raises_instead_of_hanging(row, hour):
    # the fleet of a 12-building workspace at a 100 % heat-pump share; a
    # NaN in the first row's first hour once kept HiGHS running without
    # end, and one in a later row once passed without an error
    bundle = generate_instance(SyntheticSpec(n_buildings=12, hp_share_pct=100.0, n_days=2))
    day = bundle.dates[0]
    prices = np.tile(bundle.realized[day], (3, 1))
    prices[row, hour] = np.nan
    model = DispatchModel(bundle.buildings, ComfortConfig(), bundle.weather[day])
    exc = raises_within(10, lambda: model.solve(prices))
    assert isinstance(exc, ValueError) and "finite" in str(exc)


@pytest.mark.parametrize("part, value", [
    ("indices", [0, 1]),  # a row index past the one row
    ("indices", [0, -1]),
    ("indptr", [0, 1]),  # one column start short
    ("indptr", [0, 2, 1]),  # a column ending before it starts
    ("data", [1.0]),  # a value short
])
def test_a_malformed_csc_is_refused_before_highs_sees_it(part, value):
    A = Csc(np.array([1.0, 1.0]), np.array([0, 0]), np.array([0, 1, 2]), (1, 2))
    A = A._replace(**{part: np.array(value)})
    exc = raises_within(10, lambda: HighsSweep(A, [1.0], [1.0], [0.0, 0.0], [1.0, 1.0],
                                               np.zeros(2), [0, 1]))
    assert isinstance(exc, ValueError) and "matrix of shape (1, 2)" in str(exc)


# ------------------------------------------------------- start hand-over

def random_lp(seed: int, m: int = 8, n: int = 30) -> dict:
    """A feasible LP of m equality rows over n boxed columns, every cost open."""
    rng = np.random.default_rng(seed)
    A = sparse.random_array((m, n), density=0.3, rng=rng, format="csc") + sparse.eye_array(m, n)
    hi = rng.uniform(1.0, 3.0, n)
    rhs = A @ (rng.uniform(0.2, 0.8, n) * hi)
    return dict(A=csc(A), row_lo=rhs, row_hi=rhs, col_lo=np.zeros(n), col_hi=hi, cost=np.zeros(n),
                cost_cols=np.arange(n))


class SpyHighs(_core._Highs):
    """HiGHS that logs each accepted basis and each run's simplex iterations."""

    log: list = []

    def setBasis(self, basis):
        status = super().setBasis(basis)
        SpyHighs.log.append(("basis", status == _core.HighsStatus.kOk))
        return status

    def run(self):
        status = super().run()
        SpyHighs.log.append(("run", self.getInfo().simplex_iteration_count))
        return status


@pytest.fixture()
def spy(monkeypatch):
    monkeypatch.setattr(_core, "_Highs", SpyHighs)
    monkeypatch.setattr(SpyHighs, "log", [])
    return SpyHighs.log


def test_sweep_started_from_another_lps_basis_matches_the_cold_sweep(spy):
    rows = np.random.default_rng(1).uniform(-5.0, 5.0, (6, 30))
    start = status_of(random_lp(0), rows)[-1]
    kept = start.copy()
    other = HighsSweep(**random_lp(1))
    X_cold, objective_cold, _ = other.solve(rows)
    spy.clear()
    X, objective, status = other.solve(rows, start=start)
    assert spy[0] == ("basis", True) and len(spy) == 1 + len(rows)
    assert np.abs(objective - objective_cold).max() <= 1e-9
    assert start.tobytes() == kept.tobytes()  # read, not written back
    # the sweep's own last status restarts its last row in 0 iterations
    spy.clear()
    X_again, _, _ = other.solve(rows[-1:], start=status[-1])
    assert spy == [("basis", True), ("run", 0)]
    assert np.abs(X_again[0] - X[-1]).max() <= 1e-9


def status_of(lp: dict, rows: np.ndarray) -> np.ndarray:
    """The vertex statuses of a cold sweep of lp over rows."""
    return HighsSweep(**lp).solve(rows)[2]


@pytest.mark.parametrize("length", [3 + 1, 30 + 8 - 1, 30 + 8 + 1])
def test_basis_of_another_shape_is_ignored(spy, length):
    lp = HighsSweep(**random_lp(2))
    rows = np.random.default_rng(2).uniform(-5.0, 5.0, (4, 30))
    start = np.ones(length, dtype=np.uint8)  # the small LP's, or one entry short or over
    if length == 3 + 1:
        start = status_of(LP, np.ones((1, 2)))[-1]
    spy.clear()
    X, objective, _ = lp.solve(rows, start=start)
    assert [entry for entry in spy if entry[0] == "basis"] == []
    X_cold, objective_cold, _ = HighsSweep(**random_lp(2)).solve(rows)
    assert X.tobytes() == X_cold.tobytes() and objective.tobytes() == objective_cold.tobytes()


class RefusingHighs(_core._Highs):
    """HiGHS that refuses every basis it is handed."""

    def setBasis(self, basis):
        return _core.HighsStatus.kError


class StallingHighs(_core._Highs):
    """HiGHS that stops short of an optimum on every run from a handed basis."""

    runs = 0

    def setBasis(self, basis):
        self.warm = True
        return super().setBasis(basis)

    def passModel(self, lp):
        self.warm = False
        return super().passModel(lp)

    def run(self):
        StallingHighs.runs += 1
        return super().run()

    def getModelStatus(self):
        if getattr(self, "warm", False):
            return _core.HighsModelStatus.kIterationLimit
        return super().getModelStatus()


@pytest.mark.parametrize("highs", [RefusingHighs, StallingHighs])
def test_a_refused_or_failed_warm_start_falls_back_to_cold(monkeypatch, highs):
    rows = np.random.default_rng(4).uniform(-5.0, 5.0, (5, 30))
    start = status_of(random_lp(3), rows)[-1]  # another LP's last vertex
    X_cold, objective_cold, _ = HighsSweep(**random_lp(4)).solve(rows)
    monkeypatch.setattr(_core, "_Highs", highs)
    monkeypatch.setattr(StallingHighs, "runs", 0)
    lp = HighsSweep(**random_lp(4))
    X, objective, status = lp.solve(rows, start=start)
    assert X.tobytes() == X_cold.tobytes() and objective.tobytes() == objective_cold.tobytes()
    if highs is StallingHighs:  # the warm first row stops short and runs again from scratch
        assert StallingHighs.runs == lp.runs == 1 + len(rows)
    # the sweep's own last status, not the one that failed, restarts its last row
    monkeypatch.setattr(_core, "_Highs", SpyHighs)
    monkeypatch.setattr(SpyHighs, "log", [])
    HighsSweep(**random_lp(4)).solve(rows[-1:], start=status[-1])
    assert SpyHighs.log == [("basis", True), ("run", 0)]


class ShortHighs(_core._Highs):
    """HiGHS whose third run ends short of an optimum, as a run warm from
    the row before's basis can end outside the dual tolerance."""

    runs = 0

    def run(self):
        ShortHighs.runs += 1
        return super().run()

    def getModelStatus(self):
        if ShortHighs.runs == 3:
            return _core.HighsModelStatus.kUnknown
        return super().getModelStatus()


def test_a_later_row_whose_warm_run_ends_short_is_run_again_from_scratch(monkeypatch):
    rows = np.random.default_rng(6).uniform(-5.0, 5.0, (5, 30))
    X_ref, objective_ref, _ = HighsSweep(**random_lp(6)).solve(rows)
    monkeypatch.setattr(_core, "_Highs", ShortHighs)
    monkeypatch.setattr(ShortHighs, "runs", 0)
    lp = HighsSweep(**random_lp(6))
    X, objective, _ = lp.solve(rows)
    assert lp.runs == ShortHighs.runs == len(rows) + 1  # the third row runs twice
    assert np.abs(X - X_ref).max() <= 1e-9
    assert np.abs(objective - objective_ref).max() <= 1e-9


class MeetingHighs(_core._Highs):
    """HiGHS whose first run on each instance waits for a second instance's
    first run, so two sweeps on two threads overlap."""

    meet = threading.Barrier(2, timeout=30)

    def run(self):
        if not getattr(self, "met", False):
            self.met = True
            MeetingHighs.meet.wait()
        return super().run()


def test_two_sweeps_at_once_on_one_lp_count_their_own_runs(monkeypatch):
    lp = HighsSweep(**random_lp(7))
    rows = np.random.default_rng(7).uniform(-5.0, 5.0, (5, 30))
    X_ref, objective_ref, _ = HighsSweep(**random_lp(7)).solve(rows)
    monkeypatch.setattr(_core, "_Highs", MeetingHighs)
    monkeypatch.setattr(MeetingHighs, "meet", threading.Barrier(2, timeout=30))
    runs, answers = {}, {}

    def sweep(S):
        answers[S] = lp.solve(rows[:S])
        runs[S] = lp.runs

    threads = [threading.Thread(target=sweep, args=(S,)) for S in (2, 5)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(60)
        assert not thread.is_alive()
    assert runs == {2: 2, 5: 5}
    assert answers[5][0].tobytes() == X_ref.tobytes()
    assert answers[5][1].tobytes() == objective_ref.tobytes()
    assert lp.runs == 0  # this thread made no call


def test_two_sweeps_at_once_from_one_start_answer_as_two_in_turn(monkeypatch):
    lp = HighsSweep(**random_lp(8))
    rows = np.random.default_rng(8).uniform(-5.0, 5.0, (6, 30))
    start = status_of(random_lp(9), rows)[-1]  # one array, shared by both sweeps
    kept = start.copy()
    in_turn = [lp.solve(rows[:3], start), lp.solve(rows[3:], start)]
    monkeypatch.setattr(_core, "_Highs", MeetingHighs)
    monkeypatch.setattr(MeetingHighs, "meet", threading.Barrier(2, timeout=30))
    at_once = [None, None]

    def sweep(k):
        at_once[k] = lp.solve(rows[3 * k:3 * k + 3], start)

    threads = [threading.Thread(target=sweep, args=(k,)) for k in (0, 1)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(60)
        assert not thread.is_alive()
    assert ([[v.tobytes() for v in answer] for answer in at_once]
            == [[v.tobytes() for v in answer] for answer in in_turn])
    assert start.tobytes() == kept.tobytes()


def test_each_rows_vertex_status_restarts_its_optimum_without_a_pivot(spy):
    rows = np.random.default_rng(5).uniform(-5.0, 5.0, (4, 30))
    lp = HighsSweep(**random_lp(5))
    X, objective, status = lp.solve(rows)
    assert status.shape == (4, 30 + 8) and status.dtype == np.uint8
    assert ((status == 1).sum(axis=1) == 8).all() and not (status[:, 30:] == 2).any()
    # nonbasic columns sit at the bound their status names
    col_lo, col_hi = random_lp(5)["col_lo"], random_lp(5)["col_hi"]
    assert (X[status[:, :30] == 0] == np.broadcast_to(col_lo, X.shape)[status[:, :30] == 0]).all()
    assert (X[status[:, :30] == 2] == np.broadcast_to(col_hi, X.shape)[status[:, :30] == 2]).all()
    for s in range(len(rows)):
        spy.clear()
        X_again, objective_again, status_again = lp.solve(rows[s:s + 1], status[s])
        assert spy == [("basis", True), ("run", 0)] and lp.runs == 1
        assert np.abs(X_again[0] - X[s]).max() <= 1e-9
        assert abs(objective_again[0] - objective[s]) <= 1e-9
        assert status_again[0].tobytes() == status[s].tobytes()


@pytest.mark.parametrize("start", [[2, 0, 1, 0], [0, 2, 1, 0], [2, 2, 1, 0], [0, 0, 1, 0]])
def test_a_start_at_a_tie_restarts_its_own_vertex(spy, start):
    """At zero costs every vertex of LP is optimal, so only the start
    names one: its columns at 2 start at their upper bounds (kUpper),
    and the sweep ends where it started, without a pivot."""
    X, _, status = HighsSweep(**LP).solve(np.zeros((1, 2)), np.array(start, dtype=np.uint8))
    assert spy == [("basis", True), ("run", 0)]
    x0, x1 = float(start[0] == 2), float(start[1] == 2)
    assert X[0].tolist() == [x0, x1, 5.0 - x0 - x1] and status[0].tolist() == start


def test_first_seen_gives_each_block_its_first_values_of_a_key():
    keys = np.array([[[0, 1], [2, 0]], [[0, 1], [0, 2]], [[1, 0], [2, 0]]], dtype=np.uint8)
    values = np.arange(12, dtype=float).reshape(3, 2, 2)
    out = first_seen(values, keys)
    # block 0 sees key (0, 1) again at row 1, block 1 sees (2, 0) again at row 2
    assert out.tolist() == [[[0, 1], [2, 3]], [[0, 1], [6, 7]], [[8, 9], [2, 3]]]
    assert first_seen(values[:0], keys[:0]).shape == (0, 2, 2)


def test_a_warm_start_on_an_infeasible_lp_raises_infeasible(spy):
    start = status_of(LP, np.ones((1, 2)))[-1]
    spy.clear()
    with pytest.raises(Infeasible):
        HighsSweep(**{**LP, "row_lo": [50.0], "row_hi": [50.0]}).solve(np.ones((2, 2)), start)
    # the warm first row runs once more from scratch, then the sweep gives up
    assert spy[0] == ("basis", True) and [entry[0] for entry in spy[1:]] == ["run", "run"]


def test_highs_binding_offers_what_the_sweep_calls():
    # HighsSweep drives scipy's private HiGHS binding directly; a scipy
    # release that moves it must fail here, by name
    assert hasattr(_core, "HighsLp")
    assert hasattr(_core, "HighsOptions")
    assert hasattr(_core, "HighsBasis")
    for method in ("passOptions", "passModel", "changeColsCost", "run", "getModelStatus",
                   "modelStatusToString", "getSolution",
                   "getBasicVariables", "getObjectiveValue", "setBasis"):
        assert hasattr(_core._Highs, method), method


# ------------------------------------------------------- import footprint

def fresh_python(code, *args):
    """The standard output of code run in a fresh interpreter on flexbid's source."""
    src = str(Path(flexbid.__file__).parents[1])
    child = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                           timeout=300, env={**os.environ, "PYTHONPATH": src})
    assert child.returncode == 0, child.stderr
    return child.stdout


def test_the_cli_loads_no_module_flexbid_does_not_run():
    out = fresh_python("import sys, flexbid.cli\n"
                       "print([m for m in ('scipy.optimize', 'scipy.sparse', 'scipy.sparse.linalg',"
                       " 'scipy.linalg') if m in sys.modules])")
    assert out.split() == ["[]"]


# run in a fresh interpreter: an unbundled campaign, an allocation that
# needs no MILP, an integrated day, and its awarded schedules pinned in a
# network OPF and re-checked, each followed by whether scipy.sparse is loaded
SPARSE_ON_DEMAND = """
import sys
from flexbid.grid import OpfModel, allocate_buildings, verify_solution
from flexbid.simulate import CampaignConfig, day_inputs, run_campaign, run_day
from flexbid.synthetic import SyntheticSpec, generate_instance
bundle = generate_instance(SyntheticSpec(n_buildings=12, hp_share_pct=50.0, n_days=14, seed=3))
cfg = CampaignConfig(start=bundle.dates[-2], days=2, s_count=6, max_bids=6)
report = run_campaign(cfg, bundle)
print(len(report.days), len(report.failures), "scipy.sparse" in sys.modules)
cfg = CampaignConfig(mode="integrated", start=bundle.dates[-1], days=1, s_count=6, max_bids=6)
alloc = allocate_buildings(bundle.buildings, bundle.network)
print("scipy.sparse" in sys.modules)
inputs = day_inputs(cfg, bundle, cfg.start, alloc=alloc)
day = run_day(cfg, inputs)
print("scipy.sparse" in sys.modules)
model = OpfModel(inputs.network, inputs.buildings, alloc, cfg.comfort, inputs.t_out,
                 inputs.series, voll=cfg.voll, facets=cfg.facets)
sol = model.solve(inputs.realized, hp_fixed=day.awarded_kw)
print(len(day.awarded_kw), verify_solution(model, sol), "scipy.sparse" in sys.modules)
"""


def test_no_dispatch_loads_scipy_sparse():
    """Both dispatchers' LPs reach HiGHS as lp.Csc arrays: neither an
    unbundled campaign nor an integrated day, nor a pinned network OPF
    and its re-check, imports scipy.sparse."""
    assert fresh_python(SPARSE_ON_DEMAND).split() == [
        "2", "0", "False", "False", "False", "6", "[]", "False"]


# run in a fresh interpreter with argv[1] naming what is imported first
EITHER_ORDER = """
import hashlib, sys
if sys.argv[1] == "scipy-first":
    import scipy.optimize
import numpy as np
from flexbid import lp
from flexbid.grid import allocate_buildings
from flexbid.simulate import CampaignConfig, day_inputs, run_day
from flexbid.synthetic import SyntheticSpec, generate_instance
loaded = sys.modules["scipy.optimize._highspy._core"]
import scipy.optimize
import scipy.optimize._highspy._core as imported
from scipy.optimize._highspy import _core
assert lp._hc is loaded is imported is _core
res = scipy.optimize.linprog([1.0, 2.0], A_ub=[[-1.0, -1.0]], b_ub=[-1.0])
assert res.status == 0 and res.fun == 1.0, res
res = scipy.optimize.milp([-2.0, -3.0], integrality=[1, 1], bounds=scipy.optimize.Bounds(0, 1),
                          constraints=scipy.optimize.LinearConstraint([[1.0, 1.0]], -np.inf, 1.5))
assert res.status == 0 and res.x.tolist() == [0.0, 1.0], res
bundle = generate_instance(SyntheticSpec(n_buildings=30, hp_share_pct=60.0, n_days=14, seed=3))
cfg = CampaignConfig(mode="integrated", start=bundle.dates[-1], days=1, s_count=6, max_bids=6)
alloc = allocate_buildings(bundle.buildings, bundle.network)
day = run_day(cfg, day_inputs(cfg, bundle, cfg.start, alloc=alloc))
digest = hashlib.sha256(np.array([day.tc_inf, day.tc_cleared, day.tc_opt, day.shed_kwh]).tobytes())
for bid in sorted(day.awarded_kw):
    digest.update(bid.encode() + day.awarded_kw[bid].tobytes())
print(day.n_bids, digest.hexdigest())
"""


def test_either_import_order_shares_one_binding_and_gives_the_same_bytes():
    """flexbid loads scipy's HiGHS binding alone; imported first or after
    scipy.optimize, it is the module scipy's own imports return, linprog
    and milp still solve, and an integrated day writes the same bytes."""
    days = [fresh_python(EITHER_ORDER, order) for order in ("flexbid-first", "scipy-first")]
    assert days[0] == days[1] and int(days[0].split()[0]) > 1


def test_a_missing_binding_is_an_import_error_naming_its_directory(monkeypatch, tmp_path):
    monkeypatch.delitem(sys.modules, "scipy.optimize._highspy._core")
    monkeypatch.setattr(scipy, "__path__", [str(tmp_path)])
    with pytest.raises(ImportError, match=str(tmp_path / "optimize" / "_highspy")):
        lp._binding()


def test_the_linprog_names_resolve_to_scipys():
    # perfbench/spans.py patches these names on a traced run; flexbid
    # itself never calls linprog
    assert thermal.linprog is grid.linprog is linprog
    with pytest.raises(AttributeError, match="no attribute 'milp'"):
        thermal.milp
