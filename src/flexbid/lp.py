"""Warm-started HiGHS re-solves of one LP over a stack of cost rows.

Both dispatchers solve one LP many times over, with only some cost
coefficients changed between solves: the first block of heat pumps'
dispatch (cut out of `thermal.fleet_rows`, one diagonal block per heat
pump) once per distinct price scenario, the network OPF once per price row.
`HighsSweep` hands the LP to one HiGHS instance and, for each cost row,
changes the costs of the given columns and re-runs dual simplex from the
previous row's optimal basis (Huangfu & Hall, Math. Prog. Comp. 2018).
The first row starts from a vertex status the caller hands in, one a
sweep of the same LP returned or one it assembled, or cold; a sweep
keeps nothing between calls.  Each row comes back as HiGHS's point,
its objective and its vertex status, which names the vertex; a caller
gives a vertex it reached more than once the bytes of its first
sighting with `first_seen`, keyed as it chooses, and sweeps each
distinct row of a stack once (`distinct`).  Column bounds are
fixed at construction: a caller pinning columns substitutes them out
and sweeps the smaller LP, as `grid.OpfModel.solve` does.  The matrix
comes as a `Csc`, taken as it is, the one format both dispatchers
build (`thermal.fleet_rows`, `grid.OpfModel`), so no dispatch loads
scipy.sparse.

It drives scipy's private `_highspy` binding (scipy >= 1.15) directly,
which skips linprog's per-call option checks and model conversion.  The
binding is loaded alone (`_binding`), so scipy.optimize's package, which
flexbid never calls, is not imported: about 27 MB and 0.35 s less per
process.  A later `import scipy.optimize` reuses the same module object.
Known limit: when flexbid loads the binding first, its package
`scipy.optimize._highspy` never gets the attribute `_core`, so the
attribute chain `scipy.optimize._highspy._core` fails; `from
scipy.optimize._highspy import _core` and `import
scipy.optimize._highspy._core as m` still return the module.
"""

from __future__ import annotations

import os
import sys
import threading
from importlib import machinery, util
from typing import NamedTuple

import numpy as np
import scipy

from .errors import Infeasible, SolverFailure


def _binding():
    """scipy's HiGHS binding, `scipy.optimize._highspy._core`: the module
    already imported, or else the extension file of scipy's
    optimize/_highspy directory loaded under that name and registered in
    sys.modules, without running scipy.optimize's package `__init__`."""
    name = "scipy.optimize._highspy._core"
    module = sys.modules.get(name)
    if module is not None:
        return module
    where = os.path.join(scipy.__path__[0], "optimize", "_highspy")
    spec = machinery.PathFinder.find_spec(name, [where])
    if spec is None:
        raise ImportError(f"no HiGHS binding _core in {where} (flexbid needs scipy >= 1.15)",
                          name=name, path=where)
    module = util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


_hc = _binding()

# LP tolerances, tighter than every test tolerance in the suite.  They are
# HiGHS's defaults, so a linprog call that leaves them unset solves alike.
FEASIBILITY_TOL = 1e-7
OPTIMALITY_TOL = 1e-7


class Csc(NamedTuple):
    """A matrix in compressed sparse columns, under the names of scipy's
    CSC arrays: column j's values are data[indptr[j]:indptr[j + 1]], in
    the rows indices[indptr[j]:indptr[j + 1]]."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple[int, int]


# HiGHS's basis statuses, by their codes: kLower, kBasic, kUpper
_STATUS = np.array([_hc.HighsBasisStatus(k) for k in range(3)], dtype=object)
_LOWER, _BASIC, _UPPER = range(3)


def _options() -> _hc.HighsOptions:
    """linprog's HiGHS options: presolve on, dual simplex, no output."""
    options = _hc.HighsOptions()
    options.presolve = "on"
    options.output_flag = False
    options.log_to_console = False
    options.highs_debug_level = _hc.HighsDebugLevel.kHighsDebugLevelNone
    options.simplex_strategy = _hc.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    options.primal_feasibility_tolerance = FEASIBILITY_TOL
    options.dual_feasibility_tolerance = OPTIMALITY_TOL
    return options


class HighsSweep:
    """min cost @ x  s.t.  row_lo <= A x <= row_hi,  col_lo <= x <= col_hi,
    solved once per cost row, where the rows replace the costs of
    `cost_cols` and leave every other column's cost as given.

    Every row must be an equality or have one infinite side, so that an
    optimal basis and the bounds its nonbasic columns sit at name one
    vertex.  `solve` may run on several threads at once.
    """

    def __init__(self, A, row_lo, row_hi, col_lo, col_hi, cost, cost_cols):
        if not isinstance(A, Csc):
            raise TypeError(f"the LP's matrix must be an lp.Csc, got {type(A).__name__}")
        row_lo, row_hi, col_lo, col_hi, cost = (
            np.asarray(v, dtype=float) for v in (row_lo, row_hi, col_lo, col_hi, cost))
        self._cost_cols = cost_cols = np.asarray(cost_cols, dtype=np.int32)
        # HiGHS reads past a short bound array, or crashes on it
        m, n = A.shape
        if ([v.shape for v in (row_lo, row_hi, col_lo, col_hi, cost)] != [(m,)] * 2 + [(n,)] * 3
                or cost_cols.ndim != 1 or not ((0 <= cost_cols) & (cost_cols < n)).all()):
            raise ValueError(f"an LP of shape {A.shape} needs {m} row bounds, {n} column "
                             f"bounds and costs, and cost columns within [0, {n})")
        # HiGHS spins without end on a row index out of range
        start, index = np.asarray(A.indptr), np.asarray(A.indices)
        if (start.shape != (n + 1,) or start[0] != 0 or (np.diff(start) < 0).any()
                or index.shape != (start[-1],) or np.shape(A.data) != index.shape
                or not ((0 <= index) & (index < m)).all()):
            raise ValueError(f"a matrix of shape {A.shape} needs {n + 1} column starts from 0 "
                             f"up, one value per row index, and row indices within [0, {m})")
        # HiGHS spins without end on a NaN; an infinite bound is a free side
        if (not np.isfinite(np.r_[A.data, cost]).all()
                or np.isnan(np.r_[row_lo, row_hi, col_lo, col_hi]).any()):
            raise ValueError("an LP needs a finite matrix and costs, and bounds without NaN")
        lp = _hc.HighsLp()
        lp.num_row_, lp.num_col_ = A.shape
        lp.a_matrix_.num_row_, lp.a_matrix_.num_col_ = A.shape
        lp.a_matrix_.format_ = _hc.MatrixFormat.kColwise
        # index lists, which the binding takes whole; an int64 array it
        # converts element by element
        lp.a_matrix_.start_ = start.tolist()
        lp.a_matrix_.index_ = index.tolist()
        lp.a_matrix_.value_ = A.data
        lp.row_lower_, lp.row_upper_, lp.col_lower_, lp.col_upper_ = row_lo, row_hi, col_lo, col_hi
        lp.col_cost_ = cost
        self._lp = lp
        self._col_hi = col_hi
        self._calls = threading.local()

    @property
    def runs(self) -> int:
        """The HiGHS runs of the last `solve` this thread made, reruns included."""
        return getattr(self._calls, "runs", 0)

    def solve(self, cost_rows: np.ndarray,
              start: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(S, n) optimal points, S objectives and (S, n + m) vertex
        statuses for an (S, len(cost_cols)) stack of cost rows.

        Each call runs on a fresh HiGHS instance and writes nothing
        back.  Its first row starts from `start`, a vertex status row as
        this returns them, or cold; each later row from the row before.
        A start of another length, or one HiGHS refuses, leaves the first
        row cold.  A run that did not start cold (a later row, or a first
        row from an accepted start) and ends without an optimum is run
        again from scratch, on the model passed afresh: the basis it
        started from can leave the dual simplex short of its tolerances,
        where the row solved afresh is not.  `runs` counts the call's
        HiGHS runs, the reruns included; calls made at once from several
        threads each count their own.

        The points are HiGHS's own, row by row: a vertex reached twice
        may differ in its last bits, and a caller that wants it
        byte-identical keys it by its status (`first_seen`).  A status
        row is over the columns, then the rows, each 0 nonbasic at the
        lower bound (or free at zero), 1 basic or 2 nonbasic at the
        upper bound; an optimal basis and these bounds name one vertex,
        as the class requires.  Raises ValueError, before any solve, on
        a stack of the wrong shape or a cost that is not finite, and
        Infeasible or SolverFailure on a row left without an optimum.
        """
        cost_rows = np.asarray(cost_rows, dtype=float)
        if cost_rows.ndim != 2 or cost_rows.shape[1] != len(self._cost_cols):
            raise ValueError(f"cost rows must be an (S, {len(self._cost_cols)}) array, "
                             f"got shape {cost_rows.shape}")
        if not np.isfinite(cost_rows).all():
            raise ValueError("cost rows must be finite")
        highs = _hc._Highs()
        highs.passOptions(_options())
        highs.passModel(self._lp)
        n_row, n_col = self._lp.num_row_, self._lp.num_col_
        # a start of another length, or a refused one, leaves the first row cold
        warm = (np.shape(start) == (n_col + n_row,)
                and highs.setBasis(self._basis(start)) != _hc.HighsStatus.kError)
        S = len(cost_rows)
        X = np.empty((S, n_col))
        objective = np.empty(S)
        status = np.zeros((S, n_col + n_row), dtype=np.uint8)
        calls = self._calls
        calls.runs = 0
        for s, cost in enumerate(cost_rows):
            highs.changeColsCost(len(self._cost_cols), self._cost_cols, cost)
            highs.run()
            calls.runs += 1
            if (s or warm) and highs.getModelStatus() != _hc.HighsModelStatus.kOptimal:
                # clearSolver keeps some of the solver's state; the model
                # passed again keeps none, so the row runs as on a new instance
                highs.passModel(self._lp)
                highs.changeColsCost(len(self._cost_cols), self._cost_cols, cost)
                highs.run()
                calls.runs += 1
            model_status = highs.getModelStatus()
            if model_status == _hc.HighsModelStatus.kInfeasible:
                raise Infeasible("LP is infeasible")
            if model_status != _hc.HighsModelStatus.kOptimal:
                raise SolverFailure(f"HiGHS status {highs.modelStatusToString(model_status)}")
            X[s] = highs.getSolution().col_value
            found, basic = highs.getBasicVariables()
            if found != _hc.HighsStatus.kOk:
                raise SolverFailure("HiGHS returned an optimum without a basis")
            # a basic row -r-1 sits at n_col + r
            status[s, :n_col][X[s] == self._col_hi] = 2
            status[s, np.where(basic >= 0, basic, n_col - 1 - basic)] = 1
            objective[s] = highs.getObjectiveValue()
        return X, objective, status

    def _basis(self, start: np.ndarray) -> _hc.HighsBasis:
        """The HiGHS basis of a vertex status row: each nonbasic entry kLower
        but a column at 2, kUpper.  HiGHS reads a nonbasic status only of a
        boxed entry, and puts any other at its finite side, or at zero."""
        start, n_col = np.asarray(start), self._lp.num_col_
        code = np.where(start == 1, _BASIC, _LOWER)
        code[:n_col][start[:n_col] == 2] = _UPPER
        out = _hc.HighsBasis()
        out.col_status = _STATUS[code[:n_col]].tolist()
        out.row_status = _STATUS[code[n_col:]].tolist()
        out.valid = True
        return out


def distinct(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first of each set of equal rows, in order, and the index of
    every row's among them."""
    _, first, back = np.unique(rows, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first)
    return first[order], np.argsort(order)[back.ravel()]


def first_seen(values: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """(S, B, w) values with each block's row replaced by the block's
    values at the first row whose (S, B, L) vertex key is the same: a
    vertex gets the bytes of its first sighting."""
    S, B, L = keys.shape
    tagged = np.empty((B, S, L + 4), dtype=np.uint8)  # each key led by its block
    tagged[..., :4] = np.arange(B, dtype=">u4").view(np.uint8).reshape(B, 1, 4)
    tagged[..., 4:] = keys.transpose(1, 0, 2)
    _, first, back = np.unique(tagged.reshape(B * S, L + 4).view(np.dtype((np.void, L + 4))).ravel(),
                               return_index=True, return_inverse=True)
    w = values.shape[2]
    by_block = values.transpose(1, 0, 2).reshape(B * S, w)[first[back.ravel()]]
    return by_block.reshape(B, S, w).transpose(1, 0, 2)
