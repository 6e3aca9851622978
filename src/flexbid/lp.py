"""Warm-started HiGHS re-solves of one LP over a stack of cost rows.

Both dispatchers solve one LP many times over, with only some cost
coefficients changed between solves: a block of heat pumps' dispatch
(`thermal.fleet_rows`, one diagonal block per heat pump) once per price
scenario, the network OPF once per price row.
`HighsSweep` hands the LP to one HiGHS instance and, for each cost row,
changes the costs of the given columns and re-runs dual simplex from the
previous row's optimal basis (Huangfu & Hall, Math. Prog. Comp. 2018).
The first row starts from the last optimal basis of an LP of the same
shape, when the caller keeps one, or from a basis the caller assembled
from a vertex status (`basis`).  Each row comes back as HiGHS's point,
its objective and its vertex status, which names the vertex; a caller
gives a vertex it reached more than once the bytes of its first
sighting with `first_seen`, keyed as it chooses, and sweeps each
distinct row of a stack once (`distinct`).  Column bounds are
fixed at construction: a caller pinning columns substitutes them out
and sweeps the smaller LP, as `grid.OpfModel.solve` does.

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

import numpy as np
import scipy
from scipy import sparse

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
        A = sparse.csc_array(A)
        row_lo, row_hi, col_lo, col_hi, cost = (
            np.asarray(v, dtype=float) for v in (row_lo, row_hi, col_lo, col_hi, cost))
        self._cost_cols = cost_cols = np.asarray(cost_cols, dtype=np.int32)
        # HiGHS reads past a short bound array, or crashes on it
        m, n = A.shape
        if ([v.shape for v in (row_lo, row_hi, col_lo, col_hi, cost)] != [(m,)] * 2 + [(n,)] * 3
                or cost_cols.ndim != 1 or not ((0 <= cost_cols) & (cost_cols < n)).all()):
            raise ValueError(f"an LP of shape {A.shape} needs {m} row bounds, {n} column "
                             f"bounds and costs, and cost columns within [0, {n})")
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
        lp.a_matrix_.start_ = A.indptr.tolist()
        lp.a_matrix_.index_ = A.indices.tolist()
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

    @property
    def shape(self) -> tuple[int, int]:
        """The LP's (rows, columns): the key of its bases."""
        return self._lp.num_row_, self._lp.num_col_

    def solve(self, cost_rows: np.ndarray,
              bases: dict | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(S, n) optimal points, S objectives and (S, n + m) vertex
        statuses for an (S, len(cost_cols)) stack of cost rows.

        Each call runs on a fresh HiGHS instance.  Its first row starts
        from the basis `bases`, a dict from LP shape (rows, cols) to the
        last optimal basis of that shape, holds for this LP's shape, or
        cold; each later row starts from the row before, and the call's
        final basis is stored back in `bases`.  A start HiGHS refuses
        leaves the first row cold.  A run that did not start cold (a
        later row, or a first row from an accepted start) and ends
        without an optimum is run again from scratch, on the model passed
        afresh: the basis it started from can leave the dual simplex
        short of its tolerances, where the row solved afresh is not.
        `runs` counts the call's HiGHS runs, the reruns included; calls
        made at once from several threads each count their own.

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
        start = None if bases is None else bases.get(self.shape)
        # a refused start changes nothing: the first row runs cold
        warm = start is not None and highs.setBasis(start) != _hc.HighsStatus.kError
        n_row, n_col = self.shape
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
        if bases is not None and S:
            bases[self.shape] = highs.getBasis()
        return X, objective, status


_STATUS = np.array([_hc.HighsBasisStatus.kLower, _hc.HighsBasisStatus.kBasic,
                    _hc.HighsBasisStatus.kUpper], dtype=object)


def basis(status: np.ndarray, n_col: int) -> _hc.HighsBasis:
    """The HiGHS basis of a vertex status as `HighsSweep.solve` gives
    it, over an LP of n_col columns whose rows are all equalities."""
    out = _hc.HighsBasis()
    out.col_status = _STATUS[status[:n_col]].tolist()
    out.row_status = _STATUS[status[n_col:]].tolist()
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
