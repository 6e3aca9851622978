"""Warm-started HiGHS re-solves of one LP over a stack of cost rows.

Both dispatchers solve one LP many times over, with only some cost
coefficients changed between solves: a building's dispatch once per
price scenario, the network OPF once per price row.  `HighsSweep` hands
the LP to one HiGHS instance and, for each cost row, changes the costs
of the given columns and re-runs dual simplex from the previous row's
optimal basis (Huangfu & Hall, Math. Prog. Comp. 2018).

It drives scipy's private `_highspy` binding (scipy >= 1.15) directly,
which skips linprog's per-call option checks and model conversion.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.optimize._highspy import _core as _hc

from .errors import Infeasible, SolverFailure

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
    vertex.
    """

    def __init__(self, A, row_lo, row_hi, col_lo, col_hi, cost, cost_cols):
        A = sparse.csc_array(A)
        lp = _hc.HighsLp()
        lp.num_row_, lp.num_col_ = A.shape
        lp.a_matrix_.num_row_, lp.a_matrix_.num_col_ = A.shape
        lp.a_matrix_.format_ = _hc.MatrixFormat.kColwise
        lp.a_matrix_.start_ = A.indptr
        lp.a_matrix_.index_ = A.indices
        lp.a_matrix_.value_ = A.data
        lp.row_lower_ = np.asarray(row_lo, dtype=float)
        lp.row_upper_ = np.asarray(row_hi, dtype=float)
        lp.col_lower_ = np.asarray(col_lo, dtype=float)
        lp.col_upper_ = np.asarray(col_hi, dtype=float)
        lp.col_cost_ = np.asarray(cost, dtype=float)
        self._lp = lp
        self._col_hi = np.asarray(col_hi, dtype=float)
        self._cost_cols = np.asarray(cost_cols, dtype=np.int32)

    def solve(self, cost_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(S, n) optimal points and S objectives for an (S, len(cost_cols)) stack.

        Every call starts a fresh HiGHS instance, so equal stacks give
        equal answers.  Its first row is solved cold, each later row from
        the row before.  A row whose optimal vertex was seen earlier in
        the call gets the earlier row's point: the vertex is the same,
        and reusing it keeps identical schedules byte-identical rather
        than apart by the warm path's rounding noise.

        The vertex key is the set of basic variables plus which nonbasic
        columns sit at their upper bound.  Raises Infeasible or
        SolverFailure on the first row without an optimum.
        """
        highs = _hc._Highs()
        highs.passOptions(_options())
        highs.passModel(self._lp)
        n_cols = len(self._cost_cols)
        X = np.empty((len(cost_rows), self._lp.num_col_))
        objective = np.empty(len(cost_rows))
        seen: dict[bytes, np.ndarray] = {}
        for s, cost in enumerate(cost_rows):
            highs.changeColsCost(n_cols, self._cost_cols, cost)
            highs.run()
            status = highs.getModelStatus()
            if status == _hc.HighsModelStatus.kInfeasible:
                raise Infeasible("LP is infeasible")
            if status != _hc.HighsModelStatus.kOptimal:
                raise SolverFailure(f"HiGHS status {highs.modelStatusToString(status)}")
            x = np.array(highs.getSolution().col_value)
            found, basic = highs.getBasicVariables()
            if found != _hc.HighsStatus.kOk:
                raise SolverFailure("HiGHS returned an optimum without a basis")
            basic.sort()
            at_upper = x == self._col_hi
            at_upper[basic[basic >= 0]] = False  # negative entries are rows
            X[s] = seen.setdefault(basic.tobytes() + np.packbits(at_upper).tobytes(), x)
            objective[s] = highs.getObjectiveValue()
        return X, objective
