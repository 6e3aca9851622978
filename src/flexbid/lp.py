"""Warm-started HiGHS re-solves of one LP over a stack of cost rows.

Both dispatchers solve one LP many times over, with only some cost
coefficients changed between solves: a block of heat pumps' dispatch
(`thermal.fleet_rows`, one diagonal block per heat pump) once per price
scenario, the network OPF once per price row.
`HighsSweep` hands the LP to one HiGHS instance and, for each cost row,
changes the costs of the given columns and re-runs dual simplex from the
previous row's optimal basis (Huangfu & Hall, Math. Prog. Comp. 2018).
The first row starts from the last optimal basis of an LP of the same
shape, when the caller keeps one: the fleet's blocks of heat pumps are
one shape, and so is a feeder's OPF from one day to the next.  A caller
may instead hand a start for each row and take back each row's optimal
basis: a full block of heat pumps starts row s from the optimum the block
before it found at row s, whose heat pump at each position has a near
time constant and so, mostly, the same optimal basis.  Column
bounds are fixed at construction: a caller pinning columns substitutes
them out and sweeps the smaller LP, as `grid.OpfModel.solve` does.

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
    vertex.  The LP may be `blocks` equal diagonal blocks: block k owns
    the k-th of `blocks` equal contiguous slices of the columns and of
    the rows, and no row of one block has a nonzero in another block's
    columns.  Each block's vertex is then keyed on its own.  A
    `thermal.fleet_rows` LP is laid out this way, one block per heat pump.
    """

    def __init__(self, A, row_lo, row_hi, col_lo, col_hi, cost, cost_cols, blocks: int = 1):
        A = sparse.csc_array(A)
        if blocks < 1 or A.shape[0] % blocks or A.shape[1] % blocks:
            raise ValueError(f"a {A.shape[0]} x {A.shape[1]} LP has no {blocks} equal blocks")
        row_lo, row_hi, col_lo, col_hi, cost = (
            np.asarray(v, dtype=float) for v in (row_lo, row_hi, col_lo, col_hi, cost))
        # HiGHS spins without end on a NaN; an infinite bound is a free side
        if (not np.isfinite(np.r_[A.data, cost]).all()
                or np.isnan(np.r_[row_lo, row_hi, col_lo, col_hi]).any()):
            raise ValueError("an LP needs a finite matrix and costs, and bounds without NaN")
        lp = _hc.HighsLp()
        lp.num_row_, lp.num_col_ = A.shape
        lp.a_matrix_.num_row_, lp.a_matrix_.num_col_ = A.shape
        lp.a_matrix_.format_ = _hc.MatrixFormat.kColwise
        lp.a_matrix_.start_ = A.indptr
        lp.a_matrix_.index_ = A.indices
        lp.a_matrix_.value_ = A.data
        lp.row_lower_, lp.row_upper_, lp.col_lower_, lp.col_upper_ = row_lo, row_hi, col_lo, col_hi
        lp.col_cost_ = cost
        self._lp = lp
        self._col_hi = col_hi
        self._cost_cols = np.asarray(cost_cols, dtype=np.int32)
        self.blocks = blocks

    def solve(self, cost_rows: np.ndarray, bases: dict | None = None,
              row_bases: list | None = None) -> tuple[np.ndarray, np.ndarray]:
        """(S, n) optimal points and S objectives for an (S, len(cost_cols)) stack.

        Each call runs on a fresh HiGHS instance.  Its first row starts
        from the basis `bases`, a dict from LP shape (rows, cols) to the
        last optimal basis of that shape, holds for this LP's shape, or
        cold; each later row starts from the row before, and the call's
        final basis is stored back in `bases`.  `row_bases`, when given,
        is a list of S per-row starts, each a basis of this LP's shape or
        None: row s starts from its own start instead, unless its costs
        equal the row before's, and the list comes back holding each
        row's optimal basis.  So an equal stack with equal starts gives
        equal answers.  A start HiGHS refuses leaves
        its row to go on from the row before (cold, on the first row);
        a run from any start that ends without an optimum gives way to
        the cold sweep.

        A block whose optimal vertex was seen at an earlier row of the
        call gets that row's values for its columns: the vertex is the
        same, and reusing it keeps identical schedules byte-identical
        rather than apart by the warm path's rounding noise, whatever the
        other blocks do.  A block's vertex key is the basis status of its
        columns and rows: basic, or nonbasic at the lower or the upper
        bound.  Raises ValueError, before any solve, on a cost that is
        not finite or a row_bases of another length than the stack, and
        Infeasible or SolverFailure on the first row without an optimum.
        """
        cost_rows = np.asarray(cost_rows, dtype=float)
        if not np.isfinite(cost_rows).all():
            raise ValueError("cost rows must be finite")
        if row_bases is not None and len(row_bases) != len(cost_rows):
            raise ValueError(f"{len(row_bases)} row bases for {len(cost_rows)} cost rows")
        shape = (self._lp.num_row_, self._lp.num_col_)
        starts = [None] * len(cost_rows) if row_bases is None else list(row_bases)
        if starts and starts[0] is None and bases is not None:
            starts[0] = bases.get(shape)
        try:
            X, objective, optima = self._rows(cost_rows, starts)
        except SolverFailure:
            if all(start is None for start in starts):
                raise
            X, objective, optima = self._rows(cost_rows, [None] * len(starts))
        if bases is not None and optima:
            bases[shape] = optima[-1]
        if row_bases is not None:
            row_bases[:] = optima
        return X, objective

    def _rows(self, cost_rows: np.ndarray, starts: list) -> tuple[np.ndarray, np.ndarray, list]:
        """The sweep over cost_rows on a fresh instance, each row set to
        its start when it has one and HiGHS takes it.  Returns the points,
        the objectives and each row's optimal basis."""
        highs = _hc._Highs()
        highs.passOptions(_options())
        highs.passModel(self._lp)
        n_row, n_col = self._lp.num_row_, self._lp.num_col_
        B = self.blocks
        X = np.empty((len(cost_rows), n_col))
        objective = np.empty(len(cost_rows))
        first_row: list[dict[bytes, int]] = [{} for _ in range(B)]
        optima = []
        for s, (cost, start) in enumerate(zip(cost_rows, starts)):
            # a row equal to the one before starts at its optimum already,
            # where a start would only cost HiGHS a refactorization; a
            # refused start changes nothing
            if start is not None and not (s and np.array_equal(cost, cost_rows[s - 1])):
                highs.setBasis(start)
            highs.changeColsCost(len(self._cost_cols), self._cost_cols, cost)
            highs.run()
            model_status = highs.getModelStatus()
            if model_status == _hc.HighsModelStatus.kInfeasible:
                raise Infeasible("LP is infeasible")
            if model_status != _hc.HighsModelStatus.kOptimal:
                raise SolverFailure(f"HiGHS status {highs.modelStatusToString(model_status)}")
            X[s] = highs.getSolution().col_value
            found, basic = highs.getBasicVariables()
            if found != _hc.HighsStatus.kOk:
                raise SolverFailure("HiGHS returned an optimum without a basis")
            # 0 nonbasic at the lower bound (or free at zero), 1 basic, 2
            # nonbasic at the upper bound; a basic row -r-1 sits at n_col + r
            status = np.zeros(n_col + n_row, dtype=np.uint8)
            status[:n_col][X[s] == self._col_hi] = 2
            status[np.where(basic >= 0, basic, n_col - 1 - basic)] = 1
            keys = np.hstack([status[:n_col].reshape(B, -1), status[n_col:].reshape(B, -1)])
            blocks = X[s].reshape(B, -1)
            for k, seen in enumerate(first_row):
                earlier = seen.setdefault(keys[k].tobytes(), s)
                if earlier != s:
                    blocks[k] = X[earlier].reshape(B, -1)[k]
            objective[s] = highs.getObjectiveValue()
            optima.append(highs.getBasis())
        return X, objective, optima
