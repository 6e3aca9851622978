"""Warm-started HiGHS re-solves of one LP over a stack of cost rows.

Both dispatchers solve one LP many times over, with only some cost
coefficients changed between solves: a block of heat pumps' dispatch
(`thermal.fleet_rows`, one diagonal block per heat pump) once per price
scenario, the network OPF once per price row.
`HighsSweep` hands the LP to one HiGHS instance and, for each cost row,
changes the costs of the given columns and re-runs dual simplex from the
previous row's optimal basis (Huangfu & Hall, Math. Prog. Comp. 2018).
The first row starts from the last optimal basis of an LP of the same
shape, when the caller keeps one: a fleet's first block of heat pumps
is one shape, and so is a feeder's OPF, from one day to the next.  A
caller may also take back each row's vertex status, and start an LP
from a status it assembled (`basis`): `thermal.DispatchModel` certifies
heat pumps on their neighbours' optimal bases that way, solves the rest
as one LP of copies, and gives each heat pump the bytes of its first
row at a vertex (`first_seen`).  Column bounds are fixed at
construction: a caller pinning columns substitutes them out and sweeps
the smaller LP, as `grid.OpfModel.solve` does.

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
        # index lists, which the binding takes whole; an int64 array it
        # converts element by element
        lp.a_matrix_.start_ = A.indptr.tolist()
        lp.a_matrix_.index_ = A.indices.tolist()
        lp.a_matrix_.value_ = A.data
        lp.row_lower_, lp.row_upper_, lp.col_lower_, lp.col_upper_ = row_lo, row_hi, col_lo, col_hi
        lp.col_cost_ = cost
        self._lp = lp
        self._col_hi = col_hi
        self._cost_cols = np.asarray(cost_cols, dtype=np.int32)
        self.runs = 0

    @property
    def shape(self) -> tuple[int, int]:
        """The LP's (rows, columns): the key of its bases."""
        return self._lp.num_row_, self._lp.num_col_

    def solve(self, cost_rows: np.ndarray, bases: dict | None = None) -> tuple[np.ndarray, np.ndarray]:
        """(S, n) optimal points and S objectives for an (S, len(cost_cols)) stack.

        Each call runs on a fresh HiGHS instance.  Its first row starts
        from the basis `bases`, a dict from LP shape (rows, cols) to the
        last optimal basis of that shape, holds for this LP's shape, or
        cold; each later row starts from the row before, and the call's
        final basis is stored back in `bases`.  A start HiGHS refuses
        leaves the first row cold; a run from a start that ends without
        an optimum gives way to the cold sweep, and a later row's run
        that ends without one is run again from scratch.  `runs` counts
        the call's HiGHS runs, the cold sweep's and the reruns included.

        A row whose optimal vertex was seen at an earlier row of the call
        gets that row's point: the vertex is the same, and reusing it
        keeps identical answers byte-identical rather than apart by the
        warm path's rounding noise.  The vertex key is the row's vertex
        status (`vertices`).  Raises ValueError, before any solve,
        on a cost that is not finite, and Infeasible or SolverFailure on
        a row left without an optimum.
        """
        X, objective, _ = self.vertices(cost_rows, bases)
        return X, objective

    def vertices(self, cost_rows: np.ndarray,
                 bases: dict | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """`solve`'s points and objectives, and each row's vertex status:
        an (S, n + m) uint8 array over the columns, then the rows, each 0
        nonbasic at the lower bound (or free at zero), 1 basic or 2
        nonbasic at the upper bound.  An optimal basis and these bounds
        name one vertex, as the class requires."""
        cost_rows = np.asarray(cost_rows, dtype=float)
        if not np.isfinite(cost_rows).all():
            raise ValueError("cost rows must be finite")
        start = None if bases is None else bases.get(self.shape)
        self.runs = 0
        try:
            X, objective, status, final = self._rows(cost_rows, start)
        except SolverFailure:
            if start is None:
                raise
            X, objective, status, final = self._rows(cost_rows, None)
        if bases is not None and final is not None:
            bases[self.shape] = final
        return X, objective, status

    def _rows(self, cost_rows: np.ndarray, start: _hc.HighsBasis | None
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray, _hc.HighsBasis | None]:
        """The sweep over cost_rows on a fresh instance, its first row set
        to start when there is one and HiGHS takes it.  Returns the points,
        the objectives, the vertex statuses and the last optimal basis."""
        highs = _hc._Highs()
        highs.passOptions(_options())
        highs.passModel(self._lp)
        n_row, n_col = self.shape
        S = len(cost_rows)
        X = np.empty((S, n_col))
        objective = np.empty(S)
        status = np.zeros((S, n_col + n_row), dtype=np.uint8)
        if start is not None:
            highs.setBasis(start)  # a refused start changes nothing
        for s, cost in enumerate(cost_rows):
            highs.changeColsCost(len(self._cost_cols), self._cost_cols, cost)
            highs.run()
            self.runs += 1
            if s and highs.getModelStatus() != _hc.HighsModelStatus.kOptimal:
                # the row before's basis can leave the dual simplex short
                # of its tolerances, where the row solved afresh is not
                highs.clearSolver()
                highs.run()
                self.runs += 1
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
        X = first_seen(X[:, None], status[:, None])[:, 0]
        return X, objective, status, highs.getBasis() if S else None


_STATUS = np.array([_hc.HighsBasisStatus.kLower, _hc.HighsBasisStatus.kBasic,
                    _hc.HighsBasisStatus.kUpper], dtype=object)


def basis(status: np.ndarray, n_col: int) -> _hc.HighsBasis:
    """The HiGHS basis of a vertex status as `HighsSweep.vertices` gives
    it, over an LP of n_col columns whose rows are all equalities."""
    out = _hc.HighsBasis()
    out.col_status = _STATUS[status[:n_col]].tolist()
    out.row_status = _STATUS[status[n_col:]].tolist()
    out.valid = True
    return out


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
