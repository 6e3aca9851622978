"""The warm-started HiGHS sweep against cold linprog solves."""

import numpy as np
import pytest
from scipy.optimize import linprog

from flexbid.lp import HighsSweep

# min c0*x0 + c1*x1  s.t.  x0 + x1 + x2 = 5,  x0, x1 in [0, 1],  x2 in [0, 10]
A = np.array([[1.0, 1.0, 1.0]])
LP = dict(A=A, row_lo=[5.0], row_hi=[5.0], col_lo=[0.0, 0.0, 0.0],
          col_hi=[1.0, 1.0, 10.0], cost=np.zeros(3), cost_cols=[0, 1])


def test_rows_match_cold_linprog_solves():
    rows = np.random.default_rng(3).uniform(-5.0, 5.0, (8, 2))
    X, objective = HighsSweep(**LP).solve(rows)
    assert X.shape == (8, 3) and objective.shape == (8,)
    for c, x, obj in zip(rows, X, objective):
        ref = linprog(np.append(c, 0.0), A_eq=A, b_eq=[5.0],
                      bounds=list(zip(LP["col_lo"], LP["col_hi"])), method="highs")
        assert obj == pytest.approx(ref.fun, abs=1e-12)
        assert np.allclose(x, ref.x, atol=1e-12)


def test_vertex_key_tells_upper_from_lower_bound():
    # both rows keep x2 as the only basic variable; only the nonbasic
    # columns' bounds tell the two vertices apart
    X, objective = HighsSweep(**LP).solve(np.array([[-1.0, 1.0], [1.0, -1.0], [-1.0, 1.0]]))
    assert X.tolist() == [[1.0, 0.0, 4.0], [0.0, 1.0, 4.0], [1.0, 0.0, 4.0]]
    assert objective.tolist() == [-1.0, -1.0, -1.0]


def test_highs_binding_offers_what_the_sweep_calls():
    # HighsSweep drives scipy's private HiGHS binding directly; a scipy
    # release that moves it must fail here, by name
    from scipy.optimize._highspy import _core

    assert hasattr(_core, "HighsLp")
    assert hasattr(_core, "HighsOptions")
    for method in ("passOptions", "passModel", "changeColsCost", "run",
                   "getModelStatus", "modelStatusToString", "getSolution",
                   "getBasicVariables", "getObjectiveValue"):
        assert hasattr(_core._Highs, method), method
