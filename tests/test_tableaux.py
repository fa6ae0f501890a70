"""The literal Butcher tableaux in ``eulerexact._tableaux`` are scipy's arrays,
bit for bit: every entry is compared through ``float.hex``, and the stage
matrices hold nothing on or above their diagonals."""

import numpy as np
import pytest
from scipy.integrate import RK45
from scipy.integrate._ivp import dop853_coefficients as dop853

from eulerexact import _tableaux as T


def hexes(values):
    return [float(v).hex() for v in np.asarray(values).ravel().tolist()]


def assert_rows(rows, array):
    """The literal rows are the array's rows, all of them."""
    assert len(rows) == len(array)
    for row, ref in zip(rows, array):
        assert hexes(row) == hexes(ref)


def assert_stage_matrix(rows, A):
    """Row i holds A[i, :i]; everything on and above the diagonal is 0."""
    assert len(rows) == len(A)
    for i, row in enumerate(rows):
        assert len(row) == i
        assert hexes(row) == hexes(A[i, :i])
        assert not A[i, i:].any()


class TestRK45:
    def test_A(self):
        assert_stage_matrix(T.RK45_A, RK45.A)

    def test_B_E_P(self):
        assert hexes(T.RK45_B) == hexes(RK45.B)
        assert hexes(T.RK45_E) == hexes(RK45.E)
        assert_rows(T.RK45_P, RK45.P)


class TestDOP853:
    def test_stage_counts(self):
        assert T.DOP853_STAGES == dop853.N_STAGES
        assert T.DOP853_STAGES_EXTENDED == dop853.N_STAGES_EXTENDED

    def test_A_all_extended_rows(self):
        assert_stage_matrix(T.DOP853_A, dop853.A)

    @pytest.mark.parametrize("name", ["B", "E5", "E3"])
    def test_weights(self, name):
        literal = getattr(T, "DOP853_" + name)
        assert hexes(literal) == hexes(getattr(dop853, name))

    def test_D(self):
        assert_rows(T.DOP853_D, dop853.D)


class TestRK45DenseWeightBounds:
    """``RK45_P_BOUND`` bounds each dense-output weight
    w_j(x) = sum_k P[j][k] x^(k+1) of the stages 1 and 3-7 on x in [0, 1]
    from above, and within 2 % of its sup, so the bound stays useful."""

    STAGES = (0, 2, 3, 4, 5, 6)
    GRID = 1_000_001

    @pytest.mark.parametrize("j, bound", list(zip(STAGES, T.RK45_P_BOUND)))
    def test_bound_is_a_tight_upper_bound(self, j, bound):
        row = np.array(T.RK45_P[j])
        x = np.linspace(0.0, 1.0, self.GRID)
        w = np.polyval(np.concatenate([row[::-1], [0.0]]), x)
        # between grid points |w| grows by at most its Lipschitz constant
        # sum_k (k + 1) |P[j][k]| times half the spacing
        lipschitz = sum((k + 1) * abs(c) for k, c in enumerate(row))
        sup = np.abs(w).max() + lipschitz / (self.GRID - 1) / 2
        assert bound >= sup
        assert bound <= 1.02 * np.abs(w).max()
