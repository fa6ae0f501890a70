"""``emden._brentq`` is scipy's ``brentq``: on generated sign-changing brackets
it evaluates f at the same points and returns the same root, bit for bit, in
both of the package's call shapes (``emden._locate``'s floor crossing and
``classify._bound_period``'s turning point); on each failure path it raises
the exception type scipy raises."""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq as scipy_brentq

from eulerexact import emden
from eulerexact.emden import MIN_REL_TOL, _brentq

from _oracles import DENSE_FACTORS

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True)
EPS4 = 4.0 * math.ulp(1.0)


def real(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


# the package's two call shapes: emden._locate's floor crossing, refined to
# rel_tol * |t|, and classify._bound_period's turning point, refined to 4 eps
rel_tols = st.one_of(st.just(MIN_REL_TOL), st.just(1e-10),
                     real(math.log10(MIN_REL_TOL), -3.0).map(lambda e: 10.0 ** e))
tolerances = st.one_of(rel_tols.map(lambda r: (1e-300, r)),
                       st.just((1e-300, emden._BRENTQ_RTOL)))


def recorded(f):
    """f, and the list of the points it is evaluated at."""
    xs = []

    def g(x):
        xs.append(x)
        return f(x)
    return g, xs


def scipys_brentq(f, a, b, xtol, rtol, maxiter):
    return scipy_brentq(f, a, b, xtol=xtol, rtol=rtol, maxiter=maxiter)


def both(f, a, b, xtol, rtol, maxiter=100):
    """Each root finder's (root as hex or exception type, evaluation points)."""
    out = []
    for solver in (_brentq, scipys_brentq):
        g, xs = recorded(f)
        try:
            result = solver(g, a, b, xtol, rtol, maxiter).hex()
        except (ValueError, RuntimeError) as exc:
            result = type(exc)
        out.append((result, [float(x).hex() for x in xs]))
    return out


def quartic(c):
    def f(x):
        return (((c[4] * x + c[3]) * x + c[2]) * x + c[1]) * x + c[0]
    return f


@SETTINGS
@given(st.lists(real(-10.0, 10.0), min_size=4, max_size=4), real(-5.0, 5.0),
       real(1e-9, 5.0), real(0.0, 1.0), tolerances)
def test_quartic_roots_match_scipy(coeffs, lo, width, frac, tol):
    # the constant term puts a root near lo + frac * width
    hi = lo + width
    f = quartic([-quartic([0.0, *coeffs])(lo + frac * width), *coeffs])
    assume(hi > lo and f(lo) * f(hi) < 0.0)
    # a root, or scipy's RuntimeError where 100 iterations do not converge
    ours, scipys = both(f, lo, hi, *tol)
    assert ours == scipys


def step_output(method, t_lo, t_hi, y0, coeffs):
    """One component's dense output on one ``method`` step, evaluated as
    ``emden._locate`` evaluates it: the pair's generated evaluator, read at
    the component of a planar state whose other component has the same
    row."""
    row = tuple(coeffs[:len(DENSE_FACTORS[method](0.0))])
    dense = emden._METHODS[method].dense(2)
    return lambda q: emden._dense_state(t_lo, t_hi, (y0, 0.0), (row, row), dense, q)[0]


@SETTINGS
@given(st.sampled_from(["RK45", "DOP853"]), real(-10.0, 100.0), real(1e-6, 2.0),
       real(-1.0, 1.0), st.lists(real(-1.0, 1.0), min_size=7, max_size=7), real(0.0, 1.0),
       tolerances)
def test_dense_output_crossings_match_scipy(method, t0, h, y0, coeffs, frac, tol):
    t_lo, t_hi = t0, t0 + h
    value = step_output(method, t_lo, t_hi, y0, coeffs)
    # a level the step's polynomial takes inside the step
    level = value(t_lo + frac * (t_hi - t_lo))

    def f(q):
        return value(q) - level
    assume(t_hi > t_lo and f(t_lo) * f(t_hi) < 0.0)
    ours, scipys = both(f, t_lo, t_hi, *tol)
    assert ours == scipys


class TestContract:
    def test_exact_zero_ends_are_returned_at_once(self):
        f = quartic([0.0, 1.0, 0.0, 0.0, 0.0])  # f(x) = x
        for a, b in ((0.0, 1.0), (-1.0, 0.0), (0.0, 0.0)):
            ours, scipys = both(f, a, b, 1e-300, EPS4)
            assert ours == scipys
            assert len(ours[1]) == 2

    @pytest.mark.parametrize("scale", [1.0, 1e-200])
    def test_same_sign_ends(self, scale):
        # at 1e-200, f(a) * f(b) underflows to 0; the sign bits still agree
        ours, scipys = both(quartic([scale, 0.0, scale, 0.0, 0.0]), -1.0, 1.0, 1e-12, EPS4)
        assert ours[0] is ValueError
        assert ours == scipys

    @pytest.mark.parametrize("nan_at", [lambda x: x == 0.0, lambda x: x == 1.0,
                                        lambda x: 0.3 < x < 0.95],
                             ids=["lower end", "upper end", "inside"])
    def test_nan_value(self, nan_at):
        def f(x):
            return math.nan if nan_at(x) else x - 0.9
        ours, scipys = both(f, 0.0, 1.0, 1e-12, EPS4)
        assert ours[0] is ValueError
        assert ours == scipys

    @pytest.mark.parametrize("maxiter", [0, 1, 2, 3])
    def test_too_few_iterations(self, maxiter):
        ours, scipys = both(quartic([-0.3, 1.0, 0.0, 0.0, 1.0]), 0.0, 1.0, 1e-300, EPS4,
                            maxiter=maxiter)
        assert ours[0] is RuntimeError
        assert ours == scipys

    @pytest.mark.parametrize("xtol, rtol", [
        (1e-12, EPS4 * (1.0 - 2 ** -52)),   # rtol below 4 eps
        (1e-12, 0.0),
        (0.0, EPS4),                         # xtol not > 0
        (-1e-12, EPS4),
    ])
    def test_bad_tolerances(self, xtol, rtol):
        ours, scipys = both(quartic([-0.3, 1.0, 0.0, 0.0, 0.0]), 0.0, 1.0, xtol, rtol)
        assert ours[0] is ValueError
        assert ours == scipys

    def test_the_least_rtol_is_accepted(self):
        ours, scipys = both(quartic([-0.3, 1.0, 0.0, 0.0, 1.0]), 0.0, 1.0, 1e-300, EPS4)
        assert isinstance(ours[0], str)
        assert ours == scipys

    @pytest.mark.parametrize("scale", [1e-150, 1e-200, 1e-300])
    def test_tiny_values(self, scale):
        # f(a) * f(b) and the extrapolation's denominator underflow to 0: the
        # sign bits still differ, and C's quotient by 0 rejects the step
        def f(x):
            return scale * ((x - 0.3) * (x + 2.0) * (x * x + 1.0))
        ours, scipys = both(f, 0.0, 1.0, 1e-300, EPS4)
        assert float.fromhex(ours[0]) == pytest.approx(0.3, rel=1e-15)
        assert ours == scipys
