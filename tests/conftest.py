import contextlib
import math
import signal
from fractions import Fraction

import pytest

from mhdsheet import ModelParams, ivp

# the case studied in detail: M = m = 2, s = 1.8
PAPER_ALPHA = 4.20411340


@pytest.fixture
def paper_params():
    return ModelParams(M=2.0, m=2.0, s=1.8)


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError in the block once `seconds` of wall time pass, so
    that a search that never ends fails its test instead of hanging the
    run (POSIX interval timer; tests using it skip elsewhere)."""
    if not hasattr(signal, "setitimer"):
        pytest.skip("needs signal.setitimer")

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@contextlib.contextmanager
def counting_trajectories():
    """Yield a one-item list holding the number of trajectories (one
    `ivp.rhs` call each) integrated inside the block."""
    original, count = ivp.rhs, [0]

    def counted(params):
        count[0] += 1
        return original(params)
    ivp.rhs = counted
    try:
        yield count
    finally:
        ivp.rhs = original


def clear_by_lcm(coeffs):
    """(c, L) with c_i / L == coeffs[i] for rational coefficients, trailing
    zeros trimmed and L the lcm of their denominators: the integer form of
    one Taylor table entry."""
    cs = [Fraction(x) for x in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    L = math.lcm(*(x.denominator for x in cs))
    return tuple(x.numerator * (L // x.denominator) for x in cs), L


def taylor_coeffs_by_differentiation(M2, m, s, alpha, order):
    """Independent oracle for the Taylor coefficients of f about eta=0.

    Repeatedly differentiates the ODE solved for f''' with sympy and
    evaluates at eta=0, entirely in exact rationals. Shares nothing with
    the Cauchy-product recurrence under test.
    """
    import sympy as sp

    x = sp.Symbol("x")
    f = sp.Function("f")
    M2, m, s, alpha = sp.Rational(M2), sp.Rational(m), sp.Rational(s), sp.Rational(alpha)
    # f''' expressed through lower derivatives
    expr = M2 * f(x).diff(x) + f(x).diff(x) ** 2 - m * f(x) * f(x).diff(x, 2)

    derivs = {0: s, 1: sp.Integer(-1), 2: alpha}
    cur = expr
    for k in range(3, order + 1):
        subs = [(sp.Derivative(f(x), (x, i)), derivs[i])
                for i in range(k - 1, 0, -1)]
        subs.append((f(x), derivs[0]))
        derivs[k] = sp.simplify(cur.subs(subs))
        cur = sp.diff(cur, x)
    return [sp.nsimplify(derivs[j] / sp.factorial(j)) for j in range(order + 1)]
