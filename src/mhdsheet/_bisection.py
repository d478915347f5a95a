"""The package's one bisection loop, on floats. It serves the Hankel root
search (`hankel.find_root`, whose signs `det_sign_at` computes exactly at
each float), the float searches of `ivp` (the adaptive stepper's stop,
extremum refinement and shooting) and the real roots of the N = 2
quartic (`ansatz._real_roots`)."""

from __future__ import annotations

from collections.abc import Callable


def bisect_sign(g: Callable, a: float, b: float, ga, width: float):
    """Bisect the float bracket [a, b], where g(a) = ga is nonzero and g(b)
    has the other sign, at the rounded midpoint (a + b) / 2. One stop rule:
    b - a <= width, or no float lies strictly between a and b. Returns the
    final bracket, or (m, m) at a midpoint m where g is zero."""
    while b - a > width:
        mid = (a + b) / 2
        if not a < mid < b:
            break
        gm = g(mid)
        if gm == 0:
            return mid, mid
        if (gm > 0) == (ga > 0):
            a = mid
        else:
            b = mid
    return a, b
