"""The package's one bisection loop. It serves the exact Hankel root search
(`hankel.find_root`, on Fraction brackets) and the float searches of `ivp`
(the adaptive stepper's stop, extremum refinement and shooting)."""

from __future__ import annotations

from typing import Callable


def bisect_sign(g: Callable, a, b, ga, width):
    """Bisect [a, b], where g(a) = ga is nonzero and g(b) has the other
    sign, until b - a <= width or the midpoint no longer lies strictly
    between a and b as floats; returns the final bracket, or (x, x) at a
    midpoint x where g is zero.

    The midpoint is (a + b) / 2, so Fraction ends stay exact; for floats it
    is the rounded 0.5 * (a + b). The float test stops a float bracket at
    adjacent floats, and an exact one once float((a + b) / 2) could move
    by at most one float spacing, whatever `width` asks for."""
    while b - a > width:
        mid = (a + b) / 2
        if not float(a) < float(mid) < float(b):
            break
        gm = g(mid)
        if gm == 0:
            return mid, mid
        if (gm > 0) == (ga > 0):
            a = mid
        else:
            b = mid
    return a, b
