"""Model definition for the shrinking-sheet similarity equation.

The third-order ODE

    f'''(eta) - M^2 f'(eta) - f'(eta)^2 + m f(eta) f''(eta) = 0

with f(0) = s, f'(0) = -1 and f'(eta) -> 0 as eta -> infinity. The unknown
shooting parameter is alpha = f''(0).
"""

from __future__ import annotations

import math
import numbers
import sys
from collections import namedtuple
from fractions import Fraction


class ModelParams(namedtuple("ModelParams", "M m s exact")):
    """Dimensionless model parameters: Hartmann number M, coefficient m of
    the f*f'' term, and suction parameter s = f(0), read once into `exact`,
    the rationals (M, m, s) of the Taylor table: a rational exactly, a float
    (numpy float64 too) through its shortest decimal repr, so 1.8 is 9/5.
    The fields hold the nearest floats, which every float formula reads;
    `exact` is derived, never passed, and is part of == and hash."""

    __slots__ = ()

    def __new__(cls, M, m, s):
        exact = []
        for name, v in (("M", M), ("m", m), ("s", s)):
            if isinstance(v, numbers.Rational):
                x = Fraction(int(v.numerator), int(v.denominator))
            elif not isinstance(v, float):
                raise TypeError(f"parameter {name} must be a rational or a "
                                f"float, got {type(v).__name__}")
            elif math.isfinite(v):
                x = Fraction(repr(float(v)))  # not repr(v): 'np.float64(1.8)'
            else:
                raise ValueError(f"parameter {name} must be finite, got {v!r}")
            if not abs(x) <= sys.float_info.max or (x and not float(x)):
                # its nearest float would be inf, or 0 for a nonzero value
                raise ValueError(f"parameter {name} is past the float range")
            exact.append(x)
        return super().__new__(cls, *map(float, exact), tuple(exact))

    # `_replace` builds through `_make`: from the three floats, checked again
    _make = classmethod(lambda cls, values: cls(*tuple(values)[:3]))

    def __getnewargs__(self):  # copy and pickle: from the exact rationals
        return self.exact

    @property
    def M2(self) -> float:
        """M^2 as M ** 2, or inf where that overflows (|M| above ~1.3e154).
        Every float formula reads it here; M * M rounds differently."""
        try:
            return self.M ** 2
        except OverflowError:
            return math.inf

