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
from dataclasses import dataclass, field
from fractions import Fraction


@dataclass(frozen=True)
class ModelParams:
    """Dimensionless model parameters: Hartmann number M, coefficient m of
    the f*f'' term, and suction parameter s = f(0), read once into `exact`,
    the rationals (M, m, s) of the Taylor table: a rational exactly, a float
    (numpy float64 too) through its shortest decimal repr, so 1.8 is 9/5.
    The fields hold the nearest floats, which every float formula reads."""

    M: float
    m: float
    s: float
    exact: tuple[Fraction, Fraction, Fraction] = field(init=False)  # in == too

    def __post_init__(self):
        exact = []
        for name in ("M", "m", "s"):
            v = getattr(self, name)
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
            object.__setattr__(self, name, float(x))
            exact.append(x)
        object.__setattr__(self, "exact", tuple(exact))

    @property
    def M2(self) -> float:
        """M^2 as M ** 2, or inf where that overflows (|M| above ~1.3e154).
        Every float formula reads it here; M * M rounds differently."""
        try:
            return self.M ** 2
        except OverflowError:
            return math.inf

