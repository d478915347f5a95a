"""Taylor coefficients of f about eta = 0 as exact polynomials in
alpha = f''(0), plus Pade approximant construction over numeric series.

The coefficient recurrence comes from substituting f = sum f_j eta^j into
the ODE and matching powers of eta (Cauchy products for the two quadratic
terms):

    (j+1)(j+2)(j+3) f_{j+3} = M^2 (j+1) f_{j+1}
        + sum_{k=0..j} (k+1)(j-k+1) f_{k+1} f_{j-k+1}
        - m sum_{k=0..j} (j-k+1)(j-k+2) f_k f_{j-k+2}

seeded by f_0 = s, f_1 = -1, f_2 = alpha/2. All arithmetic is exact; the
Hankel sign tests downstream depend on that.

The table is built over the integers. With q the lcm of the denominators
of M^2, m and s, write M^2 = A/q and m = B/q. Multiplying the recurrence
by j! turns it into one for F_k = k! f_k with binomial weights, and
G_k = q^(2k+1) F_k then obeys

    G_{j+3} = A q^3 G_{j+1}
        + sum_{k=0..j} C(j,k) (q G_{k+1} G_{j-k+1} - B G_k G_{j-k+2})

from G_0 = q s, G_1 = -q^3, G_2 = q^5 alpha. Every G_k is a polynomial in
alpha with integer coefficients, so no gcd is taken until the rational
entries f_k = G_k / (q^(2k+1) k!) are formed once at the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Sequence

import numpy as np

from .model import ModelParams


class DegenerateSystem(Exception):
    """The Pade denominator system is singular or too ill-conditioned."""


class PoleNear(Exception):
    """Pade evaluation requested too close to a denominator zero."""


def to_exact(value) -> Fraction:
    """Convert a parameter to an exact rational.

    Fractions, ints and decimal strings convert exactly. Floats are read
    through their shortest decimal repr, so a value entered as 1.8 becomes
    9/5 (not the binary expansion of the float). Irrational parameters
    have no exact representation; use the float-only ansatz/IVP paths.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"parameter {value!r} is not finite")
        return Fraction(repr(value))
    raise TypeError(f"cannot convert {type(value).__name__} to exact rational")


@dataclass(frozen=True)
class AlphaPolynomial:
    """Univariate polynomial in alpha with exact rational coefficients,
    coeffs[k] multiplying alpha^k. Canonical: trailing zeros trimmed, the
    zero polynomial is the empty tuple."""

    coeffs: tuple[Fraction, ...]

    @staticmethod
    def make(coeffs: Sequence) -> "AlphaPolynomial":
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return AlphaPolynomial(tuple(cs))

    @staticmethod
    def constant(c) -> "AlphaPolynomial":
        return AlphaPolynomial.make([c])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __add__(self, other: "AlphaPolynomial") -> "AlphaPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return AlphaPolynomial.make(out)

    def __mul__(self, other: "AlphaPolynomial") -> "AlphaPolynomial":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return AlphaPolynomial(())
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return AlphaPolynomial.make(out)

    def scale(self, c) -> "AlphaPolynomial":
        c = Fraction(c)
        if c == 0:
            return AlphaPolynomial(())
        return AlphaPolynomial(tuple(x * c for x in self.coeffs))

    def __call__(self, alpha: Fraction) -> Fraction:
        # Horner, highest degree first, for determinism
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * alpha + c
        return acc


@dataclass(frozen=True)
class TaylorTable:
    """Taylor coefficients f_0 .. f_J of f about eta = 0, each an exact
    polynomial in alpha. m2/m/s are the exact rational parameters (the
    recurrence only sees M^2, so negative M is equivalent to |M|)."""

    m2: Fraction
    m: Fraction
    s: Fraction
    entries: tuple[AlphaPolynomial, ...]

    @property
    def order(self) -> int:
        return len(self.entries) - 1

    @cached_property
    def cleared(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """Each entry over one denominator: (c, L) with f_k = sum c_i alpha^i / L,
        L > 0 the lcm of the coefficient denominators. Built from `entries`
        on first use, so exact evaluation can stay in integers."""
        out = []
        for p in self.entries:
            L = math.lcm(*(c.denominator for c in p.coeffs))
            out.append((tuple(c.numerator * (L // c.denominator) for c in p.coeffs), L))
        return tuple(out)


def taylor_table(params: ModelParams, order: int) -> TaylorTable:
    """Build f_0 .. f_order by the exact recurrence. Requires order >= 3."""
    if order < 3:
        raise ValueError(f"order must be >= 3, got {order}")
    m2 = to_exact(params.M) ** 2
    m = to_exact(params.m)
    s = to_exact(params.s)

    q = math.lcm(m2.denominator, m.denominator, s.denominator)
    a_q3 = m2.numerator * (q // m2.denominator) * q ** 3
    b = m.numerator * (q // m.denominator)
    G = [[s.numerator * (q // s.denominator)], [-q ** 3], [0, q ** 5]]
    for j in range(order - 2):
        acc = [0] * (2 * max(map(len, G)) - 1)
        _add_product(acc, G[j + 1], [a_q3])
        for k in range(j + 1):
            c = math.comb(j, k)
            _add_product(acc, G[k + 1], [c * q * x for x in G[j - k + 1]])
            _add_product(acc, G[k], [-c * b * x for x in G[j - k + 2]])
        while acc and acc[-1] == 0:
            acc.pop()
        G.append(acc)

    entries = []
    den = q
    for k, g in enumerate(G):
        if k:
            den *= q * q * k
        entries.append(AlphaPolynomial.make([Fraction(x, den) for x in g]))
    return TaylorTable(m2=m2, m=m, s=s, entries=tuple(entries))


def _add_product(acc: list[int], a: Sequence[int], b: Sequence[int]) -> None:
    """acc += a * b for integer coefficient lists (acc long enough)."""
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                acc[i + j] += x * y


def evaluate_table(table: TaylorTable, alpha: Fraction) -> list[Fraction]:
    """Exact values [f_j(alpha)] for j = 0..order. No rounding anywhere."""
    alpha = Fraction(alpha)
    return [p(alpha) for p in table.entries]


@dataclass(frozen=True)
class PadeApproximant:
    """[L/K] rational approximant; den_coeffs[0] == 1."""

    num_coeffs: tuple[float, ...]
    den_coeffs: tuple[float, ...]


def pade(series: Sequence[float], L: int, K: int) -> PadeApproximant:
    """[L/K] Pade approximant of a Maclaurin series.

    Denominator coefficients solve the K x K Toeplitz system that matches
    orders L+1 .. L+K; the numerator follows by convolution.
    """
    c = [float(x) for x in series]
    if len(c) < L + K + 1:
        raise ValueError(f"need at least {L + K + 1} series coefficients, got {len(c)}")

    def cc(i):
        return c[i] if i >= 0 else 0.0

    if K == 0:
        den = [1.0]
    else:
        A = np.array([[cc(L + j - k) for k in range(1, K + 1)]
                      for j in range(1, K + 1)])
        rhs = -np.array([cc(L + j) for j in range(1, K + 1)])
        if np.linalg.cond(A) > 1e13:
            raise DegenerateSystem(
                f"Toeplitz system for [{L}/{K}] is singular or near-singular; "
                "retry with smaller K")
        d = np.linalg.solve(A, rhs)
        den = [1.0] + list(d)
    num = [sum(den[k] * cc(i - k) for k in range(min(i, K) + 1))
           for i in range(L + 1)]
    return PadeApproximant(tuple(num), tuple(den))


def _horner(coeffs: Sequence[float], x: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def pade_eval(p: PadeApproximant, eta: float) -> float:
    num = _horner(p.num_coeffs, eta)
    den = _horner(p.den_coeffs, eta)
    if abs(den) <= 1e-12 * (1.0 + abs(num)):
        raise PoleNear(f"denominator {den:g} too small at eta={eta:g}")
    return num / den
