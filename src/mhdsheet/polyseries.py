"""Derivatives and Taylor coefficients of f at eta = 0 as exact polynomials
in alpha = f''(0), plus Pade approximant construction over numeric series.

The coefficient recurrence comes from substituting f = sum f_j eta^j into
the ODE and matching powers of eta (Cauchy products for the two quadratic
terms):

    (j+1)(j+2)(j+3) f_{j+3} = M^2 (j+1) f_{j+1}
        + sum_{k=0..j} (k+1)(j-k+1) f_{k+1} f_{j-k+1}
        - m sum_{k=0..j} (j-k+1)(j-k+2) f_k f_{j-k+2}

seeded by f_0 = s, f_1 = -1, f_2 = alpha/2, on `ModelParams.exact`. All
arithmetic is exact; the Hankel sign tests downstream depend on that.

The table is built over the integers. With q the lcm of the denominators
of M^2, m and s (`TaylorTable.q`), write M^2 = A/q and m = B/q. Times j!,
the recurrence is one for the derivatives F_k = k! f_k = f^(k)(0) with
binomial weights, and G_k = q^(2k+1) F_k then obeys

    G_{j+3} = A q^3 G_{j+1}
        + sum_{k=0..j} C(j,k) (q G_{k+1} G_{j-k+1} - B G_k G_{j-k+2})

from G_0 = q s, G_1 = -q^3, G_2 = q^5 alpha. Every G_k is a polynomial in
alpha with integer coefficients, so no gcd is taken until the end, where
the table keeps F_k = G_k / q^(2k+1) reduced once to lowest terms: the
form the Hankel sign test reads. Every table continues the recurrence
from a shorter one's G_k.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Sequence
from functools import cached_property
from fractions import Fraction

from .model import ModelParams


class DegenerateSystem(Exception):
    """The Pade denominator system is singular or too ill-conditioned."""


class PoleNear(Exception):
    """Pade evaluation requested too close to a denominator zero."""


def _horner(coeffs: Sequence, x):
    """sum coeffs[k] x^k by Horner's rule, highest degree first. From the
    int 0: floats round as from 0.0, rationals stay exact Fractions."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


class AlphaPolynomial(namedtuple("AlphaPolynomial", "coeffs")):
    """Univariate polynomial in alpha with exact rational coefficients,
    coeffs[k] multiplying alpha^k, evaluated by `_horner`. Canonical in the
    table: no trailing zeros; the zero polynomial is (), of value int 0."""

    __slots__ = ()

    def __call__(self, alpha: Fraction) -> Fraction:
        return _horner(self.coeffs, alpha)


class TaylorTable(namedtuple("TaylorTable", "m2 m s moments")):
    """The derivatives F_0 .. F_J of f at eta = 0, each an exact polynomial
    in alpha. m2/m/s are the exact rational parameters (the recurrence only
    sees M^2, so negative M is equivalent to |M|).

    `moments[k]` is (c, L) with F_k = f^(k)(0) = sum c_i alpha^i / L in
    lowest terms: L > 0, gcd(L, *c) == 1 and no trailing zero in c
    (F_k = 0 is ((), 1)). No __slots__: `entries` and the Hankel sign
    test's multipliers are kept in the instance's __dict__."""

    @property
    def order(self) -> int:
        return len(self.moments) - 1

    @property
    def q(self) -> int:
        """The lcm of the denominators of M^2, m and s."""
        return math.lcm(*(x.denominator for x in (self.m2, self.m, self.s)))

    @cached_property
    def entries(self) -> tuple[AlphaPolynomial, ...]:
        """The Taylor coefficients f_k = F_k / k! as rational polynomials,
        derived on first use."""
        return tuple(AlphaPolynomial(tuple(Fraction(c, L * math.factorial(k))
                                           for c in cs))
                     for k, (cs, L) in enumerate(self.moments))


def taylor_table(params: ModelParams, order: int,
                 table: TaylorTable | None = None) -> TaylorTable:
    """Build F_0 .. F_order by the exact recurrence. Requires order >= 3.

    The recurrence continues from the entries of `table` (of the same exact
    parameters, else ValueError), or of the seed table F_0 .. F_2, each
    G_k = c_k q^(2k+1) / L_k taken back from `moments`, so a table can
    grow one order at a time as its reader needs; the result equals the
    one-shot build."""
    if order < 3:
        raise ValueError(f"order must be >= 3, got {order}")
    M, m, s = params.exact
    m2 = M ** 2
    table = table or TaylorTable(m2=m2, m=m, s=s, moments=(
        ((s.numerator,) if s else (), s.denominator), ((-1,), 1), ((0, 1), 1)))
    if (table.m2, table.m, table.s) != (m2, m, s):
        raise ValueError("table was built for other parameters")

    q = table.q
    a_q3 = m2.numerator * (q // m2.denominator) * q ** 3
    b = m.numerator * (q // m.denominator)
    dens = [q ** (2 * k + 1) for k in range(order + 1)]
    moments = list(table.moments[:order + 1])
    G = [[x * (den // L) for x in c] for (c, L), den in zip(moments, dens)]
    for j in range(len(G) - 3, order - 2):
        acc = [0] * (2 * max(map(len, G)) - 1)
        _add_product(acc, G[j + 1], [a_q3])
        for k in range(j + 1):
            c = math.comb(j, k)
            _add_product(acc, G[k + 1], [c * q * x for x in G[j - k + 1]])
            _add_product(acc, G[k], [-c * b * x for x in G[j - k + 2]])
        while acc and acc[-1] == 0:
            acc.pop()
        G.append(acc)

    for g, den in zip(G[len(moments):], dens[len(moments):]):
        r = math.gcd(den, *g)
        moments.append((tuple(x // r for x in g), den // r))
    return TaylorTable(m2=m2, m=m, s=s, moments=tuple(moments))


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


class PadeApproximant(namedtuple("PadeApproximant", "num_coeffs den_coeffs")):
    """[L/K] rational approximant; den_coeffs[0] == 1."""

    __slots__ = ()


def solve_linear(A: Sequence[Sequence[float]],
                 B: Sequence[Sequence[float]]) -> list[list[float]]:
    """x with A x = b for each b in B: Gaussian elimination with partial
    pivoting on floats, alike on every host. ZeroDivisionError on a 0 pivot."""
    n = len(A)
    rows = [[*A[i], *(b[i] for b in B)] for i in range(n)]
    for k in range(n):
        p = max(range(k, n), key=lambda i: abs(rows[i][k]))
        rows[k], rows[p] = rows[p], rows[k]
        for row in rows[k + 1:]:
            lk = row[k] / rows[k][k]
            row[k + 1:] = [v - lk * u for v, u in zip(row[k + 1:], rows[k][k + 1:])]
    for k in reversed(range(n)):  # back substitution: x_k, then out of rows above
        x_k = rows[k][n:] = [v / rows[k][k] for v in rows[k][n:]]
        for row in rows[:k]:
            row[n:] = [v - row[k] * u for v, u in zip(row[n:], x_k)]
    return [[row[c] for row in rows] for c in range(n, n + len(B))]


def pade(series: Sequence[float], L: int, K: int) -> PadeApproximant:
    """[L/K] Pade approximant of a Maclaurin series.

    Denominator coefficients solve the K x K Toeplitz system A d = r that
    matches orders L+1 .. L+K; the numerator follows by convolution.
    DegenerateSystem on a zero pivot or unless ||A||_1 ||A^-1||_1 <= 1e13
    (A^-1 from the same elimination; within a factor K of the 2-norm cond).
    """
    c = [float(x) for x in series]
    if len(c) < L + K + 1:
        raise ValueError(f"need at least {L + K + 1} series coefficients, got {len(c)}")

    A = [[c[L + j - k] if L + j >= k else 0.0 for k in range(1, K + 1)]
         for j in range(1, K + 1)]
    units = [[float(i == j) for i in range(K)] for j in range(K)]
    try:
        d, *inv = solve_linear(A, [[-c[L + j] for j in range(1, K + 1)], *units])
        cond = math.prod(max((math.fsum(map(abs, x)) for x in cols), default=0.0)
                         for cols in (zip(*A), inv))
    except ZeroDivisionError:
        cond = math.inf
    if not cond <= 1e13:
        raise DegenerateSystem(
            f"Toeplitz system for [{L}/{K}] is singular or near-singular; "
            "retry with smaller K")
    den = [1.0, *d]
    num = [math.fsum(den[k] * c[i - k] for k in range(min(i, K) + 1))
           for i in range(L + 1)]
    return PadeApproximant(tuple(num), tuple(den))


def pade_eval(p: PadeApproximant, eta: float) -> float:
    num = _horner(p.num_coeffs, eta)
    den = _horner(p.den_coeffs, eta)
    if abs(den) <= 1e-12 * (1.0 + abs(num)):
        raise PoleNear(f"denominator {den:g} too small at eta={eta:g}")
    return num / den
