"""Exponential-sum approximation f(eta) ~ sum_{j=0..N} b_j exp(-beta j eta).

Substituting the ansatz into the ODE and collecting exp(-beta j eta) terms
gives residual modes, for j = 1 .. 2N:

    R_j = j beta (M^2 - j^2 beta^2) b_j                       (j <= N)
        - beta^2 sum_{i+k=j, i,k>=1} i k b_i b_k              (from -f'^2)
        + m beta^2 sum_{i+k=j, k>=1} k^2 b_i b_k              (from m f f'')

The constant b_0 drops out of the derivatives, so it only enters through
the m f f'' product; there is no independent mode-0 equation and b_0 is
fixed by the f(0) = s boundary row. The defining system is the two
boundary rows plus R_1 .. R_N = 0.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import partial, reduce

from ._bisection import bisect_sign
from .model import ModelParams
from .polyseries import _horner, solve_linear


class ComplexDecay(Exception):
    """No real, positive, finite N=1 decay rate: the discriminant
    4M^2 + m^2 s^2 - 4m is negative, or the closed-form beta is not
    positive, or it or its inverse overflows."""


class RequiresNonzeroM(Exception):
    """The N=2 closed form divides by m; |m| < 1e-6 is not admissible."""


class NoPhysicalRoot(Exception):
    """No real beta > 0 with a decaying coefficient sequence |b_2| < |b_1|,
    or the quartic for beta overflows."""


class NoConvergence(Exception):
    def __init__(self, msg, residual=None):
        super().__init__(msg)
        self.residual = residual


class AnsatzSolution(namedtuple("AnsatzSolution",
                                "N beta b alpha_est residual_norm")):
    """The order N, decay rate beta, coefficients b = (b_0 .. b_N),
    alpha_est = beta^2 sum j^2 b_j (the implied f''(0)) and residual_norm
    = max |R_j|, j = 1..N."""

    __slots__ = ()


class ResidualModes(namedtuple("ResidualModes", "R")):
    """R = (R_1 .. R_{2N})."""

    __slots__ = ()


def _modes(params: ModelParams, beta: float, b) -> list[float]:
    M2 = params.M2
    m = params.m
    N = len(b) - 1
    out = []
    for j in range(1, 2 * N + 1):
        r = 0.0
        if j <= N:
            r += j * beta * (M2 - j * j * beta * beta) * b[j]
        for i in range(max(1, j - N), min(N, j - 1) + 1):
            k = j - i
            r -= beta * beta * i * k * b[i] * b[k]
        for i in range(max(0, j - N), min(N, j - 1) + 1):
            k = j - i
            r += m * beta * beta * k * k * b[i] * b[k]
        out.append(r)
    return out


def residual_modes(params: ModelParams, sol: AnsatzSolution) -> ResidualModes:
    if sol.beta <= 0:
        raise ValueError("beta must be positive")
    return ResidualModes(tuple(_modes(params, sol.beta, sol.b)))


def _sum_in_order(xs):  # left to right: sum() compensates floats from 3.12 on
    return reduce(lambda acc, x: acc + x, xs, 0)


def _alpha_est(beta: float, b) -> float:
    return beta * beta * _sum_in_order(j * j * bj for j, bj in enumerate(b))


def _max_abs(g: list[float]) -> float:  # nan if any g_i is, unlike max()
    return math.nan if any(x != x for x in g) else max(map(abs, g))


def _finish(params: ModelParams, beta: float, b) -> AnsatzSolution:
    N = len(b) - 1
    beta = float(beta)
    R = _modes(params, beta, b)
    return AnsatzSolution(N=N, beta=beta, b=tuple(float(x) for x in b),
                          alpha_est=float(_alpha_est(beta, b)),
                          residual_norm=float(_max_abs(R[:N])))


def _M2_minus_m(params: ModelParams) -> float:
    """M^2 - m rounded once: formed as M*M - m it cancels where M^2 ~ m,
    and the rounding of M*M swamps the terms added to it."""
    try:
        return float(Fraction(params.M) ** 2 - Fraction(params.m))
    except OverflowError:  # |M| above ~1.3e154
        return math.inf


def solve_n1(params: ModelParams) -> AnsatzSolution:
    """Closed-form N=1 solution: beta = (sqrt(4(M^2 - m) + m^2 s^2) + ms)/2,
    b_1 = 1/beta, b_0 = s - 1/beta."""
    m, s = params.m, params.s
    disc = 4 * _M2_minus_m(params) + m * m * s * s
    if disc < 0:
        raise ComplexDecay(f"discriminant {disc:g} < 0; decay rate is complex")
    beta = (math.sqrt(disc) + m * s) / 2
    if beta <= 0:
        raise ComplexDecay(f"closed-form beta {beta:g} is not positive")
    if not math.isfinite(beta):
        raise ComplexDecay(f"closed-form beta {beta:g} is not finite")
    if not math.isfinite(1 / beta):  # subnormal beta
        raise ComplexDecay(f"closed-form beta {beta:g} has no finite 1/beta")
    return _finish(params, beta, [s - 1 / beta, 1 / beta])


def _quartic_coeffs(params: ModelParams) -> list[float]:
    M2 = params.M2
    m, s = params.m, params.s
    return [
        4.0,
        -4 * m * s * (2 - m),
        -2 * (2 * m * (m * m * s * s - m * s * s - 1) - M2 * (3 * m - 4)),
        -2 * m * s * (M2 * (5 * m - 4) - 2 * m * (m - 1)),
        -2 * M2 * (3 * m - 2) * _M2_minus_m(params) - m * m * (m - 1),
    ]


def _n2_coeffs(params: ModelParams, beta: float) -> list[float]:
    M2 = params.M2
    m, s = params.m, params.s
    b0 = (beta * beta - M2) / (m * beta)
    b1 = (2 * (M2 - beta * beta) + m * (2 * beta * s - 1)) / (m * beta)
    b2 = (beta * beta - M2 + m * (1 - beta * s)) / (m * beta)
    return [b0, b1, b2]


def _real_roots(c: list[float]) -> list[float]:
    """Real roots, ascending, of p(x) = sum c[i] x^(d-i), c[0] != 0: the real
    roots of p' cut the Cauchy-bound interval into monotone pieces, p taken
    once at each end; an end where p is 0 is a root, and a piece whose ends
    differ in sign is bisected to adjacent floats, keeping the smaller |p|."""
    d = len(c) - 1
    if d < 1:
        return []
    p = partial(_horner, c[::-1])
    bound = 1 + _max_abs([ci / c[0] for ci in c])
    dp = [(d - i) / d * ci for i, ci in enumerate(c[:-1])]  # p' / d: no overflow
    ends = [-bound, *_real_roots(dp), bound]
    values = [p(x) for x in ends]
    roots = {x for x, px in zip(ends, values) if px == 0}
    for a, b, pa, pb in zip(ends, ends[1:], values, values[1:]):
        if min(pa, pb) < 0 < max(pa, pb):
            a, b = bisect_sign(p, a, b, pa, 0.0)
            roots.add(min((a, b), key=lambda x: abs(p(x))))
    return sorted(roots)


def solve_n2(params: ModelParams) -> AnsatzSolution:
    """Closed-form N=2 solution: beta is a positive real root of an
    explicit quartic, with b_0, b_1, b_2 rational in beta.

    Root selection (several positive roots are possible): keep roots with
    |b_2| < |b_1|, pick the one minimizing |b_2/b_1| (a b_2 within the
    rounding of its numerator counts as 0), ties broken by proximity to the
    N=1 beta.
    """
    M2, m, s = params.M2, params.m, params.s
    # below |m| = 1e-6 the quartic has a near-double root at beta ~ M that
    # rounding alone splits, so the outcome would be noise
    if abs(m) < 1e-6:
        raise RequiresNonzeroM("the N=2 coefficient formulas divide by m; "
                               "|m| < 1e-6 is not admissible")
    coeffs = _quartic_coeffs(params)
    if not all(math.isfinite(c) for c in coeffs):
        raise NoPhysicalRoot("the N=2 quartic's coefficients overflow")
    try:
        beta1 = solve_n1(params).beta
    except ComplexDecay:
        beta1 = None

    candidates = []
    for beta in _real_roots(coeffs):
        if beta <= 0:
            continue
        b = _n2_coeffs(params, beta)
        if abs(b[2]) >= abs(b[1]):
            continue
        # b_2 within the rounding of its numerator counts as zero: at m = 1
        # two roots have b_2 = 0 exactly, and the N=1 tie-break decides
        scale = max(beta * beta, M2, abs(m) * (1 + abs(beta * s)))
        if abs(b[2] * m * beta) <= 8 * math.ulp(1.0) * scale:
            ratio = 0.0
        else:
            ratio = abs(b[2] / b[1]) if b[1] != 0 else math.inf
        near = abs(beta - beta1) if beta1 is not None else 0.0
        candidates.append((ratio, near, beta, b))
    if not candidates:
        raise NoPhysicalRoot(
            "no real beta > 0 with a decaying coefficient sequence")
    candidates.sort(key=lambda t: (t[0], t[1]))
    _, _, beta, b = candidates[0]
    return _finish(params, beta, b)


def _system(params: ModelParams, x: list[float], N: int) -> list[float]:
    b = x[:N + 1]
    beta = x[N + 1]
    return [_sum_in_order(b) - params.s,
            beta * _sum_in_order(j * b[j] for j in range(N + 1)) - 1.0,
            *_modes(params, beta, b)[:N]]


def _jacobian(params: ModelParams, x: list[float], N: int) -> list[list[float]]:
    """d _system / d x by complex steps (Squire & Trapp 1998): column k is
    Im _system(x + i h e_k) / h. `_system` only adds, subtracts and
    multiplies, so it is a polynomial in x and runs on complex x as is."""
    # p(x + ih) = p(x) - h^2 p''(x)/2 + ... + i (h p'(x) - h^3 p'''(x)/6 + ...):
    # the h^2 terms stay in the real part, and Im / h misses p' by
    # h^2 p'''/6, about 2e-61 p''', far below the rounding of p'. No
    # difference is taken, so nothing cancels however small h is
    h = 1e-30
    cols = []
    for k in range(N + 2):
        xk = [xi + 1j * h if i == k else xi for i, xi in enumerate(x)]
        cols.append([g.imag / h for g in _system(params, xk, N)])
    return [list(row) for row in zip(*cols)]


def solve_general(params: ModelParams, N: int) -> AnsatzSolution:
    """Damped Newton on the (N+2)-equation defining system: Jacobian by
    complex steps, steps by `solve_linear` (zero pivot: NoConvergence), and
    a residual norm that is nan if any residual is. Seeds from the N=2
    closed form padded with zeros if N >= 2 and it exists, else from N=1."""
    if N < 1:
        raise ValueError("N must be >= 1")
    try:
        init = solve_n2(params) if N >= 2 else solve_n1(params)
    except (RequiresNonzeroM, NoPhysicalRoot):
        init = solve_n1(params)
    x = list(init.b[:N + 1]) + [0.0] * (N - init.N) + [init.beta]

    g = _system(params, x, N)
    norm = _max_abs(g)
    for _ in range(100):
        if norm < 1e-13:
            break
        try:
            step, = solve_linear(_jacobian(params, x, N), [g])
        except ZeroDivisionError:
            raise NoConvergence("singular Jacobian", residual=norm)
        lam = 1.0
        for _ in range(20):
            x_new = [xi - lam * si for xi, si in zip(x, step)]
            g_new = _system(params, x_new, N)
            norm_new = _max_abs(g_new)
            if norm_new < norm:
                break
            lam *= 0.5
        x, g, norm = x_new, g_new, norm_new
    # written so that a nan residual or beta fails the test
    if not norm < 1e-10:
        raise NoConvergence(f"Newton stalled at residual {norm:g}", residual=norm)
    beta = x[N + 1]
    if not beta > 0:
        raise NoConvergence(f"converged to nonphysical beta {beta:g}", residual=norm)
    return _finish(params, beta, x[:N + 1])


def eval_ansatz(sol: AnsatzSolution, eta: float, derivative: int = 0) -> float:
    """d^k/deta^k of the ansatz: sum_j b_j (-j beta)^k exp(-j beta eta)."""
    if derivative not in (0, 1, 2):
        raise ValueError("derivative must be 0, 1 or 2")
    acc = 0.0
    for j, bj in enumerate(sol.b):
        acc += bj * (-j * sol.beta) ** derivative * math.exp(-j * sol.beta * eta)
    return acc
