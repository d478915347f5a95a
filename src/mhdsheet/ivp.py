"""Initial-value integration of the similarity equation and shooting.

The third-order ODE is integrated as the first-order system
(f, f', f'')' = (f', f'', M^2 f' + f'^2 - m f f'') from eta = 0 with
f(0) = s, f'(0) = -1, f''(0) = alpha, either by fixed-step classical RK4
or by the adaptive Dormand-Prince 5(4) pair (Dormand & Prince 1980;
Hairer, Norsett & Wanner, Solving ODEs I, II.4-II.6). Both steppers are
written out over the three floats (f, f', f''), one right-hand side call
per stage, each sum in one fixed order: they take the same steps on
every Python (sum() compensates from 3.12 on). `_dopri` copies scipy's
RK45 (coefficients, error norm, step controller, initial step), so it
takes scipy's steps, up to the rounding of its sums: numpy's dot
products may fuse multiply-adds. It stops where one stop function of the
state rises through 0, located on the step's dense output as a terminal
scipy event is. A profile builds every step's dense output, a shot only
the stop's. Profiles carry extrema of f' (sign changes of f'' between
samples), so an interior maximum shows directly.
The package's one bisection loop, `_bisection.bisect_sign`, locates both
the stop and these extrema, the latter on the profile's one state
lookup, which also builds its rows: the dense output for RK45, a
re-integration from the sample below for RK4.

Shooting (`shoot_refine`) finds the alpha at which the trajectory's
divergence side flips. Only that exact side decides the bracket. One loop
tests the nodes of bisection's tree whose side is not yet settled, picked
by a continuous tail value from the same trajectory: the secant through
one side's two latest trials or else the chord across the bracket, with
a guess, such as the Hankel alpha, as the first aim. The walk that finds
no such node ends in plain bisection's leaf: its float, in fewer
trajectories. The N=1 decay rate alone sets both the horizon of each
trial and the tail growth rate behind that value.
"""

from __future__ import annotations

import bisect
import math
from collections import namedtuple
from collections.abc import Callable

from ._bisection import bisect_sign
from .model import ModelParams
from . import ansatz

BLOWUP = 1e12
# the most rows a profile's sample grid may have; the largest grid in use
# has a few thousand, and one of ~1e300 rows would fill memory
MAX_ROWS = 10 ** 6
# shooting's bisection stops once its bracket is at most this wide
LEAF_WIDTH = 1e-8
# RK4's fixed step, and RK45's relative and absolute tolerances
STEP = 1e-3
REL_TOL = 1e-10
ABS_TOL = 1e-12


class Blowup(Exception):
    """|f''| exceeded the blowup threshold before eta_max."""

    def __init__(self, msg, eta=None, state=None):
        super().__init__(msg)
        self.eta = eta
        self.state = state


class StepUnderflow(Exception):
    """The adaptive integrator failed to advance."""


class BadBracket(Exception):
    """Both shooting endpoints diverge the same way."""


class IntegratorConfig(namedtuple("IntegratorConfig",
                                  "method eta_max sample_stride")):
    """method "rk45" (adaptive) or "rk4" (fixed-step), eta_max (None: the
    auto 10 / (N=1 decay rate)) and the sample stride of the profile rows.
    Checked on every construction, `_replace` too."""

    __slots__ = ()

    def __new__(cls, method="rk45", eta_max=None, sample_stride=0.01):
        if method not in ("rk45", "rk4"):
            raise ValueError(f"unknown method {method!r}")
        # written so that nan fails every check
        if eta_max is not None and not 0 < eta_max < math.inf:
            raise ValueError("eta_max must be positive and finite")
        # an infinite stride would make the grid's first point 0 * inf = nan
        if not 0 < sample_stride < math.inf:
            raise ValueError("sample_stride must be positive and finite")
        # refused before any grid is built
        if eta_max is not None and not eta_max / sample_stride <= MAX_ROWS:
            raise ValueError(f"eta_max {eta_max:g} / stride "
                             f"{sample_stride:g} asks for more than "
                             f"{MAX_ROWS} profile rows")
        return super().__new__(cls, method, eta_max, sample_stride)

    # tuple.__new__ would skip the checks; `_replace` builds through this
    _make = classmethod(lambda cls, values: cls(*values))


class Profile(namedtuple("Profile", "rows alpha_used tail_fp extrema")):
    """rows (eta, f, fp, fpp) on the sample grid, the alpha integrated
    from, f' at the last row and the extrema (eta, f') of f', a new empty
    list by default."""

    __slots__ = ()

    def __new__(cls, rows, alpha_used, tail_fp, extrema=None):
        return super().__new__(cls, rows, alpha_used, tail_fp,
                               [] if extrema is None else extrema)


class MonotonicityReport(namedtuple("MonotonicityReport",
                                    "monotone extrema fp_min fp_max")):
    """Whether f' is monotone, its extrema (eta, f') and its range."""

    __slots__ = ()


def rhs(params: ModelParams):
    M2 = params.M2
    m = params.m

    def deriv(eta, y):
        f, fp, fpp = y
        return (fp, fpp, M2 * fp + fp * fp - m * f * fpp)

    return deriv


def auto_eta_max(params: ModelParams) -> float:
    """10 / beta_hat, with beta_hat the N=1 ansatz decay rate; at that
    point exp(-beta eta) ~ 4.5e-5."""
    return 10.0 / ansatz.solve_n1(params).beta


def _rk4_step(f: Callable, eta: float, y: tuple[float, float, float],
              h: float) -> tuple[float, float, float]:
    """One classical RK4 step, written out over (f, f', f'')."""
    y0, y1, y2 = y
    h2, h6 = h / 2, h / 6
    p1, q1, r1 = f(eta, y)
    p2, q2, r2 = f(eta + h2, (y0 + h2 * p1, y1 + h2 * q1, y2 + h2 * r1))
    p3, q3, r3 = f(eta + h2, (y0 + h2 * p2, y1 + h2 * q2, y2 + h2 * r2))
    p4, q4, r4 = f(eta + h, (y0 + h * p3, y1 + h * q3, y2 + h * r3))
    return (y0 + h6 * (p1 + 2 * p2 + 2 * p3 + p4),
            y1 + h6 * (q1 + 2 * q2 + 2 * q3 + q4),
            y2 + h6 * (r1 + 2 * r2 + 2 * r3 + r4))


# Dormand-Prince 5(4) (Dormand & Prince 1980) with the dense output of
# Shampine (1986), the coefficients of scipy's RK45: nodes of stages 2-6,
# their rows of the Runge-Kutta matrix, the 5th-order weights (stage 2's
# is 0), the error weights E (5th minus 4th order, over stages 1-7) and
# P's columns for x^2-x^4 by stage (x's column is stage 1 alone).
_C = (1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0)
_A = ((1 / 5,),
      (3 / 40, 9 / 40),
      (44 / 45, -56 / 15, 32 / 9),
      (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
      (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656))
_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_E = (-71 / 57600, 0.0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525,
      1 / 40)
_P = ((-8048581381 / 2820520608, 0, 131558114200 / 32700410799,
       -1754552775 / 470086768, 127303824393 / 49829197408,
       -282668133 / 205662961, 40617522 / 29380423),
      (8663915743 / 2820520608, 0, -68118460800 / 10900136933,
       14199869525 / 1410260304, -318862633887 / 49829197408,
       2019193451 / 616988883, -110615467 / 29380423),
      (-12715105075 / 11282082432, 0, 87487479700 / 32700410799,
       -10690763975 / 1880347072, 701980252875 / 199316789632,
       -1453857185 / 822651844, 69997945 / 29380423))
# step-size controller: the error estimate is 4th order, so the step
# scales by err^(-1/5)
_SAFETY, _MIN_FACTOR, _MAX_FACTOR, _ERR_EXP = 0.9, 0.2, 10.0, -1 / 5

# an accepted step: (t_old, t, y_old, stage derivatives k1..k7)
_Step = tuple[float, float, tuple[float, float, float], tuple]


def _initial_step(f, y, k, t_end) -> float:
    """First step size (Hairer, Norsett & Wanner, Solving ODEs I, II.4),
    for a 4th-order error estimate at REL_TOL and ABS_TOL."""
    (y0, y1, y2), (p, q, r) = y, k
    c0, c1, c2 = (ABS_TOL + abs(y0) * REL_TOL, ABS_TOL + abs(y1) * REL_TOL,
                  ABS_TOL + abs(y2) * REL_TOL)
    u0, u1, u2, v0, v1, v2 = y0 / c0, y1 / c1, y2 / c2, p / c0, q / c1, r / c2
    d0 = math.sqrt(u0 * u0 + u1 * u1 + u2 * u2) / 3 ** 0.5
    d1 = math.sqrt(v0 * v0 + v1 * v1 + v2 * v2) / 3 ** 0.5
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_end)
    if not h0 > 0:  # d1 infinite (or nan): no step can advance
        raise StepUnderflow("Required step size is less than "
                            "spacing between numbers.")
    p0, q0, r0 = f(h0, (y0 + h0 * p, y1 + h0 * q, y2 + h0 * r))
    u0, u1, u2 = (p0 - p) / c0, (q0 - q) / c1, (r0 - r) / c2
    d2 = math.sqrt(u0 * u0 + u1 * u1 + u2 * u2) / 3 ** 0.5 / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, t_end)


def _interpolant(step: _Step) -> Callable[[float], tuple]:
    """The quartic dense output y(t) on one accepted step, written out
    over (f, f', f''); P's zero weights are left out of its sums."""
    t_old, t, (y0, y1, y2), ((p1, q1, r1), _, (p3, q3, r3), (p4, q4, r4),
                             (p5, q5, r5), (p6, q6, r6), (p7, q7, r7)) = step
    h = t - t_old

    def weigh(w1, _, w3, w4, w5, w6, w7):
        return (p1 * w1 + p3 * w3 + p4 * w4 + p5 * w5 + p6 * w6 + p7 * w7,
                q1 * w1 + q3 * w3 + q4 * w4 + q5 * w5 + q6 * w6 + q7 * w7,
                r1 * w1 + r3 * w3 + r4 * w4 + r5 * w5 + r6 * w6 + r7 * w7)
    (a2, b2, c2), (a3, b3, c3), (a4, b4, c4) = (weigh(*w) for w in _P)

    def at(t):
        x = (t - t_old) / h
        x2 = x * x
        x3 = x2 * x
        x4 = x3 * x
        return (y0 + h * (p1 * x + a2 * x2 + a3 * x3 + a4 * x4),
                y1 + h * (q1 * x + b2 * x2 + b3 * x3 + b4 * x4),
                y2 + h * (r1 * x + c2 * x2 + c3 * x3 + c4 * x4))
    return at


def _dopri(f: Callable, y: tuple[float, float, float], t_end: float,
           stop: Callable[[tuple], float], steps: list | None = None
           ) -> tuple[float, tuple[float, float, float], bool]:
    """Integrate y' = f(t, y) from t = 0 to t_end by Dormand-Prince 5(4),
    step for step as scipy's RK45: RMS error norm with the scale
    ABS_TOL + max(|y|, |y_new|) REL_TOL, read at each call, safety 0.9,
    step factor within [0.2, 10] and no growth right after a rejection.
    Stages written out over (f, f', f''), one f call each; else ValueError.

    Stops where stop(y) rises through 0 across an accepted step
    (stop(y_old) <= 0 <= stop(y_new)): the crossing is bisected on the
    step's dense output down to adjacent floats, or is t_old when stop is
    exactly 0 there, and (t, y(t), True) is returned; without a stop it
    returns (t_end, y(t_end), False). Each accepted step is appended to
    `steps` when given. Raises StepUnderflow when the step would fall
    below 10 ulp(t), which a nan or infinite derivative also leads to."""
    t, rtol, atol = 0.0, REL_TOL, ABS_TOL
    y0, y1, y2 = y = tuple(y)
    k1 = p1, q1, r1 = f(t, y)
    h_abs = _initial_step(f, y, k1, t_end)
    g_old = stop(y)
    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), \
        (a61, a62, a63, a64, a65) = _A
    b1, _, b3, b4, b5, b6 = _B
    e1, _, e3, e4, e5, e6, e7 = _E
    c2, c3, c4, c5, _ = _C
    while t < t_end:
        min_step = 10 * math.ulp(t)
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if not h_abs >= min_step:   # nan fails too
                raise StepUnderflow("Required step size is less than "
                                    "spacing between numbers.")
            t_new = t + h_abs
            if t_new > t_end:
                t_new = t_end
            h = t_new - t
            k2 = p2, q2, r2 = f(t + c2 * h, (
                y0 + (p1 * a21) * h, y1 + (q1 * a21) * h, y2 + (r1 * a21) * h))
            k3 = p3, q3, r3 = f(t + c3 * h, (
                y0 + (p1 * a31 + p2 * a32) * h, y1 + (q1 * a31 + q2 * a32) * h,
                y2 + (r1 * a31 + r2 * a32) * h))
            k4 = p4, q4, r4 = f(t + c4 * h, (
                y0 + (p1 * a41 + p2 * a42 + p3 * a43) * h,
                y1 + (q1 * a41 + q2 * a42 + q3 * a43) * h,
                y2 + (r1 * a41 + r2 * a42 + r3 * a43) * h))
            k5 = p5, q5, r5 = f(t + c5 * h, (
                y0 + (p1 * a51 + p2 * a52 + p3 * a53 + p4 * a54) * h,
                y1 + (q1 * a51 + q2 * a52 + q3 * a53 + q4 * a54) * h,
                y2 + (r1 * a51 + r2 * a52 + r3 * a53 + r4 * a54) * h))
            k6 = p6, q6, r6 = f(t + h, (
                y0 + (p1 * a61 + p2 * a62 + p3 * a63 + p4 * a64
                      + p5 * a65) * h,
                y1 + (q1 * a61 + q2 * a62 + q3 * a63 + q4 * a64
                      + q5 * a65) * h,
                y2 + (r1 * a61 + r2 * a62 + r3 * a63 + r4 * a64
                      + r5 * a65) * h))
            n0 = y0 + h * (p1 * b1 + p3 * b3 + p4 * b4 + p5 * b5 + p6 * b6)
            n1 = y1 + h * (q1 * b1 + q3 * b3 + q4 * b4 + q5 * b5 + q6 * b6)
            n2 = y2 + h * (r1 * b1 + r3 * b3 + r4 * b4 + r5 * b5 + r6 * b6)
            y_new = (n0, n1, n2)
            k7 = p7, q7, r7 = f(t + h, y_new)
            u0 = (p1 * e1 + p3 * e3 + p4 * e4 + p5 * e5 + p6 * e6
                  + p7 * e7) * h / (atol + max(abs(y0), abs(n0)) * rtol)
            u1 = (q1 * e1 + q3 * e3 + q4 * e4 + q5 * e5 + q6 * e6
                  + q7 * e7) * h / (atol + max(abs(y1), abs(n1)) * rtol)
            u2 = (r1 * e1 + r3 * e3 + r4 * e4 + r5 * e5 + r6 * e6
                  + r7 * e7) * h / (atol + max(abs(y2), abs(n2)) * rtol)
            err = math.sqrt(u0 * u0 + u1 * u1 + u2 * u2) / 3 ** 0.5
            if err < 1:
                factor = (_MAX_FACTOR if err == 0 else
                          min(_MAX_FACTOR, _SAFETY * err ** _ERR_EXP))
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * err ** _ERR_EXP)
            rejected = True
        step = (t, t_new, y, (k1, k2, k3, k4, k5, k6, k7))
        if steps is not None:
            steps.append(step)
        g_new = stop(y_new)
        if g_old <= 0 <= g_new:
            at = _interpolant(step)
            if g_old < 0:   # else stop is exactly 0 at t
                t = bisect_sign(lambda s: stop(at(s)), t, t_new, g_old, 0.0)[1]
            return t, at(t), True
        t, y, k1, g_old = t_new, y_new, k7, g_new
        y0, y1, y2, p1, q1, r1 = n0, n1, n2, p7, q7, r7
    return t, y, False


def _sample_grid(eta_max: float, stride: float) -> list[float]:
    n = int(round(eta_max / stride))
    if abs(n * stride - eta_max) > 1e-9 * max(1.0, eta_max):
        n = int(math.floor(eta_max / stride))
    grid = [i * stride for i in range(n + 1)]
    # relative: an absolute end tolerance drops eta_max itself once
    # eta_max is below it (huge M)
    if eta_max - grid[-1] > 1e-12 * eta_max:
        grid.append(eta_max)
    return grid


def _refine_extrema(samples, fpp_at: Callable[[float], float],
                    fp_at: Callable[[float], float],
                    noise_floor: float) -> list[tuple[float, float]]:
    out = []
    for i in range(len(samples) - 1):
        a, b = samples[i][0], samples[i + 1][0]
        sa, sb = samples[i][3], samples[i + 1][3]
        if max(abs(sa), abs(sb)) < noise_floor:
            # integrator noise once the solution has decayed; not a
            # genuine stationary point of f'
            continue
        if sa == 0.0 and a > 0:
            out.append((a, samples[i][2]))
            continue
        if sa * sb >= 0:
            continue
        a, b = bisect_sign(fpp_at, a, b, sa, 1e-8)
        eta = 0.5 * (a + b)
        if eta > 1e-8:  # interior only
            out.append((eta, fp_at(eta)))
    return out


def _rk4_span(f: Callable, eta: float, y: tuple[float, float, float],
              span: float, step: float, level: float) -> tuple:
    """y at eta + span by RK4 in the fewest equal substeps no longer than
    `step` up to a relative 1e-9 (a span a few ulps over k steps takes
    k). Raises Blowup when |f''| passes `level` after a substep."""
    nsub = max(1, math.ceil(span / step * (1 - 1e-9)))
    h = span / nsub
    for _ in range(nsub):
        y = _rk4_step(f, eta, y, h)
        eta += h
        if not abs(y[2]) <= level:  # nan included
            what = (f"|f''| exceeded {level:g}" if math.isfinite(y[2])
                    else "state not finite")
            raise Blowup(f"{what} at eta={eta:g}", eta=eta, state=y)
    return y


def integrate(params: ModelParams, alpha: float, cfg: IntegratorConfig) -> Profile:
    """Integrate from eta = 0 to eta_max and sample at the configured
    stride. Raises Blowup when |f''| passes max(1e12, M^2), at eta = 0 or
    before eta_max, and ValueError when the auto eta_max is not finite or
    asks for more than MAX_ROWS rows (tiny N=1 decay rates).

    One lookup `state_at(t)` gives the state anywhere on the profile; it
    builds the rows in grid order, and the extrema of f' are refined
    through it. For RK45 it is the dense output of the step that holds t.
    For RK4 it re-integrates from the row below t, also at a grid point,
    so a sample point gives back its row exactly."""
    if not math.isfinite(alpha):
        raise ValueError("alpha must be finite")
    if cfg.eta_max is None:
        cfg = cfg._replace(eta_max=auto_eta_max(params))
    y0 = (params.s, -1.0, alpha)
    f = rhs(params)
    # one blowup level for the start and both integrators: 1e12, raised at
    # huge M, whose f''(0) is about M, to M^2 (the size of f''' at
    # |f'| = 1). The RK45 stop fires only on crossing it upward, so a
    # runaway start past it would crawl on for minutes: it is refused here
    level = max(BLOWUP, params.M2)
    if not abs(alpha) <= level:
        raise Blowup(f"|f''| exceeded {level:g} at eta=0", eta=0.0, state=y0)
    grid = _sample_grid(cfg.eta_max, cfg.sample_stride)
    rows = [(0.0, *y0)]

    if cfg.method == "rk4":
        # a substep of M h up to ~2.8 is stable but not accurate: bound it
        # by 0.1 / M, which is below STEP only where M > 100
        step = min(STEP, 0.1 / abs(params.M)) if params.M else STEP

        def state_at(t):
            eta, *y = rows[bisect.bisect_left(grid, t) - 1]
            return _rk4_span(f, eta, tuple(y), t - eta, step, level)
    else:
        steps: list[_Step] = []
        eta_b, y_b, hit = _dopri(f, y0, cfg.eta_max,
                                 lambda y: abs(y[2]) - level, steps)
        if hit:
            raise Blowup(f"|f''| exceeded {level:g} at eta={eta_b:g}",
                         eta=eta_b, state=y_b)
        ends = [step[1] for step in steps]
        pieces = [_interpolant(step) for step in steps]

        def state_at(t):
            # the step whose interval (t_old, t] holds t
            i = min(bisect.bisect_left(ends, t), len(steps) - 1)
            return pieces[i](t)
    for t in grid[1:]:
        rows.append((t, *state_at(t)))

    extrema = _refine_extrema(rows, lambda t: state_at(t)[2],
                              lambda t: state_at(t)[1], 1e3 * ABS_TOL)
    return Profile(rows=rows, alpha_used=alpha, tail_fp=rows[-1][2],
                   extrema=extrema)


def monotonicity_report(p: Profile) -> MonotonicityReport:
    """Is f' monotone non-decreasing over the profile?"""
    if not p.rows:
        raise ValueError("empty profile")
    fp = [r[2] for r in p.rows]
    monotone = (not p.extrema) and all(b - a >= -1e-9
                                       for a, b in zip(fp, fp[1:]))
    return MonotonicityReport(monotone=monotone, extrema=list(p.extrema),
                              fp_min=min(fp), fp_max=max(fp))


def _tail_growth(params: ModelParams, beta: float) -> float:
    """Growth rate of the unstable tail mode: the positive root of
    lambda^2 + m f_inf lambda - M^2 = 0, the ODE for f' linearised about
    f -> f_inf = s - 1/beta (the N=1 far field with decay rate beta)."""
    mf = params.m * (params.s - 1.0 / beta)
    return 0.5 * (math.sqrt(mf * mf + 4.0 * params.M2) - mf)


def _divergence_side(params: ModelParams, alpha: float, eta_max: float,
                     growth: float) -> tuple[int, float]:
    """(side, u) for the trajectory from alpha, integrated by RK45 to
    eta_max at the tolerances REL_TOL and ABS_TOL.

    side is +1 when the trajectory overshoots (f' runs positive), -1 when
    it undershoots. The true solution keeps f' in (-1, 0), so leaving
    (-1.5, 0.5) settles the side immediately; stopping there also avoids
    grinding through the post-divergence growth. The stop function
    (f' - 0.5)(f' + 1.5) is negative inside that interval, so it rises
    through 0 at either end, and the sign of f' at the stop tells which
    end, f' = 0.5 or -1.5. Without a stop, f' at eta_max decides.

    u = f'(eta_stop) exp(growth (eta_max - eta_stop)) carries f' at the
    stop (that end, or eta_max) out to eta_max along the unstable tail
    mode. Its sign is the side, and on each side of the root it is
    nearly linear in alpha, so it can guide the choice of the next alpha.
    Raises StepUnderflow when the integrator cannot advance."""

    eta, y, hit = _dopri(rhs(params), (params.s, -1.0, alpha), eta_max,
                         lambda y: (y[1] - 0.5) * (y[1] + 1.5))
    fp = (0.5 if y[1] > 0 else -1.5) if hit else y[1]
    side = 1 if fp > 0 else -1
    try:
        return side, fp * math.exp(growth * (eta_max - eta))
    except OverflowError:
        return side, math.copysign(math.inf, fp)


def shoot_refine(params: ModelParams, bracket: tuple[float, float],
                 guess: float | None = None) -> float:
    """alpha at the sign change of the divergence side inside bracket,
    resolved to bisection's final width of 1e-8, or to two adjacent
    floats once those are further apart (|alpha| >= 2^26). Independent
    cross-check for the Hankel result.

    The N=1 decay rate beta sets both the horizon and the guide. Each
    trial integrates to 3 `auto_eta_max` = 3 (10 / beta), three times the
    profile's auto eta_max: divergence needs room to show.

    The result is the one plain bisection on the side would return: the
    midpoint of its final leaf. The search keeps the tested points a < b
    nearest the sign change; a tree midpoint outside (a, b) takes its
    side from a or b without a trajectory. One loop tests a point while
    bisection's path from the bracket has a midpoint inside (a, b), and
    moves a or b. The first such midpoint is on the path toward every
    point of (a, b), so the point tested is predicted from the tail value
    u of `_divergence_side` and rounded to the deepest midpoint inside
    (a, b) on the path toward it (a `bisect_sign` walk from the bracket).
    u is linear in alpha on each side of the root, but with another slope
    on each side (the divergence is nonlinear), so a chord across the
    root gains only a constant factor per trial. Each side therefore
    keeps its tested point before a or b, and where that pair spans at
    most half of b - a (the tighter pair, if both do), its secant's zero
    is the prediction, if it lies inside (a, b). Else the chord through
    (a, ua) and (b, ub) predicts; without a usable u (a non-finite or
    zero u, or one whose sign is not the side) the test is the first
    inside midpoint. The loop ends at the first walk that meets no
    midpoint inside (a, b), and returns the midpoint of that walk's leaf.
    When the side changes once inside the bracket every inferred side is
    the side bisection would compute, so the result is the same float.

    A `guess` inside the bracket (the Hankel alpha in `mhdsheet solve`)
    is the first aim after the two ends, which alone decide `BadBracket`;
    its node is a tested point like any other, so the result is still
    plain bisection's float. Raises BadBracket, StepUnderflow when a
    trajectory cannot advance, the ComplexDecay of `ansatz.solve_n1`
    without a real N=1 rate, and ValueError for a non-finite bracket or
    guess, before any trajectory."""
    lo, hi = float(bracket[0]), float(bracket[1])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("bracket must be finite")
    if guess is not None and not math.isfinite(guess):
        raise ValueError("guess must be finite")
    if lo > hi:
        lo, hi = hi, lo
    eta_max = 3 * auto_eta_max(params)
    growth = _tail_growth(params, ansatz.solve_n1(params).beta)

    side_lo, ua = _divergence_side(params, lo, eta_max, growth)
    side_hi, ub = _divergence_side(params, hi, eta_max, growth)
    if side_lo == side_hi:
        raise BadBracket(
            f"both endpoints diverge the same way (side {side_lo:+d})")
    a, b = lo, hi
    # each side's tested point before its end (a or b), with its raw u
    prev_a = prev_b = None

    def usable(u, side):
        # finite, nonzero and of the side's sign (nan fails)
        return 0 < u * side < math.inf

    def aim():
        # the zero of a side's secant through its end and the point
        # before, where those span at most half of b - a (the tighter
        # pair if both do) and it lies inside (a, b); else the chord's
        # through (a, ua) and (b, ub); else None
        pair, span = None, 0.5 * (b - a)
        for end, u, prev, side in ((a, ua, prev_a, side_lo),
                                   (b, ub, prev_b, side_hi)):
            if (prev is not None and abs(end - prev[0]) <= span
                    and usable(u, side) and usable(prev[1], side)
                    and u != prev[1]):
                pair, span = (end, u, prev), abs(end - prev[0])
        if pair is not None:
            end, u, (q, uq) = pair
            slope = (u - uq) / (end - q)
            x = end - u / slope
            if a < x < b:
                return x
        if usable(ua, side_lo) and usable(ub, side_hi):
            x = b - ub * (b - a) / (ub - ua)
            # rounding can put x on a or b; aim just inside instead
            return min(max(x, math.nextafter(a, b)), math.nextafter(b, a))
        return None

    def toward(m):
        # one step of bisection's path from the bracket toward target, a
        # point of [a, b): a midpoint outside (a, b) steps the way its side,
        # inferred from a or b, does; each one inside is recorded
        if a < m < b:
            inside.append(m)
        return 1 if target < m else -1

    while True:
        # the guess is the first aim. Every target in [a, b) meets the same
        # first midpoint inside (a, b): the one plain bisection tests next
        x = guess if guess is not None and a < guess < b else aim()
        guess, inside = None, []
        target = a if x is None else x
        leaf = bisect_sign(toward, lo, hi, -1, LEAF_WIDTH)
        if not inside:
            # no path midpoint lies inside (a, b): plain bisection's leaf
            return (leaf[0] + leaf[1]) / 2
        # the deepest inside midpoint toward the aim, or without one the first
        p = inside[0] if x is None else inside[-1]
        side, u = _divergence_side(params, p, eta_max, growth)
        if side == side_lo:
            prev_a, a, ua = (a, ua), p, u
        else:
            prev_b, b, ub = (b, ub), p, u
