"""Initial-value integration of the similarity equation and shooting.

The third-order ODE is integrated as the first-order system
(f, f', f'')' = (f', f'', M^2 f' + f'^2 - m f f'') from eta = 0 with
f(0) = s, f'(0) = -1, f''(0) = alpha, either by fixed-step classical RK4
or by the adaptive Dormand-Prince 5(4) pair (Dormand & Prince 1980;
Hairer, Norsett & Wanner, Solving ODEs I, II.4-II.6). The adaptive
stepper `_dopri` works on plain float tuples. It copies scipy's RK45
(coefficients, error norm, step controller, initial step, events that
fire on a sign change), so it takes the steps scipy's RK45 solver
takes, up to the rounding of its sums: numpy's dot products may fuse
multiply-adds. It builds a step's quartic dense output only where a
sample, an extremum or an event needs it. Profiles carry extrema of f'
(sign changes of f'' between samples) so the presence or absence of an
interior maximum can be checked directly. The package's one bisection
loop, `_bisection.bisect_sign`, locates both the events and these
extrema, the latter on the profile's one state lookup: the dense output
for RK45, a re-integration from the sample below for RK4.

Shooting (`shoot_refine`) finds the alpha at which the trajectory's
divergence side flips, on the same loop. Only that exact side decides the
bracket. A continuous tail value from the same trajectory picks which
node of bisection's tree to integrate next (Illinois regula falsi), so the
result is plain bisection's float in fewer trajectories.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from ._bisection import bisect_sign
from .model import ModelParams
from . import ansatz

BLOWUP = 1e12
# shooting's bisection stops once its bracket is at most this wide
LEAF_WIDTH = 1e-8


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


@dataclass(frozen=True)
class IntegratorConfig:
    method: str = "rk45"          # "rk45" adaptive or "rk4" fixed-step
    step: float = 1e-3            # fixed-step size for rk4
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    eta_max: Optional[float] = None   # None -> auto: 10 / (N=1 decay rate)
    sample_stride: float = 0.01

    def __post_init__(self):
        if self.method not in ("rk45", "rk4"):
            raise ValueError(f"unknown method {self.method!r}")
        # written so that nan fails every check
        if not (self.step > 0 and self.rel_tol > 0 and self.abs_tol > 0):
            raise ValueError("step and tolerances must be positive")
        if self.eta_max is not None and not 0 < self.eta_max < math.inf:
            raise ValueError("eta_max must be positive and finite")
        if not self.sample_stride > 0:
            raise ValueError("sample_stride must be positive")


@dataclass
class Profile:
    rows: list[tuple[float, float, float, float]]  # (eta, f, fp, fpp)
    alpha_used: float
    tail_fp: float
    extrema: list[tuple[float, float]] = field(default_factory=list)


@dataclass
class MonotonicityReport:
    monotone: bool
    extrema: list[tuple[float, float]]
    fp_min: float
    fp_max: float


def rhs(params: ModelParams):
    M2 = params.M ** 2
    m = params.m

    def deriv(eta, y):
        f, fp, fpp = y
        return (fp, fpp, M2 * fp + fp * fp - m * f * fpp)

    return deriv


def auto_eta_max(params: ModelParams) -> float:
    """10 / beta_hat, with beta_hat the N=1 ansatz decay rate; at that
    point exp(-beta eta) ~ 4.5e-5."""
    return 10.0 / ansatz.solve_n1(params).beta


def _rk4_step(f: Callable, eta: float, y: Sequence[float],
              h: float) -> tuple[float, ...]:
    k1 = f(eta, y)
    k2 = f(eta + h / 2, [a + h / 2 * b for a, b in zip(y, k1)])
    k3 = f(eta + h / 2, [a + h / 2 * b for a, b in zip(y, k2)])
    k4 = f(eta + h, [a + h * b for a, b in zip(y, k3)])
    return tuple(a + h / 6 * (b1 + 2 * b2 + 2 * b3 + b4)
                 for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4))


# Dormand-Prince 5(4) (Dormand & Prince 1980) with the dense output of
# Shampine (1986), the coefficients of scipy's RK45: nodes of stages 2-6,
# their rows of the Runge-Kutta matrix, the 5th-order weights (stage 2's
# is 0), the error weights E (5th minus 4th order, over stages 1-7) and the
# interpolation matrix P (one row per stage, one column per power of x).
_C = (1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0)
_A = ((1 / 5,),
      (3 / 40, 9 / 40),
      (44 / 45, -56 / 15, 32 / 9),
      (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
      (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656))
_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_E = (-71 / 57600, 0.0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525,
      1 / 40)
_P = ((1, -8048581381 / 2820520608, 8663915743 / 2820520608,
       -12715105075 / 11282082432),
      (0, 0, 0, 0),
      (0, 131558114200 / 32700410799, -68118460800 / 10900136933,
       87487479700 / 32700410799),
      (0, -1754552775 / 470086768, 14199869525 / 1410260304,
       -10690763975 / 1880347072),
      (0, 127303824393 / 49829197408, -318862633887 / 49829197408,
       701980252875 / 199316789632),
      (0, -282668133 / 205662961, 2019193451 / 616988883,
       -1453857185 / 822651844),
      (0, 40617522 / 29380423, -110615467 / 29380423,
       69997945 / 29380423))
# step-size controller: the error estimate is 4th order, so the step
# scales by err^(-1/5)
_SAFETY, _MIN_FACTOR, _MAX_FACTOR, _ERR_EXP = 0.9, 0.2, 10.0, -1 / 5

# an event: (g, direction); it fires when g(y) changes sign across an
# accepted step, upward only (+1), downward only (-1) or either way (0)
_Event = tuple[Callable[[Sequence[float]], float], int]
# an accepted step: (t_old, t, y_old, stage derivatives k1..k7)
_Step = tuple[float, float, tuple, tuple]


def _rms(v) -> float:
    return math.sqrt(sum(x * x for x in v)) / len(v) ** 0.5


def _initial_step(f, y, k, t_end, rtol, atol) -> float:
    """First step size (Hairer, Norsett & Wanner, Solving ODEs I, II.4),
    for a 4th-order error estimate."""
    scale = [atol + abs(a) * rtol for a in y]
    d0 = _rms([a / c for a, c in zip(y, scale)])
    d1 = _rms([b / c for b, c in zip(k, scale)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_end)
    if not h0 > 0:  # d1 infinite (or nan): no step can advance
        raise StepUnderflow("Required step size is less than "
                            "spacing between numbers.")
    k0 = f(h0, [a + h0 * b for a, b in zip(y, k)])
    d2 = _rms([(b0 - b) / c for b0, b, c in zip(k0, k, scale)]) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, t_end)


def _interpolant(step: _Step) -> Callable[[float], tuple]:
    """The quartic dense output y(t) on one accepted step."""
    t_old, t, y_old, k = step
    h = t - t_old
    q = [[sum(kj[i] * pj[c] for kj, pj in zip(k, _P)) for c in range(4)]
         for i in range(len(y_old))]

    def at(t):
        x = (t - t_old) / h
        x2 = x * x
        x3 = x2 * x
        x4 = x3 * x
        return tuple(a + h * (q0 * x + q1 * x2 + q2 * x3 + q3 * x4)
                     for a, (q0, q1, q2, q3) in zip(y_old, q))
    return at


def _crossing(g: Callable[[float], float], a: float, b: float) -> float:
    """A zero of g in [a, b], where g(a) and g(b) differ in sign, by
    bisection down to adjacent floats."""
    ga = g(a)
    return a if ga == 0 else bisect_sign(g, a, b, ga, 0.0)[1]


def _dopri(f: Callable, y: Sequence[float], t_end: float, rtol: float,
           atol: float, events: Sequence[_Event] = (),
           steps: Optional[list] = None) -> tuple[float, tuple, Optional[int]]:
    """Integrate y' = f(t, y) from t = 0 to t_end by Dormand-Prince 5(4),
    step for step as scipy's RK45: RMS error norm with the scale
    atol + max(|y|, |y_new|) rtol, safety factor 0.9, step factor within
    [0.2, 10] and no growth right after a rejection.

    Stops at the first event that fires, located on the step's dense
    output, and returns (t, y, index of that event); without one it
    returns (t_end, y(t_end), None). Each accepted step is appended to
    `steps` when given. Raises StepUnderflow when the step would fall
    below 10 ulp(t), which a nan or infinite derivative also leads to."""
    t = 0.0
    y = tuple(y)
    k1 = f(t, y)
    h_abs = _initial_step(f, y, k1, t_end, rtol, atol)
    g_old = [g(y) for g, _ in events]
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
            k2 = f(t + c2 * h, [a + (u1 * a21) * h for a, u1 in zip(y, k1)])
            k3 = f(t + c3 * h, [a + (u1 * a31 + u2 * a32) * h
                                for a, u1, u2 in zip(y, k1, k2)])
            k4 = f(t + c4 * h, [a + (u1 * a41 + u2 * a42 + u3 * a43) * h
                                for a, u1, u2, u3 in zip(y, k1, k2, k3)])
            k5 = f(t + c5 * h,
                   [a + (u1 * a51 + u2 * a52 + u3 * a53 + u4 * a54) * h
                    for a, u1, u2, u3, u4 in zip(y, k1, k2, k3, k4)])
            k6 = f(t + h, [a + (u1 * a61 + u2 * a62 + u3 * a63 + u4 * a64
                                + u5 * a65) * h
                           for a, u1, u2, u3, u4, u5
                           in zip(y, k1, k2, k3, k4, k5)])
            y_new = tuple(a + h * (u1 * b1 + u3 * b3 + u4 * b4 + u5 * b5
                                   + u6 * b6)
                          for a, u1, u3, u4, u5, u6
                          in zip(y, k1, k3, k4, k5, k6))
            k7 = f(t + h, y_new)
            err = _rms([(u1 * e1 + u3 * e3 + u4 * e4 + u5 * e5 + u6 * e6
                         + u7 * e7) * h / (atol + max(abs(a), abs(b)) * rtol)
                        for a, b, u1, u3, u4, u5, u6, u7
                        in zip(y, y_new, k1, k3, k4, k5, k6, k7)])
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
        g_new = [g(y_new) for g, _ in events]
        fired = [i for i, (go, gn, (_, d)) in enumerate(zip(g_old, g_new, events))
                 if (d >= 0 and go <= 0 <= gn) or (d <= 0 and go >= 0 >= gn)]
        if fired:
            at = _interpolant(step)
            t_e, i = min((_crossing(lambda s: events[i][0](at(s)), t, t_new), i)
                         for i in fired)
            return t_e, at(t_e), i
        t, y, k1, g_old = t_new, y_new, k7, g_new
    return t, y, None


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


def _rk4_span(f: Callable, eta: float, y: Sequence[float], span: float,
              step: float, level: float) -> Sequence[float]:
    """y at eta + span by RK4 in the fewest equal substeps no longer than
    `step`. Raises Blowup when |f''| passes `level` after a substep."""
    nsub = max(1, int(math.ceil(span / step)))
    h = span / nsub
    for _ in range(nsub):
        y = _rk4_step(f, eta, y, h)
        eta += h
        if not abs(y[2]) <= level:  # nan included
            raise Blowup(f"|f''| exceeded {level:g} at eta={eta:g}",
                         eta=eta, state=y)
    return y


def integrate(params: ModelParams, alpha: float, cfg: IntegratorConfig) -> Profile:
    """Integrate from eta = 0 to eta_max and sample at the configured
    stride. Raises Blowup when |f''| passes max(1e12, M^2), at eta = 0 or
    before eta_max.

    One lookup `state_at(t)` gives the state anywhere on the profile, and
    the extrema of f' are refined through it. For RK45 it is the dense
    output of the step that holds t. For RK4 it re-integrates from the
    sampled row at or below t with the march's own substep rule, so a
    sample point gives back its row exactly."""
    if not math.isfinite(alpha):
        raise ValueError("alpha must be finite")
    eta_max = cfg.eta_max if cfg.eta_max is not None else auto_eta_max(params)
    y0 = (params.s, -1.0, alpha)
    f = rhs(params)
    # one blowup level for the start and both integrators: 1e12, raised at
    # huge M, whose f''(0) is about M, to M^2 (the size of f''' at
    # |f'| = 1). The RK45 event fires only on crossing it upward, so a
    # runaway start past it would crawl on for minutes: it is refused here
    level = max(BLOWUP, params.M ** 2)
    if not abs(alpha) <= level:
        raise Blowup(f"|f''| exceeded {level:g} at eta=0", eta=0.0, state=y0)
    grid = _sample_grid(eta_max, cfg.sample_stride)
    rows = [(0.0, *y0)]

    if cfg.method == "rk4":
        for target in grid[1:]:
            eta, *y = rows[-1]
            rows.append((target, *_rk4_span(f, eta, y, target - eta,
                                            cfg.step, level)))

        def state_at(t):
            eta, *y = rows[bisect.bisect_right(grid, t) - 1]
            return y if t == eta else _rk4_span(f, eta, y, t - eta,
                                                cfg.step, level)
    else:
        steps: list[_Step] = []
        eta_b, y_b, hit = _dopri(f, y0, eta_max, cfg.rel_tol, cfg.abs_tol,
                                 [(lambda y: abs(y[2]) - level, 1)], steps)
        if hit is not None:
            raise Blowup(f"|f''| exceeded {level:g} at eta={eta_b:g}",
                         eta=eta_b, state=y_b)
        ends = [step[1] for step in steps]
        pieces = {}

        def state_at(t):
            # the step whose interval (t_old, t] holds t
            i = min(bisect.bisect_left(ends, t), len(steps) - 1)
            if i not in pieces:
                pieces[i] = _interpolant(steps[i])
            return pieces[i](t)
        rows += [(t, *state_at(t)) for t in grid[1:]]

    extrema = _refine_extrema(rows, lambda t: state_at(t)[2],
                              lambda t: state_at(t)[1], 1e3 * cfg.abs_tol)
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
    return 0.5 * (math.sqrt(mf * mf + 4.0 * params.M ** 2) - mf)


def _divergence_side(params: ModelParams, alpha: float,
                     cfg: IntegratorConfig, eta_max: float,
                     growth: Optional[float] = None) -> tuple[int, float]:
    """(side, u) for the trajectory from alpha.

    side is +1 when the trajectory overshoots (f' runs positive), -1 when
    it undershoots. The true solution keeps f' in (-1, 0), so crossing
    f' = +0.5 or f' = -1.5 settles the side immediately; terminating
    there also avoids grinding through the post-divergence growth. If
    neither excursion happens, the sign of the tail value decides.

    u = f'(eta_stop) exp(growth (eta_max - eta_stop)) carries f' at the
    stop (the event, or eta_max) out to eta_max along the unstable tail
    mode. Its sign is the side, and across a shooting bracket it is
    nearly linear in alpha, so it can guide the choice of the next alpha.
    u is nan when no growth rate is given. Raises StepUnderflow when the
    integrator cannot advance."""

    eta, y, hit = _dopri(rhs(params), (params.s, -1.0, alpha), eta_max,
                         cfg.rel_tol, cfg.abs_tol,
                         [(lambda y: y[1] - 0.5, 1), (lambda y: y[1] + 1.5, -1)])
    if hit == 0:
        side, eta_stop, fp = 1, eta, 0.5
    elif hit == 1:
        side, eta_stop, fp = -1, eta, -1.5
    else:
        fp = y[1]
        side, eta_stop = (1 if fp > 0 else -1), eta_max
    if growth is None:
        return side, math.nan
    try:
        return side, fp * math.exp(growth * (eta_max - eta_stop))
    except OverflowError:
        return side, math.copysign(math.inf, fp)


def shoot_refine(params: ModelParams, bracket: tuple[float, float],
                 cfg: Optional[IntegratorConfig] = None) -> float:
    """alpha at the sign change of the divergence side inside bracket,
    resolved to bisection's final width of 1e-8, or to two adjacent
    floats once those are further apart (|alpha| >= 2^26). Independent
    cross-check for the Hankel result.

    The result is the one plain bisection on the side would return: the
    midpoint of its final leaf. It runs `bisect_sign` on the bracket, and
    only the order of the work differs. The search keeps the tested
    points a < b nearest the sign change. A tree midpoint outside (a, b)
    takes its side from a or b without a trajectory. A midpoint inside
    needs a test, and the point tested is chosen by an Illinois regula
    falsi step (Dowell & Jarratt 1971) on the tail value u of
    `_divergence_side`, rounded to the deepest node inside (a, b) on the
    tree path toward it (one more `bisect_sign` walk from the bracket);
    without a usable u (no real N=1 decay rate, a non-finite u, or a u
    whose sign is not the side) it is the midpoint itself. When the side
    changes once inside the bracket every inferred side is the side
    bisection would compute, so the result is the same float."""
    if cfg is None:
        cfg = IntegratorConfig()
    lo, hi = float(bracket[0]), float(bracket[1])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("bracket must be finite")
    if lo > hi:
        lo, hi = hi, lo
    try:
        beta = ansatz.solve_n1(params).beta
    except ansatz.ComplexDecay:
        if cfg.eta_max is None:
            raise
        beta = None
    # divergence needs room to manifest; go well past the profile default
    # (auto_eta_max is 10 / beta)
    eta_max = 3 * (cfg.eta_max if cfg.eta_max is not None else 10.0 / beta)
    growth = None if beta is None else _tail_growth(params, beta)

    side_lo, ua = _divergence_side(params, lo, cfg, eta_max, growth)
    side_hi, ub = _divergence_side(params, hi, cfg, eta_max, growth)
    if side_lo == side_hi:
        raise BadBracket(
            f"both endpoints diverge the same way (side {side_lo:+d})")
    a, b = lo, hi
    moved = 0  # end replaced by the last test: -1 for a, +1 for b

    def side_at(mid):
        # a tree midpoint outside the tested (a, b) takes its side from
        # there; inside, test points until it lies outside
        nonlocal a, b, ua, ub, moved
        while a < mid < b:
            p = mid
            if (math.isfinite(ua) and math.isfinite(ub)
                    and ua * side_lo > 0 and ub * side_hi > 0):
                x = b - ub * (b - a) / (ub - ua)
                # rounding can put x on a or b; aim just inside instead
                p = tree_point(min(max(x, math.nextafter(a, b)),
                                   math.nextafter(b, a)))
            side, u = _divergence_side(params, p, cfg, eta_max, growth)
            if side == side_lo:
                if moved < 0:  # b kept twice: Illinois halves its weight
                    ub *= 0.5
                a, ua, moved = p, u, -1
            else:
                if moved > 0:
                    ua *= 0.5
                b, ub, moved = p, u, 1
        return side_lo if mid <= a else side_hi

    def tree_point(x):
        # the deepest midpoint inside (a, b) on bisection's path from the
        # bracket toward x; the path passes the node whose midpoint
        # side_at was asked for, which lies in (a, b)
        inside = []

        def toward_x(m):
            if a < m < b:
                inside.append(m)
            return 1 if x < m else -1
        bisect_sign(toward_x, lo, hi, -1, LEAF_WIDTH)
        return inside[-1]

    leaf = bisect_sign(side_at, lo, hi, side_lo, LEAF_WIDTH)
    return (leaf[0] + leaf[1]) / 2
