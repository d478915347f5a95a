"""Initial-value integration of the similarity equation and shooting.

The third-order ODE is integrated as the first-order system
(f, f', f'')' = (f', f'', M^2 f' + f'^2 - m f f'') from eta = 0 with
f(0) = s, f'(0) = -1, f''(0) = alpha. Profiles carry extrema of f'
(sign changes of f'', refined by bisection) so the presence or absence
of an interior maximum can be checked directly.

Shooting (`shoot_refine`) finds the alpha at which the trajectory's
divergence side flips. Only that exact side decides the bracket. A
continuous tail value from the same trajectory picks which node of
bisection's tree to integrate next (Illinois regula falsi), so the result
is plain bisection's float in fewer trajectories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.integrate import solve_ivp

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


def _rk4_step(f: Callable, eta: float, y: np.ndarray, h: float) -> np.ndarray:
    k1 = np.asarray(f(eta, y))
    k2 = np.asarray(f(eta + h / 2, y + h / 2 * k1))
    k3 = np.asarray(f(eta + h / 2, y + h / 2 * k2))
    k4 = np.asarray(f(eta + h, y + h * k3))
    return y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)


def _sample_grid(eta_max: float, stride: float) -> np.ndarray:
    n = int(round(eta_max / stride))
    if abs(n * stride - eta_max) > 1e-9 * max(1.0, eta_max):
        n = int(math.floor(eta_max / stride))
    grid = np.arange(n + 1) * stride
    if grid[-1] < eta_max - 1e-12:
        grid = np.append(grid, eta_max)
    return grid


def _refine_extrema(samples, fpp_at: Callable[[float], float],
                    fp_at: Callable[[float], float],
                    noise_floor: float) -> list[tuple[float, float]]:
    out = []
    fpp = np.array([s[3] for s in samples])
    for i in range(len(samples) - 1):
        a, b = samples[i][0], samples[i + 1][0]
        sa, sb = fpp[i], fpp[i + 1]
        if max(abs(sa), abs(sb)) < noise_floor:
            # integrator noise once the solution has decayed; not a
            # genuine stationary point of f'
            continue
        if sa == 0.0 and a > 0:
            out.append((a, samples[i][2]))
            continue
        if sa * sb >= 0:
            continue
        while b - a > 1e-8:
            mid = 0.5 * (a + b)
            sm = fpp_at(mid)
            if sm == 0:
                a = b = mid
                break
            if (sm > 0) == (sa > 0):
                a, sa = mid, sm
            else:
                b = mid
        eta = 0.5 * (a + b)
        if eta > 1e-8:  # interior only
            out.append((eta, fp_at(eta)))
    return out


def integrate(params: ModelParams, alpha: float, cfg: IntegratorConfig) -> Profile:
    """Integrate from eta = 0 to eta_max and sample at the configured
    stride. Raises Blowup when |f''| passes 1e12 before eta_max."""
    if not math.isfinite(alpha):
        raise ValueError("alpha must be finite")
    eta_max = cfg.eta_max if cfg.eta_max is not None else auto_eta_max(params)
    y0 = np.array([params.s, -1.0, alpha])
    f = rhs(params)
    grid = _sample_grid(eta_max, cfg.sample_stride)

    if cfg.method == "rk4":
        rows = [(0.0, params.s, -1.0, alpha)]
        y = y0.copy()
        eta = 0.0
        states = {0.0: y0.copy()}
        for target in grid[1:]:
            span = target - eta
            nsub = max(1, int(math.ceil(span / cfg.step)))
            h = span / nsub
            for _ in range(nsub):
                y = _rk4_step(f, eta, y, h)
                eta += h
                if abs(y[2]) > BLOWUP:
                    raise Blowup(f"|f''| exceeded {BLOWUP:g} at eta={eta:g}",
                                 eta=eta, state=tuple(y))
            eta = target
            states[target] = y.copy()
            rows.append((target, y[0], y[1], y[2]))

        def local(eta_q, comp):
            # re-integrate from the nearest stored grid state below eta_q
            base = max(t for t in states if t <= eta_q)
            yy = states[base].copy()
            tt = base
            span = eta_q - tt
            if span > 0:
                nsub = max(1, int(math.ceil(span / cfg.step)))
                h = span / nsub
                for _ in range(nsub):
                    yy = _rk4_step(f, tt, yy, h)
                    tt += h
            return yy[comp]

        fpp_at = lambda t: local(t, 2)
        fp_at = lambda t: local(t, 1)
    else:
        def blowup_event(eta, y):
            return abs(y[2]) - BLOWUP
        blowup_event.terminal = True

        sol = solve_ivp(f, (0.0, eta_max), y0, method="RK45",
                        rtol=cfg.rel_tol, atol=cfg.abs_tol,
                        dense_output=True, events=blowup_event)
        if sol.status == 1:  # terminated by the blowup event
            eta_b = sol.t_events[0][0]
            raise Blowup(f"|f''| exceeded {BLOWUP:g} at eta={eta_b:g}",
                         eta=eta_b, state=tuple(sol.y_events[0][0]))
        if not sol.success:
            raise StepUnderflow(sol.message)
        dense = sol.sol
        rows = []
        for t in grid:
            if t == 0.0:
                rows.append((0.0, params.s, -1.0, alpha))
            else:
                yf, yfp, yfpp = dense(t)
                rows.append((float(t), float(yf), float(yfp), float(yfpp)))
        fpp_at = lambda t: float(dense(t)[2])
        fp_at = lambda t: float(dense(t)[1])

    extrema = _refine_extrema(rows, fpp_at, fp_at,
                              1e3 * cfg.abs_tol) if len(rows) > 1 else []
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
    u is nan when no growth rate is given."""

    def over(eta, y):
        return y[1] - 0.5
    over.terminal = True
    over.direction = 1

    def under(eta, y):
        return y[1] + 1.5
    under.terminal = True
    under.direction = -1

    sol = solve_ivp(rhs(params), (0.0, eta_max),
                    [params.s, -1.0, alpha], method="RK45",
                    rtol=cfg.rel_tol, atol=cfg.abs_tol,
                    events=(over, under))
    if sol.t_events[0].size:
        side, eta_stop, fp = 1, sol.t_events[0][0], 0.5
    elif sol.t_events[1].size:
        side, eta_stop, fp = -1, sol.t_events[1][0], -1.5
    else:
        fp = float(sol.y[1, -1])
        side, eta_stop = (1 if fp > 0 else -1), eta_max
    if growth is None:
        return side, math.nan
    try:
        return side, fp * math.exp(growth * (eta_max - eta_stop))
    except OverflowError:
        return side, math.copysign(math.inf, fp)


def _tree_point(lo: float, hi: float, x: float, a: float, b: float) -> float:
    """The deepest midpoint strictly inside (a, b) on the path of
    bisection's tree from node (lo, hi) down toward x. The caller
    guarantees that the midpoint of (lo, hi) itself lies in (a, b)."""
    best = 0.5 * (lo + hi)
    while hi - lo > LEAF_WIDTH:
        mid = 0.5 * (lo + hi)
        if a < mid < b:
            best = mid
        if x < mid:
            hi = mid
        else:
            lo = mid
    return best


def shoot_refine(params: ModelParams, bracket: tuple[float, float],
                 cfg: Optional[IntegratorConfig] = None) -> float:
    """alpha at the sign change of the divergence side inside bracket,
    resolved to bisection's final width of 1e-8. Independent cross-check
    for the Hankel result.

    The result is the one plain bisection on the side would return: the
    midpoint of its final leaf (lo, hi). Only the order of the work
    differs. The search keeps the tested points a < b nearest the sign
    change and the node (lo, hi) of bisection's tree that holds them. A
    midpoint of (lo, hi) outside (a, b) takes its side from a or b
    without a trajectory. A midpoint inside needs a test, and the point
    tested is chosen by an Illinois regula falsi step (Dowell & Jarratt
    1971) on the tail value u of `_divergence_side`, rounded to the
    deepest tree node inside (a, b); without a usable u (no real N=1
    decay rate, a non-finite u, or a u whose sign is not the side) it is
    the midpoint itself. When the side changes once inside the bracket
    every inferred side is the side bisection would compute, so the
    result is the same float."""
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
    while hi - lo > LEAF_WIDTH:
        mid = 0.5 * (lo + hi)
        if mid <= a:
            lo = mid
            continue
        if mid >= b:
            hi = mid
            continue
        p = mid
        if (math.isfinite(ua) and math.isfinite(ub)
                and ua * side_lo > 0 and ub * side_hi > 0):
            x = b - ub * (b - a) / (ub - ua)
            # rounding can put x on a or b; aim just inside instead
            x = min(max(x, math.nextafter(a, b)), math.nextafter(b, a))
            p = _tree_point(lo, hi, x, a, b)
        side, u = _divergence_side(params, p, cfg, eta_max, growth)
        if side == side_lo:
            if moved < 0:  # b kept twice: Illinois halves its weight
                ub *= 0.5
            a, ua, moved = p, u, -1
        else:
            if moved > 0:
                ua *= 0.5
            b, ub, moved = p, u, 1
    return 0.5 * (lo + hi)
