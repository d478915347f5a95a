"""Acceptance suite. Each criterion prints exactly one PASS/FAIL line.

Criterion 1 runs the default Hankel matrix, on the derivatives
F_k = k! f_k from F_1 (d = -1). Its sequence settles at D = 8, so the
whole run lies in the D <= 15 prefix, whose best root is 1e-9 from the
physical alpha (4.6e-5 already at D = 4). The prefix clause was written
for the paper's matrix of Taylor coefficients f_k, where it depends on
the offset: with f_1 first the exact determinants have real roots within
1e-4 at D = 10 .. 15; with f_3 first (H_D^2) no real root for any
D <= 15 lies closer than 1.3e-4 (D = 13), and at D = 14 and 15 the
relevant root pair is complex.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from mhdsheet import (HankelConfig, IntegratorConfig, ModelParams,
                      alpha_sequence, eval_ansatz, evaluate_table, integrate,
                      monotonicity_report, pade, residual_modes, shoot_refine,
                      solve_n1, solve_n2, taylor_table)
from mhdsheet.hankel import _bareiss_sign, _int_matrix, hankel_entries
from mhdsheet.ivp import _rk4_step, rhs

from conftest import PAPER_ALPHA, taylor_coeffs_by_differentiation

PARAMS = ModelParams(M=2.0, m=2.0, s=1.8)


@pytest.fixture
def report(capfd):
    """One PASS/FAIL line per criterion, emitted past pytest's capture so
    it shows up in the live run output."""

    def _report(criterion, ok):
        with capfd.disabled():
            print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {criterion}")
        assert ok, f"criterion {criterion} failed"

    return _report


@pytest.fixture(scope="module")
def hankel_run():
    return alpha_sequence(PARAMS, HankelConfig(D_max=30), solve_n1(PARAMS).beta)


@pytest.fixture(scope="module")
def alpha_star(hankel_run):
    return hankel_run.alpha_star


def test_criterion_1_hankel_reproduction(hankel_run, report):
    ok = abs(hankel_run.alpha_star - 4.20411340) < 1e-6
    # prefix clause: the best root over D <= 15 must be within 1e-4.
    # The default matrix of derivatives settles at D = 8, 1e-9 off; on
    # the Taylor coefficients the f_1-first matrix has such roots at
    # D = 10 .. 15 and the f_3-first one (d=1) none closer than 1.3e-4.
    prefix = [r for D, r in hankel_run.roots if D <= 15]
    prefix_err = min(abs(r - 4.20411340) for r in prefix) if prefix else math.inf
    prefix_ok = prefix_err < 1e-4
    report(f"1 (Hankel alpha {'ok' if ok else 'off'} at D_max=30; "
           f"D<=15 prefix err {prefix_err:.2e} vs 1e-4)", ok and prefix_ok)


def test_criterion_2_n1_closed_form(report):
    sol = solve_n1(PARAMS)
    beta_exact = math.sqrt(131) / 5 + 9 / 5
    ok = (abs(sol.beta - beta_exact) <= 4 * math.ulp(beta_exact)
          and abs(sol.alpha_est - 4.0891) < 5e-4)
    report("2 (N=1 closed form)", ok)


def test_criterion_3_n2_closed_form(report):
    sol = solve_n2(PARAMS)
    ok = (abs(sol.alpha_est - 4.198) < 5e-3
          and abs(sol.b[1] - 0.238) < 2e-3
          and abs(sol.b[2] - 0.00309) < 2e-4)
    report("3 (N=2 closed form)", ok)


def test_criterion_4_no_maximum(alpha_star, report):
    prof = integrate(PARAMS, alpha_star, IntegratorConfig())
    rep = monotonicity_report(prof)
    ok = rep.monotone and not prof.extrema

    # ansatz profiles: f'' of the exponential sum must keep one sign
    eta_max = prof.rows[-1][0]
    for sol in (solve_n1(PARAMS), solve_n2(PARAMS)):
        fpp = [eval_ansatz(sol, e, 2) for e in np.linspace(0, eta_max, 501)]
        ok = ok and (min(fpp) > 0 or max(fpp) < 0)
    report("4 (no interior maximum of f')", ok)


def test_criterion_5_cross_method_coherence(alpha_star, report):
    shot = shoot_refine(PARAMS, (alpha_star - 0.05, alpha_star + 0.05))
    report("5 (|alpha_hankel - alpha_shooting| < 1e-6)",
           abs(alpha_star - shot) < 1e-6)


def test_criterion_6_property_suites(report):
    # (a) recurrence vs symbolic differentiation, exact, j <= 12
    tab = taylor_table(PARAMS, 12)
    alpha = Fraction(21, 5)
    got = evaluate_table(tab, alpha)
    want = taylor_coeffs_by_differentiation(4, 2, Fraction(9, 5), alpha, 12)
    a_ok = all(g == Fraction(str(w)) for g, w in zip(got, want))

    # (b) Bareiss vs cofactor expansion, D <= 4, exact
    def cofactor(rows):
        if len(rows) == 1:
            return rows[0][0]
        return sum((-1) ** j * rows[0][j]
                   * cofactor([r[:j] + r[j + 1:] for r in rows[1:]])
                   for j in range(len(rows)))

    b_ok = True
    for D in (1, 2, 3, 4):
        rows = [[p(alpha) for p in row] for row in hankel_entries(tab, 1, D)]
        det = cofactor(rows)
        want_sign = 0 if det == 0 else (1 if det > 0 else -1)
        b_ok = b_ok and _bareiss_sign(_int_matrix(rows)) == want_sign

    # (c) mode sum reproduces the pointwise ODE residual at 20 points
    sol = solve_n2(PARAMS)
    R = residual_modes(PARAMS, sol).R
    c_ok = True
    for eta in np.linspace(0.0, 3.0, 20):
        f = eval_ansatz(sol, eta, 0)
        fp = eval_ansatz(sol, eta, 1)
        fpp = eval_ansatz(sol, eta, 2)
        fppp = sum(bj * (-j * sol.beta) ** 3 * math.exp(-j * sol.beta * eta)
                   for j, bj in enumerate(sol.b))
        pointwise = fppp - PARAMS.M ** 2 * fp - fp ** 2 + PARAMS.m * f * fpp
        modal = sum(r * math.exp(-(j + 1) * sol.beta * eta)
                    for j, r in enumerate(R))
        c_ok = c_ok and abs(pointwise - modal) < 1e-10

    # (d) Pade re-expansion through order L+K
    rng = np.random.default_rng(11)
    series = list(rng.standard_normal(11))
    p = pade(series, 5, 5)
    num = list(p.num_coeffs) + [0.0] * 11
    den = list(p.den_coeffs)
    c = []
    for i in range(11):
        acc = num[i]
        for k in range(1, min(i, len(den) - 1) + 1):
            acc -= den[k] * c[i - k]
        c.append(acc)
    scale = max(abs(x) for x in series)
    d_ok = all(abs(g - w) <= 1e-12 * scale for g, w in zip(c, series))

    # (e) RK4 step-halving error ratio 16 +/- 25%
    f = rhs(PARAMS)

    def rk4_to(h):
        y = np.array([PARAMS.s, -1.0, PAPER_ALPHA])
        eta = 0.0
        for _ in range(round(1.0 / h)):
            y = _rk4_step(f, eta, y, h)
            eta += h
        return y[0]

    ref = rk4_to(1.0 / 4096)
    ratio = abs(rk4_to(0.02) - ref) / abs(rk4_to(0.01) - ref)
    e_ok = 12.0 <= ratio <= 20.0

    report("6 (property suites a-e)", a_ok and b_ok and c_ok and d_ok and e_ok)


def test_criterion_7_ansatz_quality(alpha_star, report):
    prof = integrate(PARAMS, alpha_star, IntegratorConfig(eta_max=5.0))
    n1, n2 = solve_n1(PARAMS), solve_n2(PARAMS)
    dev1 = max(abs(fp - eval_ansatz(n1, eta, 1)) for eta, _, fp, _ in prof.rows)
    dev2 = max(abs(fp - eval_ansatz(n2, eta, 1)) for eta, _, fp, _ in prof.rows)
    report("7 (N=2 beats N=1, both < 0.05 in max-norm)",
           dev2 < dev1 and dev1 < 0.05 and dev2 < 0.05)
