import math
from fractions import Fraction

import numpy as np
import pytest

from mhdsheet import (DegenerateSystem, IntegratorConfig, ModelParams,
                      PoleNear, evaluate_table, integrate, ivp, pade,
                      pade_eval, taylor_table)
from mhdsheet.polyseries import AlphaPolynomial

from conftest import (PAPER_ALPHA, clear_by_lcm,
                      taylor_coeffs_by_differentiation)


class TestTaylorTable:
    def test_leading_entries(self, paper_params):
        tab = taylor_table(paper_params, 3)
        assert tab.entries[0].coeffs == (Fraction(9, 5),)
        assert tab.entries[1].coeffs == (Fraction(-1),)
        assert tab.entries[2].coeffs == (Fraction(0), Fraction(1, 2))
        # f_3 = (-3 - 3.6 alpha)/6
        assert tab.entries[3].coeffs == (Fraction(-1, 2), Fraction(-3, 5))

    def test_rejects_low_order(self, paper_params):
        with pytest.raises(ValueError):
            taylor_table(paper_params, 2)

    def test_matches_symbolic_differentiation_oracle(self, paper_params):
        # exact comparison, j <= 12, at a handful of rational alphas
        tab = taylor_table(paper_params, 12)
        for alpha in (Fraction(0), Fraction(7, 3), Fraction(-5, 2),
                      Fraction(4204113, 1000000)):
            vals = evaluate_table(tab, alpha)
            oracle = taylor_coeffs_by_differentiation(
                4, 2, Fraction(9, 5), alpha, 12)
            for j, (got, want) in enumerate(zip(vals, oracle)):
                assert got == Fraction(str(want)), f"f_{j} mismatch at alpha={alpha}"

    def test_truncation_consistency(self, paper_params):
        long = taylor_table(paper_params, 15)
        short = taylor_table(paper_params, 7)
        assert long.entries[:8] == short.entries

    def test_negative_M_equivalent(self):
        a = taylor_table(ModelParams(2, 2, 1.8), 8)
        b = taylor_table(ModelParams(-2, 2, 1.8), 8)
        assert a.entries == b.entries


def fraction_recurrence(M, m, s, order):
    """Reference: the coefficient recurrence run directly on rational
    coefficient tuples, f_{j+3} from f_0 .. f_{j+2}, returned as
    AlphaPolynomials with trailing zeros trimmed."""
    M2, m, s = Fraction(M) ** 2, Fraction(m), Fraction(s)

    def add(acc, p, c):
        # acc += c p, padding acc as needed
        acc.extend([Fraction(0)] * (len(p) - len(acc)))
        for i, x in enumerate(p):
            acc[i] += c * x

    def mul(p, q):
        out = [Fraction(0)] * (len(p) + len(q) - 1)
        for i, x in enumerate(p):
            for j, y in enumerate(q):
                out[i + j] += x * y
        return out

    f = [(s,), (Fraction(-1),), (Fraction(0), Fraction(1, 2))]
    for j in range(order - 2):
        rhs = []
        add(rhs, f[j + 1], M2 * (j + 1))
        for k in range(j + 1):
            add(rhs, mul(f[k + 1], f[j - k + 1]), (k + 1) * (j - k + 1))
            add(rhs, mul(f[k], f[j - k + 2]), -m * (j - k + 1) * (j - k + 2))
        f.append(tuple(x / ((j + 1) * (j + 2) * (j + 3)) for x in rhs))

    def trimmed(p):
        p = list(p)
        while p and p[-1] == 0:
            p.pop()
        return AlphaPolynomial(tuple(p))
    return tuple(trimmed(p) for p in f)


RECURRENCE_CASES = [
    (Fraction(1, 3), Fraction(37, 100), Fraction(231, 100)),
    (Fraction(2), Fraction(2), Fraction(9, 5)),
    (Fraction(131, 100), Fraction(0), Fraction(109, 100)),
    (Fraction(-5, 2), Fraction(-3, 7), Fraction(0)),
    (Fraction(0), Fraction(1), Fraction(-11, 6)),
]


@pytest.mark.parametrize("M, m, s", RECURRENCE_CASES)
def test_integer_recurrence_equals_fraction_recurrence(M, m, s):
    tab = taylor_table(ModelParams(M, m, s), 24)
    assert tab.entries == fraction_recurrence(M, m, s, 24)
    assert (tab.m2, tab.m, tab.s) == (M ** 2, m, s)


@pytest.mark.parametrize("M, m, s", RECURRENCE_CASES + [
    (Fraction(2), Fraction(1), Fraction(0)),  # s = 0: f_0 is ((), 1)
    # M^2 = 17161/10^4: q = 10^4
    (Fraction(131, 100), Fraction(0), Fraction(129, 100)),
])
def test_cleared_form_is_lowest_terms(M, m, s):
    tab = taylor_table(ModelParams(M, m, s), 24)
    for ints, L in tab.moments:
        assert L > 0
        assert math.gcd(L, *ints) == 1
        assert not ints or ints[-1] != 0
    assert tab.moments == tuple(
        clear_by_lcm([math.factorial(k) * c for c in p.coeffs])
        for k, p in enumerate(fraction_recurrence(M, m, s, 24)))


@pytest.mark.parametrize("M, m, s", RECURRENCE_CASES + [
    (Fraction(0), Fraction(2), Fraction(1, 2)),
    (Fraction(2), Fraction(1), Fraction(0)),  # s = 0: f_0 is ((), 1)
])
def test_grown_table_equals_one_shot(M, m, s):
    params = ModelParams(M, m, s)
    tab = taylor_table(params, 3)
    for order in range(4, 41):
        tab = taylor_table(params, order, tab)
        assert tab.order == order
    assert tab.moments == taylor_table(params, 40).moments
    # a shorter order reads the table's own prefix
    assert taylor_table(params, 7, tab) == taylor_table(params, 7)


def test_grown_table_of_other_parameters_rejected():
    tab = taylor_table(ModelParams(2, 2, 1.8), 5)
    for other in (ModelParams(2, 2, 1.7), ModelParams(2, 1, 1.8),
                  ModelParams(3, 2, 1.8)):
        with pytest.raises(ValueError, match="other parameters"):
            taylor_table(other, 8, tab)
    # the recurrence reads only M^2, so -M continues the table of M
    assert taylor_table(ModelParams(-2, 2, 1.8), 8, tab) == taylor_table(
        ModelParams(2, 2, 1.8), 8)


def test_cleared_form_matches_entries():
    tab = taylor_table(ModelParams(Fraction(1, 3), Fraction(37, 100),
                                   Fraction(231, 100)), 12)
    for k, (p, (ints, L)) in enumerate(zip(tab.entries, tab.moments)):
        assert L > 0
        assert tuple(Fraction(c, L * math.factorial(k)) for c in ints) == p.coeffs


class TestEvaluateTable:
    def test_f2_is_half_alpha(self, paper_params):
        tab = taylor_table(paper_params, 3)
        assert evaluate_table(tab, Fraction(4))[2] == 2

    def test_f3_at_zero(self, paper_params):
        tab = taylor_table(paper_params, 3)
        assert evaluate_table(tab, Fraction(0))[3] == Fraction(-1, 2)

    def test_exactness_no_rounding(self, paper_params):
        tab = taylor_table(paper_params, 10)
        alpha = Fraction(123456789, 987654321)
        vals = evaluate_table(tab, alpha)
        # independent Horner over Fractions
        for p, v in zip(tab.entries, vals):
            acc = Fraction(0)
            for c in reversed(p.coeffs):
                acc = acc * alpha + c
            assert acc == v

    def test_f10_against_ivp_local_fit(self, paper_params, monkeypatch):
        # residual of the order-9 partial sum behaves like f_10 eta^10;
        # extrapolate the scaled residual of a tight integration to eta=0
        alpha = Fraction(420411340, 100000000)
        tab = taylor_table(paper_params, 10)
        vals = [float(v) for v in evaluate_table(tab, alpha)]
        monkeypatch.setattr(ivp, "REL_TOL", 1e-12)
        monkeypatch.setattr(ivp, "ABS_TOL", 1e-14)
        cfg = IntegratorConfig(eta_max=0.31, sample_stride=0.01)
        prof = integrate(paper_params, float(alpha), cfg)
        etas, g = [], []
        for eta, f, _, _ in prof.rows:
            if 0.08 <= eta <= 0.30:
                partial = sum(vals[j] * eta ** j for j in range(10))
                etas.append(eta)
                g.append((f - partial) / eta ** 10)
        fit = np.polynomial.polynomial.polyfit(etas, g, 3)
        assert fit[0] == pytest.approx(vals[10], rel=1e-2)


class TestPade:
    def test_geometric_series(self):
        p = pade([1.0, 1.0, 1.0, 1.0], L=0, K=1)
        assert p.num_coeffs == pytest.approx((1.0,))
        assert p.den_coeffs == pytest.approx((1.0, -1.0))
        assert pade_eval(p, 0.5) == pytest.approx(2.0)

    def test_exp_1_1(self):
        p = pade([1.0, 1.0, 0.5], L=1, K=1)
        assert p.num_coeffs == pytest.approx((1.0, 0.5))
        assert p.den_coeffs == pytest.approx((1.0, -0.5))

    def test_eval_at_zero_is_series_head(self):
        series = [0.3, -1.2, 0.8, 0.05, 1.1, -0.4]
        p = pade(series, L=2, K=2)
        assert pade_eval(p, 0.0) == pytest.approx(series[0])

    def test_reexpansion_matches_series(self):
        rng = np.random.default_rng(7)
        series = list(rng.standard_normal(11))
        for L, K in ((5, 5), (3, 7), (7, 3), (10, 0)):
            p = pade(series, L, K)
            # Maclaurin coefficients of num/den via long division
            c = []
            num = list(p.num_coeffs) + [0.0] * (L + K + 1 - len(p.num_coeffs))
            den = list(p.den_coeffs)
            for i in range(L + K + 1):
                acc = num[i] if i < len(num) else 0.0
                for k in range(1, min(i, len(den) - 1) + 1):
                    acc -= den[k] * c[i - k]
                c.append(acc)
            scale = max(abs(x) for x in series)
            for got, want in zip(c, series):
                assert abs(got - want) <= 1e-12 * scale

    def test_short_series_rejected(self):
        with pytest.raises(ValueError):
            pade([1.0, 2.0], L=1, K=1)

    def test_degenerate_system(self):
        # all-zero tail makes the Toeplitz system singular
        with pytest.raises(DegenerateSystem):
            pade([1.0, 0.0, 0.0, 0.0, 0.0], L=1, K=2)

    def test_near_singular_system(self):
        # the Toeplitz matrix [[1, 1], [1 + 2^-52, 1]] has determinant
        # -2^-52, so it is invertible, and its 2-norm condition number is
        # ~1.8e16: far enough past 1e13 that any norm's test refuses it
        series = [1.0, 1.0, 1.0 + 2 ** -52, 0.5]
        A = [[series[1], series[0]], [series[2], series[1]]]
        assert Fraction(A[0][0]) * Fraction(A[1][1]) \
            - Fraction(A[0][1]) * Fraction(A[1][0]) == -Fraction(1, 2 ** 52)
        assert np.linalg.cond(A) >= 1e15
        with pytest.raises(DegenerateSystem):
            pade(series, L=1, K=2)

    def test_pole_near(self):
        p = pade([1.0, 1.0, 1.0], L=0, K=1)  # 1/(1-x)
        with pytest.raises(PoleNear):
            pade_eval(p, 1.0)

    def test_fp_series_pade_matches_rk(self, paper_params, monkeypatch):
        # [8/8] of the f' series, evaluated off the expansion point
        tab = taylor_table(paper_params, 18)
        alpha = Fraction(420411340, 100000000)
        fj = [float(v) for v in evaluate_table(tab, alpha)]
        fp_series = [(j + 1) * fj[j + 1] for j in range(17)]
        p = pade(fp_series, 8, 8)
        monkeypatch.setattr(ivp, "REL_TOL", 1e-12)
        monkeypatch.setattr(ivp, "ABS_TOL", 1e-14)
        cfg = IntegratorConfig(eta_max=2.5)
        prof = integrate(paper_params, float(alpha), cfg)
        fp = {round(r[0], 6): r[2] for r in prof.rows}
        assert pade_eval(p, 1.0) == pytest.approx(fp[1.0], abs=1e-4)
        assert pade_eval(p, 2.0) == pytest.approx(fp[2.0], abs=1e-3)
