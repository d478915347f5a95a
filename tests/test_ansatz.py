import math
import random
from decimal import Decimal, getcontext
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from mhdsheet import (AnsatzSolution, ComplexDecay, IntegratorConfig,
                      ModelParams, NoConvergence, NoPhysicalRoot, RequiresNonzeroM,
                      ansatz, eval_ansatz, integrate, residual_modes,
                      solve_general, solve_n1, solve_n2)
from mhdsheet.ansatz import _modes, _real_roots

from conftest import PAPER_ALPHA


def ode_residual_of_ansatz(params, sol, eta):
    f = eval_ansatz(sol, eta, 0)
    fp = eval_ansatz(sol, eta, 1)
    fpp = eval_ansatz(sol, eta, 2)
    # f''' by summing the series directly
    fppp = sum(bj * (-j * sol.beta) ** 3 * math.exp(-j * sol.beta * eta)
               for j, bj in enumerate(sol.b))
    return fppp - params.M ** 2 * fp - fp ** 2 + params.m * f * fpp


class TestModes:
    def test_modes_match_pointwise_ode_residual(self, paper_params):
        # oracle: project the pointwise ODE residual onto exp(-beta j eta)
        # by least squares on a grid; shares nothing with the mode algebra
        sol = AnsatzSolution(N=2, beta=3.7, b=(1.2, 0.4, 0.05),
                             alpha_est=0.0, residual_norm=0.0)
        etas = np.linspace(0.0, 2.0, 400)
        resid = np.array([ode_residual_of_ansatz(paper_params, sol, e)
                          for e in etas])
        basis = np.column_stack([np.exp(-sol.beta * j * etas)
                                 for j in range(1, 5)])
        proj, *_ = np.linalg.lstsq(basis, resid, rcond=None)
        want = _modes(paper_params, sol.beta, sol.b)
        assert proj == pytest.approx(want, abs=1e-8)

    def test_b0_enters_only_m_term(self):
        p_no_m = ModelParams(2, 0, 1)
        r1 = _modes(p_no_m, 2.0, [5.0, 0.3, 0.1])
        r2 = _modes(p_no_m, 2.0, [-7.0, 0.3, 0.1])
        assert r1 == pytest.approx(r2)

    def test_modes_at_overflowing_M(self, paper_params):
        # M^2 past the float range reads as inf, not an OverflowError
        sol = solve_n1(paper_params)
        R = residual_modes(ModelParams(1e200, 2, 1.8), sol).R
        assert R[0] == math.inf

    def test_residual_modes_requires_positive_beta(self, paper_params):
        sol = AnsatzSolution(N=1, beta=-1.0, b=(1.0, 1.0),
                             alpha_est=0.0, residual_norm=0.0)
        with pytest.raises(ValueError):
            residual_modes(paper_params, sol)


class TestN1:
    def test_paper_case_beta(self, paper_params):
        sol = solve_n1(paper_params)
        assert sol.beta == pytest.approx(math.sqrt(131) / 5 + 9 / 5, rel=1e-14)
        assert sol.b[1] == pytest.approx(1 / sol.beta, rel=1e-14)
        assert sol.b[0] == pytest.approx(1.8 - 1 / sol.beta, rel=1e-14)
        assert sol.alpha_est == pytest.approx(sol.beta, rel=1e-14)

    def test_boundary_conditions_hold(self, paper_params):
        sol = solve_n1(paper_params)
        assert eval_ansatz(sol, 0.0) == pytest.approx(1.8, rel=1e-13)
        assert eval_ansatz(sol, 0.0, 1) == pytest.approx(-1.0, rel=1e-13)
        assert eval_ansatz(sol, 40.0, 1) == pytest.approx(0.0, abs=1e-12)

    def test_m1_is_exact(self):
        # at m = 1 the single exponential solves the ODE identically
        params = ModelParams(2, 1, 1)
        sol = solve_n1(params)
        assert sol.beta == pytest.approx((1 + math.sqrt(13)) / 2, rel=1e-14)
        assert sol.residual_norm < 1e-12
        for eta in (0.0, 0.5, 1.3, 3.0):
            assert ode_residual_of_ansatz(params, sol, eta) == pytest.approx(
                0.0, abs=1e-10)

    def test_complex_decay(self):
        # 4M^2 + m^2 s^2 - 4m < 0
        with pytest.raises(ComplexDecay):
            solve_n1(ModelParams(M=0.1, m=2, s=0.1))
        # discriminant 1, so beta = (1 + ms)/2 = 0
        with pytest.raises(ComplexDecay, match="not positive"):
            solve_n1(ModelParams(M=1, m=1, s=-1))

    def test_cancelling_discriminant_is_accurate(self):
        # 4M^2 - 4m cancels to -8.9e-16 here; formed as 4M^2 + m^2 s^2 - 4m
        # the m^2 s^2 = 1e-12 drowned in the rounding of 4M^2 and beta
        # came out 2.2e-5 relative too large
        M, s = 0.9999999999999999, 1e-6
        getcontext().prec = 60
        disc = Decimal(s) ** 2 - 4 * (1 - Decimal(M) ** 2)
        exact = float((Decimal(s) + disc.sqrt()) / 2)
        assert solve_n1(ModelParams(M, 1, s)).beta == pytest.approx(
            exact, rel=1e-14)

    @pytest.mark.parametrize("M, m, s", [(1e200, 2, 1.8), (2, 2, 1e200),
                                         (2, 1e200, 1.8), (2, 1e200, 0.0)])
    def test_overflowing_decay_rate_is_complex_decay(self, M, m, s):
        # M^2 overflows, or m^2 s^2 does: beta is inf or nan, never finite
        with pytest.raises(ComplexDecay):
            solve_n1(ModelParams(M=M, m=m, s=s))

    @given(st.floats(0.5, 5), st.floats(-2, 3), st.floats(-2, 2))
    # a subnormal beta, whose b_0 and b_1 = 1/beta overflowed to -inf, inf
    @example(1.0, 1.0, 2.225073858507e-311)
    @settings(max_examples=60, deadline=None)
    def test_mode1_vanishes_whenever_defined(self, M, m, s):
        try:
            sol = solve_n1(ModelParams(M, m, s))
        except ComplexDecay:
            return
        R = residual_modes(ModelParams(M, m, s), sol)
        assert R.R[0] == pytest.approx(0.0, abs=1e-9 * (1 + sol.beta ** 3))


class TestN2:
    def test_paper_case(self, paper_params):
        sol = solve_n2(paper_params)
        assert sol.beta == pytest.approx(4.094627, abs=1e-6)
        assert sol.b[1] == pytest.approx(0.238041, abs=1e-6)
        assert sol.b[2] == pytest.approx(0.00309091, abs=1e-7)
        assert sol.alpha_est == pytest.approx(4.198271, abs=1e-5)
        # closer to the reference alpha than N=1
        n1 = solve_n1(paper_params)
        assert abs(sol.alpha_est - PAPER_ALPHA) < abs(n1.alpha_est - PAPER_ALPHA)

    def test_overflowing_quartic_is_no_physical_root(self):
        # beta ~ 1e100 is finite, but the quartic's M^4 term overflows
        with pytest.raises(NoPhysicalRoot, match="overflow"):
            solve_n2(ModelParams(M=1e100, m=2, s=1.8))
        # M^2 itself overflows: it was a raw OverflowError, for an int M
        # until ModelParams read it as a float
        for M in (1e200, 10 ** 200):
            with pytest.raises(NoPhysicalRoot, match="overflow"):
                solve_n2(ModelParams(M=M, m=2, s=1.8))

    def test_no_decaying_root_is_no_physical_root(self):
        with pytest.raises(NoPhysicalRoot, match="decaying"):
            solve_n2(ModelParams(0.62, 0.75, -2.61))

    def test_boundary_and_first_modes(self, paper_params):
        sol = solve_n2(paper_params)
        assert sum(sol.b) == pytest.approx(1.8, rel=1e-12)
        # f'(0) = -beta (b_1 + 2 b_2) = -1
        assert sol.beta * (sol.b[1] + 2 * sol.b[2]) == pytest.approx(1.0, rel=1e-12)
        R = residual_modes(paper_params, sol)
        assert R.R[0] == pytest.approx(0.0, abs=1e-9)
        assert R.R[1] == pytest.approx(0.0, abs=1e-9)

    def test_quartic_root_is_exact(self, paper_params):
        from mhdsheet.ansatz import _quartic_coeffs
        # the paper case; a case whose smallest positive root has
        # |b_2| >= |b_1|; a case without a real N=1 rate to break ties
        for params in (paper_params, ModelParams(0.4, 2.24, 1.58),
                       ModelParams(0.09, 2.18, -0.4)):
            sol = solve_n2(params)
            c = _quartic_coeffs(params)
            val = sum(ci * sol.beta ** (4 - i) for i, ci in enumerate(c))
            assert val == pytest.approx(0.0, abs=1e-8)
            assert abs(sol.b[2]) < abs(sol.b[1])

    def test_m0_rejected(self):
        with pytest.raises(RequiresNonzeroM):
            solve_n2(ModelParams(2, 0, 1))

    @pytest.mark.parametrize("m", [1e-9, -4.4e-13])
    def test_tiny_m_rejected(self, m):
        # the quartic's near-double root at beta ~ M made the outcome
        # rounding noise: alpha_est -749.8 at m = 1e-9, -30.4 at -4.4e-13
        with pytest.raises(RequiresNonzeroM):
            solve_n2(ModelParams(2.89, m, -0.47))
        # the bound itself is admissible
        assert solve_n2(ModelParams(2.89, math.copysign(1e-6, m), -0.47)).N == 2

    def test_m1_collapses_to_n1(self):
        # at m = 1 the extra mode is not needed; b_2 comes out ~0
        sol = solve_n2(ModelParams(2, 1, 1))
        n1 = solve_n1(ModelParams(2, 1, 1))
        assert sol.beta == pytest.approx(n1.beta, rel=1e-8)
        assert sol.b[2] == pytest.approx(0.0, abs=1e-8)

    @given(st.floats(0.05, 1, exclude_min=True, exclude_max=True),
           st.floats(0, 4))
    @example(0.5464989686537529, 2.965007424805961)
    # 1 - M^2 = 2.2e-16: both closed forms lost it to the rounding of M^2
    @example(0.9999999999999999, 1e-06)
    @settings(max_examples=200, deadline=None)
    def test_m1_picks_the_n1_root(self, M, s):
        # at m = 1 the quartic is (beta^2 - s beta + 1 - M^2)(4 beta^2 + 2 M^2)
        # and b_2 = 0 at both roots of the first factor, so only the N=1
        # tie-break can choose between them
        params = ModelParams(M, 1.0, s)
        try:
            n1 = solve_n1(params)
        except ComplexDecay:
            return
        # the other root, s - beta_1, is not a near-double root
        assume(2 * n1.beta - s > 1e-3 * n1.beta)
        sol = solve_n2(params)
        assert sol.beta == pytest.approx(n1.beta, rel=1e-12)
        assert sol.b[2] == pytest.approx(0.0, abs=1e-12)


def horner(c, x):
    acc = 0.0
    for ci in c:
        acc = acc * x + ci
    return acc


LEAD = st.floats(0.5, 8) | st.floats(-8, -0.5)


class TestRealRoots:
    @given(LEAD, st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=5))
    @settings(max_examples=300, deadline=None)
    def test_each_root_is_a_zero_or_a_sign_change(self, lead, rest):
        c = [lead, *rest]
        roots = _real_roots(c)
        assert roots == sorted(set(roots))
        for r in roots:
            near = [horner(c, x) for x in
                    (math.nextafter(r, -math.inf), r, math.nextafter(r, math.inf))]
            assert near[1] == 0 or min(near) < 0 < max(near)

    @given(LEAD, st.floats(-5, 0), st.lists(st.floats(0.5, 3), min_size=1,
                                            max_size=3),
           st.floats(-3, 3), st.floats(0.1, 4))
    @settings(max_examples=200, deadline=None)
    def test_separated_roots_are_found(self, lead, first, gaps, re, im):
        # (x - r_1)...(x - r_k), times a complex pair re +- i im when k = 2
        known = list(np.cumsum([first, *gaps]))
        c = np.poly(known) * lead
        if len(known) == 2:
            c = np.polymul(c, [1.0, -2 * re, re * re + im * im])
        c = [float(x) for x in c]
        reference = sorted(r.real for r in np.roots(c) if abs(r.imag) < 1e-6)
        roots = _real_roots(c)
        assert roots == pytest.approx(known, rel=1e-9, abs=1e-9)
        assert roots == pytest.approx(reference, rel=1e-9, abs=1e-9)


# (M, m, s) -> (repr of solve_general(params, 4).alpha_est, repr of .beta)
# at test_ivp.PROFILE_RECORDS' points and the paper case, recorded while the
# Newton step was numpy's LAPACK solve: PROFILE_RECORDS' shooting brackets
# are built from these estimates, so they must not move by an ulp
GENERAL_N4_RECORDS = {
    (1.73, 0.0, 1.07): ("1.5246049626588192", "1.73"),
    (2.19, 1.0, 1.81): ("3.053284199076091", "3.0532841990760904"),
    (1.27, 1.47, 1.97): ("3.0241079267090103", "2.950431623579006"),
    (2.61, 0.0, 1.59): ("2.4789746403379134", "2.61"),
    (1.79, 1.0, 2.17): ("2.9238379482705814", "2.9238379482705916"),
    (1.67, 0.57, 2.29): ("2.1988306033525387", "2.2759463531569764"),
    (2, 2, 1.8): ("4.204106103234005", "4.094822153066341"),
}


class TestGeneral:
    @pytest.mark.parametrize("point", list(GENERAL_N4_RECORDS))
    def test_frozen_estimates(self, point):
        sol = solve_general(ModelParams(*point), 4)
        assert (repr(sol.alpha_est), repr(sol.beta)) == GENERAL_N4_RECORDS[point]

    def test_singular_jacobian_is_no_convergence(self, paper_params,
                                                 monkeypatch):
        jacobian = ansatz._jacobian

        def zero_column(params, x, N):
            return [[0.0, *row[1:]] for row in jacobian(params, x, N)]
        monkeypatch.setattr(ansatz, "_jacobian", zero_column)
        with pytest.raises(NoConvergence, match="singular Jacobian") as info:
            solve_general(paper_params, 4)
        # Newton solves only while the residual is at least 1e-13
        assert info.value.residual >= 1e-13

    def test_nan_residual_is_no_convergence(self, paper_params, monkeypatch):
        # after the first real call the residual is 0 but for a nan last
        # component (the Jacobian's complex calls are left alone). Python's
        # max() passes over a nan that is not first, so a norm taken with
        # it would accept the first Newton iterate as a root
        system, calls = ansatz._system, [0]

        def nan_last(params, x, N):
            g = system(params, x, N)
            if all(isinstance(v, float) for v in x):
                calls[0] += 1
                if calls[0] > 1:
                    g = [0.0] * (len(g) - 1) + [math.nan]
            return g
        monkeypatch.setattr(ansatz, "_system", nan_last)
        with pytest.raises(NoConvergence):
            solve_general(paper_params, 4)
        assert calls[0] > 1

    def test_negative_beta_is_no_convergence(self, paper_params,
                                             monkeypatch):
        # seeded at the N=1 closed form's other root, beta ~ -0.4891,
        # Newton converges there at once, to a root that does not decay
        m, s = paper_params.m, paper_params.s
        disc = 4 * (paper_params.M2 - m) + (m * s) ** 2
        beta = (m * s - math.sqrt(disc)) / 2
        monkeypatch.setattr(ansatz, "solve_n1", lambda params: ansatz._finish(
            params, beta, [s - 1 / beta, 1 / beta]))
        with pytest.raises(NoConvergence,
                           match=r"converged to nonphysical beta -0\.489"):
            solve_general(paper_params, 1)

    def test_reproduces_n2_at_N2(self, paper_params):
        direct = solve_n2(paper_params)
        newton = solve_general(paper_params, 2)
        assert newton.beta == pytest.approx(direct.beta, rel=1e-10)
        assert newton.b == pytest.approx(direct.b, abs=1e-10)

    def test_N4_close_to_reference(self, paper_params):
        sol = solve_general(paper_params, 4)
        assert sol.residual_norm < 1e-12
        assert sol.alpha_est == pytest.approx(PAPER_ALPHA, abs=2e-5)

    def test_alpha_est_improves_with_N(self, paper_params):
        errs = []
        for N in (1, 2, 3, 4):
            sol = (solve_n1(paper_params) if N == 1
                   else solve_general(paper_params, N))
            errs.append(abs(sol.alpha_est - PAPER_ALPHA))
        assert errs == sorted(errs, reverse=True)

    def test_jacobian_matches_finite_differences(self, paper_params):
        from mhdsheet.ansatz import _jacobian, _system
        N = 3
        x = np.array([1.5, 0.2, 0.05, 0.01, 4.0])
        J = np.array(_jacobian(paper_params, list(x), N))
        h = 1e-7
        for col in range(N + 2):
            e = np.zeros(N + 2)
            e[col] = h
            fd = (np.array(_system(paper_params, list(x + e), N))
                  - np.array(_system(paper_params, list(x - e), N))) / (2 * h)
            assert J[:, col] == pytest.approx(fd, rel=1e-5, abs=1e-5)

    @pytest.mark.parametrize("N", [1, 2, 3, 4, 6])
    def test_jacobian_matches_exact_derivative(self, N):
        # the oracle: sympy differentiates the system itself, built on
        # symbols with the float parameters as exact rationals, and
        # evaluates the derivative at the rationals of the float point
        import sympy as sp
        from mhdsheet.ansatz import _jacobian, _system
        rng = random.Random(N)
        xs = sp.symbols(f"x0:{N + 2}")
        for _ in range(4):
            params = ModelParams(rng.uniform(1.2, 3), rng.uniform(0.5, 2.5),
                                 rng.uniform(1, 2.5))
            x = ([rng.uniform(-1, 1) for _ in range(N + 1)]
                 + [rng.uniform(0.5, 3)])
            exact = SimpleNamespace(M2=sp.Rational(params.M2),
                                    m=sp.Rational(params.m),
                                    s=sp.Rational(params.s))
            g = _system(exact, list(xs), N)
            at = {xc: sp.Rational(v) for xc, v in zip(xs, x)}
            J = _jacobian(params, x, N)
            for r, gr in enumerate(g):
                for c, xc in enumerate(xs):
                    want = sp.diff(gr, xc).subs(at)
                    err = abs(sp.Rational(J[r][c]) - want)
                    assert err <= 1e-13 * max(1, abs(want))

    @given(st.floats(40, 60), st.floats(-0.01, 0.01), st.floats(-3, 4))
    @settings(max_examples=100, deadline=None)
    def test_huge_M_is_finite_or_named_error(self, log_M, m, s):
        # overflow inside Newton must end in a named error, never in a nan
        # beta; where it first overflows moves by ulps, so sample a family
        try:
            sol = solve_general(ModelParams(10 ** log_M, m, s), 4)
        except (NoConvergence, ComplexDecay):
            return
        assert math.isfinite(sol.beta) and math.isfinite(sol.alpha_est)

    def test_bad_N_rejected(self, paper_params):
        with pytest.raises(ValueError):
            solve_general(paper_params, 0)

    def test_profile_agreement_with_rk(self, paper_params):
        # the N=4 ansatz should track the true f' to a few 1e-4 everywhere
        sol = solve_general(paper_params, 4)
        cfg = IntegratorConfig(eta_max=4.0)
        prof = integrate(paper_params, PAPER_ALPHA, cfg)
        worst = max(abs(eval_ansatz(sol, eta, 1) - fp)
                    for eta, _, fp, _ in prof.rows)
        assert worst < 5e-4


def test_eval_ansatz_rejects_high_derivative(paper_params):
    sol = solve_n1(paper_params)
    with pytest.raises(ValueError):
        eval_ansatz(sol, 0.0, 3)
