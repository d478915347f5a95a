import contextlib
import hashlib
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mhdsheet import (BadBracket, Blowup, ComplexDecay, IntegratorConfig,
                      ModelParams, Profile, auto_eta_max, integrate, ivp,
                      monotonicity_report, rhs, shoot_refine, solve_general,
                      solve_n1)

from conftest import PAPER_ALPHA, deadline


class TestRhs:
    def test_matches_hand_arithmetic(self):
        f = rhs(ModelParams(M=2, m=2, s=1.8))
        # fppp = 4*(-1) + 1 - 2*1.8*4.2 = -18.12
        assert f(0.0, (1.8, -1.0, 4.2)) == pytest.approx((-1.0, 4.2, -18.12))

    def test_autonomous(self, paper_params):
        f = rhs(paper_params)
        y = (0.3, -0.2, 0.7)
        assert f(0.0, y) == pytest.approx(f(5.0, y))


def test_auto_eta_max(paper_params):
    assert auto_eta_max(paper_params) == pytest.approx(
        10.0 / solve_n1(paper_params).beta, rel=1e-14)


class TestIntegrate:
    def test_initial_row(self, paper_params):
        prof = integrate(paper_params, 4.2, IntegratorConfig(eta_max=1.0))
        assert prof.rows[0] == (0.0, 1.8, -1.0, 4.2)
        assert prof.alpha_used == 4.2

    def test_grid_stride(self, paper_params):
        cfg = IntegratorConfig(eta_max=2.0, sample_stride=0.5)
        prof = integrate(paper_params, 4.2, cfg)
        assert [r[0] for r in prof.rows] == pytest.approx([0, 0.5, 1.0, 1.5, 2.0])

    @pytest.mark.parametrize("M", [1e13, 1e100])
    @pytest.mark.parametrize("method", ["rk45", "rk4"])
    def test_tiny_eta_max_keeps_its_end_row(self, method, M):
        # auto eta_max is about 10 / M, below any absolute end tolerance;
        # the profile still ends at eta_max, not at eta = 0. f''(0) = M
        # lies past 1e12 but within the blowup level M^2, and falls from
        # there, so neither method raises Blowup
        params = ModelParams(M, 2, 1.8)
        prof = integrate(params, M, IntegratorConfig(method=method))
        assert [r[0] for r in prof.rows] == [0.0, auto_eta_max(params)]
        assert prof.tail_fp == prof.rows[-1][2] != -1.0

    def test_m1_case_against_closed_form(self):
        # m=1, alpha = beta: f' = -exp(-beta eta) exactly
        params = ModelParams(2, 1, 1)
        beta = (1 + math.sqrt(13)) / 2
        cfg = IntegratorConfig(eta_max=3.0, rel_tol=1e-12, abs_tol=1e-14)
        prof = integrate(params, beta, cfg)
        for eta, f, fp, fpp in prof.rows:
            assert fp == pytest.approx(-math.exp(-beta * eta), abs=1e-9)
            assert f == pytest.approx(1 - 1 / beta + math.exp(-beta * eta) / beta,
                                      abs=1e-9)
            assert fpp == pytest.approx(beta * math.exp(-beta * eta), abs=1e-8)

    def test_rk4_agrees_with_rk45(self, paper_params):
        c45 = IntegratorConfig(eta_max=2.0)
        c4 = IntegratorConfig(method="rk4", step=1e-3, eta_max=2.0)
        p45 = integrate(paper_params, PAPER_ALPHA, c45)
        p4 = integrate(paper_params, PAPER_ALPHA, c4)
        for r45, r4 in zip(p45.rows, p4.rows):
            assert r4[1] == pytest.approx(r45[1], abs=1e-8)
            assert r4[2] == pytest.approx(r45[2], abs=1e-8)

    def test_rk4_fourth_order_convergence(self):
        # halve the step: error against a tight RK45 run drops ~16x
        params = ModelParams(2, 2, 1.8)
        ref = integrate(params, PAPER_ALPHA,
                        IntegratorConfig(eta_max=1.0, sample_stride=1.0,
                                         rel_tol=1e-13, abs_tol=1e-14))
        ref_f = ref.rows[-1][1]
        errs = []
        for h in (0.02, 0.01):
            p = integrate(params, PAPER_ALPHA,
                          IntegratorConfig(method="rk4", step=h, eta_max=1.0,
                                           sample_stride=1.0))
            errs.append(abs(p.rows[-1][1] - ref_f))
        ratio = errs[0] / errs[1]
        assert 12 < ratio < 20

    def test_blowup_raises(self, paper_params):
        with pytest.raises(Blowup) as exc:
            integrate(paper_params, -5.0, IntegratorConfig(eta_max=30.0))
        assert exc.value.eta == pytest.approx(2.09, abs=0.05)

    @pytest.mark.parametrize("method", ["rk45", "rk4"])
    @pytest.mark.parametrize("alpha", [1e13, -1e13, 1e308])
    def test_alpha_past_blowup_raises_at_start(self, paper_params, method,
                                               alpha):
        # the blowup event fires only on crossing the threshold: from
        # past it RK45 ran on for over 20 s at 1e13 and divided by zero at
        # 1e308, and RK4 returned nan rows at 1e308
        with deadline(5), pytest.raises(Blowup) as exc:
            integrate(paper_params, alpha, IntegratorConfig(method=method))
        assert exc.value.eta == 0.0

    def test_rk4_nan_state_is_blowup(self):
        nan_deriv = lambda eta, y: (math.nan,) * 3
        with pytest.raises(Blowup):
            ivp._rk4_span(nan_deriv, 0.0, (0.0, 0.0, 0.0), 0.01, 1e-3,
                          ivp.BLOWUP)

    def test_nonfinite_alpha_rejected(self, paper_params):
        with pytest.raises(ValueError):
            integrate(paper_params, math.nan, IntegratorConfig())

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            IntegratorConfig(method="euler")
        with pytest.raises(ValueError):
            IntegratorConfig(eta_max=-1.0)
        with pytest.raises(ValueError):
            IntegratorConfig(step=0.0)


def rows_digest(rows):
    """SHA-256 of the rows' IEEE doubles, little-endian, four per row."""
    return hashlib.sha256(b"".join(struct.pack("<4d", *r) for r in rows)).hexdigest()


class TestFrozenRK4:
    """RK4 profiles at the paper case, recorded bit for bit before the
    integrators moved off scipy; the fixed-step path must not change."""

    RECORDS = {
        4.20411339902: (
            "3eb2b08423fdeb2a0243723b7656c732191ce5695a108f81293b0cfec17b0897",
            {50: (0.5, 1.5897422649860056, -0.12613874917138015, 0.5182519668513696),
             100: (1.0, 1.5629528939482957, -0.016233035342181134, 0.06650014425543323),
             245: (2.4455231422595967, 1.5590001175045578, -4.360599594668332e-05,
                   0.0001785628567373568)},
            []),
        4.0: (
            "0eb22ded80eedcebc17f709d1b8492b835dffa485c0b7835b264319ee2e98947",
            {50: (0.5, 1.573471282639644, -0.1808761421532117, 0.4491510594004918),
             100: (1.0, 1.510485348504844, -0.10795062938624637, -0.02143155240451904),
             245: (2.4455231422595967, 1.2144499913266102, -0.38277353362580513,
                   -0.39259878393574194)},
            [(0.9443806314468385, -0.10733854622060428)]),
    }

    @pytest.mark.parametrize("alpha", sorted(RECORDS))
    def test_rows_and_extrema(self, paper_params, alpha):
        digest, some_rows, extrema = self.RECORDS[alpha]
        prof = integrate(paper_params, alpha, IntegratorConfig(method="rk4"))
        assert len(prof.rows) == 246
        for i, row in some_rows.items():
            assert prof.rows[i] == row
        assert rows_digest(prof.rows) == digest
        assert prof.extrema == extrema
        assert prof.tail_fp == some_rows[245][2]


class TestFrozenRK45:
    """RK45 profiles at the paper case, recorded bit for bit from the
    in-repo Dormand-Prince stepper; its dense-output state lookup and
    extremum refinement must not change."""

    RECORDS = {
        4.20411339902: (
            "5802eb560b27dd83d9439e04d290f559c6949b6792a3abecf0063f726ad05aa4",
            {50: (0.5, 1.5897422649871304, -0.12613874917660658, 0.5182519668731005),
             100: (1.0, 1.5629528939485646, -0.01623303534365077, 0.06650014426215876),
             245: (2.4455231422595967, 1.559000117504895, -4.3605995472036833e-05,
                   0.00017856285766249642)},
            []),
        4.0: (
            "bafb157dbd0c040011ffdf8dbf2ac4977c8700c7ffc0defeed8a2faf289811bd",
            {50: (0.5, 1.573471282640079, -0.18087614215571537, 0.4491510594100588),
             100: (1.0, 1.5104853485049758, -0.10795062938751299, -0.021431552399141844),
             245: (2.4455231422595967, 1.21444999132159, -0.38277353362780764,
                   -0.39259878394497266)},
            [(0.9443806314468385, -0.10733854622238924)]),
    }

    @pytest.mark.parametrize("alpha", sorted(RECORDS))
    def test_rows_and_extrema(self, paper_params, alpha):
        digest, some_rows, extrema = self.RECORDS[alpha]
        prof = integrate(paper_params, alpha, IntegratorConfig())
        assert len(prof.rows) == 246
        for i, row in some_rows.items():
            assert prof.rows[i] == row
        assert rows_digest(prof.rows) == digest
        assert prof.extrema == extrema
        assert prof.tail_fp == some_rows[245][2]


class TestExtrema:
    def test_synthetic_interior_maximum(self):
        # feed _refine_extrema a profile built from a known function:
        # g(eta) = -exp(-eta) (1 - eta^2/2) has g' = 0 at eta = 1 + sqrt(3)
        from mhdsheet.ivp import _refine_extrema

        def g(eta):
            return -math.exp(-eta) * (1 - eta * eta / 2)

        def gp(eta):
            return math.exp(-eta) * (1 + eta - eta * eta / 2)

        etas = np.arange(0.0, 5.01, 0.1)
        samples = [(e, 0.0, g(e), gp(e)) for e in etas]
        ext = _refine_extrema(samples, gp, g, noise_floor=1e-9)
        assert len(ext) == 1
        assert ext[0][0] == pytest.approx(1 + math.sqrt(3), abs=1e-6)
        assert ext[0][1] == pytest.approx(g(1 + math.sqrt(3)), abs=1e-9)

    def test_bracket_below_float_spacing_ends(self):
        # at eta = 2^30 adjacent floats lie 2^-22 apart, wider than the
        # 1e-8 target width, so the bisection has to stop at them
        from mhdsheet.ivp import _refine_extrema
        a = 2.0 ** 30
        samples = [(a, 0.0, 0.0, 1.0), (a + 1, 0.0, 0.0, -1.0)]
        with deadline(10):
            ext = _refine_extrema(samples,
                                  lambda t: 1.0 if t < 2 ** 30 + 0.3 else -1.0,
                                  lambda t: t, noise_floor=1e-9)
        assert len(ext) == 1
        eta, fp = ext[0]
        assert abs(eta - (a + 0.3)) <= 2.0 ** -22
        assert fp == eta

    def test_physical_profile_is_monotone(self, paper_params):
        prof = integrate(paper_params, PAPER_ALPHA, IntegratorConfig(eta_max=5.0))
        rep = monotonicity_report(prof)
        assert rep.monotone
        assert rep.extrema == []
        assert rep.fp_min == pytest.approx(-1.0)
        assert rep.fp_max <= 1e-6

    def test_undershoot_alpha_produces_extremum(self, paper_params):
        # too small an alpha: f' turns around short of zero and diverges
        # downward, leaving an interior maximum
        prof = integrate(paper_params, 4.0, IntegratorConfig(eta_max=4.0))
        rep = monotonicity_report(prof)
        assert not rep.monotone
        assert rep.extrema

    def test_empty_profile_rejected(self):
        with pytest.raises(ValueError):
            monotonicity_report(Profile(rows=[], alpha_used=0.0, tail_fp=0.0))


class TestShooting:
    def test_paper_case(self, paper_params):
        alpha = shoot_refine(paper_params, (4.0, 4.4))
        assert alpha == pytest.approx(PAPER_ALPHA, abs=5e-7)

    def test_m1_exact_case(self):
        params = ModelParams(2, 1, 1)
        exact = (1 + math.sqrt(13)) / 2
        alpha = shoot_refine(params, (2.0, 2.6))
        assert alpha == pytest.approx(exact, abs=5e-8)

    def test_frozen_regression_s1(self):
        alpha = shoot_refine(ModelParams(2, 2, 1), (2.5, 3.2))
        assert alpha == pytest.approx(2.89160465, abs=5e-7)

    def test_bad_bracket(self, paper_params):
        with pytest.raises(BadBracket):
            shoot_refine(paper_params, (6.0, 8.0))

    def test_infinite_first_derivative_is_step_underflow(self, paper_params):
        # at alpha = -1e308 f''' overflows to inf, so the first step size
        # is 0; it was a ZeroDivisionError
        with deadline(5), pytest.raises(ivp.StepUnderflow):
            shoot_refine(paper_params, (-1e308, 1e308))
        with pytest.raises(ivp.StepUnderflow):
            ivp._dopri(rhs(paper_params), (1.8, -1.0, -1e308), 1.0, 1e-10, 1e-12)

    def test_bracket_order_irrelevant(self, paper_params):
        a = shoot_refine(paper_params, (4.4, 4.0))
        assert a == pytest.approx(PAPER_ALPHA, abs=5e-7)


def exact_alpha(params):
    """f''(0) where it is known in closed form: sqrt(M^2 - 2/3) at m = 0
    (f''^2 = M^2 f'^2 + (2/3) f'^3 once integrated), and the N=1 rate at
    m = 1, where f' = -exp(-beta eta) is exact."""
    if params.m == 0:
        return math.sqrt(params.M ** 2 - 2 / 3)
    assert params.m == 1
    return solve_n1(params).beta


class TestExactFamilies:
    # the shoot-profile benchmark's bracket est +- 0.1 max(1, |est|)
    # around the N=4 estimate; shooting lands within about 5e-9 on a
    # sample of 120 such points
    @pytest.mark.parametrize("m", [0.0, 1.0])
    @settings(max_examples=15, deadline=None)
    @given(M=st.floats(1.2, 3.0), s=st.floats(1.0, 2.5))
    def test_shooting_lands_on_the_exact_alpha(self, m, M, s):
        params = ModelParams(M, m, s)
        est = solve_general(params, 4).alpha_est
        w = 0.1 * max(1.0, abs(est))
        alpha = shoot_refine(params, (est - w, est + w))
        assert abs(alpha - exact_alpha(params)) <= 1e-6


def reference_bisection(params, bracket, cfg=None):
    """Plain bisection on the divergence side, the search that shoot_refine
    must reproduce bit for bit."""
    cfg = cfg or IntegratorConfig()
    eta_max = 3 * (cfg.eta_max if cfg.eta_max is not None
                   else auto_eta_max(params))
    side = lambda a: ivp._divergence_side(params, a, cfg, eta_max)[0]
    lo, hi = sorted(map(float, bracket))
    side_lo = side(lo)
    assert side(hi) != side_lo
    while hi - lo > 1e-8:
        mid = 0.5 * (lo + hi)
        if side(mid) == side_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@contextlib.contextmanager
def counting_trajectories():
    """Yield a one-item list holding the number of trajectories (one
    `ivp.rhs` call each) integrated inside the block."""
    original, count = ivp.rhs, [0]

    def counted(params):
        count[0] += 1
        return original(params)
    ivp.rhs = counted
    try:
        yield count
    finally:
        ivp.rhs = original


def guided_and_reference(params, bracket, cfg=None):
    """(alpha, trajectories) of shoot_refine, then of reference_bisection."""
    with counting_trajectories() as n:
        alpha = shoot_refine(params, bracket, cfg)
    with counting_trajectories() as n_ref:
        ref = reference_bisection(params, bracket, cfg)
    return alpha, n[0], ref, n_ref[0]


PAPER = ModelParams(2, 2, 1.8)
# the brackets of TestShooting, and solve's alpha_star +- 5% at the paper case
BRACKETS = [
    (PAPER, (4.0, 4.4)),
    (PAPER, (4.4, 4.0)),
    (ModelParams(2, 1, 1), (2.0, 2.6)),
    (ModelParams(2, 2, 1), (2.5, 3.2)),
    (PAPER, (4.2041138908 * 0.95, 4.2041138908 * 1.05)),
    # PROFILE_RECORDS' (2.19, 1, 1.81) bracket before its estimate moved
    (ModelParams(2.19, 1, 1.81), (2.7479557791684863, 3.358612618983706)),
]


# shoot_refine's (alpha, trajectories) on each of BRACKETS, recorded
# before shooting moved onto the package's one bisection loop
BRACKET_RECORDS = [
    (4.204113397002221, 11), (4.204113397002221, 11),
    (2.3027756348252293, 8), (2.8916046556085346, 15),
    (4.204113399027497, 11), (3.0532841945263485, 6),
]

# (M, m, s) -> (alpha, trajectories) with the shoot-profile benchmark's
# bracket est +- 0.1 max(1, |est|) around the N=4 estimate, at the points
# of that benchmark's first two rounds for seed 1; recorded as above, and
# (2.19, 1, 1.81) again when the N=2 quartic's constant term took M^2 - m
# rounded once: its estimate moved from 3.053284199076096 to ...091 (the
# old bracket keeps its old record in BRACKET_RECORDS)
PROFILE_RECORDS = {
    (1.73, 0.0, 1.07): (1.5251994437082954, 15),
    (2.19, 1.0, 1.81): (3.0532842036258385, 7),
    (1.27, 1.47, 1.97): (3.0241150691500795, 10),
    (2.61, 0.0, 1.59): (2.478998455298492, 11),
    (1.79, 1.0, 2.17): (2.92383795262744, 9),
    (1.67, 0.57, 2.29): (2.198831537158722, 14),
}


class TestGuidedShooting:
    @pytest.mark.parametrize("params,bracket", BRACKETS)
    def test_same_float_as_bisection(self, params, bracket):
        alpha, n, ref, n_ref = guided_and_reference(params, bracket)
        assert alpha == ref
        assert n <= n_ref

    @pytest.mark.parametrize("case,record", zip(BRACKETS, BRACKET_RECORDS))
    def test_frozen_brackets(self, case, record):
        params, bracket = case
        with counting_trajectories() as n:
            alpha = shoot_refine(params, bracket)
        assert (alpha, n[0]) == record

    @pytest.mark.parametrize("point", list(PROFILE_RECORDS))
    def test_frozen_profile_points(self, point):
        params = ModelParams(*point)
        est = solve_general(params, 4).alpha_est
        w = 0.1 * max(1.0, abs(est))
        with counting_trajectories() as n:
            alpha = shoot_refine(params, (est - w, est + w))
        assert (alpha, n[0]) == PROFILE_RECORDS[point]

    def test_paper_bracket_trajectories(self):
        with counting_trajectories() as n:
            shoot_refine(PAPER, (4.0, 4.4))
        assert n[0] <= 14

    @settings(max_examples=6, deadline=None)
    @given(M=st.floats(1.2, 3.0),
           m=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.5, 2.5)),
           s=st.floats(1.0, 2.5))
    def test_shoot_profile_family(self, M, m, s):
        # the shoot-profile benchmark's points and brackets
        params = ModelParams(M, m, s)
        est = solve_general(params, 4).alpha_est
        w = 0.1 * max(1.0, abs(est))
        alpha, n, ref, n_ref = guided_and_reference(params, (est - w, est + w))
        assert alpha == ref
        assert n <= n_ref

    @pytest.mark.parametrize("params,bracket", BRACKETS[:3])
    def test_bisection_fallback(self, params, bracket, monkeypatch):
        # no tail growth rate: every test is bisection's own midpoint
        monkeypatch.setattr(ivp, "_tail_growth", lambda params, beta: None)
        alpha, n, ref, n_ref = guided_and_reference(params, bracket)
        assert alpha == ref
        assert n == n_ref

    def test_complex_decay_falls_back_to_bisection(self):
        # no real N=1 decay rate: no guide, and eta_max must be given
        params = ModelParams(0, 2, 0.5)
        cfg = IntegratorConfig(eta_max=10.0)
        alpha, n, ref, n_ref = guided_and_reference(params, (-1.5, -1.0), cfg)
        assert alpha == ref
        assert n == n_ref
        with pytest.raises(ComplexDecay):
            shoot_refine(params, (-1.5, -1.0))

    def test_fixed_eta_max(self):
        cfg = IntegratorConfig(eta_max=2.5)
        alpha, n, ref, n_ref = guided_and_reference(PAPER, (4.0, 4.4), cfg)
        assert alpha == ref
        assert n <= n_ref

    @pytest.mark.parametrize("guided", [True, False])
    def test_bracket_of_adjacent_floats_ends(self, guided, monkeypatch):
        # past 2^26 the float spacing exceeds LEAF_WIDTH, so the bracket
        # stops shrinking at two adjacent floats; the search must end there
        step = 2.0 ** 30 + 0.3

        def side(params, alpha, cfg, eta_max, growth=None):
            return (1 if alpha > step else -1,
                    alpha - step if guided else math.nan)
        monkeypatch.setattr(ivp, "_divergence_side", side)
        with deadline(1.0):
            alpha = shoot_refine(PAPER, (step - 1.0, step + 1.0))
        assert abs(alpha - step) <= math.ulp(step)

    @pytest.mark.parametrize("bracket", [(math.nan, 4.4), (4.0, math.inf),
                                         (-math.inf, 4.4)])
    def test_nonfinite_bracket_rejected(self, bracket):
        with pytest.raises(ValueError, match="bracket must be finite"):
            shoot_refine(PAPER, bracket)

    def test_tail_value_sign_is_side(self):
        eta_max = 3 * auto_eta_max(PAPER)
        growth = ivp._tail_growth(PAPER, solve_n1(PAPER).beta)
        assert growth > 0
        for alpha in (4.0, 4.2, 4.21, 4.4):
            side, u = ivp._divergence_side(PAPER, alpha, IntegratorConfig(),
                                           eta_max, growth)
            assert side == (1 if u > 0 else -1)
        assert math.isnan(ivp._divergence_side(
            PAPER, 4.2, IntegratorConfig(), eta_max)[1])
