import hashlib
import math
import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

from mhdsheet import (BadBracket, Blowup, ComplexDecay, IntegratorConfig,
                      ModelParams, Profile, auto_eta_max, integrate, ivp,
                      monotonicity_report, rhs, shoot_refine, solve_general,
                      solve_n1)

from conftest import PAPER_ALPHA, counting_trajectories, deadline


class TestRhs:
    def test_matches_hand_arithmetic(self):
        f = rhs(ModelParams(M=2, m=2, s=1.8))
        # fppp = 4*(-1) + 1 - 2*1.8*4.2 = -18.12
        assert f(0.0, (1.8, -1.0, 4.2)) == pytest.approx((-1.0, 4.2, -18.12))

    def test_overflowing_M2_is_infinite(self):
        # M^2 past the float range reads as inf, not an OverflowError
        f = rhs(ModelParams(1e200, 2, 1.8))
        assert f(0.0, (1.8, -1.0, 1.0))[2] == -math.inf

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
        # one RK4 substep with M h = 10 ended at f' = -291; substeps of at
        # most 0.1 / M follow RK45's tail, about -4.54e-5
        rk45 = integrate(params, M, IntegratorConfig()).tail_fp
        assert prof.tail_fp == pytest.approx(rk45, rel=0, abs=1e-8)

    def test_m1_case_against_closed_form(self, monkeypatch):
        # m=1, alpha = beta: f' = -exp(-beta eta) exactly
        params = ModelParams(2, 1, 1)
        beta = (1 + math.sqrt(13)) / 2
        monkeypatch.setattr(ivp, "REL_TOL", 1e-12)
        monkeypatch.setattr(ivp, "ABS_TOL", 1e-14)
        cfg = IntegratorConfig(eta_max=3.0)
        prof = integrate(params, beta, cfg)
        for eta, f, fp, fpp in prof.rows:
            assert fp == pytest.approx(-math.exp(-beta * eta), abs=1e-9)
            assert f == pytest.approx(1 - 1 / beta + math.exp(-beta * eta) / beta,
                                      abs=1e-9)
            assert fpp == pytest.approx(beta * math.exp(-beta * eta), abs=1e-8)

    def test_rk4_agrees_with_rk45(self, paper_params):
        c45 = IntegratorConfig(eta_max=2.0)
        c4 = IntegratorConfig(method="rk4", eta_max=2.0)
        p45 = integrate(paper_params, PAPER_ALPHA, c45)
        p4 = integrate(paper_params, PAPER_ALPHA, c4)
        for r45, r4 in zip(p45.rows, p4.rows):
            assert r4[1] == pytest.approx(r45[1], abs=1e-8)
            assert r4[2] == pytest.approx(r45[2], abs=1e-8)

    def test_rk4_fourth_order_convergence(self, monkeypatch):
        # halve the step: error against a tight RK45 run drops ~16x
        params = ModelParams(2, 2, 1.8)
        monkeypatch.setattr(ivp, "REL_TOL", 1e-13)
        monkeypatch.setattr(ivp, "ABS_TOL", 1e-14)
        ref = integrate(params, PAPER_ALPHA,
                        IntegratorConfig(eta_max=1.0, sample_stride=1.0))
        ref_f = ref.rows[-1][1]
        errs = []
        for h in (0.02, 0.01):
            monkeypatch.setattr(ivp, "STEP", h)
            p = integrate(params, PAPER_ALPHA,
                          IntegratorConfig(method="rk4", eta_max=1.0,
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

    @pytest.mark.parametrize("method, error", [("rk45", ivp.StepUnderflow),
                                               ("rk4", Blowup)])
    def test_overflowing_M2_is_named_error(self, method, error):
        # M^2 overflows to inf: it was a raw OverflowError, for an int M
        # until ModelParams read it as a float
        for M in (1e200, 10 ** 200):
            with deadline(5), pytest.raises(error) as exc:
                integrate(ModelParams(M, 2, 1.8), 1.0,
                          IntegratorConfig(method=method, eta_max=1.0))
            # the level max(1e12, M^2) is inf, so no value exceeds it
            assert "inf" not in str(exc.value)
            if error is Blowup:
                assert str(exc.value).startswith("state not finite at eta=")

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
        # grids of more than MAX_ROWS rows, refused before any is built
        for eta_max, stride in ((1e300, 0.01), (2.0, 1e-300), (1e6 + 1, 1.0)):
            with pytest.raises(ValueError, match="rows"):
                IntegratorConfig(eta_max=eta_max, sample_stride=stride)
        assert IntegratorConfig(eta_max=1e6, sample_stride=1.0)

    def test_replace_checks_like_the_constructor(self):
        # a named tuple's _replace skips __new__ unless _make is overridden
        with pytest.raises(ValueError, match="eta_max must be positive"):
            IntegratorConfig()._replace(eta_max=-1.0)
        with pytest.raises(ValueError, match="rows"):
            IntegratorConfig(sample_stride=1e-6)._replace(eta_max=2.0)
        assert IntegratorConfig()._replace(eta_max=2.0) == IntegratorConfig(
            eta_max=2.0)

    def test_records_share_no_default_list(self):
        a, b = (Profile(rows=[], alpha_used=0.0, tail_fp=0.0)
                for _ in range(2))
        assert a.extrema == b.extrema == [] and a.extrema is not b.extrema

    def test_stride_must_be_positive_and_finite(self, paper_params):
        # an infinite stride made the grid's first point 0 * inf = nan,
        # and the profile lost its eta_max row
        for stride in (math.inf, math.nan, 0.0, -1.0):
            with pytest.raises(ValueError, match="sample_stride"):
                IntegratorConfig(sample_stride=stride)
        rows = integrate(paper_params, 4.2, IntegratorConfig(
            eta_max=2.0, sample_stride=1e308)).rows
        assert [row[0] for row in rows] == [0.0, 2.0]


def rows_digest(rows):
    """SHA-256 of the rows' IEEE doubles, little-endian, four per row."""
    return hashlib.sha256(b"".join(struct.pack("<4d", *r) for r in rows)).hexdigest()


class TestFrozenRK4:
    """RK4 profiles at the paper case, recorded bit for bit; the
    fixed-step path must not change."""

    RECORDS = {
        4.20411339902: (
            "17b675bccc42df4a515e73d5dc2af3e430de2c030d3158a103ccffb3bf73a354",
            {50: (0.5, 1.58974226498603, -0.1261387491715593, 0.5182519668519305),
             100: (1.0, 1.5629528939482717, -0.01623303534227938, 0.06650014425555086),
             245: (2.4455231422595967, 1.5590001175043489, -4.3605996176130945e-05,
                   0.0001785628565146574)},
            []),
        4.0: (
            "45c0f557d60ec83166355d77259ba0c02742459bbbb2d36e3024326442a48644",
            {50: (0.5, 1.5734712826396655, -0.18087614215338027, 0.4491510594010174),
             100: (1.0, 1.5104853485048235, -0.10795062938633732, -0.021431552404406244),
             245: (2.4455231422595967, 1.2144499913264233, -0.3827735336260172,
                   -0.39259878393596925)},
            [(0.9443806314468385, -0.10733854622069977)]),
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

    def test_fewest_substeps(self, paper_params, monkeypatch):
        # 244 gaps of 0.01 take 10 substeps of STEP = 1e-3 each, also
        # where a gap rounds a few ulps above 0.01, and the last gap,
        # 0.00552..., takes 6
        calls = []
        real = ivp._rk4_step

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(ivp, "_rk4_step", spy)
        integrate(paper_params, 4.20411339902, IntegratorConfig(method="rk4"))
        assert len(calls) == 2446


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


# _dopri's accepted steps with shooting's stop (f' leaving (-1.5, 0.5)),
# from eta = 0 to 3 auto_eta_max, away from the paper case: ((M, m, s),
# alpha, f calls, accepted steps, SHA-256 of repr(steps)), recorded bit for
# bit. The M = 199.5 run stops at f' = +0.5, the others at f' = -1.5. The
# M = 199.5 run rejects two steps and the m = 1 run one: their f calls
# exceed 2 + 6 per accepted step. Plain literals, so that a script can read
# them with ast.literal_eval without importing this file.
STEP_LOG_RECORDS = (
    ((199.5, -2.384, -1.214), 200.9526707, 3122, 518,
     "e03c5bf8396a11e82d04be4cf71e3e28522fc1df748a8ba48c4fe25fb87d3daa"),
    ((2.71, 0.0, 1.23), 2.584073009, 2594, 432,
     "6d5efd1e7dc4de6b2e5b14a8840e1d1d1ac7cf2518fa9bba1b59babfbbcca480"),
    ((1.51, 1.0, 1.69), 2.2, 1202, 199,
     "6611e3f2a362749081b89d9b688f349e1b13faf7dc3b3125e6b66d77c44a2679"),
    ((10.12, 0.3394, 3.267), 10.65143032, 3008, 501,
     "d1ef2e5f2d4d88ec4f24a218702ddabccdd52ae16fee378744aaa05dbf82f09e"),
)

# profiles at the m = 0 and m = 1 points of STEP_LOG_RECORDS with the
# default config: ((M, m, s), alpha, method, rows, rows_digest, extrema)
ROW_DIGEST_RECORDS = (
    ((2.71, 0.0, 1.23), 2.584073009, "rk45", 371,
     "5f81227216731a6679e72b5d0799b464f409b4576d797cbf0fc95aafab7c73e2", []),
    ((2.71, 0.0, 1.23), 2.584073009, "rk4", 371,
     "7cecaebe07970cf9a1cdf0c81ab63d7bba677bc9b294b30adc66fedf604340d2", []),
    ((1.51, 1.0, 1.69), 2.2, "rk45", 445,
     "3e1b8a4c03f110dce57289531f9cc5fcbcbafdee956b8ff3b3e324be44f6c961",
     [(1.599348464012146, -0.0913458402065046)]),
    ((1.51, 1.0, 1.69), 2.2, "rk4", 445,
     "9e8efc541d2ffaea714e9d398427abafae279d83f1adc8d937c202eb5ab6ad19",
     [(1.599348464012146, -0.09134584020400162)]),
)


def step_log(point, alpha):
    """(f calls, accepted steps, SHA-256 of repr(steps)) of _dopri from
    alpha at (M, m, s) = point, with shooting's stop and horizon."""
    params = ModelParams(*point)
    deriv, calls, steps = ivp.rhs(params), [0], []

    def f(eta, y):
        calls[0] += 1
        return deriv(eta, y)
    ivp._dopri(f, (params.s, -1.0, alpha), 3 * auto_eta_max(params),
               lambda y: (y[1] - 0.5) * (y[1] + 1.5), steps)
    return calls[0], len(steps), hashlib.sha256(repr(steps).encode()).hexdigest()


class TestFrozenOffPaper:
    """Step logs and profiles away from the paper case, recorded bit for
    bit: rejected steps, both stops and both integrators."""

    @pytest.mark.parametrize("point,alpha,calls,accepted,digest",
                             STEP_LOG_RECORDS)
    def test_step_log(self, point, alpha, calls, accepted, digest):
        assert step_log(point, alpha) == (calls, accepted, digest)

    def test_a_run_rejects_a_step(self):
        # one f call for k1, one in the initial step, six per attempt
        assert any(calls > 2 + 6 * accepted
                   for _, _, calls, accepted, _ in STEP_LOG_RECORDS)

    @pytest.mark.parametrize("point,alpha,method,rows,digest,extrema",
                             ROW_DIGEST_RECORDS)
    def test_rows(self, point, alpha, method, rows, digest, extrema):
        prof = integrate(ModelParams(*point), alpha,
                         IntegratorConfig(method=method))
        assert len(prof.rows) == rows
        assert rows_digest(prof.rows) == digest
        assert prof.extrema == extrema


class TestStateLength:
    """Both steppers are written out for the three floats (f, f', f'')."""

    @pytest.mark.parametrize("y", [(1.8, -1.0), (1.8, -1.0, 4.2, 0.0)])
    def test_other_lengths_raise_before_any_stage(self, y):
        calls = []

        def f(eta, state):
            calls.append(eta)
            return tuple(state)
        with pytest.raises(ValueError):
            ivp._dopri(f, y, 1.0, lambda state: -1.0)
        with pytest.raises(ValueError):
            ivp._rk4_step(f, 0.0, y, 1e-3)
        assert calls == []


class TestDopriLimits:
    def test_zero_derivative_starts_at_the_floor_step(self):
        # the initial step's d1 and d2 are 0: its power-law estimate would
        # divide by zero, so the first step is max(1e-6, 1e-3 h0) = 1e-6,
        # and each zero-error step after it grows tenfold
        steps = []
        assert ivp._dopri(lambda t, y: (0.0, 0.0, 0.0), (1.0, 2.0, 3.0), 1.0,
                          lambda y: -1.0, steps) == (1.0, (1.0, 2.0, 3.0),
                                                     False)
        assert [step[1] for step in steps][:2] == [1e-6, 1.1e-5]

    def test_finite_time_blowup_is_step_underflow(self):
        # y' = y^2 from y = 1 is 1 / (1 - t): short of t = 1 the
        # controller's step falls below 10 ulp(t) and is lifted to it, and
        # the run raises once a lifted step fails. Recorded: it accepts
        # 1170 steps, and 1168 without the lift
        steps = []
        with deadline(5), pytest.raises(ivp.StepUnderflow):
            ivp._dopri(lambda t, y: (y[0] * y[0], 0.0, 0.0), (1.0, 0.0, 0.0),
                       2.0, lambda y: -1.0, steps)
        assert len(steps) == 1170
        assert 0.999 < steps[-1][1] < 1.0


class TestExtrema:
    def test_synthetic_interior_maximum(self):
        # feed _refine_extrema a profile built from a known function:
        # g(eta) = -exp(-eta) (1 - eta^2/2) has g' = 0 at eta = 1 + sqrt(3)
        from mhdsheet.ivp import _refine_extrema

        def g(eta):
            return -math.exp(-eta) * (1 - eta * eta / 2)

        def gp(eta):
            return math.exp(-eta) * (1 + eta - eta * eta / 2)

        etas = [i * 0.1 for i in range(51)]
        samples = [(e, 0.0, g(e), gp(e)) for e in etas]
        ext = _refine_extrema(samples, gp, g, noise_floor=1e-9)
        assert len(ext) == 1
        assert ext[0][0] == pytest.approx(1 + math.sqrt(3), abs=1e-6)
        assert ext[0][1] == pytest.approx(g(1 + math.sqrt(3)), abs=1e-9)
        # |g'| < 4e-3 at the samples around that sign change: below a
        # noise floor of 1e-2 it is not an extremum
        assert _refine_extrema(samples, gp, g, noise_floor=1e-2) == []

    def test_extremum_on_a_sample(self):
        # f'' exactly 0 at a sample: the extremum is that sample, found
        # without bisection
        from mhdsheet.ivp import _refine_extrema
        samples = [(0.0, 0.0, -1.0, 1.0), (1.0, 0.0, -0.5, 0.0),
                   (2.0, 0.0, -0.7, -1.0)]
        fail = lambda t: pytest.fail("no lookup needed")
        assert _refine_extrema(samples, fail, fail, 1e-9) == [(1.0, -0.5)]

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
            ivp._dopri(rhs(paper_params), (1.8, -1.0, -1e308), 1.0,
                       lambda y: -1.0)

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


def reference_bisection(params, bracket):
    """Plain bisection on the divergence side, the search that shoot_refine
    must reproduce bit for bit. The side does not depend on the growth
    rate passed along with it."""
    eta_max = 3 * auto_eta_max(params)
    side = lambda a: ivp._divergence_side(params, a, eta_max, 1.0)[0]
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


def guided_and_reference(params, bracket):
    """(alpha, trajectories) of shoot_refine, then of reference_bisection."""
    with counting_trajectories() as n:
        alpha = shoot_refine(params, bracket)
    with counting_trajectories() as n_ref:
        ref = reference_bisection(params, bracket)
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


# shoot_refine's (alpha, trajectories) on each of BRACKETS: the alphas
# recorded before shooting moved onto the package's one bisection loop,
# the counts when each side's own secant replaced the Illinois guide
BRACKET_RECORDS = [
    (4.204113397002221, 9), (4.204113397002221, 9),
    (2.3027756348252293, 7), (2.8916046556085346, 9),
    (4.204113399027497, 9), (3.0532841945263485, 6),
]

# (M, m, s) -> (alpha, trajectories) with the shoot-profile benchmark's
# bracket est +- 0.1 max(1, |est|) around the N=4 estimate, at the points
# of that benchmark's first two rounds for seed 1; recorded as above, and
# (2.19, 1, 1.81) again when the N=2 quartic's constant term took M^2 - m
# rounded once: its estimate moved from 3.053284199076096 to ...091 (the
# old bracket keeps its old record in BRACKET_RECORDS); the counts
# re-recorded with the per-side secant
PROFILE_RECORDS = {
    (1.73, 0.0, 1.07): (1.5251994437082954, 8),
    (2.19, 1.0, 1.81): (3.0532842036258385, 7),
    (1.27, 1.47, 1.97): (3.0241150691500795, 9),
    (2.61, 0.0, 1.59): (2.478998455298492, 7),
    (1.79, 1.0, 2.17): (2.92383795262744, 8),
    (1.67, 0.57, 2.29): (2.198831537158722, 10),
}


def shoot_profile_points(seed, rounds):
    """The shoot-profile benchmark's points for `seed`: rounds of one m = 0,
    one m = 1 and one general m in [0.5, 2.5] point, with M in [1.2, 3]
    and s in [1, 2.5], each drawn as a two-decimal number whose
    lowest-terms denominator is 100, as (M, m, s)."""
    rng = random.Random(seed)

    def draw(lo, hi):
        while True:
            k = rng.randint(round(lo * 100), round(hi * 100))
            if math.gcd(k, 100) == 1:
                return float(f"{k // 100}.{k % 100:02d}")
    return [(draw(1.2, 3.0), m, draw(1.0, 2.5))
            for _ in range(rounds) for m in (0.0, 1.0, draw(0.5, 2.5))]


# the shot alphas at the 24 points of shoot_profile_points(30, 8), on the
# benchmark's bracket, recorded under the Illinois guide (249
# trajectories); the per-side secant takes DRAW_TRAJECTORIES
DRAW_RECORDS = [
    2.667851822484949, 2.5394839602716246, 2.957945801551022,
    1.1001060524378263, 2.978940273853002, 4.99194561057727,
    1.814781896219928, 2.83436200427308, 3.5537178006599954,
    2.352325091201733, 2.9221799612348356, 4.014619765731103,
    2.2674728950077254, 2.2611471061846204, 5.377817325696094,
    2.010530609163414, 2.813834285729519, 4.03706091127243,
    2.1822541849553927, 3.2429296037733586, 2.4749118316582126,
    2.2674728950077254, 2.1318255903862253, 4.406790045767231,
]
DRAW_TRAJECTORIES = 181


# the number and the SHA-256 of the ordered alphas (little-endian doubles)
# that shoot_refine passes to `_divergence_side` on each set of shots:
# the records above pin how many trials run, these which alphas they test
TRIAL_ORDER_RECORDS = {
    "draw": (181, "15a8e28f451fbc233ef9645f9609e4b8"
                  "8baebb3f604500f88ce8e01be7de2d94"),
    "brackets": (49, "79ea71f58b5f04e361d6239cd36f2983"
                     "cf54ae76b6f77aa355b729e6f7d0a58f"),
    "paper-guess": (4, "f6cbf24f3154aecceeee39e6df63e1b7"
                       "0651fccf711f40a7dd9d1f39f05b6b2e"),
}


def trial_order_shots(name):
    """The shoot_refine argument tuples of one TRIAL_ORDER_RECORDS set; the
    paper solve's shot is alpha_star +- 5% with alpha_star, its Hankel
    alpha, as the guess."""
    if name == "draw":
        return [profile_bracket(p) for p in shoot_profile_points(30, 8)]
    if name == "brackets":
        return BRACKETS
    alpha_star = 4.204113398591289
    w = 0.05 * alpha_star
    return [(PAPER, (alpha_star - w, alpha_star + w), alpha_star)]


def synthetic_shooting(monkeypatch, root, tail):
    """shoot_refine and reference_bisection on the paper bracket (4.0, 4.4)
    with `_divergence_side` replaced: the side is +1 above `root` and -1 at or
    below it, the tail value tail(alpha - root, side). Returns (alpha,
    trajectories) of each, as guided_and_reference does."""
    calls = [0]

    def fake_side(params, alpha, eta_max, growth):
        calls[0] += 1
        side = 1 if alpha > root else -1
        return side, tail(alpha - root, side)
    monkeypatch.setattr(ivp, "_divergence_side", fake_side)
    alpha = shoot_refine(PAPER, (4.0, 4.4))
    n = calls[0]
    ref = reference_bisection(PAPER, (4.0, 4.4))
    return alpha, n, ref, calls[0] - n


# roots for the synthetic tails, drawn inside the bracket (4.0, 4.4)
SYNTHETIC_ROOTS = [4.0 + 0.4 * random.Random(k).random() for k in range(12)]
# the most trajectories a kinked linear tail takes at those roots, where
# bisection takes 28
KINKED_MAX = 8
# tail values no guide can use: of the other side's sign, nan, infinite
# or zero
ADVERSARIAL_TAILS = {
    "wrong-sign": lambda d, side: -side * (1.0 + abs(d)),
    "nan": lambda d, side: math.nan,
    "inf": lambda d, side: math.inf,
    "-inf": lambda d, side: -math.inf,
    "side-inf": lambda d, side: side * math.inf,
    "zero": lambda d, side: 0.0,
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

    def test_frozen_draw(self):
        # 24 benchmark points: the same floats, and fewer trajectories
        points = shoot_profile_points(30, 8)
        counts = []
        for point, record in zip(points, DRAW_RECORDS):
            with counting_trajectories() as n:
                alpha = shoot_refine(*profile_bracket(point))
            assert alpha == record, point
            counts.append(n[0])
        assert len(counts) == len(DRAW_RECORDS)
        assert max(counts) <= 12
        assert sum(counts) == DRAW_TRAJECTORIES

    @pytest.mark.parametrize("name", list(TRIAL_ORDER_RECORDS))
    def test_trial_order(self, name, monkeypatch):
        # the same alphas tested in the same order, not only as many
        alphas, original = [], ivp._divergence_side

        def spy(params, alpha, eta_max, growth):
            alphas.append(alpha)
            return original(params, alpha, eta_max, growth)
        monkeypatch.setattr(ivp, "_divergence_side", spy)
        for shot in trial_order_shots(name):
            shoot_refine(*shot)
        digest = hashlib.sha256(b"".join(struct.pack("<d", a)
                                         for a in alphas)).hexdigest()
        assert (len(alphas), digest) == TRIAL_ORDER_RECORDS[name]

    @pytest.mark.parametrize("ratio", [0.25, 0.78, 1.0, 1.28, 4.0])
    def test_kinked_tail(self, ratio, monkeypatch):
        # u linear on each side of the root with slopes 1 below and
        # `ratio` above, the kink of the physical tail value (ratio ~1.28
        # at M = 1.73, m = 0, s = 1.07): bisection's float, in few
        # trajectories
        counts = []
        for root in SYNTHETIC_ROOTS:
            alpha, n, ref, n_ref = synthetic_shooting(
                monkeypatch, root, lambda d, side: d * (ratio if side > 0
                                                        else 1.0))
            assert alpha == ref
            counts.append(n)
        assert max(counts) <= KINKED_MAX

    @pytest.mark.parametrize("tail", list(ADVERSARIAL_TAILS))
    def test_adversarial_tail(self, tail, monkeypatch):
        # every tail value unusable: bisection's float, in no more
        # trajectories than bisection
        for root in SYNTHETIC_ROOTS:
            alpha, n, ref, n_ref = synthetic_shooting(
                monkeypatch, root, ADVERSARIAL_TAILS[tail])
            assert alpha == ref
            assert n <= n_ref

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
        # a nan growth rate makes every tail value nan: every test is
        # bisection's own midpoint
        monkeypatch.setattr(ivp, "_tail_growth", lambda params, beta: math.nan)
        alpha, n, ref, n_ref = guided_and_reference(params, bracket)
        assert alpha == ref
        assert n == n_ref

    def test_complex_decay_propagates(self):
        # no real N=1 decay rate: neither a horizon nor a guide
        with pytest.raises(ComplexDecay):
            shoot_refine(ModelParams(0, 2, 0.5), (-1.5, -1.0))

    @pytest.mark.parametrize("params,bracket", BRACKETS)
    def test_horizon_and_growth_from_n1_rate(self, params, bracket,
                                             monkeypatch):
        # every trial integrates to 3 auto_eta_max, guided by the tail
        # growth rate of the N=1 decay rate
        calls, original = [], ivp._divergence_side

        def spy(params, alpha, eta_max, growth):
            calls.append((eta_max, growth))
            return original(params, alpha, eta_max, growth)
        monkeypatch.setattr(ivp, "_divergence_side", spy)
        shoot_refine(params, bracket)
        expected = (3 * auto_eta_max(params),
                    ivp._tail_growth(params, solve_n1(params).beta))
        assert calls and all(call == expected for call in calls)

    @pytest.mark.parametrize("guided", [True, False])
    def test_bracket_of_adjacent_floats_ends(self, guided, monkeypatch):
        # past 2^26 the float spacing exceeds LEAF_WIDTH, so the bracket
        # stops shrinking at two adjacent floats; the search must end there
        step = 2.0 ** 30 + 0.3

        def side(params, alpha, eta_max, growth):
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
            side, u = ivp._divergence_side(PAPER, alpha, eta_max, growth)
            assert side == (1 if u > 0 else -1)
        # far past the event the tail value overflows to the side's infinity
        assert ivp._divergence_side(PAPER, 4.0, 1e3, growth) == (-1, -math.inf)
        assert ivp._divergence_side(PAPER, 4.4, 1e3, growth) == (1, math.inf)


# guesses about the shot value alpha, as offsets in units of max(1, |alpha|)
SEED_OFFSETS = (0.0, 1e-9, -1e-9, 5e-8, -5e-8, 1e-6, -1e-6, 1e-3, -1e-3)


def profile_bracket(point):
    """The shoot-profile benchmark's bracket at an (M, m, s) point."""
    params = ModelParams(*point)
    est = solve_general(params, 4).alpha_est
    w = 0.1 * max(1.0, abs(est))
    return params, (est - w, est + w)


def check_seeded(params, bracket):
    """shoot_refine with each guess of SEED_OFFSETS and one past the
    bracket gives plain bisection's float. A guess takes at most 2 more
    trajectories than none, none more within 1e-6 max(1, |alpha|) of the
    float, and at most 5 within 1e-9 of it; the guess past the bracket
    tests nothing extra."""
    ref = reference_bisection(params, bracket)
    with counting_trajectories() as n:
        assert shoot_refine(params, bracket) == ref
    unseeded = n[0]
    scale = max(1.0, abs(ref))
    for k in SEED_OFFSETS:
        with counting_trajectories() as n:
            assert shoot_refine(params, bracket, ref + k * scale) == ref
        assert n[0] <= unseeded + 2
        if abs(k) <= 1e-6:
            assert n[0] <= unseeded
        if abs(k) <= 1e-9:
            assert n[0] <= 5
    with counting_trajectories() as n:
        assert shoot_refine(params, bracket, max(bracket) + scale) == ref
    assert n[0] == unseeded


class TestSeededShooting:
    @pytest.mark.parametrize("params,bracket", BRACKETS)
    def test_brackets(self, params, bracket):
        check_seeded(params, bracket)

    @pytest.mark.parametrize("point", list(PROFILE_RECORDS))
    def test_profile_points(self, point):
        check_seeded(*profile_bracket(point))

    def test_paper_guess_is_the_first_aim(self):
        # the paper solve's bracket and guess, its Hankel alpha: the
        # per-side secant takes 8 trajectories unguessed, and with the
        # guess as its first aim 4, the two ends and two more
        alpha_star = 4.204113398591289
        w = 0.05 * alpha_star
        bracket = (alpha_star - w, alpha_star + w)
        with counting_trajectories() as n:
            shoot_refine(PAPER, bracket)
        with counting_trajectories() as n_seeded:
            shoot_refine(PAPER, bracket, alpha_star)
        assert (n[0], n_seeded[0]) == (8, 4)

    def test_guess_in_a_leaf_bracket_tests_only_the_ends(self):
        # a bracket no wider than LEAF_WIDTH has no tree node to aim at:
        # the guess inside it is never tested, so only the ends are
        alpha_star = 4.204113398591289
        bracket = (alpha_star - 4e-9, alpha_star + 4e-9)
        unguessed = shoot_refine(PAPER, bracket)
        with counting_trajectories() as n:
            assert shoot_refine(PAPER, bracket, alpha_star) == unguessed
        assert n[0] == 2

    @pytest.mark.parametrize("guess", [4.0, 4.4])
    def test_guess_at_a_bracket_end_tests_nothing_extra(self, guess):
        with counting_trajectories() as n:
            unguessed = shoot_refine(PAPER, (4.0, 4.4))
        with counting_trajectories() as n_guessed:
            assert shoot_refine(PAPER, (4.0, 4.4), guess) == unguessed
        assert n_guessed[0] == n[0]

    @pytest.mark.parametrize("guess", [math.nan, math.inf, -math.inf])
    def test_nonfinite_guess_rejected(self, guess):
        with counting_trajectories() as n:
            with pytest.raises(ValueError, match="guess must be finite"):
                shoot_refine(PAPER, (4.0, 4.4), guess)
        assert n[0] == 0

    def test_bad_bracket_tests_only_its_ends(self):
        with counting_trajectories() as n:
            with pytest.raises(BadBracket):
                shoot_refine(PAPER, (6.0, 8.0), 7.0)
        assert n[0] == 2


# _divergence_side's (side, u) at the horizon 3 * auto_eta_max, with the
# tail growth rate, frozen: alpha 4.0 stops at f' = -1.5, 4.2 runs to the
# horizon, 4.5 and the m = 1 case at 2.4 stop at f' = +0.5
DIVERGENCE_RECORDS = [
    (ModelParams(2, 2, 1.8), 4.0, (-1, -53.55473319262372)),
    (ModelParams(2, 2, 1.8), 4.2, (-1, -1.059542424355493)),
    (ModelParams(2, 2, 1.8), 4.5, (1, 62.862090169800375)),
    (ModelParams(2, 1, 1), 2.4, (1, 119262496.7925838)),
]

# derivative calls of ivp.rhs in _divergence_side at each of
# DIVERGENCE_RECORDS: the stage count, pinned without scipy
DIVERGENCE_STAGE_COUNTS = [1346, 2108, 1082, 674]


class TestStopRecords:
    """Where both of the adaptive stepper's stops land, without scipy."""

    @pytest.mark.parametrize("params,alpha,record", DIVERGENCE_RECORDS)
    def test_divergence_side(self, params, alpha, record):
        growth = ivp._tail_growth(params, solve_n1(params).beta)
        eta_max = 3 * auto_eta_max(params)
        assert ivp._divergence_side(params, alpha, eta_max, growth) == record

    @pytest.mark.parametrize("case,stages",
                             zip(DIVERGENCE_RECORDS, DIVERGENCE_STAGE_COUNTS))
    def test_divergence_stage_count(self, case, stages, monkeypatch):
        params, alpha, record = case
        calls, original = [0], ivp.rhs

        def counted(params):
            deriv = original(params)

            def g(eta, y):
                calls[0] += 1
                return deriv(eta, y)
            return g
        monkeypatch.setattr(ivp, "rhs", counted)
        growth = ivp._tail_growth(params, solve_n1(params).beta)
        eta_max = 3 * auto_eta_max(params)
        assert ivp._divergence_side(params, alpha, eta_max, growth) == record
        assert calls[0] == stages

    def test_blowup_eta(self, paper_params):
        with pytest.raises(Blowup) as exc:
            integrate(paper_params, -5.0, IntegratorConfig(eta_max=30.0))
        assert exc.value.eta == 2.0924392131824447
