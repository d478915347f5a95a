"""The in-repo Dormand-Prince stepper against scipy's RK45, whose steps it
reproduces. Skipped when scipy is not installed (it is a test extra only).

The two make the same step-size decisions, so their evaluation counts are
equal, but they do not agree in every last bit: numpy's dot products may
fuse multiply-adds, which plain float arithmetic cannot. On a trajectory
balanced on the unstable tail mode (the exact m=1 solution) that rounding
grows like exp(lambda eta), so that case is compared up to eta = 1 only.
"""

import math

import pytest

from mhdsheet import (Blowup, IntegratorConfig, ModelParams, StepUnderflow,
                      auto_eta_max, integrate, ivp)

from conftest import deadline

scipy_integrate = pytest.importorskip("scipy.integrate")

CFG = IntegratorConfig()
PAPER = ModelParams(2, 2, 1.8)
M1 = ModelParams(2, 1, 1)
M1_EXACT = (1 + math.sqrt(13)) / 2
# _divergence_side's terminal events for scipy: f' up through +0.5, down
# through -1.5; _dopri stops on their product, which rises through 0 at both
EVENTS = [(lambda y: y[1] - 0.5, 1), (lambda y: y[1] + 1.5, -1)]
STOP = lambda y: (y[1] - 0.5) * (y[1] + 1.5)

SHOOT = 3 * auto_eta_max(PAPER)  # shooting's span at the paper case

# (params, alpha, eta span, event expected to stop the trajectory)
CASES = [
    (PAPER, 4.2, SHOOT, None),
    (PAPER, 4.0, SHOOT, 1),
    (PAPER, 4.5, SHOOT, 0),
    (M1, M1_EXACT, 1.0, None),
    (M1, 2.4, 3 * auto_eta_max(M1), 0),
]

def counted(f):
    count = [0]

    def g(eta, y):
        count[0] += 1
        return f(eta, y)
    return g, count


def scipy_events(events):
    out = []
    for g, direction in events:
        def e(t, y, g=g):
            return g(y)
        e.terminal, e.direction = True, direction
        out.append(e)
    return out


def scipy_rk45(params, alpha, span, events=(), **kw):
    return scipy_integrate.solve_ivp(
        ivp.rhs(params), (0.0, span), [params.s, -1.0, alpha], method="RK45",
        rtol=ivp.REL_TOL, atol=ivp.ABS_TOL, events=scipy_events(events), **kw)


@pytest.mark.parametrize("params,alpha,span,event", CASES)
def test_same_steps_end_state_and_event(params, alpha, span, event):
    f, nfev = counted(ivp.rhs(params))
    t, y, hit = ivp._dopri(f, (params.s, -1.0, alpha), span, STOP)
    ref = scipy_rk45(params, alpha, span, EVENTS)
    assert nfev[0] == ref.nfev
    assert hit is (event is not None)
    if hit:   # f' stops at +0.5 (event 0) or at -1.5 (event 1)
        assert (y[1] > 0) is (event == 0)
    fired = [i for i, te in enumerate(ref.t_events) if te.size]
    assert fired == ([] if event is None else [event])
    if event is None:
        assert t == span
        end = ref.y[:, -1]
    else:
        assert t == pytest.approx(ref.t_events[event][0], abs=1e-10)
        end = ref.y_events[event][0]
    for a, b in zip(y, end):
        assert a == pytest.approx(b, rel=1e-12, abs=0)


def test_profile_rows_match_dense_output():
    prof = integrate(PAPER, 4.2, CFG)
    ref = scipy_rk45(PAPER, 4.2, auto_eta_max(PAPER), dense_output=True)
    for eta, *y in prof.rows:
        for a, b in zip(y, ref.sol(eta)):
            assert a == pytest.approx(b, rel=1e-12, abs=1e-15)


def test_start_above_blowup_level_is_no_blowup():
    # the blowup event fires on a sign change of |f''| - 1e12 across a
    # step, never on its sign at the start
    params, alpha = ModelParams(1e100, 2, 1.8), 1e100
    span = auto_eta_max(params)
    blowup = [(lambda y: abs(y[2]) - ivp.BLOWUP, 0)]
    f, nfev = counted(ivp.rhs(params))
    t, y, hit = ivp._dopri(f, (params.s, -1.0, alpha), span, blowup[0][0])
    ref = scipy_rk45(params, alpha, span, blowup)
    assert hit is False and t == span
    assert ref.status == 0 and ref.t_events[0].size == 0
    assert nfev[0] == ref.nfev
    # f' ends at -1 + (1 - e^-10): an increment of nearly 1 on -1, so only
    # its leading digits are significant
    for a, b in zip(y, ref.y[:, -1]):
        assert a == pytest.approx(b, rel=1e-6, abs=0)
    integrate(params, alpha, CFG)    # no Blowup


def test_blowup_at_the_same_eta():
    with pytest.raises(Blowup) as exc:
        integrate(PAPER, -5.0, IntegratorConfig(eta_max=30.0))
    ref = scipy_rk45(PAPER, -5.0, 30.0,
                     [(lambda y: abs(y[2]) - ivp.BLOWUP, 0)])
    assert ref.status == 1
    assert exc.value.eta == pytest.approx(ref.t_events[0][0], abs=1e-10)


@pytest.mark.parametrize("nan_from", [0.0, 0.5])
def test_nan_derivative_is_step_underflow(nan_from, monkeypatch):
    deriv = ivp.rhs(PAPER)

    def f(eta, y):
        d = deriv(eta, y)
        return d if eta < nan_from else (d[0], d[1], math.nan)
    monkeypatch.setattr(ivp, "rhs", lambda params: f)
    with deadline(5.0), pytest.raises(StepUnderflow):
        integrate(PAPER, 4.2, IntegratorConfig(eta_max=2.0))
    if nan_from > 0:
        # scipy gives up too; with a nan from the very first evaluation its
        # step size turns nan and it never returns
        ref = scipy_integrate.solve_ivp(
            f, (0.0, 2.0), [PAPER.s, -1.0, 4.2], method="RK45",
            rtol=ivp.REL_TOL, atol=ivp.ABS_TOL)
        assert ref.status == -1
