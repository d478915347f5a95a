import math

import pytest
from hypothesis import given, strategies as st

from mhdsheet import ModelParams, boundary_data, fppp_at_origin, ode_residual

finite = st.floats(min_value=-50, max_value=50, allow_nan=False)


def test_residual_zero_at_origin_for_any_alpha():
    p = ModelParams(M=2, m=2, s=1.8)
    for alpha in (0.0, 1.0, 4.20411340, -3.5):
        fppp = -3 - 3.6 * alpha
        assert ode_residual(p, 1.8, -1.0, alpha, fppp) == pytest.approx(0.0, abs=1e-12)


def test_residual_zero_state():
    p = ModelParams(M=3, m=-1, s=0.2)
    assert ode_residual(p, 0, 0, 0, 0) == 0


def test_residual_direct_arithmetic():
    p = ModelParams(M=2, m=0, s=1)
    assert ode_residual(p, 1, -1, 2, 1) == 4


def test_fppp_at_origin_values():
    assert fppp_at_origin(ModelParams(2, 2, 1.8), 4.20411340) == pytest.approx(
        -3 - 3.6 * 4.20411340)
    assert fppp_at_origin(ModelParams(0, 0, 0), 0) == 1
    assert fppp_at_origin(ModelParams(1, 1, 1), 2) == -2


@given(finite, finite, finite, finite, finite)
def test_residual_linear_in_fppp(f, fp, fpp, fppp, m):
    p = ModelParams(M=1.5, m=m, s=0.0)
    base = ode_residual(p, f, fp, fpp, 0.0)
    assert ode_residual(p, f, fp, fpp, fppp) - base == pytest.approx(fppp, rel=1e-9, abs=1e-9)


@given(st.floats(min_value=-10, max_value=10, allow_nan=False))
def test_fppp_at_origin_is_residual_root(alpha):
    p = ModelParams(M=2, m=2, s=1.8)
    fppp = fppp_at_origin(p, alpha)
    assert ode_residual(p, p.s, -1.0, alpha, fppp) == pytest.approx(0.0, abs=1e-9)


def test_boundary_data_derived_from_params():
    bd = boundary_data(ModelParams(M=2, m=2, s=1.8))
    assert bd.f0 == 1.8
    assert bd.fp0 == -1.0
    assert bd.fp_inf == 0.0


def test_params_must_be_finite():
    with pytest.raises(ValueError):
        ModelParams(M=math.inf, m=0, s=0)
    with pytest.raises(ValueError):
        ModelParams(M=0, m=math.nan, s=0)


def test_M2_is_M_squared_or_inf():
    # read as M ** 2, which rounds differently from M * M
    for M in (2.0, -3.7, 0.1, 1e154):
        assert ModelParams(M, 1, 1).M2 == M ** 2
    for M in (1e155, -1e200, 1.7e308):
        assert ModelParams(M, 1, 1).M2 == math.inf
