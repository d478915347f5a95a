import copy
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mhdsheet import ModelParams, taylor_table

def test_params_must_be_finite():
    with pytest.raises(ValueError):
        ModelParams(M=math.inf, m=0, s=0)
    with pytest.raises(ValueError):
        ModelParams(M=0, m=math.nan, s=0)


def test_exact_reads_decimals():
    assert ModelParams(1.8, 0, 0).exact[0] == Fraction(9, 5)
    assert ModelParams(2, 0, 0).exact[0] == Fraction(2)
    assert ModelParams(Fraction(1, 3), 0, 0).exact[0] == Fraction(1, 3)
    with pytest.raises(ValueError):
        ModelParams(math.inf, 0, 0).exact
    # numpy integers are rationals too; a fixed-width numerator would wrap
    # inside the table's big powers, so it must come back as a plain int
    assert ModelParams(np.int64(2), 0, 0).exact[0] == 2
    assert type(ModelParams(np.int64(2), 0, 0).exact[0].numerator) is int
    assert (taylor_table(ModelParams(np.int64(2), 2, 1.8), 10)
            == taylor_table(ModelParams(2, 2, 1.8), 10))


def test_copies_are_checked_and_pickles_keep_exact():
    p = ModelParams(Fraction(4, 3), 2, Fraction(9, 5))
    # pickle and copy rebuild from the exact rationals
    assert pickle.loads(pickle.dumps(p)) == copy.copy(p) == p
    # _replace checks the new value and reads the others from their floats
    assert p._replace(m=3).exact == (Fraction(repr(4 / 3)), 3, Fraction(9, 5))
    with pytest.raises(ValueError, match="finite"):
        p._replace(s=math.inf)


def test_params_are_read_once():
    p = ModelParams(Fraction(4, 3), 2, Fraction(9, 5))
    assert p.exact == (Fraction(4, 3), Fraction(2), Fraction(9, 5))
    # the fields are the nearest floats, which the float formulas read
    assert (p.M, p.m, p.s) == (4 / 3, 2.0, 1.8)
    assert all(type(x) is float for x in (p.M, p.m, p.s))
    # 4/3 and its float build different tables, so they are not equal
    assert p != ModelParams(4 / 3, 2, 1.8)
    assert p == ModelParams(Fraction(4, 3), 2.0, 1.8)
    assert hash(p) == hash(ModelParams(Fraction(4, 3), 2.0, 1.8))
    # an int past ~1.3e154 is a float like any other; its M^2 reads inf
    assert ModelParams(10 ** 200, 2, 1.8).M == 1e200
    assert ModelParams(10 ** 200, 2, 1.8).M2 == math.inf
    # past the float range: the nearest float is inf, or 0 for a value
    # that is not 0 (read exactly, 10^-400 gave a table that had not
    # finished after 100 s)
    for big in (-10 ** 400, Fraction(1, 10 ** 400)):
        with pytest.raises(ValueError, match="parameter s") as exc:
            ModelParams(2, 2, big)
        assert len(str(exc.value)) < 80
    with pytest.raises(ValueError, match="parameter m"):
        ModelParams(2, np.float64("nan"), 1.8)
    for bad in ("1.8", None, np.float32(1.8), 1.8j):
        with pytest.raises(TypeError):
            ModelParams(bad, 2, 1.8)


any_float = st.floats(allow_nan=False, allow_infinity=False)


@given(any_float, any_float, any_float)
def test_numpy_floats_read_as_floats(M, m, s):
    # repr(np.float64(2.0)) is 'np.float64(2.0)' under numpy 2; the
    # shortest-repr rule must read the float inside it
    p = ModelParams(M, m, s)
    q = ModelParams(np.float64(M), np.float64(m), np.float64(s))
    assert q.exact == p.exact
    assert q == p
    assert taylor_table(q, 5) == taylor_table(p, 5)


def test_M2_is_M_squared_or_inf():
    # read as M ** 2, which rounds differently from M * M
    for M in (2.0, -3.7, 0.1, 1e154):
        assert ModelParams(M, 1, 1).M2 == M ** 2
    for M in (1e155, -1e200, 1.7e308):
        assert ModelParams(M, 1, 1).M2 == math.inf
