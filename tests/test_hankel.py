import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mhdsheet import (HankelConfig, ModelParams, NoSignChange, alpha_sequence,
                      det_sign_at, find_root, hankel_entries, solve_n1,
                      taylor_table)
from mhdsheet import hankel
from mhdsheet.hankel import _bareiss_sign, _condensation_sign, _int_matrix
from mhdsheet.polyseries import AlphaPolynomial, TaylorTable


def synthetic_table(entries):
    consts = [AlphaPolynomial.make(c) if isinstance(c, (list, tuple))
              else AlphaPolynomial.constant(c) for c in entries]
    return TaylorTable(m2=Fraction(0), m=Fraction(0), s=Fraction(0),
                       entries=tuple(consts))


class TestEntries:
    def test_d1_D2_indices(self, paper_params):
        tab = taylor_table(paper_params, 8)
        m = hankel_entries(tab, d=1, D=2)
        assert m[0][0] is tab.entries[3]
        assert m[0][1] is tab.entries[4]
        assert m[1][0] is tab.entries[4]
        assert m[1][1] is tab.entries[5]

    def test_d2_D1(self, paper_params):
        tab = taylor_table(paper_params, 8)
        assert hankel_entries(tab, d=2, D=1) == [[tab.entries[4]]]

    def test_d1_D3_antidiagonals(self, paper_params):
        tab = taylor_table(paper_params, 8)
        m = hankel_entries(tab, d=1, D=3)
        for i in range(3):
            for j in range(3):
                assert m[i][j] is tab.entries[i + j + 3]
                assert m[i][j] is m[j][i]  # symmetric

    def test_default_offset_starts_at_f1(self, paper_params):
        # d=-1 is the Hankel-Pade H_D^0 = |f_{i+j-1}|
        tab = taylor_table(paper_params, 8)
        m = hankel_entries(tab, d=-1, D=2)
        assert m[0][0] is tab.entries[1]
        assert m[1][1] is tab.entries[3]

    def test_offset_bound(self):
        assert HankelConfig(seed=4.0, d=-1).d == -1
        with pytest.raises(ValueError, match=">= -1"):
            HankelConfig(seed=4.0, d=-2)

    def test_insufficient_order_rejected(self, paper_params):
        tab = taylor_table(paper_params, 6)
        with pytest.raises(ValueError):
            hankel_entries(tab, d=1, D=3)


def cofactor_det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    acc = Fraction(0)
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        acc += (-1) ** j * rows[0][j] * cofactor_det(minor)
    return acc


class TestDetSign:
    def test_1x1_is_entry_sign(self, paper_params):
        tab = taylor_table(paper_params, 4)
        # f_3 = -1/2 - (3/5) alpha: positive for alpha < -5/6
        assert det_sign_at(tab, d=1, D=1, alpha=Fraction(-2)) == 1
        assert det_sign_at(tab, d=1, D=1, alpha=Fraction(0)) == -1
        assert det_sign_at(tab, d=1, D=1, alpha=Fraction(-5, 6)) == 0

    def test_exact_root_of_expanded_2x2(self):
        # synthetic entries f_3 = alpha, f_4 = 1, f_5 = alpha:
        # det = alpha^2 - 1 with exact rational roots
        tab = synthetic_table([0, 0, 0, [0, 1], 1, [0, 1]])
        assert det_sign_at(tab, d=1, D=2, alpha=Fraction(1)) == 0
        assert det_sign_at(tab, d=1, D=2, alpha=Fraction(-1)) == 0
        assert det_sign_at(tab, d=1, D=2, alpha=Fraction(1, 2)) == -1
        assert det_sign_at(tab, d=1, D=2, alpha=Fraction(3)) == 1

    def test_equal_rows_give_zero(self):
        # f_3 = f_4 = f_5 makes both rows of the 2x2 equal
        tab = synthetic_table([0, 0, 0, [1, 2], [1, 2], [1, 2]])
        assert det_sign_at(tab, d=1, D=2, alpha=Fraction(7, 13)) == 0

    def test_bareiss_equals_cofactor_up_to_4x4(self, paper_params):
        tab = taylor_table(paper_params, 12)
        for D in (1, 2, 3, 4):
            for alpha in (Fraction(1, 3), Fraction(-7, 2), Fraction(4204113, 10 ** 6)):
                rows = [[p(alpha) for p in row]
                        for row in hankel_entries(tab, 1, D)]
                want = cofactor_det(rows)
                want_sign = 0 if want == 0 else (1 if want > 0 else -1)
                assert _bareiss_sign(_int_matrix(rows)) == want_sign

    def test_transpose_invariance(self, paper_params):
        tab = taylor_table(paper_params, 10)
        alpha = Fraction(9, 7)
        rows = [[p(alpha) for p in row] for row in hankel_entries(tab, 1, 3)]
        tr = [list(r) for r in zip(*rows)]
        assert _bareiss_sign(_int_matrix(rows)) == _bareiss_sign(_int_matrix(tr))


def _sign(x):
    return 0 if x == 0 else (1 if x > 0 else -1)


@st.composite
def hankel_sequences(draw):
    """2D-1 small integers with some entries forced to zero, so that
    vanishing inner minors (zero condensation divisors) are common."""
    D = draw(st.integers(1, 7))
    c = draw(st.lists(st.integers(-3, 3), min_size=2 * D - 1, max_size=2 * D - 1))
    for i in draw(st.lists(st.integers(0, 2 * D - 2), max_size=D)):
        c[i] = 0
    return c


class TestCondensation:
    @settings(max_examples=300, deadline=None)
    @given(hankel_sequences())
    def test_matches_bareiss(self, c):
        D = (len(c) + 1) // 2
        assert _condensation_sign(c) == _bareiss_sign([c[i:i + D] for i in range(D)])

    def test_zero_inner_minor_falls_back(self, monkeypatch):
        # c = 1, 1, 0, 1, 1: the 3x3 step divides by the inner minor c_2 = 0
        calls = []

        def spy(A):
            calls.append(A)
            return _bareiss_sign(A)

        monkeypatch.setattr(hankel, "_bareiss_sign", spy)
        tab = synthetic_table([0, 0, 0, 1, 1, 0, 1, 1])
        alpha = Fraction(5, 7)
        rows = [[p(alpha) for p in row] for row in hankel_entries(tab, 1, 3)]
        want = cofactor_det(rows)
        assert want == -2
        assert det_sign_at(tab, d=1, D=3, alpha=alpha) == _sign(want)
        assert len(calls) == 1

    def test_matches_bareiss_on_paper_table(self, paper_params):
        tab = taylor_table(paper_params, 25)
        for D in (5, 8, 12):
            for alpha in (Fraction(4204113, 2 ** 20), Fraction(-7, 3),
                          Fraction(4204113, 10 ** 6)):
                rows = [[p(alpha) for p in row]
                        for row in hankel_entries(tab, 1, D)]
                assert det_sign_at(tab, 1, D, alpha) == _bareiss_sign(_int_matrix(rows))


class TestFindRoot:
    def test_synthetic_rank_deficiency_root(self):
        # f_j(alpha) = 2^-j + (alpha - c) * j / 3^j: at alpha = c the
        # sequence is geometric, so every Hankel determinant vanishes
        c = Fraction(3)
        entries = [[Fraction(1, 2 ** j) - c * Fraction(j, 3 ** j),
                    Fraction(j, 3 ** j)] for j in range(10)]
        tab = synthetic_table(entries)
        cfg = HankelConfig(seed=2.8, bracket_halfwidth=0.5, tol=1e-10)
        for D in (2, 3):
            root = find_root(tab, cfg, D, guess=2.8)
            assert root == pytest.approx(3.0, abs=1e-9)

    def test_no_sign_change_far_from_root(self, paper_params):
        tab = taylor_table(paper_params, 16)
        cfg = HankelConfig(seed=50.0, bracket_halfwidth=0.25)
        with pytest.raises(NoSignChange):
            find_root(tab, cfg, D=2, guess=50.0)

    def test_wide_bracket_scans_about_scan_points(self, monkeypatch):
        # seed 20000, half-width 10000: the grid spacing grows to 2^7, so
        # the scan stays near scan_points instead of 2w+1 unit steps
        params = ModelParams(M=20000.0, m=2.0, s=1.8)
        cfg = HankelConfig(seed=20000.0)
        tab = taylor_table(params, 2 * 2 + cfg.d)
        points = []
        real = hankel.det_sign_at

        def counted(table, d, D, alpha):
            points.append(alpha)
            return real(table, d, D, alpha)

        monkeypatch.setattr(hankel, "det_sign_at", counted)
        try:
            find_root(tab, cfg, 2, cfg.seed)
        except NoSignChange:
            pass
        # spacing h in (q/2, q], q = 2w/(n-1), gives at most 2n grid points;
        # bisection from h down to tol adds log2(h/tol) + 1 more
        w, n = cfg.halfwidth, cfg.scan_points
        bisection = math.ceil(math.log2(2 * w / (n - 1) / cfg.tol)) + 1
        assert len(points) <= 2 * n + bisection
        assert all(isinstance(p, Fraction) for p in points)
        assert all(p.denominator & (p.denominator - 1) == 0 for p in points)


class TestAlphaSequence:
    def test_paper_case_moderate_depth(self, paper_params):
        # frozen regression of the bring-up run, whose matrix starts at
        # f_3 (d=1): by D <= 20 the sequence is within 3e-5 of the
        # converged value
        cfg = HankelConfig(seed=solve_n1(paper_params).beta, D_max=20, d=1)
        seq = alpha_sequence(paper_params, cfg)
        assert seq.alpha_star == pytest.approx(4.20411340, abs=3e-5)
        assert [D for D, _ in seq.roots][0] == 5
        assert set(seq.skipped) >= {2, 3, 4}

    def test_d2_agrees_with_d1(self, paper_params):
        cfg = HankelConfig(seed=solve_n1(paper_params).beta, D_max=22, d=2)
        seq = alpha_sequence(paper_params, cfg)
        assert seq.alpha_star == pytest.approx(4.20411340, abs=1e-4)

    def test_m1_case_agrees_with_exact_solution(self):
        # m=1 admits the exact solution f' = -exp(-beta eta) with
        # beta = (s + sqrt(s^2 + 4M^2 - 4))/2; here (1 + sqrt(13))/2
        params = ModelParams(2, 1, 1)
        exact = (1 + 13 ** 0.5) / 2
        cfg = HankelConfig(seed=solve_n1(params).beta, D_max=24)
        seq = alpha_sequence(params, cfg)
        assert seq.alpha_star == pytest.approx(exact, abs=1e-4)

    def test_no_root_anywhere_raises(self):
        # seeded far from any determinant root with a narrow window
        cfg = HankelConfig(seed=500.0, bracket_halfwidth=0.5, D_max=3)
        with pytest.raises(NoSignChange) as exc:
            alpha_sequence(ModelParams(2, 2, 1.8), cfg)
        assert exc.value.D is not None

    def test_paper_case_sequence_is_frozen(self, paper_params):
        # recorded with signs from Bareiss elimination alone; any exact
        # sign test makes the same bracket decisions, so every float is
        # reproduced bit for bit (recorded at d=1, first entry f_3)
        cfg = HankelConfig(seed=solve_n1(paper_params).beta, D_max=20, d=1)
        seq = alpha_sequence(paper_params, cfg)
        assert seq.roots == [
            (5, 3.976010801474331), (6, 4.2801082977384795),
            (7, 4.216553214617306), (8, 4.21745667301002),
            (10, 4.205091516923858), (11, 4.203279435372679),
            (12, 4.204630291758804), (13, 4.204245656757848),
            (14, 4.203734395530773), (16, 4.20408824403421),
            (17, 4.204013028851477), (18, 4.204112747946056),
            (19, 4.204117260786006), (20, 4.2041146066912916)]
        assert seq.skipped == [2, 3, 4, 9, 15]
        assert seq.alpha_star == 4.2041146066912916
