import functools
import hashlib
import itertools
import math
import struct
import warnings
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mhdsheet import (HankelConfig, ModelParams, NoSignChange, alpha_sequence,
                      det_sign_at, find_root, hankel_entries, shoot_refine,
                      solve_n1, taylor_table)
from mhdsheet import hankel
from mhdsheet._bisection import bisect_sign
from mhdsheet.hankel import (MultipleRootsWarning, _bareiss_sign,
                             _condensation_sign, _int_matrix)
from mhdsheet.polyseries import AlphaPolynomial, TaylorTable, _horner

from conftest import clear_by_lcm, deadline


def synthetic_table(entries, s=Fraction(0)):
    """A table of the given Taylor entries f_k, each a constant or a
    coefficient list; its q is the denominator of s."""
    return moment_table(
        [[Fraction(x) * math.factorial(k)
          for x in (c if isinstance(c, (list, tuple)) else [c])]
         for k, c in enumerate(entries)], s)


def moment_table(moments, s=Fraction(0)):
    """A synthetic table whose derivatives F_k = k! f_k, the entries of
    the Hankel matrix, are the given constants or coefficient lists."""
    return TaylorTable(m2=Fraction(0), m=Fraction(0), s=s, moments=tuple(
        clear_by_lcm(c if isinstance(c, (list, tuple)) else [c])
        for c in moments))


def derivative(tab, k):
    """F_k = k! f_k as a polynomial in alpha, from the Taylor entry."""
    return AlphaPolynomial(tuple(math.factorial(k) * c
                                 for c in tab.entries[k].coeffs))


class TestEntries:
    def test_d1_D2_indices(self, paper_params):
        tab = taylor_table(paper_params, 8)
        m = hankel_entries(tab, d=1, D=2)
        assert m[0][0] == derivative(tab, 3)
        assert m[0][1] == derivative(tab, 4)
        assert m[1][0] is m[0][1]
        assert m[1][1] == derivative(tab, 5)

    def test_d2_D1(self, paper_params):
        tab = taylor_table(paper_params, 8)
        assert hankel_entries(tab, d=2, D=1) == [[derivative(tab, 4)]]

    def test_d1_D3_antidiagonals(self, paper_params):
        tab = taylor_table(paper_params, 8)
        m = hankel_entries(tab, d=1, D=3)
        for i in range(3):
            for j in range(3):
                assert m[i][j] == derivative(tab, i + j + 3)
                assert m[i][j] is m[j][i]  # symmetric

    def test_default_offset_starts_at_f1(self, paper_params):
        # d=-1 is the Hankel-Pade H_D^0 = |F_{i+j-1}|, whose first
        # entries are F_1 = f'(0) = -1 and F_2 = f''(0) = alpha
        tab = taylor_table(paper_params, 8)
        m = hankel_entries(tab, d=-1, D=2)
        assert m[0][0] == derivative(tab, 1) == AlphaPolynomial((Fraction(-1),))
        assert m[0][1] == AlphaPolynomial((Fraction(0), Fraction(1)))
        assert m[1][1] == derivative(tab, 3)

    def test_offset_bound(self):
        assert HankelConfig(d=-1).d == -1
        with pytest.raises(ValueError, match=">= -1"):
            HankelConfig(d=-2)

    def test_offset_at_most_D_max(self):
        # the first table has order 4 + d: at d = 100000 it was still
        # being built after 30 s
        assert HankelConfig(d=30, D_max=30).d == 30
        with pytest.raises(ValueError, match="<= D_max"):
            HankelConfig(d=100000, D_max=3)

    def test_replace_checks_like_the_constructor(self):
        with pytest.raises(ValueError, match=">= -1"):
            HankelConfig()._replace(d=-2)
        with pytest.raises(ValueError, match="<= D_max"):
            HankelConfig(d=3)._replace(D_max=2)
        assert HankelConfig()._replace(tol=1e-6) == HankelConfig(tol=1e-6)

    def test_sequences_share_no_default_list(self):
        a, b = hankel.RootSequence(), hankel.RootSequence()
        assert a.roots == b.roots == a.skipped == []
        assert a.roots is not b.roots and a.skipped is not b.skipped
        assert a.roots is not a.skipped

    @pytest.mark.parametrize("field, value", [
        ("seed", math.nan), ("seed", math.inf), ("seed", -math.inf),
        ("bracket_halfwidth", math.nan), ("bracket_halfwidth", math.inf),
        ("bracket_halfwidth", -1.0)])
    def test_degenerate_seed_and_halfwidth_rejected(self, paper_params,
                                                    field, value):
        # the seed is checked by alpha_sequence, the bracket half-width w
        # by find_root, each before any sign is taken
        if field == "seed":
            with pytest.raises(ValueError, match="seed"):
                alpha_sequence(paper_params, HankelConfig(D_max=2), value)
        else:
            tab = taylor_table(paper_params, 8)
            with pytest.raises(ValueError, match="half-width"):
                find_root(tab, HankelConfig(), 2, 4.0, value, 129)

    def test_too_few_scan_points_rejected(self, paper_params):
        tab = taylor_table(paper_params, 8)
        with pytest.raises(ValueError, match="scan count"):
            find_root(tab, HankelConfig(), 2, 4.0, 1.0, 2)

    def test_zero_halfwidth_is_no_sign_change(self, paper_params):
        tab = taylor_table(paper_params, 8)
        with pytest.raises(NoSignChange, match="empty bracket"):
            find_root(tab, HankelConfig(), 2, 0.0, 0.0, 129)
        with pytest.raises(NoSignChange) as exc:
            alpha_sequence(paper_params, HankelConfig(D_max=4), 0.0)
        assert exc.value.D == 4

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
        # F_3 = 6 f_3 = -3 - (18/5) alpha: positive for alpha < -5/6
        assert det_sign_at(tab, d=1, D=1, alpha=Fraction(-2)) == 1
        assert det_sign_at(tab, d=1, D=1, alpha=Fraction(0)) == -1
        assert det_sign_at(tab, d=1, D=1, alpha=Fraction(-5, 6)) == 0

    def test_exact_root_of_expanded_2x2(self):
        # synthetic entries F_3 = alpha, F_4 = 1, F_5 = alpha:
        # det = alpha^2 - 1 with exact rational roots
        tab = moment_table([0, 0, 0, [0, 1], 1, [0, 1]])
        assert det_sign_at(tab, d=1, D=2, alpha=Fraction(1)) == 0
        assert det_sign_at(tab, d=1, D=2, alpha=Fraction(-1)) == 0
        assert det_sign_at(tab, d=1, D=2, alpha=Fraction(1, 2)) == -1
        assert det_sign_at(tab, d=1, D=2, alpha=Fraction(3)) == 1
        # the same values given as Taylor coefficients f_3 = alpha,
        # f_4 = 1, f_5 = alpha are signed as the derivatives 6 alpha, 24,
        # 120 alpha: det = 720 alpha^2 - 576, zero at alpha^2 = 4/5
        tab = synthetic_table([0, 0, 0, [0, 1], 1, [0, 1]])
        assert det_sign_at(tab, 1, 2, Fraction(1)) == 1
        assert det_sign_at(tab, 1, 2, Fraction(8, 9)) == -1

    def test_equal_rows_give_zero(self):
        # F_3 = F_4 = F_5 makes both rows of the 2x2 equal
        tab = moment_table([0, 0, 0, [1, 2], [1, 2], [1, 2]])
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


def test_sign_path_builds_no_rational_entries(paper_params):
    # the exact sign test reads the integer form only
    tab = taylor_table(paper_params, 19)
    det_sign_at(tab, -1, 10, Fraction(42, 10))
    # at D = 10 the roots near alpha are a pair about 5e-8 apart, which
    # a 17-point grid brackets only over a window this narrow
    find_root(tab, HankelConfig(), 10, 4.2041134, 1e-7, 17)
    assert "entries" not in vars(tab)


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
        tab = moment_table([0, 0, 0, 1, 1, 0, 1, 1])
        alpha = Fraction(5, 7)
        rows = [[p(alpha) for p in row] for row in hankel_entries(tab, 1, 3)]
        want = cofactor_det(rows)
        assert want == -2
        assert det_sign_at(tab, d=1, D=3, alpha=alpha) == _sign(want)
        assert len(calls) == 1

    def test_matches_bareiss_on_paper_table(self, paper_params):
        # the paper table, and one with q = 10^4 (odd-prime lines at 5)
        alphas = (Fraction(4204113, 2 ** 20), Fraction(70533023, 2 ** 24),
                  Fraction(-70533023, 2 ** 24), Fraction(-7, 3),
                  Fraction(4204113, 10 ** 6))
        for params in (paper_params, ModelParams(M=1.31, m=0.0, s=1.29)):
            tab = taylor_table(params, 25)
            for d, D, alpha in itertools.product((-1, 0, 1), (5, 8, 12), alphas):
                rows = [[p(alpha) for p in row]
                        for row in hankel_entries(tab, d, D)]
                assert det_sign_at(tab, d, D, alpha) == _bareiss_sign(_int_matrix(rows))


def entry_values(tab, d, D, alpha):
    """F_{d+2}(alpha) .. F_{2D+d}(alpha), each k! f_k from the Taylor
    entries."""
    return [math.factorial(k) * tab.entries[k](alpha)
            for k in range(d + 2, 2 * D + d + 1)]


def _assert_positive_geometric_scaling(c, f):
    """c_t = K r^t f_t for some rationals K, r > 0, checked on the
    nonzero f_t (three of them t < u < w must satisfy
    rho_u^(w-t) = rho_t^(w-u) rho_w^(u-t) with rho = c / f)."""
    assert [x == 0 for x in c] == [x == 0 for x in f]
    rho = [(t, Fraction(int(x)) / y) for t, (x, y) in enumerate(zip(c, f)) if y]
    assert all(r > 0 for _, r in rho)
    for (t, a), (u, b), (w, e) in zip(rho, rho[1:], rho[2:]):
        assert b ** (w - t) == a ** (w - u) * e ** (u - t)


@st.composite
def scaled_tables(draw):
    """Synthetic tables whose entry denominators carry powers of 2, 3, 5
    and 7 that grow with the index, with some entries forced to zero, and
    a dyadic, non-dyadic or negative alpha. The table's q is the growth
    ratio, so its odd primes get rescaling lines."""
    d = draw(st.integers(-1, 1))
    D = draw(st.integers(1, 6))
    ratio = draw(st.sampled_from([1, 2, 3, 10, 12, 35]))
    entries = []
    for k in range(2 * D + d + 1):
        coeffs = draw(st.lists(st.integers(-20, 20), min_size=1, max_size=4))
        dens = draw(st.lists(st.sampled_from([1, 2, 3, 5, 7, 9, 25]),
                             min_size=len(coeffs), max_size=len(coeffs)))
        entries.append([Fraction(x, den * ratio ** k) for x, den in zip(coeffs, dens)])
    for k in draw(st.lists(st.integers(d + 2, 2 * D + d), max_size=D)):
        entries[k] = [0]
    alpha = draw(st.one_of(
        st.builds(Fraction, st.integers(-2 ** 26, 2 ** 26), st.just(2 ** 24)),
        st.builds(Fraction, st.integers(-50, 50), st.sampled_from([3, 7, 10 ** 6])),
    ))
    return synthetic_table(entries, s=Fraction(1, ratio)), d, D, alpha


class TestRescaledSequence:
    @settings(max_examples=200, deadline=None)
    @given(scaled_tables())
    def test_sign_kept_and_scaling_exact(self, case):
        tab, d, D, alpha = case
        rows = [[p(alpha) for p in row] for row in hankel_entries(tab, d, D)]
        assert det_sign_at(tab, d, D, alpha) == _bareiss_sign(_int_matrix(rows))
        c = hankel._hankel_sequence(tab, d, D, alpha)
        assert all(int(x) == x for x in c)
        _assert_positive_geometric_scaling(c, entry_values(tab, d, D, alpha))

    def test_paper_table_scaling_exact(self, paper_params):
        tab = taylor_table(paper_params, 40)
        for alpha in (Fraction(70533023, 2 ** 24), Fraction(4204113, 10 ** 6)):
            c = hankel._hankel_sequence(tab, -1, 20, alpha)
            _assert_positive_geometric_scaling(c, entry_values(tab, -1, 20, alpha))

    # q's odd primes on both sides of 2D+d <= 25: the paper case (q = 5),
    # s = 4/3, m = 2/37 (q = 185) and s = 1/101
    @pytest.mark.parametrize("params, primes", [
        (ModelParams(M=2.0, m=2.0, s=1.8), (5,)),
        (ModelParams(M=2, m=2, s=Fraction(4, 3)), (3,)),
        (ModelParams(M=2, m=Fraction(2, 37), s=1.8), (5, 37)),
        (ModelParams(M=2, m=2, s=Fraction(1, 101)), (101,))],
        ids=["paper", "s=4/3", "m=2/37", "s=1/101"])
    def test_no_line_of_q_is_left(self, params, primes):
        # after rescaling, no integer line under v_p of the nonzero c'_t
        # removes a factor of an odd prime p of q. The alphas' numerators
        # are prime to every p: one that p divides puts p into
        # f_2 = alpha/2, a factor of that alpha, not of the denominators
        tab = taylor_table(params, 25)
        assert tab.q == math.prod(primes)
        alphas = (Fraction(4204117, 2 ** 20), Fraction(-7, 4),
                  Fraction(70533023, 2 ** 24))
        for d, D, alpha in itertools.product((-1, 0, 1), range(2, 13), alphas):
            c = hankel._hankel_sequence(tab, d, D, alpha)
            ts = [t for t, x in enumerate(c) if x]
            for p in primes:
                A, s = hankel._best_line(
                    ts, [hankel._valuation(c[t], p) for t in ts])
                assert len(ts) * A + s * sum(ts) <= 0, (d, D, alpha, p)
            f = entry_values(tab, d, D, alpha)
            _assert_positive_geometric_scaling(c, f)
            rows = [f[i:i + D] for i in range(D)]
            assert det_sign_at(tab, d, D, alpha) == _bareiss_sign(_int_matrix(rows))

    def test_condensed_integers_are_frozen(self):
        # the integers condensation sees, not only their signs: SHA-256 of
        # the repr of the list of `_hankel_sequence` outputs over four
        # tables, d = -1, 0, 1, D = 2 .. 12 and three alphas, so any later
        # growth in them shows
        seqs = []
        for params in (ModelParams(M=2.0, m=2.0, s=1.8),
                       ModelParams(M=2, m=2, s=Fraction(1, 101)),
                       ModelParams(M=2, m=Fraction(2, 37), s=1.8),
                       ModelParams(M=1.51, m=1, s=1.69)):
            tab = taylor_table(params, 25)
            for d, D, alpha in itertools.product(
                    (-1, 0, 1), range(2, 13),
                    (Fraction(70533023, 2 ** 24), Fraction(-7, 4),
                     Fraction(4204113, 10 ** 6))):
                seqs.append(hankel._hankel_sequence(tab, d, D, alpha))
        assert hashlib.sha256(repr(seqs).encode()).hexdigest() == (
            "455b36e2cfbe371109163451a9bdbe9098f1ddab4b1d36cd55954b147766a24c")

    @pytest.mark.parametrize("q", [2 ** 61 - 1, 10 ** 18 + 9,
                                   (2 ** 31 - 1) * (2 ** 61 - 1)],
                             ids=["2^61-1", "10^18+9", "(2^31-1)(2^61-1)"])
    def test_huge_prime_denominators(self, q):
        # q's primes lie far above the trial divisions' 2^16: the cofactor
        # is one base, found at once
        tab = taylor_table(ModelParams(M=2, m=2, s=Fraction(1, q)), 13)
        with deadline(5):
            for D in range(2, 8):
                for alpha in (Fraction(4204113, 2 ** 20), Fraction(-7, 3)):
                    rows = [[p(alpha) for p in row]
                            for row in hankel_entries(tab, -1, D)]
                    assert (det_sign_at(tab, -1, D, alpha)
                            == _bareiss_sign(_int_matrix(rows)))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 12), min_size=1, max_size=9).flatmap(
        lambda vs: st.tuples(
            st.lists(st.integers(0, 20), min_size=len(vs), max_size=len(vs),
                     unique=True).map(sorted),
            st.just(vs))))
    def test_best_line_is_optimal(self, points):
        ts, vs = points
        A, s = hankel._best_line(ts, vs)
        assert all(A + s * t <= v for t, v in zip(ts, vs))
        # no integer line under the points removes more: slopes beyond
        # the largest |v| step are no better than the hull's
        best = max(len(ts) * min(v - k * t for t, v in zip(ts, vs)) + k * sum(ts)
                   for k in range(-13, 14))
        assert len(ts) * A + s * sum(ts) == best


def record_sign_points(monkeypatch):
    """A list to which each alpha that `hankel.det_sign_at` is asked about
    is appended, in order."""
    points = []
    real = hankel.det_sign_at

    def recorded(table, d, D, alpha):
        points.append(alpha)
        return real(table, d, D, alpha)

    monkeypatch.setattr(hankel, "det_sign_at", recorded)
    return points


def record_windows(monkeypatch, miss_at=()):
    """A list to which the (D, w, n) of each `hankel.find_root` call is
    appended, in order; a call at a D in `miss_at` raises NoSignChange
    instead of searching."""
    calls = []
    real = hankel.find_root

    def recorded(table, cfg, D, guess, w, n):
        calls.append((D, w, n))
        if D in miss_at:
            raise NoSignChange("forced miss", D=D)
        return real(table, cfg, D, guess, w, n)

    monkeypatch.setattr(hankel, "find_root", recorded)
    return calls


# the (D, half-width, scan points) of every find_root call in the paper
# sequence at D_max 30, all at 17 points: |seed|/2 until the second root,
# then 32 times the last step, in [1e-4, |seed|/2]
PAPER_WINDOWS = [
    (2, 2.04455231422596, 17), (3, 2.04455231422596, 17),
    (4, 2.04455231422596, 17), (5, 0.06430217623710632, 17),
    (6, 0.0014300327748060226, 17), (7, 0.0001, 17), (8, 0.0001, 17)]

# the paper sequence's roots at d = -1 (the default offset), D_max 30
PAPER_ROOTS = [
    (2, 4.297999199334299), (3, 4.206168529664865),
    (4, 4.204159086657455), (5, 4.2041143981332425),
    (6, 4.204113420128124), (7, 4.204113399056951),
    (8, 4.204113398591289)]


def taylor_matrix_sign(tab, d, D, alpha):
    """Exact sign of the paper's Hankel determinant |f_{i+j+d}|,
    i,j = 1..D, on the Taylor coefficients, by Bareiss elimination."""
    rows = [[tab.entries[i + j + d](alpha) for j in range(1, D + 1)]
            for i in range(1, D + 1)]
    return _bareiss_sign(_int_matrix(rows))


class TestExactOracle:
    # at M = 1, m = 1 the exact solution is f' = -exp(-s eta), so
    # alpha = s and the derivatives F_k = -(-s)^(k-1), k >= 1, are
    # geometric: at alpha = s every Hankel matrix of size >= 2 has rank 1,
    # while the Taylor coefficients f_k = F_k / k! of the paper's matrix
    # are not geometric and their determinants are not 0
    @settings(max_examples=60, deadline=None)
    @given(s=st.builds(Fraction, st.integers(1, 12), st.integers(1, 12)),
           d=st.integers(-1, 1), D=st.integers(2, 8))
    @example(s=Fraction(3, 2), d=-1, D=8)
    @example(s=Fraction(9, 5), d=0, D=8)
    @example(s=Fraction(1, 101), d=1, D=8)
    @example(s=Fraction(7, 3), d=-1, D=8)
    def test_derivative_determinants_vanish_at_the_exact_alpha(self, s, d, D):
        tab = taylor_table(ModelParams(M=1, m=1, s=s), 2 * D + d)
        assert det_sign_at(tab, d, D, s) == 0
        assert taylor_matrix_sign(tab, d, D, s) != 0


class TestFindRoot:
    def test_synthetic_rank_deficiency_root(self):
        # F_j(alpha) = 2^-j + (alpha - c) * j / 3^j: at alpha = c the
        # sequence is geometric, so every Hankel determinant vanishes
        c = Fraction(3)
        moments = [[Fraction(1, 2 ** j) - c * Fraction(j, 3 ** j),
                    Fraction(j, 3 ** j)] for j in range(10)]
        tab = moment_table(moments)
        cfg = HankelConfig(tol=1e-10)
        for D in (2, 3):
            root = find_root(tab, cfg, D, 2.8, 0.5, 129)
            assert root == pytest.approx(3.0, abs=1e-9)

    def test_no_sign_change_far_from_root(self, paper_params):
        tab = taylor_table(paper_params, 16)
        with pytest.raises(NoSignChange):
            find_root(tab, HankelConfig(), 2, 50.0, 0.25, 129)

    def test_wide_bracket_scans_about_scan_points(self, monkeypatch):
        # seed 20000, half-width 10000: the grid spacing grows to 2^7, so
        # the scan stays near n points instead of 2w+1 unit steps
        params = ModelParams(M=20000.0, m=2.0, s=1.8)
        cfg = HankelConfig()
        w, n = 10000.0, 129
        tab = taylor_table(params, 2 * 2 + cfg.d)
        points = []
        real = hankel.det_sign_at

        def counted(table, d, D, alpha):
            points.append(alpha)
            return real(table, d, D, alpha)

        monkeypatch.setattr(hankel, "det_sign_at", counted)
        try:
            find_root(tab, cfg, 2, 20000.0, w, n)
        except NoSignChange:
            pass
        # spacing h in (q/2, q], q = 2w/(n-1), gives at most 2n grid points;
        # bisection from h down to tol adds log2(h/tol) + 1 more
        bisection = math.ceil(math.log2(2 * w / (n - 1) / cfg.tol)) + 1
        assert len(points) <= 2 * n + bisection
        # every signed point is a float, exactly a dyadic rational
        assert all(isinstance(p, float) for p in points)
        assert all(Fraction(p).denominator & (Fraction(p).denominator - 1) == 0
                   for p in points)


    def test_bisection_stops_at_float_resolution(self, monkeypatch):
        # f_3 = alpha - c with c = 2^40 + 1/3: tol 1e-10 lies below the
        # float spacing 2^-12 there, so the bisection ends once its
        # midpoint can move by at most one spacing, not at tol
        c = Fraction(2 ** 40) + Fraction(1, 3)
        tab = synthetic_table([0, 0, 0, [-c, 1]])
        points = record_sign_points(monkeypatch)
        with deadline(5):
            root = find_root(tab, HankelConfig(d=1), 1, 2.0 ** 40, 2.0 ** 39, 129)
        # scan spacing h = 2^33; the scan's points are its multiples
        h = Fraction(2) ** 33
        bisection = [p for p in points if p % h]
        assert len(bisection) <= math.log2(h / math.ulp(float(c))) + 2
        # bisecting down to tol 1e-10 takes 67 steps; float(c) is the
        # nearest float to the root
        assert abs(root - float(c)) <= math.ulp(float(c))

    def test_signs_no_point_twice(self, paper_params, monkeypatch):
        # the scan's sign at the bracket's left end carries into the
        # bisection instead of being evaluated again
        tab = taylor_table(paper_params, 2 * 6 - 1)
        points = []
        real = hankel.det_sign_at

        def counted(table, d, D, alpha):
            points.append(alpha)
            return real(table, d, D, alpha)

        monkeypatch.setattr(hankel, "det_sign_at", counted)
        root = find_root(tab, HankelConfig(), 6, 4.2, 0.02, 17)
        assert root == pytest.approx(4.2041134201, abs=1e-9)
        assert len(points) == len(set(points))

    def test_frozen_sign_points(self, paper_params, monkeypatch):
        # the setup above; every alpha signed: the grid point i / 512
        # nearest 4.2, then the points of the candidates nearer 4.2 than
        # the first bracket, [2152/512, 2153/512], then the bisection of
        # that cell down to tol
        tab = taylor_table(paper_params, 2 * 6 - 1)
        points = record_sign_points(monkeypatch)
        find_root(tab, HankelConfig(), 6, 4.2, 0.02, 17)
        assert points == (
            [Fraction(i, 512) for i in (2150, 2151, 2149, 2152, 2148, 2153)]
            + [Fraction(k, 2 ** e) for e, k in enumerate([
                4305, 8611, 17221, 34441, 68881, 137761, 275521, 551041,
                1102083, 2204167, 4408333, 8816665, 17633329, 35266659,
                70533319, 141066637, 282133275, 564266551, 1128533103,
                2257066207, 4514132413, 9028264825, 18056529649,
                36113059297, 72226118593], start=10)])


def full_scan_find_root(table, cfg, D, guess, w, n):
    """`find_root` as it was when its scan signed every grid point (w > 0,
    n >= 3): the reference for the nearest-first walk."""
    g = -math.floor(math.log2(2 * w / (n - 1)))
    lo_i = math.floor((guess - w) * 2 ** g)
    hi_i = math.ceil((guess + w) * 2 ** g)
    step = Fraction(2) ** -g
    pts = [i * step for i in range(lo_i, hi_i + 1)]
    n = len(pts)
    signs = [hankel.det_sign_at(table, cfg.d, D, p) for p in pts]
    brackets = []
    for i in range(n - 1):
        if signs[i] == 0:
            brackets.append((pts[i], pts[i], 0))
        elif signs[i] * signs[i + 1] < 0:
            brackets.append((pts[i], pts[i + 1], signs[i]))
    if signs[-1] == 0:
        brackets.append((pts[-1], pts[-1], 0))
    if not brackets:
        raise NoSignChange("no sign change", D=D)
    if len(brackets) > 1:
        warnings.warn(f"{len(brackets)} sign changes", MultipleRootsWarning)
        brackets.sort(key=lambda br: abs(float(br[0] + br[1]) / 2 - guess))
    lo, hi, slo = brackets[0]
    lo, hi = bisect_sign(lambda x: hankel.det_sign_at(table, cfg.d, D, x),
                         lo, hi, slo, cfg.tol)
    return float((lo + hi) / 2)


def traced(search, *args):
    """(root or NoSignChange, alphas signed in order, whether a
    MultipleRootsWarning was raised) of one root search."""
    points = []
    real = hankel.det_sign_at

    def recorded(table, d, D, alpha):
        points.append(alpha)
        return real(table, d, D, alpha)

    hankel.det_sign_at = recorded
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                out = search(*args)
            except NoSignChange:
                out = NoSignChange
    finally:
        hankel.det_sign_at = real
    return out, points, any(issubclass(c.category, MultipleRootsWarning)
                            for c in caught)


def assert_same_as_full_scan(table, cfg, D, guess, w, n):
    got, points, warned = traced(find_root, table, cfg, D, guess, w, n)
    want, ref_points, ref_warned = traced(full_scan_find_root,
                                          table, cfg, D, guess, w, n)
    assert got == want  # the same float, or NoSignChange on both
    assert len(points) == len(set(points))
    assert set(points) <= set(ref_points)
    if want is NoSignChange:
        assert sorted(points) == ref_points  # the whole grid
    assert ref_warned or not warned


@functools.lru_cache(maxsize=None)
def paper_table_to_D8():
    return taylor_table(ModelParams(M=2.0, m=2.0, s=1.8), 2 * 8 - 1)


def product_table(roots):
    """A synthetic table with f_3 = prod (alpha - r), so at d = 1, D = 1
    the determinant is that product and vanishes exactly at each r."""
    coeffs = [Fraction(1)]
    for r in roots:
        coeffs = [a - r * b for a, b in zip([Fraction(0)] + coeffs, coeffs + [0])]
    return synthetic_table([0, 0, 0, coeffs])


class TestScanStopsEarly:
    # find_root walks the candidate brackets nearest the guess first and
    # takes the first that is a bracket, signing only the points it walks
    # past; it must pick the bracket, and so return the float, of the scan
    # that signs every point

    @settings(max_examples=100, deadline=None)
    @given(D=st.integers(4, 8), guess=st.floats(3.0, 5.5),
           w=st.floats(1e-3, 1.0), n=st.sampled_from([3, 17, 33]))
    def test_paper_table(self, D, guess, w, n):
        assert_same_as_full_scan(paper_table_to_D8(), HankelConfig(), D,
                                 guess, w, n)

    # with w = 1 and n = 17 the grid is i / 8 over about guess +- 1; the
    # guess and the roots are multiples of 1/32, so roots fall on grid
    # points (zero signs), at cell midpoints or between, often at equal
    # distances from the guess (the leftmost bracket must win)
    @settings(max_examples=200, deadline=None)
    @given(k=st.integers(-80, 80),
           offsets=st.lists(st.integers(-40, 40), max_size=6))
    @example(k=2, offsets=[-2, 2])  # zeros either side of a midpoint guess
    @example(k=4, offsets=[-2, 2])  # cells either side of a grid point
    @example(k=2, offsets=[-2, -2, 2, 2])  # double zeros: no sign change
    # a cell on the left as near as a zero on the right
    @example(k=-1, offsets=[-5, 5])
    # a zero on the right, signed before an equally near cell on the left
    @example(k=1, offsets=[-3, 3])
    @example(k=0, offsets=[])  # no root: the whole grid is signed
    def test_forced_zeros_and_ties(self, k, offsets):
        guess = Fraction(k, 32)
        tab = product_table([guess + Fraction(o, 32) for o in offsets])
        assert_same_as_full_scan(tab, HankelConfig(d=1), 1, float(guess), 1.0, 17)

    def test_tie_goes_to_the_left_bracket(self):
        # zeros at 1/16 +- 1/16, both 1/16 from the guess
        tab = product_table([Fraction(0), Fraction(1, 8)])
        with pytest.warns(MultipleRootsWarning, match="2 sign changes"):
            assert find_root(tab, HankelConfig(d=1), 1, 1 / 16, 1.0, 17) == 0.0


class TestFloatGrid:
    # find_root scans and bisects floats; det_sign_at reads each one exactly

    def test_sub_resolution_window(self, monkeypatch):
        # w = 1e-15 about x: the grid 2^-53 is finer than ulp(x) = 2^-50, so
        # the spacing is floored at ulp(x); a root at x + 2/3 ulp lies in the
        # cell [x, x + ulp], which no float splits
        x = 4.204113398591289
        u = math.ulp(x)
        tab = product_table([Fraction(x) + Fraction(2, 3) * Fraction(u)])
        points = record_sign_points(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error", MultipleRootsWarning)
            root = find_root(tab, HankelConfig(d=1), 1, x, 1e-15, 17)
        assert root in (x, x + u)
        # the cells either side of x, on a grid of ulps
        assert sorted(points) == [x - u, x, x + u]

    # every window of alpha_sequence: the floor at the window's float
    # spacing leaves the grid as the spacing 2^-g of the scan count gives it
    @settings(max_examples=150, deadline=None)
    @given(guess=st.floats(1e-3, 1e100), frac=st.floats(0.0, 1.0),
           negative=st.booleans())
    @example(guess=4.204113398591289, frac=0.0, negative=False)
    @example(guess=1e100, frac=0.0, negative=False)
    @example(guess=1e-3, frac=1.0, negative=True)
    def test_floor_leaves_alpha_sequence_windows(self, guess, frac, negative):
        # w from 16 ulps (alpha_sequence's least window) up to |guess|/2
        # (its widest), log-uniformly
        lo_w, hi_w = 16 * math.ulp(guess), guess / 2
        w = min(hi_w, lo_w * (hi_w / lo_w) ** frac)
        guess = -guess if negative else guess
        # f_3 = 1 has no root, so the whole grid is signed
        out, points, _ = traced(find_root, product_table([]), HankelConfig(d=1),
                                1, guess, w, 17)
        assert out is NoSignChange
        step = Fraction(2) ** math.floor(math.log2(2 * w / 16))
        grid = sorted(Fraction(p) for p in points)
        assert all(b - a == step for a, b in zip(grid, grid[1:]))
        assert grid[0] <= Fraction(guess - w) < grid[0] + step
        assert grid[-1] - step < Fraction(guess + w) <= grid[-1]

    @pytest.mark.parametrize("guess", [math.nan, math.inf, -math.inf])
    def test_guess_must_be_finite(self, monkeypatch, guess):
        points = record_sign_points(monkeypatch)
        with pytest.raises(ValueError, match="guess must be finite"):
            find_root(product_table([1]), HankelConfig(d=1), 1, guess, 1.0, 17)
        assert points == []

    @pytest.mark.parametrize("guess, w", [
        (1.7e308, 1e307), (-1.7e308, 1e307), (1.0, 1.7e308), (2.0 ** 1022, 1.0)])
    def test_window_must_lie_in_the_float_range(self, monkeypatch, guess, w):
        points = record_sign_points(monkeypatch)
        with pytest.raises(ValueError, match="float range"):
            find_root(product_table([1]), HankelConfig(d=1), 1, guess, w, 17)
        assert points == []

    def test_subnormal_window_without_root(self, monkeypatch):
        # 2w/16 underflows to 0: the float spacing of 1.0 alone sets the
        # grid, the one point 1.0, where f_3 = alpha - 2 is not 0
        points = record_sign_points(monkeypatch)
        with pytest.raises(NoSignChange):
            find_root(product_table([2]), HankelConfig(d=1), 1, 1.0, 5e-324, 17)
        assert points == [1.0]

    def test_subnormal_window_about_a_root_at_zero(self, monkeypatch):
        # the grid is -5e-324, 0, 5e-324: the least subnormal spacing
        points = record_sign_points(monkeypatch)
        root = find_root(product_table([0]), HankelConfig(d=1), 1, 0.0, 5e-324, 17)
        assert root == 0.0
        assert set(points) <= {-5e-324, 0.0, 5e-324}

    @pytest.mark.parametrize("n", [2 ** 16 + 1, 10 ** 400],
                             ids=["2**16+1", "10**400"])
    def test_scan_count_past_2_16_rejected(self, monkeypatch, n):
        # checked before a grid of ~n points is built
        points = record_sign_points(monkeypatch)
        with pytest.raises(ValueError, match="scan count"):
            find_root(product_table([0]), HankelConfig(d=1), 1, 0.0, 1.0, n)
        assert points == []

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_alpha_must_be_finite(self, alpha):
        with pytest.raises(ValueError, match="alpha must be finite"):
            det_sign_at(product_table([1]), 1, 1, alpha)

    def test_floats_and_rationals_sign_alike(self):
        # a float is signed as the rational it is exactly
        tab = product_table([Fraction(1, 10)])
        assert det_sign_at(tab, 1, 1, 0.1) == det_sign_at(tab, 1, 1, Fraction(0.1))
        assert det_sign_at(tab, 1, 1, 0.1) != 0  # 0.1 is not 1/10
        assert det_sign_at(tab, 1, 1, 0.5) == 1


@st.composite
def float_brackets(draw):
    """(a, b, t): floats a < t < b, over both signs and many magnitudes."""
    a = draw(st.floats(-1e300, 1e300))
    b = draw(st.floats(-1e300, 1e300))
    a, b = min(a, b), max(a, b)
    t = draw(st.floats(a, b))
    assume(a < t < b)
    return a, b, t


class TestBisectSign:
    # the one bisection loop on a step function whose sign changes at a
    # float threshold t

    @settings(max_examples=300, deadline=None)
    @given(bracket=float_brackets(),
           width=st.one_of(st.just(0.0), st.floats(0.0, 1e300)),
           ga=st.sampled_from([-1, 1]))
    @example(bracket=(1.0, 2.0, 1.5), width=0.0, ga=-1)  # a zero at once
    @example(bracket=(0.0, 1.0, 5e-324), width=0.0, ga=1)  # to subnormals
    @example(bracket=(-1.0, 1.0, 0.1), width=0.25, ga=1)
    def test_keeps_the_signs_and_stops_by_one_rule(self, bracket, width, ga):
        a, b, t = bracket

        def g(x):
            return 0 if x == t else (ga if x < t else -ga)

        lo, hi = bisect_sign(g, a, b, ga, width)
        assert a <= lo <= hi <= b
        if lo == hi:  # an exact zero at a midpoint
            assert lo == t
            return
        assert g(lo) == ga and g(hi) == -ga
        assert hi - lo <= width or math.nextafter(lo, math.inf) == hi
        if b - a <= width:
            assert (lo, hi) == (a, b)

    @settings(max_examples=200, deadline=None)
    @given(bracket=float_brackets(), path=st.lists(st.booleans(), max_size=60))
    def test_zero_at_a_midpoint(self, bracket, path):
        # m: the midpoint that the path's steps reach; a step function that
        # vanishes at m leads bisection down the same path to (m, m)
        a, b, _ = bracket
        lo, hi = a, b
        for right in path:
            mid = (lo + hi) / 2
            if not lo < mid < hi:
                break
            lo, hi = (mid, hi) if right else (lo, mid)
        m = (lo + hi) / 2
        assume(lo < m < hi)

        def g(x):
            return 0 if x == m else (-1 if x < m else 1)

        assert bisect_sign(g, a, b, -1, 0.0) == (m, m)


def _bits(x):
    """The 8 bytes of float x, with every nan read as one value."""
    return b"nan" if x != x else struct.pack("<d", x)


class TestHorner:
    # polyseries._horner is the package's one polynomial loop: floats in
    # the N=2 quartic's root search and Pade evaluation, exact rationals in
    # AlphaPolynomial

    @settings(max_examples=500, deadline=None)
    @given(c=st.lists(st.floats(), max_size=8), x=st.floats())
    @example(c=[-0.0], x=-1.0)  # a start of 0 * x would give +0.0
    @example(c=[5e-324, -0.0], x=-0.0)
    @example(c=[1.0, math.inf], x=0.0)
    def test_floats_bit_for_bit_as_from_zero_float(self, c, x):
        acc = 0.0
        for ci in reversed(c):
            acc = acc * x + ci
        assert _bits(_horner(c, x)) == _bits(acc)

    @settings(max_examples=200, deadline=None)
    @given(c=st.lists(st.fractions(max_denominator=10 ** 6), max_size=8),
           x=st.fractions(max_denominator=10 ** 6))
    def test_rationals_exact(self, c, x):
        value = _horner(c, x)
        assert value == sum((ck * x ** k for k, ck in enumerate(c)), Fraction(0))
        assert isinstance(value, Fraction) or not c


class TestAlphaSequence:
    def test_paper_case_moderate_depth(self, paper_params):
        # the matrix starting at F_3 (d=1): by D <= 20 the sequence is
        # within 3e-5 of the converged value (it settles at D = 9)
        cfg = HankelConfig(D_max=20, d=1)
        seq = alpha_sequence(paper_params, cfg, solve_n1(paper_params).beta)
        assert seq.alpha_star == pytest.approx(4.20411340, abs=3e-5)
        assert [D for D, _ in seq.roots][0] == 3
        assert seq.skipped == [2]

    def test_d2_agrees_with_d1(self, paper_params):
        cfg = HankelConfig(D_max=22, d=2)
        seq = alpha_sequence(paper_params, cfg, solve_n1(paper_params).beta)
        assert seq.alpha_star == pytest.approx(4.20411340, abs=1e-4)

    @pytest.mark.parametrize("M, m, s", [
        ("2", "1", "1"), ("153/25", "1", "-27/50"), ("577/100", "1", "111/50"),
        ("157/25", "0", "153/50"), ("783/100", "0", "-23/100")])
    def test_exact_family_agrees_with_exact_solution(self, M, m, s):
        # m = 1 admits the exact solution f' = -exp(-beta eta), so alpha is
        # beta = (s + sqrt(s^2 + 4M^2 - 4))/2; at m = 0 the first integral
        # of g = f' gives alpha = sqrt(M^2 - 2/3). The last four settle
        # 1.5e-6 to 4.6e-6 off on their last root, and within 1.2e-12 on
        # the best-agreeing one
        params = ModelParams(M=Fraction(M), m=Fraction(m), s=Fraction(s))
        exact = ((params.s + math.sqrt(params.s ** 2 + 4 * params.M2 - 4)) / 2
                 if params.m == 1 else math.sqrt(params.M2 - 2 / 3))
        seq = alpha_sequence(params, HankelConfig(), solve_n1(params).beta)
        assert seq.converged
        assert abs(seq.alpha_star - exact) <= 1e-9 * max(1.0, exact)

    def test_no_root_anywhere_raises(self):
        # seeded far from any determinant root: the window is 500 +- 250
        with pytest.raises(NoSignChange) as exc:
            alpha_sequence(ModelParams(2, 2, 1.8), HankelConfig(D_max=3), 500.0)
        assert exc.value.D is not None

    def test_default_offset_paper_sequence_is_frozen(self, paper_params):
        # recorded at d=-1 (first entry F_1) with signs from condensation:
        # the roots fall geometrically, with no D skipped
        cfg = HankelConfig(D_max=30)
        seq = alpha_sequence(paper_params, cfg, solve_n1(paper_params).beta)
        assert seq.roots == PAPER_ROOTS
        assert seq.skipped == []
        assert seq.converged and seq.alpha_star == 4.204113398591289

    def test_paper_matrix_roots_against_the_default(self, paper_params):
        # the paper's matrix |f_{i+j-1}| of Taylor coefficients, signed by
        # Bareiss here: its sequence settled on its D = 18 root 4.2041138908
        # (at D = 8 its root was 4.1952797646), which lies 4.9e-7 above
        # the default's alpha; each root is pinned by a sign change across
        # it +- 1e-9
        tab = taylor_table(paper_params, 35)
        for D, root in ((8, 4.195279764622683), (18, 4.20411389079527)):
            lo, hi = Fraction(root - 1e-9), Fraction(root + 1e-9)
            assert (taylor_matrix_sign(tab, -1, D, lo)
                    * taylor_matrix_sign(tab, -1, D, hi)) == -1
        default = PAPER_ROOTS[-1][1]
        assert abs(4.20411389079527 - default) == pytest.approx(4.9e-7, abs=1e-8)
        assert abs(4.195279764622683 - default) > 8e-3

    def test_table_grows_with_D(self, paper_params, monkeypatch):
        # the paper sequence stops at D = 8, whose matrix reads F_1 ..
        # F_15: no longer table is built, whatever D_max allows
        orders = []
        build = hankel.taylor_table

        def spy(params, order, *table):
            orders.append(order)
            return build(params, order, *table)
        monkeypatch.setattr(hankel, "taylor_table", spy)
        alpha_sequence(paper_params, HankelConfig(D_max=30),
                       solve_n1(paper_params).beta)
        assert orders and max(orders) == 2 * 8 - 1

    def test_paper_windows_are_frozen(self, paper_params, monkeypatch):
        calls = record_windows(monkeypatch)
        alpha_sequence(paper_params, HankelConfig(D_max=30),
                       solve_n1(paper_params).beta)
        assert calls == PAPER_WINDOWS

    def test_misses_widen_the_window_up_to_half_the_seed(self, paper_params,
                                                         monkeypatch):
        # misses forced at D = 6 .. 9, where the window has shrunk to w6:
        # after two misses in a row it doubles, after four it is 4 w6.
        # D = 10 then misses on its own, D = 11 finds a root 1.1e-4 off
        # and the sequence still settles, 5.2e-10 from the unforced one
        calls = record_windows(monkeypatch, miss_at={6, 7, 8, 9})
        seed = solve_n1(paper_params).beta
        seq = alpha_sequence(paper_params, HankelConfig(D_max=30), seed)
        w6 = PAPER_WINDOWS[4][1]
        assert calls[:10] == PAPER_WINDOWS[:5] + [
            (7, w6, 17), (8, 2 * w6, 17), (9, 2 * w6, 17),
            (10, 4 * w6, 17), (11, 4 * w6, 17)]
        assert seq.skipped == [6, 7, 8, 9, 10]
        assert seq.converged and seq.roots[-1][0] == 15
        assert seq.alpha_star == pytest.approx(PAPER_ROOTS[-1][1], abs=1e-9)

    def test_misses_at_half_the_seed_keep_it(self, paper_params, monkeypatch):
        # misses forced at D = 4 .. 7, where the window is still |seed|/2:
        # it stays there through the two misses that follow, and the
        # sequence settles at D = 15 as above
        calls = record_windows(monkeypatch, miss_at={4, 5, 6, 7})
        seed = solve_n1(paper_params).beta
        seq = alpha_sequence(paper_params, HankelConfig(D_max=30), seed)
        w0 = 0.5 * seed
        assert calls[:10] == PAPER_WINDOWS[:3] + [
            (D, w0, 17) for D in range(5, 12)]
        assert seq.skipped == [4, 5, 6, 7, 8, 9]
        assert seq.converged and seq.roots[-1][0] == 15
        assert seq.alpha_star == pytest.approx(PAPER_ROOTS[-1][1], abs=1e-9)

    def test_misses_widen_the_window_unforced(self):
        # D = 6 .. 9 miss on their own: the window doubles at D = 8 and
        # again at D = 10, which finds a root, and the sequence settles at
        # D = 14, 4.5e-9 from the shot value. Without the widening it
        # settled at D = 9, 3.5e-6 off
        params = ModelParams(M=Fraction("12.07"), m=Fraction("-0.08943"),
                             s=Fraction("-0.3325"))
        with deadline(5):
            seq = alpha_sequence(params, HankelConfig(), solve_n1(params).beta)
        assert seq.converged
        w = 0.05 * seq.alpha_star
        shot = shoot_refine(params, (seq.alpha_star - w, seq.alpha_star + w))
        assert abs(seq.alpha_star - shot) < 1e-7

    def test_windows_at_huge_M_stay_above_float_resolution(self, monkeypatch):
        # at M = 1e100 the roots at D = 2 and 3 are the same float, so 32
        # times the last step is 0; an absolute 1e-4 floor is ~1e-88 of
        # one float spacing there, and every later D missed
        calls = record_windows(monkeypatch)
        params = ModelParams(1e100, 2, 1.8)
        seed = solve_n1(params).beta
        with deadline(10):
            seq = alpha_sequence(params, HankelConfig(), seed)
        assert seq.converged
        for D, w, _ in calls:
            guess = ([r for d, r in seq.roots if d < D] or [seed])[-1]
            assert w >= 16 * math.ulp(guess), (D, w)

    def test_settled_or_not_sequence_reports_the_best_agreeing_root(self):
        # unsettled: roots at D = 2, 3 and 7, none at D = 4 .. 6: D = 2
        # and 3 agree best, and their root lies 8.9e-8 from the shot value
        # where the last root lies 5.1e-2 off
        params = ModelParams(20.48, 0.69, 1.02)
        seq = alpha_sequence(params, HankelConfig(D_max=7),
                             solve_n1(params).beta)
        assert seq.roots == [(2, 20.810498036298668), (3, 20.81305183839868),
                             (7, 20.76207359545515)]
        assert seq.skipped == [4, 5, 6] and not seq.converged
        assert seq.alpha_star == 20.81305183839868
        # the bracket `solve` shoots in: alpha_star +- 5%
        w = 0.05 * seq.alpha_star
        shot = shoot_refine(params, (seq.alpha_star - w, seq.alpha_star + w))
        assert abs(seq.alpha_star - shot) == pytest.approx(8.9e-8, abs=1e-9)
        assert abs(seq.roots[-1][1] - shot) == pytest.approx(5.1e-2, abs=1e-3)
        # settled at D = 9, after misses at D = 7 and 8: D = 5 and 6 agree
        # best, and the D = 6 root lies 3.1e-9 from the shot value where
        # the last root lies 2.2e-5 off
        params = ModelParams(M=Fraction("11.78"), m=Fraction("-2.336"),
                             s=Fraction("3.534"))
        seq = alpha_sequence(params, HankelConfig(), solve_n1(params).beta)
        assert [D for D, _ in seq.roots] == [2, 3, 4, 5, 6, 9]
        assert seq.skipped == [7, 8] and seq.converged
        assert seq.roots[-1][1] == 8.348072003718698
        assert seq.alpha_star == seq.roots[4][1] == 8.348049867345253
        w = 0.05 * seq.alpha_star
        shot = shoot_refine(params, (seq.alpha_star - w, seq.alpha_star + w))
        assert abs(seq.alpha_star - shot) < 1e-8
        assert abs(seq.roots[-1][1] - shot) > 1e-5

    def test_default_offset_paper_signs_are_frozen(self, paper_params,
                                                   monkeypatch):
        # every (D, alpha, sign) that det_sign_at answers in the sequence
        # above: SHA-256 of the repr of the list of (D, numerator,
        # denominator, sign), sorted (which points are signed) and in the
        # order they are signed
        signs = []
        real = hankel.det_sign_at

        def recorded(table, d, D, alpha):
            sign = real(table, d, D, alpha)
            alpha = Fraction(alpha)
            signs.append((D, alpha.numerator, alpha.denominator, sign))
            return sign

        monkeypatch.setattr(hankel, "det_sign_at", recorded)
        alpha_sequence(paper_params, HankelConfig(D_max=30),
                       solve_n1(paper_params).beta)
        assert len(signs) == 195
        assert hashlib.sha256(repr(sorted(signs)).encode()).hexdigest() == (
            "8a3218757bfde18b1d75d7060ac5cf17193845fb15a1277c8fa1da6df16e63e1")
        assert hashlib.sha256(repr(signs).encode()).hexdigest() == (
            "6009ead66173cc0be83dcdc284ea03fb688842fb316db19f225cb722182b3b27")

    def test_denominator_100_sequence_is_frozen(self):
        # M^2 = 17161/10^4, s = 129/100: q = 10^4, so the entries carry
        # powers of 5 as well as 2; recorded as above. The exact alpha,
        # sqrt(M^2 - 2/3) = 1.0244185343, lies 2.6e-8 below where the
        # sequence settles
        params = ModelParams(M=1.31, m=0.0, s=1.29)
        cfg = HankelConfig(D_max=14)
        seq = alpha_sequence(params, cfg, solve_n1(params).beta)
        assert seq.roots == [
            (2, 0.8462269199371804), (3, 1.0453220337221865),
            (4, 1.0224501638731454), (5, 1.0246173776395153),
            (6, 1.0243979337101337), (7, 1.0244207172945607),
            (8, 1.0244182988826651), (9, 1.024418560002232)]
        assert seq.skipped == []
        assert seq.converged and seq.alpha_star == 1.024418560002232

    def test_paper_case_sequence_is_frozen(self, paper_params):
        # recorded with signs from Bareiss elimination alone; any exact
        # sign test makes the same bracket decisions, so every float is
        # reproduced bit for bit (recorded at d=1, first entry F_3)
        cfg = HankelConfig(D_max=20, d=1)
        seq = alpha_sequence(paper_params, cfg, solve_n1(paper_params).beta)
        assert seq.roots == [
            (3, 4.442083850939525), (4, 4.214275889593409),
            (5, 4.204486139555229), (6, 4.204125383199425),
            (7, 4.204113751853583), (8, 4.204113408370176),
            (9, 4.204113398882328)]
        assert seq.skipped == [2]
        assert seq.converged and seq.alpha_star == 4.204113398882328
