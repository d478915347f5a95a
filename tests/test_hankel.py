import functools
import hashlib
import itertools
import math
import warnings
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mhdsheet import (HankelConfig, ModelParams, NoSignChange, alpha_sequence,
                      det_sign_at, find_root, hankel_entries, solve_n1,
                      taylor_table)
from mhdsheet import hankel
from mhdsheet._bisection import bisect_sign
from mhdsheet.hankel import (MultipleRootsWarning, _bareiss_sign,
                             _condensation_sign, _int_matrix)
from mhdsheet.polyseries import TaylorTable

from conftest import clear_by_lcm, deadline


def synthetic_table(entries):
    """A table of the given entries, each a constant or a coefficient list."""
    cleared = [clear_by_lcm(c if isinstance(c, (list, tuple)) else [c])
               for c in entries]
    return TaylorTable(m2=Fraction(0), m=Fraction(0), s=Fraction(0),
                       cleared=tuple(cleared))


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
        assert HankelConfig(d=-1).d == -1
        with pytest.raises(ValueError, match=">= -1"):
            HankelConfig(d=-2)

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


def test_sign_path_builds_no_rational_entries(paper_params):
    # the exact sign test reads the integer form only
    tab = taylor_table(paper_params, 19)
    det_sign_at(tab, -1, 10, Fraction(42, 10))
    find_root(tab, HankelConfig(), 10, 4.2041, 0.01, 17)
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
        tab = synthetic_table([0, 0, 0, 1, 1, 0, 1, 1])
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
    a dyadic, non-dyadic or negative alpha."""
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
    return synthetic_table(entries), d, D, alpha


class TestRescaledSequence:
    @settings(max_examples=200, deadline=None)
    @given(scaled_tables())
    def test_sign_kept_and_scaling_exact(self, case):
        tab, d, D, alpha = case
        rows = [[p(alpha) for p in row] for row in hankel_entries(tab, d, D)]
        assert det_sign_at(tab, d, D, alpha) == _bareiss_sign(_int_matrix(rows))
        c = hankel._hankel_sequence(tab, d, D, alpha)
        assert all(int(x) == x for x in c)
        _assert_positive_geometric_scaling(
            c, [tab.entries[t + d + 2](alpha) for t in range(2 * D - 1)])

    def test_paper_table_scaling_exact(self, paper_params):
        tab = taylor_table(paper_params, 40)
        for alpha in (Fraction(70533023, 2 ** 24), Fraction(4204113, 10 ** 6)):
            c = hankel._hankel_sequence(tab, -1, 20, alpha)
            _assert_positive_geometric_scaling(
                c, [tab.entries[t + 1](alpha) for t in range(39)])

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
# sequence at D_max 30, recorded while both still lived in HankelConfig
# (bracket_halfwidth, scan_points): |seed|/2 at 129 points until the
# second root, then 32 times the last step, in [1e-4, |seed|/2], at 17
PAPER_WINDOWS = [
    (2, 2.04455231422596, 129), (3, 2.04455231422596, 129),
    (4, 2.04455231422596, 17), (5, 2.04455231422596, 17),
    (6, 2.04455231422596, 17), (7, 2.04455231422596, 17),
    (8, 0.5926750116050243, 17), (9, 0.15170654840767384, 17),
    (10, 0.007662715390324593, 17), (11, 0.007662715390324593, 17),
    (12, 0.05605767294764519, 17), (13, 0.22126110643148422, 17),
    (14, 0.0031951963901519775, 17), (15, 0.00017784349620342255, 17),
    (16, 0.0012306049466133118, 17), (17, 0.00012297742068767548, 17),
    (18, 0.0001, 17)]


class TestFindRoot:
    def test_synthetic_rank_deficiency_root(self):
        # f_j(alpha) = 2^-j + (alpha - c) * j / 3^j: at alpha = c the
        # sequence is geometric, so every Hankel determinant vanishes
        c = Fraction(3)
        entries = [[Fraction(1, 2 ** j) - c * Fraction(j, 3 ** j),
                    Fraction(j, 3 ** j)] for j in range(10)]
        tab = synthetic_table(entries)
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
        assert all(isinstance(p, Fraction) for p in points)
        assert all(p.denominator & (p.denominator - 1) == 0 for p in points)


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
        tab = taylor_table(paper_params, 2 * 8 - 1)
        points = []
        real = hankel.det_sign_at

        def counted(table, d, D, alpha):
            points.append(alpha)
            return real(table, d, D, alpha)

        monkeypatch.setattr(hankel, "det_sign_at", counted)
        root = find_root(tab, HankelConfig(), 8, 4.2, 0.02, 17)
        assert root == pytest.approx(4.1952797646, abs=1e-9)
        assert len(points) == len(set(points))

    def test_frozen_sign_points(self, paper_params, monkeypatch):
        # the setup above; every alpha signed: the grid point i / 512
        # nearest 4.2, then the points of the candidates nearer 4.2 than
        # the first bracket, [2147/512, 2148/512], then the bisection of
        # that cell down to tol (recorded when the scan stopped signing the
        # whole grid; the bisection's 25 points are those of the full scan)
        tab = taylor_table(paper_params, 2 * 8 - 1)
        points = record_sign_points(monkeypatch)
        find_root(tab, HankelConfig(), 8, 4.2, 0.02, 17)
        assert points == (
            [Fraction(i, 512) for i in (2150, 2151, 2149, 2152, 2148, 2153, 2147)]
            + [Fraction(k, 2 ** e) for e, k in enumerate([
                4295, 8591, 17183, 34367, 68735, 137471, 274941, 549883,
                1099767, 2199535, 4399069, 8798139, 17596279, 35192557,
                70385115, 140770229, 281540459, 563080919, 1126161837,
                2252323673, 4504647347, 9009294693, 18018589387,
                36037178773, 72074357547], start=10)])


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


class TestAlphaSequence:
    def test_paper_case_moderate_depth(self, paper_params):
        # frozen regression of the bring-up run, whose matrix starts at
        # f_3 (d=1): by D <= 20 the sequence is within 3e-5 of the
        # converged value
        cfg = HankelConfig(D_max=20, d=1)
        seq = alpha_sequence(paper_params, cfg, solve_n1(paper_params).beta)
        assert seq.alpha_star == pytest.approx(4.20411340, abs=3e-5)
        assert [D for D, _ in seq.roots][0] == 5
        assert set(seq.skipped) >= {2, 3, 4}

    def test_d2_agrees_with_d1(self, paper_params):
        cfg = HankelConfig(D_max=22, d=2)
        seq = alpha_sequence(paper_params, cfg, solve_n1(paper_params).beta)
        assert seq.alpha_star == pytest.approx(4.20411340, abs=1e-4)

    def test_m1_case_agrees_with_exact_solution(self):
        # m=1 admits the exact solution f' = -exp(-beta eta) with
        # beta = (s + sqrt(s^2 + 4M^2 - 4))/2; here (1 + sqrt(13))/2
        params = ModelParams(2, 1, 1)
        exact = (1 + 13 ** 0.5) / 2
        cfg = HankelConfig(D_max=24)
        seq = alpha_sequence(params, cfg, solve_n1(params).beta)
        assert seq.alpha_star == pytest.approx(exact, abs=1e-4)

    def test_no_root_anywhere_raises(self):
        # seeded far from any determinant root: the window is 500 +- 250
        with pytest.raises(NoSignChange) as exc:
            alpha_sequence(ModelParams(2, 2, 1.8), HankelConfig(D_max=3), 500.0)
        assert exc.value.D is not None

    def test_default_offset_paper_sequence_is_frozen(self, paper_params):
        # recorded at d=-1 (first entry f_1) with signs from condensation
        # on the unrescaled integer sequence
        cfg = HankelConfig(D_max=30)
        seq = alpha_sequence(paper_params, cfg, solve_n1(paper_params).beta)
        assert seq.roots == [
            (2, 3.0547236990823876), (3, 4.836427256843308),
            (4, 4.093770250823582), (6, 4.2185416883730795),
            (7, 4.2000205942604225), (8, 4.195279764622683),
            (9, 4.19551922447863), (11, 4.197271026758244),
            (12, 4.204185436334228), (13, 4.204085586447036),
            (14, 4.2040800288377795), (15, 4.204118485242361),
            (16, 4.204114642197965), (17, 4.204114846914308),
            (18, 4.20411389079527)]
        assert seq.skipped == [5, 10]
        assert seq.alpha_star == 4.20411389079527

    def test_paper_windows_are_frozen(self, paper_params, monkeypatch):
        calls = record_windows(monkeypatch)
        alpha_sequence(paper_params, HankelConfig(D_max=30),
                       solve_n1(paper_params).beta)
        assert calls == PAPER_WINDOWS

    def test_misses_widen_the_window_up_to_half_the_seed(self, paper_params,
                                                         monkeypatch):
        # misses forced from D = 8 on, where the window has shrunk to w8:
        # after two misses in a row it doubles, after four it would be
        # 4 w8 but stops at |seed|/2
        calls = record_windows(monkeypatch, miss_at={8, 9, 10, 11})
        seed = solve_n1(paper_params).beta
        seq = alpha_sequence(paper_params, HankelConfig(D_max=12), seed)
        w8, w0 = PAPER_WINDOWS[6][1], 0.5 * seed
        assert 4 * w8 > w0
        assert calls == PAPER_WINDOWS[:7] + [
            (9, w8, 17), (10, 2 * w8, 17), (11, 2 * w8, 17), (12, w0, 17)]
        assert seq.skipped == [5, 8, 9, 10, 11]

    def test_default_offset_paper_signs_are_frozen(self, paper_params,
                                                   monkeypatch):
        # every (D, alpha, sign) that det_sign_at answers in the sequence
        # above, recorded when find_root's scan stopped signing grid points
        # that cannot decide the nearest bracket (1019 before): SHA-256 of
        # the repr of the list of (D, numerator, denominator, sign)
        signs = []
        real = hankel.det_sign_at

        def recorded(table, d, D, alpha):
            sign = real(table, d, D, alpha)
            signs.append((D, alpha.numerator, alpha.denominator, sign))
            return sign

        monkeypatch.setattr(hankel, "det_sign_at", recorded)
        alpha_sequence(paper_params, HankelConfig(D_max=30),
                       solve_n1(paper_params).beta)
        assert len(signs) == 667
        assert hashlib.sha256(repr(signs).encode()).hexdigest() == (
            "ceec5a76fb77e597313c03b8f1ea6991fd27518ab22618ac617c1a7a70b1aa73")

    def test_denominator_100_sequence_is_frozen(self):
        # M^2 = 17161/10^4, s = 129/100: q = 10^4, so the entries carry
        # powers of 5 as well as 2; recorded as above
        params = ModelParams(M=1.31, m=0.0, s=1.29)
        cfg = HankelConfig(D_max=14)
        seq = alpha_sequence(params, cfg, solve_n1(params).beta)
        assert seq.roots == [
            (2, 0.6909413868270349), (3, 1.0707040677953046),
            (4, 1.020361842791317), (5, 1.024747945688432),
            (7, 1.0426847645721864), (8, 0.6430757200287189),
            (9, 1.0023759284231346), (10, 0.6715154775592964),
            (11, 1.0244198262516875), (12, 1.038834360515466),
            (13, 1.0244138091511559), (14, 1.0113338348164689)]
        assert seq.skipped == [6]
        assert seq.alpha_star == 1.024747945688432

    def test_paper_case_sequence_is_frozen(self, paper_params):
        # recorded with signs from Bareiss elimination alone; any exact
        # sign test makes the same bracket decisions, so every float is
        # reproduced bit for bit (recorded at d=1, first entry f_3)
        cfg = HankelConfig(D_max=20, d=1)
        seq = alpha_sequence(paper_params, cfg, solve_n1(paper_params).beta)
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
