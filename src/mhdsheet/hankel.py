"""Hankel-determinant determination of the shooting parameter alpha.

The D x D Hankel matrix has entries F_{i+j+d}(alpha), i,j = 1..D, where
F_k = k! f_k = f^(k)(0) are the derivatives at the wall, taken from the
exact Taylor table (`TaylorTable.moments`). Its determinant is a
polynomial in alpha; the root sequence alpha_D (D = 2, 3, ...) converges
to the physical f''(0). The decaying solution is an exponential sum
f = sum_j b_j exp(-j beta eta), so F_k = sum_j b_j (-j beta)^k are the
moments of a discrete measure, and (Prony) the Hankel determinants of
such moments have a root near alpha that converges geometrically in D:
the paper case settles at D = 8, 3.1e-9 from the shooting value. The
paper's own matrix reads the Taylor coefficients f_k = F_k / k!, which
loses the moment structure; its sequence settles only at D = 18, and the
tests compare its root against this one.

The offset d fixes the first entry, F_{d+2}. In the Hankel-Pade notation
H_D^e = |F_{i+j+e-1}|, i,j = 1..D, this matrix is H_D^(d+1). The default
d = -1 starts at F_1 and is H_D^0; d = 0 starts at F_2 (H_D^1) and d = 1
at F_3 (H_D^2). The bound d >= -1 keeps F_0 = s out of the matrix.

Determinant signs are computed exactly. The matrix has only 2D-1
distinct entries F_{d+2} .. F_{2D+d}; at a rational alpha = a/b each is
evaluated by integer Horner from the table's integer form of the
moments, and all are scaled to integers c_t = K r^t F_{t+d+2}(alpha),
t = 0..2D-2, with rationals K, r > 0. Such a scaling keeps the sign:
det[K r^(i+j) F_{i+j+d+2}] = K^D r^(D(D-1)) det[F_{i+j+d+2}], since the
matrix is K diag(r^i) [F_{i+j+d+2}] diag(r^j). For 2 and each odd prime
p of q (the lcm of the parameters' denominators) the factor p^(A + s t)
with the integer line A + s t lying under v_p of every entry and removing
the most factors of p is divided out, including the powers of b in
alpha = a/b. The sign of det[c_{i+j}] comes from
Desnanot-Jacobi (Dodgson) condensation, ~D^2 exact big-integer steps;
when one of its exact divisors is zero, fraction-free Bareiss elimination
of the same integer matrix decides instead. Root location scans a grid
of dyadic floats over the window `alpha_sequence` picks for each D (the
one config, `HankelConfig`, holds d, D_max and tol: --d, --Dmax, --tol),
nearest the guess first, and takes the first point or cell where the
sign is 0 or changes; the package's one bisection loop,
`_bisection.bisect_sign`, halves that bracket on floats down to cfg.tol
or adjacent floats. `det_sign_at` alone reads each float exactly, as the
rational it is, so no float cancellation can flip a bracket.
"""

from __future__ import annotations

import math
import warnings
from collections import namedtuple
from fractions import Fraction

from ._bisection import bisect_sign
from .model import ModelParams
from .polyseries import AlphaPolynomial, TaylorTable, taylor_table


# the sequence stops when 3 consecutive |alpha_D - alpha_prev| fall
# below this absolute bound. The steps shrink geometrically in D (paper
# case: 1e-6, 2e-8, 5e-10 at D = 6 .. 8), but where they shrink slowly
# the last root can lie about the bound itself from the answer (3e-5 at
# M = 199.5), so it sets when the loop stops, not which root is reported.
# The bisection tol bounds one root, not the sequence's error
SEQ_TOL = 3e-5


class NoSignChange(Exception):
    """The scan found no determinant sign change in the bracket."""

    def __init__(self, msg, D=None):
        super().__init__(msg)
        self.D = D


class MultipleRootsWarning(UserWarning):
    """More than one sign change among the points the scan signed; the one
    nearest the guess is used. Points past the chosen bracket in the
    nearest-first walk are not signed, so they are not counted."""


class HankelConfig(namedtuple("HankelConfig", "d D_max tol")):
    """The Hankel offset d (first entry F_{d+2}; d = -1 is the Hankel-Pade
    H_D^0), the largest dimension D_max >= 2 and the bisection tol > 0.
    The matrix at D reads the Taylor table to order 2D + d, so the bound
    -1 <= d <= D_max keeps every table at order 3 D_max or less. Checked
    on every construction, `_replace` too."""

    __slots__ = ()

    def __new__(cls, d=-1, D_max=30, tol=1e-10):
        if d < -1:
            raise ValueError("d must be >= -1 (the first entry is F_{d+2}, at lowest F_1)")
        if D_max < 2:
            raise ValueError("D_max must be >= 2")
        if d > D_max:
            raise ValueError(f"d must be <= D_max = {D_max}, got {d}")
        if not 0 < tol < math.inf:  # nan included
            raise ValueError("tol must be positive and finite")
        return super().__new__(cls, d, D_max, tol)

    # tuple.__new__ would skip the checks; `_replace` builds through this
    _make = classmethod(lambda cls, values: cls(*values))


class RootSequence(namedtuple("RootSequence",
                              "roots converged alpha_star skipped")):
    """The roots (D, alpha_D) found, whether the sequence settled, the
    reported alpha and the dimensions D skipped for want of a nearby root.
    The two lists default to new empty ones."""

    __slots__ = ()

    def __new__(cls, roots=None, converged=False, alpha_star=math.nan,
                skipped=None):
        return super().__new__(cls, [] if roots is None else roots, converged,
                               alpha_star, [] if skipped is None else skipped)


def _check_order(table: TaylorTable, d: int, D: int) -> None:
    if table.order < 2 * D + d:
        raise ValueError(
            f"table order {table.order} < 2D+d = {2 * D + d}; build a longer table")


def hankel_entries(table: TaylorTable, d: int, D: int) -> list[list[AlphaPolynomial]]:
    """The D x D matrix with entry (i,j) = F_{i+j+d} = (i+j+d)! f_{i+j+d},
    i,j = 1..D, built from the (coefficients, L) of `TaylorTable.moments`
    that the exact sign test reads."""
    _check_order(table, d, D)
    h = [AlphaPolynomial(tuple(Fraction(c, L) for c in cs))
         for cs, L in table.moments[:2 * D + d + 1]]
    return [[h[i + j + d] for j in range(1, D + 1)] for i in range(1, D + 1)]


def _int_matrix(rows: list[list[Fraction]]) -> list[list[int]]:
    # positive row multipliers keep the determinant sign
    out = []
    for row in rows:
        L = math.lcm(*[x.denominator for x in row])
        out.append([int(x.numerator * (L // x.denominator)) for x in row])
    return out


def _bareiss_sign(A: list[list[int]]) -> int:
    """Exact sign of det(A) for an integer matrix, by fraction-free
    (Bareiss) elimination."""
    n = len(A)
    A = [list(row) for row in A]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if A[k][k] == 0:
            for r in range(k + 1, n):
                if A[r][k] != 0:
                    A[k], A[r] = A[r], A[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = A[k][k]
        for i in range(k + 1, n):
            aik = A[i][k]
            Ai, Ak = A[i], A[k]
            for j in range(k + 1, n):
                Ai[j] = (Ai[j] * pivot - aik * Ak[j]) // prev
            Ai[k] = 0
        prev = pivot
    v = A[n - 1][n - 1]
    return 0 if v == 0 else (sign if v > 0 else -sign)


def _best_line(ts, vs) -> tuple[int, int]:
    """Integers (A, s) with A + s t <= v at every point (t, v), ts strictly
    increasing, that maximise the sum of A + s t over the points.

    That sum is k (A + s tbar), k points with mean position tbar, so the
    best real line is the lower convex hull's edge over tbar. The sum is
    concave in s, so the best integer slope is that edge's slope rounded
    down or up, with A = min(v - s t): one hull pass and two evaluations.
    """
    if len(ts) == 1:
        return vs[0], 0
    hull = []
    for t, v in zip(ts, vs):
        # drop the last hull point while it lies on or above the chord
        # from the one before it to (t, v)
        while len(hull) >= 2 and ((hull[-1][1] - hull[-2][1]) * (t - hull[-2][0])
                                  >= (v - hull[-2][1]) * (hull[-1][0] - hull[-2][0])):
            hull.pop()
        hull.append((t, v))
    k, T = len(ts), sum(ts)
    for (t1, v1), (t2, v2) in zip(hull, hull[1:]):
        if t2 * k >= T:  # first edge that reaches tbar
            break
    lo = (v2 - v1) // (t2 - t1)
    best = None
    for s in (lo, lo + 1):
        A = min(v - s * t for t, v in zip(ts, vs))
        if best is None or k * A + s * T > best[0]:
            best = (k * A + s * T, A, s)
    return best[1], best[2]


def _valuation(x: int, p: int) -> int:
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def _entry_multipliers(table: TaylorTable, d: int, D: int) -> tuple[int, ...]:
    """Integers m_t = (Q / L_t) / prod_p p^(A_p + s_p t), t = 0..2D-2, over
    the entries F_{d+2} .. F_{2D+d} held as (coefficients, L_t), with Q
    the lcm of their L_t. Each odd base p gets the line of `_best_line`
    under v_p(Q / L_t), so Q / L_t = m_t K r^t with K, r > 0.

    The bases are the odd primes of the table's q, whose powers in L_t
    grow by 2 per entry (a cofactor with no factor below 2^16 is one
    base). The 2-adic line depends on alpha and is taken per call. Kept
    on the table once per (d, D)."""
    memo = vars(table).setdefault("_hankel_multipliers", {})
    if (d, D) in memo:
        return memo[d, D]
    Ls = [L for _, L in table.moments[d + 2:2 * D + d + 1]]
    Q = math.lcm(*Ls)
    mult = [Q // L for L in Ls]
    rest, bases, p = table.q // (table.q & -table.q), [], 3
    while p < 2 ** 16 and p * p <= rest:
        if rest % p == 0:
            bases.append(p)
            rest //= p ** _valuation(rest, p)
        p += 2
    if rest > 1:
        bases.append(rest)
    ts = range(len(mult))
    for p in bases:
        A, s = _best_line(ts, [_valuation(x, p) for x in mult])
        mult = [x // p ** (A + s * t) if A + s * t >= 0 else x * p ** -(A + s * t)
                for t, x in zip(ts, mult)]
    memo[d, D] = tuple(mult)
    return memo[d, D]


def _hankel_sequence(table: TaylorTable, d: int, D: int, alpha: Fraction) -> list[int]:
    """Integers c'_t = K r^t F_{t+d+2}(alpha), t = 0..2D-2, for rationals
    K, r > 0, so det[c'_{i+j}] = K^D r^(D(D-1)) det[F_{i+j+d+2}] has the
    sign of the Hankel determinant.

    Horner runs on numerators: with alpha = a/b, an entry sum p_i alpha^i / L
    of degree n-1 is (sum p_i a^i b^(n-1-i)) / (L b^(n-1)). Over the common
    denominator Q b^(top-1) the entries are integers c_t; the odd factors
    of Q / L_t that a line in t bounds from below are gone already
    (`_entry_multipliers`), and the 2-adic line is taken from the c_t
    themselves, which also removes the powers of b = 2^k."""
    a, b = alpha.numerator, alpha.denominator
    forms = table.moments[d + 2:2 * D + d + 1]
    top = max(len(ps) for ps, _ in forms)
    bpow = [1]
    for _ in range(top):
        bpow.append(bpow[-1] * b)
    c = []
    for (ps, _), m in zip(forms, _entry_multipliers(table, d, D)):
        n = len(ps)
        acc = 0
        for i in range(n - 1, -1, -1):
            acc = acc * a + ps[i] * bpow[n - 1 - i]
        c.append(acc * m * bpow[top - n])
    ts = [t for t, x in enumerate(c) if x]
    if not ts:
        return c
    A, s = _best_line(ts, [(c[t] & -c[t]).bit_length() - 1 for t in ts])
    return [x >> (A + s * t) if A + s * t >= 0 else x << -(A + s * t)
            for t, x in enumerate(c)]


def _condensation_sign(c: list) -> int:
    """Exact sign of det[c_{i+j}], i,j = 0..D-1, from the 2D-1 integers c.

    With H_n^(k) = det[c_{k+i+j}]_{i,j<n}, H_0 = 1 and H_1^(k) = c_k, the
    Desnanot-Jacobi identity

        H_n^(k) H_{n-2}^(k+2) = H_{n-1}^(k) H_{n-1}^(k+2) - (H_{n-1}^(k+1))^2

    gives every level from the two below by exact division, ~D^2 steps in
    all. A zero divisor stops the recurrence; Bareiss then decides.
    """
    D = (len(c) + 1) // 2
    prev, cur = [1] * len(c), c
    for _ in range(2, D + 1):
        nxt = []
        for k in range(len(cur) - 2):
            div = prev[k + 2]
            if div == 0:
                return _bareiss_sign([c[i:i + D] for i in range(D)])
            nxt.append((cur[k] * cur[k + 2] - cur[k + 1] * cur[k + 1]) // div)
        prev, cur = cur, nxt
    v = cur[0]
    return 0 if v == 0 else (1 if v > 0 else -1)


def det_sign_at(table: TaylorTable, d: int, D: int, alpha) -> int:
    """Exact sign of the Hankel determinant at a finite float or rational
    alpha, read exactly as `Fraction(alpha)`: find_root's one exact read."""
    if alpha != alpha or abs(alpha) == math.inf:
        raise ValueError("alpha must be finite")
    _check_order(table, d, D)
    return _condensation_sign(_hankel_sequence(table, d, D, Fraction(alpha)))


def find_root(table: TaylorTable, cfg: HankelConfig, D: int, guess: float,
              w: float, n: int) -> float:
    """Locate a root of the Hankel determinant near `guess`.

    The scan grid is about n floats i 2^-g across [guess - w, guess + w],
    its spacing floored at the float spacing of |guess| + w. A bracket is
    a point where the sign is 0 or a cell across which it changes. Every
    point and cell is a candidate, walked nearest-first: by the float
    distance of its midpoint from `guess`, then the lower index, then the
    point before the cell. The walk signs the points of each candidate it
    reaches and takes the first bracket: the one that signing the whole
    grid would choose, usually after a few points. That bracket is bisected
    on floats (`bisect_sign`, from the sign the walk found at its left end,
    so no point is signed twice) to width cfg.tol or adjacent floats; each
    sign is exact, as `det_sign_at` reads each float exactly. Raises
    ValueError for a guess that is not finite or a window past the float
    range, and NoSignChange when the walk ends without a bracket, the whole
    grid signed, or when w is 0.
    """
    if not 0 <= w < math.inf:  # nan included
        raise ValueError("half-width w must be >= 0 and finite")
    if n < 3:
        raise ValueError("scan count n must be >= 3")
    if not math.isfinite(guess):
        raise ValueError("guess must be finite")
    if not abs(guess) + w < 2.0 ** 1022:  # grid sums stay below 2^1024
        raise ValueError("guess +- w leaves the float range: |guess| + w >= 2**1022")
    if w == 0:  # seed 0
        raise NoSignChange(f"empty bracket at {guess:g} for D={D}; "
                           "give a nonzero seed", D=D)
    # snap the scan onto a power-of-two grid of spacing 2^-g: short dyadic
    # evaluation points keep the exact determinant arithmetic cheap, and
    # bisection midpoints then grow only one bit per step; g < 0 (spacing
    # 2, 4, ...) keeps a wide bracket at about n points. The floor at the
    # window's float spacing keeps the points distinct floats
    g = -math.floor(math.log2(2 * w / (n - 1)))
    g = min(g, 1 - math.frexp(math.ulp(abs(guess) + w))[1])
    lo_i = math.floor(math.ldexp(guess - w, g))
    hi_i = math.ceil(math.ldexp(guess + w, g))
    pts = [math.ldexp(i, -g) for i in range(lo_i, hi_i + 1)]
    n = len(pts)
    signs = {}

    def sign(i):
        if i not in signs:
            signs[i] = det_sign_at(table, cfg.d, D, pts[i])
        return signs[i]

    # candidate (i, k): a zero at point i = k, or a sign change across the
    # cell (i, k = i + 1)
    candidates = sorted((abs((pts[i] + pts[k]) / 2 - guess), i, k)
                        for i in range(n) for k in (i, i + 1) if k < n)
    for _, i, k in candidates:
        if (sign(i) == 0) if k == i else (sign(i) * sign(k) < 0):
            break
    else:
        raise NoSignChange(
            f"no sign change of H_{D}^{cfg.d + 1} in "
            f"[{guess - w:g}, {guess + w:g}]; widen bracket or adjust seed", D=D)
    # the zeros and sign changes among the signed points
    found = sum(s == 0 or s * signs.get(j + 1, 0) < 0 for j, s in signs.items())
    if found > 1:
        warnings.warn(
            f"{found} sign changes for D={D}; using the root closest "
            "to the guess", MultipleRootsWarning)
    lo, hi = bisect_sign(lambda x: det_sign_at(table, cfg.d, D, x),
                         pts[i], pts[k], signs[i], cfg.tol)
    return (lo + hi) / 2


def alpha_sequence(params: ModelParams, cfg: HankelConfig,
                   seed: float) -> RootSequence:
    """Track the convergent root sequence alpha_D for D = 2 .. D_max.

    Continuation: each D is seeded with the previous root (`seed` to
    start). At some dimensions the determinant has no real root near the
    physical value (the root pair moves off the real axis), or a pair of
    real roots too close for the scan grid to split; such D are recorded
    in `skipped` and the guess is kept. Every D is searched by `find_root`
    on a 17-point scan. The window is seed +- |seed|/2 until two roots are
    known; from then on it is 32 times the last step between roots, at
    least 1e-4 or 16 float spacings of the guess (consecutive roots can be
    the same float at huge |alpha|), which both keeps the exact arithmetic
    affordable at large D and excludes spurious far-away roots from
    derailing the continuation. After k >= 2 misses in a row the window is
    widened 2^(k//2)-fold. No window is wider than |seed|/2. Stops early,
    as `converged`, when three consecutive steps fall below SEQ_TOL.

    `alpha_star` is the later root of the best-agreeing consecutive pair,
    settled or not (the only root if there is one): the roots can drift
    after their best approach, by up to SEQ_TOL before the loop stops or
    off to spurious roots at high D, so the last one is no better.

    The Taylor table grows with D, to order 2D + d before the search at
    D, so a sequence that stops early builds no row it never reads.
    """
    if not math.isfinite(seed):
        raise ValueError("seed must be finite")
    table = None
    roots, skipped, deltas = [], [], []
    converged = False
    guess, w0 = seed, 0.5 * abs(seed)
    w, misses = w0, 0
    for D in range(2, cfg.D_max + 1):
        # the matrix at D reads F_{d+2} .. F_{2D+d}
        table = taylor_table(params, 2 * D + cfg.d, table)
        # persistent misses suggest the window went too tight: widen it
        # 2^(misses // 2)-fold
        try:
            root = find_root(table, cfg, D, guess,
                             min(w0, 2 ** (misses // 2) * w), 17)
        except NoSignChange:
            skipped.append(D)
            misses += 1
            continue
        misses = 0

        if roots:
            deltas.append(abs(root - roots[-1][1]))
        roots.append((D, root))
        guess = root

        if len(deltas) >= 3 and all(dl < SEQ_TOL for dl in deltas[-3:]):
            converged = True
            break

        # shrink the next window to the observed step size
        if deltas:
            w = max(32 * deltas[-1], 1e-4, 16 * math.ulp(guess))
    if not roots:
        raise NoSignChange(
            f"no Hankel root found near the seed for any D up to {cfg.D_max}",
            D=cfg.D_max)
    i = min(range(len(deltas)), key=deltas.__getitem__, default=-1)
    return RootSequence(roots, converged, roots[i + 1][1], skipped)
