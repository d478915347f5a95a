"""Hankel-determinant determination of the shooting parameter alpha.

The D x D Hankel matrix has entries f_{i+j+d}(alpha), i,j = 1..D, taken
from the exact Taylor table. Its determinant is a polynomial in alpha; the
root sequence alpha_D (D = 2, 3, ...) converges to the physical f''(0).

Determinant signs are computed exactly. The matrix has only 2D-1
distinct entries f_{d+2} .. f_{2D+d}; at a rational alpha = a/b each is
evaluated by integer Horner from the table's integer form, and all are
scaled by one positive integer to a sequence c_0 .. c_{2D-2}, which keeps
the sign of det[c_{i+j}]. That sign comes from Desnanot-Jacobi
(Dodgson) condensation, ~D^2 exact big-integer steps; when one of its
exact divisors is zero, fraction-free Bareiss elimination of the same
integer matrix decides instead. Root location is a dyadic-point scan
followed by exact-sign bisection, so no floating-point cancellation can
ever flip a bracket, and no float fallback is substituted silently.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from fractions import Fraction

from .model import ModelParams
from .polyseries import AlphaPolynomial, TaylorTable, taylor_table

try:  # GMP-backed integers, when installed; plain int is exact too
    from gmpy2 import mpz as _mpz
except ImportError:  # pragma: no cover
    def _mpz(x):
        return x


class NoSignChange(Exception):
    """The scan found no determinant sign change in the bracket."""

    def __init__(self, msg, D=None):
        super().__init__(msg)
        self.D = D


class MultipleRootsWarning(UserWarning):
    """More than one sign change in the scan; nearest-to-guess root used."""


@dataclass(frozen=True)
class HankelConfig:
    seed: float
    d: int = 1
    D_max: int = 30
    bracket_halfwidth: float = 0.0  # 0 -> default 0.5*|seed|
    tol: float = 1e-10
    scan_points: int = 129
    # sequence settles when 3 consecutive |alpha_D - alpha_prev| fall below
    # this; the exact-crossing scatter is ~1e-6, so the bisection tol is
    # not a usable yardstick here
    seq_tol: float = 3e-5

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be >= 1")
        if self.D_max < 2:
            raise ValueError("D_max must be >= 2")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.scan_points < 3:
            raise ValueError("scan_points must be >= 3")

    @property
    def halfwidth(self) -> float:
        if self.bracket_halfwidth > 0:
            return self.bracket_halfwidth
        return 0.5 * abs(self.seed)


@dataclass
class RootSequence:
    roots: list[tuple[int, float]] = field(default_factory=list)
    converged: bool = False
    alpha_star: float = math.nan
    deltas: list[float] = field(default_factory=list)
    skipped: list[int] = field(default_factory=list)  # D with no nearby root


def _check_order(table: TaylorTable, d: int, D: int) -> None:
    if table.order < 2 * D + d:
        raise ValueError(
            f"table order {table.order} < 2D+d = {2 * D + d}; build a longer table")


def hankel_entries(table: TaylorTable, d: int, D: int) -> list[list[AlphaPolynomial]]:
    """The D x D matrix with entry (i,j) = f_{i+j+d}, i,j = 1..D."""
    _check_order(table, d, D)
    return [[table.entries[i + j + d] for j in range(1, D + 1)]
            for i in range(1, D + 1)]


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
    if n == 1:
        v = A[0][0]
        return 0 if v == 0 else (1 if v > 0 else -1)
    A = [[_mpz(x) for x in row] for row in A]
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


def _hankel_sequence(table: TaylorTable, d: int, D: int, alpha: Fraction) -> list:
    """Integers c_0 .. c_{2D-2}, c_t = Q f_{t+d+2}(alpha) for one Q > 0, so
    det[c_{i+j}] has the sign of the Hankel determinant. Horner runs on
    numerators: with alpha = a/b, an entry sum p_i alpha^i / L of degree
    n-1 is (sum p_i a^i b^(n-1-i)) / (L b^(n-1))."""
    a, b = alpha.numerator, alpha.denominator
    forms = table.cleared[d + 2:2 * D + d + 1]
    top = max(len(ps) for ps, _ in forms)
    bpow = [1]
    for _ in range(top):
        bpow.append(bpow[-1] * b)
    Q = math.lcm(*(L for _, L in forms))
    out = []
    for ps, L in forms:
        n = len(ps)
        acc = 0
        for i in range(n - 1, -1, -1):
            acc = acc * a + ps[i] * bpow[n - 1 - i]
        out.append(_mpz(acc * (Q // L) * bpow[top - n]))
    return out


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


def det_sign_at(table: TaylorTable, d: int, D: int, alpha: Fraction) -> int:
    """Exact sign of the Hankel determinant at a rational alpha."""
    _check_order(table, d, D)
    return _condensation_sign(_hankel_sequence(table, d, D, Fraction(alpha)))


def find_root(table: TaylorTable, cfg: HankelConfig, D: int, guess: float) -> float:
    """Locate a root of the Hankel determinant near `guess`.

    Scans dyadic points across [guess - w, guess + w] for a sign change,
    then bisects with exact signs at dyadic midpoints until the bracket
    width is <= cfg.tol. Floats are exactly dyadic, so every evaluation
    point stays an exact rational.
    """
    w = cfg.halfwidth
    n = cfg.scan_points
    # snap the scan onto a power-of-two grid: short dyadic evaluation
    # points keep the exact determinant arithmetic cheap, and bisection
    # midpoints then grow only one bit per step
    g = max(0, -math.floor(math.log2(2 * w / (n - 1))))
    lo_i = math.floor((guess - w) * 2 ** g)
    hi_i = math.ceil((guess + w) * 2 ** g)
    pts = [Fraction(i, 2 ** g) for i in range(lo_i, hi_i + 1)]
    n = len(pts)
    signs = [det_sign_at(table, cfg.d, D, p) for p in pts]

    brackets = []
    for i in range(n - 1):
        if signs[i] == 0:
            brackets.append((pts[i], pts[i]))
        elif signs[i] * signs[i + 1] < 0:
            brackets.append((pts[i], pts[i + 1]))
    if signs[-1] == 0:
        brackets.append((pts[-1], pts[-1]))
    if not brackets:
        raise NoSignChange(
            f"no sign change of H_{D}^{cfg.d} in "
            f"[{guess - w:g}, {guess + w:g}]; widen bracket or adjust seed", D=D)
    if len(brackets) > 1:
        warnings.warn(
            f"{len(brackets)} sign changes for D={D}; using the root closest "
            "to the guess", MultipleRootsWarning)
        brackets.sort(key=lambda br: abs(float(br[0] + br[1]) / 2 - guess))
    lo, hi = brackets[0]
    if lo == hi:
        return float(lo)
    slo = det_sign_at(table, cfg.d, D, lo)
    while float(hi - lo) > cfg.tol:
        mid = (lo + hi) / 2
        sm = det_sign_at(table, cfg.d, D, mid)
        if sm == 0:
            return float(mid)
        if sm == slo:
            lo = mid
        else:
            hi = mid
    return float((lo + hi) / 2)


def alpha_sequence(params: ModelParams, cfg: HankelConfig) -> RootSequence:
    """Track the convergent root sequence alpha_D for D = 2 .. D_max.

    Continuation: each D is seeded with the previous root (cfg.seed to
    start). At some dimensions the determinant has no real root near the
    physical value (the root pair moves off the real axis); such D are
    recorded in `skipped` and the seed is kept. Once deltas are
    available the search bracket is shrunk to the recent step size, which
    both keeps the exact arithmetic affordable at large D and excludes
    spurious far-away roots from derailing the continuation. Stops early
    when three consecutive deltas fall below cfg.seq_tol.
    """
    table = taylor_table(params, 2 * cfg.D_max + cfg.d)
    seq = RootSequence()
    guess = cfg.seed
    level = cfg
    misses = 0
    last_err = None
    for D in range(2, cfg.D_max + 1):
        # persistent misses suggest the window went too tight
        attempt = level if misses < 2 else replace(
            level, bracket_halfwidth=min(cfg.halfwidth,
                                         2 ** (misses // 2) * level.halfwidth))
        try:
            root = find_root(table, attempt, D, guess)
        except NoSignChange as e:
            last_err = e
            seq.skipped.append(D)
            misses += 1
            continue
        misses = 0

        if seq.roots:
            seq.deltas.append(abs(root - seq.roots[-1][1]))
        seq.roots.append((D, root))
        guess = root

        if len(seq.deltas) >= 3 and all(dl < cfg.seq_tol for dl in seq.deltas[-3:]):
            seq.converged = True
            break

        # shrink the next bracket to the observed step size
        if seq.deltas:
            w = min(cfg.halfwidth, max(32 * seq.deltas[-1], 1e-4))
            level = replace(cfg, bracket_halfwidth=w, scan_points=17)
    if not seq.roots:
        raise NoSignChange(
            f"no Hankel root found near the seed for any D up to {cfg.D_max}",
            D=getattr(last_err, "D", cfg.D_max))
    if seq.converged or not seq.deltas:
        seq.alpha_star = seq.roots[-1][1]
    else:
        # not settled: the root sequence can wander off again after its
        # best approach (spurious roots at high D); report the estimate
        # where consecutive roots agreed best
        i = min(range(len(seq.deltas)), key=seq.deltas.__getitem__)
        seq.alpha_star = seq.roots[i + 1][1]
    return seq
