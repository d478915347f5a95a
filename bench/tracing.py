"""Span recorder installed from outside the package, for the traced run.

`Tracer.install()` replaces each traced public function under every name
it is looked up by (the attribute of each mhdsheet module that is the
original function object), so for example `alpha_sequence` calling
`hankel.taylor_table` goes through the wrapper. A span records name,
start, end and parent; spans stay in memory until the run ends and the
per-layer metrics are derived from them afterwards.

Two hot leaves are aggregated instead of recorded as spans, because they
run hundreds of thousands of times per case: `AlphaPolynomial.__call__`
(count and time, charged to the enclosing span so self times stay exact)
and the derivative function that `ivp.rhs` returns (count only).
"""

from __future__ import annotations

import contextlib
import math
import time
from fractions import Fraction

from mhdsheet import ansatz, cli, hankel, ivp, polyseries

MODULES = (polyseries, hankel, ansatz, ivp, cli)

# traced public functions: (module that defines it, attribute, span name);
# `ivp.integrate` spans are named per integrator method
TRACED = (
    (polyseries, "taylor_table", "polyseries.taylor_table"),
    (hankel, "alpha_sequence", "hankel.alpha_sequence"),
    (hankel, "find_root", "hankel.find_root"),
    (hankel, "det_sign_at", "hankel.det_sign_at"),
    (ansatz, "solve_n1", "ansatz.solve_n1"),
    (ansatz, "solve_n2", "ansatz.solve_n2"),
    (ansatz, "solve_general", "ansatz.solve_general"),
    (ivp, "shoot_refine", "ivp.shoot_refine"),
    (ivp, "integrate", "ivp.integrate"),
    (ivp, "monotonicity_report", "ivp.monotonicity_report"),
)

NAME, START, END, PARENT, LEAF_NS = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start_ns, end_ns, parent, leaf_ns]
        self._stack: list[int] = []
        self.poly_eval_calls = 0
        self.poly_eval_ns = 0
        self.trajectories = 0
        self.rhs_evals = 0
        self.sign_calls_by_D: dict[int, int] = {}
        self.sequences: list[tuple] = []   # (table, cfg, RootSequence)
        self._last_table = None
        self._undo: list[tuple] = []

    # -- span bookkeeping ------------------------------------------------
    @contextlib.contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def _open(self, name: str) -> list:
        rec = [name, 0, 0, self._stack[-1] if self._stack else -1, 0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter_ns()
        return rec

    def _close(self, rec: list):
        rec[END] = time.perf_counter_ns()
        self._stack.pop()

    # -- installation ----------------------------------------------------
    def _patch_everywhere(self, original, wrapper):
        for mod in MODULES:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def install(self):
        for mod, attr, name in TRACED:
            original = getattr(mod, attr)
            self._patch_everywhere(original, self._wrapper(attr, name, original))

        original_rhs = ivp.rhs

        def rhs(params):
            self.trajectories += 1
            deriv = original_rhs(params)

            def counted(eta, y):
                self.rhs_evals += 1
                return deriv(eta, y)
            return counted
        self._patch_everywhere(original_rhs, rhs)

        original_call = polyseries.AlphaPolynomial.__call__

        def poly_call(poly, alpha):
            t0 = time.perf_counter_ns()
            value = original_call(poly, alpha)
            dt = time.perf_counter_ns() - t0
            self.poly_eval_calls += 1
            self.poly_eval_ns += dt
            if self._stack:
                self.spans[self._stack[-1]][LEAF_NS] += dt
            return value
        self._undo.append((polyseries.AlphaPolynomial, "__call__", original_call))
        polyseries.AlphaPolynomial.__call__ = poly_call

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def _wrapper(self, attr, name, fn):
        # every caller in the package passes these arguments positionally
        def traced(*args, **kwargs):
            if attr == "det_sign_at":
                D = args[2]
                self.sign_calls_by_D[D] = self.sign_calls_by_D.get(D, 0) + 1
            rec = self._open(f"ivp.integrate_{args[2].method}"
                             if attr == "integrate" else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if attr == "taylor_table":
                self._last_table = result
            elif attr == "alpha_sequence":
                self.sequences.append((self._last_table, args[1], result))
            return result
        return traced

    # -- derived metrics -------------------------------------------------
    def totals(self) -> tuple[dict[str, int], dict[str, int], dict[str, int]]:
        """Per span name: call count, inclusive ns and self ns. Self time
        is the duration minus direct children and aggregated leaf time."""
        calls: dict[str, int] = {}
        incl: dict[str, int] = {}
        child_ns = [0] * len(self.spans)
        for rec in self.spans:
            if rec[PARENT] >= 0:
                child_ns[rec[PARENT]] += rec[END] - rec[START]
        self_ns: dict[str, int] = {}
        for i, rec in enumerate(self.spans):
            name, dur = rec[NAME], rec[END] - rec[START]
            calls[name] = calls.get(name, 0) + 1
            incl[name] = incl.get(name, 0) + dur
            self_ns[name] = self_ns.get(name, 0) + dur - child_ns[i] - rec[LEAF_NS]
        return calls, incl, self_ns


def coeff_bits(table) -> int:
    """Largest numerator or denominator bit length in a Taylor table."""
    return max((max(abs(c.numerator).bit_length(), c.denominator.bit_length())
                for p in table.entries for c in p.coeffs), default=0)


def entry_bits(table, d: int, D: int, alpha: float) -> int:
    """Largest bit length of the integer Hankel matrix at (D, alpha), each
    rational row cleared by the lcm of its denominators, the form in
    which the exact sign test eliminates it."""
    a = Fraction(alpha)
    bits = 0
    for row in hankel.hankel_entries(table, d, D):
        vals = [p(a) for p in row]
        lcm = math.lcm(*(v.denominator for v in vals))
        bits = max(bits, max(abs(v.numerator * (lcm // v.denominator)).bit_length()
                             for v in vals))
    return bits

