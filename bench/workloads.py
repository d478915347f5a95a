"""Workload inputs (from the seed), the calls that run them, and the
correctness gate that checks every output against a reference.

Each workload maps to (rounds, run, check). `rounds(seed)` yields lists
of cases; a run measures whole rounds, so every run holds the same mix
of cases. A case is one timed call: a `solve` for paper-solve, one
two-point `scan` for scan-sweep, one parameter point for shoot-profile.
`check` turns a case's raw output into an `Outcome`; a point fails when
it raises an error its input does not explain, when an answer is wrong
or when a verdict is wrong. Failures of the two kinds that are
known defects of the scan at Dmax 14 (wrong Hankel alpha, false
`monotone` verdict) are marked `known`; they count as failed like every
other failure, but do not by themselves make the run incorrect.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
import warnings
from dataclasses import dataclass, field

from mhdsheet import ansatz, cli, hankel, ivp
from mhdsheet.model import ModelParams

# the paper's value for M = 2, m = 2, s = 1.8, which the Hankel sequence
# and shooting both reproduce to better than 1e-6
PAPER_ALPHA = 4.20411340
PAPER_TOL = 1e-6
# acceptance criterion 1's accuracy for a Hankel root with D <= 15
SCAN_DMAX = 14
SCAN_TOL = 1e-4
# the auto eta_max puts exp(-beta eta) at 4.5e-5, so a converged profile
# ends near that; 1e-3 leaves room for the growing mode excited by the
# 1e-8 shooting bracket
TAIL_TOL = 1e-3
RK_AGREE_TOL = 1e-6
GENERAL_N = 4


def oracle_alpha(M: float, m: float, s: float):
    """Exact f''(0) where a closed form exists, else None.

    m = 1: f' = -exp(-beta eta) solves the ODE exactly, with beta the
    N=1 decay rate (sqrt(4M^2 + s^2 - 4) + s) / 2.
    m = 0: g = f' obeys g'' = M^2 g + g^2, whose first integral
    g'^2 = M^2 g^2 + 2 g^3 / 3 at eta = 0 gives alpha = sqrt(M^2 - 2/3).
    """
    if m == 1:
        return (math.sqrt(4 * M * M + s * s - 4) + s) / 2
    if m == 0:
        return math.sqrt(M * M - 2 / 3)
    return None


@dataclass
class Outcome:
    points: int
    failures: list = field(default_factory=list)   # (label, known, reason)
    alpha_errs: list = field(default_factory=list)
    shoot_errs: list = field(default_factory=list)
    multi_root_choices: int = 0

    def fail(self, label, reason, known=False):
        self.failures.append((label, known, reason))


def _draw(rng: random.Random, lo: float, hi: float) -> str:
    """A two-decimal number in [lo, hi] whose lowest-terms denominator is
    100, so that every drawn point carries rationals of the same size
    into the exact arithmetic (cost grows with those denominators)."""
    while True:
        k = rng.randint(round(lo * 100), round(hi * 100))
        if math.gcd(k, 100) == 1:
            return f"{k // 100}.{k % 100:02d}"


def run_cli(argv) -> tuple[int, str, int]:
    """Run the CLI in-process; return exit code, stdout text and the
    number of MultipleRootsWarnings it raised."""
    buf = io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
    multi = sum(issubclass(w.category, hankel.MultipleRootsWarning) for w in caught)
    return rc, buf.getvalue(), multi


# -- paper-solve ---------------------------------------------------------

PAPER_ARGV = ["solve", "--M", "2", "--m", "2", "--s", "1.8"]


def paper_rounds(seed: int):
    # the paper's headline case; the seed does not change it
    while True:
        yield [PAPER_ARGV]


def paper_check(argv, raw) -> Outcome:
    rc, text, multi = raw
    out = Outcome(points=1, multi_root_choices=multi)
    try:
        _check_solve(out, rc, json.loads(text))
    except (ValueError, KeyError, TypeError) as e:
        out.fail("paper", f"unreadable solve output: {e!r}")
    return out


def _check_solve(out: Outcome, rc: int, res: dict):
    converged = res["alpha_hankel"]["converged"]
    if rc != 0 or not converged:
        out.fail("paper", f"exit code {rc}, converged={converged}")
    alpha_h = res["alpha_hankel"]["value"]
    err = abs(alpha_h - PAPER_ALPHA)
    out.alpha_errs.append(err)
    if err > PAPER_TOL:
        out.fail("paper", f"Hankel alpha {alpha_h} off by {err:.2e}")
    alpha_s = res["alpha_shooting"]
    if alpha_s is None:
        out.fail("paper", "no shooting alpha")
    else:
        serr = abs(alpha_s - PAPER_ALPHA)
        out.shoot_errs.append(serr)
        if serr > PAPER_TOL:
            out.fail("paper", f"shooting alpha {alpha_s} off by {serr:.2e}")
    if res["monotone_fp"] is not True:
        out.fail("paper", f"monotone_fp={res['monotone_fp']}, the paper's profile is monotone")


# -- scan-sweep ----------------------------------------------------------

# scan-sweep panel: (swept parameter, base M, base s, start of the range).
# Sweeping s holds m = 1, sweeping M holds m = 0, and sweeping m runs from
# 0 to 1, so every point belongs to an exact-solution family.
SCAN_PANEL = (
    ("s", "1.51", None, "1.09"), ("M", None, "1.29", "1.31"),
    ("m", "1.63", "1.87", None), ("s", "2.49", None, "1.71"),
    ("M", None, "2.21", "2.09"), ("m", "2.71", "1.23", None),
)


def scan_rounds(seed: int):
    """Two-point scans over a fixed panel that covers both families and
    the range M in [1.31, 2.71], s in [1.09, 2.31]; M >= 1.2 keeps the N=1
    decay rate real and M^2 > 2/3. Every value is a two-decimal number in
    lowest terms over 100. One round is the whole panel; the seed sets the
    order of its six scans in each round.

    The points are fixed because at Dmax 14 the cost of a point is rough
    in its inputs: moving one value by 0.02 changes a scan's time by up to
    2x (where the sequence converges early), and a run holds one round of
    12 points. With every base value and range start drawn within 0.02 of
    this panel, one round took 27.7-36.7 s over seeds 1-8, a spread as
    wide as the 25% bound; with the points fixed, a round costs the same
    work for every seed, and what remains is the host's own variance.

    Two points per scan keep every swept value a two-decimal number: the
    scan computes interior values in floats, and one such as
    2.1500000000000004 enters the exact arithmetic through its repr and
    makes that point several times slower, so run cost would depend on
    float rounding rather than on the method."""
    rng = random.Random(seed)
    while True:
        panel = list(SCAN_PANEL)
        rng.shuffle(panel)
        yield [_panel_scan(*scan) for scan in panel]


def _panel_scan(kind, M, s, start):
    if kind == "m":
        base, span = {"M": M, "m": "0", "s": s}, ("0", "1")
    else:
        span = (start, f"{float(start) + 0.6:.2f}")
        base = ({"M": M, "m": "1", "s": start} if kind == "s"
                else {"M": start, "m": "0", "s": s})
    return ["scan", "--M", base["M"], "--m", base["m"], "--s", base["s"],
            "--sweep", kind, "--start", span[0], "--stop", span[1],
            "--count", "2", "--Dmax", str(SCAN_DMAX)]


def scan_points(argv) -> int:
    return int(argv[argv.index("--count") + 1])


def scan_check(argv, raw) -> Outcome:
    rc, text, multi = raw
    count = scan_points(argv)
    out = Outcome(points=count, multi_root_choices=multi)
    rows = list(csv.DictReader(io.StringIO(text)))
    if rc != 0 or len(rows) != count:
        for i in range(count):
            out.fail(f"scan point {i}", f"exit code {rc}, {len(rows)} rows")
        return out
    base = {k: float(argv[argv.index("--" + k) + 1]) for k in ("M", "m", "s")}
    for row in rows:
        try:
            _check_scan_row(out, base, row)
        except (ValueError, KeyError) as e:
            out.fail(f"scan row {row}", f"unreadable scan row: {e!r}")
    return out


def _check_scan_row(out: Outcome, base: dict, row: dict):
    p = dict(base)
    p[row["sweep_param"]] = float(row["value"])
    label = "M={M:g} m={m:g} s={s:g}".format(**p)
    ref = oracle_alpha(p["M"], p["m"], p["s"])
    status = row["status"]
    if status in ("NoSignChange", "Blowup", "StepUnderflow"):
        # no Hankel root near the seed, or a profile integrated from a
        # wrong Hankel alpha: the Hankel answer at Dmax 14 is at fault
        out.fail(label, f"status {status}", known=True)
        return
    if status not in ("ok", "NoPhysicalRoot") and not (
            status == "RequiresNonzeroM" and p["m"] == 0):
        out.fail(label, f"status {status}")
        return
    if p["m"] == 1 and abs(float(row["alpha_ansatz1"]) - ref) > 1e-9 * (1 + ref):
        out.fail(label, f"N=1 alpha {row['alpha_ansatz1']} is not the exact {ref:.12g}")
    err = abs(float(row["alpha_hankel"]) - ref)
    out.alpha_errs.append(err)
    if err > SCAN_TOL:
        out.fail(label, f"Hankel alpha {row['alpha_hankel']} vs exact {ref:.12g}"
                 f" (error {err:.2e})", known=True)
    elif row["monotone"] != "true":
        out.fail(label, f"monotone={row['monotone']}, exact profile is monotone",
                 known=True)


# -- shoot-profile -------------------------------------------------------

def shoot_rounds(seed: int):
    """Rounds of three points, one each with m = 0, m = 1 (exact
    references) and a general m in [0.5, 2.5], with M in [1.2, 3] and s in
    [1, 2.5]; every one has a real N=1 decay rate."""
    rng = random.Random(seed)
    while True:
        yield [ModelParams(M=float(_draw(rng, 1.2, 3.0)), m=m,
                           s=float(_draw(rng, 1.0, 2.5)))
               for m in (0.0, 1.0, float(_draw(rng, 0.5, 2.5)))]


def shoot_run(params: ModelParams):
    """solve_n1, solve_n2, solve_general, then shooting around the
    ansatz estimate and both integrators at the shot alpha."""
    try:
        res = {"n1": ansatz.solve_n1(params)}
        try:
            res["n2"] = ansatz.solve_n2(params)
        except (ansatz.RequiresNonzeroM, ansatz.NoPhysicalRoot):
            pass  # explained by the input (m = 0, or no decaying N=2 root)
        est = ansatz.solve_general(params, GENERAL_N).alpha_est
        w = 0.1 * max(1.0, abs(est))
        res["alpha"] = alpha = ivp.shoot_refine(params, (est - w, est + w))
        for method in ("rk45", "rk4"):
            prof = ivp.integrate(params, alpha, ivp.IntegratorConfig(method=method))
            res[method] = (prof, ivp.monotonicity_report(prof))
    except Exception as e:  # any error here is a failed point, not a crash
        res["error"] = e
    return res


def shoot_check(params: ModelParams, res) -> Outcome:
    out = Outcome(points=1)
    label = f"M={params.M:g} m={params.m:g} s={params.s:g}"
    if "error" in res:
        out.fail(label, f"{type(res['error']).__name__}: {res['error']}")
        return out
    alpha = res["alpha"]
    ref = oracle_alpha(params.M, params.m, params.s)
    if params.m == 1 and abs(res["n1"].alpha_est - ref) > 1e-9 * (1 + ref):
        out.fail(label, f"N=1 alpha {res['n1'].alpha_est!r} is not the exact {ref!r}")
    if ref is not None:
        err = abs(alpha - ref)
        out.alpha_errs.append(err)
        out.shoot_errs.append(err)
        if err > PAPER_TOL:
            out.fail(label, f"shooting alpha {alpha!r} vs exact {ref!r}")
    (p45, r45), (p4, r4) = res["rk45"], res["rk4"]
    for name, prof in (("rk45", p45), ("rk4", p4)):
        if not abs(prof.tail_fp) <= TAIL_TOL:
            out.fail(label, f"{name} tail f'={prof.tail_fp:.2e} misses f'(inf)=0")
    if len(p45.rows) != len(p4.rows):
        out.fail(label, "rk45 and rk4 profiles sampled on different grids")
    else:
        dev = max(abs(a[2] - b[2]) for a, b in zip(p45.rows, p4.rows))
        if not dev <= RK_AGREE_TOL:
            out.fail(label, f"rk45 and rk4 f' differ by {dev:.2e}")
    if r45.monotone != r4.monotone:
        out.fail(label, "rk45 and rk4 disagree on monotonicity")
    elif ref is not None and not r45.monotone:
        out.fail(label, "exact profile is monotone, verdict says not")
    return out


WORKLOADS = {
    "paper-solve": (paper_rounds, run_cli, paper_check),
    "scan-sweep": (scan_rounds, run_cli, scan_check),
    "shoot-profile": (shoot_rounds, shoot_run, shoot_check),
}

