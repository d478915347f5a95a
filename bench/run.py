"""mhdsheet benchmark: one workload per run, end-to-end or traced.

    python3 bench/run.py --workload paper-solve --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports the package from
`src/`. The last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; the lines before it give every metric
by name with its unit and sample count, each failed point, and the
environment. See bench/README.md for the workloads and metrics.

--trace 0 measures the end-to-end metrics with no tracing. --trace 1 runs
a fixed, seed-determined set of cases twice, untraced and then traced,
reports the per-layer metrics from the spans plus the tracing overhead,
and probes one exact determinant sign at D = 10, 20 and 30.
"""

from __future__ import annotations

import argparse
import os
import sys

# one thread: pin the BLAS pools before numpy is imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REPS = 5
# rounds in the traced run; fixed, so every count repeats exactly
TRACE_ROUNDS = {"paper-solve": 1, "scan-sweep": 1, "shoot-profile": 4}
# a fixed dyadic near the paper's alpha, with 24 fractional bits: the size
# of a point midway through find_root's bisection
PROBE_ALPHA = Fraction(round(4.2041134 * 2 ** 24), 2 ** 24)
PROBE_REPS = {10: 9, 20: 5, 30: 3}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "mhdsheet" / "__init__.py").is_file():
        print(f"error: no mhdsheet package under {SRC}; run from a source "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    report_env()
    if args.trace:
        result = traced_run(workloads, args.workload, args.seed)
    else:
        result = timed_run(workloads, args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


def report_env():
    import numpy
    import scipy
    env = {
        "python": platform.python_version(),
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_pins": {v: os.environ[v] for v in THREAD_VARS},
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    print("env: " + json.dumps(env, sort_keys=True))
    if env["gmpy2"]:
        print("note: gmpy2 is present; never compare these numbers with "
              "runs made without it")


# -- measurement -------------------------------------------------------------

def measure_setup() -> list[float]:
    """Import time of mhdsheet (which loads numpy and scipy) in fresh
    interpreters, measured inside each."""
    code = ("import time; t = time.perf_counter(); import mhdsheet; "
            "print(repr(time.perf_counter() - t))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = []
    for _ in range(SETUP_REPS):
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120,
                              check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def run_cases(workloads, name, cases, tracer=None):
    """Run each case, timing it from outside; check outputs afterwards.
    Returns per-point times, outcomes and total wall time."""
    _, run, check = workloads.WORKLOADS[name]
    times, outcomes, wall = [], [], 0.0
    for case in cases:
        t0 = time.perf_counter()
        if tracer is None:
            raw = run(case)
        else:
            with tracer.span("cli.main" if name != "shoot-profile" else "case"):
                raw = run(case)
        dt = time.perf_counter() - t0
        wall += dt
        outcome = check(case, raw)
        times.extend([dt / outcome.points] * outcome.points)
        outcomes.append(outcome)
    return times, outcomes, wall


def timed_cases(workloads, name, seed, seconds):
    """Cases of whole rounds from the seeded sequence, until the next
    round, predicted to take as long as the last, would overrun the
    measuring time."""
    rounds, _, _ = workloads.WORKLOADS[name]
    spent, last = 0.0, 0.0
    for cases in rounds(seed):
        if spent and spent + last > seconds:
            return
        t0 = time.perf_counter()
        yield from cases
        last = time.perf_counter() - t0
        spent += last


def tail(times: list[float]) -> str:
    """Highest standard percentile with at least ten samples beyond it."""
    n = len(times)
    best = None
    for p in (50, 75, 90, 95, 99, 99.9):
        if n * (1 - p / 100) >= 10:
            best = p
    if best is None:
        return "no percentile has 10 samples beyond it"
    q = statistics.quantiles(times, n=1000, method="inclusive")[round(best * 10) - 1]
    return f"p{best:g} {q:.6g} s"


def summarize(outcomes) -> dict:
    """Failed points (a point counts once however many checks it fails),
    failures outside the known defects, and the reference errors."""
    failures = [f for o in outcomes for f in o.failures]
    for label, known, reason in dict.fromkeys(failures):
        print(f"failed point: {label}: {reason}" + (" [known defect]" if known else ""))
    return {"attempted": sum(o.points for o in outcomes),
            "failed": sum(len({f[0] for f in o.failures}) for o in outcomes),
            "unexpected": sum(not known for _, known, _ in failures),
            "alpha_errs": [e for o in outcomes for e in o.alpha_errs],
            "shoot_errs": [e for o in outcomes for e in o.shoot_errs]}


def print_metric(name, value, unit, note=""):
    print(f"{name}: {value:.6g} {unit}" + (f"  ({note})" if note else ""))


def timed_run(workloads, name, seed, seconds) -> dict:
    setup = measure_setup()
    times, outcomes, wall = run_cases(
        workloads, name, timed_cases(workloads, name, seed, seconds))
    s = summarize(outcomes)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": (statistics.median(setup), "s",
                    f"median of {len(setup)} fresh imports"),
        "case_s": (statistics.median(times), "s",
                   f"median of n={len(times)} points; tail: {tail(times)}"),
        "cases_per_s": (len(times) / wall, "1/s",
                        f"{len(times)} points in {wall:.3f} s"),
        "peak_rss_mb": (rss_mb, "MB", "peak resident set of this process"),
    }
    for k, (v, unit, note) in metrics.items():
        print_metric(k, v, unit, note)
    print_errors(name, s)
    return {"correct": s["unexpected"] == 0, "attempted": s["attempted"],
            "failed": s["failed"],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}}


def print_errors(name, s):
    for key, label in (("alpha_errs", "alpha_err_max"), ("shoot_errs", "shoot_err_max")):
        errs = s[key]
        if errs:
            print_metric(label, max(errs), "1", f"over n={len(errs)} points with a reference")
        else:
            print(f"{label}: n/a (no {'shooting ' if key == 'shoot_errs' else ''}"
                  f"alpha with a reference on {name})")
    print_metric("failed_frac", s["failed"] / s["attempted"], "1",
                 f"{s['failed']} of {s['attempted']} points; "
                 f"{s['unexpected']} failures outside the known defects")


# -- traced run --------------------------------------------------------------

def traced_run(workloads, name, seed) -> dict:
    from itertools import islice

    import tracing
    rounds, _, _ = workloads.WORKLOADS[name]
    cases = [c for r in islice(rounds(seed), TRACE_ROUNDS[name]) for c in r]

    plain_times, plain_outcomes, _ = run_cases(workloads, name, cases)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced_times, traced_outcomes, _ = run_cases(workloads, name, cases, tracer)
    finally:
        tracer.uninstall()
    s = summarize(plain_outcomes + traced_outcomes)

    calls, incl, self_ns = tracer.totals()

    def sec(table, key):
        return table.get(key, 0) / 1e9

    roots = sum(len(seq.roots) for _, _, seq in tracer.sequences)
    find_calls = calls.get("hankel.find_root", 0)
    sign_calls = calls.get("hankel.det_sign_at", 0)
    tables = [t for t, _, _ in tracer.sequences if t is not None]
    bits = [tracing.entry_bits(t, cfg.d, seq.roots[-1][0], seq.roots[-1][1])
            for t, cfg, seq in tracer.sequences if t is not None and seq.roots]
    multi = sum(o.multi_root_choices for o in traced_outcomes)
    probe = sign_probe()

    m = {
        "polyseries.taylor_table_s": (sec(incl, "polyseries.taylor_table"), "s"),
        "polyseries.taylor_order": (max((t.order for t in tables), default=0), "count"),
        "polyseries.coeff_bits_max": (max(map(tracing.coeff_bits, tables), default=0), "bits"),
        "polyseries.poly_eval_calls": (tracer.poly_eval_calls, "count"),
        "polyseries.poly_eval_s": (tracer.poly_eval_ns / 1e9, "s"),
        "hankel.alpha_sequence_s": (sec(incl, "hankel.alpha_sequence"), "s"),
        "hankel.find_root_calls": (find_calls, "count"),
        "hankel.find_root_s": (sec(incl, "hankel.find_root"), "s"),
        "hankel.det_sign_calls": (sign_calls, "count"),
        "hankel.det_sign_s": (sec(incl, "hankel.det_sign_at"), "s"),
        "hankel.det_sign_self_s": (sec(self_ns, "hankel.det_sign_at"), "s"),
        "hankel.evals_per_root": (sign_calls / roots if roots else 0.0, "ratio"),
        "hankel.root_yield": (roots / find_calls if find_calls else 0.0, "ratio"),
        "hankel.D_reached": (max((seq.roots[-1][0] for _, _, seq in tracer.sequences
                                  if seq.roots), default=0), "count"),
        "hankel.skipped_D": (sum(len(seq.skipped) for _, _, seq in tracer.sequences), "count"),
        "hankel.multi_root_choices": (multi, "count"),
        "hankel.entry_bits_max": (max(bits, default=0), "bits"),
        "hankel.det_sign_ms.D10": (probe[10], "ms"),
        "hankel.det_sign_ms.D20": (probe[20], "ms"),
        "hankel.det_sign_ms.D30": (probe[30], "ms"),
        "ivp.shoot_refine_s": (sec(incl, "ivp.shoot_refine"), "s"),
        "ivp.trajectories": (tracer.trajectories, "count"),
        "ivp.rhs_evals": (tracer.rhs_evals, "count"),
        "ivp.integrate_rk45_s": (sec(incl, "ivp.integrate_rk45"), "s"),
        "ivp.integrate_rk4_s": (sec(incl, "ivp.integrate_rk4"), "s"),
        "ansatz.solve_n1_s": (sec(incl, "ansatz.solve_n1"), "s"),
        "ansatz.solve_n2_s": (sec(incl, "ansatz.solve_n2"), "s"),
        "ansatz.solve_general_s": (sec(incl, "ansatz.solve_general"), "s"),
        "cli.self_s": (sec(self_ns, "cli.main"), "s"),
        "trace.overhead_s": (statistics.median(traced_times)
                             - statistics.median(plain_times), "s"),
    }
    print(f"traced cases: {len(cases)} ({len(traced_times)} points), "
          f"{len(tracer.spans)} spans; case_s untraced "
          f"{statistics.median(plain_times):.6g} s, traced "
          f"{statistics.median(traced_times):.6g} s")
    print("hankel sign evaluations per D: "
          + json.dumps(dict(sorted(tracer.sign_calls_by_D.items()))))
    for k, (v, unit) in m.items():
        print_metric(k, v, unit)
    print_errors(name, s)
    return {"correct": s["unexpected"] == 0, "attempted": s["attempted"],
            "failed": s["failed"],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in m.items()}}


def sign_probe() -> dict[int, float]:
    """Median ms of one exact determinant sign on the paper's Taylor table
    at a fixed dyadic alpha, at D values no workload need reach."""
    from mhdsheet import hankel, polyseries
    from mhdsheet.model import ModelParams
    table = polyseries.taylor_table(ModelParams(M=2.0, m=2.0, s=1.8),
                                    2 * max(PROBE_REPS) + 1)
    out = {}
    for D, reps in PROBE_REPS.items():
        ts = []
        for _ in range(reps):
            t0 = time.perf_counter()
            hankel.det_sign_at(table, 1, D, PROBE_ALPHA)
            ts.append((time.perf_counter() - t0) * 1e3)
        out[D] = statistics.median(ts)
    return out


if __name__ == "__main__":
    sys.exit(main())
