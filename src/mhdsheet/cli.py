"""Command-line front end.

Subcommands:
  solve    -- alpha from the Hankel sequence, shooting cross-check and the
              N=1/N=2 analytical estimates; JSON summary on stdout.
  profile  -- CSV of f'(eta) from the numerical profile and both ansatz
              orders, ready for re-plotting.
  scan     -- parameter sweep; one CSV row per point.

All three format the result of one pipeline, `_run`: the N=1 and N=2
ansatz solutions, the Hankel alpha from the sequence seeded with the N=1
beta (unless `profile --alpha` gives it), the profile integrated from
that alpha and the `STOP_ERRORS` member that stopped it, if any. The
Hankel flags --d, --Dmax and --tol are exactly `hankel.HankelConfig`.

Output is deterministic: 12 significant digits, lowercase JSON keys, LF
line endings. Exit codes: 0 success/converged, 1 usage or I/O error
(a flag value out of bounds or past the float range prints
`error: <message>` on stderr; every flag is checked before any stage
runs), 2 computation finished without convergence or stopped on a named
error (printed as `error: <Name>: <message>` on stderr; `scan` writes
the name in the row's status).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import ansatz, hankel, ivp
from .model import ModelParams

# the named errors that stop the pipeline: `solve` and `profile` report
# them with exit code 2, `scan` as the status of the point's row
STOP_ERRORS = (ansatz.ComplexDecay, hankel.NoSignChange, ivp.Blowup,
               ivp.StepUnderflow)


class UsageError(Exception):
    """A flag value outside the bound that its config class or
    `ivp.integrate` enforces, or an output that cannot be written."""


def _checked(make, *args, **kwargs):
    """make(*args, **kwargs), with its ValueError (a flag value out of
    bounds) raised as a UsageError."""
    try:
        return make(*args, **kwargs)
    except ValueError as e:
        raise UsageError(str(e)) from None


def _num(x):
    """Round-trip a float through 12 significant digits."""
    return float(f"{float(x):.12g}")


def _fmt(x) -> str:
    return f"{float(x):.12g}"


def _parse_exact(text: str) -> Fraction:
    try:
        x = Fraction(text)
    except (ValueError, ZeroDivisionError) as e:
        raise argparse.ArgumentTypeError(f"not a decimal number: {text!r}") from e
    if abs(x) > sys.float_info.max:
        raise argparse.ArgumentTypeError(f"does not fit a float: {text!r}")
    return x


def _params(args) -> ModelParams:
    return ModelParams(M=float(args.M), m=float(args.m), s=float(args.s))


def _hankel_config(args) -> hankel.HankelConfig:
    """The Hankel flags, checked before any stage runs; `_run` seeds the
    sequence with the N=1 beta."""
    return _checked(hankel.HankelConfig, d=args.d, D_max=args.Dmax,
                    tol=args.tol)


def _add_common_flags(p):
    """Parameters, Hankel flags and --out, shared by every subcommand."""
    p.add_argument("--M", type=_parse_exact, required=True,
                   help="Hartmann number (decimal)")
    p.add_argument("--m", type=_parse_exact, required=True,
                   help="model parameter m (decimal)")
    p.add_argument("--s", type=_parse_exact, required=True,
                   help="suction parameter (decimal)")
    p.add_argument("--d", type=int, default=hankel.HankelConfig.d,
                   help="Hankel offset: entries f_{i+j+d}, i.e. H_D^(d+1) in "
                        "Hankel-Pade notation; -1 (default) starts at f_1")
    p.add_argument("--Dmax", type=int, default=hankel.HankelConfig.D_max,
                   help="maximum Hankel dimension")
    p.add_argument("--tol", type=float, default=hankel.HankelConfig.tol,
                   help="bisection tolerance on alpha")
    p.add_argument("--out", default=None, help="output path (default stdout)")


def _ansatz_block(sol: ansatz.AnsatzSolution) -> dict:
    return {
        "beta": _num(sol.beta),
        "b": [_num(x) for x in sol.b],
        "alpha_est": _num(sol.alpha_est),
    }


def _max_dev(sol: ansatz.AnsatzSolution, prof: ivp.Profile) -> float:
    """Largest |f'| gap between an ansatz and the profile on eta <= 5."""
    return _num(max(abs(r[2] - ansatz.eval_ansatz(sol, r[0], 1))
                    for r in prof.rows if r[0] <= 5.0))


@dataclass
class _Run:
    """The pipeline's stage outputs; a stage that did not run leaves None."""
    a1: Optional[ansatz.AnsatzSolution] = None
    a2: Optional[ansatz.AnsatzSolution] = None
    a2_error: Optional[Exception] = None  # why there is no N=2 solution
    seq: Optional[hankel.RootSequence] = None
    prof: Optional[ivp.Profile] = None
    error: Optional[Exception] = None  # the STOP_ERRORS member that stopped it


def _run(params: ModelParams, hcfg: hankel.HankelConfig,
         icfg: ivp.IntegratorConfig, alpha: Optional[float] = None) -> _Run:
    """Seeds (N=1, N=2) -> Hankel alpha, unless `alpha` is given ->
    profile integrated from that alpha."""
    run = _Run()
    try:
        run.a1 = ansatz.solve_n1(params)
        try:
            run.a2 = ansatz.solve_n2(params)
        except (ansatz.RequiresNonzeroM, ansatz.NoPhysicalRoot) as e:
            run.a2_error = e
        if alpha is None:
            run.seq = hankel.alpha_sequence(params, hcfg, run.a1.beta)
            alpha = run.seq.alpha_star
        run.prof = _checked(ivp.integrate, params, alpha, icfg)
    except STOP_ERRORS as e:
        run.error = e
    return run


def cmd_solve(args) -> int:
    params = _params(args)
    run = _run(params, _hankel_config(args), ivp.IntegratorConfig())
    if run.error:
        raise run.error
    seq, a2_error = run.seq, run.a2_error
    warnings = [f"ansatz2: {type(a2_error).__name__}: {a2_error}"] if a2_error else []
    try:
        w = 0.05 * max(1.0, abs(seq.alpha_star))
        alpha_shooting = _num(ivp.shoot_refine(
            params, (seq.alpha_star - w, seq.alpha_star + w)))
    except (ivp.BadBracket, ivp.Blowup, ivp.StepUnderflow) as e:
        alpha_shooting = None
        warnings.append(f"shooting: {type(e).__name__}: {e}")

    out = {
        "schema": 1,
        "params": {"m_hartmann": _num(params.M), "m_coeff": _num(params.m),
                   "s": _num(params.s)},
        "ansatz1": _ansatz_block(run.a1),
        "ansatz2": (_ansatz_block(run.a2) if run.a2
                    else {"error": type(a2_error).__name__}),
        "alpha_hankel": {
            "value": _num(seq.alpha_star),
            "converged": seq.converged,
            "d_reached": seq.roots[-1][0],
        },
        "alpha_shooting": alpha_shooting,
        "agreement": {f"ansatz{n}_max_dev": _max_dev(sol, run.prof)
                      for n, sol in ((1, run.a1), (2, run.a2)) if sol},
        "monotone_fp": ivp.monotonicity_report(run.prof).monotone,
        "warnings": warnings,
    }
    _write_out(args.out, json.dumps(out, indent=2) + "\n")
    return 0 if seq.converged else 2


def cmd_profile(args) -> int:
    try:
        eta_max = None if args.eta_max == "auto" else float(args.eta_max)
    except ValueError:
        raise UsageError(f"--eta-max must be a decimal or 'auto', "
                         f"got {args.eta_max!r}") from None
    # checked before the Hankel sequence, which takes seconds
    icfg = _checked(ivp.IntegratorConfig, eta_max=eta_max,
                    sample_stride=args.stride)
    run = _run(_params(args), _hankel_config(args), icfg, args.alpha)
    if run.error:
        raise run.error
    lines = ["eta,fp_numeric,fp_ansatz1,fp_ansatz2"]
    for eta, _, fp, _ in run.prof.rows:
        c1 = _fmt(ansatz.eval_ansatz(run.a1, eta, 1))
        c2 = _fmt(ansatz.eval_ansatz(run.a2, eta, 1)) if run.a2 else ""
        lines.append(f"{_fmt(eta)},{_fmt(fp)},{c1},{c2}")
    _write_out(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_scan(args) -> int:
    if args.count < 1:
        raise UsageError("--count must be >= 1")
    hcfg = _hankel_config(args)
    base = {"M": float(args.M), "m": float(args.m), "s": float(args.s)}
    # exact grid: in floats the midpoint of 1.85 .. 2.45 is
    # 2.1500000000000004, which the exact arithmetic would take literally
    start, stop, count = args.start, args.stop, args.count
    values = [start + (stop - start) * Fraction(i, count - 1)
              for i in range(count)] if count > 1 else [start]

    lines = ["sweep_param,value,alpha_hankel,alpha_ansatz1,alpha_ansatz2,"
             "monotone,status"]
    for v in values:
        params = ModelParams(**{**base, args.sweep: float(v)})
        run = _run(params, hcfg, ivp.IntegratorConfig())
        # a column is blank when its stage did not run
        status = run.error or run.a2_error
        lines.append(",".join([
            args.sweep, _fmt(v),
            _fmt(run.seq.alpha_star) if run.seq else "",
            _fmt(run.a1.alpha_est) if run.a1 else "",
            _fmt(run.a2.alpha_est) if run.a2 else "",
            str(ivp.monotonicity_report(run.prof).monotone).lower()
            if run.prof else "",
            type(status).__name__ if status else "ok"]))
    _write_out(args.out, "\n".join(lines) + "\n")
    return 0


def _write_out(path, text: str):
    try:
        if path:
            with open(path, "w", newline="\n") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except OSError as e:
        raise UsageError(str(e)) from None


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mhdsheet",
        description="Solver for the MHD shrinking-sheet similarity equation")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="determine f''(0) and summarize")
    _add_common_flags(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("profile", help="CSV profile of f'(eta)")
    _add_common_flags(p)
    p.add_argument("--alpha", type=float, default=None,
                   help="use this f''(0) instead of solving for it")
    p.add_argument("--eta-max", dest="eta_max", default="auto",
                   help="integration endpoint, decimal or 'auto'")
    p.add_argument("--stride", type=float, default=0.01,
                   help="output sampling interval in eta")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("scan", help="sweep one parameter")
    _add_common_flags(p)
    p.add_argument("--sweep", choices=("M", "m", "s"), required=True)
    p.add_argument("--start", type=_parse_exact, required=True)
    p.add_argument("--stop", type=_parse_exact, required=True)
    p.add_argument("--count", type=int, required=True)
    p.set_defaults(func=cmd_scan)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 1 if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except STOP_ERRORS as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
