"""Command-line front end.

Subcommands:
  solve    -- alpha from the Hankel sequence, shooting cross-check and the
              N=1/N=2 analytical estimates; JSON summary on stdout.
  profile  -- CSV of f'(eta) from the numerical profile and both ansatz
              orders, ready for re-plotting.
  scan     -- parameter sweep; one CSV row per point.

Output is deterministic: 12 significant digits, lowercase JSON keys, LF
line endings. Exit codes: 0 success/converged, 1 usage or I/O error,
2 computation finished without convergence or stopped on a named error
(printed as `error: <Name>: <message>` on stderr).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import ansatz, hankel, ivp
from .model import ModelParams


def _num(x):
    """Round-trip a float through 12 significant digits."""
    return float(f"{float(x):.12g}")


def _fmt(x) -> str:
    return f"{float(x):.12g}"


def _parse_exact(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as e:
        raise argparse.ArgumentTypeError(f"not a decimal number: {text!r}") from e


def _params(args) -> ModelParams:
    return ModelParams(M=float(args.M), m=float(args.m), s=float(args.s))


def _add_param_flags(p):
    p.add_argument("--M", type=_parse_exact, required=True,
                   help="Hartmann number (decimal)")
    p.add_argument("--m", type=_parse_exact, required=True,
                   help="model parameter m (decimal)")
    p.add_argument("--s", type=_parse_exact, required=True,
                   help="suction parameter (decimal)")


def _add_solver_flags(p):
    p.add_argument("--d", type=int, default=1, help="Hankel offset index")
    p.add_argument("--Dmax", type=int, default=30,
                   help="maximum Hankel dimension")
    p.add_argument("--tol", type=float, default=1e-10,
                   help="bisection tolerance on alpha")


def _ansatz_block(sol: ansatz.AnsatzSolution) -> dict:
    return {
        "beta": _num(sol.beta),
        "b": [_num(x) for x in sol.b],
        "alpha_est": _num(sol.alpha_est),
    }


def _solve_case(params: ModelParams, d: int, D_max: int, tol: float) -> dict:
    warnings: list[str] = []
    out: dict = {
        "schema": 1,
        "params": {"m_hartmann": _num(params.M), "m_coeff": _num(params.m),
                   "s": _num(params.s)},
    }

    a1 = ansatz.solve_n1(params)
    out["ansatz1"] = _ansatz_block(a1)
    try:
        a2 = ansatz.solve_n2(params)
        out["ansatz2"] = _ansatz_block(a2)
    except (ansatz.RequiresNonzeroM, ansatz.NoPhysicalRoot) as e:
        a2 = None
        out["ansatz2"] = {"error": type(e).__name__}
        warnings.append(f"ansatz2: {type(e).__name__}: {e}")

    cfg = hankel.HankelConfig(seed=a1.beta, d=d, D_max=D_max, tol=tol)
    seq = hankel.alpha_sequence(params, cfg)
    out["alpha_hankel"] = {
        "value": _num(seq.alpha_star),
        "converged": seq.converged,
        "d_reached": seq.roots[-1][0],
    }

    try:
        w = 0.05 * max(1.0, abs(seq.alpha_star))
        out["alpha_shooting"] = _num(ivp.shoot_refine(
            params, (seq.alpha_star - w, seq.alpha_star + w)))
    except (ivp.BadBracket, ivp.Blowup, ivp.StepUnderflow) as e:
        out["alpha_shooting"] = None
        warnings.append(f"shooting: {type(e).__name__}: {e}")

    prof = ivp.integrate(params, seq.alpha_star, ivp.IntegratorConfig())
    dev1 = max(abs(r[2] - ansatz.eval_ansatz(a1, r[0], 1))
               for r in prof.rows if r[0] <= 5.0)
    agreement = {"ansatz1_max_dev": _num(dev1)}
    if a2 is not None:
        dev2 = max(abs(r[2] - ansatz.eval_ansatz(a2, r[0], 1))
                   for r in prof.rows if r[0] <= 5.0)
        agreement["ansatz2_max_dev"] = _num(dev2)
    out["agreement"] = agreement
    out["monotone_fp"] = ivp.monotonicity_report(prof).monotone
    out["warnings"] = warnings
    return out


def cmd_solve(args) -> int:
    summary = _solve_case(_params(args), args.d, args.Dmax, args.tol)
    text = json.dumps(summary, indent=2)
    _write_out(args.out, text + "\n")
    return 0 if summary["alpha_hankel"]["converged"] else 2


def cmd_profile(args) -> int:
    params = _params(args)
    a1 = ansatz.solve_n1(params)
    try:
        a2 = ansatz.solve_n2(params)
    except (ansatz.RequiresNonzeroM, ansatz.NoPhysicalRoot):
        a2 = None

    if args.alpha is not None:
        alpha = float(args.alpha)
    else:
        cfg = hankel.HankelConfig(seed=a1.beta, d=args.d, D_max=args.Dmax,
                                  tol=args.tol)
        alpha = hankel.alpha_sequence(params, cfg).alpha_star

    eta_max = None if args.eta_max == "auto" else float(args.eta_max)
    prof = ivp.integrate(params, alpha,
                         ivp.IntegratorConfig(eta_max=eta_max,
                                              sample_stride=args.stride))
    lines = ["eta,fp_numeric,fp_ansatz1,fp_ansatz2"]
    for eta, _, fp, _ in prof.rows:
        c1 = _fmt(ansatz.eval_ansatz(a1, eta, 1))
        c2 = _fmt(ansatz.eval_ansatz(a2, eta, 1)) if a2 is not None else ""
        lines.append(f"{_fmt(eta)},{_fmt(fp)},{c1},{c2}")
    _write_out(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_scan(args) -> int:
    if args.count < 1:
        print("error: --count must be >= 1", file=sys.stderr)
        return 1
    base = {"M": float(args.M), "m": float(args.m), "s": float(args.s)}
    # exact grid: in floats the midpoint of 1.85 .. 2.45 is
    # 2.1500000000000004, which the exact arithmetic would take literally
    start, stop, count = args.start, args.stop, args.count
    values = [start + (stop - start) * Fraction(i, count - 1)
              for i in range(count)] if count > 1 else [start]

    lines = ["sweep_param,value,alpha_hankel,alpha_ansatz1,alpha_ansatz2,"
             "monotone,status"]
    for v in values:
        kw = dict(base)
        kw[args.sweep] = float(v)
        params = ModelParams(**kw)
        status = "ok"
        alpha_h = a1v = a2v = ""
        mono = ""
        try:
            a1 = ansatz.solve_n1(params)
            a1v = _fmt(a1.alpha_est)
        except ansatz.ComplexDecay:
            status = "ComplexDecay"
            lines.append(f"{args.sweep},{_fmt(v)},,,,{mono},{status}")
            continue
        try:
            a2v = _fmt(ansatz.solve_n2(params).alpha_est)
        except (ansatz.RequiresNonzeroM, ansatz.NoPhysicalRoot) as e:
            status = type(e).__name__
        try:
            cfg = hankel.HankelConfig(seed=a1.beta, d=args.d, D_max=args.Dmax,
                                      tol=args.tol)
            seq = hankel.alpha_sequence(params, cfg)
            alpha_h = _fmt(seq.alpha_star)
            prof = ivp.integrate(params, seq.alpha_star, ivp.IntegratorConfig())
            mono = str(ivp.monotonicity_report(prof).monotone).lower()
        except (hankel.NoSignChange, ivp.Blowup, ivp.StepUnderflow) as e:
            status = type(e).__name__
        lines.append(f"{args.sweep},{_fmt(v)},{alpha_h},{a1v},{a2v},"
                     f"{mono},{status}")
    _write_out(args.out, "\n".join(lines) + "\n")
    return 0


def _write_out(path, text: str):
    if path:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mhdsheet",
        description="Solver for the MHD shrinking-sheet similarity equation")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="determine f''(0) and summarize")
    _add_param_flags(p)
    _add_solver_flags(p)
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("profile", help="CSV profile of f'(eta)")
    _add_param_flags(p)
    _add_solver_flags(p)
    p.add_argument("--alpha", type=float, default=None,
                   help="use this f''(0) instead of solving for it")
    p.add_argument("--eta-max", dest="eta_max", default="auto",
                   help="integration endpoint, decimal or 'auto'")
    p.add_argument("--stride", type=float, default=0.01,
                   help="output sampling interval in eta")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("scan", help="sweep one parameter")
    _add_param_flags(p)
    _add_solver_flags(p)
    p.add_argument("--sweep", choices=("M", "m", "s"), required=True)
    p.add_argument("--start", type=_parse_exact, required=True)
    p.add_argument("--stop", type=_parse_exact, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--out", default=None)
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
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (ansatz.ComplexDecay, hankel.NoSignChange, ivp.Blowup,
            ivp.StepUnderflow) as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
