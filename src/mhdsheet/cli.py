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
Hankel flags --d, --Dmax and --tol are exactly `hankel.HankelConfig`, and
profile's --stride defaults to the stride of `ivp.IntegratorConfig()`.

Output is deterministic: 12 significant digits, lowercase JSON keys, LF
line endings. Exit codes: 0 success/converged, 1 usage or I/O error
(a missing, unknown or unparsable flag, a flag value out of bounds or
past the float range, a `scan` grid point past it, or a profile grid of
more than `ivp.MAX_ROWS` rows prints one `error: <message>` line on
stderr; every flag and grid point is checked before any stage runs, a
negative value may follow its flag after a space in any form (-1e-3,
-1/3), and a grid too large at the auto eta_max, checked
right after the N=1 seed, ends even a whole `scan`), 2 computation
finished without convergence or stopped on a named error (printed as
`error: <Name>: <message>` on stderr; `scan` writes the name in the
row's status).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from . import ansatz, hankel, ivp
from .model import ModelParams

# the named errors that stop the pipeline: `solve` and `profile` report
# them with exit code 2, `scan` as the status of the point's row
STOP_ERRORS = (ansatz.ComplexDecay, hankel.NoSignChange, ivp.Blowup,
               ivp.StepUnderflow)


class UsageError(Exception):
    """A command line that argparse rejects, a flag value outside the
    bound that its config class enforces, or an output that cannot be
    written."""


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors take `main`'s one path, a
    one-line `error: <message>` and exit code 1; the subcommand parsers
    are of this class too."""

    def error(self, message):
        raise UsageError(message)


def _checked(make, *args, **kwargs):
    """make(*args, **kwargs), with its ValueError (a flag value out of
    bounds) raised as a UsageError."""
    try:
        return make(*args, **kwargs)
    except ValueError as e:
        raise UsageError(str(e)) from None


def _fmt(x) -> str:
    return f"{float(x):.12g}"


def _num(x):
    """Round-trip a float through 12 significant digits."""
    return float(_fmt(x))


def _parse_exact(text: str) -> Fraction:
    """A decimal or p/q, exactly. Fraction(text) takes seconds to compute
    10^|e| past an exponent e ~ 10^6, so e is read first and clamped to
    +-(400 + n) for a text of n characters: a nonzero mantissa lies in
    10^-n .. 10^n, so a clamped value still overflows a float, or is
    nonzero and too small for ModelParams."""
    head, sep, tail = text.replace("E", "e").rpartition("e")
    try:
        # with the exponent's digits made 0, valid exactly when text is
        x = Fraction(head + sep + "".join("0" if c.isdecimal() else c
                                          for c in tail) if sep else text)
        e = int(tail) if sep else 0
    except (ValueError, ZeroDivisionError) as err:
        raise argparse.ArgumentTypeError(f"not a decimal number: {text!r}") from err
    bound = 400 + len(text)
    x *= Fraction(10) ** min(max(e, -bound), bound)
    if abs(x) > sys.float_info.max:
        raise argparse.ArgumentTypeError(f"does not fit a float: {text!r}")
    return x


def _params(args) -> ModelParams:
    return _checked(ModelParams, M=args.M, m=args.m, s=args.s)


def _hankel_config(args) -> hankel.HankelConfig:
    """The Hankel flags, checked before any stage runs; `_run` seeds the
    sequence with the N=1 beta."""
    return _checked(hankel.HankelConfig, d=args.d, D_max=args.Dmax,
                    tol=args.tol)


def _add_common_flags(p):
    """Parameters, Hankel flags and --out, shared by every subcommand."""
    default = hankel.HankelConfig()
    p.add_argument("--M", type=_parse_exact, required=True,
                   help="Hartmann number (decimal or p/q)")
    p.add_argument("--m", type=_parse_exact, required=True,
                   help="model parameter m (decimal or p/q)")
    p.add_argument("--s", type=_parse_exact, required=True,
                   help="suction parameter (decimal or p/q)")
    p.add_argument("--d", type=int, default=default.d,
                   help="Hankel offset: entries F_{i+j+d} = f^(i+j+d)(0), i.e. "
                        "H_D^(d+1) in Hankel-Pade notation; -1 (default) "
                        "starts at F_1 = f'(0); at most --Dmax")
    p.add_argument("--Dmax", type=int, default=default.D_max,
                   help="maximum Hankel dimension")
    p.add_argument("--tol", type=float, default=default.tol,
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


class _Run:
    """The pipeline's stage outputs, filled stage by stage; a stage that
    did not run leaves None. a2_error says why there is no N=2 solution,
    error is the STOP_ERRORS member that stopped the pipeline."""
    a1 = a2 = a2_error = seq = prof = error = None


def _run(params: ModelParams, hcfg: hankel.HankelConfig,
         icfg: ivp.IntegratorConfig, alpha: float | None = None) -> _Run:
    """Seeds (N=1, N=2) -> Hankel alpha, unless `alpha` is given ->
    profile integrated from that alpha."""
    run = _Run()
    try:
        run.a1 = ansatz.solve_n1(params)
        if icfg.eta_max is None:  # the auto grid, before the Hankel stage
            icfg = _checked(icfg._replace, eta_max=ivp.auto_eta_max(params))
        try:
            run.a2 = ansatz.solve_n2(params)
        except (ansatz.RequiresNonzeroM, ansatz.NoPhysicalRoot) as e:
            run.a2_error = e
        if alpha is None:
            run.seq = hankel.alpha_sequence(params, hcfg, run.a1.beta)
            alpha = run.seq.alpha_star
        run.prof = ivp.integrate(params, alpha, icfg)
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
            params, (seq.alpha_star - w, seq.alpha_star + w), seq.alpha_star))
    except (ivp.BadBracket, ivp.StepUnderflow) as e:
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
    alpha = None if args.alpha is None else float(args.alpha)
    if args.alpha and not alpha:  # nonzero, but its float is 0
        raise UsageError("--alpha is past the float range")
    try:
        eta_max = None if args.eta_max == "auto" else float(args.eta_max)
    except ValueError:
        raise UsageError(f"--eta-max must be a decimal or 'auto', "
                         f"got {args.eta_max!r}") from None
    # checked before the Hankel sequence, which takes seconds
    icfg = _checked(ivp.IntegratorConfig, eta_max=eta_max,
                    sample_stride=args.stride)
    run = _run(_params(args), _hankel_config(args), icfg, alpha)
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
    base = {"M": args.M, "m": args.m, "s": args.s}
    # exact grid, passed to the Taylor table as it is: in floats the midpoint
    # of 1.85 .. 2.45 is 2.1500000000000004 and 4/3 is 13333333333333333/10^16.
    # Drawn one point at a time: a list of them all takes ~115 MB per 10^6
    # points before the first one runs
    start, stop, count = args.start, args.stop, args.count

    def value(i):
        return (start + (stop - start) * Fraction(i, count - 1) if count > 1
                else start)
    # every point in the float range, before any point runs: no interior
    # point can overflow, and no nonzero one lies nearer 0 than the nearest
    # on each side of the zero crossing, past a point at 0, so those are
    # checked with start and stop (stop too when --count 1 has no point there)
    checked = [start, stop]
    if start * stop <= 0 and start != stop:
        t = start * (count - 1) / (start - stop)  # the crossing's index
        checked += [value(i) for i in (math.ceil(t) - 1, math.floor(t) + 1)
                    if 0 <= i < count]
    for v in checked:
        _checked(ModelParams, **{**base, args.sweep: v})

    lines = ["sweep_param,value,alpha_hankel,alpha_ansatz1,alpha_ansatz2,"
             "monotone,status"]
    for v in map(value, range(count)):
        params = _checked(ModelParams, **{**base, args.sweep: v})
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
    ap = _Parser(
        prog="mhdsheet",
        description="Solver for the MHD shrinking-sheet similarity equation")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="determine f''(0) and summarize")
    _add_common_flags(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("profile", help="CSV profile of f'(eta)")
    _add_common_flags(p)
    p.add_argument("--alpha", type=_parse_exact, default=None,
                   help="use this f''(0) instead of solving for it "
                        "(decimal or p/q)")
    p.add_argument("--eta-max", dest="eta_max", default="auto",
                   help="integration endpoint, decimal or 'auto'")
    p.add_argument("--stride", type=float,
                   default=ivp.IntegratorConfig().sample_stride,
                   help="output sampling interval in eta")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("scan", help="sweep one parameter")
    _add_common_flags(p)
    p.add_argument("--sweep", choices=("M", "m", "s"), required=True)
    p.add_argument("--start", type=_parse_exact, required=True,
                   help="first value of the swept parameter (decimal or p/q)")
    p.add_argument("--stop", type=_parse_exact, required=True,
                   help="last value of the swept parameter (decimal or p/q)")
    p.add_argument("--count", type=int, required=True)
    p.set_defaults(func=cmd_scan)
    return ap


def _join_negative_values(argv: list[str]) -> list[str]:
    """argv with each `--flag -<number>` written `--flag=-<number>`.
    argparse takes only words such as -1 and -1.5 for negative numbers,
    and any other word that starts with '-' (-1e-3, -1/3, -.5e1) for an
    option; a word of '-' and a digit, or of '-.' and a digit, names no
    option here, so it is joined to the flag before it as its value."""
    out: list[str] = []
    for word in argv:
        if (out and out[-1].startswith("--") and "=" not in out[-1]
                and out[-1] != "--" and word.startswith("-")
                and word[1:].removeprefix(".")[:1].isdigit()):
            out[-1] += "=" + word
        else:
            out.append(word)
    return out


def main(argv=None) -> int:
    argv = _join_negative_values(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(argv)  # --help exits here, with 0
        return args.func(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except STOP_ERRORS as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
