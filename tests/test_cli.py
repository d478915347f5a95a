import json
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import mhdsheet
from mhdsheet import HankelConfig, ansatz, hankel, ivp
from mhdsheet.cli import build_parser, main

from conftest import PAPER_ALPHA, deadline

# small Hankel depth keeps CLI runs fast; the paper case settles early
FAST = ["--M", "2", "--m", "2", "--s", "1.8", "--Dmax", "14"]


# `mhdsheet solve --M 2 --m 2 --s 1.8`, recorded byte for byte
PAPER_SOLVE_STDOUT = (
    '{\n'
    '  "schema": 1,\n'
    '  "params": {\n'
    '    "m_hartmann": 2.0,\n'
    '    "m_coeff": 2.0,\n'
    '    "s": 1.8\n'
    '  },\n'
    '  "ansatz1": {\n'
    '    "beta": 4.08910462845,\n'
    '    "b": [\n'
    '      1.55544768577,\n'
    '      0.244552314226\n'
    '    ],\n'
    '    "alpha_est": 4.08910462845\n'
    '  },\n'
    '  "ansatz2": {\n'
    '    "beta": 4.09462681282,\n'
    '    "b": [\n'
    '      1.55886840485,\n'
    '      0.238040689526,\n'
    '      0.00309090562862\n'
    '    ],\n'
    '    "alpha_est": 4.1982708671\n'
    '  },\n'
    '  "alpha_hankel": {\n'
    '    "value": 4.2041138908,\n'
    '    "converged": true,\n'
    '    "d_reached": 18\n'
    '  },\n'
    '  "alpha_shooting": 4.20411339902,\n'
    '  "agreement": {\n'
    '    "ansatz1_max_dev": 0.00706634294467,\n'
    '    "ansatz2_max_dev": 0.000276407119981\n'
    '  },\n'
    '  "monotone_fp": true,\n'
    '  "warnings": []\n'
    '}\n'
)


@pytest.fixture(scope="module")
def solve_json(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "solve.json"
    code = main(["solve", *FAST, "--out", str(out)])
    return code, json.loads(out.read_text())


class TestSolve:
    def test_schema_and_params_echo(self, solve_json):
        _, doc = solve_json
        assert doc["schema"] == 1
        assert doc["params"] == {"m_hartmann": 2.0, "m_coeff": 2.0, "s": 1.8}

    def test_alpha_values(self, solve_json):
        _, doc = solve_json
        assert doc["alpha_hankel"]["value"] == pytest.approx(PAPER_ALPHA, abs=5e-4)
        assert doc["alpha_shooting"] == pytest.approx(PAPER_ALPHA, abs=1e-6)
        assert doc["ansatz1"]["beta"] == pytest.approx(
            math.sqrt(131) / 5 + 9 / 5, rel=1e-12)
        assert doc["ansatz2"]["alpha_est"] == pytest.approx(4.198, abs=5e-3)

    def test_agreement_and_monotonicity(self, solve_json):
        _, doc = solve_json
        assert doc["monotone_fp"] is True
        assert doc["agreement"]["ansatz2_max_dev"] < doc["agreement"]["ansatz1_max_dev"]

    def test_exit_code_tracks_convergence(self, solve_json):
        code, doc = solve_json
        assert code == (0 if doc["alpha_hankel"]["converged"] else 2)

    def test_stdout_default(self, capsys):
        # unconverged shallow run: exit 2, JSON still emitted
        code = main(["solve", "--M", "2", "--m", "2", "--s", "1.8",
                     "--Dmax", "6"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["alpha_hankel"]["converged"] is False
        assert code == 2

    def test_paper_solve_is_frozen(self, capsys):
        # the full paper solve (Dmax 30), recorded byte for byte: stdout
        # and exit code
        code = main(["solve", "--M", "2", "--m", "2", "--s", "1.8"])
        assert code == 0
        assert capsys.readouterr().out == PAPER_SOLVE_STDOUT

    def test_tol_below_float_resolution_ends(self, capsys):
        # tol 1e-300 is far below the float spacing at alpha ~ 4: the
        # bisection stops at float resolution and prints the alpha of the
        # default tol; bisecting on down to 1e-300 would take ~24 s
        with deadline(5):
            code = main(["solve", "--M", "2", "--m", "2", "--s", "1.8",
                         "--Dmax", "10", "--tol", "1e-300"])
        assert code == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["alpha_hankel"]["value"] == 4.19551922448

    def test_shooting_failure_is_a_warning(self, solve_json, monkeypatch,
                                           capsys):
        # a failed shooting check leaves alpha_shooting null and is named
        # among the warnings; the exit code is that of the unstubbed run
        def fail(*args):
            raise ivp.BadBracket("stub")
        monkeypatch.setattr(ivp, "shoot_refine", fail)
        code = main(["solve", *FAST])
        doc = json.loads(capsys.readouterr().out)
        assert doc["alpha_shooting"] is None
        assert doc["warnings"] == ["shooting: BadBracket: stub"]
        assert code == solve_json[0]

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["solve", *FAST, "--out", str(a)])
        main(["solve", *FAST, "--out", str(b)])
        assert a.read_text() == b.read_text()


class TestProfile:
    def test_alpha_bypass_rows(self, capsys):
        code = main(["profile", "--M", "2", "--m", "2", "--s", "1.8",
                     "--alpha", f"{PAPER_ALPHA}", "--eta-max", "2",
                     "--stride", "0.5"])
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "eta,fp_numeric,fp_ansatz1,fp_ansatz2"
        assert len(lines) == 6  # header + eta = 0, 0.5, 1.0, 1.5, 2.0
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == pytest.approx(-1.0)
        assert float(first[2]) == pytest.approx(-1.0, abs=1e-9)
        assert float(first[3]) == pytest.approx(-1.0, abs=1e-9)

    def test_numeric_column_decays(self, capsys):
        main(["profile", "--M", "2", "--m", "2", "--s", "1.8",
              "--alpha", f"{PAPER_ALPHA}", "--eta-max", "3", "--stride", "0.1"])
        lines = capsys.readouterr().out.strip().split("\n")[1:]
        fp = [float(l.split(",")[1]) for l in lines]
        assert fp == sorted(fp)  # monotone rise from -1 toward 0
        assert abs(fp[-1]) < 1e-4

    def test_ansatz2_column_blank_when_unavailable(self, capsys):
        # m = 0 has no N=2 closed form; the column stays empty
        main(["profile", "--M", "2", "--m", "0", "--s", "1.8",
              "--alpha", "4.0", "--eta-max", "1", "--stride", "0.5"])
        lines = capsys.readouterr().out.strip().split("\n")[1:]
        assert all(l.endswith(",") for l in lines)


    def test_ansatz2_column_blank_when_quartic_overflows(self, capsys):
        # M = 1e100: the N=2 quartic overflows, which is NoPhysicalRoot
        code = main(["profile", "--M", "1e100", "--m", "2", "--s", "1.8",
                     "--alpha", "1e100"])
        captured = capsys.readouterr()
        assert code == 0
        assert "Traceback" not in captured.err
        lines = captured.out.strip().split("\n")[1:]
        assert lines and all(l.endswith(",") for l in lines)


class TestScan:
    def test_sweep_s(self, capsys):
        code = main(["scan", "--M", "2", "--m", "2", "--s", "1.8",
                     "--sweep", "s", "--start", "1", "--stop", "1.8",
                     "--count", "2", "--Dmax", "14"])
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0].startswith("sweep_param,value,alpha_hankel")
        assert len(lines) == 3
        row1 = lines[1].split(",")
        assert row1[0] == "s"
        assert float(row1[1]) == 1.0
        # the s=1 root sequence is scattered at this depth; plumbing check only
        assert float(row1[2]) == pytest.approx(2.89160465, abs=0.15)
        assert row1[6] == "ok"
        row2 = lines[2].split(",")
        assert float(row2[2]) == pytest.approx(PAPER_ALPHA, abs=1e-3)
        assert row2[6] == "ok"

    def test_complex_decay_row_flagged(self, capsys):
        code = main(["scan", "--M", "0.1", "--m", "2", "--s", "0.1",
                     "--sweep", "M", "--start", "0.1", "--stop", "0.1",
                     "--count", "1"])
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[1].endswith("ComplexDecay")

    def test_interior_points_are_exact(self, monkeypatch, capsys):
        from mhdsheet import hankel
        from mhdsheet.polyseries import to_exact
        seen = []

        def stub(params, cfg, seed):
            seen.append(params)
            raise hankel.NoSignChange("stub")

        monkeypatch.setattr(hankel, "alpha_sequence", stub)
        # in floats, 1.85 + (2.45 - 1.85) / 2 is 2.1500000000000004
        code = main(["scan", "--M", "2", "--m", "2", "--s", "1.8",
                     "--sweep", "s", "--start", "1.85", "--stop", "2.45",
                     "--count", "3"])
        assert code == 0
        assert [p.s for p in seen] == [1.85, 2.15, 2.45]
        assert to_exact(seen[1].s) == Fraction(43, 20)
        assert capsys.readouterr().out.split("\n")[2].startswith("s,2.15,")

    def test_bad_count(self, capsys):
        assert main(["scan", "--M", "2", "--m", "2", "--s", "1.8",
                     "--sweep", "s", "--start", "1", "--stop", "2",
                     "--count", "0"]) == 1


@pytest.mark.parametrize("command", ["solve", "profile"])
def test_named_error_without_traceback(command, capsys):
    # M = 0, m = 2, s = 0.5 has no real N=1 decay rate
    code = main([command, "--M", "0", "--m", "2", "--s", "0.5"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ComplexDecay: ")
    assert "Traceback" not in captured.err


PAPER = ["--M", "2", "--m", "2", "--s", "1.8"]


@pytest.mark.parametrize("argv", [
    ["solve", *PAPER, "--d", "-2"],
    ["solve", *PAPER, "--Dmax", "1"],
    ["solve", *PAPER, "--tol", "0"],
    ["profile", *PAPER, "--stride", "0"],
    ["profile", *PAPER, "--eta-max", "abc"],
    ["profile", *PAPER, "--alpha", "nan"],
    # checked before the N=1 seed, which has no real root here
    ["solve", "--M", "0", "--m", "2", "--s", "0.5", "--d", "-2"],
    ["scan", "--M", "0.1", "--m", "2", "--s", "0.1", "--sweep", "M",
     "--start", "0.1", "--stop", "0.2", "--count", "2", "--d", "-2"],
], ids=["d", "Dmax", "tol", "stride", "eta-max", "alpha", "d-before-seed",
        "scan-d-before-seed"])
def test_bad_flag_value_is_usage_error(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ")


@pytest.mark.parametrize("alpha", ["1e13", "1e308"])
def test_alpha_past_blowup_is_named_error(alpha, capsys):
    # it ran for over 20 s at 1e13 and ended in a traceback at 1e308
    with deadline(5):
        code = main(["profile", *PAPER, "--alpha", alpha])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: Blowup: ")


def test_unwritable_out_is_usage_error(tmp_path, capsys):
    code = main(["profile", *PAPER, "--alpha", "4.2", "--eta-max", "1",
                 "--out", str(tmp_path / "missing" / "profile.csv")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ")


def test_timeout_is_not_an_output_error(monkeypatch):
    # TimeoutError is an OSError, but only a failed write of the output
    # maps to exit code 1; anything else propagates out of main
    def expire(params, cfg, seed):
        raise TimeoutError("stub")
    monkeypatch.setattr(hankel, "alpha_sequence", expire)
    with pytest.raises(TimeoutError):
        main(["solve", *PAPER])


class TestWithoutNumpy:
    """Every command in a fresh interpreter where numpy cannot be
    imported: only `pade` and `solve_general` need it."""

    SCRIPT = ("import sys; sys.modules['numpy'] = None; "
              "from mhdsheet.cli import main; sys.exit(main(sys.argv[1:]))")

    def run(self, *argv):
        src = str(Path(mhdsheet.__file__).resolve().parent.parent)
        proc = subprocess.run([sys.executable, "-c", self.SCRIPT, *argv],
                              env={"PYTHONPATH": src}, capture_output=True,
                              text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def test_solve(self):
        assert self.run("solve", *PAPER) == PAPER_SOLVE_STDOUT

    def test_profile(self):
        out = self.run("profile", *PAPER, "--alpha", f"{PAPER_ALPHA}",
                       "--eta-max", "2", "--stride", "0.5")
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert len(rows) == 5
        assert all(len(r) == 4 and all(r) for r in rows)

    def test_scan(self):
        out = self.run("scan", *FAST, "--sweep", "s", "--start", "1.8",
                       "--stop", "1.9", "--count", "2")
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert [r[1] for r in rows] == ["1.8", "1.9"]
        assert [r[-1] for r in rows] == ["ok", "ok"]


class TestParser:
    def test_usage_error_exit_code(self):
        assert main(["solve", "--M", "2"]) == 1

    def test_bad_decimal_rejected(self):
        assert main(["solve", "--M", "two", "--m", "2", "--s", "1.8"]) == 1

    def test_parser_builds(self):
        ap = build_parser()
        args = ap.parse_args(["solve", "--M", "2", "--m", "2", "--s", "1.8"])
        assert args.command == "solve"

    def test_d_default_matches_config(self):
        for command in ("solve", "profile", "scan"):
            extra = (["--sweep", "s", "--start", "1", "--stop", "2", "--count", "2"]
                     if command == "scan" else [])
            args = build_parser().parse_args(
                [command, "--M", "2", "--m", "2", "--s", "1.8", *extra])
            assert args.d == HankelConfig().d == -1
            assert args.Dmax == HankelConfig().D_max == 30
            assert args.tol == HankelConfig().tol == 1e-10


@pytest.mark.parametrize("argv, code, message", [
    (["--M", "1e400", "--m", "2", "--s", "1.8"], 1, "does not fit a float"),
    (["--M", "1e200", "--m", "2", "--s", "1.8"], 2, "error: ComplexDecay: "),
    (["--M", "2", "--m", "2", "--s", "1e200"], 2, "error: ComplexDecay: "),
    (["--M", "2", "--m", "1e200", "--s", "1.8"], 2, "error: ComplexDecay: "),
], ids=["M-1e400", "M-1e200", "s-1e200", "m-1e200"])
def test_overflowing_parameter_is_named_error(argv, code, message, capsys):
    assert main(["solve", *argv]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    errors = [l for l in captured.err.splitlines() if "error:" in l]
    assert len(errors) == 1
    assert message in errors[0]


def test_subnormal_decay_rate_is_named_error(capsys):
    # beta = s/2 is subnormal, so b_1 = 1/beta overflows; the Hankel
    # sequence seeded there ran for over a minute
    with deadline(5):
        code = main(["solve", "--M", "1", "--m", "1",
                     "--s", "2.225073858507e-311"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ComplexDecay: ")


class TestScanRow:
    """Scan columns and status precedence, with the slow stages stubbed:
    a column is blank when its stage did not run, and the status is the
    error that stopped the point, else the N=2 error, else ok."""

    SEQ = hankel.RootSequence(roots=[(2, 4.0)], converged=True, alpha_star=4.0)

    @staticmethod
    def fake_profile(params, alpha, cfg):
        return ivp.Profile(rows=[(0.0, params.s, -1.0, alpha),
                                 (1.0, params.s, 0.0, 0.0)],
                           alpha_used=alpha, tail_fp=0.0)

    def row(self, monkeypatch, capsys, m, alpha_sequence, integrate=None):
        monkeypatch.setattr(hankel, "alpha_sequence", alpha_sequence)
        monkeypatch.setattr(ivp, "integrate", integrate or self.fake_profile)
        assert main(["scan", "--M", "2", "--m", m, "--s", "1.8", "--sweep",
                     "M", "--start", "2", "--stop", "2", "--count", "1"]) == 0
        header, row = capsys.readouterr().out.splitlines()
        return dict(zip(header.split(","), row.split(",")))

    @staticmethod
    def raises(error):
        def stage(*args):
            raise error("stub")
        return stage

    def test_n2_error_shows_when_hankel_succeeds(self, monkeypatch, capsys):
        row = self.row(monkeypatch, capsys, "0", lambda *args: self.SEQ)
        assert (row["alpha_hankel"], row["alpha_ansatz2"]) == ("4", "")
        assert (row["monotone"], row["status"]) == ("true", "RequiresNonzeroM")

    def test_hankel_error_overrides_n2_error(self, monkeypatch, capsys):
        row = self.row(monkeypatch, capsys, "0",
                       self.raises(hankel.NoSignChange))
        assert row["alpha_ansatz1"]
        assert (row["alpha_hankel"], row["monotone"]) == ("", "")
        assert row["status"] == "NoSignChange"

    def test_blowup_keeps_hankel_alpha(self, monkeypatch, capsys):
        row = self.row(monkeypatch, capsys, "2", lambda *args: self.SEQ,
                       self.raises(ivp.Blowup))
        assert (row["alpha_hankel"], row["monotone"]) == ("4", "")
        assert row["status"] == "Blowup"

    def test_complex_decay_blanks_every_column(self, monkeypatch, capsys):
        monkeypatch.setattr(ansatz, "solve_n1", self.raises(ansatz.ComplexDecay))
        row = self.row(monkeypatch, capsys, "2", lambda *args: self.SEQ)
        assert list(row.values()) == ["M", "2", "", "", "", "", "ComplexDecay"]
