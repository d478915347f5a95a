import contextlib
import io
import json
import math
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import mhdsheet
from mhdsheet import (HankelConfig, ModelParams, ansatz, cli, hankel, ivp,
                      taylor_table)
from mhdsheet.cli import build_parser, main

from conftest import PAPER_ALPHA, counting_trajectories, deadline

# small Hankel depth keeps CLI runs fast; the paper case settles early
FAST = ["--M", "2", "--m", "2", "--s", "1.8", "--Dmax", "14"]


# `mhdsheet solve --M 2 --m 2 --s 1.8`, recorded byte for byte: the
# sequence settles at D = 8
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
    '    "value": 4.20411339859,\n'
    '    "converged": true,\n'
    '    "d_reached": 8\n'
    '  },\n'
    '  "alpha_shooting": 4.20411340172,\n'
    '  "agreement": {\n'
    '    "ansatz1_max_dev": 0.00706627921516,\n'
    '    "ansatz2_max_dev": 0.000276352316188\n'
    '  },\n'
    '  "monotone_fp": true,\n'
    '  "warnings": []\n'
    '}\n'
)

# `mhdsheet solve --M 2 --m 2 --s 1/101 --Dmax 12`, recorded byte for
# byte: the sequence settles at D = 8, within 5e-9 of shooting
PRIME_DENOMINATOR_SOLVE_STDOUT = (
    '{\n'
    '  "schema": 1,\n'
    '  "params": {\n'
    '    "m_hartmann": 2.0,\n'
    '    "m_coeff": 2.0,\n'
    '    "s": 0.00990099009901\n'
    '  },\n'
    '  "ansatz1": {\n'
    '    "beta": 1.42414921075,\n'
    '    "b": [\n'
    '      -0.692272625175,\n'
    '      0.702173615274\n'
    '    ],\n'
    '    "alpha_est": 1.42414921075\n'
    '  },\n'
    '  "ansatz2": {\n'
    '    "beta": 1.45854166421,\n'
    '    "b": [\n'
    '      -0.641961851252,\n'
    '      0.618109341025,\n'
    '      0.0337535003269\n'
    '    ],\n'
    '    "alpha_est": 1.60215226258\n'
    '  },\n'
    '  "alpha_hankel": {\n'
    '    "value": 1.64842312605,\n'
    '    "converged": true,\n'
    '    "d_reached": 8\n'
    '  },\n'
    '  "alpha_shooting": 1.64842312114,\n'
    '  "agreement": {\n'
    '    "ansatz1_max_dev": 0.0389016724033,\n'
    '    "ansatz2_max_dev": 0.00612306645928\n'
    '  },\n'
    '  "monotone_fp": true,\n'
    '  "warnings": []\n'
    '}\n'
)


# the six two-point scans of the bench's scan-sweep panel, at Dmax 14
SCAN_PANEL_ARGV = (
    ["scan", "--M", "1.51", "--m", "1", "--s", "1.09", "--sweep", "s",
     "--start", "1.09", "--stop", "1.69", "--count", "2", "--Dmax", "14"],
    ["scan", "--M", "1.31", "--m", "0", "--s", "1.29", "--sweep", "M",
     "--start", "1.31", "--stop", "1.91", "--count", "2", "--Dmax", "14"],
    ["scan", "--M", "1.63", "--m", "0", "--s", "1.87", "--sweep", "m",
     "--start", "0", "--stop", "1", "--count", "2", "--Dmax", "14"],
    ["scan", "--M", "2.49", "--m", "1", "--s", "1.71", "--sweep", "s",
     "--start", "1.71", "--stop", "2.31", "--count", "2", "--Dmax", "14"],
    ["scan", "--M", "2.09", "--m", "0", "--s", "2.21", "--sweep", "M",
     "--start", "2.09", "--stop", "2.69", "--count", "2", "--Dmax", "14"],
    ["scan", "--M", "2.71", "--m", "0", "--s", "1.23", "--sweep", "m",
     "--start", "0", "--stop", "1", "--count", "2", "--Dmax", "14"],
)

# the stdout of the SCAN_PANEL_ARGV scans in order, recorded byte for byte
SCAN_PANEL_STDOUT = (
    'sweep_param,value,alpha_hankel,alpha_ansatz1,alpha_ansatz2,monotone,status\n'
    's,1.09,1.80083637472,1.80083637469,1.80083637469,true,ok\n'
    's,1.69,2.25713490855,2.25713490857,2.25713490857,true,ok\n'
    'sweep_param,value,alpha_hankel,alpha_ansatz1,alpha_ansatz2,monotone,status\n'
    'M,1.31,1.02441856,1.31,,true,RequiresNonzeroM\n'
    'M,1.91,1.72668275362,1.91,,true,RequiresNonzeroM\n'
    'sweep_param,value,alpha_hankel,alpha_ansatz1,alpha_ansatz2,monotone,status\n'
    'm,0,1.41075629261,1.63,,true,RequiresNonzeroM\n'
    'm,1,2.52595097348,2.52595097347,2.52595097347,true,ok\n'
    'sweep_param,value,alpha_hankel,alpha_ansatz1,alpha_ansatz2,monotone,status\n'
    's,1.71,3.29039011247,3.29039011249,3.29039011249,true,ok\n'
    's,2.31,3.71119345902,3.71119345903,3.71119345903,true,ok\n'
    'sweep_param,value,alpha_hankel,alpha_ansatz1,alpha_ansatz2,monotone,status\n'
    'M,2.09,1.9239109472,2.09,,true,RequiresNonzeroM\n'
    'M,2.69,2.56309058252,2.69,,true,RequiresNonzeroM\n'
    'sweep_param,value,alpha_hankel,alpha_ansatz1,alpha_ansatz2,monotone,status\n'
    'm,0,2.58407301255,2.71,,true,RequiresNonzeroM\n'
    'm,1,3.20774468468,3.20774468469,3.20774468469,true,ok\n'
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

    def test_paper_solve_trajectories(self, capsys):
        # one ivp.rhs call per trajectory: shooting guided first toward
        # the Hankel alpha takes 4, and the profile 1
        with counting_trajectories() as calls:
            assert main(["solve", "--M", "2", "--m", "2", "--s", "1.8"]) == 0
        assert capsys.readouterr().out == PAPER_SOLVE_STDOUT
        assert calls[0] == 5

    def test_prime_denominator_solve_is_frozen(self, capsys):
        # q = 101 lies above every 2D+d the search reaches
        code = main(["solve", "--M", "2", "--m", "2", "--s", "1/101",
                     "--Dmax", "12"])
        assert code == 0
        out, err = capsys.readouterr()
        assert out == PRIME_DENOMINATOR_SOLVE_STDOUT
        assert err == ""

    @pytest.mark.parametrize("argv", [
        ["--s", "1.8"],
        ["--s", "1/101", "--Dmax", "12"],
        ["--s", "4/3"],
    ], ids=["paper", "s=1/101", "s=4/3"])
    def test_default_solve_agrees_with_shooting(self, argv, capsys):
        # on the paper's Taylor coefficients s = 1/101 exited 2 with empty
        # stdout and s = 4/3 ended 3.6e-4 from shooting at D = 30
        with deadline(5):
            code = main(["solve", "--M", "2", "--m", "2", *argv])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        alpha = doc["alpha_hankel"]["value"]
        assert abs(alpha - doc["alpha_shooting"]) < 1e-8 * max(1, abs(alpha))
        assert doc["monotone_fp"] is True

    @pytest.mark.parametrize("D_max", ["100", "1000000"])
    def test_large_Dmax_stops_where_the_sequence_does(self, D_max, capsys):
        # the Taylor table grows with D, so D_max only bounds the search,
        # which stops at D = 8 as with the default
        with deadline(5):
            code = main(["solve", "--M", "2", "--m", "2", "--s", "1.8",
                         "--Dmax", D_max])
        assert code == 0
        assert capsys.readouterr().out == PAPER_SOLVE_STDOUT

    def test_fraction_flags_reach_the_table(self, monkeypatch, capsys):
        seen = []

        def stub(params, cfg, seed):
            seen.append(params)
            raise hankel.NoSignChange("stub")

        monkeypatch.setattr(hankel, "alpha_sequence", stub)
        assert main(["solve", "--M", "1/3", "--m", "0", "--s", "4/3"]) == 2
        exact = (Fraction(1, 3), Fraction(0), Fraction(4, 3))
        assert seen[0].exact == exact
        assert taylor_table(seen[0], 12) == taylor_table(
            ModelParams(*exact), 12)

    def test_tol_below_float_resolution_ends(self, capsys):
        # tol 1e-300 is far below the float spacing at alpha ~ 4: the
        # bisection stops at float resolution, about 1000 steps short of
        # 1e-300, and prints an alpha within the default tol of the
        # default run's 4.20411339859
        with deadline(5):
            code = main(["solve", "--M", "2", "--m", "2", "--s", "1.8",
                         "--Dmax", "10", "--tol", "1e-300"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["alpha_hankel"]["value"] == 4.20411339861
        assert doc["alpha_hankel"]["d_reached"] == 8

    @pytest.mark.parametrize("argv", [
        ["--M", "1e100", "--m", "2", "--s", "1.8"],
        ["--M", "1e50", "--m", "2", "--s", "1.8"],
        ["--M", "1e15", "--m", "0.5", "--s", "2"],
    ], ids=["M=1e100", "M=1e50", "M=1e15"])
    def test_huge_M_gets_an_answer(self, argv, capsys):
        # consecutive roots here can be the same float; with the window
        # floored at the absolute 1e-4, below one float spacing, the later
        # D missed: M=1e50 ran past 20 s and M=1e15 ended unconverged at
        # D = 24
        with deadline(10):
            code = main(["solve", *argv])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["alpha_hankel"]["converged"] is True
        assert doc["alpha_hankel"]["value"] == doc["alpha_shooting"]

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
        assert seen[1].exact[2] == Fraction(43, 20)
        assert capsys.readouterr().out.split("\n")[2].startswith("s,2.15,")

    def test_thirds_reach_the_table_in_time(self, capsys):
        # the interior points 4/3 and 5/3 reached the table as their floats,
        # 13333333333333333/10^16 and 16666666666666667/10^16, and on the
        # paper's Taylor coefficients the scan took about five times as
        # long; the rows are the same either way
        with deadline(5):
            code = main(["scan", "--M", "2", "--m", "2", "--s", "1.8",
                         "--sweep", "s", "--start", "1", "--stop", "2",
                         "--count", "4", "--Dmax", "18"])
        assert code == 0
        assert capsys.readouterr().out.splitlines()[1:] == [
            "s,1,2.89160465469,2.73205080757,2.87628283925,true,ok",
            "s,1.33333333333,3.41564510026,3.27698396495,3.40552237048,true,ok",
            "s,1.66666666667,3.97359970395,3.8524795081,3.96679706672,true,ok",
            "s,2,4.55620494692,4.44948974278,4.55151672916,true,ok"]

    def test_scan_panel_is_frozen(self, capsys):
        with deadline(5):
            codes = [main(argv) for argv in SCAN_PANEL_ARGV]
        assert codes == [0] * 6
        out, err = capsys.readouterr()
        assert out == SCAN_PANEL_STDOUT
        assert err == ""

    # the four known defects of the scan at Dmax 14 on the paper's Taylor
    # coefficients: Hankel alphas 1.6e-4 to 3.3e-4 off, and a false
    # monotone=false at M = 2.71
    @pytest.mark.parametrize("M, m, s", [
        ("1.51", "1", "1.69"), ("1.63", "1", "1.87"),
        ("1.31", "0", "1.29"), ("2.71", "0", "1.23")])
    def test_dmax14_known_defects_are_mended(self, M, m, s, capsys):
        code = main(["scan", "--M", M, "--m", m, "--s", s, "--sweep", "M",
                     "--start", M, "--stop", M, "--count", "1",
                     "--Dmax", "14"])
        assert code == 0
        header, line = capsys.readouterr().out.splitlines()
        row = dict(zip(header.split(","), line.split(",")))
        M, s = float(M), float(s)
        # closed forms: m = 1 has f' = -exp(-beta eta); at m = 0 the
        # first integral of g = f' gives alpha^2 = M^2 - 2/3
        exact = ((math.sqrt(4 * M * M + s * s - 4) + s) / 2 if m == "1"
                 else math.sqrt(M * M - 2 / 3))
        assert abs(float(row["alpha_hankel"]) - exact) < 1e-7
        assert row["monotone"] == "true"

    def test_grid_is_drawn_lazily(self, monkeypatch):
        # built as a list before the first point ran, this grid of 200000
        # points peaked at 23 MiB; drawn one point at a time, at 0.24 MiB
        class FirstPoint(Exception):
            pass

        def stop(*args):
            raise FirstPoint
        monkeypatch.setattr(cli, "_run", stop)
        tracemalloc.start()
        try:
            with pytest.raises(FirstPoint):
                main(["scan", "--M", "2", "--m", "2", "--s", "1.8",
                      "--sweep", "s", "--start", "1", "--stop", "2",
                      "--count", "200000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20

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
    ["solve", *PAPER, "--tol", "inf"],
    ["profile", *PAPER, "--stride", "0"],
    # an infinite stride made a one-row profile, its eta_max row dropped
    ["profile", *PAPER, "--stride", "inf"],
    ["profile", *PAPER, "--eta-max", "abc"],
    ["profile", *PAPER, "--alpha", "nan"],
    # checked before the N=1 seed, which has no real root here
    ["solve", "--M", "0", "--m", "2", "--s", "0.5", "--d", "-2"],
    ["scan", "--M", "0.1", "--m", "2", "--s", "0.1", "--sweep", "M",
     "--start", "0.1", "--stop", "0.2", "--count", "2", "--d", "-2"],
    # argparse's own errors take the same one-line path
    ["solve", "--M", "1e400", "--m", "2", "--s", "1.8"],
    ["solve", "--M", "two", "--m", "2", "--s", "1.8"],
    ["solve", "--M", "2", "--m", "2"],
    # --alpha is checked before the N=1 seed, which has no real root here
    ["profile", "--M", "0", "--m", "2", "--s", "0.5", "--alpha", "nan"],
    ["profile", "--M", "0", "--m", "2", "--s", "0.5", "--alpha", "inf"],
    # nonzero, but its float is 0: it printed the alpha = 0 profile
    ["profile", *PAPER, "--alpha", "1e-400"],
    # d above Dmax: the first Taylor table, of order 4 + d, ran past 30 s
    ["solve", *PAPER, "--d", "100000", "--Dmax", "3"],
], ids=["d", "Dmax", "tol", "tol-inf", "stride", "stride-inf", "eta-max",
        "alpha", "d-before-seed", "scan-d-before-seed", "M-1e400", "M-two",
        "missing-s", "alpha-before-seed", "alpha-inf-before-seed",
        "alpha-tiny", "d-above-Dmax"])
def test_bad_flag_value_is_usage_error(argv, capsys):
    with deadline(5):
        code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["solve", "--M", "1", "--m", "1", "--s", "1e-300", "--Dmax", "6"],
    ["profile", *PAPER, "--eta-max", "1e300"],
    ["profile", *PAPER, "--stride", "1e-300"],
], ids=["solve-tiny-s", "eta-max", "stride"])
def test_unbounded_grid_is_usage_error(argv, monkeypatch, capsys):
    # ~1e300 profile rows: the grid filled memory until the run was
    # stopped; the auto eta_max 10/beta is ~2e301 at s = 1e-300. The grid
    # is checked before the Hankel stage, which used to run in vain
    def never(params, cfg, seed):
        raise AssertionError("alpha_sequence ran before the grid check")
    monkeypatch.setattr(hankel, "alpha_sequence", never)
    with deadline(5):
        code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ") and "rows" in lines[0]


def test_scan_end_past_float_range_is_usage_error(monkeypatch, capsys):
    # 1e-400 is not 0, but its float is: two points (~5 s) ran before the
    # last one stopped the scan with this error
    def never(params, cfg, seed):
        raise AssertionError("alpha_sequence ran before the grid check")
    monkeypatch.setattr(hankel, "alpha_sequence", never)
    with deadline(5):
        code = main(["scan", "--M", "2", "--m", "2", "--s", "1.8", "--sweep",
                     "s", "--start", "1.8", "--stop", "1e-400", "--count", "3"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ") and "float range" in lines[0]


def test_scan_interior_point_past_float_range_is_usage_error(monkeypatch,
                                                              capsys):
    # both ends fit a float, but the midpoint ~5e-326 rounds to 0: the
    # first point (~3 s) ran before it stopped the scan
    def never(params, cfg, seed):
        raise AssertionError("alpha_sequence ran before the grid check")
    monkeypatch.setattr(hankel, "alpha_sequence", never)
    with deadline(5):
        code = main(["scan", "--M", "2", "--m", "2", "--s", "1.8", "--sweep",
                     "s", "--start=-1e-320", "--stop", "1.00001e-320",
                     "--count", "3", "--Dmax", "8"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: parameter s is past the float range\n"


@pytest.mark.parametrize("start,stop,count", [
    ("0", "1e-320", "10000"), ("1e-320", "0", "10000"),
    ("-1e-320", "1e-320", "10001")])
def test_scan_point_next_to_an_exact_zero_past_float_range_is_usage_error(
        start, stop, count, monkeypatch, capsys):
    # a grid point exactly at 0 hid its neighbours ~1e-324, whose floats
    # are 0, from the check: 1, 9997 or 4999 points ran before the scan
    # stopped, the 9997 each with s over a denominator of ~10^324
    def never(params, cfg, seed):
        raise AssertionError("alpha_sequence ran before the grid check")
    monkeypatch.setattr(hankel, "alpha_sequence", never)
    with deadline(5):
        code = main(["scan", "--M", "2", "--m", "2", "--s", "1.8", "--sweep",
                     "s", f"--start={start}", "--stop", stop, "--count",
                     count])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: parameter s is past the float range\n"


@settings(deadline=None)
@given(st.integers(-40, 40), st.integers(-40, 40), st.integers(1, 30))
def test_scan_about_zero_checks_every_point_first(start, stop, count):
    # ends a few smallest subnormals (~4.9e-324) from 0: the scan stops
    # before any point runs, or every point is in the float range
    points = []

    def run(params, hcfg, icfg):
        points.append(params)
        return cli._Run()
    argv = ["scan", "--M", "2", "--m", "2", "--s", "1.8", "--sweep", "s",
            f"--start={start}e-324", f"--stop={stop}e-324",
            "--count", str(count)]
    with pytest.MonkeyPatch.context() as mp, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        mp.setattr(cli, "_run", run)
        code = main(argv)
    assert (code, len(points)) in ((1, 0), (0, count))


def test_scan_of_zeros_runs(monkeypatch, capsys):
    # start == stop == 0 has no zero crossing to locate
    monkeypatch.setattr(cli, "_run", lambda params, hcfg, icfg: cli._Run())
    assert main(["scan", "--M", "2", "--m", "2", "--s", "1.8", "--sweep",
                 "s", "--start", "0", "--stop", "0", "--count", "3"]) == 0
    assert capsys.readouterr().out.count("\ns,0,") == 3


def test_scan_stop_of_one_point_past_float_range_is_usage_error(monkeypatch,
                                                                capsys):
    # --count 1 puts no point at --stop: 1e-400 passed unread, exit 0 with
    # one row, while --stop 1e9999999 was a usage error
    def never(params, cfg, seed):
        raise AssertionError("alpha_sequence ran before the grid check")
    monkeypatch.setattr(hankel, "alpha_sequence", never)
    with deadline(5):
        code = main(["scan", "--M", "2", "--m", "2", "--s", "1.8", "--sweep",
                     "s", "--start", "1.8", "--stop", "1e-400", "--count",
                     "1", "--Dmax", "8"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: parameter s is past the float range\n"


@pytest.mark.parametrize("value", ["-1e-3", "-1E-3", "-1/3", "-.5e1"])
@pytest.mark.parametrize("command", ["solve", "scan"])
def test_negative_value_after_a_space(command, value, monkeypatch):
    # argparse took these for options: "argument --s: expected one
    # argument"; only --s=-1e-3 worked
    class FirstPoint(Exception):
        pass

    def first_point(params, *args):
        raise FirstPoint(params)
    monkeypatch.setattr(cli, "_run", first_point)
    argv = (["solve", "--M", "2", "--m", "2", "--s", value] if command == "solve"
            else ["scan", "--M", "2", "--m", "2", "--s", "1.8", "--sweep", "s",
                  "--start", value, "--stop", "1", "--count", "2"])
    with pytest.raises(FirstPoint) as exc:
        main(argv)
    assert exc.value.args[0].exact[2] == Fraction(value)


def test_flag_without_value_is_usage_error(capsys):
    assert main(["solve", "--M", "2", "--s", "--m", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: argument --s: expected one argument\n"


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: mhdsheet solve")


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
    """Every command, and the package's two linear solves, in a fresh
    interpreter where numpy cannot be imported: the package needs only the
    standard library."""

    SCRIPT = ("import sys; sys.modules['numpy'] = None; "
              "from mhdsheet.cli import main; sys.exit(main(sys.argv[1:]))")

    def run(self, *argv, script=SCRIPT):
        src = str(Path(mhdsheet.__file__).resolve().parent.parent)
        proc = subprocess.run([sys.executable, "-c", script, *argv],
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

    def test_solve_general_and_pade(self):
        out = self.run(script=(
            "import sys; sys.modules['numpy'] = None; "
            "from mhdsheet import ModelParams, pade, solve_general; "
            "print(repr(solve_general(ModelParams(2, 2, 1.8), 4).alpha_est)); "
            "print(pade([1.0, 1.0, 0.5], 1, 1))"))
        # the paper value of test_ansatz.GENERAL_N4_RECORDS, and [1/1] of exp
        assert out.splitlines() == [
            "4.204106103234005",
            "PadeApproximant(num_coeffs=(1.0, 0.5), den_coeffs=(1.0, -0.5))"]


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
        args = build_parser().parse_args(
            ["profile", "--M", "2", "--m", "2", "--s", "1.8"])
        assert args.stride == ivp.IntegratorConfig().sample_stride == 0.01


@pytest.mark.parametrize("argv, code, message", [
    (["--M", "1e400", "--m", "2", "--s", "1.8"], 1, "does not fit a float"),
    # a nonzero value whose float is 0: read exactly, its table at 10^-800
    # had not finished after 100 s
    (["--M", "1e-400", "--m", "2", "--s", "1.8"], 1,
     "error: parameter M is past the float range"),
    (["--M", "1e200", "--m", "2", "--s", "1.8"], 2, "error: ComplexDecay: "),
    (["--M", "2", "--m", "2", "--s", "1e200"], 2, "error: ComplexDecay: "),
    (["--M", "2", "--m", "1e200", "--s", "1.8"], 2, "error: ComplexDecay: "),
], ids=["M-1e400", "M-1e-400", "M-1e200", "s-1e200", "m-1e200"])
def test_overflowing_parameter_is_named_error(argv, code, message, capsys):
    assert main(["solve", *argv]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    errors = [l for l in captured.err.splitlines() if "error:" in l]
    assert len(errors) == 1
    assert message in errors[0]


@pytest.mark.parametrize("argv, message", [
    (["--M", "1e9999999", "--m", "2", "--s", "1.8"], "does not fit a float"),
    (["--M", "2", "--m", "2", "--s", "1e-9999999"],
     "error: parameter s is past the float range"),
], ids=["M-1e9999999", "s-1e-9999999"])
def test_huge_exponent_is_read_from_the_text(argv, message, capsys):
    # Fraction("1e9999999") computes 10^9999999: parsing took ~11 s
    with deadline(2):
        assert main(["solve", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [l for l in captured.err.splitlines() if "error:" in l]
    assert len(errors) == 1
    assert message in errors[0]


def test_scan_huge_exponent_end_is_usage_error(monkeypatch, capsys):
    def never(params, cfg, seed):
        raise AssertionError("alpha_sequence ran before the grid check")
    monkeypatch.setattr(hankel, "alpha_sequence", never)
    with deadline(2):
        code = main(["scan", "--M", "2", "--m", "2", "--s", "1.8", "--sweep",
                     "s", "--start", "1e9999999", "--stop", "2", "--count", "3"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ") and "does not fit a float" in lines[0]


def test_zero_with_huge_exponent_is_zero(capsys):
    # a valid 0, whose Fraction took 9.5 s
    with deadline(2):
        code = main(["solve", "--M", "0e9999999", "--m", "2", "--s", "1.8"])
    out = capsys.readouterr().out
    assert main(["solve", "--M", "0", "--m", "2", "--s", "1.8"]) == code
    assert capsys.readouterr().out == out


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
