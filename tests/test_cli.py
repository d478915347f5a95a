import json
import math
from fractions import Fraction

import pytest

from mhdsheet.cli import build_parser, main

from conftest import PAPER_ALPHA

# small Hankel depth keeps CLI runs fast; the paper case settles early
FAST = ["--M", "2", "--m", "2", "--s", "1.8", "--Dmax", "14"]


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

        def stub(params, cfg):
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


class TestParser:
    def test_usage_error_exit_code(self):
        assert main(["solve", "--M", "2"]) == 1

    def test_bad_decimal_rejected(self):
        assert main(["solve", "--M", "two", "--m", "2", "--s", "1.8"]) == 1

    def test_parser_builds(self):
        ap = build_parser()
        args = ap.parse_args(["solve", "--M", "2", "--m", "2", "--s", "1.8"])
        assert args.command == "solve"
