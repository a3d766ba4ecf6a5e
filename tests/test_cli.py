"""Command line surface: eval/check/suite verbs, exit codes, and the JSON
and CSV wire formats."""

import csv
import io
import json
import subprocess
import sys

import pytest

from qkernel import verify_thm_1_1, verify_thm_1_4
from qkernel.cli import (format_complex, main, parse_complex,
                         report_from_dict, report_to_dict, render_reports)


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _parse_printed_value(text):
    """Invert format_complex: "re" or "re<sign>imi"."""
    if text.endswith("i"):
        body = text[:-1]
        for pos in range(len(body) - 1, 0, -1):
            if body[pos] in "+-" and body[pos - 1] not in "eE":
                return complex(float(body[:pos]), float(body[pos:]))
    return complex(float(text), 0.0)


class TestParsing:
    def test_complex_forms(self):
        assert parse_complex("0.5") == 0.5
        assert parse_complex("0.5,-0.25") == complex(0.5, -0.25)
        with pytest.raises(Exception):
            parse_complex("1,2,3")

    def test_format_complex(self):
        assert format_complex(1.0) == "1"
        assert format_complex(complex(0.5, -0.25)) == "0.5-0.25i"
        assert format_complex(10 / 7).startswith("1.42857142857142")


class TestEval:
    def test_ultraspherical_at_theta_zero(self, capsys):
        code, out, _ = run_cli(
            ["eval", "C", "--n", "1", "--beta", "0.5", "--q", "0.3", "--theta", "0"], capsys)
        assert code == 0
        assert float(out.strip()) == pytest.approx(2 * 0.5 / 0.7, rel=1e-15)

    def test_chebyshev_at_one(self, capsys):
        code, out, _ = run_cli(["eval", "T", "--n", "3", "--x", "1"], capsys)
        assert code == 0
        assert float(out.strip()) == 1

    def test_qpoch(self, capsys):
        code, out, _ = run_cli(["eval", "qpoch", "--a", "0.5", "--q", "0.3", "--n", "2"], capsys)
        assert code == 0
        assert float(out.strip()) == pytest.approx(0.425, rel=1e-15)

    def test_qpoch_infinite_index(self, capsys):
        code, out, _ = run_cli(["eval", "qpoch", "--a", "0", "--q", "0.5", "--n", "inf"], capsys)
        assert code == 0
        assert float(out.strip()) == 1

    def test_phi_series(self, capsys):
        code, out, _ = run_cli(
            ["eval", "phi", "--upper", "0.4", "--z", "0.5", "--q", "0.3"], capsys)
        assert code == 0
        assert float(out.strip()) > 1

    def test_wseries_repeatable_flag(self, capsys):
        code, out, _ = run_cli(
            ["eval", "wseries", "--a1", "0.1", "--b", "0.7", "--b", "0.6", "--b", "0.8",
             "--q", "0.4", "--z", "0"], capsys)
        assert code == 0
        assert float(out.strip()) == 1

    def test_jackson_polynomial(self, capsys):
        # f(z) = z from 0 to b: b^2/(1+q)
        code, out, _ = run_cli(
            ["eval", "jackson", "--coeff", "0", "--coeff", "1",
             "--a", "0", "--b", "0.8", "--q", "0.35"], capsys)
        assert code == 0
        assert float(out.strip()) == pytest.approx(0.64 / 1.35, rel=1e-12)

    def test_jackson_complex_polynomial(self, capsys):
        # the integrand gets arrays of complex rungs; z^k from a to b is
        # (1-q) (b^{k+1} - a^{k+1}) / (1 - q^{k+1})
        coeffs, a, b, q = [1 + 2j, -0.5j, 0.25], 0.3 - 0.2j, 0.9 + 0.1j, 0.6
        code, out, _ = run_cli(
            ["eval", "jackson", "--coeff", "1,2", "--coeff", "0,-0.5", "--coeff", "0.25",
             "--a", "0.3,-0.2", "--b", "0.9,0.1", "--q", "0.6"], capsys)
        assert code == 0
        want = sum(c * (1 - q) * (b**(k + 1) - a**(k + 1)) / (1 - q**(k + 1))
                   for k, c in enumerate(coeffs))
        assert _parse_printed_value(out.strip()) == pytest.approx(want, rel=1e-13)

    def test_method_selection(self, capsys):
        args = ["eval", "C", "--n", "4", "--beta", "0.5", "--q", "0.3", "--x", "0.4"]
        _, base, _ = run_cli(args, capsys)
        for method in ("explicit", "recurrence", "genfunc"):
            code, out, _ = run_cli(args + ["--method", method], capsys)
            assert code == 0
            got = _parse_printed_value(out.strip())
            assert got.real == pytest.approx(float(base.strip()), rel=1e-11)

    def test_remaining_targets(self, capsys):
        from qkernel import gasper_c, h_norm, phi_poly, q_hermite, weight_omega_beta
        cases = [
            (["eval", "Cg", "--n", "2", "--theta", "0.9", "--alpha", "0.4",
              "--beta", "-0.3", "--q", "0.35"],
             gasper_c(2, 0.9, 0.4, -0.3, 0.35)),
            (["eval", "H", "--n", "3", "--x", "0.4", "--q", "0.5"],
             q_hermite(3, 0.4, 0.5)),
            (["eval", "h", "--n", "2", "--beta", "0.6", "--q", "0.3"],
             h_norm(2, 0.6, 0.3)),
            (["eval", "omega_b", "--theta", "1.1", "--beta", "0.5", "--q", "0.3"],
             weight_omega_beta(1.1, 0.5, 0.3)),
            (["eval", "Phi", "--n", "2", "--alpha", "0.3", "--beta", "0.2",
              "--x", "1", "--y", "1", "--q", "0.3"],
             phi_poly(2, 0.3, 0.2, 1.0, 1.0, 0.3)),
        ]
        for args, expected in cases:
            code, out, _ = run_cli(args, capsys)
            assert code == 0
            got = _parse_printed_value(out.strip())
            assert got == pytest.approx(complex(expected), rel=1e-10, abs=1e-12)

    def test_pole_is_a_numeric_error(self, capsys):
        code, _, err = run_cli(["eval", "qpoch", "--a", "0.3", "--q", "0.3", "--n", "-1"], capsys)
        assert code == 1
        assert "error" in err.lower()

    def test_missing_argument_is_usage(self, capsys):
        code, _, err = run_cli(["eval", "C", "--n", "1"], capsys)
        assert code == 2
        assert "usage" in err.lower()

    def test_unknown_flag_is_usage(self, capsys):
        code, _, _ = run_cli(
            ["eval", "T", "--n", "1", "--x", "0.5", "--bogus", "1"], capsys)
        assert code == 2

    def test_unknown_target_exits_two(self):
        with pytest.raises(SystemExit) as info:
            main(["eval", "nope"])
        assert info.value.code == 2


class TestCheck:
    def test_passing_check_exits_zero(self, capsys):
        code, out, _ = run_cli(
            ["check", "thm-1.1", "--m", "3", "--n", "3", "--beta", "0.6", "--q", "0.3"], capsys)
        assert code == 0
        assert out.startswith("PASS thm-1.1")

    def test_parity_case(self, capsys):
        code, out, _ = run_cli(
            ["check", "thm-1.2", "--m", "2", "--n", "1", "--beta", "0.25",
             "--gamma", "0.5", "--q", "0.4"], capsys)
        assert code == 0
        assert "rhs=0.0" in out

    def test_unattainable_tolerance_exits_one(self, capsys):
        code, out, _ = run_cli(
            ["check", "thm-1.1", "--m", "3", "--n", "3", "--beta", "0.6", "--q", "0.3",
             "--tol", "1e-30"], capsys)
        assert code == 1
        assert out.startswith("FAIL")

    def test_unknown_check_exits_two(self):
        with pytest.raises(SystemExit) as info:
            main(["check", "thm-9.9"])
        assert info.value.code == 2

    def test_missing_parameters_are_usage(self, capsys):
        code, _, err = run_cli(["check", "thm-1.1", "--m", "3"], capsys)
        assert code == 2
        assert "usage" in err.lower()

    def test_ctx_is_usage(self, capsys):
        code, _, err = run_cli(
            ["check", "qbinomial", "--a", "0.4", "--z", "0.5", "--q", "0.3", "--ctx", "1"],
            capsys)
        assert code == 2
        assert "usage" in err.lower()

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            ["check", "qbinomial", "--a", "0.4", "--z", "0.5", "--q", "0.3",
             "--format", "json"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["check_id"] == "qbinomial"
        assert data["pass"] is True

    def test_report_written_to_file(self, tmp_path, capsys):
        target = tmp_path / "one.json"
        code, out, _ = run_cli(
            ["check", "qbinomial", "--a", "0.4", "--z", "0.5", "--q", "0.3",
             "--format", "json", "--out", str(target)], capsys)
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["pass"] is True


class TestSerialization:
    def test_json_round_trip(self):
        report = verify_thm_1_1(2, 2, 0.6, 0.3)
        rebuilt = report_from_dict(json.loads(json.dumps(report_to_dict(report))))
        assert rebuilt == report

    def test_json_round_trip_with_diagnostics(self):
        report = verify_thm_1_4(0.5, 0.2, 0.3, 0.25, 0.3)
        rebuilt = report_from_dict(json.loads(json.dumps(report_to_dict(report))))
        assert rebuilt == report

    def test_json_field_order(self):
        report = verify_thm_1_1(0, 1, 0.6, 0.3)
        data = report_to_dict(report)
        assert list(data) == ["check_id", "params", "lhs", "rhs", "abs_err",
                              "rel_err", "tol", "nodes_used", "pass", "runtime_ms"]
        assert data["lhs"] == [report.lhs.real, report.lhs.imag]

    def test_csv_columns(self):
        report = verify_thm_1_1(1, 1, 0.6, 0.3)
        rows = list(csv.reader(io.StringIO(render_reports([report], "csv"))))
        assert rows[0] == ["check_id", "params", "lhs", "rhs", "abs_err",
                           "rel_err", "tol", "nodes_used", "pass", "runtime_ms"]
        assert rows[1][0] == "thm-1.1"
        assert rows[1][8] == "true"
        assert float(rows[1][6]) == report.tol


class TestSuiteCommand:
    def test_subset_run(self, capsys):
        code, out, _ = run_cli(["suite", "--only", "qbinomial"], capsys)
        assert code == 0
        assert out.strip().endswith("PASS 4/4")

    def test_json_to_file(self, tmp_path, capsys):
        target = tmp_path / "reports.json"
        code, out, _ = run_cli(
            ["suite", "--only", "uniform-bound", "--format", "json",
             "--out", str(target)], capsys)
        assert code == 0
        data = json.loads(target.read_text())
        assert len(data) == 4
        assert all(entry["pass"] for entry in data)
        assert out.strip() == "PASS 4/4"

    def test_csv_to_stdout(self, capsys):
        code, out, _ = run_cli(["suite", "--only", "qbinomial", "--format", "csv"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("check_id,")
        assert lines[-1] == "PASS 4/4"

    def test_custom_config(self, tmp_path, capsys):
        config = {"qbinomial": [{"a": 0.4, "z": [0.3, 0.2], "q": 0.35},
                                {"a": "-0.2,0.1", "z": 0.5, "q": 0.3}]}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code, out, _ = run_cli(["suite", "--config", str(path)], capsys)
        assert code == 0
        assert out.strip().endswith("PASS 2/2")

    def test_bad_config_exits_two(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run_cli(["suite", "--config", str(path)], capsys)
        assert code == 2
        assert "config error" in err

    def test_unknown_check_in_config_exits_two(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"thm-77": []}))
        code, _, _ = run_cli(["suite", "--config", str(path)], capsys)
        assert code == 2

    @pytest.mark.parametrize("check_id,entry", [
        ("qbinomial", {"a": 0.4, "z": 0.5, "q": 0.3, "zz": 1.0}),
        ("qbinomial", {"a": 0.4, "z": 0.5}),
        ("qbinomial", {"a": 0.4, "z": 0.5, "q": 0.3, "tol": None}),
        ("qbinomial", {"a": 0.4, "z": 0.5, "q": 0.3, "ctx": 0.3}),
        ("thm-1.1", {"m": 3.7, "n": 2, "beta": 0.6, "q": 0.3}),
        ("thm-1.1", {"m": True, "n": 2, "beta": 0.6, "q": 0.3}),
    ], ids=["unknown-key", "missing-parameter", "null-tol", "ctx-key",
            "fractional-integer", "boolean-integer"])
    def test_malformed_config_entry_exits_two(self, tmp_path, capsys, check_id, entry):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({check_id: [entry]}))
        code, _, err = run_cli(["suite", "--config", str(path)], capsys)
        assert code == 2
        assert "config error" in err

    def test_unknown_only_id_exits_two(self, capsys):
        code, _, _ = run_cli(["suite", "--only", "nope"], capsys)
        assert code == 2

    def test_forced_failure_exits_one(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("QKERNEL_TOL", "1e-30")
        code, out, _ = run_cli(["suite", "--only", "qbinomial"], capsys)
        assert code == 1
        assert "FAIL" in out.strip().splitlines()[-1]

    def test_malformed_env_tolerance_is_usage(self, capsys, monkeypatch):
        monkeypatch.setenv("QKERNEL_TOL", "not-a-number")
        code, _, _ = run_cli(["suite", "--only", "qbinomial"], capsys)
        assert code == 2


class TestModuleEntryPoint:
    def test_python_dash_m(self, child_env):
        proc = subprocess.run(
            [sys.executable, "-m", "qkernel", "eval", "T", "--n", "3", "--x", "1"],
            capture_output=True, text=True, timeout=120, env=child_env)
        assert proc.returncode == 0
        assert float(proc.stdout.strip()) == 1
