"""Command line surface: eval/check/suite verbs, the argument binder they
share, exit codes, and the JSON and CSV wire formats."""

import csv
import inspect
import io
import json
import re
import shlex
import subprocess
import sys
import typing
from pathlib import Path

import pytest

from qkernel import default_suite_config, verify_thm_1_1, verify_thm_1_4
from qkernel.cli import (EVAL_TARGETS, format_complex, main, parse_number,
                         report_from_dict, report_to_dict, render_reports)
from qkernel.verify import CHECK_RUNNERS


def run_cli(args, capsys):
    """Exit code (argparse's own exit included), stdout and stderr of one run."""
    try:
        code = main(args)
    except SystemExit as exc:
        code = exc.code
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
        assert parse_number("0.5") == 0.5
        assert isinstance(parse_number("0.5"), float)
        assert parse_number("0.5,-0.25") == complex(0.5, -0.25)
        with pytest.raises(ValueError):
            parse_number("1,2,3")

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
        ("qbinomial", {"a": True, "z": 0.5, "q": 0.3}),
        ("qbinomial", {"a": [0.4, 0.1, 0.2], "z": 0.5, "q": 0.3}),
    ], ids=["unknown-key", "missing-parameter", "null-tol", "ctx-key",
            "fractional-integer", "boolean-integer", "boolean-number", "three-part-number"])
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


# ---------------------------------------------------------------------------
# One binder for eval, check and suite --config

# Exit code and stdout (runtimes masked) of each invocation, byte for byte,
# so that a change to a printed value or an exit code has to be deliberate.
# Every eval target and check id has at least one row that exits 0.
GOLDEN = [
    ('eval qpoch --a 0.5 --q 0.3 --n 2', 0, '0.42499999999999999\n'),
    ('eval qpoch --a 0 --q 0.5 --n inf', 0, '1\n'),
    ('eval qpoch --a 0.4,0.2 --q 0.6 --n inf', 0, '0.26147335186344867-0.20993470708075404i\n'),
    ('eval qpoch --a 0.5 --q 0.3 --n -2', 0, '0.32926829268292679\n'),
    ('eval qpoch --a 0.7 --q -0.45 --n 7', 0, '0.35229722371826322\n'),
    ('eval phi --upper 0.4 --z 0.5 --q 0.3', 0, '1.8407690827383283\n'),
    ('eval phi --upper 0.2 --upper 0.3,0.1 --lower 0.5 --z 0.4 --q 0.6', 0,
     '3.4890184211904072-0.49641286840505416i\n'),
    ('eval wseries --a1 0.1 --b 0.7 --b 0.6 --b 0.8 --q 0.4 --z 0', 0, '1\n'),
    ('eval wseries --a1 0.2 --b 0.3 --b 0.4 --q 0.5 --z 0.3', 0, '1.7226339251962521\n'),
    ('eval C --n 1 --beta 0.5 --q 0.3 --theta 0', 0, '1.4285714285714286\n'),
    ('eval C --n 4 --beta 0.5 --q 0.3 --x 0.4', 0, '-0.28894777333819838\n'),
    ('eval C --n 4 --beta 0.5 --q 0.3 --x 0.4 --method explicit', 0, '-0.28894777333819788\n'),
    ('eval C --n 4 --beta 0.5 --q 0.3 --x 0.4 --method recurrence', 0, '-0.28894777333819838\n'),
    ('eval C --n 4 --beta 0.5 --q 0.3 --x 0.4 --method genfunc', 0,
     '-0.28894777333819888-4.4408920985006262e-16i\n'),
    ('eval C --n 5 --beta 0.3,0.2 --q -0.5 --x 0.2 --method explicit', 0,
     '0.90228671864066834-0.15205929668461418i\n'),
    ('eval C --n 6 --beta 0.6 --q -0.5 --theta 0.7 --method EXPLICIT', 0,
     '-0.38221024122127978\n'),
    ('eval Cg --n 2 --theta 0.9 --alpha 0.4 --beta -0.3 --q 0.35', 0,
     '1.0683987028038526-1.5716445219783102i\n'),
    ('eval Cg --n 3 --theta 0.9 --alpha 0.4 --beta -0.3 --q 0.35 --method genfunc', 0,
     '-0.7091833661294682-1.1855123467081539i\n'),
    ('eval Phi --n 2 --alpha 0.3 --beta 0.2 --x 1 --y 1 --q 0.3', 0, '2.117\n'),
    ('eval Phi --n 3 --alpha 0.3,0.1 --beta 0.2 --x 0.5,0.5 --y 0.5,-0.5 --q 0.4', 0,
     '0.10611199999999998-0.077744000000000008i\n'),
    ('eval H --n 3 --x 0.4 --q 0.5', 0, '-0.48799999999999988\n'),
    ('eval T --n 3 --x 1', 0, '1\n'),
    ('eval T --n 5 --x 0.3', 0, '0.99887999999999999\n'),
    ('eval h --n 2 --beta 0.6 --q 0.3', 0, '0.61010237707709336\n'),
    ('eval h --n 3 --beta 0.2,0.1 --q 0.4', 0, '0.062650844593472851+0.024982992684297857i\n'),
    ('eval omega_b --theta 1.1 --beta 0.5 --q 0.3', 0, '2.2469583460907412\n'),
    ('eval omega_ab --theta 1.1 --alpha 0.4 --beta 0.2,0.1 --q 0.3', 0,
     '3.4871460438884641+0.29394411640475548i\n'),
    ('eval jackson --coeff 0 --coeff 1 --a 0 --b 0.8 --q 0.35', 0, '0.4740740740740742\n'),
    ('eval jackson --coeff 1,2 --coeff 0,-0.5 --coeff 0.25 --a 0.3,-0.2 --b 0.9,0.1 --q 0.6', 0,
     '0.18443877551020443+1.302359693877535i\n'),
    ('eval qpoch --a 0.3 --q 0.3 --n -1', 1, ''),
    ('eval qpoch --a 0.5 --q 1.5 --n inf', 1, ''),
    ('eval T --n -1 --x 0.5', 1, ''),
    ('eval C --n 1', 2, ''),
    ('eval C --n 1 --beta 0.5 --q 0.3', 2, ''),
    ('eval C --n 1 --beta 0.5 --q 0.3 --theta 0 --x 1', 2, ''),
    ('eval T --n 1 --x 0.5 --bogus 1', 2, ''),
    ('eval T --n 1 --x 0.5 --ctx 1', 2, ''),
    ('eval qpoch --a 0.5 --a 0.6 --q 0.3 --n 2', 2, ''),
    ('eval qpoch --a 0.5 --q 0.3 --n 2.5', 2, ''),
    ('eval qpoch --a 0.5 --q 0.3 --n x', 2, ''),
    ('eval qpoch --a 1,2,3 --q 0.3 --n 2', 2, ''),
    ('eval C --n 2.5 --beta 0.5 --q 0.3 --x 0.4', 2, ''),
    ('eval C --n 4 --beta 0.5 --q 0.3 --x 0.4 --method bogus', 2, ''),
    ('eval T --n 3 --x 0.4,0.1', 2, ''),
    ('eval H --n 3 --x 0.4,0.1 --q 0.5', 2, ''),
    ('eval C --n 4 --beta 0.5 --q 0.3 --x 0.4,0.1 --method genfunc', 2, ''),
    ('eval C --n 4 --beta 0.5 --q 0.3 --theta 1,1', 2, ''),
    ('eval Cg --n 2 --theta 1,1 --alpha 0.4 --beta -0.3 --q 0.35', 2, ''),
    ('eval omega_b --theta 1,1 --beta 0.5 --q 0.3', 2, ''),
    ('eval omega_ab --theta 1,1 --alpha 0.4 --beta 0.2 --q 0.3', 2, ''),
    ('eval T --n 3 --x', 2, ''),
    ('eval T n 3', 2, ''),
    ('eval nope', 2, ''),
    ('eval phi --z 0.5 --q 0.3', 2, ''),
    ('eval jackson --a 0 --b 0.8 --q 0.35', 2, ''),
    ('check thm-1.1 --m 3 --n 3 --beta 0.6 --q 0.3', 0,
     'PASS thm-1.1 [m=3 n=3 beta=0.6 q=0.3] '
     'lhs=1.5673450639482838+3.458551972555152e-18i rhs=1.5673450639482838 '
     'rel_err=1.347e-18 tol=1.0e-09 nodes=256 t=*ms\n'),
    ('check thm-1.1 --m 3 --n 2 --beta 0.6 --q 0.3 --format json', 0,
     '{\n'
     '  "check_id": "thm-1.1",\n'
     '  "params": {\n'
     '    "m": 3,\n'
     '    "n": 2,\n'
     '    "beta": 0.6,\n'
     '    "q": 0.3\n'
     '  },\n'
     '  "lhs": [\n'
     '    -1.5429730757792092e-16,\n'
     '    -6.16703534281803e-18\n'
     '  ],\n'
     '  "rhs": [\n'
     '    0.0,\n'
     '    0.0\n'
     '  ],\n'
     '  "abs_err": 1.5442050204139055e-16,\n'
     '  "rel_err": 1.5442050204139052e-16,\n'
     '  "tol": 1e-09,\n'
     '  "nodes_used": 128,\n'
     '  "pass": true,\n'
     '  "runtime_ms": *\n'
     '}\n'),
    ('check thm-1.2 --m 2 --n 1 --beta 0.25 --gamma 0.5 --q 0.4', 0,
     'PASS thm-1.2 [m=2 n=1 beta=0.25 gamma=0.5 q=0.4] '
     'lhs=2.5690672017802837e-16-6.5333752070224515e-18i rhs=0.0 rel_err=2.570e-16 '
     'tol=1.0e-08 nodes=128 t=*ms\n'),
    ('check thm-1.2 --m 4 --n 2 --beta 0.25 --gamma 0.5 --q 0.4', 0,
     'PASS thm-1.2 [m=4 n=2 beta=0.25 gamma=0.5 q=0.4] '
     'lhs=-2.6849093440671865-1.3372349774781456e-17i rhs=-2.684909344067191 '
     'rel_err=1.205e-15 tol=1.0e-08 nodes=128 t=*ms\n'),
    ('check thm-1.3 --m 2 --n 2 --alpha 0.4 --beta -0.3 --q 0.35', 0,
     'PASS thm-1.3 [m=2 n=2 alpha=0.4 beta=-0.3 q=0.35] '
     'lhs=29.54896999057961-1.7083828550121625e-15i rhs=29.548969990579682 '
     'rel_err=2.327e-15 tol=1.0e-09 nodes=128 t=*ms\n'),
    ('check thm-1.4 --alpha 0.5 --beta 0.2 --s 0.3 --t 0.25 --q 0.3', 0,
     'PASS thm-1.4 [alpha=0.5 beta=0.2 s=0.3 t=0.25 q=0.3 '
     'series_tail_bound=1.5635846500390748e-14] '
     'lhs=12.091649623542251-1.307950686753237e-16i rhs=12.091649623542228 '
     'rel_err=1.764e-15 tol=1.0e-08 nodes=256 t=*ms\n'),
    ('check prop-3.1 --a 0.3 --b 0.2 --c 0.4 --x 0.5 --y 0.7 --q 0.35', 0,
     'PASS prop-3.1 [a=0.3 b=0.2 c=0.4 x=0.5 y=0.7 q=0.35] lhs=0.16432244936149654 '
     'rhs=0.16432244936149726 rel_err=6.198e-16 tol=1.0e-09 nodes=62 t=*ms\n'),
    ('check prop-3.2 --n 3 --a 0.3 --b 0.2 --x 0.6,0.3 --y 0.6,-0.3 --q 0.3', 0,
     'PASS prop-3.2 [n=3 a=0.3 b=0.2 x=0.6+0.3i y=0.6-0.3i q=0.3] '
     'lhs=0.46215711000000004-0.03839543100000001i '
     'rhs=0.4621571099999996-0.03839543099999973i rel_err=3.578e-16 tol=1.0e-09 '
     'nodes=26 t=*ms\n'),
    ('check rogers-connection --n 4 --beta 0.4 --gamma 0.7 --q 0.3', 0,
     'PASS rogers-connection [n=4 beta=0.4 gamma=0.7 q=0.3 grid_size=16] '
     'lhs=1.0944582106346556 rhs=1.094458210634654 rel_err=7.421e-16 tol=1.0e-10 '
     'nodes=16 t=*ms\n'),
    ('check rogers-connection --n 4 --beta 0.4 --gamma 0.7 --q 0.3 --theta_grid 5', 0,
     'PASS rogers-connection [n=4 beta=0.4 gamma=0.7 q=0.3 grid_size=5] '
     'lhs=-0.5298895733830092 rhs=-0.5298895733830096 rel_err=2.177e-16 tol=1.0e-10 '
     'nodes=5 t=*ms\n'),
    ('check askey-ismail --n 1 --k 2 --beta 0.5 --q 0.3', 0,
     'PASS askey-ismail [n=1 k=2 beta=0.5 q=0.3] '
     'lhs=-0.32298360546252713+2.3601668128950827e-18i rhs=-0.32298360546252614 '
     'rel_err=7.553e-16 tol=1.0e-08 nodes=256 t=*ms\n'),
    ('check gf-4.1 --beta 0.5 --q 0.3 --theta 0.9', 0,
     'PASS gf-4.1 [beta=0.5 q=0.3 theta=0.9 degree=16] lhs=0.2385845562072766 '
     'rhs=0.23858455620727792+1.3322676295501878e-15i rel_err=1.521e-15 tol=1.0e-09 '
     'nodes=17 t=*ms\n'),
    ('check gf-4.1 --beta 0.3 --q 0.4 --theta 1.1 --degree 12 --format json', 0,
     '{\n'
     '  "check_id": "gf-4.1",\n'
     '  "params": {\n'
     '    "beta": 0.3,\n'
     '    "q": 0.4,\n'
     '    "theta": 1.1,\n'
     '    "degree": 12\n'
     '  },\n'
     '  "lhs": [\n'
     '    0.64721871595588,\n'
     '    0.0\n'
     '  ],\n'
     '  "rhs": [\n'
     '    0.6472187159558831,\n'
     '    -2.4868995751603504e-16\n'
     '  ],\n'
     '  "abs_err": 3.1185562018226835e-15,\n'
     '  "rel_err": 1.8932253328684295e-15,\n'
     '  "tol": 1e-09,\n'
     '  "nodes_used": 13,\n'
     '  "pass": true,\n'
     '  "runtime_ms": *\n'
     '}\n'),
    ('check prop-4.2 --beta 0.3 --gamma 0.6 --q 0.4 --theta 1.1', 0,
     'PASS prop-4.2 [beta=0.3 gamma=0.6 q=0.4 theta=1.1 degree=12] '
     'lhs=0.5672540095753165 rhs=0.5672540095753168 rel_err=2.125e-16 tol=1.0e-09 '
     'nodes=13 t=*ms\n'),
    ('check uniform-bound --n 10 --alpha 0.7 --beta -0.5 --q 0.6 --grid_size 32', 0,
     'PASS uniform-bound [n=10 alpha=0.7 beta=-0.5 q=0.6 grid_size=32] lhs=0.0 '
     'rhs=0.0 rel_err=0.000e+00 tol=1.0e-12 nodes=32 t=*ms\n'),
    ('check qbinomial --a 0.4 --z 0.5 --q 0.3', 0,
     'PASS qbinomial [a=0.4 z=0.5 q=0.3] lhs=1.8407690827383283 '
     'rhs=1.840769082738352 rel_err=8.364e-15 tol=1.0e-11 nodes=0 t=*ms\n'),
    ('check qbinomial --a 0.4 --z 0.3,0.2 --q 0.35 --tol 1e-10 --format json', 0,
     '{\n'
     '  "check_id": "qbinomial",\n'
     '  "params": {\n'
     '    "a": 0.4,\n'
     '    "z": [\n'
     '      0.3,\n'
     '      0.2\n'
     '    ],\n'
     '    "q": 0.35\n'
     '  },\n'
     '  "lhs": [\n'
     '    1.2959143508367112,\n'
     '    0.34471261533716824\n'
     '  ],\n'
     '  "rhs": [\n'
     '    1.2959143508367195,\n'
     '    0.34471261533717057\n'
     '  ],\n'
     '  "abs_err": 8.54006181933195e-15,\n'
     '  "rel_err": 3.648075060027787e-15,\n'
     '  "tol": 1e-10,\n'
     '  "nodes_used": 0,\n'
     '  "pass": true,\n'
     '  "runtime_ms": *\n'
     '}\n'),
    ('check rogers-6phi5 --a 0.1 --b 0.7 --c 0.6 --d 0.8 --q 0.4', 0,
     'PASS rogers-6phi5 [a=0.1 b=0.7 c=0.6 d=0.8 q=0.4] lhs=1.0059447399983872 '
     'rhs=1.0059447399984027 rel_err=7.749e-15 tol=1.0e-11 nodes=0 t=*ms\n'),
    ('check thm-1.1 --m 3 --n 3 --beta 0.6 --q 0.3 --tol 1e-30', 1,
     'FAIL thm-1.1 [m=3 n=3 beta=0.6 q=0.3] '
     'lhs=1.5673450639482838+3.458551972555152e-18i rhs=1.5673450639482838 '
     'rel_err=1.347e-18 tol=1.0e-30 nodes=256 t=*ms\n'),
    ('check rogers-6phi5 --a 0.1 --b 0 --c 0.6 --d 0.8 --q 0.4', 1,
     'FAIL rogers-6phi5 [a=0.1 b=0.0 c=0.6 d=0.8 q=0.4] lhs=0.0 rhs=0.0 rel_err=inf '
     'tol=1.0e-11 nodes=0 t=*ms\n'),
    ('check thm-1.1 --m 3', 2, ''),
    ('check qbinomial --a 0.4 --z 0.5 --q 0.3 --ctx 1', 2, ''),
    ('check qbinomial --a 0.4 --z 0.5 --q 0.3 --zz 1', 2, ''),
    ('check qbinomial --a 0.4 --a 0.5 --z 0.5 --q 0.3', 2, ''),
    ('check thm-1.1 --m 3.7 --n 2 --beta 0.6 --q 0.3', 2, ''),
    ('check thm-1.1 --m 3 --n 3 --beta 0.6 --q 0.3 --format xml', 2, ''),
    ('check thm-1.1 --m 3 --n 3 --beta 0.6 --q 0.3 --tol abc', 2, ''),
    ('check gf-4.1 --beta 0.5 --q 0.3 --theta 0.9,0.1', 2, ''),
    ('check gf-4.1 --beta 0.5 --q 0.3 --theta 0.9 --degree 2.5', 2, ''),
    ('check thm-9.9', 2, ''),
    ('suite --only qbinomial', 0,
     'PASS qbinomial [a=-0.3 z=0.6 q=0.5] lhs=6.887995208206448 '
     'rhs=6.887995208206503 rel_err=6.981e-15 tol=1.0e-11 nodes=0 t=*ms\n'
     'PASS qbinomial [a=0.2 z=0.6687355423879241-0.20686414466293768i q=0.6] '
     'lhs=3.641955643230073-4.320236302032429i '
     'rhs=3.64195564323003-4.320236302032424i rel_err=6.512e-15 tol=1.0e-11 nodes=0 '
     't=*ms\n'
     'PASS qbinomial [a=0.4 z=0.5 q=0.3] lhs=1.8407690827383283 '
     'rhs=1.840769082738352 rel_err=8.364e-15 tol=1.0e-11 nodes=0 t=*ms\n'
     'PASS qbinomial [a=0.7020660495122982+0.3835404308833624i z=0.4 q=0.35] '
     'lhs=1.25919023007068-0.3885783654461857i '
     'rhs=1.2591902300706828-0.38857836544619606i rel_err=4.624e-15 tol=1.0e-11 '
     'nodes=0 t=*ms\n'
     'PASS 4/4\n'),
    ('suite --only rogers-6phi5 --format json', 0,
     '[\n'
     '  {\n'
     '    "check_id": "rogers-6phi5",\n'
     '    "params": {\n'
     '      "a": 0.05,\n'
     '      "b": 0.6,\n'
     '      "c": 0.5,\n'
     '      "d": 0.9,\n'
     '      "q": 0.3\n'
     '    },\n'
     '    "lhs": [\n'
     '      1.0017551355323437,\n'
     '      0.0\n'
     '    ],\n'
     '    "rhs": [\n'
     '      1.0017551355323464,\n'
     '      0.0\n'
     '    ],\n'
     '    "abs_err": 2.6645352591003757e-15,\n'
     '    "rel_err": 1.331099499535826e-15,\n'
     '    "tol": 1e-11,\n'
     '    "nodes_used": 0,\n'
     '    "pass": true,\n'
     '    "runtime_ms": *\n'
     '  },\n'
     '  {\n'
     '    "check_id": "rogers-6phi5",\n'
     '    "params": {\n'
     '      "a": 0.1,\n'
     '      "b": 0.7,\n'
     '      "c": 0.6,\n'
     '      "d": 0.8,\n'
     '      "q": 0.4\n'
     '    },\n'
     '    "lhs": [\n'
     '      1.0059447399983872,\n'
     '      0.0\n'
     '    ],\n'
     '    "rhs": [\n'
     '      1.0059447399984027,\n'
     '      0.0\n'
     '    ],\n'
     '    "abs_err": 1.554312234475219e-14,\n'
     '    "rel_err": 7.748529675231517e-15,\n'
     '    "tol": 1e-11,\n'
     '    "nodes_used": 0,\n'
     '    "pass": true,\n'
     '    "runtime_ms": *\n'
     '  },\n'
     '  {\n'
     '    "check_id": "rogers-6phi5",\n'
     '    "params": {\n'
     '      "a": 0.3,\n'
     '      "b": 2.857142857142857,\n'
     '      "c": 0.4,\n'
     '      "d": 0.5,\n'
     '      "q": 0.35\n'
     '    },\n'
     '    "lhs": [\n'
     '      0.7296717442608883,\n'
     '      0.0\n'
     '    ],\n'
     '    "rhs": [\n'
     '      0.7296717442608887,\n'
     '      0.0\n'
     '    ],\n'
     '    "abs_err": 3.3306690738754696e-16,\n'
     '    "rel_err": 1.92560761018774e-16,\n'
     '    "tol": 1e-11,\n'
     '    "nodes_used": 0,\n'
     '    "pass": true,\n'
     '    "runtime_ms": *\n'
     '  },\n'
     '  {\n'
     '    "check_id": "rogers-6phi5",\n'
     '    "params": {\n'
     '      "a": 0.5,\n'
     '      "b": 6.249999999999999,\n'
     '      "c": 0.3,\n'
     '      "d": 0.15,\n'
     '      "q": 0.4\n'
     '    },\n'
     '    "lhs": [\n'
     '      -51.85454545454549,\n'
     '      0.0\n'
     '    ],\n'
     '    "rhs": [\n'
     '      -51.85454545454553,\n'
     '      -0.0\n'
     '    ],\n'
     '    "abs_err": 4.263256414560601e-14,\n'
     '    "rel_err": 8.066016608215781e-16,\n'
     '    "tol": 1e-11,\n'
     '    "nodes_used": 0,\n'
     '    "pass": true,\n'
     '    "runtime_ms": *\n'
     '  }\n'
     ']\n'
     'PASS 4/4\n'),
    ('suite --only nope', 2, ''),
]


def _masked(text):
    text = re.sub(r"t=[0-9.]+ms", "t=*ms", text)
    return re.sub(r'"runtime_ms": [0-9.e+-]+', '"runtime_ms": *', text)


@pytest.mark.parametrize("line,code,stdout", GOLDEN, ids=[row[0] for row in GOLDEN])
def test_golden_invocation(capsys, line, code, stdout):
    got_code, out, _ = run_cli(line.split(), capsys)
    assert (got_code, _masked(out)) == (code, stdout)


TARGETS = ([("eval", name) for name in sorted(EVAL_TARGETS)]
           + [("check", name) for name in sorted(CHECK_RUNNERS)])


def _valid_invocation(verb, name):
    """The first golden invocation of `name` that exits 0, or None."""
    for line, code, _ in GOLDEN:
        words = line.split()
        if words[:2] == [verb, name] and code == 0:
            return words
    return None


def _parameters(verb, name):
    func = EVAL_TARGETS[name] if verb == "eval" else CHECK_RUNNERS[name]
    return inspect.signature(func, eval_str=True).parameters


def _annotated(parameter, kind):
    """True when `parameter` is annotated `kind` or `kind | None`."""
    annotation = parameter.annotation
    return annotation is kind or kind in typing.get_args(annotation)


def _with(args, flag, value):
    """`args` with --flag set to `value` in place of any earlier value."""
    kept = [word for key, val in zip(args[2::2], args[3::2]) if key != f"--{flag}"
            for word in (key, val)]
    return args[:2] + kept + [f"--{flag}", value]


def _usage_cases():
    cases = []
    for verb, name in TARGETS:
        base = _valid_invocation(verb, name)
        if base is None:
            continue
        parameters = _parameters(verb, name)
        scalar = next(p for p in parameters
                      if f"--{p}" in base and not _annotated(parameters[p], list))
        repeated = base + [f"--{scalar}", base[base.index(f"--{scalar}") + 1]]
        cases += [
            pytest.param(base + ["--ctx", "1"], "ctx", id=f"{name}-ctx"),
            pytest.param(base + ["--bogus", "1"], "--bogus", id=f"{name}-unknown-flag"),
            pytest.param(repeated, f"--{scalar}", id=f"{name}-repeated-{scalar}"),
        ]
        if "n" in parameters:
            cases.append(pytest.param(_with(base, "n", "2.5"), "--n", id=f"{name}-fractional-n"))
        if "method" in parameters:
            cases.append(pytest.param(_with(base, "method", "bogus"), "--method",
                                      id=f"{name}-bogus-method"))
        cases += [pytest.param(_with(base, p, "0.4,0.1"), f"--{p}", id=f"{name}-complex-{p}")
                  for p in parameters if _annotated(parameters[p], float)]
    genfunc = ["eval", "C", "--n", "4", "--beta", "0.5", "--q", "0.3", "--method", "genfunc"]
    cases += [pytest.param(genfunc + ["--x", "0.4,0.1"], "--x", id="C-genfunc-complex-x"),
              pytest.param(genfunc + ["--theta", "1,1"], "--theta", id="C-genfunc-complex-theta")]
    return cases


def test_every_target_and_check_has_a_passing_golden_row():
    assert [target for target in TARGETS if _valid_invocation(*target) is None] == []


@pytest.mark.parametrize("args,culprit", _usage_cases())
def test_bad_argument_is_a_usage_error(capsys, args, culprit):
    code, out, err = run_cli(args, capsys)
    assert (code, out) == (2, "")
    assert err.startswith("usage error:") and culprit in err


def test_repeated_output_flag_is_a_usage_error(tmp_path, capsys):
    args = _valid_invocation("check", "qbinomial")
    code, _, err = run_cli(args + ["--out", str(tmp_path / "a"), "--out", str(tmp_path / "b")],
                           capsys)
    assert code == 2 and "--out given more than once" in err


def _config_cases():
    cases = []
    for check_id in sorted(CHECK_RUNNERS):
        entry = default_suite_config()[check_id][0]
        parameters = _parameters("check", check_id)
        cases += [pytest.param(check_id, {**entry, p: [0.9, 0.1]}, id=f"{check_id}-complex-{p}")
                  for p in parameters if _annotated(parameters[p], float)]
    return cases


@pytest.mark.parametrize("check_id,entry", _config_cases())
def test_complex_value_for_real_config_parameter_exits_two(tmp_path, capsys, check_id, entry):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({check_id: [entry]}, default=lambda z: [z.real, z.imag]))
    code, out, err = run_cli(["suite", "--config", str(path)], capsys)
    assert (code, out) == (2, "")
    assert "config error" in err


def test_check_and_config_give_identical_reports(tmp_path, capsys):
    entry = {"m": 3, "n": 2, "beta": 0.6, "q": 0.3}
    flags = [word for key, value in entry.items() for word in (f"--{key}", str(value))]
    code, out, _ = run_cli(["check", "thm-1.1", *flags, "--format", "json"], capsys)
    assert code == 0
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"thm-1.1": [entry]}))
    reports = tmp_path / "reports.json"
    code, _, _ = run_cli(["suite", "--config", str(path), "--format", "json",
                          "--out", str(reports)], capsys)
    assert code == 0
    [from_config] = json.loads(reports.read_text())
    from_check = json.loads(out)
    for key in ("params", "lhs", "rhs", "abs_err", "rel_err"):
        assert from_check[key] == from_config[key]


def _readme_commands():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(r"```sh\n(.*?)```", readme, flags=re.S)
    return [shlex.split(line, comments=True)[1:] for block in blocks
            for line in block.splitlines() if line.startswith("qkernel ")]


@pytest.mark.parametrize("args", _readme_commands(), ids=" ".join)
def test_readme_example_runs(tmp_path, capsys, args):
    if "--out" in args:
        at = args.index("--out") + 1
        args = args[:at] + [str(tmp_path / args[at])] + args[at + 1:]
    assert main(args) == 0
