"""Command line surface: eval/check/suite verbs, the argument binder they
share, exit codes, and the JSON and CSV wire formats."""

import csv
import inspect
import io
import json
import math
import re
import shlex
import subprocess
import sys
import time
import typing
import warnings
from pathlib import Path

import pytest

import qkernel
from qkernel import default_suite_config, run_suite, verify_thm_1_1, verify_thm_1_4
from qkernel.cli import (_CONVERTERS, EVAL_TARGETS, _signature, eval_target, format_complex,
                         main, parse_number, report_from_dict, report_to_dict, render_reports)
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

    def test_vanishing_norm_is_a_numeric_error(self, capsys):
        # beta = 1/q, so (beta^2; q)_inf = 0 in N_2(beta, beta): this ended
        # in a ZeroDivisionError traceback
        code, out, err = run_cli(
            ["eval", "h", "--n", "2", "--beta", "3.3333333333333335", "--q", "0.3"], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error:")

    @pytest.mark.parametrize("line", ["eval omega_b --theta 0 --beta 1 --q 0.3",
                                      "eval omega_ab --theta 0 --alpha 1 --beta 0.5 --q 0.3"])
    def test_weight_pole_is_a_numeric_error(self, capsys, line):
        # (alpha e^{2i theta}; q)_inf = 0 at theta = 0, alpha = 1: these
        # ended in a ZeroDivisionError traceback
        code, out, err = run_cli(line.split(), capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error: the denominator (")

    def test_missing_argument_is_usage(self, capsys):
        code, _, err = run_cli(["eval", "C", "--n", "1"], capsys)
        assert code == 2
        assert "usage" in err.lower()

    def test_unknown_flag_is_usage(self, capsys):
        assert (run_cli(["eval", "T", "--n", "1", "--x", "0.5", "--bogus", "1"], capsys)
                == (2, "", "usage error: T takes no argument --bogus\n"))

    def test_unknown_target_exits_two(self):
        with pytest.raises(SystemExit) as info:
            main(["eval", "nope"])
        assert info.value.code == 2

    def test_targets_are_adapters_or_public_names(self):
        # a kernel function resolves through the package, by its public name
        for target, value in EVAL_TARGETS.items():
            if isinstance(value, str):
                assert value in qkernel.__all__
                assert eval_target(target) is getattr(qkernel, value)
            else:
                assert (value.__module__, eval_target(target)) == ("qkernel.cli", value)


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

    def test_unknown_check_lists_the_valid_ids(self, capsys):
        code, out, err = run_cli(["check", "thm-9.9"], capsys)
        assert (code, out) == (2, "")
        assert "invalid choice: 'thm-9.9'" in err
        assert all(check_id in err for check_id in CHECK_RUNNERS)

    def test_unknown_format_is_usage(self, capsys):
        assert (run_cli(["check", "qbinomial", "--a", "0.4", "--z", "0.5", "--q", "0.3",
                         "--format", "bogus"], capsys)
                == (2, "", "usage error: unknown format 'bogus'\n"))

    def test_missing_parameters_are_usage(self, capsys):
        assert (run_cli(["check", "thm-1.1", "--m", "3"], capsys)
                == (2, "", "usage error: bad arguments for thm-1.1: "
                           "missing a required argument: 'n'\n"))

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

    def test_config_with_vanishing_denominators_runs_to_completion(self, tmp_path, capsys):
        config = {"rogers-connection": [{"n": 4, "beta": 4, "gamma": 0.7, "q": 0.5},
                                        {"n": 4, "beta": 0.4, "gamma": 0.7, "q": 0.3}],
                  "prop-3.2": [{"n": 2, "a": 0.3, "b": 0.2, "x": 0.5, "y": 1.0, "q": 0.5}]}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code, out, _ = run_cli(["suite", "--config", str(path)], capsys)
        assert code == 1
        lines = out.strip().splitlines()
        assert [line.split()[0] for line in lines] == ["FAIL", "PASS", "FAIL", "FAIL"]
        assert lines[-1] == "FAIL 1/3"

    def test_config_with_a_closed_form_pole_fails(self, tmp_path, capsys):
        # alpha beta = 1 makes (alpha beta; q)_inf in the thm-1.3 norm zero:
        # this ended in a ZeroDivisionError traceback
        config = {"thm-1.3": [{"m": 1, "n": 1, "alpha": 0.5, "beta": 2, "q": 0.3}]}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code, out, _ = run_cli(["suite", "--config", str(path)], capsys)
        assert code == 1
        lines = out.strip().splitlines()
        assert lines[0].startswith("FAIL thm-1.3 ")
        assert lines[-1] == "FAIL 0/1"

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

    def test_unknown_check_in_config_lists_the_valid_ids(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"qbinomial": [], "thm-77": []}))
        valid = ", ".join(map(repr, sorted(CHECK_RUNNERS)))
        assert (run_cli(["suite", "--config", str(path)], capsys)
                == (2, "", f"config error: invalid choice: 'thm-77' (choose from {valid})\n"))

    @pytest.mark.parametrize("check_id,entry", [
        ("qbinomial", {"a": 0.4, "z": 0.5, "q": 0.3, "zz": 1.0}),
        ("qbinomial", {"a": 0.4, "z": 0.5}),
        ("qbinomial", {"a": 0.4, "z": 0.5, "q": 0.3, "tol": None}),
        ("qbinomial", {"a": 0.4, "z": 0.5, "q": 0.3, "ctx": 0.3}),
        ("thm-1.1", {"m": 3.7, "n": 2, "beta": 0.6, "q": 0.3}),
        ("thm-1.1", {"m": True, "n": 2, "beta": 0.6, "q": 0.3}),
        ("qbinomial", {"a": True, "z": 0.5, "q": 0.3}),
        ("qbinomial", {"a": [0.4, 0.1, 0.2], "z": 0.5, "q": 0.3}),
        ("qbinomial", {"a": 0.4, "z": 0.5, "q": 0.3, "tol": -1}),
        ("thm-1.1", {"m": 1, "n": 1, "beta": 0.6, "q": 0.3, "tol": math.nan}),
    ], ids=["unknown-key", "missing-parameter", "null-tol", "ctx-key",
            "fractional-integer", "boolean-integer", "boolean-number", "three-part-number",
            "negative-tol", "nan-tol"])
    def test_malformed_config_entry_exits_two(self, tmp_path, capsys, check_id, entry):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({check_id: [entry]}))
        code, _, err = run_cli(["suite", "--config", str(path)], capsys)
        assert code == 2
        assert "config error" in err

    def test_unknown_only_id_exits_two(self, capsys):
        code, _, _ = run_cli(["suite", "--only", "nope"], capsys)
        assert code == 2

    def test_unknown_only_id_lists_the_valid_ids(self, capsys):
        code, out, err = run_cli(["suite", "--only", "nope"], capsys)
        assert (code, out) == (2, "")
        assert "invalid choice: 'nope'" in err
        assert all(check_id in err for check_id in CHECK_RUNNERS)

    def test_forced_failure_exits_one(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"qbinomial": [{"a": 0.4, "z": 0.5, "q": 0.3,
                                                   "tol": 1e-30}]}))
        code, out, _ = run_cli(["suite", "--config", str(path)], capsys)
        assert code == 1
        assert "FAIL" in out.strip().splitlines()[-1]

    def test_environment_does_not_set_tolerances(self, capsys, monkeypatch):
        # the tolerance of a check is its runner's `tol` default or a `tol`
        # argument, never an environment variable
        monkeypatch.setenv("QKERNEL_TOL", "1e-30")
        reports = run_suite()
        assert (len(reports), all(report.passed for report in reports)) == (76, True)
        code, _, _ = run_cli(["suite", "--only", "qbinomial"], capsys)
        assert code == 0


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
    # 20 head factors and a 19-term log series; 1.294356816186238e-253 by mp.qp
    ('eval qpoch --a 0.5 --q 0.999 --n inf', 0, '1.2943568161858496e-253\n'),
    ('eval phi --upper 0.4 --z 0.5 --q 0.3', 0, '1.8407690827383283\n'),
    ('eval phi --upper 0.2 --upper 0.3,0.1 --lower 0.5 --z 0.4 --q 0.6', 0,
     '3.4890184211904072-0.49641286840505416i\n'),
    ('eval wseries --a1 0.1 --b 0.7 --b 0.6 --b 0.8 --q 0.4 --z 0', 0, '1\n'),
    ('eval wseries --a1 0.2 --b 0.3 --b 0.4 --q 0.5 --z 0.3', 0, '1.7226339251962521\n'),
    ('eval C --n 1 --beta 0.5 --q 0.3 --theta 0', 0, '1.4285714285714286\n'),
    ('eval C --n 4 --beta 0.5 --q 0.3 --x 0.4', 0, '-0.28894777333819838\n'),
    # 1.068398702803852771-1.571644521978310181i by a 40-digit mpmath sum:
    # off by 3.6e-16, under two units in the last place (the explicit sum's
    # ...526 was off by 1.4e-16)
    ('eval Cg --n 2 --theta 0.9 --alpha 0.4 --beta -0.3 --q 0.35', 0,
     '1.0683987028038524-1.5716445219783102i\n'),
    ('eval Phi --n 2 --alpha 0.3 --beta 0.2 --x 1 --y 1 --q 0.3', 0, '2.117\n'),
    ('eval Phi --n 3 --alpha 0.3,0.1 --beta 0.2 --x 0.5,0.5 --y 0.5,-0.5 --q 0.4', 0,
     '0.10611199999999998-0.077744000000000008i\n'),
    ('eval H --n 3 --x 0.4 --q 0.5', 0, '-0.48799999999999988\n'),
    ('eval T --n 3 --x 1', 0, '1\n'),
    ('eval T --n 5 --x 0.3', 0, '0.99887999999999999\n'),
    # h_n = 2 / N_n(beta, beta): 1.6e-16 and 4.0e-16 from 40-digit mpmath
    ('eval h --n 2 --beta 0.6 --q 0.3', 0, '0.61010237707709347\n'),
    ('eval h --n 3 --beta 0.2,0.1 --q 0.4', 0, '0.062650844593472879+0.024982992684297871i\n'),
    ('eval omega_b --theta 1.1 --beta 0.5 --q 0.3', 0, '2.2469583460907412\n'),
    ('eval omega_ab --theta 1.1 --alpha 0.4 --beta 0.2,0.1 --q 0.3', 0,
     '3.4871460438884641+0.29394411640475548i\n'),
    ('eval jackson --coeff 0 --coeff 1 --a 0 --b 0.8 --q 0.35', 0, '0.4740740740740742\n'),
    ('eval jackson --coeff 1,2 --coeff 0,-0.5 --coeff 0.25 --a 0.3,-0.2 --b 0.9,0.1 --q 0.6', 0,
     '0.18443877551020443+1.302359693877535i\n'),
    ('eval qpoch --a 0.3 --q 0.3 --n -1', 1, ''),
    ('eval omega_b --theta 0 --beta 1 --q 0.3', 1, ''),
    ('eval qpoch --a 0.5 --q 1.5 --n inf', 1, ''),
    ('eval qpoch --a nan --q 0.5 --n inf', 1, ''),
    ('eval qpoch --a nan --q 0.5 --n 2', 1, ''),
    ('eval Cg --n 3 --theta nan --alpha 0.4 --beta -0.3 --q 0.35', 1, ''),
    # 1 - q^k = 0 and q^3 past the largest double: refused, where the
    # explicit sum raised ZeroDivisionError and OverflowError
    ('eval Cg --n 3 --theta 0.5 --alpha 0.4 --beta -0.3 --q 1', 1, ''),
    ('eval Cg --n 3 --theta 0.5 --alpha 0.4 --beta -0.3 --q 1e200', 1, ''),
    # 1 - q^k = 0: refused, where the recurrences raised ZeroDivisionError
    ('eval C --n 3 --beta 0.5 --q 1 --x 0.3', 1, ''),
    ('eval Phi --n 2 --alpha 0.3 --beta 0.2 --x 1 --y 1 --q 1', 1, ''),
    ('eval H --n 3 --x 0.3 --q -1', 1, ''),
    # q^2 past the largest double: refused, where q**m raised OverflowError
    ('eval C --n 3 --beta 0.5 --q 1e200 --x 0.3', 1, ''),
    ('eval H --n 3 --x 0.3 --q 1e200', 1, ''),
    ('eval Phi --n 2 --alpha 0.3 --beta 0.2 --x 1 --y 1 --q 1e200', 1, ''),
    # a NaN parameter or point: refused, where it printed nan and exited 0
    ('eval C --n 3 --beta nan --q 0.3 --x 0.3', 1, ''),
    ('eval C --n 3 --beta 0.5 --q nan --x 0.3', 1, ''),
    ('eval Phi --n 2 --alpha 0.3 --beta 0.2 --x nan --y 1 --q 0.3', 1, ''),
    # finite parts, modulus past the largest double: refused, where abs()
    # raised OverflowError
    ('eval qpoch --a 1.5e308,1.5e308 --q 0.9 --n inf', 1, ''),
    ('eval qpoch --a 1.5e308,1.5e308 --q 0.9 --n 3', 1, ''),  # printed nan+nani
    ('eval qpoch --a 0.5 --q 1.5e308,1.5e308 --n inf', 1, ''),
    ('eval phi --upper 1.5e308,1.5e308 --z 0.5 --q 0.9', 1, ''),
    ('eval jackson --coeff 1.3e308,1.3e308 --a 0 --b 1 --q 0.5', 1, ''),
    # an infinite endpoint: refused, where it printed nan+nani and exited 0
    ('eval jackson --coeff 1 --a 0 --b inf --q 0.5', 1, ''),
    # finite values whose ladder sum overflows: refused, where it printed
    # nan+nani and exited 0
    ('eval jackson --coeff 1e308 --a 0 --b 1 --q 0.9', 1, ''),
    ('eval T --n -1 --x 0.5', 1, ''),
    ('eval T --n 3 --x 2', 1, ''),
    ('eval T --n 3 --x nan', 1, ''),
    ('eval C --n 2 --beta 0.5 --q 0.3 --x nan', 1, ''),
    ('eval h --n -1 --beta 0.5 --q 0.3', 1, ''),
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
    ('eval C --n 4 --beta 0.5 --q 0.3 --x 0.4 --method explicit', 2, ''),
    ('eval T --n 3 --x 0.4,0.1', 2, ''),
    ('eval H --n 3 --x 0.4,0.1 --q 0.5', 2, ''),
    ('eval C --n 4 --beta 0.5 --q 0.3 --theta 1,1', 2, ''),
    ('eval Cg --n 2 --theta 1,1 --alpha 0.4 --beta -0.3 --q 0.35', 2, ''),
    ('eval omega_b --theta 1,1 --beta 0.5 --q 0.3', 2, ''),
    ('eval omega_ab --theta 1,1 --alpha 0.4 --beta 0.2 --q 0.3', 2, ''),
    ('eval T --n 3 --x', 2, ''),
    ('eval T n 3', 2, ''),
    ('eval nope', 2, ''),
    ('eval phi --z 0.5 --q 0.3', 2, ''),
    ('eval jackson --a 0 --b 0.8 --q 0.35', 2, ''),
    # The thm-1.1, thm-1.2, rogers-connection, gf-4.1 and prop-4.2 rows read
    # C_n from ultraspherical_table, which test_oracle.py bounds against the
    # explicit sum in mpmath.  Against 40-digit mpmath each lhs below, and
    # both sides at every grid point or coefficient behind a worst-point
    # row, is within 7.1e-16 of the exact value.  Here lhs is off by 4.9e-16
    # (relative) from 1/h_3, and rhs = N_3(0.6, 0.6) / 2 by 7.4e-17, one
    # ulp below the 6.8e-17 of forming (2 pi N) / D instead of 2 pi (N / D).
    ('check thm-1.1 --m 3 --n 3 --beta 0.6 --q 0.3', 0,
     'PASS thm-1.1 [m=3 n=3 beta=0.6 q=0.3] '
     'lhs=1.5673450639482842+3.4585519725551564e-18i rhs=1.5673450639482833 '
     'rel_err=3.460e-16 tol=1.0e-09 nodes=256 t=*ms\n'),
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
     '    -1.1308323645887362e-16,\n'
     '    -6.167035342818029e-18\n'
     '  ],\n'
     '  "rhs": [\n'
     '    0.0,\n'
     '    0.0\n'
     '  ],\n'
     '  "abs_err": 1.1325127236783297e-16,\n'
     '  "rel_err": 1.1325127236783295e-16,\n'
     '  "tol": 1e-09,\n'
     '  "nodes_used": 128,\n'
     '  "pass": true,\n'
     '  "runtime_ms": *\n'
     '}\n'),
    ('check thm-1.2 --m 2 --n 1 --beta 0.25 --gamma 0.5 --q 0.4', 0,
     'PASS thm-1.2 [m=2 n=1 beta=0.25 gamma=0.5 q=0.4] '
     'lhs=1.1478629724891688e-16-6.533375207022455e-18i rhs=0.0 rel_err=1.150e-16 '
     'tol=1.0e-08 nodes=128 t=*ms\n'),
    # rhs is 1.7e-15 (relative) from the 40-digit closed form
    ('check thm-1.2 --m 4 --n 2 --beta 0.25 --gamma 0.5 --q 0.4', 0,
     'PASS thm-1.2 [m=4 n=2 beta=0.25 gamma=0.5 q=0.4] '
     'lhs=-2.6849093440671865-1.3372349774781456e-17i rhs=-2.6849093440671914 '
     'rel_err=1.326e-15 tol=1.0e-08 nodes=128 t=*ms\n'),
    # the closed form is 29.548969990579642820 at 40 digits: lhs is off by
    # 7.0e-16 relative, rhs by 1.3e-15
    ('check thm-1.3 --m 2 --n 2 --alpha 0.4 --beta -0.3 --q 0.35', 0,
     'PASS thm-1.3 [m=2 n=2 alpha=0.4 beta=-0.3 q=0.35] '
     'lhs=29.54896999057962+3.814856169696941e-16i rhs=29.548969990579682 '
     'rel_err=1.977e-15 tol=1.0e-09 nodes=128 t=*ms\n'),
    # rhs is 2.6e-15 (relative) from the 40-digit closed form, 2.4e-15 when
    # 2 pi (a, b; q)_inf was divided by (q, ab; q)_inf after the multiply
    ('check thm-1.4 --alpha 0.5 --beta 0.2 --s 0.3 --t 0.25 --q 0.3', 0,
     'PASS thm-1.4 [alpha=0.5 beta=0.2 s=0.3 t=0.25 q=0.3] '
     'lhs=12.091649623542251-6.982549239177436e-18i rhs=12.091649623542226 '
     'rel_err=1.900e-15 tol=1.0e-08 nodes=256 t=*ms\n'),
    ('check prop-3.1 --a 0.3 --b 0.2 --c 0.4 --x 0.5 --y 0.7 --q 0.35', 0,
     'PASS prop-3.1 [a=0.3 b=0.2 c=0.4 x=0.5 y=0.7 q=0.35] lhs=0.1643224493614951 '
     'rhs=0.16432244936149726 rel_err=1.859e-15 tol=1.0e-09 nodes=62 t=*ms\n'),
    # rhs is 9.4e-16 (relative) from Phi_3 in 40-digit mpmath, 9.2e-16 when
    # the closed-form factor divided one product by (1-q) y times the other
    ('check prop-3.2 --n 3 --a 0.3 --b 0.2 --x 0.6,0.3 --y 0.6,-0.3 --q 0.3', 0,
     'PASS prop-3.2 [n=3 a=0.3 b=0.2 x=0.6+0.3i y=0.6-0.3i q=0.3] '
     'lhs=0.46215711000000004-0.03839543100000001i '
     'rhs=0.4621571099999996-0.03839543099999973i rel_err=3.578e-16 tol=1.0e-09 '
     'nodes=26 t=*ms\n'),
    ('check rogers-connection --n 4 --beta 0.4 --gamma 0.7 --q 0.3', 0,
     'PASS rogers-connection [n=4 beta=0.4 gamma=0.7 q=0.3 theta_grid=16] '
     'lhs=1.0944582106346532 rhs=1.0944582106346545 rel_err=6.361e-16 tol=1.0e-10 '
     'nodes=16 t=*ms\n'),
    ('check rogers-connection --n 4 --beta 0.4 --gamma 0.7 --q 0.3 --theta_grid 5', 0,
     'PASS rogers-connection [n=4 beta=0.4 gamma=0.7 q=0.3 theta_grid=5] '
     'lhs=0.6059052103361176 rhs=0.6059052103361167 rel_err=5.531e-16 tol=1.0e-10 '
     'nodes=5 t=*ms\n'),
    ('check askey-ismail --n 1 --k 2 --beta 0.5 --q 0.3', 0,
     'PASS askey-ismail [n=1 k=2 beta=0.5 q=0.3] '
     'lhs=-0.32298360546252713+2.360166812895084e-18i rhs=-0.32298360546252614 '
     'rel_err=7.553e-16 tol=1.0e-08 nodes=256 t=*ms\n'),
    # the two gf-4.1 rows carry their worst coefficient; against the 40-digit
    # explicit sum of (1 - beta q^p) C_p, no rhs coefficient is off by more
    # than 1.7e-15 (first row) and 9.8e-16 (second row)
    ('check gf-4.1 --beta 0.5 --q 0.3 --theta 0.9', 0,
     'PASS gf-4.1 [beta=0.5 q=0.3 theta=0.9 degree=16] lhs=0.17037953449163057 '
     'rhs=0.17037953449162974-1.0949893317034339e-15i rel_err=1.175e-15 tol=1.0e-09 '
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
     '    -0.6840468565414952,\n'
     '    0.0\n'
     '  ],\n'
     '  "rhs": [\n'
     '    -0.6840468565414952,\n'
     '    -7.92651596260538e-16\n'
     '  ],\n'
     '  "abs_err": 7.92651596260538e-16,\n'
     '  "rel_err": 4.706826257129188e-16,\n'
     '  "tol": 1e-09,\n'
     '  "nodes_used": 13,\n'
     '  "pass": true,\n'
     '  "runtime_ms": *\n'
     '}\n'),
    ('check prop-4.2 --beta 0.3 --gamma 0.6 --q 0.4 --theta 1.1', 0,
     'PASS prop-4.2 [beta=0.3 gamma=0.6 q=0.4 theta=1.1 degree=12] '
     'lhs=0.5672540095753166 rhs=0.5672540095753168 rel_err=1.417e-16 tol=1.0e-09 '
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
     'lhs=1.5673450639482842+3.4585519725551564e-18i rhs=1.5673450639482833 '
     'rel_err=3.460e-16 tol=1.0e-30 nodes=256 t=*ms\n'),
    ('check rogers-6phi5 --a 0.1 --b 0 --c 0.6 --d 0.8 --q 0.4', 1,
     'FAIL rogers-6phi5 [a=0.1 b=0.0 c=0.6 d=0.8 q=0.4] lhs=0.0 rhs=0.0 rel_err=inf '
     'tol=1.0e-11 nodes=0 t=*ms\n'),
    # (beta q; q)_{n-k} = 0 for n - k >= 2, since beta q = 2 and 1 - 2 q = 0
    ('check rogers-connection --n 4 --beta 4 --gamma 0.7 --q 0.5', 1,
     'FAIL rogers-connection [n=4 beta=4.0 gamma=0.7 q=0.5 theta_grid=16] lhs=0.0 rhs=0.0 '
     'rel_err=inf tol=1.0e-10 nodes=0 t=*ms\n'),
    # (q y/x; q)_inf = (1; q)_inf = 0
    ('check prop-3.2 --n 2 --a 0.3 --b 0.2 --x 0.5 --y 1.0 --q 0.5', 1,
     'FAIL prop-3.2 [n=2 a=0.3 b=0.2 x=0.5 y=1.0 q=0.5] lhs=0.0 rhs=0.0 rel_err=inf '
     'tol=1.0e-09 nodes=0 t=*ms\n'),
    # a NaN parameter is refused by the finite products and circle polynomials
    ('check gf-4.1 --beta nan --q 0.3 --theta 0.5', 1,
     'FAIL gf-4.1 [beta=nan q=0.3 theta=0.5 degree=16] lhs=0.0 rhs=0.0 rel_err=inf '
     'tol=1.0e-09 nodes=0 t=*ms\n'),
    # an infinite angle is refused before math.cos sees it
    ('check gf-4.1 --beta 0.3 --q 0.4 --theta inf', 1,
     'FAIL gf-4.1 [beta=0.3 q=0.4 theta=inf degree=16] lhs=0.0 rhs=0.0 rel_err=inf '
     'tol=1.0e-09 nodes=0 t=*ms\n'),
    ('check uniform-bound --n 3 --alpha nan --beta 0.2 --q 0.3', 1,
     'FAIL uniform-bound [n=3 alpha=nan beta=0.2 q=0.3 grid_size=64] lhs=0.0 rhs=0.0 '
     'rel_err=inf tol=1.0e-12 nodes=0 t=*ms\n'),
    ('check qbinomial --a 1.5e308,1.5e308 --z 0.5 --q 0.9', 1,
     'FAIL qbinomial [a=1.5e+308+1.5e+308i z=0.5 q=0.9] lhs=0.0 rhs=0.0 rel_err=inf '
     'tol=1.0e-11 nodes=0 t=*ms\n'),
    ('check thm-1.1 --m 3', 2, ''),
    ('check qbinomial --a 0.4 --z 0.5 --q 0.3 --ctx 1', 2, ''),
    ('check qbinomial --a 0.4 --z 0.5 --q 0.3 --zz 1', 2, ''),
    ('check qbinomial --a 0.4 --a 0.5 --z 0.5 --q 0.3', 2, ''),
    ('check thm-1.1 --m 3.7 --n 2 --beta 0.6 --q 0.3', 2, ''),
    ('check thm-1.1 --m 3 --n 3 --beta 0.6 --q 0.3 --format xml', 2, ''),
    ('check thm-1.1 --m 3 --n 3 --beta 0.6 --q 0.3 --tol abc', 2, ''),
    ('check thm-1.1 --m 1 --n 1 --beta 0.6 --q 0.3 --tol nan', 2, ''),
    ('check qbinomial --a 0.4 --z 0.5 --q 0.3 --tol -1', 2, ''),
    ('check qbinomial --a 0.4 --z 0.5 --q 0.3 --tol 0', 2, ''),
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
    func = eval_target(name) if verb == "eval" else CHECK_RUNNERS[name]
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
        cases += [pytest.param(_with(base, p, "0.4,0.1"), f"--{p}", id=f"{name}-complex-{p}")
                  for p in parameters if _annotated(parameters[p], float)]
    return cases


def _binder_reads(verb, name):
    """The parameters `cli._bind` reads for `name`: {name: annotation string}
    and the required names.  A check binds its runner's body plus `tol`."""
    if verb == "eval":
        return _signature(eval_target(name))
    annotations, required = _signature(CHECK_RUNNERS[name].__wrapped__)
    return {**annotations, "tol": "float"}, required


@pytest.mark.parametrize("verb,name", TARGETS, ids=[name for _, name in TARGETS])
def test_binder_reads_what_inspect_reads(verb, name):
    annotations, required = _binder_reads(verb, name)
    parameters = _parameters(verb, name)
    assert list(annotations) == list(parameters)
    assert set(required) == {p for p, par in parameters.items() if par.default is par.empty}
    assert {par.kind for par in parameters.values()} == {inspect.Parameter.POSITIONAL_OR_KEYWORD}
    assert {annotation.removesuffix(" | None") for annotation in annotations.values()} <= {
        "", "list", *_CONVERTERS}
    assert ({p: eval(a) if a else inspect.Parameter.empty for p, a in annotations.items()}
            == {p: par.annotation for p, par in parameters.items()})


def test_every_target_and_check_has_a_passing_golden_row():
    assert [target for target in TARGETS if _valid_invocation(*target) is None] == []


@pytest.mark.parametrize("args,culprit", _usage_cases())
def test_bad_argument_is_a_usage_error(capsys, args, culprit):
    code, out, err = run_cli(args, capsys)
    assert (code, out) == (2, "")
    assert err.startswith("usage error:") and culprit in err


# the exact text of the usage errors that the binder words itself
@pytest.mark.parametrize("line,err", [
    ("eval qpoch --a 0.5 --q 0.3",
     "usage error: bad arguments for qpoch: missing a required argument: 'n'\n"),
    ("eval qpoch --a 0.5 --q 0.3 --n 2 --n 3", "usage error: --n given more than once\n"),
    ("check thm-1.1 --m 3 --n 3 --beta 0.6 --q 0.3 --tol 0",
     "usage error: tol must be finite and positive, got 0.0\n"),
])
def test_usage_message(capsys, line, err):
    assert run_cli(line.split(), capsys) == (2, "", err)


def test_config_tol_message(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"qbinomial": [{"a": 0.4, "z": 0.5, "q": 0.3, "tol": -1}]}))
    assert (run_cli(["suite", "--config", str(path)], capsys)
            == (2, "", "config error: tol must be finite and positive, got -1.0\n"))


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


def test_report_params_rerun_their_check(tmp_path, capsys):
    # every default-suite report's params, fed back as a suite config, give
    # the same report
    reports = [report_to_dict(report) for report in run_suite()]
    config = {}
    for report in reports:
        config.setdefault(report["check_id"], []).append(report["params"])
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "reports.json"
    code, _, _ = run_cli(["suite", "--config", str(path), "--format", "json",
                          "--out", str(out)], capsys)
    assert code == 0
    keys = ("check_id", "params", "lhs", "rhs", "rel_err", "nodes_used", "pass")
    again = json.loads(out.read_text())
    assert len(again) == len(reports) == 76
    assert ([{key: r[key] for key in keys} for r in again]
            == [{key: r[key] for key in keys} for r in reports])


# finite parts whose modulus is past the largest double: the infinite
# products and phi ended in an OverflowError traceback from abs(), and the
# finite product printed nan+nani
@pytest.mark.parametrize("line", [
    "eval qpoch --a 1.5e308,1.5e308 --q 0.9 --n inf",
    "eval qpoch --a 0.5 --q 1.5e308,1.5e308 --n inf",
    "eval qpoch --a 1.5e308,1.5e308 --q 0.9 --n 3",
    "eval phi --upper 1.5e308,1.5e308 --z 0.5 --q 0.9",
])
def test_modulus_past_the_largest_double_is_an_error_line(capsys, line):
    code, out, err = run_cli(line.split(), capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "Traceback" not in err


# a zero of a weight denominator at a quadrature node
@pytest.mark.parametrize("line", [
    "check thm-1.1 --m 2 --n 2 --beta 2 --q 0.5",
    "check thm-1.2 --m 4 --n 0 --beta 4 --gamma 0.5 --q 0.5",
    "check thm-1.3 --m 1 --n 1 --alpha 2 --beta 1 --q 0.5",
    "check askey-ismail --n 1 --k 1 --beta 2 --q 0.5",
])
def test_integrand_pole_fails_fast(capsys, line):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        started = time.perf_counter()
        code, out, err = run_cli(line.split(), capsys)
        elapsed = time.perf_counter() - started
    assert (code, err) == (1, "")
    assert out.startswith("FAIL ") and "rel_err=inf" in out
    assert elapsed < 0.1


_ATTRIBUTE_ACCESS = """
import qkernel
for name in qkernel.__all__:
    getattr(qkernel, name)
try:
    qkernel.no_such_name
except AttributeError as exc:
    print(exc)
"""


def test_every_export_resolves(child_env):
    namespace = {}
    exec("from qkernel import *", namespace)
    assert sorted(set(qkernel.__all__) - set(namespace)) == []
    # attribute access after a bare `import qkernel`, which loads no submodule
    proc = subprocess.run([sys.executable, "-c", _ATTRIBUTE_ACCESS], capture_output=True,
                          text=True, timeout=120, env=child_env)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "module 'qkernel' has no attribute 'no_such_name'\n"


# The scalar targets run in plain Python arithmetic and never import numpy;
# their values are the golden rows', where a golden row exists.  Nor does
# `eval` import inspect, json or csv: each of these loads none of the four.
_NUMPY_FREE = [
    ("eval qpoch --a 0.5 --q 0.3 --n 2", "0.42499999999999999", ""),
    ("eval qpoch --a 0.5 --q 0.3 --n -2", "0.32926829268292679", ""),
    ("eval qpoch --a 0.5 --q 0.3 --n inf", "0.39808220430187774", ""),
    # series form, K + M = 14 + 17 rows; 0.0027905465671710931865 by mp.qp,
    # 3.1e-16 away (the array path read ...0932, 5e-19 away)
    ("eval qpoch --a 0.5 --q 0.9 --n inf", "0.0027905465671710923", ""),
    ("eval phi --upper 0.4 --z 0.5 --q 0.3", "1.8407690827383283", ""),
    ("eval wseries --a1 0.2 --b 0.3 --b 0.4 --q 0.5 --z 0.3", "1.7226339251962521", ""),
]
# prints the exit code, then which of numpy, inspect, json and csv were loaded
_RUN_MAIN = ("import sys; from qkernel.cli import main; code = main(sys.argv[1:]); "
             "print(code, *sorted({'numpy', 'inspect', 'json', 'csv'} & sys.modules.keys()))")


@pytest.mark.parametrize("line,value,loaded", _NUMPY_FREE, ids=[row[0] for row in _NUMPY_FREE])
def test_scalar_target_runs_without_numpy(child_env, line, value, loaded):
    proc = subprocess.run([sys.executable, "-c", _RUN_MAIN, *line.split()],
                          capture_output=True, text=True, timeout=120, env=child_env)
    assert (proc.stdout.splitlines(), proc.stderr) == ([value, "0" + loaded], "")


def test_long_series_imports_numpy(child_env):
    # 876 terms: the terms after the first 64 are summed in numpy blocks.
    # The 30-digit value is 1.76820705827226553e+161 (mp.qp, as in
    # test_oracle.py::test_q_binomial_near_q_one_matches_oracle); this one
    # is 9.79e-13 off it, within that test's phi_series_error_bound of
    # 1411317 u relative
    line = "eval phi --upper 0.4 --z 0.5 --q 0.999"
    proc = subprocess.run([sys.executable, "-c", _RUN_MAIN, *line.split()],
                          capture_output=True, text=True, timeout=120, env=child_env)
    assert ((proc.stdout.splitlines(), proc.stderr)
            == (["1.7682070582739962e+161", "0 inspect numpy"], ""))
    assert abs(float(proc.stdout.split()[0]) / 1.76820705827226553e+161 - 1) <= 1411317 * 2.0**-53


def test_bare_import_loads_no_numpy(child_env):
    script = "import json, sys, qkernel; print(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, env=child_env)
    assert proc.returncode == 0
    loaded = json.loads(proc.stdout)
    assert "numpy" not in loaded
    assert [name for name in loaded if name.startswith("qkernel.")] == []


def _readme_blocks(language):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    return re.findall(rf"```{language}\n(.*?)```", readme, flags=re.S)


def _readme_commands():
    return [shlex.split(line, comments=True)[1:] for block in _readme_blocks("sh")
            for line in block.splitlines() if line.startswith("qkernel ")]


@pytest.mark.parametrize("args", _readme_commands(), ids=" ".join)
def test_readme_example_runs(tmp_path, capsys, args):
    if "--out" in args:
        at = args.index("--out") + 1
        args = args[:at] + [str(tmp_path / args[at])] + args[at + 1:]
    assert main(args) == 0


def test_readme_library_example_runs():
    [block] = _readme_blocks("python")
    exec(compile(block, "README.md", "exec"), {})
