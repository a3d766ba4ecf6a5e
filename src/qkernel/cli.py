"""Command line front end and report serialization.

Verbs:

  eval   <target> --name value ...     print one function value
  check  <check-id> --name value ...   run one identity check
  suite  [--config f] [--only id] [--format json|csv|text] [--out path]

Complex arguments are written "re" or "re,im".  Exit codes: 0 all good,
1 numeric failure (a failed check or a pole/convergence error), 2 usage or
configuration error.  Setting QKERNEL_TOL overrides the default tolerance
profile of every check.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import io
import json
import math
import sys
from dataclasses import dataclass, field

from . import verify
from .context import QContext
from .errors import QKernelError
from .integrate import jackson_q_integral, weight_omega_ab, weight_omega_beta
from .pochhammer import qpoch_finite, qpoch_infinite
from .polynomials import (Method, chebyshev_t, gasper_c, h_norm, phi_poly,
                          q_hermite, ultraspherical_c)
from .series import HypergeometricSpec, phi_series, w_series


class UsageError(Exception):
    """Bad command line or configuration input (exit code 2)."""


@dataclass(frozen=True)
class CliCommand:
    """One parsed invocation: verb, target, raw named arguments, output sink.

    `named_args` holds the --name value pairs as strings (repeated names
    collect into lists); each verb converts what it needs.  `output` of None
    means standard output.
    """

    verb: str
    target: str = ""
    named_args: dict = field(default_factory=dict)
    output: str | None = None
    format: str = "text"


def format_complex(value) -> str:
    """Render a value as re or re+imi with 17 significant digits."""
    z = complex(value)
    if z.imag == 0.0:
        return f"{z.real:.17g}"
    return f"{z.real:.17g}{z.imag:+.17g}i"


def parse_complex(text) -> complex:
    """Parse "re" or "re,im" into a complex number."""
    parts = str(text).split(",")
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise UsageError(f"cannot parse complex value {text!r} (expected re or re,im)")


# ---------------------------------------------------------------------------
# report serialization (this module owns the wire formats)

_CSV_COLUMNS = ["check_id", "params", "lhs", "rhs", "abs_err", "rel_err",
                "tol", "nodes_used", "pass", "runtime_ms"]


def report_to_dict(report: verify.VerificationReport) -> dict:
    return {
        "check_id": report.check_id,
        "params": {k: _param_to_json(v) for k, v in report.params.items()},
        "lhs": [report.lhs.real, report.lhs.imag],
        "rhs": [report.rhs.real, report.rhs.imag],
        "abs_err": report.abs_err,
        "rel_err": report.rel_err,
        "tol": report.tol,
        "nodes_used": report.nodes_used,
        "pass": report.passed,
        "runtime_ms": report.runtime_ms,
    }


def _param_to_json(value):
    if isinstance(value, bool) or isinstance(value, int):
        return value
    z = complex(value)
    if z.imag == 0.0:
        return z.real
    return [z.real, z.imag]


def report_from_dict(data: dict) -> verify.VerificationReport:
    params = {k: (complex(v[0], v[1]) if isinstance(v, list) else v)
              for k, v in data["params"].items()}
    return verify.VerificationReport(
        check_id=data["check_id"],
        params=params,
        lhs=complex(data["lhs"][0], data["lhs"][1]),
        rhs=complex(data["rhs"][0], data["rhs"][1]),
        abs_err=data["abs_err"],
        rel_err=data["rel_err"],
        tol=data["tol"],
        nodes_used=data["nodes_used"],
        passed=data["pass"],
        runtime_ms=data["runtime_ms"],
    )


def _shortest(value) -> str:
    """Shortest round-trip rendering, complex as re+imi."""
    if isinstance(value, (int, bool)):
        return str(value)
    z = complex(value)
    if z.imag == 0.0:
        return repr(z.real)
    return f"{z.real!r}{z.imag:+}i"


def _report_row(report: verify.VerificationReport) -> list[str]:
    params = ";".join(f"{k}={_shortest(v)}" for k, v in report.params.items())
    return [report.check_id, params, _shortest(report.lhs), _shortest(report.rhs),
            repr(report.abs_err), repr(report.rel_err), repr(report.tol),
            str(report.nodes_used), "true" if report.passed else "false",
            repr(report.runtime_ms)]


def _report_line(report: verify.VerificationReport) -> str:
    tag = "PASS" if report.passed else "FAIL"
    params = " ".join(f"{k}={_shortest(v)}" for k, v in report.params.items())
    return (f"{tag} {report.check_id} [{params}] lhs={_shortest(report.lhs)} "
            f"rhs={_shortest(report.rhs)} rel_err={report.rel_err:.3e} "
            f"tol={report.tol:.1e} nodes={report.nodes_used} "
            f"t={report.runtime_ms:.1f}ms")


def render_reports(reports, fmt: str, single: bool = False) -> str:
    if fmt == "json":
        if single and len(reports) == 1:
            return json.dumps(report_to_dict(reports[0]), indent=2)
        return json.dumps([report_to_dict(r) for r in reports], indent=2)
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(_CSV_COLUMNS)
        for report in reports:
            writer.writerow(_report_row(report))
        return buffer.getvalue().rstrip("\n")
    if fmt == "text":
        return "\n".join(_report_line(r) for r in reports)
    raise UsageError(f"unknown format {fmt!r}")


# ---------------------------------------------------------------------------
# named-argument handling

class _Missing:
    def __repr__(self):
        return "<required>"


_MISSING = _Missing()


class _Args:
    """Typed access to --name value pairs, with leftover detection."""

    def __init__(self, pairs: dict):
        self._pairs = dict(pairs)

    def _take(self, key, default):
        if key not in self._pairs:
            if default is not _MISSING:
                return default
            raise UsageError(f"missing required argument --{key}")
        value = self._pairs.pop(key)
        if isinstance(value, list):
            raise UsageError(f"--{key} given more than once")
        return value

    def string(self, key, default=_MISSING):
        return self._take(key, default)

    def complex_(self, key, default=_MISSING):
        value = self._take(key, default)
        return value if value is default else parse_complex(value)

    def float_(self, key, default=_MISSING):
        value = self._take(key, default)
        if value is default:
            return value
        try:
            return float(value)
        except ValueError as exc:
            raise UsageError(f"--{key} expects a real number: {exc}")

    def int_(self, key, default=_MISSING):
        value = self._take(key, default)
        if value is default:
            return value
        try:
            return int(value)
        except ValueError as exc:
            raise UsageError(f"--{key} expects an integer: {exc}")

    def complex_list(self, key, default=_MISSING):
        if key not in self._pairs:
            if default is not _MISSING:
                return default
            raise UsageError(f"missing required argument --{key}")
        value = self._pairs.pop(key)
        values = value if isinstance(value, list) else [value]
        return [parse_complex(v) for v in values]

    def method(self, key, default):
        value = self._take(key, default)
        if value is default:
            return value
        try:
            return Method(str(value).lower())
        except ValueError:
            raise UsageError(f"--{key} must be one of explicit, recurrence, genfunc")

    def done(self):
        if self._pairs:
            extra = ", ".join(f"--{k}" for k in sorted(self._pairs))
            raise UsageError(f"unknown argument(s): {extra}")


def _parse_pairs(tokens) -> dict:
    out: dict = {}
    i = 0
    while i < len(tokens):
        token = tokens[i]
        if not token.startswith("--") or len(token) <= 2:
            raise UsageError(f"expected --name value, got {token!r}")
        if i + 1 >= len(tokens):
            raise UsageError(f"flag {token} is missing its value")
        key = token[2:].replace("-", "_")
        value = tokens[i + 1]
        if key in out:
            if isinstance(out[key], list):
                out[key].append(value)
            else:
                out[key] = [out[key], value]
        else:
            out[key] = value
        i += 2
    return out


# ---------------------------------------------------------------------------
# eval targets

def _eval_qpoch(r: _Args):
    a = r.complex_("a")
    q = r.complex_("q")
    n_raw = r.string("n")
    r.done()
    if n_raw == "inf":
        return qpoch_infinite(a, QContext(q=q))
    try:
        n = int(n_raw)
    except ValueError:
        raise UsageError("--n expects an integer or inf")
    return qpoch_finite(a, q, n)


def _eval_phi(r: _Args):
    upper = r.complex_list("upper")
    lower = r.complex_list("lower", default=[])
    z = r.complex_("z")
    q = r.complex_("q")
    r.done()
    return phi_series(HypergeometricSpec(tuple(upper), tuple(lower), z), q)


def _eval_wseries(r: _Args):
    a1 = r.complex_("a1")
    rest = r.complex_list("b")
    q = r.complex_("q")
    z = r.complex_("z")
    r.done()
    return w_series(a1, rest, q, z)


def _eval_big_c(r: _Args):
    n = r.int_("n")
    beta = r.complex_("beta")
    q = r.complex_("q")
    theta = r.float_("theta", None)
    x = r.float_("x", None)
    method = r.method("method", Method.RECURRENCE)
    r.done()
    if (theta is None) == (x is None):
        raise UsageError("give exactly one of --theta and --x")
    point = math.cos(theta) if theta is not None else x
    return ultraspherical_c(n, point, beta, q, method)


def _eval_big_cg(r: _Args):
    n = r.int_("n")
    theta = r.float_("theta")
    alpha = r.complex_("alpha")
    beta = r.complex_("beta")
    q = r.complex_("q")
    method = r.method("method", Method.EXPLICIT)
    r.done()
    return gasper_c(n, theta, alpha, beta, q, method)


def _eval_big_phi(r: _Args):
    n = r.int_("n")
    alpha = r.complex_("alpha")
    beta = r.complex_("beta")
    x = r.complex_("x")
    y = r.complex_("y")
    q = r.complex_("q")
    r.done()
    return phi_poly(n, alpha, beta, x, y, q)


def _eval_hermite(r: _Args):
    n = r.int_("n")
    x = r.float_("x")
    q = r.complex_("q")
    r.done()
    return q_hermite(n, x, q)


def _eval_chebyshev(r: _Args):
    n = r.int_("n")
    x = r.float_("x")
    r.done()
    return chebyshev_t(n, x)


def _eval_h_norm(r: _Args):
    n = r.int_("n")
    beta = r.complex_("beta")
    q = r.complex_("q")
    r.done()
    return h_norm(n, beta, q)


def _eval_omega_b(r: _Args):
    theta = r.float_("theta")
    beta = r.complex_("beta")
    q = r.complex_("q")
    r.done()
    return weight_omega_beta(theta, beta, q)


def _eval_omega_ab(r: _Args):
    theta = r.float_("theta")
    alpha = r.complex_("alpha")
    beta = r.complex_("beta")
    q = r.complex_("q")
    r.done()
    return weight_omega_ab(theta, alpha, beta, q)


def _eval_jackson(r: _Args):
    coeffs = r.complex_list("coeff")
    a = r.complex_("a")
    b = r.complex_("b")
    q = r.complex_("q")
    r.done()

    def poly(z):
        total = 0j
        power = 1.0 + 0j
        for coeff in coeffs:
            total += coeff * power
            power *= z
        return total

    return jackson_q_integral(poly, a, b, QContext(q=q))


EVAL_TARGETS = {
    "qpoch": _eval_qpoch,
    "phi": _eval_phi,
    "wseries": _eval_wseries,
    "C": _eval_big_c,
    "Cg": _eval_big_cg,
    "Phi": _eval_big_phi,
    "H": _eval_hermite,
    "T": _eval_chebyshev,
    "h": _eval_h_norm,
    "omega_b": _eval_omega_b,
    "omega_ab": _eval_omega_ab,
    "jackson": _eval_jackson,
}


# ---------------------------------------------------------------------------
# check parameter conversion

_INT_PARAMS = {"m", "n", "k", "degree", "grid_size", "theta_grid"}
_FLOAT_PARAMS = {"theta"}


def _convert_check_value(name: str, value):
    if name in _INT_PARAMS:
        try:  # through str, so 3.7 and true are refused instead of truncated
            return int(str(value))
        except (TypeError, ValueError):
            raise UsageError(f"--{name} expects an integer")
    if name in _FLOAT_PARAMS:
        try:
            return float(value)
        except (TypeError, ValueError):
            raise UsageError(f"--{name} expects a real number")
    if isinstance(value, (int, float)):
        return value
    if isinstance(value, list):
        if len(value) == 2 and all(isinstance(v, (int, float)) for v in value):
            return complex(value[0], value[1])
        raise UsageError(f"parameter {name!r} given more than once")
    return parse_complex(value)


def _check_kwargs(check_id: str, pairs: dict) -> dict:
    """Convert the named arguments of one check and bind them to its runner;
    UsageError for a bad value, a ctx, or arguments the runner does not take."""
    kwargs = {}
    for name, value in pairs.items():
        if name == "ctx":
            raise UsageError(f"{check_id}: ctx cannot be set from outside")
        if name == "tol":
            try:
                kwargs["tol"] = float(value)
            except (TypeError, ValueError):
                raise UsageError(f"{check_id}: tol expects a real number")
        else:
            kwargs[name] = _convert_check_value(name, value)
    try:
        inspect.signature(verify.CHECK_RUNNERS[check_id]).bind(**kwargs)
    except TypeError as exc:
        raise UsageError(f"bad arguments for {check_id}: {exc}")
    return kwargs


# ---------------------------------------------------------------------------
# commands

def _cmd_eval(command: CliCommand) -> int:
    handler = EVAL_TARGETS[command.target]
    value = handler(_Args(command.named_args))
    print(format_complex(value))
    return 0


def _cmd_check(command: CliCommand) -> int:
    kwargs = _check_kwargs(command.target, command.named_args)
    report = verify.CHECK_RUNNERS[command.target](**kwargs)
    _emit(render_reports([report], command.format, single=True), command.output)
    return 0 if report.passed else 1


def _cmd_suite(command: CliCommand) -> int:
    config_path = command.named_args.get("config")
    only = command.named_args.get("only")
    if config_path:
        try:
            with open(config_path, encoding="utf-8") as handle:
                raw = json.load(handle)
            config = _convert_config(raw)
        except (OSError, ValueError, UsageError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
    else:
        config = verify.default_suite_config()
    if only:
        unknown = sorted(set(only) - set(verify.CHECK_RUNNERS))
        if unknown:
            raise UsageError(f"unknown check id(s): {', '.join(unknown)}")
        config = {cid: entries for cid, entries in config.items() if cid in set(only)}
    reports = verify.run_suite(config)
    _emit(render_reports(reports, command.format), command.output)
    passing = sum(1 for r in reports if r.passed)
    total = len(reports)
    print(f"PASS {passing}/{total}" if passing == total else f"FAIL {passing}/{total}")
    return 0 if passing == total else 1


def _convert_config(raw) -> dict:
    if not isinstance(raw, dict):
        raise UsageError("config must be an object mapping check ids to parameter lists")
    config = {}
    for check_id, entries in raw.items():
        if check_id not in verify.CHECK_RUNNERS:
            raise UsageError(f"unknown check id {check_id!r}")
        if not isinstance(entries, list):
            raise UsageError(f"config entry for {check_id!r} must be a list")
        converted = []
        for entry in entries:
            if not isinstance(entry, dict):
                raise UsageError(f"parameters for {check_id!r} must be objects")
            converted.append(_check_kwargs(check_id, entry))
        config[check_id] = converted
    return config


def _emit(payload: str, out_path) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
    else:
        print(payload)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qkernel",
        description="Evaluate q-series special functions and verify their identities.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_eval = sub.add_parser("eval", help="evaluate one library function")
    p_eval.add_argument("target", choices=sorted(EVAL_TARGETS))
    p_eval.add_argument("args", nargs=argparse.REMAINDER)

    p_check = sub.add_parser("check", help="run one identity check")
    p_check.add_argument("check_id", choices=sorted(verify.CHECK_RUNNERS))
    p_check.add_argument("args", nargs=argparse.REMAINDER)

    p_suite = sub.add_parser("suite", help="run the verification suite")
    p_suite.add_argument("--config", help="JSON file mapping check ids to parameter lists")
    p_suite.add_argument("--only", action="append", help="restrict to one check id (repeatable)")
    p_suite.add_argument("--format", choices=["json", "csv", "text"], default="text")
    p_suite.add_argument("--out", help="write reports to this path instead of stdout")
    return parser


def _command_from_namespace(ns) -> CliCommand:
    if ns.verb == "eval":
        return CliCommand(verb="eval", target=ns.target, named_args=_parse_pairs(ns.args))
    if ns.verb == "check":
        pairs = _parse_pairs(ns.args)
        fmt = pairs.pop("format", "text")
        output = pairs.pop("out", None)
        if fmt not in ("json", "csv", "text"):
            raise UsageError(f"unknown format {fmt!r}")
        return CliCommand(verb="check", target=ns.check_id, named_args=pairs,
                          output=output, format=fmt)
    return CliCommand(verb="suite",
                      named_args={"config": ns.config, "only": ns.only},
                      output=ns.out, format=ns.format)


def main(argv=None) -> int:
    ns = _build_parser().parse_args(argv)
    try:
        command = _command_from_namespace(ns)
        if command.verb == "eval":
            return _cmd_eval(command)
        if command.verb == "check":
            return _cmd_check(command)
        return _cmd_suite(command)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except QKernelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())
