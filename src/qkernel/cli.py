"""Command line front end and report serialization.

Verbs:

  eval   <target> --name value ...     print one function value
  check  <check-id> --name value ...   run one identity check
  suite  [--config f] [--only id] [--format json|csv|text] [--out path]

The flags of `eval` and `check` are the parameter names of the target's
kernel function and of the check's runner; `suite --config` entries use the
same names as keys.  One binder converts all three by the parameter
annotations: `int` takes an integer, `float` a real number, `Method` one of
explicit, recurrence, genfunc; an unannotated parameter takes a number, and
a `list` parameter is a repeatable flag (`--upper`, `--lower`, `--b`,
`--coeff`).  The number rule: "re" and a JSON number stay real, "re,im" and
[re, im] become complex.  Exit codes: 0 all good, 1 numeric failure (a
failed check or a pole/convergence error), 2 usage or configuration error.
Setting QKERNEL_TOL overrides the default tolerance profile of every check.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import io
import json
import math
import sys
import types

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


def format_complex(value) -> str:
    """Render a value as re or re+imi with 17 significant digits."""
    z = complex(value)
    if z.imag == 0.0:
        return f"{z.real:.17g}"
    return f"{z.real:.17g}{z.imag:+.17g}i"


def parse_number(text: str) -> float | complex:
    """Parse "re" into a float or "re,im" into a complex number; ValueError
    otherwise."""
    parts = text.split(",")
    if len(parts) == 1:
        return float(parts[0])
    if len(parts) == 2:
        return complex(float(parts[0]), float(parts[1]))
    raise ValueError(f"cannot parse number {text!r}")


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


_FORMATS = ("json", "csv", "text")


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
# argument binding: one converter, keyed on the parameter annotation

def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _number(name, value):
    """The number rule: "re" and a JSON number are real, "re,im" and
    [re, im] complex."""
    if _is_real(value):
        return float(value)
    if isinstance(value, list) and len(value) == 2 and all(map(_is_real, value)):
        return complex(value[0], value[1])
    if isinstance(value, str):
        try:
            return parse_number(value)
        except ValueError:
            pass
    raise UsageError(f"--{name} expects a number (re or re,im), got {value!r}")


def _real(name, value) -> float:
    number = _number(name, value)
    if isinstance(number, complex):
        raise UsageError(f"--{name} expects a real number, got {value!r}")
    return number


def _integer(name, value) -> int:
    try:  # through str, so that 3.7 and true are refused instead of truncated
        return int(str(value))
    except ValueError:
        raise UsageError(f"--{name} expects an integer, got {value!r}")


def _method(name, value) -> Method:
    try:
        return Method(str(value).lower())
    except ValueError:
        raise UsageError(f"--{name} must be one of {', '.join(m.value for m in Method)}")


def _text(name, value) -> str:
    return str(value)


_CONVERTERS = {int: _integer, float: _real, Method: _method, str: _text}


def _convert(name, annotation, value):
    """Convert one argument by its parameter's annotation.  A tuple holds the
    values of a repeated flag, which only a `list` parameter takes."""
    if isinstance(annotation, types.UnionType):  # `float | None` converts as float
        annotation = annotation.__args__[0]
    if annotation is list:
        return [_number(name, v) for v in (value if isinstance(value, tuple) else (value,))]
    if isinstance(value, tuple):
        raise UsageError(f"--{name} given more than once")
    return _CONVERTERS.get(annotation, _number)(name, value)


def _bind(func, raw: dict, name: str) -> dict:
    """Convert the named arguments `raw` for `func` and check that they bind;
    UsageError for a ctx, an unknown, missing or repeated argument, or a
    value of the wrong type."""
    signature = inspect.signature(func, eval_str=True)
    kwargs = {}
    for key, value in raw.items():
        if key == "ctx":
            raise UsageError(f"{name}: ctx cannot be set from outside")
        if key not in signature.parameters:
            raise UsageError(f"{name} takes no argument --{key}")
        kwargs[key] = _convert(key, signature.parameters[key].annotation, value)
    try:
        signature.bind(**kwargs)
    except TypeError as exc:
        raise UsageError(f"bad arguments for {name}: {exc}")
    return kwargs


def _parse_pairs(tokens) -> dict:
    """--name value pairs; the values of a repeated name collect in a tuple."""
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
            previous = out[key]
            out[key] = (previous if isinstance(previous, tuple) else (previous,)) + (value,)
        else:
            out[key] = value
        i += 2
    return out


# ---------------------------------------------------------------------------
# eval targets: kernel functions, or adapters where the flags differ

def _qpoch(a, q, n: str):
    """(a;q)_n; `--n inf` is the infinite product."""
    if n == "inf":
        return qpoch_infinite(a, QContext(q=q))
    return qpoch_finite(a, q, _integer("n", n))


def _phi(upper: list, z, q, lower: list = ()):
    return phi_series(HypergeometricSpec(upper, lower, z), q)


def _wseries(a1, b: list, q, z):
    return w_series(a1, b, q, z)


def _big_c(n: int, beta, q, theta: float | None = None, x: float | None = None,
           method: Method = Method.RECURRENCE):
    """C_n at x or at x = cos(theta), exactly one of them given."""
    if (theta is None) == (x is None):
        raise UsageError("give exactly one of --theta and --x")
    return ultraspherical_c(n, math.cos(theta) if x is None else x, beta, q, method)


def _jackson(coeff: list, a, b, q):
    """Jackson q-integral of the polynomial sum_k coeff[k] z^k from a to b."""
    def poly(z):
        total = 0j
        power = 1.0 + 0j
        for c in coeff:
            total += c * power
            power *= z
        return total

    return jackson_q_integral(poly, a, b, QContext(q=q))


EVAL_TARGETS = {
    "qpoch": _qpoch,
    "phi": _phi,
    "wseries": _wseries,
    "C": _big_c,
    "Cg": gasper_c,
    "Phi": phi_poly,
    "H": q_hermite,
    "T": chebyshev_t,
    "h": h_norm,
    "omega_b": weight_omega_beta,
    "omega_ab": weight_omega_ab,
    "jackson": _jackson,
}


# ---------------------------------------------------------------------------
# commands

def _cmd_eval(ns) -> int:
    func = EVAL_TARGETS[ns.target]
    print(format_complex(func(**_bind(func, _parse_pairs(ns.args), ns.target))))
    return 0


def _cmd_check(ns) -> int:
    pairs = _parse_pairs(ns.args)
    fmt = _convert("format", str, pairs.pop("format", "text"))
    out = _convert("out", str, pairs.pop("out")) if "out" in pairs else None
    if fmt not in _FORMATS:
        raise UsageError(f"unknown format {fmt!r}")
    runner = verify.CHECK_RUNNERS[ns.check_id]
    report = runner(**_bind(runner, pairs, ns.check_id))
    _emit(render_reports([report], fmt, single=True), out)
    return 0 if report.passed else 1


def _cmd_suite(ns) -> int:
    if ns.config:
        try:
            with open(ns.config, encoding="utf-8") as handle:
                raw = json.load(handle)
            config = _convert_config(raw)
        except (OSError, ValueError, UsageError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
    else:
        config = verify.default_suite_config()
    if ns.only:
        unknown = sorted(set(ns.only) - set(verify.CHECK_RUNNERS))
        if unknown:
            raise UsageError(f"unknown check id(s): {', '.join(unknown)}")
        config = {cid: entries for cid, entries in config.items() if cid in set(ns.only)}
    reports = verify.run_suite(config)
    _emit(render_reports(reports, ns.format), ns.out)
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
            converted.append(_bind(verify.CHECK_RUNNERS[check_id], entry, check_id))
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
    p_eval.set_defaults(command=_cmd_eval)

    p_check = sub.add_parser("check", help="run one identity check")
    p_check.add_argument("check_id", choices=sorted(verify.CHECK_RUNNERS))
    p_check.add_argument("args", nargs=argparse.REMAINDER)
    p_check.set_defaults(command=_cmd_check)

    p_suite = sub.add_parser("suite", help="run the verification suite")
    p_suite.add_argument("--config", help="JSON file mapping check ids to parameter lists")
    p_suite.add_argument("--only", action="append", help="restrict to one check id (repeatable)")
    p_suite.add_argument("--format", choices=_FORMATS, default="text")
    p_suite.add_argument("--out", help="write reports to this path instead of stdout")
    p_suite.set_defaults(command=_cmd_suite)
    return parser


def main(argv=None) -> int:
    ns = _build_parser().parse_args(argv)
    try:
        return ns.command(ns)
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
