"""Command line front end and report serialization.

Verbs:

  eval   <target> --name value ...     print one function value
  check  <check-id> --name value ...   run one identity check
  suite  [--config f] [--only id] [--format json|csv|text] [--out path]

The flags of `eval` and `check` are the parameter names of the target's
kernel function and of the check's runner; `suite --config` entries use the
same names as keys.  One binder converts all three by the parameter
annotations: `int` takes an integer, `float` a real number, an unannotated
parameter a number, and a `list` parameter is a repeatable flag (`--upper`,
`--lower`, `--b`, `--coeff`).  The binder reads the parameters from the
function itself and each report format imports its serializer when used, so
`eval` starts without inspect, json and csv.  The number rule: "re" and a
JSON number stay real, "re,im" and [re, im] become complex.  Exit codes: 0
all good, 1 numeric failure (a failed check or a pole/convergence error), 2
usage or configuration error.  A check's default tolerance is its runner's
`tol` default; `check --tol` or a config entry's "tol" overrides it, and a
tol that is not finite and positive is a usage error.
"""

from __future__ import annotations

import argparse
import importlib
import math
import sys

from .errors import DomainError, QKernelError


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


def report_to_dict(report) -> dict:
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


def report_from_dict(data: dict):
    from .verify import VerificationReport
    params = {k: (complex(v[0], v[1]) if isinstance(v, list) else v)
              for k, v in data["params"].items()}
    return VerificationReport(
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


def _report_row(report) -> list[str]:
    params = ";".join(f"{k}={_shortest(v)}" for k, v in report.params.items())
    return [report.check_id, params, _shortest(report.lhs), _shortest(report.rhs),
            repr(report.abs_err), repr(report.rel_err), repr(report.tol),
            str(report.nodes_used), "true" if report.passed else "false",
            repr(report.runtime_ms)]


def _report_line(report) -> str:
    tag = "PASS" if report.passed else "FAIL"
    params = " ".join(f"{k}={_shortest(v)}" for k, v in report.params.items())
    return (f"{tag} {report.check_id} [{params}] lhs={_shortest(report.lhs)} "
            f"rhs={_shortest(report.rhs)} rel_err={report.rel_err:.3e} "
            f"tol={report.tol:.1e} nodes={report.nodes_used} "
            f"t={report.runtime_ms:.1f}ms")


_FORMATS = ("json", "csv", "text")


def render_reports(reports, fmt: str, single: bool = False) -> str:
    """`reports` in one wire format; each format imports its serializer here,
    so that `eval` starts without json and csv."""
    if fmt == "json":
        import json
        if single and len(reports) == 1:
            return json.dumps(report_to_dict(reports[0]), indent=2)
        return json.dumps([report_to_dict(r) for r in reports], indent=2)
    if fmt == "csv":
        import csv
        import io
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


_CONVERTERS = {"int": _integer, "float": _real, "str": lambda name, value: str(value)}


def _convert(name, annotation: str, value):
    """Convert one argument by its parameter's annotation string ("" when
    unannotated).  A tuple holds the values of a repeated flag, which only a
    `list` parameter takes."""
    annotation = annotation.removesuffix(" | None")  # `float | None` converts as float
    if annotation == "list":
        return [_number(name, v) for v in (value if isinstance(value, tuple) else (value,))]
    if isinstance(value, tuple):
        raise UsageError(f"--{name} given more than once")
    return _CONVERTERS.get(annotation, _number)(name, value)


def _signature(func) -> tuple[dict, tuple]:
    """The parameters of `func` in order, as {name: annotation string}, and
    the names of those without a default.  Read from the function itself, not
    by inspect, which `eval` would otherwise import for this alone (with ast,
    dis and tokenize).  The annotations are strings because every module with
    a target or a check has `from __future__ import annotations`: each is its
    source text, such as "int" or "float | None"."""
    names = func.__code__.co_varnames[:func.__code__.co_argcount]
    required = names[:len(names) - len(func.__defaults__ or ())]
    return {p: func.__annotations__.get(p, "") for p in names}, required


def _bind(func, raw: dict, name: str, added: dict | None = None) -> dict:
    """Convert the named arguments `raw` for `func`, whose parameters `added`
    extends, and check that they bind; UsageError for an unknown, missing or
    repeated argument, or a value of the wrong type."""
    annotations, required = _signature(func)
    annotations.update(added or {})
    kwargs = {}
    for key, value in raw.items():
        if key not in annotations:
            raise UsageError(f"{name} takes no argument --{key}")
        kwargs[key] = _convert(key, annotations[key], value)
    missing = [p for p in required if p not in kwargs]
    if missing:
        raise UsageError(f"bad arguments for {name}: missing a required argument: {missing[0]!r}")
    return kwargs


def _bind_check(check_id: str, raw: dict) -> dict:
    """_bind for the body of the runner of `check_id` and the `tol` its
    decorator adds; a tol that is not finite and positive is a UsageError
    too."""
    from . import verify
    kwargs = _bind(verify.CHECK_RUNNERS[check_id].__wrapped__, raw, check_id, {"tol": "float"})
    if "tol" in kwargs:
        try:
            verify.check_tol(kwargs["tol"])
        except DomainError as exc:
            raise UsageError(str(exc))
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
    from .pochhammer import qpoch_finite, qpoch_infinite
    if n == "inf":
        return qpoch_infinite(a, q)
    return qpoch_finite(a, q, _integer("n", n))


def _big_c(n: int, beta, q, theta: float | None = None, x: float | None = None):
    """C_n at x or at x = cos(theta), exactly one of them given."""
    if (theta is None) == (x is None):
        raise UsageError("give exactly one of --theta and --x")
    from .polynomials import ultraspherical_c
    return ultraspherical_c(n, math.cos(theta) if x is None else x, beta, q)


def _jackson(coeff: list, a, b, q):
    """Jackson q-integral of the polynomial sum_k coeff[k] z^k from a to b."""
    from .integrate import jackson_q_integral
    def poly(z):
        total = 0j
        power = 1.0 + 0j
        for c in coeff:
            total += c * power
            power *= z
        return total

    return jackson_q_integral(poly, a, b, q).value


# target -> (module, function); a module is imported only when its target
# runs, so the scalar targets qpoch, phi and wseries start without numpy
EVAL_TARGETS = {
    "qpoch": ("cli", "_qpoch"),
    "phi": ("series", "phi_series"),
    "wseries": ("series", "w_series"),
    "C": ("cli", "_big_c"),
    "Cg": ("polynomials", "gasper_c"),
    "Phi": ("polynomials", "phi_poly"),
    "H": ("polynomials", "q_hermite"),
    "T": ("polynomials", "chebyshev_t"),
    "h": ("polynomials", "h_norm"),
    "omega_b": ("integrate", "weight_omega_beta"),
    "omega_ab": ("integrate", "weight_omega_ab"),
    "jackson": ("cli", "_jackson"),
}


def eval_target(name: str):
    """The function behind eval target `name`, importing its module."""
    module, function = EVAL_TARGETS[name]
    return getattr(importlib.import_module(f"{__package__}.{module}"), function)


# ---------------------------------------------------------------------------
# commands

def _cmd_eval(ns) -> int:
    func = eval_target(ns.target)
    print(format_complex(func(**_bind(func, _parse_pairs(ns.args), ns.target))))
    return 0


def _cmd_check(ns) -> int:
    from . import verify
    pairs = _parse_pairs(ns.args)
    fmt = _convert("format", "str", pairs.pop("format", "text"))
    out = _convert("out", "str", pairs.pop("out")) if "out" in pairs else None
    if fmt not in _FORMATS:
        raise UsageError(f"unknown format {fmt!r}")
    report = verify.CHECK_RUNNERS[ns.check_id](**_bind_check(ns.check_id, pairs))
    _emit(render_reports([report], fmt, single=True), out)
    return 0 if report.passed else 1


def _cmd_suite(ns) -> int:
    from . import verify
    if ns.config:
        import json
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
    from . import verify
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
            converted.append(_bind_check(check_id, entry))
        config[check_id] = converted
    return config


def _check_id(text: str) -> str:
    """`text` if it names a check; argparse refuses any other id (exit code 2)
    and lists the valid ones."""
    from . import verify
    if text not in verify.CHECK_RUNNERS:
        valid = ", ".join(map(repr, sorted(verify.CHECK_RUNNERS)))
        raise argparse.ArgumentTypeError(f"invalid choice: {text!r} (choose from {valid})")
    return text


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
    p_check.add_argument("check_id", type=_check_id, help="an unknown id lists the valid ones")
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
