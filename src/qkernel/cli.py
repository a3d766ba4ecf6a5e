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

Each front-end rule is stated once.  One table, _COLUMNS, holds the ten
wire columns in their order, and JSON, CSV and report_from_dict all read it
(the text line has its own layout).  One rule, _check_id, refuses an
unknown check id given to `check`, to `suite --only` or as a config key,
and lists the valid ones; render_reports alone refuses an unknown format.
An eval target is a cli adapter or the public name of a kernel function,
which the package's lazy attribute access imports with its module.
"""

from __future__ import annotations

import argparse
import math
import sys

from .errors import DomainError, QKernelError


class UsageError(argparse.ArgumentTypeError):
    """Bad command line or configuration input (exit code 2); raised by an
    argparse type, argparse reports it as its own."""


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

def _param_to_json(value):
    if isinstance(value, bool) or isinstance(value, int):
        return value
    z = complex(value)
    if z.imag == 0.0:
        return z.real
    return [z.real, z.imag]


def _to_json(value):
    """A report field in JSON: a complex number (lhs, rhs) as [re, im], the
    params dict by _param_to_json, anything else as it is."""
    if isinstance(value, dict):
        return {k: _param_to_json(v) for k, v in value.items()}
    return [value.real, value.imag] if isinstance(value, complex) else value


def _from_json(value):
    """The inverse of _to_json: every [re, im] pair is complex again."""
    if isinstance(value, dict):
        return {k: _from_json(v) for k, v in value.items()}
    return complex(value[0], value[1]) if isinstance(value, list) else value


def _shortest(value) -> str:
    """Shortest round-trip rendering, complex as re+imi."""
    if isinstance(value, (int, bool)):
        return str(value)
    z = complex(value)
    if z.imag == 0.0:
        return repr(z.real)
    return f"{z.real!r}{z.imag:+}i"


def _params_text(params: dict, sep: str) -> str:
    return sep.join(f"{k}={_shortest(v)}" for k, v in params.items())


# The wire columns in their pinned order: the column name (a JSON key and a
# CSV header), the report field it reads, and the field's CSV cell.
_COLUMNS = (
    ("check_id", "check_id", str),
    ("params", "params", lambda params: _params_text(params, ";")),
    ("lhs", "lhs", _shortest),
    ("rhs", "rhs", _shortest),
    ("abs_err", "abs_err", repr),
    ("rel_err", "rel_err", repr),
    ("tol", "tol", repr),
    ("nodes_used", "nodes_used", str),
    ("pass", "passed", lambda passed: "true" if passed else "false"),
    ("runtime_ms", "runtime_ms", repr),
)


def report_to_dict(report) -> dict:
    return {name: _to_json(getattr(report, field)) for name, field, _ in _COLUMNS}


def report_from_dict(data: dict):
    from .verify import VerificationReport
    return VerificationReport(**{field: _from_json(data[name]) for name, field, _ in _COLUMNS})


def _report_line(report) -> str:
    tag = "PASS" if report.passed else "FAIL"
    return (f"{tag} {report.check_id} [{_params_text(report.params, ' ')}] "
            f"lhs={_shortest(report.lhs)} rhs={_shortest(report.rhs)} "
            f"rel_err={report.rel_err:.3e} tol={report.tol:.1e} nodes={report.nodes_used} "
            f"t={report.runtime_ms:.1f}ms")


_FORMATS = ("json", "csv", "text")


def render_reports(reports, fmt: str, single: bool = False) -> str:
    """`reports` in one wire format; each format imports its serializer here,
    so that `eval` starts without json and csv."""
    if fmt == "json":
        import json
        data = [report_to_dict(r) for r in reports]
        return json.dumps(data[0] if single and len(data) == 1 else data, indent=2)
    if fmt == "csv":
        import csv
        import io
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow([name for name, _, _ in _COLUMNS])
        writer.writerows([cell(getattr(report, field)) for _, field, cell in _COLUMNS]
                         for report in reports)
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
    for i in range(0, len(tokens), 2):
        token = tokens[i]
        if not token.startswith("--") or len(token) <= 2:
            raise UsageError(f"expected --name value, got {token!r}")
        if i + 1 >= len(tokens):
            raise UsageError(f"flag {token} is missing its value")
        out.setdefault(token[2:].replace("-", "_"), []).append(tokens[i + 1])
    return {key: values[0] if len(values) == 1 else tuple(values) for key, values in out.items()}


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


# target -> its cli adapter, or the public name of its kernel function, which
# the package imports with its module when the target runs; so the scalar
# targets qpoch, phi and wseries start without numpy
EVAL_TARGETS = {
    "qpoch": _qpoch,
    "phi": "phi_series",
    "wseries": "w_series",
    "C": _big_c,
    "Cg": "gasper_c",
    "Phi": "phi_poly",
    "H": "q_hermite",
    "T": "chebyshev_t",
    "h": "h_norm",
    "omega_b": "weight_omega_beta",
    "omega_ab": "weight_omega_ab",
    "jackson": _jackson,
}


def eval_target(name: str):
    """The function behind eval target `name`, importing its module."""
    target = EVAL_TARGETS[name]
    return getattr(sys.modules[__package__], target) if isinstance(target, str) else target


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
        config = {cid: entries for cid, entries in config.items() if cid in ns.only}
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
        _check_id(check_id)
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
    """`text` if it names a check, else a UsageError that lists the valid
    ids: the one test of a check id given to `check`, to `suite --only` or
    as a `suite --config` key (exit code 2 for each)."""
    from . import verify
    if text not in verify.CHECK_RUNNERS:
        valid = ", ".join(map(repr, sorted(verify.CHECK_RUNNERS)))
        raise UsageError(f"invalid choice: {text!r} (choose from {valid})")
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
    p_suite.add_argument("--only", action="append", type=_check_id,
                         help="restrict to one check id (repeatable)")
    p_suite.add_argument("--format", choices=_FORMATS, default="text")
    p_suite.add_argument("--out", help="write reports to this path instead of stdout")
    p_suite.set_defaults(command=_cmd_suite)
    return parser


def main(argv=None) -> int:
    ns = _build_parser().parse_args(argv)
    try:
        return ns.command(ns)
    except QKernelError as exc:  # before ValueError, which DomainError also is
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (UsageError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())
