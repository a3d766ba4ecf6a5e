"""Span tracing of the qkernel layers, from outside the package.

`Tracer.install()` replaces the public functions of pochhammer, series,
polynomials and integrate with timing wrappers in every qkernel module that
holds them by name (a module that did ``from .pochhammer import
qpoch_infinite`` keeps its own reference, so patching only the defining
module would miss those calls).  The benchmark opens the ``verify.report``
span around each check runner call and the ``cli.render`` span around
``render_reports`` itself.  The integrands that the quadrature and the
Jackson ladder receive are wrapped as ``verify.integrand`` spans, which is
where the node and rung counters are taken.

Each span records its name, start, end, parent span and the id of the report
it belongs to.  Spans stay in memory until `take()` hands them out with the
counters of the pass.  A layer's self time is the time of its spans minus the
time their direct child spans cover.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass

# Function name -> layer.  Counters and self times are kept per layer.
LAYER_OF = {
    "pochhammer.qpoch_infinite": "pochhammer.qpoch_infinite",
    "pochhammer.qpoch_finite": "pochhammer.qpoch_finite",
    "series.phi_series": "series.phi_series",
    "series.gf_expand": "series.gf_expand",
    "polynomials.ultraspherical_c": "polynomials",
    "polynomials.gasper_c": "polynomials",
    "polynomials.phi_poly": "polynomials",
    "polynomials.h_norm": "polynomials",
    "polynomials.connection_coeffs": "polynomials",
    "polynomials.chebyshev_t": "polynomials",
    "integrate.periodic_quadrature": "integrate.periodic_quadrature",
    "integrate.jackson_q_integral": "integrate.jackson_q_integral",
    "integrate.weight_omega_beta": "integrate.weight",
    "integrate.weight_omega_ab": "integrate.weight",
    "verify.report": "verify",
    "verify.integrand": "verify",
    "cli.render": "cli.render",
}
LAYERS = tuple(dict.fromkeys(LAYER_OF.values()))

# Layers whose count of raised exceptions is a metric.
_ERROR_LAYERS = ("pochhammer.qpoch_infinite", "series.phi_series",
                 "integrate.periodic_quadrature", "integrate.jackson_q_integral")


@dataclass
class PassTrace:
    """Spans and counters of one traced pass."""

    name: list
    start: array
    end: array
    parent: array
    report: array
    counts: Counter

    def self_times(self) -> dict:
        """Self time per layer, in seconds."""
        duration = [e - s for s, e in zip(self.start, self.end)]
        covered = [0.0] * len(duration)
        for i, p in enumerate(self.parent):
            if p >= 0:
                covered[p] += duration[i]
        out = dict.fromkeys(LAYERS, 0.0)
        for i, name in enumerate(self.name):
            out[LAYER_OF[name]] += duration[i] - covered[i]
        return out

    def rows(self):
        """(id, parent, report, name, start_s, end_s) per span."""
        for i, name in enumerate(self.name):
            yield i, self.parent[i], self.report[i], name, self.start[i], self.end[i]


class Tracer:
    """Records the spans and counters of the wrapped layers."""

    def __init__(self):
        self._patched = []
        self.report_id = -1
        self.counts = Counter()
        self._reset()

    def _reset(self):
        self._name = []
        self._start = array("d")
        self._end = array("d")
        self._parent = array("l")
        self._report = array("l")
        self._stack = [-1]
        self._layer_stack = [""]

    def take(self) -> PassTrace:
        """Hand out the spans and counters recorded so far and start afresh."""
        if len(self._stack) != 1:
            raise RuntimeError("take() called inside an open span")
        out = PassTrace(self._name, self._start, self._end, self._parent, self._report,
                        Counter(self.counts))
        self.counts.clear()
        self._reset()
        return out

    def open(self, name: str) -> bool:
        """Open a span; True when it enters its layer from another layer,
        which is when the layer's call counters should move."""
        layer = LAYER_OF[name]
        entered = self._layer_stack[-1] != layer
        self._stack.append(len(self._start))
        self._layer_stack.append(layer)
        self._name.append(name)
        self._parent.append(self._stack[-2])
        self._report.append(self.report_id)
        self._end.append(0.0)
        self._start.append(time.perf_counter())
        return entered

    def close(self) -> None:
        now = time.perf_counter()
        self._layer_stack.pop()
        self._end[self._stack.pop()] = now

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span called `name`."""
        self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close()

    # -- installing the wrappers ------------------------------------------------

    def install(self) -> None:
        """Wrap the layer functions in every qkernel module that holds them."""
        from qkernel import integrate, pochhammer, polynomials, series

        targets = {}
        for module in (pochhammer, series, polynomials, integrate):
            short = module.__name__.rsplit(".", 1)[1]
            for name in LAYER_OF:
                prefix, _, attr = name.partition(".")
                if prefix == short:
                    original = getattr(module, attr)
                    targets[id(original)] = (original, self._wrapper(name, original))
        for module_name, module in list(sys.modules.items()):
            if module_name != "qkernel" and not module_name.startswith("qkernel."):
                continue
            for attr, value in list(vars(module).items()):
                hit = targets.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrapper(self, name, fn):
        layer = LAYER_OF[name]
        count_input = _INPUT_COUNTERS.get(layer)
        count_output = _OUTPUT_COUNTERS.get(layer)
        count_integrand = _INTEGRAND_COUNTERS.get(layer)
        errors = layer + ".errors" if layer in _ERROR_LAYERS else None
        calls = layer + ".calls"

        def wrapper(*args, **kwargs):
            entered = self.open(name)
            try:
                if entered:
                    self.counts[calls] += 1
                    if count_input is not None:
                        count_input(self.counts, args, kwargs)
                if count_integrand is not None:
                    args = (self._integrand(args[0], count_integrand),) + args[1:]
                result = fn(*args, **kwargs)
            except Exception:
                if errors is not None and entered:
                    self.counts[errors] += 1
                raise
            finally:
                self.close()
            if count_output is not None and entered:
                count_output(self.counts, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def _integrand(self, f, count):
        def integrand(z):
            self.open("verify.integrand")
            try:
                count(self.counts, z)
                return f(z)
            finally:
                self.close()
        return integrand


def _first_arg(args, kwargs, name):
    return args[0] if args else kwargs[name]


def _size(value) -> int:
    """Number of points in a scalar or numpy array argument."""
    return getattr(value, "size", 1)


def _count_points(key, arg):
    def count(counts, args, kwargs):
        counts[key] += _size(_first_arg(args, kwargs, arg))
    return count


_INPUT_COUNTERS = {
    "pochhammer.qpoch_infinite": _count_points("pochhammer.qpoch_infinite.points", "a"),
    "integrate.weight": _count_points("integrate.weight.points", "theta"),
}


def _count_nodes(counts, result):
    counts["integrate.periodic_quadrature.nodes"] += result.nodes_used


def _count_coeffs(counts, result):
    counts["series.gf_expand.coeffs"] += len(result.coeffs)


_OUTPUT_COUNTERS = {
    "integrate.periodic_quadrature": _count_nodes,
    "series.gf_expand": _count_coeffs,
}


def _count_theta(counts, theta):
    counts["integrate.periodic_quadrature.integrand_points"] += _size(theta)


def _count_rung(counts, z):
    counts["integrate.jackson_q_integral.rungs"] += 1


_INTEGRAND_COUNTERS = {
    "integrate.periodic_quadrature": _count_theta,
    "integrate.jackson_q_integral": _count_rung,
}
