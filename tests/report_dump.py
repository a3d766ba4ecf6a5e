"""Print every computed field of every benchmark and default-suite report.

    PYTHONPATH=src python tests/report_dump.py > reports.txt

One line per report: workload, seed, check id, then the repr of lhs, rhs,
rel_err, abs_err, params, nodes_used, pass and tol.  The reports are those
of the `suite`, `stress` and `expand` workloads at seeds 0-2, of
`run_suite()` (385 in all), and the DOMAIN_CASES of thm-1.2 and prop-4.2 at
beta = 0 and at a complex beta, which neither covers (8 more).  Then one
line per kernel value on a fixed grid
that no report prints: scalar qpoch_infinite and qpoch_product at real and
complex bases, in the factor form (|q| <= 0.6) and the series form
(|q| >= 0.9), for |a| in {0.3, 1, 2}, 4 rows of a qpoch_ladder table of
the same arguments at each base, one qpoch_ratio of RATIO_SIDES at each
base and one whose scalar denominator vanishes (PoleError), qpoch_finite
of the same scalars at
n in {-3, 5, 40}, h_norm at n in {0, 2, 12} and beta in {0.6, -0.5,
0.3+0.4i}, the thm-1.3 norm polynomials._circle_norm at the same n and
(alpha, beta) in {(0.4, -0.3), (0.6, 0.6)}, connection_coeffs(12, 0.4,
0.7, q) and qbinom(12, 5, q) at each base, C_0, ..., C_12 of
ultraspherical_table at beta = 0.6 and x in {-0.9, 0.3, 1} at each real
base, the value, nodes_used, error_estimate and magnitude of one
jackson_q_integral at each of the bases in JACKSON_BASES, whose ladders
stop in blocks of 32 to 1024 rungs, and of the JACKSON_OVERFLOWS, whose
ladder sums overflow, at each of the bases in SERIES_BASES, where series
run for hundreds or thousands of terms, phi_series of the PHI_CASES (a
1phi0, a complex 1phi0, a 2phi1, a 3phi2, a 2phi1 that terminates at term
100, one whose lower factor vanishes at term 150 and a divergent 1phi0)
and the Rogers 6W5 sum by w_series, and the 2phi1 EVENT_ORDER_CASE.  Where
a kernel call raises, its line ends in the exception's class and message.
Last, the CSV wire format of the run_suite() reports as `qkernel suite
--format csv` prints it, header included, with each runtime_ms cell
masked as "*".  Running it at two versions and diffing the outputs shows
every report, kernel value and wire-format byte a change moves, params key
order included.

bench/workloads.py is loaded read-only from the source checkout.  The file
name keeps pytest from collecting it.
"""

import cmath
import csv
import importlib.util
import io
import sys
from pathlib import Path

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
SEEDS = (0, 1, 2)
KERNEL_BASES = (0.3, -0.6, 0.9, 0.99, 0.5 + 0.3j, -0.2 + 0.55j, 0.6 + 0.7j)
KERNEL_MODULI = (0.3, 1.0, 2.0)
TABLE_POINTS = (-0.9, 0.3, 1.0)
FINITE_INDICES = (-3, 5, 40)
# numerators and denominators: a weight-like quotient with a conjugate pair
# on each side and a real denominator argument
RATIO_SIDES = ([cmath.rect(1.0, 2.0), cmath.rect(1.0, -2.0), 0.3],
               [cmath.rect(0.6, 2.0), cmath.rect(0.6, -2.0), -0.5])
NORM_DEGREES = (0, 2, 12)
NORM_PARAMETERS = (0.6, -0.5, 0.3 + 0.4j)
NORM_PAIRS = ((0.4, -0.3), (0.6, 0.6))
JACKSON_BASES = (0.3, -0.6, 0.9, 0.97, cmath.rect(0.95, 0.2))
SERIES_BASES = (0.95, 0.99, 0.999, -0.97, cmath.rect(0.99, 0.2))
DOMAIN_CASES = (
    *(("thm-1.2", {"m": m, "n": n, "beta": beta, "gamma": 0.5, "q": q})
      for m, n, beta, q in [(2, 2, 0.0, 0.4), (4, 2, 0.0, 0.4), (8, 6, 0.0, 0.85),
                            (4, 2, 0.3 + 0.2j, 0.4), (5, 1, 0.3 + 0.2j, 0.85)]),
    *(("prop-4.2", {"beta": beta, "gamma": 0.6, "q": q, "theta": 1.1, "degree": degree})
      for beta, q, degree in [(0.0, 0.4, 12), (0.0, 0.9, 30), (0.3 + 0.2j, 0.4, 12)]),
)
PHI_CASES = (  # upper, z, lower, each a function of q
    lambda q: ([0.4], 0.5, []),
    lambda q: ([cmath.rect(0.8, 0.5)], cmath.rect(0.7, -0.3), []),
    lambda q: ([0.25, 0.5j], 0.7, [0.45]),
    lambda q: ([0.3 - 0.2j, -0.6, 0.9], cmath.rect(0.6, 1.0), [0.2j, -0.5]),
    lambda q: ([q**-100, 0.5], 0.9, [0.45]),
    lambda q: ([0.3, 0.5], 0.5, [q**-150]),
    lambda q: ([0.4], 1.5, []),
)
# constant integrands at q = 0.9 whose ladder sums overflow, the second in
# its modulus alone
JACKSON_OVERFLOWS = (1e308, 0.7e308 * (1 + 1j))
# upper, z, q, lower: the sum overflows before 1 - b q^50 vanishes at term 50
EVENT_ORDER_CASE = ([0.4, 0.3], 1e8, 0.9, [0.9**-50])


def load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the class body is processed
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def dump_line(label, report) -> str:
    fields = (report.lhs, report.rhs, report.rel_err, report.abs_err, report.params,
              report.nodes_used, report.passed, report.tol)
    return " ".join([label, report.check_id] + [repr(field) for field in fields])


def value_of(function, *args) -> str:
    """The repr of function(*args), or the class and message of the
    exception it raises."""
    try:
        return repr(function(*args))
    except Exception as error:
        return f"{type(error).__name__}: {error}"


def kernel_lines():
    from qkernel import (connection_coeffs, h_norm, jackson_q_integral, phi_series, qbinom,
                         qpoch_finite, qpoch_infinite, qpoch_ladder, qpoch_product, qpoch_ratio,
                         w_series)
    from qkernel.polynomials import _circle_norm, ultraspherical_table

    for q in KERNEL_BASES:
        for r in KERNEL_MODULI:
            for a in (r, cmath.rect(r, 2.0)):
                yield f"kernel qpoch_infinite {q!r} {a!r} {qpoch_infinite(a, q)!r}"
                for n in FINITE_INDICES:
                    yield f"kernel qpoch_finite {q!r} {a!r} {n} {value_of(qpoch_finite, a, q, n)}"
            # a conjugate pair, which a real base shares, and a real argument
            values = [cmath.rect(r, 2.0), cmath.rect(r, -2.0), -r]
            yield f"kernel qpoch_product {q!r} {values!r} {qpoch_product(values, q)!r}"
            for i, row in enumerate(qpoch_ladder(values, q, 4)):
                yield f"kernel qpoch_ladder {q!r} {values!r} {i} {list(row)!r}"
        numerators, denominators = RATIO_SIDES
        yield (f"kernel qpoch_ratio {q!r} {numerators!r} {denominators!r} "
               f"{qpoch_ratio(numerators, denominators, q)!r}")
        for n in NORM_DEGREES:
            for beta in NORM_PARAMETERS:
                yield f"kernel h_norm {q!r} {n} {beta!r} {value_of(h_norm, n, beta, q)}"
            for alpha, beta in NORM_PAIRS:
                value = value_of(_circle_norm, n, alpha, beta, q)
                yield f"kernel _circle_norm {q!r} {n} {alpha!r} {beta!r} {value}"
        yield (f"kernel connection_coeffs {q!r} 12 0.4 0.7 "
               f"{value_of(connection_coeffs, 12, 0.4, 0.7, q)}")
        yield f"kernel qbinom {q!r} 12 5 {value_of(qbinom, 12, 5, q)}"
        if isinstance(q, float):
            for x in TABLE_POINTS:
                table = ultraspherical_table(12, x, 0.6, q)
                yield f"kernel ultraspherical_table {q!r} 0.6 {x!r} {table!r}"
    yield f"kernel qpoch_ratio 0.3 [0.5] [1.0] {value_of(qpoch_ratio, [0.5], [1.0], 0.3)}"
    for q in JACKSON_BASES:
        # a rational integrand in numpy's arithmetic, from a real to a complex endpoint
        result = jackson_q_integral(lambda z: (0.3 - 1.2j * z) / (1.0 + 0.5 * z * z),
                                    -0.6, 0.5 + 0.7j, q)
        yield (f"kernel jackson_q_integral {q!r} {result.value!r} {result.nodes_used!r} "
               f"{result.error_estimate!r} {result.magnitude!r}")
    for value in JACKSON_OVERFLOWS:
        result = value_of(lambda: jackson_q_integral(lambda z: value, 0.0, 1.0, 0.9).value)
        yield f"kernel jackson_q_integral 0.9 constant {value!r} {result}"
    for q in SERIES_BASES:
        for case in PHI_CASES:
            upper, z, lower = case(q)
            yield (f"kernel phi_series {q!r} {upper!r} {z!r} {lower!r} "
                   f"{value_of(phi_series, upper, z, q, lower)}")
        a, b = 0.1, [0.7, 0.6, 0.8]
        yield f"kernel w_series {q!r} {a!r} {b!r} {value_of(w_series, a, b, q, a * q / 0.336)}"
    upper, z, q, lower = EVENT_ORDER_CASE
    yield (f"kernel phi_series {q!r} {upper!r} {z!r} {lower!r} "
           f"{value_of(phi_series, upper, z, q, lower)}")


def masked_csv(reports) -> str:
    """render_reports(reports, "csv") with every runtime_ms cell "*"."""
    from qkernel.cli import render_reports

    rows = list(csv.reader(io.StringIO(render_reports(reports, "csv"))))
    column = rows[0].index("runtime_ms")
    for row in rows[1:]:
        row[column] = "*"
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


def main() -> None:
    from qkernel import CHECK_RUNNERS, run_suite

    workloads = load_workloads()
    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            for case in workloads.make_workload(name, seed):
                report = CHECK_RUNNERS[case.check_id](**case.params)
                print(dump_line(f"{name}:{seed}", report))
    for report in run_suite():
        print(dump_line("run_suite", report))
    for check_id, params in DOMAIN_CASES:
        print(dump_line("domain", CHECK_RUNNERS[check_id](**params)))
    for line in kernel_lines():
        print(line)
    print(masked_csv(run_suite()), end="")


if __name__ == "__main__":
    main()
