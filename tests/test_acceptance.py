"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np

from qkernel import (gf_expand, h_norm, periodic_quadrature, phi_poly,
                     q_hermite, qpoch_finite, qpoch_infinite, qpoch_product,
                     rogers_6w5_rhs, ultraspherical_c, verify_askey_ismail_chebyshev,
                     verify_gf_4_1, verify_prop_3_1, verify_prop_3_2,
                     verify_prop_4_2, verify_rogers_connection,
                     verify_thm_1_1, verify_thm_1_2, verify_thm_1_3,
                     verify_thm_1_4, verify_uniform_bound, w_series)
from qkernel import polynomials, verify
from qkernel.cli import report_from_dict, report_to_dict
from qkernel.series import EPS_SERIES


def _gate(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[criterion {number:02d}] {name}: {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed{suffix}"


def test_criterion_01_gram_matrix():
    # q = 0.3, beta = 0.6, m, n <= 8: diagonal matches 1/h_n to 1e-9,
    # off-diagonal below 1e-10 of the largest diagonal entry, the whole
    # matrix symmetric, within 5 s
    beta, q, size = 0.6, 0.3, 9
    started = time.perf_counter()
    reports = [[verify_thm_1_1(m, n, beta, q) for n in range(size)] for m in range(size)]
    elapsed = time.perf_counter() - started
    diag_rel = max(reports[n][n].rel_err for n in range(size))
    max_diag = max(abs(reports[n][n].lhs) for n in range(size))
    off_diag = max(abs(reports[m][n].lhs)
                   for m in range(size) for n in range(size) if m != n)
    asym = max(abs(reports[m][n].lhs - reports[n][m].lhs)
               for m in range(size) for n in range(size))
    ok = (diag_rel <= 1e-9 and off_diag <= 1e-10 * max_diag
          and asym <= 1e-12 * max_diag and elapsed <= 5.0)
    _gate(1, "one-parameter orthogonality Gram matrix", ok,
          f"diag rel {diag_rel:.2e}, offdiag {off_diag:.2e}, {elapsed:.2f}s")


def test_criterion_02_q_hermite_norms():
    # beta = 0 specialization at q = 0.5: diagonal equals 2 pi (q;q)_m/(q;q)_inf
    q = 0.5
    qq_inf = qpoch_infinite(q, q).real
    worst = 0.0
    for m in range(7):
        def integrand(theta, m=m):
            plus = np.exp(2j * theta)
            weight = qpoch_infinite(plus, q) * qpoch_infinite(1 / plus, q)
            h = q_hermite(m, np.cos(theta), q)
            return weight * h * h

        value = periodic_quadrature(integrand).value / 2
        expected = 2 * math.pi * qpoch_finite(q, q, m) / qq_inf
        worst = max(worst, abs(value - expected) / abs(expected))
    _gate(2, "q-Hermite norm specialization", worst <= 1e-9, f"worst rel {worst:.2e}")


def test_criterion_03_mixed_parameter_grid():
    beta, gamma, q, size = 0.25, 0.5, 0.4, 9
    worst_match = 0.0
    worst_vanish = 0.0
    for m in range(size):
        for n in range(size):
            report = verify_thm_1_2(m, n, beta, gamma, q)
            if m >= n and (m - n) % 2 == 0:
                worst_match = max(worst_match, report.rel_err)
            else:
                worst_vanish = max(worst_vanish, report.rel_err)
    ok = worst_match <= 1e-8 and worst_vanish <= 1e-9
    _gate(3, "mixed-parameter integral grid", ok,
          f"closed form {worst_match:.2e}, vanishing {worst_vanish:.2e}")


def test_criterion_04_two_parameter_grid_and_reduction():
    alpha, beta, q, size = 0.4, -0.3, 0.35, 7
    worst_diag = 0.0
    worst_off = 0.0
    for m in range(size):
        for n in range(size):
            report = verify_thm_1_3(m, n, alpha, beta, q)
            if m == n:
                worst_diag = max(worst_diag, report.rel_err)
            else:
                worst_off = max(worst_off, report.rel_err)
    # closed-form consistency at alpha = beta: circle value is exactly twice
    # the [0, pi] value
    beta_r, q_r = 0.6, 0.3
    worst_red = 0.0
    for n in range(7):
        circle = (2 * math.pi * qpoch_product([beta_r, beta_r], q_r)
                  / qpoch_product([q_r, beta_r * beta_r], q_r)
                  * (2 / (1 - beta_r * q_r**n))
                  * qpoch_finite(beta_r * beta_r, q_r, n) / qpoch_finite(q_r, q_r, n))
        halfline = 2 / h_norm(n, beta_r, q_r)
        worst_red = max(worst_red, abs(circle - halfline) / abs(halfline))
    ok = worst_diag <= 1e-9 and worst_off <= 1e-10 and worst_red <= 1e-12
    _gate(4, "two-parameter orthogonality grid", ok,
          f"diag {worst_diag:.2e}, offdiag {worst_off:.2e}, reduction {worst_red:.2e}")


def test_criterion_05_beta_integral(q_beta_oracle):
    rng = np.random.default_rng(2024)
    cases = [(0.5, 0.2, 0.3, 0.25, 0.3)]
    while len(cases) < 11:
        alpha, beta = rng.uniform(0.05, 0.55, 2) * rng.choice([-1, 1], 2)
        s, t = rng.uniform(0.05, 0.5, 2) * rng.choice([-1, 1], 2)
        q = rng.uniform(0.2, 0.5)
        cases.append((alpha, beta, s, t, q))
    worst = 0.0
    worst_series = 0.0  # series error over its budget 2 EPS_SERIES (1 + sum |terms|)
    for alpha, beta, s, t, q in cases:
        report = verify_thm_1_4(alpha, beta, s, t, q)
        worst = max(worst, report.rel_err)
        series = report.rhs / polynomials._circle_prefactor(alpha, beta, q)
        true, magnitude = q_beta_oracle(alpha, beta, s * t, q)
        worst_series = max(worst_series,
                           abs(series - true) / (2 * EPS_SERIES * (1 + magnitude)))
    ok = worst <= 1e-8 and worst_series <= 1.0
    _gate(5, "five-parameter q-beta integral", ok,
          f"worst rel {worst:.2e}, series error {worst_series:.2f} of its budget")


def test_criterion_06_rogers_summation():
    rng = np.random.default_rng(77)
    worst = 0.0
    done = 0
    while done < 20:
        b, c, d = rng.uniform(0.55, 0.9, 3)
        a = rng.uniform(0.05, 0.25)
        q = rng.uniform(0.2, 0.5)
        z = a * q / (b * c * d)
        if abs(z) >= 0.9:
            continue
        got = w_series(a, [b, c, d], q, z)
        expected = rogers_6w5_rhs(a, b, c, d, q)
        worst = max(worst, abs(got - expected) / (1 + abs(expected)))
        done += 1
    worst_term = 0.0
    for m in range(1, 6):
        a = rng.uniform(0.1, 0.5)
        c, d = rng.uniform(0.2, 0.5, 2)
        q = rng.uniform(0.25, 0.45)
        b = q ** -float(m)
        z = a * q / (b * c * d)
        got = w_series(a, [b, c, d], q, z)
        expected = rogers_6w5_rhs(a, b, c, d, q)
        worst_term = max(worst_term, abs(got - expected) / (1 + abs(expected)))
    ok = worst <= 1e-11 and worst_term <= 1e-12
    _gate(6, "Rogers 6W5 summation", ok,
          f"cloud {worst:.2e}, terminating {worst_term:.2e}")


def test_criterion_07_q_integral_evaluation():
    rng = np.random.default_rng(31337)
    worst = 0.0
    done = 0
    while done < 10:
        a = complex(*rng.uniform(-0.25, 0.25, 2))
        b = complex(*rng.uniform(-0.25, 0.25, 2))
        c = complex(*rng.uniform(-0.35, 0.35, 2))
        x = rng.uniform(0.6, 0.9) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        y = rng.uniform(0.6, 0.9) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        q = rng.uniform(0.25, 0.45)
        bound = max(abs(a), abs(b), abs(c * x), abs(c * y),
                    abs(a * x / y), abs(b * y / x))
        if bound >= 0.9:
            continue
        report = verify_prop_3_1(a, b, c, complex(x), complex(y), q)
        worst = max(worst, report.rel_err)
        done += 1
    _gate(7, "Al-Salam--Verma q-integral", worst <= 1e-9, f"worst rel {worst:.2e}")


def test_criterion_08_integral_representation():
    x = 0.8 * np.exp(0.4j)
    worst = 0.0
    for n in range(11):
        report = verify_prop_3_2(n, 0.3, 0.2, complex(x), complex(x.conjugate()), 0.3)
        worst = max(worst, report.rel_err)
    _gate(8, "q-integral representation of Phi_n", worst <= 1e-9, f"worst rel {worst:.2e}")


def test_criterion_09_connection_formula():
    worst = 0.0
    for n in range(13):
        worst = max(worst, verify_rogers_connection(n, 0.4, 0.7, 0.3).rel_err)
    degenerate = max(verify_rogers_connection(n, 0.4, 0.4, 0.3).rel_err
                     for n in range(13))
    ok = worst <= 1e-10 and degenerate <= 1e-13
    _gate(9, "Rogers connection formula", ok,
          f"worst rel {worst:.2e}, degenerate {degenerate:.2e}")


def test_criterion_10_chebyshev_integral():
    worst = 0.0
    for n in range(7):
        for k in range(1, 5):
            worst = max(worst, verify_askey_ismail_chebyshev(n, k, 0.5, 0.3).rel_err)
    _gate(10, "Chebyshev cross integral", worst <= 1e-8, f"worst rel {worst:.2e}")


def test_criterion_11_method_equivalence():
    # C_n(x; beta|q) three ways: ultraspherical_c, the explicit sum (phi_poly
    # on the circle over (q;q)_n) and coefficient n of the generating
    # function (gf_expand); ultraspherical_c and gf_expand run one
    # q-difference recurrence, so the explicit sum is the independent route
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(50):
        beta = rng.uniform(0.05, 0.6) * rng.choice([-1, 1])
        q = rng.uniform(0.05, 0.6) * rng.choice([-1, 1])
        x = rng.uniform(-0.99, 0.99)
        theta = math.acos(x)
        phase = complex(math.cos(theta), math.sin(theta))
        series = gf_expand([beta * phase, beta / phase], [phase, 1 / phase], q, 20)
        for n in range(21):
            explicit = (phi_poly(n, beta, beta, phase, phase.conjugate(), q)
                        / qpoch_finite(q, q, n))
            recurrence = ultraspherical_c(n, x, beta, q)
            genfunc = series.coeffs[n]
            scale = 1 + abs(explicit)
            worst = max(worst,
                        abs(explicit - recurrence) / scale,
                        abs(explicit - genfunc) / scale)
    _gate(11, "explicit/recurrence/genfunc equivalence", worst <= 1e-11,
          f"worst rel {worst:.2e}")


def test_criterion_12_coefficientwise_expansions():
    shifted = verify_gf_4_1(0.3, 0.4, 1.1, degree=16)
    double = verify_prop_4_2(0.3, 0.6, 0.4, 1.1, degree=16)
    ok = shifted.rel_err <= 1e-9 and double.rel_err <= 1e-9
    _gate(12, "generating-function expansions to degree 16", ok,
          f"shifted {shifted.rel_err:.2e}, double sum {double.rel_err:.2e}")


def test_criterion_13_uniform_bound():
    rng = np.random.default_rng(4242)
    ok = True
    for _ in range(20):
        alpha, beta, q = rng.uniform(-0.9, 0.9, 3)
        for n in range(16):
            report = verify_uniform_bound(n, alpha, beta, q, grid_size=64)
            ok = ok and report.passed
    _gate(13, "uniform modulus bound", ok)


def test_criterion_14_cli_suite(tmp_path, child_env):
    target = tmp_path / "reports.json"
    proc = subprocess.run(
        [sys.executable, "-m", "qkernel", "suite", "--format", "json", "--out", str(target)],
        capture_output=True, text=True, timeout=300, env=child_env)
    data = json.loads(target.read_text())
    round_trips = all(
        report_to_dict(report_from_dict(entry)) == entry for entry in data)
    forced = subprocess.run(
        [sys.executable, "-m", "qkernel", "check", "thm-1.1", "--m", "3", "--n", "3",
         "--beta", "0.6", "--q", "0.3", "--tol", "1e-30"],
        capture_output=True, text=True, timeout=300, env=child_env)
    ok = (proc.returncode == 0 and len(data) >= 60 and all(d["pass"] for d in data)
          and round_trips and forced.returncode == 1)
    _gate(14, "command line suite", ok,
          f"exit {proc.returncode}, {len(data)} reports, forced exit {forced.returncode}")
