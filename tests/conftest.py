"""Shared fixtures."""

import os
from pathlib import Path

import pytest

import qkernel


@pytest.fixture
def child_env():
    """Environment under which a `python -m qkernel` subprocess imports the
    same package as the test process, installed or not."""
    source = str(Path(qkernel.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


@pytest.fixture(scope="session")
def q_beta_oracle():
    """The thm-1.4 series sum_n (1/(1-a q^n) + 1/(1-b q^n)) (ab;q)_n/(q;q)_n w^n
    and the sum of its term moduli, both to 40 digits in mpmath."""
    mpmath = pytest.importorskip("mpmath")

    def series(alpha, beta, w, q):
        with mpmath.workdps(40):
            a, b, w, q = (mpmath.mpmathify(v) for v in (alpha, beta, w, q))
            total = magnitude = mpmath.mpf(0)
            ratio, qn, wn = mpmath.mpf(1), mpmath.mpf(1), mpmath.mpf(1)
            while True:
                term = (1 / (1 - a * qn) + 1 / (1 - b * qn)) * ratio * wn
                total += term
                magnitude += abs(term)
                if abs(term) <= mpmath.mpf(10) ** -45 * magnitude:
                    return complex(total), float(magnitude)
                ratio *= (1 - a * b * qn) / (1 - q * qn)
                qn *= q
                wn *= w

    return series
