"""Seeded workload grids for the benchmark.

A workload is a list of cases.  Each case is one call to a public check
runner, ``qkernel.verify.CHECK_RUNNERS[check_id](**params)``.  The seed
permutes the order of the cases; in ``stress`` and ``expand`` it also draws
the jitter of the non-pinned cases from the ranges written next to them.
Pinned cases never change, whatever the seed.

``known_failure`` marks the pinned cases that fail at the seed commit (see
bench/README.md for their rel_err).  A fix may turn them into passes; every
other case must pass, or the benchmark reports its output as incorrect.
"""

from __future__ import annotations

import cmath
import random
from dataclasses import dataclass

WORKLOADS = ("suite", "stress", "expand")


@dataclass(frozen=True)
class Case:
    check_id: str
    params: dict
    pinned: bool = True
    known_failure: bool = False


def _u(rng: random.Random, lo: float, hi: float) -> float:
    """Uniform draw from [lo, hi], rounded so printed params stay short."""
    return round(rng.uniform(lo, hi), 4)


def _suite(rng: random.Random) -> list[Case]:
    from qkernel.verify import default_suite_config

    config = default_suite_config()
    return [Case(check_id, dict(entry))
            for check_id in sorted(config) for entry in config[check_id]]


def _stress(rng: random.Random) -> list[Case]:
    """q near 1 and high degree: the Jackson ladder and the periodic
    quadrature do most of the work, and every product is long."""
    ladder = {"a": 0.3, "b": 0.2, "c": 0.4, "x": 0.5, "y": 0.7}
    pinned = [
        Case("prop-3.1", {**ladder, "q": 0.95}),
        Case("prop-3.1", {**ladder, "q": 0.9}),
        Case("thm-1.3", {"m": 10, "n": 10, "alpha": 0.4, "beta": -0.3, "q": 0.9}),
        Case("thm-1.1", {"m": 20, "n": 20, "beta": 0.6, "q": 0.9}),
        Case("thm-1.4", {"alpha": 0.5, "beta": 0.2, "s": 0.3, "t": 0.25, "q": 0.9}),
        Case("askey-ismail", {"n": 10, "k": 3, "beta": 0.5, "q": 0.9}),
        Case("prop-3.2", {"n": 20, "a": 0.3, "b": 0.2, "x": 0.5, "y": 0.7, "q": 0.9},
             known_failure=True),
        Case("qbinomial", {"a": 0.4, "z": 0.5, "q": 0.999}, known_failure=True),
        Case("gf-4.1", {"beta": 0.5, "q": 0.9, "theta": 0.9, "degree": 40},
             known_failure=True),
    ]
    jittered = [
        Case("prop-3.1", {"a": _u(rng, 0.2, 0.4), "b": _u(rng, 0.1, 0.3),
                          "c": _u(rng, 0.3, 0.5), "x": 0.5, "y": 0.7, "q": 0.85},
             pinned=False),
        Case("thm-1.1", {"m": 12, "n": 12, "beta": _u(rng, 0.5, 0.7), "q": 0.9},
             pinned=False),
        Case("thm-1.2", {"m": 8, "n": 6, "beta": _u(rng, 0.2, 0.3),
                         "gamma": _u(rng, 0.45, 0.55), "q": 0.85}, pinned=False),
        Case("thm-1.4", {"alpha": _u(rng, 0.4, 0.6), "beta": _u(rng, 0.1, 0.3),
                         "s": _u(rng, 0.25, 0.35), "t": _u(rng, 0.2, 0.3), "q": 0.85},
             pinned=False),
        Case("askey-ismail", {"n": 8, "k": 2, "beta": _u(rng, 0.4, 0.6), "q": 0.85},
             pinned=False),
    ]
    return pinned + jittered


def _expand(rng: random.Random) -> list[Case]:
    """Generating-function and series layer only: no quadrature, no ladder,
    and a few scalar infinite products."""
    a_fixed = cmath.rect(0.8, 0.5)
    z_fixed = cmath.rect(0.7, -0.3)
    pinned = [
        Case("gf-4.1", {"beta": 0.5, "q": 0.9, "theta": 0.9, "degree": 40},
             known_failure=True),
        Case("gf-4.1", {"beta": 0.5, "q": 0.95, "theta": 0.9, "degree": 60},
             known_failure=True),
        Case("qbinomial", {"a": a_fixed, "z": z_fixed, "q": 0.99}, known_failure=True),
        Case("qbinomial", {"a": a_fixed, "z": z_fixed, "q": 0.999}, known_failure=True),
    ]
    jittered = [
        Case("gf-4.1", {"beta": _u(rng, 0.4, 0.6), "q": 0.3,
                        "theta": _u(rng, 0.7, 1.1), "degree": 60}, pinned=False),
        Case("gf-4.1", {"beta": _u(rng, 0.4, 0.6), "q": 0.6,
                        "theta": _u(rng, 0.7, 1.1), "degree": 40}, pinned=False),
        Case("prop-4.2", {"beta": _u(rng, 0.25, 0.35), "gamma": _u(rng, 0.55, 0.65),
                          "q": 0.6, "theta": _u(rng, 0.9, 1.3), "degree": 40},
             pinned=False),
        Case("prop-4.2", {"beta": _u(rng, 0.25, 0.35), "gamma": _u(rng, 0.55, 0.65),
                          "q": 0.9, "theta": _u(rng, 0.9, 1.3), "degree": 30},
             pinned=False),
        Case("qbinomial", {"a": cmath.rect(_u(rng, 0.7, 0.9), _u(rng, 0.3, 0.7)),
                           "z": cmath.rect(_u(rng, 0.6, 0.8), _u(rng, -0.4, -0.2)),
                           "q": 0.9}, pinned=False),
        Case("rogers-6phi5", {"a": _u(rng, 0.05, 0.15), "b": 0.7, "c": 0.6, "d": 0.8,
                              "q": 0.95}, pinned=False),
        Case("rogers-6phi5", {"a": _u(rng, 0.05, 0.15), "b": 0.7, "c": 0.6, "d": 0.8,
                              "q": 0.99}, pinned=False),
        Case("uniform-bound", {"n": 60, "alpha": _u(rng, 0.6, 0.8),
                               "beta": _u(rng, -0.6, -0.4), "q": 0.6, "grid_size": 256},
             pinned=False),
        Case("rogers-connection", {"n": 60, "beta": _u(rng, 0.3, 0.5),
                                   "gamma": _u(rng, 0.6, 0.8), "q": 0.3, "theta_grid": 64},
             pinned=False),
    ]
    return pinned + jittered


_BUILDERS = {"suite": _suite, "stress": _stress, "expand": _expand}


def make_workload(name: str, seed: int) -> list[Case]:
    """The cases of workload `name` for `seed`, in the seed's order."""
    rng = random.Random(f"{name}:{seed}")
    cases = _BUILDERS[name](rng)
    rng.shuffle(cases)
    return cases
