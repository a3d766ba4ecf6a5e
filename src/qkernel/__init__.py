"""qkernel: numerical q-series special functions and an identity checker.

The kernel evaluates q-Pochhammer symbols, basic hypergeometric series,
continuous q-ultraspherical polynomials and their two-parameter circle
extension, Jackson q-integrals, and spectrally convergent periodic
quadrature.  On top of it, `qkernel.verify` checks every supported integral,
orthogonality, and summation identity numerically and emits machine-readable
reports; `qkernel.cli` is the command line front end (`python -m qkernel`).
"""

from .context import QContext, context_for
from .errors import ConvergenceError, DomainError, PoleError, QKernelError
from .integrate import (QuadratureResult, jackson_q_integral,
                        periodic_quadrature, weight_omega_ab,
                        weight_omega_beta)
from .pochhammer import (INFINITY, PochhammerIndex, qbinom, qpoch_finite,
                         qpoch_infinite, qpoch_multi)
from .polynomials import (Method, chebyshev_t, connection_coeffs, gasper_c,
                          h_norm, phi_poly, q_hermite, ultraspherical_c)
from .series import (HypergeometricSpec, TruncatedPowerSeries, gf_expand,
                     phi_series, rogers_6w5_rhs, w_series)
from .verify import (CHECK_RUNNERS, DEFAULT_TOLERANCES, VerificationReport,
                     default_suite_config, default_tolerance, run_suite,
                     verify_askey_ismail_chebyshev, verify_gf_4_1,
                     verify_prop_3_1, verify_prop_3_2, verify_prop_4_2,
                     verify_qbinomial, verify_rogers_6w5,
                     verify_rogers_connection, verify_thm_1_1,
                     verify_thm_1_2, verify_thm_1_3, verify_thm_1_4,
                     verify_uniform_bound)

__version__ = "0.1.0"

__all__ = [
    "QContext", "context_for",
    "QKernelError", "DomainError", "PoleError", "ConvergenceError",
    "INFINITY", "PochhammerIndex", "qpoch_finite", "qpoch_infinite",
    "qpoch_multi", "qbinom",
    "TruncatedPowerSeries", "gf_expand", "HypergeometricSpec", "phi_series",
    "w_series", "rogers_6w5_rhs",
    "Method", "ultraspherical_c", "gasper_c", "phi_poly", "q_hermite",
    "chebyshev_t", "h_norm", "connection_coeffs",
    "QuadratureResult", "jackson_q_integral", "periodic_quadrature",
    "weight_omega_beta", "weight_omega_ab",
    "VerificationReport", "CHECK_RUNNERS", "DEFAULT_TOLERANCES",
    "default_tolerance", "default_suite_config", "run_suite",
    "verify_thm_1_1", "verify_thm_1_2", "verify_thm_1_3", "verify_thm_1_4",
    "verify_prop_3_1", "verify_prop_3_2", "verify_rogers_connection",
    "verify_askey_ismail_chebyshev", "verify_gf_4_1", "verify_prop_4_2",
    "verify_uniform_bound", "verify_qbinomial", "verify_rogers_6w5",
    "__version__",
]
