"""qkernel: numerical q-series special functions and an identity checker.

The kernel evaluates q-Pochhammer symbols, basic hypergeometric series,
continuous q-ultraspherical polynomials and their two-parameter circle
extension, Jackson q-integrals, and spectrally convergent periodic
quadrature.  On top of it, `qkernel.verify` checks every supported integral,
orthogonality, and summation identity numerically and emits machine-readable
reports; `qkernel.cli` is the command line front end (`python -m qkernel`).

`import qkernel` loads no submodule: each public name imports its module on
first use (PEP 562), so a caller of the scalar products and series never
pays for numpy.
"""

import importlib

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_MODULE_OF = {name: module for module, names in {
    "errors": "QKernelError DomainError PoleError ConvergenceError",
    "pochhammer": "qpoch_finite qpoch_infinite qpoch_product qpoch_ratio qpoch_ladder qbinom",
    "series": "TruncatedPowerSeries gf_expand phi_series w_series rogers_6w5_rhs",
    "polynomials": "ultraspherical_c gasper_c phi_poly q_hermite chebyshev_t h_norm "
                   "connection_coeffs",
    "integrate": "QuadratureResult jackson_q_integral periodic_quadrature "
                 "weight_omega_beta weight_omega_ab",
    "verify": "VerificationReport CHECK_RUNNERS default_suite_config run_suite "
              "verify_thm_1_1 verify_thm_1_2 verify_thm_1_3 verify_thm_1_4 "
              "verify_prop_3_1 verify_prop_3_2 verify_rogers_connection "
              "verify_askey_ismail_chebyshev verify_gf_4_1 verify_prop_4_2 "
              "verify_uniform_bound verify_qbinomial verify_rogers_6w5",
}.items() for name in names.split()}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value
