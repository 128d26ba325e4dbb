"""pcfzeros: real and complex zeros of the parabolic cylinder function
U(a,z) from uniform asymptotic expansions, with fixed-point refinement
and independent-evaluation validation."""

from .airy import AiryValue, eval_ai, eval_ai_rotated, eval_bi_real, \
    real_airy_zero
from .coeffs import CorrectionInput, correction1, correction2, g_coeff, \
    upsilon1
from .errors import ChainBreakError, ConvergenceError, DomainError, \
    PcfzerosError, PolynomialCaseError
from .genairy import GenAiryZero, IndexShift, complex_zeros, index_shift, \
    mu, neg_zeros, refine_zero, sole_positive_zero, t_series, vartheta
from .mapping import MapBundle, invert_zeta, map_bundle, zeta
from .pcf_eval import PcfValue, ValidationRecord, eval_U, eval_U_prime, \
    eval_U_quadrature, metrics, residual_eq319, winding_number
from .refine import RefinedZero, h_displacement, sweep, t_iterate
from .zeros import ZeroApproximation, ZeroFamily, count_positive, families, \
    hermite_zeros, m_minus, zeros_aneg_complex, zeros_aneg_nonpositive, \
    zeros_aneg_positive, zeros_apos

__version__ = "0.1.0"

# the series sums are pure Python; the name stays for tools that report it
kernel_backend = "pure"

__all__ = [
    "AiryValue", "ChainBreakError", "ConvergenceError", "CorrectionInput",
    "DomainError", "GenAiryZero", "IndexShift", "MapBundle", "PcfValue",
    "PcfzerosError", "PolynomialCaseError", "RefinedZero",
    "ValidationRecord", "ZeroApproximation", "ZeroFamily",
    "complex_zeros", "correction1", "correction2", "count_positive",
    "eval_U", "eval_U_prime", "eval_U_quadrature", "eval_ai",
    "eval_ai_rotated", "eval_bi_real", "families", "g_coeff",
    "h_displacement", "hermite_zeros", "index_shift", "invert_zeta",
    "kernel_backend", "m_minus", "map_bundle", "metrics", "mu",
    "neg_zeros", "real_airy_zero", "refine_zero", "residual_eq319",
    "sole_positive_zero", "sweep", "t_iterate", "t_series", "upsilon1",
    "vartheta", "winding_number", "zeros_aneg_complex",
    "zeros_aneg_nonpositive", "zeros_aneg_positive", "zeros_apos", "zeta",
]
