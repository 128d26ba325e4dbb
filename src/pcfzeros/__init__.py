"""pcfzeros: real and complex zeros of the parabolic cylinder function
U(a,z) from uniform asymptotic expansions, with fixed-point refinement
and independent-evaluation validation."""

from .airy import AiryValue, eval_ai, eval_ai_rotated, eval_bi_real, \
    real_airy_zero
from .coeffs import correction1, correction2
from .errors import ChainBreakError, ConvergenceError, DomainError, \
    PcfzerosError, PolynomialCaseError
from .genairy import GenAiryZero, complex_zeros, mu, neg_zeros, \
    refine_zero, sole_positive_zero, t_series, vartheta
from .mapping import invert_zeta, zeta
from .pcf_eval import PcfValue, ValidationRecord, eval_U, metrics, \
    winding_number
from .refine import RefinedZero, sweep, t_iterate
from .zeros import ZeroApproximation, ZeroFamily, count_positive, families, \
    hermite_zeros, m_minus, zeros_aneg_complex, zeros_aneg_nonpositive, \
    zeros_aneg_positive, zeros_apos

__version__ = "0.1.0"

# the series sums are pure Python; the name stays for tools that report it
kernel_backend = "pure"

__all__ = [
    "AiryValue", "ChainBreakError", "ConvergenceError", "DomainError",
    "GenAiryZero", "PcfValue", "PcfzerosError", "PolynomialCaseError",
    "RefinedZero", "ValidationRecord", "ZeroApproximation", "ZeroFamily",
    "complex_zeros", "correction1",
    "correction2", "count_positive", "eval_U", "eval_ai", "eval_ai_rotated",
    "eval_bi_real", "families", "hermite_zeros", "invert_zeta",
    "kernel_backend", "m_minus", "metrics", "mu", "neg_zeros",
    "real_airy_zero", "refine_zero", "sole_positive_zero", "sweep",
    "t_iterate", "t_series", "vartheta", "winding_number",
    "zeros_aneg_complex", "zeros_aneg_nonpositive", "zeros_aneg_positive",
    "zeros_apos", "zeta",
]
