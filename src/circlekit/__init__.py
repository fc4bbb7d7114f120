"""circlekit: desk-scale circle-method computations.

Local densities and the singular series, archimedean singular integrals,
major/minor arc geometry, exponential sums, exact prime-power counting, and
h-invariant tools for rational forms.
"""

__version__ = "0.1.0"

from .poly import (Polynomial, grid_blocks, load_polynomial,
                   parse_polynomial, weyl_difference, weyl_difference_poly)
from .hinv import (Decomposition, QuadraticFormData, build_gm_fm,
                   hilbert_symbol, lemma21_check, linear_count, quadratic_h,
                   verify_decomposition, witt_index)
from .local import (B_of_q, LocalFactor, SeriesEstimate, mu_p, nu_count,
                    padic_nonsingular_witness, singular_series, unit_exp_sum,
                    value_histogram)
from .arch import (QuadratureSpec, SingularIntegralEstimate, I_eta, J_of_L,
                   mu_infinity, real_nonsingular_witness, sigma_infinity,
                   sigma_measure, sigma_scaled)
from .arcs import (ArcDissection, RationalFreq, WeylReport, E_normalized,
                   S_sum, T_sum, T_sums, build_arcs, classify_alpha, estimate_gd,
                   z_count)
from .count import (CountResult, MangoldtTable, PredictionReport,
                    RegularityReport, count_direct, count_mitm,
                    count_via_histogram, mangoldt_table, predict,
                    regularity_exponent)
