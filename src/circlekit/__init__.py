"""circlekit: desk-scale circle-method computations.

Local densities and the singular series, archimedean singular integrals,
major/minor arc geometry, exponential sums, exact prime-power counting, and
h-invariant tools for rational forms.

Every public name below resolves on first access (PEP 562), so
``import circlekit`` loads no submodule and a command imports only what it
runs.
"""
from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "poly": "Polynomial grid_blocks load_polynomial parse_polynomial "
            "residue_histogram weyl_difference weyl_difference_poly",
    "hinv": "Decomposition QuadraticFormData build_gm_fm hilbert_symbol "
            "lemma21_check linear_count quadratic_h verify_decomposition "
            "witt_index",
    "local": "B_of_q LocalFactor SeriesEstimate mu_p nu_count "
             "singular_series unit_exp_sum value_histogram",
    "arch": "QuadratureSpec SingularIntegralEstimate I_eta J_of_L "
            "mu_infinity real_nonsingular_witness sigma_infinity "
            "sigma_measure sigma_scaled",
    "arcs": "ArcDissection RationalFreq WeylReport E_normalized S_sum T_scan "
            "T_sum build_arcs classify_alpha estimate_gd z_count",
    "count": "CountResult MangoldtTable PredictionReport RegularityReport "
             "count_direct count_mitm count_via_histogram mangoldt_table "
             "predict regularity_exponent",
}
_HOME = {name: mod for mod, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_HOME[name]}", __name__), name)


def __dir__():
    return sorted([*globals(), *__all__])
