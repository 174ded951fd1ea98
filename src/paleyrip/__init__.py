"""Paley compressed-sensing frames: bounds on restricted-isometry constants,
spectral identities behind them, and reproducible experiments.

Public surface re-exported here; see the README for the CLI.  Nothing is
imported up front: each name below, and each submodule, loads its module
on first access (PEP 562), so `import paleyrip` does not load numpy.
"""

import importlib

__version__ = "0.1.0"

# Submodule -> the public names it exports here.
_EXPORTS = {
    "bounds": (
        "DEMBO_C",
        "GENERALIZED_OFFSET",
        "SparsityThreshold",
        "bound_conjectural",
        "family_bounds",
        "find_c_alpha",
        "max_sparsity",
    ),
    "errors": (
        "DuplicateSupportError",
        "MalformedInputError",
        "NonHermitianError",
        "NotPrimeError",
        "PaleyRipError",
        "ParameterRangeError",
        "WrongResidueError",
    ),
    "experiments": (
        "DemboRatioRow",
        "dembo_ratio_study",
        "dembo_upper",
        "estimate_rip_single",
        "estimate_rip_worst",
        "exact_rip",
        "sign_matrix",
        "skew_spectral_radius",
    ),
    "fit": ("fit_power_law",),
    "frame": (
        "PaleyFrame",
        "build_frame",
        "check_support",
        "gram_direct",
        "gram_rows",
    ),
    "numtheory": (
        "check_paley",
        "chi_signs",
        "is_prime",
        "legendre",
        "row_index_set",
    ),
    "pairs": (
        "ConjectureRecord",
        "ConjectureScanSummary",
        "conjecture_scan",
        "conjecture_search",
        "greedy_peel",
        "one_sided_ratio",
    ),
    "rng": ("SplitMix64", "random_subset", "sub_seed"),
    "spectra": (
        "BorderedBlock",
        "generalized_dembo_extremes",
        "gram_analytic",
        "hermitian_spectrum",
    ),
    "verify": ("run_verification",),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_SOURCE})
