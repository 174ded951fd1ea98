"""Paley compressed-sensing frames: bounds on restricted-isometry constants,
spectral identities behind them, and reproducible experiments.

Public surface re-exported here; see the README for the CLI.
"""

__version__ = "0.1.0"

from .bounds import (
    DEMBO_C,
    GENERALIZED_OFFSET,
    BoundReport,
    SparsityThreshold,
    bound_conjectural,
    bound_dembo_recursive,
    bound_generalized_dembo,
    bound_gershgorin,
    bound_skew,
    build_report,
    find_c_alpha,
    lemma_k_inequality,
    max_sparsity,
)
from .errors import (
    DuplicateSupportError,
    MalformedInputError,
    NonHermitianError,
    NotPrimeError,
    PaleyRipError,
    ParameterRangeError,
    WrongResidueError,
)
from .experiments import (
    ConjectureRecord,
    ConjectureScanSummary,
    DemboRatioRow,
    RipEstimate,
    conjecture_scan,
    conjecture_search,
    dembo_ratio_study,
    estimate_rip_single,
    estimate_rip_worst,
    exact_rip,
    fit_power_law,
    greedy_peel,
    one_sided_ratio,
)
from .frame import (
    PaleyFrame,
    SupportSet,
    build_frame,
    coherence,
    frame_to_json,
    gram_analytic,
    gram_direct,
    gram_to_json,
    l1_coherence,
    reduce_support,
    sign_matrix,
)
from .numtheory import PaleyPrime, as_paley_prime, chi_table, is_prime, legendre, row_index_set
from .rng import SplitMix64, random_subset, sub_seed
from .spectra import (
    BorderedBlock,
    block3_det,
    canonical_tournament,
    dembo_lower,
    dembo_upper,
    gamma_term,
    generalized_dembo_extremes,
    gram3_charpoly_check,
    hermitian_spectrum,
    schur_bordered_det,
    skew_spectral_radius,
)
from .verify import run_verification
