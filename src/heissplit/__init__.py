"""Splitting of degree-one primes (t - a) in mod-ell Heisenberg extensions
of F_p(t): explicit criterion formulas on one side, a brute-force
finite-field factorization oracle on the other, and verification suites
binding the two together.
"""

__version__ = "0.1.0"

from .errors import (
    DegenerateSpecializationError,
    DegenerateValueError,
    DivisibilityError,
    ExpansionTooLargeError,
    HeisSplitError,
    MalformedSpecError,
    MixedModulusError,
    NoRootOfUnityError,
    NonPositiveCountError,
    NotPrimeError,
    NotResidueError,
    PrimeOutOfRangeError,
    SymbolNotTrivialError,
    UnsupportedEllError,
    WrongEllError,
    ZeroArgumentError,
)
from .finite_field import (
    Context,
    ExtField,
    PrimeField,
    binomial_roots,
    build_extension,
    epsilon_value,
    is_prime,
    lth_root,
    make_context,
    power_residue_symbol,
    prime_field,
    primitive_root,
)
from .heis_arith import (
    FrobPrediction,
    a2_value,
    a_ell_value,
    a_poly_eval,
    classify_a2,
    expand_a_poly,
    frobenius_prediction,
)
from .heisenberg import (
    HeisElem,
    class_label,
    conjugacy_classes,
    element_order,
    identity,
)
from .seeds import DEFAULT_SEED, derive_seed
from .splitting_oracle import (
    SplitReport,
    split_K,
    split_R,
    split_R2_curve,
)
from .verification import (
    ClassHistogram,
    ScanRecord,
    ScanResult,
    admissible_values,
    check_block_det,
    chebotarev_stats,
    discriminant_ratio_check,
    verify_theorems_scan,
)
