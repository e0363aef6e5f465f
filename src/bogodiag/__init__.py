"""Diagonalization of real quadratic forms in ladder operators.

Bogoliubov normal forms and exact spectra for fermionic and bosonic
quadratic Hamiltonians, a brute-force Fock-space oracle, and Morse-type
counting of local zero modes at vector-field singular points.
"""

from .errors import (
    BogodiagError,
    ContinuousSpectrum,
    DefectiveMatrix,
    DegeneratePoint,
    NonCanonicalTransform,
    NonDiscreteMode,
    NonRealSpectrum,
    ResourceLimitError,
    ValidationError,
)
from .forms import (
    BogoliubovTransform,
    QuadraticForm,
    StandardForm,
    Statistics,
    Violation,
    apply_transform,
    compose,
    form_from_dict,
    from_standard,
    is_positive,
    random_canonical,
    to_standard,
    validate,
)
from .spectral import (
    LEVEL_COEFF,
    BosonMode,
    BosonModeData,
    FermionModeData,
    ModeClass,
    Parity,
    SpectrumResult,
    boson_mode_levels,
    boson_spectrum,
    diagonalize_boson,
    diagonalize_fermion,
    fermion_invariants,
    fermion_spectrum,
    ladder_sums,
)
from .morse import (
    MorseReport,
    PointReport,
    SingularPoint,
    VectorFieldFixture,
    fixture_from_dict,
    local_witten_spectrum,
    morse_report,
    point_sign,
    zero_mode_parity,
)
from .verify import VerifyReport, verify_form

__version__ = "0.1.0"

#: Names of the brute-force oracle, re-exported lazily: of the CLI commands
#: only ``verify`` and ``lemmas`` use ``fock``, the only module that uses scipy.
_FOCK_EXPORTS = (
    "IDENTITY_TOL",
    "TWO_FORM_COEFF",
    "FockRep",
    "TruncationResult",
    "bogoliubov_mode_operators",
    "build_boson_rep",
    "build_fermion_rep",
    "build_hamiltonian",
    "build_standard_hamiltonian",
    "cross_term_identity",
    "identity_residuals",
    "lowest_eigenvalues",
    "sector_spectra",
    "truncation_stable_spectrum",
    "wedge_contraction_identity",
)


def __getattr__(name):
    if name in _FOCK_EXPORTS:
        from . import fock

        value = getattr(fock, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_FOCK_EXPORTS))
