"""Diagonalization of real quadratic forms in ladder operators.

Bogoliubov normal forms and exact spectra for fermionic and bosonic
quadratic Hamiltonians, a brute-force Fock-space oracle, and Morse-type
counting of local zero modes at vector-field singular points.  The oracle
is :mod:`bogodiag.fock`, which importing the package does not load.
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
