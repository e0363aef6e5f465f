"""Index counting for vector-field singular points and local zero modes.

A nondegenerate singular point carries the sign of its jacobian determinant;
the signed count over all points of a fixture must equal the supplied Euler
characteristic (index theorem check).  Around each point, the localized
quadratic-approximation operator

    sum_i ( -d_i^2 + lambda_i^2 z_i^2 + 2 lambda_i a_i a_i^+ ) - sum_i lambda_i

has per-mode levels |lambda_i| (2 m_i + 1) + 2 lambda_i f_i - lambda_i with
oscillator index m_i >= 0 and occupation f_i in {0, 1}.  It owns exactly one
zero-energy state: all m_i = 0 and f_i = 1 precisely at the negative
lambda_i, so its parity sector is even exactly when det > 0.

Jacobians are expected in orthonormal coordinates; metric pullback is out of
scope here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from .errors import DegeneratePoint, ValidationError
from .forms import StandardForm, Statistics, _integer_from_dict
from .spectral import (
    DEGENERACY_TOL,
    FermionModeData,
    Parity,
    SpectrumResult,
    degenerate,
    diagonalize_fermion,
    guard_level_count,
    ladder_sums,
)

if TYPE_CHECKING:
    from .fock import FockRep

#: Coefficient turning the jacobian's antisymmetric part into the 2-form
#: wedge coefficients; pinned by the cross-term identity test.
TWO_FORM_COEFF = -0.5

#: Largest residual the operator identities may show (floating-point noise).
IDENTITY_TOL = 1e-12


@dataclass(frozen=True)
class SingularPoint:
    """A labeled nondegenerate zero of a vector field via its jacobian."""

    label: str
    jacobian: np.ndarray

    def __post_init__(self):
        jac = np.array(self.jacobian, dtype=float, copy=True)
        if jac.ndim != 2 or jac.shape[0] != jac.shape[1] or jac.shape[0] < 1:
            raise ValidationError(f"jacobian must be square, got shape {jac.shape}")
        if not np.isfinite(jac).all():
            raise ValidationError(f"jacobian of point {self.label!r} has non-finite entries")
        jac.setflags(write=False)
        object.__setattr__(self, "jacobian", jac)

    @property
    def n(self) -> int:
        return self.jacobian.shape[0]


@dataclass(frozen=True)
class VectorFieldFixture:
    """A set of singular points plus the Euler characteristic to check."""

    n: int
    chi: int
    points: tuple

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError("dimension must be at least 1")
        for p in self.points:
            if p.n != self.n:
                raise ValidationError(
                    f"point {p.label!r} has dimension {p.n}, fixture has {self.n}"
                )
        object.__setattr__(self, "points", tuple(self.points))


@dataclass(frozen=True)
class PointReport:
    label: str
    sign: int
    lambdas: tuple
    zero_mode_sector: Parity


@dataclass(frozen=True)
class MorseReport:
    m_plus: int
    m_minus: int
    chi_computed: int
    chi_matches: bool
    points: tuple

    def to_dict(self) -> dict:
        return {
            "m_plus": self.m_plus,
            "m_minus": self.m_minus,
            "chi_computed": self.chi_computed,
            "chi_matches": self.chi_matches,
            "points": [{"label": p.label, "sign": p.sign, "lambdas": list(p.lambdas),
                        "zero_mode_sector": p.zero_mode_sector.value} for p in self.points],
        }


def _point_modes(point: SingularPoint) -> FermionModeData:
    """Signed singular values of the jacobian, refused when degenerate.

    The point is degenerate when its sign is ambiguous, the shared test
    spectral.degenerate(sigma): sigma_min <= DEGENERACY_TOL * sigma_max.
    """
    std = StandardForm(statistics=Statistics.FERMION, C=point.jacobian, k0=0.0)
    data = diagonalize_fermion(std)
    if data.sign_ambiguous:
        mags = np.abs(data.lambdas)
        raise DegeneratePoint(
            f"point {point.label!r} has singular values {mags.min():.3e} <= "
            f"{DEGENERACY_TOL:.0e} * {mags.max():.3e}"
        )
    return data


def _sign(data: FermionModeData) -> int:
    # prod sign(lambda_i) = sign(det C), see diagonalize_fermion
    return 1 if int(np.sum(data.lambdas < 0)) % 2 == 0 else -1


def point_sign(point: SingularPoint) -> int:
    """Sign of det(jacobian); the only local invariant of the point."""
    return _sign(_point_modes(point))


def zero_mode_parity(point: SingularPoint) -> Parity:
    """Parity sector of the unique local zero mode: even iff det > 0."""
    return Parity.EVEN if point_sign(point) > 0 else Parity.ODD


def morse_report(fixture: VectorFieldFixture) -> MorseReport:
    """Signed point count versus the supplied Euler characteristic, with
    per-point spectra and parities.

    One SVD per point gives its sign, its lambdas and its zero-mode sector.
    """
    reports = []
    for p in fixture.points:
        data = _point_modes(p)
        sign = _sign(data)
        reports.append(PointReport(
            label=p.label,
            sign=sign,
            lambdas=tuple(float(v) for v in data.lambdas),
            zero_mode_sector=Parity.EVEN if sign > 0 else Parity.ODD,
        ))
    m_plus = sum(1 for r in reports if r.sign > 0)
    m_minus = len(reports) - m_plus
    chi = m_plus - m_minus
    return MorseReport(m_plus=m_plus, m_minus=m_minus, chi_computed=chi,
                       chi_matches=chi == fixture.chi, points=tuple(reports))


def local_witten_spectrum(lambdas, count: int) -> SpectrumResult:
    """Lowest `count` levels of the localized oscillator, with (m; f) labels.

    Mode i sits on rung 2 m_i + f_i of its ladder.  Guaranteed: exactly one
    zero-energy entry, at all m_i = 0 and f_i = 1 exactly where
    lambda_i < 0.  Degenerate frequencies, by the shared test
    spectral.degenerate (min |lambda| <= DEGENERACY_TOL * max |lambda|),
    raise DegeneratePoint: the near-zero levels they add would break that
    uniqueness.  A count above FERMION_SPECTRUM_GUARD raises
    ResourceLimitError before any ladder is built.
    """
    lam = np.asarray(lambdas, dtype=float)
    if lam.size and degenerate(lam):
        mags = np.abs(lam)
        raise DegeneratePoint(f"frequency {mags.min():.3e} is degenerate next to {mags.max():.3e}")
    guard_level_count(count)
    m, f = np.divmod(np.arange(2 * count), 2)
    ladders = [abs(lv) * (2 * m + 1) + 2.0 * lv * f - lv for lv in lam]
    totals, rungs = ladder_sums(ladders, count)
    return SpectrumResult(energies=totals, rungs=rungs, sectors=(rungs % 2).sum(axis=1) % 2,
                          label_kind="witten", complete=False, bounded_below=True)


def _fermion_rep(n: int, rep: Optional[FockRep]) -> FockRep:
    """`rep`, or the exact representation of n modes (ResourceLimitError
    from n = 13 on); a representation of other modes raises ValueError."""
    from .fock import build_fermion_rep

    if rep is None:
        return build_fermion_rep(n)
    if getattr(rep, "statistics", None) is not Statistics.FERMION or rep.n != n:
        raise ValueError(f"an identity check on {n} modes needs a fermionic rep of {n} modes")
    return rep


def _finite_array(values, name: str, ndim: int) -> np.ndarray:
    """`values` as a non-empty finite float vector (ndim 1) or square matrix
    (ndim 2); anything else raises ValidationError naming `name`."""
    shape = "vector" if ndim == 1 else "square matrix"
    try:
        array = np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} must be a numeric {shape}: {exc}") from None
    if array.ndim != ndim or len(array) < 1 or array.shape != array.shape[:1] * ndim:
        raise ValidationError(f"{name} must be a non-empty {shape}, got shape {array.shape}")
    if not np.isfinite(array).all():
        raise ValidationError(f"{name} has non-finite entries")
    return array


def _wedge_residuals(omega: np.ndarray, rep: FockRep) -> np.ndarray:
    """Wedge-contraction residual of each 1-form of a stack of shape (T, n)."""
    from .fock import _concat, _grouped, _pair_sum

    creation, annihilation = rep._ladders
    coeff = omega[:, :, None] * omega[:, None, :]
    # one dot product per trial: a batched reduction may round differently
    norms = np.array([w @ w for w in omega])
    _, diff = _grouped(*_concat(_pair_sum(coeff, creation, annihilation),
                                _pair_sum(coeff, annihilation, creation)), -norms)
    return np.abs(diff).max(axis=(-2, -1))


def _cross_residuals(jac: np.ndarray, rep: FockRep) -> tuple[np.ndarray, np.ndarray]:
    """Cross-term (residual, const) of each jacobian of a stack of shape (T, n, n)."""
    from .fock import _concat, _grouped, _pair_sum, _with_transpose, _xz_diagonals

    creation, annihilation = rep._ladders
    two_form = TWO_FORM_COEFF * (jac - jac.swapaxes(-1, -2))
    alg_off, alg_w = _with_transpose(*_concat(_pair_sum(jac, creation, annihilation),
                                              _pair_sum(two_form, creation, creation)))
    offsets, diff = _grouped(*_concat(_xz_diagonals(jac, rep), (alg_off, -alg_w)))
    scalar = diff[..., np.searchsorted(offsets, 0), :]
    const = scalar.mean(axis=-1)
    scalar -= const[:, None]
    return np.abs(diff).max(axis=(-2, -1)), const


def wedge_contraction_identity(omega, rep: Optional[FockRep] = None) -> float:
    """Residual of (w w* + w* w) - <w, w> on the exterior algebra.

    w is the wedge by the 1-form with coefficients `omega` (built from the
    creation operators) and w* its contraction adjoint.  The anticommutator
    is the scalar <w, w> exactly; the residual is floating-point noise.
    Both products are pair sums of the oracle's shifted-diagonal ladders, so
    the check holds 2 n^2 weight vectors of length 2^n and no dense matrix.
    An `omega` that is not a non-empty finite vector raises ValidationError.
    """
    omega = _finite_array(omega, "omega", ndim=1)
    rep = _fermion_rep(len(omega), rep)
    return float(_wedge_residuals(omega[None], rep)[0])


def cross_term_identity(omega_jac, rep: Optional[FockRep] = None) -> tuple[float, float]:
    """Check that the localized cross term is purely algebraic.

    Builds Q two ways on the exterior algebra: directly as
    sum_ij W_ij (a_i + a_i^+)(a_j^+ - a_j) with W the jacobian of the 1-form,
    and as A + A^t + B + B^t where A = sum_ij W_ij a_i a_j^+ is the algebraic
    part of the derivation term and B is the wedge by the 2-form with
    coefficients TWO_FORM_COEFF * (W - W^t).  Returns (residual, const) for
    the best-fit scalar in direct - algebraic = const * identity; const
    equals -Tr W, the scalar left behind by transposing the derivation term.
    Both sides are shifted diagonals of the oracle's engine, the direct one
    from the fermionic branch of build_standard_hamiltonian; at n = 12 the
    traced peak is about 90 MB.  A jacobian that is not a non-empty
    finite square matrix raises ValidationError.
    """
    jac = _finite_array(omega_jac, "jacobian", ndim=2)
    rep = _fermion_rep(len(jac), rep)
    residual, const = _cross_residuals(jac[None], rep)
    return float(residual[0]), float(const[0])


def _trials_per_chunk(n: int) -> int:
    """Trials evaluated in one stacked pass on n modes: their weights, about
    8 n^2 2^n elements a trial, hold no more than one trial at the guard
    edge n = 12, so n = 12 takes one trial at a time."""
    from .fock import FERMION_DIM_GUARD

    edge = FERMION_DIM_GUARD.bit_length() - 1
    return max(1, (edge ** 2 * FERMION_DIM_GUARD) // (n ** 2 * 2 ** n))


def identity_residuals(n: int, seed: int, trials: int) -> tuple[float, float]:
    """Largest (wedge-contraction, cross-term) residuals, each within
    IDENTITY_TOL when the identities hold, over `trials` 1-forms and
    jacobians on n modes drawn from [-1, 1]; odd trials symmetrize the
    jacobian (an exact form, no 2-form part).  ResourceLimitError from n = 13.

    Trials run in chunks of :func:`_trials_per_chunk`, each drawn in one call
    and checked in one stacked pass; the draws, and so the residuals, are
    those of drawing the 1-form and then the jacobian one trial at a time.
    """
    rep = _fermion_rep(n, None)
    rng = np.random.default_rng(seed)
    chunk = _trials_per_chunk(n)
    max_wedge = max_cross = 0.0
    for start in range(0, trials, chunk):
        draws = rng.uniform(-1.0, 1.0, size=(min(chunk, trials - start), n + n * n))
        omega, jac = draws[:, :n], draws[:, n:].reshape(-1, n, n)
        odd = (start + np.arange(len(draws))) % 2 == 1
        jac[odd] = (jac[odd] + jac[odd].swapaxes(-1, -2)) / 2.0
        max_cross = max(max_cross, float(_cross_residuals(jac, rep)[0].max()))
        max_wedge = max(max_wedge, float(_wedge_residuals(omega, rep).max()))
    return max_wedge, max_cross


def fixture_from_dict(data: dict) -> VectorFieldFixture:
    """Parse the JSON fixture schema {n, chi, points: [{label, jacobian}]}."""
    message = "fixture requires integer 'n', 'chi' and a 'points' list"
    n = _integer_from_dict(data, "n", message)
    chi = _integer_from_dict(data, "chi", message)
    raw_points = data.get("points")
    if not isinstance(raw_points, list):
        raise ValidationError(message)
    points = []
    for entry in raw_points:
        try:
            label = str(entry["label"])
            jac = np.array(entry["jacobian"], dtype=float)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError("each point requires 'label' and a square 'jacobian'") from exc
        points.append(SingularPoint(label=label, jacobian=jac))
    return VectorFieldFixture(n=n, chi=chi, points=tuple(points))
