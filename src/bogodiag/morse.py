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
from .forms import StandardForm, Statistics
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
    from .fock import FermionFockRep

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


def _fermion_rep(n: int, rep: Optional[FermionFockRep]) -> FermionFockRep:
    """`rep`, or the exact representation of n modes (ResourceLimitError
    from n = 13 on); a representation of other modes raises ValueError."""
    from .fock import build_fermion_rep

    if rep is None:
        return build_fermion_rep(n)
    if getattr(rep, "statistics", None) is not Statistics.FERMION or rep.n != n:
        raise ValueError(f"an identity check on {n} modes needs a fermionic rep of {n} modes")
    return rep


def wedge_contraction_identity(omega, rep: Optional[FermionFockRep] = None) -> float:
    """Residual of (w w* + w* w) - <w, w> on the exterior algebra.

    w is the wedge by the 1-form with coefficients `omega` (built from the
    creation operators) and w* its contraction adjoint.  The anticommutator
    is the scalar <w, w> exactly; the residual is floating-point noise.
    Both products are pair sums of the oracle's shifted-diagonal ladders, so
    the check holds 2 n^2 weight vectors of length 2^n and no dense matrix.
    """
    from .fock import _grouped, _pair_sum

    omega = np.asarray(omega, dtype=float)
    rep = _fermion_rep(len(omega), rep)
    creation, annihilation = rep._ladders
    coeff = np.outer(omega, omega)
    pieces = [_pair_sum(coeff, creation, annihilation), _pair_sum(coeff, annihilation, creation)]
    _, diff = _grouped(*(np.concatenate(parts) for parts in zip(*pieces)), -float(omega @ omega))
    return float(np.max(np.abs(diff)))


def cross_term_identity(omega_jac, rep: Optional[FermionFockRep] = None) -> tuple[float, float]:
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
    traced peak is about 100 MB.
    """
    from .fock import _grouped, _pair_sum, _standard_diagonals, _with_transpose

    std = StandardForm(statistics=Statistics.FERMION, C=omega_jac, k0=0.0)
    rep = _fermion_rep(std.n, rep)
    creation, annihilation = rep._ladders
    w_jac = std.C
    half = [_pair_sum(w_jac, creation, annihilation),
            _pair_sum(TWO_FORM_COEFF * (w_jac - w_jac.T), creation, creation)]
    alg_off, alg_w = _with_transpose(*(np.concatenate(parts) for parts in zip(*half)))
    d_off, d_w = _standard_diagonals(std, rep)
    offsets, diff = _grouped(np.concatenate([d_off, alg_off]), np.vstack([d_w, -alg_w]))
    scalar = diff[np.searchsorted(offsets, 0)]
    const = float(np.mean(scalar))
    scalar -= const
    return float(np.max(np.abs(diff))), const


def identity_residuals(n: int, seed: int, trials: int) -> tuple[float, float]:
    """Largest (wedge-contraction, cross-term) residuals, each within
    IDENTITY_TOL when the identities hold, over `trials` 1-forms and
    jacobians on n modes drawn from [-1, 1]; odd trials symmetrize the
    jacobian (an exact form, no 2-form part).  ResourceLimitError from n = 13.
    """
    rep = _fermion_rep(n, None)
    rng = np.random.default_rng(seed)
    max_wedge = max_cross = 0.0
    for trial in range(trials):
        omega = rng.uniform(-1.0, 1.0, size=n)
        jac = rng.uniform(-1.0, 1.0, size=(n, n))
        if trial % 2 == 1:
            jac = (jac + jac.T) / 2.0
        max_cross = max(max_cross, cross_term_identity(jac, rep)[0])
        max_wedge = max(max_wedge, wedge_contraction_identity(omega, rep))
    return max_wedge, max_cross


def fixture_from_dict(data: dict) -> VectorFieldFixture:
    """Parse the JSON fixture schema {n, chi, points: [{label, jacobian}]}."""
    try:
        n = int(data["n"])
        chi = int(data["chi"])
        raw_points = data["points"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError("fixture requires integer 'n', 'chi' and a 'points' list") from exc
    points = []
    for entry in raw_points:
        try:
            label = str(entry["label"])
            jac = np.array(entry["jacobian"], dtype=float)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError("each point requires 'label' and a square 'jacobian'") from exc
        points.append(SingularPoint(label=label, jacobian=jac))
    return VectorFieldFixture(n=n, chi=chi, points=tuple(points))
