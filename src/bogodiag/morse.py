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

from .errors import DegeneratePoint, ResourceLimitError, ValidationError
from .forms import StandardForm, Statistics
from .spectral import (
    FERMION_SPECTRUM_GUARD,
    FermionModeData,
    Parity,
    SpectrumResult,
    diagonalize_fermion,
    ladder_sums,
)

if TYPE_CHECKING:
    from .fock import FermionFockRep

#: Relative degeneracy threshold on sigma_min / sigma_max of a jacobian, and
#: on min |lambda| / max |lambda| of local frequencies.
DEGENERACY_TOL = 1e-10

#: Coefficient turning the jacobian's antisymmetric part into the 2-form
#: wedge coefficients; pinned by the cross-term identity test.
TWO_FORM_COEFF = -0.5


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
    lambdas: Optional[tuple] = None
    zero_mode_sector: Optional[Parity] = None


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
            "points": [
                {
                    "label": p.label,
                    "sign": p.sign,
                    **({"lambdas": list(p.lambdas)} if p.lambdas is not None else {}),
                    **(
                        {"zero_mode_sector": p.zero_mode_sector.value}
                        if p.zero_mode_sector is not None
                        else {}
                    ),
                }
                for p in self.points
            ],
        }


def _point_modes(point: SingularPoint) -> FermionModeData:
    """Signed singular values of the jacobian, refused when degenerate.

    The point is degenerate when sigma_min <= DEGENERACY_TOL * sigma_max, a
    test that rescaling the jacobian leaves unchanged.
    """
    std = StandardForm(statistics=Statistics.FERMION, C=point.jacobian, k0=0.0)
    data = diagonalize_fermion(std)
    mags = np.abs(data.lambdas)
    if mags.min() <= DEGENERACY_TOL * mags.max():
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


def _summary(fixture: VectorFieldFixture, reports: list) -> MorseReport:
    m_plus = sum(1 for r in reports if r.sign > 0)
    m_minus = len(reports) - m_plus
    chi_computed = m_plus - m_minus
    return MorseReport(
        m_plus=m_plus,
        m_minus=m_minus,
        chi_computed=chi_computed,
        chi_matches=chi_computed == fixture.chi,
        points=tuple(reports),
    )


def poincare_hopf_check(fixture: VectorFieldFixture) -> MorseReport:
    """Signed point count versus the supplied Euler characteristic."""
    return _summary(fixture, [PointReport(label=p.label, sign=point_sign(p))
                              for p in fixture.points])


def zero_mode_parity(point: SingularPoint) -> Parity:
    """Parity sector of the unique local zero mode: even iff det > 0."""
    return Parity.EVEN if point_sign(point) > 0 else Parity.ODD


def morse_report(fixture: VectorFieldFixture) -> MorseReport:
    """Full report: counts, chi check, per-point spectra and parities.

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
    return _summary(fixture, reports)


def local_witten_spectrum(lambdas, count: int) -> SpectrumResult:
    """Lowest `count` levels of the localized oscillator, with (m; f) labels.

    Mode i sits on rung 2 m_i + f_i of its ladder.  Guaranteed: exactly one
    zero-energy entry, at all m_i = 0 and f_i = 1 exactly where
    lambda_i < 0.  Frequencies with min |lambda| <= DEGENERACY_TOL *
    max |lambda| raise DegeneratePoint: the near-zero levels they add would
    break that uniqueness.  A count above FERMION_SPECTRUM_GUARD raises
    ResourceLimitError before any ladder is built.
    """
    lam = np.asarray(lambdas, dtype=float)
    mags = np.abs(lam)
    if lam.size and mags.min() <= DEGENERACY_TOL * mags.max():
        raise DegeneratePoint(f"frequency {mags.min():.3e} is degenerate next to {mags.max():.3e}")
    if count > FERMION_SPECTRUM_GUARD:
        raise ResourceLimitError(
            f"count {count} exceeds the enumeration guard of {FERMION_SPECTRUM_GUARD} levels"
        )
    m, f = np.divmod(np.arange(2 * count), 2)
    ladders = [abs(lv) * (2 * m + 1) + 2.0 * lv * f - lv for lv in lam]
    totals, rungs = ladder_sums(ladders, count)
    return SpectrumResult(energies=totals, rungs=rungs, sectors=(rungs % 2).sum(axis=1) % 2,
                          label_kind="witten", complete=False, bounded_below=True)


def _identity_rep(n: int, rep: Optional[FermionFockRep], matrices: int) -> FermionFockRep:
    """The representation for an identity check that holds about `matrices`
    dense dim x dim float64 arrays at once.

    Raises ResourceLimitError, before anything is built, when they would
    exceed fock.EIGENSOLVE_BYTES_GUARD.  Callers pass their measured peak
    plus one matrix of headroom.
    """
    from .fock import EIGENSOLVE_BYTES_GUARD, build_fermion_rep

    dim = rep.dim if rep is not None else 2 ** n
    estimate = matrices * 8 * dim ** 2
    if estimate > EIGENSOLVE_BYTES_GUARD:
        raise ResourceLimitError(
            f"identity check at n = {n} needs about {estimate / 2**30:.1f} GiB of dense "
            f"matrices, above the guard of {EIGENSOLVE_BYTES_GUARD / 2**30:.1f} GiB"
        )
    return rep if rep is not None else build_fermion_rep(n)


def wedge_contraction_identity(omega, rep: Optional[FermionFockRep] = None) -> float:
    """Residual of (w w* + w* w) - <w, w> on the exterior algebra.

    w is the wedge by the 1-form with coefficients `omega` (built from the
    creation operators) and w* its contraction adjoint.  The anticommutator
    is the scalar <w, w> exactly; the residual is floating-point noise.
    Measured peak memory: 5 dense dim x dim matrices.
    """
    omega = np.asarray(omega, dtype=float)
    n = omega.shape[0]
    rep = _identity_rep(n, rep, matrices=6)
    wedge = sum(omega[i] * rep.a(i).astype(float) for i in range(n))
    contraction = sum(omega[j] * rep.a_dag(j).astype(float) for j in range(n))
    target = float(omega @ omega) * np.eye(rep.dim)
    return float(np.max(np.abs(wedge @ contraction + contraction @ wedge - target)))


def cross_term_identity(omega_jac, rep: Optional[FermionFockRep] = None) -> tuple[float, float]:
    """Check that the localized cross term is purely algebraic.

    Builds Q two ways on the exterior algebra: directly as
    sum_ij W_ij (a_i + a_i^+)(a_j^+ - a_j) with W the jacobian of the 1-form,
    and as A + A^t + B + B^t where A = sum_ij W_ij a_i a_j^+ is the algebraic
    part of the derivation term and B is the wedge by the 2-form with
    coefficients TWO_FORM_COEFF * (W - W^t).  Returns (residual, const) for
    the best-fit scalar in direct - algebraic = const * identity; const
    equals -Tr W, the scalar left behind by transposing the derivation term.
    Measured peak memory: 4n + 7 dense dim x dim matrices (7 GiB at n = 12).
    """
    w_jac = np.asarray(omega_jac, dtype=float)
    n = w_jac.shape[0]
    rep = _identity_rep(n, rep, matrices=4 * n + 8)
    a_ops = [rep.a(i).astype(float) for i in range(n)]
    adag_ops = [rep.a_dag(i).astype(float) for i in range(n)]
    xs = [a_ops[i] + adag_ops[i] for i in range(n)]
    zs = [adag_ops[i] - a_ops[i] for i in range(n)]
    dim = rep.dim
    direct = np.zeros((dim, dim))
    deriv = np.zeros((dim, dim))
    two_form = np.zeros((dim, dim))
    b_coeff = TWO_FORM_COEFF * (w_jac - w_jac.T)
    for i in range(n):
        for j in range(n):
            if w_jac[i, j] != 0.0:
                direct += w_jac[i, j] * (xs[i] @ zs[j])
                deriv += w_jac[i, j] * (a_ops[i] @ adag_ops[j])
            if b_coeff[i, j] != 0.0:
                two_form += b_coeff[i, j] * (a_ops[i] @ a_ops[j])
    algebraic = deriv + deriv.T + two_form + two_form.T
    diff = direct - algebraic
    const = float(np.trace(diff)) / dim
    residual = float(np.max(np.abs(diff - const * np.eye(dim))))
    return residual, const


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
