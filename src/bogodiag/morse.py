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
scope here.  This module is closed-form counting only and never touches a
Fock space: the operator identities behind the counting are checked on the
exterior algebra by the Fock-space oracle, which owns them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePoint, ValidationError
from .forms import StandardForm, Statistics, _integer_from_dict, _number_array
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


def _zero_mode_sector(sign: int) -> Parity:
    """Parity sector of the unique local zero mode at a point of this sign:
    even iff det > 0."""
    return Parity.EVEN if sign > 0 else Parity.ODD


def zero_mode_parity(point: SingularPoint) -> Parity:
    """Parity sector of the unique local zero mode: even iff det > 0."""
    return _zero_mode_sector(point_sign(point))


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
            zero_mode_sector=_zero_mode_sector(sign),
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
            label = entry["label"]
            jac = _number_array(entry["jacobian"])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValidationError("each point requires 'label' and a square 'jacobian'") from exc
        if not isinstance(label, str):
            raise ValidationError("each point's 'label' must be a string")
        points.append(SingularPoint(label=label, jacobian=jac))
    return VectorFieldFixture(n=n, chi=chi, points=tuple(points))
