"""Closed-form diagonalization and exact spectra of quadratic forms.

Bosons: the pair (T, R) is diagonalized simultaneously by a congruence
S T S^t = diag(t), S^-t R S^-1 = diag(r).  Such an S exists precisely when
the pencil M = R T is real-diagonalizable; its eigenvector matrix (transposed)
is S.  Each mode is then the oscillator 2 t x^2 + 2 r d^2, discrete exactly
when t/r < 0, with ladder

    level(m) = LEVEL_COEFF * (r/|r|) * sqrt(-r t) * (m + 1/2),  m = 0, 1, ...

LEVEL_COEFF = -4 is pinned by the exact Fock oracle at n = 1 (spacing 2 for
the form with U = 0, V = 1), see tests/test_conventions.py.

Fermions: the matrix C is diagonalized by a determinant-constrained real SVD
O_+ C O_- = diag(lambda) with O_+/- in SO(n); the 2^n spectrum is

    E_w = sum_p w_p lambda_p + k0,  w in {-1, +1}^n,

with parity sector = (number of + entries) mod 2 (even parity anchors to the
vacuum of the transformed modes, which det = +1 factors keep in the even
sector of the original grading).
"""

from __future__ import annotations

import enum
import heapq
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    ContinuousSpectrum,
    DefectiveMatrix,
    NonDiscreteMode,
    NonRealSpectrum,
    ResourceLimitError,
)
from .forms import StandardForm, Statistics

#: Oscillator ladder coefficient, calibrated against the exact Fock oracle.
LEVEL_COEFF = -4.0

#: Condition-number boundary between "usable" and "defective" eigenbases.
COND_MAX = 1e8

#: Absolute threshold below which a diagonal entry t_i or r_i counts as zero.
TOL_ZERO = 1e-10

#: Scale-relative factor for the reality test of the R*T eigenvalues.
IMAG_TOL_FACTOR = 1e-8

#: Scale-relative factor for the residual off-diagonal check.
DIAG_TOL_FACTOR = 1e-8

#: Guard on the number of levels a spectrum enumerates: 2^n for the full
#: fermionic list, the requested count for bosonic and Witten ladders.
FERMION_SPECTRUM_GUARD = 2 ** 20


class ModeClass(enum.Enum):
    """Spectral class of one bosonic mode (t, r)."""

    DISCRETE = "Discrete"
    CONTINUOUS_INVERTED = "ContinuousInverted"
    CONTINUOUS_FREE = "ContinuousFree"
    CONTINUOUS_QUADRATIC = "ContinuousQuadratic"
    CONSTANT = "Constant"


class Parity(enum.Enum):
    EVEN = "even"
    ODD = "odd"


@dataclass(frozen=True)
class BosonMode:
    t: float
    r: float
    mode_class: ModeClass


@dataclass(frozen=True)
class BosonModeData:
    """Diagonalized bosonic data: transform S, per-mode (t_i, r_i), constant."""

    S: np.ndarray
    modes: tuple
    k0: float

    @property
    def n(self) -> int:
        return self.S.shape[0]

    def to_dict(self) -> dict:
        return {
            "statistics": "boson",
            "modes": [
                {"t": m.t, "r": m.r, "class": m.mode_class.value} for m in self.modes
            ],
            "S": self.S.tolist(),
            "k0": self.k0,
        }


@dataclass(frozen=True)
class FermionModeData:
    """Diagonalized fermionic data: rotations O_+/-, signed values, constant."""

    o_plus: np.ndarray
    o_minus: np.ndarray
    lambdas: np.ndarray
    k0: float
    sign_ambiguous: bool = False

    @property
    def n(self) -> int:
        return self.o_plus.shape[0]

    def to_dict(self) -> dict:
        return {
            "statistics": "fermion",
            "lambdas": self.lambdas.tolist(),
            "O_plus": self.o_plus.tolist(),
            "O_minus": self.o_minus.tolist(),
            "k0": self.k0,
            "sign_ambiguous": self.sign_ambiguous,
        }


#: How a row of rungs renders as a label, by SpectrumResult.label_kind:
#: occupation numbers "(m1,..)", sign words "+-.." (rung 1 is +), or the
#: local zero-mode pairs "(m1,..;f1,..)" of rungs 2 m + f.
_LABELS = {
    "occupations": lambda row: "(" + ",".join(str(r) for r in row) + ")",
    "signs": lambda row: "".join("-+"[r] for r in row),
    "witten": lambda row: "(" + ",".join(str(r // 2) for r in row) + ";"
                          + ",".join(str(r % 2) for r in row) + ")",
}


@dataclass(frozen=True, eq=False)
class SpectrumResult:
    """Energy levels in ascending order, held as arrays.

    rungs[j, p] is the rung of mode p in level j; label_kind says what a rung
    means (a key of _LABELS).  sectors[j] is the occupation parity of level
    j, 0 even and 1 odd, or None for purely bosonic spectra.
    """

    energies: np.ndarray
    rungs: np.ndarray
    sectors: Optional[np.ndarray]
    label_kind: str
    complete: bool
    bounded_below: bool

    @property
    def entries(self) -> list:
        """The levels as JSON records {energy, label[, sector]}."""
        label = _LABELS[self.label_kind]
        rows = zip(self.energies.tolist(), self.rungs.tolist())
        if self.sectors is None:
            return [{"energy": e, "label": label(r)} for e, r in rows]
        names = (Parity.EVEN.value, Parity.ODD.value)
        return [{"energy": e, "label": label(r), "sector": names[s]}
                for (e, r), s in zip(rows, self.sectors.tolist())]

    def to_dict(self) -> dict:
        return {
            "entries": self.entries,
            "complete": self.complete,
            "bounded_below": self.bounded_below,
        }


def _norm(a: np.ndarray) -> float:
    """Frobenius norm as max|a| * ||a / max|a|||: finite wherever the entries
    are, where the plain sum of squares overflows past about 1e154."""
    peak = float(np.max(np.abs(a)))
    return peak * float(np.linalg.norm(a / peak)) if peak > 0.0 else 0.0


def _cluster_indices(values: np.ndarray, tol: float) -> list:
    """Group indices of a sorted array into runs of nearly equal values."""
    clusters = []
    current = [0]
    for i in range(1, len(values)):
        if values[i] - values[current[-1]] <= tol:
            current.append(i)
        else:
            clusters.append(current)
            current = [i]
    clusters.append(current)
    return clusters


def diagonalize_boson(std: StandardForm, cond_max: float = COND_MAX) -> BosonModeData:
    """Simultaneously diagonalize (T, R) through the pencil M = R T.

    Raises NonRealSpectrum when M has genuinely complex eigenvalues and
    DefectiveMatrix when a real eigenvalue has a numerically deficient
    eigenspace.  Degenerate eigenvalues are refined by orthogonal rotations
    that diagonalize the restriction of T (and, in the doubly-degenerate
    zero block, of R) inside each eigenspace.
    """
    if std.statistics is not Statistics.BOSON:
        raise ValueError("expected a bosonic standard form")
    t_mat, r_mat = std.T, std.R
    n = std.n
    pencil = r_mat @ t_mat
    scale = _norm(pencil)
    eigvals, eigvecs = np.linalg.eig(pencil)
    max_imag = float(np.max(np.abs(eigvals.imag)))
    if max_imag > IMAG_TOL_FACTOR * scale:
        raise NonRealSpectrum(
            f"R*T has complex eigenvalues (max imaginary part {max_imag:.3e})"
        )
    eigvals = eigvals.real.copy()
    eigvecs = eigvecs.real.copy()
    cond = np.linalg.cond(eigvecs)
    if not np.isfinite(cond) or cond > cond_max:
        raise DefectiveMatrix(
            f"eigenvector matrix has condition number {cond:.3e} (limit {cond_max:.1e})"
        )
    order = np.argsort(eigvals, kind="stable")
    eigvals = eigvals[order]
    eigvecs = eigvecs[:, order]

    cluster_tol = IMAG_TOL_FACTOR * max(1.0, scale)
    clusters = _cluster_indices(eigvals, cluster_tol)
    for cl in clusters:
        if len(cl) < 2:
            continue
        cols = eigvecs[:, cl]
        restriction = cols.T @ t_mat @ cols
        _, rot = np.linalg.eigh((restriction + restriction.T) / 2.0)
        eigvecs[:, cl] = cols @ rot
    # inside a zero eigenvalue cluster both t and r can vanish; rotate the
    # leftover R block there as well
    t_norm = _norm(t_mat)
    zero_t_tol = TOL_ZERO * max(1.0, t_norm)
    for cl in clusters:
        if len(cl) < 2 or abs(eigvals[cl[0]]) > cluster_tol:
            continue
        t_vals = [float(eigvecs[:, j] @ t_mat @ eigvecs[:, j]) for j in cl]
        sub = [j for j, tv in zip(cl, t_vals) if abs(tv) <= zero_t_tol]
        if len(sub) < 2:
            continue
        inv = np.linalg.inv(eigvecs)
        r_primed = inv @ r_mat @ inv.T
        block = r_primed[np.ix_(sub, sub)]
        _, rot = np.linalg.eigh((block + block.T) / 2.0)
        eigvecs[:, sub] = eigvecs[:, sub] @ rot

    s = eigvecs.T.copy()
    t_diag = np.einsum("ij,jk,ik->i", s, t_mat, s)
    s_inv = np.linalg.inv(s)
    r_diag = np.einsum("ji,jk,ki->i", s_inv, r_mat, s_inv)

    # per-mode scaling freedom: balance |t_i| = |r_i| where possible,
    # otherwise normalize the mode row of S
    for i in range(n):
        if abs(t_diag[i]) > TOL_ZERO and abs(r_diag[i]) > TOL_ZERO:
            alpha = (abs(r_diag[i]) / abs(t_diag[i])) ** 0.25
        else:
            alpha = 1.0 / float(np.linalg.norm(s[i]))
        s[i] *= alpha
    # mode order: descending product t_i r_i, so discrete modes come out
    # sorted by ascending frequency sqrt(-t_i r_i)
    mode_order = np.argsort(-t_diag * r_diag, kind="stable")
    s = s[mode_order]
    # deterministic sign: largest-magnitude entry of each row positive
    for i in range(n):
        j = int(np.argmax(np.abs(s[i])))
        if s[i, j] < 0:
            s[i] *= -1.0
    if np.linalg.det(s) < 0:
        s[-1] *= -1.0

    t_full = s @ t_mat @ s.T
    s_inv = np.linalg.inv(s)
    r_full = s_inv.T @ r_mat @ s_inv
    tol_diag = DIAG_TOL_FACTOR * (t_norm + _norm(r_mat))
    off = 0.0
    if n > 1:
        mask = ~np.eye(n, dtype=bool)
        off = max(float(np.max(np.abs(t_full[mask]))), float(np.max(np.abs(r_full[mask]))))
    if off > tol_diag:
        raise DefectiveMatrix(
            f"residual off-diagonal {off:.3e} exceeds tolerance {tol_diag:.3e}"
        )
    modes = tuple(
        BosonMode(t=float(t_full[i, i]), r=float(r_full[i, i]),
                  mode_class=_classify_mode(float(t_full[i, i]), float(r_full[i, i])))
        for i in range(n)
    )
    s.setflags(write=False)
    return BosonModeData(S=s, modes=modes, k0=std.k0)


def _classify_mode(t: float, r: float) -> ModeClass:
    t_zero = abs(t) <= TOL_ZERO
    r_zero = abs(r) <= TOL_ZERO
    if t_zero and r_zero:
        return ModeClass.CONSTANT
    if r_zero:
        return ModeClass.CONTINUOUS_QUADRATIC
    if t_zero:
        return ModeClass.CONTINUOUS_FREE
    if t * r < 0:
        return ModeClass.DISCRETE
    return ModeClass.CONTINUOUS_INVERTED


def boson_mode_levels(t: float, r: float, count: int) -> list[float]:
    """Ladder of one discrete oscillator mode, bottom `count` rungs.

    Monotone increasing in m exactly when r < 0 (bounded below).
    """
    if abs(r) <= TOL_ZERO or abs(t) <= TOL_ZERO or t * r > 0:
        raise NonDiscreteMode(f"mode (t={t}, r={r}) has no discrete ladder")
    spacing = LEVEL_COEFF * (r / abs(r)) * np.sqrt(-r * t)
    return [float(spacing * (m + 0.5)) for m in range(count)]


def ladder_sums(ladders: Sequence[Sequence[float]], k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k smallest sums that pick one rung from every ladder.

    Returns (totals, rungs): totals ascending, rungs[j, p] the rung of ladder
    p (indexed as the caller gave it) in sum j, in the smallest unsigned
    integer dtype that holds every rung.  Each total adds the picked values
    in ladder order, starting from 0.0.  Equal totals are ordered
    lexicographically by rank, a rung's position in its ladder after a
    stable sort, so ties come out the same whichever path runs: when k
    covers every combination, all of them are enumerated and stably sorted;
    otherwise a best-first search pops the k smallest (total, ranks) keys.
    """
    n = len(ladders)
    if k <= 0 or n == 0:
        return np.zeros(0), np.zeros((0, n), dtype=np.uint8)
    orders = [np.argsort(np.asarray(lad, dtype=float), kind="stable") for lad in ladders]
    ranked = [np.asarray(lad, dtype=float)[order] for lad, order in zip(ladders, orders)]
    sizes = tuple(len(lad) for lad in ranked)
    dtype = np.min_scalar_type(max(sizes))
    if k >= math.prod(sizes):
        ranks = np.indices(sizes, dtype=dtype).reshape(n, -1)
        totals = np.zeros(ranks.shape[1])
        for lad, row in zip(ranked, ranks):
            totals += lad[row]
        keep = np.argsort(totals, kind="stable")
        totals, ranks = totals[keep], ranks[:, keep]
    else:
        totals, ranks = _best_first([lad.tolist() for lad in ranked], k)
    return totals, np.stack([order.astype(dtype)[row] for order, row in zip(orders, ranks)], axis=1)


def _best_first(ladders: list, k: int) -> tuple[np.ndarray, np.ndarray]:
    # The k smallest (total, ranks) keys over sorted ladders, ranks as an
    # (n, k) array.  Every rank tuple has one parent, itself with the last
    # nonzero rank lowered by one, so a pop pushes only the successors that
    # raise a rank at or after the one its parent raised; their keys are
    # larger, and the heap pops keys in ascending order.
    n = len(ladders)
    heap = [(float(sum(lad[0] for lad in ladders)), (0,) * n, 0)]
    out = []
    while heap and len(out) < k:
        total, idx, raised = heapq.heappop(heap)
        out.append((total, idx))
        for i in range(raised, n):
            if idx[i] + 1 < len(ladders[i]):
                nxt = idx[:i] + (idx[i] + 1,) + idx[i + 1 :]
                nxt_total = float(sum(lad[j] for lad, j in zip(ladders, nxt)))
                heapq.heappush(heap, (nxt_total, nxt, i))
    return np.array([t for t, _ in out]), np.array([idx for _, idx in out], dtype=np.intp).T


def boson_spectrum(data: BosonModeData, k: int) -> SpectrumResult:
    """The k smallest total energies sum_i level_i(m_i) + k0; rungs m_i.

    Requires every mode to be discrete.  When some discrete mode has r > 0
    its ladder decreases without bound; the result then carries
    bounded_below=False and an empty prefix.  A k above
    FERMION_SPECTRUM_GUARD raises ResourceLimitError before any ladder is
    built.
    """
    non_discrete = [m.mode_class for m in data.modes if m.mode_class is not ModeClass.DISCRETE]
    if non_discrete:
        raise ContinuousSpectrum(
            "spectrum is not purely discrete: "
            + ", ".join(sorted({c.value for c in non_discrete})),
            classes=tuple(m.mode_class for m in data.modes),
        )
    if k > FERMION_SPECTRUM_GUARD:
        raise ResourceLimitError(
            f"count {k} exceeds the enumeration guard of {FERMION_SPECTRUM_GUARD} levels"
        )
    bounded = all(m.r < 0 for m in data.modes)
    ladders = [boson_mode_levels(m.t, m.r, k) for m in data.modes]
    totals, rungs = ladder_sums(ladders, k if bounded else 0)
    return SpectrumResult(energies=totals + data.k0, rungs=rungs, sectors=None,
                          label_kind="occupations", complete=False, bounded_below=bounded)


def diagonalize_fermion(std: StandardForm) -> FermionModeData:
    """Diagonalize C by the determinant-constrained real SVD.

    C = u diag(sigma) vh gives O_+ = u^t, O_- = vh^t with O_+ C O_- diagonal;
    a negative determinant of either factor is repaired by flipping its last
    row/column and negating the matching (smallest) singular value.  The
    resulting signs satisfy prod sign(lambda_i) = sign(det C); that sign is
    flagged ambiguous when sigma_min <= TOL_ZERO * sigma_max, a test that
    rescaling C leaves unchanged.
    """
    if std.statistics is not Statistics.FERMION:
        raise ValueError("expected a fermionic standard form")
    c = std.C
    u, sigma, vh = np.linalg.svd(c)
    o_plus = u.T.copy()
    o_minus = vh.T.copy()
    lam = sigma.copy()
    if np.linalg.det(o_plus) < 0:
        o_plus[-1, :] *= -1.0
        lam[-1] *= -1.0
    if np.linalg.det(o_minus) < 0:
        o_minus[:, -1] *= -1.0
        lam[-1] *= -1.0
    ambiguous = bool(sigma[-1] <= TOL_ZERO * sigma[0])
    o_plus.setflags(write=False)
    o_minus.setflags(write=False)
    lam.setflags(write=False)
    return FermionModeData(o_plus=o_plus, o_minus=o_minus, lambdas=lam,
                           k0=std.k0, sign_ambiguous=ambiguous)


def fermion_spectrum(data: FermionModeData) -> SpectrumResult:
    """All 2^n energies E_w = sum_p w_p lambda_p + k0 with parity sectors.

    Mode p sits on rung 0 of its ladder (-lambda_p, +lambda_p) when empty
    (w_p = -1) and on rung 1 when occupied (w_p = +1); the parity sector is
    the occupation count mod 2.
    """
    n = data.n
    if 2 ** n > FERMION_SPECTRUM_GUARD:
        raise ResourceLimitError(f"2^{n} spectrum entries exceed the enumeration guard")
    lam = np.asarray(data.lambdas, dtype=float)
    totals, rungs = ladder_sums(np.stack([-lam, lam], axis=1), 2 ** n)
    return SpectrumResult(energies=totals + data.k0, rungs=rungs, sectors=rungs.sum(axis=1) % 2,
                          label_kind="signs", complete=True, bounded_below=True)


def fermion_invariants(c: np.ndarray) -> tuple[float, tuple]:
    """det C and the singular values of C sorted descending.

    These are exactly the quantities preserved by positive transforms.
    """
    c = np.asarray(c, dtype=float)
    det = float(np.linalg.det(c))
    s_numbers = tuple(float(v) for v in np.linalg.svd(c, compute_uv=False))
    return det, s_numbers
