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
    ValidationError,
)
from .forms import BogoliubovTransform, StandardForm, Statistics, Violation, apply_transform

#: Oscillator ladder coefficient, calibrated against the exact Fock oracle.
LEVEL_COEFF = -4.0

#: Relative threshold of the rank test in degenerate().
DEGENERACY_TOL = 1e-10

#: Rounding factor of diagonalize_boson: times ||R|| ||T|| for R*T, times a
#: bound for a quadratic form, eps / IMAG_TOL_FACTOR for a vector (_is_zero),
#: and times ||T|| + ||R|| for the residual off-diagonal of the result.
IMAG_TOL_FACTOR = 1e-8

#: SpectrumResult.json_chunks renders this many levels per chunk, so the
#: text held at a time stays small (0.45 MB for n = 20 fermions).
_CHUNK_LEVELS = 4096

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

    @property
    def transform(self) -> BogoliubovTransform:
        return BogoliubovTransform(Statistics.BOSON, S=self.S)

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

    @property
    def transform(self) -> BogoliubovTransform:
        return BogoliubovTransform(Statistics.FERMION, o_plus=self.o_plus, o_minus=self.o_minus)

    def to_dict(self) -> dict:
        return {
            "statistics": "fermion",
            "lambdas": self.lambdas.tolist(),
            "O_plus": self.o_plus.tolist(),
            "O_minus": self.o_minus.tolist(),
            "k0": self.k0,
            "sign_ambiguous": self.sign_ambiguous,
        }


def _number_labels(groups: list) -> np.ndarray:
    # labels "(a1,..;b1,..)" of integer groups, each an (m, n) array, as an
    # (m, width) block of bytes
    template = b"(" + b";".join([b",".join([b"%d"] * groups[0].shape[1])] * len(groups)) + b")"
    rows = np.concatenate(groups, axis=1).tolist()
    labels = np.array([template % tuple(row) for row in rows], dtype=bytes)
    return labels.view(np.uint8).reshape(len(labels), -1)


#: How rows of rungs render as labels, by SpectrumResult.label_kind: an
#: (m, width) block of label bytes per block of m rows, each label padded
#: with NUL bytes at its end.  Occupation numbers "(m1,..)", sign words
#: "+-.." (rung 1 is +), or the local zero-mode pairs "(m1,..;f1,..)" of
#: rungs 2 m + f.
_LABELS = {
    "occupations": lambda rungs: _number_labels([rungs]),
    "signs": lambda rungs: ord("-") - (ord("-") - ord("+")) * rungs,
    "witten": lambda rungs: _number_labels([rungs // 2, rungs % 2]),
}

#: Sector names by parity bit.
_SECTORS = (Parity.EVEN.value, Parity.ODD.value)


@dataclass(frozen=True, eq=False)
class SpectrumResult:
    """Energy levels in ascending order, held as arrays.

    rungs[j, p] is the rung of mode p in level j; label_kind says what a rung
    means (a key of _LABELS).  sectors[j] is the occupation parity of level
    j, 0 even and 1 odd, or None for purely bosonic spectra.  Energies that
    overflowed to +-inf raise ValidationError (a derived_finite violation)
    at construction, so every level renders as a JSON number.  json_chunks
    renders the JSON text straight from the arrays; entries and to_dict
    build it as Python objects.
    """

    energies: np.ndarray
    rungs: np.ndarray
    sectors: Optional[np.ndarray]
    label_kind: str
    complete: bool
    bounded_below: bool

    def __post_init__(self):
        # energies ascend, so an infinity or a NaN sits at one end
        e = self.energies
        if len(e) and not (math.isfinite(e[0]) and math.isfinite(e[-1])):
            message = "spectrum energies not finite (overflow)"
            raise ValidationError(message, [Violation("derived_finite", message, math.inf)])

    @property
    def entries(self) -> list:
        """The levels as JSON records {energy, label[, sector]}."""
        if not len(self.energies):
            return []
        block = _LABELS[self.label_kind](self.rungs)
        labels = [label.decode() for label in block.view(f"S{block.shape[1]}").ravel().tolist()]
        rows = zip(self.energies.tolist(), labels)
        if self.sectors is None:
            return [{"energy": e, "label": lab} for e, lab in rows]
        return [{"energy": e, "label": lab, "sector": _SECTORS[s]}
                for (e, lab), s in zip(rows, self.sectors.tolist())]

    def to_dict(self) -> dict:
        return {
            "entries": self.entries,
            "complete": self.complete,
            "bounded_below": self.bounded_below,
        }

    def json_chunks(self):
        """Yield the text of json.dumps(self.to_dict(), indent=2,
        sort_keys=True) in pieces of up to _CHUNK_LEVELS entries.

        A piece is one %-template: the entries' bytes side by side in a
        block, labels and sectors NUL-padded to a common width, the NUL
        bytes then dropped, and "%s" where the energies go.  Energies are
        finite, so they render as json renders them, by float repr: one repr
        of the whole slice, split at its separators.
        """
        head = '{\n  "bounded_below": %s,\n  "complete": %s,\n  "entries": [' % (
            str(self.bounded_below).lower(), str(self.complete).lower())
        count = len(self.energies)
        if not count:
            yield head + "]\n}"
            return
        if self.sectors is None:
            texts = [b'    {\n      "energy": %s,\n      "label": "', b'"\n    },\n']
        else:
            texts = [b'    {\n      "energy": %s,\n      "label": "', b'",\n      "sector": "',
                     b'"\n    },\n']
        texts = [np.frombuffer(text, np.uint8) for text in texts]
        names = np.array([name.encode() for name in _SECTORS]).view(np.uint8).reshape(2, -1)
        yield head + "\n"
        for start in range(0, count, _CHUNK_LEVELS):
            stop = min(start + _CHUNK_LEVELS, count)
            blocks = [_LABELS[self.label_kind](self.rungs[start:stop])]
            if self.sectors is not None:
                blocks.append(names[self.sectors[start:stop]])
            parts = [texts[0], *(part for pair in zip(blocks, texts[1:]) for part in pair)]
            template = np.concatenate(
                [np.broadcast_to(part, (stop - start, part.shape[-1])) for part in parts], axis=1)
            energies = repr(self.energies[start:stop].tolist())[1:-1].encode().split(b", ")
            text = (template.tobytes().replace(b"\0", b"") % tuple(energies)).decode()
            yield text if stop < count else text[:-2] + "\n  ]\n}"


def _norm(a: np.ndarray) -> float:
    """Frobenius norm as max|a| * ||a / max|a|||: finite wherever the entries
    are, where the plain sum of squares overflows past about 1e154."""
    peak = float(np.max(np.abs(a)))
    return peak * float(np.linalg.norm(a / peak)) if peak > 0.0 else 0.0


def degenerate(values) -> bool:
    """Numerical rank test min |x| <= DEGENERACY_TOL * max |x| on nonempty
    singular values or frequencies; rescaling them leaves it unchanged."""
    mags = np.abs(values)
    return bool(mags.min() <= DEGENERACY_TOL * mags.max())


def guard_level_count(count: int) -> None:
    """ResourceLimitError when count levels exceed FERMION_SPECTRUM_GUARD."""
    if count > FERMION_SPECTRUM_GUARD:
        raise ResourceLimitError(
            f"count {count} exceeds the enumeration guard of {FERMION_SPECTRUM_GUARD} levels")


def _cluster_indices(values: np.ndarray, tol: float) -> list:
    """Index arrays of the runs of a sorted array whose steps are at most tol."""
    cuts = np.flatnonzero(np.diff(values) > tol) + 1
    return np.split(np.arange(len(values)), cuts)


def _is_zero(mat: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """|v^t M v| <= IMAG_TOL_FACTOR * w^t |M| w per column v of vecs: the
    rounding bound of the form (Higham, Accuracy and Stability of Numerical
    Algorithms, 3.1) at w = |v| + eta ||v|| where v is nonzero.  Eigenvalues of
    R*T closer than IMAG_TOL_FACTOR ||R*T|| are clustered, so eta = eps /
    IMAG_TOL_FACTOR bounds an eigenvector's rounding; exact zeros are structure."""
    eta = np.finfo(float).eps / IMAG_TOL_FACTOR
    mags = np.abs(vecs) + eta * np.linalg.norm(vecs, axis=0) * (vecs != 0.0)
    values = np.einsum("ji,jk,ki->i", vecs, mat, vecs)
    return np.abs(values) <= IMAG_TOL_FACTOR * np.einsum("ji,jk,ki->i", mags, np.abs(mat), mags)


def diagonalize_boson(std: StandardForm) -> BosonModeData:
    """Simultaneously diagonalize (T, R) through the pencil M = R T.

    tau = IMAG_TOL_FACTOR * ||R|| ||T|| is the size of the rounding in M,
    which ||M|| is not where M cancels to zero; tau is inf where the product
    overflows, and the residual check then decides alone.  NonRealSpectrum:
    an imaginary part above tau.  Eigenvalues within tau form clusters; a
    cluster of m at mean mu passes the rank test when the m-th smallest
    singular value of M - mu I is at most tau, and its right singular
    vectors become its basis.  On sheared forms tau can merge eigenvalues
    that eig resolves, so a cluster that fails is split on the finer scale
    IMAG_TOL_FACTOR * ||M||: NonRealSpectrum on an imaginary part above it,
    DefectiveMatrix when it does not split.  Rotations inside each cluster
    diagonalize the restriction of T, then the dual block of R where
    _is_zero finds it zero; once per mode of S, it finds t_i or r_i zero.
    """
    if std.statistics is not Statistics.BOSON:
        raise ValueError("expected a bosonic standard form")
    t_mat, r_mat = std.T, std.R
    n = std.n
    pencil = r_mat @ t_mat
    t_norm, r_norm = _norm(t_mat), _norm(r_mat)
    tau = IMAG_TOL_FACTOR * r_norm * t_norm
    eigvals, eigvecs = np.linalg.eig(pencil)
    max_imag = float(np.max(np.abs(eigvals.imag)))
    if max_imag > tau:
        raise NonRealSpectrum(
            f"R*T has complex eigenvalues (imaginary part {max_imag:.3e} above the limit {tau:.3e})"
        )
    order = np.argsort(eigvals.real, kind="stable")
    imag = np.abs(eigvals.imag[order])
    eigvals = eigvals.real[order]
    eigvecs = eigvecs.real[:, order]

    fine_tol = IMAG_TOL_FACTOR * _norm(pencil)
    pending = _cluster_indices(eigvals, tau)
    clusters = []
    while pending:
        cl = pending.pop()
        m = len(cl)
        if m < 2:
            continue
        mu = float(np.mean(eigvals[cl]))
        _, sing, vh = np.linalg.svd(pencil - mu * np.eye(n))
        if sing[n - m] <= tau:
            eigvecs[:, cl] = vh[n - m:].T
            clusters.append(cl)
            continue
        if np.max(imag[cl]) > fine_tol:
            raise NonRealSpectrum(f"R*T has complex eigenvalues (imaginary part "
                                  f"{np.max(imag[cl]):.3e} above the limit {fine_tol:.3e})")
        parts = _cluster_indices(eigvals[cl], fine_tol)
        if len(parts) == 1:
            raise DefectiveMatrix(
                f"eigenvalue {mu:.6g} of R*T has multiplicity {m}, but R*T - mu I has "
                f"singular value {sing[n - m]:.3e} above the limit {tau:.3e}"
            )
        pending += [cl[part] for part in parts]
    # R is read in the dual basis, the rows of the inverse.  Inside a cluster
    # R_c T_c = mu I, so a diagonal T_c leaves R_c to rotate only where t = 0
    inv = np.linalg.inv(eigvecs) if clusters else None
    for cl in clusters:
        cols = eigvecs[:, cl]
        restriction = cols.T @ t_mat @ cols
        _, rot = np.linalg.eigh((restriction + restriction.T) / 2.0)
        eigvecs[:, cl] = cols @ rot
        zero = _is_zero(t_mat, eigvecs[:, cl])
        if np.count_nonzero(zero) < 2:
            continue
        sub = cl[zero]
        dual = rot[:, zero].T @ inv[cl]
        block = dual @ r_mat @ dual.T
        _, rot = np.linalg.eigh((block + block.T) / 2.0)
        eigvecs[:, sub] = eigvecs[:, sub] @ rot

    s = eigvecs.T.copy()
    t_diag = np.einsum("ij,jk,ik->i", s, t_mat, s)
    s_inv = np.linalg.inv(s)
    r_diag = np.einsum("ji,jk,ki->i", s_inv, r_mat, s_inv)
    # one zero test per mode, unchanged by balancing: t -> a^2 t, r -> r / a^2
    t_zero, r_zero = _is_zero(t_mat, s.T), _is_zero(r_mat, s_inv)

    # per-mode scaling freedom: balance |t_i| = |r_i| where possible,
    # otherwise normalize the mode row of S
    for i in range(n):
        if t_zero[i] or r_zero[i]:
            alpha = 1.0 / float(np.linalg.norm(s[i]))
        else:
            alpha = (abs(r_diag[i]) / abs(t_diag[i])) ** 0.25
        s[i] *= alpha
    # mode order: descending product t_i r_i, so discrete modes come out
    # sorted by ascending frequency sqrt(-t_i r_i); t and r over the powers
    # of two of their largest magnitudes (exact), so the products of a tiny
    # form do not underflow to a tie
    t_unit = np.ldexp(t_diag, -math.frexp(np.max(np.abs(t_diag)))[1])
    r_unit = np.ldexp(r_diag, -math.frexp(np.max(np.abs(r_diag)))[1])
    mode_order = np.argsort(-t_unit * r_unit, kind="stable")
    s = s[mode_order]
    # deterministic sign: largest-magnitude entry of each row positive
    s *= np.where(s[np.arange(n), np.argmax(np.abs(s), axis=1)] < 0, -1.0, 1.0)[:, None]
    if np.linalg.det(s) < 0:
        s[-1] *= -1.0

    moved = apply_transform(std, BogoliubovTransform(Statistics.BOSON, S=s))
    t_full, r_full = moved.T, moved.R
    tol_diag = IMAG_TOL_FACTOR * (t_norm + r_norm)
    mask = ~np.eye(n, dtype=bool)
    off = max(float(np.max(np.abs(a[mask]), initial=0.0)) for a in (t_full, r_full))
    if off > tol_diag:
        raise DefectiveMatrix(
            f"residual off-diagonal {off:.3e} exceeds tolerance {tol_diag:.3e}"
        )
    modes = tuple(BosonMode(t=t, r=r, mode_class=_classify_mode(t, r, tz, rz))
                  for t, r, tz, rz in zip(np.diag(t_full).tolist(), np.diag(r_full).tolist(),
                                          t_zero[mode_order], r_zero[mode_order]))
    s.setflags(write=False)
    return BosonModeData(S=s, modes=modes, k0=std.k0)


def _classify_mode(t: float, r: float, t_zero: bool, r_zero: bool) -> ModeClass:
    if t_zero and r_zero:
        return ModeClass.CONSTANT
    if r_zero:
        return ModeClass.CONTINUOUS_QUADRATIC
    if t_zero:
        return ModeClass.CONTINUOUS_FREE
    if (t < 0) != (r < 0):
        return ModeClass.DISCRETE
    return ModeClass.CONTINUOUS_INVERTED


def boson_mode_levels(t: float, r: float, count: int) -> np.ndarray:
    """Ladder of one discrete oscillator mode, bottom `count` rungs, as an array.

    Monotone increasing in m exactly when r < 0 (bounded below); a bare pair
    has no rounding scale, so NonDiscreteMode unless exactly t r < 0.  The
    frequency sqrt(-r t) is taken from the mantissas and exponents of t and
    r, so it neither underflows nor overflows at any scale; wherever the
    product -r t is a normal number it is that root bit for bit.
    """
    if _classify_mode(t, r, t == 0.0, r == 0.0) is not ModeClass.DISCRETE:
        raise NonDiscreteMode(f"mode (t={t}, r={r}) has no discrete ladder")
    (mt, et), (mr, er) = math.frexp(t), math.frexp(r)
    e = et + er
    # -r t = -mr mt 2^e, and the root of 2^e is 2^(e // 2) times that of 2^(e % 2)
    spacing = LEVEL_COEFF * (r / abs(r)) * math.ldexp(math.sqrt(-mr * mt * 2 ** (e % 2)), e // 2)
    return spacing * (np.arange(count) + 0.5)


def ladder_sums(ladders: Sequence[Sequence[float]], k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k smallest sums that pick one rung from every ladder.

    Returns (totals, rungs): totals ascending, rungs[j, p] the rung of ladder
    p (indexed as the caller gave it) in sum j, in the smallest unsigned
    integer dtype that holds every rung.  Each total adds the picked values
    in ladder order, starting from 0.0.  Equal totals are ordered
    lexicographically by rank, a rung's position in its ladder after a
    stable sort.

    The combinations are enumerated ladder by ladder in lexicographic rank
    order and stably sorted by total.  When k asks for every combination
    they are enumerated in full.  Otherwise only those with total <= T,
    the k-th smallest total, which holds every sum among the k smallest:
    rounding is monotone, so raising a rank never lowers a total, and a
    prefix is dropped once its partial sum plus the minima of the remaining
    ladders exceeds T.  _kth_smallest_total finds T.  A T that is not
    finite (the sums overflow) would admit every combination and raises
    ValidationError, a derived_finite violation.
    """
    n = len(ladders)
    if k <= 0 or n == 0:
        return np.zeros(0), np.zeros((0, n), dtype=np.uint8)
    values = [np.asarray(lad, dtype=float) for lad in ladders]
    orders = [np.argsort(v, kind="stable") for v in values]
    ranked = [v[order] for v, order in zip(values, orders)]
    sizes = [len(lad) for lad in ranked]
    bounded = math.prod(sizes) > k
    with np.errstate(over="ignore", invalid="ignore"):
        if bounded:
            bound = _kth_smallest_total(ranked, k)
            if not math.isfinite(bound):
                message = f"the {k} smallest sums are not all finite (overflow)"
                raise ValidationError(message, [Violation("derived_finite", message, math.inf)])
            # limits[p] bounds the rank-p value of a prefix that can still
            # reach T; it is compared in floats, with an allowance for the
            # rounding of values below `scale`, and the totals are then
            # compared with T exactly
            scale = abs(bound) + sum(abs(float(lad[0])) for lad in ranked)
            limits = [bound + 8 * n * np.finfo(float).eps * scale] * n
            for p in range(n - 2, -1, -1):
                limits[p] = limits[p + 1] - ranked[p + 1][0]
        totals = np.zeros(1)
        links = []
        for p, lad in enumerate(ranked):
            if bounded:
                counts = lad.searchsorted(limits[p] - totals, side="right")
                parent = np.arange(len(totals)).repeat(counts)
                rank = np.arange(len(parent)) - (counts.cumsum() - counts)[parent]
                totals = totals[parent] + lad[rank]
                links.append((parent, rank))
            else:
                totals = np.add.outer(totals, lad).ravel()
    dtype = np.min_scalar_type(max(sizes))
    if bounded:
        keep = np.flatnonzero(totals <= bound)
        keep = keep[_stable_argsort(totals[keep])[:k]]
        rungs = np.empty((len(keep), n), dtype=dtype)
        idx = keep
        for p in range(n - 1, -1, -1):
            parent, rank = links[p]
            rungs[:, p], idx = orders[p][rank[idx]], parent[idx]
    else:
        # every combination in lexicographic order, then the kept rows
        keep = _stable_argsort(totals)[:k]
        grid = np.empty((len(totals), n), dtype=dtype)
        cells = grid.reshape(*sizes, n)
        for p, order in enumerate(orders):
            cells[..., p] = order.reshape([-1 if q == p else 1 for q in range(n)])
        rungs = grid.take(keep, axis=0)
    return totals[keep], rungs


def _stable_argsort(values: np.ndarray) -> np.ndarray:
    # Distinct values have one ascending order, which the faster unstable
    # sort finds too; ties (or a NaN) take the stable sort.
    order = values.argsort()
    ordered = values[order]
    if not (ordered[1:] > ordered[:-1]).all():
        order = values.argsort(kind="stable")
    return order


def _kth_smallest_total(ranked: list, k: int) -> float:
    # A left-to-right merge that keeps the k smallest partial sums, added in
    # the same order as the totals.  The k smallest sums of two ascending
    # lists a and b lie in their hyperbolic cross (i + 1)(j + 1) <= k, and
    # at or below a[ceil(k/m) - 1] + b[m - 1] for every m, the largest of
    # the ceil(k/m) * m >= k sums a[i] + b[j] with i < ceil(k/m), j < m.
    # Row caps take the least such bound with an allowance for rounding.
    best = ranked[0][:k]
    for lad in ranked[1:]:
        m = np.arange(1, min(len(lad), k) + 1)
        cap = k // m
        rows = -(-k // m)
        fits = rows <= len(best)
        if fits.any():
            bound = (best[rows[fits] - 1] + lad[m[fits] - 1]).min()
            limit = bound + 8 * np.finfo(float).eps * (abs(bound) + abs(best[0]))
            cap = np.minimum(cap, best.searchsorted(limit - lad[: len(m)], side="right"))
        else:
            cap = np.minimum(cap, len(best))
        ends = cap.cumsum()
        rows = np.arange(ends[-1]) - (ends - cap).repeat(cap)
        sums = best[rows] + lad[: len(m)].repeat(cap)
        if len(sums) > k:
            sums = np.partition(sums, k - 1)[:k]
        best = np.sort(sums)
    return float(best[k - 1])


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
    guard_level_count(k)
    bounded = all(m.r < 0 for m in data.modes)
    ladders = [boson_mode_levels(m.t, m.r, k) for m in data.modes]
    totals, rungs = ladder_sums(ladders, k if bounded else 0)
    with np.errstate(over="ignore"):
        energies = totals + data.k0
    return SpectrumResult(energies=energies, rungs=rungs, sectors=None,
                          label_kind="occupations", complete=False, bounded_below=bounded)


def diagonalize_fermion(std: StandardForm) -> FermionModeData:
    """Diagonalize C by the determinant-constrained real SVD.

    C = u diag(sigma) vh gives O_+ = u^t, O_- = vh^t with O_+ C O_- diagonal;
    a negative determinant of either factor is repaired by flipping its last
    row/column and negating the matching (smallest) singular value.  The
    resulting signs satisfy prod sign(lambda_i) = sign(det C); that sign is
    flagged ambiguous when degenerate(sigma), sigma_min <= DEGENERACY_TOL *
    sigma_max.
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
    ambiguous = degenerate(sigma)
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
    guard_level_count(2 ** n)
    lam = np.asarray(data.lambdas, dtype=float)
    totals, rungs = ladder_sums(np.multiply.outer(lam, (-1.0, 1.0)), 2 ** n)
    with np.errstate(over="ignore"):
        energies = totals + data.k0
    return SpectrumResult(energies=energies, rungs=rungs,
                          sectors=rungs.sum(axis=1, dtype=np.uint8) % 2, label_kind="signs",
                          complete=True, bounded_below=True)


def fermion_invariants(c: np.ndarray) -> tuple[float, tuple]:
    """det C and the singular values of C sorted descending.

    These are exactly the quantities preserved by positive transforms.
    """
    c = np.asarray(c, dtype=float)
    det = float(np.linalg.det(c))
    s_numbers = tuple(float(v) for v in np.linalg.svd(c, compute_uv=False))
    return det, s_numbers
