"""Brute-force Fock-space oracle: ladder operators and exact spectra.

The oracle writes the creation operators ``a_i`` and annihilation operators
``a_i^+`` down explicitly and diagonalizes quadratic forms built from them.
It knows nothing about :mod:`bogodiag.spectral` and is its ground truth.

Basis vectors are indexed by occupation numbers, mode 0 most significant,
so every ladder operator moves basis vector c to c +/- step_i and is one
shifted diagonal: a weight vector over c, sqrt(m+1) up and sqrt(m) down,
times the Jordan-Wigner sign for fermions.  A product L_i R_j is again one
shifted diagonal, so a pair sum sum_ij c_ij L_i R_j is n vectorised
products grouped by offset, and a form is H = M + M^t + const.

Fermions live on the exact 2^n-dimensional space; their spectra are dense
solves of the even and odd parity blocks, filled straight from the
diagonals of M.  Bosons live on a per-mode truncated space of dimension
(cutoff+1)^n, where [a_i^+, a_j] = delta_ij holds below the top occupation
rung; their diagonals become one CSR matrix, and spectra are checked by
cutoff doubling (:func:`truncation_stable_spectrum`).  scipy is imported
only inside the functions that build or solve CSR matrices, so fermionic
verification and the operator identities of :mod:`bogodiag.morse` never
load it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Union

import numpy as np

from .errors import ResourceLimitError
from .forms import BogoliubovTransform, QuadraticForm, StandardForm, Statistics

#: Largest fermionic Fock dimension the oracle will build (2^12).
FERMION_DIM_GUARD = 4096

#: Guard on the truncated bosonic Fock dimension (cutoff+1)^n.
BOSON_DIM_GUARD = 200_000

#: Above this dimension eigenvalue prefixes switch from dense to Lanczos.
DENSE_EIG_LIMIT = 1200

#: Largest estimated working set of one eigensolve (2 GiB): a dense solve
#: reaches dimension 8192.
EIGENSOLVE_BYTES_GUARD = 2 ** 31

Matrix = Union[np.ndarray, "scipy.sparse.csr_matrix"]


class _FockSpace:
    """Occupation basis of n modes with `base` levels each, mode 0 most significant."""

    @property
    def dim(self) -> int:
        return self.base ** self.n

    @cached_property
    def _digits(self) -> np.ndarray:
        """Occupation of every mode in every basis vector, shape (n, dim)."""
        return np.array(np.unravel_index(np.arange(self.dim), (self.base,) * self.n))

    @cached_property
    def _ladders(self) -> tuple[tuple, tuple]:
        """(creation, annihilation) operators as diagonals (offsets, weights):
        operator i moves basis vector c to c + offsets[i] with amplitude
        weights[i, c].  Fermions carry (-1)^(occupation of modes 0..i-1)."""
        occ = self._digits
        steps = self.dim // self.base ** np.arange(1, self.n + 1)
        up, down = np.sqrt(occ + 1.0) * (occ < self.base - 1), np.sqrt(occ)
        if self.statistics is Statistics.FERMION:
            sign = 1 - 2 * ((np.cumsum(occ, axis=0) - occ) % 2)
            up, down = up * sign, down * sign
        return (steps, up), (-steps, down)

    def occupations(self) -> np.ndarray:
        """Total occupation of each basis vector (digit sum of its index)."""
        return self._digits.sum(axis=0)


@dataclass(frozen=True)
class FermionFockRep(_FockSpace):
    """Ladder matrices on the exact fermionic Fock space of n modes."""

    n: int
    base = 2
    statistics = Statistics.FERMION

    def a(self, i: int) -> np.ndarray:
        """Creation operator for mode i, sign strings over lower modes (int64)."""
        rows, cols, values = _entries(*(part[i : i + 1] for part in self._ladders[0]))
        out = np.zeros((self.dim, self.dim), dtype=np.int64)
        out[rows, cols] = values
        return out

    def a_dag(self, i: int) -> np.ndarray:
        """Annihilation operator for mode i (kills the vacuum)."""
        return self.a(i).T


@dataclass(frozen=True)
class BosonFockRep(_FockSpace):
    """CSR ladder matrices on the truncated bosonic Fock space."""

    n: int
    cutoff: int
    statistics = Statistics.BOSON

    @property
    def base(self) -> int:
        return self.cutoff + 1

    def a(self, i: int):
        """Creation operator for mode i (matrix elements sqrt(m+1))."""
        return _csr(*(part[i : i + 1] for part in self._ladders[0]), self.dim)

    def a_dag(self, i: int):
        return _csr(*(part[i : i + 1] for part in self._ladders[1]), self.dim)


def build_fermion_rep(n: int) -> FermionFockRep:
    """Exact fermionic representation; guarded at dimension FERMION_DIM_GUARD."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if 2 ** n > FERMION_DIM_GUARD:
        raise ResourceLimitError(f"fermionic Fock dimension 2^{n} exceeds the guard")
    return FermionFockRep(n=n)


def build_boson_rep(n: int, cutoff: int) -> BosonFockRep:
    """Truncated bosonic representation; guarded at (cutoff+1)^n <= BOSON_DIM_GUARD."""
    if n < 1 or cutoff < 1:
        raise ValueError("n and cutoff must be at least 1")
    dim = (cutoff + 1) ** n
    if dim > BOSON_DIM_GUARD:
        raise ResourceLimitError(
            f"bosonic Fock dimension {dim} = ({cutoff}+1)^{n} exceeds the guard {BOSON_DIM_GUARD}"
        )
    return BosonFockRep(n=n, cutoff=cutoff)


def _pair_sum(coeff: np.ndarray, left: tuple, right: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Ungrouped diagonals of sum_ij coeff_ij L_i R_j, one row per (j, i): L_i R_j
    moves c to c + r_j + l_i with amplitude L_i[c + r_j] R_j[c]."""
    (l_off, l_w), (r_off, r_w) = left, right
    dim = l_w.shape[1]
    weights = np.zeros((len(r_off), len(l_off), dim))
    for j, s in enumerate(r_off.tolist()):
        lo, hi = max(0, -s), min(dim, dim - s)
        np.multiply(coeff[:, j, None] * l_w[:, lo + s : hi + s], r_w[j, lo:hi],
                    out=weights[j, :, lo:hi])
    return (l_off + r_off[:, None]).ravel(), weights.reshape(-1, dim)


def _grouped(offsets: np.ndarray, weights: np.ndarray, const: float = 0.0) -> tuple:
    """Sum the diagonals of equal offset in input order, then `const` on the diagonal."""
    keys, group = np.unique(np.append(offsets, 0), return_inverse=True)
    out = np.zeros((len(keys), weights.shape[1]))
    rows = list(out)  # views into out, made once
    for g, row in zip(group.tolist(), weights):
        rows[g] += row
    out[np.searchsorted(keys, 0)] += const
    return keys, out


def _half_diagonals(form: QuadraticForm, rep) -> tuple[np.ndarray, np.ndarray]:
    """Diagonals of M = sum U_ij a_i^+ a_j^+ + V_ij a_i a_j^+.  The form is
    H = M + M^t + const (transposing the U part yields the -/+ U_ij a_i a_j
    block), so H is symmetric exactly by construction."""
    _check_rep(form, rep)
    creation, annihilation = rep._ladders
    left = tuple(np.concatenate(parts) for parts in zip(creation, annihilation))
    return _grouped(*_pair_sum(np.vstack([form.V, form.U]), left, annihilation))


def _entries(offsets: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, ...]:
    """(rows, cols, values) of the nonzero entries of some diagonals."""
    k, cols = np.nonzero(weights)
    return cols + offsets[k], cols, weights[k, cols]


def _csr(offsets: np.ndarray, weights: np.ndarray, dim: int):
    import scipy.sparse as sp
    # scipy's diagonal k holds the entries (c - k, c), indexed by column c
    return sp.dia_matrix((weights, -offsets), shape=(dim, dim)).tocsr()


def _with_transpose(offsets: np.ndarray, weights: np.ndarray) -> tuple:
    """Diagonals of M, then of M^t: M[c + s, c] = w[c] is M^t[c', c' - s] at c' = c + s."""
    k, dim = weights.shape
    both = np.zeros((2 * k, dim))
    both[:k] = weights
    for row, s in enumerate(offsets.tolist()):
        lo, hi = max(0, -s), min(dim, dim - s)
        both[k + row, lo + s : hi + s] = weights[row, lo:hi]
    return np.concatenate([offsets, -offsets]), both


def build_hamiltonian(form: QuadraticForm, rep):
    """Assemble the quadratic form as an explicit symmetric CSR matrix."""
    # nested calls, so that each stage's input is freed before the next runs
    return _csr(*_grouped(*_with_transpose(*_half_diagonals(form, rep)), form.const), rep.dim)


def _standard_diagonals(std: StandardForm, rep) -> tuple[np.ndarray, np.ndarray]:
    """Ungrouped diagonals of a normal form without k0: sum C_ij x_i z_j
    (fermions) or sum T_ij x_i x_j + R_ij y_i y_j (bosons), with x = a + a^+,
    y = a - a^+ and z = a^+ - a.  A sum of two ladders is one ladder with 2n
    rows, row p acting on mode p mod n, so its coefficients are tiled.
    """
    _check_rep(std, rep)
    (c_off, c_w), (a_off, a_w) = rep._ladders
    offsets = np.concatenate([c_off, a_off])
    x = (offsets, np.vstack([c_w, a_w]))
    if std.statistics is Statistics.FERMION:
        return _pair_sum(np.tile(std.C, (2, 2)), x, (offsets, np.vstack([-c_w, a_w])))
    y = (offsets, np.vstack([c_w, -a_w]))
    pieces = [_pair_sum(np.tile(std.T, (2, 2)), x, x), _pair_sum(np.tile(std.R, (2, 2)), y, y)]
    return tuple(np.concatenate(parts) for parts in zip(*pieces))


def build_standard_hamiltonian(std: StandardForm, rep):
    """Assemble a normal form (see :func:`_standard_diagonals`) as a CSR matrix."""
    return _csr(*_grouped(*_standard_diagonals(std, rep), std.k0), rep.dim)


def _check_rep(form, rep) -> None:
    if form.statistics is not getattr(rep, "statistics", None):
        raise ValueError("statistics of form and representation differ")
    if form.n != rep.n:
        raise ValueError(f"mode count mismatch: form has {form.n}, rep has {rep.n}")


def _lowest_pairs(matrix: Matrix, k: int, v0: Optional[np.ndarray] = None,
                  vectors: bool = False) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """The k smallest eigenvalues, ascending, with their eigenvectors if asked.

    Matrices up to DENSE_EIG_LIMIT, dense input and requests for (nearly)
    every eigenvalue take a dense solve, which raises ValueError for a matrix
    that is not symmetric within 1e-10; the rest implicitly restarted Lanczos (ARPACK)
    from `v0`, by default the uniform vector, so results are deterministic.
    The working set is estimated first and refused with ResourceLimitError
    above EIGENSOLVE_BYTES_GUARD, before anything is allocated.
    """
    dim = matrix.shape[0]
    k = min(k, dim)
    sparse = hasattr(matrix, "toarray")
    if not sparse or dim <= DENSE_EIG_LIMIT or k >= dim - 1:
        # the matrix, its symmetrized copy, LAPACK's copy and the eigenvectors
        _check_eigensolve_bytes(4 * 8 * dim * dim, f"dense eigensolve of dimension {dim}")
        dense = matrix.toarray() if sparse else np.asarray(matrix, dtype=float)
        sym = np.subtract(dense, dense.T)
        dev = float(np.abs(sym, out=sym).max(initial=0.0))
        if dev > 1e-10:
            raise ValueError(f"matrix is not symmetric (deviation {dev:.3e})")
        np.add(dense, dense.T, out=sym)
        sym /= 2.0
        if vectors:
            vals, vecs = np.linalg.eigh(sym)
            return vals[:k], vecs[:, :k]
        return np.linalg.eigvalsh(sym)[:k], None
    ncv = min(dim - 1, max(4 * k, 40))
    # ARPACK's Lanczos basis plus the returned vectors
    _check_eigensolve_bytes(8 * dim * (ncv + (k if vectors else 0)),
                            f"Lanczos eigensolve of {k} eigenvalues at dimension {dim}")
    if v0 is None:
        v0 = np.full(dim, 1.0 / np.sqrt(dim))
    import scipy.sparse.linalg as spla
    out = spla.eigsh(matrix, k=k, which="SA", v0=v0, ncv=ncv,
                     maxiter=100 * dim, tol=1e-12, return_eigenvectors=vectors)
    if not vectors:
        return np.sort(out), None
    order = np.argsort(out[0])
    return out[0][order], out[1][:, order]


def _check_eigensolve_bytes(estimate: int, what: str) -> None:
    if estimate > EIGENSOLVE_BYTES_GUARD:
        raise ResourceLimitError(
            f"{what} needs about {estimate / 2**30:.1f} GiB, "
            f"above the guard of {EIGENSOLVE_BYTES_GUARD / 2**30:.1f} GiB"
        )


def lowest_eigenvalues(matrix: Matrix, k: int) -> np.ndarray:
    """The k smallest eigenvalues, by dense solve or deterministic Lanczos
    (k = dim gives the whole spectrum); ResourceLimitError when the solve
    would need over EIGENSOLVE_BYTES_GUARD."""
    return _lowest_pairs(matrix, k)[0]


def sector_spectra(form: QuadraticForm, rep: FermionFockRep) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues of the fermionic form on the even and odd sectors.

    Every quadratic term changes the particle number by 0 or 2, so H splits
    into two blocks of dimension 2^(n-1); b sits at position b >> 1 of its
    block.  Each block gets the entries of M, as they are and transposed,
    plus the constant.
    """
    rows, cols, values = _entries(*_half_diagonals(form, rep))
    parity = rep.occupations()[cols] % 2
    block = np.empty((rep.dim // 2, rep.dim // 2))
    spectra = []
    for p in (0, 1):  # eigvalsh works on a copy, so one buffer serves both
        mine = parity == p
        r, c, v = rows[mine] >> 1, cols[mine] >> 1, values[mine]
        block.fill(0.0)
        block[r, c] = v
        block[c, r] += v
        block.flat[:: len(block) + 1] += form.const
        spectra.append(np.linalg.eigvalsh(block))
    return spectra[0], spectra[1]


@dataclass(frozen=True)
class TruncationResult:
    """Stable eigenvalue prefix from a cutoff-doubling comparison."""

    values: tuple
    warning: Optional[str] = None

    @property
    def stable_count(self) -> int:
        return len(self.values)


def truncation_stable_spectrum(form: QuadraticForm, cutoff: int, k: int,
                               tol: float) -> TruncationResult:
    """The k smallest oracle eigenvalues that survive doubling the cutoff.

    Eigenvalues are computed at `cutoff` and `2*cutoff`; the returned prefix
    holds where both agree within `tol` (values from the finer basis).  A
    shorter-than-k prefix carries a warning instead of failing.

    Every term of a form passes through states no more occupied than its end
    states, so the coarse Hamiltonian is the principal submatrix of the fine
    one on the embedded occupation box: the fine eigenvalues interlace below
    the coarse ones.  The coarse solve starts cold from the uniform vector
    and stays an independent witness; the fine Lanczos solve starts from the
    embedded sum of the coarse Ritz vectors.  A level it missed would
    disagree with the witness and shorten the prefix, never lengthen it.
    """
    if form.statistics is not Statistics.BOSON:
        raise ValueError("truncation control applies to bosonic forms only")
    if k == 0:
        return TruncationResult(values=())
    rep_lo = build_boson_rep(form.n, cutoff)
    rep_hi = build_boson_rep(form.n, 2 * cutoff)
    lo, ritz = _lowest_pairs(build_hamiltonian(form, rep_lo), k, vectors=True)
    start = ritz.sum(axis=1)
    del ritz  # the fine assembly is the memory peak; add nothing to it
    h_hi = build_hamiltonian(form, rep_hi)
    v0 = np.zeros(rep_hi.dim)
    v0[np.ravel_multi_index(tuple(rep_lo._digits), (rep_hi.base,) * form.n)] = start
    hi, _ = _lowest_pairs(h_hi, k, v0=v0)
    m = min(len(lo), len(hi))
    stable = 0
    while stable < m and abs(lo[stable] - hi[stable]) <= tol:
        stable += 1
    warning = None
    if stable < k:
        warning = (
            f"only {stable} of {k} eigenvalues are stable under cutoff doubling "
            f"({cutoff} vs {2 * cutoff}); the spectrum may be continuous or unbounded below"
        )
    return TruncationResult(values=tuple(float(v) for v in hi[:stable]), warning=warning)


def bogoliubov_mode_operators(rep, b: BogoliubovTransform) -> list:
    """Matrices of the transformed modes (b_k, b_k^+) on the original space.

    Building the transformed normal form of :func:`bogodiag.forms.apply_transform`
    with them reproduces the original operator matrix (exactly for fermions,
    below the truncation rungs for bosons).
    """
    n = rep.n
    if getattr(rep, "statistics", None) is not b.statistics or n != b.n:
        raise ValueError("representation and transform are incompatible")
    # b_k, b_k^+ = (x_k -/+ z_k) / 2 with x_k = sum_i p_ki x_i, z_k = sum_i q_ki z_i
    if b.statistics is Statistics.FERMION:
        p, q = b.o_plus, b.o_minus.T
    else:
        p, q = np.linalg.inv(b.s).T, b.s
    xs = [rep.a(i) + rep.a_dag(i) for i in range(n)]
    zs = [rep.a_dag(i) - rep.a(i) for i in range(n)]
    out = []
    for kk in range(n):
        xk = sum(p[kk, i] * xs[i] for i in range(n))
        zk = sum(q[kk, i] * zs[i] for i in range(n))
        out.append(((xk - zk) / 2.0, (xk + zk) / 2.0))
    return out
