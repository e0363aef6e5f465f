"""Brute-force Fock-space oracle: sparse ladder matrices and exact spectra.

The oracle builds the creation operators ``a_i`` and annihilation operators
``a_i^+`` as explicit matrices, assembles any quadratic form as a sparse
matrix, and diagonalizes it directly.  It knows nothing about the closed-form
machinery in :mod:`bogodiag.spectral` and serves as its independent ground
truth.

Fermions live on the exact 2^n-dimensional space with a Jordan-Wigner sign
string built by bit arithmetic (integer matrices, anticommutators exact);
their spectra are dense solves of the even and odd parity blocks.  Bosons
live on a per-mode truncated space of dimension (cutoff+1)^n; the commutator
[a_i^+, a_j] = delta_ij holds exactly below the top occupation rung.  Basis
vectors are indexed by occupation numbers, mode 0 most significant.

Bosonic spectra are checked by cutoff doubling.  Every term of a quadratic
form passes through intermediate states no more occupied than its end
states, so the cutoff-c Hamiltonian is exactly the principal submatrix of the
cutoff-2c one on the embedded occupation box (a compression).  By Cauchy
interlacing the fine eigenvalues lie at or below the coarse ones, and the
embedded coarse eigenvectors are near-eigenvectors of the fine matrix.  The
coarse Lanczos solve therefore starts cold, from the uniform vector, and the
fine solve starts from the embedded sum of the coarse Ritz vectors.  The
coarse solve stays an independent witness: a fine solve that missed a level
would disagree with it and shorten the stable prefix, never lengthen it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Union

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ResourceLimitError
from .forms import BogoliubovTransform, QuadraticForm, StandardForm, Statistics

#: Largest fermionic Fock dimension the oracle will build (2^12).
FERMION_DIM_GUARD = 4096

#: Default guard on the truncated bosonic Fock dimension (cutoff+1)^n.
BOSON_DIM_GUARD = 200_000

#: Above this dimension eigenvalue prefixes switch from dense to Lanczos.
DENSE_EIG_LIMIT = 1200

#: Largest estimated working set of one eigensolve (2 GiB).  At this limit a
#: dense solve reaches dimension 8192, the dense limit of exact_spectrum.
EIGENSOLVE_BYTES_GUARD = 2 ** 31

Matrix = Union[np.ndarray, sp.csr_matrix]


def _occupation_bits(n: int) -> np.ndarray:
    """Occupation (0 or 1) of every mode in every basis vector, shape (2^n, n)."""
    return (np.arange(2 ** n)[:, None] >> np.arange(n - 1, -1, -1)) & 1


@dataclass(frozen=True)
class FermionFockRep:
    """Ladder matrices on the exact fermionic Fock space of n modes."""

    n: int

    @property
    def dim(self) -> int:
        return 2 ** self.n

    @cached_property
    def _ladders(self) -> tuple[list, list]:
        """Sparse int64 (creation, annihilation) operators of every mode.

        a_i takes basis vector b with mode i empty to b with mode i filled,
        signed by (-1)^(occupation of modes 0..i-1): a running XOR parity
        over the more significant bits.  A row of a_i is empty unless mode i
        is filled in it, and then holds one entry, so the CSR arrays are
        written down directly.
        """
        bits = _occupation_bits(self.n)
        below = np.bitwise_xor.accumulate(bits, axis=1) ^ bits
        idx = np.arange(self.dim)
        shape = (self.dim, self.dim)
        creators = []
        for i in range(self.n):
            filled = bits[:, i] == 1
            indptr = np.concatenate(([0], np.cumsum(filled)))
            sign = 1 - 2 * below[filled, i]
            cols = idx[filled] ^ (1 << (self.n - 1 - i))
            creators.append(sp.csr_matrix((sign, cols, indptr), shape=shape))
        return creators, [m.T.tocsr() for m in creators]

    def a(self, i: int) -> np.ndarray:
        """Creation operator for mode i, sign strings over lower modes."""
        return self._ladders[0][i].toarray()

    def a_dag(self, i: int) -> np.ndarray:
        """Annihilation operator for mode i (kills the vacuum)."""
        return self.a(i).T

    def occupations(self) -> np.ndarray:
        """Total occupation of each basis vector (popcount of its index)."""
        return _occupation_bits(self.n).sum(axis=1)


@dataclass(frozen=True)
class BosonFockRep:
    """Sparse ladder matrices on the truncated bosonic Fock space."""

    n: int
    cutoff: int

    @property
    def dim(self) -> int:
        return (self.cutoff + 1) ** self.n

    @cached_property
    def _ladders(self) -> tuple[list, list]:
        """Sparse (creation, annihilation) operators of every mode."""
        d = self.cutoff + 1
        eye = sp.identity(d, format="csr")
        step = sp.diags(np.sqrt(np.arange(1.0, d)), -1, format="csr")
        creators = []
        for i in range(self.n):
            out = sp.identity(1, format="csr")
            for k in range(self.n):
                out = sp.kron(out, step if k == i else eye, format="csr")
            creators.append(out)
        return creators, [m.T.tocsr() for m in creators]

    def a(self, i: int) -> sp.csr_matrix:
        """Creation operator for mode i (matrix elements sqrt(m+1))."""
        return self._ladders[0][i].copy()

    def a_dag(self, i: int) -> sp.csr_matrix:
        return self._ladders[1][i].copy()

    def occupations(self) -> np.ndarray:
        """Total occupation of each basis vector (base cutoff+1 digit sum)."""
        base = self.cutoff + 1
        idx = np.arange(self.dim)
        occ = np.zeros(self.dim, dtype=np.int64)
        for _ in range(self.n):
            occ += idx % base
            idx = idx // base
        return occ


def build_fermion_rep(n: int) -> FermionFockRep:
    """Exact fermionic representation; guarded at dimension FERMION_DIM_GUARD."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if 2 ** n > FERMION_DIM_GUARD:
        raise ResourceLimitError(f"fermionic Fock dimension 2^{n} exceeds the guard")
    return FermionFockRep(n=n)


def build_boson_rep(n: int, cutoff: int, dim_guard: int = BOSON_DIM_GUARD) -> BosonFockRep:
    """Truncated bosonic representation; guarded at (cutoff+1)^n <= dim_guard."""
    if n < 1 or cutoff < 1:
        raise ValueError("n and cutoff must be at least 1")
    dim = (cutoff + 1) ** n
    if dim > dim_guard:
        raise ResourceLimitError(
            f"bosonic Fock dimension {dim} = ({cutoff}+1)^{n} exceeds the guard {dim_guard}"
        )
    return BosonFockRep(n=n, cutoff=cutoff)


def _pairwise_sum_sparse(coeff: np.ndarray, left: list, right: list, dim: int) -> sp.csr_matrix:
    # sum_ij coeff_ij left_i @ right_j as three sparse products:
    # [left_0 .. left_n-1] @ kron(coeff, 1) @ [right_0; ..; right_n-1]
    mixed = sp.kron(coeff, sp.identity(dim), format="csr") @ sp.vstack(right, format="csr")
    return (sp.hstack(left, format="csr") @ mixed).tocsr()


def build_hamiltonian(form: QuadraticForm, rep) -> sp.csr_matrix:
    """Assemble the quadratic form as an explicit (symmetric) sparse matrix.

    Transposing Y = sum U_ij a_i^+ a_j^+ yields the -/+ U_ij a_i a_j block
    and transposing X = sum V_ij a_i a_j^+ its mirror, so
    H = Y + Y^t + X + X^t + const is symmetric exactly by construction.
    The output is CSR for both statistics.
    """
    if form.statistics is not _rep_statistics(rep):
        raise ValueError("statistics of form and representation differ")
    if form.n != rep.n:
        raise ValueError(f"mode count mismatch: form has {form.n}, rep has {rep.n}")
    a_ops, adag_ops = rep._ladders
    y = _pairwise_sum_sparse(form.U, adag_ops, adag_ops, rep.dim)
    x = _pairwise_sum_sparse(form.V, a_ops, adag_ops, rep.dim)
    return (y + y.T + x + x.T + form.const * sp.identity(rep.dim, format="csr")).tocsr()


def build_standard_hamiltonian(std: StandardForm, rep) -> sp.csr_matrix:
    """Assemble a normal form as a CSR matrix from its (T, R) or C coefficients."""
    if std.statistics is not _rep_statistics(rep):
        raise ValueError("statistics of form and representation differ")
    if std.n != rep.n:
        raise ValueError(f"mode count mismatch: form has {std.n}, rep has {rep.n}")
    a_ops, adag_ops = rep._ladders
    xs = [a + d for a, d in zip(a_ops, adag_ops)]
    if std.statistics is Statistics.FERMION:
        zs = [d - a for a, d in zip(a_ops, adag_ops)]
        h = _pairwise_sum_sparse(std.C, xs, zs, rep.dim)
    else:
        ys = [a - d for a, d in zip(a_ops, adag_ops)]
        h = _pairwise_sum_sparse(std.T, xs, xs, rep.dim)
        h = h + _pairwise_sum_sparse(std.R, ys, ys, rep.dim)
    return (h + std.k0 * sp.identity(rep.dim, format="csr")).tocsr()


def _rep_statistics(rep) -> Statistics:
    if isinstance(rep, FermionFockRep):
        return Statistics.FERMION
    if isinstance(rep, BosonFockRep):
        return Statistics.BOSON
    raise TypeError(f"not a Fock representation: {type(rep)!r}")


def exact_spectrum(matrix: Matrix, sym_tol: float = 1e-10,
                   dense_limit: int = 8192) -> np.ndarray:
    """Ascending eigenvalues of a symmetric matrix (dense eigensolve)."""
    if sp.issparse(matrix):
        if matrix.shape[0] > dense_limit:
            raise ResourceLimitError(
                f"dimension {matrix.shape[0]} too large for a dense eigensolve; "
                "use truncation_stable_spectrum or lowest_eigenvalues"
            )
        matrix = matrix.toarray()
    dev = float(np.max(np.abs(matrix - matrix.T))) if matrix.size else 0.0
    if dev > sym_tol:
        raise ValueError(f"matrix is not symmetric (deviation {dev:.3e})")
    return np.linalg.eigvalsh((matrix + matrix.T) / 2.0)


def _lowest_pairs(matrix: Matrix, k: int, dense_limit: int = DENSE_EIG_LIMIT,
                  v0: Optional[np.ndarray] = None,
                  vectors: bool = False) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """The k smallest eigenvalues, ascending, with their eigenvectors if asked.

    Small matrices, dense input and requests for (nearly) every eigenvalue
    take a dense solve; the rest implicitly restarted Lanczos (ARPACK) from
    `v0`, by default the uniform vector, so results are deterministic.  The
    working set is estimated first and refused with ResourceLimitError above
    EIGENSOLVE_BYTES_GUARD, before anything is allocated.
    """
    dim = matrix.shape[0]
    k = min(k, dim)
    if not sp.issparse(matrix) or dim <= dense_limit or k >= dim - 1:
        # the matrix, its symmetrized copy, LAPACK's copy and the eigenvectors
        _check_eigensolve_bytes(4 * 8 * dim * dim, f"dense eigensolve of dimension {dim}")
        dense = matrix.toarray() if sp.issparse(matrix) else np.asarray(matrix, dtype=float)
        sym = (dense + dense.T) / 2.0
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


def lowest_eigenvalues(matrix: Matrix, k: int, dense_limit: int = DENSE_EIG_LIMIT) -> np.ndarray:
    """The k smallest eigenvalues, by dense solve or deterministic Lanczos.

    Raises ResourceLimitError when the solve would need more than
    EIGENSOLVE_BYTES_GUARD bytes.
    """
    return _lowest_pairs(matrix, k, dense_limit)[0]


def _box_embedding(n: int, cutoff: int, fine_cutoff: int) -> np.ndarray:
    """Fine-basis index of every coarse basis vector (same occupations)."""
    occupations = np.unravel_index(np.arange((cutoff + 1) ** n), (cutoff + 1,) * n)
    return np.ravel_multi_index(occupations, (fine_cutoff + 1,) * n)


def sector_spectra(hamiltonian: Matrix, rep: FermionFockRep) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues of H restricted to the even and odd sectors.

    H commutes with the occupation parity (every quadratic term changes the
    particle number by 0 or 2), so restricting is an exact block split: each
    block of dimension 2^(n-1) is sliced from the sparse H and solved densely.
    """
    parity = rep.occupations() % 2
    h = sp.csr_matrix(hamiltonian, dtype=float)
    even, odd = (np.linalg.eigvalsh(h[idx][:, idx].toarray())
                 for idx in (np.flatnonzero(parity == 0), np.flatnonzero(parity == 1)))
    return even, odd


@dataclass(frozen=True)
class TruncationResult:
    """Stable eigenvalue prefix from a cutoff-doubling comparison."""

    values: tuple
    requested: int
    warning: Optional[str] = None

    @property
    def stable_count(self) -> int:
        return len(self.values)


def truncation_stable_spectrum(form: QuadraticForm, cutoff: int, k: int, tol: float,
                               dim_guard: int = BOSON_DIM_GUARD) -> TruncationResult:
    """The k smallest oracle eigenvalues that survive doubling the cutoff.

    Eigenvalues are computed at `cutoff` and `2*cutoff`; the returned prefix
    holds where both agree within `tol` (values taken from the finer basis).
    A shorter-than-k prefix carries a warning instead of failing.

    The coarse Hamiltonian is the principal submatrix of the fine one on the
    embedded occupation box, so the fine eigenvalues interlace below the
    coarse ones and the embedded coarse eigenvectors nearly solve the fine
    problem.  The coarse solve starts cold from the uniform vector; the fine
    Lanczos solve starts from the sum of the coarse Ritz vectors, zero outside
    the box, and returns no vectors.  A level the warm solve missed would
    disagree with the cold coarse witness and shorten the prefix, so the
    check can fail by it but never pass by it.
    """
    if form.statistics is not Statistics.BOSON:
        raise ValueError("truncation control applies to bosonic forms only")
    if k == 0:
        return TruncationResult(values=(), requested=0)
    rep_lo = build_boson_rep(form.n, cutoff, dim_guard)
    rep_hi = build_boson_rep(form.n, 2 * cutoff, dim_guard)
    lo, ritz = _lowest_pairs(build_hamiltonian(form, rep_lo), k, vectors=True)
    start = ritz.sum(axis=1)
    del ritz  # the fine assembly is the memory peak; add nothing to it
    h_hi = build_hamiltonian(form, rep_hi)
    v0 = np.zeros(rep_hi.dim)
    v0[_box_embedding(form.n, cutoff, 2 * cutoff)] = start
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
    return TruncationResult(values=tuple(float(v) for v in hi[:stable]),
                            requested=k, warning=warning)


def bogoliubov_mode_operators(rep, b: BogoliubovTransform) -> list:
    """Matrices of the transformed modes (b_k, b_k^+) on the original space.

    Realizes the transform semantics of :func:`bogodiag.forms.apply_transform`:
    building the transformed normal form with these operators reproduces the
    original operator matrix (exactly for fermions, below the truncation rungs
    for bosons).
    """
    n = rep.n
    if _rep_statistics(rep) is not b.statistics or n != b.n:
        raise ValueError("representation and transform are incompatible")
    if b.statistics is Statistics.FERMION:
        xs = [(rep.a(i) + rep.a_dag(i)).astype(float) for i in range(n)]
        zs = [(rep.a_dag(i) - rep.a(i)).astype(float) for i in range(n)]
        op, om = b.o_plus, b.o_minus
        out = []
        for kk in range(n):
            xk = sum(op[kk, i] * xs[i] for i in range(n))
            zk = sum(om[i, kk] * zs[i] for i in range(n))
            out.append(((xk - zk) / 2.0, (xk + zk) / 2.0))
        return out
    s = b.s
    s_inv = np.linalg.inv(s)
    xs = [rep.a(i) + rep.a_dag(i) for i in range(n)]
    ys = [rep.a(i) - rep.a_dag(i) for i in range(n)]
    out = []
    for kk in range(n):
        xk = sum(s_inv[i, kk] * xs[i] for i in range(n))
        yk = sum(s[kk, i] * ys[i] for i in range(n))
        out.append(((xk + yk) / 2.0, (xk - yk) / 2.0))
    return out
