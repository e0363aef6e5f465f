"""Brute-force Fock-space oracle: ladder operators, exact spectra and the
operator identities of the exterior algebra.

This is the only module that knows the Fock space.  The oracle writes the
creation operators ``a_i`` and annihilation operators ``a_i^+`` down
explicitly, diagonalizes quadratic forms built from them and checks the two
identities behind the Morse-type counting of :mod:`bogodiag.morse`, the
wedge/contraction anticommutator and the algebraic cross term, on the
fermionic space (the exterior algebra).  It knows nothing about
:mod:`bogodiag.spectral` and is its ground truth.

Basis vectors are indexed by occupation numbers, mode 0 most significant.

Fermions live on the exact 2^n-dimensional space, where every ladder
operator moves basis vector c to c +/- step_i and is one shifted diagonal: a
0/1 weight vector over c times the Jordan-Wigner sign.  A
product L_i R_j is again one shifted diagonal, so a pair sum
sum_ij c_ij L_i R_j is n vectorised products, each added as it is made into
one buffer holding a row per offset (:func:`_diagonals`), and a form is
H = M + M^t + const on the CSR of M (:func:`_csr`).  A transposed product
is a product too: (c_ij L_i R_j)^t = c_ij R_j^t L_i^t with a_i^t = a_i^+, so
a transposed term is an ordinary term on the adjoint ladders.  Coefficients
may carry leading batch axes, which lead the buffer, so a stack of forms on
one representation is one pass of the same per-diagonal loops (the operator
identities).  Fermionic spectra come from the even and odd parity blocks,
filled straight from the diagonals of M.  The chiral operator
X = x_0 x_1 ... x_{n-1}, x_i = a_i + a_i^+, flips every bit with a sign and
sends H to 2 k0 - H, so the dense solves shrink: for odd n the odd spectrum
mirrors the even one, and for n = 0 mod 4 each sector folds to a
singular-value problem of half its dimension (:func:`sector_spectra`).

Bosons live on the states of total occupation sum_i m_i at most a cutoff,
listed in the same order, C(cutoff + n, n) of them.  A bosonic operator is
assembled straight into CSR (:func:`_simplex_matrix`): its entries fall into
classes by the displacement between row and column state, 0, e_j - e_i and
+/-(e_i + e_j) for a quadratic form (2n^2 + 1 classes), and every entry of a
class is its coefficient times a square root of occupation factors.  Rows
are counted, then filled class by class in lexicographic order of the
displacement, so each row holds its columns in order; a column is found by
the index maps of m -> m -/+ e_i, which count states, so unlike a
mixed-radix key of the occupations they cannot overflow at any n.  The
entries are those of the untruncated operator, so each H is a principal
submatrix of it.  Cutoff doubling assembles H on the list of cutoff 2c and
gathers the one of cutoff c from it; spectra are solved on both and
compared (:func:`truncation_stable_spectrum`, which returns the stable
prefix).

What returns numbers for a form (:func:`sector_spectra`,
:func:`truncation_stable_spectrum`) builds and guards its own space, so a
refusal comes before anything is allocated; what returns operators
(:func:`build_hamiltonian`, :func:`build_standard_hamiltonian`,
:func:`bogoliubov_mode_operators`) or checks an identity takes a FockRep.

Every eigensolve of a sparse matrix goes through :func:`lowest_eigenvalues`:
a dense solve on numpy's LAPACK, or a thick-restart Lanczos with full
reorthogonalization written in numpy (:func:`_lanczos`; Wu & Simon, SIAM J.
Matrix Anal. Appl. 22(2), 2000), which in exact arithmetic is ARPACK's
implicit restart with exact shifts.  So every BLAS call of the oracle goes
through numpy's OpenBLAS, and scipy serves only to build and multiply CSR
matrices (``scipy.sparse``).
Callers reach the oracle only as ``bogodiag.fock``: importing the package
does not load it.  scipy is imported only inside the functions that build or
multiply sparse matrices, so fermionic verification and the operator
identities never load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Union

import numpy as np

from .errors import ResourceLimitError, ValidationError
from .forms import BogoliubovTransform, QuadraticForm, StandardForm, Statistics, Violation

#: Largest fermionic Fock dimension the oracle will build (2^12).
FERMION_DIM_GUARD = 4096

#: Guard on the number C(cutoff + n, n) of bosonic states of total occupation
#: at most the cutoff; cutoff doubling applies it to the fine list.
BOSON_DIM_GUARD = 200_000

#: Above this dimension eigenvalue prefixes switch from dense to Lanczos.  At
#: k = 10 with eigenvectors, numpy's syevd against the numpy Lanczos, in a
#: process that has run both (medians of 21 alternating samples in each of
#: two runs, 2-vCPU x86, numpy 2.4), dense wins at n = 1 up to dimension 200
#: (3.0-3.2 against 5.5-6.0 ms there); at n = 2 it wins or ties from 153 to
#: 171, the runs disagree at 190 (3.1 against 2.9 ms, 3.4 against 4.0), and
#: dense is 11x slower at 861.  A limit of 160 would slow n = 1, so it stays
#: 200.
DENSE_EIG_LIMIT = 200

#: Largest estimated working set of one eigensolve or one bosonic assembly
#: (2 GiB): a dense solve reaches dimension 9459.
EIGENSOLVE_BYTES_GUARD = 2 ** 31

#: Coefficient turning the jacobian's antisymmetric part into the 2-form
#: wedge coefficients; pinned by the cross-term identity test.
TWO_FORM_COEFF = -0.5

#: Largest residual the operator identities may show (floating-point noise).
IDENTITY_TOL = 1e-12


@dataclass(frozen=True)
class FockRep:
    """The occupation basis of n modes, mode 0 most significant.  Fermionic:
    every 0/1 pattern, the exact 2^n-dimensional space.  Bosonic: the states
    of total occupation sum_i m_i <= `cutoff`, C(cutoff + n, n) of them, in
    the same (box) order."""

    statistics: Statistics
    n: int
    cutoff: Optional[int] = None

    def __post_init__(self):
        if (self.cutoff is None) != (self.statistics is Statistics.FERMION):
            raise ValueError("a bosonic representation needs a cutoff on the total occupation, "
                             f"a fermionic one takes none; got {self.cutoff}")

    @cached_property
    def dim(self) -> int:
        if self.statistics is Statistics.FERMION:
            return 2 ** self.n
        return math.comb(self.cutoff + self.n, self.n)

    @cached_property
    def _digits(self) -> np.ndarray:
        """Occupation of every mode in every basis vector, shape (n, dim)."""
        if self.statistics is Statistics.FERMION:
            return np.array(np.unravel_index(np.arange(self.dim), (2,) * self.n))
        return _simplex_states(self.n, self.cutoff)

    @cached_property
    def _ladders(self) -> tuple[tuple, tuple]:
        """Fermions: (creation, annihilation) operators as diagonals (offsets,
        weights): operator i moves basis vector c to c + offsets[i] with
        weight 1 - m_i (creation) or m_i (annihilation) at c, times
        (-1)^(occupation of modes 0..i-1)."""
        occ = self._digits
        steps = self.dim // 2 ** np.arange(1, self.n + 1)
        sign = 1.0 - 2 * ((np.cumsum(occ, axis=0) - occ) % 2)
        return (steps, (1 - occ) * sign), (-steps, occ * sign)

    @cached_property
    def _index_maps(self) -> tuple[np.ndarray, np.ndarray]:
        """Bosons: (lowered, raised), the positions of m - e_i and m + e_i for
        every mode i and state m, 4-byte integers of shape (n, dim) each;
        meaningful where m_i >= 1 and where sum_i m_i < cutoff.

        With P_k = m_0 + ... + m_k and c the cutoff, the states before m
        number dim - 1 - sum_k C(c - P_k + n-1-k, n-k).  Lowering m_i lowers
        P_k for every k >= i, so by Pascal's rule its position drops by
        sum_{k >= i} C(c - P_k + n-1-k, n-1-k), the count of states of modes
        k+1..n-1 with total at most c - P_k; raising m_i adds the same sum
        at c - P_k - 1.  These counts are at most dim, so nothing overflows.
        """
        occ = self._digits
        # C(r + n-1-k, n-1-k) at index r + 1 (0 at r = -1), from k = n-1 down
        level = np.ones(self.cutoff + 2, dtype=np.intp)
        level[0] = 0
        left = self.cutoff - occ.sum(axis=0)
        down, up = np.arange(self.dim), np.arange(self.dim)
        lowered, raised = (np.empty(occ.shape, dtype=np.int32) for _ in range(2))
        for k in range(self.n - 1, -1, -1):
            down -= level[left + 1]
            up += level[left]
            lowered[k], raised[k] = down, up
            left += occ[k]
            level = np.cumsum(level)
        return lowered, raised

    def occupations(self) -> np.ndarray:
        """Total occupation of each basis vector."""
        return self._digits.sum(axis=0)

    def a(self, i: int):
        """CSR creation operator for mode i: entries sqrt(m+1), times the
        sign string over lower modes for fermions (so exactly 0 or +/-1)."""
        return _ladder_sum(self, np.eye(self.n)[i], np.zeros(self.n))

    def a_dag(self, i: int):
        """CSR annihilation operator for mode i (kills the vacuum)."""
        return _ladder_sum(self, np.zeros(self.n), np.eye(self.n)[i])


def _simplex_states(n: int, total: int) -> np.ndarray:
    """Occupations, shape (n, dim), of the states of n modes with
    sum_i m_i <= total in box order: every prefix of modes 0..i is followed
    by each occupation of mode i + 1 that its remaining budget allows,
    ascending.  The prefixes of each mode are kept with their parents and
    the digits read back from the last mode."""
    digits, parents = [], []
    used = np.zeros(1, dtype=np.intp)
    for _ in range(n):
        counts = total + 1 - used
        parent = np.repeat(np.arange(len(used)), counts)
        digit = np.arange(len(parent)) - np.repeat(np.cumsum(counts) - counts, counts)
        digits.append(digit)
        parents.append(parent)
        used = used[parent] + digit
    out = np.empty((n, len(used)), dtype=np.intp)
    state = np.arange(len(used))
    for i in range(n - 1, -1, -1):
        out[i] = digits[i][state]
        state = parents[i][state]
    return out


def build_fermion_rep(n: int) -> FockRep:
    """Exact fermionic representation; guarded at dimension FERMION_DIM_GUARD."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > FERMION_DIM_GUARD.bit_length() - 1:  # n, not 2^n: n may be huge
        raise ResourceLimitError(f"fermionic Fock dimension 2^{n} exceeds the guard")
    return FockRep(Statistics.FERMION, n)


def build_boson_rep(n: int, cutoff: int) -> FockRep:
    """Bosonic representation on the states of total occupation at most
    `cutoff`; guarded at C(cutoff + n, n) <= BOSON_DIM_GUARD, which is
    refused before anything is allocated."""
    if n < 1 or cutoff < 1:
        raise ValueError("n and cutoff must be at least 1")
    dim = 1
    for k in range(1, n + 1):
        dim = dim * (cutoff + k) // k  # C(cutoff + k, k); n and cutoff may be huge
        if dim > BOSON_DIM_GUARD:
            # str() refuses integers past 4300 digits: a huge count is sized in bits
            relation = "=" if k == n else ">="
            size = (f"C({cutoff}+{n}, {n}) {relation} {dim}" if dim < 2**64
                    else f"C(cutoff+{n}, {n}) >= 2^{dim.bit_length() - 1}")
            raise ResourceLimitError(
                f"bosonic Fock dimension {size} exceeds the guard {BOSON_DIM_GUARD}")
    return FockRep(Statistics.BOSON, n, cutoff)


def _products(coeff: np.ndarray, left: tuple, right: tuple):
    """The products coeff_ij L_i R_j of a pair sum, by right-hand row j and
    then by left-hand ladder: L_i R_j moves c to c + r_j + l_i with amplitude
    L_i[c + r_j] R_j[c].  `left` and `right` are tuples of ladders (offsets,
    weights) whose rows count on from one ladder to the next.  Yields
    (offsets, lo, weights) with weights of shape (..., rows, hi - lo) over
    the basis vectors c in [lo, hi); leading batch axes of `coeff`, of
    shape (..., n_l, n_r), lead the weights.
    """
    dim = right[0][1].shape[-1]
    rows_r = [(s, w) for r_off, r_w in right for s, w in zip(r_off.tolist(), r_w)]
    for j, (s, r_w) in enumerate(rows_r):
        lo, hi = max(0, -s), min(dim, dim - s)
        first = 0
        for l_off, l_w in left:
            weights = coeff[..., first : first + len(l_off), j, None] * l_w[:, lo + s : hi + s]
            weights *= r_w[lo:hi]
            yield l_off + s, lo, weights
            first += len(l_off)


def _term_offsets(term: tuple) -> np.ndarray:
    """Offsets of every product of a term (coeff, left, right)."""
    _, left, right = term
    return np.add.outer(np.concatenate([off for off, _ in right]),
                        np.concatenate([off for off, _ in left])).ravel()


def _diagonals(terms: list, const: Union[float, np.ndarray] = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Grouped diagonals (offsets, weights) of the pair sums of `terms`, each
    (coeff, left, right) for sum_ij coeff_ij L_i R_j, plus `const` on the
    main diagonal.

    One buffer of shape (..., len(offsets), dim) takes each product as it is
    made, in the order terms, right-hand rows, left-hand rows, so every
    diagonal is summed in that order.  The products of one right-hand row lie
    on distinct diagonals, so they are added in one fancy-indexed step.
    Offsets descend.  `const` is a scalar or one value per stack entry, of
    shape (...).
    """
    own = np.concatenate([_term_offsets(t) for t in terms])
    # negated, so that they ascend for searchsorted; sorted(set()) and not
    # np.unique, whose default path imports numpy.ma
    negated = np.array(sorted(set((-np.concatenate([own, [0]])).tolist())))
    dim = terms[0][2][0][1].shape[-1]
    out = np.zeros((*terms[0][0].shape[:-2], len(negated), dim))
    for coeff, left, right in terms:
        for offsets, lo, weights in _products(coeff, left, right):
            out[..., np.searchsorted(negated, -offsets), lo : lo + weights.shape[-1]] += weights
    out[..., np.searchsorted(negated, 0), :] += np.asarray(const)[..., None]
    return -negated, out


def _half_term(form: QuadraticForm, rep) -> tuple:
    """M = sum U_ij a_i^+ a_j^+ + V_ij a_i a_j^+ as one term of
    :func:`_diagonals`.  The form is H = M + M^t + const (transposing the U
    part yields the -/+ U_ij a_i a_j block), so H is symmetric exactly by
    construction."""
    _check_rep(rep, form.statistics, form.n)
    creation, annihilation = rep._ladders
    return np.vstack([form.V, form.U]), (creation, annihilation), (annihilation,)


def _entries(offsets: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, ...]:
    """(rows, cols, values) of the nonzero entries of some diagonals."""
    k, cols = np.nonzero(weights)
    return cols + offsets[k], cols, weights[k, cols]


def _csr(offsets: np.ndarray, weights: np.ndarray, dim: int):
    """CSR matrix of some diagonals: their nonzero entries, each row in
    column order."""
    import scipy.sparse as sp
    rows, cols, values = _entries(offsets, weights)
    # COO to CSR sorts each row; distinct diagonals leave no duplicates to sum
    return sp.csr_matrix((values, (rows, cols)), shape=(dim, dim))


def _check_assembly(rep: FockRep, moved: dict) -> None:
    """Refuse, with ResourceLimitError, an assembly on the bosonic states of
    `rep` whose working set exceeds EIGENSOLVE_BYTES_GUARD; `moved` counts
    the classes by the quanta they move.  A class moving q quanta has an
    entry in each row of total at most cutoff - q."""
    n, dim = rep.n, rep.dim
    nnz = dim + sum(count * math.comb(rep.cutoff - q + n, n) for q, count in moved.items())
    # the occupations, both index maps and two row masks per mode, (n, dim)
    # each, 18 bytes a state and mode; the CSR arrays of 8-byte values and
    # 4-byte columns; ten vectors over the states
    _check_bytes(18 * n * dim + 12 * nnz + 80 * dim,
                 f"bosonic assembly of up to {nnz} entries at dimension {dim}")


def _simplex_matrix(rep: FockRep, classes: dict, const: float = 0.0,
                    number: Optional[np.ndarray] = None):
    """CSR matrix on the bosonic states of `rep`: const + sum_i number_i m_i
    on the diagonal and, for each class delta -> coeff of `classes`,
    coeff * sqrt(amplitude^2) at row m, column m + delta.

    A class is a tuple of (mode, shift) steps, shift in {-2, -1, 1, 2},
    ascending in mode: the displacement from a row (target) state to its
    column (source) state, which holds for every entry of the class.  Its
    squared amplitude is the product over its steps of m (m - 1) ... down
    |shift| factors for a lowered mode and (m + 1) ... (m + shift) for a
    raised one: exact integers, in any order, so an operator whose classes
    delta and -delta share a coefficient is exactly symmetric.

    The caller checks the working set (:func:`_check_assembly`) before it
    makes the classes.  The entries are counted per row, class by class, and
    the rows filled in ascending key offset of the classes (lexicographic in
    the displacement, mode 0 first), so every row holds its columns in
    order; each column is found by the index maps of
    :attr:`FockRep._index_maps`.  Exact zeros on the diagonal and classes of
    coefficient 0 are not stored.
    """
    import scipy.sparse as sp
    n, dim = rep.n, rep.dim
    classes = {delta: coeff for delta, coeff in classes.items() if coeff != 0.0}
    occ = rep._digits
    lowered, raised = rep._index_maps
    total = occ.sum(axis=0)
    diagonal = np.full(dim, float(const))
    if number is not None:
        for i in np.flatnonzero(number).tolist():
            diagonal += number[i] * occ[i]

    masks = {}  # rows with room for q more quanta, (None, q), or q in mode i, (i, q)

    def mask(i, q):
        if (i, q) not in masks:
            masks[i, q] = total <= rep.cutoff - q if i is None else occ[i] >= q
        return masks[i, q]

    def rows(delta):
        if not delta:
            return diagonal != 0.0
        need = [mask(i, -s) for i, s in delta if s < 0]
        gained = sum(s for _, s in delta)
        if gained > 0:
            need.append(mask(None, gained))
        return need[0] if len(need) == 1 else np.logical_and(*need)

    # the key offset of a displacement in base 5 > 2 * 2, which orders
    # displacements lexicographically; Python integers do not overflow
    order = sorted([(), *classes], key=lambda delta: sum(s * 5 ** (n - 1 - i) for i, s in delta))
    # the working-set guard keeps the entries below 2^31: 4-byte offsets
    at = np.zeros(dim, dtype=np.int32)
    for delta in order:
        at += rows(delta)
    indptr = np.zeros(dim + 1, dtype=np.int32)
    np.cumsum(at, out=indptr[1:])
    at[:] = indptr[:-1]  # next free slot of each row
    indices, data = np.empty(indptr[-1], dtype=np.int32), np.empty(indptr[-1])
    for delta in order:
        ok = rows(delta)
        r = np.flatnonzero(ok)
        slots = at[r]
        at += ok
        if not delta:
            indices[slots], data[slots] = r, diagonal[r]
            continue
        cols, squared = r, 1.0
        # lowered modes first, so that every intermediate state is in the list
        for i, s in sorted(delta, key=lambda step: step[1]):
            m, step = occ[i][r], (lowered if s < 0 else raised)[i]
            for t in range(abs(s)):
                cols = step[cols]
                squared = squared * (m - t if s < 0 else m + t + 1)
        indices[slots], data[slots] = cols, classes[delta] * np.sqrt(squared)
    return sp.csr_matrix((data, indices, indptr), shape=(dim, dim))


def _pair_classes(rep: FockRep, a: np.ndarray, b: np.ndarray, c: np.ndarray) -> dict:
    """Classes of the off-diagonal part of sum_ij a_ij a_i a_j^+ +
    b_ij a_i^+ a_j^+ + c_ij a_i a_j (its diagonal is sum_i a_ii m_i) on the
    states of `rep`, whose assembly is checked first: the n^2 classes are
    counted from the coefficients before any is made.  The column of an
    entry is its source state: m + e_j - e_i, m + e_i + e_j and
    m - e_i - e_j for the row (target) m."""
    n = len(a)
    # b + b^t and c + c^t are symmetric: their upper triangles hold half of
    # the off-diagonal nonzeros and all of the diagonal ones
    sym_b, sym_c = b + b.T, c + c.T
    pairs = (np.count_nonzero(sym_b) + np.count_nonzero(sym_b.diagonal())
             + np.count_nonzero(sym_c) + np.count_nonzero(sym_c.diagonal())) // 2
    _check_assembly(rep, {1: np.count_nonzero(a) - np.count_nonzero(a.diagonal()), 2: pairs})
    a, b, c = a.tolist(), b.tolist(), c.tolist()
    classes = {}
    for i in range(n):
        for j in range(n):
            if i != j:
                classes[tuple(sorted(((i, -1), (j, 1))))] = a[i][j]
        classes[((i, 2),)], classes[((i, -2),)] = b[i][i], c[i][i]
        for j in range(i + 1, n):
            classes[((i, 1), (j, 1))] = b[i][j] + b[j][i]
            classes[((i, -1), (j, -1))] = c[i][j] + c[j][i]
    return classes


def build_hamiltonian(form: QuadraticForm, rep):
    """Assemble the quadratic form as an explicit symmetric CSR matrix,
    H = M + M^t + const with M = sum U_ij a_i^+ a_j^+ + V_ij a_i a_j^+, each
    row in column order and no explicit zeros.  Fermions: M is the CSR of
    its diagonals (:func:`_csr`).  Bosons: H is assembled on the states of
    `rep` from classes (:func:`_simplex_matrix`) that pair the coefficients
    V + V^t, U and U^t.
    """
    if form.statistics is Statistics.BOSON:
        _check_rep(rep, form.statistics, form.n)
        pair = form.V + form.V.T
        return _simplex_matrix(rep, _pair_classes(rep, pair, form.U, form.U.T), form.const,
                               np.diag(pair))
    import scipy.sparse as sp
    m = _csr(*_diagonals([_half_term(form, rep)]), rep.dim)
    return m + m.T + form.const * sp.identity(rep.dim, format="csr")


def _y_signs(n: int) -> np.ndarray:
    """Sign of each row of y = a - a^+ over the rows of both ladders,
    creation then annihilation (row p acts on mode p mod n).  Quadrature
    terms carry these signs in their coefficients, which gives the same
    products, bit for bit, as negated weights."""
    return np.repeat([1.0, -1.0], n)


def _xz_term(c: np.ndarray, rep) -> tuple:
    """sum_ij c_ij x_i z_j with x = a + a^+ and z = a^+ - a = -y, for
    coefficients of shape (..., n, n) (tiled over the 2n ladder rows)."""
    return np.tile(c, (2, 2)) * -_y_signs(c.shape[-1]), rep._ladders, rep._ladders


def build_standard_hamiltonian(std: StandardForm, rep):
    """Assemble a normal form as a CSR matrix: sum C_ij x_i z_j + k0 for
    fermions (:func:`_xz_term`), sum T_ij x_i x_j + R_ij y_i y_j + k0 for
    bosons.  In normal order x_i x_j and y_i y_j share their two-creation
    and two-annihilation parts, their number parts are +/-(a_i a_j^+ +
    a_j a_i^+), and [a_i^+, a_j] = delta_ij leaves Tr T - Tr R."""
    _check_rep(rep, std.statistics, std.n)
    if std.statistics is Statistics.FERMION:
        return _csr(*_diagonals([_xz_term(std.C, rep)], std.k0), rep.dim)
    t, r = std.T, std.R
    pair, number = t + r, (t + t.T) - (r + r.T)
    return _simplex_matrix(rep, _pair_classes(rep, number, pair, pair),
                           std.k0 + np.trace(t) - np.trace(r), np.diag(number))


def _check_rep(rep, statistics: Statistics, n: int) -> None:
    """ValueError unless `rep` represents n modes of `statistics`."""
    if getattr(rep, "statistics", None) is not statistics or rep.n != n:
        raise ValueError(f"needs a {statistics.value} representation of {n} modes, got {rep}")


def lowest_eigenvalues(matrix, k: int, v0: Optional[np.ndarray] = None, vectors: bool = False):
    """The k smallest eigenvalues of a symmetric sparse matrix, ascending (k =
    dim gives the whole spectrum, k = 0 none, and k < 0 raises ValueError);
    with `vectors`, the pair (values, vectors) with eigenvector j in column j.

    Matrices up to DENSE_EIG_LIMIT and requests for (nearly) every
    eigenvalue take a dense solve on numpy's LAPACK (syevd), which raises
    ValueError for a matrix that is not exactly symmetric.  The rest
    run the thick-restart Lanczos of :func:`_lanczos` on the CSR form of H,
    the matrix itself when it is CSR (as every assembled H is), with a
    basis of min(dim - 1, max(2k + 4, 20)) vectors.  Its stopping rule is
    ARPACK's on H + sigma*I, sigma the largest absolute row sum of H (a
    bound on ||H||_2, read from the stored entries), scaled by the power of
    two just above sigma, so it is relative to ||H|| even where an
    eigenvalue of H is 0 and at any scale of H; the shift enters only that
    test.  It starts from `v0`, by default a fixed-seed Gaussian vector, so
    results are deterministic.  The working set is estimated first and
    refused with ResourceLimitError above EIGENSOLVE_BYTES_GUARD, before
    anything is allocated; a Lanczos solve that uses up its budget of
    100 * dim restarts raises it too, and one that meets a non-finite Ritz
    value raises ValueError.
    """
    if k < 0:
        raise ValueError(f"k must be at least 0, got {k}")
    dim = matrix.shape[0]
    k = min(k, dim)
    if k == 0:
        return (np.zeros(0), np.zeros((dim, 0))) if vectors else np.zeros(0)
    if dim <= DENSE_EIG_LIMIT or k >= dim - 1:
        # the matrix, LAPACK's copy and the eigenvectors
        _check_bytes(3 * 8 * dim * dim, f"dense eigensolve of dimension {dim}")
        dense = matrix.toarray()
        # every H the oracle assembles is symmetric bit for bit
        if (dense != dense.T).any():
            dev = float(np.abs(dense - dense.T).max())
            raise ValueError(f"matrix is not symmetric (deviation {dev:.3e})")
        if vectors:
            vals, vecs = np.linalg.eigh(dense)
            return vals[:k], vecs[:, :k]
        return np.linalg.eigvalsh(dense)[:k]
    ncv = min(dim - 1, max(2 * k + 4, 20))
    # the start vector, the basis with its residual, the last product, and
    # the Ritz vectors that a restart keeps, made before they overwrite the
    # basis
    _check_bytes(8 * dim * (ncv + 3 + _kept(k, ncv)),
                 f"Lanczos eigensolve of {k} eigenvalues at dimension {dim}")
    if v0 is None:
        # a Gaussian start overlaps every symmetry sector of a form; a uniform
        # one misses, for one, the states antisymmetric under a mode swap
        v0 = np.random.default_rng(0).standard_normal(dim)
    matrix = matrix.tocsr()
    out = _lanczos(matrix, v0, k, ncv, _row_sum_bound(matrix), 100 * dim)
    if out is None:
        raise ResourceLimitError(f"Lanczos eigensolve of {k} eigenvalues at dimension {dim} "
                                 f"did not converge in {100 * dim} iterations")
    values, coeffs, basis = out
    return (values, (coeffs.T @ basis).T) if vectors else values


def _kept(k: int, ncv: int) -> int:
    """Ritz vectors a Lanczos restart keeps: the k wanted and half the rest."""
    return k + (ncv - k) // 2


def _lanczos(matrix, v0: np.ndarray, k: int, ncv: int, sigma: float, iterations: int):
    """Thick-restart Lanczos with full reorthogonalization (Wu & Simon, SIAM
    J. Matrix Anal. Appl. 22(2), 2000) for the k smallest eigenpairs of the
    symmetric CSR `matrix`, from `v0`, on a basis of `ncv` vectors.

    Each pass extends the basis to `ncv` vectors, every new one
    orthogonalized twice against all before it (classical Gram-Schmidt),
    and takes the Ritz pairs (theta, y) of the projected matrix T.  It runs
    on H / s, s the power of two just above sigma: the division is exact,
    and ||H / s||_2 < 1, so no norm overflows or underflows however large or
    small H is.  A pair has converged when beta |y_last| <= 1e-12
    max(eps^(2/3), |theta + sigma / s|), beta the norm of the residual and
    eps LAPACK's unit roundoff 2^-53: ARPACK's rule on (H + sigma*I) / s.
    On H + sigma*I itself, as ARPACK applies it, the floor eps^(2/3) is
    absolute and passes the first Ritz values of any H below about 1e-22.
    Once the k smallest have converged, this returns (their values, their
    coefficients y, the basis), the Ritz vectors being basis^t y.
    Otherwise it restarts from the `_kept` smallest Ritz vectors and the
    residual, which couples to each of them through beta y_last, so T
    becomes diagonal plus an arrow.  A residual at most 1e-14 sigma / s is
    a breakdown (the basis spans an invariant subspace): the next vector is
    a fresh Gaussian draw, seeded and orthogonalized, coupled by 0.  Returns
    None after `iterations` passes without convergence, and raises
    ValueError after the first pass on a non-finite T or sigma, for then
    the Ritz values of H + sigma*I are not finite either.
    """
    dim = len(v0)
    basis = np.empty((ncv + 1, dim))
    basis[0] = v0 / np.linalg.norm(v0)
    t = np.zeros((ncv, ncv))
    # seed 1: the default start is the first draw of seed 0
    fresh = np.random.default_rng(1)
    floor = (np.finfo(float).eps / 2) ** (2 / 3)
    # sigma = 0 is H = 0; a non-finite sigma raises below
    scale = np.ldexp(1.0, np.frexp(sigma)[1]) if 0 < sigma < np.inf else 1.0
    shift = sigma / scale
    start = 0
    for _ in range(iterations):
        for j in range(start, ncv):
            w = matrix @ basis[j]
            w /= scale
            t[j, j] = _orthogonalize(w, basis[: j + 1])[j]
            beta = float(np.linalg.norm(w))
            if beta <= 1e-14 * shift:
                w = fresh.standard_normal(dim)
                _orthogonalize(w, basis[: j + 1])
                beta, norm = 0.0, np.linalg.norm(w)
            else:
                norm = beta
            np.divide(w, norm, out=basis[j + 1])
            if j + 1 < ncv:
                t[j, j + 1] = t[j + 1, j] = beta
        if not (np.isfinite(t).all() and np.isfinite(sigma)):
            raise ValueError("Lanczos met a non-finite Ritz value")
        theta, y = np.linalg.eigh(t)
        bounds = beta * np.abs(y[-1, :k])
        if np.all(bounds <= 1e-12 * np.maximum(floor, np.abs(theta[:k] + shift))):
            return scale * theta[:k], y[:, :k], basis[:ncv]
        start = _kept(k, ncv)
        basis[:start] = y[:, :start].T @ basis[:ncv]
        basis[start] = basis[ncv]
        t[:] = 0.0
        t[np.diag_indices(start)] = theta[:start]
        t[start, :start] = t[:start, start] = beta * y[-1, :start]
    return None


def _orthogonalize(w: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Remove from `w`, in place, its components along the orthonormal rows
    of `basis`, twice over; returns the components removed."""
    coeffs = basis @ w
    w -= coeffs @ basis
    again = basis @ w
    w -= again @ basis
    return coeffs + again


def _row_sum_bound(matrix) -> float:
    """max_i sum_j |H_ij| of a CSR matrix, an upper bound on ||H||_2, from its
    stored entries: their absolute values, on the matrix's own index arrays,
    times a ones vector.  scipy's CSR product adds each row's entries in the
    order stored, from 0.0, so no row is summed pairwise."""
    import scipy.sparse as sp
    magnitudes = sp.csr_matrix((np.abs(matrix.data), matrix.indices, matrix.indptr),
                               shape=matrix.shape)
    return float((magnitudes @ np.ones(matrix.shape[1])).max(initial=0.0))


def _check_bytes(estimate: int, what: str) -> None:
    if estimate > EIGENSOLVE_BYTES_GUARD:
        raise ResourceLimitError(
            f"{what} needs about {estimate / 2**30:.1f} GiB, "
            f"above the guard of {EIGENSOLVE_BYTES_GUARD / 2**30:.1f} GiB"
        )


def _chiral_signs(rep: FockRep) -> np.ndarray:
    """Signs s_c of the chiral operator X = x_0 x_1 ... x_{n-1}, x_i = a_i + a_i^+,
    which sends e_c to s_c e_{~c}.  x_i flips bit i with the sign string of
    modes 0..i-1, and the x_j with j > i, which act first, leave those bits
    as they are, so s_c is the product of the n ladder weights at c."""
    (_, up), (_, down) = rep._ladders
    return np.prod(up + down, axis=0)


def _folded_spectrum(r: np.ndarray, c: np.ndarray, v: np.ndarray, signs: np.ndarray,
                     k0: float) -> np.ndarray:
    """Ascending spectrum k0 +/- sigma(B) of one sector of dimension m on which
    X squares to +1, from the entries (r, c, v) of M at block positions and
    the signs of X at those positions.

    X pairs position p < m/2 with m-1-p, and in the basis
    (e_p +/- s_p e_{m-1-p}) / sqrt(2) the sector is [[k0 I, B], [B^t, k0 I]].
    An entry H_ij lands on B at the pairs of i and j, weighted by 1 (i < m/2)
    or s_i (row) and by 1 or -s_j (column), and halved; the constant cancels.
    """
    half = len(signs) // 2
    position = np.arange(len(signs))
    pair = np.minimum(position, position[::-1])
    row_sign, col_sign = signs.copy(), -signs
    row_sign[:half] = col_sign[:half] = 1.0
    v = 0.5 * v
    index = np.concatenate([pair[r] * half + pair[c], pair[c] * half + pair[r]])
    weights = np.concatenate([row_sign[r] * col_sign[c] * v, row_sign[c] * col_sign[r] * v])
    b = np.bincount(index, weights, minlength=half * half).reshape(half, half)
    sigma = np.linalg.svd(b, compute_uv=False)  # descending
    return np.concatenate([k0 - sigma, k0 + sigma[::-1]])


def sector_spectra(form: QuadraticForm) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues of the fermionic form on the even and odd sectors
    of the exact space, which it builds (ResourceLimitError from n = 13).
    Every row sum of |H|, so every entry, sum and eigenvalue below, is at
    most 2 (sum |U_ij| + sum |V_ij|) + |const|; a form whose bound overflows
    is refused first (ValidationError, a derived_finite violation).

    Every quadratic term changes the particle number by 0 or 2, so H splits
    into two blocks of dimension 2^(n-1); b sits at position b >> 1 of its
    block.  A block gets the entries of M, as they are and transposed, plus
    the constant.  The chiral operator X (:func:`_chiral_signs`) flips every
    bit, and X H X^t = 2 k0 - H, with k0 the mean of H at the vacuum and at
    the fully occupied state.  So for odd n, where X swaps the sectors, only
    the even block is solved, and the odd spectrum is its mirror 2 k0 - even.
    For even n, X keeps each sector and squares to (-1)^(n(n-1)/2): for
    n = 0 mod 4 that is +1, and each sector folds to k0 +/- the singular
    values of a block of dimension 2^(n-2) (:func:`_folded_spectrum`); for
    n = 2 mod 4 both blocks are solved.
    """
    rep = build_fermion_rep(form.n)
    _check_row_sums(form, 1)
    offsets, weights = _diagonals([_half_term(form, rep)])
    # H at the vacuum and at the fully occupied state, as a block holds them
    vacuum, full = 2.0 * weights[offsets.tolist().index(0)][[0, -1]] + form.const
    k0 = (vacuum + full) / 2.0
    rows, cols, values = _entries(offsets, weights)
    del offsets, weights  # the buffer is no use to the solves
    occupied = rep.occupations() % 2
    parity = occupied[cols]
    fold = rep.n % 4 == 0
    block = None if fold else np.empty((rep.dim // 2, rep.dim // 2))
    spectra = []
    for p in (0,) if rep.n % 2 else (0, 1):
        mine = parity == p
        r, c, v = rows[mine] >> 1, cols[mine] >> 1, values[mine]
        if fold:
            spectra.append(_folded_spectrum(r, c, v, _chiral_signs(rep)[occupied == p], k0))
            continue
        block.fill(0.0)  # eigvalsh works on a copy, so one buffer serves both
        block[r, c] = v
        block[c, r] += v
        block.flat[:: len(block) + 1] += form.const
        spectra.append(np.linalg.eigvalsh(block))
    if rep.n % 2:
        spectra.append((2.0 * k0 - spectra[0])[::-1])
    return spectra[0], spectra[1]


def _check_row_sums(form: QuadraticForm, occupation: int) -> None:
    """Refuse, with ValidationError (a derived_finite violation), a form
    whose bound 2 N (sum |U_ij| + sum |V_ij|) + |const| on every row sum of
    |H| overflows, N = `occupation` the largest total occupation of the
    states (1 for fermions).  A quadratic term is a product of two ladders,
    with at most one entry in each row and column, of size at most N on the
    states; below the bound every entry, sum and eigenvalue of H is finite."""
    with np.errstate(over="ignore"):
        bound = 2.0 * occupation * (np.abs(form.U).sum() + np.abs(form.V).sum()) + abs(form.const)
    if not np.isfinite(bound):
        message = "oracle Hamiltonian not finite (overflow)"
        raise ValidationError(message, [Violation("derived_finite", message, math.inf)])


def _simplex_hamiltonians(form: QuadraticForm, cutoff: int) -> tuple:
    """(coarse H, fine H, inner): the form as CSR matrices on the states of
    total occupation at most `cutoff` and 2*`cutoff`, and the fine-list
    position of each coarse state; both lists are in box order.  Only the
    fine H is assembled, so its guards, and the refusal of a form whose H
    overflows (:func:`_check_row_sums`), come before anything is built; the
    coarse H is its principal submatrix at `inner`, gathered row by row in
    column order."""
    fine = build_boson_rep(form.n, 2 * cutoff)
    _check_row_sums(form, 2 * cutoff)
    h_hi = build_hamiltonian(form, fine)
    inner = np.flatnonzero(fine.occupations() <= cutoff)
    return h_hi[inner][:, inner], h_hi, inner


def truncation_stable_spectrum(form: QuadraticForm, cutoff: int, k: int,
                               tol: float) -> np.ndarray:
    """The k smallest oracle eigenvalues that survive doubling the cutoff.

    The cutoff bounds the total occupation: eigenvalues are computed on the
    states with sum_i m_i <= `cutoff` and <= `2*cutoff`; the returned
    ascending array, at most k long, is the prefix where both agree within
    `tol` (values from the finer space); k = 0 returns it empty before any
    work, and k < 0 raises ValueError.  A prefix shorter than k is not an
    error: the caller decides what it means.  BOSON_DIM_GUARD applies to the
    fine list of C(2*cutoff + n, n) states and refuses before any work, and
    so does the refusal (ValidationError, a derived_finite violation) of a
    form whose bound 4 cutoff (sum |U_ij| + sum |V_ij|) + |const| on the row
    sums of |H| over that list overflows.

    The fine H holds the untruncated operator's entries among its states, so
    it is a principal submatrix of that operator, and the coarse H is taken
    from it as one (:func:`_simplex_hamiltonians`): by the min-max principle
    every eigenvalue bounds the true level from above, and the fine
    eigenvalues interlace below the coarse ones.  The coarse solve starts
    cold from the fixed-seed Gaussian vector of :func:`lowest_eigenvalues`
    and stays an independent witness; the fine Lanczos solve starts from the
    sum of the coarse Ritz vectors, placed at the coarse states' positions
    in the fine list.  A level it missed would disagree with the witness and shorten
    the prefix, never lengthen it.
    """
    if form.statistics is not Statistics.BOSON:
        raise ValueError("truncation control applies to bosonic forms only")
    if k < 0:
        raise ValueError(f"k must be at least 0, got {k}")
    if k == 0:
        return np.zeros(0)
    h_lo, h_hi, inner = _simplex_hamiltonians(form, cutoff)
    lo, ritz = lowest_eigenvalues(h_lo, k, vectors=True)
    v0 = np.zeros(h_hi.shape[0])
    v0[inner] = ritz.sum(axis=1)
    del h_lo, ritz  # the fine solve needs neither; free them before its basis
    hi = lowest_eigenvalues(h_hi, k, v0=v0)
    m = min(len(lo), len(hi))
    stable = 0
    while stable < m and abs(lo[stable] - hi[stable]) <= tol:
        stable += 1
    return hi[:stable]


def _ladder_sum(rep: FockRep, creation: np.ndarray, annihilation: np.ndarray):
    """CSR matrix of sum_i creation_i a_i + annihilation_i a_i^+ on `rep`:
    for fermions the 2n weighted ladder diagonals (:func:`_csr`), for bosons
    2n classes of one step each (:func:`_simplex_matrix`), whose working set
    is checked, from the nonzero weights, before any class is made."""
    if rep.statistics is Statistics.BOSON:
        _check_assembly(rep, {1: np.count_nonzero(creation) + np.count_nonzero(annihilation)})
        return _simplex_matrix(rep, {**{((i, -1),): c for i, c in enumerate(creation)},
                                     **{((i, 1),): c for i, c in enumerate(annihilation)}})
    (up_off, up), (down_off, down) = rep._ladders
    weights = np.vstack([creation[:, None] * up, annihilation[:, None] * down])
    return _csr(np.concatenate([up_off, down_off]), weights, rep.dim)


def bogoliubov_mode_operators(rep, b: BogoliubovTransform) -> list:
    """CSR matrices of the transformed modes (b_k, b_k^+) on the original space.

    b_k, b_k^+ = (x_k -/+ z_k) / 2 with x_k = sum_i p_ki x_i and
    z_k = sum_i q_ki z_i, where x_i = a_i + a_i^+ and z_i = a_i^+ - a_i; p
    and q are (S^-t, S) for bosons and (O_+, O_-^t) for fermions.  So b_k
    weights the ladders of `rep` by (p_ki + q_ki) / 2 (creation) and
    (p_ki - q_ki) / 2 (annihilation), and b_k^+ swaps the two weights
    (:func:`_ladder_sum`).  Building the transformed normal form of
    :func:`bogodiag.forms.apply_transform` with them reproduces the original
    operator matrix (exactly for fermions, for bosons on the states two
    quanta below the cutoff, whose products never leave the list).
    """
    _check_rep(rep, b.statistics, b.n)
    if b.statistics is Statistics.BOSON:
        p, q = np.linalg.inv(b.S).T, b.S
    else:
        p, q = b.o_plus, b.o_minus.T
    plus, minus = (p + q) / 2.0, (p - q) / 2.0
    return [(_ladder_sum(rep, plus[k], minus[k]), _ladder_sum(rep, minus[k], plus[k]))
            for k in range(b.n)]


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
    creation, annihilation = rep._ladders
    coeff = omega[:, :, None] * omega[:, None, :]
    # one dot product per trial: a batched reduction may round differently
    norms = np.array([w @ w for w in omega])
    _, diff = _diagonals([(coeff, (creation,), (annihilation,)),
                          (coeff, (annihilation,), (creation,))], -norms)
    return np.abs(diff).max(axis=(-2, -1))


def _cross_residuals(jac: np.ndarray, rep: FockRep) -> tuple[np.ndarray, np.ndarray]:
    """Cross-term (residual, const) of each jacobian of a stack of shape (T, n, n)."""
    creation, annihilation = rep._ladders
    two_form = TWO_FORM_COEFF * (jac - jac.swapaxes(-1, -2))
    # the algebraic side A + B + A^t + B^t, subtracted: a negated coefficient
    # negates each product exactly
    offsets, diff = _diagonals([_xz_term(jac, rep),
                                (-jac, (creation,), (annihilation,)),
                                (-two_form, (creation,), (creation,)),
                                (-jac.swapaxes(-1, -2), (creation,), (annihilation,)),
                                (-two_form.swapaxes(-1, -2), (annihilation,), (annihilation,))])
    scalar = diff[..., offsets.tolist().index(0), :]
    const = scalar.mean(axis=-1)
    scalar -= const[:, None]
    return np.abs(diff).max(axis=(-2, -1)), const


def wedge_contraction_identity(omega, rep: Optional[FockRep] = None) -> float:
    """Residual of (w w* + w* w) - <w, w> on the exterior algebra.

    w is the wedge by the 1-form with coefficients `omega` (built from the
    creation operators) and w* its contraction adjoint.  The anticommutator
    is the scalar <w, w> exactly; the residual is floating-point noise.
    Both products are pair sums of the shifted-diagonal ladders, so the
    check holds 2 n^2 weight vectors of length 2^n and no dense matrix.
    `rep` defaults to the exact fermionic representation (ResourceLimitError
    from n = 13); one of other statistics or modes raises ValueError.  An
    `omega` that is not a non-empty finite vector raises ValidationError.
    """
    omega = _finite_array(omega, "omega", ndim=1)
    rep = build_fermion_rep(len(omega)) if rep is None else rep
    _check_rep(rep, Statistics.FERMION, len(omega))
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
    Both sides are shifted diagonals, the direct one from the fermionic
    branch of build_standard_hamiltonian; at n = 12 the traced peak is about
    17 MB.  `rep` is taken as in :func:`wedge_contraction_identity`; a
    jacobian that is not a non-empty finite square matrix raises
    ValidationError.
    """
    jac = _finite_array(omega_jac, "jacobian", ndim=2)
    rep = build_fermion_rep(len(jac)) if rep is None else rep
    _check_rep(rep, Statistics.FERMION, len(jac))
    residual, const = _cross_residuals(jac[None], rep)
    return float(residual[0]), float(const[0])


def _trials_per_chunk(n: int) -> int:
    """Trials evaluated in one stacked pass on n modes: as many times as
    n^2 2^n fits into 12^2 2^12, so the guard edge n = 12 takes one trial at
    a time.  A trial's buffer holds about 2 n^2 diagonals of length 2^n."""
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
    rep = build_fermion_rep(n)
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
