import functools
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from conftest import bounded_boson_form, random_boson_form, random_fermion_form, refusal_peak

import bogodiag as bd
from bogodiag import Statistics, fock


def simplex_states(n, cutoff):
    """Occupation tuples of total at most cutoff, in box order."""
    return [m for m in itertools.product(range(cutoff + 1), repeat=n) if sum(m) <= cutoff]


def simplex_embedding(n, cutoff, fine_cutoff):
    """Position in the fine simplex of each state of the coarse one."""
    fine = {m: i for i, m in enumerate(simplex_states(n, fine_cutoff))}
    return np.array([fine[m] for m in simplex_states(n, cutoff)])


def box_keep(n, cutoff):
    """Box indices (base cutoff + 1) of the states of total at most cutoff."""
    return np.flatnonzero([sum(m) <= cutoff for m in itertools.product(range(cutoff + 1), repeat=n)])


def safe_states(n, cutoff):
    """Simplex positions of the states of total occupation at most
    cutoff - 2: a quadratic term moves the total by at most 2, so products
    of truncated ladders are exact on them."""
    return np.flatnonzero([sum(m) <= cutoff - 2 for m in simplex_states(n, cutoff)])


class TestFermionRep:
    def test_n1_matrices(self):
        rep = fock.build_fermion_rep(1)
        assert np.array_equal(rep.a(0).toarray(), [[0, 0], [1, 0]])
        assert np.array_equal(rep.a_dag(0).toarray(), [[0, 1], [0, 0]])

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_anticommutators_exact(self, n):
        rep = fock.build_fermion_rep(n)
        eye = np.eye(rep.dim, dtype=np.int64)
        for i in range(n):
            for j in range(n):
                ai, aj = rep.a(i).toarray(), rep.a(j).toarray()
                di, dj = rep.a_dag(i).toarray(), rep.a_dag(j).toarray()
                assert np.array_equal(di @ aj + aj @ di, (eye if i == j else 0 * eye))
                assert np.array_equal(ai @ aj + aj @ ai, 0 * eye)
                assert np.array_equal(di @ dj + dj @ di, 0 * eye)

    def test_vacuum_killed_by_adjoint(self):
        rep = fock.build_fermion_rep(3)
        vac = np.zeros(rep.dim)
        vac[0] = 1.0
        for i in range(3):
            assert np.array_equal(rep.a_dag(i) @ vac, np.zeros(rep.dim))

    def test_transpose_pairing(self):
        rep = fock.build_fermion_rep(3)
        for i in range(3):
            assert np.array_equal(rep.a_dag(i).toarray(), rep.a(i).T.toarray())

    def test_creation_anticommute(self):
        rep = fock.build_fermion_rep(3)
        a1, a2 = rep.a(0).toarray(), rep.a(1).toarray()
        assert np.array_equal(a1 @ a2, -(a2 @ a1))

    def test_guard(self):
        with pytest.raises(bd.ResourceLimitError):
            fock.build_fermion_rep(13)
        with pytest.raises(ValueError):
            fock.build_fermion_rep(0)

    def test_guard_compares_n_not_the_dimension(self):
        # 2^(10^9) alone would take seconds and hundreds of MB to compute
        assert fock.build_fermion_rep(12).dim == fock.FERMION_DIM_GUARD
        assert refusal_peak(fock.build_fermion_rep, 10**9) < 2**20

    def test_sector_spectra_guards_the_space_it_builds(self):
        # the form alone decides: n = 13 is refused before any 2^13 array
        n = 13
        form = bd.QuadraticForm(Statistics.FERMION, U=np.zeros((n, n)), V=np.eye(n))
        assert refusal_peak(fock.sector_spectra, form) < 2**20

    @pytest.mark.parametrize("n", [2, 4])
    def test_sector_spectra_refuses_an_overflowing_hamiltonian(self, n):
        # U_01 - U_10 = 3e308 is past the largest float: the even block held
        # NaN at n = 2, and the folded SVD did not converge at n = 4
        u = np.zeros((n, n))
        u[0, 1], u[1, 0] = 1.5e308, -1.5e308
        form = bd.QuadraticForm(Statistics.FERMION, U=u, V=np.zeros((n, n)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(bd.ValidationError) as info:
                fock.sector_spectra(form)
        assert [v.check for v in info.value.violations] == ["derived_finite"]

    def test_fermion_base_other_than_2_rejected(self):
        # sign strings on more occupation levels than 0 and 1 are no
        # fermionic ladder: a fermionic representation takes no cutoff, and a
        # bosonic one needs a bound on its total occupation
        with pytest.raises(ValueError, match="cutoff"):
            fock.FockRep(Statistics.FERMION, 2, 3)
        with pytest.raises(ValueError, match="cutoff"):
            fock.FockRep(Statistics.BOSON, 2)
        assert fock.FockRep(Statistics.BOSON, 2, 3).dim == 10


class TestBosonRep:
    def test_ladder_amplitudes(self):
        rep = fock.build_boson_rep(1, 2)
        a = rep.a(0).toarray()
        assert np.allclose(a, [[0, 0, 0], [1, 0, 0], [0, np.sqrt(2), 0]])
        comm = rep.a_dag(0) @ rep.a(0) - rep.a(0) @ rep.a_dag(0)
        assert np.allclose(comm.toarray(), np.diag([1.0, 1.0, -2.0]))

    def test_commutator_identity_below_top_rung(self):
        rep = fock.build_boson_rep(1, 40)
        comm = (rep.a_dag(0) @ rep.a(0) - rep.a(0) @ rep.a_dag(0)).toarray()
        assert np.allclose(comm[:40, :40], np.eye(40))

    def test_dimension(self):
        assert fock.build_boson_rep(2, 5).dim == 21
        for n, cutoff in [(1, 7), (2, 5), (3, 4), (5, 2)]:
            rep = fock.build_boson_rep(n, cutoff)
            states = simplex_states(n, cutoff)
            assert rep.dim == math.comb(cutoff + n, n) == len(states)
            assert np.array_equal(rep._digits.T, states)
            assert np.array_equal(rep.occupations(), [sum(m) for m in states])

    def test_guard(self, monkeypatch):
        fock.build_boson_rep(3, 104)  # C(107, 3) = 198485
        with pytest.raises(bd.ResourceLimitError):
            fock.build_boson_rep(3, 105)  # C(108, 3) = 204156 > 200000
        monkeypatch.setattr(fock, "BOSON_DIM_GUARD", 300_000)
        fock.build_boson_rep(3, 105)
        for n, cutoff in [(0, 5), (1, 0)]:
            with pytest.raises(ValueError):
                fock.build_boson_rep(n, cutoff)

    def test_guard_refuses_before_allocation(self):
        assert refusal_peak(fock.build_boson_rep, 3, 105) < 2**20
        assert refusal_peak(fock.build_boson_rep, 10**6, 10**4000) < 2**20

    def test_guard_message_of_a_huge_simplex(self):
        # 10^5000 is past str()'s 4300 digits, so the message sizes it in bits
        bits = (10**5000).bit_length() - 1
        with pytest.raises(bd.ResourceLimitError, match=rf"C\(cutoff\+2, 2\) >= 2\^{bits} "):
            fock.build_boson_rep(2, 10**5000 - 1)
        with pytest.raises(bd.ResourceLimitError, match=r"C\(105\+3, 3\) = 204156 exceeds"):
            fock.build_boson_rep(3, 105)
        # the count stops once past the guard: C(10^6 + 1, 1) already is
        with pytest.raises(bd.ResourceLimitError, match=r"C\(1000000\+5, 5\) >= 1000001 exceeds"):
            fock.build_boson_rep(5, 10**6)


class TestBuildHamiltonian:
    def test_fermion_number_operator(self):
        rep = fock.build_fermion_rep(1)
        f = bd.QuadraticForm(Statistics.FERMION, U=[[0.0]], V=[[1.0]], const=0.0)
        assert np.allclose(fock.build_hamiltonian(f, rep).toarray(), np.diag([0.0, 2.0]))

    def test_fermion_rotation_form_eigenvalues(self):
        u = 1.0
        rep = fock.build_fermion_rep(2)
        f = bd.QuadraticForm(Statistics.FERMION, U=[[0.0, u], [-u, 0.0]], V=np.zeros((2, 2)))
        vals = fock.lowest_eigenvalues(fock.build_hamiltonian(f, rep), rep.dim)
        assert np.allclose(vals, [-2.0, 0.0, 0.0, 2.0], atol=1e-12)

    def test_boson_number_ladder_two_cutoffs(self):
        f = bd.QuadraticForm(Statistics.BOSON, U=[[0.0]], V=[[1.0]], const=0.0)
        v40 = fock.lowest_eigenvalues(fock.build_hamiltonian(f, fock.build_boson_rep(1, 40)), 41)
        v80 = fock.lowest_eigenvalues(fock.build_hamiltonian(f, fock.build_boson_rep(1, 80)), 81)
        assert np.allclose(v40[:10], np.arange(0, 20, 2), atol=1e-10)
        assert np.allclose(v40[:20], v80[:20], atol=1e-9)

    @pytest.mark.parametrize("statistics", [Statistics.BOSON, Statistics.FERMION])
    def test_linearity_and_symmetry(self, statistics):
        rng = np.random.default_rng(4)
        n = 2
        make = random_boson_form if statistics is Statistics.BOSON else random_fermion_form
        f1, f2 = make(rng, n), make(rng, n)
        rep = fock.build_boson_rep(n, 6) if statistics is Statistics.BOSON else fock.build_fermion_rep(n)
        both = bd.QuadraticForm(statistics, U=f1.U + f2.U, V=f1.V + f2.V, const=f1.const + f2.const)
        h1, h2, h12 = (fock.build_hamiltonian(f, rep).toarray() for f in (f1, f2, both))
        assert np.max(np.abs(h12 - h1 - h2)) <= 1e-12
        # exactly: the dense solve of lowest_eigenvalues refuses any asymmetry
        assert np.array_equal(h1, h1.T)

    @pytest.mark.parametrize("n, cutoff", [(1, 8), (2, 6), (3, 4), (4, 3)])
    def test_boson_hamiltonians_exactly_symmetric(self, n, cutoff):
        # U and V asymmetric within TOL_SYM, as validate admits them: the
        # classes pair V + V^t and U_ij + U_ji, and the coarse H gathered
        # from the fine one is a principal submatrix, so both are symmetric
        # bit for bit
        rng = np.random.default_rng(70 + n)
        f = random_boson_form(rng, n)
        tilt = 0.5 * bd.forms.TOL_SYM * f.scale
        f = bd.QuadraticForm(Statistics.BOSON, U=f.U + tilt * np.triu(np.ones((n, n)), 1),
                             V=f.V - tilt * np.tril(np.ones((n, n)), -1), const=f.const)
        assert bd.validate(f) == [] and (n == 1 or not np.array_equal(f.U, f.U.T))
        coarse, fine, _ = fock._simplex_hamiltonians(f, cutoff)
        for h in (fock.build_hamiltonian(f, fock.build_boson_rep(n, cutoff)), coarse, fine):
            assert (h != h.T).nnz == 0

    def test_mismatch_rejected(self):
        rep = fock.build_fermion_rep(2)
        f = bd.QuadraticForm(Statistics.BOSON, U=np.zeros((2, 2)), V=np.eye(2))
        with pytest.raises(ValueError):
            fock.build_hamiltonian(f, rep)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_standard_form_operator_equality_fermion(self, n):
        rng = np.random.default_rng(10 + n)
        f = random_fermion_form(rng, n)
        rep = fock.build_fermion_rep(n)
        dev = np.max(np.abs(fock.build_hamiltonian(f, rep)
                            - fock.build_standard_hamiltonian(bd.to_standard(f), rep)))
        assert dev <= 1e-10

    @pytest.mark.parametrize("n", [1, 2])
    def test_standard_form_operator_equality_boson(self, n):
        # both hold the untruncated operator's entries, so they agree on
        # every state of the list, the top rung included
        rng = np.random.default_rng(20 + n)
        f = random_boson_form(rng, n)
        rep = fock.build_boson_rep(n, 40)
        h1 = fock.build_hamiltonian(f, rep)
        h2 = fock.build_standard_hamiltonian(bd.to_standard(f), rep)
        assert sp.isspmatrix_csr(h2) and h2.has_sorted_indices
        assert np.max(np.abs((h1 - h2).toarray())) <= 1e-10


def kron_ladders(n, levels, signed):
    """Dense (creation, annihilation) matrices of every mode from Kronecker
    products: a one-mode ladder on mode i, the Jordan-Wigner string
    diag(1, -1) on modes before i when signed, the identity elsewhere."""
    step = np.diag(np.sqrt(np.arange(1.0, levels)), -1)
    string = np.diag([1.0, -1.0]) if signed else np.eye(levels)
    creators = []
    for i in range(n):
        out = np.eye(1)
        for k in range(n):
            out = np.kron(out, step if k == i else (string if k < i else np.eye(levels)))
        creators.append(out)
    return creators, [c.T for c in creators]


def termwise_hamiltonian(form, creators, annihilators):
    """H = sum U_ij (d_i d_j + transpose) + V_ij (a_i d_j + transpose) + const,
    term by term, on dense or sparse ladders."""
    dim = creators[0].shape[0]
    h = form.const * (sp.identity(dim, format="csr") if sp.issparse(creators[0]) else np.eye(dim))
    for i in range(form.n):
        for j in range(form.n):
            y = form.U[i, j] * (annihilators[i] @ annihilators[j])
            x = form.V[i, j] * (creators[i] @ annihilators[j])
            h += y + y.T + x + x.T
    return h


def box_restriction(form, cutoff):
    """The form's H from termwise products of sparse Kronecker ladders on the
    box of cutoff + 1 levels per mode, restricted to the states of total
    occupation at most cutoff, as CSR without explicit zeros: every term
    passes only through states between its end states, all in that box."""
    step = sp.diags(np.sqrt(np.arange(1.0, cutoff + 1)), -1)
    eye = sp.identity(cutoff + 1)
    creators = [functools.reduce(sp.kron, [step if k == i else eye for k in range(form.n)]).tocsr()
                for i in range(form.n)]
    h = termwise_hamiltonian(form, creators, [c.T.tocsr() for c in creators]).tocsr()
    keep = box_keep(form.n, cutoff)
    out = h[keep][:, keep].tocsr()
    out.eliminate_zeros()
    out.sort_indices()
    return out


def state_by_state_hamiltonian(form, states):
    """The form's H on a list of occupation tuples, applying each nonzero term
    of M = sum U_ij a_i^+ a_j^+ + V_ij a_i a_j^+ to each state and adding M^t:
    no ladder matrix and no index arithmetic."""
    position = {m: p for p, m in enumerate(states)}
    h = form.const * np.eye(len(states))

    def annihilate(m, i):
        return (None, 0.0) if m[i] == 0 else (m[:i] + (m[i] - 1,) + m[i + 1:], np.sqrt(m[i]))

    def create(m, i):
        return m[:i] + (m[i] + 1,) + m[i + 1:], np.sqrt(m[i] + 1)

    for col, m in enumerate(states):
        for kind, coeff in (("U", form.U), ("V", form.V)):
            for i, j in zip(*np.nonzero(coeff)):
                mid, amp = annihilate(m, j)
                if mid is None:
                    continue
                end, amp2 = annihilate(mid, i) if kind == "U" else create(mid, i)
                if end in position:
                    value = coeff[i, j] * amp * amp2
                    h[position[end], col] += value
                    h[col, position[end]] += value
    return h


class TestAssemblyEngine:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_fermion_hamiltonian_matches_termwise_products(self, n):
        rep = fock.build_fermion_rep(n)
        creators, annihilators = kron_ladders(n, 2, signed=True)
        for i in range(n):
            assert np.array_equal(rep.a(i).toarray(), creators[i])
            assert np.array_equal(rep.a_dag(i).toarray(), annihilators[i])
        dense_a = [rep.a(i).toarray() for i in range(n)]
        dense_d = [rep.a_dag(i).toarray() for i in range(n)]
        for seed in range(3):
            f = random_fermion_form(np.random.default_rng(100 * n + seed), n)
            h = fock.build_hamiltonian(f, rep)
            assert sp.isspmatrix_csr(h) and h.has_sorted_indices and np.all(h.data != 0.0)
            assert np.max(np.abs(h.toarray() - termwise_hamiltonian(f, dense_a, dense_d))) <= 1e-13

    @pytest.mark.parametrize("n, cutoff", [(1, 6), (2, 4), (3, 3)])
    def test_boson_hamiltonian_matches_termwise_products(self, n, cutoff):
        # the ladders and H on the simplex are the box's restricted to it
        rep = fock.build_boson_rep(n, cutoff)
        creators, annihilators = kron_ladders(n, cutoff + 1, signed=False)
        keep = np.ix_(box_keep(n, cutoff), box_keep(n, cutoff))
        for i in range(n):
            assert np.max(np.abs(rep.a(i).toarray() - creators[i][keep])) <= 1e-15
            assert np.max(np.abs(rep.a_dag(i).toarray() - annihilators[i][keep])) <= 1e-15
        for seed in range(3):
            f = random_boson_form(np.random.default_rng(200 * n + seed), n)
            h = fock.build_hamiltonian(f, rep)
            assert sp.isspmatrix_csr(h) and h.has_sorted_indices
            box = termwise_hamiltonian(f, creators, annihilators)
            assert np.max(np.abs(h.toarray() - box[keep])) <= 1e-13

    @pytest.mark.parametrize("statistics, n, cutoff", [
        (Statistics.FERMION, 3, None), (Statistics.FERMION, 6, None),
        (Statistics.BOSON, 1, 12), (Statistics.BOSON, 2, 8), (Statistics.BOSON, 3, 5),
    ])
    def test_matvec_sums_rows_in_csr_column_order(self, statistics, n, cutoff):
        # every H is CSR with each row in column order and no explicit zeros,
        # so the Lanczos matvec multiplies H itself and sums each row in
        # column order
        rng = np.random.default_rng(500 + n)
        if statistics is Statistics.FERMION:
            f, rep = random_fermion_form(rng, n), fock.build_fermion_rep(n)
        else:
            f, rep = random_boson_form(rng, n), fock.build_boson_rep(n, cutoff)
        h = fock.build_hamiltonian(f, rep)
        assert sp.isspmatrix_csr(h) and h.has_sorted_indices and np.all(h.data != 0.0)
        assert all(np.all(np.diff(h.indices[h.indptr[r]:h.indptr[r + 1]]) > 0)
                   for r in range(rep.dim))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
    def test_sector_blocks_are_parity_slices(self, n, monkeypatch):
        # eigvalsh solves the even block for odd n and both blocks for
        # n = 2 mod 4, bit for bit on the parity slices of H; the odd sector
        # of odd n is mirrored and both sectors of n = 0 mod 4 are folded,
        # which agree with eigvalsh of the slices within dim * eps * ||H||
        blocks = []
        eigvalsh = np.linalg.eigvalsh

        def spy(matrix, *args, **kwargs):
            blocks.append(matrix.copy())
            return eigvalsh(matrix, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        f = random_fermion_form(np.random.default_rng(300 + n), n)
        spectra = fock.sector_spectra(f)
        monkeypatch.undo()
        rep = fock.build_fermion_rep(n)
        h = fock.build_hamiltonian(f, rep).toarray()
        parity = rep.occupations() % 2
        solved = {0: 0, 1: 1, 2: 2, 3: 1}[n % 4]
        assert len(blocks) == solved
        bound = rep.dim * np.finfo(float).eps * np.abs(h).sum(axis=1).max()
        for p, values in enumerate(spectra):
            idx = np.flatnonzero(parity == p)
            expected = np.linalg.eigvalsh(h[np.ix_(idx, idx)])
            if p < solved:
                assert np.array_equal(blocks[p], h[np.ix_(idx, idx)])
                assert np.array_equal(values, expected)
            else:
                assert np.all(np.diff(values) >= 0)
                assert np.max(np.abs(values - expected)) <= bound


class TestOracleMemory:
    def test_ladder_sum_working_set_refused_before_the_classes(self, monkeypatch):
        # 620 modes at cutoff 2: the 193131 states pass the dimension guard,
        # but the occupations and index maps alone need about 2.0 GiB.  The
        # ladder sum refuses from its nonzero weights before any class is
        # made; what is traced is the row of the n x n identity it picks,
        # and the traced peak is 2.9 MiB
        def refuse(*args, **kwargs):
            raise AssertionError("assembled before the guard refused")

        monkeypatch.setattr(fock, "_simplex_matrix", refuse)
        rep = fock.build_boson_rep(620, 2)
        assert refusal_peak(rep.a, 0) < 8 * 2**20
        with pytest.raises(bd.ResourceLimitError, match="bosonic assembly"):
            rep.a_dag(0)

    def test_n10_assembly_and_sector_solve_peak(self):
        # dense assembly peaked at ~656 MB here; the sparse path needs a few
        # MB, the space that sector_spectra builds for itself included
        f = random_fermion_form(np.random.default_rng(50), 10)
        tracemalloc.start()
        try:
            fock.sector_spectra(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_fine_simplex_assembly_peak(self):
        # the fine list of cutoff 24 at n = 3: 20825 states and 359513
        # entries, 4.2 MiB of CSR arrays; with the state list, its index maps
        # and the fill's per-class vectors the traced peak is 6.7 MiB
        f = bounded_boson_form(np.random.default_rng(110), 3, seed=3)
        rep = fock.build_boson_rep(3, 48)
        tracemalloc.start()
        try:
            h = fock.build_hamiltonian(f, rep)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert h.shape == (20825, 20825) and h.nnz == 359513
        assert peak < 12 * 2**20

    def test_cutoff_doubling_peak(self):
        # (3, 18) at k = 10: the fine simplex H (9139 states), the coarse one
        # (1330 states) gathered from it, then the fine simplex's Lanczos
        # basis; the traced peak is 5.5 MiB.
        # This squeezed form needs total occupation 18: at 16 its fifth
        # level moves by 1.2e-6 between the simplices
        f = bounded_boson_form(np.random.default_rng(110), 3, seed=3)
        tracemalloc.start()
        try:
            out = fock.truncation_stable_spectrum(f, cutoff=18, k=10, tol=1e-6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(out) == 10
        assert peak < 7 * 2**20


class TestExactSpectrum:
    def test_diagonal(self):
        assert np.allclose(fock.lowest_eigenvalues(sp.diags([2.0, 0.0]), 2), [0.0, 2.0])

    def test_identity(self):
        assert np.allclose(fock.lowest_eigenvalues(sp.identity(4, format="dia"), 4), np.ones(4))

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            fock.lowest_eigenvalues(sp.diags([1.0], [1], shape=(2, 2)), 2)

    def test_asymmetry_refused_at_any_scale(self):
        # a symmetric part of 1e-12 and an upper triangle of 1e-11: the
        # asymmetry is ten times the entries, which an absolute allowance of
        # 1e-10 passed
        a = np.random.default_rng(35).uniform(-1.0, 1.0, (6, 6))
        h = sp.csr_matrix(1e-12 * (a + a.T) + np.triu(np.full((6, 6), 1e-11), 1))
        for vectors in (False, True):
            with pytest.raises(ValueError, match="not symmetric"):
                fock.lowest_eigenvalues(h, 3, vectors=vectors)

    @pytest.mark.parametrize("dim", [6, 300], ids=["dense", "lanczos"])
    def test_k_below_one(self, dim):
        # k < 0 used to slice a wrong prefix off the dense spectrum, and
        # Lanczos refused k = 0 with scipy's own message
        h = sp.diags(np.arange(dim, 0.0, -1.0), format="csr")
        for k in (-1, -dim):
            with pytest.raises(ValueError, match="k must be at least 0"):
                fock.lowest_eigenvalues(h, k)
        assert fock.lowest_eigenvalues(h, 0).shape == (0,)
        vals, vecs = fock.lowest_eigenvalues(h, 0, vectors=True)
        assert vals.shape == (0,) and vecs.shape == (dim, 0)


def spy_numpy_eigensolvers(monkeypatch) -> list:
    """The names of numpy.linalg's symmetric eigensolvers, in the order
    they are called from here on."""
    calls = []
    for name in ("eigh", "eigvalsh"):
        def spy(*args, _solve=getattr(np.linalg, name), _name=name, **kwargs):
            calls.append(_name)
            return _solve(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
    return calls


class TestDenseSolveOnNumpyLapack:
    """Dense bosonic solves run on numpy's LAPACK, the one OpenBLAS that the
    Lanczos solver's products and Gram-Schmidt steps use too."""

    def test_lowest_eigenvalues(self, monkeypatch):
        a = np.random.default_rng(26).uniform(-1.0, 1.0, (150, 150))
        h = sp.csr_matrix(a + a.T)
        dense = h.toarray()
        expected = np.linalg.eigvalsh(dense)[:10]
        scale = 1e-12 * np.linalg.norm(dense, 2)
        calls = spy_numpy_eigensolvers(monkeypatch)
        assert np.max(np.abs(fock.lowest_eigenvalues(h, 10) - expected)) <= scale
        vals, vecs = fock.lowest_eigenvalues(h, 10, vectors=True)
        assert calls == ["eigvalsh", "eigh"]
        assert np.max(np.abs(vals - expected)) <= scale
        assert vecs.shape == (150, 10)
        assert np.max(np.abs(dense @ vecs - vecs * vals)) <= 10 * scale

    def test_truncation_stable_spectrum_at_cutoff_60(self, monkeypatch):
        # n = 1: simplices of 61 and 121 states, both below DENSE_EIG_LIMIT;
        # the coarse solve returns vectors for the fine start
        f = bounded_boson_form(np.random.default_rng(61), 1, seed=1)
        fine = fock._simplex_hamiltonians(f, 60)[1].toarray()
        expected = np.linalg.eigvalsh(fine)[:10]
        calls = spy_numpy_eigensolvers(monkeypatch)
        out = fock.truncation_stable_spectrum(f, cutoff=60, k=10, tol=1e-6)
        assert calls == ["eigh", "eigvalsh"]
        assert len(out) == 10
        assert np.max(np.abs(out - expected)) <= 1e-12 * np.linalg.norm(fine, 2)


def random_symmetric(rng, dim, per_row=6):
    """A sparse symmetric CSR matrix with about 2 * per_row entries a row,
    uniform in [0, 1), so its spectrum has both signs."""
    a = sp.random(dim, dim, density=per_row / dim, random_state=rng, format="csr")
    return (a + a.T).tocsr()


def lanczos_case(name):
    """A symmetric CSR matrix of dimension 201-2000 for the Lanczos solver."""
    rng = np.random.default_rng(len(name))
    if name.startswith("random"):
        return random_symmetric(rng, int(name[len("random-"):]))
    if name == "repeated":
        # every eigenvalue three times, exactly: three copies of one block.  A
        # Krylov space from one start holds one direction of each exactly
        # degenerate eigenspace, so the second and third copies are found
        # only because rounding seeds them: a check of this solver and this
        # seed, not a guarantee of multiplicity
        return sp.block_diag([random_symmetric(rng, 150)] * 3, format="csr")
    if name == "zero":
        # a positive definite block beside 4 rows and columns of zeros: the
        # lowest eigenvalue is exactly 0, four times
        a = random_symmetric(rng, 400)
        shift = abs(a).sum(axis=1).max() + 1.0
        return sp.block_diag([sp.csr_matrix((4, 4)), a + shift * sp.identity(400)],
                             format="csr")
    # "negative-zero": a state alone on the diagonal with the value 0, in a
    # spectrum of both signs
    a = random_symmetric(rng, 700).tolil()
    a[350, :] = 0.0
    a[:, 350] = 0.0
    return a.tocsr()


class TestLanczos:
    """The thick-restart Lanczos solver (dimensions above DENSE_EIG_LIMIT)."""

    @pytest.mark.parametrize("name", ["random-201", "random-500", "random-2000", "repeated",
                                      "zero", "negative-zero"])
    @pytest.mark.parametrize("k", [1, 10])
    def test_agrees_with_a_dense_solve(self, name, k):
        h = lanczos_case(name)
        spectrum = np.linalg.eigvalsh(h.toarray())
        norm = np.abs(spectrum).max()  # ||H||_2
        assert h.shape[0] > fock.DENSE_EIG_LIMIT
        assert np.max(np.abs(fock.lowest_eigenvalues(h, k) - spectrum[:k])) <= 1e-12 * norm
        vals, vecs = fock.lowest_eigenvalues(h, k, vectors=True)
        assert np.max(np.abs(vals - spectrum[:k])) <= 1e-12 * norm
        assert np.max(np.abs(vecs.T @ vecs - np.eye(k))) <= 1e-12
        assert np.max(np.linalg.norm(h @ vecs - vecs * vals, axis=0)) <= 1e-10 * norm

    @pytest.mark.parametrize("scale", [0.0, 1e-170, 1e154])
    def test_agrees_with_a_dense_solve_at_any_scale(self, scale):
        # |H v|^2 overflows at 1e154 and underflows at 1e-170, where every
        # step would pass for a breakdown; H = 0 has no scale at all
        h = lanczos_case("random-500") * scale
        spectrum = np.linalg.eigvalsh(h.toarray())
        norm = np.abs(spectrum).max()
        vals, vecs = fock.lowest_eigenvalues(h, 10, vectors=True)
        assert np.max(np.abs(vals - spectrum[:10])) <= 1e-12 * norm
        assert np.max(np.abs(vecs.T @ vecs - np.eye(10))) <= 1e-12

    def test_two_calls_are_bit_identical(self):
        h = lanczos_case("random-500")
        first, again = (fock.lowest_eigenvalues(h, 10, vectors=True) for _ in range(2))
        assert np.array_equal(first[0], again[0]) and np.array_equal(first[1], again[1])

    def test_start_on_an_exact_eigenvector(self):
        # row and column 350 hold only the diagonal 0, so e_350 is an exact
        # eigenvector: the first product lies in the basis, and the solve
        # must go on from a fresh direction
        h = lanczos_case("negative-zero")
        v0 = np.zeros(h.shape[0])
        v0[350] = 1.0
        expected = np.linalg.eigvalsh(h.toarray())[:10]
        out = fock.lowest_eigenvalues(h, 10, v0=v0)
        assert np.max(np.abs(out - expected)) <= 1e-12 * np.linalg.norm(h.toarray(), 2)

    def test_warm_start_in_an_invariant_subspace(self):
        # the diagonal 40-mode form at cutoff 1: the fine start is a sum of
        # ten exact eigenvectors, whose Krylov space ends after ten vectors
        n = 40
        f = bd.QuadraticForm(Statistics.BOSON, U=np.zeros((n, n)),
                             V=np.diag(1.0 + 0.01 * np.arange(n)), const=0.0)
        fine = fock._simplex_hamiltonians(f, 1)[1].toarray()
        expected = np.linalg.eigvalsh(fine)[:10]
        out = fock.truncation_stable_spectrum(f, cutoff=1, k=10, tol=1e-6)
        assert len(out) == 10
        assert np.max(np.abs(out - expected)) <= 1e-12 * np.linalg.norm(fine, 2)

    def test_nan_matrix_raises_within_one_pass(self):
        # one pass is ncv = 24 products; a budget of 100 * dim passes would
        # take minutes
        class Counted(sp.csr_matrix):
            products = 0

            def __matmul__(self, other):
                Counted.products += 1
                return super().__matmul__(other)

        h = Counted(lanczos_case("random-500"))
        h.data[0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            fock.lowest_eigenvalues(h, 10)
        assert 0 < Counted.products <= 24


class TestParitySectors:
    def test_n1(self):
        parity = fock.build_fermion_rep(1).occupations() % 2
        assert np.array_equal(parity == 0, [True, False])
        assert np.array_equal(parity == 1, [False, True])

    def test_n2_even_states(self):
        parity = fock.build_fermion_rep(2).occupations() % 2
        # vacuum (index 0) and the doubly occupied state (index 3)
        assert np.array_equal(parity == 0, [True, False, False, True])

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_projector_algebra(self, n):
        # the sector projectors are diagonal; their diagonals are these masks
        parity = fock.build_fermion_rep(n).occupations() % 2
        even, odd = parity == 0, parity == 1
        assert np.array_equal(even ^ odd, np.ones(2 ** n, dtype=bool))
        assert int(even.sum()) == int(odd.sum()) == 2 ** (n - 1)


class TestTruncationStable:
    def test_number_ladder_stable(self):
        f = bd.QuadraticForm(Statistics.BOSON, U=[[0.0]], V=[[1.0]], const=0.0)
        out = fock.truncation_stable_spectrum(f, cutoff=40, k=5, tol=1e-9)
        assert isinstance(out, np.ndarray) and len(out) == 5
        assert np.allclose(out, [0.0, 2.0, 4.0, 6.0, 8.0], atol=1e-9)

    def test_inverted_mode_has_no_stable_prefix(self):
        # T = R = 1/2: U = 1, V = 0, eigenvalues drift with the cutoff
        f = bd.QuadraticForm(Statistics.BOSON, U=[[1.0]], V=[[0.0]], const=0.0)
        out = fock.truncation_stable_spectrum(f, cutoff=30, k=5, tol=1e-9)
        assert len(out) < 5

    def test_k_zero(self):
        f = bd.QuadraticForm(Statistics.BOSON, U=[[0.0]], V=[[1.0]], const=0.0)
        out = fock.truncation_stable_spectrum(f, cutoff=10, k=0, tol=1e-9)
        assert out.shape == (0,)

    def test_k_negative_refused(self):
        f = bd.QuadraticForm(Statistics.BOSON, U=[[0.0]], V=[[1.0]], const=0.0)
        with pytest.raises(ValueError, match="k must be at least 0"):
            fock.truncation_stable_spectrum(f, cutoff=5, k=-2, tol=1e-6)

    def test_fermion_rejected(self):
        f = bd.QuadraticForm(Statistics.FERMION, U=[[0.0]], V=[[1.0]], const=0.0)
        with pytest.raises(ValueError):
            fock.truncation_stable_spectrum(f, cutoff=10, k=1, tol=1e-9)

    def test_fine_simplex_guard_refuses_before_any_assembly(self, monkeypatch):
        # the coarse list C(56, 3) = 27720 passes the guard, the fine list
        # C(109, 3) = 209934 does not
        def refuse(*args, **kwargs):
            raise AssertionError("assembled or solved before the guard refused")

        monkeypatch.setattr(fock, "lowest_eigenvalues", refuse)
        monkeypatch.setattr(fock, "build_hamiltonian", refuse)
        f = bd.QuadraticForm(Statistics.BOSON, U=np.zeros((3, 3)), V=np.eye(3), const=0.0)
        with pytest.raises(bd.ResourceLimitError, match="209934"):
            fock.truncation_stable_spectrum(f, cutoff=53, k=10, tol=1e-6)

    def test_overflowing_hamiltonian_refused_before_any_assembly(self, monkeypatch):
        # H's entries reach 2e308 * 6 on the fine list of cutoff 6: assembled,
        # they were NaN, with an "invalid value" warning; the Lanczos solve
        # would then spend its whole budget on them
        def refuse(*args, **kwargs):
            raise AssertionError("assembled or solved before the overflow was refused")

        monkeypatch.setattr(fock, "lowest_eigenvalues", refuse)
        monkeypatch.setattr(fock, "build_hamiltonian", refuse)
        f = bd.QuadraticForm(Statistics.BOSON, U=np.array([[0.0, 1e308], [1e308, 0.0]]),
                             V=1e308 * np.eye(2), const=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(bd.ValidationError) as info:
                fock.truncation_stable_spectrum(f, cutoff=3, k=10, tol=1e-6)
        assert [v.check for v in info.value.violations] == ["derived_finite"]

    @pytest.mark.parametrize("n, cutoff", [(1, 40), (2, 8), (3, 5)])
    def test_one_assembly_per_doubling(self, monkeypatch, n, cutoff):
        # only the fine list is assembled; the coarse H is gathered from it
        cutoffs = []
        build = fock.build_hamiltonian

        def spy(form, rep):
            cutoffs.append(rep.cutoff)
            return build(form, rep)

        monkeypatch.setattr(fock, "build_hamiltonian", spy)
        f = bounded_boson_form(np.random.default_rng(95 + n), n, seed=n)
        fock.truncation_stable_spectrum(f, cutoff=cutoff, k=5, tol=1e-6)
        assert cutoffs == [2 * cutoff]

    def test_assembly_working_set_refused_before_allocation(self, monkeypatch):
        # 600 modes at cutoff 1: the fine list C(602, 2) = 180901 passes the
        # dimension guard, but its index maps and the 216 million entries of
        # a dense form need about 4.3 GiB.  The refusal comes before the
        # 720 thousand classes are made; what is traced is the form's
        # coefficient sums, 2.7 MiB each, and the traced peak is 8.3 MiB
        def refuse(*args, **kwargs):
            raise AssertionError("solved before the guard refused")

        monkeypatch.setattr(fock, "lowest_eigenvalues", refuse)
        n = 600
        u = np.random.default_rng(600).uniform(-0.01, 0.01, (n, n))
        f = bd.QuadraticForm(Statistics.BOSON, U=u + u.T, V=np.eye(n) + u @ u.T, const=0.0)
        tracemalloc.start()
        try:
            with pytest.raises(bd.ResourceLimitError, match="bosonic assembly"):
                fock.truncation_stable_spectrum(f, cutoff=1, k=10, tol=1e-6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestWarmStart:
    @pytest.mark.parametrize("n, cutoff", [(1, 10), (2, 8), (3, 5)])
    def test_coarse_hamiltonian_is_principal_submatrix(self, n, cutoff):
        f = random_boson_form(np.random.default_rng(60 + n), n)
        coarse = fock.build_hamiltonian(f, fock.build_boson_rep(n, cutoff)).toarray()
        fine = fock.build_hamiltonian(f, fock.build_boson_rep(n, 2 * cutoff))
        e = simplex_embedding(n, cutoff, 2 * cutoff)
        assert np.array_equal(coarse, fine[e][:, e].toarray())

    @pytest.mark.parametrize("n, cutoff", [(2, 20), (3, 8)])
    def test_interlacing(self, n, cutoff):
        for seed in range(3):
            f = random_boson_form(np.random.default_rng(70 + seed), n)
            coarse, fine = (
                fock.lowest_eigenvalues(fock.build_hamiltonian(f, fock.build_boson_rep(n, c)), 10)
                for c in (cutoff, 2 * cutoff)
            )
            assert np.all(fine <= coarse + 1e-12)

    @pytest.mark.parametrize("n, cutoff", [(2, 40), (3, 16)])
    @pytest.mark.parametrize("k", [1, 10])
    def test_matches_cold_fine_solve(self, n, cutoff, k):
        f = bounded_boson_form(np.random.default_rng(80 + n), n, seed=n, spread=0.15)
        out = fock.truncation_stable_spectrum(f, cutoff=cutoff, k=k, tol=1e-6)
        cold = fock.lowest_eigenvalues(fock._simplex_hamiltonians(f, cutoff)[1], k)
        assert len(out) == k
        assert np.max(np.abs(out - cold)) <= 1e-10

    def test_fine_start_lives_in_the_coarse_simplex(self, monkeypatch):
        n, cutoff = 2, 40  # simplices of 861 and 3321 states, both solved by Lanczos
        starts = []
        lanczos = fock._lanczos

        def spy(matrix, v0, *args):
            starts.append(v0.copy())
            return lanczos(matrix, v0, *args)

        monkeypatch.setattr(fock, "_lanczos", spy)
        f = bounded_boson_form(np.random.default_rng(90), n, seed=5)
        fock.truncation_stable_spectrum(f, cutoff=cutoff, k=5, tol=1e-6)
        coarse, fine = starts
        assert np.array_equal(coarse, np.random.default_rng(0).standard_normal(861))
        inside = np.zeros(3321, dtype=bool)
        inside[simplex_embedding(n, cutoff, 2 * cutoff)] = True
        assert np.all(fine[~inside] == 0.0)
        assert np.linalg.norm(fine[inside]) > 0.5


class TestSimplex:
    @pytest.mark.parametrize("n, cutoff", [(1, 10), (2, 8), (3, 5)])
    def test_states_are_the_simplex_in_box_order(self, n, cutoff):
        coarse, fine, inner = fock._simplex_hamiltonians(
            random_boson_form(np.random.default_rng(n), n), cutoff)
        assert len(simplex_states(n, cutoff)) == math.comb(cutoff + n, n) == coarse.shape[0]
        assert len(simplex_states(n, 2 * cutoff)) == math.comb(2 * cutoff + n, n) == fine.shape[0]
        assert np.array_equal(inner, simplex_embedding(n, cutoff, 2 * cutoff))

    @pytest.mark.parametrize("n, cutoff", [(1, 10), (2, 8), (3, 5)])
    def test_coarse_hamiltonian_is_principal_submatrix(self, n, cutoff):
        f = random_boson_form(np.random.default_rng(160 + n), n)
        coarse, fine = (h.toarray() for h in fock._simplex_hamiltonians(f, cutoff)[:2])
        e = simplex_embedding(n, cutoff, 2 * cutoff)
        assert np.array_equal(coarse, fine[np.ix_(e, e)])

    @pytest.mark.parametrize("n, cutoff", [(1, 10), (2, 8), (3, 5)])
    def test_restriction_of_the_box(self, n, cutoff):
        # the simplex H holds the entries of a box H among simplex states
        # (the box of termwise Kronecker products, within rounding), each
        # row in column order, and no explicit zeros
        f = random_boson_form(np.random.default_rng(170 + n), n)
        box = box_restriction(f, cutoff).toarray()
        h = fock._simplex_hamiltonians(f, cutoff)[0]
        assert sp.isspmatrix_csr(h) and h.has_sorted_indices
        assert np.all(h.data != 0.0)
        assert np.max(np.abs(h.toarray() - box)) <= 1e-13 * np.abs(box).max()

    @pytest.mark.parametrize("n, cutoff", [(1, 10), (2, 8), (3, 5)])
    def test_coarse_csr_is_the_coarse_box_restriction(self, n, cutoff):
        # both simplex H store exactly the nonzero entries of the box's
        # restriction, row by row in column order; the values agree within
        # rounding.  The coarse H gathered from the fine one is, array for
        # array, the H assembled on the coarse list
        f = random_boson_form(np.random.default_rng(175 + n), n)
        simplices = fock._simplex_hamiltonians(f, cutoff)
        for c, h in zip((cutoff, 2 * cutoff), simplices):
            own = box_restriction(f, c)
            assert np.array_equal(h.indptr, own.indptr)
            assert np.array_equal(h.indices, own.indices)
            assert np.max(np.abs(h.data - own.data)) <= 1e-13 * np.abs(own.data).max()
        assembled = fock.build_hamiltonian(f, fock.build_boson_rep(n, cutoff))
        for part in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(simplices[0], part), getattr(assembled, part))

    def test_matches_state_by_state_terms_at_40_modes(self):
        # the fine list of cutoff 1 at n = 40 (861 states): mixed-radix keys
        # of base 5 would pass 2^63 here; the index maps count states
        n, cutoff = 40, 1
        rng = np.random.default_rng(40)
        hop, pair = rng.uniform(-0.1, 0.1, n - 1), rng.uniform(-0.1, 0.1, n)
        f = bd.QuadraticForm(Statistics.BOSON, U=np.diag(pair[:-1], 1) + np.diag(pair[:-1], -1)
                             + np.diag(pair), V=np.diag(1.0 + 0.01 * np.arange(n))
                             + np.diag(hop, 1) + np.diag(hop, -1), const=0.25)
        states = [tuple(m) for m in fock.build_boson_rep(n, 2 * cutoff)._digits.T]
        assert len(set(states)) == len(states) == 861 and states == sorted(states)
        assert all(sum(m) <= 2 and min(m) >= 0 for m in states)
        h = fock._simplex_hamiltonians(f, cutoff)[1]
        assert h.has_sorted_indices and np.all(h.data != 0.0)
        assert np.max(np.abs(h.toarray() - state_by_state_hamiltonian(f, states))) <= 1e-14

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_eigenvalues_bound_the_closed_form_from_above(self, n):
        # min-max: a principal submatrix of the untruncated operator has
        # every eigenvalue above the true level of the same rank, within
        # the rounding of a dense solve; at the fine cutoffs the two agree
        # to about 1e-12
        cutoff = {1: 12, 2: 8, 3: 5}[n]
        for seed in range(3):
            f = bounded_boson_form(np.random.default_rng(180 + 10 * n + seed), n, seed=seed)
            closed = bd.boson_spectrum(bd.diagonalize_boson(bd.to_standard(f)), 10).energies
            for h in fock._simplex_hamiltonians(f, cutoff)[:2]:
                rounding = h.shape[0] * np.finfo(float).eps * abs(h).sum(axis=1).max()
                assert np.all(fock.lowest_eigenvalues(h, 10) >= closed - rounding)

    @pytest.mark.parametrize("cutoff", [40, 150])
    def test_n1_is_the_box_bit_for_bit(self, cutoff):
        # at n = 1 the simplex is the box, and H is the textbook one-mode
        # matrix: <m|H|m> = const + 2 V m, <m|H|m+2> = U sqrt((m+1)(m+2))
        f = random_boson_form(np.random.default_rng(190), 1)
        (u,), (v,) = f.U[0], f.V[0]
        m = np.arange(cutoff + 1.0)
        two_up = u * np.sqrt((m[:-2] + 1.0) * (m[:-2] + 2.0))
        box = sp.csr_matrix(np.diag(f.const + 2.0 * v * m) + np.diag(two_up, 2) + np.diag(two_up, -2))
        h = fock._simplex_hamiltonians(f, cutoff)[0]
        assert np.array_equal(h.toarray(), box.toarray())
        x = np.random.default_rng(191).standard_normal(cutoff + 1)
        assert np.array_equal(h @ x, box @ x)

    @pytest.mark.parametrize("n, cutoff, which, scale", [
        pytest.param(2, 20, 0, 1.0, id="2-20"), pytest.param(3, 8, 0, 1.0, id="3-8"),
        pytest.param(2, 20, 1, 1.0, id="2-20-fine"), pytest.param(3, 8, 1, 1.0, id="3-8-fine"),
        pytest.param(2, 5, 1, 0.0, id="all-zero"),
    ])
    def test_row_sum_bound_sums_each_row_in_column_order(self, n, cutoff, which, scale):
        # the fine H (which = 1) is assembled, the coarse one gathered from it
        # by scipy's fancy indexing, which makes its index arrays anew; the
        # zero form stores no entry, and its bound is 0.0
        f = random_boson_form(np.random.default_rng(n), n)
        f = bd.QuadraticForm(Statistics.BOSON, U=scale * f.U, V=scale * f.V, const=scale * f.const)
        h = fock._simplex_hamiltonians(f, cutoff)[which]
        assert (h.nnz == 0) == (scale == 0.0)
        rows = (h.data[h.indptr[r]:h.indptr[r + 1]] for r in range(h.shape[0]))
        bound = fock._row_sum_bound(h)
        assert bound == max(sum(abs(v) for v in row) for row in rows)
        assert isinstance(bound, float)


class TestEigensolveGuard:
    @pytest.mark.parametrize("dim, k", [
        (24389, 24388),  # dense fallback: k >= dim - 1, ~4.4 GiB per copy
        (185193, 30000),  # Lanczos: a 185193 x 60004 basis, allocated twice
    ])
    def test_refused_before_allocation(self, dim, k):
        matrix = sp.identity(dim, format="dia")
        tracemalloc.start()
        try:
            with pytest.raises(bd.ResourceLimitError):
                fock.lowest_eigenvalues(matrix, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("vectors", [False, True])
    def test_lanczos_estimate_bounds_the_traced_peak(self, vectors):
        # (3, 32): the simplex of 6545 states, a 24-vector basis at k = 10
        f = bounded_boson_form(np.random.default_rng(100), 3, seed=3)
        h = fock.build_hamiltonian(f, fock.build_boson_rep(3, 32)).tocsr()
        dim, ncv, kept, k = h.shape[0], 24, 17, 10
        # the start vector, the basis of ncv vectors and the residual, the
        # last product, and the kept Ritz vectors a restart makes, k + 7
        estimate = 8 * dim * (1 + (ncv + 1) + 1 + kept)
        tracemalloc.start()
        try:
            out = fock.lowest_eigenvalues(h, k, vectors=vectors)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the estimate counts the arrays of length dim; the ncv x ncv
        # projected matrix, its eigenvectors and numpy's bookkeeping add a
        # few KB on top.  The returned vectors (k of them) are made when the
        # kept Ritz vectors are gone, so they add nothing to the peak
        assert 0.85 * estimate <= peak <= estimate + 2**16
        if vectors:
            vals, vecs = out
            assert vals.shape == (k,) and vecs.shape == (dim, k)
            norm_1 = abs(h).sum(axis=0).max()
            residuals = np.linalg.norm(h @ vecs - vecs * vals, axis=0)
            assert np.all(residuals <= 1e-8 * norm_1)

    def test_dense_solve_peak(self):
        # the matrix, LAPACK's copy and the eigenvectors: the estimate is
        # 3 * 8 * dim^2, and the traced peak, which leaves out LAPACK's own
        # copy, stays at about two of those arrays
        dim = 200
        a = np.random.default_rng(200).uniform(-1.0, 1.0, (dim, dim))
        h = sp.csr_matrix(a + a.T)
        tracemalloc.start()
        try:
            vals, vecs = fock.lowest_eigenvalues(h, 10, vectors=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert vals.shape == (10,) and vecs.shape == (dim, 10)
        assert peak < 2.5 * 8 * dim * dim

    def test_admitted_dense_fallback_still_solves(self):
        vals = fock.lowest_eigenvalues(sp.diags(np.arange(1300.0, 0.0, -1.0)), 1299)
        assert np.array_equal(vals, np.arange(1.0, 1300.0))


def summed_mode_operators(rep, b):
    """(b_k, b_k^+) as sums of the CSR ladders: b_k, b_k^+ = (x_k -/+ z_k) / 2
    with x_k = sum_i p_ki (a_i + a_i^+) and z_k = sum_i q_ki (a_i^+ - a_i)."""
    if b.statistics is Statistics.FERMION:
        p, q = b.o_plus, b.o_minus.T
    else:
        p, q = np.linalg.inv(b.S).T, b.S
    xs = [rep.a(i) + rep.a_dag(i) for i in range(b.n)]
    zs = [rep.a_dag(i) - rep.a(i) for i in range(b.n)]
    out = []
    for k in range(b.n):
        xk = sum(p[k, i] * xs[i] for i in range(b.n))
        zk = sum(q[k, i] * zs[i] for i in range(b.n))
        out.append(((xk - zk) / 2.0, (xk + zk) / 2.0))
    return out


class TestTransformedModes:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_fermion_modes_equal_ladder_sums(self, n):
        rep = fock.build_fermion_rep(n)
        b = bd.random_canonical(Statistics.FERMION, n, seed=60 + n)
        modes = fock.bogoliubov_mode_operators(rep, b)
        for got, want in zip(modes, summed_mode_operators(rep, b), strict=True):
            for g, w in zip(got, want):
                assert sp.isspmatrix_csr(g)
                assert np.array_equal(g.toarray(), w.toarray())

    @pytest.mark.parametrize("n,cutoff", [(1, 16), (2, 12), (3, 8)])
    def test_boson_modes_match_ladder_sums(self, n, cutoff):
        rep = fock.build_boson_rep(n, cutoff)
        b = bd.random_canonical(Statistics.BOSON, n, seed=60 + n)
        modes = fock.bogoliubov_mode_operators(rep, b)
        for got, want in zip(modes, summed_mode_operators(rep, b), strict=True):
            for g, w in zip(got, want):
                assert sp.isspmatrix_csr(g)
                assert np.max(np.abs(g.toarray() - w.toarray())) <= 1e-15

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_fermion_car_and_operator_equality(self, n):
        rng = np.random.default_rng(30 + n)
        f = random_fermion_form(rng, n)
        std = bd.to_standard(f)
        b = bd.random_canonical(Statistics.FERMION, n, seed=n, positive=True)
        std2 = bd.apply_transform(std, b)
        rep = fock.build_fermion_rep(n)
        modes = fock.bogoliubov_mode_operators(rep, b)
        eye = np.eye(rep.dim)
        for bk, bk_dag in modes:
            assert np.max(np.abs(bk_dag @ bk + bk @ bk_dag - eye)) <= 1e-12
        xs = [bk + bk_dag for bk, bk_dag in modes]
        zs = [bk_dag - bk for bk, bk_dag in modes]
        rebuilt = sum(std2.C[i, j] * (xs[i] @ zs[j]) for i in range(n) for j in range(n))
        rebuilt = rebuilt + std2.k0 * eye
        original = fock.build_standard_hamiltonian(std, rep)
        assert np.max(np.abs(rebuilt - original)) <= 1e-10

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_fermion_closed_form_drives_oracle(self, n):
        std = bd.to_standard(random_fermion_form(np.random.default_rng(40 + n), n))
        data = bd.diagonalize_fermion(std)
        rep = fock.build_fermion_rep(n)
        modes = fock.bogoliubov_mode_operators(rep, data.transform)
        rebuilt = data.k0 * np.eye(rep.dim)
        for lam, (bk, bk_dag) in zip(data.lambdas, modes):
            rebuilt += lam * ((bk + bk_dag) @ (bk_dag - bk)).toarray()
        original = fock.build_standard_hamiltonian(std, rep).toarray()
        assert np.max(np.abs(rebuilt - original)) <= 1e-10

    @pytest.mark.parametrize("n,cutoff", [(1, 16), (2, 12), (3, 8)])
    def test_boson_closed_form_drives_oracle(self, n, cutoff):
        std = bd.to_standard(bounded_boson_form(np.random.default_rng(50 + n), n, seed=n))
        data = bd.diagonalize_boson(std)
        rep = fock.build_boson_rep(n, cutoff)
        modes = fock.bogoliubov_mode_operators(rep, data.transform)
        rebuilt = data.k0 * np.eye(rep.dim)
        for mode, (bk, bk_dag) in zip(data.modes, modes):
            xk, zk = bk + bk_dag, bk_dag - bk
            rebuilt += (mode.t * (xk @ xk) + mode.r * (zk @ zk)).toarray()
        original = fock.build_standard_hamiltonian(std, rep).toarray()
        sel = np.ix_(*[safe_states(n, cutoff)] * 2)
        assert np.max(np.abs(rebuilt[sel] - original[sel])) <= 1e-10

    def test_boson_ccr_on_safe_subspace(self):
        n, cutoff = 2, 12
        rep = fock.build_boson_rep(n, cutoff)
        b = bd.random_canonical(Statistics.BOSON, n, seed=3, positive=True)
        modes = fock.bogoliubov_mode_operators(rep, b)
        sel = safe_states(n, cutoff)
        for bk, bk_dag in modes:
            comm = (bk_dag @ bk - bk @ bk_dag)[np.ix_(sel, sel)]
            assert np.max(np.abs(comm - np.eye(len(sel)))) <= 1e-10
