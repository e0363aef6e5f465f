import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from conftest import bounded_boson_form, random_boson_form, random_fermion_form

import bogodiag as bd
from bogodiag import Statistics, fock


def box_embedding(n, cutoff, fine_cutoff):
    """Fine-basis index of each coarse basis vector, digit by digit."""
    idx = np.arange((cutoff + 1) ** n)
    out = np.zeros_like(idx)
    weight = 1
    for _ in range(n):  # least significant digit (mode n-1) first
        out += (idx % (cutoff + 1)) * weight
        idx = idx // (cutoff + 1)
        weight *= fine_cutoff + 1
    return out


class TestFermionRep:
    def test_n1_matrices(self):
        rep = bd.build_fermion_rep(1)
        assert np.array_equal(rep.a(0), [[0, 0], [1, 0]])
        assert np.array_equal(rep.a_dag(0), [[0, 1], [0, 0]])

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_anticommutators_exact(self, n):
        rep = bd.build_fermion_rep(n)
        eye = np.eye(rep.dim, dtype=np.int64)
        for i in range(n):
            for j in range(n):
                ai, aj = rep.a(i), rep.a(j)
                di, dj = rep.a_dag(i), rep.a_dag(j)
                assert np.array_equal(di @ aj + aj @ di, (eye if i == j else 0 * eye))
                assert np.array_equal(ai @ aj + aj @ ai, 0 * eye)
                assert np.array_equal(di @ dj + dj @ di, 0 * eye)

    def test_vacuum_killed_by_adjoint(self):
        rep = bd.build_fermion_rep(3)
        vac = np.zeros(rep.dim)
        vac[0] = 1.0
        for i in range(3):
            assert np.array_equal(rep.a_dag(i) @ vac, np.zeros(rep.dim))

    def test_transpose_pairing(self):
        rep = bd.build_fermion_rep(3)
        for i in range(3):
            assert np.array_equal(rep.a_dag(i), rep.a(i).T)

    def test_creation_anticommute(self):
        rep = bd.build_fermion_rep(3)
        a1, a2 = rep.a(0), rep.a(1)
        assert np.array_equal(a1 @ a2, -(a2 @ a1))

    def test_guard(self):
        with pytest.raises(bd.ResourceLimitError):
            bd.build_fermion_rep(13)
        with pytest.raises(ValueError):
            bd.build_fermion_rep(0)


class TestBosonRep:
    def test_ladder_amplitudes(self):
        rep = bd.build_boson_rep(1, 2)
        a = rep.a(0).toarray()
        assert np.allclose(a, [[0, 0, 0], [1, 0, 0], [0, np.sqrt(2), 0]])
        comm = rep.a_dag(0) @ rep.a(0) - rep.a(0) @ rep.a_dag(0)
        assert np.allclose(comm.toarray(), np.diag([1.0, 1.0, -2.0]))

    def test_commutator_identity_below_top_rung(self):
        rep = bd.build_boson_rep(1, 40)
        comm = (rep.a_dag(0) @ rep.a(0) - rep.a(0) @ rep.a_dag(0)).toarray()
        assert np.allclose(comm[:40, :40], np.eye(40))

    def test_dimension(self):
        assert bd.build_boson_rep(2, 5).dim == 36

    def test_guard(self, monkeypatch):
        with pytest.raises(bd.ResourceLimitError):
            bd.build_boson_rep(3, 60)  # 61^3 > 200000
        monkeypatch.setattr(fock, "BOSON_DIM_GUARD", 300_000)
        bd.build_boson_rep(3, 60)
        for n, cutoff in [(0, 5), (1, 0)]:
            with pytest.raises(ValueError):
                bd.build_boson_rep(n, cutoff)


class TestBuildHamiltonian:
    def test_fermion_number_operator(self):
        rep = bd.build_fermion_rep(1)
        f = bd.QuadraticForm(Statistics.FERMION, U=[[0.0]], V=[[1.0]], const=0.0)
        assert np.allclose(bd.build_hamiltonian(f, rep).toarray(), np.diag([0.0, 2.0]))

    def test_fermion_rotation_form_eigenvalues(self):
        u = 1.0
        rep = bd.build_fermion_rep(2)
        f = bd.QuadraticForm(Statistics.FERMION, U=[[0.0, u], [-u, 0.0]], V=np.zeros((2, 2)))
        vals = bd.lowest_eigenvalues(bd.build_hamiltonian(f, rep), rep.dim)
        assert np.allclose(vals, [-2.0, 0.0, 0.0, 2.0], atol=1e-12)

    def test_boson_number_ladder_two_cutoffs(self):
        f = bd.QuadraticForm(Statistics.BOSON, U=[[0.0]], V=[[1.0]], const=0.0)
        v40 = bd.lowest_eigenvalues(bd.build_hamiltonian(f, bd.build_boson_rep(1, 40)), 41)
        v80 = bd.lowest_eigenvalues(bd.build_hamiltonian(f, bd.build_boson_rep(1, 80)), 81)
        assert np.allclose(v40[:10], np.arange(0, 20, 2), atol=1e-10)
        assert np.allclose(v40[:20], v80[:20], atol=1e-9)

    @pytest.mark.parametrize("statistics", [Statistics.BOSON, Statistics.FERMION])
    def test_linearity_and_symmetry(self, statistics):
        rng = np.random.default_rng(4)
        n = 2
        make = random_boson_form if statistics is Statistics.BOSON else random_fermion_form
        f1, f2 = make(rng, n), make(rng, n)
        rep = bd.build_boson_rep(n, 6) if statistics is Statistics.BOSON else bd.build_fermion_rep(n)
        both = bd.QuadraticForm(statistics, U=f1.U + f2.U, V=f1.V + f2.V, const=f1.const + f2.const)
        h1, h2, h12 = (bd.build_hamiltonian(f, rep) for f in (f1, f2, both))
        if statistics is Statistics.BOSON:
            h1, h2, h12 = h1.toarray(), h2.toarray(), h12.toarray()
        assert np.max(np.abs(h12 - h1 - h2)) <= 1e-12
        assert np.max(np.abs(h1 - h1.T)) <= 1e-12

    def test_mismatch_rejected(self):
        rep = bd.build_fermion_rep(2)
        f = bd.QuadraticForm(Statistics.BOSON, U=np.zeros((2, 2)), V=np.eye(2))
        with pytest.raises(ValueError):
            bd.build_hamiltonian(f, rep)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_standard_form_operator_equality_fermion(self, n):
        rng = np.random.default_rng(10 + n)
        f = random_fermion_form(rng, n)
        rep = bd.build_fermion_rep(n)
        dev = np.max(np.abs(bd.build_hamiltonian(f, rep)
                            - bd.build_standard_hamiltonian(bd.to_standard(f), rep)))
        assert dev <= 1e-10

    @pytest.mark.parametrize("n", [1, 2])
    def test_standard_form_operator_equality_boson(self, n):
        # agreement holds on the subspace untouched by the cutoff
        rng = np.random.default_rng(20 + n)
        f = random_boson_form(rng, n)
        cutoff = 40
        rep = bd.build_boson_rep(n, cutoff)
        h1 = bd.build_hamiltonian(f, rep).toarray()
        h2 = bd.build_standard_hamiltonian(bd.to_standard(f), rep).toarray()
        base = cutoff + 1
        idx = np.arange(rep.dim)
        safe = np.ones(rep.dim, dtype=bool)
        for _ in range(n):
            safe &= (idx % base) <= cutoff - 2
            idx = idx // base
        sel = np.flatnonzero(safe)
        dev = np.max(np.abs((h1 - h2)[np.ix_(sel, sel)]))
        assert dev <= 1e-10


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
    """H = sum U_ij (d_i d_j + transpose) + V_ij (a_i d_j + transpose) + const, term by term."""
    dim = creators[0].shape[0]
    h = form.const * np.eye(dim)
    for i in range(form.n):
        for j in range(form.n):
            y = form.U[i, j] * (annihilators[i] @ annihilators[j])
            x = form.V[i, j] * (creators[i] @ annihilators[j])
            h += y + y.T + x + x.T
    return h


class TestAssemblyEngine:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_fermion_hamiltonian_matches_termwise_products(self, n):
        rep = bd.build_fermion_rep(n)
        creators, annihilators = kron_ladders(n, 2, signed=True)
        for i in range(n):
            assert rep.a(i).dtype == rep.a_dag(i).dtype == np.int64
            assert np.array_equal(rep.a(i), creators[i])
            assert np.array_equal(rep.a_dag(i), annihilators[i])
        dense_a = [rep.a(i).astype(float) for i in range(n)]
        dense_d = [rep.a_dag(i).astype(float) for i in range(n)]
        for seed in range(3):
            f = random_fermion_form(np.random.default_rng(100 * n + seed), n)
            h = bd.build_hamiltonian(f, rep)
            assert sp.isspmatrix_csr(h)
            assert np.max(np.abs(h.toarray() - termwise_hamiltonian(f, dense_a, dense_d))) <= 1e-13

    @pytest.mark.parametrize("n, cutoff", [(1, 6), (2, 4), (3, 3)])
    def test_boson_hamiltonian_matches_termwise_products(self, n, cutoff):
        rep = bd.build_boson_rep(n, cutoff)
        creators, annihilators = kron_ladders(n, cutoff + 1, signed=False)
        for i in range(n):
            assert np.max(np.abs(rep.a(i).toarray() - creators[i])) <= 1e-15
            assert np.max(np.abs(rep.a_dag(i).toarray() - annihilators[i])) <= 1e-15
        dense_a = [rep.a(i).toarray() for i in range(n)]
        dense_d = [rep.a_dag(i).toarray() for i in range(n)]
        for seed in range(3):
            f = random_boson_form(np.random.default_rng(200 * n + seed), n)
            h = bd.build_hamiltonian(f, rep)
            assert sp.isspmatrix_csr(h)
            assert np.max(np.abs(h.toarray() - termwise_hamiltonian(f, dense_a, dense_d))) <= 1e-13

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_sector_blocks_are_parity_slices(self, n, monkeypatch):
        blocks = []
        eigvalsh = np.linalg.eigvalsh

        def spy(matrix, *args, **kwargs):
            blocks.append(matrix.copy())
            return eigvalsh(matrix, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        f = random_fermion_form(np.random.default_rng(300 + n), n)
        rep = bd.build_fermion_rep(n)
        even, odd = bd.sector_spectra(f, rep)
        monkeypatch.undo()
        h = bd.build_hamiltonian(f, rep).toarray()
        parity = rep.occupations() % 2
        assert len(blocks) == 2
        for block, values, p in zip(blocks, (even, odd), (0, 1)):
            idx = np.flatnonzero(parity == p)
            assert np.array_equal(block, h[np.ix_(idx, idx)])
            assert np.array_equal(values, np.linalg.eigvalsh(h[np.ix_(idx, idx)]))


class TestOracleMemory:
    def test_n10_assembly_and_sector_solve_peak(self):
        # dense assembly peaked at ~656 MB here; the sparse path needs a few MB
        f = random_fermion_form(np.random.default_rng(50), 10)
        tracemalloc.start()
        try:
            rep = bd.build_fermion_rep(10)
            bd.sector_spectra(f, rep)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


class TestExactSpectrum:
    def test_diagonal(self):
        assert np.allclose(bd.lowest_eigenvalues(np.diag([2.0, 0.0]), 2), [0.0, 2.0])

    def test_identity(self):
        assert np.allclose(bd.lowest_eigenvalues(np.eye(4), 4), np.ones(4))

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            bd.lowest_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]), 2)


class TestParitySectors:
    def test_n1(self):
        parity = bd.build_fermion_rep(1).occupations() % 2
        assert np.array_equal(parity == 0, [True, False])
        assert np.array_equal(parity == 1, [False, True])

    def test_n2_even_states(self):
        parity = bd.build_fermion_rep(2).occupations() % 2
        # vacuum (index 0) and the doubly occupied state (index 3)
        assert np.array_equal(parity == 0, [True, False, False, True])

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_projector_algebra(self, n):
        # the sector projectors are diagonal; their diagonals are these masks
        parity = bd.build_fermion_rep(n).occupations() % 2
        even, odd = parity == 0, parity == 1
        assert np.array_equal(even ^ odd, np.ones(2 ** n, dtype=bool))
        assert int(even.sum()) == int(odd.sum()) == 2 ** (n - 1)


class TestTruncationStable:
    def test_number_ladder_stable(self):
        f = bd.QuadraticForm(Statistics.BOSON, U=[[0.0]], V=[[1.0]], const=0.0)
        out = bd.truncation_stable_spectrum(f, cutoff=40, k=5, tol=1e-9)
        assert out.warning is None
        assert np.allclose(out.values, [0.0, 2.0, 4.0, 6.0, 8.0], atol=1e-9)

    def test_inverted_mode_has_no_stable_prefix(self):
        # T = R = 1/2: U = 1, V = 0, eigenvalues drift with the cutoff
        f = bd.QuadraticForm(Statistics.BOSON, U=[[1.0]], V=[[0.0]], const=0.0)
        out = bd.truncation_stable_spectrum(f, cutoff=30, k=5, tol=1e-9)
        assert out.stable_count < 5
        assert out.warning is not None

    def test_k_zero(self):
        f = bd.QuadraticForm(Statistics.BOSON, U=[[0.0]], V=[[1.0]], const=0.0)
        out = bd.truncation_stable_spectrum(f, cutoff=10, k=0, tol=1e-9)
        assert out.values == ()

    def test_fermion_rejected(self):
        f = bd.QuadraticForm(Statistics.FERMION, U=[[0.0]], V=[[1.0]], const=0.0)
        with pytest.raises(ValueError):
            bd.truncation_stable_spectrum(f, cutoff=10, k=1, tol=1e-9)


class TestWarmStart:
    @pytest.mark.parametrize("n, cutoff", [(1, 10), (2, 8), (3, 5)])
    def test_coarse_hamiltonian_is_principal_submatrix(self, n, cutoff):
        f = random_boson_form(np.random.default_rng(60 + n), n)
        coarse = bd.build_hamiltonian(f, bd.build_boson_rep(n, cutoff)).toarray()
        fine = bd.build_hamiltonian(f, bd.build_boson_rep(n, 2 * cutoff))
        e = box_embedding(n, cutoff, 2 * cutoff)
        assert np.array_equal(coarse, fine[e][:, e].toarray())

    @pytest.mark.parametrize("n, cutoff", [(2, 20), (3, 8)])
    def test_interlacing(self, n, cutoff):
        for seed in range(3):
            f = random_boson_form(np.random.default_rng(70 + seed), n)
            coarse, fine = (
                bd.lowest_eigenvalues(bd.build_hamiltonian(f, bd.build_boson_rep(n, c)), 10)
                for c in (cutoff, 2 * cutoff)
            )
            assert np.all(fine <= coarse + 1e-12)

    @pytest.mark.parametrize("n, cutoff", [(2, 40), (3, 16)])
    @pytest.mark.parametrize("k", [1, 10])
    def test_matches_cold_fine_solve(self, n, cutoff, k):
        f = bounded_boson_form(np.random.default_rng(80 + n), n, seed=n, spread=0.15)
        out = bd.truncation_stable_spectrum(f, cutoff=cutoff, k=k, tol=1e-6)
        cold = bd.lowest_eigenvalues(bd.build_hamiltonian(f, bd.build_boson_rep(n, 2 * cutoff)), k)
        assert out.stable_count == k
        assert np.max(np.abs(np.array(out.values) - cold)) <= 1e-10

    def test_fine_start_lives_in_the_coarse_box(self, monkeypatch):
        n, cutoff = 2, 40  # both solves above DENSE_EIG_LIMIT, so both run Lanczos
        starts = []
        eigsh = spla.eigsh

        def spy(matrix, **kwargs):
            starts.append(kwargs["v0"].copy())
            return eigsh(matrix, **kwargs)

        monkeypatch.setattr(spla, "eigsh", spy)
        f = bounded_boson_form(np.random.default_rng(90), n, seed=5)
        bd.truncation_stable_spectrum(f, cutoff=cutoff, k=5, tol=1e-6)
        coarse, fine = starts
        assert np.array_equal(coarse, np.full((cutoff + 1) ** n, 1.0 / np.sqrt((cutoff + 1) ** n)))
        inside = np.zeros((2 * cutoff + 1) ** n, dtype=bool)
        inside[box_embedding(n, cutoff, 2 * cutoff)] = True
        assert np.all(fine[~inside] == 0.0)
        assert np.linalg.norm(fine[inside]) > 0.5


class TestEigensolveGuard:
    @pytest.mark.parametrize("dim, k", [
        (24389, 24388),  # dense fallback: k >= dim - 1, ~4.4 GiB per copy
        (185193, 30000),  # Lanczos: a 185193 x 120000 basis
    ])
    def test_refused_before_allocation(self, dim, k):
        matrix = sp.identity(dim, format="csr")
        tracemalloc.start()
        try:
            with pytest.raises(bd.ResourceLimitError):
                bd.lowest_eigenvalues(matrix, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_admitted_dense_fallback_still_solves(self):
        vals = bd.lowest_eigenvalues(sp.diags(np.arange(1300.0, 0.0, -1.0), format="csr"), 1299)
        assert np.array_equal(vals, np.arange(1.0, 1300.0))


class TestTransformedModes:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_fermion_car_and_operator_equality(self, n):
        rng = np.random.default_rng(30 + n)
        f = random_fermion_form(rng, n)
        std = bd.to_standard(f)
        b = bd.random_canonical(Statistics.FERMION, n, seed=n, positive=True)
        std2 = bd.apply_transform(std, b)
        rep = bd.build_fermion_rep(n)
        modes = bd.bogoliubov_mode_operators(rep, b)
        eye = np.eye(rep.dim)
        for bk, bk_dag in modes:
            assert np.max(np.abs(bk_dag @ bk + bk @ bk_dag - eye)) <= 1e-12
        xs = [bk + bk_dag for bk, bk_dag in modes]
        zs = [bk_dag - bk for bk, bk_dag in modes]
        rebuilt = sum(std2.C[i, j] * (xs[i] @ zs[j]) for i in range(n) for j in range(n))
        rebuilt = rebuilt + std2.k0 * eye
        original = bd.build_standard_hamiltonian(std, rep)
        assert np.max(np.abs(rebuilt - original)) <= 1e-10

    def test_boson_ccr_on_safe_subspace(self):
        n, cutoff = 2, 12
        rep = bd.build_boson_rep(n, cutoff)
        b = bd.random_canonical(Statistics.BOSON, n, seed=3, positive=True)
        modes = bd.bogoliubov_mode_operators(rep, b)
        base = cutoff + 1
        idx = np.arange(rep.dim)
        safe = np.ones(rep.dim, dtype=bool)
        for _ in range(n):
            safe &= (idx % base) <= cutoff - 2
            idx = idx // base
        sel = np.flatnonzero(safe)
        for bk, bk_dag in modes:
            comm = (bk_dag @ bk - bk @ bk_dag)[np.ix_(sel, sel)]
            assert np.max(np.abs(comm - np.eye(len(sel)))) <= 1e-10
