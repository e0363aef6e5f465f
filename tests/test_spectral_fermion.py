import numpy as np
import pytest
from conftest import random_fermion_form

import bogodiag as bd
from bogodiag import Statistics, fock


def fermion_std(c, k0=0.0):
    return bd.StandardForm(statistics=Statistics.FERMION, C=np.asarray(c, dtype=float), k0=k0)


def sector_energies(result, parity):
    return np.sort(result.energies[result.sectors == parity])


class TestDiagonalizeFermion:
    def test_already_diagonal(self):
        data = bd.diagonalize_fermion(fermion_std(np.diag([3.0, -2.0])))
        assert np.allclose(data.lambdas, [3.0, -2.0])
        assert np.allclose(data.o_plus, np.eye(2))
        assert np.allclose(data.o_minus, np.eye(2))
        _, s_numbers = bd.fermion_invariants(np.diag([3.0, -2.0]))
        assert s_numbers == pytest.approx((3.0, 2.0))

    def test_bosonic_form_refused(self):
        std = bd.StandardForm(statistics=Statistics.BOSON, T=np.eye(2), R=-np.eye(2))
        with pytest.raises(ValueError, match="expected a fermionic standard form"):
            bd.diagonalize_fermion(std)

    def test_rotation_absorbed(self):
        u = 1.7
        c = u * np.array([[0.0, 1.0], [-1.0, 0.0]])
        data = bd.diagonalize_fermion(fermion_std(c))
        assert np.allclose(data.lambdas, [u, u])
        assert np.max(np.abs(data.o_plus @ c @ data.o_minus - np.diag(data.lambdas))) <= 1e-12

    def test_negative_determinant_gives_odd_sign_count(self):
        data = bd.diagonalize_fermion(fermion_std(np.diag([1.0, 1.0, -1.0])))
        assert int(np.sum(data.lambdas < 0)) % 2 == 1

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_postconditions(self, n):
        rng = np.random.default_rng(40 + n)
        for trial in range(10):
            std = bd.to_standard(random_fermion_form(rng, n))
            data = bd.diagonalize_fermion(std)
            eye = np.eye(n)
            assert np.max(np.abs(data.o_plus.T @ data.o_plus - eye)) <= 1e-12
            assert np.max(np.abs(data.o_minus.T @ data.o_minus - eye)) <= 1e-12
            assert bd.is_positive(data.transform)
            diag = bd.apply_transform(std, data.transform).C
            assert np.max(np.abs(diag - np.diag(data.lambdas))) <= 1e-11
            det = np.linalg.det(std.C)
            if abs(det) > 1e-10:
                assert np.prod(np.sign(data.lambdas)) == pytest.approx(np.sign(det))
                # sign-parity law
                assert int(np.sum(data.lambdas < 0)) % 2 == (1 - np.sign(det)) / 2

    def test_sign_ambiguity_flag(self):
        data = bd.diagonalize_fermion(fermion_std([[1.0, 0.0], [0.0, 0.0]]))
        assert data.sign_ambiguous
        data = bd.diagonalize_fermion(fermion_std(np.eye(2)))
        assert not data.sign_ambiguous
        # |det| = 1e-12, but the singular values are all equal
        data = bd.diagonalize_fermion(fermion_std(1e-3 * np.eye(4)))
        assert not data.sign_ambiguous


class TestFermionSpectrum:
    def test_n1_number_operator(self):
        f = bd.QuadraticForm(Statistics.FERMION, U=[[0.0]], V=[[1.0]], const=0.0)
        result = bd.fermion_spectrum(bd.diagonalize_fermion(bd.to_standard(f)))
        assert result.energies.tolist() == pytest.approx([0.0, 2.0])
        assert result.rungs.tolist() == [[0], [1]]  # sign words (-1,), (+1,)
        assert result.sectors.tolist() == [0, 1]
        assert result.complete and result.bounded_below

    def test_n2_rotation_sectors(self):
        u = 1.0
        f = bd.QuadraticForm(Statistics.FERMION, U=[[0.0, u], [-u, 0.0]], V=np.zeros((2, 2)))
        result = bd.fermion_spectrum(bd.diagonalize_fermion(bd.to_standard(f)))
        assert result.energies.tolist() == pytest.approx([-2.0, 0.0, 0.0, 2.0])
        assert result.sectors.tolist() == [0, 1, 1, 0]
        # oracle cross-check with parity projectors
        even, odd = fock.sector_spectra(f)
        assert sector_energies(result, 0) == pytest.approx(list(even))
        assert sector_energies(result, 1) == pytest.approx(list(odd))

    def test_double_sign_flip_is_relabeling(self):
        rng = np.random.default_rng(9)
        std = bd.to_standard(random_fermion_form(rng, 4))
        data = bd.diagonalize_fermion(std)
        flipped = np.array(data.lambdas)
        flipped[0] *= -1.0
        flipped[2] *= -1.0
        data2 = bd.FermionModeData(o_plus=data.o_plus, o_minus=data.o_minus,
                                   lambdas=flipped, k0=data.k0)
        r1 = bd.fermion_spectrum(data)
        r2 = bd.fermion_spectrum(data2)
        for parity in (0, 1):
            assert sector_energies(r1, parity) == pytest.approx(list(sector_energies(r2, parity)))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_oracle_equivalence(self, n):
        rng = np.random.default_rng(60 + n)
        for trial in range(5):
            f = random_fermion_form(rng, n)
            result = bd.fermion_spectrum(bd.diagonalize_fermion(bd.to_standard(f)))
            even, odd = fock.sector_spectra(f)
            assert np.max(np.abs(sector_energies(result, 0) - even)) <= 1e-9
            assert np.max(np.abs(sector_energies(result, 1) - odd)) <= 1e-9

    @pytest.mark.parametrize("n", [1, 2, 3, 6])
    def test_isospectral_under_positive_transforms(self, n):
        rng = np.random.default_rng(70 + n)
        std = bd.to_standard(random_fermion_form(rng, n))
        base = bd.fermion_spectrum(bd.diagonalize_fermion(std))
        for seed in range(10):
            b = bd.random_canonical(Statistics.FERMION, n, seed=seed, positive=True)
            data = bd.diagonalize_fermion(bd.apply_transform(std, b))
            # the closed-form transform composed after b diagonalizes std
            diag = bd.apply_transform(std, bd.compose(data.transform, b)).C
            assert np.max(np.abs(diag - np.diag(data.lambdas))) <= 1e-10
            moved = bd.fermion_spectrum(data)
            for parity in (0, 1):
                e0, e1 = sector_energies(base, parity), sector_energies(moved, parity)
                assert len(e0) == len(e1)
                assert np.max(np.abs(e0 - e1)) <= 1e-8


class TestFermionInvariants:
    def test_diagonal(self):
        det, s = bd.fermion_invariants(np.diag([3.0, -2.0]))
        assert det == pytest.approx(-6.0)
        assert s == pytest.approx((3.0, 2.0))

    def test_scaled_rotation(self):
        u = 0.8
        det, s = bd.fermion_invariants(u * np.array([[0.0, 1.0], [-1.0, 0.0]]))
        assert det == pytest.approx(u ** 2)
        assert s == pytest.approx((u, u))

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_preserved_by_positive_transforms(self, n):
        rng = np.random.default_rng(80 + n)
        std = bd.to_standard(random_fermion_form(rng, n))
        det0, s0 = bd.fermion_invariants(std.C)
        for seed in range(25):
            b = bd.random_canonical(Statistics.FERMION, n, seed=seed, positive=True)
            det1, s1 = bd.fermion_invariants(bd.apply_transform(std, b).C)
            assert abs(det0 - det1) <= 1e-10
            assert np.max(np.abs(np.array(s0) - np.array(s1))) <= 1e-10
