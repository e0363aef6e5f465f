import warnings

import numpy as np
import pytest
from conftest import bounded_boson_form, refusal_peak

import bogodiag as bd
from bogodiag import ModeClass, Statistics


def boson_std(t, r, k0=0.0):
    return bd.StandardForm(statistics=Statistics.BOSON,
                           T=np.asarray(t, dtype=float), R=np.asarray(r, dtype=float), k0=k0)


class TestDiagonalizeBoson:
    def test_already_diagonal(self):
        data = bd.diagonalize_boson(boson_std([[0.5]], [[-0.5]]))
        assert np.allclose(data.S, np.eye(1))
        mode = data.modes[0]
        assert (mode.t, mode.r) == pytest.approx((0.5, -0.5))
        assert mode.mode_class is ModeClass.DISCRETE

    def test_non_real_pencil(self):
        with pytest.raises(bd.NonRealSpectrum):
            bd.diagonalize_boson(boson_std([[1.0, 0.0], [0.0, -1.0]], [[0.0, 1.0], [1.0, 0.0]]))

    @pytest.mark.parametrize("scale", [1.0, 1e150])
    def test_non_real_pencil_at_any_scale(self, scale):
        # R T has eigenvalues +-2i s^2; past s ~ 1e77 the sum of squares of
        # the pencil overflows, which must not turn the test into a defect
        form = bd.QuadraticForm(Statistics.BOSON, U=scale * np.array([[1.0, 1.0], [1.0, -1.0]]),
                                V=scale * np.array([[1.0, -1.0], [-1.0, -1.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(bd.NonRealSpectrum):
                bd.diagonalize_boson(bd.to_standard(form))

    def test_defective_pencil(self):
        # R T = [[0,1],[0,0]], a nontrivial Jordan cell
        with pytest.raises(bd.DefectiveMatrix):
            bd.diagonalize_boson(boson_std([[0.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]]))

    def test_sheared_pair(self):
        # transformed diag(1,2) / -I pair: products must be {-1, -2}
        data = bd.diagonalize_boson(boson_std([[3.0, 2.0], [2.0, 2.0]], [[-1.0, 1.0], [1.0, -2.0]]))
        products = sorted(m.t * m.r for m in data.modes)
        assert products == pytest.approx([-2.0, -1.0])
        assert sorted(np.sqrt(-m.t * m.r) for m in data.modes) == pytest.approx([1.0, np.sqrt(2.0)])
        assert all(m.mode_class is ModeClass.DISCRETE for m in data.modes)
        # residual diagonality
        t_p = data.S @ [[3.0, 2.0], [2.0, 2.0]] @ data.S.T
        s_inv = np.linalg.inv(data.S)
        r_p = s_inv.T @ np.array([[-1.0, 1.0], [1.0, -2.0]]) @ s_inv
        off = np.abs(t_p - np.diag(np.diag(t_p))) + np.abs(r_p - np.diag(np.diag(r_p)))
        assert np.max(off) <= 1e-10

    def test_positive_orientation(self):
        rng = np.random.default_rng(1)
        for trial in range(10):
            f = bounded_boson_form(rng, 3, seed=trial)
            data = bd.diagonalize_boson(bd.to_standard(f))
            assert np.linalg.det(data.S) > 0

    def test_degenerate_products_refined(self):
        # two identical modes pushed through a generic positive transform
        std0 = boson_std(np.eye(2), -np.eye(2), k0=0.3)
        b = bd.random_canonical(Statistics.BOSON, 2, seed=5, positive=True)
        std = bd.apply_transform(std0, b)
        data = bd.diagonalize_boson(std)
        assert all(m.mode_class is ModeClass.DISCRETE for m in data.modes)
        for m in data.modes:
            assert m.t * m.r == pytest.approx(-1.0, abs=1e-9)

    def test_all_mode_classes(self):
        cases = [
            (0.5, -0.5, ModeClass.DISCRETE),
            (0.5, 0.5, ModeClass.CONTINUOUS_INVERTED),
            (0.0, 1.0, ModeClass.CONTINUOUS_FREE),
            (1.0, 0.0, ModeClass.CONTINUOUS_QUADRATIC),
            (0.0, 0.0, ModeClass.CONSTANT),
        ]
        for t, r, expected in cases:
            data = bd.diagonalize_boson(boson_std([[t]], [[r]]))
            assert data.modes[0].mode_class is expected, (t, r)

    def test_zero_pencil_block_refinement(self):
        # T = 0 makes the pencil vanish; R must still come out diagonal
        r = np.array([[1.0, 0.4], [0.4, 2.0]])
        data = bd.diagonalize_boson(boson_std(np.zeros((2, 2)), r))
        s_inv = np.linalg.inv(data.S)
        r_p = s_inv.T @ r @ s_inv
        assert np.max(np.abs(r_p - np.diag(np.diag(r_p)))) <= 1e-10
        assert all(m.mode_class is ModeClass.CONTINUOUS_FREE for m in data.modes)

    def test_reality_threshold_matches_eigenvalues(self):
        rng = np.random.default_rng(2)
        raised_both = [0, 0]
        for trial in range(60):
            a = rng.uniform(-1, 1, (3, 3))
            b = rng.uniform(-1, 1, (3, 3))
            t = (a + a.T) / 2
            r = (b + b.T) / 2
            pencil = r @ t
            max_imag = np.max(np.abs(np.linalg.eigvals(pencil).imag))
            threshold = 1e-8 * np.linalg.norm(pencil)
            try:
                bd.diagonalize_boson(boson_std(t, r))
                raised = False
            except bd.NonRealSpectrum:
                raised = True
            except bd.DefectiveMatrix:
                continue
            assert raised == (max_imag > threshold)
            raised_both[int(raised)] += 1
        assert min(raised_both) > 0  # both branches exercised


class TestModeLevels:
    def test_number_ladder(self):
        levels = bd.boson_mode_levels(0.5, -0.5, 3)
        assert levels == pytest.approx([1.0, 3.0, 5.0])
        # shifted by k0 = -1 this is the oracle ladder {0, 2, 4}
        f = bd.QuadraticForm(Statistics.BOSON, U=[[0.0]], V=[[1.0]], const=0.0)
        oracle = bd.lowest_eigenvalues(bd.build_hamiltonian(f, bd.build_boson_rep(1, 60)), 61)
        assert np.allclose(np.array(levels) - 1.0, oracle[:3], atol=1e-9)

    def test_sign_symmetry(self):
        up = bd.boson_mode_levels(0.5, -0.5, 4)
        down = bd.boson_mode_levels(-0.5, 0.5, 4)
        assert np.allclose(np.abs(down), up)
        assert all(a > b for a, b in zip(down, down[1:]))  # monotone decreasing

    def test_first_level_magnitude(self):
        (level0,) = bd.boson_mode_levels(2.0, -2.0, 1)
        assert abs(level0) == pytest.approx(abs(bd.LEVEL_COEFF))

    def test_array_bit_identical_to_scalar_rungs(self):
        # each rung as its own float64 product, the ladder's former list form
        rng = np.random.default_rng(2000)
        for _ in range(2000):
            sign = float(rng.choice([-1.0, 1.0]))
            t = sign * 10.0 ** rng.uniform(-6.0, 6.0)
            r = -sign * 10.0 ** rng.uniform(-6.0, 6.0)
            count = int(rng.integers(1, 300))
            spacing = bd.LEVEL_COEFF * (r / abs(r)) * np.sqrt(-r * t)
            expected = np.array([float(spacing * (m + 0.5)) for m in range(count)])
            levels = bd.boson_mode_levels(t, r, count)
            assert isinstance(levels, np.ndarray) and levels.dtype == np.float64
            assert np.array_equal(levels.view(np.uint64), expected.view(np.uint64))

    def test_non_discrete_rejected(self):
        # the boundary |t| or |r| = TOL_ZERO counts as zero, as in _classify_mode
        for t, r in [(0.5, 0.5), (0.0, 1.0), (1.0, 0.0), (0.0, 0.0), (1e-10, -1.0),
                     (-1.0, 1e-10), (-0.5, -0.5)]:
            with pytest.raises(bd.NonDiscreteMode):
                bd.boson_mode_levels(t, r, 2)


class TestBosonSpectrum:
    def test_n1_number_ladder(self):
        data = bd.diagonalize_boson(boson_std([[0.5]], [[-0.5]], k0=-1.0))
        result = bd.boson_spectrum(data, 3)
        assert result.energies.tolist() == pytest.approx([0.0, 2.0, 4.0])
        assert result.rungs.tolist() == [[0], [1], [2]]
        assert result.bounded_below and not result.complete

    def test_two_mode_ordering_vs_brute_force(self):
        data = bd.diagonalize_boson(boson_std([[3.0, 2.0], [2.0, 2.0]],
                                              [[-1.0, 1.0], [1.0, -2.0]], k0=0.0))
        k = 12
        result = bd.boson_spectrum(data, k)
        assert result.rungs[:4].tolist() == [[0, 0], [1, 0], [0, 1], [2, 0]]
        ladders = [bd.boson_mode_levels(m.t, m.r, 11) for m in data.modes]
        brute = sorted(
            (ladders[0][m1] + ladders[1][m2], (m1, m2))
            for m1 in range(11) for m2 in range(11)
        )[:k]
        assert result.energies.tolist() == pytest.approx([b[0] for b in brute])
        assert [tuple(r) for r in result.rungs.tolist()] == [b[1] for b in brute]

    def test_unbounded_below_flag(self):
        data = bd.diagonalize_boson(boson_std([[-0.5]], [[0.5]]))
        result = bd.boson_spectrum(data, 5)
        assert not result.bounded_below
        assert result.energies.size == 0 and result.rungs.shape == (0, 1)

    def test_continuous_rejected_with_classes(self):
        data = bd.diagonalize_boson(boson_std([[0.5, 0.0], [0.0, 0.0]],
                                              [[0.5, 0.0], [0.0, 1.0]]))
        with pytest.raises(bd.ContinuousSpectrum) as err:
            bd.boson_spectrum(data, 3)
        assert ModeClass.CONTINUOUS_INVERTED in err.value.classes
        assert ModeClass.CONTINUOUS_FREE in err.value.classes

    @pytest.mark.parametrize("k", [2**20 + 1, 10**8])
    def test_count_guard_refuses_before_allocation(self, k):
        data = bd.diagonalize_boson(boson_std([[0.5]], [[-0.5]]))
        assert refusal_peak(bd.boson_spectrum, data, k) < 2**20

    @pytest.mark.parametrize("n", [1, 2])
    def test_oracle_equivalence(self, n):
        rng = np.random.default_rng(90 + n)
        for trial in range(3):
            f = bounded_boson_form(rng, n, seed=trial)
            data = bd.diagonalize_boson(bd.to_standard(f))
            closed = bd.boson_spectrum(data, 10).energies
            oracle = bd.truncation_stable_spectrum(f, cutoff=40, k=10, tol=1e-8)
            assert oracle.stable_count == 10
            assert np.max(np.abs(np.array(closed) - np.array(oracle.values))) <= 1e-6

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_isospectral_under_positive_transforms(self, n):
        rng = np.random.default_rng(95 + n)
        f = bounded_boson_form(rng, n, seed=17)
        std = bd.to_standard(f)
        base = bd.boson_spectrum(bd.diagonalize_boson(std), 10).energies
        for seed in range(8):
            b = bd.random_canonical(Statistics.BOSON, n, seed=seed, positive=True)
            moved = bd.apply_transform(std, b)
            energies = bd.boson_spectrum(bd.diagonalize_boson(moved), 10).energies
            assert np.max(np.abs(np.array(base) - np.array(energies))) <= 1e-8


class TestScalingFreedom:
    def test_products_and_levels_invariant_under_mode_rescaling(self):
        rng = np.random.default_rng(6)
        f = bounded_boson_form(rng, 3, seed=4)
        std = bd.to_standard(f)
        data = bd.diagonalize_boson(std)
        base_products = np.array([m.t * m.r for m in data.modes])
        base_levels = np.array([bd.boson_mode_levels(m.t, m.r, 5) for m in data.modes])
        for trial in range(10):
            scale = rng.uniform(0.2, 5.0, size=3)
            s2 = data.S * scale[:, None]  # rescale the mode rows
            t2 = np.einsum("ij,jk,ik->i", s2, std.T, s2)
            s2_inv = np.linalg.inv(s2)
            r2 = np.einsum("ji,jk,ki->i", s2_inv, std.R, s2_inv)
            assert np.max(np.abs(t2 * r2 - base_products)) <= 1e-10
            levels = np.array([bd.boson_mode_levels(t2[i], r2[i], 5) for i in range(3)])
            assert np.max(np.abs(levels - base_levels)) <= 1e-10


class TestSmallestSums:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(12)
        ladders = [np.sort(rng.uniform(0, 3, 8)).tolist() for _ in range(3)]
        totals, _ = bd.ladder_sums(ladders, 20)
        brute = sorted(
            (a + b + c, (i, j, k))
            for i, a in enumerate(ladders[0])
            for j, b in enumerate(ladders[1])
            for k, c in enumerate(ladders[2])
        )[:20]
        assert totals.tolist() == pytest.approx([b[0] for b in brute])

    def test_empty(self):
        totals, rungs = bd.ladder_sums([[1.0]], 0)
        assert totals.shape == (0,) and rungs.shape == (0, 1)

    @pytest.mark.parametrize("seed", range(5))
    def test_full_enumeration_and_best_first_agree(self, seed):
        # unsorted ladders of small integers: equal values inside a ladder
        # and many tied totals across ladders
        rng = np.random.default_rng(seed)
        ladders = [rng.integers(0, 4, size).astype(float) for size in (4, 3, 5)]
        k = 4 * 3 * 5
        full_totals, full_rungs = bd.ladder_sums(ladders, k)
        totals, rungs = bd.ladder_sums(ladders, k - 1)
        assert np.array_equal(full_totals[:-1], totals)
        assert np.array_equal(full_rungs[:-1], rungs)
        # every combination once, ascending, each total the sum of its picks
        assert len({tuple(r) for r in full_rungs.tolist()}) == k
        assert np.all(np.diff(full_totals) >= 0)
        picks = sum(lad[full_rungs[:, p]] for p, lad in enumerate(ladders))
        assert np.array_equal(full_totals, picks)
