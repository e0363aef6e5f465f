import math
import warnings

import numpy as np
import pytest
from conftest import bounded_boson_form, refusal_peak
from hypothesis import given, settings
from hypothesis import strategies as st

import bogodiag as bd
from bogodiag import ModeClass, Statistics, fock


def boson_std(t, r, k0=0.0):
    return bd.StandardForm(statistics=Statistics.BOSON,
                           T=np.asarray(t, dtype=float), R=np.asarray(r, dtype=float), k0=k0)


def squeezed_transform(rng, n, spread):
    """O diag(e^u) O' with O, O' orthogonal and u uniform in [-spread, spread]."""
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return q1 @ np.diag(np.exp(rng.uniform(-spread, spread, n))) @ q2


def pair_from_modes(s, t, r):
    """(T, R) = (S diag(t) S^t, S^-t diag(r) S^-1), symmetrized."""
    s_inv = np.linalg.inv(s)
    t_mat = s @ np.diag(t) @ s.T
    r_mat = s_inv.T @ np.diag(r) @ s_inv
    return (t_mat + t_mat.T) / 2.0, (r_mat + r_mat.T) / 2.0


def repeated_frequency_forms(count, spread=0.5):
    """(T, R, products t*r, largest squared frequency) of n = 2..5 pairs,
    S squeezed up to e^+-spread.

    Frequencies come from {1, 2, 3} on odd trials, so repeats are common;
    every third trial flips random mode signs (inverted modes), and every
    fifth sets t_0 = 0 and r_1 = 0, two zero modes of the pencil.
    """
    rng = np.random.default_rng(0)
    forms = []
    for trial in range(count):
        n = int(rng.integers(2, 6))
        s = squeezed_transform(rng, n, spread)
        w = rng.choice([1.0, 2.0, 3.0], n) if trial % 2 else rng.uniform(0.5, 3.0, n)
        split = np.exp(rng.uniform(-0.5, 0.5, n))
        t, r = w * split, -w / split
        if trial % 3 == 0:
            r = r * rng.choice([-1.0, 1.0], n)
        if trial % 5 == 0:
            t[0] = r[1] = 0.0
        forms.append((*pair_from_modes(s, t, r), np.sort(t * r), float(np.max(w)) ** 2))
    return forms


def zero_pencil_forms(count):
    """T = S diag(1, 0, 0) S^t and R = S^-t diag(0, 1, -2) S^-1: R T = 0
    although neither vanishes."""
    rng = np.random.default_rng(7)
    return [pair_from_modes(squeezed_transform(rng, 3, 1.0), [1.0, 0.0, 0.0], [0.0, 1.0, -2.0])
            for _ in range(count)]


def mode_class(t, r):
    """Class of a mode (t, r) with exact zeros."""
    if t == 0.0:
        return ModeClass.CONSTANT if r == 0.0 else ModeClass.CONTINUOUS_FREE
    if r == 0.0:
        return ModeClass.CONTINUOUS_QUADRATIC
    return ModeClass.DISCRETE if t * r < 0.0 else ModeClass.CONTINUOUS_INVERTED


def off_diagonal(data, t, r):
    """Largest off-diagonal entry of S T S^t and S^-t R S^-1."""
    moved = bd.apply_transform(boson_std(t, r), data.transform)
    off = ~np.eye(data.n, dtype=bool)
    return max(np.max(np.abs(moved.T[off])), np.max(np.abs(moved.R[off])))


class TestDiagonalizeBoson:
    def test_already_diagonal(self):
        data = bd.diagonalize_boson(boson_std([[0.5]], [[-0.5]]))
        assert np.allclose(data.S, np.eye(1))
        mode = data.modes[0]
        assert (mode.t, mode.r) == pytest.approx((0.5, -0.5))
        assert mode.mode_class is ModeClass.DISCRETE

    def test_mode_order_at_tiny_scale(self):
        # frequencies 3 and sqrt(2): the products t r, about 1e-330, underflow
        # to a tie unless t and r are rescaled first
        scale = 1e-165
        data = bd.diagonalize_boson(boson_std(scale * np.diag([1.0, 2.0]),
                                              -scale * np.diag([9.0, 1.0])))
        freqs = [math.sqrt(-(m.t / scale) * (m.r / scale)) for m in data.modes]
        assert freqs == pytest.approx([math.sqrt(2.0), 3.0], rel=1e-14)

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
        # R T = [[0,1],[0,0]], a nontrivial Jordan cell: eigenvalue 0 twice,
        # singular values 1 and 0, limit 1e-8 * ||R|| ||T|| = 1e-8 sqrt(2)
        with pytest.raises(bd.DefectiveMatrix,
                           match="singular value 1.000e[+]00 above the limit 1.414e-08"):
            bd.diagonalize_boson(boson_std([[0.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]]))

    def test_sheared_pair(self):
        # transformed diag(1,2) / -I pair: products must be {-1, -2}
        data = bd.diagonalize_boson(boson_std([[3.0, 2.0], [2.0, 2.0]], [[-1.0, 1.0], [1.0, -2.0]]))
        products = sorted(m.t * m.r for m in data.modes)
        assert products == pytest.approx([-2.0, -1.0])
        assert sorted(np.sqrt(-m.t * m.r) for m in data.modes) == pytest.approx([1.0, np.sqrt(2.0)])
        assert all(m.mode_class is ModeClass.DISCRETE for m in data.modes)
        assert off_diagonal(data, [[3.0, 2.0], [2.0, 2.0]], [[-1.0, 1.0], [1.0, -2.0]]) <= 1e-10

    def test_positive_orientation(self):
        rng = np.random.default_rng(1)
        for trial in range(10):
            f = bounded_boson_form(rng, 3, seed=trial)
            data = bd.diagonalize_boson(bd.to_standard(f))
            assert bd.is_positive(data.transform)

    def test_degenerate_products_refined(self):
        # two identical modes pushed through a generic positive transform
        std0 = boson_std(np.eye(2), -np.eye(2), k0=0.3)
        b = bd.random_canonical(Statistics.BOSON, 2, seed=5, positive=True)
        std = bd.apply_transform(std0, b)
        data = bd.diagonalize_boson(std)
        assert all(m.mode_class is ModeClass.DISCRETE for m in data.modes)
        for m in data.modes:
            assert m.t * m.r == pytest.approx(-1.0, abs=1e-9)
        # the closed-form transform composed after b diagonalizes the original pair
        moved = bd.apply_transform(std0, bd.compose(data.transform, b))
        assert np.max(np.abs(moved.T - np.diag([m.t for m in data.modes]))) <= 1e-9
        assert np.max(np.abs(moved.R - np.diag([m.r for m in data.modes]))) <= 1e-9

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
        assert off_diagonal(data, np.zeros((2, 2)), r) <= 1e-10
        assert all(m.mode_class is ModeClass.CONTINUOUS_FREE for m in data.modes)

    def test_reality_threshold_matches_eigenvalues(self):
        rng = np.random.default_rng(2)
        raised_both = [0, 0]
        for trial in range(60):
            a = rng.uniform(-1, 1, (3, 3))
            b = rng.uniform(-1, 1, (3, 3))
            t = (a + a.T) / 2
            r = (b + b.T) / 2
            max_imag = np.max(np.abs(np.linalg.eigvals(r @ t).imag))
            threshold = 1e-8 * np.linalg.norm(r) * np.linalg.norm(t)
            try:
                bd.diagonalize_boson(boson_std(t, r))
                raised = False
            except bd.NonRealSpectrum:
                raised = True
            assert raised == (max_imag > threshold)
            raised_both[int(raised)] += 1
        assert min(raised_both) > 0  # both branches exercised


@pytest.fixture(scope="module")
def repeated_forms():
    # the first 1000 of the 2000-form probe keep three scales under 3 s
    return repeated_frequency_forms(1000)


@pytest.fixture(scope="module")
def squeezed_forms():
    return repeated_frequency_forms(300, spread=3.0)


@pytest.fixture(scope="module")
def zero_pencils():
    return zero_pencil_forms(500)


class TestRepeatedEigenvalues:
    """A cluster of equal R T eigenvalues is refused only when it fails the
    rank test, at any scale of the input."""

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_repeated_frequencies_diagonalize(self, repeated_forms, scale):
        for t, r, products, top in repeated_forms:
            t, r = scale * t, scale * r
            data = bd.diagonalize_boson(boson_std(t, r))
            tol = bd.spectral.IMAG_TOL_FACTOR * (np.linalg.norm(t) + np.linalg.norm(r))
            assert off_diagonal(data, t, r) <= tol
            got = np.sort([m.t * m.r for m in data.modes])
            assert np.max(np.abs(got - scale ** 2 * products)) <= 1e-12 * scale ** 2 * top

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_strongly_squeezed_repeated_frequencies(self, squeezed_forms, scale):
        # S up to e^+-3 spreads ||R|| ||T|| far above the eigenvalues of R T,
        # so t*r is only as accurate as the rounding of R T
        for t, r, products, _ in squeezed_forms:
            t, r = scale * t, scale * r
            data = bd.diagonalize_boson(boson_std(t, r))
            tol = bd.spectral.IMAG_TOL_FACTOR * (np.linalg.norm(t) + np.linalg.norm(r))
            assert off_diagonal(data, t, r) <= tol
            got = np.sort([m.t * m.r for m in data.modes])
            bound = 1e-14 * np.linalg.norm(t) * np.linalg.norm(r)
            assert np.max(np.abs(got - scale ** 2 * products)) <= bound

    @pytest.mark.parametrize("k, gap", [(100.0, 0.5), (10.0, 1e-4)])
    def test_sheared_close_frequencies(self, k, gap):
        # the shear S = [[1, k], [0, 1]] puts tau ~ 1e-8 k^4 above the gap
        # between the eigenvalues -1 and -1 - gap of R T, which eig resolves:
        # their cluster fails the rank test and splits on the scale of R T
        t, r = pair_from_modes(np.array([[1.0, k], [0.0, 1.0]]), [1.0, 1.0], [-1.0, -1.0 - gap])
        data = bd.diagonalize_boson(boson_std(t, r))
        assert sorted(m.t * m.r for m in data.modes) == pytest.approx([-1.0 - gap, -1.0],
                                                                      rel=0, abs=1e-9)

    def test_sheared_complex_pair(self):
        # R T = S^-t [[-1, b], [-b, -1]] S^t with b = 1e-5 below tau ~ 1e-4:
        # the pair fails the rank test, and b exceeds the scale of R T
        s = np.array([[1.0, 10.0], [0.0, 1.0]])
        s_inv = np.linalg.inv(s)
        t = s @ np.diag([1.0, -1.0]) @ s.T
        r = s_inv.T @ np.array([[-1.0, -1e-5], [-1e-5, 1.0]]) @ s_inv
        with pytest.raises(bd.NonRealSpectrum, match="imaginary part 1.000e-05 above the limit"):
            bd.diagonalize_boson(boson_std(t, (r + r.T) / 2.0))

    def test_overflowing_rounding_scale(self):
        # ||R|| ||T|| = 1e320 overflows to tau = inf, which every decision
        # passes; R T = diag(0, -1e230) stays finite and the residual check
        # holds S to a diagonal pair
        data = bd.diagonalize_boson(boson_std(np.diag([1e200, 1e110]), np.diag([0.0, -1e120])))
        assert [m.mode_class for m in data.modes] == [ModeClass.CONTINUOUS_QUADRATIC,
                                                      ModeClass.DISCRETE]
        assert data.modes[1].t * data.modes[1].r == pytest.approx(-1e230)

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_zero_pencil_of_nonzero_pair(self, zero_pencils, scale):
        # the imaginary parts are rounding of size ||R|| ||T||, while ||R T||
        # is rounding too
        for t, r in zero_pencils:
            data = bd.diagonalize_boson(boson_std(scale * t, scale * r))
            assert sorted(m.mode_class.value for m in data.modes) == [
                "ContinuousFree", "ContinuousFree", "ContinuousQuadratic"]
            assert off_diagonal(data, scale * t, scale * r) <= 1e-8 * scale


class TestScaleInvariantClasses:
    """Whether t_i or r_i is zero is decided against the rounding of its own
    quadratic form, so classes hold at every scale of the input."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5), spread=st.floats(0.0, 2.5),
           pattern=st.lists(st.tuples(st.booleans(), st.booleans()), min_size=5, max_size=5),
           aligned=st.booleans(), u=st.floats(-6.0, 6.0))
    def test_classes_of_mode_built_forms(self, seed, n, spread, pattern, aligned, u):
        # pattern[i] says whether t_i and r_i are nonzero; the values come
        # from the seed, so no draw can shrink to a structural zero
        rng = np.random.default_rng(seed)
        nonzero = np.array(pattern[:n]).T
        t, r = nonzero * rng.choice([-1.0, 1.0], (2, n)) * np.exp(rng.uniform(-2.0, 2.0, (2, n)))
        s = squeezed_transform(rng, n, spread)
        if aligned:
            # modes with a zero keep a coordinate axis each, so T and R have
            # exact zero rows, and only the others mix
            mixed = nonzero.all(axis=0)
            s = np.eye(n)
            s[np.ix_(mixed, mixed)] = squeezed_transform(rng, int(mixed.sum()), spread)
        t_mat, r_mat = pair_from_modes(s, t, r)
        data = bd.diagonalize_boson(boson_std(10.0 ** u * t_mat, 10.0 ** u * r_mat))
        assert sorted(m.mode_class.value for m in data.modes) == sorted(
            mode_class(ti, ri).value for ti, ri in zip(t, r))


    @pytest.mark.parametrize("scale", [1e-12, 1e-6, 1.0, 1e6, 1e12])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_null_vector_with_small_entries(self, scale, reverse):
        # T = w w^t with w = (-a, 1) and R = diag(1, -1): the null vector
        # (1, a) of T is a mode with t = 0, next to a Discrete one.  Its small
        # entry is no rounding, and its rounding is no entry.
        r = np.diag([1.0, -1.0])
        for a in [0.0, *np.logspace(-15.0, -6.0, 19), -1e-9]:
            t = np.outer([-a, 1.0], [-a, 1.0])
            pair = (t[::-1, ::-1], r[::-1, ::-1]) if reverse else (t, r)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                data = bd.diagonalize_boson(boson_std(scale * pair[0], scale * pair[1]))
            assert sorted(m.mode_class.value for m in data.modes) == [
                "ContinuousFree", "Discrete"], a

    def test_discrete_forms_padded_with_zero_modes(self):
        # 1-3 coupled Discrete modes next to 2-3 decoupled ones with a zero,
        # shuffled: rounding of the coupled coordinates lands in the
        # decoupled modes' vectors, where T or R has an exact zero row
        rng = np.random.default_rng(4)
        names = ["Constant", "ContinuousFree", "ContinuousQuadratic"]
        for _ in range(200):
            n, k = int(rng.integers(1, 4)), int(rng.integers(2, 4))
            w, kinds = rng.uniform(0.5, 2.0, n), rng.integers(0, 3, k)
            t, r = np.zeros((2, n + k, n + k))
            t[:n, :n], r[:n, :n] = pair_from_modes(squeezed_transform(rng, n, 0.5), w, -w)
            t[n:, n:] = np.diag((kinds == 2) * rng.uniform(0.5, 2.0, k))
            r[n:, n:] = np.diag((kinds == 1) * rng.uniform(0.5, 2.0, k))
            perm = np.ix_(*[rng.permutation(n + k)] * 2)
            want = sorted(["Discrete"] * n + [names[c] for c in kinds])
            for scale in (1e-6, 1.0, 1e6):
                data = bd.diagonalize_boson(boson_std(scale * t[perm], scale * r[perm]))
                assert sorted(m.mode_class.value for m in data.modes) == want

class TestModeLevels:
    def test_number_ladder(self):
        levels = bd.boson_mode_levels(0.5, -0.5, 3)
        assert levels == pytest.approx([1.0, 3.0, 5.0])
        # shifted by k0 = -1 this is the oracle ladder {0, 2, 4}
        f = bd.QuadraticForm(Statistics.BOSON, U=[[0.0]], V=[[1.0]], const=0.0)
        oracle = fock.lowest_eigenvalues(fock.build_hamiltonian(f, fock.build_boson_rep(1, 60)), 61)
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

    @pytest.mark.parametrize("scale", [1e-165, 1e200])
    def test_frequency_at_extreme_scales(self, scale):
        # -r t underflows to 0 or overflows to inf here; the root of the
        # mantissas' product, scaled after, does neither
        levels = bd.boson_mode_levels(scale, -scale, 3)
        assert levels / scale == pytest.approx([2.0, 6.0, 10.0], rel=1e-15)

    def test_non_discrete_rejected(self):
        for t, r in [(0.5, 0.5), (0.0, 1.0), (1.0, 0.0), (0.0, 0.0), (-0.5, -0.5)]:
            with pytest.raises(bd.NonDiscreteMode):
                bd.boson_mode_levels(t, r, 2)
        # a bare pair has no rounding scale: only exact zeros count
        for t, r in [(1e-10, -1.0), (-1.0, 1e-10)]:
            spacing = bd.LEVEL_COEFF * np.sign(r) * 1e-5
            assert bd.boson_mode_levels(t, r, 2) == pytest.approx([spacing / 2, 1.5 * spacing])


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
            oracle = fock.truncation_stable_spectrum(f, cutoff=40, k=10, tol=1e-8)
            assert len(oracle) == 10
            assert np.max(np.abs(np.array(closed) - oracle)) <= 1e-6

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
