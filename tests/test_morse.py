import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from conftest import random_invertible_jacobian, refusal_peak
from hypothesis import given, settings
from hypothesis import strategies as st

import bogodiag as bd
from bogodiag import Parity, fock


def sphere_fixture():
    return bd.VectorFieldFixture(n=2, chi=2, points=(
        bd.SingularPoint("min", np.eye(2)),
        bd.SingularPoint("max", -np.eye(2)),
    ))


def torus_fixture():
    return bd.VectorFieldFixture(n=2, chi=0, points=(
        bd.SingularPoint("min", np.diag([1.0, 1.0])),
        bd.SingularPoint("saddle-1", np.diag([1.0, -1.0])),
        bd.SingularPoint("saddle-2", np.diag([-1.0, 1.0])),
        bd.SingularPoint("max", np.diag([-1.0, -1.0])),
    ))


def witten_tensor_oracle(lams, cutoff):
    """Independent tensor-product spectra of the localized operator, one per
    fermion occupation state f: the eigenvalues of the block of states with
    fermionic part f.  The fermionic terms are diagonal in the occupation
    basis, so nothing couples two blocks.  The bosonic factor lives on the
    box of cutoff + 1 levels per mode, built here from one-mode ladders."""
    lams = np.asarray(lams, dtype=float)
    n = len(lams)
    levels = cutoff + 1
    step = sp.diags(np.sqrt(np.arange(1.0, levels)), -1)
    frep = fock.build_fermion_rep(n)
    db, df = levels ** n, frep.dim
    h = sp.csr_matrix((db * df, db * df))
    for i in range(n):
        ab = sp.kron(sp.kron(sp.identity(levels ** i), step), sp.identity(levels ** (n - 1 - i)))
        pos = (ab + ab.T) / np.sqrt(2.0)
        deriv = (ab - ab.T) / np.sqrt(2.0)
        oscillator = -deriv @ deriv + lams[i] ** 2 * (pos @ pos)
        occupation = frep.a(i) @ frep.a_dag(i)
        h = (h + sp.kron(oscillator, sp.identity(df))
             + 2.0 * lams[i] * sp.kron(sp.identity(db), occupation))
    h = (h - np.sum(lams) * sp.identity(db * df)).tocsr()
    blocks = [h[f::df, f::df] for f in range(df)]
    assert sum(block.nnz for block in blocks) == h.nnz
    return [np.linalg.eigvalsh(block.toarray()) for block in blocks]


def lowest_oracle_levels(lams, cutoff, count):
    return np.sort(np.concatenate(witten_tensor_oracle(lams, cutoff)))[:count]


class TestPointSign:
    def test_plus(self):
        assert bd.point_sign(bd.SingularPoint("p", np.eye(2))) == 1

    def test_minus(self):
        assert bd.point_sign(bd.SingularPoint("p", np.diag([1.0, -1.0]))) == -1

    def test_degenerate(self):
        with pytest.raises(bd.DegeneratePoint):
            bd.point_sign(bd.SingularPoint("p", [[1.0, 0.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("scale", [1e-6, 1e-3, 1.0, 1e3, 1e6])
    def test_sign_is_scale_invariant(self, scale):
        # det(s J) = s^6 det J spans 72 decades here; the decision must not
        rng = np.random.default_rng(5)
        jacobians = [np.eye(6), np.diag([1.0, -1.0, 2.0, 3.0, 0.5, 1.0])]
        jacobians += [random_invertible_jacobian(rng, 6) for _ in range(4)]
        for jac in jacobians:
            want = 1 if np.linalg.det(jac) > 0 else -1
            assert bd.point_sign(bd.SingularPoint("p", scale * jac)) == want
            assert bd.zero_mode_parity(bd.SingularPoint("p", scale * jac)) is (
                Parity.EVEN if want > 0 else Parity.ODD)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), u=st.floats(-6.0, 6.0))
    def test_decisions_unchanged_by_rescaling(self, seed, n, u):
        # singular values spread over e^+-3, the last one pushed down by up to
        # 14 decades on odd seeds, so both sides of DEGENERACY_TOL come up
        rng = np.random.default_rng(seed)
        q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
        q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
        sigma = np.exp(rng.uniform(-3.0, 3.0, n))
        sigma[-1] *= 10.0 ** -rng.uniform(0.0, 14.0 * (seed % 2))
        jac = q1 @ np.diag(sigma) @ q2

        def decisions(c):
            ambiguous = bd.diagonalize_fermion(
                bd.StandardForm(bd.Statistics.FERMION, C=c)).sign_ambiguous
            try:
                return ambiguous, bd.point_sign(bd.SingularPoint("p", c))
            except bd.DegeneratePoint:
                return ambiguous, None

        assert decisions(10.0 ** u * jac) == decisions(jac)

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_degeneracy_boundary_shared(self, scale):
        # sigma_min / sigma_max at, just above and far above DEGENERACY_TOL:
        # the point, its sign and its local frequencies share one verdict
        for ratio, degenerate in [(1e-10, True), (0.0, True), (1.1e-10, False), (0.5, False)]:
            jac = scale * np.diag([1.0, -ratio, 0.7])
            data = bd.diagonalize_fermion(bd.StandardForm(bd.Statistics.FERMION, C=jac))
            assert data.sign_ambiguous is degenerate
            if degenerate:
                with pytest.raises(bd.DegeneratePoint, match="has singular values"):
                    bd.point_sign(bd.SingularPoint("p", jac))
                with pytest.raises(bd.DegeneratePoint):
                    bd.local_witten_spectrum(np.diag(jac), 2)
            else:
                assert bd.point_sign(bd.SingularPoint("p", jac)) == -1
                assert len(bd.local_witten_spectrum(np.diag(jac), 2).energies) == 2


class TestConstruction:
    def test_non_numeric_jacobian(self):
        with pytest.raises(bd.ValidationError,
                           match="jacobian of point 'p' must be a numeric square matrix"):
            bd.SingularPoint("p", [["x"]])

    def test_fixture_without_dimensions(self):
        with pytest.raises(bd.ValidationError, match="dimension must be at least 1"):
            bd.VectorFieldFixture(n=0, chi=0, points=())


class TestPoincareHopf:
    def test_sphere(self):
        report = bd.morse_report(sphere_fixture())
        assert (report.m_plus, report.m_minus) == (2, 0)
        assert report.chi_computed == 2 and report.chi_matches

    def test_torus(self):
        report = bd.morse_report(torus_fixture())
        assert (report.m_plus, report.m_minus) == (2, 2)
        assert report.chi_computed == 0 and report.chi_matches

    def test_mismatch(self):
        fixture = bd.VectorFieldFixture(n=2, chi=5, points=(bd.SingularPoint("p", np.eye(2)),))
        report = bd.morse_report(fixture)
        assert not report.chi_matches

    def test_report_arithmetic(self):
        rng = np.random.default_rng(0)
        points = tuple(
            bd.SingularPoint(f"p{i}", random_invertible_jacobian(rng, 3)) for i in range(7)
        )
        report = bd.morse_report(bd.VectorFieldFixture(n=3, chi=0, points=points))
        assert report.m_plus + report.m_minus == 7
        assert report.chi_computed == report.m_plus - report.m_minus


class TestZeroModeParity:
    def test_examples(self):
        assert bd.zero_mode_parity(bd.SingularPoint("p", np.diag([-1.0, -1.0]))) is Parity.EVEN
        assert bd.zero_mode_parity(bd.SingularPoint("p", np.diag([-1.0, 1.0, 1.0]))) is Parity.ODD
        rot = 0.9 * np.array([[0.0, 1.0], [-1.0, 0.0]])
        assert bd.zero_mode_parity(bd.SingularPoint("p", rot)) is Parity.EVEN

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_parity_sign_law(self, n):
        rng = np.random.default_rng(100 + n)
        for trial in range(20):
            jac = random_invertible_jacobian(rng, n)
            parity = bd.zero_mode_parity(bd.SingularPoint("p", jac))
            assert (parity is Parity.EVEN) == (np.linalg.det(jac) > 0)


class TestLocalWittenSpectrum:
    def test_positive_mode(self):
        result = bd.local_witten_spectrum([1.0], 3)
        assert result.energies.tolist() == pytest.approx([0.0, 2.0, 2.0])
        assert result.rungs[0].tolist() == [0]  # (m; f) = (0; 0)
        assert result.sectors[0] == 0

    def test_negative_mode(self):
        result = bd.local_witten_spectrum([-1.0], 3)
        assert result.energies[0] == pytest.approx(0.0)
        assert result.rungs[0].tolist() == [1]  # (m; f) = (0; 1)
        assert result.sectors[0] == 1

    def test_mixed_signs_unique_zero_mode(self):
        result = bd.local_witten_spectrum([1.0, -2.0], 8)
        zero = np.abs(result.energies) <= 1e-9
        assert zero.sum() == 1
        assert result.rungs[zero].tolist() == [[0, 1]]  # (m; f) = (0, 0; 0, 1)
        assert result.sectors[zero][0] == 1  # matches sign(det diag(1,-2)) = -1

    def test_zero_frequency_rejected(self):
        with pytest.raises(bd.DegeneratePoint):
            bd.local_witten_spectrum([1.0, 0.0], 3)
        with pytest.raises(bd.DegeneratePoint):
            bd.local_witten_spectrum([1.0, 1e-300], 5)

    @pytest.mark.parametrize("count", [2**20 + 1, 10**8])
    def test_count_guard_refuses_before_allocation(self, count):
        assert refusal_peak(bd.local_witten_spectrum, [1.0, -2.0], count) < 2**20

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_uniqueness_and_gap(self, n):
        rng = np.random.default_rng(200 + n)
        for trial in range(10):
            lams = np.sign(rng.uniform(-1, 1, n)) * rng.uniform(0.3, 2.0, n)
            result = bd.local_witten_spectrum(lams, 12)
            zeros = np.abs(result.energies) <= 1e-9
            assert zeros.sum() == 1
            nonzero = result.energies[~zeros]
            assert min(nonzero) >= 2.0 * np.min(np.abs(lams)) - 1e-9
            parity = 0 if np.prod(np.sign(lams)) > 0 else 1
            assert result.sectors[zeros][0] == parity

    @pytest.mark.parametrize("lams", [[1.3], [-0.8], [1.0, -2.0], [0.7, 1.9], [-0.5, -1.1]])
    def test_tensor_oracle(self, lams):
        oracle = lowest_oracle_levels(lams, 30, 8)
        closed = bd.local_witten_spectrum(lams, 8).energies
        assert np.max(np.abs(np.array(closed) - oracle)) <= 1e-6

    def test_zero_mode_parity_matches_oracle_sector(self):
        spectra = witten_tensor_oracle([1.0, -2.0], 20)
        occupations = fock.build_fermion_rep(2).occupations()
        zero_blocks = [f for f, vals in enumerate(spectra) for v in vals if abs(v) <= 1e-6]
        assert len(zero_blocks) == 1
        assert occupations[zero_blocks[0]] % 2 == 1


class TestOperatorIdentities:
    def test_wedge_contraction_explicit(self):
        assert fock.wedge_contraction_identity([3.0, 4.0]) <= 1e-12
        assert fock.wedge_contraction_identity([0.0, 0.0]) <= 1e-15

    def test_wedge_contraction_random(self):
        rng = np.random.default_rng(7)
        rep = fock.build_fermion_rep(6)
        for trial in range(20):
            assert fock.wedge_contraction_identity(rng.uniform(-1, 1, 6), rep) <= 1e-12

    def test_cross_term_symmetric_jacobian(self):
        # an exact 1-form (symmetric jacobian) has no 2-form part
        rng = np.random.default_rng(8)
        a = rng.uniform(-1, 1, (3, 3))
        residual, const = fock.cross_term_identity((a + a.T) / 2)
        assert residual <= 1e-12
        assert const == pytest.approx(-np.trace((a + a.T) / 2))

    def test_cross_term_rotation(self):
        residual, const = fock.cross_term_identity([[0.0, 1.0], [-1.0, 0.0]])
        assert residual <= 1e-12
        assert const == pytest.approx(0.0, abs=1e-12)

    def test_cross_term_zero(self):
        residual, const = fock.cross_term_identity(np.zeros((2, 2)))
        assert residual == 0.0 and const == 0.0

    def test_cross_term_n12_completes_n13_refused(self):
        # the shifted-diagonal check at the fermionic guard edge holds a few
        # stacks of 4096-long weight vectors; one mode more is refused unbuilt
        jac = np.random.default_rng(12).uniform(-1, 1, (12, 12))
        tracemalloc.start()
        try:
            residual, const = fock.cross_term_identity(jac)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert residual <= 1e-12
        assert const == pytest.approx(-np.trace(jac))
        assert peak < 256 * 2**20
        jac13 = np.random.default_rng(13).uniform(-1, 1, (13, 13))
        assert refusal_peak(fock.cross_term_identity, jac13) < 2**20

    def test_rep_of_other_modes_rejected(self):
        with pytest.raises(ValueError):
            fock.wedge_contraction_identity([1.0, 2.0, 3.0], fock.build_fermion_rep(2))
        with pytest.raises(ValueError):
            fock.cross_term_identity(np.eye(2), fock.build_fermion_rep(3))
        with pytest.raises(ValueError):
            fock.wedge_contraction_identity([1.0, 2.0], fock.build_boson_rep(2, 1))

    @pytest.mark.parametrize("n", [2, 3])
    def test_cross_term_detects_wrong_two_form_coefficient(self, monkeypatch, n):
        jac = np.random.default_rng(400 + n).uniform(-1, 1, (n, n))
        assert fock.cross_term_identity(jac)[0] <= 1e-12
        monkeypatch.setattr(fock, "TWO_FORM_COEFF", 1.0)
        assert fock.cross_term_identity(jac)[0] > 0.1

    @pytest.mark.parametrize("n", [2, 3])
    def test_wedge_detects_missing_sign_strings(self, n):
        # hard-core bosons: the fermionic ladders without Jordan-Wigner signs
        rep = fock.build_fermion_rep(n)
        (up_off, up), (down_off, down) = rep._ladders
        rep.__dict__["_ladders"] = (up_off, np.abs(up)), (down_off, np.abs(down))
        assert fock.wedge_contraction_identity(np.ones(n), rep) > 0.1

    def test_wedge_memory_guard_n13(self):
        assert refusal_peak(fock.wedge_contraction_identity, np.ones(13)) < 2**20

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_cross_term_random(self, n):
        rng = np.random.default_rng(300 + n)
        rep = fock.build_fermion_rep(n)
        for trial in range(10):
            residual, const = fock.cross_term_identity(rng.uniform(-1, 1, (n, n)), rep)
            assert residual <= 1e-12


    def test_identity_residuals_n3(self, monkeypatch):
        wedge, cross = fock.identity_residuals(3, seed=0, trials=6)
        assert wedge <= fock.IDENTITY_TOL and cross <= fock.IDENTITY_TOL
        # the trials include jacobians with a 2-form part
        monkeypatch.setattr(fock, "TWO_FORM_COEFF", 1.0)
        assert fock.identity_residuals(3, seed=0, trials=6)[1] > 0.1

    @pytest.mark.parametrize("omega", [[[1.0, 2.0]], [np.nan, 1.0], [1.0, np.inf]],
                             ids=["matrix", "nan", "inf"])
    def test_wedge_rejects_bad_omega(self, omega):
        with pytest.raises(bd.ValidationError, match="omega"):
            fock.wedge_contraction_identity(omega)

    @pytest.mark.parametrize("check, values, name", [
        (fock.wedge_contraction_identity, [], "omega"),
        (fock.wedge_contraction_identity, [[1.0], [2.0, 3.0]], "omega"),
        (fock.cross_term_identity, [[1.0], [2.0, 3.0]], "jacobian"),
        (fock.cross_term_identity, [[]], "jacobian"),
    ], ids=["empty-omega", "ragged-omega", "ragged-jacobian", "non-square-jacobian"])
    def test_malformed_input_names_the_argument(self, check, values, name):
        with pytest.raises(bd.ValidationError, match=name):
            check(values)

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
    def test_cross_rejects_nonfinite_jacobian(self, entry):
        with pytest.raises(bd.ValidationError, match="jacobian"):
            fock.cross_term_identity([[1.0, entry], [0.0, 1.0]])

    @pytest.mark.parametrize("seed", [0, 17])
    @pytest.mark.parametrize("trials", [1, 2, 7])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_identity_residuals_equal_per_trial_replay(self, n, seed, trials):
        # the reference draws and checks one trial at a time, the 1-form first
        rng = np.random.default_rng(seed)
        rep = fock.build_fermion_rep(n)
        wedge = cross = 0.0
        for trial in range(trials):
            omega = rng.uniform(-1.0, 1.0, size=n)
            jac = rng.uniform(-1.0, 1.0, size=(n, n))
            if trial % 2 == 1:
                jac = (jac + jac.T) / 2.0
            wedge = max(wedge, fock.wedge_contraction_identity(omega, rep))
            cross = max(cross, fock.cross_term_identity(jac, rep)[0])
        assert fock.identity_residuals(n, seed, trials) == (wedge, cross)

    @pytest.mark.parametrize("chunk", [1, 3])
    @pytest.mark.parametrize("n, trials", [(2, 7), (4, 10)])
    def test_identity_residuals_chunk_boundaries(self, monkeypatch, n, trials, chunk):
        whole = fock.identity_residuals(n, 5, trials)
        assert fock._trials_per_chunk(n) >= trials
        monkeypatch.setattr(fock, "_trials_per_chunk", lambda n: chunk)
        assert fock.identity_residuals(n, 5, trials) == whole

    def test_identity_residuals_n12_memory_n13_refused(self):
        # n = 12 runs one trial per chunk, so its peak is a single trial's
        assert fock._trials_per_chunk(12) == 1
        tracemalloc.start()
        try:
            wedge, cross = fock.identity_residuals(12, 0, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert wedge <= fock.IDENTITY_TOL and cross <= fock.IDENTITY_TOL
        assert peak < 256 * 2**20
        assert refusal_peak(fock.identity_residuals, 13, 0, 1) < 2**20


class TestMorseReport:
    def test_full_report(self):
        report = bd.morse_report(torus_fixture())
        assert report.chi_matches
        sectors = [p.zero_mode_sector for p in report.points]
        assert sectors == [Parity.EVEN, Parity.ODD, Parity.ODD, Parity.EVEN]
        for p in report.points:
            assert len(p.lambdas) == 2

    def test_fixture_json_round_trip(self):
        fixture = sphere_fixture()
        raw = {
            "n": 2,
            "chi": 2,
            "points": [
                {"label": p.label, "jacobian": p.jacobian.tolist()} for p in fixture.points
            ],
        }
        parsed = bd.fixture_from_dict(raw)
        assert parsed.n == 2 and parsed.chi == 2 and len(parsed.points) == 2

    def test_malformed_fixture(self):
        with pytest.raises(bd.ValidationError):
            bd.fixture_from_dict({"n": 2, "chi": 0})
        with pytest.raises(bd.ValidationError):
            bd.fixture_from_dict({"n": 2, "chi": 0, "points": [{"label": "p"}]})
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(bd.ValidationError):
                bd.fixture_from_dict(
                    {"n": 1, "chi": 0, "points": [{"label": "p", "jacobian": [[bad]]}]}
                )
