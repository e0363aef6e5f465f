import numpy as np
import pytest
from conftest import random_boson_form, random_fermion_form

import bogodiag as bd
from bogodiag import Statistics


class TestValidate:
    def test_valid_fermion(self):
        f = bd.QuadraticForm(Statistics.FERMION, U=[[0, 1], [-1, 0]], V=np.eye(2))
        assert bd.validate(f) == []

    def test_symmetric_u_rejected_for_fermions(self):
        f = bd.QuadraticForm(Statistics.FERMION, U=[[0, 1], [1, 0]], V=np.eye(2))
        violations = bd.validate(f)
        assert len(violations) == 1
        assert violations[0].message == "U not antisymmetric"
        assert violations[0].deviation == pytest.approx(2.0)

    def test_valid_boson(self):
        f = bd.QuadraticForm(Statistics.BOSON, U=np.zeros((2, 2)), V=[[1, 2], [2, 1]])
        assert bd.validate(f) == []

    def test_asymmetric_v_rejected(self):
        f = bd.QuadraticForm(Statistics.BOSON, U=np.zeros((2, 2)), V=[[1, 2], [0, 1]])
        checks = {v.check for v in bd.validate(f)}
        assert checks == {"V_symmetric"}

    def test_asymmetric_u_rejected_for_bosons(self):
        f = bd.QuadraticForm(Statistics.BOSON, U=[[0, 1], [0, 0]], V=np.eye(2))
        violations = bd.validate(f)
        assert [v.check for v in violations] == ["U_symmetric"]
        assert violations[0].deviation == pytest.approx(1.0)
        with pytest.raises(bd.ValidationError, match="U not symmetric"):
            bd.to_standard(f)

    @pytest.mark.parametrize("statistics", list(Statistics))
    @pytest.mark.parametrize("exponent", range(-12, 13, 4))
    def test_symmetry_check_is_scale_free(self, statistics, exponent):
        # a rotated diagonal carries rounding asymmetry of about eps |V|,
        # which an absolute tolerance refused from scale 1e8 on (7.5e-9 at
        # 1e8); a truly asymmetric form is refused at every scale, also
        # where its asymmetry is far below 1e-9
        scale = 10.0 ** exponent
        rng = np.random.default_rng(4)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        v = q @ np.diag(scale * rng.uniform(1.0, 2.0, 4)) @ q.T
        a = scale * rng.standard_normal((4, 4))
        u = q @ (a + a.T if statistics is Statistics.BOSON else a - a.T) @ q.T
        assert bd.validate(bd.QuadraticForm(statistics, U=u, V=v)) == []
        skewed = bd.QuadraticForm(statistics, U=np.zeros((2, 2)),
                                  V=scale * np.array([[1.0, 500.0], [0.0, 1.0]]))
        assert [x.check for x in bd.validate(skewed)] == ["V_symmetric"]

    def test_nonfinite_rejected(self):
        f = bd.QuadraticForm(Statistics.BOSON, U=np.zeros((1, 1)), V=[[np.inf]])
        assert [v.check for v in bd.validate(f)] == ["finite"]

    @pytest.mark.parametrize("statistics, u, v", [
        (Statistics.BOSON, [[1e308]], [[1e308]]),  # T = (U+V)/2 overflows
        (Statistics.BOSON, np.zeros((2, 2)), np.diag([1e308, 1e308])),  # k0 = const - Tr V
        (Statistics.FERMION, [[0, 1e308], [-1e308, 0]], [[0, 1e308], [1e308, 0]]),  # C = U+V
    ])
    def test_derived_overflow_rejected(self, statistics, u, v):
        f = bd.QuadraticForm(statistics, U=u, V=v)
        assert [x.check for x in bd.validate(f)] == ["derived_finite"]
        with pytest.raises(bd.ValidationError):
            bd.to_standard(f)

    def test_pencil_overflow_rejected(self):
        # T and R are finite, but the bosonic pencil R T overflows to -inf
        f = bd.QuadraticForm(Statistics.BOSON, U=[[0.0]], V=[[1e300]])
        violations = bd.validate(f)
        assert [x.check for x in violations] == ["derived_finite"]
        assert "R T" in violations[0].message
        with pytest.raises(bd.ValidationError):
            bd.to_standard(f)

    def test_largest_finite_pencil_admitted(self):
        f = bd.QuadraticForm(Statistics.BOSON, U=[[0.0]], V=[[1e154]])
        assert bd.validate(f) == []

    def test_shape_mismatch_raises(self):
        with pytest.raises(bd.ValidationError):
            bd.QuadraticForm(Statistics.BOSON, U=np.zeros((2, 2)), V=np.zeros((3, 3)))


class TestConstructorRefusals:
    """Each constructor refuses malformed input with a ValidationError (a
    ValueError for random_canonical's mode count) that says what is wrong."""

    @pytest.mark.parametrize("u", [[["a"]], [[1.0, 2.0], [1.0]]], ids=["string", "ragged"])
    def test_non_numeric_form_matrix(self, u):
        with pytest.raises(bd.ValidationError, match="U must be a numeric square matrix"):
            bd.QuadraticForm(Statistics.BOSON, u, [[1.0]])

    def test_non_numeric_transform_entry(self):
        with pytest.raises(bd.ValidationError, match="S must be a numeric square matrix"):
            bd.BogoliubovTransform(Statistics.BOSON, S=[["s"]])

    def test_non_square_matrix(self):
        with pytest.raises(bd.ValidationError,
                           match=r"U must be a square matrix, got shape \(2, 3\)"):
            bd.QuadraticForm(Statistics.BOSON, np.zeros((2, 3)), np.zeros((2, 3)))

    def test_empty_form(self):
        with pytest.raises(bd.ValidationError, match="mode count must be at least 1"):
            bd.QuadraticForm(Statistics.FERMION, np.zeros((0, 0)), np.zeros((0, 0)))

    def test_bosonic_standard_form_without_t_or_r(self):
        with pytest.raises(bd.ValidationError, match="bosonic standard form requires T and R"):
            bd.StandardForm(Statistics.BOSON, T=np.eye(2))

    def test_fermionic_standard_form_without_c(self):
        with pytest.raises(bd.ValidationError, match="fermionic standard form requires C"):
            bd.StandardForm(Statistics.FERMION, T=np.eye(2), R=np.eye(2))

    def test_random_canonical_without_modes(self):
        with pytest.raises(ValueError, match="n must be at least 1"):
            bd.random_canonical(Statistics.BOSON, 0)


class TestStandardForm:
    def test_boson_splitting(self):
        f = bd.QuadraticForm(Statistics.BOSON, U=np.zeros((2, 2)), V=np.eye(2))
        std = bd.to_standard(f)
        assert np.allclose(std.T, np.eye(2) / 2)
        assert np.allclose(std.R, -np.eye(2) / 2)

    def test_boson_normal_ordering_constant(self):
        # a^+ a = a a^+ + 1 shifts the constant by -Tr V
        f = bd.QuadraticForm(Statistics.BOSON, U=[[0.0]], V=[[1.0]], const=0.0)
        assert bd.to_standard(f).k0 == pytest.approx(-1.0)

    def test_fermion_coefficient_and_constant(self):
        f = bd.QuadraticForm(Statistics.FERMION, U=[[0.0]], V=[[1.0]], const=0.0)
        std = bd.to_standard(f)
        assert np.allclose(std.C, [[1.0]])
        assert std.k0 == pytest.approx(1.0)

    def test_invalid_form_rejected(self):
        f = bd.QuadraticForm(Statistics.FERMION, U=[[0, 1], [1, 0]], V=np.eye(2))
        with pytest.raises(bd.ValidationError):
            bd.to_standard(f)

    @pytest.mark.parametrize("statistics", [Statistics.BOSON, Statistics.FERMION])
    @pytest.mark.parametrize("n", [1, 2, 4, 6])
    def test_round_trip(self, statistics, n):
        rng = np.random.default_rng(n)
        make = random_boson_form if statistics is Statistics.BOSON else random_fermion_form
        f = make(rng, n)
        g = bd.from_standard(bd.to_standard(f))
        assert np.max(np.abs(g.U - f.U)) <= 1e-12
        assert np.max(np.abs(g.V - f.V)) <= 1e-12
        assert abs(g.const - f.const) <= 1e-12

    def test_standard_relations(self):
        rng = np.random.default_rng(5)
        f = random_boson_form(rng, 3)
        std = bd.to_standard(f)
        assert np.max(np.abs(std.T + std.R - f.U)) <= 1e-12
        assert np.max(np.abs(std.T - std.R - f.V)) <= 1e-12


class TestApplyTransform:
    def test_fermion_orthogonal_cancellation(self):
        theta = 0.7
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        b = bd.BogoliubovTransform(Statistics.FERMION, o_plus=rot, o_minus=rot.T)
        std = bd.StandardForm(statistics=Statistics.FERMION, C=np.eye(2), k0=0.25)
        out = bd.apply_transform(std, b)
        assert np.max(np.abs(out.C - np.eye(2))) <= 1e-12
        assert out.k0 == std.k0

    def test_boson_identity(self):
        std = bd.StandardForm(statistics=Statistics.BOSON,
                              T=[[1.0, 0.2], [0.2, 2.0]], R=-np.eye(2), k0=0.5)
        b = bd.BogoliubovTransform(Statistics.BOSON, S=np.eye(2))
        out = bd.apply_transform(std, b)
        assert np.allclose(out.T, std.T)
        assert np.allclose(out.R, std.R)

    def test_boson_shear(self):
        # direct matrix arithmetic: S = [[1,1],[0,1]] on T = diag(1,2), R = -I
        b = bd.BogoliubovTransform(Statistics.BOSON, S=[[1.0, 1.0], [0.0, 1.0]])
        std = bd.StandardForm(statistics=Statistics.BOSON, T=np.diag([1.0, 2.0]), R=-np.eye(2), k0=0.0)
        out = bd.apply_transform(std, b)
        assert np.allclose(out.T, [[3.0, 2.0], [2.0, 2.0]])
        assert np.allclose(out.R, [[-1.0, 1.0], [1.0, -2.0]])

    def test_non_canonical_rejected(self):
        # a non-orthogonal block is refused when the transform is built
        for o_plus, o_minus in ((2 * np.eye(2), np.eye(2)), (np.eye(2), np.full((2, 2), np.nan))):
            with pytest.raises(bd.NonCanonicalTransform, match="not orthogonal"):
                bd.BogoliubovTransform(Statistics.FERMION, o_plus=o_plus, o_minus=o_minus)

    def test_missing_blocks_rejected(self):
        with pytest.raises(bd.ValidationError, match="requires S"):
            bd.BogoliubovTransform(Statistics.BOSON, o_plus=np.eye(1), o_minus=np.eye(1))
        with pytest.raises(bd.ValidationError, match="requires o_plus and o_minus"):
            bd.BogoliubovTransform(Statistics.FERMION, o_plus=np.eye(1))

    def test_singular_s_rejected(self):
        b = bd.BogoliubovTransform(Statistics.BOSON, S=[[1.0, 2.0], [2.0, 4.0]])
        std = bd.StandardForm(statistics=Statistics.BOSON, T=np.eye(2), R=np.eye(2), k0=0.0)
        with pytest.raises(bd.NonCanonicalTransform, match="singular S"):
            bd.apply_transform(std, b)

    def test_statistics_mismatch_rejected(self):
        b = bd.BogoliubovTransform(Statistics.FERMION, o_plus=np.eye(1), o_minus=np.eye(1))
        std = bd.StandardForm(statistics=Statistics.BOSON, T=np.eye(1), R=np.eye(1), k0=0.0)
        with pytest.raises(bd.NonCanonicalTransform):
            bd.apply_transform(std, b)

    @pytest.mark.parametrize("statistics", [Statistics.BOSON, Statistics.FERMION])
    def test_mode_count_mismatch_rejected(self, statistics):
        make = random_boson_form if statistics is Statistics.BOSON else random_fermion_form
        std = bd.to_standard(make(np.random.default_rng(0), 2))
        b2 = bd.random_canonical(statistics, 2, seed=1)
        b3 = bd.random_canonical(statistics, 3, seed=1)
        with pytest.raises(bd.NonCanonicalTransform, match=r"\(2 and 3\)"):
            bd.apply_transform(std, b3)
        with pytest.raises(bd.NonCanonicalTransform, match=r"\(2 and 3\)"):
            bd.compose(b2, b3)

    @pytest.mark.parametrize("statistics", [Statistics.BOSON, Statistics.FERMION])
    @pytest.mark.parametrize("n", [1, 2, 4, 6])
    def test_composition(self, statistics, n):
        rng = np.random.default_rng(100 + n)
        make = random_boson_form if statistics is Statistics.BOSON else random_fermion_form
        std = bd.to_standard(make(rng, n))
        b1 = bd.random_canonical(statistics, n, seed=n)
        b2 = bd.random_canonical(statistics, n, seed=n + 50)
        chained = bd.apply_transform(bd.apply_transform(std, b1), b2)
        combined = bd.apply_transform(std, bd.compose(b2, b1))
        if statistics is Statistics.BOSON:
            assert np.max(np.abs(chained.T - combined.T)) <= 1e-10
            assert np.max(np.abs(chained.R - combined.R)) <= 1e-10
        else:
            assert np.max(np.abs(chained.C - combined.C)) <= 1e-10


class TestPredicates:
    def test_boson_identity_canonical_positive(self):
        assert bd.is_positive(bd.BogoliubovTransform(Statistics.BOSON, S=np.eye(2)))
        assert not bd.is_positive(bd.BogoliubovTransform(Statistics.BOSON, S=np.diag([-1.0, 1.0])))

    def test_fermion_from_special_orthogonal(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 3, 5):
            q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
            q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
            for q in (q1, q2):
                if np.linalg.det(q) < 0:
                    q[:, 0] *= -1
            b = bd.BogoliubovTransform(Statistics.FERMION, o_plus=q1, o_minus=q2)
            assert bd.is_positive(b)

    def test_fermion_reflection_not_positive(self):
        b = bd.BogoliubovTransform(Statistics.FERMION, o_plus=np.diag([-1.0, 1.0]), o_minus=np.eye(2))
        assert not bd.is_positive(b)


class TestRandomCanonical:
    def test_fermion_n1_positive_is_unique(self):
        for seed in range(5):
            b = bd.random_canonical(Statistics.FERMION, 1, seed=seed, positive=True)
            assert b.o_plus[0, 0] == pytest.approx(1.0)
            assert b.o_minus[0, 0] == pytest.approx(1.0)

    @pytest.mark.parametrize("statistics", [Statistics.BOSON, Statistics.FERMION])
    def test_canonical_and_positive(self, statistics):
        for n in range(1, 7):
            for seed in range(100):
                b = bd.random_canonical(statistics, n, seed=seed, positive=True)
                if statistics is Statistics.BOSON:
                    # singular values exp(u) with |u| <= CANONICAL_SPREAD = 0.45
                    sing = np.linalg.svd(b.S, compute_uv=False)
                    assert sing[0] / sing[-1] <= np.exp(0.9) * (1 + 1e-10), (n, seed)
                else:
                    for o in (b.o_plus, b.o_minus):
                        assert np.max(np.abs(o.T @ o - np.eye(n))) <= 1e-10, (n, seed)
                assert bd.is_positive(b)

    def test_fermion_determinants(self):
        b = bd.random_canonical(Statistics.FERMION, 3, seed=7, positive=True)
        assert np.linalg.det(b.o_plus) == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.det(b.o_minus) == pytest.approx(1.0, abs=1e-10)

    def test_negative_draws_reachable(self):
        seen_negative = False
        for seed in range(20):
            b = bd.random_canonical(Statistics.FERMION, 3, seed=seed, positive=False)
            seen_negative = seen_negative or not bd.is_positive(b)
        assert seen_negative

    def test_boson_determinant_signs(self):
        # positive=False flips a column of S on a coin toss: both signs of
        # det S occur over seeds 0-19, and positive=True never gives a negative one
        for n in (1, 2, 3):
            free = {np.sign(np.linalg.det(bd.random_canonical(Statistics.BOSON, n, seed=seed,
                                                               positive=False).S))
                    for seed in range(20)}
            kept = {np.sign(np.linalg.det(bd.random_canonical(Statistics.BOSON, n, seed=seed).S))
                    for seed in range(20)}
            assert free == {-1.0, 1.0} and kept == {1.0}, n


class TestJson:
    def test_form_round_trip(self):
        rng = np.random.default_rng(2)
        f = random_fermion_form(rng, 3)
        g = bd.form_from_dict(f.to_dict())
        assert g.statistics is f.statistics
        assert np.allclose(g.U, f.U) and np.allclose(g.V, f.V)
        assert g.const == f.const

    def test_numpy_numbers_accepted(self):
        f = bd.form_from_dict({"statistics": "boson", "n": 1, "U": np.zeros((1, 1)),
                               "V": [[np.int64(1)]], "const": np.float64(0.5)})
        assert f.V[0, 0] == 1.0 and f.const == 0.5

    @pytest.mark.parametrize("payload", [
        {},
        {"statistics": "anyon", "n": 1, "U": [[0]], "V": [[0]]},
        {"statistics": "boson", "n": 2, "U": [[0]], "V": [[0, 0], [0, 0]]},
        {"statistics": "boson", "U": [[0]], "V": [[0]]},
        [{"statistics": "boson", "n": 1, "U": [[0]], "V": [[0]]}],
        {"statistics": "boson", "n": 1, "U": [[0]], "V": [[0]], "const": "abc"},
        {"statistics": "boson", "n": 1, "U": [[0]], "V": [[0]], "const": None},
        {"statistics": "boson", "n": 1, "U": [[0]], "V": [[0]], "const": float("inf")},
        pytest.param({"statistics": "fermion", "U": [[0]], "V": [[0]]}, id="n_missing"),
        pytest.param({"statistics": "boson", "n": "one", "U": [[0]], "V": [[0]]}, id="n_not_integer"),
        pytest.param({"statistics": "boson", "n": float("inf"), "U": [[0]], "V": [[0]]},
                     id="n_infinite"),
        pytest.param({"statistics": "boson", "n": 1.5, "U": [[0]], "V": [[0]]}, id="n_fraction"),
        pytest.param({"statistics": "boson", "n": True, "U": [[0]], "V": [[0]]}, id="n_bool"),
        pytest.param({"statistics": "boson", "n": "1", "U": [[0]], "V": [[0]]}, id="n_string"),
        pytest.param({"statistics": "fermion", "n": 1, "V": [[1]]}, id="U_missing"),
        pytest.param({"statistics": "fermion", "n": 1, "U": [["a"]], "V": [[1]]}, id="U_not_numeric"),
        pytest.param({"statistics": "fermion", "n": 2, "U": [[0]], "V": [[1]]}, id="U_wrong_shape"),
    ])
    def test_malformed_rejected(self, payload):
        with pytest.raises(bd.ValidationError):
            bd.form_from_dict(payload)
