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
        # O_+ = rot(theta), O_- = rot(-theta): P = (O_+ - O_-)/2, Q = (O_+ + O_-)/2
        b = bd.BogoliubovTransform(Statistics.FERMION, P=(rot - rot.T) / 2, Q=(rot + rot.T) / 2)
        std = bd.StandardForm(statistics=Statistics.FERMION, C=np.eye(2), k0=0.25)
        out = bd.apply_transform(std, b)
        assert np.max(np.abs(out.C - np.eye(2))) <= 1e-12
        assert out.k0 == std.k0

    def test_boson_identity(self):
        std = bd.StandardForm(statistics=Statistics.BOSON,
                              T=[[1.0, 0.2], [0.2, 2.0]], R=-np.eye(2), k0=0.5)
        b = bd.BogoliubovTransform(Statistics.BOSON, P=np.eye(2), Q=np.zeros((2, 2)))
        out = bd.apply_transform(std, b)
        assert np.allclose(out.T, std.T)
        assert np.allclose(out.R, std.R)

    def test_boson_shear(self):
        # direct matrix arithmetic: S = [[1,1],[0,1]] on T = diag(1,2), R = -I
        s = np.array([[1.0, 1.0], [0.0, 1.0]])
        s_inv_t = np.linalg.inv(s).T
        b = bd.BogoliubovTransform(Statistics.BOSON, P=(s + s_inv_t) / 2, Q=(s - s_inv_t) / 2)
        std = bd.StandardForm(statistics=Statistics.BOSON, T=np.diag([1.0, 2.0]), R=-np.eye(2), k0=0.0)
        out = bd.apply_transform(std, b)
        assert np.allclose(out.T, [[3.0, 2.0], [2.0, 2.0]])
        assert np.allclose(out.R, [[-1.0, 1.0], [1.0, -2.0]])

    def test_non_canonical_rejected(self):
        b = bd.BogoliubovTransform(Statistics.BOSON, P=2 * np.eye(2), Q=np.zeros((2, 2)))
        std = bd.StandardForm(statistics=Statistics.BOSON, T=np.eye(2), R=np.eye(2), k0=0.0)
        with pytest.raises(bd.NonCanonicalTransform):
            bd.apply_transform(std, b)

    def test_statistics_mismatch_rejected(self):
        b = bd.BogoliubovTransform(Statistics.FERMION, P=np.zeros((1, 1)), Q=np.eye(1))
        std = bd.StandardForm(statistics=Statistics.BOSON, T=np.eye(1), R=np.eye(1), k0=0.0)
        with pytest.raises(bd.NonCanonicalTransform):
            bd.apply_transform(std, b)

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
        b = bd.BogoliubovTransform(Statistics.BOSON, P=np.eye(2), Q=np.zeros((2, 2)))
        ok, dev = bd.is_canonical(b)
        assert ok and dev <= 1e-15
        assert bd.is_positive(b)

    def test_fermion_from_special_orthogonal(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 3, 5):
            q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
            q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
            for q in (q1, q2):
                if np.linalg.det(q) < 0:
                    q[:, 0] *= -1
            b = bd.BogoliubovTransform(Statistics.FERMION, P=(q1 - q2) / 2, Q=(q1 + q2) / 2)
            ok, dev = bd.is_canonical(b)
            assert ok and dev <= 1e-12
            assert bd.is_positive(b)

    def test_fermion_reflection_not_positive(self):
        o_plus = np.diag([-1.0, 1.0])
        o_minus = np.eye(2)
        b = bd.BogoliubovTransform(Statistics.FERMION, P=(o_plus - o_minus) / 2, Q=(o_plus + o_minus) / 2)
        ok, _ = bd.is_canonical(b)
        assert ok
        assert not bd.is_positive(b)


class TestRandomCanonical:
    def test_fermion_n1_positive_is_unique(self):
        for seed in range(5):
            b = bd.random_canonical(Statistics.FERMION, 1, seed=seed, positive=True)
            assert b.o_plus[0, 0] == pytest.approx(1.0)
            assert b.o_minus[0, 0] == pytest.approx(1.0)
            assert b.P[0, 0] == pytest.approx(0.0)
            assert b.Q[0, 0] == pytest.approx(1.0)

    @pytest.mark.parametrize("statistics", [Statistics.BOSON, Statistics.FERMION])
    def test_canonical_and_positive(self, statistics):
        for n in range(1, 7):
            for seed in range(100):
                b = bd.random_canonical(statistics, n, seed=seed, positive=True)
                ok, dev = bd.is_canonical(b)
                assert ok and dev <= 1e-10, (statistics, n, seed, dev)
                assert bd.is_positive(b)

    def test_fermion_determinants(self):
        b = bd.random_canonical(Statistics.FERMION, 3, seed=7, positive=True)
        assert np.linalg.det(b.Q + b.P) == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.det(b.Q - b.P) == pytest.approx(1.0, abs=1e-10)

    def test_negative_draws_reachable(self):
        seen_negative = False
        for seed in range(20):
            b = bd.random_canonical(Statistics.FERMION, 3, seed=seed, positive=False)
            ok, _ = bd.is_canonical(b)
            assert ok
            seen_negative = seen_negative or not bd.is_positive(b)
        assert seen_negative


class TestJson:
    def test_form_round_trip(self):
        rng = np.random.default_rng(2)
        f = random_fermion_form(rng, 3)
        g = bd.form_from_dict(f.to_dict())
        assert g.statistics is f.statistics
        assert np.allclose(g.U, f.U) and np.allclose(g.V, f.V)
        assert g.const == f.const

    def test_transform_round_trip(self):
        b = bd.random_canonical(Statistics.BOSON, 2, seed=1)
        c = bd.transform_from_dict(b.to_dict())
        assert np.allclose(c.P, b.P) and np.allclose(c.Q, b.Q)

    @pytest.mark.parametrize("payload", [
        {},
        {"statistics": "anyon", "n": 1, "U": [[0]], "V": [[0]]},
        {"statistics": "boson", "n": 2, "U": [[0]], "V": [[0, 0], [0, 0]]},
        {"statistics": "boson", "U": [[0]], "V": [[0]]},
        [{"statistics": "boson", "n": 1, "U": [[0]], "V": [[0]]}],
        {"statistics": "boson", "n": 1, "U": [[0]], "V": [[0]], "const": "abc"},
        {"statistics": "boson", "n": 1, "U": [[0]], "V": [[0]], "const": None},
        {"statistics": "boson", "n": 1, "U": [[0]], "V": [[0]], "const": float("inf")},
    ])
    def test_malformed_rejected(self, payload):
        with pytest.raises(bd.ValidationError):
            bd.form_from_dict(payload)

    @pytest.mark.parametrize("payload", [
        {"statistics": "boson", "P": [[1]], "Q": [[0]]},
        {"statistics": "boson", "n": "one", "P": [[1]], "Q": [[0]]},
        {"statistics": "fermion", "n": 1, "Q": [[1]]},
        {"statistics": "fermion", "n": 1, "P": [["a"]], "Q": [[1]]},
        {"statistics": "fermion", "n": 2, "P": [[0]], "Q": [[1]]},
    ], ids=["n_missing", "n_not_integer", "P_missing", "P_not_numeric", "P_wrong_shape"])
    def test_malformed_transform_rejected(self, payload):
        with pytest.raises(bd.ValidationError):
            bd.transform_from_dict(payload)

    def test_non_object_transform_rejected(self):
        with pytest.raises(bd.ValidationError):
            bd.transform_from_dict([[1.0], [0.0]])
