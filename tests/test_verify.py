"""verify_form: closed-form spectra against the Fock-space oracle."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from conftest import bounded_boson_form, random_fermion_form

import bogodiag as bd
from bogodiag import Statistics, forms, spectral

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


def test_fermion_pass_n4():
    form = random_fermion_form(np.random.default_rng(14), 4)
    report = bd.verify_form(form, cutoff=40, count=10, tol=1e-9)
    assert report.ok
    assert report.compared == 16 and report.sector_mismatches == 0
    assert report.max_abs_deviation <= 1e-9
    assert set(report.to_dict()) == {"statistics", "compared", "max_abs_deviation",
                                      "sector_mismatches"}


def test_boson_pass_n2():
    form = bounded_boson_form(np.random.default_rng(15), 2, seed=3)
    report = bd.verify_form(form, cutoff=30, count=10, tol=1e-6)
    assert report.ok
    assert report.compared == 10 and report.bounded_below is True
    assert report.max_abs_deviation <= 1e-6
    assert report.warning is None and "warning" not in report.to_dict()


@pytest.mark.parametrize("scale", [1e-160, 1e-200, 1e-280])
@pytest.mark.parametrize("n", [2, 3])
def test_boson_pass_at_tiny_scales(n, scale):
    # the pencil R T of the scaled form has entries near scale^2, below the
    # smallest double: the closed form must be made from T and R over powers
    # of two, or its residual check refuses it as defective
    base = bounded_boson_form(np.random.default_rng(2), n, seed=2)
    form = bd.QuadraticForm(Statistics.BOSON, U=scale * base.U, V=scale * base.V)
    report = bd.verify_form(form, cutoff=16, count=10, tol=1e-6)
    assert report.ok and report.compared == 10
    assert report.max_abs_deviation <= 1e-6 * form.scale


def test_unbounded_boson_compares_nothing():
    form = bd.QuadraticForm(Statistics.BOSON, U=[[0.0]], V=[[-1.0]])
    report = bd.verify_form(form, cutoff=40, count=10, tol=1e-9)
    assert report.ok and report.compared == 0 and report.bounded_below is False
    assert report.to_dict()["warning"] == report.warning and report.warning


@pytest.mark.parametrize("statistics", [Statistics.FERMION, Statistics.BOSON])
def test_tolerance_below_deviation_fails(statistics):
    rng = np.random.default_rng(16)
    if statistics is Statistics.FERMION:
        form = random_fermion_form(rng, 3)
    else:
        form = bounded_boson_form(rng, 1, seed=4)
    measured = bd.verify_form(form, cutoff=30, count=5, tol=1e-6)
    assert measured.ok and measured.max_abs_deviation > 0.0
    report = bd.verify_form(form, cutoff=30, count=5, tol=measured.max_abs_deviation / 2)
    assert report.ok is False


def test_fermion_n13_refused_before_enumerating(monkeypatch):
    def fail(data):
        raise AssertionError("the 2^n closed-form spectrum was enumerated")

    monkeypatch.setattr(spectral, "fermion_spectrum", fail)
    n = 13
    form = bd.QuadraticForm(Statistics.FERMION, U=np.zeros((n, n)), V=np.eye(n))
    with pytest.raises(bd.ResourceLimitError):
        bd.verify_form(form, cutoff=40, count=10, tol=1e-9)


def test_fermion_n13_refused():
    n = 13
    form = bd.QuadraticForm(Statistics.FERMION, U=np.zeros((n, n)), V=np.eye(n))
    with pytest.raises(bd.ResourceLimitError):
        bd.verify_form(form, cutoff=40, count=10, tol=1e-9)


@pytest.mark.parametrize("name", ["fermion_pair", "boson_oscillator"])
@pytest.mark.parametrize("tol", [float("nan"), -1.0, float("inf")])
def test_tol_not_finite_nonnegative_refused_before_work(monkeypatch, name, tol):
    def fail(form):
        raise AssertionError("the form was brought to standard form")

    form = bd.form_from_dict(json.loads((FIXTURES / f"{name}.json").read_text()))
    monkeypatch.setattr(forms, "to_standard", fail)
    with pytest.raises(bd.ValidationError, match="tol must be a finite number >= 0"):
        bd.verify_form(form, cutoff=40, count=10, tol=tol)


@pytest.mark.parametrize("name", ["fermion_pair", "boson_oscillator"])
@pytest.mark.parametrize("cutoff, count, bad", [(0, 10, "cutoff"), (-1, 10, "cutoff"),
                                                (2.5, 10, "cutoff"), (40, 0, "count"),
                                                (40, -3, "count"), (40, 2.5, "count")])
def test_cutoff_and_count_not_positive_integers_refused(monkeypatch, name, cutoff, count, bad):
    # refused for either statistics, as the CLI's option ranges refuse them;
    # a bosonic count of 0 would compare nothing and pass
    def fail(form):
        raise AssertionError("the form was brought to standard form")

    form = bd.form_from_dict(json.loads((FIXTURES / f"{name}.json").read_text()))
    monkeypatch.setattr(forms, "to_standard", fail)
    with pytest.raises(bd.ValidationError, match=f"{bad} must be an integer >= 1"):
        bd.verify_form(form, cutoff=cutoff, count=count, tol=1e-6)


def test_zero_scale_compares_exactly(monkeypatch):
    # U = V = 0: tol times the scale 0 is 0.  The fermionic H is const * I,
    # which both sides give exactly (as 0, since verify drops const); a
    # closed form one ulp off fails, and the bosonic form is not discrete
    zero = np.zeros((2, 2))
    form = bd.QuadraticForm(Statistics.FERMION, U=zero, V=zero, const=0.7)
    report = bd.verify_form(form, cutoff=40, count=10, tol=1e-9)
    assert report.ok and report.compared == 4 and report.max_abs_deviation == 0.0
    fermion_spectrum = spectral.fermion_spectrum

    def shifted(data):
        result = fermion_spectrum(data)
        return dataclasses.replace(result, energies=np.nextafter(result.energies, np.inf))

    monkeypatch.setattr(spectral, "fermion_spectrum", shifted)
    assert bd.verify_form(form, cutoff=40, count=10, tol=1e-9).ok is False
    with pytest.raises(bd.ContinuousSpectrum):
        bd.verify_form(bd.QuadraticForm(Statistics.BOSON, U=zero, V=zero, const=0.7),
                       cutoff=40, count=10, tol=1e-9)


@pytest.mark.parametrize("ratio", [0.0, 1e6, -1e6, 1e9, -1e9, 1e12, -1e12])
@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
@pytest.mark.parametrize("statistics", [Statistics.FERMION, Statistics.BOSON])
def test_const_does_not_enter_the_comparison(monkeypatch, statistics, scale, ratio):
    # U and V times `scale`, and a const of `ratio` times the form's scale:
    # the valid form passes with the report of the same form without const,
    # and a closed form of zeros, or for bosons one with a mutated
    # LEVEL_COEFF, fails.  Compared with const in, a const far above U and V
    # failed valid forms on rounding at the constant's magnitude
    if statistics is Statistics.FERMION:
        base, tol = random_fermion_form(np.random.default_rng(16), 6), 1e-9
    else:
        base, tol = bounded_boson_form(np.random.default_rng(15), 2, seed=3), 1e-6
    free = bd.QuadraticForm(statistics, U=scale * base.U, V=scale * base.V)
    form = dataclasses.replace(free, const=ratio * free.scale)

    def report(f=form):
        return bd.verify_form(f, cutoff=20, count=10, tol=tol)

    valid = report()
    assert valid.ok and valid.compared == (64 if statistics is Statistics.FERMION else 10)
    assert valid == report(free)
    name = "fermion_spectrum" if statistics is Statistics.FERMION else "boson_spectrum"
    spectrum = getattr(spectral, name)

    def zeroed(*data):
        result = spectrum(*data)
        return dataclasses.replace(result, energies=np.zeros_like(result.energies))

    with monkeypatch.context() as patch:
        patch.setattr(spectral, name, zeroed)
        assert report().ok is False
    if statistics is Statistics.BOSON:
        monkeypatch.setattr(spectral, "LEVEL_COEFF", -4.4)
        assert report().ok is False
