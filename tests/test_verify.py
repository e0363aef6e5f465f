"""verify_form: closed-form spectra against the Fock-space oracle."""

import numpy as np
import pytest
from conftest import bounded_boson_form, random_fermion_form

import bogodiag as bd
from bogodiag import Statistics, spectral


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
