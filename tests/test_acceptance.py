"""Acceptance suite.

Each test prints one PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import time

import numpy as np
import pytest
from conftest import bounded_boson_form, random_fermion_form, random_invertible_jacobian
from test_conventions import ALL_CHECKS
from test_morse import lowest_oracle_levels

import bogodiag as bd
from bogodiag import ModeClass, Parity, Statistics, fock


def _report(number, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {number}: {name} ({detail})")
    assert ok, f"criterion {number}: {name}: {detail}"


def _sector_energies(result, parity):
    return np.sort(result.energies[result.sectors == parity])


def _fermion_suite(count=200, n_max=8, seed=42):
    rng = np.random.default_rng(seed)
    forms = []
    for i in range(count):
        n = 1 + i % n_max
        forms.append(random_fermion_form(rng, n))
    return forms


def _boson_suite(seed=1234):
    """50 bounded-below discrete forms over n = 1, 2, 3."""
    rng = np.random.default_rng(seed)
    plan = [(1, 25), (2, 20), (3, 5)]
    forms = []
    for n, count in plan:
        for i in range(count):
            forms.append((n, bounded_boson_form(rng, n, seed=1000 * n + i)))
    return forms


def test_criterion_1_fermion_oracle_equivalence():
    t0 = time.time()
    worst = 0.0
    mismatches = 0
    forms = _fermion_suite()
    for form in forms:
        even, odd = fock.sector_spectra(form)
        result = bd.fermion_spectrum(bd.diagonalize_fermion(bd.to_standard(form)))
        closed_even = _sector_energies(result, 0)
        closed_odd = _sector_energies(result, 1)
        if len(closed_even) != len(even) or len(closed_odd) != len(odd):
            mismatches += 1
            continue
        dev = max(np.max(np.abs(closed_even - even)), np.max(np.abs(closed_odd - odd)))
        worst = max(worst, float(dev))
        if dev > 1e-9:
            mismatches += 1
    elapsed = time.time() - t0
    _report(1, "fermionic oracle equivalence",
            worst <= 1e-9 and mismatches == 0,
            f"{len(forms)} forms n<=8, max deviation {worst:.2e}, "
            f"sector mismatches {mismatches}, {elapsed:.1f}s")


def test_criterion_2_boson_oracle_equivalence():
    # cutoff 60 for n <= 2; at n = 3 the largest doubling-safe cutoff inside
    # the oracle's dimension guard is 24 (49^3 = 117649 <= 200000)
    t0 = time.time()
    worst = 0.0
    short_prefixes = 0
    suite = _boson_suite()
    for n, form in suite:
        cutoff = 60 if n <= 2 else 24
        data = bd.diagonalize_boson(bd.to_standard(form))
        assert all(m.mode_class is ModeClass.DISCRETE for m in data.modes)
        closed = bd.boson_spectrum(data, 10).energies
        oracle = fock.truncation_stable_spectrum(form, cutoff=cutoff, k=10, tol=1e-6)
        if len(oracle) < 10:
            short_prefixes += 1
            continue
        worst = max(worst, float(np.max(np.abs(closed - oracle))))
    elapsed = time.time() - t0
    _report(2, "bosonic oracle equivalence",
            worst <= 1e-6 and short_prefixes == 0,
            f"{len(suite)} forms n<=3, max deviation {worst:.2e}, "
            f"short prefixes {short_prefixes}, {elapsed:.1f}s")


def test_criterion_3_isospectrality_under_positive_transforms():
    t0 = time.time()
    worst_f = 0.0
    sector_changes = 0
    for i, form in enumerate(_fermion_suite()):
        std = bd.to_standard(form)
        base = bd.fermion_spectrum(bd.diagonalize_fermion(std))
        b = bd.random_canonical(Statistics.FERMION, form.n, seed=i, positive=True)
        moved = bd.fermion_spectrum(bd.diagonalize_fermion(bd.apply_transform(std, b)))
        for parity in (0, 1):
            e0, e1 = _sector_energies(base, parity), _sector_energies(moved, parity)
            if len(e0) != len(e1):
                sector_changes += 1
            else:
                worst_f = max(worst_f, float(np.max(np.abs(e0 - e1))) if len(e0) else 0.0)
    worst_b = 0.0
    for i, (n, form) in enumerate(_boson_suite()):
        std = bd.to_standard(form)
        base = bd.boson_spectrum(bd.diagonalize_boson(std), 10).energies
        b = bd.random_canonical(Statistics.BOSON, n, seed=i, positive=True)
        moved = bd.boson_spectrum(bd.diagonalize_boson(bd.apply_transform(std, b)), 10).energies
        worst_b = max(worst_b, float(np.max(np.abs(np.array(base) - np.array(moved)))))
    elapsed = time.time() - t0
    _report(3, "isospectrality under positive transforms",
            worst_f <= 1e-8 and worst_b <= 1e-8 and sector_changes == 0,
            f"fermion max shift {worst_f:.2e}, boson max shift {worst_b:.2e}, "
            f"sector changes {sector_changes}, {elapsed:.1f}s")


def test_criterion_4_invariant_completeness():
    t0 = time.time()
    rng = np.random.default_rng(77)
    worst_det = 0.0
    worst_s = 0.0
    for i in range(100):
        n = 1 + i % 6
        std = bd.to_standard(random_fermion_form(rng, n))
        det0, s0 = bd.fermion_invariants(std.C)
        b = bd.random_canonical(Statistics.FERMION, n, seed=i, positive=True)
        det1, s1 = bd.fermion_invariants(bd.apply_transform(std, b).C)
        worst_det = max(worst_det, abs(det0 - det1))
        worst_s = max(worst_s, float(np.max(np.abs(np.array(s0) - np.array(s1)))))
    elapsed = time.time() - t0
    _report(4, "determinant and s-numbers invariant",
            worst_det <= 1e-10 and worst_s <= 1e-10,
            f"100 transforms, det drift {worst_det:.2e}, s-number drift {worst_s:.2e}, "
            f"{elapsed:.1f}s")


def test_criterion_5_diagonalizability_necessity():
    non_real = False
    try:
        bd.diagonalize_boson(bd.StandardForm(
            statistics=Statistics.BOSON,
            T=[[1.0, 0.0], [0.0, -1.0]], R=[[0.0, 1.0], [1.0, 0.0]], k0=0.0))
    except bd.NonRealSpectrum:
        non_real = True
    defective = False
    try:
        bd.diagonalize_boson(bd.StandardForm(
            statistics=Statistics.BOSON,
            T=[[0.0, 0.0], [0.0, 1.0]], R=[[0.0, 1.0], [1.0, 0.0]], k0=0.0))
    except bd.DefectiveMatrix:
        defective = True
    _report(5, "non-real and defective pencils rejected",
            non_real and defective,
            f"NonRealSpectrum={non_real}, DefectiveMatrix={defective}")


def test_criterion_6_operator_identity_residuals():
    t0 = time.time()
    rng = np.random.default_rng(31)
    worst_wedge = 0.0
    worst_cross = 0.0
    for i in range(100):
        n = 1 + i % 6
        rep = fock.build_fermion_rep(n)
        worst_wedge = max(worst_wedge,
                          fock.wedge_contraction_identity(rng.uniform(-1, 1, n), rep))
        jac = rng.uniform(-1, 1, (n, n))
        if i % 3 == 0:
            jac = (jac + jac.T) / 2.0  # exact-form case, no 2-form part
        residual, _ = fock.cross_term_identity(jac, rep)
        worst_cross = max(worst_cross, residual)
    elapsed = time.time() - t0
    _report(6, "operator identity residuals",
            worst_wedge <= 1e-12 and worst_cross <= 1e-12,
            f"100 inputs each n<=6, wedge {worst_wedge:.2e}, cross {worst_cross:.2e}, "
            f"{elapsed:.1f}s")


def test_criterion_7_local_zero_modes():
    t0 = time.time()
    rng = np.random.default_rng(55)
    ok_counts = True
    ok_parity = True
    for i in range(100):
        n = 1 + i % 6
        jac = random_invertible_jacobian(rng, n)
        data = bd.diagonalize_fermion(
            bd.StandardForm(statistics=Statistics.FERMION, C=jac, k0=0.0))
        result = bd.local_witten_spectrum(data.lambdas, 12)
        zeros = np.abs(result.energies) <= 1e-9
        nonzero = result.energies[~zeros]
        if zeros.sum() != 1 or min(nonzero) < 2.0 * np.min(np.abs(data.lambdas)) - 1e-9:
            ok_counts = False
        expected = Parity.EVEN if np.linalg.det(jac) > 0 else Parity.ODD
        if zeros.any() and result.sectors[zeros][0] != int(expected is Parity.ODD):
            ok_parity = False
        if bd.zero_mode_parity(bd.SingularPoint("p", jac)) is not expected:
            ok_parity = False
    # oracle comparison uses moderate oscillator frequencies so the fixed
    # frequency-1 basis converges far below the tolerance
    worst_oracle = 0.0
    for n in (1, 2):
        for trial in range(3):
            lams = np.sign(rng.uniform(-1, 1, n)) * rng.uniform(0.5, 2.0, n)
            result = bd.local_witten_spectrum(lams, 8)
            zeros = np.abs(result.energies) <= 1e-9
            expected = 0 if np.prod(np.sign(lams)) > 0 else 1
            if zeros.sum() != 1 or result.sectors[zeros][0] != expected:
                ok_parity = False
            closed = result.energies
            oracle = lowest_oracle_levels(lams, 30, 8)
            worst_oracle = max(worst_oracle, float(np.max(np.abs(np.array(closed) - oracle))))
    elapsed = time.time() - t0
    _report(7, "unique local zero mode with detector parity",
            ok_counts and ok_parity and worst_oracle <= 1e-6,
            f"100 jacobians n<=6, tensor-oracle deviation {worst_oracle:.2e}, {elapsed:.1f}s")


def test_criterion_8_index_fixtures():
    sphere = bd.VectorFieldFixture(n=2, chi=2, points=(
        bd.SingularPoint("min", np.eye(2)), bd.SingularPoint("max", -np.eye(2))))
    torus = bd.VectorFieldFixture(n=2, chi=0, points=(
        bd.SingularPoint("min", np.diag([1.0, 1.0])),
        bd.SingularPoint("s1", np.diag([1.0, -1.0])),
        bd.SingularPoint("s2", np.diag([-1.0, 1.0])),
        bd.SingularPoint("max", np.diag([-1.0, -1.0]))))
    rs = bd.morse_report(sphere)
    rt = bd.morse_report(torus)
    ok = (rs.m_plus, rs.m_minus, rs.chi_matches) == (2, 0, True) \
        and (rt.m_plus, rt.m_minus, rt.chi_matches) == (2, 2, True)
    _report(8, "index-theorem fixtures",
            ok, f"sphere ({rs.m_plus},{rs.m_minus}), torus ({rt.m_plus},{rt.m_minus})")


def test_criterion_9_conventions_pinned():
    failed = []
    for check in ALL_CHECKS:
        try:
            check()
        except AssertionError:
            failed.append(check.__name__)
    _report(9, "calibrated conventions pinned by oracle tests",
            not failed, "all anchored" if not failed else "drifted: " + ", ".join(failed))
