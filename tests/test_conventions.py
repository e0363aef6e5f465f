"""Calibration anchors.

Every sign and normalization convention that is not forced algebraically is
pinned here against the exact Fock oracle at n = 1 and 2, together with a
drift check showing that the plausible alternative convention fails.  The
acceptance suite re-runs these checks as its conventions criterion.
"""

import numpy as np
import pytest

import bogodiag as bd
from bogodiag import Statistics, fock


def check_fermion_normal_form_ordering():
    """C (a+a^+)(a^+-a) with C = U+V reproduces the operator; the reversed
    ordering (a+a^+)(a-a^+) does not."""
    for n in (1, 2):
        rng = np.random.default_rng(n)
        a = rng.uniform(-1, 1, (n, n))
        b = rng.uniform(-1, 1, (n, n))
        f = bd.QuadraticForm(Statistics.FERMION, U=(a - a.T) / 2, V=(b + b.T) / 2, const=0.3)
        std = bd.to_standard(f)
        rep = fock.build_fermion_rep(n)
        h_def = fock.build_hamiltonian(f, rep)
        h_std = fock.build_standard_hamiltonian(std, rep)
        assert np.max(np.abs(h_def - h_std)) <= 1e-12
        # drift check: the reversed second factor flips the operator part
        xs = [(rep.a(i) + rep.a_dag(i)).toarray() for i in range(n)]
        ys = [(rep.a(i) - rep.a_dag(i)).toarray() for i in range(n)]
        h_flipped = sum(std.C[i, j] * (xs[i] @ ys[j]) for i in range(n) for j in range(n))
        h_flipped = h_flipped + std.k0 * np.eye(rep.dim)
        assert np.max(np.abs(h_def - h_flipped)) > 0.1


def check_normal_ordering_constants():
    """k0 = const + Tr C (fermions) and k0 = const - Tr V (bosons)."""
    f = bd.QuadraticForm(Statistics.FERMION, U=[[0.0]], V=[[1.0]], const=0.0)
    assert bd.to_standard(f).k0 == pytest.approx(1.0)
    g = bd.QuadraticForm(Statistics.BOSON, U=[[0.0]], V=[[1.0]], const=0.0)
    assert bd.to_standard(g).k0 == pytest.approx(-1.0)
    # oracle equality pins both, including a nonzero original constant
    for n in (1, 2):
        rng = np.random.default_rng(10 + n)
        b = rng.uniform(-1, 1, (n, n))
        f = bd.QuadraticForm(Statistics.FERMION, U=np.zeros((n, n)), V=(b + b.T) / 2, const=0.7)
        rep = fock.build_fermion_rep(n)
        dev = np.max(np.abs(fock.build_hamiltonian(f, rep)
                            - fock.build_standard_hamiltonian(bd.to_standard(f), rep)))
        assert dev <= 1e-12
        # drift check: dropping the trace contribution shifts every level
        std = bd.to_standard(f)
        wrong = bd.StandardForm(statistics=Statistics.FERMION, C=std.C, k0=f.const)
        dev_wrong = np.max(np.abs(fock.build_hamiltonian(f, rep)
                                  - fock.build_standard_hamiltonian(wrong, rep)))
        assert dev_wrong > 0.1
        # bosons on the simplex that verify solves on, whose H holds the
        # untruncated operator's entries, so the two agree on every state
        a = rng.uniform(-1, 1, (n, n))
        g = bd.QuadraticForm(Statistics.BOSON, U=(a + a.T) / 2, V=(b + b.T) / 2, const=0.7)
        rep = fock.build_boson_rep(n, 12)
        std = bd.to_standard(g)
        dev = np.max(np.abs(fock.build_hamiltonian(g, rep)
                            - fock.build_standard_hamiltonian(std, rep)))
        assert dev <= 1e-12
        wrong = bd.StandardForm(statistics=Statistics.BOSON, T=std.T, R=std.R, k0=g.const)
        dev_wrong = np.max(np.abs(fock.build_hamiltonian(g, rep)
                                  - fock.build_standard_hamiltonian(wrong, rep)))
        assert dev_wrong > 0.1


def check_level_coefficient():
    """Oscillator ladder coefficient -4, not the tempting -2."""
    assert bd.LEVEL_COEFF == -4.0
    f = bd.QuadraticForm(Statistics.BOSON, U=[[0.0]], V=[[1.0]], const=0.0)
    oracle = fock.lowest_eigenvalues(fock.build_hamiltonian(f, fock.build_boson_rep(1, 60)), 5)
    std = bd.to_standard(f)
    data = bd.diagonalize_boson(std)
    mode = data.modes[0]
    levels = np.array(bd.boson_mode_levels(mode.t, mode.r, 5)) + data.k0
    assert np.max(np.abs(levels - oracle)) <= 1e-9
    halved = levels / 2.0 - data.k0 / 2.0 + data.k0  # the -2 convention
    assert np.max(np.abs(halved - oracle)) > 0.4


def check_fermion_shift_and_parity():
    """Spectrum shift k0 and parity = (occupied modes) mod 2, anchored even."""
    # n = 1: {0 even, 2 odd}
    f1 = bd.QuadraticForm(Statistics.FERMION, U=[[0.0]], V=[[1.0]], const=0.0)
    r1 = bd.fermion_spectrum(bd.diagonalize_fermion(bd.to_standard(f1)))
    assert r1.energies.tolist() == pytest.approx([0.0, 2.0])
    assert r1.sectors.tolist() == [0, 1]
    # n = 2 rotation form: +-2u even, two zeros odd
    f2 = bd.QuadraticForm(Statistics.FERMION, U=[[0.0, 1.0], [-1.0, 0.0]], V=np.zeros((2, 2)))
    r2 = bd.fermion_spectrum(bd.diagonalize_fermion(bd.to_standard(f2)))
    assert r2.sectors.tolist() == [0, 1, 1, 0]
    even, odd = fock.sector_spectra(f2)
    assert np.allclose(even, [-2.0, 2.0]) and np.allclose(odd, [0.0, 0.0])
    # drift checks: flipping the parity anchor or dropping the shift breaks
    # the n = 1 oracle (even sector {0}, odd sector {2})
    flipped_even = sorted(r1.energies[r1.sectors == 1])
    assert flipped_even != pytest.approx([0.0])
    k0 = bd.to_standard(f1).k0
    assert k0 != 0.0
    unshifted = sorted(r1.energies - k0)
    assert unshifted != pytest.approx([0.0, 2.0])


def check_two_form_coefficient():
    """2-form coefficients -1/2 (W - W^t); the no-half convention fails."""
    assert fock.TWO_FORM_COEFF == -0.5
    for n in (2, 3):
        rng = np.random.default_rng(20 + n)
        w = rng.uniform(-1, 1, (n, n))
        residual, _ = fock.cross_term_identity(w)
        assert residual <= 1e-12
        # same computation with coefficient +1 on (W - W^t)
        rep = fock.build_fermion_rep(n)
        a_ops = [rep.a(i).toarray() for i in range(n)]
        adag_ops = [rep.a_dag(i).toarray() for i in range(n)]
        xs = [a_ops[i] + adag_ops[i] for i in range(n)]
        zs = [adag_ops[i] - a_ops[i] for i in range(n)]
        direct = sum(w[i, j] * (xs[i] @ zs[j]) for i in range(n) for j in range(n))
        deriv = sum(w[i, j] * (a_ops[i] @ adag_ops[j]) for i in range(n) for j in range(n))
        bad_coeff = 1.0 * (w - w.T)
        two_form = sum(bad_coeff[i, j] * (a_ops[i] @ a_ops[j]) for i in range(n) for j in range(n))
        algebraic = deriv + deriv.T + two_form + two_form.T
        diff = direct - algebraic
        const = float(np.trace(diff)) / rep.dim
        assert np.max(np.abs(diff - const * np.eye(rep.dim))) > 0.1


def check_chiral_operator():
    """X = x_0 x_1 ... x_{n-1}, x_i = a_i + a_i^+, is the bit complement with
    the signs the oracle folds with, squares to (-1)^(n(n-1)/2) and sends H
    to 2 k0 - H, k0 the mean of H at the vacuum and the fully occupied state."""
    for n in range(1, 8):
        rep = fock.build_fermion_rep(n)
        chiral = np.eye(rep.dim)
        for i in range(n):
            chiral = chiral @ (rep.a(i) + rep.a_dag(i)).toarray()
        flip = np.zeros((rep.dim, rep.dim))
        flip[rep.dim - 1 - np.arange(rep.dim), np.arange(rep.dim)] = fock._chiral_signs(rep)
        assert np.array_equal(chiral, flip)
        assert np.array_equal(chiral @ chiral, (-1.0) ** (n * (n - 1) // 2) * np.eye(rep.dim))
        # U and V that are neither antisymmetric nor symmetric
        rng = np.random.default_rng(30 + n)
        f = bd.QuadraticForm(Statistics.FERMION, U=rng.uniform(-1, 1, (n, n)),
                             V=rng.uniform(-1, 1, (n, n)), const=0.4)
        h = fock.build_hamiltonian(f, rep).toarray()
        k0 = (h[0, 0] + h[-1, -1]) / 2.0
        assert np.max(np.abs(chiral @ h @ chiral.T - (2.0 * k0 * np.eye(rep.dim) - h))) <= 1e-12
        # drift checks: the unsigned complement does not anticommute with
        # H - k0 from n = 2 on, and X^2 = +1, as for commuting involutions,
        # fails at n = 2, 3, 6 and 7
        if n > 1:
            bare = np.abs(flip)
            assert np.max(np.abs(bare @ h @ bare.T - (2.0 * k0 * np.eye(rep.dim) - h))) > 0.1
        if n % 4 in (2, 3):
            assert not np.array_equal(chiral @ chiral, np.eye(rep.dim))


ALL_CHECKS = (
    check_fermion_normal_form_ordering,
    check_normal_ordering_constants,
    check_level_coefficient,
    check_fermion_shift_and_parity,
    check_two_form_coefficient,
    check_chiral_operator,
)


@pytest.mark.parametrize("check", ALL_CHECKS, ids=lambda c: c.__name__)
def test_convention(check):
    check()
