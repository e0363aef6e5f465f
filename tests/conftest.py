"""Shared random-input generators and helpers for the test suite."""

import tracemalloc

import numpy as np
import pytest

import bogodiag as bd
from bogodiag import forms


def random_fermion_form(rng, n):
    a = rng.uniform(-1.0, 1.0, (n, n))
    b = rng.uniform(-1.0, 1.0, (n, n))
    return bd.QuadraticForm(
        bd.Statistics.FERMION,
        U=(a - a.T) / 2.0,
        V=(b + b.T) / 2.0,
        const=float(rng.uniform(-1.0, 1.0)),
    )


def random_boson_form(rng, n):
    a = rng.uniform(-1.0, 1.0, (n, n))
    b = rng.uniform(-1.0, 1.0, (n, n))
    return bd.QuadraticForm(
        bd.Statistics.BOSON,
        U=(a + a.T) / 2.0,
        V=(b + b.T) / 2.0,
        const=float(rng.uniform(-1.0, 1.0)),
    )


def bounded_boson_form(rng, n, seed, spread=0.3):
    """Bounded-below discrete form: diagonal t > 0, r < 0 data pushed
    through a random positive canonical transform.

    Frequencies and squeezing are kept moderate so that truncated-oracle
    comparisons converge well below the test tolerances: the transform is
    the draw of random_canonical(BOSON, n, seed) with log singular values
    within `spread` instead of forms.CANONICAL_SPREAD.
    """
    nu = rng.uniform(0.8, 1.3, n)
    rho = rng.uniform(0.85, 1.2, n)
    std0 = bd.StandardForm(
        statistics=bd.Statistics.BOSON,
        T=np.diag(nu * rho),
        R=np.diag(-nu / rho),
        k0=float(rng.uniform(-1.0, 1.0)),
    )
    draw = np.random.default_rng(seed)
    o1, o2 = (forms._haar_special_orthogonal(draw, n) for _ in range(2))
    s = o1 @ np.diag(np.exp(draw.uniform(-spread, spread, size=n))) @ o2
    b = bd.BogoliubovTransform(bd.Statistics.BOSON, S=s)
    return bd.from_standard(bd.apply_transform(std0, b))


def random_invertible_jacobian(rng, n, min_det=1e-2):
    while True:
        jac = rng.uniform(-1.0, 1.0, (n, n))
        if abs(np.linalg.det(jac)) > min_det:
            return jac


def refusal_peak(func, *args):
    """Traced peak bytes of a call that must raise ResourceLimitError."""
    tracemalloc.start()
    try:
        with pytest.raises(bd.ResourceLimitError):
            func(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
