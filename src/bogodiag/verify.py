"""Closed-form spectra checked against the brute-force Fock-space oracle,
which :func:`verify_form` imports only when it runs."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import forms, spectral
from .forms import QuadraticForm, Statistics


@dataclass(frozen=True)
class VerifyReport:
    """One comparison; `bounded_below` is None for fermions, whose payload lacks it."""

    statistics: Statistics
    compared: int
    max_abs_deviation: float
    sector_mismatches: int
    ok: bool
    bounded_below: Optional[bool] = None
    warning: Optional[str] = None

    def to_dict(self) -> dict:
        return {
            "statistics": self.statistics.value,
            **({"bounded_below": self.bounded_below} if self.bounded_below is not None else {}),
            "compared": self.compared,
            "max_abs_deviation": self.max_abs_deviation,
            "sector_mismatches": self.sector_mismatches,
            **({"warning": self.warning} if self.warning is not None else {}),
        }


def verify_form(form: QuadraticForm, cutoff: int, count: int, tol: float) -> VerifyReport:
    """Compare the closed-form spectrum of a form with the oracle's.

    Fermions: all 2^n levels against the exact even and odd sector spectra,
    ok when each is within `tol`.  Bosons: the `count` smallest levels
    against the prefix stable under doubling `cutoff`, ok when all `count`
    are compared and within `tol`; a spectrum unbounded below compares
    nothing and is ok, with a warning.  Raises what ``to_standard``, the
    spectra and the oracle raise (ResourceLimitError for fermions from n = 13).
    """
    from . import fock

    std = forms.to_standard(form)
    if form.statistics is Statistics.FERMION:
        rep = fock.build_fermion_rep(form.n)  # refuses before the 2^n enumeration
        result = spectral.fermion_spectrum(spectral.diagonalize_fermion(std))
        sectors = fock.sector_spectra(form, rep)
        closed = result.energies  # ascending, so each sector's subset is too
        max_dev = float(np.max(np.abs(closed - np.sort(np.concatenate(sectors)))))
        mismatches = sum(int(np.sum(np.abs(closed[result.sectors == p] - oracle) > tol))
                         for p, oracle in enumerate(sectors))
        return VerifyReport(form.statistics, len(closed), max_dev, mismatches,
                            ok=max_dev <= tol and mismatches == 0)
    result = spectral.boson_spectrum(spectral.diagonalize_boson(std), count)
    if not result.bounded_below:
        return VerifyReport(form.statistics, 0, 0.0, 0, ok=True, bounded_below=False,
                            warning="spectrum is unbounded below; nothing to compare")
    oracle = fock.truncation_stable_spectrum(form, cutoff, count, tol)
    m = min(len(result.energies), oracle.stable_count)
    max_dev = float(np.max(np.abs(result.energies[:m] - oracle.values[:m]))) if m else 0.0
    return VerifyReport(form.statistics, m, max_dev, 0, ok=m == count and max_dev <= tol,
                        bounded_below=True, warning=oracle.warning)
