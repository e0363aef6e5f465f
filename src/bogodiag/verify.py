"""Closed-form spectra checked against the brute-force Fock-space oracle,
which :func:`verify_form` imports only when it runs."""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import forms, spectral
from .errors import ValidationError
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

    `tol` is relative to the form's scale, the largest absolute entry of U
    and V, so a rescaled form keeps its verdict; `max_abs_deviation` stays
    absolute.  `const` shifts every level of both sides alike, so once the
    form is validated as given, both sides run with const 0 and the verdict
    does not depend on it.  Fermions: all 2^n levels against the exact even
    and odd sector spectra, ok when each is within tol.  Bosons: the `count`
    smallest levels against the prefix stable, within tol, under doubling
    `cutoff`, ok when all `count` are compared and within tol, with a
    warning that counts them when fewer are; a spectrum unbounded below
    compares nothing and is ok, with a warning.  No bosonic sector is
    checked: `sector_mismatches` is always 0 for bosons.  A `cutoff` or
    `count` that is not an integer >= 1, or a `tol` that is not a finite
    number >= 0, raises ValidationError before any work; otherwise this
    raises what ``to_standard``, the spectra and the oracle raise
    (ResourceLimitError for fermions from n = 13, before the 2^n closed-form
    levels are enumerated).
    """
    for name, value in (("cutoff", cutoff), ("count", count)):
        if not (isinstance(value, numbers.Integral) and value >= 1):
            raise ValidationError(f"{name} must be an integer >= 1, got {value}")
    if not 0.0 <= tol < np.inf:
        raise ValidationError(f"tol must be a finite number >= 0, got {tol}")
    from . import fock

    forms.to_standard(form)  # refuses an invalid form, one whose const overflows k0 too
    form = replace(form, const=0.0)
    std = forms.to_standard(form)
    tol = tol * form.scale  # absolute from here on
    if form.statistics is Statistics.FERMION:
        sectors = fock.sector_spectra(form)  # refuses before the 2^n enumeration
        result = spectral.fermion_spectrum(spectral.diagonalize_fermion(std))
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
    stable = fock.truncation_stable_spectrum(form, cutoff, count, tol)
    m = len(stable)
    max_dev = float(np.max(np.abs(result.energies[:m] - stable))) if m else 0.0
    warning = (f"only {m} of {count} levels agree between cutoffs {cutoff} and {2 * cutoff}"
               if m < count else None)
    return VerifyReport(form.statistics, m, max_dev, 0, ok=m == count and max_dev <= tol,
                        bounded_below=True, warning=warning)
