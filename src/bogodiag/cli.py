"""Command-line front end over JSON files.

Exit codes: 0 success, 1 validation or assertion failure, 2 mathematical
error (non-real spectrum, defective pencil, continuous spectrum, degenerate
point, resource guard), 3 I/O failure.  All numeric work lives in the
library; commands only parse files, dispatch and render JSON.  The
brute-force oracle (``fock``) is imported by ``verify`` and ``lemmas`` when
they run, so the other commands start without it; the oracle loads scipy
only for bosonic ``verify``.
"""

from __future__ import annotations

import contextlib
import errno
import json
import os
import sys

import click
import numpy as np

from . import forms, morse, spectral
from .errors import (
    ContinuousSpectrum,
    DefectiveMatrix,
    DegeneratePoint,
    NonCanonicalTransform,
    NonDiscreteMode,
    NonRealSpectrum,
    ResourceLimitError,
    ValidationError,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_MATH = 2
EXIT_IO = 3

_MATH_ERRORS = (
    NonRealSpectrum,
    DefectiveMatrix,
    ContinuousSpectrum,
    NonDiscreteMode,
    DegeneratePoint,
    ResourceLimitError,
    NonCanonicalTransform,
)


def _read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _emit(payload, out: str | None) -> None:
    """Write a payload as JSON, indent 2 and sorted keys, to `out` or stdout.

    A SpectrumResult is written chunk by chunk as it renders, so that no
    more than one chunk of its text is held at a time.
    """
    if isinstance(payload, spectral.SpectrumResult):
        chunks = payload.json_chunks()
    else:
        chunks = [json.dumps(payload, indent=2, sort_keys=True)]
    with open(out, "w", encoding="utf-8") if out else contextlib.nullcontext(sys.stdout) as fh:
        for chunk in chunks:
            fh.write(chunk)
        fh.write("\n")
        # a write error must surface here, not in the flush at exit
        fh.flush()


def _require_positive(**options) -> None:
    for name, value in options.items():
        if value < 1:
            raise ValidationError(f"--{name} must be at least 1, got {value}")


def _run(body, out):
    """Execute a command body and map exceptions to the exit-code contract.

    Every error of the body is raised before the first byte is written; an
    OSError while writing (an unwritable --out, a full disk, a closed pipe)
    exits 3, like one while reading.
    """
    try:
        payload, code = body()
    except (*_MATH_ERRORS, np.linalg.LinAlgError) as exc:
        # LinAlgError is a backstop: validation should refuse every input
        # that LAPACK cannot handle, but a failure still gets a payload
        payload, code = {"error": type(exc).__name__, "detail": str(exc)}, EXIT_MATH
    except ValidationError as exc:
        payload = {
            "error": "ValidationError",
            "detail": str(exc),
            "violations": [
                {"check": v.check, "message": v.message, "deviation": v.deviation}
                for v in exc.violations
            ],
        }
        code = EXIT_INVALID
    except (OSError, json.JSONDecodeError) as exc:
        _exit_io(exc)
    try:
        _emit(payload, out)
    except OSError as exc:
        if out is None and exc.errno == errno.EPIPE:
            # stdout still buffers text for a reader that is gone; send it
            # to the null device, or the flush at exit fails once more
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        _exit_io(exc)
    sys.exit(code)


def _exit_io(exc: Exception) -> None:
    sys.stderr.write(f"i/o error: {exc}\n")
    sys.exit(EXIT_IO)


@click.group()
def main():
    """Diagonalize real quadratic forms and cross-check them on Fock space."""


@main.command()
@click.argument("form_file")
@click.option("--tol", type=float, default=forms.TOL_SYM, show_default=True,
              help="Symmetry tolerance for the U and V checks.")
@click.option("--out", type=str, default=None, help="Write JSON here instead of stdout.")
def validate(form_file, tol, out):
    """Check a form file against its structural invariants."""

    def body():
        form = forms.form_from_dict(_read_json(form_file))
        violations = forms.validate(form, tol_sym=tol)
        payload = {
            "valid": not violations,
            "violations": [
                {"check": v.check, "message": v.message, "deviation": v.deviation}
                for v in violations
            ],
        }
        return payload, EXIT_OK if not violations else EXIT_INVALID

    _run(body, out)


@main.command()
@click.argument("form_file")
@click.option("--out", type=str, default=None, help="Write JSON here instead of stdout.")
def diagonalize(form_file, out):
    """Diagonalize a form; emits per-mode data and the transform."""

    def body():
        form = forms.form_from_dict(_read_json(form_file))
        std = forms.to_standard(form)
        if form.statistics is forms.Statistics.BOSON:
            data = spectral.diagonalize_boson(std)
        else:
            data = spectral.diagonalize_fermion(std)
        return data.to_dict(), EXIT_OK

    _run(body, out)


@main.command()
@click.argument("form_file")
@click.option("--count", type=int, default=10, show_default=True,
              help="Number of smallest bosonic energies to enumerate.")
@click.option("--out", type=str, default=None, help="Write JSON here instead of stdout.")
def spectrum(form_file, count, out):
    """Exact spectrum: full 2^n list (fermions) or k smallest (bosons)."""

    def body():
        _require_positive(count=count)
        form = forms.form_from_dict(_read_json(form_file))
        std = forms.to_standard(form)
        if form.statistics is forms.Statistics.FERMION:
            result = spectral.fermion_spectrum(spectral.diagonalize_fermion(std))
        else:
            result = spectral.boson_spectrum(spectral.diagonalize_boson(std), count)
        return result, EXIT_OK

    _run(body, out)


def _verify_fermion(form, tol):
    from . import fock

    std = forms.to_standard(form)
    result = spectral.fermion_spectrum(spectral.diagonalize_fermion(std))
    oracle_even, oracle_odd = fock.sector_spectra(form, fock.build_fermion_rep(form.n))
    closed = result.energies  # ascending, so each sector's subset is too
    oracle_all = np.sort(np.concatenate([oracle_even, oracle_odd]))
    max_dev = float(np.max(np.abs(closed - oracle_all)))
    mismatches = int(np.sum(np.abs(closed[result.sectors == 0] - oracle_even) > tol))
    mismatches += int(np.sum(np.abs(closed[result.sectors == 1] - oracle_odd) > tol))
    payload = {
        "statistics": "fermion",
        "compared": len(closed),
        "max_abs_deviation": max_dev,
        "sector_mismatches": mismatches,
    }
    ok = max_dev <= tol and mismatches == 0
    return payload, EXIT_OK if ok else EXIT_INVALID


def _verify_boson(form, cutoff, count, tol):
    std = forms.to_standard(form)
    data = spectral.diagonalize_boson(std)
    result = spectral.boson_spectrum(data, count)
    if not result.bounded_below:
        payload = {
            "statistics": "boson",
            "bounded_below": False,
            "compared": 0,
            "max_abs_deviation": 0.0,
            "sector_mismatches": 0,
            "warning": "spectrum is unbounded below; nothing to compare",
        }
        return payload, EXIT_OK
    from . import fock

    oracle = fock.truncation_stable_spectrum(form, cutoff, count, tol)
    closed = result.energies
    m = min(len(closed), oracle.stable_count)
    max_dev = float(np.max(np.abs(closed[:m] - np.array(oracle.values[:m])))) if m else 0.0
    payload = {
        "statistics": "boson",
        "bounded_below": True,
        "compared": m,
        "max_abs_deviation": max_dev,
        "sector_mismatches": 0,
    }
    if oracle.warning:
        payload["warning"] = oracle.warning
    ok = m == count and max_dev <= tol
    return payload, EXIT_OK if ok else EXIT_INVALID


@main.command()
@click.argument("form_file")
@click.option("--cutoff", type=int, default=40, show_default=True,
              help="Per-mode bosonic truncation of the oracle.")
@click.option("--count", type=int, default=10, show_default=True,
              help="Number of bosonic eigenvalues to compare.")
@click.option("--tol", type=float, default=1e-9, show_default=True,
              help="Comparison tolerance.")
@click.option("--out", type=str, default=None, help="Write JSON here instead of stdout.")
def verify(form_file, cutoff, count, tol, out):
    """Cross-check closed-form spectra against the brute-force oracle."""

    def body():
        _require_positive(cutoff=cutoff, count=count)
        form = forms.form_from_dict(_read_json(form_file))
        violations = forms.validate(form)
        if violations:
            raise ValidationError(
                "invalid form: " + "; ".join(v.message for v in violations), violations
            )
        if form.statistics is forms.Statistics.FERMION:
            return _verify_fermion(form, tol)
        return _verify_boson(form, cutoff, count, tol)

    _run(body, out)


@main.command(name="morse")
@click.argument("fixture_file")
@click.option("--out", type=str, default=None, help="Write JSON here instead of stdout.")
def morse_cmd(fixture_file, out):
    """Index counts, chi check and zero-mode parities for a fixture."""

    def body():
        fixture = morse.fixture_from_dict(_read_json(fixture_file))
        report = morse.morse_report(fixture)
        return report.to_dict(), EXIT_OK if report.chi_matches else EXIT_INVALID

    _run(body, out)


@main.command()
@click.option("--n", "n", type=int, default=4, show_default=True,
              help="Number of modes for the identity checks.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--trials", type=int, default=100, show_default=True)
@click.option("--out", type=str, default=None, help="Write JSON here instead of stdout.")
def lemmas(n, seed, trials, out):
    """Operator-identity residuals over random inputs (threshold 1e-12)."""

    def body():
        from . import fock

        _require_positive(n=n, trials=trials)
        rep = fock.build_fermion_rep(n)
        rng = np.random.default_rng(seed)
        max_wedge = 0.0
        max_cross = 0.0
        for trial in range(trials):
            omega = rng.uniform(-1.0, 1.0, size=n)
            jac = rng.uniform(-1.0, 1.0, size=(n, n))
            if trial % 2 == 1:
                jac = (jac + jac.T) / 2.0  # exact-form case: no 2-form part
            residual, _ = morse.cross_term_identity(jac, rep)
            max_cross = max(max_cross, residual)
            max_wedge = max(max_wedge, morse.wedge_contraction_identity(omega, rep))
        payload = {
            "n": n,
            "trials": trials,
            "wedge_contraction_max_residual": max_wedge,
            "cross_term_max_residual": max_cross,
        }
        ok = max_wedge <= 1e-12 and max_cross <= 1e-12
        return payload, EXIT_OK if ok else EXIT_INVALID

    _run(body, out)


if __name__ == "__main__":
    main()
