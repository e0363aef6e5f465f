"""Command-line front end over JSON files.

Exit codes: 0 success, 1 validation or assertion failure, 2 mathematical
error (non-real spectrum, defective pencil, continuous spectrum, degenerate
point, resource guard), 3 I/O failure.  All numeric work lives in the
library; each command parses its file and options, makes one library call
and renders the result as JSON.  ``verify`` and ``lemmas`` load the
brute-force oracle (``fock``) when they run, so the other commands start
without it; the oracle loads scipy only for bosonic ``verify``.
"""

from __future__ import annotations

import contextlib
import errno
import json
import math
import os
import sys

import click
import numpy as np

from . import forms, morse, spectral
from .errors import BogodiagError, ValidationError
from .verify import verify_form

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_MATH = 2
EXIT_IO = 3


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


def _violations(violations) -> list:
    """Violations as JSON objects; JSON has no infinity, so a deviation that
    is not finite is null."""
    return [{"check": v.check, "message": v.message,
             "deviation": v.deviation if math.isfinite(v.deviation) else None}
            for v in violations]


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
    except ValidationError as exc:
        payload = {
            "error": "ValidationError",
            "detail": str(exc),
            "violations": _violations(exc.violations),
        }
        code = EXIT_INVALID
    except (BogodiagError, np.linalg.LinAlgError) as exc:
        # every other error of the package is mathematical; LinAlgError is a
        # backstop: validation should refuse every input that LAPACK cannot
        # handle, but a failure still gets a payload
        payload, code = {"error": type(exc).__name__, "detail": str(exc)}, EXIT_MATH
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
        payload = {"valid": not violations, "violations": _violations(violations)}
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
        report = verify_form(form, cutoff, count, tol)
        return report.to_dict(), EXIT_OK if report.ok else EXIT_INVALID

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
        _require_positive(n=n, trials=trials)
        max_wedge, max_cross = morse.identity_residuals(n, seed, trials)
        payload = {
            "n": n,
            "trials": trials,
            "wedge_contraction_max_residual": max_wedge,
            "cross_term_max_residual": max_cross,
        }
        ok = max_wedge <= morse.IDENTITY_TOL and max_cross <= morse.IDENTITY_TOL
        return payload, EXIT_OK if ok else EXIT_INVALID

    _run(body, out)


if __name__ == "__main__":
    main()
