import dataclasses
import errno
import io
import json
import os
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import bogodiag
from bogodiag import spectral
from bogodiag.cli import main

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"

#: Preamble of a child that caps its own address space at argv[1] bytes.
CAP_CHILD = (
    "import resource, sys\n"
    "cap = int(sys.argv[1])\n"
    "resource.setrlimit(resource.RLIMIT_AS, (cap, cap))\n"
)

#: Capped child that runs the CLI on argv[2:].
CAPPED_CLI = CAP_CHILD + "from bogodiag.cli import main\nmain(sys.argv[2:])\n"


#: Child that runs every command that needs no oracle on the shipped
#: fixtures, then fermionic verify and lemmas, then bosonic verify, and prints
#: which of scipy and the oracle module were loaded after each phase.
COLD_START = """
import contextlib, io, json, sys
import bogodiag, bogodiag.cli

def run(*args):
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            bogodiag.cli.main.main(args=list(args), standalone_mode=False)
        except SystemExit as exc:
            assert exc.code == 0, (args, exc.code)

def loaded():
    return sorted(m for m in sys.modules if m in ("scipy", "bogodiag.fock"))

fixtures = sys.argv[1]
phases = {"import": loaded()}
for name in ("fermion_pair", "boson_oscillator"):
    for command in ("validate", "diagonalize", "spectrum"):
        run(command, f"{fixtures}/{name}.json")
for name in ("sphere", "torus"):
    run("morse", f"{fixtures}/{name}.json")
phases["commands"] = loaded()
run("verify", f"{fixtures}/fermion_pair.json")
run("lemmas", "--n", "3", "--trials", "2")
phases["fermion_oracle"] = loaded()
run("verify", f"{fixtures}/boson_oscillator.json")
phases["boson_oracle"] = loaded()
print(json.dumps(phases))
"""

def run_child(code, *args):
    """Run Python code in a fresh child that imports bogodiag from this checkout."""
    src = str(Path(bogodiag.__file__).resolve().parents[1])
    # OpenBLAS reserves address space per thread; pin the count so a memory
    # cap measures the oracle, not the core count of the host
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, timeout=300, env=env)


def run_capped_cli(cap_bytes, *args):
    """Run the CLI in a child whose address space is capped at cap_bytes."""
    return run_child(CAPPED_CLI, str(cap_bytes), *args)


def strict_json(text):
    """Parse JSON as RFC 8259 has it: no Infinity, -Infinity or NaN."""
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


@pytest.fixture
def runner():
    return CliRunner()


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def fermion_n1(tmp_path):
    return write_json(tmp_path / "f1.json", {
        "statistics": "fermion", "n": 1, "U": [[0.0]], "V": [[1.0]], "const": 0.0,
    })


def boson_n1(tmp_path):
    return write_json(tmp_path / "b1.json", {
        "statistics": "boson", "n": 1, "U": [[0.0]], "V": [[1.0]], "const": 0.0,
    })


class TestValidate:
    def test_valid(self, runner, tmp_path):
        result = runner.invoke(main, ["validate", fermion_n1(tmp_path)])
        assert result.exit_code == 0
        assert json.loads(result.output)["valid"] is True

    def test_invalid(self, runner, tmp_path):
        path = write_json(tmp_path / "bad.json", {
            "statistics": "fermion", "n": 2,
            "U": [[0.0, 1.0], [1.0, 0.0]], "V": [[1.0, 0.0], [0.0, 1.0]], "const": 0.0,
        })
        result = runner.invoke(main, ["validate", path])
        assert result.exit_code == 1
        payload = json.loads(result.output)
        assert payload["violations"][0]["message"] == "U not antisymmetric"

    def test_missing_file(self, runner, tmp_path):
        result = runner.invoke(main, ["validate", str(tmp_path / "nope.json")])
        assert result.exit_code == 3

    def test_malformed_json(self, runner, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        result = runner.invoke(main, ["validate", str(path)])
        assert result.exit_code == 3


class TestDiagonalize:
    def test_fermion_diagonal(self, runner, tmp_path):
        path = write_json(tmp_path / "f.json", {
            "statistics": "fermion", "n": 2,
            "U": [[0.0, 0.0], [0.0, 0.0]], "V": [[3.0, 0.0], [0.0, -2.0]], "const": 0.0,
        })
        result = runner.invoke(main, ["diagonalize", path])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["lambdas"] == pytest.approx([3.0, -2.0])

    def test_boson_discrete(self, runner, tmp_path):
        result = runner.invoke(main, ["diagonalize", boson_n1(tmp_path)])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["modes"][0]["class"] == "Discrete"

    def test_non_real_exits_2(self, runner, tmp_path):
        # U = T+R, V = T-R for T = diag(1,-1), R = offdiag(1,1)
        path = write_json(tmp_path / "nr.json", {
            "statistics": "boson", "n": 2,
            "U": [[1.0, 1.0], [1.0, -1.0]], "V": [[1.0, -1.0], [-1.0, -1.0]], "const": 0.0,
        })
        result = runner.invoke(main, ["diagonalize", path])
        assert result.exit_code == 2
        assert json.loads(result.output)["error"] == "NonRealSpectrum"

    @pytest.mark.parametrize("scale", [1.0, 1e150])
    def test_non_real_exits_2_without_warning_at_any_scale(self, runner, tmp_path, scale):
        path = write_json(tmp_path / "nr.json", {
            "statistics": "boson", "n": 2,
            "U": (scale * np.array([[1.0, 1.0], [1.0, -1.0]])).tolist(),
            "V": (scale * np.array([[1.0, -1.0], [-1.0, -1.0]])).tolist(), "const": 0.0,
        })
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = runner.invoke(main, ["diagonalize", path])
        assert result.exit_code == 2
        assert json.loads(result.output)["error"] == "NonRealSpectrum"
        assert [str(w.message) for w in caught] == []

    def test_repeated_inverted_modes(self, runner, tmp_path):
        # two inverted modes of equal t*r: refused as defective by the old
        # eigenvector condition-number test
        path = write_json(tmp_path / "inv2.json", {
            "statistics": "boson", "n": 3, "U": [[-2, 0, -2], [0, -4, -2], [-2, -2, -6]],
            "V": [[4, 2, 2], [2, 4, 4], [2, 4, 0]], "const": 0,
        })
        result = runner.invoke(main, ["diagonalize", path])
        assert result.exit_code == 0
        modes = json.loads(result.output)["modes"]
        assert [m["class"] for m in modes] == ["ContinuousInverted", "ContinuousInverted",
                                               "Discrete"]
        assert [m["t"] * m["r"] for m in modes] == pytest.approx([1.0, 1.0, -4.0], abs=1e-9)

    def test_residual_refusal_exits_2(self, runner, tmp_path, monkeypatch):
        # eigenvectors of R T mixed across its two eigenvalues leave S T S^t
        # off-diagonal: the last check of diagonalize_boson refuses
        eig = np.linalg.eig

        def mixed(m):
            vals, vecs = eig(m)
            return vals, vecs + 1e-3 * vecs[:, ::-1]

        monkeypatch.setattr(np.linalg, "eig", mixed)
        path = write_json(tmp_path / "b2.json", {
            "statistics": "boson", "n": 2, "U": [[0, 0], [0, 0]], "V": [[1, 0], [0, 2]], "const": 0,
        })
        result = runner.invoke(main, ["diagonalize", path])
        assert result.exit_code == 2
        payload = strict_json(result.stdout)
        assert payload["error"] == "DefectiveMatrix"
        match = re.fullmatch(r"residual off-diagonal (\S+) exceeds tolerance (\S+)", payload["detail"])
        # tolerance IMAG_TOL_FACTOR (||T|| + ||R||) with T = V / 2 = -R
        assert match[2] == f"{spectral.IMAG_TOL_FACTOR * 2 * np.hypot(0.5, 1.0):.3e}"
        assert float(match[1]) > 1e-4

    def test_zero_pencil_with_overflowing_rounding_scale(self, runner, tmp_path):
        # R T = 0 while ||R|| ||T|| overflows to inf; pytest fails on any
        # RuntimeWarning
        path = write_json(tmp_path / "big.json", {
            "statistics": "boson", "n": 2, "U": [[1e200, 0], [0, 1e200]],
            "V": [[1e200, 0], [0, -1e200]], "const": 0,
        })
        result = runner.invoke(main, ["diagonalize", path])
        assert result.exit_code == 0
        classes = [m["class"] for m in json.loads(result.output)["modes"]]
        assert sorted(classes) == ["ContinuousFree", "ContinuousQuadratic"]


class TestSpectrum:
    def test_fermion_n1(self, runner, tmp_path):
        result = runner.invoke(main, ["spectrum", fermion_n1(tmp_path)])
        assert result.exit_code == 0
        entries = json.loads(result.output)["entries"]
        assert [e["energy"] for e in entries] == pytest.approx([0.0, 2.0])
        assert [e["label"] for e in entries] == ["-", "+"]

    def test_boson_count(self, runner, tmp_path):
        result = runner.invoke(main, ["spectrum", boson_n1(tmp_path), "--count", "3"])
        assert result.exit_code == 0
        entries = json.loads(result.output)["entries"]
        assert [e["energy"] for e in entries] == pytest.approx([0.0, 2.0, 4.0])
        assert [e["label"] for e in entries] == ["(0)", "(1)", "(2)"]

    def test_boson_count_at_tiny_scale(self, runner, tmp_path):
        # the oscillator of test_boson_count scaled by 1e-12: whether t or r
        # is zero is measured against its own rounding, not in absolute units
        path = write_json(tmp_path / "tiny.json", {
            "statistics": "boson", "n": 1, "U": [[0.0]], "V": [[1e-12]],
        })
        result = runner.invoke(main, ["spectrum", path, "--count", "3"])
        assert result.exit_code == 0
        energies = [e["energy"] for e in json.loads(result.output)["entries"]]
        assert energies == pytest.approx([0.0, 2e-12, 4e-12], rel=1e-12, abs=1e-24)

    def test_boson_repeated_frequency(self, runner, tmp_path):
        # frequencies 1, 2, 2 and k0 = -22: levels -12, -8 and -4 three times
        path = write_json(tmp_path / "rep.json", {
            "statistics": "boson", "n": 3, "U": [[0, -6, 0], [-6, 0, 6], [0, 6, 0]],
            "V": [[6, 0, -2], [0, 10, 0], [-2, 0, 6]], "const": 0,
        })
        result = runner.invoke(main, ["spectrum", path, "--count", "5"])
        assert result.exit_code == 0
        energies = [e["energy"] for e in json.loads(result.output)["entries"]]
        assert energies == pytest.approx([-12.0, -8.0, -4.0, -4.0, -4.0], abs=1e-9)

    def test_fermion_rotation_sectors(self, runner, tmp_path):
        path = write_json(tmp_path / "rot.json", {
            "statistics": "fermion", "n": 2,
            "U": [[0.0, 1.0], [-1.0, 0.0]], "V": [[0.0, 0.0], [0.0, 0.0]], "const": 0.0,
        })
        result = runner.invoke(main, ["spectrum", path])
        entries = json.loads(result.output)["entries"]
        assert [e["energy"] for e in entries] == pytest.approx([-2.0, 0.0, 0.0, 2.0])
        assert [e["sector"] for e in entries] == ["even", "odd", "odd", "even"]

    def test_unbounded_boson(self, runner, tmp_path):
        path = write_json(tmp_path / "ub.json", {
            "statistics": "boson", "n": 1, "U": [[0.0]], "V": [[-1.0]], "const": 0.0,
        })
        result = runner.invoke(main, ["spectrum", path])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["bounded_below"] is False and payload["entries"] == []

    def test_fermion_n21_exits_2(self, runner, tmp_path):
        # 2^21 levels: refused by the enumeration guard before any is built
        n = 21
        path = write_json(tmp_path / "f21.json", {
            "statistics": "fermion", "n": n,
            "U": np.zeros((n, n)).tolist(), "V": np.eye(n).tolist(), "const": 0.0,
        })
        result = runner.invoke(main, ["spectrum", path])
        assert result.exit_code == 2
        payload = json.loads(result.output)
        assert payload["error"] == "ResourceLimitError"
        assert payload["detail"] == f"count {2**n} exceeds the enumeration guard of {2**20} levels"

    def test_continuous_exits_2(self, runner, tmp_path):
        # T = R = 1/2: inverted oscillator
        path = write_json(tmp_path / "inv.json", {
            "statistics": "boson", "n": 1, "U": [[1.0]], "V": [[0.0]], "const": 0.0,
        })
        result = runner.invoke(main, ["spectrum", path])
        assert result.exit_code == 2
        assert json.loads(result.output)["error"] == "ContinuousSpectrum"


class TestVerify:
    def test_fermion(self, runner, tmp_path):
        result = runner.invoke(main, ["verify", fermion_n1(tmp_path)])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["max_abs_deviation"] <= 1e-9
        assert payload["sector_mismatches"] == 0

    def test_boson(self, runner, tmp_path):
        result = runner.invoke(main, ["verify", boson_n1(tmp_path), "--tol", "1e-6"])
        assert result.exit_code == 0
        assert json.loads(result.output)["max_abs_deviation"] <= 1e-6

    def test_fermion_random_n4(self, runner, tmp_path):
        rng = np.random.default_rng(14)
        a = rng.uniform(-1, 1, (4, 4))
        b = rng.uniform(-1, 1, (4, 4))
        path = write_json(tmp_path / "f4.json", {
            "statistics": "fermion", "n": 4,
            "U": ((a - a.T) / 2).tolist(), "V": ((b + b.T) / 2).tolist(), "const": 0.2,
        })
        result = runner.invoke(main, ["verify", path, "--tol", "1e-9"])
        assert result.exit_code == 0
        assert json.loads(result.output)["max_abs_deviation"] <= 1e-9

    @pytest.mark.parametrize("name", ["fermion_pair", "boson_oscillator"])
    @pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
    def test_tol_not_finite_nonnegative_exits_1(self, runner, name, tol):
        result = runner.invoke(main, ["verify", str(FIXTURES / f"{name}.json"), "--tol", tol])
        assert result.exit_code == 1
        payload = strict_json(result.stdout)
        assert payload["error"] == "ValidationError"
        assert payload["detail"] == f"tol must be a finite number >= 0, got {float(tol)}"

    @pytest.mark.parametrize("scale", [1e-12, 1e-6, 1.0, 1e6, 1e12])
    @pytest.mark.parametrize("statistics", ["fermion", "boson"])
    def test_tol_is_relative_to_the_form_scale(self, runner, tmp_path, monkeypatch,
                                               statistics, scale):
        # U, V and const times the scale, at fixed cutoffs: the valid form
        # exits 0, and a closed form of zeros, or for bosons one with a
        # mutated LEVEL_COEFF, exits 1.  With an absolute tol the large
        # valid forms failed and the tiny zeroed ones passed
        from conftest import bounded_boson_form, random_fermion_form

        if statistics == "fermion":
            form, args = random_fermion_form(np.random.default_rng(16), 6), []
        else:
            form = bounded_boson_form(np.random.default_rng(15), 2, seed=3)
            args = ["--cutoff", "20", "--count", "10", "--tol", "1e-6"]
        path = write_json(tmp_path / "scaled.json", {
            "statistics": statistics, "n": form.n, "U": (scale * form.U).tolist(),
            "V": (scale * form.V).tolist(), "const": scale * form.const,
        })

        def exit_code():
            return runner.invoke(main, ["verify", path, *args]).exit_code

        assert exit_code() == 0
        with monkeypatch.context() as patch:
            for name in ("fermion_spectrum", "boson_spectrum"):
                def zeroed(*data, spectrum=getattr(spectral, name)):
                    result = spectrum(*data)
                    return dataclasses.replace(result, energies=np.zeros_like(result.energies))

                patch.setattr(spectral, name, zeroed)
            assert exit_code() == 1
        if statistics == "boson":
            monkeypatch.setattr(spectral, "LEVEL_COEFF", -4.4)
            assert exit_code() == 1

    def test_short_stable_prefix_warns_and_exits_1(self, runner, tmp_path):
        # the n = 1 oscillator at cutoff 4 has 5 coarse levels, so only 5 of
        # the 10 requested can agree with the cutoff-8 solve
        result = runner.invoke(main, ["verify", boson_n1(tmp_path), "--cutoff", "4",
                                      "--count", "10", "--tol", "1e-6"])
        assert result.exit_code == 1
        payload = strict_json(result.stdout)
        assert payload["compared"] == 5 and payload["max_abs_deviation"] <= 1e-6
        assert payload["warning"] == "only 5 of 10 levels agree between cutoffs 4 and 8"

    def test_boson_random_n2(self, runner, tmp_path):
        from conftest import bounded_boson_form

        rng = np.random.default_rng(15)
        form = bounded_boson_form(rng, 2, seed=3)
        path = write_json(tmp_path / "b2.json", form.to_dict())
        result = runner.invoke(main, ["verify", path, "--cutoff", "30", "--tol", "1e-6"])
        assert result.exit_code == 0
        assert json.loads(result.output)["max_abs_deviation"] <= 1e-6

    @pytest.mark.parametrize("v, const", [
        ([[1.0, 0.0], [0.0, 1.3]], 0.0),  # ground energy exactly 0
        ([[1.0, 0.5], [0.5, 1.0]], 0.0),  # symmetric under the mode swap
        ([[1.0, 0.5], [0.5, 1.0]], 1.0),
    ], ids=["zero-ground", "swap-symmetric", "swap-symmetric-const"])
    def test_boson_lanczos_keeps_every_level(self, runner, tmp_path, v, const):
        # at cutoff 40 both solves (simplices of 861 and 3321 states) run Lanczos
        path = write_json(tmp_path / "b2.json", {
            "statistics": "boson", "n": 2, "U": np.zeros((2, 2)).tolist(), "V": v, "const": const,
        })
        result = runner.invoke(main, ["verify", path, "--cutoff", "40", "--count", "10",
                                      "--tol", "1e-6"])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload["compared"] == 10 and payload["max_abs_deviation"] <= 1e-6

    def test_boson_lanczos_at_scale_1e154(self, runner, tmp_path):
        # near the largest scale a form may have, |H v|^2 passes the largest
        # double in both Lanczos solves; tol and the deviation scale alike
        path = write_json(tmp_path / "b2.json", {
            "statistics": "boson", "n": 2, "U": np.zeros((2, 2)).tolist(),
            "V": [[1e154, 0.0], [0.0, 1.3e154]], "const": 0.0,
        })
        result = runner.invoke(main, ["verify", path, "--cutoff", "40", "--count", "10",
                                      "--tol", "1e-6"])
        assert result.exit_code == 0, result.output
        payload = strict_json(result.stdout)
        assert payload["compared"] == 10 and payload["max_abs_deviation"] <= 1e-6 * 1.3e154

    @pytest.mark.parametrize("scale", [1e-165, 1e-200, 1e-300])
    def test_boson_at_tiny_scales(self, runner, tmp_path, scale):
        # the closed form's products t r underflow below about 1e-154; its
        # frequencies and mode order must not
        path = write_json(tmp_path / "b2.json", {
            "statistics": "boson", "n": 2, "U": np.zeros((2, 2)).tolist(),
            "V": [[scale, 0.0], [0.0, 1.3 * scale]], "const": 0.0,
        })
        result = runner.invoke(main, ["verify", path, "--cutoff", "40", "--count", "10",
                                      "--tol", "1e-6"])
        assert result.exit_code == 0, result.output
        payload = strict_json(result.stdout)
        assert payload["compared"] == 10 and payload["max_abs_deviation"] <= 1e-6 * 1.3 * scale

    def test_boson_40_modes_at_cutoff_1(self, runner, tmp_path):
        # simplices of 41 and 861 states; mixed-radix keys of base 5 would
        # pass 2^63 on the fine one
        n = 40
        path = write_json(tmp_path / "b40.json", {
            "statistics": "boson", "n": n, "U": np.zeros((n, n)).tolist(),
            "V": np.diag(1.0 + 0.01 * np.arange(n)).tolist(), "const": 0.0,
        })
        result = runner.invoke(main, ["verify", path, "--cutoff", "1", "--count", "10",
                                      "--tol", "1e-6"])
        assert result.exit_code == 0, result.output
        payload = strict_json(result.stdout)
        assert payload["compared"] == 10 and payload["max_abs_deviation"] <= 1e-6

    def test_boson_100_modes_at_cutoff_1_ends_in_a_payload(self, tmp_path):
        # the fine simplex of 5151 states passes the dimension guard and a
        # dense form puts about a million entries on it: verify either
        # finishes or refuses, in a payload, well within 10 s
        n = 100
        rng = np.random.default_rng(100)
        u, v = rng.uniform(-0.01, 0.01, (2, n, n))
        path = write_json(tmp_path / "b100.json", {
            "statistics": "boson", "n": n, "U": ((u + u.T) / 2).tolist(),
            "V": (np.diag(1.0 + 0.01 * np.arange(n)) + (v + v.T) / 2).tolist(), "const": 0.0,
        })
        start = time.perf_counter()
        proc = run_capped_cli(1536 * 2**20, "verify", path, "--cutoff", "1")
        assert time.perf_counter() - start < 10.0
        assert proc.returncode in (0, 1, 2), proc.stderr[-2000:]
        assert "Traceback" not in proc.stderr
        strict_json(proc.stdout)

    def test_lanczos_no_convergence_exits_2(self, runner, tmp_path, monkeypatch):
        from bogodiag import fock

        # the coarse solve of this form needs 24 passes; one pass of budget
        # runs out as a budget of 100 * dim passes would
        lanczos = fock._lanczos
        monkeypatch.setattr(fock, "_lanczos", lambda *args: lanczos(*args[:-1], 1))
        path = write_json(tmp_path / "b2.json", {
            "statistics": "boson", "n": 2, "U": [[0.0, 0.0], [0.0, 0.0]],
            "V": [[1.0, 0.0], [0.0, 1.3]], "const": 0.0,
        })
        result = runner.invoke(main, ["verify", path, "--cutoff", "40", "--count", "10"])
        assert result.exit_code == 2
        assert json.loads(result.output) == {
            "error": "ResourceLimitError",
            "detail": "Lanczos eigensolve of 10 eigenvalues at dimension 861 did not converge "
                      "in 86100 iterations",
        }

    def test_unbounded_boson_warns(self, runner, tmp_path):
        path = write_json(tmp_path / "ub.json", {
            "statistics": "boson", "n": 1, "U": [[0.0]], "V": [[-1.0]], "const": 0.0,
        })
        result = runner.invoke(main, ["verify", path])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["bounded_below"] is False and "warning" in payload

    def test_fermion_guard_exits_2(self, runner, tmp_path):
        n = 13
        path = write_json(tmp_path / "big.json", {
            "statistics": "fermion", "n": n,
            "U": np.zeros((n, n)).tolist(), "V": np.eye(n).tolist(), "const": 0.0,
        })
        result = runner.invoke(main, ["verify", path])
        assert result.exit_code == 2
        assert json.loads(result.output)["error"] == "ResourceLimitError"

    def test_fermion_guard_edge_n12_under_memory_cap(self, tmp_path):
        # the largest n the guard admits must verify within a 1.5 GB address
        # space; a too-hungry oracle fails with MemoryError instead of
        # exhausting the host
        n = 12
        rng = np.random.default_rng(12)
        a = rng.uniform(-1, 1, (n, n))
        b = rng.uniform(-1, 1, (n, n))
        path = write_json(tmp_path / "f12.json", {
            "statistics": "fermion", "n": n,
            "U": ((a - a.T) / 2).tolist(), "V": ((b + b.T) / 2).tolist(), "const": 0.1,
        })
        proc = run_capped_cli(1536 * 2**20, "verify", path)
        assert proc.returncode == 0, proc.stderr[-2000:]
        payload = json.loads(proc.stdout)
        assert payload["compared"] == 2 ** n
        assert payload["sector_mismatches"] == 0
        assert payload["max_abs_deviation"] <= 1e-9

    def test_fermion_mode_operators_n12_under_memory_cap(self):
        # the guard edge n = 12 builds the transformed modes from its ladder
        # diagonals in a 1.5 GB address space: about 76 MB of peak RSS and
        # 18 MiB traced, where each dense ladder alone took 128 MB
        code = CAP_CHILD + (
            "import bogodiag as bd, scipy.sparse as sp\n"
            "from bogodiag import fock\n"
            "transform = bd.random_canonical(bd.Statistics.FERMION, 12, seed=1)\n"
            "ops = fock.bogoliubov_mode_operators(fock.build_fermion_rep(12), transform)\n"
            "anti = [abs(b @ b_dag + b_dag @ b - sp.identity(4096)).max() for b, b_dag in ops]\n"
            "print(len(ops), max(anti))\n"
        )
        proc = run_child(code, str(1536 * 2**20))
        assert proc.returncode == 0, proc.stderr[-2000:]
        count, worst = proc.stdout.split()
        assert int(count) == 12 and float(worst) <= 1e-12

    def test_oversized_eigensolve_exits_2_under_memory_cap(self, tmp_path):
        # at n = 2, cutoff 200 (fine simplex of C(402, 2) = 80601 states,
        # inside the dimension guard) a count of 30000 asks for a dense solve of the coarse
        # simplex of 20301 states, about 3.3 GB per copy; the refusal must
        # come before any of it is allocated, so a 1.5 GB cap never trips
        n = 2
        path = write_json(tmp_path / "b2.json", {
            "statistics": "boson", "n": n,
            "U": np.zeros((n, n)).tolist(), "V": np.diag([1.0, 1.1]).tolist(), "const": 0.0,
        })
        proc = run_capped_cli(1536 * 2**20, "verify", path, "--cutoff", "200", "--count", "30000")
        assert proc.returncode == 2, proc.stderr[-2000:]
        assert json.loads(proc.stdout)["error"] == "ResourceLimitError"

    @pytest.mark.parametrize("digits", [4000, 4300])
    def test_huge_cutoff_exits_2(self, runner, tmp_path, digits):
        # the fine simplex C(2 cutoff + 2, 2) has about 8000 digits, past
        # what str() converts, so the guard's message must not spell it out
        path = write_json(tmp_path / "b2.json", {
            "statistics": "boson", "n": 2, "U": [[0.0, 0.0], [0.0, 0.0]],
            "V": [[1.0, 0.0], [0.0, 1.3]], "const": 0.0,
        })
        result = runner.invoke(main, ["verify", path, "--cutoff", "9" * digits])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        payload = json.loads(result.stdout)
        assert payload["error"] == "ResourceLimitError"
        assert payload["detail"].endswith("exceeds the guard 200000")


class TestMorse:
    def test_sphere(self, runner, tmp_path):
        path = write_json(tmp_path / "sphere.json", {
            "n": 2, "chi": 2, "points": [
                {"label": "min", "jacobian": [[1.0, 0.0], [0.0, 1.0]]},
                {"label": "max", "jacobian": [[-1.0, 0.0], [0.0, -1.0]]},
            ],
        })
        result = runner.invoke(main, ["morse", path])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["m_plus"] == 2 and payload["m_minus"] == 0
        assert payload["chi_matches"] is True

    def test_torus(self, runner, tmp_path):
        path = write_json(tmp_path / "torus.json", {
            "n": 2, "chi": 0, "points": [
                {"label": "min", "jacobian": [[1.0, 0.0], [0.0, 1.0]]},
                {"label": "s1", "jacobian": [[1.0, 0.0], [0.0, -1.0]]},
                {"label": "s2", "jacobian": [[-1.0, 0.0], [0.0, 1.0]]},
                {"label": "max", "jacobian": [[-1.0, 0.0], [0.0, -1.0]]},
            ],
        })
        result = runner.invoke(main, ["morse", path])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["m_plus"] == 2 and payload["m_minus"] == 2

    def test_zero_mode_sector_rule_reaches_the_payload(self, runner, monkeypatch):
        # one helper maps a point's sign to its zero-mode sector, for
        # zero_mode_parity and for the morse payload alike
        from bogodiag import morse

        args = ["morse", str(FIXTURES / "sphere.json")]
        before = strict_json(runner.invoke(main, args).stdout)
        rule = morse._zero_mode_sector
        monkeypatch.setattr(morse, "_zero_mode_sector", lambda sign: rule(-sign))
        result = runner.invoke(main, args)
        assert result.exit_code == 0
        after = strict_json(result.stdout)
        assert [p["zero_mode_sector"] for p in before["points"]] == ["even", "even"]
        assert [p["zero_mode_sector"] for p in after["points"]] == ["odd", "odd"]
        assert bogodiag.zero_mode_parity(bogodiag.SingularPoint("p", np.eye(2))).value == "odd"

    def test_chi_mismatch_exits_1(self, runner, tmp_path):
        path = write_json(tmp_path / "bad.json", {
            "n": 2, "chi": 5,
            "points": [{"label": "p", "jacobian": [[1.0, 0.0], [0.0, 1.0]]}],
        })
        result = runner.invoke(main, ["morse", path])
        assert result.exit_code == 1

    def test_degenerate_exits_2(self, runner, tmp_path):
        path = write_json(tmp_path / "deg.json", {
            "n": 2, "chi": 0,
            "points": [{"label": "p", "jacobian": [[1.0, 0.0], [0.0, 0.0]]}],
        })
        result = runner.invoke(main, ["morse", path])
        assert result.exit_code == 2
        assert json.loads(result.output)["error"] == "DegeneratePoint"

    @pytest.mark.parametrize("fixture", [
        {"n": 2, "chi": 0, "points": [{"label": "p", "jacobian": [[1.0, 0.0]]}]},
        {"n": 3, "chi": 0, "points": [{"label": "p", "jacobian": [[1.0, 0.0], [0.0, 1.0]]}]},
    ], ids=["non_square", "dimension_mismatch"])
    def test_malformed_jacobian_exits_1(self, runner, tmp_path, fixture):
        result = runner.invoke(main, ["morse", write_json(tmp_path / "bad.json", fixture)])
        assert result.exit_code == 1
        assert json.loads(result.output)["error"] == "ValidationError"

    @pytest.mark.parametrize("entry", ["NaN", "Infinity", "-Infinity"])
    def test_nonfinite_jacobian_exits_1(self, runner, tmp_path, entry):
        path = tmp_path / "nonfinite.json"
        path.write_text('{"n": 1, "chi": 0, "points": [{"label": "a", "jacobian": [[%s]]}]}'
                        % entry)
        result = runner.invoke(main, ["morse", str(path)])
        assert result.exit_code == 1
        assert json.loads(result.output)["error"] == "ValidationError"

    @pytest.mark.parametrize("label", ["null", '["x"]', "3"], ids=["null", "list", "number"])
    def test_label_that_is_not_a_string_exits_1(self, runner, tmp_path, label):
        path = tmp_path / "label.json"
        path.write_text('{"n": 1, "chi": 1, "points": [{"label": %s, "jacobian": [[1]]}]}'
                        % label)
        result = runner.invoke(main, ["morse", str(path)])
        assert result.exit_code == 1
        payload = strict_json(result.stdout)
        assert (payload["error"], payload["detail"]) == (
            "ValidationError", "each point's 'label' must be a string")


class TestLemmas:
    def test_residuals(self, runner):
        result = runner.invoke(main, ["lemmas", "--n", "4", "--seed", "0", "--trials", "25"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["wedge_contraction_max_residual"] <= 1e-12
        assert payload["cross_term_max_residual"] <= 1e-12

    @pytest.mark.parametrize("n, trials, cross, wedge", [
        (4, 10, "4.440892098500626e-16", "4.440892098500626e-16"),
        (4, 100, "6.106226635438361e-16", "4.440892098500626e-16"),
        (12, 2, "2.6645352591003757e-15", "2.6645352591003757e-15"),
    ])
    def test_pinned_output(self, runner, n, trials, cross, wedge):
        result = runner.invoke(main, ["lemmas", "--n", str(n), "--trials", str(trials)])
        assert result.exit_code == 0
        assert result.stdout == (
            "{\n"
            f'  "cross_term_max_residual": {cross},\n'
            f'  "n": {n},\n'
            f'  "trials": {trials},\n'
            f'  "wedge_contraction_max_residual": {wedge}\n'
            "}\n"
        )

    def test_n12_completes_n13_refused_under_memory_cap(self):
        # the guard edge n = 12 fits in a 1.5 GB address space; n = 13 is
        # refused by the fermionic dimension guard before anything is built
        proc = run_capped_cli(1536 * 2**20, "lemmas", "--n", "12", "--trials", "2")
        assert proc.returncode == 0, proc.stderr[-2000:]
        payload = json.loads(proc.stdout)
        assert payload["wedge_contraction_max_residual"] <= 1e-12
        assert payload["cross_term_max_residual"] <= 1e-12
        proc = run_capped_cli(1536 * 2**20, "lemmas", "--n", "13", "--trials", "1")
        assert proc.returncode == 2, proc.stderr[-2000:]
        assert json.loads(proc.stdout)["error"] == "ResourceLimitError"


class TestOutputContract:
    def test_deterministic_output(self, runner, tmp_path):
        path = fermion_n1(tmp_path)
        first = runner.invoke(main, ["spectrum", path])
        second = runner.invoke(main, ["spectrum", path])
        assert first.output == second.output

    def test_out_flag_writes_file(self, runner, tmp_path):
        path = boson_n1(tmp_path)
        out = tmp_path / "result.json"
        result = runner.invoke(main, ["diagonalize", path, "--out", str(out)])
        assert result.exit_code == 0
        assert json.loads(out.read_text())["k0"] == pytest.approx(-1.0)

    @pytest.mark.parametrize("args", [
        ["spectrum", "fermion_pair.json"], ["spectrum", "boson_oscillator.json", "--count", "500"],
        ["validate", "fermion_pair.json"], ["diagonalize", "boson_oscillator.json"],
        ["verify", "fermion_pair.json"], ["morse", "sphere.json"],
        ["lemmas", "--n", "2", "--trials", "2"],
    ], ids=["fermion", "boson", "validate", "diagonalize", "verify", "morse", "lemmas"])
    def test_out_file_equals_stdout(self, runner, tmp_path, args):
        args = [str(FIXTURES / arg) if arg.endswith(".json") else arg for arg in args]
        out = tmp_path / "out.json"
        printed = runner.invoke(main, args)
        written = runner.invoke(main, [*args, "--out", str(out)])
        assert printed.exit_code == written.exit_code == 0
        assert written.output == ""
        assert out.read_text(encoding="utf-8") == printed.stdout

    DEEP = "[" * 100000 + "]" * 100000  # beyond the JSON parser's recursion limit

    @pytest.mark.parametrize("command", ["validate", "diagonalize", "spectrum", "verify", "morse"])
    @pytest.mark.parametrize("document", [b"\xff\xfe{}", DEEP.encode(), None],
                             ids=["not_utf8", "too_deep", "too_deep_inside"])
    def test_undecodable_document_exits_3(self, runner, tmp_path, command, document):
        if document is None:
            inside = ('{"n": 1, "chi": 1, "points": [{"label": "p", "jacobian": %s}]}'
                      if command == "morse" else
                      '{"statistics": "boson", "n": 1, "U": [[0]], "V": %s, "const": 0}')
            document = (inside % self.DEEP).encode()
        path = tmp_path / "unreadable.json"
        path.write_bytes(document)
        result = runner.invoke(main, [command, str(path)])
        assert result.exit_code == 3
        assert result.stdout == ""
        assert result.stderr.startswith("i/o error: ") and result.stderr.count("\n") == 1

    @pytest.mark.parametrize("command", ["validate", "diagonalize", "spectrum", "verify", "morse"])
    @pytest.mark.parametrize("field", ["n", "matrix"])
    def test_integer_past_the_string_limit_exits_3(self, runner, tmp_path, command, field):
        # json raises a bare ValueError for an integer literal of more than
        # 4300 digits, Python's limit on int-string conversion
        huge = "9" * 5000
        n, matrix = (huge, "[[1]]") if field == "n" else ("1", f"[[{huge}]]")
        if command == "morse":
            document = f'{{"n": {n}, "chi": 1, "points": [{{"label": "p", "jacobian": {matrix}}}]}}'
        else:
            document = (f'{{"statistics": "boson", "n": {n}, "U": [[0]], "V": {matrix}, '
                        f'"const": 0}}')
        path = tmp_path / "huge.json"
        path.write_text(document)
        result = runner.invoke(main, [command, str(path)])
        assert result.exit_code == 3
        assert isinstance(result.exception, SystemExit)
        assert result.stdout == ""
        assert result.stderr.startswith("i/o error: ") and result.stderr.count("\n") == 1

    @pytest.mark.parametrize("command, out", [
        ("validate", "missing/dir/x.json"), ("spectrum", "."),
    ], ids=["missing_dir", "is_a_directory"])
    def test_unwritable_out_exits_3(self, runner, tmp_path, command, out):
        result = runner.invoke(main, [command, str(FIXTURES / "fermion_pair.json"),
                                      "--out", str(tmp_path / out)])
        assert result.exit_code == 3
        assert result.stdout == ""
        assert result.stderr.startswith("i/o error: ")

    def test_write_error_mid_stream_exits_3(self, monkeypatch, capsys):
        class FullDisk(io.StringIO):
            def write(self, text):
                if self.tell():
                    raise OSError(errno.ENOSPC, "No space left on device")
                return super().write(text)

        monkeypatch.setattr(sys, "stdout", FullDisk())
        with pytest.raises(SystemExit) as info:
            main.main(args=["spectrum", str(FIXTURES / "fermion_pair.json")], standalone_mode=False)
        assert info.value.code == 3
        assert "No space left on device" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ["fermion_pair.json"], ["boson_oscillator.json", "--count", "20000"],
    ], ids=["buffered", "streamed"])
    def test_closed_pipe_exits_3(self, monkeypatch, args):
        # the reader is gone before the first byte: a short payload fails in
        # the final flush, a long one part-way through the stream.  stdout
        # must be buffered, as it is by default, for the first case to show
        monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
        code = ("import os, sys\n"
                "r, w = os.pipe(); os.close(r); os.dup2(w, 1); os.close(w)\n"
                "from bogodiag.cli import main\n"
                "main(args=sys.argv[1:])\n")
        result = run_child(code, "spectrum", str(FIXTURES / args[0]), *args[1:])
        assert result.returncode == 3
        assert result.stderr == f"i/o error: [Errno {errno.EPIPE}] {os.strerror(errno.EPIPE)}\n"

    @pytest.mark.parametrize("command", ["spectrum", "verify"])
    @pytest.mark.parametrize("u, const", [
        ([[0.0, 1.5e308, 0.0, 0.0], [-1.5e308, 0.0, 0.0, 0.0],
          [0.0, 0.0, 0.0, -1.5e308], [0.0, 0.0, 1.5e308, 0.0]], 0.0),
        ([[0.0, 1.5e308], [-1.5e308, 0.0]], 1.7e308),
    ], ids=["sum_of_modes", "with_constant"])
    def test_overflowing_energies_exit_1(self, runner, tmp_path, command, u, const):
        # valid forms whose exact energies overflow to -inf
        n = len(u)
        path = write_json(tmp_path / "ovf.json", {
            "statistics": "fermion", "n": n, "U": u, "V": np.zeros((n, n)).tolist(), "const": const,
        })
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = runner.invoke(main, [command, path])
        assert result.exit_code == 1
        payload = strict_json(result.stdout)
        assert [v["check"] for v in payload["violations"]] == ["derived_finite"]
        assert "Infinity" not in payload["detail"] and result.stderr == ""
        assert [str(w.message) for w in caught] == []

    @pytest.mark.parametrize("command, option, value", [
        ("spectrum", "--count", "-5"),
        ("spectrum", "--count", "0"),
        ("verify", "--cutoff", "0"),
        ("verify", "--count", "-1"),
        ("lemmas", "--n", "0"),
        ("lemmas", "--trials", "0"),
        ("lemmas", "--seed", "-1"),
    ])
    def test_out_of_range_option_exits_1(self, runner, tmp_path, command, option, value):
        args = [command] if command == "lemmas" else [command, boson_n1(tmp_path)]
        result = runner.invoke(main, [*args, option, value])
        assert result.exit_code == 1
        payload = json.loads(result.output)
        assert payload["error"] == "ValidationError"
        assert option in payload["detail"]

    @pytest.mark.parametrize("command", ["validate", "diagonalize", "spectrum"])
    @pytest.mark.parametrize("document", [
        [{"statistics": "boson", "n": 1, "U": [[0.0]], "V": [[1.0]], "const": 0.0}],
        {"statistics": "boson", "n": 1, "U": [[0.0]], "V": [[1.0]], "const": "abc"},
        {"statistics": "boson", "n": 1, "U": [[0.0]], "V": [[1.0]], "const": None},
    ], ids=["top_level_list", "const_string", "const_null"])
    def test_malformed_document_exits_1(self, runner, tmp_path, command, document):
        result = runner.invoke(main, [command, write_json(tmp_path / "bad.json", document)])
        assert result.exit_code == 1
        assert json.loads(result.output)["error"] == "ValidationError"

    @pytest.mark.parametrize("command, text", [
        ("morse", '{"n": 2, "chi": 0, "points": 5}'),
        ("morse", '{"n": 2, "chi": 0, "points": null}'),
        ("morse", '{"n": 2, "chi": 0, "points": true}'),
        ("morse", '{"n": 1e999, "chi": 0, "points": []}'),
        ("morse", '{"n": 2, "chi": Infinity, "points": []}'),
        ("validate", '{"statistics": "boson", "n": 1e999, "U": [[0]], "V": [[1]]}'),
        ("spectrum", '{"statistics": "boson", "n": Infinity, "U": [[0]], "V": [[1]]}'),
        ("diagonalize", '{"statistics": "fermion", "n": -Infinity, "U": [[0]], "V": [[1]]}'),
        ("spectrum", '{"statistics": "fermion", "n": 1.5, "U": [[0]], "V": [[1]]}'),
        ("spectrum", '{"statistics": "fermion", "n": true, "U": [[0]], "V": [[1]]}'),
        ("spectrum", '{"statistics": "fermion", "n": "1", "U": [[0]], "V": [[1]]}'),
        ("morse", '{"n": 2.7, "chi": 1, "points": [{"label": "p", "jacobian": [[1, 0], [0, 1]]}]}'),
        ("morse", '{"n": 2, "chi": true, "points": [{"label": "p", "jacobian": [[1, 0], [0, 1]]}]}'),
    ], ids=["points_number", "points_null", "points_bool", "fixture_n_overflow",
            "fixture_chi_infinite", "form_n_overflow", "form_n_infinite", "form_n_minus_infinite",
            "form_n_fraction", "form_n_bool", "form_n_string", "fixture_n_fraction",
            "fixture_chi_bool"])
    def test_unparseable_count_exits_1(self, runner, tmp_path, command, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        result = runner.invoke(main, [command, str(path)])
        assert result.exit_code == 1
        assert strict_json(result.stdout)["error"] == "ValidationError"

    FORM_1 = '{"statistics": "boson", "n": 1, "U": [[0]], "V": %s, "const": %s}'
    FORM_2 = '{"statistics": "boson", "n": 2, "U": [[0, 0], [0, 0]], "V": %s, "const": 0}'
    POINT = '{"n": %d, "chi": 1, "points": [{"label": "p", "jacobian": %s}]}'
    BIG = "9" * 400  # a JSON integer beyond the float range

    @pytest.mark.parametrize("command, text, detail", [
        ("validate", FORM_1 % ("[[1]]", '"2.5"'), "constant 'const' must be a number"),
        ("spectrum", FORM_1 % ("[[1]]", "true"), "constant 'const' must be a number"),
        ("validate", FORM_1 % ('[["1"]]', "0"), "missing or malformed matrix 'V'"),
        ("diagonalize", FORM_1 % ("[[true]]", "0"), "missing or malformed matrix 'V'"),
        ("validate", FORM_1 % ("[[null]]", "0"), "missing or malformed matrix 'V'"),
        ("verify", FORM_2 % "[[1, true], [true, 2]]", "missing or malformed matrix 'V'"),
        ("validate", FORM_1 % ("[[1]]", BIG),
         "constant 'const' must be finite, got an integer beyond the float range"),
        ("spectrum", FORM_1 % (f"[[{BIG}]]", "0"), "missing or malformed matrix 'V'"),
        ("morse", POINT % (1, '[["2"]]'), "each point requires 'label' and a square 'jacobian'"),
        ("morse", POINT % (1, "[[true]]"), "each point requires 'label' and a square 'jacobian'"),
        ("morse", POINT % (2, "[[1, true], [0, 1]]"),
         "each point requires 'label' and a square 'jacobian'"),
    ], ids=["const_string", "const_bool", "V_string", "V_bool", "V_null", "V_mixed",
            "const_big_integer", "V_big_integer", "jacobian_string", "jacobian_bool",
            "jacobian_mixed"])
    def test_number_that_is_not_a_json_number_exits_1(self, runner, tmp_path, command, text,
                                                      detail):
        path = tmp_path / "bad.json"
        path.write_text(text)
        result = runner.invoke(main, [command, str(path)])
        assert result.exit_code == 1
        payload = strict_json(result.stdout)
        assert (payload["error"], payload["detail"]) == ("ValidationError", detail)

    @pytest.mark.parametrize("depth", [3, 32, 33, 64, 65, 900])
    @pytest.mark.parametrize("command", ["validate", "morse"])
    def test_matrix_nested_too_deep_exits_1(self, runner, tmp_path, command, depth):
        # numpy stops at 64 dimensions and iterates at most 32; 900 is just
        # inside the JSON parser's recursion limit
        nested = "[" * depth + "1" + "]" * depth
        text = self.POINT % (1, nested) if command == "morse" else self.FORM_1 % (nested, "0")
        path = tmp_path / "deep.json"
        path.write_text(text)
        result = runner.invoke(main, [command, str(path)])
        assert result.exit_code == 1
        payload = strict_json(result.stdout)
        assert (payload["error"], payload["detail"]) == ("ValidationError", (
            "each point requires 'label' and a square 'jacobian'" if command == "morse"
            else "missing or malformed matrix 'V'"))

    @pytest.mark.parametrize("command, text", [
        ("validate", '{"statistics": "boson", "n": 2.0, "U": [[0, 0], [0, 0]],'
                     ' "V": [[1, 0], [0, 2]], "const": 1}'),
        ("morse", '{"n": 2.0, "chi": 0.0, "points": [{"label": "p", "jacobian": [[1, 0], [0, 1]]},'
                  ' {"label": "q", "jacobian": [[1, 0], [0, -1]]}]}'),
    ], ids=["form_n", "fixture_n_chi"])
    def test_integral_float_count_passes(self, runner, tmp_path, command, text):
        path = tmp_path / "integral.json"
        path.write_text(text)
        result = runner.invoke(main, [command, str(path)])
        assert result.exit_code == 0
        assert "error" not in strict_json(result.stdout)

    @pytest.mark.parametrize("args, named", [
        (["spectrum", "FORM", "--count", "abc"], "--count"),
        (["verify", "FORM", "--tol", "x"], "--tol"),
        (["spectrum", "FORM", "--bogus"], "--bogus"),
        (["spectrum"], "FORM_FILE"),
        (["frobnicate"], "frobnicate"),
        (["validate", "FORM", "--tol", "1"], "--tol"),
        ([], "Missing command"),
    ], ids=["count_not_integer", "tol_not_float", "unknown_option", "missing_file",
            "unknown_command", "validate_has_no_tol", "no_command"])
    def test_usage_error_exits_1(self, runner, tmp_path, args, named):
        path = fermion_n1(tmp_path)
        result = runner.invoke(main, [path if arg == "FORM" else arg for arg in args])
        assert result.exit_code == 1
        payload = strict_json(result.stdout)
        assert payload["error"] == "ValidationError"
        assert named in payload["detail"]

    @pytest.mark.parametrize("command", ["validate", "diagonalize", "spectrum", "verify"])
    def test_overflowing_normal_form_exits_1(self, runner, tmp_path, command):
        # finite entries, but T = (U+V)/2 overflows to inf
        path = write_json(tmp_path / "huge.json", {
            "statistics": "boson", "n": 1, "U": [[1e308]], "V": [[1e308]], "const": 0.0,
        })
        result = runner.invoke(main, [command, path])
        assert result.exit_code == 1
        payload = json.loads(result.output)
        assert [v["check"] for v in payload["violations"]] == ["derived_finite"]

    @pytest.mark.parametrize("command", ["validate", "diagonalize", "spectrum", "verify"])
    def test_asymmetry_large_against_the_entries_exits_1(self, runner, tmp_path, command):
        # max |V - V^t| = 5e-10 is 500 times the diagonal: refused before the
        # pencil, which would be defective (exit 2)
        path = write_json(tmp_path / "skewed.json", {
            "statistics": "boson", "n": 2, "U": [[0.0, 0.0], [0.0, 0.0]],
            "V": [[1e-12, 5e-10], [0.0, 1e-12]], "const": 0.0,
        })
        result = runner.invoke(main, [command, path])
        assert result.exit_code == 1
        payload = strict_json(result.stdout)
        assert [v["check"] for v in payload["violations"]] == ["V_symmetric"]

    @pytest.mark.parametrize("command", ["validate", "diagonalize", "spectrum", "verify"])
    def test_overflowing_pencil_exits_1(self, runner, tmp_path, command):
        # finite T and R, but the pencil R T overflows to -inf
        path = write_json(tmp_path / "pencil.json", {
            "statistics": "boson", "n": 1, "U": [[0.0]], "V": [[1e300]], "const": 0.0,
        })
        result = runner.invoke(main, [command, path])
        assert result.exit_code == 1
        payload = json.loads(result.output)
        assert [v["check"] for v in payload["violations"]] == ["derived_finite"]

    @pytest.mark.parametrize("command", ["validate", "diagonalize", "spectrum", "verify"])
    @pytest.mark.parametrize("text, checks", [
        ('{"statistics": "boson", "n": 1, "U": [[1e308]], "V": [[1e308]]}', ["derived_finite"]),
        ('{"statistics": "boson", "n": 1, "U": [[Infinity]], "V": [[0.0]]}', ["finite"]),
        ('{"statistics": "fermion", "n": 2, "U": [[0.0, 0.0], [0.0, 0.0]],'
         ' "V": [[0.0, 1e308], [-1e308, 0.0]]}', ["V_symmetric"]),
    ], ids=["derived_finite", "finite", "V_symmetric"])
    def test_infinite_deviation_renders_null(self, runner, tmp_path, command, text, checks):
        path = tmp_path / "refused.json"
        path.write_text(text)
        result = runner.invoke(main, [command, str(path)])
        assert result.exit_code == 1
        violations = strict_json(result.stdout)["violations"]
        assert [v["check"] for v in violations] == checks
        assert [v["deviation"] for v in violations] == [None]

    def test_linalg_error_exits_2_with_payload(self, runner, tmp_path, monkeypatch):
        def fail(std):
            raise np.linalg.LinAlgError("Array must not contain infs or NaNs")

        monkeypatch.setattr(spectral, "diagonalize_boson", fail)
        result = runner.invoke(main, ["diagonalize", boson_n1(tmp_path)])
        assert result.exit_code == 2
        assert json.loads(result.output) == {
            "error": "LinAlgError", "detail": "Array must not contain infs or NaNs",
        }

    @pytest.mark.parametrize("command", ["spectrum", "verify"])
    def test_count_above_enumeration_guard_exits_2(self, runner, command):
        # refused before any ladder is built, so this is safe in-process
        path = str(FIXTURES / "boson_oscillator.json")
        result = runner.invoke(main, [command, path, "--count", str(2**20 + 1)])
        assert result.exit_code == 2
        assert json.loads(result.output)["error"] == "ResourceLimitError"


class TestColdStart:
    def test_oracle_loaded_only_by_verify(self):
        proc = run_child(COLD_START, str(FIXTURES))
        assert proc.returncode == 0, proc.stderr[-2000:]
        phases = json.loads(proc.stdout)
        assert phases["import"] == []
        assert phases["commands"] == []
        assert phases["fermion_oracle"] == ["bogodiag.fock"]
        assert phases["boson_oracle"] == ["bogodiag.fock", "scipy"]

    def test_oracle_module_imports_no_scipy(self):
        proc = run_child("import sys, bogodiag.fock\n"
                         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.strip() == "[]"

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError):
            bogodiag.no_such_name
