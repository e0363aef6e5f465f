import errno
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import bogodiag
from bogodiag import spectral
from bogodiag.cli import main

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"

#: Child that caps its own address space, then runs the CLI on argv[2:].
CAPPED_CLI = (
    "import resource, sys\n"
    "cap = int(sys.argv[1])\n"
    "resource.setrlimit(resource.RLIMIT_AS, (cap, cap))\n"
    "from bogodiag.cli import main\n"
    "main(sys.argv[2:])\n"
)


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

#: Every name the package re-exports from the oracle module.
FOCK_EXPORTS = [
    "BosonFockRep", "FermionFockRep", "TruncationResult", "bogoliubov_mode_operators",
    "build_boson_rep", "build_fermion_rep", "build_hamiltonian", "build_standard_hamiltonian",
    "lowest_eigenvalues", "sector_spectra", "truncation_stable_spectrum",
]


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

    def test_boson_random_n2(self, runner, tmp_path):
        from conftest import bounded_boson_form

        rng = np.random.default_rng(15)
        form = bounded_boson_form(rng, 2, seed=3)
        path = write_json(tmp_path / "b2.json", form.to_dict())
        result = runner.invoke(main, ["verify", path, "--cutoff", "30", "--tol", "1e-6"])
        assert result.exit_code == 0
        assert json.loads(result.output)["max_abs_deviation"] <= 1e-6

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

    def test_oversized_eigensolve_exits_2_under_memory_cap(self, tmp_path):
        # at n = 3, cutoff 28 (fine dimension 57^3 = 185193, inside the
        # dimension guard) a count of 30000 asks for a dense solve of the
        # 24389-dimensional coarse matrix, about 4.8 GB per copy; the refusal
        # must come before any of it is allocated, so a 1.5 GB cap never trips
        n = 3
        path = write_json(tmp_path / "b3.json", {
            "statistics": "boson", "n": n,
            "U": np.zeros((n, n)).tolist(), "V": np.diag([1.0, 1.1, 1.2]).tolist(), "const": 0.0,
        })
        proc = run_capped_cli(1536 * 2**20, "verify", path, "--cutoff", "28", "--count", "30000")
        assert proc.returncode == 2, proc.stderr[-2000:]
        assert json.loads(proc.stdout)["error"] == "ResourceLimitError"


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


class TestLemmas:
    def test_residuals(self, runner):
        result = runner.invoke(main, ["lemmas", "--n", "4", "--seed", "0", "--trials", "25"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["wedge_contraction_max_residual"] <= 1e-12
        assert payload["cross_term_max_residual"] <= 1e-12

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
        ["fermion_pair.json"], ["boson_oscillator.json", "--count", "500"],
    ], ids=["fermion", "boson"])
    def test_out_file_equals_stdout(self, runner, tmp_path, args):
        args = ["spectrum", str(FIXTURES / args[0]), *args[1:]]
        out = tmp_path / "spectrum.json"
        printed = runner.invoke(main, args)
        written = runner.invoke(main, [*args, "--out", str(out)])
        assert printed.exit_code == written.exit_code == 0
        assert written.output == ""
        assert out.read_text(encoding="utf-8") == printed.stdout

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

    def test_oracle_reexports_resolve_lazily(self):
        from bogodiag import BosonFockRep, fock

        assert BosonFockRep is fock.BosonFockRep
        for name in FOCK_EXPORTS:
            assert getattr(bogodiag, name) is getattr(fock, name)
            assert name in dir(bogodiag)

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError):
            bogodiag.no_such_name
