"""Benchmark worker: runs one workload plan in a fresh process.

    python3 bench/worker.py PLAN RESULT

``bench/run.py`` starts it with ``PYTHONPATH`` set to the checkout's ``src``
and the BLAS thread count fixed.  The worker caps its own address space,
times the cold import of bogodiag, warms up, then runs the plan's closed
loop: one client sends one request at a time and waits for it.  Requests
are CLI commands run in-process through ``bogodiag.cli.main`` with
``standalone_mode=False``, library calls, or CLI commands in a capped child
process.  The worker checks every output and writes raw measurements to
RESULT as JSON.

Only the time inside requests is measured.  The checks run between
requests and are not counted.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

#: Code of a child request: cap the address space, then run the CLI.
CHILD_CODE = (
    "import resource, sys\n"
    "cap = int(sys.argv[1])\n"
    "resource.setrlimit(resource.RLIMIT_AS, (cap, cap))\n"
    "from bogodiag.cli import main\n"
    "main(sys.argv[2:])\n"
)

#: Seconds a child request may take before it is killed.
CHILD_TIMEOUT = 120

#: Failure reasons kept in the result, per pass.
KEEP_REASONS = 5


class ChildCrash(Exception):
    """A child request ended without writing a payload."""


def _close(a: float, b: float, scale: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(scale))


def _check_validate(exp, code, out):
    if code != 0 or out.get("valid") is not True or out.get("violations") != []:
        return "validate: form reported invalid"
    return None


def _check_diagonalize_fermion(exp, code, out):
    got = sorted(abs(x) for x in out.get("lambdas", []))
    want = exp["sigma"]
    if code != 0 or len(got) != len(want) or not all(
            _close(g, w, want[-1], 1e-9) for g, w in zip(got, want)):
        return "diagonalize: |lambda| differ from the singular values of U+V"
    return None


def _check_diagonalize_boson(exp, code, out):
    modes = out.get("modes", [])
    got = sorted(-m["t"] * m["r"] for m in modes)
    want = exp["freq2"]
    discrete = all(m["class"] == "Discrete" for m in modes)
    if code != 0 or not discrete or len(got) != len(want) or not all(
            _close(g, w, want[-1], 1e-8) for g, w in zip(got, want)):
        return "diagonalize: -t*r differ from -eig(R T)"
    return None


def _energies(out) -> list:
    return [e["energy"] for e in out.get("entries", [])]


def _ascending(values: list) -> bool:
    return all(a <= b for a, b in zip(values, values[1:]))


def _check_spectrum_fermion(exp, code, out):
    n = exp["n"]
    energies = _energies(out)
    if code != 0 or len(energies) != 2 ** n or not _ascending(energies):
        return f"spectrum: expected {2 ** n} ascending energies"
    even = sum(1 for e in out["entries"] if e.get("sector") == "even")
    odd = sum(1 for e in out["entries"] if e.get("sector") == "odd")
    if even != 2 ** (n - 1) or odd != 2 ** (n - 1):
        return f"spectrum: sectors hold {even} even and {odd} odd entries"
    if not _close(energies[-1] - energies[0], exp["width"], exp["width"], 1e-9):
        return "spectrum: max - min differs from 2 * sum of singular values"
    return None


def _check_spectrum_boson(exp, code, out):
    energies = _energies(out)
    if code != 0 or out.get("bounded_below") is not True or len(energies) != exp["count"]:
        return f"spectrum: expected {exp['count']} bounded-below energies"
    if not _ascending(energies):
        return "spectrum: energies not ascending"
    if not _close(energies[1] - energies[0], exp["gap"], exp["gap"], 1e-8):
        return "spectrum: E1 - E0 differs from 4 sqrt(min(-eig(R T)))"
    return None


def _check_verify(exp, code, out):
    if exp.get("refusal_ok") and code == 2 and out.get("error") == "ResourceLimitError":
        return None
    if (code != 0 or out.get("compared") != exp["compared"]
            or not out.get("max_abs_deviation", float("inf")) <= exp["tol"]
            or out.get("sector_mismatches") != 0):
        return f"verify: exit {code}, payload {json.dumps(out)[:200]}"
    return None


def _check_morse(exp, code, out):
    if (code != 0 or out.get("m_plus") != exp["m_plus"] or out.get("m_minus") != exp["m_minus"]
            or out.get("chi_matches") is not True):
        return "morse: counts differ from the signs of det(jacobian)"
    return None


def _check_lemmas(exp, code, out):
    if (code != 0 or out.get("n") != exp["n"] or out.get("trials") != exp["trials"]
            or not out.get("wedge_contraction_max_residual", 1.0) <= 1e-12
            or not out.get("cross_term_max_residual", 1.0) <= 1e-12):
        return "lemmas: residual above 1e-12"
    return None


def _check_witten(exp, code, out):
    energies = _energies(out)
    zeros = sum(1 for e in energies if abs(e) <= 1e-9 * exp["scale"])
    if len(energies) != exp["count"] or zeros != 1:
        return f"witten: {len(energies)} levels with {zeros} zero-energy entries"
    return None


CHECKS = {
    "validate": _check_validate,
    "diagonalize_fermion": _check_diagonalize_fermion,
    "diagonalize_boson": _check_diagonalize_boson,
    "spectrum_fermion": _check_spectrum_fermion,
    "spectrum_boson": _check_spectrum_boson,
    "verify": _check_verify,
    "morse": _check_morse,
    "lemmas": _check_lemmas,
    "witten": _check_witten,
}


class Runner:
    """Issues plan requests one at a time and keeps their measurements."""

    def __init__(self, memory_cap: int, cli, morse):
        self.memory_cap = memory_cap
        self.cli = cli
        self.morse = morse
        self.tracer = None

    def _call_cli(self, args: list) -> tuple[int, str]:
        buf = io.StringIO()
        tracer = self.tracer
        rec = tracer.begin("cli." + args[0], "cli") if tracer else None
        try:
            with contextlib.redirect_stdout(buf):
                self.cli.main.main(args=args, standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        finally:
            if rec is not None:
                tracer.end(rec)
        return code, buf.getvalue()

    def _call_child(self, args: list) -> tuple[int, str]:
        tracer = self.tracer
        rec = tracer.begin("child." + args[0], "child") if tracer else None
        try:
            proc = subprocess.run(
                [sys.executable, "-c", CHILD_CODE, str(self.memory_cap), *args],
                capture_output=True, text=True, timeout=CHILD_TIMEOUT,
            )
        finally:
            if rec is not None:
                tracer.end(rec)
        if not proc.stdout.strip():
            last = (proc.stderr.strip().splitlines() or ["no output"])[-1]
            raise ChildCrash(f"exit {proc.returncode}: {last}")
        return proc.returncode, proc.stdout

    def execute(self, req: dict):
        """Run one request; returns (exit code, output text or result object)."""
        if req["call"] == "cli":
            return self._call_cli(req["args"])
        if req["call"] == "child":
            return self._call_child(req["args"])
        return 0, self.morse.local_witten_spectrum(req["lambdas"], req["count"])

    def check(self, req: dict, code: int, output) -> tuple[str, str | None]:
        """('ok' | 'failed' | 'wrong', reason).

        A request fails when it raised or gave no JSON payload; it is wrong
        when its payload fails a check.  A wrong request also counts as
        failed.
        """
        if isinstance(output, str):
            try:
                output = json.loads(output)
            except json.JSONDecodeError:
                return "failed", f"{req['args'][0]}: exit {code} without a JSON payload"
        try:
            payload = output if isinstance(output, dict) else output.to_dict()
            reason = CHECKS[req["expect"]["check"]](req["expect"], code, payload)
        except (AttributeError, KeyError, TypeError, IndexError) as exc:
            reason = f"malformed payload: {exc!r}"
        return ("ok", None) if reason is None else ("wrong", reason)

    def run(self, cycle: list, seconds: float = 0.0, cycles: int = 0) -> dict:
        """Run whole cycles until ``seconds`` of request time or ``cycles`` cycles."""
        stats = {"busy_s": 0.0, "cpu_s": 0.0, "latencies_s": [], "attempted": 0,
                 "failed": 0, "wrong": 0, "cycles": 0, "bytes_out": 0, "reasons": []}
        while stats["busy_s"] < seconds or stats["cycles"] < cycles:
            for req in cycle:
                self._one(req, stats)
            stats["cycles"] += 1
        return stats

    def _one(self, req: dict, stats: dict) -> None:
        if self.tracer is not None:
            self.tracer.request = stats["attempted"]
        self_0 = resource.getrusage(resource.RUSAGE_SELF)
        kids_0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        try:
            code, output = self.execute(req)
        except Exception as exc:  # a request that raised is a failed request
            code, output = None, exc
        elapsed = time.perf_counter() - start
        self_1 = resource.getrusage(resource.RUSAGE_SELF)
        kids_1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        if self.tracer is not None:
            self.tracer.request = -1
        stats["busy_s"] += elapsed
        stats["cpu_s"] += sum(b.ru_utime + b.ru_stime - a.ru_utime - a.ru_stime
                              for a, b in ((self_0, self_1), (kids_0, kids_1)))
        stats["attempted"] += 1
        if isinstance(output, Exception):
            status, reason = "failed", f"{type(output).__name__}: {output}"[:300]
        else:
            if isinstance(output, str):
                stats["bytes_out"] += len(output)
            status, reason = self.check(req, code, output)
        if status == "ok":
            stats["latencies_s"].append(elapsed)
            return
        stats["failed"] += 1
        stats["wrong"] += status == "wrong"
        if len(stats["reasons"]) < KEEP_REASONS:
            stats["reasons"].append(f"{status}: {reason}")


def main() -> None:
    plan_path, result_path = sys.argv[1], sys.argv[2]
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    cap = plan["memory_cap"]
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    start = time.perf_counter()
    import bogodiag
    import bogodiag.cli
    setup_s = time.perf_counter() - start

    src = Path(plan["src"]).resolve()
    if src not in Path(bogodiag.__file__).resolve().parents:
        sys.exit(f"bogodiag was imported from {bogodiag.__file__}, not from {src}")

    from bogodiag import fock, forms, morse, spectral

    runner = Runner(cap, bogodiag.cli, morse)
    runner.run(plan["warmup"], cycles=1)
    result = {"setup_s": setup_s}
    if not plan["trace"]:
        result["stats"] = runner.run(plan["cycle"], seconds=plan["seconds"])
        result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install({"forms": forms, "spectral": spectral, "fock": fock, "morse": morse,
                        "cli": bogodiag.cli, "bogodiag": bogodiag})
        runner.tracer = tracer
        try:
            traced = runner.run(plan["cycle"], seconds=plan["seconds"])
        finally:
            runner.tracer = None
            tracer.uninstall()
        untraced = runner.run(plan["cycle"], cycles=traced["cycles"])
        layers, absent = tracer.summarize(traced["attempted"], traced["busy_s"], untraced["busy_s"])
        layers["cli.bytes_out"] = traced["bytes_out"] / traced["attempted"]
        tracer.write(Path(result_path).with_name("spans.jsonl"))
        result.update(stats=traced, untraced=untraced, layers=layers, absent=absent)
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
