"""Benchmark of bogodiag: four closed-loop workloads with checked outputs.

Run from the root of a checkout:

    python3 bench/run.py --workload spectrum_fermion --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1

Workloads (see ``plans.py`` for the exact mixes):

* ``spectrum_fermion``: ``spectrum`` on fermionic forms, n = 12..17.  The
  2^n enumeration, ``to_dict`` and the JSON encoding dominate.  It is not
  in BENCHMARK.json: its wall times drift with the host's speed by more
  than the largest allowed bound between runs.
* ``verify_fermion``: ``verify`` on fermionic forms, n = 6..10, and once per
  cycle the guard-edge request n = 12 in its own capped process.  Dense
  Fock assembly dominates.  The guard-edge request counts as a success only
  when it completes correctly or is refused with ``ResourceLimitError``.
* ``verify_boson``: ``verify --count 10 --tol 1e-6`` on bounded-below
  bosonic forms, (n, cutoff) in {(1,60), (2,40), (2,60), (3,16), (3,24)}.
  The Lanczos eigensolve dominates.
* ``requests_small``: sub-millisecond requests: the shipped fixtures,
  ``validate``/``diagonalize``/``spectrum`` on forms with n = 1..6, ``morse``
  on 16-point fixtures, ``lemmas`` and ``local_witten_spectrum``.  Per-call
  overhead dominates.

Each workload is a closed loop with one client that sends the next request
when the last one has finished.  It runs in a fresh worker process under an
address-space cap, so ``setup_s`` sees a cold import and no request can get
the machine's OOM killer involved.  The worker repeats whole cycles of its
plan until ``--seconds`` of request time have passed.

``--trace 0`` prints the end-to-end metrics of each workload:

* ``ops_per_s``: requests that completed and passed their checks, per
  second spent in requests (the checks between requests are not counted).
* ``latency_p50_ms`` and ``latency_tail_ms``: median and tail wall time of
  a successful request; the tail percentile is printed with the number of
  samples beyond it.
* ``cpu_ms_per_op``: user and system CPU of the worker, its BLAS threads
  and its child requests, per request.
* ``peak_rss_mb``: ``ru_maxrss`` of the worker; child requests run in
  their own processes and do not count.
* ``setup_s``: median time of ``import bogodiag, bogodiag.cli`` over five
  fresh processes, the worker among them.
* ``ok_frac``: successful requests over attempted ones.  A request fails on
  an exception, an unexpected exit code or a failed check; the printed
  ``fail_frac`` is one minus it.  ``correct`` in the result is false when a
  payload failed its check, not when a request crashed.

``--trace 1`` runs the same requests once with spans around every layer
call and once without, and prints the per-layer metrics (see
``tracer.py``), each per request.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit code 0 means a
result was printed; any other code means the benchmark could not run (for
instance outside a bogodiag checkout).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy

from plans import WORKLOADS, make_plan

#: Address-space cap of every worker and child process.  It stops the
#: guard-edge request (about 2 GB resident at n = 12) long before the
#: machine runs out of memory.
MEMORY_CAP = 2_500_000_000

#: BLAS threads of the workers: at most two, so that results stay
#: comparable between machines with more cores.
BLAS_THREADS = min(2, os.cpu_count() or 1)

#: Fresh processes that time ``import bogodiag, bogodiag.cli``, besides
#: the worker's own import.
SETUP_PROBES = 4

#: Seconds the worker may take before it is killed.
WORKER_TIMEOUT = 150

#: Tail percentile per workload, chosen so that at least ten samples lie
#: beyond it at the seed state.  It is fixed so that a change which lets
#: more requests complete cannot move the tail to a higher percentile; it
#: only falls back to a lower one when fewer samples complete.
TAIL_PERCENTILE = {
    "spectrum_fermion": 75.0,
    "verify_fermion": 75.0,
    "verify_boson": 75.0,
    "requests_small": 99.0,
}
_FALLBACK_PERCENTILES = (99.0, 95.0, 90.0, 75.0, 50.0)

#: End-to-end metric units; the names and order of BENCHMARK.json.
END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "ok_frac": "ratio",
}

#: Per-layer metric units; the names and order of BENCHMARK.json.
PER_LAYER = {
    "spectral.fermion_spectrum_s": "s/op",
    "spectral.levels": "count/op",
    "cli.render_s": "s/op",
    "fock.assemble_s": "s/op",
    "fock.stored_bytes": "B/op",
    "fock.nnz": "count/op",
    "fock.fill_frac": "ratio",
    "fock.alloc_peak_mb": "MB",
    "fock.eigensolve_s": "s/op",
    "fock.dim": "count",
    "forms.self_s": "s/op",
    "forms.calls": "count/op",
    "spectral.diagonalize_s": "s/op",
    "spectral.boson_spectrum_s": "s/op",
    "morse.self_s": "s/op",
    "morse.points": "count/op",
    "cli.self_s": "s/op",
    "cli.bytes_out": "B/op",
    "spectral.self_s": "s/op",
    "fock.self_s": "s/op",
    "child.self_s": "s/op",
    "trace.self_s": "s/op",
    "bench.self_s": "s/op",
    "trace.wall_s": "s/op",
    "trace.overhead_frac": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def machine_facts() -> dict:
    mem_kb = next(int(line.split()[1]) for line in open("/proc/meminfo", encoding="ascii")
                  if line.startswith("MemTotal:"))
    blas = {}
    for mod in (np, scipy):
        dep = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas[mod.__name__] = f"{dep.get('name')} {dep.get('version')}"
    return {
        "nproc": os.cpu_count(),
        "mem_total_mb": mem_kb // 1024,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
    }


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def probe_setup(root: Path, env: dict) -> list:
    code = ("import time\nstart = time.perf_counter()\nimport bogodiag, bogodiag.cli\n"
            "print(time.perf_counter() - start)\n")
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise BenchError(f"import bogodiag failed:\n{proc.stderr}")
        times.append(float(proc.stdout))
    return times


def tail_latency(latencies: list, percentile: float) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) by nearest rank.

    Uses ``percentile`` when at least ten samples lie beyond it, else the
    highest lower fallback that has ten; with fewer than 20 samples, the
    maximum.
    """
    ordered = sorted(latencies)
    count = len(ordered)
    for p in (percentile,) + tuple(q for q in _FALLBACK_PERCENTILES if q < percentile):
        rank = max(1, math.ceil(p / 100.0 * count))
        if count - rank >= 10:
            return ordered[rank - 1], p, count - rank
    return ordered[-1], 100.0, 0


def run_workload(workload: str, seed: int, seconds: int, trace: bool, root: Path) -> dict:
    work = root / ".bench_work" / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    plan = make_plan(workload, seed, work, root)
    plan.update(seconds=seconds, trace=trace, memory_cap=MEMORY_CAP, src=str(root / "src"))
    plan_path = work / "plan.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    result_path = work / "result.json"

    env = child_env(root)
    setup = probe_setup(root, env)
    try:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("worker.py")), str(plan_path),
             str(result_path)],
            cwd=root, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: worker ran longer than {WORKER_TIMEOUT} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload}: worker exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result["setup"] = setup + [result["setup_s"]]
    return result


def end_to_end(workload: str, result: dict) -> tuple[dict, list]:
    stats = result["stats"]
    lat = stats["latencies_s"]
    ok = len(lat)
    if not lat:
        raise BenchError(f"{workload}: no request succeeded: {stats['reasons']}")
    tail, pct, beyond = tail_latency(lat, TAIL_PERCENTILE[workload])
    values = {
        "ops_per_s": ok / stats["busy_s"],
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_tail_ms": tail * 1e3,
        "cpu_ms_per_op": stats["cpu_s"] / stats["attempted"] * 1e3,
        "peak_rss_mb": result["maxrss_kb"] / 1024.0,
        "setup_s": statistics.median(result["setup"]),
        "ok_frac": ok / stats["attempted"],
    }
    notes = {
        "latency_tail_ms": f"p{pct:g}, {beyond} of {ok} samples beyond",
        "setup_s": f"median of {len(result['setup'])} cold imports",
        "ok_frac": f"fail_frac {stats['failed'] / stats['attempted']:.4f}, "
                   f"{stats['failed']} of {stats['attempted']} requests failed",
        "ops_per_s": f"{stats['cycles']} cycles, {stats['busy_s']:.2f} s in requests",
    }
    lines = [f"{workload:18s} {name:30s} {values[name]:14.6g} {unit:8s} {notes.get(name, '')}"
             for name, unit in END_TO_END.items()]
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}, lines


def per_layer(workload: str, result: dict) -> tuple[dict, list]:
    layers = result["layers"]
    metrics = {name: {"value": layers[name], "unit": unit}
               for name, unit in PER_LAYER.items() if name in layers}
    lines = [f"{workload:18s} {name:30s} {m['value']:14.6g} {m['unit']}"
             for name, m in metrics.items()]
    self_total = sum(value for name, value in layers.items()
                     if name.endswith(".self_s") or name == "cli.render_s")
    lines.append(f"{workload:18s} self times sum to {self_total:.6g} s/op of "
                 f"{layers['trace.wall_s']:.6g} s/op traced request time")
    if result["absent"]:
        lines.append(f"{workload:18s} absent, its functions no longer exist: "
                     + ", ".join(result["absent"]))
    return metrics, lines


def summarize(workload: str, result: dict, trace: bool) -> dict:
    passes = [result["stats"]] + ([result["untraced"]] if trace else [])
    metrics, lines = (per_layer if trace else end_to_end)(workload, result)
    for line in lines:
        print(line)
    for stats in passes:
        for reason in stats["reasons"]:
            print(f"{workload:18s} {reason}", file=sys.stderr)
    return {
        "correct": all(s["wrong"] == 0 for s in passes),
        "attempted": sum(s["attempted"] for s in passes),
        "failed": sum(s["failed"] for s in passes),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "bogodiag" / "__init__.py").is_file():
        print(f"bench: {root} is not a bogodiag checkout (no src/bogodiag)", file=sys.stderr)
        return 2
    print(f"machine: {json.dumps(machine_facts())}")
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for workload in workloads:
            result = run_workload(workload, args.seed, args.seconds, bool(args.trace), root)
            results[workload] = summarize(workload, result, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        line = results[workloads[0]]
    else:
        line = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": m
                        for w, r in results.items() for name, m in r["metrics"].items()},
        }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
