"""Seeded benchmark inputs and request plans, made with numpy alone.

Every input is drawn from the seed and written as a JSON file before timing
starts, and every expected value is computed here with numpy, so a change
to the library can change neither the inputs nor the checks.

The seed draws only matrix entries.  Which commands run, at which sizes and
how often is fixed per workload, so that every seed asks for the same
amount of work and runs of different seeds can be compared.

A plan is a dict with a ``warmup`` list and a ``cycle`` list of requests.
The worker repeats whole cycles until ``seconds`` of request time have
passed.  A request is a dict with ``call`` ("cli", "child" or "witten"),
its arguments, and an ``expect`` dict that the worker's checks read.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

#: Workloads in the order ``--workload all`` runs them.
WORKLOADS = ("spectrum_fermion", "verify_fermion", "verify_boson", "requests_small")

#: Fermionic mode counts of ``spectrum_fermion`` and how often each appears
#: in one cycle.  Each mix below has at least 40 successful requests per
#: cycle, so that ten lie beyond p75 even when a run has a single cycle, and
#: puts p50 and p75 inside a size class rather than on a boundary between
#: two.  On a 2-CPU VM a spectrum cycle takes 17-25 s and a verify cycle
#: 12-18 s, so that with ``--seconds 20`` a verify run measures two cycles.
SPECTRUM_MIX = ((12, 8), (13, 6), (14, 14), (15, 10), (16, 2), (17, 1))

#: Fermionic mode counts of ``verify_fermion`` per cycle.
VERIFY_FERMION_MIX = ((6, 8), (7, 8), (8, 12), (9, 10), (10, 3))

#: The mode count that the fermionic Fock guard still admits (2^12); one
#: such request runs per cycle.
GUARD_EDGE_N = 12

#: (mode count, cutoff) pairs of ``verify_boson`` per cycle.
VERIFY_BOSON_MIX = (((1, 60), 16), ((2, 40), 11), ((2, 60), 10), ((3, 16), 2), ((3, 24), 1))

#: Tolerances of the two oracle comparisons (the CLI defaults for fermions,
#: acceptance criterion 2 for bosons).
FERMION_TOL = 1e-9
BOSON_TOL = 1e-6
BOSON_COUNT = 10

#: ``spectrum --count`` for the small random forms, by mode count 1..6.
SMALL_COUNTS = (10, 25, 50, 100, 250, 500)

#: Dimensions of the 16-point morse fixtures and of the Witten spectra.
MORSE_DIMS = (2, 3, 4, 5)
WITTEN_DIMS = (1, 2, 3, 4, 5, 6)
WITTEN_COUNT = 200

#: Squeezing bound of the bosonic forms: S has singular values in
#: [e^-0.15, e^0.15], each mode has |log(t/|r|)| <= 0.3 and a frequency in
#: [0.8, 1.25].  With more squeezing or a wider frequency range the lowest
#: ten levels at (3, 16) are not converged to 1e-6 for some seeds.
SQUEEZE = 0.15


def _fermion_form(rng: np.random.Generator, n: int) -> dict:
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, n))
    return {
        "statistics": "fermion",
        "n": n,
        "U": ((a - a.T) / 2.0).tolist(),
        "V": ((b + b.T) / 2.0).tolist(),
        "const": float(rng.uniform(-1.0, 1.0)),
    }


def _orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.where(np.diag(r) >= 0.0, 1.0, -1.0)


def _boson_form(rng: np.random.Generator, n: int) -> dict:
    """Bounded-below discrete form: T = S diag(t) S^t, R = S^-t diag(r) S^-1."""
    stretch = np.diag(np.exp(rng.uniform(-SQUEEZE, SQUEEZE, n)))
    s = _orthogonal(rng, n) @ stretch @ _orthogonal(rng, n)
    w = rng.uniform(0.8, 1.25, n)
    v = rng.uniform(-SQUEEZE, SQUEEZE, n)
    s_inv = np.linalg.inv(s)
    t = s @ np.diag(w * np.exp(v)) @ s.T
    r = s_inv.T @ np.diag(-w * np.exp(-v)) @ s_inv
    t = (t + t.T) / 2.0
    r = (r + r.T) / 2.0
    return {
        "statistics": "boson",
        "n": n,
        "U": (t + r).tolist(),
        "V": (t - r).tolist(),
        "const": float(rng.uniform(-1.0, 1.0)),
    }


def _morse_fixture(rng: np.random.Generator, n: int, points: int = 16) -> dict:
    jacobians = []
    for _ in range(points):
        signs = rng.choice((-1.0, 1.0), n)
        scales = rng.uniform(0.5, 2.0, n)
        jacobians.append(_orthogonal(rng, n) @ np.diag(signs * scales) @ _orthogonal(rng, n))
    dets = [np.linalg.det(j) for j in jacobians]
    m_plus = sum(1 for d in dets if d > 0)
    return {
        "n": n,
        "chi": 2 * m_plus - points,
        "points": [{"label": f"p{i}", "jacobian": j.tolist()} for i, j in enumerate(jacobians)],
    }


def _u_v(form: dict) -> tuple[np.ndarray, np.ndarray]:
    return np.array(form["U"], dtype=float), np.array(form["V"], dtype=float)


def _frequencies_squared(form: dict) -> list[float]:
    """Sorted -eig(R T) with T = (U+V)/2, R = (U-V)/2."""
    u, v = _u_v(form)
    vals = np.linalg.eigvals(((u - v) / 2.0) @ ((u + v) / 2.0))
    return sorted(float(x) for x in -vals.real)


def _singular_values(form: dict) -> list[float]:
    u, v = _u_v(form)
    return sorted(float(x) for x in np.linalg.svd(u + v, compute_uv=False))


class _Files:
    """Writes the input files of one plan into its work directory."""

    def __init__(self, work: Path):
        self.work = work
        self.count = 0

    def write(self, data: dict, stem: str) -> str:
        self.count += 1
        path = self.work / f"{self.count:03d}-{stem}.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        return str(path)


def _spectrum(path: str, form: dict, count: int | None = None) -> dict:
    args = ["spectrum", path] + (["--count", str(count)] if count is not None else [])
    if form["statistics"] == "fermion":
        expect = {"check": "spectrum_fermion", "n": form["n"],
                  "width": 2.0 * sum(_singular_values(form))}
    else:
        expect = {"check": "spectrum_boson", "count": 10 if count is None else count,
                  "gap": 4.0 * float(np.sqrt(_frequencies_squared(form)[0]))}
    return {"call": "cli", "args": args, "expect": expect}


def _diagonalize(path: str, form: dict) -> dict:
    if form["statistics"] == "fermion":
        expect = {"check": "diagonalize_fermion", "sigma": _singular_values(form)}
    else:
        expect = {"check": "diagonalize_boson", "freq2": _frequencies_squared(form)}
    return {"call": "cli", "args": ["diagonalize", path], "expect": expect}


def _validate(path: str) -> dict:
    return {"call": "cli", "args": ["validate", path], "expect": {"check": "validate"}}


def _morse(path: str, fixture: dict) -> dict:
    signs = [bool(np.linalg.det(np.array(p["jacobian"], dtype=float)) > 0)
             for p in fixture["points"]]
    expect = {"check": "morse", "m_plus": sum(signs), "m_minus": len(signs) - sum(signs)}
    return {"call": "cli", "args": ["morse", path], "expect": expect}


def _verify_fermion(path: str, n: int, call: str = "cli") -> dict:
    # the guard-edge request may also succeed by being refused with exit 2
    expect = {"check": "verify", "compared": 2 ** n, "tol": FERMION_TOL,
              "refusal_ok": call == "child"}
    return {"call": call, "args": ["verify", path], "expect": expect}


def _verify_boson(path: str, cutoff: int) -> dict:
    args = ["verify", path, "--cutoff", str(cutoff), "--count", str(BOSON_COUNT),
            "--tol", str(BOSON_TOL)]
    expect = {"check": "verify", "compared": BOSON_COUNT, "tol": BOSON_TOL}
    return {"call": "cli", "args": args, "expect": expect}


def _interleave(groups: list[list[dict]]) -> list[dict]:
    """Spread each group evenly over the cycle, largest group first."""
    keyed = []
    for group in groups:
        for i, req in enumerate(group):
            keyed.append(((i + 0.5) / len(group), -len(group), len(keyed), req))
    return [item[-1] for item in sorted(keyed, key=lambda item: item[:3])]


def _plan_spectrum_fermion(rng, files: _Files, root: Path) -> dict:
    groups = []
    for n, reps in SPECTRUM_MIX:
        group = []
        for _ in range(reps):
            form = _fermion_form(rng, n)
            group.append(_spectrum(files.write(form, f"fermion{n}"), form))
        groups.append(group)
    return {"warmup": [groups[0][0]], "cycle": _interleave(groups)}


def _plan_verify_fermion(rng, files: _Files, root: Path) -> dict:
    groups = []
    for n, reps in VERIFY_FERMION_MIX:
        groups.append([_verify_fermion(files.write(_fermion_form(rng, n), f"fermion{n}"), n)
                       for _ in range(reps)])
    edge = _fermion_form(rng, GUARD_EDGE_N)
    groups.append([_verify_fermion(files.write(edge, f"fermion{GUARD_EDGE_N}"),
                                   GUARD_EDGE_N, call="child")])
    return {"warmup": [groups[0][0]], "cycle": _interleave(groups)}


def _plan_verify_boson(rng, files: _Files, root: Path) -> dict:
    groups = []
    for (n, cutoff), reps in VERIFY_BOSON_MIX:
        groups.append([_verify_boson(files.write(_boson_form(rng, n), f"boson{n}"), cutoff)
                       for _ in range(reps)])
    return {"warmup": [groups[0][0], groups[1][0]], "cycle": _interleave(groups)}


def _plan_requests_small(rng, files: _Files, root: Path) -> dict:
    cycle = []
    fixtures = root / "fixtures"
    for name in ("boson_oscillator", "fermion_pair"):
        path = str(fixtures / f"{name}.json")
        form = json.loads(Path(path).read_text(encoding="utf-8"))
        cycle += [_validate(path), _diagonalize(path, form), _spectrum(path, form)]
    for name in ("sphere", "torus"):
        path = str(fixtures / f"{name}.json")
        cycle.append(_morse(path, json.loads(Path(path).read_text(encoding="utf-8"))))
    for n, count in enumerate(SMALL_COUNTS, start=1):
        for make in (_fermion_form, _boson_form):
            form = make(rng, n)
            path = files.write(form, f"{form['statistics']}{n}")
            cycle += [_validate(path), _diagonalize(path, form), _spectrum(path, form, count)]
    for n in MORSE_DIMS:
        fixture = _morse_fixture(rng, n)
        cycle.append(_morse(files.write(fixture, f"morse{n}"), fixture))
    cycle.append({"call": "cli", "args": ["lemmas", "--n", "4", "--trials", "10"],
                  "expect": {"check": "lemmas", "n": 4, "trials": 10}})
    for n in WITTEN_DIMS:
        lam = rng.choice((-1.0, 1.0), n) * rng.uniform(0.5, 2.0, n)
        cycle.append({"call": "witten", "lambdas": lam.tolist(), "count": WITTEN_COUNT,
                      "expect": {"check": "witten", "count": WITTEN_COUNT,
                                 "scale": float(np.max(np.abs(lam)))}})
    return {"warmup": list(cycle), "cycle": cycle}


_BUILDERS = {
    "spectrum_fermion": _plan_spectrum_fermion,
    "verify_fermion": _plan_verify_fermion,
    "verify_boson": _plan_verify_boson,
    "requests_small": _plan_requests_small,
}


def make_plan(workload: str, seed: int, work: Path, root: Path) -> dict:
    """Write the inputs of one workload into ``work`` and return its plan."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return _BUILDERS[workload](rng, _Files(work), root)
