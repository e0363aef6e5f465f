"""Spans around the calls into each bogodiag layer, recorded from outside.

The tracer replaces module and class attributes: every public function of
``forms``, ``spectral``, ``fock`` and ``morse`` and every ``to_dict`` method
of their classes.  References that another module imported by name (``morse``
imports ``smallest_sums`` and ``diagonalize_fermion``, the package re-exports
everything) are replaced as well.  Nothing inside the library changes.

A span is ``[name, layer, start, end, parent index, request index]``.  Spans
stay in memory until the run ends.  Spans with request index -1 were made
outside a request, by the benchmark's checks, and are not summarized.  A
layer's self time is the duration of its spans minus the part covered by
their child spans, so the self times of all layers plus the benchmark's own
share add up to the traced request time.  Bookkeeping that the tracer does
inside a request (counting matrix entries, tracemalloc) is recorded as spans
of the layer ``trace`` so that it is not charged to the layer that called it.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
import tracemalloc
from collections import defaultdict

import numpy as np
import scipy.sparse as sp

#: Library modules whose public functions are wrapped, by layer name.
LAYERS = ("forms", "spectral", "fock", "morse")

#: Layers whose self time is reported, in report order.  ``render`` holds the
#: ``to_dict`` spans, ``child`` requests run in a separate process.
SELF_TIMES = {
    "forms.self_s": "forms",
    "spectral.self_s": "spectral",
    "fock.self_s": "fock",
    "morse.self_s": "morse",
    "cli.self_s": "cli",
    "cli.render_s": "render",
    "child.self_s": "child",
    "trace.self_s": "trace",
}

#: Time metrics summed over spans of the named functions.  A span nested in
#: another span of the same group is not counted twice.
INCLUSIVE = {
    "spectral.fermion_spectrum_s": ("spectral.fermion_spectrum",),
    "spectral.diagonalize_s": ("spectral.diagonalize_fermion", "spectral.diagonalize_boson"),
    "spectral.boson_spectrum_s": ("spectral.boson_spectrum",),
    "fock.assemble_s": ("fock.build_hamiltonian",),
    "fock.eigensolve_s": ("fock.sector_spectra", "fock.lowest_eigenvalues"),
}

_SPECTRA = ("spectral.fermion_spectrum", "spectral.boson_spectrum")
_EIGENSOLVES = INCLUSIVE["fock.eigensolve_s"]
_ASSEMBLY = "fock.build_hamiltonian"

#: Functions each counter needs; a counter whose functions are all gone, or
#: whose arguments and results no longer have the expected shape, is
#: reported as absent.
COUNTER_SOURCES = {
    "spectral.levels": _SPECTRA,
    "fock.nnz": (_ASSEMBLY,),
    "fock.stored_bytes": (_ASSEMBLY,),
    "fock.fill_frac": (_ASSEMBLY,),
    "fock.alloc_peak_mb": (_ASSEMBLY,),
    "fock.dim": _EIGENSOLVES,
    "morse.points": ("morse.morse_report",),
}


def _matrix_counts(matrix) -> tuple[int, int, int]:
    """(nonzeros, stored entries, stored bytes) of a dense or sparse matrix."""
    if sp.issparse(matrix):
        csr = matrix.tocsr()
        stored = csr.indptr.nbytes + csr.indices.nbytes + csr.data.nbytes
        return int(np.count_nonzero(csr.data)), int(csr.data.size), int(stored)
    arr = np.asarray(matrix)
    return int(np.count_nonzero(arr)), int(arr.size), int(arr.nbytes)


def _start_alloc(tracer):
    tracemalloc.start()


def _assembly(tracer, args, result):
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    tracer.maxima["fock.alloc_peak_mb"] = max(tracer.maxima["fock.alloc_peak_mb"], peak / 2**20)
    if result is not None:
        nnz, entries, stored = _matrix_counts(result)
        tracer.counts["fock.nnz"] += nnz
        tracer.counts["fock.entries"] += entries
        tracer.counts["fock.stored_bytes"] += stored


def _eigensolve(tracer, args, result):
    tracer.counts["fock.dim"] += args[0].shape[0]
    tracer.counts["fock.eigensolves"] += 1


def _spectrum(tracer, args, result):
    if result is not None:
        tracer.counts["spectral.levels"] += len(result.entries)


def _morse_report(tracer, args, result):
    tracer.counts["morse.points"] += len(args[0].points)


#: (before, after) bookkeeping around particular functions.
_HOOKS = {
    _ASSEMBLY: (_start_alloc, _assembly),
    **{name: (None, _eigensolve) for name in _EIGENSOLVES},
    **{name: (None, _spectrum) for name in _SPECTRA},
    "morse.morse_report": (None, _morse_report),
}


class Tracer:
    """Records spans and counters while installed on the bogodiag modules."""

    def __init__(self):
        self.spans = []
        self.request = -1
        self.counts = defaultdict(float)
        self.maxima = defaultdict(float)
        self.wrapped = set()
        self.unreadable = set()
        self._stack = []
        self._undo = []

    def begin(self, name: str, layer: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        rec = [name, layer, 0.0, 0.0, parent, self.request]
        self.spans.append(rec)
        rec[2] = time.perf_counter()
        return rec

    def end(self, rec: list) -> None:
        rec[3] = time.perf_counter()
        self._stack.pop()

    def _bookkeep(self, name: str, fn, *args) -> None:
        rec = self.begin("trace." + name, "trace")
        try:
            fn(self, *args)
        except (AttributeError, IndexError, TypeError):
            # the function's arguments or result changed shape; its counters
            # are reported absent rather than failing the request
            self.unreadable.add(name)
        finally:
            self.end(rec)

    def _wrap(self, fn, name: str, layer: str):
        before, after = _HOOKS.get(name, (None, None))
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                tracer._bookkeep(name, before)
            result = None
            rec = tracer.begin(name, layer)
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer.end(rec)
                if after is not None:
                    tracer._bookkeep(name, after, args, result)

        self.wrapped.add(name)
        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, modules: dict) -> None:
        """Wrap the layers in ``modules`` (name -> module, including ``cli``)."""
        replacements = {}
        for layer in LAYERS:
            mod = modules[layer]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replacements[obj] = self._wrap(obj, f"{layer}.{attr}", layer)
                elif inspect.isclass(obj) and "to_dict" in vars(obj):
                    self._set(obj, "to_dict",
                              self._wrap(vars(obj)["to_dict"], f"render.{attr}.to_dict", "render"))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replacements:
                    self._set(mod, attr, replacements[obj])

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")

    def _group_time(self, names: tuple) -> float:
        total = 0.0
        for rec in self.spans:
            if rec[0] not in names or rec[5] < 0:
                continue
            parent = rec[4]
            while parent >= 0 and self.spans[parent][0] not in names:
                parent = self.spans[parent][4]
            if parent < 0:
                total += rec[3] - rec[2]
        return total

    def summarize(self, ops: int, traced_s: float, untraced_s: float) -> tuple[dict, list]:
        """Per-request layer metrics and the names of absent ones.

        ``traced_s`` is the request time of the traced pass, ``untraced_s``
        that of the same requests run again without the tracer.
        """
        child_time = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[4] >= 0:
                child_time[rec[4]] += rec[3] - rec[2]
        self_time = defaultdict(float)
        calls = defaultdict(int)
        roots = 0.0
        for rec, covered in zip(self.spans, child_time):
            if rec[5] < 0:
                continue
            self_time[rec[1]] += rec[3] - rec[2] - covered
            calls[rec[1]] += 1
            if rec[4] < 0:
                roots += rec[3] - rec[2]

        out = {name: self_time[layer] / ops for name, layer in SELF_TIMES.items()}
        out["bench.self_s"] = (traced_s - roots) / ops
        out["trace.wall_s"] = traced_s / ops
        out["trace.overhead_frac"] = traced_s / untraced_s - 1.0
        out["forms.calls"] = calls["forms"] / ops
        absent = []
        for name, group in INCLUSIVE.items():
            if self.wrapped.intersection(group):
                out[name] = self._group_time(group) / ops
            else:
                absent.append(name)
        counts = {
            "spectral.levels": self.counts["spectral.levels"] / ops,
            "fock.nnz": self.counts["fock.nnz"] / ops,
            "fock.stored_bytes": self.counts["fock.stored_bytes"] / ops,
            "fock.fill_frac": self.counts["fock.nnz"] / max(self.counts["fock.entries"], 1.0),
            "fock.alloc_peak_mb": self.maxima["fock.alloc_peak_mb"],
            "fock.dim": self.counts["fock.dim"] / max(self.counts["fock.eigensolves"], 1.0),
            "morse.points": self.counts["morse.points"] / ops,
        }
        readable = self.wrapped - self.unreadable
        for name, value in counts.items():
            if readable.intersection(COUNTER_SOURCES[name]):
                out[name] = value
            else:
                absent.append(name)
        return out, absent
