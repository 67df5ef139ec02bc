"""Per-layer tracing of a sweep, installed from outside the program.

The tracer replaces public functions by timing wrappers at the point
where the calling module looks them up (for example
``hofbutter.butterfly.compute_bands``, or the ``np`` that
``hofbutter.spectrum`` calls ``np.linalg.eigvalsh`` through), and puts
the originals back on ``uninstall``.  Spans are kept in memory with
their parent; self time is a span's duration minus that of its child
spans.  Counters are kept at the same boundaries.
"""

from __future__ import annotations

import builtins
import importlib
import math
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# (name, unit, better) of every per-layer metric the traced run reports.
PER_LAYER = [
    ("magnetic_algebra.build_hamiltonian.calls", "count", "lower"),
    ("magnetic_algebra.build_hamiltonian.s", "s", "lower"),
    ("magnetic_algebra.hamiltonian_batch.matrices", "count", "lower"),
    ("magnetic_algebra.hamiltonian_batch.s", "s", "lower"),
    ("linalg.eigvalsh.matrices", "count", "lower"),
    ("linalg.eigvalsh.s", "s", "lower"),
    ("linalg.eigh.matrices", "count", "lower"),
    ("linalg.eigh.s", "s", "lower"),
    ("linalg.eigh.flops_computed", "flop", "lower"),
    ("linalg.det.matrices", "count", "lower"),
    ("linalg.det.s", "s", "lower"),
    ("spectrum.compute_bands.s", "s", "lower"),
    ("spectrum.compute_bands.self_s", "s", "lower"),
    ("spectrum.band_edge_kpoints.s", "s", "lower"),
    ("spectrum.edge_route.closed_form", "count", "higher"),
    ("spectrum.edge_route.scan", "count", "lower"),
    ("spectrum.dense_fallbacks", "count", "lower"),
    ("spectrum.compute_gaps.s", "s", "lower"),
    ("spectrum.containment_failures", "count", "lower"),
    ("diophantine.window_builds", "count", "lower"),
    ("diophantine.window.s", "s", "lower"),
    ("diophantine.resolve_in_window.calls", "count", "lower"),
    ("diophantine.resolve_in_window.s", "s", "lower"),
    ("diophantine.streda_check.calls", "count", "lower"),
    ("diophantine.streda_check.s", "s", "lower"),
    ("chern.gap_chern_table.calls", "count", "lower"),
    ("chern.gap_chern_table.s", "s", "lower"),
    ("chern.certified_grid.32", "count", "higher"),
    ("chern.certified_grid.64", "count", "lower"),
    ("chern.certified_grid.128", "count", "lower"),
    ("chern.certified_grid.256", "count", "lower"),
    ("chern.uncertified_gaps", "count", "lower"),
    ("butterfly.sweep.s", "s", "lower"),
    ("butterfly.sweep.self_s", "s", "lower"),
    ("butterfly.fluxes", "count", "higher"),
    ("butterfly.records", "count", "higher"),
    ("butterfly.jsonl_bytes", "bytes", "lower"),
    ("butterfly.read_records_jsonl.s", "s", "lower"),
    ("butterfly.detect_coloring_errors.s", "s", "lower"),
    ("butterfly.inconsistent_pairs", "count", "lower"),
    ("butterfly.colored_gaps", "count", "higher"),
    ("butterfly.gray_gaps", "count", "lower"),
    ("render.render_jsonl.s", "s", "lower"),
    ("render.records_decoded", "count", "lower"),
    ("render.ppm_bytes", "bytes", "lower"),
    ("process.cpu_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

# Complex flops of one n x n Hermitian eigendecomposition with vectors,
# after Golub and Van Loan's 9 n^3 count for the symmetric QR algorithm.
EIGH_FLOPS_PER_N3 = 9


def _matrices(a) -> int:
    shape = np.shape(a)
    return int(math.prod(shape[:-2]))


class Tracer:
    """Spans and counters of one traced round."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []            # (name id, parent index, start, end)
        self._stack: list[int] = []
        self.counts = defaultdict(int)
        self.fhs_fluxes: set = set()     # (p, q) handed to gap_chern_table
        self._patches: list = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @contextmanager
    def span(self, name: str):
        nid = self._id(name)
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.spans[idx] = (nid, parent, t0, t1)

    def wrap(self, fn, name: str, count=None):
        nid = self._id(name)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (nid, parent, t0, t1)
            if count is not None:
                count(args, result)
            return result

        return traced

    def patch(self, obj, attr: str, name: str, count=None):
        had = attr in vars(obj)
        old = getattr(obj, attr)
        self._patches.append((obj, attr, old, had))
        setattr(obj, attr, self.wrap(old, name, count))

    def _set(self, obj, attr, value):
        had = attr in vars(obj)
        self._patches.append((obj, attr, getattr(obj, attr, None), had))
        setattr(obj, attr, value)

    # -- installation ------------------------------------------------------

    def install(self):
        # by module path: the package rebinds the name ``render`` to a function
        butterfly, chern, render, spectrum = (
            importlib.import_module(f"hofbutter.{name}")
            for name in ("butterfly", "chern", "render", "spectrum"))

        c = self.counts

        def add(key, n=1):
            c[key] += n

        def batch(args, result):
            add("magnetic_algebra.hamiltonian_batch.matrices", _matrices(result))

        for mod in (spectrum, chern):
            self.patch(mod, "build_hamiltonian", "magnetic_algebra.build_hamiltonian")
            self.patch(mod, "hamiltonian_batch", "magnetic_algebra.hamiltonian_batch",
                       batch)
            self._set(mod, "np", _NumpyProxy(self))
        self.patch(chern, "compute_bands", "spectrum.compute_bands")
        self.patch(chern, "compute_gaps", "spectrum.compute_gaps")
        self.patch(spectrum, "band_edge_kpoints", "spectrum.band_edge_kpoints")
        if hasattr(spectrum, "_extremize_det"):
            self.patch(spectrum, "_extremize_det", "spectrum.scan")

        def fhs(args, result):
            model = args[0]
            self.fhs_fluxes.add((model.flux.p, model.q))
            for res in result.values():
                add(f"chern.certified_grid.{res.grid}")

        self.patch(chern, "gap_chern_table", "chern.gap_chern_table", fhs)

        self.patch(butterfly, "compute_bands", "spectrum.compute_bands")
        self.patch(butterfly, "compute_bands_dense", "spectrum.compute_bands_dense")
        self.patch(butterfly, "compute_gaps", "spectrum.compute_gaps")
        for attr in ("square_window", "triangular_window"):
            self.patch(butterfly, attr, "diophantine.window")
        self.patch(butterfly, "resolve_in_window", "diophantine.resolve_in_window")
        self.patch(butterfly, "streda_check", "diophantine.streda_check")

        def counting_open(*args, **kwargs):
            return _CountingFile(builtins.open(*args, **kwargs), c,
                                 "render.records_decoded")

        self._set(render, "open", counting_open)

    def uninstall(self):
        for obj, attr, old, had in reversed(self._patches):
            if had:
                setattr(obj, attr, old)
            else:
                delattr(obj, attr)
        self._patches.clear()

    # -- summary -----------------------------------------------------------

    def totals(self) -> dict:
        """{name.s, name.self_s, name.calls} of every span name, plus counters."""
        out = dict(self.counts)
        if not self.spans:
            return out
        arr = np.array(self.spans, dtype=float)
        nid = arr[:, 0].astype(int)
        parent = arr[:, 1].astype(int)
        dur = arr[:, 3] - arr[:, 2]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        k = len(self.names)
        total = np.bincount(nid, weights=dur, minlength=k)
        own = np.bincount(nid, weights=dur - child, minlength=k)
        calls = np.bincount(nid, minlength=k)
        for i, name in enumerate(self.names):
            out[f"{name}.s"] = float(total[i])
            out[f"{name}.self_s"] = float(own[i])
            out[f"{name}.calls"] = int(calls[i])
        return out


class _LinalgProxy:
    """numpy.linalg as a traced module sees it: the eigensolvers and det
    are timed and their matrices counted; the rest passes through."""

    def __init__(self, tracer: Tracer):
        c = tracer.counts

        def counter(name, flops=False):
            def count(args, result):
                a = args[0]
                m = _matrices(a)
                c[f"linalg.{name}.matrices"] += m
                if flops:
                    c[f"linalg.{name}.flops_computed"] += \
                        m * EIGH_FLOPS_PER_N3 * np.shape(a)[-1] ** 3
            return count

        self.eigvalsh = tracer.wrap(np.linalg.eigvalsh, "linalg.eigvalsh",
                                    counter("eigvalsh"))
        self.eigh = tracer.wrap(np.linalg.eigh, "linalg.eigh", counter("eigh", True))
        self.det = tracer.wrap(np.linalg.det, "linalg.det", counter("det"))

    def __getattr__(self, name):
        return getattr(np.linalg, name)


class _NumpyProxy:
    def __init__(self, tracer: Tracer):
        self.linalg = _LinalgProxy(tracer)

    def __getattr__(self, name):
        return getattr(np, name)


class _CountingFile:
    """A text file whose iterated lines are counted."""

    def __init__(self, fh, counts, key):
        self._fh, self._counts, self._key = fh, counts, key

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()
        return False

    def __iter__(self):
        for line in self._fh:
            self._counts[self._key] += 1
            yield line

    def __getattr__(self, name):
        return getattr(self._fh, name)
