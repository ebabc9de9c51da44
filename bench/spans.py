"""In-memory span tracer for the fmapkit benchmark.

The tracer never edits the program. It rebinds the names that the calling
modules (fmapkit.cli, fmapkit.diagnostics, fmapkit.refine, fmapkit.evaluate)
use for each layer's public functions, so every call through those names
records a span (name, start, end, parent, op id) and, where the work is
countable, a count taken from the call's arguments or result. Spans stay in
memory and are written out once, when the run ends.

A layer's self time is its span minus the part of it covered by child spans.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import NamedTuple


class TraceError(RuntimeError):
    """A name the tracer wraps no longer exists: the trace would read zeros."""


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None


def _count_eigenbasis(tracer, args, kwargs, result):
    lap = args[0] if args else kwargs["lap"]
    h = hashlib.blake2b(digest_size=16)
    for arr in (lap.W.data, lap.W.indices, lap.W.indptr, lap.mass):
        h.update(arr.tobytes())
    key = h.digest()
    tracer.count("spectral.eigenbasis_calls", 1)
    tracer.count("spectral.eigenbasis_repeats", int(key in tracer.solved))
    tracer.solved.add(key)


def _count_refine(tracer, args, kwargs, result):
    tracer.count("refine.iters", len(result[1]))


def _rows(x):
    return len(getattr(x, "values", x))


def _count_softmap(tracer, args, kwargs, result):
    g1, g2 = args[0], args[1]
    tracer.peak("fmap.softmap_bytes", _rows(g2) * _rows(g1) * 8)


def _count_convert_adjoint(tracer, args, kwargs, result):
    tracer.count("fmap.convert_calls", 1)
    tracer.count("fmap.nn_rows", len(args[2]))


def _count_convert_nn(tracer, args, kwargs, result):
    tracer.count("fmap.convert_calls", 1)
    tracer.count("fmap.nn_rows", _rows(args[1]))


def _count_geodesics(tracer, args, kwargs, result):
    rows, n = result.shape
    tracer.count("mesh.geodesic_rows", rows)
    tracer.peak("mesh.geodesic_table_bytes", rows * n * 8)


# module -> {name bound in that module: (span name, counter or None)}
WRAPS = {
    "fmapkit.cli": {
        "load_mesh": ("mesh.load", None),
        "load_correspondence": ("mesh.load", None),
        "save_correspondence": ("mesh.save", None),
        "build_laplacian": ("spectral.laplacian", None),
        "eigenbasis": ("spectral.eigenbasis", _count_eigenbasis),
        "smooth_features": ("spectral.smooth", None),
        "default_hks_times": ("descriptors.build", None),
        "default_wks_energies": ("descriptors.build", None),
        "descriptor_hks": ("descriptors.build", None),
        "descriptor_wks": ("descriptors.build", None),
        "descriptor_xyz": ("descriptors.build", None),
        "descriptor_landmarks": ("descriptors.build", None),
        "concat_features": ("descriptors.build", None),
        "normalize_columns": ("descriptors.normalize", None),
        "project_coeffs": ("descriptors.project", None),
        "solve_fmap": ("fmap.solve", None),
        "convert_adjoint": ("fmap.convert", _count_convert_adjoint),
        "convert_feature_nn": ("fmap.convert", _count_convert_nn),
        "refine_proper": ("refine.proper", _count_refine),
        "build_structure_report": ("diagnostics.report", None),
        "theorem_oracle": ("diagnostics.oracle", None),
        "geodesic_error": ("evaluate.geodesic_error", None),
        "write_error_report": ("evaluate.write", None),
    },
    "fmapkit.diagnostics": {
        "convert_adjoint": ("fmap.convert", _count_convert_adjoint),
        "convert_feature_nn": ("fmap.convert", _count_convert_nn),
        "properness_project": ("fmap.project", None),
        "nn_distinctness": ("diagnostics.distinct", None),
    },
    "fmapkit.refine": {
        "soft_map": ("fmap.softmap", _count_softmap),
        "properness_project": ("fmap.project", None),
    },
    "fmapkit.evaluate": {
        "graph_geodesics": ("mesh.geodesics", _count_geodesics),
    },
}

# The root span around each fmapkit.cli.main call; its self time is cli.self.
ROOT_SPAN = "cli"

SPAN_NAMES = sorted({span for names in WRAPS.values() for span, _ in names.values()}
                    | {ROOT_SPAN})


def self_times(spans) -> list[float]:
    """Each span's duration minus the union of its children's intervals.

    Children are clipped to their parent, and overlapping children are
    merged, so the result is never negative and never counts time twice.
    """
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        parts = sorted((max(spans[c].start, s.start), min(spans[c].end, s.end))
                       for c in children[i])
        covered, cur_start, cur_end = 0.0, None, None
        for a, b in parts:
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append(s.end - s.start - covered)
    return out


class Tracer:
    """Collects spans and per-op counts while installed.

    `op` is the id stamped on new spans and counts; spans recorded while it
    is None (the warm-up op) are kept out of the per-op figures, but the
    Laplacians they solve still count as solved for the repeat ratio.
    """

    def __init__(self, wraps=WRAPS):
        self.spans: list[Span | None] = []
        self.counts: dict[tuple, float] = defaultdict(float)
        self.peaks: dict[str, float] = defaultdict(float)
        self.solved: set[bytes] = set()
        self.op: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        # Resolve every name now, so a moved or renamed call fails the run
        # before anything is measured.
        self._targets = []
        for mod_name, names in wraps.items():
            mod = importlib.import_module(mod_name)
            for attr, (span, counter) in names.items():
                fn = getattr(mod, attr, None)
                if not callable(fn):
                    raise TraceError(
                        f"{mod_name}.{attr} no longer exists; the trace of "
                        f"{span} would read zero. Update bench/spans.py."
                    )
                self._targets.append((mod, attr, self._wrap(span, fn, counter)))

    def count(self, name: str, value: float) -> None:
        if self.op is not None:
            self.counts[(self.op, name)] += value

    def peak(self, name: str, value: float) -> None:
        if self.op is not None:
            self.peaks[name] = max(self.peaks[name], value)

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = Span(name, start, end, parent, self.op)

    def _wrap(self, span, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(span):
                result = fn(*args, **kwargs)
            if counter is not None:
                counter(self, args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        if self._saved:
            raise TraceError("tracer is already installed")
        for mod, attr, traced in self._targets:
            self._saved.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, traced)

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()

    @contextmanager
    def installed(self, op: int | None):
        self.op = op
        self.install()
        try:
            yield
        finally:
            self.uninstall()
            self.op = None

    def per_op(self) -> dict[int, dict[str, float]]:
        """Self seconds per span name for every traced op."""
        out: dict[int, dict[str, float]] = defaultdict(lambda: dict.fromkeys(SPAN_NAMES, 0.0))
        for s, self_s in zip(self.spans, self_times(self.spans)):
            if s.op is not None:
                out[s.op][s.name] += self_s
        return dict(out)

    def write(self, path) -> None:
        """Write every span once, as JSON rows [name, start, end, parent, op]."""
        with open(path, "w") as fh:
            json.dump([list(s) for s in self.spans], fh)
