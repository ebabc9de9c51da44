"""Single-threaded BLAS and LAPACK for every numerical entry point.

OpenBLAS splits a product or a factorization differently with 1 and with 2
threads, so the same call can round differently in its last bit depending
on the caller's thread count (the dense eigensolve, `Phi^T M F`, `Pi Phi1`
and the soft-map similarities all do). fmapkit therefore runs all its BLAS and
LAPACK work with one thread: every public function that reaches them is
wrapped in `single_threaded`, which sets every OpenBLAS library loaded in
the process to one thread on entry and restores the caller's counts on
exit, also when an exception is raised. The OpenBLAS count is global to the
process, so nesting is tracked by one lock-protected, process-wide depth
counter: the outermost entry saves and sets, the outermost exit restores.
Other threads of the process that call BLAS while fmapkit is working also
run with one thread.

The caller's threads go to `row_blocks` instead: fixed blocks of
`ROW_BLOCK` rows, run on as many threads as the caller's OpenBLAS count
(saved by the outermost entry; 1 where none is controlled), each BLAS call
single-threaded. The layout depends on n alone, so results never depend on
the thread count. On an AVX-512 OpenBLAS a row split at a multiple of 24
rounds the similarity product and the pull-back exactly as the whole
products, so 96 keeps the unsplit bits; 32, 64 or 128 rows move a refine
step's C by up to 1.4e-17 relative at n = 2562.

Libraries are found by listing the loaded shared objects (dl_iterate_phdr,
on Linux and the BSDs) and looking up the get/set symbols of the OpenBLAS
builds: `scipy_openblas_{get,set}_num_threads64_` (numpy's wheel),
`scipy_openblas_{get,set}_num_threads` (scipy's wheel) and
`openblas_{get,set}_num_threads` (plain builds). Where none is found (MKL,
Accelerate, BLIS, or a platform without dl_iterate_phdr), `single_threaded`
does nothing and results are reproducible only at a fixed thread count.

BLAS and LAPACK call sites in fmapkit, each reached only through the
wrapped entry point named first:

* spectral.eigenbasis: scipy's LAPACK `dsyevd`, in place (dense branch);
  `eigsh` with its sparse LU (sparse branch)
* spectral.SpectralBasis.project: `phi.T @ (m * f)`; properness_project
  and adjoint refine call it
* spectral.SpectralBasis.reconstruct: `phi @ a`
* fmap.solve_fmap: the two Gram products, `eigvalsh`, `solve`
* fmap.convert_adjoint: `phi2 @ C`
* fmap.nearest_rows (also under convert_adjoint and convert_feature_nn)
  and diagnostics.nn_distinctness: the nearest-row kernel `fmap._nearest`,
  one GEMM `[-2q, 1] @ [p, |p|^2].T` per row block
* fmap.soft_map: `v2 @ v1.T`, per row block
* fmap._soft_apply: `v2 @ (v1 / tau).T` and the block's unnormalised
  pull-back, per row block
* fmap._pull_back: `matrix @ values` (soft maps), per row block;
  properness_project, diagnostics.energy_terms and
  diagnostics.measure_basis_aligning call it
* fmap.loss_unsupervised, fmap.grad_unsupervised: k x k products
* diagnostics.measure_basis_aligning: `phi2 @ C`, a Frobenius `norm` (ddot);
  the report and the oracle also call it
* diagnostics.rank_report: `svd`, in the private `_rank` that the oracle
  and the report also call
* diagnostics.theorem_oracle: `lstsq`, `c_opt @ a1`, `phi2 @ c_opt`, `norm`
* synth.icosphere: 3-vector `norm` (ddot)
* refine.refine_proper: `phi2 @ C` and the fused per-block pull-back
  `fmap._soft_apply` (adjoint mode), and the calls above
* diagnostics.build_structure_report: only the calls above, wrapped once
  so that a whole run switches the count once

`row_blocks` also runs the soft-map row-sum checks and the nearest-row
kernel's argmin and exact recheck, and hands each worker its own scratch
buffer.

Everything else in the package (einsum without `optimize`, norms along an
axis, sparse products, Dijkstra) does not reach BLAS.
"""

from __future__ import annotations

import contextvars
import ctypes
import functools
import os
import queue
import threading
from contextlib import contextmanager

import numpy as np

# (getter, setter) symbol names, one pair per OpenBLAS build flavour
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)

# kernel-name getters, one per OpenBLAS build flavour, in the same order
_CORE_NAMES = ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
               "openblas_get_corename")

# rows per block of `row_blocks`; a multiple of 24 (see above)
ROW_BLOCK = 96

_lock = threading.Lock()
_depth = 0
_saved: list[tuple[object, int]] = []


class _PhdrInfo(ctypes.Structure):
    # the leading fields of struct dl_phdr_info
    _fields_ = [("addr", ctypes.c_void_p), ("name", ctypes.c_char_p)]


_PhdrCallback = ctypes.CFUNCTYPE(ctypes.c_int, ctypes.POINTER(_PhdrInfo),
                                 ctypes.c_size_t, ctypes.c_void_p)


def _loaded_libraries() -> list[str]:
    """Paths of the shared objects loaded in this process."""
    try:
        iterate = ctypes.CDLL(None).dl_iterate_phdr
    except (AttributeError, OSError, TypeError):
        return []
    iterate.argtypes = [_PhdrCallback, ctypes.c_void_p]
    iterate.restype = ctypes.c_int
    paths = []

    @_PhdrCallback
    def visit(info, size, data):
        if info.contents.name:
            paths.append(os.fsdecode(info.contents.name))
        return 0

    iterate(visit, None)
    return paths


@functools.cache
def _controls() -> tuple[tuple[str, object, object], ...]:
    """(path, get, set) for every OpenBLAS library loaded in the process."""
    found = []
    for path in map(os.path.realpath, _loaded_libraries()):
        if "openblas" not in os.path.basename(path).lower():
            continue
        lib = ctypes.CDLL(path)
        for get_name, set_name in _SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                found.append((path, get, set_))
                break
    return tuple(found)


def controlled_libraries() -> tuple[str, ...]:
    """Paths of the BLAS libraries whose thread count fmapkit controls."""
    return tuple(path for path, _, _ in _controls())


def core_names() -> tuple[str, ...]:
    """OpenBLAS kernel name (say "SkylakeX") of each controlled library, in the same order.

    Read from the libraries `_controls` found; "unknown" where a library
    exports no kernel-name getter. The kernel is what `OPENBLAS_CORETYPE`
    forces, and exact float pins depend on it.
    """
    names = []
    for path, _, _ in _controls():
        lib = ctypes.CDLL(path)   # already loaded: the same handle
        get = next((getattr(lib, name) for name in _CORE_NAMES if hasattr(lib, name)), None)
        if get is None:
            names.append("unknown")
            continue
        get.restype, get.argtypes = ctypes.c_char_p, []
        names.append(get().decode())
    return tuple(names)


def thread_counts() -> tuple[int, ...]:
    """Current thread count of each controlled library, in the same order."""
    return tuple(get() for _, get, _ in _controls())


@contextmanager
def single_threaded():
    """Run the enclosed BLAS/LAPACK work with one thread; usable as a decorator."""
    global _depth, _saved
    with _lock:
        if _depth == 0:
            _saved = [(set_, get()) for _, get, set_ in _controls()]
            for set_, _ in _saved:
                set_(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                for set_, count in _saved:
                    set_(count)


def workers(n: int) -> int:
    """Threads `row_blocks` runs n rows on; call it inside `single_threaded`."""
    budget = min((count for _, count in _saved), default=1)
    return max(1, min(budget, -(-n // ROW_BLOCK)))


@single_threaded()
def row_blocks(fn, n: int, cols: int = 0) -> None:
    """Call fn(a, b, buf) for each block [a, b) of ROW_BLOCK rows of range(n).

    fn must write only rows [a, b) of its outputs. buf is None when cols is
    0, else a (b - a, cols) view of the running worker's own float64 buffer,
    allocated on the caller's thread (one allocated by a worker would stay
    in glibc's per-thread arena and raise the peak RSS). The blocks run on
    `workers(n)` threads, the caller's among them, the others in copies of
    the caller's context (so numpy's `errstate` holds); all have ended when
    this returns. The first exception stops the blocks not yet started and
    is raised here.
    """
    todo = queue.SimpleQueue()
    for a in range(0, n, ROW_BLOCK):
        todo.put((a, min(a + ROW_BLOCK, n)))
    failed = []

    def work(buf):
        try:
            while not failed:
                a, b = todo.get_nowait()
                fn(a, b, None if buf is None else buf[:b - a])
        except queue.Empty:
            pass
        except BaseException as exc:
            failed.append(exc)

    bufs = [np.empty((min(ROW_BLOCK, n), cols)) if cols else None
            for _ in range(workers(n))]
    helpers = [threading.Thread(target=contextvars.copy_context().run, args=(work, buf))
               for buf in bufs[1:]]
    for t in helpers:
        t.start()
    try:
        work(bufs[0])
    finally:
        for t in helpers:
            t.join()
    if failed:
        raise failed[0]
