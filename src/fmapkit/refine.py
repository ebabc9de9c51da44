"""Map refinement: the properness fixed-point iteration.

refine_proper returns the final map plus a per-iteration residual trace,
which write_trace saves as an 'iteration,residual' CSV.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ._blas import single_threaded
from .errors import MissingFeatures
from .fmap import DEFAULT_TAU, _soft_apply, loss_properness, properness_project, soft_map
from .mesh import _fmt
from .spectral import SpectralBasis, _matrix

# stop when the properness residual, or its change between iterations,
# drops below this
RESIDUAL_EPS = 1e-10


@single_threaded()
def refine_proper(C0: np.ndarray, basis1: SpectralBasis, basis2: SpectralBasis,
                  iters: int = 10, mode: str = "adjoint",
                  F1=None, F2=None, tau: float = DEFAULT_TAU):
    """Repeat [soft map -> properness projection] from C0.

    mode 'adjoint' builds the soft map between Phi1 and Phi2 C (so the map
    refines itself); mode 'feature' builds it between the supplied
    descriptor stacks. That soft map does not depend on C, so feature mode
    projects once: the next iterate would be the same map with residual
    0.0, which the trace records without rebuilding it.

    Returns (C, trace) where trace[i] = ||C_i - C_{i+1}||_F^2, the
    properness loss between consecutive iterates. Stops early when that
    residual, or its change, falls below 1e-10.

    Adjoint mode never builds its (n2, n1) soft maps: each iteration pulls
    Phi1 back through one row block of the soft map at a time
    (`fmap._soft_apply`), so it holds O(workers * ROW_BLOCK * n1) bytes
    plus a few (n2, k) arrays. It folds 1 / tau into Phi1 and normalises
    the pulled-back (rows, k) block rather than the (rows, n1) soft-map
    block, so each step agrees with
    properness_project(soft_map(Phi1, Phi2 C), basis1, basis2) to a few
    units in the last place, not bit for bit. Feature mode builds its one
    soft map whole.
    """
    if mode not in ("adjoint", "feature"):
        raise ValueError(f"unknown refine mode {mode!r}")
    if mode == "feature" and (F1 is None or F2 is None):
        raise MissingFeatures("feature mode needs both descriptor stacks")
    if not iters >= 1:
        raise ValueError(f"iters must be >= 1, got {iters}")
    C = _matrix(C0, basis2.k, basis1.k)
    if mode == "feature":
        C_next = properness_project(soft_map(F1, F2, tau), basis1, basis2)
        r = loss_properness(C, C_next)
        return C_next, np.asarray([r] if iters == 1 or r < RESIDUAL_EPS else [r, 0.0])
    trace = []
    for i in range(iters):
        C_next = basis2.project(_soft_apply(basis1.phi, basis2.phi @ C, basis1.phi, tau))
        r = loss_properness(C, C_next)
        trace.append(r)
        C = C_next
        if r < RESIDUAL_EPS:
            break
        if i >= 1 and abs(trace[-1] - trace[-2]) < RESIDUAL_EPS:
            break
    return C, np.asarray(trace)


def write_trace(values, path) -> None:
    """CSV trace: header 'iteration,residual', one row per iteration."""
    lines = ["iteration,residual"]
    lines += [f"{i},{_fmt(v)}" for i, v in enumerate(np.asarray(values).ravel())]
    Path(path).write_text("\n".join(lines) + "\n")
