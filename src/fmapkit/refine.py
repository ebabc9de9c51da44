"""Map refinement: properness fixed-point iteration and gradient descent.

Both refiners return the final map(s) plus a per-iteration trace suitable
for the 'iteration,value' CSV helper at the bottom.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ._blas import single_threaded
from .errors import MissingFeatures, NonFiniteEnergy
from .fmap import (
    DEFAULT_TAU,
    _soft_apply,
    grad_unsupervised,
    loss_properness,
    loss_unsupervised,
    properness_project,
    soft_map,
)
from .mesh import _fmt
from .spectral import SpectralBasis

# stop when the properness residual, or its change between iterations,
# drops below this
RESIDUAL_EPS = 1e-10

MAX_HALVINGS = 30


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
    plus a few (n2, k) arrays, with the bits of
    properness_project(soft_map(Phi1, Phi2 C), basis1, basis2). Feature
    mode builds its one soft map whole.
    """
    if mode not in ("adjoint", "feature"):
        raise ValueError(f"unknown refine mode {mode!r}")
    if mode == "feature" and (F1 is None or F2 is None):
        raise MissingFeatures("feature mode needs both descriptor stacks")
    if iters < 1:
        raise ValueError(f"iters must be >= 1, got {iters}")
    C = np.asarray(C0, dtype=np.float64).copy()
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


@single_threaded()
def refine_gradient(C12: np.ndarray, C21: np.ndarray,
                    steps: int = 500, lr: float = 0.1):
    """Plain gradient descent on the bijectivity/orthogonality energy.

    Each step backtracks by halving the rate (at most 30 times) until the
    energy does not increase; if no halving helps, iteration stops. The
    returned energy trace (initial value included) is therefore
    non-increasing by construction. A non-finite starting energy raises
    NonFiniteEnergy.
    """
    C12 = np.asarray(C12, dtype=np.float64).copy()
    C21 = np.asarray(C21, dtype=np.float64).copy()
    e = loss_unsupervised(C12, C21)
    if not np.isfinite(e):
        raise NonFiniteEnergy(f"starting energy is {e}")
    trace = [e]
    for _ in range(steps):
        g12, g21 = grad_unsupervised(C12, C21)
        step = lr
        accepted = False
        for _ in range(MAX_HALVINGS + 1):
            cand12 = C12 - step * g12
            cand21 = C21 - step * g21
            e_new = loss_unsupervised(cand12, cand21)
            if np.isfinite(e_new) and e_new <= e:
                C12, C21, e = cand12, cand21, e_new
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        trace.append(e)
    return C12, C21, np.asarray(trace)


def write_trace(values, path, value_name: str = "residual") -> None:
    """CSV trace: header 'iteration,<value_name>', one row per iteration."""
    lines = [f"iteration,{value_name}"]
    lines += [f"{i},{_fmt(v)}" for i, v in enumerate(np.asarray(values).ravel())]
    Path(path).write_text("\n".join(lines) + "\n")
