"""Pointwise descriptors and their spectral coefficients.

All descriptors return raw formula values as plain float64 (n, d) arrays;
unit-M-norm column normalization (used to condition the map solve) is a
separate, explicit step.
"""

from __future__ import annotations

import numpy as np

from .errors import AllEigenvaluesExcluded, LengthMismatch, _mass, _matrix, _rows, _vertex_indices
from .mesh import TriMesh
from .spectral import SpectralBasis, diffuse

# eigenvalues below this fraction of lambda_max are treated as zero modes
EIG_CUTOFF = 1e-8
# columns of the default HKS time and WKS energy grids
DEFAULT_COLUMNS = 16


def concat_features(parts: list[np.ndarray]) -> np.ndarray:
    """Column-concatenate (n, d_i) descriptor arrays into one (n, sum d_i) array."""
    if not parts:
        raise LengthMismatch("nothing to concatenate")
    first = _matrix(parts[0])
    return np.hstack([first] + [_matrix(p, len(first)) for p in parts[1:]])


def descriptor_xyz(mesh: TriMesh) -> np.ndarray:
    """Raw vertex coordinates as a 3-column descriptor (a copy)."""
    return mesh.vertices.copy()


def default_hks_times(lam: np.ndarray) -> np.ndarray:
    """DEFAULT_COLUMNS log-spaced times in [4 ln 10 / lam_k, 4 ln 10 / lam_2]."""
    lam = np.asarray(lam, dtype=np.float64).ravel()
    if lam.size < 2 or lam[1] <= 0 or lam[-1] <= 0:
        raise AllEigenvaluesExcluded(
            "need at least two positive eigenvalues for the default time range"
        )
    t_min = 4.0 * np.log(10.0) / lam[-1]
    t_max = 4.0 * np.log(10.0) / lam[1]
    return np.geomspace(t_min, t_max, DEFAULT_COLUMNS)


def descriptor_hks(basis: SpectralBasis, times) -> np.ndarray:
    """Heat kernel signature: hks(x, t) = sum_i exp(-lam_i t) phi_i(x)^2.

    Every eigenpair participates, including the constant mode, so entries are
    strictly positive on a connected mesh. One column per time, in order.
    """
    times = np.asarray(times, dtype=np.float64).ravel()
    if times.size == 0 or not ((times >= 0) & (times < np.inf)).all():
        raise ValueError("times must be non-empty, finite and non-negative")
    decay = np.exp(-np.outer(times, basis.lam))        # (T, k)
    return np.einsum("nk,tk->nt", basis.phi ** 2, decay)


def _kept(lam: np.ndarray) -> np.ndarray:
    """Mask of the eigenvalues WKS uses: > 0 and >= EIG_CUTOFF x lam_max."""
    return (lam > 0.0) & (lam >= EIG_CUTOFF * (float(lam.max()) if lam.size else 0.0))


def default_wks_energies(lam: np.ndarray):
    """DEFAULT_COLUMNS evenly spaced log energies with the usual 7-sigma interior inset.

    Returns (energies, sigma). Near-zero eigenvalues are excluded the same
    way descriptor_wks excludes them.
    """
    lam = np.asarray(lam, dtype=np.float64).ravel()
    kept = lam[_kept(lam)]
    if kept.size < 2:
        raise AllEigenvaluesExcluded("not enough positive eigenvalues for a WKS grid")
    e_min, e_max = np.log(kept[0]), np.log(kept[-1])
    sigma = 7.0 * (e_max - e_min) / DEFAULT_COLUMNS
    return np.linspace(e_min + 2.0 * sigma, e_max - 2.0 * sigma, DEFAULT_COLUMNS), sigma


def descriptor_wks(basis: SpectralBasis, energies, sigma: float) -> np.ndarray:
    """Wave kernel signature with Gaussian log-energy bands.

    wks(x, e) = C_e sum_i exp(-(e - log lam_i)^2 / (2 sigma^2)) phi_i(x)^2,
    where C_e normalizes the weights to sum to one. Eigenvalues below
    1e-8 x lam_max are skipped; if that removes all of them the descriptor
    is undefined and AllEigenvaluesExcluded is raised.
    """
    energies = np.asarray(energies, dtype=np.float64).ravel()
    if energies.size == 0 or not np.isfinite(energies).all():
        raise ValueError("need at least one energy, all finite")
    if not 0 < sigma < np.inf:
        raise ValueError(f"sigma must be finite and > 0, got {sigma}")
    keep = _kept(basis.lam)
    if not np.any(keep):
        raise AllEigenvaluesExcluded(
            f"all {keep.size} eigenvalues fall under the {EIG_CUTOFF:g} x lam_max cutoff")
    log_lam = np.log(basis.lam[keep])
    w = np.exp(-((energies[:, None] - log_lam[None, :]) ** 2) / (2.0 * sigma ** 2))
    totals = w.sum(axis=1)
    if np.any(totals <= 0):
        bad = energies[totals <= 0]
        raise ValueError(f"energies with no spectral support: {bad}")
    w /= totals[:, None]
    return np.einsum("nk,ek->ne", basis.phi[:, keep] ** 2, w)


def descriptor_landmarks(basis: SpectralBasis, landmarks, t: float) -> np.ndarray:
    """Diffused landmark indicators, one column per landmark.

    Column l is diffuse(delta_l / M[l], t): the unit-mass spike at the
    landmark pushed through heat flow. An empty landmark list yields a
    (n, 0) matrix that concatenates cleanly.
    """
    idx = _vertex_indices(landmarks, basis.n, "landmark")
    spikes = np.zeros((basis.n, idx.size))
    spikes[idx, np.arange(idx.size)] = 1.0 / basis.mass[idx]
    return diffuse(basis, spikes, t)


def project_coeffs(basis: SpectralBasis, features) -> np.ndarray:
    """Spectral coefficients A = Phi^T M F, shape (k, d)."""
    return basis.project(_matrix(features))


def normalize_columns(values: np.ndarray, mass: np.ndarray) -> np.ndarray:
    """Scale each (n, d) column to unit M-norm under an (n,) mass; conditions
    the map least squares.

    Zero columns are left untouched: they carry no information either way.
    """
    values = _matrix(values)
    mass = _mass(_rows(mass, len(values), stack=False))
    norms = np.sqrt(np.einsum("n,nd->d", mass, values ** 2))
    return values / np.where(norms == 0, 1.0, norms)

