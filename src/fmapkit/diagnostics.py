"""Structural measures for functional maps and the exactness oracle.

The oracle packages the checkable content of the exact-recovery statement:
when descriptors are complete w.r.t. the truncated bases, their coefficient
matrix on shape 1 has full row rank, its rows are distinct, and the
descriptors correspond exactly under some pointwise map, the least-squares
functional map is basis-aligning and its adjoint conversion reproduces the
descriptor nearest-neighbor map. Each hypothesis and each consequence is
measured and reported; nothing raises on a violation.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from ._blas import single_threaded
from .errors import LengthMismatch, ZeroFeatures, _matrix
from .fmap import (
    RANK_RTOL,
    convert_adjoint,
    convert_feature_nn,
    loss_properness,
    properness_project,
    _nearest,
    _pull_back,
    _sq_dist,
)
from .mesh import _fmt
from .spectral import SpectralBasis

ORACLE_TOL = 1e-8
N_PROBE_MAPS = 10   # random hard maps the oracle checks the energy identity on


def measure_completeness(basis: SpectralBasis, features) -> float:
    """1 - ||F - Phi Phi^+ F||_M^2 / ||F||_M^2 in the area-weighted norm.

    1 means the columns lie in span(Phi); 0 means they are M-orthogonal to
    it. Raises ZeroFeatures for an identically zero stack.
    """
    values = _matrix(features)
    resid = values - basis.reconstruct(basis.project(values))
    den = float(np.einsum("n,nd->", basis.mass, values ** 2))
    if den == 0.0:
        raise ZeroFeatures("completeness is undefined for an all-zero stack")
    num = float(np.einsum("n,nd->", basis.mass, resid ** 2))
    return float(min(1.0, max(0.0, 1.0 - num / den)))


def measure_properness(C: np.ndarray, basis1: SpectralBasis, basis2: SpectralBasis,
                       adjoint: np.ndarray | None = None) -> float:
    """||C - C_proper||_F^2 with C_proper built from C's own adjoint map.

    A caller that holds that map, convert_adjoint(C, basis1.phi, basis2.phi),
    passes it as `adjoint`; the value is the same either way.
    """
    if adjoint is None:
        adjoint = convert_adjoint(C, basis1.phi, basis2.phi)
    return loss_properness(C, properness_project(adjoint, basis1, basis2))


@single_threaded()
def measure_basis_aligning(C: np.ndarray, basis1: SpectralBasis, basis2: SpectralBasis,
                           adjoint: np.ndarray | None = None) -> float:
    """One-way chamfer ||Phi2 C - Pi Phi1||_F for the nearest-row map Pi.

    Pi is C's adjoint map; `adjoint` passes it as in measure_properness.
    """
    C = _matrix(C, basis2.k, basis1.k)
    if adjoint is None:
        adjoint = convert_adjoint(C, basis1.phi, basis2.phi)
    # a one-row map would broadcast against Phi2 C
    pulled = _matrix(_pull_back(adjoint, basis1.phi), basis2.n)
    return float(np.linalg.norm(basis2.phi @ C - pulled))


def _rank(x) -> int:
    """Numerical rank: singular values above 1e-10 x the largest one count."""
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        return 0
    s = np.linalg.svd(x, compute_uv=False)
    return 0 if s[0] == 0 else int(np.sum(s > RANK_RTOL * s[0]))


@single_threaded()
def rank_report(F, A) -> tuple[int, int]:
    """Numerical ranks of the (n, d) descriptor stack and its (k, d) coefficients."""
    values = _matrix(F)
    return _rank(values), _rank(_matrix(A, cols=values.shape[1]))


@single_threaded()
def nn_distinctness(features) -> float:
    """Mean distance from each descriptor row to its nearest other row.

    Exact, as the full cdist table gives it, in O(n) memory beyond the
    row blocks (_nearest_other); nan for a non-finite stack.
    """
    values = _matrix(features)
    if len(values) < 2:
        raise LengthMismatch("need at least two rows")
    if not np.isfinite(values).all():
        return float("nan")
    return float(np.sqrt(_nearest_other(values)).mean())


def _nearest_other(values: np.ndarray) -> np.ndarray:
    """Each row's squared distance to its nearest other row, as cdist gives it.

    fmap's nearest-row kernel, with each row's own column left out, finds
    the row; its distance is recomputed in cdist's order, once per call.
    """
    other = _nearest(values, values, skip_self=True)
    return _sq_dist(values, values[other], np.empty(len(values)))


def energy_terms(pi: np.ndarray, F1, F2, basis2: SpectralBasis):
    """Split correspondence energy of a hard or soft map.

    X = Pi F1 - F2. Returns (E, E1, E2) with E the area-weighted squared
    norm of X, E1 the squared Frobenius norm of its coefficients
    Phi2^+ X, and E2 the area-weighted squared norm of the component
    M-orthogonal to span(Phi2). E = E1 + E2 holds exactly (orthogonal
    projection), which makes the identity a meaningful machine check.
    """
    v1 = _matrix(F1)
    v2 = _matrix(F2, cols=v1.shape[1])
    x = _matrix(_pull_back(pi, v1), len(v2))   # a one-row map would broadcast against F2
    x -= v2
    mass = basis2.mass
    e = float(np.einsum("n,nd->", mass, x ** 2))
    coeffs = basis2.project(x)
    e1 = float(np.sum(coeffs ** 2))
    resid = x - basis2.reconstruct(coeffs)
    e2 = float(np.einsum("n,nd->", mass, resid ** 2))
    return e, e1, e2


def _key_values(record, *extra: str) -> str:
    """A dataclass's fields, then the `extra` attributes, as key=value lines.

    Bools are written in lower case, floats with _fmt, ints plain.
    """
    def text(val) -> str:
        if isinstance(val, bool):
            return str(val).lower()
        return _fmt(val) if isinstance(val, float) else str(val)

    keys = [f.name for f in fields(record)] + list(extra)
    return "".join(f"{key}={text(getattr(record, key))}\n" for key in keys)


@dataclass
class OracleVerdict:
    """Measured hypotheses and consequences of the exact-recovery statement.

    Hypothesis side: completeness of both stacks, row rank of A1, row
    distinctness of F1. Consequence side: least-squares residual, the
    basis-aligning chamfer of C_opt, and agreement between the adjoint and
    feature-NN conversions. energy_identity_err is the worst relative
    |E - (E1 + E2)| over random probe maps.
    """

    completeness1: float
    completeness2: float
    rank_a1: int
    k1: int
    nn_distinctness1: float
    rows_distinct: bool
    fmap_residual: float
    basis_align: float
    agreement: float
    energy_identity_err: float

    @property
    def full_row_rank(self) -> bool:
        return self.rank_a1 == self.k1

    @property
    def preconditions_ok(self) -> bool:
        return (
            self.completeness1 >= 1.0 - ORACLE_TOL
            and self.completeness2 >= 1.0 - ORACLE_TOL
            and self.full_row_rank
            and self.rows_distinct
        )

    @property
    def consequences_ok(self) -> bool:
        return (
            self.fmap_residual <= ORACLE_TOL
            and self.basis_align <= ORACLE_TOL
            and self.energy_identity_err <= ORACLE_TOL
        )

    @property
    def all_pass(self) -> bool:
        return self.preconditions_ok and self.consequences_ok and self.agreement == 1.0

    def to_text(self) -> str:
        return _key_values(self, "full_row_rank", "preconditions_ok",
                           "consequences_ok", "all_pass")


@single_threaded()
def theorem_oracle(F1, F2, basis1: SpectralBasis, basis2: SpectralBasis,
                   seed: int = 0) -> OracleVerdict:
    """Measure every hypothesis and consequence of exact recovery.

    C_opt is the minimum-norm least-squares solution of C A1 = A2 (computed
    with lstsq so rank deficiency is reported, not raised). The residual and
    chamfer are normalized by the scale of their targets so the 1e-8
    verdict thresholds mean the same thing across fixtures.
    """
    v1 = _matrix(F1)
    v2 = _matrix(F2, cols=v1.shape[1])
    a1 = basis1.project(v1)
    a2 = basis2.project(v2)
    c_opt = np.linalg.lstsq(a1.T, a2.T, rcond=None)[0].T

    comp1 = measure_completeness(basis1, v1)
    comp2 = measure_completeness(basis2, v2)
    rank_a1 = _rank(a1)
    distinct_gap = nn_distinctness(v1)
    scale1 = float(np.abs(v1).max()) or 1.0
    rows_distinct = bool(distinct_gap > 1e-12 * scale1)

    resid = float(np.linalg.norm(c_opt @ a1 - a2)) / max(1.0, float(np.linalg.norm(a2)))
    adj = convert_adjoint(c_opt, basis1.phi, basis2.phi)
    emb = basis2.phi @ c_opt
    align = measure_basis_aligning(c_opt, basis1, basis2, adj) \
        / max(1.0, float(np.linalg.norm(emb)))

    nn = convert_feature_nn(v1, v2)
    agreement = float(np.mean(adj == nn))

    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(N_PROBE_MAPS):
        probe = rng.integers(0, basis1.n, size=basis2.n)
        e, e1, e2 = energy_terms(probe, v1, v2, basis2)
        worst = max(worst, abs(e - (e1 + e2)) / max(1.0, e))

    return OracleVerdict(
        completeness1=comp1,
        completeness2=comp2,
        rank_a1=rank_a1,
        k1=basis1.k,
        nn_distinctness1=distinct_gap,
        rows_distinct=rows_distinct,
        fmap_residual=resid,
        basis_align=align,
        agreement=agreement,
        energy_identity_err=worst,
    )


@dataclass
class StructureReport:
    """Flat per-pair diagnostics, serialized as key=value lines."""

    completeness: float
    properness_residual: float
    basis_align_chamfer: float
    rank_F: int
    rank_A: int
    nn_distinctness: float

    def to_text(self) -> str:
        return _key_values(self)


@single_threaded()
def build_structure_report(C: np.ndarray, basis1: SpectralBasis,
                           basis2: SpectralBasis, F1, F2,
                           adjoint: np.ndarray | None = None,
                           verdict: OracleVerdict | None = None) -> StructureReport:
    """Assemble the per-pair report; completeness is the worse of two sides.

    The properness residual and the basis-aligning chamfer both need C's
    adjoint pointwise map, convert_adjoint(C, basis1.phi, basis2.phi).
    A caller that already holds that map passes it as `adjoint`, so the
    report makes no nearest-neighbour search of its own; without it, the
    report converts C once and uses the result for both measures.
    A caller that holds theorem_oracle's verdict on the same F1, F2 and
    bases passes it as `verdict`, and the report takes its completeness
    pair, rank(A1) and distinctness instead of measuring them again. The
    report text is the same either way.
    """
    v1 = _matrix(F1)
    v2 = _matrix(F2, cols=v1.shape[1])
    if verdict is None:
        comp = min(measure_completeness(basis1, v1), measure_completeness(basis2, v2))
        rank_f, rank_a = rank_report(v1, basis1.project(v1))
        distinct = nn_distinctness(v1)
    else:
        comp = min(verdict.completeness1, verdict.completeness2)
        rank_f, rank_a = _rank(v1), verdict.rank_a1
        distinct = verdict.nn_distinctness1
    if adjoint is None:
        adjoint = convert_adjoint(C, basis1.phi, basis2.phi)
    return StructureReport(
        completeness=comp,
        properness_residual=measure_properness(C, basis1, basis2, adjoint),
        basis_align_chamfer=measure_basis_aligning(C, basis1, basis2, adjoint),
        rank_F=rank_f,
        rank_A=rank_a,
        nn_distinctness=distinct,
    )
