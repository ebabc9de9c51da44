"""fmapkit: spectral functional-map shape correspondence.

Pipeline in one breath: build cotangent Laplacians and mass-orthonormal
eigenbases, compute pointwise descriptors, project them to spectral
coefficients, solve a regularized least squares for the coefficient-space
map C, convert C to a vertex-to-vertex map (adjoint embedding or descriptor
nearest neighbors), optionally refine through soft-map properness
projections, and score predictions with the normalized geodesic protocol.
"""

from .errors import (
    AllEigenvaluesExcluded,
    DegenerateMesh,
    DisconnectedMesh,
    FmapError,
    IndexOutOfRange,
    InvalidK,
    LengthMismatch,
    MissingFeatures,
    ParseError,
    RankDeficient,
    SolverFailure,
    ZeroFeatures,
)
from .mesh import (
    TriMesh,
    graph_geodesics,
    load_correspondence,
    load_mesh,
    save_correspondence,
    save_mesh,
)
from .spectral import (
    LaplacianPair,
    SpectralBasis,
    build_laplacian,
    diffuse,
    eigen_residuals,
    eigenbasis,
    smooth_features,
)
from .descriptors import (
    concat_features,
    default_hks_times,
    default_wks_energies,
    descriptor_hks,
    descriptor_landmarks,
    descriptor_wks,
    descriptor_xyz,
    normalize_columns,
    project_coeffs,
)
from .fmap import (
    convert_adjoint,
    convert_feature_nn,
    grad_unsupervised,
    loss_properness,
    loss_unsupervised,
    nearest_rows,
    properness_project,
    soft_map,
    solve_fmap,
)
from .diagnostics import (
    OracleVerdict,
    StructureReport,
    build_structure_report,
    energy_terms,
    measure_basis_aligning,
    measure_completeness,
    measure_properness,
    nn_distinctness,
    rank_report,
    theorem_oracle,
)
from .refine import refine_proper, write_trace
from .evaluate import accuracy_curve, geodesic_error, write_error_report

__version__ = "0.1.0"
