"""Shared fixtures: synthetic meshes, spectral bases, and the permuted-copy
correspondence pair most of the suite is built around.

Everything is seeded and session-scoped; several tests pin exact floats
produced from these fixtures, so their construction must stay stable.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from fmapkit import _blas, cli, mesh as mesh_module, synth
from fmapkit.spectral import build_laplacian, eigenbasis

K = 30
FEATURE_DIM = 60


def pytest_report_header(config):
    """Name the OpenBLAS kernel: the exact float pins hold for one kernel."""
    names = ", ".join(_blas.core_names()) or "none controlled"
    return f"fmapkit OpenBLAS kernels: {names}"


@pytest.fixture(autouse=True)
def cold_side_cache():
    """Every test starts with every process cache and memo of fmapkit empty.

    tests/test_lint.py checks that each module-level cache is named here.
    """
    cli._build_parser.cache_clear()
    mesh_module._meshes.clear()
    mesh_module._derived.clear()
    _blas._controls.cache_clear()


@pytest.fixture(scope="session")
def tetra():
    return synth.tetrahedron()


@pytest.fixture(scope="session")
def kite():
    return synth.kite_45()


@pytest.fixture(scope="session")
def square():
    return synth.square_diagonal()


@pytest.fixture(scope="session")
def strip():
    return synth.collinear_strip()


@pytest.fixture(scope="session")
def disconnected():
    return synth.disconnected_triangles()


@pytest.fixture(scope="session")
def ico162():
    return synth.icosphere(2)


@pytest.fixture(scope="session")
def ico642():
    return synth.icosphere(3)


@pytest.fixture(scope="session")
def bumpy642():
    return synth.bumpy_sphere(3)


@pytest.fixture(scope="session")
def spectral_meshes(tetra, kite, square, strip, ico162, ico642, bumpy642):
    """Every connected fixture mesh, for the basis-correctness sweeps."""
    return {
        "tetra": tetra,
        "kite": kite,
        "square": square,
        "strip": strip,
        "ico162": ico162,
        "ico642": ico642,
        "bumpy642": bumpy642,
    }


@pytest.fixture(scope="session")
def pair(bumpy642):
    """Symmetry-broken sphere and a vertex-permuted copy of it.

    perm is the ground-truth pointwise map: vertex i of mesh2 corresponds
    to vertex perm[i] of mesh1. C_gt is the proper functional map of perm.
    """
    mesh2, perm = synth.permuted_copy(bumpy642, seed=11)
    lap1 = build_laplacian(bumpy642)
    lap2 = build_laplacian(mesh2)
    basis1 = eigenbasis(lap1, K)
    basis2 = eigenbasis(lap2, K)
    with _blas.single_threaded():   # the bits properness_project gives at any thread count
        C_gt = basis2.phi.T @ (lap2.mass[:, None] * basis1.phi[perm])
    return SimpleNamespace(
        mesh1=bumpy642, mesh2=mesh2, perm=perm,
        lap1=lap1, lap2=lap2, basis1=basis1, basis2=basis2, C_gt=C_gt,
    )


@pytest.fixture(scope="session")
def complete_features(pair):
    """Random smooth descriptor stacks that correspond exactly under perm.

    F1 lives in span(basis1.phi) by construction, so both stacks are
    complete and A1 has full row rank (generic 30 x 60 coefficients).
    """
    rng = np.random.default_rng(3)
    R = rng.standard_normal((K, FEATURE_DIM))
    F1 = pair.basis1.phi @ R
    F2 = F1[pair.perm]
    return F1, F2


@pytest.fixture(scope="session")
def incomplete_features(pair, complete_features):
    """complete_features with a high-frequency component injected into F2.

    The extra component lies M-orthogonal to span(basis2.phi), lowering the
    completeness of F2 to ~0.86 while leaving F1 untouched.
    """
    F1, F2 = complete_features
    basis_hi = eigenbasis(pair.lap2, 60)
    high = basis_hi.phi[:, 40:60]
    S = np.random.default_rng(5).standard_normal((20, FEATURE_DIM))
    return F1, F2 + 0.5 * (high @ S)


@pytest.fixture(scope="session")
def cli_pair(tmp_path_factory, ico642):
    """On-disk icosphere permuted-copy pair plus a 30-pair landmark file."""
    from fmapkit.mesh import save_mesh

    mesh2, perm = synth.permuted_copy(ico642, seed=19)
    inv = np.argsort(perm)
    root = tmp_path_factory.mktemp("clipair")
    src = root / "src.off"
    dst = root / "dst.off"
    save_mesh(ico642, src)
    save_mesh(mesh2, dst)
    landmarks = root / "landmarks.txt"
    landmarks.write_text("".join(f"{i} {inv[i]}\n" for i in range(30)))
    return SimpleNamespace(
        src=src, dst=dst, landmarks=landmarks, perm=perm, root=root,
    )
