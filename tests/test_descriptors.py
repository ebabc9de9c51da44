"""Spectral point descriptors: heat/wave kernel signatures, coordinates,
and diffused landmark indicators.

Kernel signatures are compared entry-for-entry against the term-by-term
summation oracles.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles as orc
from fmapkit.descriptors import (
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
from fmapkit.errors import AllEigenvaluesExcluded, IndexOutOfRange, LengthMismatch
from fmapkit.spectral import SpectralBasis, build_laplacian, eigenbasis


@pytest.fixture(scope="module")
def basis162(ico162):
    lap = build_laplacian(ico162)
    return lap, eigenbasis(lap, 20)


class TestFeatureMatrix:
    """A feature matrix is a plain float64 (n, d) array; concat_features checks it."""

    def test_rejects_1d(self):
        with pytest.raises(LengthMismatch):
            concat_features([np.zeros((4, 1)), np.zeros(4)])

    def test_concat(self):
        a = np.arange(8.0).reshape(4, 2)
        b = np.full((4, 1), -1.0)
        cat = concat_features([a, b])
        assert cat.dtype == np.float64
        assert np.array_equal(cat, [[0, 1, -1], [2, 3, -1], [4, 5, -1], [6, 7, -1]])

    def test_concat_rejects_row_mismatch(self):
        with pytest.raises(LengthMismatch):
            concat_features([np.ones((4, 1)), np.ones((5, 1))])

    def test_concat_rejects_empty(self):
        with pytest.raises(LengthMismatch):
            concat_features([])


class TestHKS:
    def test_matches_term_sum(self, basis162):
        _, basis = basis162
        times = default_hks_times(basis.lam)
        impl = descriptor_hks(basis, times)
        ref = orc.hks_ref(basis.lam, basis.phi, times)
        assert impl == pytest.approx(ref, rel=1e-12)

    def test_constant_mode_only_gives_inverse_area(self, basis162, ico162):
        _, basis = basis162
        one = basis.truncate(1)
        vals = descriptor_hks(one, [0.5, 2.0])
        assert vals == pytest.approx(
            np.full((162, 2), 1.0 / ico162.total_area()), rel=1e-10
        )

    def test_positive_on_connected_mesh(self, basis162):
        _, basis = basis162
        vals = descriptor_hks(basis, default_hks_times(basis.lam))
        assert np.all(vals > 0)

    def test_columns_decrease_with_time(self, basis162):
        # larger t damps the non-constant modes toward 1/area everywhere
        _, basis = basis162
        vals = descriptor_hks(basis, [0.01, 1e6])
        assert vals[:, 1].std() < vals[:, 0].std()

    def test_default_times_geometric(self, basis162):
        _, basis = basis162
        times = default_hks_times(basis.lam)
        assert len(times) == 16
        ratios = times[1:] / times[:-1]
        assert ratios == pytest.approx(np.full(15, ratios[0]), rel=1e-10)
        assert times[0] == pytest.approx(4 * np.log(10) / basis.lam[-1], rel=1e-12)
        assert times[-1] == pytest.approx(4 * np.log(10) / basis.lam[1], rel=1e-12)

    def test_default_times_need_two_positive(self):
        with pytest.raises(AllEigenvaluesExcluded):
            default_hks_times(np.array([0.0]))

    def test_times_validation(self, basis162):
        _, basis = basis162
        with pytest.raises(ValueError):
            descriptor_hks(basis, [])
        with pytest.raises(ValueError):
            descriptor_hks(basis, [-1.0])


class TestWKS:
    def test_matches_term_sum(self, basis162):
        _, basis = basis162
        energies, sigma = default_wks_energies(basis.lam)
        impl = descriptor_wks(basis, energies, sigma)
        ref = orc.wks_ref(basis.lam, basis.phi, energies, sigma)
        assert impl == pytest.approx(ref, rel=1e-12)

    def test_all_excluded_raises(self):
        basis = SpectralBasis(np.zeros(3), np.zeros((5, 3)), np.ones(5))
        with pytest.raises(AllEigenvaluesExcluded):
            descriptor_wks(basis, [0.0], 1.0)

    def test_sigma_validation(self, basis162):
        _, basis = basis162
        with pytest.raises(ValueError):
            descriptor_wks(basis, [0.0], 0.0)
        with pytest.raises(ValueError):
            descriptor_wks(basis, [], 1.0)

    def test_default_energy_grid(self, basis162):
        _, basis = basis162
        energies, sigma = default_wks_energies(basis.lam)
        assert len(energies) == 16
        assert sigma > 0
        kept = basis.lam[basis.lam >= 1e-8 * basis.lam.max()]
        assert energies[0] == pytest.approx(np.log(kept[0]) + 2 * sigma, rel=1e-10)
        assert energies[-1] == pytest.approx(np.log(kept[-1]) - 2 * sigma, rel=1e-10)

    def test_grid_needs_positive_eigenvalues(self):
        with pytest.raises(AllEigenvaluesExcluded):
            default_wks_energies(np.zeros(4))


class TestXYZAndLandmarks:
    def test_xyz_is_coordinates(self, ico162):
        fm = descriptor_xyz(ico162)
        assert np.array_equal(fm, ico162.vertices)

    def test_xyz_copies(self, ico162):
        fm = descriptor_xyz(ico162)
        fm[0, 0] = 99.0
        assert ico162.vertices[0, 0] != 99.0

    def test_landmark_peak_at_landmark(self, pair):
        fm = descriptor_landmarks(pair.basis1, [5, 100, 400], 0.1)
        assert fm.shape == (642, 3)
        assert list(fm.argmax(axis=0)) == [5, 100, 400]

    def test_empty_landmarks(self, pair):
        fm = descriptor_landmarks(pair.basis1, [], 0.1)
        assert fm.shape == (642, 0)

    def test_landmark_out_of_range(self, pair):
        with pytest.raises(IndexOutOfRange):
            descriptor_landmarks(pair.basis1, [642], 0.1)


class TestNormalizeAndProject:
    def test_unit_mass_norm(self, basis162):
        lap, basis = basis162
        F = np.random.default_rng(0).standard_normal((162, 5))
        out = normalize_columns(F, lap.mass)
        norms = np.sqrt(np.einsum("n,nd->d", lap.mass, out ** 2))
        assert norms == pytest.approx(np.ones(5), rel=1e-12)

    def test_zero_column_skipped_by_default(self, basis162):
        lap, _ = basis162
        F = np.zeros((162, 2))
        F[:, 1] = 1.0
        out = normalize_columns(F, lap.mass)
        assert np.all(out[:, 0] == 0.0)

    @settings(deadline=None, max_examples=20)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_normalize_idempotent(self, basis162, seed):
        lap, _ = basis162
        F = np.random.default_rng(seed).standard_normal((162, 3))
        once = normalize_columns(F, lap.mass)
        twice = normalize_columns(once, lap.mass)
        assert twice == pytest.approx(once, rel=1e-12)

    def test_project_coeffs_matches_basis(self, basis162):
        lap, basis = basis162
        F = np.random.default_rng(1).standard_normal((162, 4))
        assert np.array_equal(project_coeffs(basis, F), basis.project(F))

    def test_project_coeffs_validation(self, basis162):
        _, basis = basis162
        with pytest.raises(LengthMismatch):
            project_coeffs(basis, np.zeros((5, 2)))
        with pytest.raises(LengthMismatch):
            project_coeffs(basis, np.zeros(162))
