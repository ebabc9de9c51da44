"""Fixed-point properness refinement and its trace file."""

import tracemalloc

import numpy as np
import pytest

from pins import FEATURE_RESIDUAL, NOISY_TRACE, pinned

from fmapkit import _blas, refine
from fmapkit.errors import LengthMismatch, MissingFeatures
from fmapkit.evaluate import geodesic_error
from fmapkit.fmap import (
    DEFAULT_TAU,
    convert_adjoint,
    properness_project,
    soft_map,
)
from fmapkit.refine import refine_proper, write_trace


@pytest.fixture(scope="module")
def noisy_start(pair):
    noise = np.random.default_rng(17).standard_normal((30, 30))
    return pair.C_gt + 0.1 * noise


class TestRefineProper:
    def test_noisy_start_trace_pinned(self, pair, noisy_start):
        _, trace = refine_proper(noisy_start, pair.basis1, pair.basis2, iters=10)
        assert trace.tolist() == pinned(NOISY_TRACE)

    def test_trace_non_increasing(self, pair, noisy_start):
        _, trace = refine_proper(noisy_start, pair.basis1, pair.basis2, iters=10)
        assert np.all(np.diff(trace) <= 0)

    def test_noisy_start_recovers_ground_truth(self, pair, noisy_start):
        C0 = noisy_start
        init = geodesic_error(
            convert_adjoint(C0, pair.basis1.phi, pair.basis2.phi),
            pair.perm, pair.mesh1,
        ).mean()
        C, _ = refine_proper(C0, pair.basis1, pair.basis2, iters=10)
        pm = convert_adjoint(C, pair.basis1.phi, pair.basis2.phi)
        final = geodesic_error(pm, pair.perm, pair.mesh1).mean()
        assert init == pytest.approx(0.4589985631962465, rel=1e-12)
        assert final == 0.0
        assert np.array_equal(pm, pair.perm)

    def test_proper_map_is_fixed_point_at_small_tau(self, pair):
        # tau small enough that the soft map is numerically one-hot
        C, trace = refine_proper(pair.C_gt, pair.basis1, pair.basis2,
                                 iters=10, tau=1e-4)
        assert trace.tolist() == [0.0]
        assert np.array_equal(C, pair.C_gt)

    def test_feature_mode_converges_in_two_iters(self, pair, complete_features):
        F1, F2 = complete_features
        C, trace = refine_proper(np.zeros((30, 30)), pair.basis1, pair.basis2,
                                 mode="feature", F1=F1, F2=F2, tau=1e-4)
        assert len(trace) == 2  # one projection, then a fixed point
        pm = convert_adjoint(C, pair.basis1.phi, pair.basis2.phi)
        assert np.array_equal(pm, pair.perm)

    @pytest.mark.parametrize("iters", [1, 10])
    def test_feature_mode_builds_one_soft_map(self, pair, complete_features,
                                              monkeypatch, iters):
        F1, F2 = complete_features
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return soft_map(*args, **kwargs)

        monkeypatch.setattr(refine, "soft_map", counted)
        C, trace = refine_proper(np.zeros((30, 30)), pair.basis1, pair.basis2,
                                 iters=iters, mode="feature", F1=F1, F2=F2)
        # the second iterate rebuilds the same soft map: residual exactly 0.0
        assert trace.tolist() == [pinned(FEATURE_RESIDUAL), 0.0][:iters]
        assert len(calls) == 1
        C_ref = properness_project(soft_map(F1, F2), pair.basis1, pair.basis2)
        assert np.array_equal(C, C_ref)
        # restarting at the fixed point stops on the first residual
        C_again, trace = refine_proper(C, pair.basis1, pair.basis2, iters=iters,
                                       mode="feature", F1=F1, F2=F2)
        assert trace.tolist() == [0.0]
        assert np.array_equal(C_again, C) and len(calls) == 2

    @pytest.mark.parametrize("row_block", [1, 7, None])
    def test_adjoint_step_equals_soft_map_then_projection(self, pair, noisy_start,
                                                          monkeypatch, row_block):
        # one adjoint step against the folded formula written out here: per
        # row block, exp(s - s.max(1)) with s = rows2 @ (Phi1 / tau).T, the
        # unnormalised pull-back, then the division by the row sums
        if row_block is not None:
            monkeypatch.setattr(_blas, "ROW_BLOCK", row_block)
        phi1 = pair.basis1.phi
        C, _ = refine_proper(noisy_start, pair.basis1, pair.basis2, iters=1)
        with _blas.single_threaded():   # every product at one thread, as inside refine_proper
            g2, v1 = pair.basis2.phi @ noisy_start, phi1 / DEFAULT_TAU
            pulled = np.empty_like(g2)
            for a in range(0, len(g2), _blas.ROW_BLOCK):
                s = g2[a:a + _blas.ROW_BLOCK] @ v1.T
                e = np.exp(s - s.max(axis=1, keepdims=True))
                pulled[a:a + len(e)] = (e @ phi1) / e.sum(axis=1, keepdims=True)
            C_ref = pair.basis2.project(pulled)
        assert np.array_equal(C, C_ref)

    def test_adjoint_step_agrees_with_soft_map_then_projection(self, pair, noisy_start):
        # Both C and C_ref are Phi2^T M2 (Pi Phi1), Pi = soft_map(Phi1, G2)
        # with G2 = Phi2 C0 (the same bits in both), rounded differently.
        # First order, with u = 2**-53 and gamma_m = m u / (1 - m u) (Higham,
        # Sec. 3.1; any summation order): each path's similarity is within
        # (gamma_k + u) S_ij of exact, S = |G2| |Phi1|^T / tau, and so is
        # each row's max, so the shifted similarities of the two paths
        # differ by at most 4 (gamma_k + u) max_j S_ij; with exp's rounding
        # (taken as 2u per path) their weights differ by a factor within
        # rho_i = expm1(4 (gamma_k + u) max_j S_ij) + 4u. Row sums and the
        # pull-back products add gamma_n1 per path, the divisions u each,
        # so row i of Pi Phi1 differs by eps_i = 2 rho_i + 4 gamma_n1 + 2u
        # times P_i = (Pi |Phi1|)_i, and the projection's two GEMMs add
        # 2 gamma_n2 + 2u (the mass product) of |Phi2|^T M2 P. Doubled
        # for the second-order terms:
        #   |C - C_ref| <= 2 |Phi2|^T M2 ((eps + 2 gamma_n2 + 2u) P).
        # Measured: the largest |C - C_ref| is 5.5e-16 of max |C| and 2.0e-4
        # of this bound on SkylakeX (a margin of ~5000), 3.3e-16 and
        # 1.2-1.3e-4 on Haswell and Sandybridge.
        phi1, phi2 = pair.basis1.phi, pair.basis2.phi
        n1, n2, k = len(phi1), len(phi2), pair.basis1.k
        u = 2.0 ** -53

        def gamma(m):
            return m * u / (1 - m * u)

        C, _ = refine_proper(noisy_start, pair.basis1, pair.basis2, iters=1)
        with _blas.single_threaded():
            g2 = phi2 @ noisy_start
        pi = soft_map(phi1, g2)
        C_ref = properness_project(pi, pair.basis1, pair.basis2)
        S = np.abs(g2) @ np.abs(phi1).T / DEFAULT_TAU
        rho = np.expm1(4 * (gamma(k) + u) * S.max(axis=1)) + 4 * u
        eps = 2 * rho + 4 * gamma(n1) + 2 * u + 2 * gamma(n2) + 2 * u
        bound = 2 * np.abs(phi2).T @ (pair.basis2.mass[:, None] * eps[:, None]
                                      * (pi @ np.abs(phi1)))
        assert np.all(np.abs(C - C_ref) <= bound)

    def test_holds_one_soft_map_at_a_time(self, pair, noisy_start, monkeypatch):
        # adjoint mode holds no soft map at all: one row block per worker and
        # a few (n2, k) arrays, far below the (n2, n1) map
        n1, n2, k = pair.basis1.n, pair.basis2.n, pair.basis1.k
        for row_block in (24, 96):
            monkeypatch.setattr(_blas, "ROW_BLOCK", row_block)
            with _blas.single_threaded():
                workers = _blas.workers(n2)
            tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                _, trace = refine_proper(noisy_start, pair.basis1, pair.basis2, iters=10)
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
            assert len(trace) == 10
            assert peak < workers * row_block * n1 * 8 + 4 * n2 * k * 8, row_block

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_start_raises(self, pair, noisy_start, bad):
        C0 = noisy_start.copy()
        C0[3, 4] = bad
        with np.errstate(invalid="ignore"), pytest.raises(LengthMismatch, match="finite"):
            refine_proper(C0, pair.basis1, pair.basis2, iters=10)

    def test_feature_mode_needs_features(self, pair):
        with pytest.raises(MissingFeatures):
            refine_proper(pair.C_gt, pair.basis1, pair.basis2, mode="feature")

    def test_unknown_mode_rejected(self, pair):
        with pytest.raises(ValueError, match="mode"):
            refine_proper(pair.C_gt, pair.basis1, pair.basis2, mode="icp")

    def test_iters_must_be_positive(self, pair):
        with pytest.raises(ValueError, match="iters"):
            refine_proper(pair.C_gt, pair.basis1, pair.basis2, iters=0)

    def test_nan_iters_rejected(self, pair):
        with pytest.raises(ValueError, match="iters"):
            refine_proper(pair.C_gt, pair.basis1, pair.basis2, iters=np.nan)

    def test_deterministic(self, pair, noisy_start):
        C_a, t_a = refine_proper(noisy_start, pair.basis1, pair.basis2, iters=10)
        C_b, t_b = refine_proper(noisy_start, pair.basis1, pair.basis2, iters=10)
        assert np.array_equal(C_a, C_b) and np.array_equal(t_a, t_b)


class TestWriteTrace:
    def test_golden_text(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace(np.array([1.0, 0.5, 0.25]), path)
        assert path.read_text() == (
            "iteration,residual\n0,1.0\n1,0.5\n2,0.25\n"
        )

    def test_default_value_name(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace(np.array([2.0]), path)
        assert path.read_text().splitlines()[0] == "iteration,residual"
