"""Structural measures and the exact-recovery oracle.

The oracle's job is to measure hypotheses and consequences without raising,
so these tests drive it through clean, incomplete, and rank-deficient
inputs and check every verdict field.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.spatial.distance import cdist

from fmapkit import _blas, cli, diagnostics, synth
from fmapkit.cli import DiagnoseConfig
from fmapkit.diagnostics import (
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
from fmapkit.errors import IndexOutOfRange, LengthMismatch, ZeroFeatures
from fmapkit.fmap import convert_adjoint, soft_map
from fmapkit.spectral import eigenbasis


def assert_equals_full_distance_table(F):
    """nn_distinctness, and each row's nearest-other distance behind it, are
    the values read off the full cdist table."""
    sq = cdist(F, F, "sqeuclidean")
    np.fill_diagonal(sq, np.inf)
    assert np.array_equal(diagnostics._nearest_other(F), sq.min(axis=1))
    d = cdist(F, F)
    np.fill_diagonal(d, np.inf)
    assert nn_distinctness(F) == float(d.min(axis=1).mean())


@pytest.fixture(scope="module")
def high_modes(pair):
    """Eigenvectors 30..39 of mesh1: M-orthogonal to span(basis1.phi)."""
    return eigenbasis(pair.lap1, 40).phi[:, 30:40]


class TestCompleteness:
    def test_in_span_is_one(self, pair, complete_features):
        F1, _ = complete_features
        assert measure_completeness(pair.basis1, F1) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_is_zero(self, pair, high_modes):
        assert measure_completeness(pair.basis1, high_modes) == pytest.approx(
            0.0, abs=1e-10
        )

    def test_mixture_ratio(self, pair, high_modes):
        # unit-M-norm in-span and out-of-span parts: completeness = a^2/(a^2+b^2)
        inspan = pair.basis1.phi[:, [3]]
        out = high_modes[:, [0]]
        f = 2.0 * inspan + 1.0 * out
        assert measure_completeness(pair.basis1, f) == pytest.approx(0.8, abs=1e-10)

    def test_zero_stack_raises(self, pair):
        with pytest.raises(ZeroFeatures):
            measure_completeness(pair.basis1, np.zeros((642, 3)))

    def test_row_mismatch_raises(self, pair):
        with pytest.raises(LengthMismatch):
            measure_completeness(pair.basis1, np.ones((10, 2)))

    def test_clipped_to_unit_interval(self, pair, complete_features):
        F1, _ = complete_features
        val = measure_completeness(pair.basis1, F1)
        assert 0.0 <= val <= 1.0


class TestPointwiseMeasures:
    def test_properness_zero_at_proper_map(self, pair):
        val = measure_properness(pair.C_gt, pair.basis1, pair.basis2)
        assert val == pytest.approx(0.0, abs=1e-20)

    def test_properness_positive_off_manifold(self, pair):
        noisy = pair.C_gt + 0.3 * np.random.default_rng(0).standard_normal((30, 30))
        val = measure_properness(noisy, pair.basis1, pair.basis2)
        assert val > 1e-3

    def test_basis_aligning_zero_at_truth(self, pair):
        val = measure_basis_aligning(pair.C_gt, pair.basis1, pair.basis2)
        assert val == pytest.approx(0.0, abs=1e-9)

    def test_basis_aligning_matches_manual_chamfer(self, pair):
        C = pair.C_gt + 0.05 * np.random.default_rng(1).standard_normal((30, 30))
        from fmapkit.fmap import convert_adjoint

        pi = convert_adjoint(C, pair.basis1.phi, pair.basis2.phi)
        manual = float(np.linalg.norm(pair.basis2.phi @ C
                                      - pair.basis1.phi[pi]))
        assert measure_basis_aligning(C, pair.basis1, pair.basis2) \
            == pytest.approx(manual, rel=1e-12)

    def test_given_adjoint_map_gives_the_same_values(self, pair):
        C = pair.C_gt + 0.05 * np.random.default_rng(3).standard_normal((30, 30))
        basis1, basis2 = pair.basis1, pair.basis2
        pm = convert_adjoint(C, basis1.phi, basis2.phi)
        assert measure_properness(C, basis1, basis2, adjoint=pm) \
            == measure_properness(C, basis1, basis2)
        assert measure_basis_aligning(C, basis1, basis2, adjoint=pm) \
            == measure_basis_aligning(C, basis1, basis2)

    def test_given_adjoint_map_must_fit(self, pair):
        basis1, basis2 = pair.basis1, pair.basis2
        negative = pair.perm.copy()
        negative[0] = -1   # numpy would wrap it to the last row
        # one row would broadcast against Phi2 C
        for pm, error in ((pair.perm[:1], LengthMismatch), (negative, IndexOutOfRange)):
            with pytest.raises(error):
                measure_basis_aligning(pair.C_gt, basis1, basis2, adjoint=pm)
            with pytest.raises(error):
                measure_properness(pair.C_gt, basis1, basis2, adjoint=pm)
        # a C that does not fit the bases, with a map that does
        identity = np.arange(basis2.n)
        for measure in (measure_basis_aligning, measure_properness):
            with pytest.raises(LengthMismatch):
                measure(np.eye(5), basis1, basis2, adjoint=identity)


class TestRankAndDistinctness:
    def test_rank_report(self):
        rng = np.random.default_rng(2)
        F = rng.standard_normal((50, 3))
        A = rng.standard_normal((4, 3)) @ np.eye(3)
        assert rank_report(F, A) == (3, 3)

    def test_rank_detects_deficiency(self):
        F = np.ones((20, 4))  # rank 1
        A = np.zeros((3, 4))
        assert rank_report(F, A) == (1, 0)

    def test_nn_distinctness_manual(self):
        F = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 0.0]])
        # nearest-other distances: 1, 1, 4
        assert nn_distinctness(F) == pytest.approx(2.0, rel=1e-12)

    def test_nn_distinctness_needs_two_rows(self):
        with pytest.raises(LengthMismatch):
            nn_distinctness(np.ones((1, 3)))

    def test_duplicated_rows_give_zero(self):
        F = np.array([[1.0, 2.0], [1.0, 2.0], [3.0, 4.0]])
        assert nn_distinctness(F) < 2.0  # two of three rows coincide

    @pytest.mark.parametrize("row_block", [1, 3, None])
    @settings(deadline=None, max_examples=150)
    @given(st.integers(1, 4).flatmap(lambda d: st.lists(
        st.lists(st.floats(-1e6, 1e6), min_size=d, max_size=d), min_size=1, max_size=5)),
        st.lists(st.integers(0, 4), min_size=2, max_size=12))
    @example([[0.0, 3.0], [4.0, 0.0]], [0, 1])   # two rows: no runner-up
    @example([[1e200, 0.0], [-1e200, 0.0]], [0, 1, 1])   # row 0: every other distance inf
    def test_nn_distinctness_equals_full_distance_table(self, row_block, pool, picks):
        # rows drawn from a small pool, so duplicates are common; small row
        # blocks put a row's own column and its duplicates in other blocks,
        # None keeps the default block size
        F = np.array([pool[i % len(pool)] for i in picks])
        with pytest.MonkeyPatch.context() as mp:
            if row_block is not None:
                mp.setattr(_blas, "ROW_BLOCK", row_block)
            assert_equals_full_distance_table(F)

    @pytest.mark.parametrize("level", [2, 3])
    @pytest.mark.parametrize("desc", ["xyz", "stack"])
    def test_nn_distinctness_is_exact_on_symmetric_ties(self, level, desc):
        # icosphere rows have many nearest neighbours at exactly equal distances
        _, features = cli._prepare_side(synth.icosphere(level),
                                        DiagnoseConfig(src="a", dst="b", desc=desc))
        assert_equals_full_distance_table(features)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nn_distinctness_of_a_non_finite_stack_is_nan(self, bad):
        F = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, bad]])
        assert np.isnan(nn_distinctness(F))


class TestEnergyDecomposition:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_pythagoras_for_random_hard_maps(self, pair, complete_features, seed):
        F1, F2 = complete_features
        rng = np.random.default_rng(seed)
        pi = rng.integers(0, 642, 642)
        e, e1, e2 = energy_terms(pi, F1, F2, pair.basis2)
        assert abs(e - (e1 + e2)) <= 1e-8 * max(1.0, e)

    def test_pythagoras_for_soft_maps(self, pair, complete_features):
        F1, F2 = complete_features
        pi = soft_map(pair.basis1.phi, pair.basis2.phi, tau=1.0)
        e, e1, e2 = energy_terms(pi, F1, F2, pair.basis2)
        assert abs(e - (e1 + e2)) <= 1e-10 * max(1.0, e)

    def test_in_span_residual_has_zero_e2(self, pair, complete_features):
        F1, F2 = complete_features
        # Pi F1 and F2 both lie in span(basis2.phi)? Pi F1 does not in
        # general, so build X in-span explicitly instead: map everything
        # through the ground-truth permutation, X = 0 exactly.
        e, e1, e2 = energy_terms(pair.perm, F1, F2, pair.basis2)
        assert e == pytest.approx(0.0, abs=1e-18)
        assert e1 == pytest.approx(0.0, abs=1e-18)
        assert e2 == pytest.approx(0.0, abs=1e-18)

    def test_orthogonal_residual_has_zero_e1(self, pair, complete_features, high_modes):
        F1, F2 = complete_features
        e, e1, e2 = energy_terms(pair.perm, F1, F2 - high_modes[:, [0] * F2.shape[1]],
                                 pair.basis2)
        # X = Pi F1 - (F2 - high) = high component only... but high lives on
        # mesh1's basis; mesh2's span differs, so only check the identity
        assert abs(e - (e1 + e2)) <= 1e-10 * max(1.0, e)


    def test_negative_index_raises(self, pair, complete_features):
        F1, F2 = complete_features
        pi = pair.perm.copy()
        pi[7] = -1   # numpy would wrap it to the last row
        with pytest.raises(IndexOutOfRange):
            energy_terms(pi, F1, F2, pair.basis2)

    @pytest.mark.parametrize("rows", [1, 5])
    def test_map_rows_must_match_f2(self, pair, complete_features, rows):
        # one row would broadcast against F2 and give an energy
        F1, F2 = complete_features
        with pytest.raises(LengthMismatch):
            energy_terms(pair.perm[:rows], F1, F2, pair.basis2)

    @pytest.mark.parametrize("bad", ["nan", "negative", "sum"])
    def test_bad_soft_row_raises(self, pair, complete_features, bad):
        F1, F2 = complete_features
        pi = soft_map(pair.basis1.phi, pair.basis2.phi, tau=1.0)
        row = pi[-1]   # in the last row block
        if bad == "nan":
            row[0] = np.nan
        elif bad == "negative":   # the row still sums to 1
            row[1] += 2 * row[0]
            row[0] = -row[0]
        else:
            row[0] -= 1e-6
        with pytest.raises(LengthMismatch, match="finite"):
            energy_terms(pi, F1, F2, pair.basis2)


class TestTheoremOracle:
    def test_clean_fixture_all_pass(self, pair, complete_features):
        F1, F2 = complete_features
        v = theorem_oracle(F1, F2, pair.basis1, pair.basis2)
        assert v.preconditions_ok
        assert v.full_row_rank and v.rank_a1 == 30 and v.k1 == 30
        assert v.rows_distinct
        assert v.fmap_residual <= 1e-8
        assert v.basis_align <= 1e-8
        assert v.energy_identity_err <= 1e-8
        assert v.agreement == 1.0
        assert v.all_pass

    def test_incomplete_fixture_flags_hypothesis(self, pair, incomplete_features):
        F1, F2n = incomplete_features
        v = theorem_oracle(F1, F2n, pair.basis1, pair.basis2)
        assert not v.preconditions_ok
        assert v.completeness2 < 0.9
        assert v.completeness1 == pytest.approx(1.0, abs=1e-10)
        assert v.agreement < 1.0
        assert not v.all_pass

    def test_rank_deficient_reported_not_raised(self, pair):
        rng = np.random.default_rng(3)
        F1 = pair.basis1.phi @ rng.standard_normal((30, 10))  # d=10 < k
        F2 = F1[pair.perm]
        v = theorem_oracle(F1, F2, pair.basis1, pair.basis2)
        assert v.rank_a1 == 10
        assert not v.full_row_rank
        assert not v.preconditions_ok

    def test_probe_seed_is_deterministic(self, pair, complete_features):
        F1, F2 = complete_features
        a = theorem_oracle(F1, F2, pair.basis1, pair.basis2, seed=7)
        b = theorem_oracle(F1, F2, pair.basis1, pair.basis2, seed=7)
        assert a == b

    def test_converts_c_opt_once(self, pair, incomplete_features, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return convert_adjoint(*args, **kwargs)

        F1, F2n = incomplete_features
        before = theorem_oracle(F1, F2n, pair.basis1, pair.basis2)
        monkeypatch.setattr(diagnostics, "convert_adjoint", counted)
        assert theorem_oracle(F1, F2n, pair.basis1, pair.basis2) == before
        assert len(calls) == 1

    def test_to_text_has_every_field(self, pair, complete_features):
        F1, F2 = complete_features
        v = theorem_oracle(F1, F2, pair.basis1, pair.basis2)
        text = v.to_text()
        data = dict(line.split("=", 1) for line in text.strip().splitlines())
        for key in ("completeness1", "completeness2", "rank_a1", "k1",
                    "fmap_residual", "basis_align", "agreement",
                    "energy_identity_err", "full_row_rank",
                    "preconditions_ok", "consequences_ok", "all_pass"):
            assert key in data
        assert data["all_pass"] == "true"
        assert float(data["agreement"]) == 1.0


class TestStructureReport:
    def test_build_on_clean_fixture(self, pair, complete_features):
        F1, F2 = complete_features
        rep = build_structure_report(pair.C_gt, pair.basis1, pair.basis2, F1, F2)
        assert rep.completeness == pytest.approx(1.0, abs=1e-10)
        assert rep.properness_residual == pytest.approx(0.0, abs=1e-15)
        assert rep.basis_align_chamfer == pytest.approx(0.0, abs=1e-9)
        assert rep.rank_F == 30 and rep.rank_A == 30
        assert rep.nn_distinctness > 0

    def test_given_adjoint_map_gives_the_same_text(self, pair, incomplete_features,
                                                   monkeypatch):
        F1, F2n = incomplete_features
        C = pair.C_gt + 0.05 * np.random.default_rng(6).standard_normal((30, 30))
        own = build_structure_report(C, pair.basis1, pair.basis2, F1, F2n)
        pm = convert_adjoint(C, pair.basis1.phi, pair.basis2.phi)
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return convert_adjoint(*args, **kwargs)

        monkeypatch.setattr(diagnostics, "convert_adjoint", counted)
        given = build_structure_report(C, pair.basis1, pair.basis2, F1, F2n,
                                       adjoint=pm)
        assert calls == []
        assert given.to_text() == own.to_text()
        build_structure_report(C, pair.basis1, pair.basis2, F1, F2n)
        assert len(calls) == 1  # one map for both measures
        assert own.properness_residual == measure_properness(C, pair.basis1, pair.basis2)
        assert own.basis_align_chamfer == measure_basis_aligning(C, pair.basis1, pair.basis2)


class TestVerdictDataclass:
    def test_property_logic(self):
        v = OracleVerdict(
            completeness1=1.0, completeness2=1.0, rank_a1=5, k1=5,
            nn_distinctness1=0.5, rows_distinct=True, fmap_residual=0.0,
            basis_align=0.0, agreement=1.0, energy_identity_err=0.0,
        )
        assert v.all_pass
        v2 = OracleVerdict(
            completeness1=1.0, completeness2=1.0, rank_a1=4, k1=5,
            nn_distinctness1=0.5, rows_distinct=True, fmap_residual=0.0,
            basis_align=0.0, agreement=1.0, energy_identity_err=0.0,
        )
        assert not v2.full_row_rank and not v2.all_pass
        v3 = OracleVerdict(
            completeness1=1.0, completeness2=1.0, rank_a1=5, k1=5,
            nn_distinctness1=0.5, rows_distinct=True, fmap_residual=0.0,
            basis_align=0.0, agreement=0.99, energy_identity_err=0.0,
        )
        assert v3.preconditions_ok and v3.consequences_ok and not v3.all_pass
