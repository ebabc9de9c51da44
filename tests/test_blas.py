"""BLAS thread ownership: the single-threaded helper, the row blocks that
spend the caller's threads, and the cross-thread determinism contract
(byte-identical outputs at any OpenBLAS thread count)."""

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial.distance import cdist

import fmapkit
from fmapkit import _blas, cli, diagnostics, fmap, refine, spectral, synth
from fmapkit.errors import LengthMismatch
from fmapkit.mesh import save_mesh

no_blas_control = pytest.mark.skipif(
    not _blas.controlled_libraries(),
    reason="fmapkit controls no BLAS library in this process",
)

# every public function that reaches BLAS or LAPACK, or reads the caller's
# thread count for its row blocks (see fmapkit._blas)
ENTRY_POINTS = [
    _blas.row_blocks,
    spectral.eigenbasis,
    spectral.SpectralBasis.project,
    spectral.SpectralBasis.reconstruct,
    fmap._pull_back,
    fmap.solve_fmap,
    fmap.convert_adjoint,
    fmap.nearest_rows,
    fmap.soft_map,
    fmap._soft_apply,
    fmap.properness_project,
    fmap.loss_unsupervised,
    fmap.grad_unsupervised,
    refine.refine_proper,
    diagnostics.measure_basis_aligning,
    diagnostics.nn_distinctness,
    diagnostics.rank_report,
    diagnostics.theorem_oracle,
    diagnostics.build_structure_report,
    synth.icosphere,
]


@pytest.fixture
def blas_threads():
    """A setter of every controlled library's count; the caller's counts restored after."""
    before = _blas.thread_counts()

    def set_all(count):
        for _, _, set_ in _blas._controls():
            set_(count)
        return (count,) * len(before)

    yield set_all
    for (_, _, set_), count in zip(_blas._controls(), before):
        set_(count)


@pytest.fixture
def two_threads(blas_threads):
    """Every controlled library at 2 threads; the caller's counts restored after."""
    return blas_threads(2)


@_blas.single_threaded()
def _counts_inside():
    return _blas.thread_counts()


@no_blas_control
def test_core_names_name_each_controlled_library():
    names = _blas.core_names()
    assert len(names) == len(_blas.controlled_libraries())
    assert all(isinstance(name, str) and name for name in names)


def test_entry_points_are_wrapped():
    for fn in ENTRY_POINTS:
        assert hasattr(fn, "__wrapped__"), fn.__qualname__


@no_blas_control
class TestSingleThreaded:
    def test_one_thread_inside_and_restored_after(self, two_threads):
        assert _counts_inside() == (1,) * len(two_threads)
        assert _blas.thread_counts() == two_threads

    def test_restored_after_exception(self, two_threads):
        @_blas.single_threaded()
        def boom():
            assert _blas.thread_counts() == (1,) * len(two_threads)
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            boom()
        assert _blas.thread_counts() == two_threads
        assert _blas._depth == 0

    def test_nested_calls_stay_single_threaded(self, two_threads):
        ones = (1,) * len(two_threads)
        with _blas.single_threaded():
            assert _counts_inside() == ones
            assert _blas.thread_counts() == ones  # inner exit restores nothing
        assert _blas.thread_counts() == two_threads

    def test_depth_is_shared_across_threads(self, two_threads):
        # A enters, B enters, A leaves while B is still inside: B must keep
        # one thread, which a per-thread depth counter would not guarantee.
        ones = (1,) * len(two_threads)
        a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
        seen = {}

        def a():
            with _blas.single_threaded():
                a_in.set()
                b_in.wait(10)
            a_out.set()

        def b():
            a_in.wait(10)
            with _blas.single_threaded():
                b_in.set()
                a_out.wait(10)
                seen["b_after_a_left"] = _blas.thread_counts()

        threads = [threading.Thread(target=a), threading.Thread(target=b)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(20)
            assert not t.is_alive()
        assert seen["b_after_a_left"] == ones
        assert _blas.thread_counts() == two_threads

    def test_concurrent_nesting_stress(self, two_threads):
        # more threads than cores, switching often: every thread must see one
        # BLAS thread inside, and the last exit must restore the caller's count
        ones = (1,) * len(two_threads)
        bad = []

        def work():
            for _ in range(200):
                with _blas.single_threaded():
                    if _counts_inside() != ones:
                        bad.append(_blas.thread_counts())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert bad == []
        assert _blas._depth == 0
        assert _blas.thread_counts() == two_threads


def _row_block_outputs(n):
    """soft_map, its pull-back, nearest_rows and the block-wise soft
    pull-back, each over n rows."""
    rng = np.random.default_rng(n)
    g1, g2 = rng.standard_normal((40, 6)), rng.standard_normal((n, 6))
    pi = fmap.soft_map(g1, g2, tau=0.3)
    points = np.repeat(rng.standard_normal((20, 6)), 2, axis=0)   # exact ties
    values = rng.standard_normal((40, 5))
    return (pi, fmap._pull_back(pi, values), fmap.nearest_rows(g2, points),
            fmap._soft_apply(g1, g2, values, tau=0.3))


@no_blas_control
@pytest.mark.parametrize("row_block", [1, 7, None])
@pytest.mark.parametrize("n", [1, 95, 96, 97, 197])
def test_row_block_outputs_do_not_depend_on_the_thread_count(blas_threads, monkeypatch,
                                                             n, row_block):
    if row_block is not None:
        monkeypatch.setattr(_blas, "ROW_BLOCK", row_block)
    blocks = -(-n // _blas.ROW_BLOCK)
    outputs = {}
    for threads in (1, 2, 3):
        blas_threads(threads)
        with _blas.single_threaded():
            assert _blas.workers(n) == min(threads, blocks)
        outputs[threads] = _row_block_outputs(n)
    for threads in (2, 3):
        for got, want in zip(outputs[threads], outputs[1]):
            assert np.array_equal(got, want)


@no_blas_control
def test_blocks_run_on_the_callers_thread_count(blas_threads):
    # the first three blocks wait for each other, so they need three threads
    blas_threads(3)
    first_three = threading.Barrier(3, timeout=10)
    seen = set()

    def block(a, b, buf):
        if a < 3 * _blas.ROW_BLOCK:
            first_three.wait()
        seen.add(threading.get_ident())

    _blas.row_blocks(block, 5 * _blas.ROW_BLOCK)
    assert len(seen) == 3


@no_blas_control
def test_blocks_run_under_the_callers_errstate(two_threads):
    both_in = threading.Barrier(2, timeout=10)
    seen = []

    def block(a, b, buf):
        if a < 2 * _blas.ROW_BLOCK:
            both_in.wait()
        seen.append((threading.get_ident(), np.geterr()["invalid"]))

    with np.errstate(invalid="raise"):
        _blas.row_blocks(block, 4 * _blas.ROW_BLOCK)
    assert len({ident for ident, _ in seen}) == 2
    assert {state for _, state in seen} == {"raise"}


@no_blas_control
def test_every_block_runs_once_under_stress(blas_threads, monkeypatch):
    # more workers than cores, one-row blocks, frequent switches: each row is
    # written exactly once, and the shared distance buffers never collide
    blas_threads(8)
    monkeypatch.setattr(_blas, "ROW_BLOCK", 1)
    rng = np.random.default_rng(8)
    points, queries = rng.standard_normal((30, 3)), rng.standard_normal((600, 3))
    hits = np.zeros(600, dtype=np.int64)

    def block(a, b, buf):
        hits[a:b] += 1

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _blas.row_blocks(block, 600)
        idx = fmap.nearest_rows(queries, points)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(hits, np.ones(600, dtype=np.int64))
    assert np.array_equal(idx, np.argmin(cdist(queries, points, "sqeuclidean"), axis=1))


@pytest.mark.parametrize("n", [1, 5 * _blas.ROW_BLOCK + 3])
def test_each_worker_reuses_its_own_scratch(blas_threads, n):
    blas_threads(3)
    seen = []   # (thread, buffer base, a, b, view), the bases kept alive

    def block(a, b, buf):
        seen.append((threading.get_ident(), buf.base, a, b, buf))

    _blas.row_blocks(block, n, 4)
    with _blas.single_threaded():
        count = _blas.workers(n)
    for _, base, a, b, buf in seen:
        assert base is not None and buf.dtype == np.float64 and buf.shape == (b - a, 4)
    bases = {id(base) for _, base, _, _, _ in seen}
    assert len(bases) <= count
    owner = {}
    for ident, base, _, _, _ in seen:
        assert owner.setdefault(id(base), ident) == ident   # one worker per buffer
    assert len({ident for ident, _, _, _, _ in seen}) == len(bases)   # one buffer per worker
    given = []
    _blas.row_blocks(lambda a, b, buf: given.append(buf), n)
    assert given and all(buf is None for buf in given)


def test_one_worker_without_a_controlled_library(monkeypatch):
    monkeypatch.setattr(_blas, "_controls", lambda: ())
    with _blas.single_threaded():
        assert _blas.workers(10 * _blas.ROW_BLOCK) == 1


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_non_finite_row_in_any_block_raises(two_threads, where, bad):
    block = _blas.ROW_BLOCK
    n = 2 * block + 5
    row = {"first": 0, "middle": block + 4, "last": n - 1}[where]
    rng = np.random.default_rng(3)
    g1, g2 = rng.standard_normal((30, 4)), rng.standard_normal((n, 4))
    g2[row, 1] = bad
    with np.errstate(invalid="ignore"), pytest.raises(LengthMismatch):
        fmap.soft_map(g1, g2)
    with np.errstate(invalid="ignore"), pytest.raises(LengthMismatch):
        fmap._soft_apply(g1, g2, g1)
    matrix = np.full((n, 30), 1 / 30)
    matrix[row, 3] = bad
    with pytest.raises(LengthMismatch):
        fmap._pull_back(matrix, g1)


@no_blas_control
def test_worker_exception_reaches_the_caller(two_threads):
    before = threading.active_count()
    caller = threading.get_ident()
    both_in = threading.Barrier(2, timeout=10)

    def block(a, b, buf):
        if a < 2 * _blas.ROW_BLOCK:
            both_in.wait()
        if threading.get_ident() != caller:
            raise RuntimeError("worker failed")

    with pytest.raises(RuntimeError, match="worker failed"):
        _blas.row_blocks(block, 4 * _blas.ROW_BLOCK)
    assert _blas._depth == 0
    assert _blas.thread_counts() == two_threads
    assert threading.active_count() == before


def test_no_thread_outlives_a_call(two_threads, tmp_path):
    mesh1 = synth.icosphere(2)
    mesh2, _ = synth.permuted_copy(mesh1, seed=3)
    save_mesh(mesh1, tmp_path / "src.off")
    save_mesh(mesh2, tmp_path / "dst.off")
    basis1 = spectral.eigenbasis(spectral.build_laplacian(mesh1), 20)
    basis2 = spectral.eigenbasis(spectral.build_laplacian(mesh2), 20)
    C = np.eye(20)
    pi = fmap.soft_map(basis1.phi, basis2.phi)
    argv = ["--src", str(tmp_path / "src.off"), "--dst", str(tmp_path / "dst.off")]
    calls = {
        "soft_map": lambda: fmap.soft_map(basis1.phi, basis2.phi),
        "pull_back": lambda: fmap._pull_back(pi, basis1.phi),
        "nearest_rows": lambda: fmap.nearest_rows(basis2.phi, basis1.phi),
        "convert_adjoint": lambda: fmap.convert_adjoint(C, basis1.phi, basis2.phi),
        "convert_feature_nn": lambda: fmap.convert_feature_nn(basis1.phi, basis2.phi),
        "properness_project": lambda: fmap.properness_project(pi, basis1, basis2),
        "refine_proper": lambda: refine.refine_proper(C, basis1, basis2, iters=3),
        "match": lambda: cli.main(["match", *argv, "--out", str(tmp_path / "map.txt"),
                                   "--refine", "proper-adjoint"]),
        "diagnose": lambda: cli.main(["diagnose", *argv]),
    }
    before = threading.active_count()
    for name, call in calls.items():
        result = call()
        assert not isinstance(result, int) or result == 0, name   # CLI exit code
        assert threading.active_count() == before, name


# Criterion 07's seeded refine trace (C_gt through properness_project, which
# computes exactly conftest's Phi2^T M2 Phi1[perm]) and a 642-vertex
# `match --desc stack --refine proper-adjoint`, run in a fresh interpreter.
CONTRACT_SCRIPT = """
import sys
from pathlib import Path
import numpy as np
from fmapkit import synth
from fmapkit.cli import main
from fmapkit.fmap import properness_project
from fmapkit.mesh import save_mesh
from fmapkit.refine import refine_proper
from fmapkit.spectral import build_laplacian, eigenbasis

out = Path(sys.argv[1])
mesh1 = synth.bumpy_sphere(3)
mesh2, perm = synth.permuted_copy(mesh1, seed=11)
lap1, lap2 = build_laplacian(mesh1), build_laplacian(mesh2)
basis1, basis2 = eigenbasis(lap1, 30), eigenbasis(lap2, 30)
C_gt = properness_project(perm, basis1, basis2)
C0 = C_gt + 0.1 * np.random.default_rng(17).standard_normal((30, 30))
_, trace = refine_proper(C0, basis1, basis2, iters=10)
print(repr(trace.tolist()))
save_mesh(mesh1, out / "src.off")
save_mesh(mesh2, out / "dst.off")
sys.exit(main(["match", "--src", str(out / "src.off"), "--dst", str(out / "dst.off"),
               "--out", str(out / "map.txt"), "--desc", "stack",
               "--refine", "proper-adjoint"]))
"""


def _child_env(**variables) -> dict:
    """This process's environment plus `variables`, with fmapkit importable."""
    src = str(Path(fmapkit.__file__).resolve().parents[1])
    env = dict(os.environ, **variables)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return env


def _run_contract(out: Path, threads: int) -> dict:
    out.mkdir()
    proc = subprocess.run(
        [sys.executable, "-c", CONTRACT_SCRIPT, str(out)],
        env=_child_env(OPENBLAS_NUM_THREADS=str(threads)),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return {
        "trace": proc.stdout.splitlines()[0],
        "map": (out / "map.txt").read_bytes(),
        "report": (out / "map.txt.report").read_bytes(),
    }


@no_blas_control
def test_outputs_identical_at_one_and_two_blas_threads(tmp_path):
    # 3 threads too: on a 2-core machine OpenBLAS caps the variable at 2
    one = _run_contract(tmp_path / "t1", 1)
    for threads in (2, 3):
        other = _run_contract(tmp_path / f"t{threads}", threads)
        assert one["trace"] == other["trace"]
        assert one["map"] == other["map"]
        assert one["report"] == other["report"]


# tests that compare a library result with a reference computed in the test
# itself, bit for bit; the references run at one BLAS thread, as the library
# does, or without BLAS (cdist), so these hold on any OpenBLAS kernel at any
# thread count. The nearest-row kernel's GEMM estimate rounds differently on
# each kernel; its answer must not.
REFERENCE_TESTS = [
    "test_fmap.py::TestPropernessProjection::test_hard_map_formula",
    "test_refine.py::TestRefineProper::test_proper_map_is_fixed_point_at_small_tau",
    "test_refine.py::TestRefineProper::test_adjoint_step_equals_soft_map_then_projection",
    "test_fmap.py::TestNearestRows::test_equals_cdist_argmin",
    "test_fmap.py::TestNearestRows::test_equals_cdist_argmin_on_icosphere_stacks",
    "test_diagnostics.py::TestRankAndDistinctness::test_nn_distinctness_equals_full_distance_table",
    "test_diagnostics.py::TestRankAndDistinctness::test_nn_distinctness_is_exact_on_symmetric_ties",
]

# tests that pin an exact float per kernel (tests/pins.py)
PINNED_TESTS = [
    "test_acceptance.py::test_criterion_04_incompleteness_breaks_agreement",
    "test_acceptance.py::test_criterion_07_properness_refinement_improves",
    "test_refine.py::TestRefineProper::test_noisy_start_trace_pinned",
    "test_refine.py::TestRefineProper::test_feature_mode_builds_one_soft_map",
]
KERNEL_TESTS_PASSED = "22 passed"   # 17 reference and 5 pinned test cases

OTHER_KERNELS = pytest.mark.parametrize("coretype, flag", [("Haswell", "avx2"),
                                                           ("Sandybridge", "avx")])


def _cpu_flags() -> set:
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return set()
    return {flag for line in text.splitlines() if line.startswith("flags")
            for flag in line.partition(":")[2].split()}


def _run_on_kernel(coretype: str, flag: str, threads: int) -> None:
    """Run the reference and pinned tests in a child on kernel `coretype`."""
    if flag not in _cpu_flags():
        pytest.skip(f"the {coretype} kernel needs {flag}")
    tests = Path(__file__).resolve().parent
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         *REFERENCE_TESTS, *PINNED_TESTS],
        cwd=tests, env=_child_env(OPENBLAS_NUM_THREADS=str(threads), OPENBLAS_CORETYPE=coretype),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0 and KERNEL_TESTS_PASSED in proc.stdout, proc.stdout[-4000:]


@no_blas_control
@OTHER_KERNELS
def test_references_hold_on_other_kernels_at_two_threads(coretype, flag):
    _run_on_kernel(coretype, flag, threads=2)


@no_blas_control
@OTHER_KERNELS
def test_references_hold_on_other_kernels_at_one_thread(coretype, flag):
    _run_on_kernel(coretype, flag, threads=1)
