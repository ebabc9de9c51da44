"""Seeded inputs and CLI commands for the three benchmark workloads.

Every input is made with fmapkit.synth (plus a seeded radial jitter and
permutation) and written to disk; the program only sees those files. One op
is the list of CLI argument vectors that `commands` returns, run in order.
`outputs` are the files an op writes (compared byte for byte on a re-run),
`pred_file` the map that is scored and `eval_file` the eval CSV, if any,
that must match the benchmark's own geodesic errors.

`scored_ops` is how many timed ops (the first ones) the quality metrics are
taken over. A run normally reaches that many on a 2-core machine (a run
that does not scores the ops it has), so exact_frac and geo_err_mean depend
only on the seed and on the program's maps. The fast workloads average more
ops, because per-op quality still varies a little with the jitter. Why each
workload exists is in bench/README.md.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from fmapkit import synth
from fmapkit.mesh import TriMesh, save_correspondence, save_mesh

# Relative sd of the per-vertex radial jitter: large enough that no two ops
# share an input byte, small enough that per-op map quality barely varies
# (at 0.002 the per-op exact_frac sd on session-642 was 3x larger).
JITTER = 0.0005
# Share of ground-truth entries the eval workload's prediction gets wrong.
EVAL_WRONG = 0.25


def op_rng(seed: int, workload: str, op: int) -> np.random.Generator:
    return np.random.default_rng([seed, sum(workload.encode()), op])


def jittered(mesh: TriMesh, rng: np.random.Generator) -> TriMesh:
    r = 1.0 + JITTER * rng.standard_normal(mesh.n_vertices)
    return TriMesh(mesh.vertices * r[:, None], mesh.triangles)


class Op:
    """One op's directory, its ground truth and the files its commands write."""

    def __init__(self, index: int, root: Path):
        self.index = index
        self.dir = root / f"op{index:05d}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.gt: np.ndarray | None = None
        self.mesh_path: Path | None = None   # the mesh the ground truth indexes into

    def path(self, name: str) -> str:
        return str(self.dir / name)


class Match:
    """Properness-refined stack matching of one fixed source to fresh targets."""

    name = "match-2562"
    outputs = ("map.txt", "map.txt.report")
    pred_file, eval_file = "map.txt", None
    scored_ops = 4

    def __init__(self, work: Path, seed: int, subdivisions: int = 4):
        self.work, self.seed = work, seed
        self.src_path = work / "src.off"
        self.target_base = synth.bumpy_sphere(subdivisions, 0.18)
        save_mesh(synth.bumpy_sphere(subdivisions, 0.12), self.src_path)

    def make_op(self, index: int) -> Op:
        op = Op(index, self.work)
        rng = op_rng(self.seed, self.name, index)
        dst, op.gt = synth.permuted_copy(jittered(self.target_base, rng),
                                         seed=int(rng.integers(2**31)))
        save_mesh(dst, op.path("dst.off"))
        op.mesh_path = self.src_path
        return op

    def commands(self, op: Op) -> list[list[str]]:
        return [["match", "--src", str(self.src_path), "--dst", op.path("dst.off"),
                 "--out", op.path("map.txt"), "--desc", "stack",
                 "--refine", "proper-adjoint"]]


class Eval:
    """Geodesic evaluation of a seeded imperfect map against a permutation."""

    name = "eval-2562"
    outputs = ("errors.csv",)
    pred_file, eval_file = "pred.txt", "errors.csv"
    scored_ops = 8

    def __init__(self, work: Path, seed: int, subdivisions: int = 4):
        self.work, self.seed = work, seed
        self.mesh_path = work / "mesh.off"
        mesh = synth.bumpy_sphere(subdivisions, 0.12)
        self.n = mesh.n_vertices
        save_mesh(mesh, self.mesh_path)

    def make_op(self, index: int) -> Op:
        op = Op(index, self.work)
        rng = op_rng(self.seed, self.name, index)
        op.gt = rng.permutation(self.n)
        pred = op.gt.copy()
        wrong = rng.random(self.n) < EVAL_WRONG
        pred[wrong] = rng.integers(0, self.n, size=int(wrong.sum()))
        save_correspondence(op.gt, op.path("gt.txt"))
        save_correspondence(pred, op.path("pred.txt"))
        op.mesh_path = self.mesh_path
        return op

    def commands(self, op: Op) -> list[list[str]]:
        return [["eval", "--pred", op.path("pred.txt"), "--gt", op.path("gt.txt"),
                 "--mesh", str(self.mesh_path), "--out", op.path("errors.csv")]]


class Session:
    """A fresh small pair per op: match, eval of that map, then diagnose."""

    name = "session-642"
    outputs = ("map.txt", "map.txt.report", "errors.csv", "diagnose.txt")
    pred_file, eval_file = "map.txt", "errors.csv"
    scored_ops = 16

    def __init__(self, work: Path, seed: int, subdivisions: int = 3):
        self.work, self.seed = work, seed
        self.src_base = synth.bumpy_sphere(subdivisions, 0.12)
        self.dst_base = synth.bumpy_sphere(subdivisions, 0.18)

    def make_op(self, index: int) -> Op:
        op = Op(index, self.work)
        src_rng, dst_rng = op_rng(self.seed, self.name, index).spawn(2)
        save_mesh(jittered(self.src_base, src_rng), op.path("src.off"))
        dst, op.gt = synth.permuted_copy(jittered(self.dst_base, dst_rng),
                                         seed=int(dst_rng.integers(2**31)))
        save_mesh(dst, op.path("dst.off"))
        save_correspondence(op.gt, op.path("gt.txt"))
        op.mesh_path = Path(op.path("src.off"))
        return op

    def commands(self, op: Op) -> list[list[str]]:
        src, dst = op.path("src.off"), op.path("dst.off")
        return [
            ["match", "--src", src, "--dst", dst, "--out", op.path("map.txt")],
            ["eval", "--pred", op.path("map.txt"), "--gt", op.path("gt.txt"),
             "--mesh", src, "--out", op.path("errors.csv")],
            ["diagnose", "--src", src, "--dst", dst, "--noise", "0.5",
             "--out", op.path("diagnose.txt")],
        ]


WORKLOADS = {w.name: w for w in (Match, Eval, Session)}
# --tiny shrinks every mesh to 162 vertices for the smoke tests.
TINY_SUBDIVISIONS = 2
