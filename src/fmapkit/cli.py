"""Command-line interface: match, eval, diagnose.

Exit codes: 0 on success, 2 for usage problems (bad flags, k exceeding the
vertex count), 3 for data problems (parse failures, degenerate meshes,
disconnected components, rank failures, eigensolver failures). Given
identical inputs and flags, every command writes byte-identical outputs at
any BLAS thread count where fmapkit controls the BLAS (OpenBLAS; see
fmapkit._blas), and at a fixed thread count elsewhere. The bits still depend
on the numpy/scipy/OpenBLAS build and on the CPU kernel OpenBLAS selects.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

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
    FeatureMatrix,
)
from .diagnostics import build_structure_report, theorem_oracle
from .errors import FmapError, InvalidK
from .evaluate import geodesic_error, write_error_report
from .fmap import convert_adjoint, convert_feature_nn, solve_fmap
from .mesh import load_correspondence, load_mesh, read_table, save_correspondence
from .refine import refine_proper
from .spectral import build_laplacian, eigenbasis, smooth_features, _smoothing_size

DESC_CHOICES = ("xyz", "hks", "wks", "stack")
REFINE_CHOICES = ("none", "proper-adjoint", "proper-feature")
CONVERT_CHOICES = ("adjoint", "nn")


@dataclass
class MatchConfig:
    src: str
    dst: str
    out: str
    k: int = 30
    desc: str = "hks"
    smooth_j: int = 128
    smooth_t: float = 0.0
    mu: float = 1e-3
    refine: str = "none"
    refine_iters: int = 10
    tau: float = 0.07
    convert: str = "adjoint"
    landmarks: str | None = None
    landmark_t: float = 0.1


@dataclass
class DiagnoseConfig:
    src: str
    dst: str
    out: str | None = None
    k: int = 30
    desc: str = "stack"
    smooth_j: int = 128
    smooth_t: float = 0.0
    mu: float = 1e-3
    noise: float = 0.0
    seed: int = 0


def load_landmark_pairs(path):
    """Landmark file: one 'i j' pair per line (src index, dst index)."""
    pairs = read_table(path, "landmark", dtype=int, width=2)
    return pairs[:, 0].tolist(), pairs[:, 1].tolist()


def _build_stack(mesh, basis_k, desc, landmarks, landmark_t, mesh_id):
    parts = []
    if desc in ("hks", "stack"):
        parts.append(descriptor_hks(basis_k, default_hks_times(basis_k.lam), mesh_id))
    if desc in ("wks", "stack"):
        energies, sigma = default_wks_energies(basis_k.lam)
        parts.append(descriptor_wks(basis_k, energies, sigma, mesh_id))
    if desc in ("xyz", "stack"):
        parts.append(descriptor_xyz(mesh, mesh_id))
    if landmarks:
        parts.append(descriptor_landmarks(basis_k, landmarks, landmark_t, mesh_id))
    return concat_features(parts)


def _prepare_side(mesh, mesh_id, k, smooth_j, smooth_t, desc, landmarks, landmark_t):
    """Laplacian, basis, smoothed + normalized descriptor stack for one shape."""
    lap = build_laplacian(mesh)
    j = _smoothing_size(smooth_j, lap.n)
    basis_full = eigenbasis(lap, max(k, j))
    basis_k = basis_full.truncate(k)
    basis_j = basis_full.truncate(j)
    stack = _build_stack(mesh, basis_k, desc, landmarks, landmark_t, mesh_id)
    smoothed = smooth_features(basis_j, stack.values, smooth_t)
    normalized = normalize_columns(smoothed, lap.mass)
    feats = FeatureMatrix(normalized, stack.labels, mesh_id)
    return lap, basis_k, feats


def run_match(cfg: MatchConfig):
    """Full matching pipeline; returns (point_map, C, report)."""
    mesh1 = load_mesh(cfg.src)
    mesh2 = load_mesh(cfg.dst)
    lm1, lm2 = ([], [])
    if cfg.landmarks:
        lm1, lm2 = load_landmark_pairs(cfg.landmarks)
    _, basis1, f1 = _prepare_side(
        mesh1, cfg.src, cfg.k, cfg.smooth_j, cfg.smooth_t, cfg.desc, lm1, cfg.landmark_t
    )
    _, basis2, f2 = _prepare_side(
        mesh2, cfg.dst, cfg.k, cfg.smooth_j, cfg.smooth_t, cfg.desc, lm2, cfg.landmark_t
    )
    a1 = project_coeffs(basis1, f1)
    a2 = project_coeffs(basis2, f2)
    C = solve_fmap(a1, a2, basis1.lam, basis2.lam, cfg.mu)
    if cfg.refine == "proper-adjoint":
        C, _ = refine_proper(C, basis1, basis2, iters=cfg.refine_iters,
                             mode="adjoint", tau=cfg.tau)
    elif cfg.refine == "proper-feature":
        C, _ = refine_proper(C, basis1, basis2, iters=cfg.refine_iters,
                             mode="feature", F1=f1.values, F2=f2.values, tau=cfg.tau)
    if cfg.convert == "adjoint":
        pm = convert_adjoint(C, basis1.phi, basis2.phi)
    else:
        pm = convert_feature_nn(f1, f2)
    save_correspondence(pm.indices, cfg.out)
    report = build_structure_report(C, basis1, basis2, f1, f2,
                                    adjoint=pm if cfg.convert == "adjoint" else None)
    report_path = cfg.out + ".report"
    Path(report_path).write_text(report.to_text())
    return pm, C, report


def run_eval(pred_path, gt_path, mesh_path, out_path):
    pred = load_correspondence(pred_path)
    gt = load_correspondence(gt_path)
    mesh = load_mesh(mesh_path)
    errors = geodesic_error(pred, gt, mesh)
    write_error_report(errors, out_path)
    return errors


def run_diagnose(cfg: DiagnoseConfig):
    mesh1 = load_mesh(cfg.src)
    mesh2 = load_mesh(cfg.dst)
    _, basis1, f1 = _prepare_side(
        mesh1, cfg.src, cfg.k, cfg.smooth_j, cfg.smooth_t, cfg.desc, [], 0.1
    )
    lap2, basis2, f2 = _prepare_side(
        mesh2, cfg.dst, cfg.k, cfg.smooth_j, cfg.smooth_t, cfg.desc, [], 0.1
    )
    if cfg.noise > 0:
        rng = np.random.default_rng(cfg.seed)
        scale = float(f2.values.std()) or 1.0
        f2 = FeatureMatrix(
            f2.values + cfg.noise * scale * rng.standard_normal(f2.values.shape),
            f2.labels, f2.mesh_id,
        )
    verdict = theorem_oracle(f1, f2, basis1, basis2, seed=cfg.seed)
    C = solve_fmap(project_coeffs(basis1, f1), project_coeffs(basis2, f2),
                   basis1.lam, basis2.lam, cfg.mu)
    report = build_structure_report(C, basis1, basis2, f1, f2)
    text = verdict.to_text() + "\n" + report.to_text()
    if cfg.out:
        Path(cfg.out).write_text(text)
    return verdict, report, text


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fmapkit",
        description="Spectral functional-map shape correspondence toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    m = sub.add_parser("match", help="estimate a correspondence between two meshes")
    m.add_argument("--src", required=True, help="source mesh (the map points INTO it)")
    m.add_argument("--dst", required=True, help="target mesh (one map entry per vertex)")
    m.add_argument("--out", required=True, help="output correspondence file")
    m.add_argument("--k", type=int, default=30, help="spectral basis size")
    m.add_argument("--desc", choices=DESC_CHOICES, default="hks")
    m.add_argument("--smooth-j", type=int, default=128, dest="smooth_j",
                   help="smoothing basis size (clamped to the vertex count)")
    m.add_argument("--smooth-t", type=float, default=0.0, dest="smooth_t",
                   help="smoothing diffusion time")
    m.add_argument("--mu", type=float, default=1e-3,
                   help="commutativity regularizer weight")
    m.add_argument("--refine", choices=REFINE_CHOICES, default="none")
    m.add_argument("--refine-iters", type=int, default=10, dest="refine_iters")
    m.add_argument("--tau", type=float, default=0.07, help="soft map temperature")
    m.add_argument("--convert", choices=CONVERT_CHOICES, default="adjoint")
    m.add_argument("--landmarks", default=None,
                   help="file of 'i j' landmark pairs (src dst)")
    m.add_argument("--landmark-t", type=float, default=0.1, dest="landmark_t")

    e = sub.add_parser("eval", help="geodesic-error evaluation of a correspondence")
    e.add_argument("--pred", required=True)
    e.add_argument("--gt", required=True)
    e.add_argument("--mesh", required=True,
                   help="the mesh both correspondences index into")
    e.add_argument("--out", required=True, help="output CSV")

    d = sub.add_parser("diagnose", help="exactness oracle + structure report")
    d.add_argument("--src", required=True)
    d.add_argument("--dst", required=True)
    d.add_argument("--out", default=None)
    d.add_argument("--k", type=int, default=30)
    d.add_argument("--desc", choices=DESC_CHOICES, default="stack")
    d.add_argument("--smooth-j", type=int, default=128, dest="smooth_j")
    d.add_argument("--smooth-t", type=float, default=0.0, dest="smooth_t")
    d.add_argument("--mu", type=float, default=1e-3)
    d.add_argument("--noise", type=float, default=0.0,
                   help="relative gaussian noise injected into the target stack")
    d.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "match":
            cfg = MatchConfig(
                src=args.src, dst=args.dst, out=args.out, k=args.k, desc=args.desc,
                smooth_j=args.smooth_j, smooth_t=args.smooth_t, mu=args.mu,
                refine=args.refine, refine_iters=args.refine_iters, tau=args.tau,
                convert=args.convert, landmarks=args.landmarks,
                landmark_t=args.landmark_t,
            )
            pm, _, _ = run_match(cfg)
            print(f"wrote {cfg.out} ({pm.n_target} vertices) and {cfg.out}.report")
        elif args.command == "eval":
            errors = run_eval(args.pred, args.gt, args.mesh, args.out)
            print(f"mean={float(errors.mean()):.6f}")
        elif args.command == "diagnose":
            cfg = DiagnoseConfig(
                src=args.src, dst=args.dst, out=args.out, k=args.k, desc=args.desc,
                smooth_j=args.smooth_j, smooth_t=args.smooth_t, mu=args.mu,
                noise=args.noise, seed=args.seed,
            )
            _, _, text = run_diagnose(cfg)
            print(text, end="")
    except InvalidK as exc:
        print(f"fmapkit: usage error: {exc}", file=sys.stderr)
        return 2
    except FmapError as exc:
        print(f"fmapkit: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
