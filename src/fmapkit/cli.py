"""Command-line interface: match, eval, diagnose.

Each flag is one field of MatchConfig, DiagnoseConfig or _EvalFlags, and the
parser is generated from those fields: a field with no default is a required
flag, and an option left out takes its field's default, which `--help` shows.
The parser is built on the first main() call and reused by every later one.

A caller that runs commands in one process against a recurring shape
prepares it once. Every command loads meshes through mesh.load_mesh, which
parses a file text once while it is among the MESH_CACHE_SIZE most recently
loaded, and keeps what is derived from a mesh with it (mesh.derived):
`match` and `diagnose` its eigenbasis, for the last basis size only, so a
basis is solved once whatever the descriptor options; `eval` its landmark
rows. Descriptors are rebuilt on every call; separate processes share
nothing. A cold and a warm cache give the same output bytes.

Exit codes: 0 on success, 2 for usage problems (bad flags, out-of-range
or infinite values, k exceeding the vertex count), 3 for data problems
(parse failures, degenerate meshes, disconnected components, rank or
eigensolver failures) and for an output file that cannot be written.
Given identical inputs and flags, every command writes byte-identical outputs
at any BLAS thread count where fmapkit controls the BLAS (OpenBLAS; see
fmapkit._blas), and at a fixed thread count elsewhere. That holds per
numpy/scipy/OpenBLAS build and per CPU kernel OpenBLAS selects: on another
kernel the `.report` floats differ.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import MISSING, dataclass, field, fields
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
)
from .diagnostics import build_structure_report, theorem_oracle
from .errors import FmapError, InvalidK
from .evaluate import geodesic_error, write_error_report
from .fmap import DEFAULT_MU, DEFAULT_TAU, convert_adjoint, convert_feature_nn, solve_fmap
from .mesh import derived, load_correspondence, load_mesh, read_table, save_correspondence
from .refine import refine_proper
from .spectral import SpectralBasis, build_laplacian, eigenbasis, smooth_features, _smoothing_size

DESC_CHOICES = ("xyz", "hks", "wks", "stack")
REFINE_CHOICES = ("none", "proper-adjoint", "proper-feature")
CONVERT_CHOICES = ("adjoint", "nn")


def _checked(kind, ok, bound):
    """argparse type: `kind` of the text, which must pass `ok` (else exit 2)."""
    def parse(text):
        if not ok(value := kind(text)):
            raise argparse.ArgumentTypeError(f"must be {bound}, got {text!r}")
        return value
    parse.__name__ = kind.__name__   # argparse names the type in its errors
    return parse


_POSITIVE_INT = _checked(int, lambda v: v > 0, "> 0")
_NONNEG_INT = _checked(int, lambda v: v >= 0, ">= 0")
_POSITIVE = _checked(float, lambda v: 0 < v < np.inf, "finite and > 0")
_NONNEG = _checked(float, lambda v: 0 <= v < np.inf, "finite and >= 0")


def _flag(help, default=MISSING, **argparse_kw):
    """A config field that is also a flag: its help, argparse `type` and `choices` ride along."""
    return field(default=default, metadata={"help": help, **argparse_kw})


@dataclass(kw_only=True)
class _PairConfig:
    """The flags `match` and `diagnose` share; DiagnoseConfig re-declares `desc`."""

    src: str = _flag("source mesh (the map points INTO it)")
    dst: str = _flag("target mesh (one map entry per vertex)")
    k: int = _flag("spectral basis size", 30, type=_POSITIVE_INT)
    desc: str = _flag("descriptor family", "hks", choices=DESC_CHOICES)
    smooth_j: int = _flag("smoothing basis size (clamped to the vertex count)", 128,
                          type=_POSITIVE_INT)
    smooth_t: float = _flag("smoothing diffusion time", 0.0, type=_NONNEG)
    mu: float = _flag("commutativity regularizer weight", DEFAULT_MU, type=_NONNEG)


@dataclass(kw_only=True)
class MatchConfig(_PairConfig):
    out: str = _flag("output correspondence file")
    refine: str = _flag("properness refinement", "none", choices=REFINE_CHOICES)
    refine_iters: int = _flag("refinement iterations", 10, type=_POSITIVE_INT)
    tau: float = _flag("soft map temperature", DEFAULT_TAU, type=_POSITIVE)
    convert: str = _flag("pointwise map from C's adjoint or from descriptor nearest neighbours",
                         "adjoint", choices=CONVERT_CHOICES)
    landmarks: str | None = _flag("file of 'i j' landmark pairs (src dst)", None)
    landmark_t: float = _flag("landmark diffusion time", 0.1, type=_NONNEG)


@dataclass(kw_only=True)
class DiagnoseConfig(_PairConfig):
    desc: str = _flag("descriptor family", "stack", choices=DESC_CHOICES)
    out: str | None = _flag("also write the printed text to this file", None)
    noise: float = _flag("relative gaussian noise injected into the target stack", 0.0,
                         type=_NONNEG)
    seed: int = _flag("seed of the noise and the oracle's probe maps", 0, type=_NONNEG_INT)


@dataclass(kw_only=True)
class _EvalFlags:
    """`eval`'s flags, declared only: main passes them to run_eval as arguments."""

    pred: str = _flag(None)
    gt: str = _flag(None)
    mesh: str = _flag("the mesh both correspondences index into")
    out: str = _flag("output CSV")


def load_landmark_pairs(path):
    """Landmark file: one 'i j' pair per line; its two int64 columns (src, dst)."""
    pairs = read_table(path, "landmark", width=2)
    return pairs[:, 0], pairs[:, 1]


def _build_stack(mesh, basis_k, desc, landmarks, landmark_t):
    parts = []
    if desc in ("hks", "stack"):
        parts.append(descriptor_hks(basis_k, default_hks_times(basis_k.lam)))
    if desc in ("wks", "stack"):
        energies, sigma = default_wks_energies(basis_k.lam)
        parts.append(descriptor_wks(basis_k, energies, sigma))
    if desc in ("xyz", "stack"):
        parts.append(descriptor_xyz(mesh))
    if len(landmarks):
        parts.append(descriptor_landmarks(basis_k, landmarks, landmark_t))
    return concat_features(parts)


def _basis(mesh, size: int) -> SpectralBasis:
    """The mesh's first `size` eigenpairs, read-only, kept with the mesh.

    A mesh keeps one basis (mesh.derived): asked again for that size it is
    reused, whatever the descriptor options; another size is solved anew.
    """
    def solve():
        basis = eigenbasis(build_laplacian(mesh), size)
        for arr in (basis.lam, basis.phi, basis.mass):
            arr.flags.writeable = False
        return basis

    return derived(mesh, "basis", size, solve)


def _prepare_side(mesh, cfg: _PairConfig, landmarks=(), landmark_t=None):
    """One shape's truncated basis and smoothed, mass-normalized descriptor stack."""
    j = _smoothing_size(cfg.smooth_j, mesh.n_vertices)
    basis = _basis(mesh, max(cfg.k, j))
    # truncate copies, so the full-size prefix is the cached basis itself
    basis_k = basis if cfg.k == basis.k else basis.truncate(cfg.k)
    basis_j = basis if j == basis.k else basis.truncate(j)
    stack = _build_stack(mesh, basis_k, cfg.desc, landmarks, landmark_t)
    smoothed = smooth_features(basis_j, stack, cfg.smooth_t)
    return basis_k, normalize_columns(smoothed, basis.mass)


def run_match(cfg: MatchConfig):
    """Full matching pipeline; returns (point_map, C, report)."""
    mesh1, mesh2 = load_mesh(cfg.src), load_mesh(cfg.dst)
    lm1, lm2 = load_landmark_pairs(cfg.landmarks) if cfg.landmarks else ([], [])
    basis1, f1 = _prepare_side(mesh1, cfg, lm1, cfg.landmark_t)
    basis2, f2 = _prepare_side(mesh2, cfg, lm2, cfg.landmark_t)
    C = solve_fmap(project_coeffs(basis1, f1), project_coeffs(basis2, f2),
                   basis1.lam, basis2.lam, cfg.mu)
    if cfg.refine != "none":
        # adjoint mode ignores the descriptor stacks
        C, _ = refine_proper(C, basis1, basis2, iters=cfg.refine_iters,
                             mode=cfg.refine.removeprefix("proper-"),
                             F1=f1, F2=f2, tau=cfg.tau)
    if cfg.convert == "adjoint":
        pm = convert_adjoint(C, basis1.phi, basis2.phi)
    else:
        pm = convert_feature_nn(f1, f2)
    save_correspondence(pm, cfg.out)
    report = build_structure_report(C, basis1, basis2, f1, f2,
                                    adjoint=pm if cfg.convert == "adjoint" else None)
    Path(cfg.out + ".report").write_text(report.to_text())
    return pm, C, report


def run_eval(pred, gt, mesh, out):
    """Geodesic errors of map file `pred` against `gt` on `mesh`, as CSV `out`."""
    errors = geodesic_error(load_correspondence(pred), load_correspondence(gt),
                            load_mesh(mesh))
    write_error_report(errors, out)
    return errors


def run_diagnose(cfg: DiagnoseConfig):
    mesh1, mesh2 = load_mesh(cfg.src), load_mesh(cfg.dst)
    basis1, f1 = _prepare_side(mesh1, cfg)
    basis2, f2 = _prepare_side(mesh2, cfg)
    if cfg.noise > 0:
        rng = np.random.default_rng(cfg.seed)
        scale = float(f2.std()) or 1.0
        f2 = f2 + cfg.noise * scale * rng.standard_normal(f2.shape)
    verdict = theorem_oracle(f1, f2, basis1, basis2, seed=cfg.seed)
    C = solve_fmap(project_coeffs(basis1, f1), project_coeffs(basis2, f2),
                   basis1.lam, basis2.lam, cfg.mu)
    report = build_structure_report(C, basis1, basis2, f1, f2, verdict=verdict)
    text = verdict.to_text() + "\n" + report.to_text()
    if cfg.out:
        Path(cfg.out).write_text(text)
    return verdict, report, text


# command -> (the dataclass whose fields are its flags, its line in `fmapkit --help`)
_COMMANDS = {
    "match": (MatchConfig, "estimate a correspondence between two meshes"),
    "eval": (_EvalFlags, "geodesic-error evaluation of a correspondence"),
    "diagnose": (DiagnoseConfig, "exactness oracle + structure report"),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process and shared by every main() call; parse_args
    # keeps no state between calls. No flag has a default of its own: an
    # absent flag is absent from the namespace, so the config's field
    # default applies (and --help shows it).
    parser = argparse.ArgumentParser(
        prog="fmapkit",
        description="Spectral functional-map shape correspondence toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (config, line) in _COMMANDS.items():
        p = sub.add_parser(command, argument_default=argparse.SUPPRESS, help=line)
        for f in fields(config):
            kw = dict(f.metadata, required=f.default is MISSING)
            if f.default is not MISSING and f.default is not None:
                kw["help"] += f" (default: {f.default})"
            p.add_argument("--" + f.name.replace("_", "-"), **kw)
    return parser


def main(argv=None) -> int:
    """Run one command; returns its exit code (argparse exits 2 itself)."""
    opts = vars(_build_parser().parse_args(argv))
    command = opts.pop("command")
    try:
        if command == "match":
            cfg = MatchConfig(**opts)
            pm, _, _ = run_match(cfg)
            print(f"wrote {cfg.out} ({len(pm)} vertices) and {cfg.out}.report")
        elif command == "eval":
            errors = run_eval(**opts)
            print(f"mean={float(errors.mean()):.6f}")
        else:
            _, _, text = run_diagnose(DiagnoseConfig(**opts))
            print(text, end="")
    except InvalidK as exc:
        print(f"fmapkit: usage error: {exc}", file=sys.stderr)
        return 2
    except FmapError as exc:
        print(f"fmapkit: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"fmapkit: out of memory: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:   # inputs are read through ParseError, so this is an output
        print(f"fmapkit: cannot write {exc.filename}: {exc.strerror or exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
