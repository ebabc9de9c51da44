"""Sweep high-frequency contamination of the target descriptors.

Starts from basis-complete corresponding stacks, injects an out-of-span
component of increasing amplitude into the target side, and tabulates the
oracle's completeness and adjoint-vs-NN agreement at each level. Optionally
writes the table as CSV.
"""

import argparse
from pathlib import Path

import numpy as np

from fmapkit import synth
from fmapkit.diagnostics import theorem_oracle
from fmapkit.spectral import build_laplacian, eigenbasis


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--subdivisions", type=int, default=3)
    parser.add_argument("--k", type=int, default=30)
    parser.add_argument("--levels", type=float, nargs="+",
                        default=[0.0, 0.1, 0.25, 0.5, 1.0, 2.0])
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--out", default=None, help="optional CSV path")
    args = parser.parse_args(argv)

    mesh1 = synth.bumpy_sphere(args.subdivisions)
    mesh2, perm = synth.permuted_copy(mesh1, seed=11)
    lap1, lap2 = build_laplacian(mesh1), build_laplacian(mesh2)
    basis1 = eigenbasis(lap1, args.k)
    basis2 = eigenbasis(lap2, args.k)

    rng = np.random.default_rng(3)
    d = 2 * args.k
    F1 = basis1.phi @ rng.standard_normal((args.k, d))
    F2 = F1[perm]
    # contamination lives strictly above the basis band on the target shape
    high = eigenbasis(lap2, 2 * args.k).phi[:, args.k:]
    S = np.random.default_rng(args.seed).standard_normal((args.k, d))

    rows = []
    print(f"{'level':>7s} {'completeness2':>14s} {'agreement':>10s} {'residual':>10s}")
    for level in args.levels:
        v = theorem_oracle(F1, F2 + level * (high @ S), basis1, basis2)
        print(f"{level:7.2f} {v.completeness2:14.6f} {v.agreement:10.4f} "
              f"{v.fmap_residual:10.2e}")
        rows.append((level, v.completeness2, v.agreement, v.fmap_residual))

    if args.out:
        lines = ["level,completeness2,agreement,fmap_residual"]
        lines += [",".join(repr(float(x)) for x in row) for row in rows]
        Path(args.out).write_text("\n".join(lines) + "\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
