"""Refine a noise-perturbed proper map and record the residual trace.

Perturbs the ground-truth functional map with gaussian noise, runs the
properness fixed-point iteration, prints the per-iteration residual next to
the geodesic error of the intermediate maps, and writes the trace CSV.
"""

import argparse

import numpy as np

from fmapkit import synth
from fmapkit.evaluate import geodesic_error
from fmapkit.fmap import convert_adjoint, properness_project
from fmapkit.refine import refine_proper, write_trace
from fmapkit.spectral import build_laplacian, eigenbasis


def mean_error(C, basis1, basis2, perm, mesh1):
    pm = convert_adjoint(C, basis1.phi, basis2.phi)
    return float(geodesic_error(pm, perm, mesh1).mean())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--subdivisions", type=int, default=3)
    parser.add_argument("--k", type=int, default=30)
    parser.add_argument("--noise", type=float, default=0.1)
    parser.add_argument("--iters", type=int, default=10)
    parser.add_argument("--tau", type=float, default=0.07)
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--out", default="refinement_trace.csv")
    args = parser.parse_args(argv)

    mesh1 = synth.bumpy_sphere(args.subdivisions)
    mesh2, perm = synth.permuted_copy(mesh1, seed=11)
    basis1 = eigenbasis(build_laplacian(mesh1), args.k)
    basis2 = eigenbasis(build_laplacian(mesh2), args.k)
    C_gt = properness_project(perm, basis1, basis2)

    noise = np.random.default_rng(args.seed).standard_normal(C_gt.shape)
    C0 = C_gt + args.noise * noise
    print(f"start: mean geodesic error "
          f"{mean_error(C0, basis1, basis2, perm, mesh1):.6f}")

    # re-run one iteration at a time so the error per iterate is visible
    C = C0
    residuals = []
    for i in range(args.iters):
        C, step = refine_proper(C, basis1, basis2, iters=1, tau=args.tau)
        residuals.append(float(step[0]))
        err = mean_error(C, basis1, basis2, perm, mesh1)
        print(f"iter {i + 1:2d}: residual {residuals[-1]:.6e}   "
              f"mean error {err:.6f}")

    write_trace(residuals, args.out)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
