"""Match a bumpy sphere against a vertex-permuted copy of itself.

Runs the pipeline three times: basis-complete random descriptors, the raw
HKS/WKS/xyz stack, and the complete descriptors contaminated with an
out-of-span component, so the effect of completeness on recovery is visible
side by side.
"""

import argparse

import numpy as np

from fmapkit import synth
from fmapkit.descriptors import (
    concat_features,
    default_hks_times,
    default_wks_energies,
    descriptor_hks,
    descriptor_wks,
    descriptor_xyz,
    normalize_columns,
)
from fmapkit.evaluate import accuracy_curve, geodesic_error
from fmapkit.fmap import convert_adjoint, convert_feature_nn, solve_fmap
from fmapkit.spectral import build_laplacian, eigenbasis


def raw_stack(mesh, basis, mass):
    parts = [
        descriptor_hks(basis, default_hks_times(basis.lam)),
        descriptor_wks(basis, *default_wks_energies(basis.lam)),
        descriptor_xyz(mesh),
    ]
    return normalize_columns(concat_features(parts), mass)


def run_variant(name, F1, F2, basis1, basis2, mu, perm, mesh1, convert="adjoint"):
    a1, a2 = basis1.project(F1), basis2.project(F2)
    C = solve_fmap(a1, a2, basis1.lam, basis2.lam, mu)
    if convert == "adjoint":
        pm = convert_adjoint(C, basis1.phi, basis2.phi)
    else:
        pm = convert_feature_nn(F1, F2)
    errors = geodesic_error(pm, perm, mesh1)
    exact = float(np.mean(pm == perm))
    curve = accuracy_curve(errors, [0.0, 1.0, 5.0])
    print(f"{name:>10s}: mean err {errors.mean():8.4f}   exact {exact:6.1%}   "
          f"acc@1 {curve[1]:6.1%}   acc@5 {curve[2]:6.1%}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--subdivisions", type=int, default=3,
                        help="sphere subdivision level (3 -> 642 vertices)")
    parser.add_argument("--k", type=int, default=30)
    parser.add_argument("--mu", type=float, default=1e-3)
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args(argv)

    mesh1 = synth.bumpy_sphere(args.subdivisions)
    mesh2, perm = synth.permuted_copy(mesh1, seed=args.seed)
    lap1, lap2 = build_laplacian(mesh1), build_laplacian(mesh2)
    basis1 = eigenbasis(lap1, args.k)
    basis2 = eigenbasis(lap2, args.k)
    print(f"{mesh1.n_vertices} vertices, k={args.k}, mu={args.mu}")

    rng = np.random.default_rng(3)
    F1 = basis1.phi @ rng.standard_normal((args.k, 2 * args.k))
    run_variant("complete", F1, F1[perm], basis1, basis2, args.mu, perm, mesh1)

    f1 = raw_stack(mesh1, basis1, lap1.mass)
    f2 = raw_stack(mesh2, basis2, lap2.mass)
    run_variant("raw stack", f1, f2, basis1, basis2, args.mu, perm, mesh1)

    # the contamination is mass-orthogonal to the basis span, so the adjoint
    # route shrugs it off; route the polluted stack through feature NN to
    # show the damage
    high = eigenbasis(lap2, 2 * args.k).phi[:, args.k:]
    S = np.random.default_rng(5).standard_normal((args.k, 2 * args.k))
    run_variant("polluted", F1, F1[perm] + high @ S, basis1, basis2, args.mu,
                perm, mesh1, convert="nn")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
