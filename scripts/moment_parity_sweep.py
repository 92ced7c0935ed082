#!/usr/bin/env python3
"""Route-parity table: Fourier fast path vs truncated-box ODE oracle for the
first and second moments across the (b, c) case configurations and the
fig-z2 conversion law, then the epidemic pair correlations: the
many-to-two route (``correlation_ode``) against the origin slices of the
box pair ODE (``correlation_box_ode``, box radius 16), compared on the
oracle box less a margin of 4 sites so its absorbing edge stays out.

Usage: python scripts/moment_parity_sweep.py [--box L] [--times 0.5,1,2,5]
"""

import argparse

import numpy as np

from brw2.branching import BranchingLaw, TwoTypeModel
from brw2.epidemic import EpidemicLaw, correlation_box_ode, correlation_ode
from brw2.lattice import simple_kernel, uniform_range_kernel
from brw2.moments import (first_moment_field, first_moment_ode_oracle,
                          second_moment_field, second_moment_ode_oracle)

CASES = {
    "b=0,c=0": BranchingLaw(mu1=0.3, mu2=0.2, beta1={(2, 0): 0.2},
                            beta2={(0, 2): 0.15}),
    "b=0,c>0": BranchingLaw(mu1=0.3, mu2=0.15, beta1={(2, 0): 0.2},
                            beta2={(1, 1): 0.25}),
    "b>0,c=0": BranchingLaw(mu1=0.25, mu2=0.3, beta1={(1, 1): 0.25},
                            beta2={(0, 2): 0.2}),
    "b>0,c>0": BranchingLaw(mu1=0.25, mu2=0.375,
                            beta1={(2, 0): 0.125, (1, 1): 0.125},
                            beta2={(0, 2): 0.125, (1, 1): 0.25}),
    "bc=1e-8": BranchingLaw(mu1=0.2, mu2=0.1, beta1={(1, 1): 1e-4},
                            beta2={(1, 1): 1e-4}),
    # the fig-z2 infected/immune law: conversion makes b = r, c = 0
    "fig-z2": BranchingLaw(mu1=0.05, mu2=0.0, beta1={(2, 0): 0.5},
                           conversion_rate=0.45),
}

PAIR_CASES = {
    "fig-z2": EpidemicLaw(mu1=0.05, mu2=0.0, infection_rates={2: 0.5},
                          conversion_rate=0.45),
    "n=2,3": EpidemicLaw(mu1=0.05, mu2=0.1, infection_rates={2: 0.5, 3: 0.2},
                         conversion_rate=0.3),
}
PAIR_BOX = 16           # pair ODE oracle box radius; its states grow as L^(2d)
PAIR_MARGIN = 4


def _rel(new, old):
    return (np.abs(new - old) / (np.abs(old) + 1e-8)).max()


def pair_rows(times) -> None:
    """R11, R12, R22 of the many-to-two route against the box pair ODE."""
    k1, k2 = simple_kernel(1), uniform_range_kernel(1, 2)
    inner = slice(PAIR_MARGIN, 2 * PAIR_BOX + 1 - PAIR_MARGIN)
    print(f"{'pair case':>10} {'t':>5} {'rel d R11':>12} {'rel d R12':>12} "
          f"{'rel d R22':>12} {'flux':>9}")
    for name, law in PAIR_CASES.items():
        oracle = correlation_box_ode(law, k1, 1.0, k2, 1.5, times, PAIR_BOX)
        fields = correlation_ode(law, k1, 1.0, k2, 1.5, times, PAIR_BOX - PAIR_MARGIN)
        for ora, fld in zip(oracle, fields):
            d = [_rel(getattr(fld, n), ora.u_slice(n)[inner]) for n in ("r11", "r12", "r22")]
            print(f"{name:>10} {ora.t:>5.1f} {d[0]:>12.2e} {d[1]:>12.2e} {d[2]:>12.2e} "
                  f"{ora.boundary_mass:>9.1e}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--box", type=int, default=30)
    ap.add_argument("--times", default="0.5,1,2,5")
    args = ap.parse_args()
    times = [float(t) for t in args.times.split(",")]
    k1, k2 = simple_kernel(1), uniform_range_kernel(1, 2)
    print(f"{'case':>10} {'t':>5} {'|d m1|_inf':>12} {'rel d m2':>12} {'flux':>9}")
    for name, law in CASES.items():
        model = TwoTypeModel(k1, k2, 1.0, 1.0, law)
        o1 = first_moment_ode_oracle(model, times, args.box)
        o2 = second_moment_ode_oracle(model, times, args.box)
        for f1o, f2o in zip(o1, o2):
            f1 = first_moment_field(model, f1o.t, args.box)
            f2 = second_moment_field(model, f2o.t, args.box)
            d1 = np.abs(f1.values - f1o.values).max()
            d2 = _rel(f2.values, f2o.values)
            print(f"{name:>10} {f1o.t:>5.1f} {d1:>12.2e} {d2:>12.2e} "
                  f"{f2o.boundary_mass:>9.1e}")
    pair_rows(times)


if __name__ == "__main__":
    main()
