"""Two-type branching intensities and their derived spectral quantities.

A branching law consists of death rates mu_i, offspring intensities
beta_i(k, l) for k + l >= 2 (a type-i particle is replaced by k type-1 and
l type-2 particles), and an optional type-1 -> type-2 conversion rate r.
The derived scalars

    b  = sum_l l beta_1(k, l) + r        (type-1 parents seeding type 2)
    c  = sum_k k beta_2(k, l)            (type-2 parents seeding type 1)
    r1 = sum (k - 1) beta_1 - mu_1 - r   (net type-1 growth exponent)
    r2 = sum (l - 1) beta_2 - mu_2

feed both the mean-offspring matrix D = [[r1, b], [c, r2]] whose Perron root
classifies the process, and the Fourier-space coefficients
a(theta) = kappa_1 ahat_1(theta) + r1, d(theta) = kappa_2 ahat_2(theta) + r2
that drive every moment formula.  Conversion moves one type-1 particle to
type 2, so it enters b and r1 only and adds no factorial term.

All types here are immutable after construction and freely shareable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .lattice import JumpKernel, fourier_symbol

__all__ = [
    "BranchingLaw",
    "DerivedConstants",
    "TwoTypeModel",
    "Classification",
    "ThetaCoefficients",
    "derive_constants",
    "classify_criticality",
    "theta_coefficients",
    "LawError",
]

CRITICALITY_TOL = 1e-12


class LawError(ValueError):
    """Raised when a branching-law literal violates a structural invariant."""


def _normalize_beta(entries, which: str) -> tuple[tuple[int, int, float], ...]:
    out = []
    for key, rate in dict(entries).items():
        k, l = int(key[0]), int(key[1])
        rate = float(rate)
        if k < 0 or l < 0:
            raise LawError(f"{which}({k},{l}): offspring counts must be nonnegative")
        if k + l < 2:
            raise LawError(
                f"{which}({k},{l}): offspring pairs with k+l < 2 are not storable "
                "(type changes are modeled by the conversion rate only)")
        if rate < 0 or not math.isfinite(rate):
            raise LawError(f"{which}({k},{l}): rate must be finite and >= 0, got {rate}")
        if rate > 0:
            out.append((k, l, rate))
    return tuple(sorted(out))


@dataclass(frozen=True)
class BranchingLaw:
    """Branching intensities for both types plus the conversion rate."""

    mu1: float
    mu2: float
    beta1: tuple[tuple[int, int, float], ...] = ()
    beta2: tuple[tuple[int, int, float], ...] = ()
    conversion_rate: float = 0.0

    def __init__(self, mu1: float, mu2: float, beta1=(), beta2=(),
                 conversion_rate: float = 0.0):
        mu1, mu2, r = float(mu1), float(mu2), float(conversion_rate)
        for name, v in (("mu1", mu1), ("mu2", mu2), ("conversion_rate", r)):
            if v < 0 or not math.isfinite(v):
                raise LawError(f"{name} must be finite and >= 0, got {v}")
        b1 = _normalize_beta(_to_items(beta1), "beta1")
        b2 = _normalize_beta(_to_items(beta2), "beta2")
        object.__setattr__(self, "mu1", mu1)
        object.__setattr__(self, "mu2", mu2)
        object.__setattr__(self, "beta1", b1)
        object.__setattr__(self, "beta2", b2)
        object.__setattr__(self, "conversion_rate", r)


def _to_items(entries):
    if isinstance(entries, dict):
        return entries
    return {(k, l): rate for k, l, rate in entries}


@dataclass(frozen=True)
class DerivedConstants:
    """Scalar and matrix quantities derived from a branching law."""

    b: float
    c: float
    r1: float
    r2: float
    factorial_density: np.ndarray = field(repr=False)  # (2, 2, 2): b^{(i)}_{jk}
    matrix_d: np.ndarray = field(repr=False)           # [[r1, b], [c, r2]]
    perron_root: float = 0.0
    left_eig: np.ndarray = field(default=None, repr=False)
    right_eig: np.ndarray = field(default=None, repr=False)
    defective: bool = False


def derive_constants(law: BranchingLaw) -> DerivedConstants:
    """All derived scalars plus the explicit 2x2 eigen-decomposition of D."""
    b1, b2 = law.beta1, law.beta2
    b = sum(l * r for _, l, r in b1) + law.conversion_rate
    c = sum(k * r for k, _, r in b2)
    r1 = sum((k - 1) * r for k, _, r in b1) - law.mu1 - law.conversion_rate
    r2 = sum((l - 1) * r for _, l, r in b2) - law.mu2
    dens = np.zeros((2, 2, 2))
    for i, entries in ((0, b1), (1, b2)):
        dens[i, 0, 0] = sum(k * (k - 1) * r for k, _, r in entries)
        dens[i, 0, 1] = dens[i, 1, 0] = sum(k * l * r for k, l, r in entries)
        dens[i, 1, 1] = sum(l * (l - 1) * r for _, l, r in entries)
    matrix_d = np.array([[r1, b], [c, r2]])
    # Perron root of D: (r1 + r2)/2 + sqrt((r1 - r2)^2 + 4bc)/2
    root = 0.5 * (r1 + r2) + 0.5 * math.sqrt((r1 - r2) ** 2 + 4 * b * c)

    defective = False
    if b > 0 and c > 0:
        # strictly positive off-diagonals: Perron pair has positive entries
        v = np.array([b, root - r1])
        u = np.array([c, root - r1])
    elif b == 0 and c == 0:
        idx = 0 if r1 >= r2 else 1
        v = np.eye(2)[idx]
        u = np.eye(2)[idx]
    else:
        # triangular D: eigenvalues are r1, r2
        if b > 0:   # c == 0
            v = np.array([1.0, 0.0]) if root == r1 else np.array([b, r2 - r1])
            u = np.array([r1 - r2, b]) if root == r1 else np.array([0.0, 1.0])
        else:       # c > 0, b == 0
            v = np.array([r1 - r2, c]) if root == r1 else np.array([0.0, 1.0])
            u = np.array([1.0, 0.0]) if root == r1 else np.array([c, r1 - r2])
        if abs(r1 - r2) < CRITICALITY_TOL:
            defective = True    # Jordan block, no biorthogonal pair exists
    dot = float(u @ v)
    if abs(dot) > CRITICALITY_TOL and not defective:
        v = v / np.abs(v).sum()
        u = u / (u @ v)
    else:
        defective = True
    return DerivedConstants(
        b=b, c=c, r1=r1, r2=r2, factorial_density=dens,
        matrix_d=matrix_d, perron_root=root, left_eig=u, right_eig=v,
        defective=defective)


class Classification(NamedTuple):
    criticality: str      # "subcritical" | "critical" | "supercritical"
    structure: str        # "irreducible" | "reducible"
    positivity: float | None   # sum_i v_i b^{(i)}_{jk} u_j u_k, None if reducible


def classify_criticality(dc: DerivedConstants, law: BranchingLaw) -> Classification:
    """Criticality of the mean matrix D, with the 2x2 reducibility flag.

    Critical demands both a vanishing Perron root and a positive second
    factorial form in the Perron pair; for a reducible D the classification
    falls back to the root sign alone and the form is not applicable.
    """
    irreducible = dc.matrix_d[0, 1] > 0 and dc.matrix_d[1, 0] > 0
    structure = "irreducible" if irreducible else "reducible"
    positivity = None
    if irreducible and not dc.defective:
        u, v = dc.left_eig, dc.right_eig
        positivity = float(sum(
            v[i] * dc.factorial_density[i, j, k] * u[j] * u[k]
            for i in range(2) for j in range(2) for k in range(2)))
    root = dc.perron_root
    if abs(root) < CRITICALITY_TOL and (positivity is None or positivity > 0):
        crit = "critical"
    elif root > CRITICALITY_TOL:
        crit = "supercritical"
    elif root < -CRITICALITY_TOL:
        crit = "subcritical"
    else:
        crit = "critical"
    return Classification(crit, structure, positivity)


@dataclass(frozen=True)
class TwoTypeModel:
    """Complete BRW specification: one (kernel, kappa) pair per type plus the law."""

    kernel1: JumpKernel
    kernel2: JumpKernel
    kappa1: float
    kappa2: float
    law: BranchingLaw
    derived: DerivedConstants = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kernel1.dim != self.kernel2.dim:
            raise LawError("both kernels must live on the same lattice dimension")
        if self.kappa1 < 0 or self.kappa2 < 0:
            raise LawError("diffusion coefficients must be >= 0")
        object.__setattr__(self, "derived", derive_constants(self.law))

    @property
    def dim(self) -> int:
        return self.kernel1.dim

    def kernel(self, ptype: int) -> JumpKernel:
        return self.kernel1 if ptype == 1 else self.kernel2

    def kappa(self, ptype: int) -> float:
        return self.kappa1 if ptype == 1 else self.kappa2

    def equal_generators(self) -> bool:
        k1, k2 = self.kernel1, self.kernel2
        return (self.kappa1 == self.kappa2 and k1.support == k2.support
                and np.allclose(k1.weights, k2.weights, rtol=1e-14, atol=0))


class ThetaCoefficients(NamedTuple):
    a: np.ndarray        # kappa_1 ahat_1(theta) + r1
    d: np.ndarray        # kappa_2 ahat_2(theta) + r2


def theta_coefficients(model: TwoTypeModel, theta) -> ThetaCoefficients:
    """Fourier-space drift coefficients at ``theta``, an array of points or
    a ``ThetaGrid`` (see ``fourier_symbol``); the characteristic roots live
    in ``moments.fundamental_solution``."""
    dc = model.derived
    a = model.kappa1 * fourier_symbol(model.kernel1, theta) + dc.r1
    d = model.kappa2 * fourier_symbol(model.kernel2, theta) + dc.r2
    return ThetaCoefficients(a, d)
