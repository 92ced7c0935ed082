"""Symmetric jump kernels on Z^d and their walk machinery.

A kernel assigns positive weights a(v) to a finite set of nonzero integer
displacements, normalized so that sum_v a(v) = 1 over v != 0 (the value
a(0) = -1 is implicit, so the weights sum to zero over all of Z^d).  The
Fourier symbol of the kernel diagonalizes the walk generator on the torus
[-pi, pi]^d, which turns the transition kernel of the continuous-time walk
into a single quadrature:

    p(t, x, y) = (2 pi)^{-d} int exp(kappa * ahat(theta) * t)
                              * cos(theta . (y - x)) dtheta.

The integrand is smooth and periodic, so a midpoint rule on a uniform theta
grid converges spectrally; ``ThetaGrid`` packages that rule.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "JumpKernel",
    "ThetaGrid",
    "fourier_symbol",
    "transition_probability",
    "transition_profile",
    "gaussian_asymptote",
    "gamma_constant",
    "simple_kernel",
    "uniform_range_kernel",
    "KernelError",
]


class KernelError(ValueError):
    """Raised when a jump-kernel literal violates a structural invariant."""


def _as_vector(v) -> tuple[int, ...]:
    if isinstance(v, (int, np.integer)):
        return (int(v),)
    return tuple(int(c) for c in v)


def _lattice_index(vectors: list[tuple[int, ...]], dim: int) -> int:
    """Index of the integer lattice spanned by ``vectors`` inside Z^d.

    Returns 0 if the span has rank < d.  Runs integer row echelon reduction
    (unimodular row operations preserve the spanned lattice); the index is
    the product of the pivots of the triangularized generating set.
    """
    m = [list(v) for v in vectors if any(v)]
    r0 = 0
    index = 1
    for col in range(dim):
        while True:
            nz = [i for i in range(r0, len(m)) if m[i][col] != 0]
            if len(nz) <= 1:
                break
            i_min = min(nz, key=lambda i: abs(m[i][col]))
            for i in nz:
                if i != i_min:
                    q = m[i][col] // m[i_min][col]
                    m[i] = [a - q * b for a, b in zip(m[i], m[i_min])]
        if not nz:
            return 0
        m[r0], m[nz[0]] = m[nz[0]], m[r0]
        index *= abs(m[r0][col])
        r0 += 1
    return index


@dataclass(frozen=True, eq=False)
class JumpKernel:
    """Symmetric, irreducible jump distribution on Z^d.

    ``weights`` maps nonzero displacement vectors to positive reals and is
    normalized at construction to sum to 1.  The covariance matrix
    B[k, j] = sum_v a(v) v_k v_j is precomputed; it is symmetric positive
    definite for every irreducible kernel.

    Immutable after construction and safe to share across threads.
    """

    dim: int
    offsets: np.ndarray = field(repr=False)   # (n, d) int64
    weights: np.ndarray = field(repr=False)   # (n,) float64, sums to 1
    covariance: np.ndarray = field(repr=False)  # (d, d)

    def __init__(self, dim: int, weights):
        if dim < 1:
            raise KernelError(f"lattice dimension must be >= 1, got {dim}")
        items = [( _as_vector(v), float(w)) for v, w in dict(weights).items()]
        if not items:
            raise KernelError("kernel support is empty")
        table = {v: w for v, w in items}
        for v, w in table.items():
            if len(v) != dim:
                raise KernelError(f"displacement {v} does not have dimension {dim}")
            if all(c == 0 for c in v):
                raise KernelError("displacement (0,...,0) may not carry weight")
            if not (w > 0) or not math.isfinite(w):
                raise KernelError(f"weight for displacement {v} must be positive, got {w}")
            mv = tuple(-c for c in v)
            if mv not in table or not math.isclose(table[mv], w, rel_tol=1e-12, abs_tol=0.0):
                raise KernelError(f"kernel is not symmetric at displacement {v}")
        total = sum(table.values())
        if not math.isfinite(total) or total <= 0:
            raise KernelError(f"kernel weights are not normalizable (sum={total})")
        if _lattice_index(list(table), dim) != 1:
            raise KernelError("kernel support does not generate Z^d (walk is reducible)")

        order = sorted(table)
        offsets = np.array(order, dtype=np.int64)
        w = np.array([table[v] / total for v in order], dtype=np.float64)
        cov = (offsets.T * w) @ offsets.astype(np.float64)
        eigs = np.linalg.eigvalsh(cov)
        if eigs.min() <= 0:
            raise KernelError("covariance matrix is not positive definite")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "covariance", cov)

    # -- structural helpers -------------------------------------------------
    @property
    def support(self) -> list[tuple[int, ...]]:
        return [tuple(int(c) for c in v) for v in self.offsets]


def simple_kernel(dim: int = 1) -> JumpKernel:
    """Nearest-neighbour kernel: a(+-e_k) = 1/(2d)."""
    w = {}
    for k in range(dim):
        for s in (1, -1):
            v = [0] * dim
            v[k] = s
            w[tuple(v)] = 1.0 / (2 * dim)
    return JumpKernel(dim, w)


def uniform_range_kernel(dim: int, reach: int) -> JumpKernel:
    """Uniform weights on the punctured box {v != 0 : |v_k| <= reach}."""
    vs = [v for v in itertools.product(range(-reach, reach + 1), repeat=dim)
          if any(c != 0 for c in v)]
    return JumpKernel(dim, {v: 1.0 / len(vs) for v in vs})


@dataclass(frozen=True)
class ThetaGrid:
    """Midpoint tensor rule for torus integrals over [-pi, pi]^d.

    Axis nodes are theta_k = -pi + (k + 1/2) * 2 pi / M, so the grid is
    symmetric under theta -> -theta, and the rule takes (2 pi)^{-d} times an
    integral to be the mean of the integrand over the ``n_points`` nodes.
    """

    dim: int
    nodes_per_axis: int

    # The largest grid ``moments.fit_grid`` may pick, per dimension; the
    # Fourier routes fit a smaller one per call unless given a grid.
    DEFAULT_NODES = {1: 256, 2: 128, 3: 64}

    def __post_init__(self):
        m = self.nodes_per_axis
        if m < 2 or m % 2 != 0:
            raise ValueError(f"nodes_per_axis must be a positive even integer, got {m}")

    @classmethod
    def for_dim(cls, dim: int, nodes_per_axis: int | None = None) -> "ThetaGrid":
        if nodes_per_axis is None:
            nodes_per_axis = cls.DEFAULT_NODES.get(dim, 32)
        return cls(dim, nodes_per_axis)

    @property
    def axis_nodes(self) -> np.ndarray:
        m = self.nodes_per_axis
        return -np.pi + (np.arange(m) + 0.5) * (2 * np.pi / m)

    @property
    def points(self) -> np.ndarray:
        """All grid nodes, shape (M^d, d)."""
        axes = [self.axis_nodes] * self.dim
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    @property
    def n_points(self) -> int:
        return self.nodes_per_axis ** self.dim


def _grid_symbol(kernel: JumpKernel, grid: ThetaGrid) -> np.ndarray:
    """ahat over every node of ``grid``, flat in ``grid.points`` order.

    The weights sit in a table over the distinct values of each offset
    coordinate, and e^{i theta . v} factors into per-axis phases
    e^{i theta_k v_k}, so one tensordot per axis contracts the table onto
    the grid.  The symmetric kernel makes the sum real up to round-off.
    """
    axes = [np.unique(kernel.offsets[:, k], return_inverse=True)
            for k in range(kernel.dim)]
    table = np.zeros(tuple(len(vals) for vals, _ in axes), dtype=complex)
    table[tuple(inv for _, inv in axes)] = kernel.weights
    for vals, _ in axes:
        # tensordot appends the new grid axis, so after d passes the axes
        # are (theta_1, ..., theta_d)
        phase = np.exp(1j * np.outer(grid.axis_nodes, vals))
        table = np.tensordot(table, phase, axes=([0], [1]))
    return table.real.ravel() - 1.0


def fourier_symbol(kernel: JumpKernel, theta) -> np.ndarray | float:
    """Symbol ahat(theta) = sum_v a(v) cos(theta . v) - 1.

    ``theta`` has shape (..., d) (or scalar for d = 1); the result drops the
    last axis.  ``theta`` may also be a ``ThetaGrid``: the symbol is then
    evaluated by per-axis phase tables and returned flat in ``grid.points``
    order.  Always real by symmetry, with ahat(0) = 0 and ahat <= 0.
    """
    if isinstance(theta, ThetaGrid):
        if theta.dim != kernel.dim:
            raise ValueError(
                f"grid has dimension {theta.dim}, kernel has dimension {kernel.dim}")
        return _grid_symbol(kernel, theta)
    th = np.asarray(theta, dtype=np.float64)
    scalar_1d = kernel.dim == 1 and (th.ndim == 0 or th.shape[-1:] != (1,))
    if scalar_1d:
        th = th.reshape(th.shape + (1,))
    if th.shape[-1] != kernel.dim:
        raise ValueError(
            f"theta has dimension {th.shape[-1]}, kernel has dimension {kernel.dim}")
    out = np.cos(th @ kernel.offsets.T.astype(np.float64)) @ kernel.weights - 1.0
    return float(out) if out.ndim == 0 else out


def transition_profile(kernel: JumpKernel, kappa: float, t: float,
                       displacements: np.ndarray, grid: ThetaGrid) -> np.ndarray:
    """p(t, 0, s) for an array of displacements s, shape (n, d) -> (n,)."""
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    if kappa < 0:
        raise ValueError(f"kappa must be nonnegative, got {kappa}")
    if grid.dim != kernel.dim:
        raise ValueError("grid dimension does not match kernel dimension")
    pts = grid.points
    damp = np.exp(kappa * fourier_symbol(kernel, grid) * t)
    disp = np.atleast_2d(np.asarray(displacements, dtype=np.float64))
    vals = np.empty(disp.shape[0])
    for lo in range(0, disp.shape[0], 512):  # bound the phase-matrix footprint
        block = disp[lo:lo + 512]
        vals[lo:lo + 512] = np.cos(block @ pts.T) @ damp / grid.n_points
    return np.clip(vals, 0.0, 1.0)


def transition_probability(kernel: JumpKernel, kappa: float, t: float,
                           x, y, grid: ThetaGrid) -> float:
    """Transition probability p(t, x, y) of the rate-``kappa`` walk.

    Spatially homogeneous: computed through the difference y - x only.
    The quadrature residue is clamped into [0, 1].
    """
    s = np.asarray(_as_vector(y), dtype=np.int64) - np.asarray(_as_vector(x), dtype=np.int64)
    if s.shape != (kernel.dim,):
        raise ValueError(f"sites must have dimension {kernel.dim}")
    return float(transition_profile(kernel, kappa, t, s[None, :], grid)[0])


def gamma_constant(kernel: JumpKernel, kappa: float) -> float:
    """Leading constant of p(t, 0, 0) ~ gamma / t^{d/2} for the rate-kappa walk."""
    d = kernel.dim
    det_b = float(np.linalg.det(kernel.covariance))
    return (2 * np.pi * kappa) ** (-d / 2.0) / math.sqrt(det_b)


def gaussian_asymptote(kernel: JumpKernel, kappa: float, t: float, s) -> float:
    """Local CLT value exp(-(B^{-1}s, s) / (2 kappa t)) / ((2 pi kappa t)^{d/2} sqrt(det B)).

    The covariance of the rate-kappa walk is kappa * B, i.e. kappa multiplies
    the kernel covariance once; at s = 0 this reduces to gamma_d / t^{d/2}.
    """
    if t <= 0:
        raise ValueError(f"time must be positive, got {t}")
    sv = np.asarray(_as_vector(s), dtype=np.float64)
    d = kernel.dim
    b = kernel.covariance
    quad = float(sv @ np.linalg.solve(b, sv))
    det_b = float(np.linalg.det(b))
    return math.exp(-quad / (2 * kappa * t)) / ((2 * np.pi * kappa * t) ** (d / 2.0) * math.sqrt(det_b))
