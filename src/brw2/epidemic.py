"""Infected/immune two-type model: moments and pair correlations.

Type 1 (infected) particles walk, die at rate mu1, infect n - 1 new
particles at rate b_n, and build immunity (convert to type 2) at rate r;
type 2 (immune) particles only walk and die.  With

    beta = sum (n - 1) b_n,     beta2 = sum n (n - 1) b_n,
    A    = beta - mu1 - r,

this is the two-type law beta_1(n, 0) = b_n with conversion rate r, for
which the generic moment engine has r1 = A, b = r and c = 0.  The first
moments R1 = m_11 and R2 = m_12 and the second moment of the infected count

    M2(t,x,y) = M1(t,x,y) + beta2 int_0^t sum_w M1(t-s,x,w) M1^2(s,w,y) ds

are therefore views of ``brw2.moments``, and ``moments.second_moment_ode_oracle``
on the same law is their independent box-ODE check.  The pair correlations
R11, R12, R22 at (0, u) follow from the many-to-two formula: one time
integral over products of first-moment fields, evaluated by FFT on the
theta grid's torus (``correlation_ode``).  Their independent check is the
linear ODE system they close into, integrated over full (x, y) boxes
(``correlation_box_ode``): the single-particle initial condition
delta_0(x) delta_0(y) is not translation invariant, so no difference
reduction is applied to its stored fields.

Everything here is pure evaluation; box integrations own their state and
distinct times can be computed concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

import numpy as np

from .branching import BranchingLaw, TwoTypeModel, theta_coefficients
from .lattice import JumpKernel, ThetaGrid
from .moments import (BOUNDARY_TOL, BoxTransform, _as_times, _doubling_quadrature,
                      _first_moment_box, _moment_symbols, _phase_sum,
                      _second_moment_symbols, _solve_chained, box_sites,
                      build_box_generator, first_moment_symbols, torus_field,
                      torus_symbols)

__all__ = [
    "EpidemicLaw",
    "CorrelationField",
    "PairSlices",
    "M2Value",
    "RatioPoint",
    "epidemic_first_moment_profiles",
    "epidemic_m2",
    "intermittency_ratio",
    "correlation_ode",
    "correlation_box_ode",
    "max_pair_window",
]

M1_FLOOR = 1e-280


@dataclass(frozen=True)
class EpidemicLaw:
    """Infection intensities b_n (n >= 2), death rates, and conversion rate."""

    mu1: float
    mu2: float
    infection_rates: tuple[tuple[int, float], ...]
    conversion_rate: float
    beta: float = field(init=False)
    beta2: float = field(init=False)
    growth: float = field(init=False)    # A = beta - mu1 - r

    def __init__(self, mu1: float, mu2: float, infection_rates,
                 conversion_rate: float = 0.0):
        mu1, mu2, r = float(mu1), float(mu2), float(conversion_rate)
        for name, v in (("mu1", mu1), ("mu2", mu2), ("conversion_rate", r)):
            if v < 0 or not math.isfinite(v):
                raise ValueError(f"{name} must be finite and >= 0, got {v}")
        rates = []
        for n, bn in dict(infection_rates).items():
            n, bn = int(n), float(bn)
            if n < 2:
                raise ValueError(f"infection entry n={n}: requires n >= 2")
            if bn < 0 or not math.isfinite(bn):
                raise ValueError(f"infection rate b_{n} must be finite and >= 0")
            if bn > 0:
                rates.append((n, bn))
        rates = tuple(sorted(rates))
        beta = sum((n - 1) * bn for n, bn in rates)
        beta2 = sum(n * (n - 1) * bn for n, bn in rates)
        object.__setattr__(self, "mu1", mu1)
        object.__setattr__(self, "mu2", mu2)
        object.__setattr__(self, "infection_rates", rates)
        object.__setattr__(self, "conversion_rate", r)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "beta2", beta2)
        object.__setattr__(self, "growth", beta - mu1 - r)

    def to_branching_law(self) -> BranchingLaw:
        """Map onto the generic engine: beta_1(n, 0) = b_n, beta_2 = 0."""
        return BranchingLaw(
            mu1=self.mu1, mu2=self.mu2,
            beta1={(n, 0): bn for n, bn in self.infection_rates},
            beta2={}, conversion_rate=self.conversion_rate)


# ---------------------------------------------------------------------------
# first and second moments: views of the generic engine
# ---------------------------------------------------------------------------

def _vec(x):
    return (x,) if isinstance(x, (int, np.integer)) else tuple(x)


def epidemic_first_moment_profiles(law: EpidemicLaw, kernel1: JumpKernel,
                                   kappa1: float, kernel2: JumpKernel, kappa2: float,
                                   t: float, box_radius: int,
                                   grid: ThetaGrid | None = None):
    """(R1, R2) fields over the box, started from one infected at the origin.

    R1 = m_11 and R2 = m_12 of the generic engine: R1hat = e^{pt} and
    R2hat = r (e^{pt} - e^{qt}) / (p - q) with p = kappa1 ahat1 + A and
    q = kappa2 ahat2 - mu2.
    """
    model = TwoTypeModel(kernel1, kernel2, kappa1, kappa2, law.to_branching_law())
    grid = grid or ThetaGrid.for_dim(model.dim)
    m1 = _first_moment_box(model, t, BoxTransform(grid, box_radius))
    return m1[0, 0], m1[0, 1]


class M2Value(NamedTuple):
    value: float
    boundary_mass: float
    degraded: bool


def epidemic_m2(law: EpidemicLaw, kernel1: JumpKernel, kappa1: float, t: float,
                x, y, grid: ThetaGrid | None = None, box_radius: int = 30) -> M2Value:
    """M2(t, x, y) = m^(2)_11(t, y - x) of the generic Duhamel route.

    Immune particles never infect, so the type-2 walk does not enter m_11
    and kernel1 stands in for it.  The symbol is summed against the cosine
    phase of u = y - x, so u may lie outside the box, which only truncates
    the squared first-moment profile inside the time integral.
    ``boundary_mass`` is the worst box-mass defect of that profile over the
    time nodes; ``degraded`` also flags a quadrature that hit its node cap.
    """
    model = TwoTypeModel(kernel1, kernel1, kappa1, kappa1, law.to_branching_law())
    grid = grid or ThetaGrid.for_dim(model.dim)
    sym2, defect, converged = _second_moment_symbols(model, t, grid,
                                                     BoxTransform(grid, box_radius))
    u = np.asarray(_vec(y), dtype=np.float64) - np.asarray(_vec(x), dtype=np.float64)
    return M2Value(value=float(_phase_sum(sym2[0, 0], grid, u)), boundary_mass=defect,
                   degraded=defect > BOUNDARY_TOL or not converged)


@dataclass(frozen=True)
class RatioPoint:
    t: float
    ratio: float | None
    m1: float
    m2: float
    in_sqrt_regime: bool
    flagged: bool


def intermittency_ratio(law: EpidemicLaw, kernel1: JumpKernel, kappa1: float,
                        t_list, x, y, grid: ThetaGrid | None = None,
                        box_radius: int = 30, regime_c: float = 2.0) -> list[RatioPoint]:
    """Pointwise M2 / M1^2 along ``t_list``.

    Each point records whether |x - y| <= regime_c * sqrt(t); M1 underflow
    (below the floor) yields a flagged point instead of a fabricated ratio.
    """
    u = np.asarray(_vec(y), dtype=float) - np.asarray(_vec(x), dtype=float)
    dist = float(np.linalg.norm(u))
    g = grid or ThetaGrid.for_dim(kernel1.dim)
    model = TwoTypeModel(kernel1, kernel1, kappa1, kappa1, law.to_branching_law())
    out = []
    for t in sorted(float(v) for v in t_list):
        m2 = epidemic_m2(law, kernel1, kappa1, t, x, y, g, box_radius)
        m1 = float(_phase_sum(first_moment_symbols(model, t, g.points)[0, 0], g, u))
        in_regime = dist <= regime_c * math.sqrt(t) if t > 0 else True
        if m1 <= M1_FLOOR:
            out.append(RatioPoint(t=t, ratio=None, m1=m1, m2=m2.value,
                                  in_sqrt_regime=in_regime, flagged=True))
        else:
            out.append(RatioPoint(t=t, ratio=m2.value / m1 ** 2, m1=m1, m2=m2.value,
                                  in_sqrt_regime=in_regime, flagged=m2.degraded))
    return out


# ---------------------------------------------------------------------------
# correlation functions R11, R12, R22
# ---------------------------------------------------------------------------

def _flat_index(x, box_radius: int) -> int:
    """Row-major index of site x among ``box_sites(box_radius, d)``."""
    xv = _vec(x)
    if any(abs(int(c)) > box_radius for c in xv):
        raise ValueError(f"site {x} outside box of radius {box_radius}")
    side = 2 * box_radius + 1
    flat = 0
    for c in xv:
        flat = flat * side + (int(c) + box_radius)
    return flat


@dataclass(frozen=True)
class PairSlices:
    """Origin slices R(t, 0, u) over |u| <= box_radius, from one infected at 0.

    ``r11``, ``r12`` and ``r22`` hold E[N1(0) N1(u)], E[N1(0) N2(u)] and
    E[N2(0) N2(u)], and ``r1``, ``r2`` the first moments R1(t, u), R2(t, u),
    each flattened over ``box_sites(box_radius, dim)``.  ``boundary_mass``
    is the worst torus-shell mass of the first-moment fields inside the
    time integral; ``degraded`` is set when it exceeds the tolerance or the
    quadrature stopped at its node cap (``converged`` False).
    """

    t: float
    box_radius: int
    dim: int
    r1: np.ndarray = field(repr=False)
    r2: np.ndarray = field(repr=False)
    r11: np.ndarray = field(repr=False)
    r12: np.ndarray = field(repr=False)
    r22: np.ndarray = field(repr=False)
    boundary_mass: float = 0.0
    degraded: bool = False
    converged: bool = True

    def value(self, name: str, u) -> float:
        return float(getattr(self, name)[_flat_index(u, self.box_radius)])


def max_pair_window(nodes_per_axis: int) -> int:
    """Largest output radius of ``correlation_ode`` on M nodes per axis: M // 4.

    The pair symbols are cyclic convolutions on the torus, so a term g(w)
    R(u - w) with |u - w| >= M/2 lands on the window wrapped by M.  With
    |u| <= M/4 such a pair has |w| + |u - w - M| >= 3M/4 in the wrapped
    coordinate, so one factor sits on the 3M/8 shell that ``boundary_mass``
    measures; past M/4 both can sit inside it, unmeasured.
    """
    return nodes_per_axis // 4


def correlation_ode(law: EpidemicLaw, kernel1: JumpKernel, kappa1: float,
                    kernel2: JumpKernel, kappa2: float, t, box_radius: int,
                    boundary_tol: float = BOUNDARY_TOL, grid: ThetaGrid | None = None):
    """Pair correlations R_ij(t, 0, u) by the many-to-two formula on the torus.

    Only infected particles branch, beta2 ordered pairs per unit rate, so
    with g_s = R1(s) R1(t - s) and h_s = R1(s) R2(t - s) pointwise,

        F11^(t, theta) = beta2 int_0^t g_s^(theta) R1^(t - s, theta) ds,
        F12^(t, theta) = beta2 int_0^t g_s^(theta) R2^(t - s, theta) ds,
        F22^(t, theta) = beta2 int_0^t h_s^(theta) R2^(t - s, theta) ds,

    and R11 = F11 + delta_{u0} R1(t, 0), R12 = F12, R22 = F22 + delta_{u0}
    R2(t, 0) (Harris & Roberts, "The many-to-few lemma and multiple
    spines", Ann. IHP 2017).  R1^ and R2^ are the generic engine's
    first-moment symbols; fields and products live on the theta grid's
    torus window (``moments.torus_field``), and the time integral is the
    engine's Gauss-Legendre doubling loop.  ``box_radius`` is only the
    output window and needs box_radius <= M/4 (``max_pair_window``).
    ``boundary_mass`` is the largest mass of R1(s), R1(t - s) and R2(t - s)
    on the torus shell (some |x_k| >= 3M/8) over the nodes: within that
    window every wrapped term of the cyclic convolution has a factor on the
    shell, so the wrap-around error is of the order of this mass.

    The name is kept from the box ODE this route replaced, now
    ``correlation_box_ode``, because the benchmark wraps this function by
    name; the signature is the ODE's plus ``grid``.  ``t`` may be a scalar
    or an increasing sequence; one ``PairSlices`` per time is returned.
    """
    times, scalar = _as_times(t)
    model = TwoTypeModel(kernel1, kernel2, kappa1, kappa2, law.to_branching_law())
    grid = grid or ThetaGrid.for_dim(model.dim)
    m, dim = grid.nodes_per_axis, model.dim
    if box_radius > max_pair_window(m):
        raise ValueError(f"output window of radius {box_radius} needs at least "
                         f"{4 * box_radius} grid nodes per axis, got {m}")
    dc = model.derived
    coef = theta_coefficients(model, grid.points)
    shell = (np.abs(np.indices((m,) * dim) - m // 2) >= 3 * m / 8).any(axis=0)
    window = (Ellipsis,) + (slice(m // 2 - box_radius, m // 2 + box_radius + 1),) * dim

    def node_sum(tv, s, w):
        sym_s = _moment_symbols(coef, dc, s[:, None])[0, 0]              # R1^(s)
        sym_r = _moment_symbols(coef, dc, (tv - s)[:, None])[0]          # R^(t - s)
        f_s = torus_field(sym_s, grid)
        f_r = torus_field(sym_r, grid)
        gh = torus_symbols(f_s * f_r, grid).real                          # g^, h^
        part = np.stack([gh[0] * sym_r[0], gh[0] * sym_r[1], gh[1] * sym_r[1]])
        mass = max(np.abs(f_s[..., shell]).sum(axis=-1).max(),
                   np.abs(f_r[..., shell]).sum(axis=-1).max())
        return law.beta2 * np.tensordot(part, w, axes=([1], [0])), float(mass)

    out = []
    for tv in times:
        pair, mass, converged = _doubling_quadrature(
            tv, np.zeros((3, grid.n_points)), partial(node_sum, tv),
            lambda sym: torus_field(sym, grid)[window])
        r1, r2 = torus_field(_moment_symbols(coef, dc, tv)[0], grid)[window]
        r11, r12, r22 = torus_field(pair, grid)[window]
        origin = (box_radius,) * dim
        r11[origin] += r1[origin]
        r22[origin] += r2[origin]
        out.append(PairSlices(
            t=tv, box_radius=box_radius, dim=dim,
            r1=r1.ravel(), r2=r2.ravel(), r11=r11.ravel(), r12=r12.ravel(),
            r22=r22.ravel(), boundary_mass=mass, converged=converged,
            degraded=mass > boundary_tol or not converged))
    return out[0] if scalar else out


# ---------------------------------------------------------------------------
# box-ODE oracle for the pair correlations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CorrelationField:
    """Pair correlation fields over box x box, started from one infected at 0.

    ``r11``/``r22`` are symmetric in (x, y) by representation; ``r12`` is
    E[N1(x) N2(y)] and is not.  The fields are stored over full pairs: the
    localized initial condition breaks translation invariance, so u = y - x
    reduction is exposed only as origin-anchored slices (``u_slice``).
    """

    t: float
    box_radius: int
    dim: int
    r1: np.ndarray = field(repr=False)
    r2: np.ndarray = field(repr=False)
    r11: np.ndarray = field(repr=False)
    r12: np.ndarray = field(repr=False)
    r22: np.ndarray = field(repr=False)
    boundary_mass: float = 0.0
    degraded: bool = False

    def _idx(self, x) -> int:
        return _flat_index(x, self.box_radius)

    def pair(self, name: str, x, y) -> float:
        return float(getattr(self, name)[self._idx(x), self._idx(y)])

    def first(self, name: str, x) -> float:
        return float(getattr(self, name)[self._idx(x)])

    def u_slice(self, name: str) -> np.ndarray:
        """Origin-anchored slice R(t, 0, u) over the box (not homogeneous)."""
        return getattr(self, name)[self._idx((0,) * self.dim)].copy()


def _full_jump_matrix(kernel: JumpKernel, box_radius: int) -> np.ndarray:
    """Dense a(x - y) over box pairs, with the a(0) = -1 convention."""
    sites = box_sites(box_radius, kernel.dim)
    n = len(sites)
    out = np.zeros((n, n))
    diff = sites[:, None, :] - sites[None, :, :]
    for off, w in zip(kernel.offsets, kernel.weights):
        out[(diff == off[None, None, :]).all(axis=2)] = w
    np.fill_diagonal(out, -1.0)
    return out


def correlation_box_ode(law: EpidemicLaw, kernel1: JumpKernel, kappa1: float,
                        kernel2: JumpKernel, kappa2: float, t, box_radius: int,
                        boundary_tol: float = BOUNDARY_TOL):
    """Oracle: co-integrate {R1, R2, R11, R12, R22} on the truncated box.

    A small-box check of ``correlation_ode``, over full (x, y) pairs; the
    rate-weighted flux killed at the box edge is the fields'
    ``boundary_mass``.

    The diagonal sources follow the forward-equation derivation validated
    against Monte Carlo: with q = beta2 - beta + mu1 + r,

        dR11 has delta_x(y) [q R1 + (L1 R1)(x)] and the off-diagonal
        correction -kappa1 a1(x - y) (R1(x) + R1(y)) taken with a1(0) = -1
        (whose diagonal value supplies the +2 kappa1 R1 term),

    and symmetrically for R22 with source [(L2 R2)(x) + mu2 R2 + r R1].
    """
    times, scalar = _as_times(t)
    op1, out1 = build_box_generator(kernel1, kappa1, box_radius)
    op2, out2 = build_box_generator(kernel2, kappa2, box_radius)
    af1 = kappa1 * _full_jump_matrix(kernel1, box_radius)
    af2 = kappa2 * _full_jump_matrix(kernel2, box_radius)
    n = op1.shape[0]
    center = (n - 1) // 2
    a_gr, mu2, r = law.growth, law.mu2, law.conversion_rate
    q_diag = law.beta2 - law.beta + law.mu1 + r
    op2t = op2.T.tocsr()

    def unpack(yv):
        r1 = yv[:n]
        r2 = yv[n:2 * n]
        r11 = yv[2 * n:2 * n + n * n].reshape(n, n)
        r12 = yv[2 * n + n * n:2 * n + 2 * n * n].reshape(n, n)
        r22 = yv[2 * n + 2 * n * n:2 * n + 3 * n * n].reshape(n, n)
        return r1, r2, r11, r12, r22

    def rhs(_s, yv):
        r1, r2, r11, r12, r22 = unpack(yv)
        dr1 = op1 @ r1 + a_gr * r1
        dr2 = op2 @ r2 - mu2 * r2 + r * r1
        # R11, R22 and the generators are symmetric (JumpKernel rejects
        # asymmetric weights), so r11 @ op1.T = (op1 @ r11).T: one sparse
        # product per pair field.  The in-place adds keep the peak memory of
        # the two-product form.
        d11 = op1 @ r11
        d11 += d11.T
        d11 += 2.0 * a_gr * r11 - af1 * (r1[:, None] + r1[None, :])
        d11[np.diag_indices(n)] += q_diag * r1 + op1 @ r1
        d12 = (op1 @ r12 + r12 @ op2t + (a_gr - mu2) * r12 + r * r11)
        d12[np.diag_indices(n)] -= r * r1
        d22 = op2 @ r22
        d22 += d22.T
        d22 += (r * (r12 + r12.T) - 2.0 * mu2 * r22
                - af2 * (r2[:, None] + r2[None, :]))
        d22[np.diag_indices(n)] += op2 @ r2 + mu2 * r2 + r * r1
        dflux = np.array([out1 @ r1 + out2 @ r2])
        return np.concatenate([dr1, dr2, d11.ravel(), d12.ravel(), d22.ravel(), dflux])

    y0 = np.zeros(2 * n + 3 * n * n + 1)
    y0[center] = 1.0
    y0[2 * n + center * n + center] = 1.0      # R11(0) = delta_0(x) delta_0(y)
    states = _solve_chained(rhs, y0, times,
                            max_step=4.0 / (kappa1 + kappa2 + abs(a_gr) + mu2 + r + 1.0))
    out = []
    for tv, col in zip(times, states):
        r1, r2, r11, r12, r22 = unpack(col)
        flux = float(abs(col[-1]))
        out.append(CorrelationField(
            t=tv, box_radius=box_radius, dim=kernel1.dim,
            r1=r1.copy(), r2=r2.copy(),
            r11=0.5 * (r11 + r11.T), r12=r12.copy(), r22=0.5 * (r22 + r22.T),
            boundary_mass=flux, degraded=flux > boundary_tol))
    return out[0] if scalar else out
