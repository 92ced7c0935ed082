"""Infected/immune two-type model: moments and pair correlations.

Type 1 (infected) particles walk, die at rate mu1, infect n - 1 new
particles at rate b_n, and build immunity (convert to type 2) at rate r;
type 2 (immune) particles only walk and die.  This is a ``BranchingLaw``
with type-1 entries beta_1(n, 0) = b_n, no type-2 entries and conversion
rate r, run as a ``TwoTypeModel``; every route here takes that model.  Its
derived constants (``derive_constants``) carry the epidemic's scalars:

    r1 = sum (n - 1) b_n - mu1 - r    the infected growth rate A,
    b  = r,  c = 0,  r2 = -mu2,
    dens[0, 0, 0] = sum n (n - 1) b_n,

the last the ordered infected pairs born per unit rate.  Its moments are
views of ``brw2.moments`` read at start type 1 (one infected at the
origin): the first moments R1 = m_11 and R2 = m_12; the second moment of
the infected count

    M2(t,x,y) = M1(t,x,y) + dens[0,0,0] int_0^t sum_w M1(t-s,x,w) M1^2(s,w,y) ds,

the many-to-two diagonal (``epidemic_m2``); and the pair correlations R11,
R12, R22 at (0, u), its origin slice (``correlation_ode``).
``moments.second_moment_ode_oracle`` on the same model is the independent
box-ODE check of M2.  The pair correlations' independent check is the
linear ODE system they close into, integrated over full (x, y) boxes
(``correlation_box_ode``): the single-particle initial condition
delta_0(x) delta_0(y) is not translation invariant, so no difference
reduction is applied to its stored fields.  The intermittency ratio
M2 / M1^2 at the origin is a column of ``brw2 epidemic``'s output.

Everything here is pure evaluation; box integrations own their state and
distinct times can be computed concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .branching import TwoTypeModel
from .lattice import JumpKernel, ThetaGrid
from .moments import (BOUNDARY_TOL, _as_times, _clip_roundoff, _first_moment_torus,
                      _many_to_two_symbols, _phase_sum, _solve_chained, _window, box_sites,
                      build_box_generator, first_moment_symbols, fit_grid, torus_field)

__all__ = [
    "CorrelationField",
    "PairSlices",
    "M2Value",
    "epidemic_first_moment_profiles",
    "epidemic_m2",
    "correlation_ode",
    "correlation_box_ode",
]


# ---------------------------------------------------------------------------
# first and second moments: views of the generic engine
# ---------------------------------------------------------------------------

def _vec(x):
    return (x,) if isinstance(x, (int, np.integer)) else tuple(x)


def _reach(u: np.ndarray) -> int:
    """Sup-norm radius of the window that holds the offset u."""
    return math.ceil(np.abs(u).max())


def epidemic_first_moment_profiles(model: TwoTypeModel, t: float, box_radius: int,
                                   grid: ThetaGrid | None = None):
    """(R1, R2) fields on the output window |x_k| <= box_radius, started from
    one infected at the origin.

    R1 = m_11 and R2 = m_12 of the generic engine: R1hat = e^{pt} and
    R2hat = b (e^{pt} - e^{qt}) / (p - q) with p = kappa1 ahat1 + r1 and
    q = kappa2 ahat2 + r2.  The window is cut from the torus fields and
    may reach ``max_pair_window``.  Without a ``grid`` the grid is fitted
    (``moments.fit_grid``).
    """
    grid = grid or fit_grid(model, t, box_radius)
    window = _window(grid, box_radius)
    m1 = _clip_roundoff(_first_moment_torus(model, t, grid)[0][window])
    return m1[0], m1[1]


class M2Value(NamedTuple):
    value: float
    boundary_mass: float
    degraded: bool


def epidemic_m2(model: TwoTypeModel, t: float, x, y,
                grid: ThetaGrid | None = None) -> M2Value:
    """M2(t, x, y) = m^(2)_11(t, y - x), start row 1 of the moment engine's
    many-to-two diagonal (``moments._many_to_two_symbols``); only the
    infected start row is integrated.  The symbol is summed against the
    cosine phase of u = y - x, so u need not lie in any window; the
    quadrature's tail test reads the whole torus field.  This integral is
    kept apart from the origin slice that gives R11(t, 0, 0)
    (``correlation_ode``), so the two stay independent routes to one value.
    ``boundary_mass`` is the worst ``_defect`` of the first-moment fields
    over the time nodes, its wrap bound taken at output radius
    max |u_k|; ``degraded`` also flags a quadrature that hit its node cap.
    Without a ``grid`` the grid is fitted to the window of that radius
    (``moments.fit_grid``).
    """
    u = np.asarray(_vec(y), dtype=np.float64) - np.asarray(_vec(x), dtype=np.float64)
    grid = grid or fit_grid(model, t, _reach(u))
    sym2, mass, converged = _many_to_two_symbols(model, t, grid, [0], reach=_reach(u))
    return M2Value(value=float(_phase_sum(sym2[0, 0], grid, u)), boundary_mass=mass,
                   degraded=mass > BOUNDARY_TOL or not converged)


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
    is the worst ``moments._defect`` of the first-moment fields inside the
    time integral: their window-sum gap plus the bound on the terms that
    the cyclic products wrap into the window.  ``degraded`` is set when it
    exceeds BOUNDARY_TOL or the quadrature stopped at its node cap
    (``converged`` False).
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


def correlation_ode(model: TwoTypeModel, t, box_radius: int,
                    grid: ThetaGrid | None = None):
    """Pair correlations R_ij(t, 0, u), start row 1 of the moment engine's
    many-to-two origin slice (``moments._many_to_two_symbols``).

    The engine gives the factorial parts F_jl(t, 0, u) of E[N_j(0) N_l(u)]
    (Harris & Roberts, "The many-to-few lemma and multiple spines", Ann.
    IHP 2017); only infected particles branch, dens[0, 0, 0] ordered pairs
    per unit rate, so F11^ = dens[0, 0, 0] int_0^t FT[R1(t - s) R1(s)] R1^(s) ds, and F12,
    F22 likewise.  This reads (1, 1), (1, 2) and (2, 2) and adds the
    single-particle terms: R11 = F11 + delta_{u0} R1(t, 0), R12 = F12,
    R22 = F22 + delta_{u0} R2(t, 0).  ``box_radius`` is only the output
    window, cut from the torus, and needs box_radius <= M/4
    (``max_pair_window``); without a ``grid`` the grid is fitted for the
    largest time (``moments.fit_grid``).  ``boundary_mass`` is the largest
    ``moments._defect`` of R1 and R2 over the time nodes: their window-sum
    gap plus a bound on the terms of the cyclic convolutions that wrap into
    the output window (``moments._wrap_bound``), which never reads below
    the error measured against the largest grid.

    The name is kept from the box ODE this route replaced, now
    ``correlation_box_ode``, because the benchmark wraps this function by
    name.  ``t`` may be a scalar or an increasing sequence; one
    ``PairSlices`` per time is returned.
    """
    times, scalar = _as_times(t)
    grid = grid or fit_grid(model, max(times), box_radius)
    window = _window(grid, box_radius)
    out = []
    for tv in times:
        pair, mass, converged = _many_to_two_symbols(model, tv, grid, [0], origin=True,
                                                     window=window, reach=box_radius)
        r1, r2 = torus_field(first_moment_symbols(model, tv, grid)[0], grid)[window]
        r11, r12, r22 = torus_field(pair[0, [0, 0, 1], [0, 1, 1]], grid)[window]
        origin = (box_radius,) * model.dim
        r11[origin] += r1[origin]
        r22[origin] += r2[origin]
        out.append(PairSlices(
            t=tv, box_radius=box_radius, dim=model.dim,
            r1=r1.ravel(), r2=r2.ravel(), r11=r11.ravel(), r12=r12.ravel(),
            r22=r22.ravel(), boundary_mass=mass, converged=converged,
            degraded=mass > BOUNDARY_TOL or not converged))
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


def correlation_box_ode(model: TwoTypeModel, t, box_radius: int):
    """Oracle: co-integrate {R1, R2, R11, R12, R22} on the truncated box.

    A small-box check of ``correlation_ode``, over full (x, y) pairs; the
    rate-weighted flux killed at the box edge is the fields'
    ``boundary_mass``.

    The system is closed for the epidemic law only: type-1 entries
    beta_1(n, 0), no type-2 branching.  Any other law raises ValueError.
    Its rates are the model's derived constants: growth A = r1, conversion
    r = b, immune death mu2 = -r2, and pair births beta2 = dens[0, 0, 0].
    The diagonal sources follow the forward-equation derivation validated
    against Monte Carlo: with q = beta2 - A,

        dR11 has delta_x(y) [q R1 + (L1 R1)(x)] and the off-diagonal
        correction -kappa1 a1(x - y) (R1(x) + R1(y)) taken with a1(0) = -1
        (whose diagonal value supplies the +2 kappa1 R1 term),

    and symmetrically for R22 with source [(L2 R2)(x) + mu2 R2 + r R1].
    """
    law = model.law
    if law.beta2 or any(l for _, l, _ in law.beta1):
        raise ValueError("the pair box ODE needs an epidemic law: type-1 entries "
                         "beta1(n, 0) only and no type-2 branching")
    times, scalar = _as_times(t)
    op1, out1 = build_box_generator(model.kernel1, model.kappa1, box_radius)
    op2, out2 = build_box_generator(model.kernel2, model.kappa2, box_radius)
    af1 = model.kappa1 * _full_jump_matrix(model.kernel1, box_radius)
    af2 = model.kappa2 * _full_jump_matrix(model.kernel2, box_radius)
    n = op1.shape[0]
    center = (n - 1) // 2
    dc = model.derived
    a_gr, mu2, r = dc.r1, -dc.r2, dc.b
    q_diag = dc.factorial_density[0, 0, 0] - a_gr
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
    states = _solve_chained(rhs, y0, times, max_step=4.0 / (
        model.kappa1 + model.kappa2 + abs(a_gr) + mu2 + r + 1.0))
    out = []
    for tv, col in zip(times, states):
        r1, r2, r11, r12, r22 = unpack(col)
        flux = float(abs(col[-1]))
        out.append(CorrelationField(
            t=tv, box_radius=box_radius, dim=model.dim,
            r1=r1.copy(), r2=r2.copy(),
            r11=0.5 * (r11 + r11.T), r12=r12.copy(), r22=0.5 * (r22 + r22.T),
            boundary_mass=flux, degraded=flux > BOUNDARY_TOL))
    return out[0] if scalar else out
