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
R12, R22 at (0, u), its origin slice (``correlation_ode``).  The
intermittency ratio M2 / M1^2 at the origin is a column of
``brw2 epidemic``'s output.

Everything here is pure evaluation; distinct times can be computed
concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .branching import TwoTypeModel
from .lattice import ThetaGrid
from .moments import (BOUNDARY_TOL, _as_times, _clip_roundoff, _first_moment_torus,
                      _flat_index, _many_to_two_symbols, _phase_sum, _window,
                      first_moment_symbols, fit_grid, torus_field)

__all__ = [
    "PairSlices",
    "M2Value",
    "epidemic_first_moment_profiles",
    "epidemic_m2",
    "correlation_ode",
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
        return float(getattr(self, name)[_flat_index(u, self.box_radius, self.dim)])


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

    The name is that of the box ODE this route replaced, kept because the
    benchmark wraps this function by name; the box check of these slices,
    for any law, is ``moments.pair_moment_ode_oracle``.  ``t`` may be a
    scalar or an increasing sequence; one ``PairSlices`` per time is
    returned.
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
