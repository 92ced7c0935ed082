"""First and second subpopulation moments by two independent routes.

Route one (fast path) solves the Fourier-space moment equations in closed
form: for each theta the pair (m_1j, m_2j) obeys a constant-coefficient 2x2
linear system with matrix [[a(theta), b], [c, d(theta)]], so the moment
matrix in theta-space is exactly the fundamental solution U(t; theta), and
second moments follow from Duhamel's formula

    mhat2(t) = U(t) mhat2(0) + int_0^t U(t - s) f(s) ds,

where the source f is a theta-convolution of first-moment symbols, computed
here as the transform of the pointwise product of box fields (the two are
equal up to the shared truncation error, at O(S) cost per time node).  The
integrand is smooth in s, so the time integral uses Gauss-Legendre nodes,
doubling their number until two successive fields agree
(``_doubling_quadrature``, shared with the epidemic pair route).
``torus_field`` and ``torus_symbols`` transform between the grid symbols and
fields on the whole torus window [-M/2, M/2)^d by FFT, with no box.

Type conversion (the infected/immune epidemic) is part of the branching
law's derived constants, so the epidemic module reads its moments off this
engine rather than carrying its own.

Route two (oracle path) integrates the same equations on a truncated box of
the lattice with absorbing boundary, by an explicit adaptive Runge-Kutta
scheme.  The two routes share nothing but the model parameters, which makes
their agreement a meaningful cross-check; the rate-weighted probability
flux killed at the boundary is reported so callers can assert the
truncation is negligible instead of guessing a box radius.

All evaluations are pure functions of immutable inputs; concurrent calls at
distinct (t, x) are safe, and each oracle integration owns its state.
"""

from __future__ import annotations

import gc
import itertools
from dataclasses import dataclass, field
from functools import partial

import numpy as np
import scipy.fft
import scipy.sparse
from numpy.polynomial.legendre import leggauss
from scipy.integrate import solve_ivp

from .branching import DerivedConstants, ThetaCoefficients, TwoTypeModel, \
    theta_coefficients
from .lattice import JumpKernel, ThetaGrid, gamma_constant

__all__ = [
    "MomentField",
    "BoxTransform",
    "torus_field",
    "torus_symbols",
    "box_sites",
    "build_box_generator",
    "fundamental_solution",
    "first_moment_symbols",
    "first_moment_field",
    "first_moment_ode_oracle",
    "second_moment_field",
    "second_moment_ode_oracle",
    "first_moment_asymptote",
]

ODE_RTOL = 1e-7
ODE_ATOL = 1e-9
BOUNDARY_TOL = 1e-6
QUAD_TOL = 1e-8
QUAD_START_NODES = 16
QUAD_MAX_NODES = 512
QUAD_BLOCK = 48          # time nodes evaluated at once, bounding memory


# ---------------------------------------------------------------------------
# box geometry and transforms
# ---------------------------------------------------------------------------

def box_sites(box_radius: int, dim: int) -> np.ndarray:
    """All lattice sites with sup-norm <= box_radius, shape (S, d), row-major."""
    rng = range(-box_radius, box_radius + 1)
    return np.array(list(itertools.product(rng, repeat=dim)), dtype=np.int64)


def _box_shape(box_radius: int, dim: int) -> tuple[int, ...]:
    return (2 * box_radius + 1,) * dim


def _clip_roundoff(values: np.ndarray, band: float = 1e-8) -> np.ndarray:
    """Zero the small negative residue of quadrature/integration round-off.

    Moments are nonnegative; values below -band are left alone so genuine
    sign errors stay visible to the tests.
    """
    return np.where((values < 0.0) & (values > -band), 0.0, values)


class BoxTransform:
    """Exact lattice <-> theta-grid transforms for fields on a box.

    With M midpoint nodes per axis and box radius L the grid inverts the
    finite transform exactly (up to round-off) as long as M > 4L, because
    the first aliasing image of any box site lies a full period M away.
    """

    def __init__(self, grid: ThetaGrid, box_radius: int):
        if grid.nodes_per_axis <= 4 * box_radius:
            raise ValueError(
                f"grid with {grid.nodes_per_axis} nodes/axis cannot resolve a box of "
                f"radius {box_radius}; need nodes_per_axis > {4 * box_radius}")
        self.grid = grid
        self.box_radius = box_radius
        self.dim = grid.dim
        xs = np.arange(-box_radius, box_radius + 1, dtype=np.float64)
        # E[k, i] = exp(1j * theta_k * x_i), one axis
        self._fwd = np.exp(1j * np.outer(grid.axis_nodes, xs))
        self._inv = self._fwd.conj() / grid.nodes_per_axis   # (M, S), used transposed

    def _apply(self, arr: np.ndarray, mat: np.ndarray) -> np.ndarray:
        # contract the trailing `dim` axes one at a time; tensordot appends
        # the new axis at the end, so after d passes the order is restored
        for _ in range(self.dim):
            arr = np.tensordot(arr, mat, axes=([arr.ndim - self.dim], [1]))
        return arr

    def to_theta(self, box_field: np.ndarray) -> np.ndarray:
        """Forward transform; trailing box axes -> one flattened theta axis."""
        out = self._apply(np.asarray(box_field, dtype=complex), self._fwd)
        return out.reshape(out.shape[:out.ndim - self.dim] + (-1,))

    def to_box(self, symbols: np.ndarray) -> np.ndarray:
        """Inverse transform; flattened theta axis -> trailing box axes (real part)."""
        arr = np.asarray(symbols, dtype=complex)
        m = self.grid.nodes_per_axis
        arr = arr.reshape(arr.shape[:-1] + (m,) * self.dim)
        return self._apply(arr, self._inv.T).real


def _window_twiddle(grid: ThetaGrid, sign: int) -> np.ndarray:
    """e^{sign i (pi - pi/M) x} over the window [-M/2, M/2)^d in FFT order
    (x mod M), shape (M,)*d."""
    m = grid.nodes_per_axis
    x = np.arange(-m // 2, m // 2)
    axis = scipy.fft.ifftshift(np.exp(sign * 1j * (np.pi - np.pi / m) * x))
    out = axis
    for _ in range(grid.dim - 1):
        out = np.multiply.outer(out, axis)
    return out


def torus_field(symbols: np.ndarray, grid: ThetaGrid) -> np.ndarray:
    """Inverse transform onto the torus window [-M/2, M/2)^d by FFT (real part).

    The midpoint nodes theta_k = -pi + (k + 1/2) 2 pi / M give
    e^{-i theta_k x} = e^{i (pi - pi/M) x} e^{-2 pi i k x / M}, so the field
    is fftn of the symbols times that twiddle over M^d.  The flattened theta
    axis becomes trailing (M,)*d axes, window index x + M/2.  Each value
    carries the anti-periodic images f(x + nM) (-1)^n: the error is the
    field's mass beyond the window.
    """
    m, dim = grid.nodes_per_axis, grid.dim
    axes = tuple(range(-dim, 0))
    arr = np.reshape(symbols, np.shape(symbols)[:-1] + (m,) * dim)
    out = scipy.fft.fftn(arr, axes=axes, norm="forward") * _window_twiddle(grid, 1)
    return scipy.fft.fftshift(out.real, axes=axes)


def torus_symbols(field_: np.ndarray, grid: ThetaGrid) -> np.ndarray:
    """Forward transform of a torus-window field: the inverse of ``torus_field``.

    Trailing (M,)*d window axes become one flattened theta axis (complex).
    """
    dim = grid.dim
    axes = tuple(range(-dim, 0))
    arr = scipy.fft.ifftshift(field_, axes=axes) * _window_twiddle(grid, -1)
    out = scipy.fft.ifftn(arr, axes=axes, norm="forward")
    return out.reshape(out.shape[:out.ndim - dim] + (-1,))


# ---------------------------------------------------------------------------
# fundamental solution of the 2x2 Fourier-space system
# ---------------------------------------------------------------------------

def _phi1(z: np.ndarray) -> np.ndarray:
    """(e^z - 1) / z, extended analytically through z = 0."""
    out = np.empty_like(z)
    small = np.abs(z) < 1e-6
    zs = z[small]
    out[small] = 1.0 + zs / 2.0 + zs * zs / 6.0
    zb = z[~small]
    out[~small] = np.expm1(zb) / zb
    return out


def _exp_diff_quotient(p, q, t) -> np.ndarray:
    """(e^{pt} - e^{qt}) / (p - q), continuous through p = q (value t e^{pt}).

    Evaluated as t e^{qt} phi1((p - q) t) to avoid cancellation; for large
    positive (p - q) t the two-exponential form is used instead so the
    intermediate e^{(p-q)t} cannot overflow while the result is finite.
    """
    p, q, t = np.broadcast_arrays(*(np.asarray(v, dtype=np.float64) for v in (p, q, t)))
    z = (p - q) * t
    out = np.empty_like(z)
    big = z > 30.0
    if big.any():
        out[big] = (np.exp(p[big] * t[big]) - np.exp(q[big] * t[big])) / (p[big] - q[big])
    rest = ~big
    out[rest] = t[rest] * np.exp(q[rest] * t[rest]) * _phi1(z[rest])
    return out


def fundamental_solution(a, d, b: float, c: float, t) -> np.ndarray:
    """exp(t * [[a, b], [c, d]]) for arrays a, d, t and scalars b, c >= 0.

    Returns shape (2, 2) + broadcast(a, d, t).  Spectral form through the
    stable difference quotient, which is exact in the repeated-root limit
    (the t e^{lambda t} branch).
    """
    a, d, t = np.broadcast_arrays(*(np.asarray(v, dtype=np.float64) for v in (a, d, t)))
    sq = np.sqrt((a - d) ** 2 + 4.0 * b * c)
    root_lo = 0.5 * (a + d - sq)
    root_hi = root_lo + sq
    quot = _exp_diff_quotient(root_hi, root_lo, t)
    e2 = np.exp(root_lo * t)
    u = np.empty((2, 2) + a.shape)
    u[0, 0] = e2 + (a - root_lo) * quot
    u[0, 1] = b * quot
    u[1, 0] = c * quot
    u[1, 1] = e2 + (d - root_lo) * quot
    return u


def first_moment_symbols(model: TwoTypeModel, t, theta_points: np.ndarray) -> np.ndarray:
    """Fourier transforms mhat^(1)_{ij}(t, theta, 0), shape (2, 2) + broadcast.

    A conversion rate r is already in b and r1, so the epidemic law is the
    c = 0 case: m_11 = R1 and m_12 = R2 of the infected/immune model.
    """
    return _moment_symbols(theta_coefficients(model, theta_points), model.derived, t)


def _moment_symbols(coef: ThetaCoefficients, dc: DerivedConstants, t) -> np.ndarray:
    """First-moment symbols from drift coefficients already on the theta points.

    Selects the closed-form case by the sign pattern of (b, c); the
    degenerate a(theta) = d(theta) split is realized inside the stable
    difference quotient, which converges to the t e^{at} limit form.
    """
    a, d, tt = np.broadcast_arrays(coef.a, coef.d, np.asarray(t, dtype=np.float64))
    b, c = dc.b, dc.c
    if b > 0.0 and c > 0.0:
        return fundamental_solution(a, d, b, c, tt)
    out = np.zeros((2, 2) + a.shape)
    out[0, 0] = np.exp(a * tt)
    out[1, 1] = np.exp(d * tt)
    if c > 0.0:        # b = 0: type 2 feeds type 1 counts only
        out[1, 0] = c * _exp_diff_quotient(a, d, tt)
    elif b > 0.0:      # c = 0
        out[0, 1] = b * _exp_diff_quotient(a, d, tt)
    return out


def _phase_sum(symbols: np.ndarray, grid: ThetaGrid, u) -> np.ndarray:
    """Inverse transform at the single offset u: the symbols on ``grid``
    summed against cos(theta . u) and divided by the node count.  u need
    not lie in any box."""
    phase = np.cos(grid.points @ np.asarray(u, dtype=np.float64))
    return (symbols @ phase).real / grid.n_points


# ---------------------------------------------------------------------------
# moment fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MomentField:
    """Moment values m_{ij}(t, x, 0) over a sup-norm box around the origin.

    ``values`` has shape (2, 2) + (2L+1,)*d with axes (start type - 1,
    counted type - 1, x + L per coordinate).  ``boundary_mass`` is the total
    rate-weighted flux killed at the box boundary for oracle fields, and the
    worst box-mass defect of the convolution inputs for Duhamel fields.
    ``converged`` is False when the Duhamel time quadrature stopped at its
    node cap; ``degraded`` is then set as well.
    """

    t: float
    box_radius: int
    order: int
    dim: int
    values: np.ndarray = field(repr=False)
    boundary_mass: float = 0.0
    degraded: bool = False
    converged: bool = True

    def _site_index(self, x) -> tuple[int, ...]:
        xv = (x,) if isinstance(x, (int, np.integer)) else tuple(x)
        if len(xv) != self.dim:
            raise ValueError(f"site {x} does not have dimension {self.dim}")
        if any(abs(int(c)) > self.box_radius for c in xv):
            raise ValueError(f"site {x} lies outside the box of radius {self.box_radius}")
        return tuple(int(c) + self.box_radius for c in xv)

    def value(self, i: int, j: int, x) -> float:
        return float(self.values[(i - 1, j - 1) + self._site_index(x)])

    def matrix_at(self, x) -> np.ndarray:
        return self.values[(slice(None), slice(None)) + self._site_index(x)].copy()

    def total(self, i: int, j: int) -> float:
        """Box sum over x, the truncated partner of the theta = 0 symbol."""
        return float(self.values[i - 1, j - 1].sum())

    @property
    def sites(self) -> np.ndarray:
        return box_sites(self.box_radius, self.dim)


def first_moment_field(model: TwoTypeModel, t: float, box_radius: int,
                       grid: ThetaGrid | None = None) -> MomentField:
    """Fourier-route first-moment field over the whole box."""
    grid = grid or ThetaGrid.for_dim(model.dim)
    vals = _first_moment_box(model, t, BoxTransform(grid, box_radius))
    return MomentField(t=t, box_radius=box_radius, order=1, dim=model.dim, values=vals)


def _first_moment_box(model: TwoTypeModel, t: float, tr: BoxTransform) -> np.ndarray:
    """m^(1)_{ij}(t, x, 0) over the transform's box, shape (2, 2) + box."""
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    return _clip_roundoff(tr.to_box(first_moment_symbols(model, t, tr.grid.points)))


# ---------------------------------------------------------------------------
# truncated-lattice generators (shared with the epidemic module)
# ---------------------------------------------------------------------------

def build_box_generator(kernel: JumpKernel, kappa: float, box_radius: int
                        ) -> tuple[scipy.sparse.csr_matrix, np.ndarray]:
    """Walk generator restricted to the box, with absorbing boundary.

    Returns (op, outflow): op = kappa * (W - I) with W[x, y] = a(y - x) for
    destinations inside the box, and outflow[x] = kappa * (jump mass leaving
    the box from x), so the killed flux of a field m is outflow . m.
    """
    d = kernel.dim
    side = 2 * box_radius + 1
    sites = box_sites(box_radius, d)
    n = len(sites)
    strides = np.array([side ** (d - 1 - k) for k in range(d)], dtype=np.int64)

    rows, cols, vals = [], [], []
    kept_weight = np.zeros(n)
    for off, w in zip(kernel.offsets, kernel.weights):
        dest = sites + off[None, :]
        ok = (np.abs(dest) <= box_radius).all(axis=1)
        src = np.nonzero(ok)[0]
        rows.append(src)
        cols.append((dest[ok] + box_radius) @ strides)
        vals.append(np.full(len(src), w))
        kept_weight[src] += w
    w_mat = scipy.sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n))
    op = (kappa * (w_mat - scipy.sparse.identity(n, format="csr"))).tocsr()
    return op, kappa * (1.0 - kept_weight)


def _rate_bound(model: TwoTypeModel) -> float:
    dc = model.derived
    return max(model.kappa1 + abs(dc.r1) + dc.b,
               model.kappa2 + abs(dc.r2) + dc.c) + 1.0


def _as_times(t) -> tuple[list[float], bool]:
    if np.ndim(t) == 0:
        if t < 0:
            raise ValueError(f"time must be nonnegative, got {t}")
        return [float(t)], True
    times = [float(v) for v in t]
    if any(v < 0 for v in times) or sorted(times) != times:
        raise ValueError("times must be nonnegative and increasing")
    return times, False


def _solve_chained(rhs, y0: np.ndarray, times: list[float],
                   max_step: float) -> list[np.ndarray]:
    """The state at each of the increasing ``times``, starting from y0 at 0.

    Solves run endpoint to endpoint: dense-output interpolation at interior
    t_eval points costs an order of accuracy, endpoints do not.
    """
    states, state, reached = [], y0, 0.0
    for tv in times:
        if tv > reached:
            res = solve_ivp(rhs, (reached, tv), state, method="DOP853",
                            rtol=ODE_RTOL, atol=ODE_ATOL, max_step=min(tv, max_step))
            if not res.success:
                raise RuntimeError(f"box integration failed: {res.message}")
            state, reached = res.y[:, -1].copy(), tv
            # free the step history in res.y and the solver's stage arrays
            # before the next segment: the solver sits in a reference cycle
            # (its ``fun`` closes over it), which refcounting never frees
            del res
            gc.collect()
        states.append(state)
    return states


def _integrate_fields(model, rhs, y0, times, n, box_radius, n_fields, order,
                      boundary_tol, value_offset=0):
    dim = model.dim
    shape = (2, 2) + _box_shape(box_radius, dim)
    out = []
    for tv, col in zip(times, _solve_chained(rhs, y0, times, 4.0 / _rate_bound(model))):
        vals = _clip_roundoff(col[value_offset:value_offset + 4 * n].reshape(shape).copy())
        flux = float(np.abs(col[n_fields * n:]).max())
        out.append(MomentField(t=tv, box_radius=box_radius, order=order, dim=dim,
                               values=vals, boundary_mass=flux,
                               degraded=flux > boundary_tol))
    return out


def first_moment_ode_oracle(model: TwoTypeModel, t, box_radius: int,
                            boundary_tol: float = BOUNDARY_TOL):
    """Oracle first-moment field(s) by method-of-lines on the truncated box.

    ``t`` may be a scalar or an increasing sequence of times; one field per
    time is returned (a single field for scalar input).  Jumps leaving the
    box are killed; their accumulated rate-weighted flux is the field's
    ``boundary_mass`` and trips ``degraded`` above ``boundary_tol``.
    """
    times, scalar = _as_times(t)
    dc = model.derived
    op1, out1 = build_box_generator(model.kernel1, model.kappa1, box_radius)
    op2, out2 = build_box_generator(model.kernel2, model.kappa2, box_radius)
    n = op1.shape[0]
    center = (n - 1) // 2

    def rhs(_s, y):
        m = y[:4 * n].reshape(2, 2, n)
        dm = np.empty_like(m)
        dm[0] = (op1 @ m[0].T).T + dc.r1 * m[0] + dc.b * m[1]
        dm[1] = (op2 @ m[1].T).T + dc.c * m[0] + dc.r2 * m[1]
        dflux = np.concatenate([m[0] @ out1, m[1] @ out2])
        return np.concatenate([dm.ravel(), dflux])

    y0 = np.zeros(4 * n + 4)
    y0[0 * n + center] = 1.0          # m_11(0, x, 0) = delta_0(x)
    y0[3 * n + center] = 1.0          # m_22
    fields = _integrate_fields(model, rhs, y0, times, n, box_radius,
                               n_fields=4, order=1, boundary_tol=boundary_tol)
    return fields[0] if scalar else fields


def second_moment_ode_oracle(model: TwoTypeModel, t, box_radius: int,
                             boundary_tol: float = BOUNDARY_TOL):
    """Oracle second-moment field(s); the order-1 system is co-integrated.

    The quadratic sources consume the co-integrated order-1 field at every
    internal step, so this route never touches the Fourier machinery.
    """
    times, scalar = _as_times(t)
    dc = model.derived
    dens = dc.factorial_density
    op1, out1 = build_box_generator(model.kernel1, model.kappa1, box_radius)
    op2, out2 = build_box_generator(model.kernel2, model.kappa2, box_radius)
    n = op1.shape[0]
    center = (n - 1) // 2

    def rhs(_s, y):
        m1 = y[:4 * n].reshape(2, 2, n)
        m2 = y[4 * n:8 * n].reshape(2, 2, n)
        dm1 = np.empty_like(m1)
        dm1[0] = (op1 @ m1[0].T).T + dc.r1 * m1[0] + dc.b * m1[1]
        dm1[1] = (op2 @ m1[1].T).T + dc.c * m1[0] + dc.r2 * m1[1]
        dm2 = np.empty_like(m2)
        for i, (op, ra, rb, other) in enumerate(
                ((op1, dc.r1, dc.b, 1), (op2, dc.r2, dc.c, 0))):
            src = (dens[i, 0, 0] * m1[0] ** 2 + dens[i, 1, 1] * m1[1] ** 2
                   + 2.0 * dens[i, 0, 1] * m1[0] * m1[1])
            coupled = m2[other]
            dm2[i] = (op @ m2[i].T).T + ra * m2[i] + rb * coupled + src
        dflux = np.concatenate([m2[0] @ out1, m2[1] @ out2])
        return np.concatenate([dm1.ravel(), dm2.ravel(), dflux])

    y0 = np.zeros(8 * n + 4)
    for base in (0, 3, 4, 7):         # deltas for m1_11, m1_22, m2_11, m2_22
        y0[base * n + center] = 1.0
    fields = _integrate_fields(model, rhs, y0, times, n, box_radius,
                               n_fields=8, order=2, boundary_tol=boundary_tol,
                               value_offset=4 * n)
    return fields[0] if scalar else fields


# ---------------------------------------------------------------------------
# second moments, Fourier/Duhamel route
# ---------------------------------------------------------------------------

def _doubling_quadrature(t: float, init: np.ndarray, node_sum, view
                         ) -> tuple[np.ndarray, float, bool]:
    """init + int_0^t f(s) ds by Gauss-Legendre nodes, doubled until converged.

    ``node_sum(s, w)`` takes one block of at most QUAD_BLOCK nodes and
    weights and returns (sum_k w_k f(s_k), mass), where mass is a
    per-node defect; the result carries the worst mass of the last rule.
    The node count doubles from QUAD_START_NODES until ``view`` of the
    results of n and 2n nodes differ by less than QUAD_TOL relative to the
    field scale.  If QUAD_MAX_NODES is reached first, the last result is
    returned with converged False.
    """
    def rule(n_nodes):
        x, w = leggauss(n_nodes)
        s_nodes, w = 0.5 * t * (x + 1.0), 0.5 * t * w
        acc, mass = init.copy(), 0.0
        for lo in range(0, n_nodes, QUAD_BLOCK):
            part, blk_mass = node_sum(s_nodes[lo:lo + QUAD_BLOCK], w[lo:lo + QUAD_BLOCK])
            acc += part
            mass = max(mass, blk_mass)
        return acc, mass

    nodes = QUAD_START_NODES
    value, mass = rule(nodes)
    cur = view(value)
    while 2 * nodes <= QUAD_MAX_NODES:
        nodes *= 2
        value, mass = rule(nodes)
        prev, cur = cur, view(value)
        if np.abs(cur - prev).max() <= QUAD_TOL * (1.0 + np.abs(cur).max()):
            return value, mass, True
    return value, mass, False


def _duhamel_nodes(model: TwoTypeModel, t: float, tr: BoxTransform,
                   coef: ThetaCoefficients, coef0: ThetaCoefficients,
                   s_blk: np.ndarray, w_blk: np.ndarray) -> tuple[np.ndarray, float]:
    """Weighted Duhamel integrand U(t - s) f(s) over one block of time nodes,
    and the worst box-mass defect of its convolution inputs.

    ``coef`` holds the drift coefficients on the grid points and ``coef0``
    those at theta = 0, computed once per second-moment call.
    """
    dc = model.derived
    dens = dc.factorial_density
    box_shape = _box_shape(tr.box_radius, model.dim)
    sym1 = _moment_symbols(coef, dc, s_blk[:, None])               # (2, 2, B, N)
    m1 = tr.to_box(sym1.astype(complex))
    m1 = m1.reshape(2, 2, len(s_blk), -1)
    tot = m1.sum(axis=-1)
    sym0 = _moment_symbols(coef0, dc, s_blk[:, None])
    defect = float(np.abs(tot - sym0[..., 0]).max())
    prod = np.stack([m1[0] * m1[0], m1[1] * m1[1], m1[0] * m1[1]])
    fhat = np.empty((2, 2, len(s_blk), tr.grid.n_points), dtype=complex)
    for i in range(2):
        comb = (dens[i, 0, 0] * prod[0] + dens[i, 1, 1] * prod[1]
                + 2.0 * dens[i, 0, 1] * prod[2])
        fhat[i] = tr.to_theta(comb.reshape((2, len(s_blk)) + box_shape))
    u = fundamental_solution(coef.a, coef.d, dc.b, dc.c,
                             (t - s_blk)[:, None])                 # (2, 2, B, N)
    part = np.empty((2, 2, tr.grid.n_points), dtype=complex)
    for i in range(2):
        for j in range(2):
            contrib = u[i, 0] * fhat[0, j] + u[i, 1] * fhat[1, j]
            part[i, j] = np.tensordot(w_blk, contrib, axes=([0], [0]))
    return part, defect


def _second_moment_symbols(model: TwoTypeModel, t: float, grid: ThetaGrid,
                           tr: BoxTransform) -> tuple[np.ndarray, float, bool]:
    """mhat^(2)(t, theta, 0), its box defect, and whether the quadrature converged.

    The homogeneous part U(t) applied to the delta initial data plus the
    Duhamel integral, by ``_doubling_quadrature`` on the box fields.
    """
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    coef = theta_coefficients(model, grid.points)
    dc = model.derived
    if t == 0.0:
        return _moment_symbols(coef, dc, 0.0).astype(complex), 0.0, True
    coef0 = theta_coefficients(model, np.zeros((1, model.dim)))
    init = fundamental_solution(coef.a, coef.d, dc.b, dc.c, t).astype(complex)
    return _doubling_quadrature(t, init, partial(_duhamel_nodes, model, t, tr, coef, coef0),
                                tr.to_box)


def second_moment_field(model: TwoTypeModel, t: float, box_radius: int,
                        grid: ThetaGrid | None = None) -> MomentField:
    """Fourier/Duhamel second-moment field over the box.

    The time integral uses Gauss-Legendre nodes, doubled until successive
    fields agree (``_second_moment_symbols``); a field whose quadrature hit
    the node cap has ``converged`` False and ``degraded`` True.
    """
    grid = grid or ThetaGrid.for_dim(model.dim)
    tr = BoxTransform(grid, box_radius)
    sym2, defect, converged = _second_moment_symbols(model, t, grid, tr)
    return MomentField(t=t, box_radius=box_radius, order=2, dim=model.dim,
                       values=_clip_roundoff(tr.to_box(sym2)), boundary_mass=defect,
                       degraded=defect > BOUNDARY_TOL or not converged,
                       converged=converged)


# ---------------------------------------------------------------------------
# finite-variance asymptotics
# ---------------------------------------------------------------------------

def first_moment_asymptote(model: TwoTypeModel, t: float, x=None) -> np.ndarray:
    """Leading large-t first moments under equal kernels and kappas.

    The tabulated case expressions, including the degenerate split-constant
    branches carrying an extra factor of t, all coincide with
    exp(t * [[r1, b], [c, r2]]) * gamma_d / t^{d/2}; the stable spectral
    form evaluates exactly that, and the leading term is x-independent.
    """
    if not model.equal_generators():
        raise ValueError(
            "asymptotic table requires equal jump kernels and kappas across types")
    if t <= 0:
        raise ValueError(f"time must be positive, got {t}")
    dc = model.derived
    gam = gamma_constant(model.kernel1, model.kappa1)
    u = fundamental_solution(np.float64(dc.r1), np.float64(dc.r2), dc.b, dc.c,
                             np.float64(t))
    return u * gam / t ** (model.dim / 2.0)
