"""First and second subpopulation moments by two independent routes.

Route one (fast path) solves the Fourier-space moment equations in closed
form: for each theta the pair (m_1j, m_2j) obeys a constant-coefficient 2x2
linear system with matrix [[a(theta), b], [c, d(theta)]], so the moment
matrix in theta-space is exactly the fundamental solution U(t; theta).
Second moments come from one many-to-two integral (Harris & Roberts, "The
many-to-few lemma and multiple spines", Ann. IHP 2017): a start-type-i
ancestor runs for t - s to a type-k branching event, whose offspring pair
(a, b) runs for s, with source sum_ab dens[k, a, b] m_aj(s) m_bl(s)
(``_many_to_two_nodes``).  It is read on two slices.  The diagonal (x, x)
is Duhamel's formula

    mhat2(t) = U(t) mhat2(0) + int_0^t U(t - s) f(s) ds,

where the source f is a theta-convolution of first-moment symbols, computed
here as the transform of the pointwise product of first-moment fields (the
two are equal up to the shared truncation error, at O(N log N) cost per
time node).  The origin slice (0, u) transforms the product m_ik(t - s)
m_aj(s) instead and multiplies by mhat_bl(s); it gives E[N_j(0) N_l(u)],
the epidemic pair correlations.  Symbols and fields meet in one
transform: ``torus_field`` and ``torus_symbols`` map between the symbols
on the M^d theta grid and fields on the whole torus window
[-M/2, M/2)^d by FFT, with no box.  A field's box radius is only an
output window cut from the torus, at most M/4 (``max_pair_window``).  Its
truncation defect (``_defect``) reads the first-moment fields it is built
from: the gap between each field's torus sum and its exact lattice total,
which bounds each field's own images, plus a bound on the terms that the
cyclic products wrap into the output window, from the fields' radial
profiles (``_wrap_bound``).  M is fitted per call (``fit_grid``): the
smallest FFT-friendly M that holds the output window and keeps that
defect under BOUNDARY_TOL, capped at ``ThetaGrid.DEFAULT_NODES``; an
explicit grid wins.  Kernels are symmetric, so every symbol and field is
real, and two real fields share one complex FFT (``_pack``).  The
integrand is smooth in s, so the time integral uses Gauss-Legendre nodes,
doubling their number until a rule's own Legendre tail, its top two
discrete Legendre coefficients, is below tolerance
(``_doubling_quadrature``); no rule is computed only to be compared with
the next.  The nodes on [0, t] are mirrored,
s_{n-1-k} = t - s_k, and each block of nodes holds whole pairs, so a
symbol or field at t - s is the same at s on the mirror node: every one
is evaluated once per node.  Symbols over the whole grid come from
per-axis phase tables (``lattice.fourier_symbol`` on a ``ThetaGrid``).

Type conversion (the infected/immune epidemic) is part of the branching
law's derived constants, so the epidemic module reads its first moments,
its M2 (the diagonal) and its pair correlations (the origin slice) off
this engine rather than carrying its own.

Route two (oracle path) integrates moment equations on a truncated box of
the lattice with absorbing boundary, by an explicit adaptive Runge-Kutta
scheme (DOP853), in two systems that share the box walk generators, the
mean matrix [[r1, b], [c, r2]] and the time stepper.  The backward moment
system (``first_moment_ode_oracle``, ``second_moment_ode_oracle``) carries
m_ij(t, x, 0) over the start site x, and at order 2 the pointwise source
sum_ab dens[i, a, b] m_aj m_bj, co-integrating order 1.  The forward pair
system (``pair_moment_ode_oracle``) carries, from one type-1 ancestor, the
first moments and the factorial pair densities F_jl(t, x, y) over box x
box for any law: each member of a pair walks and branches on its own, and
a type-k branching event adds dens[k, j, l] f_k on x = y.  The routes
share nothing but the model parameters, which makes their agreement a
meaningful cross-check; the flux killed at the boundary, of every field
the system carries, is reported so callers can assert the truncation is
negligible instead of guessing a box radius.

All evaluations are pure functions of immutable inputs; concurrent calls at
distinct (t, x) are safe, and each oracle integration owns its state.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import partial

import numpy as np
import scipy.fft
import scipy.sparse
from numpy.polynomial.legendre import leggauss, legvander
from scipy.integrate import DOP853

from .branching import DerivedConstants, ThetaCoefficients, TwoTypeModel, \
    theta_coefficients
from .lattice import JumpKernel, ThetaGrid, gamma_constant

__all__ = [
    "MomentField",
    "torus_field",
    "torus_symbols",
    "max_pair_window",
    "box_sites",
    "build_box_generator",
    "fundamental_solution",
    "first_moment_symbols",
    "first_moment_field",
    "first_moment_ode_oracle",
    "second_moment_field",
    "second_moment_ode_oracle",
    "CorrelationField",
    "pair_moment_ode_oracle",
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
# box geometry and the torus transforms
# ---------------------------------------------------------------------------

def box_sites(box_radius: int, dim: int) -> np.ndarray:
    """All lattice sites with sup-norm <= box_radius, shape (S, d), row-major."""
    rng = range(-box_radius, box_radius + 1)
    return np.array(list(itertools.product(rng, repeat=dim)), dtype=np.int64)


def _site_index(x, box_radius: int, dim: int) -> tuple[int, ...]:
    """Per-axis index x + box_radius of the d-dimensional site x in a box."""
    xv = (x,) if isinstance(x, (int, np.integer)) else tuple(x)
    if len(xv) != dim:
        raise ValueError(f"site {x} does not have dimension {dim}")
    if any(abs(int(c)) > box_radius for c in xv):
        raise ValueError(f"site {x} lies outside the box of radius {box_radius}")
    return tuple(int(c) + box_radius for c in xv)


def _flat_index(x, box_radius: int, dim: int) -> int:
    """Row-major index of site x among ``box_sites(box_radius, dim)``."""
    return int(np.ravel_multi_index(_site_index(x, box_radius, dim),
                                    (2 * box_radius + 1,) * dim))


def _clip_roundoff(values: np.ndarray, band: float = 1e-8) -> np.ndarray:
    """Zero the small negative residue of quadrature/integration round-off.

    Moments are nonnegative; values below -band are left alone so genuine
    sign errors stay visible to the tests.
    """
    return np.where((values < 0.0) & (values > -band), 0.0, values)


def _torus_phases(grid: ThetaGrid) -> tuple[np.ndarray, np.ndarray]:
    """The two phase tables of the torus transforms, each shape (M,)*d: the
    sign (-1)^{k_1 + ... + k_d} over theta indices, and the twiddle
    e^{i (pi - pi/M) (x_1 + ... + x_d)} over window sites, in window order."""
    m = grid.nodes_per_axis
    sign_axis = (-1.0) ** np.arange(m)
    twiddle_axis = np.exp(1j * (np.pi - np.pi / m) * np.arange(-m // 2, m // 2))
    sign, twiddle = sign_axis, twiddle_axis
    for _ in range(grid.dim - 1):
        sign = np.multiply.outer(sign, sign_axis)
        twiddle = np.multiply.outer(twiddle, twiddle_axis)
    return sign, twiddle


def torus_field(symbols: np.ndarray, grid: ThetaGrid) -> np.ndarray:
    """Inverse transform onto the torus window [-M/2, M/2)^d by FFT.

    The midpoint nodes theta_k = -pi + (k + 1/2) 2 pi / M give, at window
    index j = x + M/2, e^{-i theta_k x} = e^{i (pi - pi/M) x} (-1)^k
    e^{-2 pi i k j / M}: the field is the fftn of the signed symbols times
    that twiddle, over M^d, with no shift of either array.  The flattened
    theta axis becomes trailing (M,)*d axes, window index x + M/2.  Each
    value carries the anti-periodic images f(x + nM) (-1)^n: the error is
    the field's mass beyond the window.

    Kernels are symmetric, so a real symbol has a real field: real symbols
    give the (real) field, and the transform is linear, so complex symbols
    a + ib give field_a + i field_b, two real fields for one FFT (``_pack``).
    """
    m, dim = grid.nodes_per_axis, grid.dim
    sign, twiddle = _torus_phases(grid)
    arr = np.reshape(symbols, np.shape(symbols)[:-1] + (m,) * dim) * sign
    out = scipy.fft.fftn(arr, axes=tuple(range(-dim, 0)), norm="forward",
                         overwrite_x=True)
    out *= twiddle
    return out if np.iscomplexobj(symbols) else out.real


def torus_symbols(field_: np.ndarray, grid: ThetaGrid) -> np.ndarray:
    """Forward transform of a torus-window field: the inverse of ``torus_field``.

    Trailing (M,)*d window axes become one flattened theta axis (complex).
    A symmetric real field has a real symbol, so a packed field f_a + i f_b
    of two such fields gives their symbols as the real and imaginary parts.
    """
    dim = grid.dim
    sign, twiddle = _torus_phases(grid)
    out = scipy.fft.ifftn(field_ * twiddle.conj(), axes=tuple(range(-dim, 0)),
                          norm="forward", overwrite_x=True)
    out *= sign
    return out.reshape(out.shape[:out.ndim - dim] + (-1,))


def _pack(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """re + i im as one complex array: two real symbols or fields for one FFT."""
    out = np.empty(np.broadcast_shapes(re.shape, im.shape), dtype=complex)
    out.real, out.imag = re, im
    return out


def max_pair_window(nodes_per_axis: int) -> int:
    """Largest output radius of the torus routes on M nodes per axis: M // 4.

    Products of torus fields are cyclic convolutions, so a term f(w) g(v)
    reaches an output site |u_k| <= W only through a wrap, w + v = u + nM
    with n != 0, which needs |w| + |v| >= M - W in the sup norm.  With
    W <= M/4 both factors of such a term sit at radius >= M/4 and their
    radii add to >= 3M/4, out in the fields' tails, where ``_wrap_bound``
    sums them.
    """
    return nodes_per_axis // 4


def _window(grid: ThetaGrid, box_radius: int) -> tuple:
    """Index of the output window |x_k| <= box_radius in a torus field's
    trailing axes; a radius past ``max_pair_window`` raises ValueError."""
    m = grid.nodes_per_axis
    if box_radius > max_pair_window(m):
        raise ValueError(f"output window of radius {box_radius} needs at least "
                         f"{4 * box_radius} grid nodes per axis, got {m}")
    return (Ellipsis,) + (slice(m // 2 - box_radius, m // 2 + box_radius + 1),) * grid.dim


def _envelope_profile(fields: np.ndarray, dim: int, reach: int) -> np.ndarray:
    """The radial profile of the envelope max |f| over torus ``fields`` (all
    leading axes; a packed field counts as its two fields): its mass and
    its largest value on each sup-norm shell that a wrap into output radius
    ``reach`` can involve, r = max(M/2 - reach, 0), ..., M/2
    (``_wrap_bound``), shape (2, shells)."""
    m = fields.shape[-1]
    lead = tuple(range(fields.ndim - dim))
    parts = (fields.real, fields.imag) if np.iscomplexobj(fields) else (fields,)
    env = np.max([np.abs(p).max(axis=lead) for p in parts], axis=0).ravel()
    radius = np.abs(np.indices((m,) * dim) - m // 2).max(axis=0).ravel()
    outer = np.flatnonzero(radius >= m // 2 - reach)
    outer = outer[np.argsort(radius[outer], kind="stable")]
    starts = np.searchsorted(radius[outer], np.arange(max(m // 2 - reach, 0), m // 2 + 1))
    return np.stack([np.add.reduceat(env[outer], starts),
                     np.maximum.reduceat(env[outer], starts)])


def _wrap_bound(profile: np.ndarray, nodes_per_axis: int, reach: int) -> float:
    """Bound on the wrapped part, at any output site |u_k| <= ``reach`` of
    an M-torus, of a cyclic convolution of a product p q with g, where |p|,
    |q| and |g| are at most one envelope of radial ``profile``
    (``_envelope_profile``).

    A term f(w) g(v) with f = p q reaches such a site only through a wrap,
    which needs |w| + |v| >= M - reach (``max_pair_window``), and for each
    w the wrap fixes v.  So the wrapped part is at most sum_r A_f(r)
    G_g(M - reach - r) plus the same with f and g swapped, where A is the
    mass on the shell of radius r, S its largest value and G(rho) the
    largest value at radius >= rho.  With A_f <= S A and G_f <= G^2 from
    the envelope, that is sum_r A(r) (S(r) G(rho) + G(rho)^2).
    """
    mass, peak = profile
    m = nodes_per_axis
    inner = max(m // 2 - reach, 0)
    rho = np.maximum(m - reach - np.arange(inner, m // 2 + 1), inner) - inner
    tail = np.maximum.accumulate(peak[::-1])[::-1][rho]
    return float((mass * (peak * tail + tail ** 2)).sum())


def _defect(fields: np.ndarray, totals: np.ndarray, wrap: float = 0.0) -> float:
    """The truncation defect of the Fourier routes over torus fields: the
    largest gap between a first-moment field's sum over the torus window
    and ``totals``, its exact lattice total (the theta = 0 symbol,
    ``_origin_coefficients``), plus ``wrap``, the bound on the wrapped
    terms of the cyclic products built from the fields (``_wrap_bound``; a
    first-moment field has none).  A packed field and its packed total
    count as their two fields.

    The window sum is sum_y f(y) (-1)^{n(y)}, n(y) the image count of y, so
    the gap is twice the field's mass on odd images: it bounds each
    factor's own images, including those of a field far wider than the
    torus, whose anti-periodic images cancel in the window.
    """
    gap = fields.sum(axis=tuple(range(totals.ndim, fields.ndim))) - totals
    return max(float(np.abs(gap.real).max()), float(np.abs(gap.imag).max())) + wrap


def _origin_coefficients(model: TwoTypeModel) -> ThetaCoefficients:
    """Drift coefficients at theta = 0, where a first-moment symbol is its
    field's exact lattice total."""
    return theta_coefficients(model, np.zeros((1, model.dim)))


# ---------------------------------------------------------------------------
# fundamental solution of the 2x2 Fourier-space system
# ---------------------------------------------------------------------------

def _exp_diff_quotient(gap, t, e_max) -> np.ndarray:
    """(e^{pt} - e^{qt}) / (p - q) for t >= 0, continuous through p = q
    (value t e^{pt}), from gap = |p - q| and e_max = e^{max(p, q) t}.

    Evaluated as t e^{max(p, q) t} (1 - e^{-z}) / z with z = |p - q| t, by
    expm1, so nothing cancels, no intermediate exceeds the larger
    exponential, and the quotient (1 - e^{-z}) / z takes its limit 1 at z = 0.
    The gap is a theta-only term and e_max is often formed already, so both
    come in from the caller.
    """
    z = gap * t
    ratio = np.divide(-np.expm1(-z), z, out=np.ones_like(z), where=z > 0.0)
    return t * e_max * ratio


def fundamental_solution(a, d, b: float, c: float, t) -> np.ndarray:
    """exp(t * [[a, b], [c, d]]) for arrays a, d, t and scalars b, c >= 0.

    Returns shape (2, 2) + broadcast(a, d, t).  Spectral form through the
    stable difference quotient, which is exact in the repeated-root limit
    (the t e^{lambda t} branch).  The theta-only terms (the square root,
    the roots, a - lambda_-, d - lambda_-, |lambda_+ - lambda_-| and the
    larger root) are formed once on broadcast(a, d), before the time axis
    broadcasts in, so an (N,) grid against (B, 1) times costs them once,
    not once per time.
    """
    a, d = np.broadcast_arrays(np.asarray(a, dtype=np.float64), np.asarray(d, dtype=np.float64))
    t = np.asarray(t, dtype=np.float64)
    sq = np.sqrt((a - d) ** 2 + 4.0 * b * c)
    root_lo = 0.5 * (a + d - sq)
    root_hi = root_lo + sq
    quot = _exp_diff_quotient(np.abs(root_hi - root_lo), t,
                              np.exp(np.maximum(root_hi, root_lo) * t))
    e2 = np.exp(root_lo * t)
    u = np.empty((2, 2) + e2.shape)
    u[0, 0] = e2 + (a - root_lo) * quot
    u[0, 1] = b * quot
    u[1, 0] = c * quot
    u[1, 1] = e2 + (d - root_lo) * quot
    return u


def first_moment_symbols(model: TwoTypeModel, t,
                         theta_points: np.ndarray | ThetaGrid) -> np.ndarray:
    """Fourier transforms mhat^(1)_{ij}(t, theta, 0), shape (2, 2) + broadcast.

    ``theta_points`` is an array of points or a ``ThetaGrid``, whose nodes
    are then taken flat in ``grid.points`` order (``fourier_symbol``).

    A conversion rate r is already in b and r1, so the epidemic law is the
    c = 0 case: m_11 = R1 and m_12 = R2 of the infected/immune model.
    """
    return _moment_symbols(theta_coefficients(model, theta_points), model.derived, t)


def _moment_symbols(coef: ThetaCoefficients, dc: DerivedConstants, t) -> np.ndarray:
    """First-moment symbols from drift coefficients already on the theta points.

    Selects the closed-form case by the sign pattern of (b, c); the
    degenerate a(theta) = d(theta) split is realized inside the stable
    difference quotient, which converges to the t e^{at} limit form.  As
    in ``fundamental_solution``, the theta-only terms are formed once on
    the coefficients; with b c = 0 the quotient's e^{max(a, d) t} is
    e^{at} or e^{dt}, already formed for the diagonal.
    """
    a, d = np.broadcast_arrays(coef.a, coef.d)
    t = np.asarray(t, dtype=np.float64)
    b, c = dc.b, dc.c
    if b > 0.0 and c > 0.0:
        return fundamental_solution(a, d, b, c, t)
    e_a, e_d = np.exp(a * t), np.exp(d * t)
    out = np.zeros((2, 2) + e_a.shape)
    out[0, 0] = e_a
    out[1, 1] = e_d
    if b > 0.0 or c > 0.0:
        quot = _exp_diff_quotient(np.abs(a - d), t, np.where(a >= d, e_a, e_d))
        if c > 0.0:    # b = 0: type 2 feeds type 1 counts only
            out[1, 0] = c * quot
        else:          # c = 0
            out[0, 1] = b * quot
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
    rate-weighted flux killed at the box boundary for oracle fields; for
    Fourier fields, whose box is an output window cut from the torus field,
    it is the worst ``_defect`` (window-sum gap plus wrap bound) of the
    first-moment fields they are built from.  ``degraded`` is set when it
    exceeds BOUNDARY_TOL, and also when the Duhamel time quadrature stopped
    at its node cap (``converged`` False).
    """

    t: float
    box_radius: int
    order: int
    dim: int
    values: np.ndarray = field(repr=False)
    boundary_mass: float = 0.0
    degraded: bool = False
    converged: bool = True

    def value(self, i: int, j: int, x) -> float:
        return float(self.values[(i - 1, j - 1) + _site_index(x, self.box_radius, self.dim)])

    def matrix_at(self, x) -> np.ndarray:
        return self.values[(slice(None), slice(None))
                           + _site_index(x, self.box_radius, self.dim)].copy()

    def total(self, i: int, j: int) -> float:
        """Box sum over x, the truncated partner of the theta = 0 symbol."""
        return float(self.values[i - 1, j - 1].sum())

    @property
    def sites(self) -> np.ndarray:
        return box_sites(self.box_radius, self.dim)


def first_moment_field(model: TwoTypeModel, t: float, box_radius: int,
                       grid: ThetaGrid | None = None) -> MomentField:
    """Fourier-route first-moment field on the output window |x_k| <= box_radius.

    The window, at most ``max_pair_window`` (ValueError past it), is cut
    from the torus field; ``boundary_mass`` is that field's defect
    (``_defect``).  Without a ``grid`` the grid is fitted (``fit_grid``).
    """
    grid = grid or fit_grid(model, t, box_radius)
    window = _window(grid, box_radius)
    m1 = _first_moment_torus(model, t, grid)
    mass = _defect(m1, first_moment_symbols(model, t, np.zeros((1, model.dim)))[..., 0])
    return MomentField(t=t, box_radius=box_radius, order=1, dim=model.dim,
                       values=_clip_roundoff(m1[window]), boundary_mass=mass,
                       degraded=mass > BOUNDARY_TOL)


def _first_moment_torus(model: TwoTypeModel, t: float, grid: ThetaGrid) -> np.ndarray:
    """m^(1)_{ij}(t, x, 0) on the torus window, shape (2, 2) + (M,)*d."""
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    return torus_field(first_moment_symbols(model, t, grid), grid)


FIT_TIMES = 8            # fit_grid reads the fields at t_max / 2^k, k < FIT_TIMES


def _five_smooth(n: int) -> bool:
    for p in (2, 3, 5):
        while n % p == 0:
            n //= p
    return n == 1


def fit_grid(model: TwoTypeModel, t_max: float, window: int) -> ThetaGrid:
    """The smallest theta grid for the Fourier fields of ``model`` up to
    time ``t_max`` on output windows of radius ``window``.

    M is the smallest 5-smooth even M >= 4 window (``max_pair_window``) on
    which the routes' ``_defect`` is at most BOUNDARY_TOL, capped at
    ``ThetaGrid.DEFAULT_NODES``: the cap is returned when no smaller M
    passes.  The first-moment fields are transformed once, on the cap grid,
    at the times t_max / 2^k (k < FIT_TIMES), and each candidate M is
    tested on the defect's two terms:

    - the window-sum gap, exactly: each cap site's image count on the
      M-torus gives its sign in the M-torus window sum;
    - the wrap bound (``_wrap_bound``) from the radial profiles of every
      field at every sampled time, taken at their largest, times t_max and
      the summed factorial densities: each many-to-two product is a
      density-weighted triple of first-moment fields, integrated over
      s in [0, t].

    A field whose tail peaks between the sampled times, as a fast-dying
    walk's can, may be fitted a grid on which a route reports it
    ``degraded``; the routes' defect still holds.
    """
    dim = model.dim
    cap = ThetaGrid.for_dim(dim)
    c = cap.nodes_per_axis
    sizes = [m for m in range(max(2, 4 * window), c, 2) if _five_smooth(m)]
    if not sizes:
        return cap
    times = t_max / 2.0 ** np.arange(FIT_TIMES)[:, None]
    dc = model.derived
    sym = _moment_symbols(theta_coefficients(model, cap), dc, times)   # (2, 2, T, N)
    m1 = torus_field(_pack(sym[:, 0], sym[:, 1]), cap)                  # (2, T) + (c,)*d
    fields = np.concatenate([m1.real, m1.imag])                         # (4, T) + (c,)*d
    exact = _moment_symbols(_origin_coefficients(model), dc, times)[..., 0]
    totals = np.concatenate([exact[:, 0], exact[:, 1]])                 # (4, T)
    profile = _envelope_profile(fields, dim, c // 2)
    scale = t_max * dc.factorial_density.sum()
    flat = fields.reshape(4, FIT_TIMES, -1)
    sites = np.indices((c,) * dim).reshape(dim, -1) - c // 2
    for m in sizes:
        sign = 1.0 - 2.0 * (((sites + m // 2) // m).sum(axis=0) % 2)
        gap = float(np.abs(flat @ sign - totals).max())
        wrap = scale * _wrap_bound(profile[:, m // 2 - window:m // 2 + 1], m, window)
        if gap + wrap <= BOUNDARY_TOL:
            return ThetaGrid(dim, m)
    return cap


# ---------------------------------------------------------------------------
# box-ODE oracles: the moment and pair systems on a truncated box
# ---------------------------------------------------------------------------

def build_box_generator(kernel: JumpKernel, kappa: float, box_radius: int
                        ) -> tuple[scipy.sparse.csr_matrix, np.ndarray]:
    """Walk generator restricted to the box, with absorbing boundary.

    Returns (op, outflow): op = kappa * (W - I) with W[x, y] = a(y - x) for
    destinations inside the box, and outflow[x] = kappa * (jump mass leaving
    the box from x), so the killed flux of a field m is outflow . m.  The
    kernel is symmetric, so op is too: it is the box generator of the
    backward and of the forward equations alike.
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


def _box_generators(model: TwoTypeModel, box_radius: int):
    """The ``build_box_generator`` pairs (op, outflow) of both types."""
    return (build_box_generator(model.kernel1, model.kappa1, box_radius),
            build_box_generator(model.kernel2, model.kappa2, box_radius))


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
    t_eval points costs an order of accuracy, endpoints do not.  Each
    segment steps a DOP853 solver to its end, as ``solve_ivp`` would, but
    keeps no step history.
    """
    states, state, reached = [], y0, 0.0
    for tv in times:
        if tv > reached:
            solver = DOP853(rhs, reached, state, tv, rtol=ODE_RTOL, atol=ODE_ATOL,
                            max_step=min(tv, max_step))
            while solver.status == "running":
                message = solver.step()
            if solver.status == "failed":
                raise RuntimeError(f"box integration failed: {message}")
            state, reached = solver.y, tv
            # ``fun`` and ``fun_vectorized`` are closures over the solver;
            # dropping them breaks its reference cycle, so refcounting frees
            # the solver's stage arrays before the next segment
            solver.fun = solver.fun_vectorized = None
        states.append(state)
    return states


def _box_oracle(model: TwoTypeModel, t, rhs, y0: np.ndarray, result):
    """``result(t, state)`` at each of the time(s) ``t`` of ``rhs``
    integrated from y0; a single result for a scalar ``t``."""
    times, scalar = _as_times(t)
    out = [result(tv, col) for tv, col in
           zip(times, _solve_chained(rhs, y0, times, 4.0 / _rate_bound(model)))]
    return out[0] if scalar else out


def _moment_oracle(model: TwoTypeModel, t, box_radius: int, order: int):
    """``MomentField``s of m^(order)_ij(t, x, 0), order 1 or 2, by the
    backward equations in the start site x, orders 1 .. ``order`` stacked:

        d m^(p)_ij = L_i m^(p)_ij + sum_k M_ik m^(p)_kj + S^(p)_ij,

    with M = [[r1, b], [c, r2]] (``matrix_d``), S^(1) = 0, the order-2
    source S^(2)_ij = sum_ab dens[i, a, b] m^(1)_aj m^(1)_bj and
    m^(p)_ij(0) = delta_ij delta_0.  The state ends in the top order's
    killed flux per (i, j).  The mean-matrix terms are summed in column
    order at order 1 and diagonal first at order 2; another order moves
    the fields by round-off.
    """
    (op1, out1), (op2, out2) = _box_generators(model, box_radius)
    ops = (op1, op2)
    n = op1.shape[0]
    dc = model.derived
    dens = dc.factorial_density
    mean = dc.matrix_d

    def rhs(_s, y):
        m = y[:order * 4 * n].reshape(order, 2, 2, n)
        dm = np.empty_like(m)
        for i, op in enumerate(ops):
            walk = (op @ m[:, i].reshape(-1, n).T).T.reshape(order, 2, n)
            dm[0, i] = walk[0] + mean[i, 0] * m[0, 0] + mean[i, 1] * m[0, 1]
            if order == 2:
                m1 = m[0]
                src = (dens[i, 0, 0] * m1[0] ** 2 + dens[i, 1, 1] * m1[1] ** 2
                       + 2.0 * dens[i, 0, 1] * m1[0] * m1[1])
                dm[1, i] = walk[1] + mean[i, i] * m[1, i] + mean[i, 1 - i] * m[1, 1 - i] + src
        dflux = np.concatenate([m[-1, 0] @ out1, m[-1, 1] @ out2])
        return np.concatenate([dm.ravel(), dflux])

    y0 = np.zeros(order * 4 * n + 4)
    y0[:order * 4 * n].reshape(order, 4, n)[:, [0, 3], (n - 1) // 2] = 1.0   # m_11, m_22
    shape = (2, 2) + (2 * box_radius + 1,) * model.dim

    def result(tv, col):
        top = col[(order - 1) * 4 * n:order * 4 * n]
        flux = float(np.abs(col[order * 4 * n:]).max())
        return MomentField(t=tv, box_radius=box_radius, order=order, dim=model.dim,
                           values=_clip_roundoff(top.reshape(shape).copy()),
                           boundary_mass=flux, degraded=flux > BOUNDARY_TOL)

    return _box_oracle(model, t, rhs, y0, result)


def first_moment_ode_oracle(model: TwoTypeModel, t, box_radius: int):
    """Oracle first-moment field(s) by method-of-lines on the truncated box.

    ``t`` may be a scalar or an increasing sequence of times; one field per
    time is returned (a single field for scalar input).  Jumps leaving the
    box are killed; their accumulated rate-weighted flux is the field's
    ``boundary_mass`` and trips ``degraded`` above BOUNDARY_TOL.
    """
    return _moment_oracle(model, t, box_radius, 1)


def second_moment_ode_oracle(model: TwoTypeModel, t, box_radius: int):
    """Oracle second-moment field(s); the order-1 system is co-integrated.

    The quadratic sources consume the co-integrated order-1 field at every
    internal step, so this route never touches the Fourier machinery.
    """
    return _moment_oracle(model, t, box_radius, 2)


@dataclass(frozen=True)
class CorrelationField:
    """Pair moments over box x box, started from one type-1 particle at 0.

    ``r11``, ``r12`` and ``r22`` hold R_jl(t, x, y) = E[N_j(x) N_l(y)] over
    the flattened ``box_sites`` of x and y (``r11``, ``r22`` symmetric),
    ``r1`` and ``r2`` the first moments R_j(t, x).  The localized start
    breaks translation invariance, so u = y - x is exposed only as
    origin-anchored slices (``u_slice``).
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
        return _flat_index(x, self.box_radius, self.dim)

    def pair(self, name: str, x, y) -> float:
        return float(getattr(self, name)[self._idx(x), self._idx(y)])

    def first(self, name: str, x) -> float:
        return float(getattr(self, name)[self._idx(x)])

    def u_slice(self, name: str) -> np.ndarray:
        """Origin-anchored slice R(t, 0, u) over the box (not homogeneous)."""
        return getattr(self, name)[self._idx((0,) * self.dim)].copy()


_PAIRS = ((0, 0), (0, 1), (1, 1))     # the stored factorial densities F_jl, j <= l


def pair_moment_ode_oracle(model: TwoTypeModel, t, box_radius: int):
    """Oracle pair moments from one type-1 particle at the origin, by the
    forward equations on the truncated box, for any law.

    The state holds the first moments f_j(x) and, for j <= l, the
    factorial pair densities F_jl(x, y), the mean number of ordered pairs
    of distinct particles of types j, l at x, y (F_lj(x, y) = F_jl(y, x)):

        d f_j  = L_j f_j + sum_k M_kj f_k,
        d F_jl = (L_j^x + L_l^y) F_jl + sum_k M_kj F_kl + sum_k M_kl F_jk
                 + delta_xy sum_k dens[k, j, l] f_k(x),

    with M = [[r1, b], [c, r2]] (``matrix_d``), f_j(0) = delta_j1 delta_0
    and F(0) = 0: a type-k branching event bears a pair at one site, whose
    members then walk and branch on their own (Harris & Roberts, Ann. IHP
    2017).  Kernels are symmetric, so L_l^y is F_jl L_l.  The correlations
    R_jl = F_jl + delta_jl delta_xy f_j are formed on output.  This is the
    box check of ``epidemic.correlation_ode``'s origin slice.

    Jumps leaving the box are killed.  ``boundary_mass`` is the largest
    killed flux over time, of the first moments, sum_j out_j . f_j, or of
    a pair density, sum_x out_j(x) sum_y F_jl + sum_y out_l(y) sum_x F_jl;
    ``degraded`` is set above BOUNDARY_TOL.
    """
    (op1, out1), (op2, out2) = _box_generators(model, box_radius)
    ops, outs = (op1, op2), (out1, out2)
    n = op1.shape[0]
    dc = model.derived
    dens = dc.factorial_density
    mean = dc.matrix_d
    diag = np.diag_indices(n)

    def rhs(_s, y):
        f = y[:2 * n].reshape(2, n)
        pairs = y[2 * n:2 * n + 3 * n * n].reshape(3, n, n)
        full = {(0, 0): pairs[0], (0, 1): pairs[1], (1, 0): pairs[1].T, (1, 1): pairs[2]}
        df = np.stack([ops[j] @ f[j] + mean[:, j] @ f for j in range(2)])
        dpairs = np.empty_like(pairs)
        flux = [out1 @ f[0] + out2 @ f[1]]
        for p, (j, l) in enumerate(_PAIRS):
            walk = ops[j] @ pairs[p]
            d = dpairs[p]
            np.add(walk, walk.T if j == l else (ops[l] @ pairs[p].T).T, out=d)
            for k in range(2):
                # both terms at once, so d stays exactly symmetric for j = l
                if mean[k, j] or mean[k, l]:
                    d += mean[k, j] * full[k, l] + mean[k, l] * full[j, k]
            d[diag] += dens[:, j, l] @ f
            flux.append(outs[j] @ pairs[p].sum(axis=1) + pairs[p].sum(axis=0) @ outs[l])
        return np.concatenate([df.ravel(), dpairs.ravel(), flux])

    y0 = np.zeros(2 * n + 3 * n * n + 1 + len(_PAIRS))
    y0[(n - 1) // 2] = 1.0                     # f_1(0) = delta_0(x)

    def result(tv, col):
        f1, f2 = col[:2 * n].reshape(2, n)
        f11, f12, f22 = col[2 * n:2 * n + 3 * n * n].reshape(3, n, n).copy()
        f11[diag] += f1
        f22[diag] += f2
        flux = float(np.abs(col[2 * n + 3 * n * n:]).max())
        return CorrelationField(t=tv, box_radius=box_radius, dim=model.dim,
                                r1=f1.copy(), r2=f2.copy(), r11=f11, r12=f12, r22=f22,
                                boundary_mass=flux, degraded=flux > BOUNDARY_TOL)

    return _box_oracle(model, t, rhs, y0, result)


# ---------------------------------------------------------------------------
# second moments, Fourier/Duhamel route
# ---------------------------------------------------------------------------

def _mirror_nodes(block: np.ndarray, axis: int) -> np.ndarray:
    """A node block's values at the mirror nodes: the block reversed (a view).

    ``_doubling_quadrature`` places node n - 1 - k, whose time is t - s_k,
    at the reversed position of node k, so a quantity at t - s is the same
    quantity at s read backwards along the node axis.
    """
    return np.flip(block, axis=axis)


def _doubling_quadrature(t: float, init: np.ndarray, node_sum, view
                         ) -> tuple[np.ndarray, float, bool]:
    """init + int_0^t f(s) ds by Gauss-Legendre nodes, doubled until converged;
    the second-moment routes pass ``_many_to_two_nodes`` as ``node_sum``.

    Gauss-Legendre nodes on [0, t] are mirrored, s_{n-1-k} = t - s_k, so the
    rule is handed out in blocks of node pairs: ``node_sum(s, w)`` takes a
    block of at most QUAD_BLOCK nodes and a (B, 3) weight matrix whose first
    half of rows holds nodes k and whose second half holds their mirrors
    n - 1 - k in reverse order, so position j of a block of B nodes mirrors
    position B - 1 - j (``_mirror_nodes``).  A rule of up to QUAD_BLOCK
    nodes is one block in its natural order.  The weight columns are w,
    w P_{n-2}(x) and w P_{n-1}(x), with x the node on [-1, 1]; ``node_sum``
    returns the three sums sum_k W[k, c] f(s_k), stacked on a leading axis
    in column order, and a per-node defect (mass).  The result carries the
    worst mass of the last rule.

    An n-node rule is accepted on its own Legendre tail: (2k + 1) times
    the k-th sum is t |a_k|, with a_k the integrand's discrete Legendre
    coefficient, and the rule passes when the larger of the top two, k =
    n - 2 and n - 1, taken through the linear ``view``, is at most
    QUAD_TOL relative to the field scale 1 + max |view(result)|.  The node
    count, which must be even, doubles from QUAD_START_NODES until a rule
    passes; if none has by QUAD_MAX_NODES, the last result is returned
    with converged False.

    The start is 16 nodes.  Each moment integrand is a sum of real
    exponentials in s (see below), which is entire, so the Legendre
    coefficients and the Gauss error fall geometrically with the node
    count (Trefethen, "Is Gauss quadrature better than Clenshaw-Curtis?",
    SIAM Rev. 50, 2008): where 16 nodes pass their own tail test they
    agree with a 64-node rule to round-off, and a fast rate times a long
    t, such as e^{-6s} on [0, 20], fails the tail test and doubles.  At 8
    nodes every integral of the ``fields`` benchmark fails and builds 16
    as well.

    Blind spots: an integrand that oscillates at about the node spacing,
    such as cos 20(s - t/2) e^{-(s - t/2)^2 / 2} at t = 20 or 50, can alias
    into a small tail and pass (128 and 256 nodes, errors 8.9e-6 and 2.2),
    where comparing two rules would not.  A feature narrower than the node
    spacing, such as a bump of width 0.05 at s = 0.6 t for t = 20, can fall
    between the nodes of every rule; comparing rules misses it as well.
    The moment integrands cannot do either: kernels are symmetric and b,
    c >= 0, so every symbol has real eigenvalues and each integrand is a
    sum of real exponentials in s.
    """
    def rule(n_nodes):
        if n_nodes % 2:
            raise ValueError(f"node pairs need an even node count, got {n_nodes}")
        x, w = leggauss(n_nodes)
        tail = legvander(x, n_nodes - 1)[:, -2:]
        s_nodes = 0.5 * t * (x + 1.0)
        weights = 0.5 * t * np.column_stack([w, w[:, None] * tail])
        acc, tails, mass = init.copy(), 0.0, 0.0
        for lo in range(0, n_nodes // 2, QUAD_BLOCK // 2):
            hi = min(lo + QUAD_BLOCK // 2, n_nodes // 2)
            blk = np.r_[lo:hi, n_nodes - hi:n_nodes - lo]
            part, blk_mass = node_sum(s_nodes[blk], weights[blk])
            acc += part[0]
            tails = tails + part[1:]
            mass = max(mass, blk_mass)
        order = np.array([2 * n_nodes - 3, 2 * n_nodes - 1])      # 2k + 1
        err = (order * np.abs(view(tails)).reshape(2, -1).max(axis=1)).max()
        return acc, mass, bool(err <= QUAD_TOL * (1.0 + np.abs(view(acc)).max()))

    nodes = QUAD_START_NODES
    value, mass, converged = rule(nodes)
    while not converged and 2 * nodes <= QUAD_MAX_NODES:
        nodes *= 2
        value, mass, converged = rule(nodes)
    return value, mass, converged


def _many_to_two_nodes(model: TwoTypeModel, grid: ThetaGrid, coef: ThetaCoefficients,
                       zero: ThetaCoefficients, t: float, reach: int,
                       starts: list[int], origin: bool, s_blk: np.ndarray, w_blk: np.ndarray
                       ) -> tuple[np.ndarray, float]:
    """The many-to-two integrand over one block of node pairs, summed
    against each column of the (B, 3) weights ``w_blk``, and the block's
    ``_defect`` over the first-moment fields it is built from.  Its wrap
    term bounds the wrapped part of the integral over [0, t] at output
    radius ``reach``: every product, at every node of the block, is a
    density-weighted triple of those fields, so it is t sum dens times the
    ``_wrap_bound`` of their envelope.

    A start-type-i ancestor (i in ``starts``) runs for t - s to a type-k
    branching event, whose offspring pair (a, b) runs for s; the source is
    sum_ab dens[k, a, b] m_aj(s) m_bl(s).  The slices differ in one
    expression per (i, k):

    - the diagonal (x, x), j = l: FT[sum_ab dens[k, a, b] m_aj m_bj](s)
      times U_ik(t - s), rows (R, 2 [j], N);
    - the origin slice (0, u): sum_a FT[m_ik(t - s) m_aj(s)] times
      sum_b dens[k, a, b] m^_bl(s), rows (R, 2 [j], 2 [l], N).

    ``coef`` and ``zero`` hold the drift coefficients on the grid points
    and at theta = 0, computed once per call.  U(s) is the first-moment
    symbol, and a quantity at t - s is the same quantity at the mirror
    node.  Every symbol and field is real, so the two counted types j
    travel packed as one complex array, m_a1 + i m_a2 (``_pack``), through
    both FFTs and the weighted sums; the diagonal's source products are
    taken on the float view, which multiplies real parts with real parts
    and imaginary with imaginary, so they come out packed too.  Only the
    start types that some branching event produces (dens[k, a, b] > 0) and
    the ``starts``, whose fields m_ik(t - s) are U_ik(t - s), are
    transformed, so the defect covers just the fields that enter the
    integrand.  Each product is contracted with the weights as soon as it
    is formed, w^T @ prod on its float view (B, 2N), into the (3, R, [2,]
    2N) sums, so no per-node sum of the products is stored.
    """
    dc = model.derived
    dens = dc.factorial_density
    n_pts = grid.n_points
    types = np.union1d(np.flatnonzero(dens.any(axis=(0, 2))), starts)
    sym1 = _moment_symbols(coef, dc, s_blk[:, None])               # (2, 2, B, N)
    m1 = torus_field(_pack(sym1[types, 0], sym1[types, 1]), grid)  # (F, B) + (M,)*d
    tot = _moment_symbols(zero, dc, s_blk[:, None])[types, ..., 0]  # (F, 2, B)
    wrap = _wrap_bound(_envelope_profile(m1, grid.dim, reach), grid.nodes_per_axis, reach)
    mass = _defect(m1, _pack(tot[:, 0], tot[:, 1]), t * dens.sum() * wrap)
    m = dict(zip(types.tolist(), m1))
    if not origin:
        m = {a: f.view(np.float64) for a, f in m.items()}
        prods = {(a, b): m[a] * m[b] for a, b in ((0, 0), (1, 1), (0, 1))
                 if dens[:, a, b].any()}
        del m1, m                    # the block's fields, freed before U f is formed
    u = _mirror_nodes(sym1, axis=2)                                # U(t - s)
    wt = w_blk.T
    part = np.zeros((3, len(starts)) + ((2,) if origin else ()) + (2 * n_pts,))
    for k in np.flatnonzero(dens.any(axis=(1, 2))):                # branching types
        if origin:
            for r, i in enumerate(starts):
                back = _mirror_nodes(m[i], 0)                      # m_i1 + i m_i2 at t - s
                for a in np.flatnonzero(dens[k].any(axis=1)):
                    ghat = torus_symbols((back.real, back.imag)[k] * m[a], grid)
                    mb = np.tensordot(dens[k, a], sym1, 1)         # sum_b dens m^_bl(s)
                    for l in range(2):
                        part[:, r, l] += wt @ (ghat * mb[l]).view(np.float64)
        else:
            fhat = torus_symbols(sum((1.0 if a == b else 2.0) * dens[k, a, b] * p
                                     for (a, b), p in prods.items()).view(complex), grid)
            for r, i in enumerate(starts):
                part[:, r] += wt @ (u[i, k] * fhat).view(np.float64)
    return np.moveaxis(part.reshape(part.shape[:-1] + (n_pts, 2)), -1, 2), mass


def _many_to_two_symbols(model: TwoTypeModel, t: float, grid: ThetaGrid, starts: list[int],
                         origin: bool = False, window=Ellipsis, reach: int = 0
                         ) -> tuple[np.ndarray, float, bool]:
    """Symbols of the many-to-two moments of the start types ``starts``
    (0-based), the worst ``_defect`` of the first-moment fields inside the
    integral, and whether the quadrature converged.

    On the diagonal they are mhat^(2)_{ij}(t, theta, 0) of E[N_j(x)^2],
    shape (R, 2, N): the homogeneous part U(t) applied to the delta
    initial data plus the Duhamel integral.  On the origin slice they are
    the factorial moments F_jl(t, 0, u) = E[N_j(0) N_l(u)] - delta_{jl}
    delta_{u0} m_ij(t, 0), shape (R, 2, 2, N), the integral alone.  The
    integral is ``_doubling_quadrature`` over ``_many_to_two_nodes``; its
    tail test reads the torus field on ``window`` (default: all of it), and
    its defect bounds the wrapped terms at output sites of sup-norm radius
    at most ``reach``.  On the diagonal a law with no branching has no
    integral: its second moment is its first, and the defect is that of
    the first-moment fields.
    """
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    coef = theta_coefficients(model, grid)
    dc = model.derived
    # the origin slice integrates a law with no branching too, so that its
    # defect still reads the first-moment fields its callers add back
    integrate = t > 0.0 and (origin or dc.factorial_density.any())
    if origin:
        init = np.zeros((len(starts), 2, 2, grid.n_points))
    elif integrate:
        init = fundamental_solution(coef.a, coef.d, dc.b, dc.c, t)[starts]
    else:
        init = _moment_symbols(coef, dc, t)[starts]
    if not integrate:
        mass = 0.0 if origin else _defect(
            torus_field(init, grid),
            _moment_symbols(_origin_coefficients(model), dc, t)[starts, ..., 0])
        return init, mass, True
    return _doubling_quadrature(
        t, init, partial(_many_to_two_nodes, model, grid, coef, _origin_coefficients(model),
                         t, reach, starts, origin),
        lambda sym: torus_field(sym, grid)[window])


def second_moment_field(model: TwoTypeModel, t: float, box_radius: int,
                        grid: ThetaGrid | None = None) -> MomentField:
    """Fourier/Duhamel second-moment field on the output window |x_k| <= box_radius.

    The window, at most ``max_pair_window`` (ValueError past it), is cut
    from the torus field.  The time integral uses Gauss-Legendre nodes,
    doubled until a rule's Legendre tail on the window is below tolerance
    (``_doubling_quadrature``); a field whose quadrature hit the node cap
    has ``converged`` False and ``degraded`` True, as has one whose
    first-moment fields' ``_defect`` exceeds BOUNDARY_TOL.  Without a
    ``grid`` the grid is fitted (``fit_grid``).
    """
    grid = grid or fit_grid(model, t, box_radius)
    window = _window(grid, box_radius)
    sym2, mass, converged = _many_to_two_symbols(model, t, grid, [0, 1], window=window,
                                                 reach=box_radius)
    return MomentField(t=t, box_radius=box_radius, order=2, dim=model.dim,
                       values=_clip_roundoff(torus_field(sym2, grid)[window]),
                       boundary_mass=mass, degraded=mass > BOUNDARY_TOL or not converged,
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
