import gc
import json
import math
import weakref
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from numpy.polynomial.legendre import leggauss, legval, legvander
from scipy.linalg import expm
from scipy.signal import fftconvolve

from brw2 import _dop853, moments
from brw2.cli import _command_grid, _load_config, build_parser, main
from brw2.branching import BranchingLaw, TwoTypeModel
from brw2.config import parse_config, preset
from brw2.epidemic import correlation_ode, epidemic_first_moment_profiles, epidemic_m2
from brw2.lattice import ThetaGrid, simple_kernel, transition_probability, \
    uniform_range_kernel
from brw2.moments import (BOUNDARY_TOL, _pack, _phase_sum, _window, box_sites,
                          first_moment_asymptote, first_moment_field,
                          first_moment_ode_oracle, first_moment_symbols, fit_grid,
                          fundamental_solution, max_pair_window, second_moment_field,
                          second_moment_ode_oracle, torus_field, torus_symbols)


def model_case(name: str) -> TwoTypeModel:
    """Moderate-rate configurations for each sign pattern of (b, c)."""
    k1, k2 = simple_kernel(1), uniform_range_kernel(1, 2)
    if name == "b0c0":
        law = BranchingLaw(mu1=0.3, mu2=0.2, beta1={(2, 0): 0.2}, beta2={(0, 2): 0.15})
    elif name == "b0c+":
        law = BranchingLaw(mu1=0.3, mu2=0.15, beta1={(2, 0): 0.2}, beta2={(1, 1): 0.25})
    elif name == "b+c0":
        law = BranchingLaw(mu1=0.25, mu2=0.3, beta1={(1, 1): 0.25}, beta2={(0, 2): 0.2})
    elif name == "b+c+":
        law = BranchingLaw(mu1=0.25, mu2=0.375,
                           beta1={(2, 0): 0.125, (1, 1): 0.125},
                           beta2={(0, 2): 0.125, (1, 1): 0.25})
    elif name == "near-degenerate":
        # bc = 1e-8 with distinct drifts
        law = BranchingLaw(mu1=0.2, mu2=0.1,
                           beta1={(1, 1): 1e-4}, beta2={(1, 1): 1e-4})
    else:
        raise KeyError(name)
    return TwoTypeModel(k1, k2, 1.0, 1.0, law)


CASES = ("b0c0", "b0c+", "b+c0", "b+c+")


class TestFundamentalSolution:
    def test_against_expm(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            a, d = rng.normal(0, 2, size=2)
            b, c = rng.exponential(1.0, size=2) * rng.integers(0, 2, size=2)
            t = rng.exponential(1.0)
            u = fundamental_solution(np.float64(a), np.float64(d), float(b), float(c),
                                     np.float64(t))
            ref = expm(np.array([[a, b], [c, d]]) * t)
            npt.assert_allclose(u, ref, rtol=1e-9, atol=1e-11)

    def test_identity_at_t0(self):
        u = fundamental_solution(np.float64(0.3), np.float64(-0.7), 0.4, 0.9,
                                 np.float64(0.0))
        npt.assert_allclose(u, np.eye(2), atol=0)

    def test_repeated_root_limit(self):
        # a = d, b = 0: exp is [[e^{at}, 0], [c t e^{at}, e^{at}]]
        a, c, t = -0.4, 0.6, 2.0
        u = fundamental_solution(np.float64(a), np.float64(a), 0.0, c, np.float64(t))
        npt.assert_allclose(u[1, 0], c * t * math.exp(a * t), rtol=1e-12)
        npt.assert_allclose(u[0, 0], math.exp(a * t), rtol=1e-12)
        npt.assert_allclose(u[0, 1], 0.0, atol=0)

    def test_case_symbols_match_fundamental_solution(self):
        grid = ThetaGrid.for_dim(1, 64)
        from brw2.branching import theta_coefficients
        for name in CASES:
            model = model_case(name)
            coef = theta_coefficients(model, grid.points)
            sym = first_moment_symbols(model, 1.7, grid.points)
            u = fundamental_solution(coef.a, coef.d, model.derived.b,
                                     model.derived.c, 1.7)
            npt.assert_allclose(sym, u, rtol=1e-11, atol=1e-13)

    @pytest.mark.parametrize("name", (*CASES, "near-degenerate"))
    def test_theta_terms_formed_once_are_bit_exact(self, name):
        # the theta-only terms are formed on the (N,) coefficients and the
        # times broadcast in after; evaluated on pre-broadcast (B, N) arrays,
        # and by the spectral formulas with every term formed per time, the
        # values are the same to the bit
        from brw2.branching import ThetaCoefficients, theta_coefficients

        def quotient(p, q, t):
            z = np.abs(p - q) * t
            ratio = np.divide(-np.expm1(-z), z, out=np.ones_like(z), where=z > 0.0)
            return t * np.exp(np.maximum(p, q) * t) * ratio

        model = model_case(name)
        dc, coef = model.derived, theta_coefficients(model, ThetaGrid.for_dim(1, 64))
        t = np.linspace(0.0, 5.0, 7)[:, None]
        a, d, tt = np.broadcast_arrays(coef.a, coef.d, t)
        u = fundamental_solution(coef.a, coef.d, dc.b, dc.c, t)
        npt.assert_array_equal(u, fundamental_solution(a, d, dc.b, dc.c, tt))
        sym = moments._moment_symbols(coef, dc, t)
        npt.assert_array_equal(sym, moments._moment_symbols(ThetaCoefficients(a, d), dc, tt))
        if dc.b * dc.c > 0.0:
            sq = np.sqrt((a - d) ** 2 + 4.0 * dc.b * dc.c)
            lo = 0.5 * (a + d - sq)
            quot, e2 = quotient(lo + sq, lo, tt), np.exp(lo * tt)
            ref = [[e2 + (a - lo) * quot, dc.b * quot], [dc.c * quot, e2 + (d - lo) * quot]]
            npt.assert_array_equal(u, ref)
        else:
            # the quotient's e^{max(a, d) t} is the diagonal's e^{at} or e^{dt}
            quot = quotient(a, d, tt)
            ref = [[np.exp(a * tt), dc.b * quot], [dc.c * quot, np.exp(d * tt)]]
        npt.assert_array_equal(sym, ref)


class TestFirstMoments:
    def test_identity_at_t0(self):
        fld = first_moment_field(model_case("b+c+"), 0.0, 4)
        npt.assert_allclose(fld.matrix_at(0), np.eye(2), atol=1e-12)
        npt.assert_allclose(fld.matrix_at(4), np.zeros((2, 2)), atol=1e-12)

    def test_pure_walk_reduces_to_transition_probability(self):
        law = BranchingLaw(mu1=0.0, mu2=0.0)
        model = TwoTypeModel(simple_kernel(1), uniform_range_kernel(1, 2),
                             1.0, 0.7, law)
        grid = ThetaGrid.for_dim(1)
        fld = first_moment_field(model, 2.0, 5, grid)
        for x in (0, 2, 5):
            m = fld.matrix_at(x)
            npt.assert_allclose(m[0, 0],
                                transition_probability(model.kernel1, 1.0, 2.0, 0, x, grid),
                                atol=1e-12)
            npt.assert_allclose(m[1, 1],
                                transition_probability(model.kernel2, 0.7, 2.0, 0, x, grid),
                                atol=1e-12)
            assert m[0, 1] == 0 and m[1, 0] == 0

    def test_decoupled_case_scales_walk(self):
        model = model_case("b0c0")
        dc = model.derived
        grid = ThetaGrid.for_dim(1)
        t = 1.5
        fld = first_moment_field(model, t, 3, grid)
        for x in (0, 3):
            m = fld.matrix_at(x)
            p1 = transition_probability(model.kernel1, 1.0, t, 0, x, grid)
            p2 = transition_probability(model.kernel2, 1.0, t, 0, x, grid)
            npt.assert_allclose(m[0, 0], math.exp(dc.r1 * t) * p1, rtol=1e-10)
            npt.assert_allclose(m[1, 1], math.exp(dc.r2 * t) * p2, rtol=1e-10)

    def test_pure_death_oracle(self):
        law = BranchingLaw(mu1=0.8, mu2=0.0)
        model = TwoTypeModel(simple_kernel(1), simple_kernel(1), 1.0, 1.0, law)
        fld = first_moment_ode_oracle(model, 1.2, 20)
        grid = ThetaGrid.for_dim(1)
        for x in (0, 1, 4):
            expect = math.exp(-0.8 * 1.2) * transition_probability(
                model.kernel1, 1.0, 1.2, 0, x, grid)
            npt.assert_allclose(fld.value(1, 1, x), expect, atol=1e-8)

    def test_mass_identity(self):
        # box sum equals the theta = 0 symbol value
        model = model_case("b0c+")
        t = 2.0
        fld = first_moment_field(model, t, 30)
        sym0 = first_moment_symbols(model, t, np.zeros((1, 1)))[..., 0]
        for i in (1, 2):
            for j in (1, 2):
                npt.assert_allclose(fld.total(i, j), sym0[i - 1, j - 1], atol=1e-6)

    @pytest.mark.parametrize("name", CASES)
    def test_route_parity(self, name):
        model = model_case(name)
        for t in (0.5, 2.0):
            fou = first_moment_field(model, t, 30)
            ode = first_moment_ode_oracle(model, t, 30)
            assert np.abs(fou.values - ode.values).max() < 1e-5
            assert ode.boundary_mass < 1e-6


class TestSecondMoments:
    def test_delta_at_t0(self):
        model = model_case("b+c+")
        fld = second_moment_field(model, 0.0, 10)
        npt.assert_allclose(fld.matrix_at(0), np.eye(2), atol=1e-12)
        npt.assert_allclose(fld.matrix_at(3), np.zeros((2, 2)), atol=1e-12)

    def test_no_branching_equals_first_moment(self):
        law = BranchingLaw(mu1=0.4, mu2=0.2)
        model = TwoTypeModel(simple_kernel(1), uniform_range_kernel(1, 2),
                             1.0, 1.0, law)
        f2 = second_moment_field(model, 1.5, 20)
        f1 = first_moment_field(model, 1.5, 20)
        npt.assert_allclose(f2.values, f1.values, atol=1e-9)
        o2 = second_moment_ode_oracle(model, 1.5, 20)
        npt.assert_allclose(o2.values, f1.values, atol=1e-7)

    def test_critical_binary_per_site_second_moment_sum(self):
        # For critical binary branching the theta = 0 second-moment symbol obeys
        # d/dt sum_x m2(t,x) = 2 lambda sum_x m1(t,x)^2 = 2 lambda p(2t,0,0), so
        # sum_x m2 = 1 + 2 lambda t e^{-2t} (I0(2t) + I1(2t)) for the simple walk.
        # (Monte Carlo confirms this value; the total-count master equation gives
        # E N_total^2 = 1 + 2 lambda t instead, which includes cross-site terms
        # and is checked against the simulator in test_simulate.)
        from scipy.special import iv
        lam = 0.5
        law = BranchingLaw(mu1=lam, mu2=0.0, beta1={(2, 0): lam})
        model = TwoTypeModel(simple_kernel(1), simple_kernel(1), 1.0, 1.0, law)
        for t in (1.0, 3.0):
            expect = 1 + 2 * lam * t * math.exp(-2 * t) * (iv(0, 2 * t) + iv(1, 2 * t))
            fld = second_moment_ode_oracle(model, t, 25)
            npt.assert_allclose(fld.total(1, 1), expect, atol=1e-5)
            fou = second_moment_field(model, t, 25)
            npt.assert_allclose(fou.total(1, 1), expect, atol=1e-5)

    @pytest.mark.parametrize("name", CASES)
    def test_origin_slice_meets_the_diagonal(self, name):
        # E[N_j(0)^2] two ways: the origin slice's factorial part at u = 0
        # plus m_ij(t, 0), and the diagonal.  Across the four laws the
        # offspring pair (a, b) takes (1, 1), (2, 2) and (1, 2); the epidemic
        # law has a = b = 1 only, so its tests cannot tell a from b
        model, t = model_case(name), 2.0
        grid = fit_grid(model, t, 0)
        diag, _, diag_ok = moments._many_to_two_symbols(model, t, grid, [0, 1])
        pair, _, pair_ok = moments._many_to_two_symbols(model, t, grid, [0, 1], origin=True)
        m1 = first_moment_symbols(model, t, grid)
        assert diag_ok and pair_ok
        origin = _phase_sum(np.diagonal(pair, axis1=1, axis2=2).swapaxes(1, 2) + m1, grid, (0,))
        expect = _phase_sum(diag, grid, (0,))
        # the floor is for the entries that vanish, m_12 = 0 when b = 0
        npt.assert_allclose(origin, expect, rtol=1e-12, atol=1e-12 * np.abs(expect).max())

    def test_route_parity(self):
        model = model_case("b+c+")
        t = 1.0
        fou = second_moment_field(model, t, 30)
        ode = second_moment_ode_oracle(model, t, 30)
        npt.assert_allclose(fou.values, ode.values, rtol=1e-4, atol=1e-8)

    def test_monotone_domination(self):
        model = model_case("b+c+")
        t = 2.0
        f1 = first_moment_field(model, t, 30)
        f2 = second_moment_field(model, t, 30)
        assert (f1.values >= 0).all()
        assert (f2.values - f1.values >= -1e-8).all()

    def test_boundary_flag_on_small_box(self):
        model = model_case("b+c+")
        fld = second_moment_ode_oracle(model, 5.0, 6)
        assert fld.boundary_mass > 1e-6
        assert fld.degraded


class TestDegenerateSplit:
    def test_bc_1e8_matches_triangular(self):
        model = model_case("near-degenerate")
        tri_law = BranchingLaw(mu1=0.2, mu2=0.1, beta1={(1, 1): 1e-4})
        tri = TwoTypeModel(model.kernel1, model.kernel2, 1.0, 1.0, tri_law)
        for t in (1.0, 5.0):
            full = first_moment_field(model, t, 30)
            trif = first_moment_field(tri, t, 30)
            assert np.abs(full.values - trif.values).max() < 1e-4

    def test_near_degenerate_route_parity(self):
        model = model_case("near-degenerate")
        fou = first_moment_field(model, 2.0, 30)
        ode = first_moment_ode_oracle(model, 2.0, 30)
        assert np.abs(fou.values - ode.values).max() < 1e-5


class TestAsymptote:
    def test_decoupled_flat_case_value(self):
        # r1 = 0, b = c = 0, d = 1: m11 ~ gamma_1 / sqrt(t)
        law = BranchingLaw(mu1=0.5, mu2=0.5, beta1={(2, 0): 0.5}, beta2={(0, 2): 0.5})
        model = TwoTypeModel(simple_kernel(1), simple_kernel(1), 1.0, 1.0, law)
        a = first_moment_asymptote(model, 400.0)
        npt.assert_allclose(a[0, 0], 1 / math.sqrt(2 * math.pi) / 20.0, rtol=1e-10)
        npt.assert_allclose(a[0, 0], 0.019947, rtol=1e-4)

    def test_triangular_case_formulas(self):
        # b = 0, c > 0 with distinct drifts: m21 ~ c/(r1-r2) (e^{r1 t}-e^{r2 t}) g
        law = BranchingLaw(mu1=0.3, mu2=0.15, beta1={(2, 0): 0.2}, beta2={(1, 1): 0.25})
        model = TwoTypeModel(simple_kernel(1), simple_kernel(1), 1.0, 1.0, law)
        dc = model.derived
        t = 50.0
        g = 1 / math.sqrt(2 * math.pi * t)
        a = first_moment_asymptote(model, t)
        expect = dc.c / (dc.r1 - dc.r2) * (math.exp(dc.r1 * t) - math.exp(dc.r2 * t)) * g
        npt.assert_allclose(a[1, 0], expect, rtol=1e-10)
        npt.assert_allclose(a[0, 0], math.exp(dc.r1 * t) * g, rtol=1e-10)
        assert a[0, 1] == 0.0

    def test_degenerate_split_gains_factor_t(self):
        # r1 = r2 (C2 = 0) triangular case: m21 ~ c t e^{r t} gamma / sqrt(t)
        law = BranchingLaw(mu1=0.2, mu2=0.2, beta1={(2, 0): 0.2},
                           beta2={(1, 1): 0.2, (0, 2): 0.2})
        model = TwoTypeModel(simple_kernel(1), simple_kernel(1), 1.0, 1.0, law)
        dc = model.derived
        assert dc.r1 == dc.r2 and dc.b == 0 and dc.c > 0
        t = 30.0
        g = 1 / math.sqrt(2 * math.pi * t)
        a = first_moment_asymptote(model, t)
        npt.assert_allclose(a[1, 0], dc.c * t * math.exp(dc.r1 * t) * g, rtol=1e-10)

    def test_convergence_of_quadrature_to_asymptote(self):
        law = BranchingLaw(mu1=0.5, mu2=0.5, beta1={(2, 0): 0.5}, beta2={(0, 2): 0.5})
        model = TwoTypeModel(simple_kernel(1), simple_kernel(1), 1.0, 1.0, law)
        t = 200.0
        exact = first_moment_field(model, t, 0).value(1, 1, 0)
        asym = first_moment_asymptote(model, t)[0, 0]
        assert abs(exact / asym - 1) < 0.05

    def test_requires_equal_generators(self):
        model = model_case("b+c+")   # kernel2 differs from kernel1
        with pytest.raises(ValueError, match="equal"):
            first_moment_asymptote(model, 10.0)


class TestTorusTransform:
    @pytest.mark.parametrize("dim, nodes", [(1, 64), (2, 32)])
    def test_round_trip(self, dim, nodes):
        grid = ThetaGrid.for_dim(dim, nodes)
        rng = np.random.default_rng(3)
        f = rng.normal(size=(2,) + (nodes,) * dim)
        npt.assert_allclose(torus_field(torus_symbols(f, grid), grid), f, atol=1e-13)
        # symbols of real fields come back too (torus_field keeps the real part)
        k = simple_kernel(dim)
        model = TwoTypeModel(k, k, 1.0, 1.0, model_case("b+c+").law)
        sym = first_moment_symbols(model, 1.0, grid.points)
        npt.assert_allclose(torus_symbols(torus_field(sym, grid), grid), sym, atol=1e-13)

    def test_round_trip_exact(self):
        # a field on the window |x| <= 30 of 256 nodes comes back exactly
        grid = ThetaGrid.for_dim(1)
        rng = np.random.default_rng(1)
        f = np.zeros(256)
        f[_window(grid, 30)] = rng.normal(size=61)
        npt.assert_allclose(torus_field(torus_symbols(f, grid), grid), f, atol=1e-12)

    def test_round_trip_2d(self):
        grid = ThetaGrid.for_dim(2, 64)
        rng = np.random.default_rng(2)
        f = np.zeros((64, 64))
        f[_window(grid, 7)] = rng.normal(size=(15, 15))
        npt.assert_allclose(torus_field(torus_symbols(f, grid), grid), f, atol=1e-12)

    def test_rejects_undersized_grid(self):
        # the output window may reach M/4 = 16 sites on 64 nodes, no further
        grid = ThetaGrid.for_dim(1, 64)
        model = model_case("b+c+")
        for route in (first_moment_field, second_moment_field):
            with pytest.raises(ValueError, match="nodes"):
                route(model, 1.0, max_pair_window(64) + 1, grid)
            assert route(model, 1.0, max_pair_window(64), grid).values.shape == (2, 2, 33)

    def test_box_sites_order(self):
        s = box_sites(1, 2)
        assert s.tolist() == [[-1, -1], [-1, 0], [-1, 1], [0, -1], [0, 0], [0, 1],
                              [1, -1], [1, 0], [1, 1]]

    @pytest.mark.parametrize("dim, nodes", [(1, 64), (2, 32)])
    def test_agrees_with_box_transform_on_the_box(self, dim, nodes):
        # the window, index x + M/2, against the dense single-site sum at
        # every site of the largest window (the name is kept from the dense
        # box transform this route replaced)
        grid = ThetaGrid.for_dim(dim, nodes)
        k = simple_kernel(dim)
        model = TwoTypeModel(k, k, 1.0, 1.0, model_case("b+c+").law)
        sym = first_moment_symbols(model, 1.5, grid.points)
        radius = max_pair_window(nodes)
        window = torus_field(sym, grid)[_window(grid, radius)].reshape(2, 2, -1)
        dense = np.stack([_phase_sum(sym, grid, x) for x in box_sites(radius, dim)],
                         axis=-1)
        npt.assert_allclose(window, dense, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("dim, nodes", [(1, 64), (2, 32)])
    def test_packed_pair_is_two_transforms(self, dim, nodes):
        # kernels are symmetric, so symbols and fields are real: a + ib
        # carries two of them through one FFT, each way
        grid = ThetaGrid.for_dim(dim, nodes)
        model = TwoTypeModel(simple_kernel(dim), uniform_range_kernel(dim, 2), 1.0, 1.0,
                             model_case("b+c+").law)
        sym = first_moment_symbols(model, 1.5, grid.points)
        fields = torus_field(sym, grid)
        packed = torus_field(_pack(sym[:, 0], sym[:, 1]), grid)
        npt.assert_allclose(packed.real, fields[:, 0], rtol=0, atol=1e-15)
        npt.assert_allclose(packed.imag, fields[:, 1], rtol=0, atol=1e-15)
        assert np.abs(torus_field(sym + 0j, grid).imag).max() < 1e-15
        src = fields[0] * fields[1]          # symmetric products, as in Duhamel
        packed = torus_symbols(_pack(src[0], src[1]), grid)
        for part, f in ((packed.real, src[0]), (packed.imag, src[1])):
            alone = torus_symbols(f, grid)
            assert np.abs(alone.imag).max() < 1e-15
            npt.assert_allclose(part, alone.real, rtol=0, atol=1e-15)

    def test_window_holds_the_lattice_field(self):
        # a field supported well inside the window comes back exactly,
        # at the window coordinates x in [-M/2, M/2)
        grid = ThetaGrid.for_dim(1, 16)
        f = np.zeros(16)
        f[[0 + 8, -3 + 8, 7 + 8]] = [1.0, 0.5, 0.25]
        theta = grid.points[:, 0]
        sym = 1.0 + 0.5 * np.exp(-3j * theta) + 0.25 * np.exp(7j * theta)
        npt.assert_allclose(torus_symbols(f, grid), sym, atol=1e-14)
        npt.assert_allclose(torus_field(sym, grid), f, atol=1e-15)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_wrap_bound_holds_the_wrapped_terms(self, dim):
        # a product f = p q convolved with g on a 32-torus: inside the
        # window |u| <= 8 the cyclic result differs from the linear
        # convolution only by the wrapped terms, about 1e-4 here
        nodes, reach = 32, 8
        grid = ThetaGrid(dim, nodes)
        x = np.abs(np.indices((nodes,) * dim) - nodes // 2).sum(axis=0)
        rng = np.random.default_rng(1)
        p, q, g = (np.exp(-x / decay) * (1.0 + 0.5 * rng.random(x.shape))
                   for decay in (3.0, 4.0, 2.5))
        cyclic = torus_field(torus_symbols(p * q, grid) * torus_symbols(g, grid), grid)
        linear = fftconvolve(p * q, g)          # index u + M
        lo = nodes - reach
        err = np.abs(cyclic.real[_window(grid, reach)]
                     - linear[(slice(lo, lo + 2 * reach + 1),) * dim]).max()
        bound = moments._wrap_bound(moments._envelope_profile(np.stack([p, q, g]), dim, reach),
                                    nodes, reach)
        assert 1e-5 < err <= bound

    def test_coarse_grid_reports_degraded(self):
        # at t = 20 the b+c+ walk spreads past a 16-node torus's window:
        # its window |x| <= 3 is percent off the oracle, and both fields say so
        model = model_case("b+c+")
        grid = ThetaGrid.for_dim(1, 16)
        ode = first_moment_ode_oracle(model, 20.0, 40)
        assert ode.boundary_mass < BOUNDARY_TOL
        inner = ode.values[..., 40 - 3:40 + 4]
        f1 = first_moment_field(model, 20.0, 3, grid)
        assert np.abs(f1.values - inner).max() > 0.05 * np.abs(inner).max()
        for fld in (f1, second_moment_field(model, 20.0, 3, grid)):
            assert fld.boundary_mass > BOUNDARY_TOL
            assert fld.degraded

    def test_aliased_grid_reports_degraded(self):
        # a critical walk at t = 200 is ~14 sites wide: on 8 nodes its
        # anti-periodic images cancel, m_11(0) reads 6.1e-8 against 0.0282,
        # but the window sum misses the total by ~1
        fld = first_moment_field(critical_walk(), 200.0, 0, ThetaGrid(1, 8))
        assert abs(fld.value(1, 1, 0) - 0.02823) > 0.028
        assert fld.boundary_mass > 0.9
        assert fld.degraded


def critical_walk() -> TwoTypeModel:
    """Two decoupled critical binary laws on simple walks (b = c = 0)."""
    law = BranchingLaw(mu1=0.5, mu2=0.5, beta1={(2, 0): 0.5}, beta2={(0, 2): 0.5})
    return TwoTypeModel(simple_kernel(1), simple_kernel(1), 1.0, 1.0, law)


def epidemic_case() -> TwoTypeModel:
    """The supercritical infected/immune law (A = 0.25) on simple walks."""
    law = BranchingLaw(mu1=0.05, mu2=0.0, beta1={(2, 0): 0.5}, conversion_rate=0.2)
    return TwoTypeModel(simple_kernel(1), simple_kernel(1), 1.0, 1.0, law)


def fields_inputs():
    """The benchmark's field inputs, as the CLI fits them: (model, largest
    time, largest output window) for both moment configs and fig-z2."""
    out = []
    for name in ("moments-d1", "moments-d2"):
        cfg = parse_config(
            (Path(__file__).parents[1] / f"perfbench/configs/{name}.yaml").read_text())
        out.append((cfg.build_model(), max(cfg.experiment.t_list),
                    cfg.experiment.box_radius))
    z2 = preset("fig-z2")
    out.append((z2.build_model(), max(z2.experiment.t_list),
                max(z2.experiment.box_radius, z2.experiment.corr_box_radius)))
    return out


def cli_runs() -> dict[str, list[str]]:
    """argv of the benchmark's three ``fields`` runs (perfbench's, without
    --out) and of test_csvio's golden moment and epidemic runs, whose
    --config value is YAML text."""
    from test_csvio import GOLDEN
    configs = Path(__file__).parents[1] / "perfbench/configs"
    return {"moments-d1": ["moments", "--config", str(configs / "moments-d1.yaml")],
            "moments-d2": ["moments", "--config", str(configs / "moments-d2.yaml")],
            "fig-z2": ["epidemic", "--preset", "fig-z2"],
            **{f"golden-{case}": [case, *GOLDEN[case][0]] for case in ("moments", "epidemic")}}


class TestFitGrid:
    def test_fields_inputs(self):
        assert [fit_grid(*args).nodes_per_axis for args in fields_inputs()] == [120, 60, 72]

    def test_wide_field_gets_a_wide_grid(self):
        model = critical_walk()
        ref = first_moment_field(model, 200.0, 0, ThetaGrid(1, 1024))
        # the window-sum gap, twice the mass past 72 sites (5 standard
        # deviations), is 8.1e-7 at M = 144 and 1.3e-5 at M = 128
        grid = fit_grid(model, 200.0, 0)
        assert grid.nodes_per_axis >= 144
        fld = first_moment_field(model, 200.0, 0)
        assert abs(fld.value(1, 1, 0) - ref.value(1, 1, 0)) <= 1e-9
        # every route passes on the fitted grid
        for res in (fld, second_moment_field(model, 200.0, 0, grid),
                    epidemic_m2(model, 200.0, 0, 0, grid),
                    correlation_ode(model, 200.0, 0, grid=grid)):
            assert res.boundary_mass <= BOUNDARY_TOL and not res.degraded, res

    def test_window_past_the_cap_gets_the_cap(self):
        # so `--box 65` at d = 1 is still refused (test_config_cli, before any work)
        model = model_case("b+c+")
        assert fit_grid(model, 1.0, 65) == ThetaGrid.for_dim(1)
        with pytest.raises(ValueError):
            first_moment_field(model, 1.0, 65)

    @pytest.mark.parametrize("argv", cli_runs().values(), ids=cli_runs().keys())
    def test_routes_pass_on_the_fitted_grid(self, argv, tmp_path):
        # the fit tests each grid on the defect that the routes report, so
        # none of the routes a command runs may read past BOUNDARY_TOL on
        # the grid the command fits
        if argv[1] == "--config" and "\n" in argv[2]:       # YAML text
            (tmp_path / "cfg.yaml").write_text(argv[2])
            argv = [*argv[:2], str(tmp_path / "cfg.yaml"), *argv[3:]]
        cfg = _load_config(build_parser().parse_args(argv))
        model, exp = cfg.build_model(), cfg.experiment
        times, box = sorted(set(exp.t_list)), exp.box_radius
        if argv[0] == "moments":
            grid, _ = _command_grid(cfg, model, ("box_radius",))
            results = [route(model, t, box, grid) for t in times
                       for route in (first_moment_field, second_moment_field)]
        else:
            grid, _ = _command_grid(cfg, model, ("corr_box_radius", "box_radius"))
            origin = (0,) * model.dim
            results = [first_moment_field(model, t, box, grid) for t in times]
            results += [epidemic_m2(model, t, origin, origin, grid) for t in times]
            results += correlation_ode(model, times, exp.corr_box_radius, grid=grid)
        for res in results:
            assert res.boundary_mass <= BOUNDARY_TOL and not res.degraded, res

    def test_explicit_grid_wins(self, tmp_path):
        cfg = Path(__file__).parents[1] / "perfbench/configs/moments-d1.yaml"
        grids = []
        for flags in ([], ["--grid", "256"]):
            out = tmp_path / f"out{len(grids)}"
            assert main(["moments", "--config", str(cfg), "--t", "1", *flags,
                         "--out", str(out)]) == 0
            grids.append(json.loads((out / "manifest.json").read_text())["theta_grid"])
        assert grids == [{"nodes_per_axis": 120, "fitted": True},
                         {"nodes_per_axis": 256, "fitted": False}]

    def test_manifest_grid_is_stable_across_reruns(self, tmp_path):
        entries = []
        for k in range(2):
            out = tmp_path / f"run{k}"
            assert main(["epidemic", "--preset", "fig-z2", "--t", "1", "--box", "6",
                         "--out", str(out)]) == 0
            entries.append(json.loads((out / "manifest.json").read_text())["theta_grid"])
        assert entries[0] == entries[1] and entries[0]["fitted"]


class TestMomentFieldApi:
    def test_site_lookup_and_errors(self):
        model = model_case("b0c0")
        fld = first_moment_field(model, 1.0, 5)
        npt.assert_allclose(fld.matrix_at(0)[0, 0], fld.value(1, 1, 0))
        with pytest.raises(ValueError):
            fld.value(1, 1, 9)
        with pytest.raises(ValueError):
            fld.value(1, 1, (1, 1))


def _time_routes():
    """Every moment route as f(model, t), on a fitted grid and, where it takes
    one, on a given grid."""
    grid = ThetaGrid.for_dim(1, 64)
    return {
        "first_moment_field": lambda m, t: first_moment_field(m, t, 3),
        "first_moment_field_grid": lambda m, t: first_moment_field(m, t, 3, grid),
        "second_moment_field": lambda m, t: second_moment_field(m, t, 3),
        "second_moment_field_grid": lambda m, t: second_moment_field(m, t, 3, grid),
        "first_moment_ode_oracle": lambda m, t: first_moment_ode_oracle(m, t, 3),
        "second_moment_ode_oracle": lambda m, t: second_moment_ode_oracle(m, t, 3),
        "pair_moment_ode_oracle": lambda m, t: moments.pair_moment_ode_oracle(m, t, 2),
        "epidemic_first_moment_profiles": lambda m, t: epidemic_first_moment_profiles(m, t, 3),
        "epidemic_m2": lambda m, t: epidemic_m2(m, t, 0, 0),
        "epidemic_m2_grid": lambda m, t: epidemic_m2(m, t, 0, 0, grid),
        "correlation_ode": lambda m, t: correlation_ode(m, t, 3),
        "correlation_ode_grid": lambda m, t: correlation_ode(m, t, 3, grid=grid),
    }


@pytest.mark.parametrize("route", _time_routes())
def test_routes_refuse_times_that_are_not_finite(route):
    # an infinite time never finished the box integration, and a NaN one was
    # answered with the state at an earlier time
    call = _time_routes()[route]
    bad = [math.nan, math.inf, -math.inf]
    if "oracle" in route or route.startswith("correlation_ode"):
        bad += [[0.5, math.inf], [0.5, math.nan], [math.nan, 0.5]]
    for t in bad:
        with pytest.raises(ValueError, match="finite and nonnegative"):
            call(model_case("b+c+"), t)


class TestConversionScope:
    def test_engine_covers_conversion_law(self):
        # conversion is r1 -> r1 - r, b -> b + r: the generic engine handles the
        # epidemic law, and its routes agree with each other and with the
        # epidemic module's views of it
        law = BranchingLaw(mu1=0.05, mu2=0.0, beta1={(2, 0): 0.5}, conversion_rate=0.2)
        model = TwoTypeModel(simple_kernel(1), uniform_range_kernel(1, 2), 1.0, 0.5, law)
        t, box = 2.0, 30
        f1 = first_moment_field(model, t, box)
        assert np.abs(f1.values - first_moment_ode_oracle(model, t, box).values).max() < 1e-5
        r1, r2 = epidemic_first_moment_profiles(model, t, box)
        npt.assert_allclose(f1.values[0, 0], r1, atol=1e-14)
        npt.assert_allclose(f1.values[0, 1], r2, atol=1e-14)
        f2 = second_moment_field(model, t, box)
        o2 = second_moment_ode_oracle(model, t, box)
        assert f2.converged and not f2.degraded
        npt.assert_allclose(f2.values, o2.values, rtol=1e-4, atol=1e-8)
        for x in (0, 3):
            npt.assert_allclose(epidemic_m2(model, t, 0, x).value, f2.value(1, 1, x),
                                rtol=1e-10)


class TestQuadratureCap:
    def test_cap_without_convergence_is_loud(self, monkeypatch):
        monkeypatch.setattr(moments, "QUAD_MAX_NODES", moments.QUAD_START_NODES)
        model = model_case("b+c+")
        fld = second_moment_field(model, 20.0, 30)
        assert not fld.converged
        assert fld.degraded
        assert epidemic_m2(epidemic_case(), 20.0, 0, 0).degraded

    def test_pair_route_shares_the_cap(self, monkeypatch):
        monkeypatch.setattr(moments, "QUAD_MAX_NODES", moments.QUAD_START_NODES)
        fld = correlation_ode(epidemic_case(), 20.0, 4)
        assert not fld.converged
        assert fld.degraded


class TestNodePairs:
    @staticmethod
    def _paired_sum(t, n_nodes, monkeypatch, integrand, tails=None):
        """The n-node paired rule alone (start = cap), checking the block
        contract on the way: at most QUAD_BLOCK nodes, each node's mirror
        t - s at the reversed position, one (B, 3) weight row per node.
        Each block's two tail sums are appended to ``tails`` if given."""
        monkeypatch.setattr(moments, "QUAD_START_NODES", n_nodes)
        monkeypatch.setattr(moments, "QUAD_MAX_NODES", n_nodes)
        seen = []

        def node_sum(s, w):
            assert len(s) <= moments.QUAD_BLOCK and len(s) % 2 == 0
            assert w.shape == (len(s), 3)
            npt.assert_allclose(s[::-1], t - s, rtol=0, atol=4 * np.spacing(t))
            seen.extend(s)
            sums = w.T @ integrand(s)
            if tails is not None:
                tails.append(sums[1:])
            return sums[:, None], 0.0

        value, _, _ = moments._doubling_quadrature(t, np.zeros(1), node_sum, lambda v: v)
        assert len(set(seen)) == n_nodes
        return value[0]

    @pytest.mark.parametrize("n_nodes", [16, 64, 128])
    def test_paired_rule_is_the_plain_gauss_legendre_sum(self, n_nodes, monkeypatch):
        # int_0^t e^{-s} cos 3s ds, and a convolution e^{-s} e^{-2(t - s)}
        # whose t - s factor is read off the mirror nodes
        t = 3.0
        x, w = leggauss(n_nodes)
        s, w = 0.5 * t * (x + 1.0), 0.5 * t * w
        plain = w @ (np.exp(-s) * np.cos(3 * s))
        paired = self._paired_sum(t, n_nodes, monkeypatch,
                                  lambda s: np.exp(-s) * np.cos(3 * s))
        assert abs(paired - plain) <= 1e-14
        exact = (math.exp(-t) * (3 * math.sin(3 * t) - math.cos(3 * t)) + 1) / 10
        assert abs(paired - exact) <= 1e-12
        plain = w @ (np.exp(-s) * np.exp(-2 * (t - s)))
        paired = self._paired_sum(
            t, n_nodes, monkeypatch,
            lambda s: np.exp(-s) * moments._mirror_nodes(np.exp(-2 * s), axis=0))
        assert abs(paired - plain) <= 1e-14
        assert abs(paired - (math.exp(-t) - math.exp(-2 * t))) <= 1e-12

    @pytest.mark.parametrize("n_nodes", [64, 128])
    def test_tail_columns_are_the_plain_legendre_sums(self, n_nodes, monkeypatch):
        # pairs span several blocks, so each tail weight must travel with its
        # node; the integrand has every Legendre coefficient up to n - 1, the
        # top two of both parities, so a weight on the wrong node shows
        t = 3.0
        coeffs = 1.0 / (1.0 + np.arange(n_nodes))
        tails = []
        self._paired_sum(t, n_nodes, monkeypatch,
                         lambda s: legval(2.0 * s / t - 1.0, coeffs), tails)
        x, w = leggauss(n_nodes)
        plain = (0.5 * t * w * legval(x, coeffs)) @ legvander(x, n_nodes - 1)[:, -2:]
        npt.assert_allclose(np.sum(tails, axis=0), plain, rtol=0, atol=1e-14)
        # Gauss exactness: sum_j w_j P_k(x_j) f = t c_k / (2k + 1)
        k = np.arange(n_nodes - 2, n_nodes)
        npt.assert_allclose(plain, t * coeffs[k] / (2 * k + 1), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("start", [64, 128])
    def test_pairs_spanning_blocks_agree_with_the_default_start(self, start, monkeypatch):
        # at 64 and 128 nodes the pairs fill several blocks of QUAD_BLOCK
        model = model_case("b+c+")
        ref = second_moment_field(model, 2.0, 30)
        monkeypatch.setattr(moments, "QUAD_START_NODES", start)
        fld = second_moment_field(model, 2.0, 30)
        assert fld.converged and ref.converged
        scale = 1.0 + np.abs(ref.values).max()
        assert np.abs(fld.values - ref.values).max() <= moments.QUAD_TOL * scale

    def test_odd_node_count_is_refused(self, monkeypatch):
        monkeypatch.setattr(moments, "QUAD_START_NODES", 15)
        with pytest.raises(ValueError, match="even"):
            moments._doubling_quadrature(1.0, np.zeros(1),
                                         lambda s, w: (np.zeros((3, 1)), 0.0), lambda v: v)


def _exponentials(t):
    # real exponentials, growing and decaying, with mixed signs: the shape of
    # every moment integrand
    for lams, cs in (((-3.0, 0.2), (1.0, -1.0)), ((1.0, -0.5), (-2.0, 3.0)),
                     ((0.0, -1.0, -4.0), (1.0, -2.0, 1.5)), ((0.3,), (1.0,)),
                     ((-2.0,), (1.0,)), ((-6.0, 0.1), (2.0, -1.0))):
        yield (lambda s, lams=lams, cs=cs: sum(c * np.exp(lam * s)
                                                for lam, c in zip(lams, cs)),
               sum(c * (t if lam == 0.0 else math.expm1(lam * t) / lam)
                   for lam, c in zip(lams, cs)))


def _runge(t):
    for c in (1.0, 5.0, 25.0, 100.0):
        yield (lambda s, c=c: 1.0 / (1.0 + c * c * (s / t - 0.37) ** 2),
               t / c * (math.atan(0.63 * c) + math.atan(0.37 * c)))


def _bumps(t):
    # off-centre Gaussians of width sigma = rel * t; a bump much narrower than
    # the 16-node spacing can fall between the nodes (see
    # ``_doubling_quadrature``), so the narrowest here is t / 100
    for mu, rel in ((0.3, 0.15), (0.8, 0.05), (0.1, 0.03), (0.6, 0.02), (0.45, 0.01)):
        m, sig = mu * t, rel * t
        yield (lambda s, m=m, sig=sig: np.exp(-(s - m) ** 2 / (2.0 * sig * sig)),
               sig * math.sqrt(math.pi / 2.0)
               * (math.erf((t - m) / (sig * math.sqrt(2.0)))
                  + math.erf(m / (sig * math.sqrt(2.0)))))


class TestQuadratureEstimate:
    @staticmethod
    def _integrate(t, integrand, monkeypatch):
        """(value, converged, node counts asked of leggauss) for a scalar
        integrand on [0, t]."""
        calls = []
        monkeypatch.setattr(moments, "leggauss", lambda n: calls.append(n) or leggauss(n))
        value, _, converged = moments._doubling_quadrature(
            t, np.zeros(1), lambda s, w: ((w.T @ integrand(s))[:, None], 0.0),
            lambda v: v)
        return value[0], converged, calls

    @pytest.mark.parametrize("family", [_exponentials, _runge, _bumps])
    @pytest.mark.parametrize("t", [0.5, 2.0, 5.0, 20.0, 50.0])
    def test_converged_means_within_tolerance(self, family, t, monkeypatch):
        accepted = 0
        for integrand, exact in family(t):
            value, converged, _ = self._integrate(t, integrand, monkeypatch)
            if converged:
                accepted += 1
                assert abs(value - exact) <= moments.QUAD_TOL * (1.0 + abs(value))
        assert accepted

    def test_unresolved_integrand_doubles_to_64_nodes(self, monkeypatch):
        # e^{-6s} on [0, 20]: the 16- and 32-node tails are 0.52 and 4.2e-3
        # against a tolerance of 1.2e-8, the 64-node tail 1.1e-12
        value, converged, calls = self._integrate(20.0, lambda s: np.exp(-6.0 * s),
                                                  monkeypatch)
        assert calls == [16, 32, 64] and converged
        assert abs(value - math.expm1(-120.0) / -6.0) <= moments.QUAD_TOL

    def test_field_routes_build_one_rule(self, monkeypatch):
        # the fig-z2 integrals stop at their first rule, so leggauss is
        # called once; the d = 1 field at t = 5 fails at 16 nodes and
        # passes at 32
        calls = []
        monkeypatch.setattr(moments, "leggauss", lambda n: calls.append(n) or leggauss(n))
        (d1, t_max, radius), _, z2_fit = fields_inputs()
        fld = second_moment_field(d1, t_max, radius, fit_grid(d1, t_max, radius))
        assert calls == [16, 32] and fld.converged
        z2 = preset("fig-z2")
        model, grid = z2.build_model(), fit_grid(*z2_fit)
        calls.clear()
        m2 = epidemic_m2(model, 4.0, (0, 0), (0, 0), grid)
        assert calls == [16] and np.isfinite(m2.value)
        calls.clear()
        pair = correlation_ode(model, 4.0, z2.experiment.corr_box_radius, grid=grid)
        assert calls == [16] and pair.converged


def _quadrature_routes(case: str) -> list[tuple[np.ndarray, bool]]:
    """Every quadrature route's values on one case, each with its
    ``degraded`` flag: the A2 laws at the A2 times, a ``fields`` moment
    config at each of its times, or fig-z2 at its six times on both
    slices; the last three on the grids their commands fit."""
    if case == "a2":
        from test_acceptance import BOX, SWEEP_TIMES, sweep_models
        fields = [second_moment_field(model, t, BOX)
                  for model in sweep_models().values() for t in SWEEP_TIMES]
        return [(f.values, f.degraded) for f in fields]
    if case.startswith("moments"):
        cfg = parse_config(
            (Path(__file__).parents[1] / f"perfbench/configs/{case}.yaml").read_text())
        model, exp = cfg.build_model(), cfg.experiment
        grid, _ = _command_grid(cfg, model, ("box_radius",))
        fields = [second_moment_field(model, t, exp.box_radius, grid) for t in exp.t_list]
        return [(f.values, f.degraded) for f in fields]
    cfg = preset(case)
    model, exp = cfg.build_model(), cfg.experiment
    grid, _ = _command_grid(cfg, model, ("corr_box_radius", "box_radius"))
    origin = (0,) * model.dim
    m2 = [epidemic_m2(model, t, origin, origin, grid) for t in exp.t_list]
    pairs = correlation_ode(model, exp.t_list, exp.corr_box_radius, grid=grid)
    return ([(np.array(v.value), v.degraded) for v in m2]
            + [(_pair_values(p, exp.corr_box_radius), p.degraded) for p in pairs])


@pytest.mark.parametrize("case", ["a2", "moments-d1", "moments-d2", "fig-z2"])
def test_start_rule_agrees_with_a_64_node_rule(case, monkeypatch):
    # each route at the default start rule against the same route on one
    # 64-node rule, which must pass its own tail test: the start rule is
    # accepted only where it is within the tail test's tolerance
    got = _quadrature_routes(case)
    monkeypatch.setattr(moments, "QUAD_START_NODES", 64)
    monkeypatch.setattr(moments, "QUAD_MAX_NODES", 64)
    for (value, degraded), (ref, ref_degraded) in zip(got, _quadrature_routes(case),
                                                      strict=True):
        assert not degraded and not ref_degraded
        assert np.abs(value - ref).max() <= moments.QUAD_TOL * (1.0 + np.abs(ref).max())


COARSE_GRIDS = (40, 48, 54, 60, 64)


def _pair_values(pair, radius: int) -> np.ndarray:
    return np.stack([pair.r11, pair.r12, pair.r22]).reshape(
        (3,) + (2 * radius + 1,) * pair.dim)


@pytest.mark.parametrize("case", range(3), ids=["moments-d1", "moments-d2", "fig-z2"])
def test_defect_never_reads_below_the_error(case):
    # on coarse grids, with the window cut to M/4, each route's defect is at
    # least its largest error on the window against the cap grid (256 nodes
    # at d = 1, 128^2 at d = 2, where fig-z2's window-sum gap is 1.6e-15).
    # The M2 view at u = (w, ..., w) is checked against the diagonal there.
    model, t, window = fields_inputs()[case]
    dim, top = model.dim, min(window, COARSE_GRIDS[-1] // 4)
    cap = ThetaGrid.for_dim(dim)
    ref = {"first": first_moment_field(model, t, top, cap).values,
           "second": second_moment_field(model, t, top, cap).values,
           "pair": _pair_values(correlation_ode(model, t, top, grid=cap), top)}
    for nodes in COARSE_GRIDS:
        grid, w = ThetaGrid(dim, nodes), min(window, nodes // 4)
        cut = (Ellipsis,) + (slice(top - w, top + w + 1),) * dim
        first = first_moment_field(model, t, w, grid)
        second = second_moment_field(model, t, w, grid)
        pair = correlation_ode(model, t, w, grid=grid)
        m2 = epidemic_m2(model, t, (0,) * dim, (w,) * dim, grid)
        for name, res, err in (
                ("first", first, np.abs(first.values - ref["first"][cut]).max()),
                ("second", second, np.abs(second.values - ref["second"][cut]).max()),
                ("pair", pair, np.abs(_pair_values(pair, w) - ref["pair"][cut]).max()),
                ("m2", m2, abs(m2.value - ref["second"][(0, 0) + (top + w,) * dim]))):
            assert res.boundary_mass >= err, (nodes, name, res.boundary_mass, err)


def test_solve_chained_leaves_no_solver_alive(monkeypatch):
    # with the collector off, only refcounting can free what a segment
    # allocated: its stage buffer and every state and derivative that the
    # stepper passed through the right-hand side, all but the end states
    buffers, seen = [], []

    class Numpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def empty(self, *args, **kwargs):
            out = np.empty(*args, **kwargs)
            buffers.append(weakref.ref(out))
            return out

    def rhs(_s, y):
        dy = -y
        seen.extend([weakref.ref(y), weakref.ref(dy)])
        return dy

    monkeypatch.setattr(_dop853, "np", Numpy())
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        states = moments._solve_chained(rhs, np.ones(3), [0.5, 1.0], 4.0)
        stage_alive = [ref() is not None for ref in buffers]
        others = [ref() for ref in seen
                  if ref() is not None and not any(ref() is s for s in states)]
    finally:
        if was_enabled:
            gc.enable()
    assert stage_alive == [False, False]
    assert others == []
    npt.assert_allclose(states[-1], math.exp(-1.0), rtol=1e-6)
