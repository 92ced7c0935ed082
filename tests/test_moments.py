import math

import numpy as np
import numpy.testing as npt
import pytest
from scipy.linalg import expm

from brw2 import moments
from brw2.branching import BranchingLaw, TwoTypeModel
from brw2.epidemic import EpidemicLaw, epidemic_first_moment_profiles, epidemic_m2
from brw2.lattice import ThetaGrid, simple_kernel, transition_probability, \
    uniform_range_kernel
from brw2.epidemic import correlation_ode
from brw2.moments import (BoxTransform, box_sites, first_moment_asymptote,
                          first_moment_field, first_moment_ode_oracle,
                          first_moment_symbols, fundamental_solution,
                          second_moment_field, second_moment_ode_oracle,
                          torus_field, torus_symbols)


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


class TestBoxTransform:
    def test_round_trip_exact(self):
        grid = ThetaGrid.for_dim(1)
        tr = BoxTransform(grid, 30)
        rng = np.random.default_rng(1)
        f = rng.normal(size=61)
        back = tr.to_box(tr.to_theta(f))
        npt.assert_allclose(back, f, atol=1e-12)

    def test_round_trip_2d(self):
        grid = ThetaGrid.for_dim(2, 64)
        tr = BoxTransform(grid, 7)
        rng = np.random.default_rng(2)
        f = rng.normal(size=(15, 15))
        npt.assert_allclose(tr.to_box(tr.to_theta(f)), f, atol=1e-12)

    def test_rejects_undersized_grid(self):
        with pytest.raises(ValueError, match="nodes"):
            BoxTransform(ThetaGrid.for_dim(1, 64), 30)

    def test_box_sites_order(self):
        s = box_sites(1, 2)
        assert s.tolist() == [[-1, -1], [-1, 0], [-1, 1], [0, -1], [0, 0], [0, 1],
                              [1, -1], [1, 0], [1, 1]]


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

    @pytest.mark.parametrize("dim, nodes", [(1, 64), (2, 32)])
    def test_agrees_with_box_transform_on_the_box(self, dim, nodes):
        # the box is the centre of the window: index x + M/2
        grid = ThetaGrid.for_dim(dim, nodes)
        k = simple_kernel(dim)
        model = TwoTypeModel(k, k, 1.0, 1.0, model_case("b+c+").law)
        sym = first_moment_symbols(model, 1.5, grid.points)
        tr = BoxTransform(grid, (nodes - 1) // 4)
        centre = (Ellipsis,) + (slice(nodes // 2 - tr.box_radius,
                                      nodes // 2 + tr.box_radius + 1),) * dim
        npt.assert_allclose(torus_field(sym, grid)[centre], tr.to_box(sym), atol=1e-15)

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


class TestMomentFieldApi:
    def test_site_lookup_and_errors(self):
        model = model_case("b0c0")
        fld = first_moment_field(model, 1.0, 5)
        npt.assert_allclose(fld.matrix_at(0)[0, 0], fld.value(1, 1, 0))
        with pytest.raises(ValueError):
            fld.value(1, 1, 9)
        with pytest.raises(ValueError):
            fld.value(1, 1, (1, 1))


class TestConversionScope:
    def test_engine_covers_conversion_law(self):
        # conversion is r1 -> r1 - r, b -> b + r: the generic engine handles the
        # epidemic law, and its routes agree with each other and with the
        # epidemic module, whose M2 view puts kernel1 in place of the type-2 walk
        law = EpidemicLaw(mu1=0.05, mu2=0.0, infection_rates={2: 0.5},
                          conversion_rate=0.2)
        k1, k2 = simple_kernel(1), uniform_range_kernel(1, 2)
        model = TwoTypeModel(k1, k2, 1.0, 0.5, law.to_branching_law())
        t, box = 2.0, 30
        f1 = first_moment_field(model, t, box)
        assert np.abs(f1.values - first_moment_ode_oracle(model, t, box).values).max() < 1e-5
        r1, r2 = epidemic_first_moment_profiles(law, k1, 1.0, k2, 0.5, t, box)
        npt.assert_allclose(f1.values[0, 0], r1, atol=1e-14)
        npt.assert_allclose(f1.values[0, 1], r2, atol=1e-14)
        f2 = second_moment_field(model, t, box)
        o2 = second_moment_ode_oracle(model, t, box)
        assert f2.converged and not f2.degraded
        npt.assert_allclose(f2.values, o2.values, rtol=1e-4, atol=1e-8)
        view = TwoTypeModel(k1, k1, 1.0, 1.0, law.to_branching_law())
        m2_view = second_moment_ode_oracle(view, t, box).values[0, 0]
        npt.assert_allclose(f2.values[0, 0], m2_view, rtol=1e-4, atol=1e-8)


class TestQuadratureCap:
    def test_cap_without_convergence_is_loud(self, monkeypatch):
        monkeypatch.setattr(moments, "QUAD_MAX_NODES", moments.QUAD_START_NODES)
        model = model_case("b+c+")
        fld = second_moment_field(model, 5.0, 30)
        assert not fld.converged
        assert fld.degraded
        law = EpidemicLaw(mu1=0.05, mu2=0.0, infection_rates={2: 0.5},
                          conversion_rate=0.2)
        assert epidemic_m2(law, simple_kernel(1), 1.0, 5.0, 0, 0).degraded

    def test_pair_route_shares_the_cap(self, monkeypatch):
        monkeypatch.setattr(moments, "QUAD_MAX_NODES", moments.QUAD_START_NODES)
        law = EpidemicLaw(mu1=0.05, mu2=0.0, infection_rates={2: 0.5},
                          conversion_rate=0.2)
        k = simple_kernel(1)
        fld = correlation_ode(law, k, 1.0, k, 1.0, 5.0, 4)
        assert not fld.converged
        assert fld.degraded
