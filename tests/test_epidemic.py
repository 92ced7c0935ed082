import math
from functools import partial

import numpy as np
import numpy.testing as npt
import pytest

from brw2.branching import TwoTypeModel
from brw2.config import preset
from brw2.epidemic import (EpidemicLaw, correlation_box_ode, correlation_ode,
                           epidemic_first_moment_profiles, epidemic_m2,
                           intermittency_ratio, max_pair_window)
from brw2.lattice import ThetaGrid, simple_kernel, transition_probability, \
    uniform_range_kernel
from brw2.moments import (BOUNDARY_TOL, ODE_ATOL, _phase_sum, first_moment_ode_oracle,
                          first_moment_symbols, second_moment_ode_oracle)
from brw2.simulate import map_replicas

K1 = simple_kernel(1)


def immune_law(mu1=0.05, b2=0.5, r=0.45, mu2=0.0) -> EpidemicLaw:
    return EpidemicLaw(mu1=mu1, mu2=mu2, infection_rates={2: b2}, conversion_rate=r)


def supercritical_law() -> EpidemicLaw:
    # A = 0.5 - 0.05 - 0.2 = 0.25 > 0, mu2 = 0: the non-intermittent regime
    return EpidemicLaw(mu1=0.05, mu2=0.0, infection_rates={2: 0.5}, conversion_rate=0.2)


class TestEpidemicLaw:
    def test_derived_scalars(self):
        law = EpidemicLaw(mu1=0.1, mu2=0.2, infection_rates={2: 0.5, 3: 0.25},
                          conversion_rate=0.05)
        assert law.beta == pytest.approx(0.5 + 2 * 0.25)
        assert law.beta2 == pytest.approx(2 * 0.5 + 6 * 0.25)
        assert law.growth == pytest.approx(1.0 - 0.1 - 0.05)

    def test_fig_z2_parameters(self):
        law = immune_law()
        assert law.beta == 0.5 and law.beta2 == 1.0 and law.growth == 0.0

    def test_validation(self):
        with pytest.raises(ValueError, match="n >= 2"):
            EpidemicLaw(mu1=0.0, mu2=0.0, infection_rates={1: 0.5})
        with pytest.raises(ValueError):
            EpidemicLaw(mu1=-1.0, mu2=0.0, infection_rates={})

    def test_maps_onto_branching_law(self):
        law = immune_law()
        blaw = law.to_branching_law()
        assert blaw.beta1 == ((2, 0, 0.5),)
        assert blaw.beta2 == ()
        assert blaw.conversion_rate == 0.45


class TestFirstMoments:
    def test_initial_condition(self):
        law = immune_law()
        r1, r2 = epidemic_first_moment_profiles(law, K1, 1.0, K1, 1.0, 0.0, 3)
        assert r1[3] == pytest.approx(1.0, abs=1e-12)        # x = 0
        assert r2[3] == pytest.approx(0.0, abs=1e-12)
        assert r1[6] == pytest.approx(0.0, abs=1e-12)        # x = 3

    def test_no_conversion_means_no_immune(self):
        law = EpidemicLaw(mu1=0.2, mu2=0.1, infection_rates={2: 0.3})
        for t in (0.5, 2.0):
            _, r2 = epidemic_first_moment_profiles(law, K1, 1.0, K1, 1.0, t, 0)
            assert abs(r2[0]) < 1e-14

    def test_balanced_equal_kernel_closed_form(self):
        # A = 0, mu2 = 0, equal kernels: R1 = p(t, 0, x), R2 = r t p(t, 0, x)
        law = immune_law()           # A = 0
        grid = ThetaGrid.for_dim(1)
        for t in (1.0, 3.0):
            r1, r2 = epidemic_first_moment_profiles(law, K1, 1.0, K1, 1.0, t, 2, grid)
            for x in (0, 2):
                p = transition_probability(K1, 1.0, t, 0, x, grid)
                npt.assert_allclose(r1[x + 2], p, rtol=1e-12)
                npt.assert_allclose(r2[x + 2], 0.45 * t * p, rtol=1e-12)

    def test_profiles_match_pointwise(self):
        # the box transform equals the single-site phase sum of the same
        # symbols; the box-ODE route shares only the law and is accurate to
        # its rtol 1e-7
        law = supercritical_law()
        k2 = uniform_range_kernel(1, 2)
        prof1, prof2 = epidemic_first_moment_profiles(law, K1, 1.0, k2, 0.5, 2.0, 12)
        model = TwoTypeModel(K1, k2, 1.0, 0.5, law.to_branching_law())
        grid = ThetaGrid.for_dim(1)
        sym = first_moment_symbols(model, 2.0, grid.points)
        ode = first_moment_ode_oracle(model, 2.0, 20)
        assert ode.boundary_mass < 1e-12
        for x in (-3, 0, 5):
            npt.assert_allclose(prof1[x + 12], _phase_sum(sym[0, 0], grid, (x,)), atol=1e-12)
            npt.assert_allclose(prof2[x + 12], _phase_sum(sym[0, 1], grid, (x,)), atol=1e-12)
            npt.assert_allclose(prof1[x + 12], ode.value(1, 1, x), rtol=1e-7)
            npt.assert_allclose(prof2[x + 12], ode.value(1, 2, x), rtol=1e-7)

    def test_growth_factor(self):
        # R1 = e^{At} p: total mass over the box is e^{At}
        law = supercritical_law()
        prof1, _ = epidemic_first_moment_profiles(law, K1, 1.0, K1, 1.0, 2.0, 25)
        npt.assert_allclose(prof1.sum(), math.exp(0.25 * 2.0), rtol=1e-8)


class TestSecondMoment:
    def test_delta_at_t0(self):
        law = immune_law()
        m2 = epidemic_m2(law, K1, 1.0, 0.0, 0, 0)
        assert m2.value == pytest.approx(1.0, abs=1e-12)

    def test_no_infection_reduces_to_first_moment(self):
        law = EpidemicLaw(mu1=0.3, mu2=0.0, infection_rates={}, conversion_rate=0.1)
        t = 2.0
        m2 = epidemic_m2(law, K1, 1.0, t, 0, 1)
        grid = ThetaGrid.for_dim(1)
        m1 = math.exp(law.growth * t) * transition_probability(K1, 1.0, t, 0, 1, grid)
        npt.assert_allclose(m2.value, m1, rtol=1e-12)

    def test_duhamel_matches_ode_route(self):
        law = supercritical_law()
        model = TwoTypeModel(K1, K1, 1.0, 1.0, law.to_branching_law())
        for t in (1.0, 3.0):
            ode = second_moment_ode_oracle(model, t, 30)
            assert ode.boundary_mass < 1e-6
            for x in (0, 1, 2, 5):
                duh = epidemic_m2(law, K1, 1.0, t, 0, x, box_radius=30)
                npt.assert_allclose(duh.value, ode.value(1, 1, x), rtol=1e-4, atol=1e-8)

    def test_m2_dominates_m1(self):
        law = supercritical_law()
        model = TwoTypeModel(K1, K1, 1.0, 1.0, law.to_branching_law())
        m1f = first_moment_ode_oracle(model, 2.0, 25).values[0, 0]
        m2f = second_moment_ode_oracle(model, 2.0, 25).values[0, 0]
        assert (m2f - m1f >= -1e-10).all()


class TestIntermittencyRatio:
    def test_pure_walk_ratio_is_inverse_m1(self):
        # N in {0, 1}: E N^2 = E N, ratio = 1 / M1 = 1 / p >= 1, growing ~ sqrt(t)
        law = EpidemicLaw(mu1=0.0, mu2=0.0, infection_rates={})
        grid = ThetaGrid.for_dim(1)
        pts = intermittency_ratio(law, K1, 1.0, [2.0, 8.0, 32.0], 0, 0, grid)
        for pt in pts:
            p = transition_probability(K1, 1.0, pt.t, 0, 0, grid)
            npt.assert_allclose(pt.ratio, 1.0 / p, rtol=1e-10)
            assert pt.ratio >= 1.0
        assert pts[0].ratio < pts[1].ratio < pts[2].ratio

    def test_sqrt_regime_metadata(self):
        law = immune_law()
        pts = intermittency_ratio(law, K1, 1.0, [4.0], 0, 3, regime_c=2.0)
        assert pts[0].in_sqrt_regime       # |x-y| = 3 <= 2 sqrt(4)
        far = intermittency_ratio(law, K1, 1.0, [4.0], 0, 9, regime_c=2.0)
        assert not far[0].in_sqrt_regime

    def test_supercritical_ratio_bounded(self):
        law = supercritical_law()
        pts = intermittency_ratio(law, K1, 1.0, [10.0, 20.0, 40.0], 0, 0,
                                  box_radius=40)
        ratios = [pt.ratio for pt in pts]
        assert max(ratios) / min(ratios) < 2.0


class TestCorrelations:
    def test_initial_conditions_and_conversion_free_case(self):
        law = EpidemicLaw(mu1=0.2, mu2=0.1, infection_rates={2: 0.3})
        fields = correlation_box_ode(law, K1, 1.0, K1, 1.0, [0.0, 1.5], 8)
        f0, f1 = fields
        assert f0.pair("r11", 0, 0) == 1.0
        assert np.abs(f0.r22).max() == 0.0
        # r = 0: no type-2 particles are ever created
        assert np.abs(f1.r12).max() < 1e-12
        assert np.abs(f1.r22).max() < 1e-12

    def test_pure_walk_pair_function_is_diagonal(self):
        law = EpidemicLaw(mu1=0.0, mu2=0.0, infection_rates={})
        fld = correlation_box_ode(law, K1, 1.0, K1, 1.0, 2.0, 14)
        grid = ThetaGrid.for_dim(1)
        for x in (-2, 0, 3):
            expect = transition_probability(K1, 1.0, 2.0, 0, x, grid)
            npt.assert_allclose(fld.pair("r11", x, x), expect, atol=1e-6)
            npt.assert_allclose(fld.pair("r11", x, x + 1), 0.0, atol=1e-8)

    def test_pure_walk_pair_function_against_monte_carlo(self):
        law = EpidemicLaw(mu1=0.0, mu2=0.0, infection_rates={})
        model = TwoTypeModel(K1, K1, 1.0, 1.0, law.to_branching_law())
        t = 1.0
        res, _ = map_replicas(model, t, [(1, 0)], 20000, 5,
                              partial(_walk_product_moments, t=t))
        arr = np.array(res, dtype=float)
        fld = correlation_ode(law, K1, 1.0, K1, 1.0, t, 12)
        for col, u in ((0, 0), (1, 1)):
            mc = arr[:, col].mean()
            se = arr[:, col].std(ddof=1) / math.sqrt(len(arr))
            assert abs(mc - fld.value("r11", u)) < 4 * max(se, 1e-4)

    def test_conversion_chain_against_monte_carlo(self):
        # full system: infected branch, convert; check R12 and R22 vs MC
        law = supercritical_law()
        model = TwoTypeModel(K1, K1, 1.0, 1.0, law.to_branching_law())
        t = 1.5
        res, _ = map_replicas(model, t, [(1, 0)], 40000, 8,
                              partial(_conversion_moments, t=t))
        arr = np.array(res, dtype=float)
        fld = correlation_ode(law, K1, 1.0, K1, 1.0, t, 12)
        checks = [
            (0, fld.value("r12", 0)),
            (1, fld.value("r22", 0)),
            (2, fld.value("r22", 1)),
            (3, fld.value("r1", 0)),
            (4, fld.value("r2", 0)),
        ]
        for col, theory in checks:
            mc = arr[:, col].mean()
            se = arr[:, col].std(ddof=1) / math.sqrt(len(arr))
            assert abs(mc - theory) < 4 * max(se, 1e-4), (col, mc, theory, se)

    def test_symmetry_and_variance_bounds(self):
        law = supercritical_law()
        fld = correlation_box_ode(law, K1, 1.0, K1, 1.0, 5.0, 16)
        npt.assert_array_equal(fld.r11, fld.r11.T)
        npt.assert_array_equal(fld.r22, fld.r22.T)
        diag11 = np.diag(fld.r11)
        diag22 = np.diag(fld.r22)
        assert (diag11 - fld.r1 ** 2 >= -1e-10).all()
        assert (diag22 - fld.r2 ** 2 >= -1e-10).all()

    def test_first_moments_match_closed_forms(self):
        law = supercritical_law()
        fld = correlation_box_ode(law, K1, 1.0, K1, 1.0, 2.0, 20)
        prof1, prof2 = epidemic_first_moment_profiles(law, K1, 1.0, K1, 1.0, 2.0, 20)
        npt.assert_allclose(fld.r1, prof1, atol=1e-7)
        npt.assert_allclose(fld.r2, prof2, atol=1e-7)

    def test_non_intermittency_at_fixed_site(self):
        law = supercritical_law()
        fields = correlation_ode(law, K1, 1.0, K1, 1.0, [5.0, 10.0, 20.0], 16)
        ratios = [fld.value("r22", 0) / fld.value("r2", 0) ** 2 for fld in fields]
        assert max(ratios) / min(ratios) < 2.0

    def test_u_slice_is_origin_anchored(self):
        law = supercritical_law()
        fld = correlation_box_ode(law, K1, 1.0, K1, 1.0, 1.0, 6)
        sl = fld.u_slice("r11")
        npt.assert_allclose(sl[6 + 2], fld.pair("r11", 0, 2), rtol=0)

    @staticmethod
    def _assert_matches_oracle(fields, oracle, dim):
        # the route's window is the oracle box less a margin, so the
        # oracle's absorbing edge stays out of the comparison
        for fld, ora in zip(fields, oracle):
            assert ora.boundary_mass < BOUNDARY_TOL
            side = 2 * ora.box_radius + 1
            margin = ora.box_radius - fld.box_radius
            inner = (slice(margin, side - margin),) * dim
            for name in ("r11", "r12", "r22", "r1", "r2"):
                full = ora.u_slice(name) if len(name) == 3 else getattr(ora, name)
                expect = full.reshape((side,) * dim)[inner].ravel()
                npt.assert_allclose(getattr(fld, name), expect, rtol=1e-6, atol=ODE_ATOL,
                                    err_msg=f"{name} at t={fld.t}")

    def test_many_to_two_matches_box_oracle_1d(self):
        # unequal kernels and kappas, a three-child infection, immune deaths
        law = EpidemicLaw(mu1=0.05, mu2=0.1, infection_rates={2: 0.5, 3: 0.2},
                          conversion_rate=0.3)
        k2 = uniform_range_kernel(1, 2)
        times = [0.5, 1.0, 2.0]
        oracle = correlation_box_ode(law, K1, 1.0, k2, 1.5, times, 16)
        fields = correlation_ode(law, K1, 1.0, k2, 1.5, times, 12)
        assert all(f.converged and not f.degraded for f in fields)
        self._assert_matches_oracle(fields, oracle, 1)

    def test_many_to_two_matches_box_oracle_2d(self):
        law = immune_law(mu2=0.1)
        k1, k2 = simple_kernel(2), uniform_range_kernel(2, 1)
        times = [0.5, 1.0]
        oracle = correlation_box_ode(law, k1, 1.0, k2, 0.5, times, 6)
        fields = correlation_ode(law, k1, 1.0, k2, 0.5, times, 4)
        self._assert_matches_oracle(fields, oracle, 2)

    def test_r11_at_origin_equals_epidemic_m2(self):
        # two routes to E[N1(t, 0)^2] on the fig-z2 model
        cfg = preset("fig-z2")
        law, grid = cfg.build_epidemic_law(), cfg.build_grid()
        k1, k2 = cfg.build_kernel(1), cfg.build_kernel(2)
        times = [1.0, 4.0]
        fields = correlation_ode(law, k1, 1.0, k2, 1.0, times, 2, grid=grid)
        for fld in fields:
            m2 = epidemic_m2(law, k1, 1.0, fld.t, (0, 0), (0, 0), grid, 15)
            npt.assert_allclose(fld.value("r11", (0, 0)), m2.value, rtol=1e-10)
            assert not fld.degraded

    def test_coarse_torus_reports_degraded(self):
        # fig-z2 at t = 4 spreads well past a 16-node torus's shell
        cfg = preset("fig-z2")
        fld = correlation_ode(cfg.build_epidemic_law(), cfg.build_kernel(1), 1.0,
                              cfg.build_kernel(2), 1.0, 4.0, 4, grid=ThetaGrid(2, 16))
        assert fld.boundary_mass > BOUNDARY_TOL
        assert fld.degraded

    def test_window_must_fit_the_torus(self):
        # past M/4 a wrapped convolution term can miss the 3M/8 shell
        law = supercritical_law()
        assert max_pair_window(16) == 4
        with pytest.raises(ValueError, match="grid nodes per axis"):
            correlation_ode(law, K1, 1.0, K1, 1.0, 1.0, 5, grid=ThetaGrid(1, 16))
        fld = correlation_ode(law, K1, 1.0, K1, 1.0, 1.0, 4, grid=ThetaGrid(1, 16))
        assert fld.r11.shape == (9,)


class TestEngineConsistency:
    def test_mc_engine_reproduces_r1_r2_in_2d(self):
        # the d=2 epidemic parameters, mapped onto the generic simulator
        law = immune_law()
        k1 = uniform_range_kernel(2, 4)
        k2 = uniform_range_kernel(2, 2)
        model = TwoTypeModel(k1, k2, 1.0, 1.0, law.to_branching_law())
        t = 2.0
        sites = [(0, 0), (1, 0), (2, 1)]
        res, _ = map_replicas(model, t, [(1, (0, 0))], 10000, 31,
                              partial(_type_counts_at, t=t, sites=sites))
        arr = np.array(res, dtype=float)
        prof1, prof2 = epidemic_first_moment_profiles(law, k1, 1.0, k2, 1.0, t, 2,
                                                      ThetaGrid.for_dim(2))
        for si, s in enumerate(sites):
            idx = (s[0] + 2, s[1] + 2)
            for off, theory in ((0, prof1[idx]), (1, prof2[idx])):
                col = arr[:, 2 * si + off]
                se = col.std(ddof=1) / math.sqrt(len(col))
                assert abs(col.mean() - theory) < 3 * max(se, 1e-4), (s, off)


# map_replicas reducers: module-level, so BRW2_THREADS > 1 can pickle them

def _walk_product_moments(sim, t):
    pos = sim.positions[sim.alive_mask(t), 0]
    n0 = int((pos == 0).sum())
    n1 = int((pos == 1).sum())
    return n0 * n0, n0 * n1


def _conversion_moments(sim, t):
    mask = sim.alive_mask(t)
    pos = sim.positions[mask, 0]
    tp = sim.types[mask]
    n1_0 = int(((pos == 0) & (tp == 1)).sum())
    n2_0 = int(((pos == 0) & (tp == 2)).sum())
    n2_1 = int(((pos == 1) & (tp == 2)).sum())
    return n1_0 * n2_0, n2_0 * n2_0, n2_0 * n2_1, n1_0, n2_0


def _type_counts_at(sim, t, sites):
    mask = sim.alive_mask(t)
    pos = sim.positions[mask]
    tp = sim.types[mask]
    out = []
    for s in sites:
        at = (pos == np.array(s)).all(axis=1)
        out.extend([int((at & (tp == 1)).sum()), int((at & (tp == 2)).sum())])
    return out
