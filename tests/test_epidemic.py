import math
from functools import partial

import numpy as np
import numpy.testing as npt
import pytest

from brw2.branching import BranchingLaw, TwoTypeModel
from brw2.config import preset
from brw2.epidemic import correlation_ode, epidemic_first_moment_profiles, epidemic_m2
from brw2.lattice import ThetaGrid, simple_kernel, transition_probability, \
    uniform_range_kernel
from brw2.moments import (BOUNDARY_TOL, ODE_ATOL, _phase_sum, first_moment_field,
                          first_moment_ode_oracle, first_moment_symbols, max_pair_window,
                          pair_moment_ode_oracle, second_moment_field,
                          second_moment_ode_oracle)
from brw2.simulate import map_replicas

K1 = simple_kernel(1)


def immune_model(mu1=0.05, b2=0.5, r=0.45, mu2=0.0, k1=K1, k2=K1,
                 kappa2=1.0) -> TwoTypeModel:
    """The infected/immune law beta1(2, 0) = b2 with conversion r, infected
    walking by k1 at rate 1 and immune by k2 at rate kappa2."""
    law = BranchingLaw(mu1=mu1, mu2=mu2, beta1={(2, 0): b2}, conversion_rate=r)
    return TwoTypeModel(k1, k2, 1.0, kappa2, law)


def supercritical_model() -> TwoTypeModel:
    # A = 0.5 - 0.05 - 0.2 = 0.25 > 0, mu2 = 0: the non-intermittent regime
    return immune_model(r=0.2)


class TestFirstMoments:
    def test_initial_condition(self):
        r1, r2 = epidemic_first_moment_profiles(immune_model(), 0.0, 3)
        assert r1[3] == pytest.approx(1.0, abs=1e-12)        # x = 0
        assert r2[3] == pytest.approx(0.0, abs=1e-12)
        assert r1[6] == pytest.approx(0.0, abs=1e-12)        # x = 3

    def test_no_conversion_means_no_immune(self):
        model = immune_model(mu1=0.2, mu2=0.1, b2=0.3, r=0.0)
        for t in (0.5, 2.0):
            _, r2 = epidemic_first_moment_profiles(model, t, 0)
            assert abs(r2[0]) < 1e-14

    def test_balanced_equal_kernel_closed_form(self):
        # A = 0, mu2 = 0, equal kernels: R1 = p(t, 0, x), R2 = r t p(t, 0, x)
        model = immune_model()       # A = 0
        grid = ThetaGrid.for_dim(1)
        for t in (1.0, 3.0):
            r1, r2 = epidemic_first_moment_profiles(model, t, 2, grid)
            for x in (0, 2):
                p = transition_probability(K1, 1.0, t, 0, x, grid)
                npt.assert_allclose(r1[x + 2], p, rtol=1e-12)
                npt.assert_allclose(r2[x + 2], 0.45 * t * p, rtol=1e-12)

    def test_profiles_match_pointwise(self):
        # the torus window equals the single-site phase sum of the same
        # symbols; the box-ODE route shares only the law and is accurate to
        # its rtol 1e-7
        model = immune_model(r=0.2, k2=uniform_range_kernel(1, 2), kappa2=0.5)
        prof1, prof2 = epidemic_first_moment_profiles(model, 2.0, 12)
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
        prof1, _ = epidemic_first_moment_profiles(supercritical_model(), 2.0, 25)
        npt.assert_allclose(prof1.sum(), math.exp(0.25 * 2.0), rtol=1e-8)


class TestSecondMoment:
    def test_delta_at_t0(self):
        m2 = epidemic_m2(immune_model(), 0.0, 0, 0)
        assert m2.value == pytest.approx(1.0, abs=1e-12)

    def test_no_infection_reduces_to_first_moment(self):
        model = immune_model(mu1=0.3, b2=0.0, r=0.1)
        t = 2.0
        m2 = epidemic_m2(model, t, 0, 1)
        grid = ThetaGrid.for_dim(1)
        m1 = math.exp(model.derived.r1 * t) * transition_probability(K1, 1.0, t, 0, 1, grid)
        npt.assert_allclose(m2.value, m1, rtol=1e-12)

    def test_duhamel_matches_ode_route(self):
        model = supercritical_model()
        for t in (1.0, 3.0):
            ode = second_moment_ode_oracle(model, t, 30)
            assert ode.boundary_mass < 1e-6
            for x in (0, 1, 2, 5):
                duh = epidemic_m2(model, t, 0, x)
                npt.assert_allclose(duh.value, ode.value(1, 1, x), rtol=1e-4, atol=1e-8)

    def test_m2_dominates_m1(self):
        model = supercritical_model()
        m1f = first_moment_ode_oracle(model, 2.0, 25).values[0, 0]
        m2f = second_moment_ode_oracle(model, 2.0, 25).values[0, 0]
        assert (m2f - m1f >= -1e-10).all()

    def test_supercritical_ratio_bounded(self):
        # M2 / M1^2 at the origin, as in the ``ratio`` column of epidemic.csv
        model = supercritical_model()
        ratios = []
        for t in (10.0, 20.0, 40.0):
            m2 = epidemic_m2(model, t, 0, 0)
            r1, _ = epidemic_first_moment_profiles(model, t, 0)
            ratios.append(m2.value / r1[0] ** 2)
        assert max(ratios) / min(ratios) < 2.0


class TestCorrelations:
    def test_initial_conditions_and_conversion_free_case(self):
        model = immune_model(mu1=0.2, mu2=0.1, b2=0.3, r=0.0)
        fields = pair_moment_ode_oracle(model, [0.0, 1.5], 8)
        f0, f1 = fields
        assert f0.pair("r11", 0, 0) == 1.0
        assert np.abs(f0.r22).max() == 0.0
        # r = 0: no type-2 particles are ever created
        assert np.abs(f1.r12).max() < 1e-12
        assert np.abs(f1.r22).max() < 1e-12

    def test_pure_walk_pair_function_is_diagonal(self):
        fld = pair_moment_ode_oracle(immune_model(mu1=0.0, b2=0.0, r=0.0), 2.0, 14)
        grid = ThetaGrid.for_dim(1)
        for x in (-2, 0, 3):
            expect = transition_probability(K1, 1.0, 2.0, 0, x, grid)
            npt.assert_allclose(fld.pair("r11", x, x), expect, atol=1e-6)
            npt.assert_allclose(fld.pair("r11", x, x + 1), 0.0, atol=1e-8)

    def test_pure_walk_pair_function_against_monte_carlo(self):
        model = immune_model(mu1=0.0, b2=0.0, r=0.0)
        t = 1.0
        res, _ = map_replicas(model, t, [(1, 0)], 20000, 5,
                              partial(_walk_product_moments, t=t))
        arr = np.array(res, dtype=float)
        fld = correlation_ode(model, t, 12)
        for col, u in ((0, 0), (1, 1)):
            mc = arr[:, col].mean()
            se = arr[:, col].std(ddof=1) / math.sqrt(len(arr))
            assert abs(mc - fld.value("r11", u)) < 4 * max(se, 1e-4)

    def test_conversion_chain_against_monte_carlo(self):
        # full system: infected branch, convert; check R12 and R22 vs MC
        model = supercritical_model()
        t = 1.5
        res, _ = map_replicas(model, t, [(1, 0)], 40000, 8,
                              partial(_conversion_moments, t=t))
        arr = np.array(res, dtype=float)
        fld = correlation_ode(model, t, 12)
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
        fld = pair_moment_ode_oracle(supercritical_model(), 5.0, 16)
        npt.assert_array_equal(fld.r11, fld.r11.T)
        npt.assert_array_equal(fld.r22, fld.r22.T)
        diag11 = np.diag(fld.r11)
        diag22 = np.diag(fld.r22)
        assert (diag11 - fld.r1 ** 2 >= -1e-10).all()
        assert (diag22 - fld.r2 ** 2 >= -1e-10).all()

    def test_first_moments_match_closed_forms(self):
        model = supercritical_model()
        fld = pair_moment_ode_oracle(model, 2.0, 20)
        prof1, prof2 = epidemic_first_moment_profiles(model, 2.0, 20)
        npt.assert_allclose(fld.r1, prof1, atol=1e-7)
        npt.assert_allclose(fld.r2, prof2, atol=1e-7)

    def test_non_intermittency_at_fixed_site(self):
        fields = correlation_ode(supercritical_model(), [5.0, 10.0, 20.0], 16)
        ratios = [fld.value("r22", 0) / fld.value("r2", 0) ** 2 for fld in fields]
        assert max(ratios) / min(ratios) < 2.0

    def test_u_slice_is_origin_anchored(self):
        fld = pair_moment_ode_oracle(supercritical_model(), 1.0, 6)
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
        law = BranchingLaw(mu1=0.05, mu2=0.1, beta1={(2, 0): 0.5, (3, 0): 0.2},
                           conversion_rate=0.3)
        model = TwoTypeModel(K1, uniform_range_kernel(1, 2), 1.0, 1.5, law)
        times = [0.5, 1.0, 2.0]
        oracle = pair_moment_ode_oracle(model, times, 16)
        fields = correlation_ode(model, times, 12)
        assert all(f.converged and not f.degraded for f in fields)
        self._assert_matches_oracle(fields, oracle, 1)

    def test_many_to_two_matches_box_oracle_2d(self):
        model = immune_model(mu2=0.1, k1=simple_kernel(2), k2=uniform_range_kernel(2, 1),
                             kappa2=0.5)
        times = [0.5, 1.0]
        oracle = pair_moment_ode_oracle(model, times, 6)
        fields = correlation_ode(model, times, 4)
        self._assert_matches_oracle(fields, oracle, 2)

    def test_r11_at_origin_equals_epidemic_m2(self):
        # two routes to E[N1(t, 0)^2] on the fig-z2 model
        cfg = preset("fig-z2")
        model, grid = cfg.build_model(), cfg.build_grid()
        times = [1.0, 4.0]
        fields = correlation_ode(model, times, 2, grid=grid)
        for fld in fields:
            m2 = epidemic_m2(model, fld.t, (0, 0), (0, 0), grid)
            npt.assert_allclose(fld.value("r11", (0, 0)), m2.value, rtol=1e-10)
            assert not fld.degraded and not m2.degraded

    def test_coarse_torus_reports_degraded(self):
        # fig-z2 at t = 4 spreads well past a 16-node torus's window
        cfg = preset("fig-z2")
        fld = correlation_ode(cfg.build_model(), 4.0, 4, grid=ThetaGrid(2, 16))
        assert fld.boundary_mass > BOUNDARY_TOL
        assert fld.degraded
        # without infection there is nothing to integrate, but R11 = R1 at
        # the origin still comes from the aliased first-moment field, and on
        # the diagonal the second moment is that field itself
        walk, coarse = immune_model(mu1=0.0, b2=0.0, r=0.0), ThetaGrid(1, 16)
        first = first_moment_field(walk, 20.0, 4, coarse)
        assert first.boundary_mass > BOUNDARY_TOL and first.degraded
        fld = correlation_ode(walk, 20.0, 4, grid=coarse)
        assert fld.boundary_mass > BOUNDARY_TOL
        assert fld.degraded
        second = second_moment_field(walk, 20.0, 4, coarse)
        npt.assert_array_equal(second.values, first.values)
        assert second.boundary_mass == first.boundary_mass
        assert second.degraded
        m2 = epidemic_m2(walk, 20.0, 0, 0, coarse)
        assert m2.boundary_mass > BOUNDARY_TOL
        assert m2.degraded

    def test_window_must_fit_the_torus(self):
        # the output window may reach M/4 (max_pair_window), no further
        model = supercritical_model()
        assert max_pair_window(16) == 4
        with pytest.raises(ValueError, match="grid nodes per axis"):
            correlation_ode(model, 1.0, 5, grid=ThetaGrid(1, 16))
        fld = correlation_ode(model, 1.0, 4, grid=ThetaGrid(1, 16))
        assert fld.r11.shape == (9,)

    @pytest.mark.parametrize("law", [
        BranchingLaw(mu1=0.05, mu2=0.0, beta1={(2, 0): 0.5}, beta2={(0, 2): 0.1}),
        BranchingLaw(mu1=0.05, mu2=0.0, beta1={(1, 1): 0.5}, conversion_rate=0.2),
    ], ids=["type-2 branching", "type-2 offspring of type 1"])
    def test_many_to_two_matches_box_oracle_on_any_law(self, law):
        # laws that are no epidemic: both types branch, or type 1 bears a
        # mixed pair, so every F_jl has its own diagonal source
        model = TwoTypeModel(K1, K1, 1.0, 1.0, law)
        times = [0.5, 1.0, 2.0]
        oracle = pair_moment_ode_oracle(model, times, 16)
        fields = correlation_ode(model, times, 12)
        assert all(f.converged and not f.degraded for f in fields)
        self._assert_matches_oracle(fields, oracle, 1)

    def test_box_oracle_counts_the_pair_densities_flux(self):
        # at box 12 the first moments lose under BOUNDARY_TOL by t = 4, but
        # the factorial pair density F11 loses more than it; box 24 shows
        # that the box-12 correlations really fall short by that much
        model = supercritical_model()
        small = pair_moment_ode_oracle(model, 4.0, 12)
        large = pair_moment_ode_oracle(model, 4.0, 24)
        assert small.boundary_mass > BOUNDARY_TOL and small.degraded
        assert large.boundary_mass < BOUNDARY_TOL and not large.degraded
        assert large.r11.sum() - small.r11.sum() > BOUNDARY_TOL


class TestEngineConsistency:
    def test_mc_engine_reproduces_r1_r2_in_2d(self):
        # the d=2 epidemic parameters, mapped onto the generic simulator
        model = immune_model(k1=uniform_range_kernel(2, 4), k2=uniform_range_kernel(2, 2))
        t = 2.0
        sites = [(0, 0), (1, 0), (2, 1)]
        res, _ = map_replicas(model, t, [(1, (0, 0))], 10000, 31,
                              partial(_type_counts_at, t=t, sites=sites))
        arr = np.array(res, dtype=float)
        prof1, prof2 = epidemic_first_moment_profiles(model, t, 2, ThetaGrid.for_dim(2))
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
