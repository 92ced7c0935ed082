import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brw2.branching import BranchingLaw, TwoTypeModel
from brw2.lattice import (JumpKernel, KernelError, ThetaGrid, fourier_symbol,
                          gamma_constant, gaussian_asymptote, simple_kernel,
                          transition_probability, transition_profile,
                          uniform_range_kernel)
from brw2.simulate import FATE_JUMPED, run


def poissonized_walk_oracle(t: float, n_terms: int = 61) -> float:
    """P(simple d=1 rate-1 walk is at 0 at time t), by conditioning on the
    number of jumps: sum_n e^{-t} t^n / n! * C(n, n/2) / 2^n over even n."""
    total = 0.0
    for n in range(0, n_terms):
        if n % 2 == 0:
            total += (math.exp(-t) * t ** n / math.factorial(n)
                      * math.comb(n, n // 2) / 2 ** n)
    return total


@pytest.fixture(scope="module")
def grid1():
    return ThetaGrid.for_dim(1)


class TestFourierSymbol:
    def test_simple_walk_half_pi(self):
        k = simple_kernel(1)
        npt.assert_allclose(fourier_symbol(k, np.pi / 2), -1.0, atol=1e-14)

    def test_zero_at_origin(self):
        for k in (simple_kernel(1), simple_kernel(2), uniform_range_kernel(1, 3)):
            npt.assert_allclose(fourier_symbol(k, np.zeros(k.dim)), 0.0, atol=1e-14)

    def test_range3_formula(self):
        k = uniform_range_kernel(1, 3)
        for th in (0.3, 1.1, 2.9):
            expect = (math.cos(th) + math.cos(2 * th) + math.cos(3 * th)) / 3 - 1
            npt.assert_allclose(fourier_symbol(k, th), expect, atol=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fourier_symbol(simple_kernel(2), np.array([0.1]))
        with pytest.raises(ValueError):
            fourier_symbol(simple_kernel(2), ThetaGrid.for_dim(1, 8))

    @pytest.mark.parametrize("kernel, nodes", [
        (simple_kernel(1), 256),
        (simple_kernel(2), 64),
        (simple_kernel(3), 16),
        (uniform_range_kernel(2, 4), 128),     # fig-z2's 80-offset kernel
        (uniform_range_kernel(1, 3), 64),
        (uniform_range_kernel(3, 1), 16),
        # support not a full box: unit steps plus one long diagonal pair
        (JumpKernel(2, {(1, 0): 1.0, (-1, 0): 1.0, (0, 1): 1.0, (0, -1): 1.0,
                        (3, -2): 0.5, (-3, 2): 0.5}), 32),
    ])
    def test_grid_symbol_matches_point_evaluation(self, kernel, nodes):
        grid = ThetaGrid.for_dim(kernel.dim, nodes)
        vals = fourier_symbol(kernel, grid)
        assert vals.shape == (grid.n_points,)
        npt.assert_allclose(vals, fourier_symbol(kernel, grid.points), rtol=0, atol=1e-15)

    def test_nonpositive_and_vanishing_only_at_origin(self, grid1):
        k = uniform_range_kernel(1, 2)
        vals = fourier_symbol(k, grid1.points)
        assert vals.max() <= 1e-14
        assert vals.max() < -1e-4  # midpoint grid never hits theta = 0


class TestThetaGrid:
    def test_weights_sum(self):
        # the rule weighs each node 1 / n_points, so the grid mean of
        # cos(theta . v) is exactly the torus average, delta_{v, 0}
        for d in (1, 2):
            g = ThetaGrid.for_dim(d)
            assert g.points.shape == (g.n_points, d)
            for v in ((0,) * d, (1,) + (0,) * (d - 1), (2,) * d):
                mean = np.cos(g.points @ np.array(v, dtype=float)).mean()
                npt.assert_allclose(mean, float(not any(v)), atol=1e-13)

    def test_negation_symmetry(self, grid1):
        pts = np.sort(grid1.points[:, 0])
        npt.assert_allclose(pts, -pts[::-1], atol=1e-13)

    def test_rejects_odd_nodes(self):
        with pytest.raises(ValueError):
            ThetaGrid(1, 15)


class TestTransitionProbability:
    def test_t0_delta(self, grid1):
        k = simple_kernel(1)
        assert transition_probability(k, 1.0, 0.0, 0, 0, grid1) == pytest.approx(1.0, abs=1e-12)
        assert transition_probability(k, 1.0, 0.0, 0, 3, grid1) == pytest.approx(0.0, abs=1e-12)

    def test_matches_poissonized_series(self, grid1):
        k = simple_kernel(1)
        for t in (0.5, 1.0, 2.0):
            val = transition_probability(k, 1.0, t, 0, 0, grid1)
            npt.assert_allclose(val, poissonized_walk_oracle(t), atol=1e-12)
        # frozen value: e^{-1} I_0(1)
        npt.assert_allclose(transition_probability(k, 1.0, 1.0, 0, 0, grid1),
                            0.46575960759364, atol=1e-11)

    def test_spatial_homogeneity(self, grid1):
        k = uniform_range_kernel(1, 2)
        a = transition_probability(k, 1.3, 2.0, 3, 0, grid1)
        b = transition_probability(k, 1.3, 2.0, 0, -3, grid1)
        assert a == b  # both computed through the difference y - x

    def test_mass_sums_to_one(self, grid1):
        k = simple_kernel(1)
        disp = np.arange(-45, 46).reshape(-1, 1)
        vals = transition_profile(k, 1.0, 10.0, disp, grid1)
        npt.assert_allclose(vals.sum(), 1.0, atol=1e-6)
        # boundary mass is genuinely negligible at this box
        assert vals[0] + vals[-1] < 1e-8

    def test_chapman_kolmogorov(self, grid1):
        k = simple_kernel(1)
        s, t = 1.0, 2.5
        ws = np.arange(-40, 41)
        for x, y in ((0, 0), (0, 3), (-2, 1)):
            lhs = sum(
                transition_probability(k, 1.0, s, x, int(w), grid1)
                * transition_probability(k, 1.0, t - s, int(w), y, grid1)
                for w in ws)
            rhs = transition_probability(k, 1.0, t, x, y, grid1)
            npt.assert_allclose(lhs, rhs, atol=1e-5)

    def test_negative_time_rejected(self, grid1):
        with pytest.raises(ValueError):
            transition_probability(simple_kernel(1), 1.0, -0.5, 0, 0, grid1)


class TestGaussianAsymptote:
    def test_simple_walk_values(self):
        k = simple_kernel(1)
        npt.assert_allclose(gaussian_asymptote(k, 1.0, 100.0, 0),
                            1 / math.sqrt(2 * math.pi * 100), rtol=1e-12)
        npt.assert_allclose(gaussian_asymptote(k, 1.0, 100.0, 10),
                            math.exp(-0.5) / math.sqrt(200 * math.pi), rtol=1e-12)

    def test_matches_quadrature_in_bulk(self, grid1):
        k = simple_kernel(1)
        approx = gaussian_asymptote(k, 1.0, 100.0, 10)
        exact = transition_probability(k, 1.0, 100.0, 0, 10, grid1)
        assert abs(approx / exact - 1) < 0.03

    def test_origin_equals_gamma_scaling(self):
        for k, kap in ((simple_kernel(1), 0.7), (simple_kernel(2), 2.0),
                       (uniform_range_kernel(1, 3), 4.0)):
            t = 37.0
            npt.assert_allclose(gaussian_asymptote(k, kap, t, (0,) * k.dim),
                                gamma_constant(k, kap) / t ** (k.dim / 2), rtol=1e-12)

    def test_green_function_gamma_convergence(self, grid1):
        # p(t,0,0) * sqrt(t) -> gamma_1 = 1/sqrt(2 pi), within 2% at t = 200
        k = simple_kernel(1)
        val = transition_probability(k, 1.0, 200.0, 0, 0, grid1)
        assert abs(val * math.sqrt(200) / gamma_constant(k, 1.0) - 1) < 0.02

    def test_invalid_time(self):
        with pytest.raises(ValueError):
            gaussian_asymptote(simple_kernel(1), 1.0, 0.0, 0)


def jump_draws(kernel: JumpKernel, seed: int, n: int, per_replica: int = 100_000) -> list:
    """The first n displacements the event loop draws from ``kernel``: one
    pure-walk particle per replica, every record ending in a jump."""
    model = TwoTypeModel(kernel, kernel, 1.0, 1.0, BranchingLaw(mu1=0.0, mu2=0.0))
    origin = (0,) * kernel.dim
    horizon = per_replica + 10 * math.sqrt(per_replica) + 50
    draws: list = []
    replica = 0
    while len(draws) < n:
        sim = run(model, horizon, [(1, origin)], seed, event_cap=2 * per_replica + 100,
                  replica_id=replica)
        idx = sim.aux_a[sim.fates == FATE_JUMPED]
        draws.extend(tuple(int(c) for c in kernel.offsets[i]) for i in idx[:per_replica])
        replica += 1
    return draws[:n]


class TestSampleJump:
    def test_support_restriction(self):
        k = simple_kernel(1)
        draws = set(jump_draws(k, 5, 200, per_replica=200))
        assert draws == {(1,), (-1,)}

    def test_determinism(self):
        k = uniform_range_kernel(1, 3)
        a = jump_draws(k, 77, 100, per_replica=100)
        b = jump_draws(k, 77, 100, per_replica=100)
        assert a == b
        assert set(a) <= set(k.support)

    def test_frequency(self):
        k = simple_kernel(1)
        n = 1_000_000
        plus = sum(1 for v in jump_draws(k, 123, n) if v == (1,))
        # binomial 3 sigma band around 1/2
        assert abs(plus / n - 0.5) < 3 * 0.5 / math.sqrt(n)


class TestKernelValidation:
    def test_asymmetric_names_vector(self):
        with pytest.raises(KernelError, match=r"not symmetric at displacement \(-?[12],\)"):
            JumpKernel(1, {(1,): 0.5, (-1,): 0.3, (2,): 0.2})

    def test_zero_vector_rejected(self):
        with pytest.raises(KernelError, match="0"):
            JumpKernel(1, {(0,): 1.0})

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(KernelError):
            JumpKernel(1, {(1,): -0.5, (-1,): -0.5})

    def test_reducible_support_rejected(self):
        with pytest.raises(KernelError, match="reducible"):
            JumpKernel(1, {(2,): 0.5, (-2,): 0.5})
        with pytest.raises(KernelError, match="reducible"):
            JumpKernel(2, {(1, 0): 0.5, (-1, 0): 0.5})

    def test_weights_normalized(self):
        k = JumpKernel(1, {(1,): 2.0, (-1,): 2.0})
        npt.assert_allclose(k.weights.sum(), 1.0, rtol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(KernelError):
            JumpKernel(2, {(1,): 0.5, (-1,): 0.5})


@st.composite
def symmetric_kernels(draw):
    dim = draw(st.integers(1, 2))
    n = draw(st.integers(1, 4))
    table = {}
    for _ in range(n):
        v = tuple(draw(st.integers(-3, 3)) for _ in range(dim))
        if all(c == 0 for c in v):
            continue
        w = draw(st.floats(0.1, 5.0))
        table[v] = w
        table[tuple(-c for c in v)] = w
    # force irreducibility with unit steps
    for k in range(dim):
        e = tuple(1 if i == k else 0 for i in range(dim))
        table.setdefault(e, 0.5)
        table.setdefault(tuple(-c for c in e), 0.5)
        table[tuple(-c for c in e)] = table[e]
    return JumpKernel(dim, table)


@settings(max_examples=40, deadline=None)
@given(symmetric_kernels())
def test_symbol_properties(kernel):
    grid = ThetaGrid.for_dim(kernel.dim, 32)
    vals = fourier_symbol(kernel, grid.points)
    assert vals.max() <= 1e-12
    npt.assert_allclose(fourier_symbol(kernel, np.zeros(kernel.dim)), 0.0, atol=1e-12)
    eigs = np.linalg.eigvalsh(kernel.covariance)
    assert eigs.min() > 0
