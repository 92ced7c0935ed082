import hashlib
import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brw2 import clusters, simulate
from brw2.branching import BranchingLaw, TwoTypeModel
from brw2.clusters import (cell_stats_2d, cluster_stats_1d, conditional_mean_curve,
                           occupied_sites_1d, survival_curve, surviving_start_points)
from brw2.lattice import simple_kernel, uniform_range_kernel
from brw2.simulate import run, snapshot


def critical_model():
    law = BranchingLaw(mu1=0.25, mu2=0.375,
                       beta1={(2, 0): 0.125, (1, 1): 0.125},
                       beta2={(0, 2): 0.125, (1, 1): 0.25})
    return TwoTypeModel(simple_kernel(1), uniform_range_kernel(1, 3), 1.0, 4.0, law)


def critical_binary_model(dim=1, lam=0.5):
    law = BranchingLaw(mu1=lam, mu2=0.0, beta1={(2, 0): lam})
    return TwoTypeModel(simple_kernel(dim), simple_kernel(dim), 1.0, 1.0, law)


class TestClusterStats1d:
    def test_spec_triple(self):
        rep = cluster_stats_1d({0, 1, 2, 10, 11})
        assert rep.cluster_lengths == [3, 2]
        assert rep.gap_lengths == [7]

    def test_empty(self):
        rep = cluster_stats_1d(set())
        assert rep.cluster_lengths == [] and rep.gap_lengths == []

    def test_singleton(self):
        rep = cluster_stats_1d({5})
        assert rep.cluster_lengths == [1] and rep.gap_lengths == []

    def test_window_boundary(self):
        rep = cluster_stats_1d({0, 1, 2, 10, 11}, window=(-5, 20))
        assert rep.boundary_length == 5 + 9
        total = sum(rep.cluster_lengths) + sum(rep.gap_lengths) + rep.boundary_length
        assert total == 26

    def test_gap_tolerance_merges(self):
        rep = cluster_stats_1d({0, 2, 4}, gap_tolerance=2)
        assert rep.cluster_lengths == [5]        # span including 1-site holes
        assert rep.gap_lengths == []
        rep1 = cluster_stats_1d({0, 2, 4}, gap_tolerance=1)
        assert rep1.cluster_lengths == [1, 1, 1]
        assert rep1.gap_lengths == [1, 1]

    def test_quartiles(self):
        rep = cluster_stats_1d({0, 1, 2, 10, 11})
        assert rep.median_cluster == 2.5
        assert rep.median_gap == 7
        assert cluster_stats_1d(set()).median_cluster is None

    @settings(max_examples=60, deadline=None)
    @given(st.sets(st.integers(-30, 30), max_size=40), st.integers(1, 4))
    def test_length_conservation(self, occupied, g):
        lo, hi = -32, 32
        rep = cluster_stats_1d(occupied, window=(lo, hi), gap_tolerance=g)
        total = sum(rep.cluster_lengths) + sum(rep.gap_lengths) + rep.boundary_length
        assert total == hi - lo + 1
        assert all(ln >= 1 for ln in rep.cluster_lengths)
        assert all(ln >= g for ln in rep.gap_lengths)


class TestSurvival:
    def test_binomial_arithmetic(self):
        # 250 survivors of 1000: p = 0.25, se = sqrt(p(1-p)/n) ~ 0.0137
        p, n = 0.25, 1000
        assert math.sqrt(p * (1 - p) / n) == pytest.approx(0.01369, abs=1e-4)

    def test_rejects_small_ensembles(self):
        with pytest.raises(ValueError, match="100"):
            survival_curve(critical_model(), 1, [1.0], 50, 1)

    def test_critical_binary_against_logistic_oracle(self):
        # extinction solves q' = lam (1-q)^2: P(survive t) = 1/(1 + lam t)
        model = critical_binary_model()
        with pytest.warns(UserWarning, match="reducible"):
            curve = survival_curve(model, 1, [5.0, 10.0], 3000, 17)
        for pt in curve.points:
            expect = 1.0 / (1.0 + 0.5 * pt.t)
            assert abs(pt.p_hat - expect) < 4 * max(pt.se, 1e-3)
        assert curve.points[0].se == pytest.approx(
            math.sqrt(curve.points[0].p_hat * (1 - curve.points[0].p_hat) / 3000))

    def test_c_hat_positive_for_critical_two_type(self):
        curve = survival_curve(critical_model(), 1, [10.0, 20.0], 400, 23)
        assert curve.c_hat > 0

    def test_pure_death_exponential_survival(self):
        model = TwoTypeModel(simple_kernel(1), simple_kernel(1), 0.25, 0.25,
                             BranchingLaw(mu1=0.7, mu2=0.7))
        with pytest.warns(UserWarning):
            curve = survival_curve(model, 1, [1.0, 2.0], 2000, 29)
        for pt in curve.points:
            expect = math.exp(-0.7 * pt.t)
            assert abs(pt.p_hat - expect) < 3.5 * max(pt.se, 1e-3)


class TestConditionalMean:
    def test_pure_walk_is_one(self):
        model = TwoTypeModel(simple_kernel(1), simple_kernel(1), 1.0, 1.0,
                             BranchingLaw(mu1=0.0, mu2=0.0))
        with pytest.warns(UserWarning):
            curve = conditional_mean_curve(model, 1, 1, [1.0, 2.0], 200, 3)
        for pt in curve.points:
            assert pt.mean == 1.0 and pt.n_survivors == 200

    def test_critical_binary_linear_growth(self):
        # E[N | N > 0] = E N / P(N > 0) = 1 + lam t
        model = critical_binary_model()
        with pytest.warns(UserWarning):
            curve = conditional_mean_curve(model, 1, 1, [10.0], 3000, 31)
        pt = curve.points[0]
        assert not pt.omitted
        assert abs(pt.mean - 6.0) / 6.0 < 0.15

    def test_t0_is_exactly_one(self):
        curve = conditional_mean_curve(critical_model(), 1, 1, [0.0, 1.0], 150, 5)
        assert curve.points[0].mean == 1.0

    def test_zero_survivors_omitted(self):
        model = TwoTypeModel(simple_kernel(1), simple_kernel(1), 0.25, 0.25,
                             BranchingLaw(mu1=100.0, mu2=100.0))
        with pytest.warns(UserWarning):
            curve = conditional_mean_curve(model, 1, 1, [5.0, 10.0], 150, 7)
        assert curve.points[-1].omitted and curve.points[-1].mean is None


def conversion_model_2d():
    """d = 2, subcritical, with type-1 -> type-2 conversion and a (0, 3) birth."""
    law = BranchingLaw(mu1=0.3, mu2=0.45, beta1={(2, 0): 0.15, (1, 1): 0.1},
                       beta2={(0, 3): 0.1, (1, 1): 0.15}, conversion_rate=0.2)
    return TwoTypeModel(simple_kernel(2), uniform_range_kernel(2, 1), 1.0, 2.0, law)


class TestCountOnlySweeps:
    @pytest.mark.parametrize("make_model, initial", [
        (critical_model, [(1, 0), (2, 3)]),
        (conversion_model_2d, [(1, (0, 0)), (2, (3, -1)), (1, (1, 1))]),
    ])
    def test_type_totals_match_alive_mask_counts(self, make_model, initial):
        horizon = 12.0
        times = [0.0, 0.5, 3.0, 7.25, horizon]
        censored_seen = 0
        for rid in range(30):
            sim = run(make_model(), horizon, initial, seed=13, replica_id=rid)
            expect = [[int((sim.types[sim.alive_mask(t)] == p).sum()) for p in (1, 2)]
                      for t in times]
            got = clusters._type_totals(sim, times)
            assert got.dtype == np.int64
            npt.assert_array_equal(got, expect)
            censored_seen += int((sim.t2 == horizon).sum())
        assert censored_seen > 0

    def test_type_totals_reject_times_outside_the_run(self):
        sim = run(critical_model(), 5.0, [(1, 0)], seed=2)
        for bad in ([-1.0, 2.0], [2.0, 5.5], [math.nan], [2.0, math.inf]):
            with pytest.raises(ValueError, match="outside"):
                clusters._type_totals(sim, bad)

    def test_sweeps_never_decode_positions(self, monkeypatch):
        """Survival and conditional sweeps read types, t1 and t2 only: they
        never regenerate a replica's stream for its fate and aux columns, and
        never sum its positions."""
        def refuse(what):
            def refused(*args):
                raise AssertionError(f"a count-only sweep decoded {what}")
            return refused

        decode_rows = simulate._decode_rows
        monkeypatch.setattr(simulate, "_ancestor_sums", refuse("positions"))
        monkeypatch.setattr(simulate, "_decode_rows", refuse("fates and aux"))
        times = [1.0, 4.0]
        survival_curve(critical_model(), 1, times, 100, 3, n_workers=1)
        for j in (1, 2):
            conditional_mean_curve(critical_model(), 1, j, times, 100, 3, n_workers=1)
        sim = run(critical_model(), 4.0, [(1, 0)], seed=3)
        for name in ("fates", "aux_a", "aux_b"):
            with pytest.raises(AssertionError, match="decoded fates and aux"):
                getattr(sim, name)
        monkeypatch.setattr(simulate, "_decode_rows", decode_rows)
        with pytest.raises(AssertionError, match="decoded positions"):
            run(critical_model(), 4.0, [(1, 0)], seed=3).positions


class TestEventCapRefusal:
    """A capped replica is one of the largest survivors: both curves refuse
    the estimate and name it, rather than drop it and bias P(t) low."""

    @pytest.fixture
    def one_capped(self, monkeypatch):
        def fake_map_replicas(model, horizon, initial, n_replicas, seed, reducer,
                              **kwargs):
            rows = [np.ones((1, 2), dtype=np.int64)] * n_replicas
            rows[37] = None
            return rows, [(37, "replica 37 exceeded the event cap of 10 records")]

        monkeypatch.setattr(clusters, "map_replicas", fake_map_replicas)

    def test_survival_curve_raises(self, one_capped):
        with pytest.raises(RuntimeError, match=r"replicas \[37\].*event cap"):
            survival_curve(critical_model(), 1, [1.0], 100, 1)

    def test_conditional_mean_curve_raises(self, one_capped):
        with pytest.raises(RuntimeError, match=r"replicas \[37\].*event cap"):
            conditional_mean_curve(critical_model(), 1, 2, [1.0], 100, 1)


class TestCells:
    def test_counting_examples(self):
        window = ((0, 15), (0, 15))
        # t * nu / c = 16 -> cell side 4 -> 16 cells
        kw = dict(t=16.0, nu_value=1.0, c_hat=1.0, window=window)
        assert cell_stats_2d(set(), **kw).degenerate_fraction == 1.0
        full = {(4 * i + 1, 4 * j + 2) for i in range(4) for j in range(4)}
        assert cell_stats_2d(full, **kw).degenerate_fraction == 0.0
        partial = {(4 * i + 1, 4 * j + 2) for i in range(4) for j in range(4)
                   if (i, j) not in {(0, 0), (1, 2), (3, 3)}}
        rep = cell_stats_2d(partial, **kw)
        assert rep.n_cells == 16 and rep.degenerate_fraction == pytest.approx(3 / 16)

    def test_small_cell_side_rejected(self):
        with pytest.raises(ValueError, match="cell side"):
            cell_stats_2d(set(), t=1.0, nu_value=0.1, c_hat=10.0,
                          window=((0, 7), (0, 7)))

    def test_surviving_start_points_subset_of_initial(self):
        model = critical_binary_model(dim=2)
        initial = [(1, (x, y)) for x in range(0, 8, 4) for y in range(0, 8, 4)]
        sim = run(model, 10.0, initial, seed=41)
        starts = surviving_start_points(sim, [5.0, 10.0])
        assert set(starts) == {5.0, 10.0}
        assert starts[10.0] <= starts[5.0] <= {x for _, x in initial}

    def test_surviving_start_points_match_reference_roots(self):
        model = critical_binary_model(dim=2)
        initial = [(1, (x, y)) for x in range(0, 12, 3) for y in range(0, 12, 3)]
        sim = run(model, 20.0, initial, seed=41)
        roots = np.arange(sim.n_records)
        for idx in range(sim.n_records):
            if sim.parents[idx] >= 0:
                roots[idx] = roots[sim.parents[idx]]
        starts = surviving_start_points(sim, [5.0, 20.0])
        for t in (5.0, 20.0):
            alive_roots = roots[sim.alive_mask(t)]
            assert len(alive_roots) > 0
            assert starts[t] == {tuple(int(c) for c in sim.positions[r])
                                 for r in alive_roots}

    def test_degenerate_cells_appear_for_critical_law(self):
        # at t = 100 with nu = log t, at least one degenerate cell in >= 50%
        # of replicas (the qualitative 1 - 1/e^C bound)
        model = critical_binary_model(dim=2)
        t = 100.0
        initial = [(1, (x, y)) for x in range(24) for y in range(24)]
        hits = 0
        n_rep = 12
        start_sets = [surviving_start_points(run(model, t, initial, seed=4242,
                                                 replica_id=rid), [t])[t]
                      for rid in range(n_rep)]
        p_sum = sum(len(starts) / len(initial) for starts in start_sets)
        c_hat = max(p_sum / n_rep * t, 1e-9)
        for starts in start_sets:
            rep = cell_stats_2d(starts, t, nu_value=math.log(t), c_hat=c_hat,
                                window=((0, 23), (0, 23)))
            if rep.degenerate_fraction > 0:
                hits += 1
        assert hits >= n_rep / 2


class TestOccupiedSites:
    def test_requires_dim1(self):
        model = critical_binary_model(dim=2)
        sim = run(model, 1.0, [(1, (0, 0))], seed=1)
        with pytest.raises(ValueError):
            occupied_sites_1d(sim, 1.0)

    def test_occupancy_counts_both_types(self):
        model = critical_model()
        sim = run(model, 5.0, [(1, 0)], seed=2)
        occ = occupied_sites_1d(sim, 3.0)
        snap_sites = {pos[0] for (_ptype, pos) in snapshot(sim, 3.0)}
        assert set(occ.tolist()) == snap_sites


# Digest of the count-only sweeps' outputs: the survival curve and both
# conditional-mean curves of the critical law, 200 replicas at one seed.  The
# repr of a curve holds every float to round-trip precision, so a change to a
# history, to the alive rule or to the reduction shows here.
SWEEP_TIMES = (0.0, 20.0, 50.0, 100.0)
PINNED_SWEEPS = "1eb99343b664b347"


def test_sweep_outputs_are_pinned():
    model = critical_model()
    curves = (survival_curve(model, 1, SWEEP_TIMES, 200, 8),
              conditional_mean_curve(model, 1, 1, SWEEP_TIMES, 200, 8),
              conditional_mean_curve(model, 1, 2, SWEEP_TIMES, 200, 8))
    assert hashlib.sha256(repr(curves).encode()).hexdigest()[:16] == PINNED_SWEEPS
