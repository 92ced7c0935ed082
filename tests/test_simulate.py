import math
from functools import partial

import numpy as np
import numpy.testing as npt
import pytest
from scipy import stats

from brw2 import simulate
from brw2.branching import BranchingLaw, TwoTypeModel
from brw2.lattice import simple_kernel, uniform_range_kernel
from brw2.moments import first_moment_field
from brw2.simulate import (FATE_BRANCHED, FATE_CENSORED, FATE_CONVERTED, FATE_DIED,
                           FATE_JUMPED, EventCapExceeded, default_workers, ensemble,
                           map_replicas, replica_rng, run, snapshot)


def critical_model() -> TwoTypeModel:
    law = BranchingLaw(mu1=0.25, mu2=0.375,
                       beta1={(2, 0): 0.125, (1, 1): 0.125},
                       beta2={(0, 2): 0.125, (1, 1): 0.25})
    return TwoTypeModel(simple_kernel(1), uniform_range_kernel(1, 3), 1.0, 4.0, law)


def _displacement(sim, idx) -> np.ndarray:
    """The jump vector of record ``idx``: its kernel offset at ``aux_a``."""
    return sim.model.kernel(int(sim.types[idx])).offsets[sim.aux_a[idx]]


def walk_only_model(dim=1) -> TwoTypeModel:
    return TwoTypeModel(simple_kernel(dim), simple_kernel(dim), 1.0, 1.0,
                        BranchingLaw(mu1=0.0, mu2=0.0))


def death_only_model(mu=1.0) -> TwoTypeModel:
    # kappa1 > 0 keeps the total rate positive; particle may also jump
    return TwoTypeModel(simple_kernel(1), simple_kernel(1), 0.25, 0.25,
                        BranchingLaw(mu1=mu, mu2=mu))


class TestRunBasics:
    def test_determinism_bit_identical(self):
        model = critical_model()
        a = run(model, 10.0, [(1, 0)], seed=42)
        b = run(model, 10.0, [(1, 0)], seed=42)
        assert np.array_equal(a.t1, b.t1) and np.array_equal(a.t2, b.t2)
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.fates, b.fates)
        c = run(model, 10.0, [(1, 0)], seed=43)
        assert not np.array_equal(a.t2, c.t2)

    def test_invalid_arguments(self):
        model = critical_model()
        with pytest.raises(ValueError):
            run(model, 0.0, [(1, 0)], seed=1)
        with pytest.raises(ValueError):
            run(model, 1.0, [], seed=1)
        inert = TwoTypeModel(simple_kernel(1), simple_kernel(1), 0.0, 1.0,
                             BranchingLaw(mu1=0.0, mu2=0.0))
        with pytest.raises(ValueError, match="inert"):
            run(inert, 1.0, [(1, 0)], seed=1)

    def test_pure_walk_conservation(self):
        sim = run(walk_only_model(), 10.0, [(1, 0)], seed=3)
        for t in (0.0, 1.7, 5.5, 10.0):
            assert int(sim.alive_mask(t).sum()) == 1
        fates = set(sim.fates.tolist())
        assert fates <= {2, 4}   # jumped or censored only

    def test_censoring_iff_t2_equals_horizon(self):
        sim = run(critical_model(), 5.0, [(1, 0), (2, 3)], seed=9)
        censored = sim.fates == 4
        npt.assert_array_equal(censored, sim.t2 == 5.0)

    def test_parent_linkage(self):
        sim = run(critical_model(), 8.0, [(1, 0)], seed=11)
        for idx in range(sim.n_records):
            p = sim.parents[idx]
            if p >= 0:
                assert sim.t1[idx] == sim.t2[p]
            else:
                assert sim.t1[idx] == 0.0

    def test_jump_displacements_in_support(self):
        model = critical_model()
        sim = run(model, 8.0, [(1, 0), (2, 0)], seed=13)
        sup = {1: set(model.kernel1.support), 2: set(model.kernel2.support)}
        jumped = np.nonzero(sim.fates == FATE_JUMPED)[0]
        assert len(jumped) > 0
        for idx in jumped:
            ptype = int(sim.types[idx])
            assert tuple(int(c) for c in _displacement(sim, idx)) in sup[ptype]

    def test_fate_offspring_consistency(self):
        """Replaying fates must reproduce exactly the recorded children."""
        sim = run(critical_model(), 6.0, [(1, 0)], seed=17)
        children: dict[int, list[int]] = {}
        for idx in range(sim.n_records):
            children.setdefault(int(sim.parents[idx]), []).append(idx)
        for idx in range(sim.n_records):
            fate = int(sim.fates[idx])
            pos = sim.positions[idx].tolist()
            kids = children.get(idx, [])
            kid_types = [int(sim.types[c]) for c in kids]
            kid_pos = [sim.positions[c].tolist() for c in kids]
            if fate in (FATE_DIED, FATE_CENSORED):
                assert kids == []
            elif fate == FATE_BRANCHED:
                k, l = int(sim.aux_a[idx]), int(sim.aux_b[idx])
                assert len(kids) == k + l
                assert kid_types.count(1) == k
                assert kid_types.count(2) == l
                assert all(x == pos for x in kid_pos)
                assert all(sim.t1[c] == sim.t2[idx] for c in kids)
            elif fate == FATE_CONVERTED:
                assert len(kids) == 1 and kid_types == [2]
                assert kid_pos == [pos]
            elif fate == FATE_JUMPED:
                assert len(kids) == 1 and kid_types == [int(sim.types[idx])]
                moved = (sim.positions[idx] + _displacement(sim, idx)).tolist()
                assert kid_pos == [moved]
            else:
                pytest.fail(f"record {idx} has unknown fate code {fate}")

    def test_event_cap_raises(self):
        law = BranchingLaw(mu1=0.0, mu2=0.0, beta1={(2, 0): 2.0})
        model = TwoTypeModel(simple_kernel(1), simple_kernel(1), 0.1, 0.1, law)
        with pytest.raises(EventCapExceeded, match="500"):
            run(model, 50.0, [(1, 0)], seed=1, event_cap=500)


class TestSnapshot:
    def test_initial_configuration_at_t0(self):
        sim = run(critical_model(), 5.0, [(1, 0), (1, 0), (2, 4)], seed=21)
        assert snapshot(sim, 0.0) == {(1, (0,)): 2, (2, (4,)): 1}

    def test_empty_after_death(self):
        model = death_only_model(mu=50.0)
        sim = run(model, 4.0, [(1, 0)], seed=5)
        if (sim.fates == 0).any():            # death happened before T
            assert snapshot(sim, 3.9) == {}

    def test_sum_rule(self):
        sim = run(critical_model(), 6.0, [(1, 0)], seed=23)
        for t in (0.5, 2.0, 6.0):
            assert sum(snapshot(sim, t).values()) == int(sim.alive_mask(t).sum())

    def test_membership_rule_against_record_loop(self):
        sim = run(critical_model(), 6.0, [(1, 0)], seed=29)
        records = list(zip(sim.t1.tolist(), sim.t2.tolist(), sim.fates.tolist()))
        rng = np.random.default_rng(1)
        for t in rng.uniform(0, 6, size=100):
            by_loop = sum(
                1 for t1, t2, fate in records
                if t1 <= t and (t < t2 or (fate == FATE_CENSORED and t <= t2)))
            assert by_loop == int(sim.alive_mask(float(t)).sum())

    def test_out_of_range_time(self):
        sim = run(critical_model(), 2.0, [(1, 0)], seed=31)
        with pytest.raises(ValueError):
            snapshot(sim, 2.5)


class TestStatisticalLaws:
    def test_sojourn_exponentiality_ks(self):
        # pure walk: ~1e5 sojourns from one lineage, all Exp(kappa)
        sim = run(walk_only_model(), 100_000.0, [(1, 0)], seed=37)
        dt = (sim.t2 - sim.t1)[sim.fates == 2]
        assert len(dt) > 90_000
        p = stats.kstest(dt, "expon", args=(0, 1.0)).pvalue
        assert p > 0.001

    def test_total_count_second_moment_master_equation(self):
        # E N_total(t)^2 = 1 + 2 lambda t for critical binary branching
        lam, t = 0.5, 1.0
        law = BranchingLaw(mu1=lam, mu2=0.0, beta1={(2, 0): lam})
        model = TwoTypeModel(simple_kernel(1), simple_kernel(1), 1.0, 1.0, law)
        res, _ = map_replicas(model, t, [(1, 0)], 40_000, 99,
                              partial(_alive_total_squared, t=t))
        arr = np.array(res)
        se = arr.std(ddof=1) / math.sqrt(len(arr))
        assert abs(arr.mean() - (1 + 2 * lam * t)) < 4 * se

    def test_mean_field_matches_first_moments(self):
        model = critical_model()
        t = 1.0
        ens = ensemble(model, t, [(1, 0)], 4000, 1234, snapshot_times=[t],
                       keep_runs=False)
        fld = first_moment_field(model, t, 25)
        for j in (1, 2):
            for x in (-1, 0, 1):
                st = ens.site_stats[t].get((j, (x,)))
                mean = st.mean if st else 0.0
                se = st.se if st else 1e-3
                assert abs(mean - fld.value(1, j, x)) < 4 * max(se, 1e-4)

    def test_pure_death_site_mean(self):
        mu, t = 1.0, 1.0
        model = death_only_model(mu)
        res, _ = map_replicas(model, t, [(1, 0)], 10_000, 7,
                              partial(_alive_total, t=t))
        arr = np.array(res, dtype=float)
        se = arr.std(ddof=1) / math.sqrt(len(arr))
        assert abs(arr.mean() - math.exp(-mu * t)) < 3 * se


class TestEnsemble:
    def test_single_replica_aggregates_match_snapshot(self):
        model = critical_model()
        ens = ensemble(model, 2.0, [(1, 0)], 1, 55, snapshot_times=[1.0])
        snap = snapshot(ens.runs[0], 1.0)
        stats_ = ens.site_stats[1.0]
        assert set(stats_) == set(snap)
        for key, st in stats_.items():
            assert st.mean == snap[key] and st.n == 1

    def test_replica_streams_disjoint(self):
        a = replica_rng(100, 0).random(8)
        b = replica_rng(100, 1).random(8)
        assert not np.allclose(a, b)
        npt.assert_array_equal(a, replica_rng(100, 0).random(8))

    def test_failures_reported_without_abort(self):
        law = BranchingLaw(mu1=0.0, mu2=0.0, beta1={(2, 0): 2.0})
        model = TwoTypeModel(simple_kernel(1), simple_kernel(1), 0.1, 0.1, law)
        ens = ensemble(model, 50.0, [(1, 0)], 5, 3, snapshot_times=[1.0],
                       event_cap=300)
        assert len(ens.failures) == 5
        for rid, msg in ens.failures:
            assert "event cap" in msg

    def test_map_replicas_order_and_rejects_zero(self):
        model = walk_only_model()
        res, fails = map_replicas(model, 1.0, [(1, 0)], 4, 9, _replica_id)
        assert res == [0, 1, 2, 3] and fails == []
        with pytest.raises(ValueError):
            map_replicas(model, 1.0, [(1, 0)], 0, 9, _replica_id)

    def test_worker_count_from_brw2_threads(self, monkeypatch):
        monkeypatch.delenv("BRW2_THREADS", raising=False)
        assert default_workers() == 1
        monkeypatch.setenv("BRW2_THREADS", "3")
        assert default_workers() == 3
        for bad in ("0", "-2", "two", "1.5", ""):
            monkeypatch.setenv("BRW2_THREADS", bad)
            with pytest.raises(ValueError, match="BRW2_THREADS"):
                default_workers()

    def test_pool_never_larger_than_replica_count(self, monkeypatch):
        sizes = []

        class SerialPool:
            """Records the requested size and runs the jobs in this process."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs, chunksize=1):
                return map(fn, jobs)

        monkeypatch.setattr(simulate, "ProcessPoolExecutor", SerialPool)
        res, _ = map_replicas(walk_only_model(), 1.0, [(1, 0)], 3, 9,
                              partial(_alive_total, t=1.0), n_workers=64)
        assert sizes == [3] and res == [1, 1, 1]

    def test_parallel_workers_agree_with_sequential(self):
        model = critical_model()
        seq, _ = map_replicas(model, 2.0, [(1, 0)], 6, 17,
                              partial(_alive_total, t=1.0), n_workers=1)
        par, _ = map_replicas(model, 2.0, [(1, 0)], 6, 17,
                              partial(_alive_total, t=1.0), n_workers=2)
        assert seq == par


# map_replicas reducers: module-level, so BRW2_THREADS > 1 can pickle them

def _alive_total(sim, t):
    return int(sim.alive_mask(t).sum())


def _alive_total_squared(sim, t):
    return float(sim.alive_mask(t).sum()) ** 2


def _replica_id(sim):
    return sim.replica_id
