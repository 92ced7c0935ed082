import hashlib
import math
from functools import partial

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from brw2 import simulate
from brw2.branching import BranchingLaw, TwoTypeModel
from brw2.config import preset
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


def conversion_model_2d() -> TwoTypeModel:
    """d = 2, subcritical, with type-1 -> type-2 conversion and a (0, 3) birth."""
    law = BranchingLaw(mu1=0.3, mu2=0.45, beta1={(2, 0): 0.15, (1, 1): 0.1},
                       beta2={(0, 3): 0.1, (1, 1): 0.15}, conversion_rate=0.2)
    return TwoTypeModel(simple_kernel(2), uniform_range_kernel(2, 1), 1.0, 2.0, law)


def frozen_type2_model() -> TwoTypeModel:
    """d = 1, subcritical: type 2 never moves (kappa2 = 0) and has a (0, 3)
    birth, type 1 a (3, 0) birth and conversion."""
    law = BranchingLaw(mu1=0.4, mu2=0.5, beta1={(3, 0): 0.05, (1, 1): 0.1},
                       beta2={(0, 3): 0.1, (1, 1): 0.15}, conversion_rate=0.1)
    return TwoTypeModel(uniform_range_kernel(1, 2), simple_kernel(1), 1.5, 0.0, law)


def _fig_z1_short():
    cfg = preset("fig-z1")
    return cfg.build_model(), cfg.initial_or_default(), 4.0


# draw-stream laws: (model, initial, horizon)
DRAW_STREAM_CASES = {
    "critical": lambda: (critical_model(), [(1 + (i % 2), 3 * i) for i in range(20)],
                         20.0),
    "fig-z1-short": _fig_z1_short,
    "frozen-type-2": lambda: (frozen_type2_model(),
                              [(1 + (i % 2), i) for i in range(60)], 10.0),
    "conversion-2d": lambda: (conversion_model_2d(),
                              [(1 + (i % 2), (i % 8, i // 8)) for i in range(40)], 8.0),
}


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
        for horizon in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                run(model, horizon, [(1, 0)], seed=1)
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

    def test_event_cap_boundary(self):
        """A cap of exactly n records passes unchanged; n - 1 raises."""
        model, initial = critical_model(), [(1, 0), (2, 5)]
        free = run(model, 30.0, initial, seed=18)
        n = free.n_records
        assert n > 1000
        capped = run(model, 30.0, initial, seed=18, event_cap=n)
        for name in COLUMNS:
            a, b = getattr(capped, name), getattr(free, name)
            assert a.dtype == b.dtype
            npt.assert_array_equal(a, b)
        with pytest.raises(EventCapExceeded, match=f"cap of {n - 1} records"):
            run(model, 30.0, initial, seed=18, event_cap=n - 1)

    def test_event_cap_inside_one_jump_chain(self):
        """A pure walk is one jump chain; a cap crossed inside it raises, and
        a cap of exactly the chain's length passes."""
        model, initial = walk_only_model(), [(1, 0)]
        free = run(model, 60.0, initial, seed=4)
        n = free.n_records
        assert n > 20
        npt.assert_array_equal(free.parents, np.arange(-1, n - 1))
        capped = run(model, 60.0, initial, seed=4, event_cap=n)
        npt.assert_array_equal(capped.t2, free.t2)
        for cap in (1, n // 2, n - 1):
            with pytest.raises(EventCapExceeded, match=f"cap of {cap} records"):
                run(model, 60.0, initial, seed=4, event_cap=cap)

    def test_roots_and_positions_match_reference_loops(self):
        model = conversion_model_2d()
        initial = [(1 + (i % 2), (i % 8, i // 8)) for i in range(40)]
        sim = run(model, 8.0, initial, seed=1, replica_id=4)
        roots = np.arange(sim.n_records)
        positions = np.zeros_like(sim.positions)
        sites = iter(x for _, x in initial)
        for idx in range(sim.n_records):
            p = sim.parents[idx]
            if p < 0:
                positions[idx] = next(sites)
                continue
            roots[idx] = roots[p]
            positions[idx] = positions[p]
            if sim.fates[p] == FATE_JUMPED:
                positions[idx] += _displacement(sim, p)
        assert (roots != np.arange(sim.n_records)).sum() > 400
        npt.assert_array_equal(sim.root_of(), roots)
        npt.assert_array_equal(sim.positions, positions)

    @pytest.mark.parametrize("case", sorted(DRAW_STREAM_CASES))
    def test_draw_stream(self, monkeypatch, case):
        """The draws a replica consumes are the first k of its stream, k being
        1 per censored record, 2 per other record and 1 more per jump, taken
        in record order as sojourn, fate, jump index; every decoded column
        agrees with its record's own draws."""
        model, initial, horizon = DRAW_STREAM_CASES[case]()
        seed, rid = 1, 4
        chunks = []

        class Recording:
            def __init__(self, rng):
                self._rng = rng

            def random(self, size):
                chunks.append(self._rng.random(size))
                return chunks[-1]

        monkeypatch.setattr(simulate, "replica_rng",
                            lambda s, r: Recording(replica_rng(s, r)))
        sim = run(model, horizon, initial, seed=seed, replica_id=rid)
        # the loop's chunks, read before a decoded column regenerates the stream
        sizes = [len(c) for c in chunks]
        drawn = np.concatenate(chunks)
        censored = sim.fates == FATE_CENSORED
        jumped = sim.fates == FATE_JUMPED
        assert jumped.any() and (~censored & ~jumped).any()
        per_record = np.where(censored, 1, 2 + jumped)
        k = int(per_record.sum())
        assert len(sizes) >= 3 and sum(sizes[:-1]) < k <= sum(sizes)
        u = replica_rng(seed, rid).random(k)
        npt.assert_array_equal(drawn[:k], u)

        law = model.law
        rates = {1: (law.mu1, law.beta1, law.conversion_rate),
                 2: (law.mu2, law.beta2, 0.0)}
        first = np.cumsum(per_record) - per_record
        for idx in range(sim.n_records):
            ptype = int(sim.types[idx])
            mu, branches, conv = rates[ptype]
            rho = model.kappa(ptype) + mu + sum(r for _, _, r in branches) + conv
            t2 = sim.t1[idx] - math.log(1.0 - u[first[idx]]) / rho
            if censored[idx]:
                assert t2 >= sim.horizon
                continue
            assert t2 == pytest.approx(sim.t2[idx], rel=1e-12, abs=1e-12)
            edges = np.cumsum([mu] + [r for _, _, r in branches] + [conv]) / rho
            slot = int(np.searchsorted(edges, u[first[idx] + 1], side="right"))
            if slot == len(edges):
                assert jumped[idx]
                cum = np.cumsum(model.kernel(ptype).weights)[:-1]
                assert sim.aux_a[idx] == np.searchsorted(cum, u[first[idx] + 2],
                                                         side="right")
            elif slot == 0:
                assert sim.fates[idx] == FATE_DIED
            elif slot == len(edges) - 1:
                assert sim.fates[idx] == FATE_CONVERTED
            else:
                k_, l_, _ = branches[slot - 1]
                assert sim.fates[idx] == FATE_BRANCHED
                assert (sim.aux_a[idx], sim.aux_b[idx]) == (k_, l_)


class TestCompiledTables:
    def test_cached_tables_give_freshly_compiled_histories(self):
        """Runs on cached tables equal runs on freshly compiled ones, across
        models with different laws and an equal but distinct model object."""
        a, b = critical_model(), conversion_model_2d()
        a_copy = TwoTypeModel(a.kernel1, a.kernel2, a.kappa1, a.kappa2,
                              BranchingLaw(mu1=0.25, mu2=0.375,
                                           beta1={(2, 0): 0.125, (1, 1): 0.125},
                                           beta2={(0, 2): 0.125, (1, 1): 0.25}))
        assert a_copy == a and a_copy is not a
        cases = [(a, [(1, 0), (2, 4)]), (b, [(1, (0, 0)), (2, (3, -1))]),
                 (a, [(2, -3)]), (a_copy, [(1, 0), (2, 4)])]
        cached = [[run(model, 20.0, initial, seed=6, replica_id=k) for k in range(5)]
                  for model, initial in cases]
        for (model, initial), runs in zip(cases, cached):
            for k, sim in enumerate(runs):
                simulate._tables.cache_clear()
                fresh = run(model, 20.0, initial, seed=6, replica_id=k)
                for name in COLUMNS:
                    a_col, b_col = getattr(sim, name), getattr(fresh, name)
                    assert a_col.dtype == b_col.dtype
                    npt.assert_array_equal(a_col, b_col)

    def test_one_compile_per_model(self):
        model = critical_model()
        simulate._tables.cache_clear()
        for k in range(4):
            run(model, 5.0, [(1, 0)], seed=2, replica_id=k)
        info = simulate._tables.cache_info()
        assert (info.misses, info.hits) == (1, 3)

    def test_two_workers_agree_on_cached_tables(self):
        model = critical_model()
        run(model, 5.0, [(1, 0)], seed=1)           # warm this process's cache
        seq, _ = map_replicas(model, 20.0, [(1, 0), (2, 3)], 8, 21, _columns,
                              n_workers=1)
        par, _ = map_replicas(model, 20.0, [(1, 0), (2, 3)], 8, 21, _columns,
                              n_workers=2)
        for one, two in zip(seq, par):
            for a_col, b_col in zip(one, two):
                npt.assert_array_equal(a_col, b_col)


@st.composite
def forests(draw):
    """(parents, values): a forest over n records whose parents are a root
    (-1), the record before or any earlier record, relabelled by a random
    permutation half the time, so roots and run heads sit at any index; the
    values are (n,) or (n, d) integers."""
    n = draw(st.integers(0, 30))
    parents = []
    for i in range(n):
        kind = draw(st.sampled_from(["root", "previous", "earlier"]))
        if i == 0 or kind == "root":
            parents.append(-1)
        else:
            parents.append(i - 1 if kind == "previous" else draw(st.integers(0, i - 1)))
    parents = np.array(parents, dtype=np.int64)
    if draw(st.booleans()):
        order = np.array(draw(st.permutations(range(n))), dtype=np.int64)
        label = np.empty(n, dtype=np.int64)
        label[order] = np.arange(n)
        parents = np.where(parents >= 0, label[np.maximum(parents, 0)], -1)[order]
    shape = draw(st.sampled_from([(n,), (n, 1), (n, 3)]))
    size = math.prod(shape)
    values = draw(st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=size, max_size=size))
    return parents, np.array(values, dtype=np.int64).reshape(shape)


def _ancestor_sums_by_loop(parents, values):
    out = values.copy()
    for i in range(len(parents)):
        p = parents[i]
        while p >= 0:
            out[i] += values[p]
            p = parents[p]
    return out


@settings(max_examples=300, deadline=None)
@given(forests())
@example((np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)))
@example((np.zeros((0,), dtype=np.int64), np.zeros((0, 2), dtype=np.int64)))
@example((np.array([-1]), np.array([7])))
@example((np.array([-1]), np.array([[7, -3]])))
@example((np.array([-1, 0, 1, 0, -1, 4]), np.arange(6)))
def test_ancestor_sums_match_a_per_record_loop(forest):
    parents, values = forest
    got = simulate._ancestor_sums(parents, values)
    assert got.dtype == values.dtype and got.shape == values.shape
    npt.assert_array_equal(got, _ancestor_sums_by_loop(parents, values))


def test_stream_at_reads_the_stream_across_blocks():
    """Uniforms at chosen stream positions equal one long draw, for blocks
    that split the positions anywhere."""
    at = np.array([0, 3, 4, 9, 10, 11, 30, 31])
    whole = replica_rng(3, 1).random(32)
    for block in (1, 2, 5, 31, 32, 64):
        npt.assert_array_equal(simulate._stream_at(replica_rng(3, 1), at, block), whole[at])
    assert simulate._stream_at(replica_rng(3, 1), at[:0]).shape == (0,)


class TestLazyPositions:
    def test_positions_decoded_once_on_first_access(self, monkeypatch):
        sim = run(conversion_model_2d(), 8.0, [(1, (0, 0)), (2, (3, -1))], seed=3)
        assert "positions" not in vars(sim)
        calls = []

        def counting(parents, values):
            calls.append(len(parents))
            return ancestor_sums(parents, values)

        ancestor_sums = simulate._ancestor_sums
        monkeypatch.setattr(simulate, "_ancestor_sums", counting)
        first = sim.positions
        assert sim.positions is first and calls == [sim.n_records]
        assert first.dtype == np.int64 and first.shape == (sim.n_records, 2)


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
        for t in (math.nan, math.inf, -0.5):
            with pytest.raises(ValueError, match="outside"):
                sim.alive_mask(t)


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


def _columns(sim):
    return tuple(getattr(sim, name) for name in COLUMNS)


# Column digests of the event engine, one case per law shape.  Each digest
# covers every SimulationRun column of every replica, dtype and shape
# included, so a change to the draw stream, the draw order, the stack order
# or a column's dtype shows here.
COLUMNS = ("types", "positions", "t1", "t2", "fates", "aux_a", "aux_b", "parents")


def _column_digests(runs) -> dict[str, str]:
    out = {}
    for name in COLUMNS:
        h = hashlib.sha256()
        for sim in runs:
            col = getattr(sim, name)
            h.update(f"{col.dtype.str}{col.shape}".encode())
            h.update(np.ascontiguousarray(col).tobytes())
        out[name] = h.hexdigest()[:16]
    return out


def _critical_runs():
    return [run(critical_model(), 200.0, [(1, 0)], seed=1, replica_id=k)
            for k in range(50)]


def _conversion_runs():
    return [run(conversion_model_2d(), 30.0, [(1, (0, 0)), (2, (3, -1))], seed=5,
                replica_id=k) for k in range(200)]


def _fig_z1_runs():
    cfg = preset("fig-z1")
    exp = cfg.experiment
    return [run(cfg.build_model(), exp.horizon, cfg.initial_or_default(), seed=0)]


PINNED = {
    "conversion-2d": {"types": "972cf7ec705f72b9", "positions": "d70f8bba93f70eb7",
                      "t1": "09a2291cffe4718a", "t2": "c78d6a42f9877c7d",
                      "fates": "9bcb6083bea3d587", "aux_a": "05ad53cf8aa59a58",
                      "aux_b": "8ff4559f84894345", "parents": "afbbaf0db4dbd16c"},
    "critical": {"types": "a35a5e62ff9ad7e5", "positions": "a8dcfe800dc1fb6a",
                 "t1": "abf65d7924f31adb", "t2": "fc829258844dafd7",
                 "fates": "950890101859441d", "aux_a": "6c6c21fec5220830",
                 "aux_b": "3e7c1461af11d5b6", "parents": "20464596d5f796b1"},
    "fig-z1": {"types": "90c7a8ba4053b094", "positions": "60cf5243ecbc72b8",
               "t1": "24192aae13a92856", "t2": "b07a967e4b39aa33",
               "fates": "e52660545c064176", "aux_a": "841e49b565bf01d6",
               "aux_b": "23e377095b95f775", "parents": "e5d4cc01ef65bed9"},
}


@pytest.mark.parametrize("case", sorted(PINNED))
def test_engine_columns_are_pinned(case):
    runs = {"critical": _critical_runs, "conversion-2d": _conversion_runs,
            "fig-z1": _fig_z1_runs}[case]()
    assert _column_digests(runs) == PINNED[case]
