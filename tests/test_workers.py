"""The worker count changes wall time, never results.

Every replica sweep runs through ``map_replicas``; these tests run the same
sweeps with one and with two worker processes (``n_workers`` or
BRW2_THREADS) and require identical results, down to the CSV bytes.
"""

import numpy as np

from brw2.branching import BranchingLaw, TwoTypeModel
from brw2.cli import main
from brw2.clusters import conditional_mean_curve, survival_curve
from brw2.lattice import simple_kernel, uniform_range_kernel
from brw2.simulate import ensemble, map_replicas, run

RUN_COLUMNS = ("types", "positions", "t1", "t2", "fates", "aux_a", "aux_b", "parents")

SMALL_D2 = """
model:
  dim: 2
  kappa1: 1.0
  kappa2: 2.0
  kernel1: [[[1, 0], 0.25], [[-1, 0], 0.25], [[0, 1], 0.25], [[0, -1], 0.25]]
  kernel2: [[[1, 1], 0.5], [[-1, -1], 0.5], [[1, 0], 0.5], [[-1, 0], 0.5]]
  law:
    mu1: 0.25
    mu2: 0.375
    beta1: [[2, 0, 0.125], [1, 1, 0.125]]
    beta2: [[0, 2, 0.125], [1, 1, 0.25]]
experiment:
  t_list: [5.0, 10.0]
  replicas: 3
  seed: 4
  initial: [[1, [0, 0]], [1, [0, 1]], [1, [1, 0]], [1, [1, 1]], [1, [2, 0]],
            [1, [2, 2]], [1, [0, 3]], [1, [3, 3]], [2, [4, 1]], [1, [3, 2]]]
"""


def critical_model() -> TwoTypeModel:
    law = BranchingLaw(mu1=0.25, mu2=0.375,
                       beta1={(2, 0): 0.125, (1, 1): 0.125},
                       beta2={(0, 2): 0.125, (1, 1): 0.25})
    return TwoTypeModel(simple_kernel(1), uniform_range_kernel(1, 3), 1.0, 4.0, law)


def test_ensemble_same_for_one_and_two_workers():
    # event_cap 20 makes some replicas fail, so the failure path is compared too
    results = [ensemble(critical_model(), 5.0, [(1, 0)], 10, 3,
                        snapshot_times=[1.0, 5.0], keep_runs=True, event_cap=20,
                        n_workers=workers) for workers in (1, 2)]
    one, two = results
    assert one.failures and one.failures == two.failures
    assert one.site_stats == two.site_stats
    assert len(one.runs) == len(two.runs) == 10 - len(one.failures)
    for a, b in zip(one.runs, two.runs):
        assert a.replica_id == b.replica_id
        for name in RUN_COLUMNS:
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


LAZY_COLUMNS = ("positions", "_outcomes")


def _undecoded(sim):
    """The run as the engine returned it: no lazy column decoded yet."""
    assert not set(LAZY_COLUMNS) & set(vars(sim))
    return sim


def test_lazy_runs_decode_in_the_parent_for_one_and_two_workers():
    model, initial = critical_model(), [(1, 0), (2, 4)]
    direct = [run(model, 10.0, initial, 8, replica_id=k) for k in range(6)]
    for workers in (1, 2):
        runs, failures = map_replicas(model, 10.0, initial, 6, 8, _undecoded,
                                      n_workers=workers)
        assert failures == []
        for a, b in zip(runs, direct):
            assert not set(LAZY_COLUMNS) & set(vars(a))
            for name in RUN_COLUMNS:
                col, ref = getattr(a, name), getattr(b, name)
                assert col.dtype == ref.dtype
                np.testing.assert_array_equal(col, ref)


def test_curves_same_for_one_and_two_threads(monkeypatch):
    model, times = critical_model(), [1.0, 2.0, 4.0]
    curves = []
    for threads in ("1", "2"):
        monkeypatch.setenv("BRW2_THREADS", threads)
        curves.append((survival_curve(model, 1, times, 150, 11),
                       conditional_mean_curve(model, 1, 1, times, 150, 11),
                       conditional_mean_curve(model, 2, 2, times, 120, 12)))
    assert curves[0] == curves[1]


def _cli_outputs(tmp_path, monkeypatch, threads: str, argv_tail: list[str]) -> dict:
    monkeypatch.setenv("BRW2_THREADS", threads)
    out = tmp_path / f"threads{threads}"
    for command in ("simulate", "clusters"):
        assert main([command, *argv_tail, "--out", str(out)]) == 0
    return {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}


def test_cli_fig_z1_csvs_same_for_one_and_two_threads(tmp_path, monkeypatch):
    argv = ["--preset", "fig-z1", "--replicas", "2", "--seed", "1", "--t", "5,10"]
    one = _cli_outputs(tmp_path, monkeypatch, "1", argv)
    two = _cli_outputs(tmp_path, monkeypatch, "2", argv)
    assert sorted(one) == ["clusters.csv", "history_0000.csv", "history_0001.csv",
                           "snapshot.csv"]
    assert one == two


def test_cli_d2_csvs_same_for_one_and_two_threads(tmp_path, monkeypatch):
    cfg = tmp_path / "d2.yaml"
    cfg.write_text(SMALL_D2)
    one = _cli_outputs(tmp_path, monkeypatch, "1", ["--config", str(cfg)])
    two = _cli_outputs(tmp_path, monkeypatch, "2", ["--config", str(cfg)])
    assert sorted(one) == ["cells.csv", "history_0000.csv", "history_0001.csv",
                           "history_0002.csv", "snapshot.csv"]
    assert one == two
