"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
All tolerances are fixed here; the Monte-Carlo criteria use fixed seeds, so
the suite is deterministic end to end.
"""

import math
from functools import partial
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from brw2.branching import BranchingLaw, TwoTypeModel
from brw2.cli import main as cli_main
from brw2.clusters import cluster_stats_1d, conditional_mean_curve, occupied_sites_1d, \
    survival_curve
from brw2.config import preset
from brw2.epidemic import correlation_ode
from brw2.lattice import ThetaGrid, gamma_constant, simple_kernel, \
    transition_probability, uniform_range_kernel
from brw2.moments import (BOUNDARY_TOL, ODE_ATOL, first_moment_field,
                          first_moment_ode_oracle, pair_moment_ode_oracle,
                          second_moment_field, second_moment_ode_oracle)
from brw2.simulate import map_replicas

SWEEP_TIMES = (0.5, 1.0, 2.0, 5.0)
BOX = 30


def criterion(tag: str, ok: bool, detail: str):
    print(f"\n[{tag}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{tag}: {detail}"


def sweep_models():
    k1, k2 = simple_kernel(1), uniform_range_kernel(1, 2)
    laws = {
        "b=0,c=0": BranchingLaw(mu1=0.3, mu2=0.2, beta1={(2, 0): 0.2},
                                beta2={(0, 2): 0.15}),
        "b=0,c>0": BranchingLaw(mu1=0.3, mu2=0.15, beta1={(2, 0): 0.2},
                                beta2={(1, 1): 0.25}),
        "b>0,c=0": BranchingLaw(mu1=0.25, mu2=0.3, beta1={(1, 1): 0.25},
                                beta2={(0, 2): 0.2}),
        "b>0,c>0": BranchingLaw(mu1=0.25, mu2=0.375,
                                beta1={(2, 0): 0.125, (1, 1): 0.125},
                                beta2={(0, 2): 0.125, (1, 1): 0.25}),
        "bc=1e-8": BranchingLaw(mu1=0.2, mu2=0.1, beta1={(1, 1): 1e-4},
                                beta2={(1, 1): 1e-4}),
    }
    return {name: TwoTypeModel(k1, k2, 1.0, 1.0, law) for name, law in laws.items()}


@pytest.fixture(scope="module")
def figure_g3_model():
    law = BranchingLaw(mu1=0.25, mu2=0.375,
                       beta1={(2, 0): 0.125, (1, 1): 0.125},
                       beta2={(0, 2): 0.125, (1, 1): 0.25})
    return TwoTypeModel(simple_kernel(1), uniform_range_kernel(1, 3), 1.0, 4.0, law)


def test_a1_first_moment_route_parity():
    worst = 0.0
    for name, model in sweep_models().items():
        oracles = first_moment_ode_oracle(model, SWEEP_TIMES, BOX)
        for ode in oracles:
            fou = first_moment_field(model, ode.t, BOX)
            worst = max(worst, float(np.abs(fou.values - ode.values).max()))
            assert ode.boundary_mass < 1e-6, (name, ode.t)
    criterion("A1", worst <= 1e-5,
              f"first-moment Fourier vs ODE oracle, max abs diff {worst:.2e} "
              f"<= 1e-05 over d=1, L={BOX}, t in {SWEEP_TIMES}, five (b,c) configs")


def test_a2_second_moment_route_parity():
    worst = 0.0
    for name, model in sweep_models().items():
        oracles = second_moment_ode_oracle(model, SWEEP_TIMES, BOX)
        for ode in oracles:
            fou = second_moment_field(model, ode.t, BOX)
            rel = np.abs(fou.values - ode.values) / (np.abs(ode.values) + 1e-8)
            worst = max(worst, float(rel.max()))
    criterion("A2", worst <= 1e-4,
              f"second-moment Duhamel vs ODE oracle, max rel diff {worst:.2e} "
              f"<= 1e-04 under the same sweep")


# route parity over random laws: every birth entry up to three children,
# deaths, conversion and symmetric walks of range 1 to 3, at d = 1
BIRTHS = [(2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (1, 2), (0, 3)]
KERNELS = {"simple": simple_kernel(1), "range 2": uniform_range_kernel(1, 2),
           "range 3": uniform_range_kernel(1, 3)}
PARITY_TIMES = (0.5, 2.0)
PARITY_RADIUS = 8       # compared window of both Fourier routes
M2_BOX = 40             # second-moment oracle box
PAIR_BOX = 30           # pair oracle box: range-3 walks leak 6.8e-5 at box 14 by t = 2
PARITY_RTOL = 1e-6


def _births():
    return st.dictionaries(st.sampled_from(BIRTHS), st.floats(0.05, 0.25), max_size=3)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(law=st.builds(BranchingLaw, mu1=st.floats(0.0, 0.5), mu2=st.floats(0.0, 0.5),
                     beta1=_births(), beta2=_births(),
                     conversion_rate=st.floats(0.0, 0.5)),
       k1=st.sampled_from(sorted(KERNELS)), k2=st.sampled_from(sorted(KERNELS)))
# b > 0, c = 0 with r1 = r2 = -0.25 and equal walks: a defective mean matrix
@example(law=BranchingLaw(mu1=0.25, mu2=0.375, beta1={(1, 1): 0.5}, beta2={(0, 2): 0.125}),
         k1="simple", k2="simple")
@example(law=BranchingLaw(mu1=0.1, mu2=0.1, conversion_rate=0.3),            # conversion only
         k1="simple", k2="range 2")
@example(law=BranchingLaw(mu1=0.1, mu2=0.2), k1="range 3", k2="simple")      # no branching
@example(law=BranchingLaw(mu1=0.05, mu2=0.0, beta1={(2, 0): 0.5},            # the fig-z2 law
                          conversion_rate=0.45), k1="simple", k2="range 2")
def test_route_parity_over_random_laws(law, k1, k2):
    # the Fourier diagonal against the backward box ODE, and the Fourier
    # origin slice against the forward pair box ODE, on the window of
    # radius PARITY_RADIUS; each oracle's edge flux must be negligible
    model = TwoTypeModel(KERNELS[k1], KERNELS[k2], 1.0, 1.0, law)
    inner = slice(M2_BOX - PARITY_RADIUS, M2_BOX + PARITY_RADIUS + 1)
    for ode in second_moment_ode_oracle(model, PARITY_TIMES, M2_BOX):
        fou = second_moment_field(model, ode.t, PARITY_RADIUS)
        assert ode.boundary_mass < BOUNDARY_TOL and not fou.degraded
        npt.assert_allclose(fou.values, ode.values[..., inner], rtol=PARITY_RTOL,
                            atol=ODE_ATOL, err_msg=f"m2 at t={ode.t}")
    inner = slice(PAIR_BOX - PARITY_RADIUS, PAIR_BOX + PARITY_RADIUS + 1)
    oracle = pair_moment_ode_oracle(model, PARITY_TIMES, PAIR_BOX)
    for fld, ora in zip(correlation_ode(model, PARITY_TIMES, PARITY_RADIUS), oracle):
        assert ora.boundary_mass < BOUNDARY_TOL and not fld.degraded
        for name in ("r11", "r12", "r22", "r1", "r2"):
            full = ora.u_slice(name) if len(name) == 3 else getattr(ora, name)
            npt.assert_allclose(getattr(fld, name), full[inner], rtol=PARITY_RTOL,
                                atol=ODE_ATOL, err_msg=f"{name} at t={fld.t}")


def test_a3_monte_carlo_matches_moment_engine(figure_g3_model):
    model = figure_g3_model
    times = (1.0, 2.0)
    sites = tuple(range(-2, 3))
    n_rep = 10_000
    counts_reducer = partial(_a3_site_counts, times=times, sites=sites)
    f1 = {t: first_moment_field(model, t, BOX) for t in times}
    f2 = {t: second_moment_field(model, t, BOX) for t in times}
    worst_z1 = worst_z2 = 0.0
    for start_type, seed in ((1, 123), (2, 321)):
        rows, fails = map_replicas(model, max(times), [(start_type, 0)], n_rep,
                                   seed, counts_reducer)
        assert not fails
        arr = np.stack(rows).astype(float)          # (reps, times, j, sites)
        for ti, t in enumerate(times):
            for j in (1, 2):
                for si, x in enumerate(sites):
                    col = arr[:, ti, j - 1, si]
                    se1 = max(col.std(ddof=1) / math.sqrt(n_rep), 1e-4)
                    z1 = abs(col.mean() - f1[t].value(start_type, j, x)) / se1
                    sq = col ** 2
                    se2 = max(sq.std(ddof=1) / math.sqrt(n_rep), 1e-4)
                    z2 = abs(sq.mean() - f2[t].value(start_type, j, x)) / se2
                    worst_z1 = max(worst_z1, z1)
                    worst_z2 = max(worst_z2, z2)
    criterion("A3", worst_z1 <= 3.0 and worst_z2 <= 4.0,
              f"10^4-replica means/second moments vs m^(1)/m^(2): worst z "
              f"{worst_z1:.2f} <= 3, {worst_z2:.2f} <= 4 at t in {times}")


def test_a4_gaussian_asymptote_constant():
    k = simple_kernel(1)
    t = 200.0
    val = transition_probability(k, 1.0, t, 0, 0, ThetaGrid.for_dim(1))
    gamma = gamma_constant(k, 1.0)
    rel = abs(val * math.sqrt(t) / gamma - 1)
    criterion("A4", rel < 0.02,
              f"p(200,0,0) sqrt(200) = {val * math.sqrt(t):.6f} vs gamma_1 = "
              f"{gamma:.6f} (1/sqrt(2 pi) = {1 / math.sqrt(2 * math.pi):.5f}), "
              f"rel err {rel:.4f} < 0.02")


def test_a5_critical_survival_laws(figure_g3_model):
    # (a) single-type critical binary: logistic extinction oracle
    lam = 0.5
    law = BranchingLaw(mu1=lam, mu2=0.0, beta1={(2, 0): lam})
    binary = TwoTypeModel(simple_kernel(1), simple_kernel(1), 1.0, 1.0, law)
    n_rep = 10_000
    res, _ = map_replicas(binary, 10.0, [(1, 0)], n_rep, 11,
                          partial(_a5_survived, t=10.0))
    p_hat = sum(res) / n_rep
    se = math.sqrt(p_hat * (1 - p_hat) / n_rep)
    expect = 1.0 / (1.0 + lam * 10.0)
    ok_a = abs(p_hat - expect) <= 3 * se

    # (b) two-type critical law: t * P(t) stabilizes between t = 100 and 200
    curve = survival_curve(figure_g3_model, 1, [50.0, 100.0, 200.0], n_rep, 2024)
    tp = {pt.t: pt.t * pt.p_hat for pt in curve.points}
    ratio = tp[200.0] / tp[100.0]
    ok_b = 0.6 <= ratio <= 1.4
    criterion("A5", ok_a and ok_b,
              f"binary survival {p_hat:.4f} vs 1/6 within 3 SE ({se:.4f}); "
              f"t*P(t) ratio (200 vs 100) = {ratio:.3f} in [0.6, 1.4]")


def test_a6_conditional_linear_growth(figure_g3_model):
    times = (50.0, 100.0, 200.0)
    per_type = [conditional_mean_curve(figure_g3_model, 1, j, times, 10_000, 2024)
                for j in (1, 2)]
    # survival sets coincide (same seed -> same replicas), so the means add
    slopes = []
    for ti, t in enumerate(times):
        total = sum(c.points[ti].mean for c in per_type)
        assert not any(c.points[ti].omitted for c in per_type)
        slopes.append(total / t)
    spread = max(slopes) / min(slopes)
    criterion("A6", spread < 2.0,
              f"E[total | survival]/t over t in {times}: {[f'{s:.3f}' for s in slopes]}, "
              f"max/min = {spread:.2f} < 2")


A7_TIMES = (50.0, 100.0, 200.0)


@pytest.fixture(scope="module")
def fig_z1_lengths():
    """Per (replica, t) for the fig-z1 run: the cluster/gap report on the
    initial block, the report on the occupied hull at gap tolerance 4, and
    the per-site particle counts (both types) on the initial block."""
    cfg = preset("fig-z1")
    model = cfg.build_model()
    xs = [x[0] for _, x in cfg.experiment.initial]
    block = (min(xs), max(xs))
    rows, fails = map_replicas(model, 200.0, cfg.experiment.initial, 32, 7,
                               partial(_a7_lengths, block=block))
    assert not fails
    return rows


def test_a7_clustering_signature(fig_z1_lengths):
    """Clustering: empty stretches grow relative to occupied ones, and the
    particles bunch rather than spread.

    The window is fixed to the preset's initial block (sites 0..299), which
    stands in for the paper's infinite initial field; the occupied hull would
    change with t.  On it, the length-weighted gap/cluster ratio
        (sum of gap lengths + boundary length) / sum of cluster lengths,
    pooled over replicas (= empty sites / occupied sites), must be strictly
    increasing in t.  That alone does not single out branching: walkers
    started one per site also empty sites as they relax towards Poisson
    occupancy.  So the test also asserts F(t) = E[n(n-1)] / E[n]^2 > 1 at
    every t, with n the per-site count (both types) on the same window.
    Walkers that do not branch give independent Bernoulli sums per site,
    for which F <= 1; the critical law's growing second moment at fixed
    mean pushes F above 1.
    """
    ratios, factors = [], []
    for ti in range(len(A7_TIMES)):
        reports = [row[ti][0] for row in fig_z1_lengths]
        empty = sum(sum(r.gap_lengths) + r.boundary_length for r in reports)
        occupied = sum(sum(r.cluster_lengths) for r in reports)
        ratios.append(empty / occupied)
        counts = np.concatenate([row[ti][2] for row in fig_z1_lengths]).astype(float)
        factors.append(float(np.mean(counts * (counts - 1)) / np.mean(counts) ** 2))
    ok = ratios[0] < ratios[1] < ratios[2] and all(f > 1.0 for f in factors)
    criterion("A7", ok,
              f"empty/occupied sites on the initial block over t in {A7_TIMES}: "
              f"{[f'{r:.3f}' for r in ratios]} strictly increasing; "
              f"E[n(n-1)]/E[n]^2: {[f'{f:.2f}' for f in factors]} all > 1 "
              f"(fig-z1, 32 replicas)")


def test_a7_supplementary_island_scale(fig_z1_lengths):
    """Supplementary (not the acceptance criterion): the same runs exhibit
    the headline clustering signature through the mean gap/cluster ratio at
    island scale (gap tolerance 4, merging sub-island holes), which is
    tail-sensitive.  It is strictly increasing at this seed (0.53 < 0.54 <
    0.55) but not at every seed: 20 of seeds 1-30 (seed 9 gives 0.61, 0.79,
    0.70).
    """
    ratios = []
    for ti, t in enumerate(A7_TIMES):
        clusters = [ln for row in fig_z1_lengths for ln in row[ti][1].cluster_lengths]
        gaps = [ln for row in fig_z1_lengths for ln in row[ti][1].gap_lengths]
        ratios.append(float(np.mean(gaps)) / float(np.mean(clusters)))
    ok = ratios[0] < ratios[1] < ratios[2]
    criterion("A7-supplementary", ok,
              f"mean gap / mean cluster at island scale (g=4) over t in "
              f"{A7_TIMES}: {[f'{r:.2f}' for r in ratios]} strictly increasing")


def test_a8_epidemic_consistency():
    # (a) fig-z2 law at d=1 desk scale: empirical E N1(t, x) vs R1 = e^{At} p
    law = BranchingLaw(mu1=0.05, mu2=0.0, beta1={(2, 0): 0.5},
                       conversion_rate=0.45)    # A = 0
    k = simple_kernel(1)
    model = TwoTypeModel(k, k, 1.0, 1.0, law)
    times = (1.0, 2.0)
    sites = tuple(range(-2, 3))
    n_rep = 10_000
    rows, _ = map_replicas(model, max(times), [(1, 0)], n_rep, 515,
                           partial(_a8_infected_counts, times=times, sites=sites))
    arr = np.stack(rows).astype(float)
    grid = ThetaGrid.for_dim(1)
    worst_z = 0.0
    for ti, t in enumerate(times):
        for si, x in enumerate(sites):
            r1 = math.exp(model.derived.r1 * t) * transition_probability(k, 1.0, t, 0, x, grid)
            col = arr[:, ti, si]
            se = max(col.std(ddof=1) / math.sqrt(n_rep), 1e-4)
            worst_z = max(worst_z, abs(col.mean() - r1) / se)
    ok_a = worst_z <= 3.0

    # (b) non-intermittency at a fixed site for the supercritical equal-kernel
    # configuration (A > 0, mu2 = 0)
    sup = BranchingLaw(mu1=0.05, mu2=0.0, beta1={(2, 0): 0.5},
                       conversion_rate=0.2)     # A = 0.25
    fields = correlation_ode(TwoTypeModel(k, k, 1.0, 1.0, sup), [5.0, 10.0, 20.0], 16)
    ratios = [f.value("r22", 0) / f.value("r2", 0) ** 2 for f in fields]
    ok_b = max(ratios) / min(ratios) < 2.0
    criterion("A8", ok_a and ok_b,
              f"E N1 vs R1 worst z {worst_z:.2f} <= 3 (10^4 replicas, t in {times}); "
              f"R22/R2^2 over t in (5, 10, 20): {[f'{r:.2f}' for r in ratios]}, "
              f"spread {max(ratios) / min(ratios):.2f} < 2")


def test_a9_determinism_byte_identical(tmp_path):
    specs = [
        (["simulate", "--preset", "fig-z1", "--replicas", "2", "--seed", "7",
          "--t", "1,2"], ("snapshot.csv", "history_0000.csv", "history_0001.csv")),
        (["epidemic", "--preset", "fig-z2", "--t", "1", "--box", "6"],
         ("epidemic.csv", "corr.csv")),
    ]
    identical = True
    checked = []
    for argv, files in specs:
        a, b = tmp_path / f"{argv[0]}_a", tmp_path / f"{argv[0]}_b"
        for out in (a, b):
            rc = cli_main(argv + ["--out", str(out)])
            assert rc == 0
        for name in files:
            same = (a / name).read_bytes() == (b / name).read_bytes()
            identical = identical and same
            checked.append(name)
    criterion("A9", identical,
              f"reruns with identical config+seed byte-identical: {checked}")


# map_replicas reducers: module-level, so BRW2_THREADS > 1 can pickle them

def _a3_site_counts(sim, times, sites):
    out = np.zeros((len(times), 2, len(sites)), dtype=np.int64)
    for ti, t in enumerate(times):
        mask = sim.alive_mask(t)
        pos = sim.positions[mask, 0]
        tp = sim.types[mask]
        for si, x in enumerate(sites):
            at = pos == x
            out[ti, 0, si] = int((at & (tp == 1)).sum())
            out[ti, 1, si] = int((at & (tp == 2)).sum())
    return out


def _a5_survived(sim, t):
    return int(sim.alive_mask(t).sum() > 0)


def _a7_lengths(sim, block):
    out = []
    for t in A7_TIMES:
        occ = occupied_sites_1d(sim, t)
        pos = sim.positions[sim.alive_mask(t), 0]
        pos = pos[(pos >= block[0]) & (pos <= block[1])]
        counts = np.bincount(pos - block[0], minlength=block[1] - block[0] + 1)
        out.append((cluster_stats_1d(occ, t=t, window=block),
                    cluster_stats_1d(occ, t=t, gap_tolerance=4),
                    counts))
    return out


def _a8_infected_counts(sim, times, sites):
    out = np.zeros((len(times), len(sites)), dtype=np.int64)
    for ti, t in enumerate(times):
        mask = sim.alive_mask(t)
        pos = sim.positions[mask, 0]
        tp = sim.types[mask]
        for si, x in enumerate(sites):
            out[ti, si] = int(((pos == x) & (tp == 1)).sum())
    return out
