"""Empirical clustering diagnostics for critical BRWs.

Under a critical irreducible reproduction law with recurrent walks, most
subpopulations die out (survival probability ~ c / t) while survivors grow
linearly, so the survivors' particles pile into rare dense islands of width
~ sqrt(t) separated by empty stretches of order t in d = 1; in d = 2 the
signature is cells of side ~ sqrt(t nu(t) / c) left without any surviving
subpopulation start point.  Everything here is a pure function over
completed runs.  The survival and conditional curves each run one sweep
through ``simulate.map_replicas`` with a picklable per-replica reducer, so
they give the same numbers for any BRW2_THREADS, and they raise rather than
drop a replica that hits the event cap.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from .branching import TwoTypeModel, classify_criticality
from .simulate import SimulationRun, map_replicas

__all__ = [
    "ClusterReport",
    "CellReport",
    "SurvivalPoint",
    "SurvivalCurve",
    "ConditionalPoint",
    "ConditionalCurve",
    "survival_curve",
    "conditional_mean_curve",
    "cluster_stats_1d",
    "cell_stats_2d",
    "occupied_sites_1d",
    "surviving_start_points",
]


# ---------------------------------------------------------------------------
# survival and conditional growth
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SurvivalPoint:
    t: float
    p_hat: float
    se: float
    n_survivors: int


@dataclass(frozen=True)
class SurvivalCurve:
    initial_type: int
    n_replicas: int
    points: list[SurvivalPoint]
    c_hat: float
    """Least-squares fit of t * P(t) over the largest half of the times."""


def _type_totals(sim: SimulationRun, t_list) -> np.ndarray:
    """(len(t_list), 2) live type-1 and type-2 counts of one replica.

    All times in one broadcast, with the rule of ``alive_mask``: a record
    is alive on [t1, t2), and a censored one, which is exactly one with
    t2 == horizon, on the closed [t1, horizon].  A NaN time is outside.
    """
    t = np.asarray(t_list, dtype=float)
    outside = t[~((t >= 0) & (t <= sim.horizon))]
    if outside.size:
        raise ValueError(f"time {outside[0]} outside [0, {sim.horizon}]")
    t = t[:, None]
    alive = (sim.t1 <= t) & ((t < sim.t2) | (sim.t2 == sim.horizon))
    total = np.count_nonzero(alive, axis=1)
    type2 = np.count_nonzero(alive & (sim.types == 2), axis=1)
    return np.stack([total - type2, type2], axis=1)


def _sweep_totals(model: TwoTypeModel, initial_type: int, t_list, n_replicas: int,
                  seed: int, n_workers: int | None):
    """One sweep of one-particle replicas: the sorted times and the
    (n_replicas, len(times), 2) array of live type totals.

    A replica that hits the event cap is one of the largest survivors, so
    dropping it would bias every estimate low; the sweep refuses instead.
    """
    if n_replicas < 100:
        raise ValueError("n_replicas < 100 makes the standard errors meaningless")
    cls = classify_criticality(model.derived, model.law)
    if cls.criticality != "critical" or cls.structure != "irreducible":
        warnings.warn(
            f"law is {cls.criticality}/{cls.structure}; the c/t survival law is "
            "derived for critical irreducible reproduction", stacklevel=3)
    t_list = sorted(float(t) for t in t_list)
    rows, failures = map_replicas(model, max(t_list), [(initial_type, (0,) * model.dim)],
                                  n_replicas, seed, partial(_type_totals, t_list=t_list),
                                  n_workers=n_workers)
    if failures:
        raise RuntimeError(
            f"replicas {[rid for rid, _ in failures]} hit the event cap; they are "
            "survivors, so the estimate is refused rather than biased low")
    return t_list, np.stack(rows)


def survival_curve(model: TwoTypeModel, initial_type: int, t_list, n_replicas: int,
                   seed: int, n_workers: int | None = None) -> SurvivalCurve:
    """Empirical survival P(n_i(t, 0) > 0) of one-particle subpopulations.

    Survival counts the whole subpopulation: both types, all sites.  Also
    fits c_hat to t * P(t) over the largest half of ``t_list``.
    """
    t_list, totals = _sweep_totals(model, initial_type, t_list, n_replicas, seed,
                                   n_workers)
    alive = totals.sum(axis=2) > 0
    points = []
    for row, t in enumerate(t_list):
        surv = int(alive[:, row].sum())
        p = surv / n_replicas
        points.append(SurvivalPoint(t=t, p_hat=p,
                                    se=math.sqrt(p * (1 - p) / n_replicas),
                                    n_survivors=surv))
    tail = points[len(points) // 2:]
    c_hat = float(np.mean([pt.t * pt.p_hat for pt in tail])) if tail else float("nan")
    return SurvivalCurve(initial_type=initial_type, n_replicas=n_replicas, points=points,
                         c_hat=c_hat)


@dataclass(frozen=True)
class ConditionalPoint:
    t: float
    mean: float | None
    se: float | None
    n_survivors: int
    omitted: bool


@dataclass(frozen=True)
class ConditionalCurve:
    initial_type: int
    counted_type: int
    points: list[ConditionalPoint]
    slope: float
    """Through-origin least-squares slope over the largest half of the times."""


def conditional_mean_curve(model: TwoTypeModel, initial_type: int, counted_type: int,
                           t_list, n_replicas: int, seed: int,
                           n_workers: int | None = None) -> ConditionalCurve:
    """Mean total type-j count over surviving replicas, per time.

    Survival is whole-subpopulation survival (both types).  Times with zero
    survivors are omitted with a flag rather than fabricated.
    """
    t_list, totals = _sweep_totals(model, initial_type, t_list, n_replicas, seed,
                                   n_workers)
    alive = totals.sum(axis=2) > 0
    points = []
    for row, t in enumerate(t_list):
        sel = totals[alive[:, row], row, counted_type - 1].astype(float)
        if len(sel) == 0:
            points.append(ConditionalPoint(t=t, mean=None, se=None, n_survivors=0,
                                           omitted=True))
            continue
        se = float(sel.std(ddof=1) / math.sqrt(len(sel))) if len(sel) > 1 else 0.0
        points.append(ConditionalPoint(t=t, mean=float(sel.mean()), se=se,
                                       n_survivors=len(sel), omitted=False))
    tail = [pt for pt in points[len(points) // 2:] if not pt.omitted]
    if tail:
        ts = np.array([pt.t for pt in tail])
        ms = np.array([pt.mean for pt in tail])
        slope = float(ts @ ms / (ts @ ts))
    else:
        slope = float("nan")
    return ConditionalCurve(initial_type=initial_type, counted_type=counted_type,
                            points=points, slope=slope)


# ---------------------------------------------------------------------------
# d = 1 cluster / gap statistics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClusterReport:
    """Runs of occupied sites and the empty runs strictly between them."""

    t: float
    window: tuple[int, int]
    cluster_lengths: list[int]
    gap_lengths: list[int]
    boundary_length: int

    def _quartiles(self, seq):
        if not seq:
            return None
        q1, med, q3 = np.percentile(np.asarray(seq, dtype=float), [25, 50, 75])
        return {"q1": float(q1), "median": float(med), "q3": float(q3)}

    @property
    def cluster_quartiles(self):
        return self._quartiles(self.cluster_lengths)

    @property
    def gap_quartiles(self):
        return self._quartiles(self.gap_lengths)

    @property
    def median_cluster(self) -> float | None:
        q = self.cluster_quartiles
        return None if q is None else q["median"]

    @property
    def median_gap(self) -> float | None:
        q = self.gap_quartiles
        return None if q is None else q["median"]


def occupied_sites_1d(sim: SimulationRun, t: float,
                      ptype: int | None = None) -> np.ndarray:
    """Sorted occupied sites at time t; both types unless ``ptype`` given."""
    if sim.model.dim != 1:
        raise ValueError("occupied_sites_1d requires a d=1 run")
    mask = sim.alive_mask(t)
    if ptype is not None:
        mask &= sim.types == ptype
    return np.unique(sim.positions[mask, 0])


def cluster_stats_1d(occupied, t: float = 0.0,
                     window: tuple[int, int] | None = None,
                     gap_tolerance: int = 1) -> ClusterReport:
    """Cluster/gap decomposition of a 1-d occupancy set.

    Clusters are maximal runs of occupied sites, where runs separated by
    fewer than ``gap_tolerance`` empty sites are merged (the default 1
    merges nothing); cluster length is the run's site span, gap length the
    number of empty sites strictly between consecutive clusters.  Leading
    and trailing empty stretches of the window count as boundary, not gaps.

    The default window is the occupied hull of the given set (its lowest to
    its highest site), so it moves with the set and has no boundary.
    Statistics compared across times or runs need an explicit ``window``.
    """
    occ = np.unique(np.asarray(list(occupied), dtype=np.int64))
    if window is None:
        window = (int(occ[0]), int(occ[-1])) if len(occ) else (0, -1)
    lo, hi = window
    occ = occ[(occ >= lo) & (occ <= hi)]
    if len(occ) == 0:
        return ClusterReport(t=t, window=window, cluster_lengths=[], gap_lengths=[],
                             boundary_length=max(0, hi - lo + 1))
    breaks = np.nonzero(np.diff(occ) - 1 >= gap_tolerance)[0]
    starts = np.concatenate([[0], breaks + 1])
    ends = np.concatenate([breaks, [len(occ) - 1]])
    clusters = [(int(occ[s]), int(occ[e])) for s, e in zip(starts, ends)]
    cluster_lengths = [e - s + 1 for s, e in clusters]
    gap_lengths = [clusters[k + 1][0] - clusters[k][1] - 1
                   for k in range(len(clusters) - 1)]
    boundary = (clusters[0][0] - lo) + (hi - clusters[-1][1])
    return ClusterReport(t=t, window=window, cluster_lengths=cluster_lengths,
                         gap_lengths=gap_lengths, boundary_length=boundary)


# ---------------------------------------------------------------------------
# d = 2 degenerate-cell statistics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CellReport:
    t: float
    cell_side: int
    n_cells: int
    degenerate_fraction: float


def surviving_start_points(sim: SimulationRun, t_list) -> dict[float, set[tuple[int, ...]]]:
    """Per t in ``t_list``, the start positions of subpopulations with a live
    descendant at t.  The ancestry is traced once for all times."""
    roots = sim.root_of()
    out = {}
    for t in t_list:
        alive_roots = np.unique(roots[sim.alive_mask(t)])
        out[t] = {tuple(int(c) for c in sim.positions[r]) for r in alive_roots}
    return out


def cell_stats_2d(surviving_starts, t: float, nu_value: float, c_hat: float,
                  window: tuple[tuple[int, int], tuple[int, int]]) -> CellReport:
    """Fraction of cells holding no surviving subpopulation start point.

    The window is tiled by square cells of side floor(sqrt(t * nu / c_hat));
    a partial cell at the high edges still counts as a cell.
    """
    side = int(math.floor(math.sqrt(t * nu_value / c_hat)))
    if side < 1:
        raise ValueError(
            f"cell side floor(sqrt({t} * {nu_value} / {c_hat})) < 1 site; "
            "increase t or decrease nu")
    (x_lo, x_hi), (y_lo, y_hi) = window
    nx = max(1, math.ceil((x_hi - x_lo + 1) / side))
    ny = max(1, math.ceil((y_hi - y_lo + 1) / side))
    occupied_cells = set()
    for sx, sy in surviving_starts:
        cx, cy = (sx - x_lo) // side, (sy - y_lo) // side
        if 0 <= cx < nx and 0 <= cy < ny:
            occupied_cells.add((cx, cy))
    n_cells = nx * ny
    return CellReport(t=t, cell_side=side, n_cells=n_cells,
                      degenerate_fraction=1.0 - len(occupied_cells) / n_cells)
