"""Command-line interface: simulate / moments / clusters / epidemic.

Each command loads a config (``--config`` file or ``--preset`` name),
applies flag overrides, runs the corresponding pipeline and writes CSV
files plus a manifest into the output directory.  Errors exit nonzero with
a machine-readable JSON record on stderr.

``simulate`` and ``clusters`` run their replicas through
``simulate.map_replicas`` with module-level reducers: the simulate reducer
writes its replica's history CSV straight from the run's columns and returns
only the snapshot table, so memory does not grow with ``--replicas``.
BRW2_THREADS caps the worker processes; the CSVs are byte-identical for any
value.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import partial
from pathlib import Path

import numpy as np

from .clusters import cell_stats_2d, cluster_stats_1d, occupied_sites_1d, \
    surviving_start_points
from .config import ConfigError, RunConfig, config_hash, parse_config, preset, \
    PRESET_NAMES
from .csvio import Table, write_csv, write_manifest
from .epidemic import correlation_ode, epidemic_first_moment_profiles, epidemic_m2
from .moments import (box_sites, first_moment_field, first_moment_ode_oracle, fit_grid,
                      max_pair_window, second_moment_field, second_moment_ode_oracle)
from .simulate import FATE_BRANCHED, FATE_JUMPED, FATE_NAMES, SimulationRun, \
    map_replicas, snapshot

CLI_MAX_DIM = 3
M1_FLOOR = 1e-280        # epidemic.csv's ratio is NaN where R1(t, 0) is below this


def _load_config(args) -> RunConfig:
    if args.preset and args.config:
        raise ConfigError("<flags>", "--preset and --config are mutually exclusive")
    if args.preset:
        cfg = preset(args.preset)
    elif args.config:
        cfg = parse_config(Path(args.config).read_text())
    else:
        raise ConfigError("<flags>", "one of --preset or --config is required")
    if cfg.dim > CLI_MAX_DIM:
        raise ConfigError("model.dim",
                          f"the CLI is desk-scale and supports d <= {CLI_MAX_DIM}")
    return cfg.with_overrides(
        replicas=args.replicas, seed=args.seed, out_dir=args.out,
        t_list=args.t, box_radius=args.box, grid_nodes=args.grid)


def _xcols(dim: int) -> list[str]:
    return [f"x{k + 1}" for k in range(dim)]


def _snapshot_header(dim: int) -> list[str]:
    return ["replica", "t", "type", *_xcols(dim), "count"]


def _table(n: int, *columns) -> Table:
    """Table of n rows; a scalar column holds the same value on every row."""
    return Table([np.broadcast_to(c, (n,)) for c in columns])


def _fate_labels(sim: SimulationRun) -> np.ndarray:
    """Each record's fate text, read from one label table by one index:
    died, converted and censored by fate code, branched(k,l) by offspring
    pair, jumped(v) by the record type's kernel offset."""
    law = sim.model.law
    pairs = [(k, l) for k, l, _ in (*law.beta1, *law.beta2)]
    n_l = 1 + max((l for _, l in pairs), default=0)
    n_k = 1 + max((k for k, _ in pairs), default=0)
    jumps = [["jumped(" + ",".join(map(str, v)) + ")"
              for v in sim.model.kernel(p).offsets.tolist()] for p in (1, 2)]
    labels = np.array([*FATE_NAMES,
                       *(f"branched({k},{l})" for k in range(n_k) for l in range(n_l)),
                       *jumps[0], *jumps[1]], dtype=object)
    branch_base = len(FATE_NAMES)
    jump_base = branch_base + n_k * n_l + np.array([0, 0, len(jumps[0])])
    idx = np.select([sim.fates == FATE_BRANCHED, sim.fates == FATE_JUMPED],
                    [branch_base + sim.aux_a * n_l + sim.aux_b,
                     jump_base[sim.types] + sim.aux_a],
                    default=sim.fates)
    return labels[idx]


def _simulate_replica(sim: SimulationRun, out: Path, t_list) -> Table:
    """Write the replica's history CSV and return its snapshot table, so no
    history outlives its own replica."""
    rid, n, dim = sim.replica_id, sim.n_records, sim.model.dim
    hdr = ["replica", "record_id", "parent_id", "type", *_xcols(dim),
           "t1", "t2", "fate"]
    write_csv(out / f"history_{rid:04d}.csv", hdr,
              _table(n, rid, np.arange(n), sim.parents, sim.types,
                     *sim.positions.T, sim.t1, sim.t2, _fate_labels(sim)))
    parts = []
    for t in t_list:
        snap = snapshot(sim, t)
        keys = np.array([(ptype, *pos) for ptype, pos in snap],
                        dtype=np.int64).reshape(len(snap), 1 + dim)
        parts.append(_table(len(snap), rid, t, *keys.T,
                            np.fromiter(snap.values(), np.int64, len(snap))))
    return Table.concat(parts, len(_snapshot_header(dim)))


def command_simulate(cfg: RunConfig) -> int:
    model = cfg.build_model()
    exp = cfg.experiment
    out = Path(exp.out_dir)
    snaps, failures = map_replicas(
        model, exp.horizon, cfg.initial_or_default(), exp.replicas, exp.seed,
        partial(_simulate_replica, out=out, t_list=exp.t_list),
        event_cap=exp.event_cap)
    hdr = _snapshot_header(cfg.dim)
    write_csv(out / "snapshot.csv", hdr,
              Table.concat([s for s in snaps if s is not None], len(hdr)))
    write_manifest(out, "simulate", config_hash(cfg), exp.seed, failures,
                   extra={"replicas": exp.replicas})
    if failures:
        print(json.dumps({"failures": [{"replica": r, "error": e}
                                       for r, e in failures]}), file=sys.stderr)
    return 0 if len(failures) < exp.replicas else 1


def _command_grid(cfg: RunConfig, model, keys):
    """The command's one theta grid and its manifest entry.

    ``grid_nodes`` (``--grid``) wins; otherwise the grid is fitted to
    ``model`` at the largest time and the largest output window
    (``moments.fit_grid``).  An output window the torus cannot hold is
    refused before any work or output: each radius in ``keys`` must be at
    most ``max_pair_window``.
    """
    exp = cfg.experiment
    window = max(getattr(exp, key) for key in keys)
    grid = cfg.build_grid() or fit_grid(model, max(exp.t_list), window)
    for key in keys:
        radius = getattr(exp, key)
        if radius > max_pair_window(grid.nodes_per_axis):
            raise ConfigError(f"experiment.{key}",
                              f"must be at most a quarter of the {grid.nodes_per_axis} "
                              f"theta nodes per axis; got {radius}")
    return grid, {"theta_grid": {"nodes_per_axis": grid.nodes_per_axis,
                                 "fitted": exp.grid_nodes is None}}


def command_moments(cfg: RunConfig) -> int:
    model = cfg.build_model()
    exp = cfg.experiment
    out = Path(exp.out_dir)
    grid, grid_entry = _command_grid(cfg, model, ("box_radius",))
    times = sorted(set(exp.t_list))
    ode1 = first_moment_ode_oracle(model, times, exp.box_radius)
    ode2 = second_moment_ode_oracle(model, times, exp.box_radius)
    parts = []
    for t, o1, o2 in zip(times, ode1, ode2):
        f1 = first_moment_field(model, t, exp.box_radius, grid)
        f2 = second_moment_field(model, t, exp.box_radius, grid)
        flat1f = f1.values.reshape(2, 2, -1)
        flat2f = f2.values.reshape(2, 2, -1)
        flat1o = o1.values.reshape(2, 2, -1)
        flat2o = o2.values.reshape(2, 2, -1)
        par1 = np.abs(flat1f - flat1o).max(axis=(0, 1))
        par2 = (np.abs(flat2f - flat2o) / (1e-8 + np.abs(flat2o))).max(axis=(0, 1))
        bmass = max(o1.boundary_mass, o2.boundary_mass, f1.boundary_mass,
                    f2.boundary_mass)
        degraded = o1.degraded or o2.degraded or f1.degraded or f2.degraded
        parts.append(_table(len(par1), t, *f1.sites.T,
                            flat1f[0, 0], flat1f[0, 1], flat1f[1, 0], flat1f[1, 1],
                            flat2f[0, 0], flat2f[0, 1], flat2f[1, 0], flat2f[1, 1],
                            bmass, par1, par2, f2.converged, degraded))
    hdr = ["t", *_xcols(cfg.dim),
           "m11_1", "m12_1", "m21_1", "m22_1",
           "m11_2", "m12_2", "m21_2", "m22_2",
           "boundary_mass", "parity_1", "parity_2", "converged", "degraded"]
    write_csv(out / "moments.csv", hdr, Table.concat(parts, len(hdr)))
    write_manifest(out, "moments", config_hash(cfg), exp.seed, extra=grid_entry)
    return 0


_CLUSTER_HEADER = ["replica", "t", "kind", "length"]


def _cluster_table_1d(sim: SimulationRun, t_list, window) -> Table:
    parts = []
    for t in t_list:
        rep = cluster_stats_1d(occupied_sites_1d(sim, t), t=t, window=window)
        kinds = (["cluster"] * len(rep.cluster_lengths)
                 + ["gap"] * len(rep.gap_lengths) + ["boundary"])
        lengths = [*rep.cluster_lengths, *rep.gap_lengths, rep.boundary_length]
        parts.append(_table(len(kinds), sim.replica_id, t, kinds, lengths))
    return Table.concat(parts, len(_CLUSTER_HEADER))


def command_clusters(cfg: RunConfig) -> int:
    model = cfg.build_model()
    exp = cfg.experiment
    out = Path(exp.out_dir)
    if cfg.dim == 2 and min(exp.t_list) <= 1:
        # refuse before any replica runs: cell statistics need nu = log t > 0
        raise ConfigError("experiment.t_list",
                          "d=2 cell statistics take nu = log t, so every time "
                          f"must exceed 1; got t = {min(exp.t_list):g}")
    initial = cfg.initial_or_default()
    xs = [x for _, x in initial]
    # fixed window: the span of the initial sites, so lengths compare across t
    window = tuple((min(c[k] for c in xs), max(c[k] for c in xs))
                   for k in range(cfg.dim))
    if cfg.dim == 1:
        reducer = partial(_cluster_table_1d, t_list=exp.t_list, window=window[0])
    else:
        reducer = partial(surviving_start_points, t_list=exp.t_list)
    results, failures = map_replicas(model, exp.horizon, initial, exp.replicas,
                                     exp.seed, reducer, event_cap=exp.event_cap)
    done = [(rid, res) for rid, res in enumerate(results) if res is not None]
    if cfg.dim == 1:
        write_csv(out / "clusters.csv", _CLUSTER_HEADER,
                  Table.concat([table for _, table in done], len(_CLUSTER_HEADER)))
    elif cfg.dim == 2:
        # c_hat from the same runs: mean surviving fraction * t at the horizon
        t_max = max(exp.t_list)
        survivors = sum(len(starts[t_max]) for _, starts in done)
        p_hat = survivors / (len(done) * len(set(xs))) if done else 0.0
        c_hat = max(p_hat * t_max, 1e-9)
        parts = []
        for rid, starts in done:
            for t in exp.t_list:
                rep = cell_stats_2d(starts[t], t, nu_value=math.log(t),
                                    c_hat=c_hat, window=window)
                parts.append(_table(1, rid, t, rep.cell_side, rep.n_cells,
                                    rep.degenerate_fraction))
        hdr = ["replica", "t", "cell_side", "n_cells", "degenerate_fraction"]
        write_csv(out / "cells.csv", hdr, Table.concat(parts, len(hdr)))
    write_manifest(out, "clusters", config_hash(cfg), exp.seed, failures)
    return 0 if done else 1


def command_epidemic(cfg: RunConfig) -> int:
    cfg.build_epidemic_law()             # a ConfigError for a non-epidemic law
    model = cfg.build_model()
    exp = cfg.experiment
    out = Path(exp.out_dir)
    grid, grid_entry = _command_grid(cfg, model, ("corr_box_radius", "box_radius"))
    sites = box_sites(exp.box_radius, cfg.dim)
    parts = []
    for t in sorted(set(exp.t_list)):
        r1, r2 = epidemic_first_moment_profiles(model, t, exp.box_radius, grid)
        m2 = epidemic_m2(model, t, (0,) * cfg.dim, (0,) * cfg.dim, grid)
        m1_diag = float(r1[(exp.box_radius,) * cfg.dim])
        ratio = m2.value / m1_diag ** 2 if m1_diag > M1_FLOOR else float("nan")
        parts.append(_table(len(sites), t, *sites.T, r1.reshape(-1), r2.reshape(-1),
                            m2.value, ratio, m2.boundary_mass, m2.degraded))
    hdr = ["t", *_xcols(cfg.dim), "R1", "R2", "M2_diag", "ratio",
           "boundary_mass", "degraded"]
    write_csv(out / "epidemic.csv", hdr, Table.concat(parts, len(hdr)))

    corr_sites = box_sites(exp.corr_box_radius, cfg.dim)
    fields = correlation_ode(model, sorted(set(exp.t_list)), exp.corr_box_radius, grid=grid)
    parts = [_table(len(corr_sites), fld.t, *corr_sites.T, fld.r11, fld.r12, fld.r22,
                    fld.boundary_mass, fld.degraded) for fld in fields]
    hdr = ["t", *[f"u{k + 1}" for k in range(cfg.dim)], "R11", "R12", "R22",
           "boundary_mass", "degraded"]
    write_csv(out / "corr.csv", hdr, Table.concat(parts, len(hdr)))
    write_manifest(out, "epidemic", config_hash(cfg), exp.seed, extra=grid_entry)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="brw2",
        description="Two-type branching random walks on Z^d: simulation, "
                    "moment engines, clustering and epidemic diagnostics.")
    sub = p.add_subparsers(dest="command", required=True)
    for name, fn in (("simulate", command_simulate), ("moments", command_moments),
                     ("clusters", command_clusters), ("epidemic", command_epidemic)):
        s = sub.add_parser(name)
        s.add_argument("--config", metavar="PATH", help="YAML config file")
        s.add_argument("--preset", choices=PRESET_NAMES,
                       help="named figure preset")
        s.add_argument("--replicas", type=int, metavar="N")
        s.add_argument("--seed", type=int, metavar="S")
        s.add_argument("--out", metavar="DIR")
        s.add_argument("--t", type=lambda v: [float(x) for x in v.split(",")],
                       metavar="LIST", help="comma-separated snapshot times")
        s.add_argument("--box", type=int, metavar="L", help="box radius")
        s.add_argument("--grid", type=int, metavar="M", help="theta nodes per axis")
        s.set_defaults(fn=fn)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        return args.fn(cfg)
    except ConfigError as exc:
        print(json.dumps({"error": "config", "path": exc.path, "message": str(exc)}),
              file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure: machine-readable record
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
