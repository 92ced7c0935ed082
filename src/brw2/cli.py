"""Command-line interface: simulate / moments / clusters / epidemic.

Each command loads a config (``--config`` file or ``--preset`` name),
applies flag overrides, runs the corresponding pipeline and writes CSV
files plus a manifest into the output directory.  Errors exit nonzero with
a machine-readable JSON record on stderr.

``simulate`` and ``clusters`` run their replicas through
``simulate.map_replicas`` with module-level reducers: the simulate reducer
writes its replica's history CSV from the run's columns and returns only the
snapshot rows, so memory does not grow with ``--replicas``.  BRW2_THREADS
caps the worker processes; the CSVs are byte-identical for any value.
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
from .csvio import write_csv, write_manifest
from .epidemic import M1_FLOOR, correlation_ode, epidemic_first_moment_profiles, \
    epidemic_m2
from .moments import (box_sites, first_moment_field, first_moment_ode_oracle,
                      second_moment_field, second_moment_ode_oracle)
from .simulate import FATE_BRANCHED, FATE_JUMPED, FATE_NAMES, SimulationRun, \
    map_replicas, snapshot

CLI_MAX_DIM = 3


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


def _history_rows(sim: SimulationRun) -> list[list]:
    """One row per record: replica, record_id, parent_id, type, x1..xd, t1,
    t2, fate, read column-wise from the run."""
    rid = sim.replica_id
    jumped = {p: ["jumped(" + ",".join(str(c) for c in v) + ")"
                  for v in sim.model.kernel(p).offsets.tolist()] for p in (1, 2)}
    # positions as d coordinate columns: a list per record would cost ~70
    # bytes each while the rows are held
    positions = zip(*sim.positions.T.tolist())
    rows = []
    for idx, (parent, ptype, pos, t1, t2, fate, a, b) in enumerate(zip(
            sim.parents.tolist(), sim.types.tolist(), positions, sim.t1.tolist(),
            sim.t2.tolist(), sim.fates.tolist(), sim.aux_a.tolist(),
            sim.aux_b.tolist())):
        if fate == FATE_JUMPED:
            label = jumped[ptype][a]
        elif fate == FATE_BRANCHED:
            label = f"branched({a},{b})"
        else:
            label = FATE_NAMES[fate]
        rows.append([rid, idx, parent, ptype, *pos, t1, t2, label])
    return rows


def _simulate_replica(sim: SimulationRun, out: Path, t_list) -> list[list]:
    """Write the replica's history CSV and return its snapshot rows, so no
    history outlives its own replica."""
    rid = sim.replica_id
    hdr = ["replica", "record_id", "parent_id", "type", *_xcols(sim.model.dim),
           "t1", "t2", "fate"]
    write_csv(out / f"history_{rid:04d}.csv", hdr, _history_rows(sim))
    return [[rid, t, ptype, *pos, cnt]
            for t in t_list for (ptype, pos), cnt in snapshot(sim, t).items()]


def command_simulate(cfg: RunConfig) -> int:
    model = cfg.build_model()
    exp = cfg.experiment
    out = Path(exp.out_dir)
    snaps, failures = map_replicas(
        model, exp.horizon, cfg.initial_or_default(), exp.replicas, exp.seed,
        partial(_simulate_replica, out=out, t_list=exp.t_list),
        event_cap=exp.event_cap)
    write_csv(out / "snapshot.csv",
              ["replica", "t", "type", *_xcols(cfg.dim), "count"],
              [row for rows in snaps if rows is not None for row in rows])
    write_manifest(out, "simulate", config_hash(cfg), exp.seed, failures,
                   extra={"replicas": exp.replicas})
    if failures:
        print(json.dumps({"failures": [{"replica": r, "error": e}
                                       for r, e in failures]}), file=sys.stderr)
    return 0 if len(failures) < exp.replicas else 1


def command_moments(cfg: RunConfig) -> int:
    model = cfg.build_model()
    exp = cfg.experiment
    out = Path(exp.out_dir)
    grid = cfg.build_grid()
    times = sorted(set(exp.t_list))
    ode1 = first_moment_ode_oracle(model, times, exp.box_radius)
    ode2 = second_moment_ode_oracle(model, times, exp.box_radius)
    rows = []
    for t, o1, o2 in zip(times, ode1, ode2):
        f1 = first_moment_field(model, t, exp.box_radius, grid)
        f2 = second_moment_field(model, t, exp.box_radius, grid)
        sites = f1.sites
        flat1f = f1.values.reshape(2, 2, -1)
        flat2f = f2.values.reshape(2, 2, -1)
        flat1o = o1.values.reshape(2, 2, -1)
        flat2o = o2.values.reshape(2, 2, -1)
        par1 = np.abs(flat1f - flat1o).max(axis=(0, 1))
        par2 = (np.abs(flat2f - flat2o) / (1e-8 + np.abs(flat2o))).max(axis=(0, 1))
        bmass = max(o1.boundary_mass, o2.boundary_mass, f2.boundary_mass)
        for s, site in enumerate(sites):
            rows.append([t, *site,
                         flat1f[0, 0, s], flat1f[0, 1, s], flat1f[1, 0, s], flat1f[1, 1, s],
                         flat2f[0, 0, s], flat2f[0, 1, s], flat2f[1, 0, s], flat2f[1, 1, s],
                         bmass, par1[s], par2[s]])
    hdr = ["t", *_xcols(cfg.dim),
           "m11_1", "m12_1", "m21_1", "m22_1",
           "m11_2", "m12_2", "m21_2", "m22_2",
           "boundary_mass", "parity_1", "parity_2"]
    write_csv(out / "moments.csv", hdr, rows)
    write_manifest(out, "moments", config_hash(cfg), exp.seed)
    return 0


def _cluster_rows_1d(sim: SimulationRun, t_list, window) -> list[list]:
    rid = sim.replica_id
    rows = []
    for t in t_list:
        rep = cluster_stats_1d(occupied_sites_1d(sim, t), t=t, window=window)
        rows.extend([rid, t, "cluster", ln] for ln in rep.cluster_lengths)
        rows.extend([rid, t, "gap", ln] for ln in rep.gap_lengths)
        rows.append([rid, t, "boundary", rep.boundary_length])
    return rows


def command_clusters(cfg: RunConfig) -> int:
    model = cfg.build_model()
    exp = cfg.experiment
    out = Path(exp.out_dir)
    initial = cfg.initial_or_default()
    xs = [x for _, x in initial]
    # fixed window: the span of the initial sites, so lengths compare across t
    window = tuple((min(c[k] for c in xs), max(c[k] for c in xs))
                   for k in range(cfg.dim))
    if cfg.dim == 1:
        reducer = partial(_cluster_rows_1d, t_list=exp.t_list, window=window[0])
    else:
        reducer = partial(surviving_start_points, t_list=exp.t_list)
    results, failures = map_replicas(model, exp.horizon, initial, exp.replicas,
                                     exp.seed, reducer, event_cap=exp.event_cap)
    done = [(rid, res) for rid, res in enumerate(results) if res is not None]
    if cfg.dim == 1:
        write_csv(out / "clusters.csv", ["replica", "t", "kind", "length"],
                  [row for _, rows in done for row in rows])
    elif cfg.dim == 2:
        # c_hat from the same runs: mean surviving fraction * t at the horizon
        t_max = max(exp.t_list)
        survivors = sum(len(starts[t_max]) for _, starts in done)
        p_hat = survivors / (len(done) * len(set(xs))) if done else 0.0
        c_hat = max(p_hat * t_max, 1e-9)
        cell_rows = []
        for rid, starts in done:
            for t in exp.t_list:
                if t <= 0:
                    continue
                rep = cell_stats_2d(starts[t], t, nu_value=max(math.log(t), 1e-6),
                                    c_hat=c_hat, window=window)
                cell_rows.append([rid, t, rep.cell_side, rep.n_cells,
                                  rep.degenerate_fraction])
        write_csv(out / "cells.csv",
                  ["replica", "t", "cell_side", "n_cells", "degenerate_fraction"],
                  cell_rows)
    write_manifest(out, "clusters", config_hash(cfg), exp.seed, failures)
    return 0 if done else 1


def command_epidemic(cfg: RunConfig) -> int:
    law = cfg.build_epidemic_law()
    exp = cfg.experiment
    out = Path(exp.out_dir)
    grid = cfg.build_grid()
    k1, k2 = cfg.build_kernel(1), cfg.build_kernel(2)
    rows = []
    for t in sorted(set(exp.t_list)):
        r1, r2 = epidemic_first_moment_profiles(law, k1, cfg.kappa1, k2, cfg.kappa2,
                                                t, exp.box_radius, grid)
        m2 = epidemic_m2(law, k1, cfg.kappa1, t, (0,) * cfg.dim, (0,) * cfg.dim,
                         grid, exp.box_radius)
        m1_diag = float(r1[(exp.box_radius,) * cfg.dim])
        ratio = m2.value / m1_diag ** 2 if m1_diag > M1_FLOOR else float("nan")
        flat1, flat2 = r1.reshape(-1), r2.reshape(-1)
        for s, site in enumerate(box_sites(exp.box_radius, cfg.dim)):
            rows.append([t, *site, flat1[s], flat2[s], m2.value, ratio])
    write_csv(out / "epidemic.csv",
              ["t", *_xcols(cfg.dim), "R1", "R2", "M2_diag", "ratio"], rows)

    corr_rows = []
    fields = correlation_ode(law, k1, cfg.kappa1, k2, cfg.kappa2,
                             sorted(set(exp.t_list)), exp.corr_box_radius)
    for fld in fields:
        r11 = fld.u_slice("r11")
        r12 = fld.u_slice("r12")
        r22 = fld.u_slice("r22")
        for s, site in enumerate(box_sites(exp.corr_box_radius, cfg.dim)):
            corr_rows.append([fld.t, *site, r11[s], r12[s], r22[s]])
    write_csv(out / "corr.csv",
              ["t", *[f"u{k + 1}" for k in range(cfg.dim)], "R11", "R12", "R22"],
              corr_rows)
    write_manifest(out, "epidemic", config_hash(cfg), exp.seed)
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
