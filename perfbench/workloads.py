"""The benchmark's workloads: set-up, one timed round, and correctness gates.

Nothing here imports ``brw2`` at module level, so a worker can start the
set-up clock before the package import.  Every call into the package goes
through a module attribute (``clusters.survival_curve``, ``cli.main``) so
the tracer's wrappers are the ones called.
"""

from __future__ import annotations

import hashlib
import math
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

# Gate tolerances.
PARITY_1_TOL = 1e-5     # A1: first-moment Fourier vs ODE oracle, absolute
PARITY_2_TOL = 1e-4     # A2: second-moment Duhamel vs ODE oracle, relative
BOUNDARY_TOL = 1e-6     # brw2.moments.BOUNDARY_TOL, asserted by A1
# epidemic.csv M2_diag against corr.csv R11 at u = 0: two routes to one
# moment.  The seed commit's worst relative gap is 1.64e-4 (fig-z2, t = 4),
# so 1e-3 leaves a 6x margin.
M2_R11_TOL = 1e-3
# Monte Carlo gate: |z| bound on the log of p_hat(t) * E[N_j | survival]
# against the theta = 0 first-moment symbol.  A3 uses 3 (means) and 4
# (second moments) at one fixed seed; the benchmark runs many seeds, and a
# bootstrap of 30k replicas gave a 1.2% per-run false-alarm rate at 3 and
# 0.03% at 4 for this statistic, so the gate uses the larger A3 threshold.
MC_Z_MAX = 4.0

# The machine these figures come from is shared: its speed drifts by up to
# 1.8x in phases that last tens of seconds.  Every worker therefore times a
# fixed integer loop before its set-up and after its round, and its set-up
# time, and the round time of a workload marked ``calibrated``, are divided
# by the loop's median time over CAL_REF_S: a reported second is a second
# at the speed at which the loop takes CAL_REF_S.  Scaling each round by
# its own worker's loop, not by the run's median loop, cut the ten-run
# spread from 0.20 to 0.15 (mc-critical) and 0.12 to 0.08 (fig-z1-cli).
# The loop never runs between operations: doing so raised the fields
# workload's peak RSS by 50-127 MB.
CAL_LOOP = 100_000
CAL_SAMPLES = 12
CAL_REF_S = 0.0055


def calibrate() -> list[float]:
    """CAL_SAMPLES timings of the calibration loop."""
    times = []
    for _ in range(CAL_SAMPLES):
        t = time.perf_counter()
        acc = 0
        for k in range(CAL_LOOP):
            acc += k * k
        times.append(time.perf_counter() - t)
    return times


class Context:
    """Per-round state shared by a workload and the worker."""

    def __init__(self, seed: int, out_dir: Path, tracer, hooks):
        self.seed = seed
        self.out_dir = out_dir
        self.tracer = tracer
        self.hooks = hooks
        self.failures: list[tuple[int, str, bool]] = []
        self.wall_s = 0.0       # summed wall time of the operations

    def fail(self, op: int, message: str, wrong_output: bool = True) -> None:
        """Mark operation ``op`` failed.  ``wrong_output=False`` is for a
        failure that leaves the outputs checkable, such as a degraded field."""
        self.failures.append((op, message, wrong_output))

    def call(self, op: int, fn, *args):
        """Run and time one operation; an exception fails it without ending
        the round."""
        self.tracer.op = op
        t = time.perf_counter()
        try:
            return fn(*args)
        except Exception as exc:    # an operation that raises is a failed operation
            self.fail(op, f"{type(exc).__name__}: {exc}")
            return None
        finally:
            self.wall_s += time.perf_counter() - t
            self.tracer.op = -1


class Hooks:
    """Result hooks on the wrapped functions: counts the gates and metrics need.

    They run in traced and untraced rounds alike and read no clock.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self.records: dict[tuple[int, int], int] = {}
        self.engine_records = 0
        self.max_records = 0
        self.degraded: dict[tuple[int, str], int] = {}
        self.corr_boundary_mass = 0.0
        self.csv_rows = 0
        self.csv_bytes = 0

    def install(self) -> None:
        t = self.tracer
        t.wrap("brw2.simulate", "run", self._on_run)
        for name in ("first_moment_field", "second_moment_field",
                     "first_moment_ode_oracle", "second_moment_ode_oracle"):
            t.wrap("brw2.moments", name, self._on_fields(f"moments.{name}"))
        t.wrap("brw2.epidemic", "epidemic_m2", self._on_fields("epidemic.epidemic_m2"))
        t.wrap("brw2.epidemic", "correlation_ode", self._on_corr)
        if not t.timed:
            return
        for module, names in (
                ("brw2.simulate", ("snapshot", "map_replicas")),
                ("brw2.clusters", ("survival_curve", "conditional_mean_curve",
                                   "occupied_sites_1d", "cluster_stats_1d")),
                ("brw2.cli", ("command_simulate", "command_clusters",
                              "command_moments", "command_epidemic")),
                ("brw2.csvio", ("write_manifest",)),
                ("brw2.epidemic", ("epidemic_first_moment_profiles",)),
                ("brw2.config", ("preset", "parse_config"))):
            for name in names:
                t.wrap(module, name)
        t.wrap("brw2.csvio", "write_csv", self._on_write_csv)

    def _on_run(self, sim, args, kwargs):
        n = sim.n_records
        self.records[(sim.seed, sim.replica_id)] = n
        self.engine_records += n
        self.max_records = max(self.max_records, n)

    def _on_fields(self, name):
        def hook(result, args, kwargs):
            for f in result if isinstance(result, list) else [result]:
                if f.degraded:
                    key = (self.tracer.op, name)
                    self.degraded[key] = self.degraded.get(key, 0) + 1
        return hook

    def _on_corr(self, result, args, kwargs):
        self._on_fields("epidemic.correlation_ode")(result, args, kwargs)
        for f in result if isinstance(result, list) else [result]:
            self.corr_boundary_mass = max(self.corr_boundary_mass, f.boundary_mass)

    def _on_write_csv(self, result, args, kwargs):
        self.csv_rows += len(args[2])
        self.csv_bytes += Path(args[0]).stat().st_size


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text().splitlines()
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


# ---------------------------------------------------------------------------
# mc-critical
# ---------------------------------------------------------------------------

class McCritical:
    """Monte Carlo gate traffic (A5/A6): survival and both conditional means."""

    name = "mc-critical"
    replicas = 1000
    times = (50.0, 100.0, 200.0)
    ops = ("survival_curve", "conditional_mean_curve j=1",
           "conditional_mean_curve j=2")
    # A round's distinct sojourn records are heavy-tailed in the seed (median 7,
    # mean ~510 per replica), so wall time is reported per this many records.
    nominal_records = 500_000
    nominal_replica_records = None
    seeded = True
    calibrated = True

    def setup(self):
        from brw2.branching import BranchingLaw, TwoTypeModel
        from brw2.lattice import simple_kernel, uniform_range_kernel
        law = BranchingLaw(mu1=0.25, mu2=0.375,
                           beta1={(2, 0): 0.125, (1, 1): 0.125},
                           beta2={(0, 2): 0.125, (1, 1): 0.25})
        return TwoTypeModel(simple_kernel(1), uniform_range_kernel(1, 3), 1.0, 4.0, law)

    def run(self, model, ctx: Context):
        from brw2 import clusters
        n, seed = self.replicas, ctx.seed
        surv = ctx.call(0, clusters.survival_curve, model, 1, self.times, n, seed)
        cond = [ctx.call(j, clusters.conditional_mean_curve, model, 1, j, self.times,
                         n, seed) for j in (1, 2)]
        return surv, cond

    def expected_calls(self) -> dict[str, int]:
        return {"simulate.run": 3 * self.replicas, "simulate.map_replicas": 3,
                "clusters.survival_curve": 1, "clusters.conditional_mean_curve": 2}

    def check(self, model, outputs, ctx: Context) -> dict:
        import numpy as np
        from brw2.moments import first_moment_symbols
        surv, cond = outputs
        res = {"records": sum(ctx.hooks.records.values())}
        if surv is None or None in cond:
            return res
        if len(ctx.hooks.records) != self.replicas or surv.n_replicas != self.replicas:
            for op in range(3):
                ctx.fail(op, f"{len(ctx.hooks.records)} of {self.replicas} replicas "
                             "completed")
        gate = {"n": surv.n_replicas, "ns": [], "sum": [], "sumsq": [], "theory": []}
        lines = []
        for row, t in enumerate(self.times):
            ns = surv.points[row].n_survivors
            gate["ns"].append(ns)
            sums, sumsqs = [], []
            for j, curve in zip((1, 2), cond):
                pt = curve.points[row]
                if pt.n_survivors != ns:
                    ctx.fail(j, f"t={t}: {pt.n_survivors} survivors vs {ns} in "
                                "survival_curve at the same seed")
                mean = pt.mean or 0.0
                sd = (pt.se or 0.0) * math.sqrt(ns)
                sums.append(ns * mean)
                sumsqs.append((ns - 1) * sd * sd + ns * mean * mean)
                lines.append(f"{t!r},{j},{ns},{pt.mean!r},{pt.se!r}")
            gate["sum"].append(sums)
            gate["sumsq"].append(sumsqs)
            sym = first_moment_symbols(model, t, np.zeros((1, 1)))
            gate["theory"].append([float(sym[0, 0, 0]), float(sym[0, 1, 0])])
        res["mc_gate"] = gate
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        res["hashes"] = {"curves": digest}
        return res


def mc_gate_z(gates: list[dict]) -> list[tuple[int, int, float]]:
    """Pooled z per (time row, type) for a run's ``mc_gate`` records.

    The estimate is p_hat * mean_c with p_hat = ns / n and mean_c the mean
    type-j count over survivors.  Its relative standard error comes from the
    survivor count (binomial) and the survivors' coefficient of variation;
    unlike the plain sample standard error of the counts it does not shrink
    when a sample misses the rare large lineages.  The test is on the log.
    """
    n = sum(g["n"] for g in gates)
    out = []
    for row in range(len(gates[0]["ns"])):
        ns = sum(g["ns"][row] for g in gates)
        for j in range(2):
            s = sum(g["sum"][row][j] for g in gates)
            s2 = sum(g["sumsq"][row][j] for g in gates)
            theory = gates[0]["theory"][row][j]
            if ns < 2 or s <= 0:
                out.append((row, j, math.inf))
                continue
            p, mean = ns / n, s / ns
            var = max((s2 - ns * mean * mean) / (ns - 1), 0.0)
            rse = math.sqrt((1 - p) / (n * p) + var / (mean * mean) / ns)
            out.append((row, j, (math.log(p * mean) - math.log(theory)) / rse))
    return out


# ---------------------------------------------------------------------------
# fig-z1-cli
# ---------------------------------------------------------------------------

class FigZ1Cli:
    """The fig-z1 reproduction pipeline: CLI simulate, then CLI clusters."""

    name = "fig-z1-cli"
    replicas = 1
    ops = ("brw2 simulate --preset fig-z1", "brw2 clusters --preset fig-z1")
    # History records per replica vary 40k-230k with the seed; wall time is
    # reported per this many records.
    nominal_records = 150_000
    # Peak memory grows with the largest replica's history (one row object
    # per record), so it is scaled to a replica of this many records.
    nominal_replica_records = 150_000
    seeded = True
    calibrated = True

    def setup(self):
        from brw2 import config
        cfg = config.preset("fig-z1")
        cfg.build_model()
        return cfg

    def run(self, cfg, ctx: Context):
        from brw2 import cli
        out = str(ctx.out_dir)
        common = ["--preset", "fig-z1", "--replicas", str(self.replicas),
                  "--seed", str(ctx.seed), "--out", out]
        for op, command in enumerate(("simulate", "clusters")):
            rc = ctx.call(op, cli.main, [command, *common])
            if rc != 0:
                ctx.fail(op, f"brw2 {command} exited with {rc}")
        return None

    def expected_calls(self) -> dict[str, int]:
        r, n_t = self.replicas, 6
        return {"simulate.run": 2 * r, "cli.command_simulate": 1,
                "cli.command_clusters": 1, "csvio.write_csv": r + 2,
                "csvio.write_manifest": 2, "simulate.snapshot": r * n_t,
                "clusters.occupied_sites_1d": r * n_t,
                "clusters.cluster_stats_1d": r * n_t, "config.preset": 3}

    def check(self, cfg, outputs, ctx: Context) -> dict:
        import json
        import numpy as np
        out = ctx.out_dir
        names = [f"history_{rid:04d}.csv" for rid in range(self.replicas)]
        names += ["snapshot.csv", "clusters.csv"]
        missing = [n for n in names if not (out / n).is_file()]
        if missing:
            ctx.fail(0, f"missing outputs {missing}")
            return {"records": 0}
        manifest = json.loads((out / "manifest.json").read_text())
        if manifest["failures"]:
            ctx.fail(1, f"replica failures {manifest['failures']}")
        _, snap = _read_csv(out / "snapshot.csv")
        records = 0
        for rid in range(self.replicas):
            key = (ctx.seed, rid)
            _, rows = _read_csv(out / f"history_{rid:04d}.csv")
            records += len(rows)
            if len(rows) != ctx.hooks.records.get(key, -1):
                ctx.fail(0, f"replica {rid}: {len(rows)} history rows vs "
                            f"{ctx.hooks.records.get(key)} simulated records")
                continue
            # Columns replica,record_id,parent_id,type,x1,t1,t2,fate; a fate
            # label may itself hold commas, so it is everything after t2.
            ids = np.array([int(r[1]) for r in rows])
            t1 = np.array([float(r[5]) for r in rows])
            t2 = np.array([float(r[6]) for r in rows])
            censored = np.array([r[7] == "censored" for r in rows])
            if not np.array_equal(ids, np.arange(len(rows))):
                ctx.fail(0, f"replica {rid}: record ids are not 0..n-1")
            for t in cfg.experiment.t_list:
                alive = int(((t1 <= t) & ((t < t2) | (censored & (t <= t2)))).sum())
                total = sum(int(r[-1]) for r in snap
                            if int(r[0]) == rid and float(r[1]) == t)
                if alive != total:
                    ctx.fail(0, f"replica {rid}, t={t}: snapshot total {total} vs "
                                f"{alive} alive records")
        if not _read_csv(out / "clusters.csv")[1]:
            ctx.fail(1, "clusters.csv has no rows")
        return {"records": records,
                "hashes": {n: _sha256(out / n) for n in names}}


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

class Fields:
    """Both moment routes at d=1 and d=2, then the epidemic pair correlations."""

    name = "fields"
    ops = ("brw2 moments d=1", "brw2 moments d=2", "brw2 epidemic --preset fig-z2")
    configs = (HERE / "configs" / "moments-d1.yaml", HERE / "configs" / "moments-d2.yaml")
    nominal_records = None    # deterministic: wall time is the round's own
    nominal_replica_records = None
    # Round times here do not follow the calibration loop (18.4 s at a loop
    # slow-down of 1.83, 20.1 s at 1.45), so they are reported unscaled.
    calibrated = False
    seeded = False            # no Monte Carlo; the workload seed is not used

    def setup(self):
        from brw2 import config
        for path in self.configs:
            config.parse_config(path.read_text()).build_model()
        config.preset("fig-z2").build_epidemic_law()
        return None

    def run(self, _state, ctx: Context):
        from brw2 import cli
        argvs = [["moments", "--config", str(path), "--out", str(ctx.out_dir / f"d{k + 1}")]
                 for k, path in enumerate(self.configs)]
        argvs.append(["epidemic", "--preset", "fig-z2", "--out", str(ctx.out_dir / "fz2")])
        for op, argv in enumerate(argvs):
            rc = ctx.call(op, cli.main, argv)
            if rc != 0:
                ctx.fail(op, f"brw2 {' '.join(argv[:3])} exited with {rc}")
        return None

    def expected_calls(self) -> dict[str, int]:
        n_t = 4 + 3          # snapshot times of the two moment configs
        return {"cli.command_moments": 2, "cli.command_epidemic": 1,
                "moments.first_moment_field": n_t, "moments.second_moment_field": n_t,
                "moments.first_moment_ode_oracle": 2,
                "moments.second_moment_ode_oracle": 2,
                "epidemic.epidemic_m2": 6, "epidemic.epidemic_first_moment_profiles": 6,
                "epidemic.correlation_ode": 1, "csvio.write_csv": 4,
                "csvio.write_manifest": 3}

    def check(self, _state, outputs, ctx: Context) -> dict:
        out = ctx.out_dir
        files = ["d1/moments.csv", "d2/moments.csv", "fz2/epidemic.csv", "fz2/corr.csv"]
        missing = [f for f in files if not (out / f).is_file()]
        if missing:
            for op in range(3):
                ctx.fail(op, f"missing outputs {missing}")
            return {"records": 0}
        res = {"parity_1_max": 0.0, "parity_2_max": 0.0, "records": 0}
        for op, name in enumerate(files[:2]):
            hdr, rows = _read_csv(out / name)
            res["records"] += len(rows)
            col = {h: k for k, h in enumerate(hdr)}
            p1 = max(float(r[col["parity_1"]]) for r in rows)
            p2 = max(float(r[col["parity_2"]]) for r in rows)
            bm = max(float(r[col["boundary_mass"]]) for r in rows)
            res["parity_1_max"] = max(res["parity_1_max"], p1)
            res["parity_2_max"] = max(res["parity_2_max"], p2)
            if p1 > PARITY_1_TOL or p2 > PARITY_2_TOL or bm > BOUNDARY_TOL:
                ctx.fail(op, f"{name}: parity_1 {p1:.3g} (<= {PARITY_1_TOL}), parity_2 "
                             f"{p2:.3g} (<= {PARITY_2_TOL}), boundary_mass {bm:.3g} "
                             f"(<= {BOUNDARY_TOL})")
        ehdr, erows = _read_csv(out / files[2])
        chdr, crows = _read_csv(out / files[3])
        res["records"] += len(erows) + len(crows)
        m2 = {float(r[0]): float(r[ehdr.index("M2_diag")]) for r in erows}
        r11 = {float(r[0]): float(r[chdr.index("R11")]) for r in crows
               if all(float(r[chdr.index(u)]) == 0.0 for u in ("u1", "u2"))}
        if sorted(m2) != sorted(r11):
            ctx.fail(2, f"epidemic.csv times {sorted(m2)} vs corr.csv {sorted(r11)}")
            return res
        worst = max(abs(m2[t] - r11[t]) / abs(r11[t]) for t in m2)
        res["m2_r11_rel_err"] = worst
        if worst > M2_R11_TOL:
            ctx.fail(2, f"M2_diag vs R11(u=0): relative gap {worst:.3g} > {M2_R11_TOL}")
        res["hashes"] = {f: _sha256(out / f) for f in files}
        return res


WORKLOADS = {w.name: w for w in (McCritical, FigZ1Cli, Fields)}
