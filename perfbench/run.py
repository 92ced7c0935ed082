#!/usr/bin/env python3
"""brw2 benchmark: run one workload and print its metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload mc-critical --seed 1 --seconds 20 --trace 0

Workloads are ``mc-critical``, ``fig-z1-cli`` and ``fields`` (see
perfbench/README.md).  Each round runs in a fresh interpreter
(perfbench/worker.py) against the checkout's ``src/``, single-process with
BRW2_THREADS=1 and one BLAS thread.  Rounds repeat, with seeds derived from
``--seed``, until the untraced rounds have run ``--seconds`` seconds.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` every round is also run traced
on the same inputs, the traced and untraced outputs must be byte-identical,
and the JSON holds the per-layer metrics.  Metric names and units come from
BENCHMARK.json.  The exit code is nonzero, with no JSON line, when the
checkout has no ``src/brw2`` or a round cannot run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from workloads import CAL_REF_S, MC_Z_MAX, WORKLOADS, mc_gate_z  # noqa: E402

RUN_BUDGET_S = 170.0         # a run must end within 180 s
MAX_ROUNDS = 64
SETUP_SAMPLES = 5
ROUND_SEED_STRIDE = 1 << 32  # round k of seed s uses seed s + k * stride


class RoundError(RuntimeError):
    pass


def run_worker(spec: dict, work: Path, deadline: float) -> dict:
    """Run one worker in a fresh interpreter and return its result."""
    result = work / f"result-{spec['round']}-{int(spec['trace'])}-{int(spec['setup_only'])}.json"
    spec = dict(spec, result=str(result), src=str(SRC))
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RoundError("run budget exhausted")
    env = dict(os.environ, PYTHONPATH=str(SRC), BRW2_THREADS="1", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
                            env=env, cwd=str(ROOT), stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True)
    try:
        log, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RoundError(f"round {spec['round']} exceeded the run budget")
    if proc.returncode != 0 or not result.is_file():
        raise RoundError(f"worker exited with {proc.returncode}:\n{log[-2000:]}")
    return json.loads(result.read_text())


def environment(versions: dict) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "brw2").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                                    capture_output=True, text=True, timeout=10,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "blas_threads": 1, "brw2_threads": 1,
            **versions, "commit": commit, "src_sha256": digest.hexdigest()[:16]}


def quantile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))] if ordered else 0.0


def speed(r: dict) -> float:
    """A worker's slow-down against the calibration reference speed."""
    return statistics.median(r["cal_samples"]) / CAL_REF_S


def end_to_end(workload, plain: list[dict], setups: list[dict]) -> dict:
    """End-to-end metrics.  Set-up times, and round times of a calibrated
    workload, are divided by their own worker's speed factor."""
    walls = [r["wall_s"] / (speed(r) if workload.calibrated else 1.0) for r in plain]
    records = max(sum(r["records"] for r in plain), 1)   # 0 only if every round failed
    if workload.nominal_records:
        wall_s = sum(walls) / records * workload.nominal_records
    else:
        wall_s = statistics.median(walls)
    rss = []
    for r in plain:
        grown = r["peak_rss_mb"] - r["setup_rss_mb"]
        if workload.nominal_replica_records:
            grown *= workload.nominal_replica_records / r["max_records"]
        rss.append(r["setup_rss_mb"] + grown)
    return {"wall_s": wall_s,
            "setup_s": statistics.median(r["setup_s"] / speed(r) for r in setups),
            "peak_rss_mb": statistics.median(rss), "records_per_s": records / sum(walls)}


def per_layer(plain: list[dict], traced: list[dict]) -> dict:
    """Per-layer metrics from the traced rounds; times in raw wall seconds."""
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for r in traced:
        for name, v in r["self_s"].items():
            self_s[name] = self_s.get(name, 0.0) + v
        for name, v in r["calls"].items():
            calls[name] = calls.get(name, 0) + v
    s = lambda name: self_s.get(name, 0.0)   # noqa: E731
    durations = [d for r in traced for d in r["run_durations"]]
    engine = sum(r["engine_records"] for r in traced)
    csv_bytes = sum(r["csv_bytes"] for r in traced)
    traced_wall = sum(r["wall_s"] for r in traced)
    m = {
        "simulate.run.calls": calls.get("simulate.run", 0),
        "simulate.run.self_s": s("simulate.run"),
        "simulate.run.records": engine,
        "simulate.run.max_records": max(r["max_records"] for r in traced),
        "simulate.run.p50_s": quantile(durations, 0.50),
        "simulate.run.p99_s": quantile(durations, 0.99),
        "simulate.records_per_busy_s": engine / sum(durations) if durations else 0.0,
        "simulate.snapshot.self_s": s("simulate.snapshot"),
        "simulate.map_replicas.self_s": s("simulate.map_replicas"),
        "simulate.event_cap_failures": sum(r["run_errors"] for r in traced),
        "clusters.survival_curve.self_s": s("clusters.survival_curve"),
        "clusters.conditional_mean_curve.self_s": s("clusters.conditional_mean_curve"),
        "clusters.sweeps": calls.get("simulate.map_replicas", 0),
        "clusters.replica_reuse": (sum(r["distinct_replicas"] for r in traced) / len(durations)
                                   if durations else 0.0),
        "clusters.occupied_sites_1d.self_s": s("clusters.occupied_sites_1d"),
        "clusters.cluster_stats_1d.self_s": s("clusters.cluster_stats_1d"),
    }
    for cmd in ("simulate", "clusters", "moments", "epidemic"):
        m[f"cli.command_{cmd}.self_s"] = s(f"cli.command_{cmd}")
    m.update({
        "csvio.write_csv.calls": calls.get("csvio.write_csv", 0),
        "csvio.write_csv.self_s": s("csvio.write_csv"),
        "csvio.write_csv.rows": sum(r["csv_rows"] for r in traced),
        "csvio.write_csv.bytes": csv_bytes,
        "csvio.write_csv.mb_per_s": (csv_bytes / 1e6 / s("csvio.write_csv")
                                     if s("csvio.write_csv") else 0.0),
        "csvio.write_manifest.self_s": s("csvio.write_manifest"),
    })
    for fn in ("first_moment_field", "second_moment_field", "first_moment_ode_oracle",
               "second_moment_ode_oracle"):
        m[f"moments.{fn}.calls"] = calls.get(f"moments.{fn}", 0)
        m[f"moments.{fn}.self_s"] = s(f"moments.{fn}")
    oracle = s("moments.second_moment_ode_oracle")
    m.update({
        "moments.m2_fast_over_oracle": s("moments.second_moment_field") / oracle
        if oracle else 0.0,
        "moments.parity_1_max": max(r.get("parity_1_max", 0.0) for r in traced),
        "moments.parity_2_max": max(r.get("parity_2_max", 0.0) for r in traced),
        "moments.degraded_fields": sum(r["degraded_fields"]["moments"] for r in traced),
    })
    for fn in ("correlation_ode", "epidemic_m2", "epidemic_first_moment_profiles"):
        m[f"epidemic.{fn}.calls"] = calls.get(f"epidemic.{fn}", 0)
        m[f"epidemic.{fn}.self_s"] = s(f"epidemic.{fn}")
    m.update({
        "epidemic.m2_r11_rel_err": max(r.get("m2_r11_rel_err", 0.0) for r in traced),
        "epidemic.degraded_fields": sum(r["degraded_fields"]["epidemic"] for r in traced),
        "epidemic.corr_boundary_mass": max(r["corr_boundary_mass"] for r in traced),
        "setup.import_s": statistics.median(r["import_s"] / speed(r) for r in plain),
        "config.preset.self_s": s("config.preset"),
        "config.parse_config.self_s": s("config.parse_config"),
        "trace.coverage": sum(r["round_self_s"] for r in traced) / traced_wall,
        "trace.overhead_s": traced_wall - sum(r["wall_s"] for r in plain),
    })
    return m


def judge(workload, plain: list[dict], traced: list[dict]):
    """Failed operations and error messages of a run.

    Returns ``(errors, failed, attempted)`` where ``errors`` maps a message
    to ``(wrong_output, count)``.  Operations are counted on the untraced
    rounds; a traced round runs the same operations again and must write
    byte-identical outputs.
    """
    errors: dict[str, tuple[bool, int]] = {}

    def report(msg, wrong=True):
        was_wrong, n = errors.get(msg, (False, 0))
        errors[msg] = (was_wrong or wrong, n + 1)

    failed = set()
    for k, r in enumerate(plain):
        for op, msg, wrong in r["failures"]:
            failed.add((k, op))
            report(f"{workload.ops[op]}: {msg}", wrong)
    for k, (p, t) in enumerate(zip(plain, traced)):
        for msg in t["trace_errors"]:
            report(f"trace self-check: {msg}")
        if p.get("hashes") != t.get("hashes"):
            report(f"round {k}: traced and untraced outputs differ")
    gates = [r.get("mc_gate") for r in plain]
    if gates[0] is not None and None not in gates:
        for row, j, z in mc_gate_z(gates):
            if not abs(z) <= MC_Z_MAX:
                report(f"t={workload.times[row]}, j={j + 1}: p_hat*E[N_j | survival] is "
                       f"{z:.2f} standard errors from the first-moment symbol")
                failed.update((k, op) for k in range(len(plain)) for op in (0, j + 1))
    return errors, len(failed), sum(r["ops"] for r in plain)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "brw2" / "__init__.py").is_file():
        print(f"no brw2 package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("--seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    declared = {m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]}
    workload = WORKLOADS[args.workload]()
    deadline = time.monotonic() + RUN_BUDGET_S
    work = ROOT / ".perfbench" / f"run-{os.getpid()}"
    traces = ROOT / ".perfbench" / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    work.mkdir(parents=True)
    try:
        plain, traced, setups = [], [], []
        for k in range(MAX_ROUNDS):
            spec = {"workload": workload.name, "round": k, "setup_only": False,
                    "seed": args.seed + k * ROUND_SEED_STRIDE, "out": str(work / f"out-{k}")}
            plain.append(run_worker(dict(spec, trace=False), work, deadline))
            setups.append(plain[-1])
            if args.trace:
                trace_file = traces / f"{workload.name}-seed{args.seed}-round{k}.json"
                traced.append(run_worker(dict(spec, trace=True, trace_file=str(trace_file)),
                                         work, deadline))
            if sum(r["wall_s"] for r in plain) >= args.seconds:
                break
        while len(setups) < SETUP_SAMPLES:
            spec = {"workload": workload.name, "round": len(setups), "setup_only": True,
                    "seed": args.seed, "trace": False}
            setups.append(run_worker(spec, work, deadline))
    except RoundError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    errors, failed_ops, attempted = judge(workload, plain, traced)
    print("env " + json.dumps(environment(plain[0]["versions"]), sort_keys=True))
    print(f"workload {workload.name}: seed {args.seed}"
          f"{'' if workload.seeded else ' (ignored: the workload is deterministic)'}, "
          f"{len(plain)} round(s), {sum(r['wall_s'] for r in plain):.2f} s measured, "
          f"machine speed factor {statistics.median(speed(r) for r in setups):.3f}")
    e2e = end_to_end(workload, plain, setups)
    metrics = per_layer(plain, traced) if args.trace else e2e
    if set(metrics) != declared:
        print(f"metrics {sorted(set(metrics) ^ declared)} do not match BENCHMARK.json",
              file=sys.stderr)
        return 1
    for name, value in e2e.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"fail_frac = {failed_ops / attempted:.6g} ({failed_ops} of {attempted} "
          "operations failed)")
    for msg, (wrong, n) in errors.items():
        kind = "FAIL" if wrong else "FAIL (outputs still checked)"
        print(f"{kind} {msg}" + (f" [x{n}]" if n > 1 else ""))
    if args.trace:
        for name, value in metrics.items():
            print(f"{name} = {value:.6g} {units[name]}")
        print(f"spans written to {traces.relative_to(ROOT)}/")
    print(json.dumps({"correct": not any(wrong for wrong, _ in errors.values()),
                      "attempted": attempted, "failed": failed_ops,
                      "metrics": {n: {"value": v, "unit": units[n]}
                                  for n, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
