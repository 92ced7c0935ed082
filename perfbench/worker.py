"""One benchmark round in a fresh interpreter.

Usage: python3 perfbench/worker.py '<json spec>'

The spec names the workload, the round seed, the source tree, the output
and result paths, and whether to trace.  Set-up time runs from just before
``import brw2.cli`` to the end of the workload's config/model build.  The
timed round follows; gates and hashing run after the clock stops.  The
result is written as JSON to the spec's ``result`` path.
"""

import json
import resource
import shutil
import sys
import time
from pathlib import Path

from tracer import Tracer
from workloads import Context, Hooks, WORKLOADS, calibrate


def main() -> int:
    spec = json.loads(sys.argv[1])
    workload = WORKLOADS[spec["workload"]]()
    cal_samples = calibrate()
    t0 = time.perf_counter()
    import brw2.cli  # noqa: F401  (the package import is part of set-up)
    import_s = time.perf_counter() - t0
    src = Path(spec["src"]).resolve()
    if src not in Path(brw2.cli.__file__).resolve().parents:
        print(f"brw2 was imported from {brw2.cli.__file__}, not from {src}",
              file=sys.stderr)
        return 3
    tracer = Tracer(timed=spec["trace"])
    hooks = Hooks(tracer)
    hooks.install()
    state = workload.setup()
    setup_s = time.perf_counter() - t0
    result = {"import_s": import_s, "setup_s": setup_s}
    if spec["setup_only"]:
        result["cal_samples"] = cal_samples + calibrate()
        Path(spec["result"]).write_text(json.dumps(result))
        return 0

    out = Path(spec["out"])
    setup_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ctx = Context(spec["seed"], out, tracer, hooks)
    outputs = workload.run(state, ctx)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tracer.uninstall()
    cal_samples += calibrate()

    checked = workload.check(state, outputs, ctx)
    for (op, name), n in hooks.degraded.items():
        ctx.fail(op, f"{name} returned {n} degraded field(s)", wrong_output=False)
    import numpy
    import scipy
    result.update(checked)
    result.update({
        "wall_s": ctx.wall_s, "cal_samples": cal_samples,
        "setup_rss_mb": setup_rss_mb,
        "peak_rss_mb": peak_rss_mb, "ops": len(workload.ops),
        "failures": [list(f) for f in ctx.failures],
        "distinct_replicas": len(hooks.records), "engine_records": hooks.engine_records,
        "max_records": hooks.max_records,
        "degraded_fields": {layer: sum(n for (_, name), n in hooks.degraded.items()
                                       if name.startswith(layer + "."))
                            for layer in ("moments", "epidemic")},
        "corr_boundary_mass": hooks.corr_boundary_mass,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    })
    if tracer.timed:
        run_spans = [s for s in tracer.spans if s[0] == "simulate.run"]
        result.update({
            "self_s": tracer.self_times(),
            "round_self_s": sum(tracer.self_times(lambda s: s[4] >= 0).values()),
            "calls": {name: tracer.calls(name) for name in tracer.bindings},
            "run_durations": [s[2] - s[1] for s in run_spans],
            "run_errors": sum(1 for s in run_spans if s[5] == "EventCapExceeded"),
            "csv_rows": hooks.csv_rows, "csv_bytes": hooks.csv_bytes,
            "trace_errors": [
                f"{name}: {tracer.calls(name)} spans, expected {n}"
                for name, n in workload.expected_calls().items()
                if tracer.calls(name) != n],
        })
        tracer.dump(spec["trace_file"])
    shutil.rmtree(out, ignore_errors=True)
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
