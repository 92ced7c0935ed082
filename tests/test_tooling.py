"""The repository's tooling against the package: the benchmark's wrapped
names, hooks and rounds."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from numpy.polynomial.legendre import leggauss

import brw2.cli  # noqa: F401  (the benchmark wraps names after this import)
import brw2.moments
import brw2.simulate
from brw2.config import preset
from brw2.epidemic import correlation_ode, epidemic_m2

ROOT = Path(__file__).resolve().parents[1]


def _load(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class RecordingTracer:
    """Stands in for the benchmark's tracer: records what it is asked to wrap."""

    timed = True
    op = -1

    def __init__(self):
        self.wrapped = {}

    def wrap(self, module_name, func_name, hook=None):
        self.wrapped[(module_name, func_name)] = hook


@pytest.fixture(scope="module")
def workloads():
    return _load(ROOT / "perfbench" / "workloads.py")


def test_cli_and_oracle_leave_scipy_integrate_unloaded():
    # every CLI run and benchmark worker pays for what ``import brw2.cli``
    # loads; the oracles' own stepper keeps scipy.integrate out of it
    code = ("import sys\n"
            "import brw2.cli\n"
            "from brw2.config import preset\n"
            "from brw2.moments import second_moment_ode_oracle\n"
            "second_moment_ode_oracle(preset('fig-z2').build_model(), [0.5, 1.0], 2)\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy.integrate')))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_benchmark_setups_run(workloads):
    for workload in workloads.WORKLOADS.values():
        workload().setup()


def test_benchmark_wraps_names_that_exist(workloads):
    # the benchmark's tracer looks each name up in every round, so a
    # renamed route would fail every round of its workload
    tracer = RecordingTracer()
    workloads.Hooks(tracer).install()
    assert ("brw2.epidemic", "correlation_ode") in tracer.wrapped
    for module_name, func_name in tracer.wrapped:
        assert callable(getattr(importlib.import_module(module_name), func_name, None)), \
            f"{module_name}.{func_name}"


def test_benchmark_hooks_read_the_epidemic_results(workloads):
    # the field hooks read ``degraded``, the pair hook also ``boundary_mass``
    tracer = RecordingTracer()
    hooks = workloads.Hooks(tracer)
    hooks.install()
    model = preset("fig-z2").build_model()
    for name, result in (("epidemic_m2", epidemic_m2(model, 0.5, (0, 0), (0, 0))),
                         ("correlation_ode", correlation_ode(model, [0.5], 2))):
        tracer.wrapped[("brw2.epidemic", name)](result, (), {})
    assert hooks.degraded == {}
    assert 0.0 < hooks.corr_boundary_mass < 1e-6


def test_fields_round_passes_its_gates_on_the_fitted_grids(workloads, tmp_path,
                                                            monkeypatch):
    # the benchmark's fields round in-process, with its argv and its gates:
    # a degraded field fails its operation, so no CSV row may be degraded,
    # and the grids the three commands fit and the round's quadrature node
    # count (19 integrals at 16 nodes, one more rule of 32) are pinned
    nodes = []
    monkeypatch.setattr(brw2.moments, "leggauss",
                        lambda n: nodes.append(n) or leggauss(n))
    fields, tracer = workloads.Fields(), RecordingTracer()
    ctx = workloads.Context(0, tmp_path, tracer, workloads.Hooks(tracer))
    fields.check(None, fields.run(fields.setup(), ctx), ctx)
    assert ctx.failures == []
    assert sum(nodes) == 336
    grids = []
    for run in ("d1", "d2", "fz2"):
        manifest = json.loads((tmp_path / run / "manifest.json").read_text())
        grids.append(manifest["theta_grid"]["nodes_per_axis"])
        for path in sorted((tmp_path / run).glob("*.csv")):
            header, *rows = path.read_text().splitlines()
            col = header.split(",").index("degraded")
            assert all(row.split(",")[col] == "0" for row in rows), path
    assert grids == [120, 60, 72]


def test_fig_z1_round_passes_its_gates(workloads, tmp_path):
    # the benchmark's fig-z1-cli round in-process under its real untimed
    # tracer, so the gates on the history CSV (rows = simulated records,
    # record ids 0..n-1, snapshot totals = alive records) run here too
    tracer = _load(ROOT / "perfbench" / "tracer.py").Tracer(timed=False)
    hooks = workloads.Hooks(tracer)
    fig, seed = workloads.FigZ1Cli(), 1
    ctx = workloads.Context(seed, tmp_path, tracer, hooks)
    cfg = fig.setup()
    try:
        hooks.install()
        outputs = fig.run(cfg, ctx)
    finally:
        tracer.uninstall()
    assert not hasattr(brw2.simulate.run, "__wrapped__")
    res = fig.check(cfg, outputs, ctx)
    assert ctx.failures == []
    # both commands simulated the replica, and the history has its records
    assert hooks.engine_records == 2 * hooks.records[(seed, 0)]
    assert res["records"] == hooks.records[(seed, 0)] > 100_000
