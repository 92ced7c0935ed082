import csv
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from brw2 import cli, simulate
from brw2.branching import derive_constants
from brw2.cli import main
from brw2.config import (PRESET_NAMES, ConfigError, config_hash, parse_config, preset,
                         serialize_config)
from brw2.moments import BOUNDARY_TOL
from brw2.simulate import run, snapshot

MINIMAL = """
model:
  dim: 1
  kernel1: [[[1], 0.5], [[-1], 0.5]]
"""

CRITICAL_1D = """
model:
  dim: 1
  kappa1: 1.0
  kappa2: 4.0
  kernel1: [[[1], 0.5], [[-1], 0.5]]
  kernel2: [[[1], 0.166666666667], [[-1], 0.166666666667],
            [[2], 0.166666666667], [[-2], 0.166666666667],
            [[3], 0.166666666667], [[-3], 0.166666666667]]
  law:
    mu1: 0.25
    mu2: 0.375
    beta1: [[2, 0, 0.125], [1, 1, 0.125]]
    beta2: [[0, 2, 0.125], [1, 1, 0.25]]
experiment:
  t_list: [1.0, 2.0]
  replicas: 2
  seed: 7
"""


class TestParsing:
    def test_minimal_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.dim == 1 and cfg.kappa1 == 1.0 and cfg.kappa2 == 1.0
        assert cfg.kernel2 == cfg.kernel1
        assert cfg.experiment.replicas == 1
        assert cfg.experiment.t_list == (1.0,)
        assert cfg.initial_or_default() == ((1, (0,)),)

    def test_unknown_key_rejected_with_path(self):
        with pytest.raises(ConfigError, match=r"model\.frobnicate"):
            parse_config(MINIMAL + "  frobnicate: 1\n")

    def test_asymmetric_kernel_names_vector(self):
        bad = """
model:
  dim: 1
  kernel1: [[[1], 0.6], [[-1], 0.4]]
"""
        with pytest.raises(ConfigError, match="not symmetric at displacement"):
            parse_config(bad)

    def test_low_offspring_pair_rejected(self):
        bad = MINIMAL + """  law:
    beta1: [[0, 1, 0.5]]
"""
        with pytest.raises(ConfigError, match="k\\+l < 2"):
            parse_config(bad)

    def test_horizon_below_t_list_rejected(self):
        bad = MINIMAL + """experiment:
  horizon: 0.5
  t_list: [1.0]
"""
        with pytest.raises(ConfigError, match="horizon"):
            parse_config(bad)

    def test_syntax_error_carries_location(self):
        with pytest.raises(ConfigError, match="YAML error"):
            parse_config("model: [unclosed")

    def test_round_trip(self):
        cfg = parse_config(CRITICAL_1D)
        assert parse_config(serialize_config(cfg)) == cfg
        assert config_hash(cfg) == config_hash(parse_config(serialize_config(cfg)))

    def test_presets_equal_their_serialized_round_trip(self):
        # the presets build their documents without YAML; parsing their
        # serialization must give the same config and the same hash
        for name in PRESET_NAMES:
            cfg = preset(name)
            again = parse_config(serialize_config(cfg))
            assert again == cfg
            assert config_hash(again) == config_hash(cfg)

    def test_equal_configs_hash_equal(self):
        a, b = parse_config(CRITICAL_1D), parse_config(CRITICAL_1D)
        assert a == b and a is not b
        assert config_hash(a) == config_hash(b)
        assert config_hash(a.with_overrides(seed=a.experiment.seed)) == config_hash(a)
        assert config_hash(a.with_overrides(seed=a.experiment.seed + 1)) != config_hash(a)
        assert config_hash(preset("fig-z2")) == config_hash(preset("fig-z2"))

    def test_non_finite_number_rejected(self):
        bad = MINIMAL + """experiment:
  horizon: .inf
"""
        with pytest.raises(ConfigError, match="experiment.horizon: expected a finite"):
            parse_config(bad)
        for t in (float("inf"), float("nan")):   # --t values arrive as floats, not YAML
            with pytest.raises(ConfigError, match=r"experiment\.t_list\[1\]: expected a finite"):
                parse_config(MINIMAL).with_overrides(t_list=[1.0, t])

    def test_presets_round_trip_and_parameters(self):
        z1 = preset("fig-z1")
        assert parse_config(serialize_config(z1)) == z1
        assert len(z1.experiment.initial) == 300
        assert z1.kappa2 == 4.0
        z2 = preset("fig-z2")
        assert z2.dim == 2 and len(z2.experiment.initial) == 200
        law = z2.build_epidemic_law()
        assert derive_constants(law).r1 == 0.0 and law.conversion_rate == 0.45
        assert len(z2.experiment.t_list) == 6 and len(z1.experiment.t_list) == 6
        with pytest.raises(ConfigError, match="unknown preset"):
            preset("fig-z9")

    def test_epidemic_law_requires_type1_only(self):
        cfg = parse_config(CRITICAL_1D)
        with pytest.raises(ConfigError, match="beta2"):
            cfg.build_epidemic_law()
        mixed = replace(cfg, law=replace(cfg.law, beta2=()))    # beta1 keeps (1, 1)
        with pytest.raises(ConfigError, match=r"model\.law\.beta1.*\(1,1\)"):
            mixed.build_epidemic_law()

    def test_epidemic_law_is_the_branching_law(self):
        # what the epidemic command runs is the config's own law and model
        z2 = preset("fig-z2")
        law = z2.build_epidemic_law()
        assert law == z2.build_law() == z2.build_model().law
        assert law.beta1 == ((2, 0, 0.5),) and law.beta2 == ()
        assert law.conversion_rate == 0.45

    def test_fig_z2_epidemic_constants(self):
        # A = beta - mu1 - r = 0, b = r, c = 0, r2 = -mu2, and
        # sum n (n - 1) b_n = 1 ordered infected pairs per unit rate
        dc = preset("fig-z2").build_model().derived
        assert dc.r1 == 0.0 and dc.b == 0.45 and dc.c == 0.0 and dc.r2 == 0.0
        assert dc.factorial_density[0, 0, 0] == 1.0
        assert not dc.factorial_density[0, 1].any() and not dc.factorial_density[1].any()

    def test_with_overrides_rejects_unknown_keys(self):
        cfg = preset("fig-z1")
        for bad in ({"replica": 9}, {"event_cap": 5}):
            with pytest.raises(TypeError):
                cfg.with_overrides(**bad)
        assert cfg.with_overrides(replicas=None) == cfg
        assert cfg.with_overrides(replicas=9).experiment.replicas == 9

    def test_model_builds(self):
        model = parse_config(CRITICAL_1D).build_model()
        assert model.derived.perron_root == pytest.approx(0.0, abs=1e-12)


class TestCli:
    def _run(self, argv):
        return main(argv)

    def test_simulate_outputs_and_library_agreement(self, tmp_path):
        out = tmp_path / "sim"
        rc = self._run(["simulate", "--preset", "fig-z1", "--replicas", "2",
                        "--seed", "7", "--t", "1,2", "--out", str(out)])
        assert rc == 0
        assert (out / "history_0000.csv").exists()
        assert (out / "history_0001.csv").exists()
        assert (out / "manifest.json").exists()
        snap_lines = (out / "snapshot.csv").read_text().strip().splitlines()
        assert snap_lines[0] == "replica,t,type,x1,count"
        # replica 0 snapshot rows must equal the library's snapshot
        cfg = preset("fig-z1").with_overrides(t_list=[1.0, 2.0])
        sim = run(cfg.build_model(), 2.0, cfg.experiment.initial, 7, replica_id=0)
        expect = snapshot(sim, 1.0)
        got = {}
        for line in snap_lines[1:]:
            rid, t, ptype, x, cnt = line.split(",")
            if rid == "0" and float(t) == 1.0:
                got[(int(ptype), (int(x),))] = int(cnt)
        assert got == expect

    def test_history_csv_is_rfc4180(self, tmp_path):
        # fate labels such as branched(2,0) hold commas and must be quoted
        out = tmp_path / "sim"
        rc = self._run(["simulate", "--preset", "fig-z1", "--replicas", "1",
                        "--seed", "7", "--t", "5", "--out", str(out)])
        assert rc == 0
        with open(out / "history_0000.csv", newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert header[-1] == "fate"
        assert {len(row) for row in rows} == {len(header)}
        assert any(row[-1].startswith("branched(") for row in rows)

    def test_simulate_determinism_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            rc = self._run(["simulate", "--preset", "fig-z1", "--replicas", "1",
                            "--seed", "3", "--t", "1", "--out", str(out)])
            assert rc == 0
        assert (a / "history_0000.csv").read_bytes() == (b / "history_0000.csv").read_bytes()
        assert (a / "snapshot.csv").read_bytes() == (b / "snapshot.csv").read_bytes()

    def test_moments_command(self, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(CRITICAL_1D.replace("kappa2: 4.0", "kappa2: 1.0")
                       + "  box_radius: 10\n")
        out = tmp_path / "mom"
        rc = self._run(["moments", "--config", str(cfg), "--out", str(out),
                        "--t", "1"])
        assert rc == 0
        lines = (out / "moments.csv").read_text().strip().splitlines()
        assert lines[0].startswith("t,x1,m11_1,m12_1,m21_1,m22_1,m11_2")
        # the trust columns come last, so readers of the older columns still work
        assert lines[0].endswith(",m22_2,boundary_mass,parity_1,parity_2,"
                                 "converged,degraded")
        assert len(lines) == 1 + 21   # box radius 10 -> 21 sites
        col = {h: k for k, h in enumerate(lines[0].split(","))}
        for line in lines[1:]:
            row = line.split(",")
            assert float(row[col["parity_1"]]) < 1e-5   # parity column stays tiny
            assert row[col["converged"]] == "1"
            # box 10 is tight for the range-3 type-2 walk: its boundary mass
            # flags every time
            flagged = float(row[col["boundary_mass"]]) > BOUNDARY_TOL
            assert flagged and row[col["degraded"]] == "1"

    def test_epidemic_command(self, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("""
model:
  dim: 1
  kernel1: [[[1], 0.5], [[-1], 0.5]]
  law:
    mu1: 0.05
    conversion_rate: 0.2
    beta1: [[2, 0, 0.5]]
experiment:
  t_list: [1.0]
  box_radius: 12
  corr_box_radius: 6
""")
        out = tmp_path / "epi"
        rc = self._run(["epidemic", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        epi = (out / "epidemic.csv").read_text().strip().splitlines()
        assert epi[0] == "t,x1,R1,R2,M2_diag,ratio,boundary_mass,degraded"
        corr = (out / "corr.csv").read_text().strip().splitlines()
        assert corr[0] == "t,u1,R11,R12,R22,boundary_mass,degraded"
        assert len(corr) == 1 + 13

    def test_clusters_command_1d(self, tmp_path):
        out = tmp_path / "clu"
        rc = self._run(["clusters", "--preset", "fig-z1", "--replicas", "2",
                        "--seed", "5", "--t", "5,10", "--out", str(out)])
        assert rc == 0
        lines = (out / "clusters.csv").read_text().strip().splitlines()
        assert lines[0] == "replica,t,kind,length"
        rows = [line.split(",") for line in lines[1:]]
        kinds = {row[2] for row in rows}
        assert "cluster" in kinds and "boundary" in kinds
        # one boundary row per (replica, t), measured on the initial block 0..299
        boundary = [(row[0], float(row[1])) for row in rows if row[2] == "boundary"]
        assert sorted(boundary) == [(r, t) for r in ("0", "1") for t in (5.0, 10.0)]
        # clusters, gaps and boundary tile the window at every (replica, t)
        for key in boundary:
            assert sum(int(row[3]) for row in rows
                       if (row[0], float(row[1])) == key) == 300

    def test_clusters_d2_refuses_times_up_to_1_before_simulating(
            self, tmp_path, capsys, monkeypatch):
        # fig-z2 has t = 0.5 and 1.0, where nu = log t <= 0
        monkeypatch.setenv("BRW2_THREADS", "1")
        calls = []
        real_run = simulate.run
        monkeypatch.setattr(simulate, "run",
                            lambda *a, **k: calls.append(1) or real_run(*a, **k))
        out = tmp_path / "clu"
        rc = self._run(["clusters", "--preset", "fig-z2", "--out", str(out)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "config" and err["path"] == "experiment.t_list"
        assert not (out / "cells.csv").exists()
        assert calls == []

    def test_epidemic_refuses_pair_window_past_a_quarter_torus(self, tmp_path, capsys):
        # fig-z2 has corr box 10, more than 16 / 4
        out = tmp_path / "epi"
        rc = self._run(["epidemic", "--preset", "fig-z2", "--grid", "16",
                        "--out", str(out)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "config" and err["path"] == "experiment.corr_box_radius"
        assert not out.exists()

    @pytest.mark.parametrize("argv, work", [
        # d = 1 takes 256 theta nodes per axis and d = 2 takes 128; a
        # window of exactly a quarter of them is allowed
        (["moments", "--config", "perfbench/configs/moments-d1.yaml", "--box", "65"],
         ("first_moment_ode_oracle", "second_moment_ode_oracle",
          "first_moment_field", "second_moment_field")),
        (["epidemic", "--preset", "fig-z2", "--box", "33"],
         ("epidemic_first_moment_profiles", "epidemic_m2", "correlation_ode")),
    ])
    def test_box_past_a_quarter_grid_is_refused_before_any_work(
            self, argv, work, tmp_path, capsys, monkeypatch):
        calls = []
        for name in work:
            monkeypatch.setattr(cli, name, lambda *a, name=name, **k: calls.append(name))
        argv = [str(Path(__file__).parents[1] / a) if a.endswith(".yaml") else a
                for a in argv]
        out = tmp_path / "out"
        rc = self._run([*argv, "--out", str(out)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "config" and err["path"] == "experiment.box_radius"
        assert not out.exists()
        assert calls == []

    def test_non_finite_time_flag_exits_before_any_output(self, tmp_path, capsys):
        out = tmp_path / "epi"
        rc = self._run(["epidemic", "--preset", "fig-z2", "--t", "1,inf",
                        "--out", str(out)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "config" and err["path"] == "experiment.t_list[1]"
        assert not out.exists()

    def test_config_error_exit_code_and_json(self, tmp_path, capsys):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text("model:\n  dim: 1\n")   # kernel1 missing
        rc = self._run(["simulate", "--config", str(cfg)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "config"
        assert "kernel1" in err["path"]

    def test_flag_exclusivity(self, capsys):
        assert self._run(["simulate"]) == 2
        assert self._run(["moments", "--preset", "fig-z1", "--config", "x.yaml"]) == 2
