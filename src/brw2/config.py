"""Run configuration: YAML ingestion, validation, and figure presets.

A config has two blocks.  ``model`` fixes the lattice dimension, one
(kernel, kappa) pair per type and the branching law; ``experiment`` holds
command-specific knobs (horizon, snapshot times, replica count, seed, box
radius, grid nodes, output directory, initial configuration).  Parsing is
strict: unknown keys are rejected and every diagnostic names the key path
and the violated rule, so a config that parses is a config that runs.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from typing import Any

import yaml

from .branching import BranchingLaw, LawError, TwoTypeModel
from .lattice import JumpKernel, KernelError, ThetaGrid

__all__ = [
    "ConfigError",
    "LawConfig",
    "ExperimentConfig",
    "RunConfig",
    "parse_config",
    "serialize_config",
    "config_hash",
    "preset",
    "PRESET_NAMES",
]


class ConfigError(ValueError):
    """Config syntax or semantic violation; message carries the key path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


@dataclass(frozen=True)
class LawConfig:
    mu1: float = 0.0
    mu2: float = 0.0
    conversion_rate: float = 0.0
    beta1: tuple[tuple[int, int, float], ...] = ()
    beta2: tuple[tuple[int, int, float], ...] = ()


@dataclass(frozen=True)
class ExperimentConfig:
    horizon: float = 1.0
    t_list: tuple[float, ...] = (1.0,)
    replicas: int = 1
    seed: int = 0
    box_radius: int = 30
    corr_box_radius: int = 10
    grid_nodes: int | None = None
    out_dir: str = "out"
    initial: tuple[tuple[int, tuple[int, ...]], ...] = ()
    event_cap: int = 10_000_000


@dataclass(frozen=True)
class RunConfig:
    dim: int
    kappa1: float
    kappa2: float
    kernel1: tuple[tuple[tuple[int, ...], float], ...]
    kernel2: tuple[tuple[tuple[int, ...], float], ...]
    law: LawConfig = field(default_factory=LawConfig)
    experiment: ExperimentConfig = field(default_factory=ExperimentConfig)

    # -- builders ---------------------------------------------------------
    def build_kernel(self, which: int) -> JumpKernel:
        entries = self.kernel1 if which == 1 else self.kernel2
        try:
            return JumpKernel(self.dim, {v: w for v, w in entries})
        except KernelError as exc:
            raise ConfigError(f"model.kernel{which}", str(exc)) from exc

    def build_law(self) -> BranchingLaw:
        try:
            return BranchingLaw(mu1=self.law.mu1, mu2=self.law.mu2,
                                beta1={(k, l): r for k, l, r in self.law.beta1},
                                beta2={(k, l): r for k, l, r in self.law.beta2},
                                conversion_rate=self.law.conversion_rate)
        except LawError as exc:
            raise ConfigError("model.law", str(exc)) from exc

    def build_model(self) -> TwoTypeModel:
        return TwoTypeModel(self.build_kernel(1), self.build_kernel(2),
                            self.kappa1, self.kappa2, self.build_law())

    def build_epidemic_law(self) -> BranchingLaw:
        """The branching law, refused unless it is an infected/immune law:
        type-1 entries beta1(n, 0) only and no type-2 branching."""
        if self.law.beta2:
            raise ConfigError("model.law.beta2",
                              "epidemic law requires beta2 to be empty")
        for k, l, _ in self.law.beta1:
            if l != 0:
                raise ConfigError("model.law.beta1",
                                  f"epidemic law allows only (n, 0) entries, got ({k},{l})")
        return self.build_law()

    def build_grid(self) -> ThetaGrid | None:
        """The explicit theta grid of ``grid_nodes``, or None when it is
        unset: the commands then fit one (``moments.fit_grid``)."""
        n = self.experiment.grid_nodes
        return None if n is None else ThetaGrid.for_dim(self.dim, n)

    def initial_or_default(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        if self.experiment.initial:
            return self.experiment.initial
        return ((1, (0,) * self.dim),)

    def with_overrides(self, *, replicas: int | None = None,
                       seed: int | None = None, out_dir: str | None = None,
                       t_list=None, box_radius: int | None = None,
                       grid_nodes: int | None = None) -> "RunConfig":
        """Flag overrides; t_list also sets the horizon to its maximum.  A key
        given as None keeps the config's value, and an unknown key raises
        ``TypeError``."""
        exp_updates = {key: value for key, value in (
            ("replicas", replicas), ("seed", seed), ("out_dir", out_dir),
            ("box_radius", box_radius), ("grid_nodes", grid_nodes))
            if value is not None}
        if t_list is not None:
            ts = _parse_times([float(t) for t in t_list])
            exp_updates["t_list"] = ts
            exp_updates["horizon"] = max(ts)
        exp = replace(self.experiment, **exp_updates)
        return replace(self, experiment=exp)


# ---------------------------------------------------------------------------
# strict parsing
# ---------------------------------------------------------------------------

def _expect_map(node, path) -> dict:
    if not isinstance(node, dict):
        raise ConfigError(path, f"expected a mapping, got {type(node).__name__}")
    return node

def _expect_list(node, path) -> list:
    if not isinstance(node, list):
        raise ConfigError(path, f"expected a list, got {type(node).__name__}")
    return node

def _num(node, path) -> float:
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        raise ConfigError(path, f"expected a number, got {node!r}")
    if isinstance(node, float) and not math.isfinite(node):
        raise ConfigError(path, f"expected a finite number, got {node!r}")
    return float(node)

def _int(node, path) -> int:
    if isinstance(node, bool) or not isinstance(node, int):
        raise ConfigError(path, f"expected an integer, got {node!r}")
    return node

def _reject_unknown(node: dict, allowed, path):
    unknown = set(node) - set(allowed)
    if unknown:
        raise ConfigError(f"{path}.{sorted(unknown)[0]}", "unknown key")


def _parse_times(node) -> tuple[float, ...]:
    """experiment.t_list: at least one time, each finite and >= 0."""
    t_list = tuple(_num(t, f"experiment.t_list[{i}]")
                   for i, t in enumerate(_expect_list(node, "experiment.t_list")))
    if not t_list or any(t < 0 for t in t_list):
        raise ConfigError("experiment.t_list", "need at least one time, all >= 0")
    return t_list


def _parse_vector(node, dim, path) -> tuple[int, ...]:
    if isinstance(node, int) and not isinstance(node, bool):
        node = [node]
    vec = tuple(_int(c, f"{path}[{i}]") for i, c in enumerate(_expect_list(node, path)))
    if len(vec) != dim:
        raise ConfigError(path, f"vector {list(vec)} does not have dimension {dim}")
    return vec


def _parse_kernel(node, dim, path):
    out = []
    for i, entry in enumerate(_expect_list(node, path)):
        e = _expect_list(entry, f"{path}[{i}]")
        if len(e) != 2:
            raise ConfigError(f"{path}[{i}]", "expected [vector, weight]")
        vec = _parse_vector(e[0], dim, f"{path}[{i}][0]")
        out.append((vec, _num(e[1], f"{path}[{i}][1]")))
    if not out:
        raise ConfigError(path, "kernel must have at least one displacement")
    return tuple(out)


def _parse_beta(node, path):
    out = []
    for i, entry in enumerate(_expect_list(node, path)):
        e = _expect_list(entry, f"{path}[{i}]")
        if len(e) != 3:
            raise ConfigError(f"{path}[{i}]", "expected [k, l, rate]")
        k = _int(e[0], f"{path}[{i}][0]")
        l = _int(e[1], f"{path}[{i}][1]")
        if k + l < 2:
            raise ConfigError(
                f"{path}[{i}]",
                f"offspring pair ({k},{l}) has k+l < 2; pure type changes are "
                "modeled by conversion_rate only")
        out.append((k, l, _num(e[2], f"{path}[{i}][2]")))
    return tuple(out)


def _parse_initial(node, dim, path):
    out = []
    for i, entry in enumerate(_expect_list(node, path)):
        e = _expect_list(entry, f"{path}[{i}]")
        if len(e) != 2:
            raise ConfigError(f"{path}[{i}]", "expected [type, position]")
        ptype = _int(e[0], f"{path}[{i}][0]")
        if ptype not in (1, 2):
            raise ConfigError(f"{path}[{i}][0]", f"particle type must be 1 or 2, got {ptype}")
        out.append((ptype, _parse_vector(e[1], dim, f"{path}[{i}][1]")))
    return tuple(out)


_MODEL_KEYS = ("dim", "kappa1", "kappa2", "kernel1", "kernel2", "law")
_LAW_KEYS = ("mu1", "mu2", "conversion_rate", "beta1", "beta2")
_EXP_KEYS = ("horizon", "t_list", "replicas", "seed", "box_radius",
             "corr_box_radius", "grid_nodes", "out_dir", "initial", "event_cap")


# libyaml's safe loader where PyYAML is built with it, else the pure-Python one
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate a YAML config; see module docstring."""
    try:
        doc = yaml.load(text, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f"line {mark.line + 1}, column {mark.column + 1}" if mark else "unknown"
        raise ConfigError("<syntax>", f"YAML error at {where}: {exc}") from exc
    return _parse_doc(doc)


def _parse_doc(doc) -> RunConfig:
    """Validate a config document, the plain mapping that YAML loads to."""
    doc = _expect_map(doc if doc is not None else {}, "<root>")
    _reject_unknown(doc, ("model", "experiment"), "<root>")
    model = _expect_map(doc.get("model", {}), "model")
    _reject_unknown(model, _MODEL_KEYS, "model")
    if "dim" not in model:
        raise ConfigError("model.dim", "required key is missing")
    dim = _int(model["dim"], "model.dim")
    if dim < 1:
        raise ConfigError("model.dim", f"dimension must be >= 1, got {dim}")
    if "kernel1" not in model:
        raise ConfigError("model.kernel1", "required key is missing")
    kernel1 = _parse_kernel(model["kernel1"], dim, "model.kernel1")
    kernel2 = (_parse_kernel(model["kernel2"], dim, "model.kernel2")
               if "kernel2" in model else kernel1)
    kappa1 = _num(model.get("kappa1", 1.0), "model.kappa1")
    kappa2 = _num(model.get("kappa2", kappa1), "model.kappa2")

    law_node = _expect_map(model.get("law", {}), "model.law")
    _reject_unknown(law_node, _LAW_KEYS, "model.law")
    law = LawConfig(
        mu1=_num(law_node.get("mu1", 0.0), "model.law.mu1"),
        mu2=_num(law_node.get("mu2", 0.0), "model.law.mu2"),
        conversion_rate=_num(law_node.get("conversion_rate", 0.0),
                             "model.law.conversion_rate"),
        beta1=_parse_beta(law_node.get("beta1", []), "model.law.beta1"),
        beta2=_parse_beta(law_node.get("beta2", []), "model.law.beta2"))

    exp_node = _expect_map(doc.get("experiment", {}), "experiment")
    _reject_unknown(exp_node, _EXP_KEYS, "experiment")
    t_list = _parse_times(exp_node.get("t_list", [1.0]))
    horizon = _num(exp_node.get("horizon", max(t_list)), "experiment.horizon")
    if horizon < max(t_list):
        raise ConfigError("experiment.horizon",
                          f"horizon {horizon} is below max(t_list) = {max(t_list)}")
    exp = ExperimentConfig(
        horizon=horizon,
        t_list=t_list,
        replicas=_int(exp_node.get("replicas", 1), "experiment.replicas"),
        seed=_int(exp_node.get("seed", 0), "experiment.seed"),
        box_radius=_int(exp_node.get("box_radius", 30), "experiment.box_radius"),
        corr_box_radius=_int(exp_node.get("corr_box_radius", 10),
                             "experiment.corr_box_radius"),
        grid_nodes=(_int(exp_node["grid_nodes"], "experiment.grid_nodes")
                    if "grid_nodes" in exp_node else None),
        out_dir=str(exp_node.get("out_dir", "out")),
        initial=_parse_initial(exp_node.get("initial", []), dim, "experiment.initial"),
        event_cap=_int(exp_node.get("event_cap", 10_000_000), "experiment.event_cap"))
    if exp.replicas < 1:
        raise ConfigError("experiment.replicas", "must be >= 1")

    cfg = RunConfig(dim=dim, kappa1=kappa1, kappa2=kappa2, kernel1=kernel1,
                    kernel2=kernel2, law=law, experiment=exp)
    cfg.build_model()   # surface kernel/law invariant violations at parse time
    return cfg


def _config_doc(cfg: RunConfig) -> dict[str, Any]:
    return {
        "model": {
            "dim": cfg.dim,
            "kappa1": cfg.kappa1,
            "kappa2": cfg.kappa2,
            "kernel1": [[list(v), w] for v, w in cfg.kernel1],
            "kernel2": [[list(v), w] for v, w in cfg.kernel2],
            "law": {
                "mu1": cfg.law.mu1,
                "mu2": cfg.law.mu2,
                "conversion_rate": cfg.law.conversion_rate,
                "beta1": [list(e) for e in cfg.law.beta1],
                "beta2": [list(e) for e in cfg.law.beta2],
            },
        },
        "experiment": {
            "horizon": cfg.experiment.horizon,
            "t_list": list(cfg.experiment.t_list),
            "replicas": cfg.experiment.replicas,
            "seed": cfg.experiment.seed,
            "box_radius": cfg.experiment.box_radius,
            "corr_box_radius": cfg.experiment.corr_box_radius,
            **({"grid_nodes": cfg.experiment.grid_nodes}
               if cfg.experiment.grid_nodes is not None else {}),
            "out_dir": cfg.experiment.out_dir,
            "initial": [[p, list(x)] for p, x in cfg.experiment.initial],
            "event_cap": cfg.experiment.event_cap,
        },
    }


def serialize_config(cfg: RunConfig) -> str:
    """Canonical YAML; parse(serialize(cfg)) == cfg."""
    return yaml.safe_dump(_config_doc(cfg), sort_keys=True, default_flow_style=None)


def config_hash(cfg: RunConfig) -> str:
    """sha256 of the canonical JSON of the config; every number is finite
    (``_num`` rejects the rest, also for ``--t`` overrides), so
    ``allow_nan=False`` never fires."""
    text = json.dumps(_config_doc(cfg), sort_keys=True, separators=(",", ":"),
                      allow_nan=False)
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# figure presets
# ---------------------------------------------------------------------------

def _fig_z1() -> RunConfig:
    """d=1 critical two-type run: 300 type-1 particles on the sites 0..299.

    Walks: type 1 simple (+-1, kappa 1); type 2 uniform on +-{1,2,3} with
    kappa 4.  Law: mu1=0.25, beta1(2,0)=beta1(1,1)=0.125, mu2=0.375,
    beta2(0,2)=0.125, beta2(1,1)=0.25 (critical, irreducible).
    """
    k2 = [[[z], 1.0 / 6.0] for step in (1, 2, 3) for z in (step, -step)]
    doc = {
        "model": {
            "dim": 1, "kappa1": 1.0, "kappa2": 4.0,
            "kernel1": [[[1], 0.5], [[-1], 0.5]],
            "kernel2": k2,
            "law": {"mu1": 0.25, "mu2": 0.375,
                    "beta1": [[2, 0, 0.125], [1, 1, 0.125]],
                    "beta2": [[0, 2, 0.125], [1, 1, 0.25]]},
        },
        "experiment": {
            "horizon": 200.0,
            "t_list": [1.0, 5.0, 20.0, 50.0, 100.0, 200.0],
            "initial": [[1, [x]] for x in range(300)],
        },
    }
    return _parse_doc(doc)


def _fig_z2() -> RunConfig:
    """d=2 epidemic run: 200 infected particles at the origin.

    Type-1 walk uniform on the punctured 9x9 box (kappa 1), type-2 uniform
    on the punctured 5x5 box (kappa 1); mu1=0.05, beta1(2,0)=0.5, r=0.45.
    """
    k1 = [[[z1, z2], 1.0 / 80.0]
          for z1 in range(-4, 5) for z2 in range(-4, 5) if (z1, z2) != (0, 0)]
    k2 = [[[z1, z2], 1.0 / 24.0]
          for z1 in range(-2, 3) for z2 in range(-2, 3) if (z1, z2) != (0, 0)]
    doc = {
        "model": {
            "dim": 2, "kappa1": 1.0, "kappa2": 1.0,
            "kernel1": k1, "kernel2": k2,
            "law": {"mu1": 0.05, "conversion_rate": 0.45,
                    "beta1": [[2, 0, 0.5]]},
        },
        "experiment": {
            "horizon": 4.0,
            "t_list": [0.5, 1.0, 1.5, 2.0, 3.0, 4.0],
            "box_radius": 15,
            "initial": [[1, [0, 0]]] * 200,
        },
    }
    return _parse_doc(doc)


_PRESETS = {"fig-z1": _fig_z1, "fig-z2": _fig_z2}
PRESET_NAMES = tuple(sorted(_PRESETS))


def preset(name: str) -> RunConfig:
    """Named figure-reproduction presets: fig-z1 (d=1 clustering run) and
    fig-z2 (d=2 epidemic run)."""
    if name not in _PRESETS:
        raise ConfigError("preset", f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    return _PRESETS[name]()
