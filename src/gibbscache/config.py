"""Experiment configuration: JSON schema, validation, and defaults.

One self-contained file describes a whole experiment (topology / catalog /
cache / gibbs / schedule / traffic / sim); every violation is reported with
its field path and a remedy.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from . import geometry, oracle
from .errors import CapacityError, ConfigError
from .gibbs import GibbsParams, validate_beta0
from .geometry import CellTopology
from .model import ContentCatalog
from .realcache import SnapshotSchedule


@dataclass(frozen=True)
class EstimatorConfig:
    c0: float = 1.0
    t0: float = 1.0
    scope: str = "shared"  # shared | local


@dataclass(frozen=True)
class ExperimentConfig:
    topology: CellTopology
    catalog: ContentCatalog
    cache_size: int
    gibbs: GibbsParams
    learning: bool = False
    estimator: EstimatorConfig = field(default_factory=EstimatorConfig)
    schedule_kind: str = "linear"
    schedule_t1: float = 10.0
    schedule_ratio: float = 2.0
    eta: float = 0.0
    horizon: float = 10_000.0
    slot_spacing: float = 1.0
    n_windows: int = 12
    seed: int = 0
    record_events: bool = False
    record_slots: bool = False

    def make_schedule(self) -> SnapshotSchedule:
        return SnapshotSchedule(self.schedule_kind, self.schedule_t1, self.schedule_ratio)


def _get(data: dict, path: str, default=None, required=False):
    node: Any = data
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            if required:
                raise ConfigError(path, "missing required field", "add it to the config")
            return default
        node = node[part]
    return node


def _build_topology(data: dict) -> CellTopology:
    topo = _get(data, "topology", required=True)
    modes = [m for m in ("segments", "intervals", "discs") if m in topo]
    if len(modes) != 1:
        raise ConfigError(
            "topology",
            f"expected exactly one of segments/intervals/discs, found {modes or 'none'}",
            "pick a single topology mode",
        )
    mode = modes[0]
    try:
        if mode == "intervals":
            return geometry.from_intervals([tuple(iv) for iv in topo["intervals"]])
        if mode == "segments":
            areas = {
                frozenset(entry["subset"]): entry["area"]
                for entry in topo["segments"]["areas"]
            }
            return geometry.from_segments(topo["segments"]["n_bs"], areas)
        discs = topo["discs"]
        return geometry.from_discs(
            [tuple(c) for c in discs["centers"]], discs["radii"], discs["grid_step"]
        )
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"topology.{mode}", str(exc), "fix the topology entry") from exc


def build_config(data: dict) -> ExperimentConfig:
    """Validate a parsed config dict and assemble the experiment object."""
    top = _build_topology(data)
    if not top.segment_areas:
        raise ConfigError(
            "topology",
            "no segment has positive area, so no request can ever arrive",
            "give at least one segment a positive area",
        )

    intensities = _get(data, "catalog.intensities", required=True)
    try:
        cat = ContentCatalog(tuple(intensities))
    except (ValueError, TypeError) as exc:
        raise ConfigError("catalog.intensities", str(exc), "use positive finite rates") from exc

    cache_size = _get(data, "cache.capacity", required=True)
    if not isinstance(cache_size, int) or cache_size < 1:
        raise ConfigError("cache.capacity", f"must be a positive integer, got {cache_size!r}")
    if cache_size >= cat.m_contents:
        raise ConfigError(
            "cache.capacity",
            f"K={cache_size} must be < M={cat.m_contents}",
            "shrink the cache or grow the catalog",
        )

    mode = _get(data, "gibbs.mode", "fixed")
    learning = bool(_get(data, "gibbs.learning", False))
    try:
        gparams = GibbsParams(
            mode=mode,
            beta=float(_get(data, "gibbs.beta", 1.0)),
            beta0=float(_get(data, "gibbs.beta0", 1.0)),
        )
    except ValueError as exc:
        raise ConfigError("gibbs", str(exc), "fix the sampler parameters") from exc

    eta = float(_get(data, "traffic.eta", 0.0))
    if not (0 <= eta < 1):
        raise ConfigError("traffic.eta", f"must be in [0, 1), got {eta}")
    if eta == 0.0:
        uncovered = [j for j in range(1, top.n_bs + 1) if not top.has_exclusive_region(j)]
        if uncovered:
            raise ConfigError(
                "traffic.eta",
                f"stations {uncovered} have no exclusive coverage region, so they would "
                "never see requests with eta=0",
                "set traffic.eta to a small positive value, e.g. 0.01",
            )

    est = EstimatorConfig(
        c0=float(_get(data, "traffic.estimator.c0", 1.0)),
        t0=float(_get(data, "traffic.estimator.t0", 1.0)),
        scope=_get(data, "traffic.estimator.scope", "shared"),
    )
    if est.c0 <= 0 or est.t0 <= 0:
        raise ConfigError("traffic.estimator", "smoothing constants c0, t0 must be > 0")
    if est.scope not in ("shared", "local"):
        raise ConfigError("traffic.estimator.scope", f"unknown scope {est.scope!r}")
    if learning and est.scope == "local" and eta == 0.0:
        raise ConfigError(
            "traffic.estimator.scope",
            "local estimation observes only exploration-served requests",
            "set traffic.eta > 0",
        )

    kind = _get(data, "schedule.kind", "linear")
    t1 = float(_get(data, "schedule.t1", 10.0))
    ratio = float(_get(data, "schedule.ratio", 2.0))
    try:
        SnapshotSchedule(kind, t1, ratio)
    except ValueError as exc:
        raise ConfigError("schedule", str(exc))

    horizon = float(_get(data, "sim.horizon", 10_000.0))
    if horizon <= 0:
        raise ConfigError("sim.horizon", "must be positive")
    slot_spacing = float(_get(data, "sim.slot_spacing", 1.0))
    if slot_spacing <= 0:
        raise ConfigError("sim.slot_spacing", "must be positive")
    n_windows = _get(data, "sim.n_windows", 12)
    if not isinstance(n_windows, int) or n_windows < 3:
        raise ConfigError("sim.n_windows", "must be an integer >= 3")

    cfg = ExperimentConfig(
        topology=top,
        catalog=cat,
        cache_size=cache_size,
        gibbs=gparams,
        learning=learning,
        estimator=est,
        schedule_kind=kind,
        schedule_t1=t1,
        schedule_ratio=ratio,
        eta=eta,
        horizon=horizon,
        slot_spacing=slot_spacing,
        n_windows=n_windows,
        seed=int(_get(data, "sim.seed", 0)),
        record_events=bool(_get(data, "sim.record_events", False)),
        record_slots=bool(_get(data, "sim.record_slots", False)),
    )

    if gparams.mode == "annealed":
        _check_annealing(cfg)
    return cfg


def _check_annealing(cfg: ExperimentConfig) -> None:
    """Gate beta0 against the oracle whenever exact enumeration is feasible."""
    try:
        report = oracle.enumerate_optimal(cfg.topology, cfg.catalog, cfg.cache_size)
    except CapacityError:
        return  # too large for the exact gate; run at the user's risk
    check = validate_beta0(cfg.gibbs.beta0, report.delta, report.h_max, cfg.topology.n_bs)
    if not check.ok:
        raise ConfigError(
            "gibbs.beta0",
            "; ".join(check.violations),
            f"choose beta0 < {check.max_admissible:.6g}",
        )


def parse_config(path: str | Path) -> ExperimentConfig:
    """Load and validate an experiment config file (JSON)."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(str(path), "file not found")
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(str(path), f"not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(str(path), "top level must be a JSON object")
    return build_config(data)
