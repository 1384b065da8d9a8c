"""Experiment configuration: JSON schema, validation, and defaults.

One self-contained file describes a whole experiment (topology / catalog /
cache / gibbs / schedule / traffic / sim); every violation is reported with
its field path and a remedy.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from . import geometry, oracle
from .errors import CapacityError, ConfigError
from .gibbs import GibbsParams, state_rates, validate_beta0
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
    learning: bool
    estimator: EstimatorConfig
    schedule_kind: str
    schedule_t1: float
    schedule_ratio: float
    eta: float
    horizon: float
    slot_spacing: float
    n_windows: int
    seed: int
    record_events: bool
    record_slots: bool

    def make_schedule(self) -> SnapshotSchedule:
        return SnapshotSchedule(self.schedule_kind, self.schedule_t1, self.schedule_ratio)


def _field(sec: dict, path: str, name: str, default: Any, ok: Callable[[Any], bool], want: str):
    """Field ``name``, popped from the copy ``sec`` of the object at ``path``
    and checked by ``ok``; ``want`` says what passes.  An absent field takes
    ``default``, or is missing when ``default`` is None."""
    if name not in sec and default is not None:
        return default
    value = _required(sec, path, name)
    if not ok(value):
        raise ConfigError(f"{path}.{name}", f"must be {want}, got {json.dumps(value)}")
    return value


def _required(sec: dict, path: str, name: str) -> Any:
    """Field ``name``, popped from the copy ``sec`` of the object at ``path``."""
    if name not in sec:
        raise ConfigError(f"{path}.{name}", "missing required field", "add it to the config")
    return sec.pop(name)


def _section(parent: dict, path: str, opened: list) -> dict:
    """A copy of the object at ``path``, popped from the copy ``parent``; the
    copy joins ``opened``, the objects whose unread keys are rejected."""
    sec = parent.pop(path.rpartition(".")[2], {})
    if not isinstance(sec, dict):
        raise ConfigError(path, "must be a JSON object")
    opened.append((path, dict(sec)))
    return opened[-1][1]


def _reject_unread(opened: list) -> None:
    for path, sec in opened:
        for key in sec:
            raise ConfigError(
                f"{path}.{key}" if path else key, "unknown key", "remove it or correct its name"
            )


def _numbers(values: Any) -> bool:
    """True iff ``values`` is a list of JSON numbers (true and false are not)."""
    return isinstance(values, list) and {*map(type, values)} <= {int, float}


def _reals(values: Any) -> bool:
    """True iff ``values`` is a list of finite JSON numbers."""
    return _numbers(values) and all(map(math.isfinite, values))


def _pairs(values: Any) -> bool:
    """True iff ``values`` is a list of lists of two JSON numbers."""
    return isinstance(values, list) and all(_numbers(v) and len(v) == 2 for v in values)


# Checks of a field, with what passes them.
POSITIVE = (lambda v: type(v) in (int, float) and 0 < v < math.inf, "a finite number > 0")
NUMBER = (lambda v: _numbers([v]), "a number")
BOOL = (lambda v: type(v) is bool, "true or false")


def _build_topology(topo: dict, opened: list) -> CellTopology:
    modes = [m for m in ("segments", "intervals", "discs") if m in topo]
    if not modes:
        _reject_unread([("topology", topo)])
    if len(modes) != 1:
        raise ConfigError(
            "topology",
            f"expected exactly one of segments/intervals/discs, found {modes or 'none'}",
            "pick a single topology mode",
        )
    # A field of the wrong JSON shape is named by its own path; a value that
    # the geometry rejects (not finite, not positive, out of range) by the mode's.
    path = f"topology.{modes[0]}"
    try:
        if path == "topology.intervals":
            intervals = _field(topo, "topology", "intervals", None, _pairs,
                               "a list of [start, end] pairs")
            return geometry.from_intervals([tuple(iv) for iv in intervals])
        spec = _section(topo, path, opened)
        if path == "topology.segments":
            n_bs = _field(spec, path, "n_bs", None, *NUMBER)
            entries = _field(spec, path, "areas", None,
                             lambda v: isinstance(v, list) and all(type(e) is dict for e in v),
                             "a list of JSON objects")
            entries = [{**entry} for entry in entries]
            opened.extend((f"{path}.areas", entry) for entry in entries)
            areas = {
                frozenset(_field(entry, f"{path}.areas", "subset", None, _numbers,
                                 "a list of station numbers")):
                    _field(entry, f"{path}.areas", "area", None, *NUMBER)
                for entry in entries
            }
            return geometry.from_segments(n_bs, areas)
        centers = _field(spec, path, "centers", None, _pairs, "a list of [x, y] points")
        radii = _field(spec, path, "radii", None, _numbers, "a list of numbers")
        step = _field(spec, path, "grid_step", None, *NUMBER)
        return geometry.from_discs([tuple(c) for c in centers], radii, step)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(path, str(exc), "fix the topology entry") from exc


def build_config(data: dict) -> ExperimentConfig:
    """Validate a parsed config dict and assemble the experiment object."""
    data = dict(data)
    opened = [("", data)]
    top = _build_topology(_section(data, "topology", opened), opened)
    if not top.segment_areas:
        raise ConfigError(
            "topology",
            "no segment has positive area, so no request can ever arrive",
            "give at least one segment a positive area",
        )

    sec = _section(data, "catalog", opened)
    intensities = _field(sec, "catalog", "intensities", None, _reals, "a list of finite numbers")
    try:
        cat = ContentCatalog(tuple(intensities))
    except ValueError as exc:
        raise ConfigError("catalog.intensities", str(exc), "use positive finite rates") from exc

    sec = _section(data, "cache", opened)
    cache_size = _field(
        sec, "cache", "capacity", None, lambda v: type(v) is int and v >= 1, "an integer >= 1"
    )
    if cache_size >= cat.m_contents:
        raise ConfigError(
            "cache.capacity",
            f"K={cache_size} must be < M={cat.m_contents}",
            "shrink the cache or grow the catalog",
        )

    sec = _section(data, "gibbs", opened)
    gparams = GibbsParams(
        mode=_field(sec, "gibbs", "mode", "fixed", ("fixed", "annealed").__contains__,
                    '"fixed" or "annealed"'),
        beta=float(_field(sec, "gibbs", "beta", 1.0,
                          lambda v: type(v) in (int, float) and 0 <= v < math.inf,
                          "a finite number >= 0")),
        beta0=float(_field(sec, "gibbs", "beta0", 1.0, *POSITIVE)),
    )
    learning = _field(sec, "gibbs", "learning", False, *BOOL)

    traffic = _section(data, "traffic", opened)
    eta = float(_field(traffic, "traffic", "eta", 0.0,
                       lambda v: type(v) in (int, float) and 0 <= v < 1, "a number in [0, 1)"))
    if eta == 0.0:
        uncovered = [j for j in range(1, top.n_bs + 1) if not top.has_exclusive_region(j)]
        if uncovered:
            raise ConfigError(
                "traffic.eta",
                f"stations {uncovered} have no exclusive coverage region, so they would "
                "never see requests with eta=0",
                "set traffic.eta to a small positive value, e.g. 0.01",
            )

    sec = _section(traffic, "traffic.estimator", opened)
    est = EstimatorConfig(
        c0=float(_field(sec, "traffic.estimator", "c0", 1.0, *POSITIVE)),
        t0=float(_field(sec, "traffic.estimator", "t0", 1.0, *POSITIVE)),
        scope=_field(sec, "traffic.estimator", "scope", "shared",
                     ("shared", "local").__contains__, '"shared" or "local"'),
    )
    if learning and est.scope == "local" and eta == 0.0:
        raise ConfigError(
            "traffic.estimator.scope",
            "local estimation observes only exploration-served requests",
            "set traffic.eta > 0",
        )

    sec = _section(data, "schedule", opened)
    kind = _field(sec, "schedule", "kind", "linear", ("linear", "geometric").__contains__,
                  '"linear" or "geometric"')
    t1 = float(_field(sec, "schedule", "t1", 10.0, *POSITIVE))
    ratio = float(_field(sec, "schedule", "ratio", 2.0,
                         lambda v: _reals([v]) and (v > 1 or kind == "linear"),
                         "a finite number, > 1 for geometric growth"))

    sec = _section(data, "sim", opened)
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
        horizon=float(_field(sec, "sim", "horizon", 10_000.0, *POSITIVE)),
        slot_spacing=float(_field(sec, "sim", "slot_spacing", 1.0, *POSITIVE)),
        n_windows=_field(sec, "sim", "n_windows", 12, lambda v: type(v) is int and v >= 3,
                         "an integer >= 3"),
        seed=_field(sec, "sim", "seed", 0, lambda v: type(v) is int and v >= 0, "an integer >= 0"),
        record_events=_field(sec, "sim", "record_events", False, *BOOL),
        record_slots=_field(sec, "sim", "record_slots", False, *BOOL),
    )
    _reject_unread(opened)

    if gparams.mode == "annealed":
        _check_annealing(cfg)
    return cfg


def _check_annealing(cfg: ExperimentConfig) -> None:
    """Gate beta0 against the hit-rate extremes.

    Closed-form bounds contain the extremes (h_max <= high, h_min >= low), so
    a beta0 that they admit is admissible and needs no scan of the states.
    Otherwise the exact extremes decide, or, where there are too many states
    to enumerate, the bounds.
    """
    top, cat, k = cfg.topology, cfg.catalog, cfg.cache_size
    beta0, n_bs = cfg.gibbs.beta0, top.n_bs
    h_min, h_max = oracle.hit_rate_bounds(top, cat, k)
    check = validate_beta0(beta0, h_max - h_min, h_max, n_bs)
    basis = f" (from the bounds h_max <= {h_max:.6g}, h_min >= {h_min:.6g})"
    if not check.ok:
        try:
            rates = state_rates(top, cat, k)[1]
        except CapacityError:
            pass
        else:
            h_min, h_max, basis = float(rates.min()), float(rates.max()), ""
            check = validate_beta0(beta0, h_max - h_min, h_max, n_bs)
    if not check.ok:
        raise ConfigError(
            "gibbs.beta0",
            "; ".join(check.violations) + basis,
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
