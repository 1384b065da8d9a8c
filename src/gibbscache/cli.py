"""Command-line entry points: oracle report, simulation, beta sweep, and the
three-curve comparison dataset.

All subcommands read one experiment config file and emit machine-readable
JSON/CSV; files are written atomically (temp file + rename).  Means are left
folds, so the output has the same bits on every Python.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import sys
import tempfile
from functools import reduce
from operator import add
from pathlib import Path

from . import gibbs, oracle, sim
from .config import ExperimentConfig, parse_config
from .errors import CapacityError, ConfigError
from .gibbs import GibbsParams
from .model import mask_hit_rate
from .realcache import most_popular_columns


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name)
    try:
        # mkstemp opens the file as 0600; give it the mode open() would.
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _emit(payload: dict, header: list[str], rows: list[list], args) -> None:
    if args.out_dir:
        out = Path(args.out_dir)
        name = args.command.replace("-", "_")
        if args.format == "csv":
            _atomic_write(out / f"{name}.csv", _csv_text(header, rows))
        else:
            _atomic_write(out / f"{name}.json", json.dumps(payload, indent=2))
    elif args.format == "csv":
        sys.stdout.write(_csv_text(header, rows))
    else:
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")


def _baselines(cfg: ExperimentConfig) -> dict:
    # Every station holds the K most popular contents.
    pop = sum(1 << (i - 1) for i in most_popular_columns(cfg.catalog.intensities, cfg.cache_size))
    out = {"most_popular": mask_hit_rate(cfg.topology, cfg.catalog)([pop] * cfg.topology.n_bs)}
    if cfg.catalog.m_contents == 2 and cfg.cache_size == 1:
        r_star, value = oracle.optimize_two_content_mixture(cfg.topology, cfg.catalog)
        out["independent_opt"] = value
        out["independent_r_star"] = r_star
    return out


def cmd_optimal(cfg: ExperimentConfig, args) -> None:
    report = oracle.enumerate_optimal(cfg.topology, cfg.catalog, cfg.cache_size)
    data = {
        "argmax": [list(map(list, key)) for key in report.argmax],
        "h_max": report.h_max,
        "h_min": report.h_min,
        "delta": report.delta,
        "unique_argmax": report.unique,
        **_baselines(cfg),
    }
    rows = [[k, json.dumps(v) if isinstance(v, list) else v] for k, v in data.items()]
    _emit(data, ["quantity", "value"], rows, args)


def _trace_summary(trace: sim.SimTrace) -> dict:
    return {
        "seed": trace.seed,
        "slots": trace.n_slots,
        "requests": trace.total_requests,
        "hits": trace.total_hits,
        "misses": trace.total_misses,
        "hit_rate_time_avg": trace.time_average_hit_rate(),
        "hit_rate_empirical": trace.empirical_hit_rate(),
        "hit_rate_final_third": trace.time_average_hit_rate(2 / 3, 1.0),
        "beta_final": trace.beta_final,
        "final_virtual": [list(c) for c in trace.final_virtual],
        "final_real": [list(c) for c in trace.final_real],
        "real_occupancy": {
            str(k): v for k, v in sorted(trace.real_occupancy().items())
        },
        "virtual_occupancy": {
            str(k): v for k, v in sorted(trace.virtual_occupancy().items())
        },
        "estimator": [
            {
                "content": e.content,
                "segment": list(e.segment),
                "count": e.count,
                "theta": e.theta,
                "true_rate": e.true_rate,
            }
            for e in trace.estimator
        ],
    }


def _write_logs(trace: sim.SimTrace, out: Path) -> None:
    if trace.events is not None:
        rows = [[t, c, "|".join(map(str, s)), j, a] for t, c, s, j, a in trace.events]
        _atomic_write(
            out / "events.csv",
            _csv_text(["tau", "content", "segment", "bs", "action"], rows),
        )
    if trace.slots is not None:
        rows = [
            [t, j, beta, "|".join(",".join(map(str, c)) for c in key)]
            for t, j, beta, key in trace.slots
        ]
        _atomic_write(
            out / "slots.csv", _csv_text(["slot", "bs", "beta", "placement"], rows)
        )


def cmd_simulate(cfg: ExperimentConfig, args) -> None:
    seeds = [args.seed + r for r in range(args.replications)]
    summaries = []
    for s in seeds:
        trace = sim.run(cfg, s)
        summaries.append(_trace_summary(trace))
        if args.out_dir and (trace.events is not None or trace.slots is not None):
            _write_logs(trace, Path(args.out_dir) / f"seed_{s}")
    mean_rate = reduce(add, (s["hit_rate_time_avg"] for s in summaries), 0.0) / len(summaries)
    payload = {
        "replications": len(seeds),
        "mean_hit_rate_time_avg": mean_rate,
        "runs": summaries,
    }
    header = ["seed", "requests", "hits", "hit_rate_time_avg", "hit_rate_final_third"]
    rows = [[s[name] for name in header] for s in summaries]
    if args.out_dir:
        _atomic_write(Path(args.out_dir) / "summary.json", json.dumps(payload, indent=2))
        if args.format == "csv":
            _atomic_write(Path(args.out_dir) / "simulate.csv", _csv_text(header, rows))
    else:
        _emit(payload, header, rows, args)


def _parse_betas(text: str) -> list[float]:
    try:
        betas = [float(x) for x in text.split(",") if x.strip()]
    except ValueError:
        betas = []
    if not betas or not all(0 <= b < math.inf for b in betas):
        raise ConfigError("--betas", f"{text!r} is not a list of finite numbers >= 0", "e.g. 1,2,5")
    return betas


def cmd_sweep_beta(cfg: ExperimentConfig, args) -> None:
    betas = _parse_betas(args.betas)
    rows = []
    entries = []
    _, rates = gibbs.state_rates(cfg.topology, cfg.catalog, cfg.cache_size)
    for beta, exact in zip(betas, gibbs.expected_hit_rates(rates, betas)):
        fixed_cfg = dataclasses.replace(cfg, gibbs=GibbsParams(mode="fixed", beta=beta))
        sim_rates = [
            sim.run(fixed_cfg, args.seed + r).time_average_hit_rate(0.5, 1.0)
            for r in range(args.replications)
        ]
        simulated = reduce(add, sim_rates, 0.0) / len(sim_rates)
        entries.append({"beta": beta, "exact": exact, "simulated": simulated})
        rows.append([beta, exact, simulated])
    _emit({"sweep": entries}, ["beta", "exact_expected_hit_rate", "simulated_hit_rate"], rows, args)


def cmd_reproduce_fig2(cfg: ExperimentConfig, args) -> None:
    betas = _parse_betas(args.betas)
    _, rates = gibbs.state_rates(cfg.topology, cfg.catalog, cfg.cache_size)
    base = _baselines(cfg)
    rows = []
    entries = []
    for beta, exact in zip(betas, gibbs.expected_hit_rates(rates, betas)):
        entries.append(
            {
                "beta": beta,
                "gibbs": exact,
                "independent": base.get("independent_opt"),
                "most_popular": base["most_popular"],
            }
        )
        rows.append([beta, exact, base.get("independent_opt"), base["most_popular"]])
    payload = {"curves": entries, "h_max": float(rates.max())}
    _emit(payload, ["beta", "gibbs", "independent", "most_popular"], rows, args)


# Subcommands that simulate, and so take --seed, --replications and --horizon.
RUN_COMMANDS = ("simulate", "sweep-beta")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gibbscache",
        description="Gibbs-sampling cache placement experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func in (
        ("optimal", cmd_optimal),
        ("simulate", cmd_simulate),
        ("sweep-beta", cmd_sweep_beta),
        ("reproduce-fig2", cmd_reproduce_fig2),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="experiment config (JSON)")
        if name in RUN_COMMANDS:
            p.add_argument("--seed", type=int, default=None)
            p.add_argument("--replications", type=int, default=1)
            p.add_argument("--horizon", type=float, default=None)
        p.add_argument("--out-dir", default=None)
        p.add_argument("--format", choices=("csv", "json"), default="json")
        if name in ("sweep-beta", "reproduce-fig2"):
            p.add_argument("--betas", default="1,2,5,10,20,50")
        p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config)
        if args.command in RUN_COMMANDS:
            if args.seed is None:
                args.seed = cfg.seed
            elif args.seed < 0:
                raise ConfigError("--seed", "must be >= 0")
            if args.replications < 1:
                raise ConfigError("--replications", "must be >= 1")
            if args.horizon is not None:
                if not 0 < args.horizon < math.inf:
                    raise ConfigError("--horizon", "must be positive and finite")
                cfg = dataclasses.replace(cfg, horizon=args.horizon)
        if args.out_dir:  # before any work, which could take long
            try:
                Path(args.out_dir).mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise ConfigError("--out-dir", f"cannot be created: {exc}") from exc
        args.func(cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
