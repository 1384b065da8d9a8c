"""The package surface: what ``gibbscache`` exports, and every name that the
benchmark harness under ``perfbench/`` reads from it, so that a cut which
would break the harness fails here first."""

import ast
import inspect
from pathlib import Path

import gibbscache as gc

EXPORTS = [
    "CapacityError", "CellTopology", "ConfigError", "ContentCatalog", "ExperimentConfig",
    "GibbsParams", "OptimalityReport", "Placement", "RateEstimates", "RealState",
    "RequestEvent", "SimTrace", "SnapshotSchedule", "anneal_beta", "assign_server",
    "average_distributions", "blocks", "build_config", "conditional_distribution", "config",
    "dobrushin_bound", "engine", "enumerate_optimal", "errors", "expected_hit_rate",
    "expected_hit_rates", "from_discs", "from_intervals", "from_segments", "geometry", "gibbs",
    "gibbs_step", "hit_rate", "independent_hit_rate", "local_energy", "mask_hit_rate", "model",
    "next_request", "node_hit_rate", "observe", "on_request", "optimize_two_content_mixture",
    "oracle", "parse_config", "realcache", "refresh_snapshot", "run", "run_chain",
    "segment_node_hit_rate", "sim", "stationary_distribution", "traffic",
    "transition_matrices", "transition_matrix", "tv_distance", "validate_beta0",
]


def test_exports():
    assert gc.__all__ == EXPORTS


def test_names_the_benchmark_reads():
    assert isinstance(inspect.getattr_static(gc.Placement, "from_columns"), classmethod)
    # The tracer counts hit_rate calls through gibbs' own binding too.
    assert gc.hit_rate is gc.model.hit_rate
    assert gc.gibbs.hit_rate is gc.model.hit_rate
    assert gc.observe is gc.traffic.observe
    for cls in (gc.RateEstimates, gc.RequestEvent, gc.SimTrace, gc.ContentCatalog):
        assert inspect.isclass(cls)
    for func in (
        gc.run, gc.build_config, gc.from_intervals, gc.enumerate_optimal,
        gc.expected_hit_rate, gc.transition_matrix, gc.stationary_distribution,
        gc.engine.FastCore.step,
    ):
        assert inspect.isfunction(func)


def _unused_imports(path):
    """Names a module imports and never reads.  ``from __future__`` imports
    and import lines marked ``# noqa`` are exempt."""
    source = path.read_text()
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if "# noqa" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in read)


def test_no_unused_imports():
    # The package's __init__ imports to re-export (``__all__``).
    root = Path(__file__).resolve().parent.parent
    paths = [p for p in sorted((root / "src" / "gibbscache").glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((root / "tests").glob("*.py"))
    assert [entry for path in paths for entry in _unused_imports(path)] == []
