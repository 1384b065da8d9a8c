"""The package surface: what ``gibbscache`` exports, and every name that the
benchmark harness under ``perfbench/`` reads from it, so that a cut which
would break the harness fails here first."""

import inspect

import gibbscache as gc

EXPORTS = [
    "CapacityError", "CellTopology", "ConfigError", "ContentCatalog", "ExperimentConfig",
    "GibbsParams", "OptimalityReport", "Placement", "RateEstimates", "RealState",
    "RequestEvent", "SimTrace", "SnapshotSchedule", "anneal_beta", "assign_server",
    "average_distributions", "build_config", "conditional_distribution", "config",
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
