"""Gibbs-sampling based distributed cache placement for overlapping-cell
networks: exact hit-rate algebra, virtual/real cache update simulation,
annealing, on-line rate learning, and a brute-force optimality oracle."""

from .errors import CapacityError, ConfigError
from .geometry import CellTopology, from_discs, from_intervals, from_segments
from .gibbs import (
    GibbsParams,
    anneal_beta,
    conditional_distribution,
    dobrushin_bound,
    expected_hit_rate,
    expected_hit_rates,
    gibbs_step,
    stationary_distribution,
    transition_matrices,
    transition_matrix,
    validate_beta0,
)
from .model import (
    ContentCatalog,
    Placement,
    hit_rate,
    local_energy,
    mask_hit_rate,
    node_hit_rate,
    segment_node_hit_rate,
)
from .oracle import (
    OptimalityReport,
    enumerate_optimal,
    independent_hit_rate,
    optimize_two_content_mixture,
)
from .realcache import RealState, SnapshotSchedule, on_request, refresh_snapshot
from .sim import (
    SimTrace,
    average_distributions,
    run,
    run_chain,
    tv_distance,
)
from .traffic import RateEstimates, RequestEvent, assign_server, next_request, observe
from .config import ExperimentConfig, build_config, parse_config

__all__ = [name for name in dir() if not name.startswith("_")]
