"""Routing engine and discrete-event simulator for path-based transaction networks."""

from .credit import SCALE, credit, format_credit, parse_credit, parse_int
from .errors import ConfigError, InternalError, ParseError, PbtError
from .graph import CreditGraph, LinkDelta, NodeId
from .embedding import (
    Coordinate,
    Embedding,
    ReturnAddress,
    address_distance,
    build_embeddings,
    coord_distance,
    gen_return_address,
    is_prefix,
)
from .stabilization import StabilizationReport, choose_parent, on_link_change, periodic_rebuild
from .routing import (
    AttemptOutcome,
    next_hop,
    route_probe,
    split_value,
)
from .baselines import (
    MAX_FLOW_POLICY,
    RoutingPolicy,
    flow_feasible,
    grid_policies,
    landmark_paths,
    make_executor,
    max_flow,
    mpc_min_assign,
    parse_policy,
    tree_only_paths,
)
from .engine import (
    LinkChangeEvent,
    RunMetrics,
    SimParams,
    TransactionEvent,
    run_dynamic,
    run_static,
)
from .workload import (
    SnapshotFile,
    build_graph,
    generate_synthetic,
    parse_link_changes,
    parse_snapshot,
    parse_transactions,
    preprocess,
    serialize_link_changes,
    serialize_snapshot,
    serialize_transactions,
)

__all__ = [name for name in dir() if not name.startswith("_")]
