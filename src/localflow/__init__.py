"""Local almost-maximum flow on colored bounded-degree networks.

Library layout:
    graph_core        network model, flows, validation, neighborhoods, JSON io
    exact_oracle      exact max flow and residual shortest-path certificates
    path_engine       candidate paths, deterministic labels, chain depths
    local_flow        the A1/A2 sweeps, per-edge local evaluation, locality checks
    estimator_tester  seed-averaged flows and the vertex-sampling tester
    harness           instance generators, experiment drivers, CSV output
    cli               the `localflow` command
"""

from .estimator_tester import (
    AveragedFlowValue,
    TesterConfig,
    TesterReport,
    assemble_fbar2,
    fbar2_edge,
    fbar2_value,
    run_tester,
)
from .exact_oracle import (
    MaxFlowResult,
    cut_capacity,
    max_flow,
    shortest_augmenting_path_length,
)
from .graph_core import (
    ColoredGraph,
    DirectedEdgeRef,
    Edge,
    Flow,
    NeighborhoodView,
    Node,
    ValidationReport,
    ball_nodes,
    flow_from_json,
    flow_to_json,
    flow_value,
    graph_from_json,
    graph_to_json,
    neighborhood,
    out_edges,
    validate_flow,
    validate_graph,
)
from .harness import InstanceSpec, generate
from .local_flow import (
    LocalityReport,
    RunConfig,
    RunTrace,
    local_f2_edge,
    run_a1,
    run_a2,
    verify_locality,
)
from .path_engine import (
    AugPathCandidate,
    OrderKey,
    chain_depth_all,
    enumerate_paths,
    intersects,
    path_key,
    residual_capacity,
)

__all__ = [
    "AugPathCandidate",
    "AveragedFlowValue",
    "ColoredGraph",
    "DirectedEdgeRef",
    "Edge",
    "Flow",
    "InstanceSpec",
    "LocalityReport",
    "MaxFlowResult",
    "NeighborhoodView",
    "Node",
    "OrderKey",
    "RunConfig",
    "RunTrace",
    "TesterConfig",
    "TesterReport",
    "ValidationReport",
    "assemble_fbar2",
    "ball_nodes",
    "chain_depth_all",
    "cut_capacity",
    "enumerate_paths",
    "fbar2_edge",
    "fbar2_value",
    "flow_from_json",
    "flow_to_json",
    "flow_value",
    "generate",
    "graph_from_json",
    "graph_to_json",
    "intersects",
    "local_f2_edge",
    "max_flow",
    "neighborhood",
    "out_edges",
    "path_key",
    "residual_capacity",
    "run_a1",
    "run_a2",
    "run_tester",
    "shortest_augmenting_path_length",
    "validate_flow",
    "validate_graph",
    "verify_locality",
]

__version__ = "0.1.0"
