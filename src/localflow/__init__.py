"""Local almost-maximum flow on colored bounded-degree networks.

Library layout:
    graph_core        network model, flows, validation, balls, JSON io
    exact_oracle      exact max flow and residual shortest-path certificates
    path_engine       candidate paths, deterministic labels, chain depths, path index
    local_flow        the A1/A2 sweeps, per-edge local evaluation, locality checks
    estimator_tester  the vertex-sampling tester of (max flow)/n
    harness           instance generators, experiment drivers, CSV output
    cli               the `localflow` command
"""

from .estimator_tester import TesterConfig, TesterReport, run_tester
from .exact_oracle import MaxFlowResult, max_flow
from .graph_core import (
    ColoredGraph,
    DirectedEdgeRef,
    Edge,
    Flow,
    Node,
    ValidationReport,
    ball_nodes,
    flow_to_json,
    flow_value,
    graph_from_json,
    graph_to_json,
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
    enumerate_paths,
    path_key,
)

__all__ = [
    "AugPathCandidate",
    "ColoredGraph",
    "DirectedEdgeRef",
    "Edge",
    "Flow",
    "InstanceSpec",
    "LocalityReport",
    "MaxFlowResult",
    "Node",
    "OrderKey",
    "RunConfig",
    "RunTrace",
    "TesterConfig",
    "TesterReport",
    "ValidationReport",
    "ball_nodes",
    "enumerate_paths",
    "flow_to_json",
    "flow_value",
    "generate",
    "graph_from_json",
    "graph_to_json",
    "local_f2_edge",
    "max_flow",
    "path_key",
    "run_a1",
    "run_a2",
    "run_tester",
    "validate_flow",
    "validate_graph",
    "verify_locality",
]

__version__ = "0.1.0"
