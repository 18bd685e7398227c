"""The package's public names are a list kept on purpose: adding or dropping
one is a decision, so it fails here until this list says so."""

from __future__ import annotations

from types import ModuleType

import localflow

PUBLIC = [
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


def test_all_lists_the_public_names_and_each_resolves():
    assert localflow.__all__ == PUBLIC and len(PUBLIC) == 31
    for name in PUBLIC:
        assert getattr(localflow, name, None) is not None, name
    # The package holds no other public name than its submodules.
    held = {name for name, value in vars(localflow).items()
            if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert held == set(PUBLIC)
