"""Interprocedural dataflow analysis for the TP lint pass.

Where :mod:`repro.analysis.lint` checks one AST node at a time, this
subpackage sees the whole program: :mod:`~repro.analysis.flow.callgraph`
parses every module once and builds a name-resolved call graph plus a
per-class mutable-state inventory (:mod:`~repro.analysis.flow.state`);
:mod:`~repro.analysis.flow.engine` runs fixed-point closures over the
graph; :mod:`~repro.analysis.flow.rules` implements the ``TP1xx``
rules on top (state-reset, transitive flash escape, frozen-config
aliasing, nondeterministic iteration); :mod:`~repro.analysis.flow.cfg`
builds per-function control-flow graphs with explicit exception edges
for the ``TP3xx`` typestate pass in
:mod:`~repro.analysis.flow.typestate`; and
:mod:`~repro.analysis.flow.sarif` serializes every pass's findings as
SARIF 2.1.0 for GitHub code scanning.

Run it through the shared CLI::

    python -m repro.analysis lint src --format sarif
"""

from __future__ import annotations

from .callgraph import Project
from .cfg import CFG, build_cfg
from .domains import DOMAIN_RULES, check_domains
from .engine import FlowEngine, fixed_point
from .rules import (FLOW_RULES, PROTOCOL_RULES, analyze_paths,
                    analyze_project, analyze_source, analyze_tree)
from .sarif import to_sarif
from .typestate import (ORDER_SPECS, PROTOCOL_SPECS, OrderSpec,
                        ProtocolSpec, check_protocols)

__all__ = [
    "CFG",
    "DOMAIN_RULES",
    "FLOW_RULES",
    "FlowEngine",
    "ORDER_SPECS",
    "OrderSpec",
    "PROTOCOL_RULES",
    "PROTOCOL_SPECS",
    "Project",
    "ProtocolSpec",
    "analyze_paths",
    "analyze_project",
    "analyze_source",
    "analyze_tree",
    "build_cfg",
    "check_domains",
    "check_protocols",
    "fixed_point",
    "to_sarif",
]
