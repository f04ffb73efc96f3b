"""Toolkit for behaviour specifications in a Basic LOTOS subset with
finite-sort value offers: parsing, state-space generation, property
verification, design contracts, and architecture configurations."""

from .adl import ArchConfig, ArchElement, flatten, validate_config
from .contracts import (
    AscContract,
    ContractCheckError,
    ContractReport,
    Fact,
    FactBase,
    InterfaceContract,
    Query,
    Violation,
    check_asc,
    check_interface,
    eval_query,
    parse_facts,
)
from .semantics import (
    BudgetExceededError,
    Exploration,
    ExplorationBudget,
    Lts,
    UnguardedRecursionError,
    generate_lts,
    normalize,
    successors,
)
from .syntax import (
    Diagnostic,
    Span,
    parse_behavior,
    parse_spec,
    pretty_behavior,
    pretty_spec,
    validate_spec,
)
from .syntax.adlparse import parse_adl
from .syntax.asc import parse_asc
from .verify import (
    LabelPattern,
    Monitor,
    VerifyResult,
    bisim_equiv,
    check_deadlock,
    check_reachable,
    check_safety,
    export_aut,
    minimize,
    parse_label_pattern,
    parse_monitor,
    read_aut,
)

__version__ = "0.1.0"

__all__ = [
    "ArchConfig",
    "ArchElement",
    "AscContract",
    "BudgetExceededError",
    "ContractCheckError",
    "ContractReport",
    "Diagnostic",
    "Exploration",
    "ExplorationBudget",
    "Fact",
    "FactBase",
    "InterfaceContract",
    "LabelPattern",
    "Lts",
    "Monitor",
    "Query",
    "Span",
    "UnguardedRecursionError",
    "VerifyResult",
    "Violation",
    "bisim_equiv",
    "check_asc",
    "check_deadlock",
    "check_interface",
    "check_reachable",
    "check_safety",
    "eval_query",
    "export_aut",
    "flatten",
    "generate_lts",
    "minimize",
    "normalize",
    "parse_adl",
    "parse_asc",
    "parse_behavior",
    "parse_facts",
    "parse_label_pattern",
    "parse_monitor",
    "parse_spec",
    "pretty_behavior",
    "pretty_spec",
    "read_aut",
    "successors",
    "validate_config",
    "validate_spec",
]
