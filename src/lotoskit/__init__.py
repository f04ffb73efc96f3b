"""Toolkit for behaviour specifications in a Basic LOTOS subset with
finite-sort value offers: parsing, state-space generation, property
verification, design contracts, and architecture configurations.

Each public name is imported from its module on first use."""

import importlib

__version__ = "0.1.0"

# the submodule that defines each public name
_EXPORTS = {
    "adl": "ArchConfig ArchElement flatten validate_config",
    "contracts": "AscContract ContractCheckError ContractReport FactBase InterfaceContract Query"
                 " Violation check_asc check_interface eval_query parse_facts",
    "semantics": "BudgetExceededError Exploration ExplorationBudget Lts UnguardedRecursionError"
                 " generate_lts normalize successors",
    "syntax": "Diagnostic Span locate parse_behavior parse_spec pretty_behavior pretty_spec validate_spec",
    "syntax.adlparse": "parse_adl",
    "syntax.asc": "parse_asc",
    "verify": "LabelPattern Monitor VerifyResult bisim_equiv check_deadlock check_reachable"
              " check_safety export_aut minimize parse_label_pattern parse_monitor read_aut",
}
_MODULE = {name: module for module, names in _EXPORTS.items() for name in names.split()}
# submodules that resolve as attributes even before anything imported them
_SUBMODULES = frozenset(("adl", "contracts", "semantics", "syntax", "verify"))

__all__ = sorted(_MODULE)


def __getattr__(name: str) -> object:
    if name in _MODULE:
        value = getattr(importlib.import_module(f".{_MODULE[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | _MODULE.keys() | _SUBMODULES)
