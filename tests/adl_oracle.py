"""Reference answer for the direct-coupling check of lotoskit.adl.

The check as first written: at every synchronising parallel operator,
walk both operands again for their component instances and test every
left/right pair.  Quadratic in the depth of a composition, but obviously
what the rule says."""
from __future__ import annotations

from lotoskit.adl import COMPONENT, ArchConfig, ArchElement, Violation
from lotoskit.syntax import ast


def coupling_violations(config: ArchConfig) -> list[Violation]:
    out: list[Violation] = []

    def components(b: ast.Behavior) -> list[ArchElement]:
        found = (config.element(n.process) for n in ast.walk(b) if isinstance(n, ast.Inst))
        return [e for e in found if e is not None and e.role == COMPONENT]

    for node in ast.walk(config.composition):
        if not isinstance(node, ast.Par) or node.kind is ast.ParKind.INTERLEAVE:
            continue
        right = components(node.right)
        for l in components(node.left):
            for r in right:
                shared = set(l.gates) & set(r.gates)
                if node.kind is ast.ParKind.GATES:
                    shared &= node.gates
                if shared:
                    out.append(
                        Violation(
                            "direct-component-coupling",
                            f"components '{l.name}' and '{r.name}' synchronise directly "
                            f"on gate '{sorted(shared)[0]}'",
                        )
                    )
    return out
