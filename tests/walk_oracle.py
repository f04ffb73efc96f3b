"""Recursive reference walks over behaviour trees: ``preorder`` for
``ast.walk``, and ``strip``, the recursive form of ``strip_hiding``.
Each names a node's children by its class, not through ``ast``'s table,
so the two are checked against an independent statement of the tree's
shape.  They recurse, so keep the trees they are given shallow."""
from __future__ import annotations

from lotoskit.syntax import ast

BINARY = (ast.Choice, ast.Par, ast.Seq, ast.Disrupt)


def preorder(b: ast.Behavior) -> list[ast.Behavior]:
    """Every node of b, each before its children, left before right."""
    if isinstance(b, ast.Prefix):
        kids = [b.rest]
    elif isinstance(b, ast.Hide):
        kids = [b.body]
    elif isinstance(b, BINARY):
        kids = [b.left, b.right]
    else:
        kids = []
    return [b] + [n for k in kids for n in preorder(k)]


def strip(b: ast.Behavior) -> ast.Behavior:
    """b with every hide replaced by its stripped body, locations kept."""
    if isinstance(b, ast.Hide):
        return strip(b.body)
    if isinstance(b, ast.Prefix):
        return ast.Prefix(b.action, strip(b.rest), loc=b.loc)
    if isinstance(b, ast.Par):
        return ast.Par(strip(b.left), b.kind, b.gates, strip(b.right), loc=b.loc)
    if isinstance(b, BINARY):
        return type(b)(strip(b.left), strip(b.right), loc=b.loc)
    return b
