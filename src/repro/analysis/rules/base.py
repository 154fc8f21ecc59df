"""Shared AST helpers for the lint rules.

Every rule works on plain :mod:`ast` trees — no imports are executed — so
name resolution is necessarily syntactic.  The helpers here cover the two
forms the rules care about: resolving a call's dotted target through the
module's import aliases (``from time import perf_counter as pc`` makes a
``pc()`` call resolve to ``time.perf_counter``), and collecting the
string literals under a node.
"""

from __future__ import annotations

import ast
from typing import Iterator


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return None


def import_aliases(tree: ast.Module) -> dict[str, str]:
    """Map local names to the dotted names they import.

    ``import numpy as np`` yields ``{"np": "numpy"}``; ``from time import
    perf_counter as pc`` yields ``{"pc": "time.perf_counter"}``.  Only
    top-level and conditionally-nested imports are seen (the walk covers
    the whole tree), which is the right over-approximation for linting.
    """
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                aliases[local] = target
        elif isinstance(node, ast.ImportFrom):
            if node.module is None or node.level:
                continue  # relative imports resolve within the package
            for alias in node.names:
                if alias.name == "*":
                    continue
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return aliases


def resolve_call(node: ast.Call, aliases: dict[str, str]) -> str | None:
    """The fully-qualified dotted target of a call, through import aliases.

    ``np.random.seed(...)`` resolves to ``numpy.random.seed`` when ``np``
    aliases ``numpy``; a bare builtin like ``hash(...)`` resolves to
    ``hash`` only if the name was never imported from somewhere else.
    """
    dotted = dotted_name(node.func)
    if dotted is None:
        return None
    head, _, tail = dotted.partition(".")
    resolved_head = aliases.get(head, head)
    return f"{resolved_head}.{tail}" if tail else resolved_head


def iter_calls(tree: ast.Module) -> Iterator[ast.Call]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            yield node


def keyword_arg(node: ast.Call, name: str) -> ast.expr | None:
    for keyword in node.keywords:
        if keyword.arg == name:
            return keyword.value
    return None


def has_star_args(node: ast.Call) -> bool:
    """Does the call forward ``*args`` / ``**kwargs`` it cannot see through?"""
    return any(isinstance(arg, ast.Starred) for arg in node.args) or any(
        keyword.arg is None for keyword in node.keywords
    )


def string_literals(node: ast.AST) -> set[str]:
    """All string constants appearing anywhere under ``node``."""
    return {
        inner.value
        for inner in ast.walk(node)
        if isinstance(inner, ast.Constant) and isinstance(inner.value, str)
    }
