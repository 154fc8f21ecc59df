"""DET003 — builtin ``hash()``/``id()`` are not seed, key or ordering material.

``hash()`` is salted per process (``PYTHONHASHSEED``) and ``id()`` is an
allocation address: feeding either into a sort key, a seed, arithmetic
seed-mixing or :func:`~repro.utils.hashing.stable_hash` arguments makes
output depend on interpreter internals.  All simulated decisions must
route through :mod:`repro.utils.hashing`, whose blake2b encoding is frozen
and platform-stable.

``id()`` used purely for *identity* — a per-process cache key or a
membership set — is deterministic in behaviour and allowed; only flows
into ordering/seed contexts are flagged.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import Finding, ModuleContext, Rule
from repro.analysis.rules.base import dotted_name, import_aliases, iter_calls

RULE_ID = "DET003"

#: Calls whose arguments become ordering material.
_ORDERING_CALLS = frozenset({"sorted", "min", "max"})

#: Hash sinks: id() fed into a stable hash defeats its purpose.
_HASH_SINKS = frozenset(
    {
        "stable_hash",
        "stable_hash_ints",
        "stable_uniform",
        "hash_prefix",
        "derive_seed",
    }
)


def _flags_id_context(context: ModuleContext, call: ast.Call) -> str | None:
    """Why this ``id()`` call is ordering/seed material, or ``None``."""
    child: ast.AST = call
    for ancestor in context.ancestors(call):
        if isinstance(ancestor, ast.stmt):
            break
        if isinstance(ancestor, ast.Call):
            target = dotted_name(ancestor.func)
            if target in _ORDERING_CALLS:
                return f"inside {target}() — ordering material"
            if target is not None and target.rsplit(".", 1)[-1] in _HASH_SINKS:
                return f"fed into {target}() — seed material"
        if isinstance(ancestor, ast.keyword) and ancestor.arg in ("seed", "key"):
            return f"bound to {ancestor.arg}= — seed/ordering material"
        if isinstance(ancestor, ast.BinOp):
            return "mixed arithmetically — seed material"
        child = ancestor
    del child
    return None


def check(context: ModuleContext) -> Iterator[Finding]:
    aliases = import_aliases(context.tree)
    for call in iter_calls(context.tree):
        target = dotted_name(call.func)
        if target == "hash" and "hash" not in aliases:
            yield context.finding(
                call,
                RULE_ID,
                "builtin hash() is PYTHONHASHSEED-salted; route through "
                "repro.utils.hashing.stable_hash",
            )
        elif target == "id" and "id" not in aliases:
            reason = _flags_id_context(context, call)
            if reason is not None:
                yield context.finding(
                    call,
                    RULE_ID,
                    f"id() {reason}; it is an allocation address — use "
                    "repro.utils.hashing.stable_hash over stable content",
                )


RULE = Rule(
    id=RULE_ID,
    summary="builtin hash()/id() must not feed seeds, keys or orderings",
    check=check,
)
