"""The registered lint rules, one module per rule id.

Adding a rule is three steps: write ``<ruleid>_<slug>.py`` exposing a
module-level ``RULE`` (:class:`~repro.analysis.engine.Rule`), import it
here, and append it to :data:`ALL_RULES`.  The registry is ordered by rule
id so reports and ``--format json`` output stay stable as rules are added.
"""

from repro.analysis.engine import Rule
from repro.analysis.rules import (
    api001_export_drift,
    det001_wall_clock,
    det002_unseeded_random,
    det003_builtin_hash,
    det004_unordered_selection,
    sim001_phase_cost,
)

ALL_RULES: tuple[Rule, ...] = tuple(
    sorted(
        (
            api001_export_drift.RULE,
            det001_wall_clock.RULE,
            det002_unseeded_random.RULE,
            det003_builtin_hash.RULE,
            det004_unordered_selection.RULE,
            sim001_phase_cost.RULE,
        ),
        key=lambda rule: rule.id,
    )
)

__all__ = ["ALL_RULES"]
