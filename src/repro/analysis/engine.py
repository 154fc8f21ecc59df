"""Pluggable AST rule engine behind ``repro lint``.

The reproduction's headline claims rest on *determinism contracts* —
streamed == offline transcripts, fault-free-identical completers,
ample-memory parity, scalar↔vector oracle parity — that runtime suites can
only sample.  This engine turns those contracts into named, statically
checkable rules: each rule walks one module's AST and reports
:class:`Finding` records; the engine handles file discovery, inline
suppressions, baselines and output formatting.

Design points:

* **Deterministic output.**  Files are analysed in sorted path order and
  findings are sorted by ``(path, line, rule, message)``, so two runs over
  the same tree emit byte-identical reports.
* **Inline suppressions.**  A ``# repro: ignore[RULE]`` comment (multiple
  ids comma-separated) silences exactly the named rules on exactly that
  line.  Suppressions are deliberate, grep-able contracts; there is no
  bare un-scoped form.
* **Baselines.**  ``--baseline FILE`` filters findings already recorded in
  a JSON baseline, matching on ``(rule, path, message)`` — line numbers
  drift with unrelated edits and are ignored.  The repo itself ships with
  an *empty* baseline; the flag exists for downstream forks.
* **Stdlib-only leaf.**  The engine imports nothing outside the standard
  library, so ``repro.analysis`` stays importable (and strictly typed) on
  its own.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

#: Rule id of the pseudo-finding emitted for unparsable files.
SYNTAX_RULE = "E999"

_SUPPRESS_RE = re.compile(r"#\s*repro:\s*ignore\[([A-Za-z0-9_,\s]+)\]")

#: Directory names never descended into during file discovery.
_SKIP_DIRS = frozenset({"__pycache__", ".git", ".venv", "node_modules"})


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location.

    Ordering is ``(path, line, rule, message)`` so a sorted finding list
    reads like a compiler log.  :attr:`key` is the line-insensitive
    identity used for baseline matching.
    """

    path: str  # repo-relative, POSIX separators
    line: int  # 1-based
    rule: str
    message: str

    @property
    def key(self) -> tuple[str, str, str]:
        return (self.rule, self.path, self.message)

    def to_dict(self) -> dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
        }

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "Finding":
        return cls(
            path=str(data["path"]),
            line=int(data.get("line", 0)),  # type: ignore[arg-type]
            rule=str(data["rule"]),
            message=str(data["message"]),
        )


class ModuleContext:
    """Everything one rule needs to inspect a single module."""

    def __init__(
        self,
        rel: str,
        source: str,
        tree: ast.Module,
        root: Path | None = None,
    ) -> None:
        self.rel = rel
        self.source = source
        self.tree = tree
        #: Filesystem root ``rel`` is relative to, when the module came from
        #: disk; ``None`` for in-memory snippets (fixtures, tests).
        self.root = root
        self._parents: dict[ast.AST, ast.AST] | None = None

    def parent(self, node: ast.AST) -> ast.AST | None:
        """The AST parent of ``node`` (built lazily, cached per module)."""
        if self._parents is None:
            parents: dict[ast.AST, ast.AST] = {}
            for outer in ast.walk(self.tree):
                for child in ast.iter_child_nodes(outer):
                    parents[child] = outer
            self._parents = parents
        return self._parents.get(node)

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """Walk from ``node``'s parent up to the module root."""
        current = self.parent(node)
        while current is not None:
            yield current
            current = self.parent(current)

    def finding(self, node: ast.AST | int, rule: str, message: str) -> Finding:
        line = node if isinstance(node, int) else getattr(node, "lineno", 0)
        return Finding(path=self.rel, line=line, rule=rule, message=message)


CheckFn = Callable[[ModuleContext], Iterable[Finding]]


@dataclass(frozen=True)
class Rule:
    """A named, path-scoped static check.

    ``scope`` is a repo-relative POSIX path prefix; ``None`` applies the
    rule to every analysed file.  Scoping is how e.g. DET001 bans
    wall-clock reads inside the simulation (``src/repro``) while the bench
    tools — whose whole job is measuring wall time — stay lintable.
    """

    id: str
    summary: str
    check: CheckFn
    scope: str | None = None

    def applies_to(self, rel: str) -> bool:
        if self.scope is None:
            return True
        return rel == self.scope or rel.startswith(self.scope.rstrip("/") + "/")


def default_rules() -> tuple[Rule, ...]:
    """The registered rule set, ordered by rule id."""
    from repro.analysis.rules import ALL_RULES

    return ALL_RULES


# -- per-file analysis -------------------------------------------------------


def suppressed_lines(source: str) -> dict[int, frozenset[str]]:
    """Map line number -> rule ids silenced by ``# repro: ignore[...]``."""
    out: dict[int, frozenset[str]] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(text)
        if match:
            ids = frozenset(
                part.strip() for part in match.group(1).split(",") if part.strip()
            )
            if ids:
                out[lineno] = ids
    return out


def analyze_source(
    source: str,
    rel: str,
    rules: Sequence[Rule] | None = None,
    root: Path | None = None,
) -> list[Finding]:
    """Run every applicable rule over one module's source text."""
    if rules is None:
        rules = default_rules()
    try:
        tree = ast.parse(source, filename=rel)
    except SyntaxError as error:
        line = error.lineno or 0
        return [Finding(rel, line, SYNTAX_RULE, f"syntax error: {error.msg}")]
    context = ModuleContext(rel, source, tree, root=root)
    suppressions = suppressed_lines(source)
    findings: list[Finding] = []
    for rule in rules:
        if not rule.applies_to(rel):
            continue
        for found in rule.check(context):
            silenced = suppressions.get(found.line, frozenset())
            if found.rule in silenced:
                continue
            findings.append(found)
    return sorted(findings)


def analyze_file(
    path: Path,
    root: Path,
    rules: Sequence[Rule] | None = None,
) -> list[Finding]:
    """Analyse one file; the finding paths are relative to ``root``."""
    rel = path.resolve().relative_to(root.resolve()).as_posix()
    source = path.read_text(encoding="utf-8")
    return analyze_source(source, rel, rules, root=root)


# -- file discovery ----------------------------------------------------------


def collect_files(paths: Sequence[str | Path], root: Path) -> list[Path]:
    """Expand files/directories into a sorted, de-duplicated ``.py`` list.

    Sorting is by repo-relative POSIX path, which (together with per-file
    sorting) fixes the report order.
    """
    seen: set[Path] = set()
    for entry in paths:
        target = Path(entry)
        if not target.is_absolute():
            target = root / target
        if target.is_dir():
            for found in target.rglob("*.py"):
                if not _SKIP_DIRS.intersection(found.parts):
                    seen.add(found.resolve())
        elif target.suffix == ".py" and target.exists():
            seen.add(target.resolve())
        else:
            raise FileNotFoundError(
                f"lint target {entry!r} is not a .py file or directory"
            )
    resolved_root = root.resolve()
    return sorted(seen, key=lambda p: p.relative_to(resolved_root).as_posix())


# -- whole-run API -----------------------------------------------------------


@dataclass(frozen=True)
class LintResult:
    """Outcome of one lint run (post-suppression, post-baseline)."""

    findings: tuple[Finding, ...]
    files_scanned: int
    baselined: int = 0  # findings filtered by the baseline file

    @property
    def clean(self) -> bool:
        return not self.findings

    def to_dict(self) -> dict[str, object]:
        return {
            "version": 1,
            "files_scanned": self.files_scanned,
            "baselined": self.baselined,
            "findings": [finding.to_dict() for finding in self.findings],
        }


def run_lint(
    paths: Sequence[str | Path],
    root: Path,
    baseline: set[tuple[str, str, str]] | None = None,
) -> LintResult:
    """Lint ``paths`` (files or directories) under repo ``root``."""
    files = collect_files(paths, root)
    findings = sorted(finding for path in files for finding in analyze_file(path, root))
    baselined = 0
    if baseline:
        kept = [finding for finding in findings if finding.key not in baseline]
        baselined = len(findings) - len(kept)
        findings = kept
    return LintResult(
        findings=tuple(findings),
        files_scanned=len(files),
        baselined=baselined,
    )


# -- baseline + output -------------------------------------------------------


def load_baseline(path: Path) -> set[tuple[str, str, str]]:
    """Read a baseline JSON file into a set of line-insensitive keys."""
    data = json.loads(path.read_text(encoding="utf-8"))
    entries = data["findings"] if isinstance(data, dict) else data
    if not isinstance(entries, list):
        raise ValueError(f"baseline {path} is not a finding list")
    return {Finding.from_dict(entry).key for entry in entries}


def write_baseline(path: Path, findings: Sequence[Finding]) -> None:
    """Record ``findings`` as the new grandfathered baseline."""
    payload = {
        "version": 1,
        "findings": [finding.to_dict() for finding in sorted(findings)],
    }
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def render_text(result: LintResult, rules: Sequence[Rule] | None = None) -> str:
    """Compiler-log style report, one line per finding plus a summary."""
    lines = [
        f"{finding.path}:{finding.line}: {finding.rule} {finding.message}"
        for finding in result.findings
    ]
    noun = "finding" if len(result.findings) == 1 else "findings"
    summary = f"{len(result.findings)} {noun} in {result.files_scanned} files"
    if result.baselined:
        summary += f" ({result.baselined} baselined)"
    lines.append(summary)
    return "\n".join(lines)


def render_json(result: LintResult) -> str:
    return json.dumps(result.to_dict(), indent=2)
