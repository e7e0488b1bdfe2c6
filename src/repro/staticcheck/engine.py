"""Rule engine for ``repro check``: registry, parse cache, suppressions.

The engine mirrors the experiment-registry idiom
(:mod:`repro.experiments.registry`): rules self-register at import time
via the :func:`register_rule` decorator, and every consumer — the CLI,
the CI smoke wrapper, the tests — derives its rule list from the one
registry, so selection and ``--list-rules`` can never drift.

Design points:

* **Stdlib only.**  Everything is :mod:`ast` + :mod:`tokenize`-free
  line scanning; the checker must run in the barest CI container.
* **Parse once per file.**  :class:`ParsedFile` carries the parsed tree
  plus the raw source lines; a process-local cache keyed by
  ``(path, mtime, size)`` makes repeated runs (the ``--changed``
  pre-commit loop, the test suite's whole-repo pass) cheap.
* **Findings are data.**  :class:`Finding` is ``(file, line, rule_id,
  message)`` — renderable as human text or ``--json``, and stable
  enough to diff across commits.
* **Suppressions are counted, never free.**  ``# repro: allow[rule-id]
  reason`` on the finding's line (or the line above) suppresses it, but
  every suppression — used or not — is reported, so waivers stay
  visible instead of rotting silently.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

#: ``# repro: allow[rule-id] reason`` — the inline waiver syntax.  The
#: lookbehind keeps backtick-quoted mentions in docstrings (like the
#: one above) from registering as waivers.
_SUPPRESS_RE = re.compile(
    r"(?<!`)#\s*repro:\s*allow\[(?P<rule>[a-z0-9-]+)\]\s*(?P<reason>.*)$"
)

#: Synthetic rule id reported for files the parser rejects.  A file
#: that cannot be parsed cannot be checked, which must fail the gate —
#: never read as "clean".
PARSE_ERROR_RULE = "parse-error"


@dataclass(frozen=True)
class Finding:
    """One contract violation at a source location."""

    file: str
    line: int
    rule_id: str
    message: str

    def to_json(self) -> Dict[str, object]:
        return {
            "file": self.file,
            "line": self.line,
            "rule": self.rule_id,
            "message": self.message,
        }

    def render(self) -> str:
        return f"{self.file}:{self.line}: [{self.rule_id}] {self.message}"


@dataclass(frozen=True)
class Suppression:
    """One ``# repro: allow[...]`` waiver found in the source."""

    file: str
    line: int
    rule_id: str
    reason: str

    def to_json(self) -> Dict[str, object]:
        return {
            "file": self.file,
            "line": self.line,
            "rule": self.rule_id,
            "reason": self.reason,
        }


@dataclass(frozen=True)
class ParsedFile:
    """One checked file: its path forms, source, tree and waivers."""

    path: Path                    #: absolute path on disk
    rel: str                      #: posix path relative to the check root
    source: str
    tree: ast.Module
    suppressions: Tuple[Suppression, ...]

    def lines(self) -> List[str]:
        return self.source.splitlines()


#: Process-local parse cache: ``path -> (mtime_ns, size, ParsedFile)``.
#: Keyed on stat identity so an edited file re-parses and an untouched
#: one (the common case across ``--changed`` runs and tests) does not.
_PARSE_CACHE: Dict[Path, Tuple[int, int, ParsedFile]] = {}


def _scan_suppressions(rel: str, source: str) -> Tuple[Suppression, ...]:
    found: List[Suppression] = []
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(text)
        if match is not None:
            found.append(Suppression(
                file=rel,
                line=lineno,
                rule_id=match.group("rule"),
                reason=match.group("reason").strip(),
            ))
    return tuple(found)


def parse_file(path: Path, root: Path) -> Tuple[Optional[ParsedFile],
                                                Optional[Finding]]:
    """Parse one source file, through the cache.

    Returns ``(parsed, None)`` on success and ``(None, finding)`` when
    the file cannot be read or parsed — the finding carries the
    :data:`PARSE_ERROR_RULE` id so the gate fails loudly.
    """
    path = Path(path)
    try:
        rel = path.resolve().relative_to(Path(root).resolve()).as_posix()
    except ValueError:
        rel = path.as_posix()
    try:
        stat = path.stat()
        cached = _PARSE_CACHE.get(path)
        if cached is not None and cached[0] == stat.st_mtime_ns \
                and cached[1] == stat.st_size:
            return cached[2], None
        source = path.read_text()
        tree = ast.parse(source, filename=str(path))
    except (OSError, SyntaxError, ValueError) as exc:
        line = getattr(exc, "lineno", None) or 1
        return None, Finding(
            file=rel, line=int(line), rule_id=PARSE_ERROR_RULE,
            message=f"cannot parse: {exc}",
        )
    parsed = ParsedFile(
        path=path, rel=rel, source=source, tree=tree,
        suppressions=_scan_suppressions(rel, source),
    )
    _PARSE_CACHE[path] = (stat.st_mtime_ns, stat.st_size, parsed)
    return parsed, None


# -- the rule protocol and registry ---------------------------------------


class Rule:
    """One mechanized source contract.

    Subclasses set :attr:`rule_id` / :attr:`summary` and implement
    :meth:`check` over the whole parsed-file set — which is what lets a
    rule correlate *across* modules (``simresult-parity``).  Rules that
    are naturally per-file subclass :class:`FileRule` instead.
    """

    rule_id: str = ""
    summary: str = ""

    def check(self, files: Sequence[ParsedFile]) -> Iterator[Finding]:
        raise NotImplementedError


class FileRule(Rule):
    """A rule applied independently to each file in its scope.

    ``scope`` is a tuple of posix path fragments; a file participates
    when any fragment occurs in its check-root-relative path (empty
    scope means every file).
    """

    scope: Tuple[str, ...] = ()

    def applies_to(self, rel: str) -> bool:
        if not self.scope:
            return True
        return any(fragment in rel for fragment in self.scope)

    def check(self, files: Sequence[ParsedFile]) -> Iterator[Finding]:
        for parsed in files:
            if self.applies_to(parsed.rel):
                yield from self.check_file(parsed)

    def check_file(self, parsed: ParsedFile) -> Iterator[Finding]:
        raise NotImplementedError


_REGISTRY: Dict[str, Rule] = {}


def register_rule(cls):
    """Class decorator: instantiate and register a rule by its id.

    Registration happens at import of :mod:`repro.staticcheck.rules`,
    mirroring how experiments self-register on package import.
    Duplicate ids are a programming error.
    """
    rule = cls()
    if not rule.rule_id:
        raise ValueError(f"{cls.__name__} has no rule_id")
    if rule.rule_id in _REGISTRY:
        raise ValueError(f"rule {rule.rule_id!r} registered twice")
    _REGISTRY[rule.rule_id] = rule
    return cls


def all_rules() -> List[Rule]:
    """Every registered rule, in registration order."""
    return list(_REGISTRY.values())


def get_rules(ids: Optional[Iterable[str]] = None) -> List[Rule]:
    """Rules selected by id (all when ``ids`` is None).

    Unknown ids raise KeyError naming the known set, matching the
    experiment registry's error contract.
    """
    if ids is None:
        return all_rules()
    chosen: List[Rule] = []
    for rule_id in ids:
        if rule_id not in _REGISTRY:
            known = ", ".join(sorted(_REGISTRY))
            raise KeyError(
                f"unknown rule {rule_id!r}; choose from: {known}"
            )
        chosen.append(_REGISTRY[rule_id])
    return chosen


# -- running a check -------------------------------------------------------


@dataclass
class CheckReport:
    """Outcome of one ``repro check`` run."""

    findings: List[Finding]                    #: unsuppressed violations
    suppressed: List[Finding]                  #: violations waived inline
    suppressions: List[Suppression]            #: every waiver in the scope
    files_checked: int
    rules_run: List[str]
    root: str = "."
    unused_suppressions: List[Suppression] = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        """0 when clean; 1 when any unsuppressed finding remains."""
        return 1 if self.findings else 0

    def to_json(self) -> Dict[str, object]:
        return {
            "root": self.root,
            "files_checked": self.files_checked,
            "rules": list(self.rules_run),
            "findings": [f.to_json() for f in self.findings],
            "suppressed": [f.to_json() for f in self.suppressed],
            "suppressions": [s.to_json() for s in self.suppressions],
            "unused_suppressions": [
                s.to_json() for s in self.unused_suppressions
            ],
            "counts": {
                "findings": len(self.findings),
                "suppressed": len(self.suppressed),
                "suppressions": len(self.suppressions),
            },
        }

    def summary_lines(self) -> List[str]:
        lines = [finding.render() for finding in self.findings]
        for finding in self.suppressed:
            lines.append(f"{finding.render()}  (suppressed)")
        lines.append(
            f"{self.files_checked} file(s), {len(self.rules_run)} rule(s): "
            f"{len(self.findings)} finding(s), "
            f"{len(self.suppressed)} suppressed "
            f"({len(self.suppressions)} waiver(s) in scope)"
        )
        for waiver in self.unused_suppressions:
            lines.append(
                f"{waiver.file}:{waiver.line}: unused waiver "
                f"[{waiver.rule_id}] {waiver.reason}"
            )
        return lines


def collect_files(paths: Sequence[Path]) -> List[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    seen: Dict[Path, None] = {}
    for entry in paths:
        entry = Path(entry)
        if entry.is_dir():
            for path in sorted(entry.rglob("*.py")):
                seen[path] = None
        elif entry.suffix == ".py" and entry.is_file():
            seen[entry] = None
    return sorted(seen)


def _is_suppressed(finding: Finding,
                   by_file: Dict[str, List[Suppression]]) -> Optional[Suppression]:
    """The waiver covering ``finding``, if any.

    A waiver applies to findings of its rule on its own line (trailing
    comment) or the line below (comment-above style).
    """
    for waiver in by_file.get(finding.file, ()):
        if waiver.rule_id != finding.rule_id:
            continue
        if finding.line in (waiver.line, waiver.line + 1):
            return waiver
    return None


def run_check(
    paths: Sequence[Path],
    rule_ids: Optional[Sequence[str]] = None,
    root: Optional[Path] = None,
) -> CheckReport:
    """Run the selected rules over every ``.py`` file under ``paths``.

    ``root`` anchors the relative paths findings are reported under
    (default: the common current directory).  Unknown rule ids raise
    KeyError; everything else — unreadable files, syntax errors — is a
    finding, never an exception.
    """
    root = Path(root) if root is not None else Path.cwd()
    rules = get_rules(rule_ids)
    files: List[ParsedFile] = []
    findings: List[Finding] = []
    for path in collect_files(paths):
        parsed, error = parse_file(path, root)
        if error is not None:
            findings.append(error)
        elif parsed is not None:
            files.append(parsed)
    for rule in rules:
        findings.extend(rule.check(files))
    findings.sort(key=lambda f: (f.file, f.line, f.rule_id))

    by_file: Dict[str, List[Suppression]] = {}
    suppressions: List[Suppression] = []
    for parsed in files:
        for waiver in parsed.suppressions:
            by_file.setdefault(parsed.rel, []).append(waiver)
            suppressions.append(waiver)

    kept: List[Finding] = []
    suppressed: List[Finding] = []
    used: Dict[Suppression, None] = {}
    for finding in findings:
        waiver = _is_suppressed(finding, by_file)
        if waiver is None:
            kept.append(finding)
        else:
            suppressed.append(finding)
            used[waiver] = None
    return CheckReport(
        findings=kept,
        suppressed=suppressed,
        suppressions=suppressions,
        files_checked=len(files),
        rules_run=[rule.rule_id for rule in rules],
        root=str(root),
        unused_suppressions=[s for s in suppressions if s not in used],
    )
