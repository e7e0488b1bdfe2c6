"""Command surface for ``repro check``.

:func:`add_check_arguments` installs the options,
:func:`command_from_args` executes them, and both the ``repro check``
subcommand and the ``tools/staticcheck_smoke.py`` CI wrapper build on
the same pair so the two surfaces cannot drift.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import List, Optional

from .engine import CheckReport, all_rules, run_check

#: Directories ``repro check`` sweeps when no explicit paths are given —
#: the same scope the CI static-smoke job gates on.
DEFAULT_PATHS = ("src", "tools")


def changed_files(ref: str, root: Optional[Path] = None) -> List[Path]:
    """Python files changed relative to ``ref`` (``git diff`` + untracked).

    Used by ``--changed`` so the pre-commit loop only parses the files
    the commit actually touches.  Raises ``RuntimeError`` when git is
    unavailable or ``ref`` is unknown — the caller must not silently
    check nothing.
    """
    root = Path(root) if root is not None else Path.cwd()
    files: List[Path] = []
    for cmd in (
        ["git", "diff", "--name-only", ref],
        ["git", "ls-files", "--others", "--exclude-standard"],
    ):
        proc = subprocess.run(
            cmd, cwd=root, capture_output=True, text=True,
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"{' '.join(cmd)} failed: {proc.stderr.strip()}"
            )
        for line in proc.stdout.splitlines():
            path = root / line.strip()
            if path.suffix == ".py" and path.is_file():
                files.append(path)
    return sorted(set(files))


def add_check_arguments(parser: argparse.ArgumentParser) -> None:
    """Install the ``check`` options on ``parser``.

    Shared by ``repro check`` (:mod:`repro.cli`) and the standalone
    ``tools/staticcheck_smoke.py`` wrapper.
    """
    parser.add_argument(
        "paths", nargs="*", default=None,
        help="files or directories to check "
             f"(default: {' '.join(DEFAULT_PATHS)})",
    )
    parser.add_argument(
        "--rule", action="append", dest="rules", default=None,
        metavar="RULE_ID",
        help="run only this rule (repeatable); default: all rules",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="list registered rules and exit",
    )
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the structured report as JSON on stdout",
    )
    parser.add_argument(
        "--changed", nargs="?", const="HEAD", default=None, metavar="REF",
        help="check only files changed vs REF (git diff --name-only; "
             "default REF: HEAD) plus untracked files",
    )
    parser.add_argument(
        "--root", default=None,
        help="directory findings are reported relative to "
             "(default: current directory)",
    )


def _list_rules() -> int:
    width = max(len(rule.rule_id) for rule in all_rules())
    for rule in all_rules():
        print(f"{rule.rule_id.ljust(width)}  {rule.summary}")
    return 0


def report_from_args(args: argparse.Namespace) -> CheckReport:
    """Run the check described by parsed ``check`` arguments."""
    root = Path(args.root) if args.root else Path.cwd()
    if args.changed is not None:
        paths: List[Path] = changed_files(args.changed, root)
    elif args.paths:
        paths = [Path(p) for p in args.paths]
    else:
        paths = [root / part for part in DEFAULT_PATHS]
    return run_check(paths, rule_ids=args.rules, root=root)


def command_from_args(args: argparse.Namespace) -> int:
    """Execute ``repro check`` from parsed arguments; returns exit code."""
    if args.list_rules:
        return _list_rules()
    try:
        report = report_from_args(args)
    except (KeyError, RuntimeError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return 2
    if args.as_json:
        print(json.dumps(report.to_json(), indent=2))
    else:
        for line in report.summary_lines():
            print(line)
    return report.exit_code


def build_parser() -> argparse.ArgumentParser:
    """Parser for the standalone ``tools/staticcheck_smoke.py`` script."""
    parser = argparse.ArgumentParser(prog="staticcheck", description=__doc__)
    add_check_arguments(parser)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point shared by ``repro check`` and the CI smoke wrapper."""
    return command_from_args(build_parser().parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
