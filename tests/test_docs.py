"""Docs stay in sync with the code: coverage, links, docstrings."""

import argparse
import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser
from repro.experiments import registry

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src" / "repro"


@pytest.fixture(scope="module")
def docs_text():
    paths = [REPO_ROOT / "README.md"]
    paths += sorted((REPO_ROOT / "docs").rglob("*.md"))
    assert paths[0].exists(), "README.md is missing"
    assert len(paths) > 1, "docs/ tree is missing"
    return "\n".join(path.read_text() for path in paths)


class TestDocsCoverage:
    def test_readme_and_docs_exist(self):
        assert (REPO_ROOT / "README.md").is_file()
        assert (REPO_ROOT / "docs" / "architecture.md").is_file()
        assert (REPO_ROOT / "docs" / "adding_an_experiment.md").is_file()

    def test_every_registered_experiment_in_docs(self, docs_text):
        for name in registry.names():
            assert f"`{name}`" in docs_text, (
                f"experiment {name!r} is not documented"
            )

    def test_every_cli_subcommand_in_docs(self, docs_text):
        parser = build_parser()
        subparsers = next(
            action for action in parser._actions
            if hasattr(action, "choices") and action.choices
        )
        for command in subparsers.choices:
            assert command in docs_text, (
                f"CLI subcommand {command!r} is not documented"
            )

    def test_cli_table_flags_exist(self):
        """Every ``--flag`` a README command row names is an option of
        that subcommand (one of them, for a row naming several)."""
        readme = (REPO_ROOT / "README.md").read_text()
        rows = [
            line for line in readme.splitlines()
            if line.startswith("| `repro ")
        ]
        assert rows, "README has no CLI reference table"
        stale = []
        for row in rows:
            first_cell = row.split("|")[1]
            options = set()
            for invocation in re.findall(r"`repro ([^`]*)`", first_cell):
                options |= _subcommand_options(invocation)
            for flag in sorted(set(re.findall(r"--[a-z][a-z0-9-]*", row))):
                if flag not in options:
                    stale.append(f"{first_cell.strip()}: {flag}")
        assert not stale, "README names unknown flags: " + ", ".join(stale)

    def test_tracker_matrix_names_all_trackers(self):
        readme = (REPO_ROOT / "README.md").read_text()
        for tracker in ("PRAC", "MINT", "Graphene", "PARA", "Mithril",
                        "DSAC"):
            assert tracker in readme


def _subcommand_options(invocation):
    """Option strings of the subparser ``repro <invocation>`` names.

    Words are followed down the subparser tree until one is not a
    subcommand (a ``<name>`` placeholder, a flag).
    """
    parser = build_parser()
    for word in invocation.split():
        subparsers = [
            action for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        if not subparsers or word not in subparsers[0].choices:
            break
        parser = subparsers[0].choices[word]
    return {
        option for action in parser._actions
        for option in action.option_strings
    }


class TestLinks:
    def test_relative_markdown_links_resolve(self):
        result = subprocess.run(
            [sys.executable, str(REPO_ROOT / "tools" / "check_links.py")],
            capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr or result.stdout


def _missing_docstrings(package_dir):
    missing = []
    for path in sorted(package_dir.glob("*.py")):
        tree = ast.parse(path.read_text())

        def walk(node, prefix=""):
            for child in ast.iter_child_nodes(node):
                if isinstance(
                    child,
                    (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
                ):
                    if (
                        not child.name.startswith("_")
                        and ast.get_docstring(child) is None
                    ):
                        missing.append(f"{path.name}:{prefix}{child.name}")
                    walk(child, f"{prefix}{child.name}.")

        walk(tree)
    return missing


class TestDocstrings:
    @pytest.mark.parametrize("package", ["trackers", "core"])
    def test_public_api_is_docstringed(self, package):
        missing = _missing_docstrings(SRC / package)
        assert not missing, (
            "public names without docstrings: " + ", ".join(missing)
        )
