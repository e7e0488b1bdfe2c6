#!/usr/bin/env python3
"""Diff scenario metrics between two content-addressed result stores.

Usage (the CI scenario-smoke diff):

    python tools/scenario_report.py results-a results-b

Each argument is a results directory (the store lives at
``<dir>/store``) or a store root itself.  For every scenario name
present in both stores the latest run's metrics are compared with a
``B/A`` ratio column.  Exits non-zero when nothing was comparable, so
an empty or mislocated store cannot silently pass a CI gate.

This is a thin wrapper over :mod:`repro.results.report` (the same code
behind ``repro scenario report``); it only bootstraps ``sys.path`` so
CI can invoke it without installing the package.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.results.report import main  # noqa: E402

if __name__ == "__main__":
    raise SystemExit(main())
