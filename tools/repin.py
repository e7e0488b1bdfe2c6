#!/usr/bin/env python3
"""Re-derive the test pin files under ``tests/data`` and name what moved.

Each pinned test module exposes ``PIN_PATH`` and ``pinned()``.  A stale
file is rewritten and announced by one ``file.path: old -> new`` line
per moved leaf (at most 20, then ``... N more``), or by ``file: format
only`` when no value moved.  An up-to-date tree prints nothing, so
``python tools/repin.py && git diff --exit-code -- tests/data`` is CI's
check.  The benchmark's pins stay with ``perfbench/pin.py``.
"""

import importlib
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO_ROOT / "src"), str(REPO_ROOT / "tests")]

MODULES = [importlib.import_module(f"test_{name}") for name in (
    "fuzz_divergence_pins", "sim_golden", "trace_golden", "tracker_golden")]
SHOWN = 20  # moved-leaf lines per file before "... N more"
_ABSENT = object()


def _show(value) -> str:
    text = "(absent)" if value is _ABSENT else json.dumps(value)
    if len(text) <= 72:
        return text
    return f"[{len(value)} items]" if isinstance(value, list) else (
        text[:69] + "...")


def moved(old, new, path: str):
    """``path: old -> new`` per differing leaf; a resized list is a leaf."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            yield from moved(
                old.get(key, _ABSENT), new.get(key, _ABSENT), f"{path}.{key}")
    elif (isinstance(old, list) and isinstance(new, list)
          and len(old) == len(new)):
        for index, (before, after) in enumerate(zip(old, new)):
            yield from moved(before, after, f"{path}[{index}]")
    elif old != new:
        yield f"{path}: {_show(old)} -> {_show(new)}"


def main() -> None:
    for module in MODULES:
        path = module.PIN_PATH
        text = json.dumps(module.pinned(), indent=1, sort_keys=True) + "\n"
        old = path.read_text()
        if text != old:
            lines = list(moved(json.loads(old), json.loads(text), path.name))
            for line in lines[:SHOWN] or [f"{path.name}: format only"]:
                print(line)
            if len(lines) > SHOWN:
                print(f"... {len(lines) - SHOWN} more")
            path.write_text(text)


if __name__ == "__main__":
    main()
