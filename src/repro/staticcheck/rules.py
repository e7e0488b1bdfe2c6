"""The repo's rule set: each rule mechanizes a contract we bled for.

Every rule below encodes a discipline this codebase already violated
and hand-fixed once (see docs/static_analysis.md for the full history):

* ``no-repr-key`` — the PR 5 repr-based recipe-hash bug: cosmetic
  dataclass changes silently invalidated every cached artifact.
* ``rename-is-final`` — the PR 7 write-after-rename queue races: a
  file written after being renamed into a claimable state resurrects
  state a faster claimant already owns.
* ``atomic-write-only`` — durable store/queue/journal state must go
  through the temp + ``os.replace`` helpers, or a crash mid-write
  leaves torn JSON that reads back as an empty index.
* ``slots-on-hot-classes`` — the PR 2/3 hot-path work made per-event
  allocation the enemy; ``__slots__`` keeps instance layout flat and
  catches attribute typos in kernels.
* ``no-alloc-in-kernels`` — the PR 3 allocation-free tracker kernels
  and the allocation-free controller step: a list/dict born per ACT or
  per bank event re-introduces the overhead the kernels exist to remove.
* ``no-wallclock-nondeterminism`` — byte-identical replay dies the
  moment simulation state reads the clock or an unseeded RNG.
* ``simresult-parity`` — the "new metric collected by one engine only"
  bug class: engines must assign the same ``SimResult`` fields, and
  the batch tier's follower substitution list must keep covering every
  mutable field.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .engine import FileRule, Finding, ParsedFile, Rule, register_rule

# -- shared AST helpers ----------------------------------------------------


def _call_name(node: ast.Call) -> str:
    """The dotted name a call resolves to (best effort), e.g. ``os.rename``."""
    parts: List[str] = []
    func = node.func
    while isinstance(func, ast.Attribute):
        parts.append(func.attr)
        func = func.value
    if isinstance(func, ast.Name):
        parts.append(func.id)
    return ".".join(reversed(parts))


def _last_segment(node: ast.Call) -> str:
    name = _call_name(node)
    return name.rsplit(".", 1)[-1] if name else ""


def _functions(tree: ast.AST) -> Iterator[ast.FunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _arg_name(node: ast.AST) -> Optional[str]:
    return node.id if isinstance(node, ast.Name) else None


def _str_const(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


# -- no-repr-key -----------------------------------------------------------


#: Call sites whose arguments form canonical recipes.  ``repr``/``str``
#: of a Python object must never reach them.
_KEY_SINKS = {"content_key", "canonical_json"}

#: Stringification forms that smuggle object ``repr`` cosmetics into a
#: hash: direct builtins, ``.format``, and f-strings.
_STRINGIFIERS = {"repr", "str", "format", "ascii"}


@register_rule
class NoReprKey(FileRule):
    """No ``repr()``/``str()``/f-strings inside canonical-key recipes.

    PR 5 replaced a ``sha256(repr(config))`` hash precisely because a
    cosmetic dataclass change (field order, a new default) silently
    invalidated every cached artifact.  Recipes handed to
    ``content_key`` / ``canonical_json`` must be plain data.
    """

    rule_id = "no-repr-key"
    summary = ("no repr()/str()/f-string inside content_key()/"
               "canonical_json() arguments")

    def check_file(self, parsed: ParsedFile) -> Iterator[Finding]:
        for node in ast.walk(parsed.tree):
            if not isinstance(node, ast.Call):
                continue
            if _last_segment(node) not in _KEY_SINKS:
                continue
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                yield from self._scan(parsed, arg)

    def _scan(self, parsed: ParsedFile, arg: ast.AST) -> Iterator[Finding]:
        for sub in ast.walk(arg):
            offender = None
            if isinstance(sub, ast.JoinedStr):
                offender = "an f-string"
            elif isinstance(sub, ast.Call):
                name = _call_name(sub)
                last = name.rsplit(".", 1)[-1]
                if name in _STRINGIFIERS:
                    offender = f"{name}()"
                elif last == "format" and "." in name:
                    offender = ".format()"
            elif (isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Mod)
                  and _str_const(sub.left) is not None):
                offender = "%-formatting"
            if offender is not None:
                yield Finding(
                    file=parsed.rel, line=sub.lineno, rule_id=self.rule_id,
                    message=(
                        f"{offender} inside a canonical-key recipe; keys "
                        "must be plain data (the PR 5 repr-hash bug class)"
                    ),
                )


# -- rename-is-final -------------------------------------------------------


#: Queue states the rename *winner* owns afterwards and may atomically
#: rewrite (the claim handshake, the poison record).  ``pending`` is a
#: handoff: once a file is renamed there, any write races the next
#: claimant — the exact PR 7 bug.
_OWNED_AFTER_RENAME = {"claimed", "poison"}

_ATOMIC_HELPERS = re.compile(r"^_?atomic_write")


@register_rule
class RenameIsFinal(FileRule):
    """A path passed to ``os.rename``/``os.replace`` is final.

    Mechanizes the queue/store/journal transition discipline: state is
    written into a file *before* the rename; the rename is the single
    visible step.  Afterwards, the source name must never be written
    (it would resurrect a file someone else now owns), and the
    destination may only be rewritten atomically when it is a state
    the winner owns (``claimed``/``poison`` — the claim handshake).
    A temp-named source must have been written before the rename.
    """

    rule_id = "rename-is-final"
    summary = ("no writes to a path after os.rename/os.replace moved it "
               "(queue/store/journal transition discipline)")
    scope = ("distrib/", "results/", "serve/")

    def check_file(self, parsed: ParsedFile) -> Iterator[Finding]:
        for func in _functions(parsed.tree):
            yield from self._check_function(parsed, func)

    def _check_function(
        self, parsed: ParsedFile, func: ast.FunctionDef
    ) -> Iterator[Finding]:
        states: Dict[str, str] = {}       # var -> queue state dir name
        renames: List[Tuple[int, Optional[str], Optional[str]]] = []
        writes: List[Tuple[int, str, bool]] = []   # (line, name, atomic)
        for node in ast.walk(func):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = _arg_name(node.targets[0])
                if target and isinstance(node.value, ast.Call) \
                        and _last_segment(node.value) == "_path" \
                        and node.value.args:
                    state = _str_const(node.value.args[0])
                    if state is not None:
                        states[target] = state
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node)
            last = name.rsplit(".", 1)[-1]
            if last in ("rename", "replace") and len(node.args) == 2 \
                    and (name.startswith("os.") or name == last):
                renames.append((
                    node.lineno,
                    _arg_name(node.args[0]),
                    _arg_name(node.args[1]),
                ))
            elif last in ("write_text", "write_bytes", "touch") \
                    and isinstance(node.func, ast.Attribute):
                receiver = _arg_name(node.func.value)
                if receiver:
                    writes.append((node.lineno, receiver, False))
            elif last == "open" and node.args:
                mode = _str_const(node.args[1]) if len(node.args) > 1 else "r"
                receiver = _arg_name(node.args[0])
                if receiver and mode and any(c in mode for c in "wax"):
                    writes.append((node.lineno, receiver, False))
            elif _ATOMIC_HELPERS.match(last) and node.args:
                receiver = _arg_name(node.args[0])
                if receiver:
                    writes.append((node.lineno, receiver, True))

        for line, src, dst in renames:
            if src is not None:
                for wline, wname, _atomic in writes:
                    if wname == src and wline > line:
                        yield Finding(
                            file=parsed.rel, line=wline,
                            rule_id=self.rule_id,
                            message=(
                                f"{wname!r} is written after being renamed "
                                f"away at line {line}; the rename must be "
                                "the last touch (PR 7 race class)"
                            ),
                        )
                if "tmp" in src.lower() and not any(
                    wname == src and wline < line
                    for wline, wname, _atomic in writes
                ):
                    yield Finding(
                        file=parsed.rel, line=line, rule_id=self.rule_id,
                        message=(
                            f"temp path {src!r} is renamed into place "
                            "without its content being written first in "
                            "this function"
                        ),
                    )
            if dst is not None:
                owned = states.get(dst) in _OWNED_AFTER_RENAME
                for wline, wname, atomic in writes:
                    if wname != dst or wline <= line:
                        continue
                    if owned and atomic:
                        continue      # the blessed claim/poison handshake
                    yield Finding(
                        file=parsed.rel, line=wline, rule_id=self.rule_id,
                        message=(
                            f"{wname!r} is written after the rename at "
                            f"line {line} handed it off"
                            + ("" if atomic else " (and the write is not "
                               "atomic)")
                            + "; write state before the rename instead"
                        ),
                    )


# -- atomic-write-only -----------------------------------------------------


#: Substrings naming write targets that are *not* durable data: the
#: temp half of the atomic idiom, empty lock sidecars, append-only
#: diagnostics.  Everything else in scope must go through the helpers.
_NON_DURABLE_TARGET = re.compile(r"tmp|lock|log", re.IGNORECASE)


@register_rule
class AtomicWriteOnly(FileRule):
    """Durable store/queue/journal files are written temp+replace only.

    A bare ``open(path, "w")`` or ``path.write_text(...)`` on a blob,
    index, claim or journal path can be interrupted mid-write, leaving
    torn JSON that reads back as corruption (or worse, an empty
    index).  All such writes go through the ``atomic_write_text`` /
    ``atomic_write_json`` helpers; only temp files, lock sidecars and
    log streams may be written directly.  The crash harness
    (:mod:`repro.chaos`), whose job is manufacturing torn state, sits
    outside the scope, so nothing inside it is exempt.
    """

    rule_id = "atomic-write-only"
    summary = ("no bare open(path, 'w')/write_text on durable "
               "store/queue/journal paths; use the temp+replace helpers")
    scope = ("distrib/", "results/", "serve/", "experiments/orchestrator.py")

    def check_file(self, parsed: ParsedFile) -> Iterator[Finding]:
        blessed_spans: List[Tuple[int, int]] = []
        for func in _functions(parsed.tree):
            if _ATOMIC_HELPERS.match(func.name):
                blessed_spans.append(
                    (func.lineno, func.end_lineno or func.lineno)
                )

        def in_blessed(line: int) -> bool:
            return any(lo <= line <= hi for lo, hi in blessed_spans)

        for node in ast.walk(parsed.tree):
            if not isinstance(node, ast.Call):
                continue
            last = _last_segment(node)
            target: Optional[ast.AST] = None
            if last in ("write_text", "write_bytes") \
                    and isinstance(node.func, ast.Attribute):
                target = node.func.value
            elif last == "open" and node.args:
                mode = _str_const(node.args[1]) if len(node.args) > 1 else None
                for kw in node.keywords:
                    if kw.arg == "mode":
                        mode = _str_const(kw.value)
                if not (mode and any(c in mode for c in "wax")):
                    continue
                target = node.args[0]
            if target is None or in_blessed(node.lineno):
                continue
            name = _arg_name(target)
            if name and _NON_DURABLE_TARGET.search(name):
                continue
            shown = name or ast.unparse(target)
            yield Finding(
                file=parsed.rel, line=node.lineno, rule_id=self.rule_id,
                message=(
                    f"bare write to {shown!r}; durable paths must use "
                    "atomic_write_text/atomic_write_json (temp + "
                    "os.replace) so a crash never leaves torn JSON"
                ),
            )


# -- slots-on-hot-classes --------------------------------------------------


_SLOTS_EXEMPT_BASES = ("Exception", "BaseException", "Protocol", "Enum",
                       "IntEnum", "Flag", "NamedTuple")


def _base_names(node: ast.ClassDef) -> List[str]:
    names = []
    for base in node.bases:
        while isinstance(base, ast.Attribute):
            base = base.attr if isinstance(base.attr, str) else base.value
            if isinstance(base, str):
                names.append(base)
                break
        if isinstance(base, ast.Name):
            names.append(base.id)
    return names


def _declares_slots(node: ast.ClassDef) -> bool:
    for stmt in node.body:
        if isinstance(stmt, ast.Assign) and any(
            _arg_name(t) == "__slots__" for t in stmt.targets
        ):
            return True
        if isinstance(stmt, ast.AnnAssign) \
                and _arg_name(stmt.target) == "__slots__":
            return True
    for deco in node.decorator_list:
        if isinstance(deco, ast.Call) and _last_segment(deco) == "dataclass":
            for kw in deco.keywords:
                if kw.arg == "slots" and isinstance(kw.value, ast.Constant) \
                        and kw.value.value is True:
                    return True
    return False


@register_rule
class SlotsOnHotClasses(FileRule):
    """Classes on the simulation hot path declare ``__slots__``.

    The engine allocates cores, banks, requests and tracker state by
    the million; ``__slots__`` (or ``@dataclass(slots=True)``) keeps
    the instance layout flat, halves per-instance memory, and turns
    kernel attribute typos into immediate AttributeErrors instead of
    silently minted dict entries.  Exceptions, Protocols and Enums are
    exempt (their metaclasses manage layout).
    """

    rule_id = "slots-on-hot-classes"
    summary = ("classes in sim/, trackers/, memctrl/ declare __slots__ "
               "or use @dataclass(slots=True)")
    scope = ("sim/", "trackers/", "memctrl/")

    def check_file(self, parsed: ParsedFile) -> Iterator[Finding]:
        for node in ast.walk(parsed.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            bases = _base_names(node)
            if any(
                base in _SLOTS_EXEMPT_BASES
                or base.endswith(("Error", "Exception", "Warning"))
                for base in bases
            ):
                continue
            if _declares_slots(node):
                continue
            yield Finding(
                file=parsed.rel, line=node.lineno, rule_id=self.rule_id,
                message=(
                    f"class {node.name!r} is on the hot path but declares "
                    "no __slots__ (use __slots__ = (...) or "
                    "@dataclass(slots=True))"
                ),
            )


# -- no-alloc-in-kernels ---------------------------------------------------


#: Outer functions whose *inner* defs are per-event kernels: the
#: tracker raw-record closures and the scheme act/close/RFM kernel
#: builders.  The builders themselves run once per bank at bind time
#: and may allocate freely.
_KERNEL_BUILDER = re.compile(r"^(raw_kernel|_build_\w*kernels?)$")

_ALLOC_CALLS = {"list", "dict", "set", "frozenset", "sorted", "tuple"}

#: Per-event methods, by class: the controller step and the PRE/demand
#: helpers it calls run once per bank event, the event loop and the
#: issue path once per event.  Besides containers, these may not build
#: objects either: a call to a capitalized name is flagged unless it
#: sits in a ``raise`` statement.
_HOT_METHODS = {
    "ChannelController": {"step", "_serve_demand", "_close_row"},
    "SystemSimulator": {"run_until", "_try_issue"},
}


@register_rule
class NoAllocInKernels(FileRule):
    """Per-event kernel bodies allocate no containers.

    PR 3 rebuilt every tracker as allocation-free integer kernels —
    ``record_unit`` and the closures returned by ``raw_kernel`` /
    ``_build_*_kernels`` run once per ACT/PRE, and one list or dict
    born there re-introduces the per-event overhead that rebuild
    removed.  Bind-time code (the builder bodies) may allocate.  The
    same holds for the per-event methods in :data:`_HOT_METHODS`: the
    controller step and the fast engine's event loop, which also build
    no objects (a capitalized call) outside a ``raise``.
    """

    rule_id = "no-alloc-in-kernels"
    summary = ("no list/dict/set/comprehension allocation inside "
               "record_unit, act/close/RFM kernel closures, the "
               "controller step or the fast engine's event loop, and "
               "no object construction in the latter two")

    def check_file(self, parsed: ParsedFile) -> Iterator[Finding]:
        for node in ast.walk(parsed.tree):
            if isinstance(node, ast.ClassDef) and node.name in _HOT_METHODS:
                hot = _HOT_METHODS[node.name]
                for method in node.body:
                    if isinstance(method, ast.FunctionDef) \
                            and method.name in hot:
                        yield from self._scan_kernel(
                            parsed, method, f"{node.name}.{method.name}",
                            objects=True,
                        )
        for func in _functions(parsed.tree):
            if func.name == "record_unit":
                yield from self._scan_kernel(parsed, func, func.name)
            elif _KERNEL_BUILDER.match(func.name):
                for stmt in ast.walk(func):
                    if isinstance(stmt, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)) \
                            and stmt is not func:
                        yield from self._scan_kernel(
                            parsed, stmt, f"{func.name}.{stmt.name}"
                        )

    def _scan_kernel(
        self, parsed: ParsedFile, func: ast.FunctionDef, label: str,
        objects: bool = False,
    ) -> Iterator[Finding]:
        raised = {
            id(inner)
            for stmt in ast.walk(func) if isinstance(stmt, ast.Raise)
            for inner in ast.walk(stmt)
        }
        for node in ast.walk(func):
            alloc = None
            if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                 ast.GeneratorExp)):
                alloc = "a comprehension"
            elif isinstance(node, ast.List):
                alloc = "a list literal"
            elif isinstance(node, ast.Dict):
                alloc = "a dict literal"
            elif isinstance(node, ast.Set):
                alloc = "a set literal"
            elif isinstance(node, ast.Call) \
                    and _call_name(node) in _ALLOC_CALLS:
                alloc = f"{_call_name(node)}()"
            elif objects and isinstance(node, ast.Call) \
                    and _last_segment(node)[:1].isupper() \
                    and id(node) not in raised:
                alloc = f"{_last_segment(node)}() object construction"
            if alloc is not None:
                yield Finding(
                    file=parsed.rel, line=node.lineno, rule_id=self.rule_id,
                    message=(
                        f"{alloc} inside hot kernel {label!r}; kernels "
                        "run per-event and must stay allocation-free"
                    ),
                )


# -- no-wallclock-nondeterminism -------------------------------------------


_WALLCLOCK_CALLS = {
    "time.time", "time.time_ns", "time.monotonic", "time.perf_counter",
    "datetime.now", "datetime.utcnow", "datetime.today", "date.today",
}


@register_rule
class NoWallclockNondeterminism(FileRule):
    """Simulation state never reads the clock or an unseeded RNG.

    Byte-identical replay — the property every chaos/equivalence test
    asserts — dies the moment anything in the simulation tiers calls
    ``time.time()``, ``datetime.now()``, an unseeded
    ``random.Random()``, or the module-level ``random.*`` functions
    (whose global state any import may perturb).  RNGs must be seeded
    from the recipe (``random.Random(seed)``).
    """

    rule_id = "no-wallclock-nondeterminism"
    summary = ("no time.time/datetime.now/unseeded RNG in sim/, "
               "trackers/, workloads/, scenarios/")
    scope = ("sim/", "trackers/", "workloads/", "scenarios/")

    def check_file(self, parsed: ParsedFile) -> Iterator[Finding]:
        for node in ast.walk(parsed.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node)
            if name in _WALLCLOCK_CALLS:
                yield Finding(
                    file=parsed.rel, line=node.lineno, rule_id=self.rule_id,
                    message=(
                        f"{name}() in simulation code breaks deterministic "
                        "replay; derive values from the recipe instead"
                    ),
                )
            elif name == "random.Random" and not node.args \
                    and not node.keywords:
                yield Finding(
                    file=parsed.rel, line=node.lineno, rule_id=self.rule_id,
                    message=(
                        "unseeded random.Random() in simulation code; "
                        "seed it from the recipe (random.Random(seed))"
                    ),
                )
            elif name.startswith("random.") \
                    and name.count(".") == 1 \
                    and name.rsplit(".", 1)[-1] not in (
                        "Random", "SystemRandom"):
                yield Finding(
                    file=parsed.rel, line=node.lineno, rule_id=self.rule_id,
                    message=(
                        f"module-level {name}() uses the shared global RNG "
                        "stream; use a recipe-seeded random.Random(seed)"
                    ),
                )


# -- simresult-parity ------------------------------------------------------


def _simresult_fields(stats: ParsedFile) -> Tuple[Set[str], Set[str], int]:
    """(all fields, mutable fields, class line) of ``SimResult``."""
    for node in ast.walk(stats.tree):
        if isinstance(node, ast.ClassDef) and node.name == "SimResult":
            fields: Set[str] = set()
            mutable: Set[str] = set()
            for stmt in node.body:
                if not isinstance(stmt, ast.AnnAssign):
                    continue
                name = _arg_name(stmt.target)
                if name is None or name.startswith("_"):
                    continue
                fields.add(name)
                if isinstance(stmt.annotation, ast.Subscript):
                    mutable.add(name)
                elif stmt.value is not None \
                        and isinstance(stmt.value, ast.Call) \
                        and _last_segment(stmt.value) == "field" \
                        and any(kw.arg == "default_factory"
                                for kw in stmt.value.keywords):
                    mutable.add(name)
            return fields, mutable, node.lineno
    return set(), set(), 1


def _constructor_kwargs(parsed: ParsedFile,
                        callee: str) -> List[Tuple[int, Set[str]]]:
    calls = []
    for node in ast.walk(parsed.tree):
        if isinstance(node, ast.Call) and _last_segment(node) == callee:
            kwargs = {kw.arg for kw in node.keywords if kw.arg is not None}
            calls.append((node.lineno, kwargs))
    return calls


def _json_dict_keys(parsed: ParsedFile, func_name: str) -> Set[str]:
    """String keys of the dict literal returned by ``SimResult.<func>``."""
    for node in ast.walk(parsed.tree):
        if isinstance(node, ast.FunctionDef) and node.name == func_name:
            for stmt in ast.walk(node):
                if isinstance(stmt, ast.Return) \
                        and isinstance(stmt.value, ast.Dict):
                    return {
                        key for key in (
                            _str_const(k) for k in stmt.value.keys
                            if k is not None
                        ) if key is not None
                    }
    return set()


@register_rule
class SimResultParity(Rule):
    """Both engines and the batch tier agree on ``SimResult`` fields.

    The cross-module check: the ``SimResult(...)`` constructions in
    ``sim/system.py`` and ``sim/reference.py`` must each pass *every*
    dataclass field explicitly (a new metric collected by one engine
    only is exactly the bug class the equivalence matrix catches too
    late), ``to_json``/``from_json`` must round-trip every field, and
    the batch tier's follower substitution list
    (``dataclasses.replace`` in ``_follower_result``) must copy every
    mutable field so group siblings never share containers.
    """

    rule_id = "simresult-parity"
    summary = ("SimResult fields assigned by sim/system.py, "
               "sim/reference.py and the batch substitution list agree")

    _ROLES = {
        "sim/stats.py": "stats",
        "sim/system.py": "system",
        "sim/reference.py": "reference",
        "sim/batch.py": "batch",
    }

    def check(self, files: Sequence[ParsedFile]) -> Iterator[Finding]:
        by_role: Dict[str, ParsedFile] = {}
        for parsed in files:
            for suffix, role in self._ROLES.items():
                if parsed.rel.endswith(suffix):
                    by_role[role] = parsed
        stats = by_role.get("stats")
        if stats is None:
            return          # scope does not include the sim package
        fields, mutable, class_line = _simresult_fields(stats)
        if not fields:
            return

        for role in ("system", "reference"):
            parsed = by_role.get(role)
            if parsed is None:
                continue
            for line, kwargs in _constructor_kwargs(parsed, "SimResult"):
                missing = fields - kwargs
                unknown = kwargs - fields
                if missing:
                    yield Finding(
                        file=parsed.rel, line=line, rule_id=self.rule_id,
                        message=(
                            "SimResult(...) does not assign "
                            f"{sorted(missing)}; every engine must collect "
                            "every field or the equivalence matrix drifts"
                        ),
                    )
                if unknown:
                    yield Finding(
                        file=parsed.rel, line=line, rule_id=self.rule_id,
                        message=(
                            f"SimResult(...) passes unknown field(s) "
                            f"{sorted(unknown)}"
                        ),
                    )

        for func_name in ("to_json", "from_json"):
            keys = (
                _json_dict_keys(stats, func_name)
                if func_name == "to_json"
                else {
                    kw
                    for _line, kwargs in _constructor_kwargs(stats, "cls")
                    for kw in kwargs
                }
            )
            if keys and keys != fields:
                diff = sorted(fields.symmetric_difference(keys))
                yield Finding(
                    file=stats.rel, line=class_line, rule_id=self.rule_id,
                    message=(
                        f"SimResult.{func_name} does not round-trip "
                        f"field(s) {diff}; store blobs would silently "
                        "drop them"
                    ),
                )

        batch = by_role.get("batch")
        if batch is not None:
            for line, kwargs in _constructor_kwargs(batch, "replace"):
                if not kwargs:
                    continue
                unknown = kwargs - fields
                uncopied = mutable - kwargs
                if unknown:
                    yield Finding(
                        file=batch.rel, line=line, rule_id=self.rule_id,
                        message=(
                            "follower substitution list names unknown "
                            f"SimResult field(s) {sorted(unknown)}"
                        ),
                    )
                if uncopied:
                    yield Finding(
                        file=batch.rel, line=line, rule_id=self.rule_id,
                        message=(
                            "follower substitution list does not copy "
                            f"mutable field(s) {sorted(uncopied)}; group "
                            "siblings would share one container"
                        ),
                    )
