"""Project-specific AST checkers.

Each checker is a function ``(path, tree, source_lines) -> [Finding]``
registered in :data:`CHECKERS` with the path prefixes it applies to
(``()`` = every file).  Suppress a single line with a trailing
``# lint: allow-<rule>`` comment.
"""

from __future__ import annotations

import ast
from dataclasses import asdict, dataclass

#: Subtrees whose code runs under the simulated cluster clock.  Real
#: wall-clock or unseeded randomness there breaks the determinism the
#: fault-injection harness (PR 3) depends on.
SIMULATED_CLOCK_PATHS = (
    "src/repro/hyracks/",
    "src/repro/resilience/",
    "src/repro/txn/",
    "src/repro/extensions/feeds",
)

#: Subtrees with retry loops that must not swallow injected faults.
RETRY_PATHS = (
    "src/repro/resilience/",
    "src/repro/txn/",
    "src/repro/extensions/feeds",
)

#: Wall-clock calls forbidden in simulated-clock paths.  time.perf_counter
#: is allowed: it measures *real* elapsed work for profiles/metrics and
#: never feeds back into simulated behaviour.
_WALLCLOCK_CALLS = {
    ("time", "time"), ("time", "time_ns"), ("time", "monotonic"),
    ("time", "monotonic_ns"), ("time", "sleep"),
    ("datetime", "now"), ("datetime", "utcnow"), ("datetime", "today"),
    ("date", "today"),
}

#: ``random.<fn>()`` uses the shared, unseeded module RNG; a constructed
#: ``random.Random(seed)`` instance is the sanctioned alternative.
_RANDOM_MODULE_OK = {"Random", "SystemRandom"}


@dataclass
class Finding:
    """One lint violation."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def to_dict(self) -> dict:
        return asdict(self)

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: " \
               f"[{self.rule}] {self.message}"


def _allowed(source_lines, lineno: int, rule: str) -> bool:
    """Is the finding suppressed by a `# lint: allow-<rule>` comment?"""
    if 1 <= lineno <= len(source_lines):
        return f"lint: allow-{rule}" in source_lines[lineno - 1]
    return False


def _dotted(node: ast.AST):
    """``a.b`` -> ("a", "b") for Name-rooted attribute access."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return (node.value.id, node.attr)
    return None


# --- checker: no wall-clock / unseeded randomness in simulated paths --------

def check_wallclock(path: str, tree: ast.AST, source_lines) -> list:
    """no-wallclock: time.time/datetime.now/random.random etc. in
    simulated-clock subtrees (the cluster clock is logical there)."""
    findings = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        ref = _dotted(node.func)
        if ref is None:
            continue
        bad = None
        if ref in _WALLCLOCK_CALLS:
            bad = f"{ref[0]}.{ref[1]}() reads the wall clock"
        elif ref[0] == "random" and ref[1] not in _RANDOM_MODULE_OK:
            bad = (f"random.{ref[1]}() uses the shared unseeded RNG; "
                   f"use a seeded random.Random(seed) instance")
        if bad and not _allowed(source_lines, node.lineno, "wallclock"):
            findings.append(Finding(
                path, node.lineno, node.col_offset, "no-wallclock",
                f"{bad} inside a simulated-clock path",
            ))
    return findings


# --- checker: node shared state only under node.lock ------------------------

def _is_node_ref(node: ast.AST) -> bool:
    """``node`` or ``self.node`` / ``<x>.node``."""
    if isinstance(node, ast.Name) and node.id == "node":
        return True
    return isinstance(node, ast.Attribute) and node.attr == "node"


def _is_node_lock_with(item: ast.withitem) -> bool:
    """``with node.lock:`` / ``with self.node.lock:``."""
    expr = item.context_expr
    return isinstance(expr, ast.Attribute) and expr.attr == "lock" \
        and _is_node_ref(expr.value)


class _NodeLockVisitor(ast.NodeVisitor):
    def __init__(self, path, source_lines):
        self.path = path
        self.source_lines = source_lines
        self.depth = 0          # nesting inside `with node.lock`
        self.findings = []

    def visit_With(self, node: ast.With):
        locked = any(_is_node_lock_with(item) for item in node.items)
        self.depth += locked
        self.generic_visit(node)
        self.depth -= locked

    def _flag(self, target: ast.AST, lineno: int, col: int):
        if isinstance(target, ast.Attribute) and _is_node_ref(target.value) \
                and target.attr != "lock" and self.depth == 0 \
                and not _allowed(self.source_lines, lineno, "node-lock"):
            self.findings.append(Finding(
                self.path, lineno, col, "node-lock",
                f"mutation of shared node state ({ast.unparse(target)}) "
                f"outside a `with node.lock` block",
            ))

    def visit_Assign(self, node: ast.Assign):
        for target in node.targets:
            self._flag(target, node.lineno, node.col_offset)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign):
        self._flag(node.target, node.lineno, node.col_offset)
        self.generic_visit(node)


def check_node_lock(path: str, tree: ast.AST, source_lines) -> list:
    """node-lock: assignments to ``node.<attr>`` / ``self.node.<attr>``
    must sit inside a ``with node.lock:`` block (streaming operators run
    on several node worker threads at once)."""
    visitor = _NodeLockVisitor(path, source_lines)
    visitor.visit(tree)
    return visitor.findings


# --- checker: no swallowed faults in retry paths ----------------------------

def _swallows(handler: ast.ExceptHandler) -> bool:
    """A handler swallows when its body neither raises nor does any real
    work (only pass/continue/constant-expression statements)."""
    for stmt in handler.body:
        if isinstance(stmt, (ast.Pass, ast.Continue)):
            continue
        if isinstance(stmt, ast.Expr) and \
                isinstance(stmt.value, ast.Constant):
            continue   # docstring / ellipsis
        return False
    return True


def _catches_broad_exception(node: ast.ExceptHandler) -> bool:
    """True when the handler names ``Exception`` (alone or in a tuple) —
    broad enough to absorb injected resilience/memory-pressure faults."""
    types = (node.type.elts if isinstance(node.type, ast.Tuple)
             else [node.type])
    return any(isinstance(t, ast.Name) and t.id == "Exception"
               for t in types)


def check_swallowed_faults(path: str, tree: ast.AST, source_lines) -> list:
    """swallowed-fault: bare ``except:`` and ``except Exception``
    anywhere; in retry paths, any handler that silently discards the
    exception (body of pass/continue only) — injected faults must
    surface or be deliberately re-raised."""
    findings = []
    in_retry_path = any(p in path for p in RETRY_PATHS)
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if _allowed(source_lines, node.lineno, "swallow"):
            continue
        if node.type is None:
            findings.append(Finding(
                path, node.lineno, node.col_offset, "swallowed-fault",
                "bare `except:` catches injected faults and "
                "KeyboardInterrupt alike; name the exception type",
            ))
        elif _catches_broad_exception(node):
            findings.append(Finding(
                path, node.lineno, node.col_offset, "swallowed-fault",
                "`except Exception` absorbs injected faults (resilience, "
                "memory pressure) alongside real errors; narrow to the "
                "specific types or annotate `# lint: allow-swallow`",
            ))
        elif in_retry_path and _swallows(node):
            caught = ast.unparse(node.type)
            findings.append(Finding(
                path, node.lineno, node.col_offset, "swallowed-fault",
                f"`except {caught}` silently swallows the exception in a "
                f"retry path; re-raise, handle, or record it",
            ))
    return findings


# --- checker: temp files must be paired with their release ------------------

def _function_calls(func: ast.AST):
    """Attribute/Name call targets inside ``func``, excluding nested
    function bodies (a release in a nested closure isn't a release on
    this function's paths)."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue                   # don't descend into nested scopes
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Attribute):
                yield node, node.func.attr
            elif isinstance(node.func, ast.Name):
                yield node, node.func.id
        stack.extend(ast.iter_child_nodes(node))


def check_temp_pairing(path: str, tree: ast.AST, source_lines) -> list:
    """temp-pairing: in operator/runtime code, a function that creates a
    temp file must also arrange its release on the same function's
    paths — ``make_temp_file`` pairs with ``release_temp_file``, and a
    ``RunFileWriter`` must reach ``finish()`` (which transfers ownership
    to the reader that deletes the file).  The sanctioned
    ownership-transfer points suppress with ``# lint: allow-temp-pairing``.
    """
    findings = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        makes, writers = [], []
        names = set()
        for call, name in _function_calls(func):
            names.add(name)
            if name == "make_temp_file":
                makes.append(call)
            elif name == "RunFileWriter":
                writers.append(call)
        for call in makes:
            if "release_temp_file" in names:
                continue
            if _allowed(source_lines, call.lineno, "temp-pairing"):
                continue
            findings.append(Finding(
                path, call.lineno, call.col_offset, "temp-pairing",
                f"make_temp_file in `{func.name}` without a "
                f"release_temp_file on the same function's paths; the "
                f"file leaks if this function is the owner",
            ))
        for call in writers:
            if "finish" in names:
                continue
            if _allowed(source_lines, call.lineno, "temp-pairing"):
                continue
            findings.append(Finding(
                path, call.lineno, call.col_offset, "temp-pairing",
                f"RunFileWriter in `{func.name}` never reaches finish(); "
                f"the temp file has no reader to delete it",
            ))
    return findings


# --- checker: unused module-level imports -----------------------------------

def check_unused_imports(path: str, tree: ast.AST, source_lines) -> list:
    """unused-import: a module-level import never referenced in the file.
    __init__.py files are exempt (imports there are re-exports)."""
    if path.endswith("__init__.py"):
        return []
    imported = {}        # bound name -> (lineno, col, shown name)
    for node in tree.body if isinstance(tree, ast.Module) else []:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = (node.lineno, node.col_offset, alias.name)
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue    # used by the compiler, not by name
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name
                imported[bound] = (node.lineno, node.col_offset, alias.name)
    if not imported:
        return []
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            root = node
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name):
                used.add(root.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)      # __all__ entries, doctest strings
    findings = []
    for bound, (lineno, col, shown) in sorted(imported.items(),
                                              key=lambda kv: kv[1][0]):
        if bound not in used and not _allowed(source_lines, lineno,
                                              "unused-import") \
                and "noqa" not in source_lines[lineno - 1]:
            findings.append(Finding(
                path, lineno, col, "unused-import",
                f"`{shown}` is imported but never used",
            ))
    return findings


#: rule registry: (checker, path prefixes it applies to; () = all files)
CHECKERS = (
    (check_wallclock, SIMULATED_CLOCK_PATHS),
    (check_node_lock, ("src/repro/hyracks/",)),
    (check_temp_pairing, ("src/repro/hyracks/", "src/repro/storage/")),
    (check_swallowed_faults, ()),
    (check_unused_imports, ()),
)


def lint_source(source: str, path: str = "<string>",
                checkers=CHECKERS) -> list:
    """Lint one source string as if it lived at ``path``."""
    tree = ast.parse(source, filename=path)
    lines = source.splitlines()
    findings = []
    for checker, prefixes in checkers:
        if prefixes and not any(p in path for p in prefixes):
            continue
        findings.extend(checker(path, tree, lines))
    return sorted(findings, key=lambda f: (f.path, f.line, f.col))


def lint_file(path: str, checkers=CHECKERS) -> list:
    with open(path, encoding="utf-8") as f:
        return lint_source(f.read(), path, checkers)
