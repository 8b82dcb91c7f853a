"""The guarded-by static checker.

An :mod:`ast` pass that inventories every module-level mutable object
(dicts, lists, sets, registries built via ``shared_state``) and verifies
that every mutation reachable from function scope happens lexically
inside a ``with <lock>:`` block on the lock named by the structure's
``# guarded-by: <LockName>`` annotation.

The convention (see ``docs/static-analysis.md``):

* A module-level structure is annotated with a ``# guarded-by:`` comment
  on its assignment line (or the line directly above)::

      _FOO_LOCK = guard_lock("pkg.module.FOO")
      FOO = shared_state(  # guarded-by: _FOO_LOCK
          "pkg.module.FOO", {"hits": 0}, _FOO_LOCK,
      )

* An instance field is annotated the same way on its ``self.<field> =``
  line in ``__init__``, naming a lock attribute of the same class
  (``self._count = 0  # guarded-by: _stats_lock``); writes through
  ``self`` in the class's other methods are then checked like the above.
* Module-top-level writes (the initial literal, import-time setup) and
  writes inside ``__init__`` are init-time and always allowed.
* A deliberate unguarded mutation site carries an
  ``# unguarded-ok: <reason>`` comment on the mutating line (or the line
  directly above); the reason is mandatory and shows up in reviews.
* Everything else is a violation, and ``repro lint`` fails on it.

Rules:

* ``unannotated-shared-state`` — a module-level mutable object is mutated
  from function scope but carries no ``# guarded-by:`` annotation.
* ``unguarded-mutation`` — a mutation of an annotated structure outside a
  ``with`` block on its guard lock.
* ``unknown-guard-lock`` — a ``# guarded-by:`` annotation names a lock the
  module never defines.
* ``unsynchronized-global-rebind`` — a ``global NAME`` rebind from
  function scope with neither a guard lock held nor an ``# unguarded-ok:``
  allowlist comment (lazy singletons and config knobs must choose one).
"""

import ast
import os
import re

from repro.analysis.code_lint import Violation, walk_sources

#: rule id -> one-line description (the catalog).
CONCURRENCY_RULES = {
    "unannotated-shared-state":
        "module-level mutable state mutated from function scope needs a "
        "# guarded-by: annotation",
    "unguarded-mutation":
        "annotated shared state is only mutated under its guard lock",
    "unknown-guard-lock":
        "# guarded-by: must name a lock defined in the same module",
    "unsynchronized-global-rebind":
        "global rebinds from function scope need a guard lock or an "
        "# unguarded-ok: reason",
}

GUARD_COMMENT_RE = re.compile(r"#\s*guarded-by:\s*([A-Za-z_][A-Za-z0-9_]*)")
ALLOW_COMMENT_RE = re.compile(r"#\s*unguarded-ok:\s*(\S.*)$")

#: Callables whose result is a lock object.
_LOCK_FACTORIES = frozenset({
    "Lock", "RLock", "guard_lock", "InstrumentedLock",
})

#: Callables whose result is a mutable container.
_CONTAINER_FACTORIES = frozenset({
    "dict", "list", "set", "OrderedDict", "defaultdict", "deque",
    "Counter", "shared_state",
})

#: Method names that mutate their receiver (dict / list / set / deque /
#: :class:`~repro.observe.metrics.Histogram`).
MUTATING_METHODS = frozenset({
    "append", "extend", "insert", "remove", "pop", "popitem", "clear",
    "update", "setdefault", "add", "discard", "move_to_end", "sort",
    "reverse", "appendleft", "popleft", "observe",
})


def _call_name(func):
    """The trailing name of a call target (``threading.Lock`` -> "Lock")."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _classify_value(value):
    """"lock" / "container" / None for a module-level assignment value."""
    if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.DictComp,
                          ast.ListComp, ast.SetComp)):
        return "container"
    if isinstance(value, ast.Call):
        name = _call_name(value.func)
        if name in _LOCK_FACTORIES:
            return "lock"
        if name in _CONTAINER_FACTORIES:
            return "container"
    return None


def _self_field(expr):
    """``field`` when *expr* is exactly ``self.field``."""
    if (
        isinstance(expr, ast.Attribute)
        and isinstance(expr.value, ast.Name)
        and expr.value.id == "self"
    ):
        return expr.attr
    return None


def _lock_name(expr):
    """The lock a ``with`` item acquires, by local or attribute name."""
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return expr.attr
    return None


def _comment_maps(source):
    """Per-line ``guarded-by`` / ``unguarded-ok`` comments.

    An ``# unguarded-ok:`` comment covers its own line and — when it
    opens a block of comment-only lines — the first code line after the
    block, so multi-line justifications work.
    """
    guards, allows = {}, {}
    pending_allow = None
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = GUARD_COMMENT_RE.search(line)
        if match:
            guards[lineno] = match.group(1)
        match = ALLOW_COMMENT_RE.search(line)
        if match:
            allows[lineno] = match.group(1)
        stripped = line.strip()
        if stripped.startswith("#"):
            if match:
                pending_allow = match.group(1)
        elif stripped:
            if pending_allow is not None:
                allows.setdefault(lineno, pending_allow)
            pending_allow = None
    return guards, allows


class ModuleInventory:
    """Module-level locks, annotated names, and mutable containers."""

    def __init__(self):
        self.locks = {}       # lock name -> def lineno
        self.annotated = {}   # name -> (guard lock name, def lineno)
        self.containers = {}  # name -> def lineno

    @classmethod
    def collect(cls, tree, guards):
        inventory = cls()
        for node in tree.body:
            for name, value, lineno in _module_assignments(node):
                kind = _classify_value(value)
                if kind == "lock":
                    # ``with self._lock:`` resolves to the bare attribute.
                    bare = name.rpartition(".")[2]
                    inventory.locks.setdefault(bare, lineno)
                    continue
                guard = guards.get(lineno) or guards.get(lineno - 1)
                if guard is not None:
                    inventory.annotated.setdefault(name, (guard, lineno))
                if kind == "container" and "." not in name:
                    inventory.containers.setdefault(name, lineno)
        return inventory


def _module_assignments(node):
    """``(name, value, lineno)`` for simple module-level assignments and,
    named ``"Class.field"``, for ``self.field = ...`` inside a class."""
    if isinstance(node, ast.ClassDef):
        for inner in ast.walk(node):
            if isinstance(inner, ast.Assign):
                for field in filter(None, map(_self_field, inner.targets)):
                    yield f"{node.name}.{field}", inner.value, inner.lineno
    elif isinstance(node, ast.Assign):
        for target in node.targets:
            if isinstance(target, ast.Name):
                yield target.id, node.value, node.lineno
    elif isinstance(node, ast.AnnAssign) and node.value is not None:
        if isinstance(node.target, ast.Name):
            yield node.target.id, node.value, node.lineno


class _GuardChecker(ast.NodeVisitor):
    def __init__(self, relpath, inventory, allows):
        self.relpath = relpath
        self.inventory = inventory
        self.allows = allows
        self.violations = []
        self.scope = []        # dotted scope names (classes + functions)
        self.functions = []    # per-function {"globals", "locals"}
        self.held = []         # stack of lock-name sets from with blocks
        self.classes = []      # enclosing class names

    # -- plumbing -------------------------------------------------------

    def _scope_name(self):
        return ".".join(self.scope) if self.scope else "<module>"

    def _emit(self, rule, node, symbol, message):
        self.violations.append(Violation(
            rule=rule,
            severity="error",
            path=self.relpath,
            line=getattr(node, "lineno", 0),
            scope=self._scope_name(),
            symbol=symbol,
            message=message,
        ))

    def _allowed(self, lineno):
        return lineno in self.allows or (lineno - 1) in self.allows

    def _holding(self, lock):
        return any(lock in frame for frame in self.held)

    def _in_function(self):
        return bool(self.functions)

    def _is_module_name(self, name):
        """Does *name* refer to module scope inside the current function?"""
        for frame in reversed(self.functions):
            if name in frame["globals"]:
                return True
            if name in frame["locals"]:
                return False
        return True

    # -- scope tracking -------------------------------------------------

    def visit_ClassDef(self, node):
        self.scope.append(node.name)
        self.classes.append(node.name)
        self.generic_visit(node)
        self.classes.pop()
        self.scope.pop()

    def _visit_function(self, node):
        self.scope.append(node.name)
        self.functions.append({
            "globals": _global_decls(node),
            "locals": _local_bindings(node),
        })
        self.generic_visit(node)
        self.functions.pop()
        self.scope.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_With(self, node):
        names = set()
        for item in node.items:
            lock = _lock_name(item.context_expr)
            if lock is not None:
                names.add(lock)
        self.held.append(names)
        self.generic_visit(node)
        self.held.pop()

    visit_AsyncWith = visit_With

    # -- mutation sites -------------------------------------------------

    def _root(self, expr):
        """The root of a subscript/attribute chain: a ``Name``, or — in a
        class — ``"Class.field"`` for a chain rooted at ``self.field``."""
        while isinstance(expr, (ast.Subscript, ast.Attribute)):
            if self.classes and _self_field(expr) is not None:
                return f"{self.classes[-1]}.{expr.attr}"
            expr = expr.value
        return expr.id if isinstance(expr, ast.Name) else None

    def _check_mutation(self, name, node, op):
        """A container mutation (subscript store, mutating method)."""
        if name is None or not self._in_function():
            return
        if "." in name and self.scope[-1] == "__init__":
            return  # the instance is not shared yet
        if not self._is_module_name(name):
            return
        annotated = self.inventory.annotated.get(name)
        if annotated is not None:
            guard = annotated[0]
            if self._holding(guard) or self._allowed(node.lineno):
                return
            self._emit(
                "unguarded-mutation", node, name,
                f"{op} on {name} outside `with {guard}:` — the structure "
                f"is annotated guarded-by {guard}; take the lock or mark "
                "the site # unguarded-ok: <reason>",
            )
        elif name in self.inventory.containers:
            if self._allowed(node.lineno):
                return
            self._emit(
                "unannotated-shared-state", node, name,
                f"{op} on module-level {name} from function scope, but "
                f"{name} has no # guarded-by: annotation — wrap it with "
                "repro.observe.race.shared_state and annotate its guard "
                "lock (see docs/static-analysis.md)",
            )

    def _check_rebind(self, name, node):
        """A ``global NAME`` rebind from function scope."""
        annotated = self.inventory.annotated.get(name)
        if annotated is not None:
            guard = annotated[0]
            if self._holding(guard) or self._allowed(node.lineno):
                return
            self._emit(
                "unguarded-mutation", node, name,
                f"rebind of {name} outside `with {guard}:` — the name is "
                f"annotated guarded-by {guard}",
            )
        elif name in self.inventory.containers:
            self._check_mutation(name, node, "rebind")
        else:
            if self._allowed(node.lineno) or self.held:
                return
            self._emit(
                "unsynchronized-global-rebind", node, name,
                f"global rebind of {name} from function scope without a "
                "lock: guard it (annotate the definition # guarded-by:) "
                "or mark the site # unguarded-ok: <reason>",
            )

    def _check_target(self, target, node):
        if isinstance(target, ast.Subscript):
            self._check_mutation(self._root(target), node, "item write")
        elif isinstance(target, ast.Attribute):
            name = self._root(target)
            if name is not None and "." in name:
                self._check_mutation(name, node, "field write")
        elif isinstance(target, ast.Name) and self._in_function():
            if any(target.id in f["globals"] for f in self.functions):
                self._check_rebind(target.id, node)

    def visit_Assign(self, node):
        for target in node.targets:
            if isinstance(target, (ast.Tuple, ast.List)):
                for element in target.elts:
                    self._check_target(element, node)
            else:
                self._check_target(target, node)
        self.generic_visit(node)

    def visit_AugAssign(self, node):
        self._check_target(node.target, node)
        self.generic_visit(node)

    def visit_AnnAssign(self, node):
        if node.value is not None:
            self._check_target(node.target, node)
        self.generic_visit(node)

    def visit_Delete(self, node):
        for target in node.targets:
            if isinstance(target, ast.Subscript):
                self._check_mutation(self._root(target), node, "item delete")
        self.generic_visit(node)

    def visit_Call(self, node):
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in MUTATING_METHODS:
            self._check_mutation(
                self._root(func.value), node, f".{func.attr}()"
            )
        self.generic_visit(node)


def _global_decls(func_node):
    """Names declared ``global`` directly inside *func_node*."""
    names = set()
    for node in ast.walk(func_node):
        if isinstance(node, ast.Global):
            names.update(node.names)
    return names


def _local_bindings(func_node):
    """Names bound locally in *func_node* (params + simple assignments)."""
    names = set()
    args = func_node.args
    for arg in (
        list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
    ):
        names.add(arg.arg)
    if args.vararg is not None:
        names.add(args.vararg.arg)
    if args.kwarg is not None:
        names.add(args.kwarg.arg)
    declared_global = _global_decls(func_node)

    def bind(target):
        if isinstance(target, ast.Name):
            if target.id not in declared_global:
                names.add(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                bind(element)

    for node in ast.walk(func_node):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                bind(target)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            bind(node.target)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            bind(node.target)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if item.optional_vars is not None:
                    bind(item.optional_vars)
    return names


def check_source(source, relpath):
    """Guarded-by check of one module's source text.

    *relpath* is package-relative (e.g. ``"repro/engine/buffer.py"``).
    Returns :class:`~repro.analysis.code_lint.Violation` in line order.
    """
    tree = ast.parse(source, filename=relpath)
    relpath = relpath.replace(os.sep, "/")
    guards, allows = _comment_maps(source)
    inventory = ModuleInventory.collect(tree, guards)
    checker = _GuardChecker(relpath, inventory, allows)
    checker.visit(tree)
    for name, (guard, lineno) in sorted(inventory.annotated.items()):
        if guard not in inventory.locks:
            checker.violations.append(Violation(
                rule="unknown-guard-lock",
                severity="error",
                path=relpath,
                line=lineno,
                scope="<module>",
                symbol=name,
                message=(
                    f"{name} is annotated guarded-by {guard}, but the "
                    f"module defines no lock named {guard}"
                ),
            ))
    return sorted(
        checker.violations,
        key=lambda v: (v.path, v.line, v.rule, v.symbol),
    )


def check_paths(paths):
    """Guarded-by check of files and directory trees (see
    :func:`repro.analysis.code_lint.walk_sources` for path keying)."""
    violations = []
    for relpath, source in walk_sources(paths):
        violations.extend(check_source(source, relpath))
    return sorted(
        violations, key=lambda v: (v.path, v.line, v.rule, v.symbol)
    )


def check_package():
    """Guarded-by check of the installed :mod:`repro` package tree."""
    return check_paths(None)
