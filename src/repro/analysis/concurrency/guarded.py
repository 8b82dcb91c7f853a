"""The concurrency static checker: guarded-by discipline and leaf locks.

One :mod:`ast` walk per module inventories every lock and every
module-level mutable object (dicts, lists, sets, registries built via
``shared_state``), verifies that every mutation reachable from function
scope happens lexically inside a ``with <lock>:`` block on the lock
named by the structure's ``# guarded-by: <LockName>`` annotation, and
records each function's lock acquisitions and resolvable calls for the
package-wide leaf rule.

The convention (see ``docs/static-analysis.md``):

* A module-level structure is annotated with a ``# guarded-by:`` comment
  on its assignment line (or on a comment-only line directly above)::

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
* Every lock is a leaf: nothing else is acquired while it is held.
* Everything else is a violation, and ``repro lint`` fails on it.

Locks are module-level and ``self.<field>`` assignments of ``Lock``,
``RLock``, ``Condition``, ``Semaphore``, ``BoundedSemaphore``,
``guard_lock`` and ``InstrumentedLock``; instance locks are modelled one
per class attribute.
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
    "lock-not-leaf":
        "no lock is acquired, lexically or through a resolvable call, "
        "while another lock is held",
}

GUARD_COMMENT_RE = re.compile(r"#\s*guarded-by:\s*([A-Za-z_][A-Za-z0-9_]*)")
ALLOW_COMMENT_RE = re.compile(r"#\s*unguarded-ok:\s*(\S.*)$")

#: Callables whose result is a lock -> whether it is reentrant.  A
#: ``reentrant=`` keyword overrides; ``Condition(lock)`` is exactly as
#: reentrant as *lock* (a bare ``Condition()`` wraps an ``RLock``).
_LOCK_FACTORIES = {
    "Lock": False, "RLock": True, "Condition": True,
    "Semaphore": False, "BoundedSemaphore": False,
    "guard_lock": False, "InstrumentedLock": False,
}

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


def _lock_reentrancy(value):
    """None unless *value* builds a lock; else whether it is reentrant."""
    if not isinstance(value, ast.Call):
        return None
    name = _call_name(value.func)
    if name not in _LOCK_FACTORIES:
        return None
    reentrant = _LOCK_FACTORIES[name]
    if name == "Condition":
        inner = value.args[0] if value.args else next(
            (k.value for k in value.keywords if k.arg == "lock"), None
        )
        if inner is not None:  # an unknown lock counts as not reentrant
            reentrant = bool(_lock_reentrancy(inner))
    for keyword in value.keywords:
        if keyword.arg == "reentrant":
            reentrant = not (
                isinstance(keyword.value, ast.Constant)
                and not keyword.value.value
            )
    return reentrant


def _is_container(value):
    if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.DictComp,
                          ast.ListComp, ast.SetComp)):
        return True
    return (
        isinstance(value, ast.Call)
        and _call_name(value.func) in _CONTAINER_FACTORIES
    )


def _self_field(expr):
    """``field`` when *expr* is exactly ``self.field``."""
    if (
        isinstance(expr, ast.Attribute)
        and isinstance(expr.value, ast.Name)
        and expr.value.id == "self"
    ):
        return expr.attr
    return None


def _module_name(relpath):
    """Dotted module for a package-relative path."""
    parts = relpath.removesuffix(".py").split("/")
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _comment_maps(source):
    """Per-line ``guarded-by`` / ``unguarded-ok`` comments.

    A ``# guarded-by:`` on a comment-only line annotates the line below
    it; one trailing a statement annotates that statement alone.  An
    ``# unguarded-ok:`` comment covers its own line and — when it opens a
    block of comment-only lines — the first code line after the block,
    so multi-line justifications work.
    """
    guards, allows = {}, {}
    pending_allow = None
    for lineno, line in enumerate(source.splitlines(), start=1):
        stripped = line.strip()
        match = GUARD_COMMENT_RE.search(line)
        if match:
            below = stripped.startswith("#")
            guards[lineno + 1 if below else lineno] = match.group(1)
        match = ALLOW_COMMENT_RE.search(line)
        if match:
            allows[lineno] = match.group(1)
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
        self.locks = {}       # "NAME" / "Class.field" -> reentrant
        self.annotated = {}   # name -> (guard lock name, def lineno)
        self.containers = {}  # name -> def lineno

    @classmethod
    def collect(cls, tree, guards):
        inventory = cls()
        for node in tree.body:
            for name, value, lineno in _module_assignments(node):
                reentrant = _lock_reentrancy(value)
                if reentrant is not None:
                    inventory.locks.setdefault(name, reentrant)
                    continue
                guard = guards.get(lineno)
                if guard is not None:
                    inventory.annotated.setdefault(name, (guard, lineno))
                if "." not in name and _is_container(value):
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
    """The one walk of a module: guarded-by violations, plus the facts
    the leaf rule resolves across modules afterwards."""

    def __init__(self, relpath, inventory, allows):
        self.relpath = relpath
        self.module = _module_name(relpath)
        self.inventory = inventory
        self.allows = allows
        self.violations = []
        self.scope = []        # dotted scope names (classes + functions)
        self.functions = []    # per-function {"globals", "locals", ...}
        self.held = []         # stack of lock-name sets from with blocks
        self.classes = []      # enclosing class names
        self.imports = {}      # local name -> (module, member)
        # (class + function name) -> [(held refs, "lock"/"call", ref, line)]
        self.events = {}

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

    def _record(self, kind, ref, node):
        """Note a lock acquisition or call for the leaf rule, with the
        locks the current function holds at that point."""
        if self.functions and ref is not None:
            frame = self.functions[-1]
            frame["events"].append(
                (tuple(frame["with"]), kind, ref, node.lineno)
            )

    def _ref(self, expr, kind):
        """A ``("name", id)`` / ``("self", class, attr)`` / ``("attr",
        attr)`` descriptor for a lock expression or call target."""
        if isinstance(expr, ast.Name):
            return ("name", expr.id)
        if self.classes and _self_field(expr) is not None:
            return ("self", self.classes[-1], expr.attr)
        if kind == "lock" and isinstance(expr, ast.Attribute):
            return ("attr", expr.attr)
        return None

    # -- scope tracking -------------------------------------------------

    def visit_ImportFrom(self, node):
        if node.module:
            for alias in node.names:
                self.imports[alias.asname or alias.name] = (
                    node.module, alias.name
                )

    def visit_ClassDef(self, node):
        self.scope.append(node.name)
        self.classes.append(node.name)
        self.generic_visit(node)
        self.classes.pop()
        self.scope.pop()

    def _visit_function(self, node):
        self.scope.append(node.name)
        qualname = ".".join(self.classes + [node.name])
        self.functions.append({
            "globals": _global_decls(node),
            "locals": _local_bindings(node),
            "with": [],  # lock refs this function's own with blocks hold
            "events": self.events.setdefault(qualname, []),
        })
        self.generic_visit(node)
        self.functions.pop()
        self.scope.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_With(self, node):
        refs = [self._ref(item.context_expr, "lock") for item in node.items]
        refs = [ref for ref in refs if ref is not None]
        stack = self.functions[-1]["with"] if self.functions else []
        for ref in refs:  # `with A, B:` nests B inside A
            self._record("lock", ref, node)
            stack.append(ref)
        # guarded-by annotations name the bare lock
        self.held.append({ref[-1] for ref in refs})
        self.generic_visit(node)
        self.held.pop()
        del stack[len(stack) - len(refs):]

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
        self._record("call", self._ref(func, "call"), node)
        self.generic_visit(node)

    # -- after the walk -------------------------------------------------

    def unknown_guard_locks(self):
        lock_names = {name.rpartition(".")[2] for name in self.inventory.locks}
        for name, (guard, lineno) in sorted(self.inventory.annotated.items()):
            if guard not in lock_names:
                self.violations.append(Violation(
                    rule="unknown-guard-lock",
                    severity="error",
                    path=self.relpath,
                    line=lineno,
                    scope="<module>",
                    symbol=name,
                    message=(
                        f"{name} is annotated guarded-by {guard}, but the "
                        f"module defines no lock named {guard}"
                    ),
                ))


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


def _walk_module(source, relpath):
    """Parse and walk one module (the only ``ast.parse`` of the head)."""
    relpath = relpath.replace(os.sep, "/")
    tree = ast.parse(source, filename=relpath)
    guards, allows = _comment_maps(source)
    checker = _GuardChecker(
        relpath, ModuleInventory.collect(tree, guards), allows
    )
    checker.visit(tree)
    checker.unknown_guard_locks()
    return checker


def _leaf_rule(checkers):
    """``(lock-not-leaf violations, {lock id: reentrant})`` across the
    walked modules.

    A lock id is ``module.NAME`` or ``module.Class.field``.  Resolvable
    calls are same-module functions, ``self.`` methods of the enclosing
    class and ``from x import f`` imports; a function's lockset is what
    it acquires plus its callees' locksets, to a fixed point.
    """
    modules = {checker.module: checker for checker in checkers}
    locks, by_field = {}, {}
    for checker in checkers:
        for name, reentrant in checker.inventory.locks.items():
            ident = f"{checker.module}.{name}"
            locks[ident] = reentrant
            if "." in name:
                by_field.setdefault(name.rpartition(".")[2], []).append(ident)

    def resolve(checker, ref, table):
        """*ref* as ``(module checker, key in table)``, or None."""
        kind, name = ref[0], ref[-1]
        if kind == "self":
            key = f"{ref[1]}.{name}"
            if key in table(checker):
                return checker, key
        elif kind == "name":
            if name in table(checker):
                return checker, name
            module, member = checker.imports.get(name, (None, None))
            target = modules.get(module)
            if target is not None and member in table(target):
                return target, member
        return None

    def lock_id(checker, ref):
        found = resolve(checker, ref, lambda c: c.inventory.locks)
        if found is not None:
            return f"{found[0].module}.{found[1]}"
        candidates = by_field.get(ref[-1], ()) if ref[0] != "name" else ()
        return candidates[0] if len(candidates) == 1 else None

    def callee(checker, ref):
        found = resolve(checker, ref, lambda c: c.events)
        return None if found is None else (found[0].module, found[1])

    sites, locksets, calls = [], {}, {}
    for checker in checkers:
        for qualname, events in checker.events.items():
            key = (checker.module, qualname)
            locksets[key], calls[key] = set(), set()
            for held, kind, ref, line in events:
                if kind == "lock":
                    target = lock_id(checker, ref)
                    if target is not None:
                        locksets[key].add(target)
                else:
                    target = callee(checker, ref)
                    if target is not None:
                        calls[key].add(target)
                if target is not None and held:
                    sites.append((checker, qualname, held, kind, target, line))
    changed = True
    while changed:
        changed = False
        for key, callees in calls.items():
            before = len(locksets[key])
            for target in callees:
                locksets[key] |= locksets[target]
            changed = changed or len(locksets[key]) != before

    violations = {}  # (path, line, symbol) -> first Violation found there
    for checker, qualname, held, kind, target, line in sites:
        acquired = {target} if kind == "lock" else locksets[target]
        via = "" if kind == "lock" else f" through {'.'.join(target)}()"
        for outer in filter(None, (lock_id(checker, ref) for ref in held)):
            for inner in sorted(acquired):
                if outer == inner and locks[outer]:
                    continue  # re-entering a reentrant lock
                symbol = f"{outer} -> {inner}"
                site = (checker.relpath, line, symbol)
                violations.setdefault(site, Violation(
                    rule="lock-not-leaf",
                    severity="error",
                    path=checker.relpath,
                    line=line,
                    scope=qualname,
                    symbol=symbol,
                    message=(
                        f"{inner} is acquired{via} while {outer} is held — "
                        "every lock must be a leaf: release the outer lock "
                        "first or move the inner acquisition out of its "
                        "critical section"
                    ),
                ))
    return list(violations.values()), locks


def _scan(sources):
    """``(violations, locks)`` of ``(relpath, source)`` pairs."""
    checkers = [_walk_module(source, relpath) for relpath, source in sources]
    leaf, locks = _leaf_rule(checkers)
    violations = leaf + [v for c in checkers for v in c.violations]
    return (
        sorted(violations, key=lambda v: (v.path, v.line, v.rule, v.symbol)),
        {ident: {"reentrant": locks[ident]} for ident in sorted(locks)},
    )


def scan_paths(paths=None):
    """Every concurrency violation of files and directory trees (see
    :func:`repro.analysis.code_lint.walk_sources` for path keying) and
    their lock inventory ``{lock id: {"reentrant": bool}}``, from one walk
    per module; ``None`` covers the installed :mod:`repro` package."""
    return _scan(walk_sources(paths))


def check_source(source, relpath):
    """Concurrency check of one module's source text.

    *relpath* is package-relative (e.g. ``"repro/engine/buffer.py"``).
    Returns :class:`~repro.analysis.code_lint.Violation` in line order.
    """
    return _scan([(relpath, source)])[0]


def check_paths(paths):
    """Concurrency check of files and directory trees."""
    return scan_paths(paths)[0]


def check_package():
    """Concurrency check of the installed :mod:`repro` package tree."""
    return check_paths(None)
